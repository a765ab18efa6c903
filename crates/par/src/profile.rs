//! Zero-cost-when-disabled kernel profiling counters.
//!
//! The workspace's bit-identity contract forbids instrumentation from
//! feeding back into numerics, so these counters only *observe*: each
//! instrumented kernel records calls, elements processed, wall
//! nanoseconds and the thread count in play. When profiling is disabled
//! (the default) an instrumented call pays exactly one relaxed atomic
//! load and never touches the clock, so the hot paths are unperturbed.
//!
//! Attribution is flat, not hierarchical: kernel time recorded inside
//! a `par_region` counts toward both. spmm is timed once per product,
//! never per nonzero, so the timer does not dominate what it measures.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The instrumented kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Kernel {
    /// Dense matmul, row by row (`Matrix::matmul` and the transposed
    /// products of the backward pass in `ancstr-nn`). Elements are the
    /// mul-adds of the rows actually computed: inference multiplies
    /// only the distinct rows of `H` (`ClassedRows` in `ancstr-nn`).
    Matmul = 0,
    /// Sparse × dense product (`SparseMatrix::grouped_product`).
    Spmm = 1,
    // Slot 2 is the retired per-nonzero `axpy` kernel: nothing records
    // into it any more, but its name stays in the exposition (reading
    // 0) so existing consumers of `axpy.calls` keep working.
    /// Per-row L2 norms (`Matrix::row_norms`).
    RowNorms = 3,
    /// One parallel region dispatched through the worker pool
    /// (calls = batches, elements = chunks executed).
    ParRegion = 4,
    /// One fused GRU step of Eq. 1, forward or backward
    /// (`Forward::gru_step` in `ancstr-nn`; elements = the mul-adds of
    /// its six row products over the rows actually computed: on the
    /// inference path one row per distinct (message, state) key, not
    /// one per vertex). The products inside it are not counted as
    /// matmul calls; the backward's weight gradients are.
    GruStep = 5,
}

/// Exposition names, indexed by [`Kernel`] discriminant.
pub const KERNEL_NAMES: [&str; 6] =
    ["matmul", "spmm", "axpy", "row_norms", "par_region", "gru_step"];

struct Slot {
    calls: AtomicU64,
    elems: AtomicU64,
    wall_ns: AtomicU64,
    threads: AtomicU64,
}

const fn slot() -> Slot {
    Slot {
        calls: AtomicU64::new(0),
        elems: AtomicU64::new(0),
        wall_ns: AtomicU64::new(0),
        threads: AtomicU64::new(0),
    }
}

static SLOTS: [Slot; 6] = [slot(), slot(), slot(), slot(), slot(), slot()];
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn profiling on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether profiling is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zero every counter (start of a measured sweep).
pub fn reset() {
    for s in &SLOTS {
        s.calls.store(0, Ordering::Relaxed);
        s.elems.store(0, Ordering::Relaxed);
        s.wall_ns.store(0, Ordering::Relaxed);
        s.threads.store(0, Ordering::Relaxed);
    }
}

/// RAII guard returned by [`time`]; records on drop.
#[must_use]
pub struct Timer {
    kernel: usize,
    elems: u64,
    start: Option<Instant>,
}

/// Start timing one kernel call over `elems` elements.
///
/// Returns an inert guard (no clock read) when profiling is disabled.
#[inline]
pub fn time(kernel: Kernel, elems: u64) -> Timer {
    Timer {
        kernel: kernel as usize,
        elems,
        start: enabled().then(Instant::now),
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let wall = start.elapsed().as_nanos() as u64;
        let s = &SLOTS[self.kernel];
        s.calls.fetch_add(1, Ordering::Relaxed);
        s.elems.fetch_add(self.elems, Ordering::Relaxed);
        s.wall_ns.fetch_add(wall, Ordering::Relaxed);
        s.threads.store(super::threads() as u64, Ordering::Relaxed);
    }
}

/// A point-in-time copy of one kernel's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelStats {
    /// Kernel name as exposed in metrics.
    pub name: &'static str,
    /// Number of instrumented calls.
    pub calls: u64,
    /// Total elements processed (kernel-specific unit: mul-adds for
    /// matmul/spmm/gru_step, vector elements for row_norms, chunks for
    /// par_region).
    pub elems: u64,
    /// Total wall nanoseconds inside the kernel.
    pub wall_ns: u64,
    /// Thread count configured at the most recent call.
    pub threads: u64,
}

/// Snapshot every kernel's counters, in [`KERNEL_NAMES`] order.
pub fn snapshot() -> Vec<KernelStats> {
    KERNEL_NAMES
        .iter()
        .zip(&SLOTS)
        .map(|(name, s)| KernelStats {
            name,
            calls: s.calls.load(Ordering::Relaxed),
            elems: s.elems.load(Ordering::Relaxed),
            wall_ns: s.wall_ns.load(Ordering::Relaxed),
            threads: s.threads.load(Ordering::Relaxed),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The counters are process-global; serialize the tests that toggle
    /// them. Other tests in this crate only ever touch `par_region`
    /// (via the pool), so assertions stick to the nn-facing kernels.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_timers_record_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        reset();
        {
            let _t = time(Kernel::Matmul, 1000);
        }
        let stats = snapshot();
        let matmul = stats.iter().find(|s| s.name == "matmul").unwrap();
        assert_eq!((matmul.calls, matmul.elems, matmul.wall_ns), (0, 0, 0), "{stats:?}");
    }

    #[test]
    fn enabled_timers_accumulate_calls_elems_and_wall() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        reset();
        {
            let _t = time(Kernel::Spmm, 64);
        }
        {
            let _t = time(Kernel::Spmm, 36);
        }
        let stats = snapshot();
        set_enabled(false);
        let spmm = stats.iter().find(|s| s.name == "spmm").unwrap();
        assert_eq!(spmm.calls, 2, "{stats:?}");
        assert_eq!(spmm.elems, 100, "{stats:?}");
        assert!(spmm.threads >= 1, "{stats:?}");
        // wall_ns may round to 0 on a coarse clock but never goes
        // negative; two Instant reads happened, so it is recorded.
        assert_eq!(stats.iter().find(|s| s.name == "matmul").unwrap().calls, 0);
    }
}
