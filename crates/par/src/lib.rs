#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! Deterministic data-parallel compute layer.
//!
//! Every other crate in the workspace promises bit-identical outputs —
//! across runs, across crash/resume, across the daemon and the one-shot
//! CLI. This crate adds threads without giving that up. The contract:
//!
//! **outputs are byte-identical at any thread count**, including
//! `--threads 1`, because
//!
//! 1. the index range `0..n` is split into chunks whose boundaries
//!    depend only on `n` and the requested minimum chunk size — never
//!    on the thread count, timing, or which worker claims which chunk
//!    ([`chunk_size`]);
//! 2. each chunk is an independent job over a disjoint index range, so
//!    any floating-point accumulation *inside* a chunk happens in the
//!    same order as the sequential loop; and
//! 3. per-chunk results are merged in ascending chunk order — an
//!    *ordered reduction* — regardless of completion order
//!    ([`map_chunks`]).
//!
//! The sequential path runs the exact same chunk bodies in the exact
//! same order, so "parallel" and "sequential" are the same computation
//! scheduled differently.
//!
//! # Worker pool
//!
//! A small persistent pool ([`for_each_chunk`] lazily spawns it on
//! first above-threshold use) executes one batch at a time: the
//! submitting thread installs a type-erased job, participates in chunk
//! execution itself, and blocks until every chunk has finished before
//! returning — which is what makes it sound to hand workers a borrowed
//! closure. Worker panics are caught and re-raised on the submitting
//! thread. Nested parallel regions (a chunk body that itself calls into
//! this crate) run inline sequentially instead of deadlocking on the
//! single-batch pool.
//!
//! # Thread count
//!
//! The global thread count is process-wide: [`set_threads`] (the CLI
//! `--threads` flag lands here) and [`threads`]. `0` or "never set"
//! means [`available_parallelism`]. Setting it to 1 disables the pool
//! entirely.

pub mod profile;

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

/// Maximum number of chunks a single parallel region is split into.
///
/// Bounded so per-chunk dispatch overhead stays negligible, and fixed
/// so chunk boundaries never depend on the thread count.
pub const MAX_CHUNKS: usize = 64;

/// Smallest region (in items) worth handing to the worker pool.
///
/// The BENCH_PR8 kernel attribution showed `par_region` batch setup
/// (condvar wake + join) growing with thread count while the
/// matmul/spmm/axpy wall times stayed flat from 1 to 8 threads — the
/// Table III suite's detect and graph-build stages were paying pool
/// dispatch on regions of a few hundred items. Regions below this
/// floor now run on the submitting thread instead. Chunk boundaries
/// are computed exactly as before ([`chunk_size`] ignores the floor),
/// so per-chunk partials and every downstream output stay bit-identical
/// — only the schedule changes.
pub const PAR_ITEM_FLOOR: usize = 2048;

static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide thread count. `0` restores the default
/// ([`available_parallelism`]); `1` forces fully sequential execution.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::SeqCst);
}

/// The effective thread count: the last [`set_threads`] value, or
/// [`available_parallelism`] if unset.
pub fn threads() -> usize {
    match THREADS.load(Ordering::SeqCst) {
        0 => available_parallelism(),
        n => n,
    }
}

/// The hardware parallelism reported by the OS (at least 1), resolved
/// once per process.
///
/// `std::thread::available_parallelism` reads cgroup files on every
/// call (~20 µs), and [`threads`] consults this on every parallel
/// region and every profiled kernel call when no count was set, so the
/// answer is cached rather than re-queried.
pub fn available_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The chunk size used to split `0..n` with a requested minimum chunk
/// of `min_chunk` items.
///
/// Depends only on `n` and `min_chunk` — deliberately *not* on
/// [`threads`] — so per-chunk partial results (and any floating-point
/// reduction over them) are identical at every thread count.
pub fn chunk_size(n: usize, min_chunk: usize) -> usize {
    let min_chunk = min_chunk.max(1);
    min_chunk.max(n.div_ceil(MAX_CHUNKS))
}

/// Number of chunks `0..n` splits into (0 when `n == 0`).
pub fn chunk_count(n: usize, min_chunk: usize) -> usize {
    if n == 0 {
        0
    } else {
        n.div_ceil(chunk_size(n, min_chunk))
    }
}

fn chunk_range(n: usize, size: usize, idx: usize) -> Range<usize> {
    let start = idx * size;
    start..(start + size).min(n)
}

thread_local! {
    /// True while this thread is executing a chunk body (worker or
    /// participating submitter). Nested regions then run inline.
    static IN_PARALLEL_REGION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Would a region over `0..n` with this `min_chunk` actually fan out
/// right now?
///
/// True only when the region is at least [`PAR_ITEM_FLOOR`] items, it
/// splits into more than one chunk, more than one worker is
/// configured, and the caller is not already inside a parallel region.
/// Callers with a cheaper sequential formulation that is
/// *bit-identical* to the chunked one (e.g. skipping a grouping pass)
/// may use this to pick it — the choice must never be observable in
/// the output, only in the wall clock.
pub fn would_parallelize(n: usize, min_chunk: usize) -> bool {
    n >= PAR_ITEM_FLOOR
        && chunk_count(n, min_chunk) > 1
        && threads() > 1
        && !IN_PARALLEL_REGION.with(|c| c.get())
}

/// Run `f` over the chunks of `0..n`, in parallel when the region is
/// large enough and the thread count allows it.
///
/// `f` receives each chunk's index range exactly once; ranges are
/// disjoint and cover `0..n`. The sequential path calls `f` on the same
/// chunks in ascending order.
pub fn for_each_chunk(n: usize, min_chunk: usize, f: impl Fn(Range<usize>) + Sync) {
    let size = chunk_size(n, min_chunk);
    let chunks = chunk_count(n, min_chunk);
    if chunks == 0 {
        return;
    }
    let nested = IN_PARALLEL_REGION.with(|c| c.get());
    let workers = threads();
    if chunks == 1 || workers <= 1 || nested || n < PAR_ITEM_FLOOR {
        for idx in 0..chunks {
            f(chunk_range(n, size, idx));
        }
        return;
    }
    pool::run(chunks, workers, &|idx| f(chunk_range(n, size, idx)));
}

/// Map the chunks of `0..n` through `f` and return the per-chunk
/// results **in ascending chunk order** — the ordered reduction.
///
/// Completion order never leaks into the output: chunk `i`'s result is
/// always slot `i`, so `map_chunks(...)` equals the sequential
/// `(0..chunk_count).map(|i| f(range_i)).collect()` fold exactly, at
/// any thread count.
pub fn map_chunks<R: Send>(
    n: usize,
    min_chunk: usize,
    f: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    let size = chunk_size(n, min_chunk);
    let chunks = chunk_count(n, min_chunk);
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(chunks, || None);
    let slots = Mutex::new(out);
    for_each_chunk(n, min_chunk, |range| {
        let idx = range.start / size;
        let r = f(range);
        slots.lock().expect("result slots poisoned")[idx] = Some(r);
    });
    slots
        .into_inner()
        .expect("result slots poisoned")
        .into_iter()
        .map(|r| r.expect("every chunk ran exactly once"))
        .collect()
}

/// Map a slice through `f` with chunked parallelism, returning results
/// in input order.
pub fn map_items<T: Sync, R: Send>(
    items: &[T],
    min_chunk: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    map_chunks(items.len(), min_chunk, |range| {
        items[range].iter().map(&f).collect::<Vec<R>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// A raw mutable pointer that asserts `Send + Sync` so chunk bodies can
/// write to disjoint regions of one buffer.
///
/// # Safety contract (on the user)
///
/// Chunks handed out by [`for_each_chunk`] are disjoint, so writes
/// through a `SendPtr` are race-free **iff** each chunk body only
/// touches indices inside its own range. That invariant is the
/// caller's to uphold.
pub struct SendPtr<T>(*mut T);

// SAFETY: the one field is a pointer that this type never dereferences;
// the caller upholds the contract above for every write through it.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: as for `Send`: sharing the pointer is sharing its address.
unsafe impl<T> Sync for SendPtr<T> {}

// A pointer copies whatever it points to (`derive` would ask `T: Copy`).
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> SendPtr<T> {
        *self
    }
}

impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Wrap a raw pointer for cross-thread disjoint writes.
    pub fn new(ptr: *mut T) -> SendPtr<T> {
        SendPtr(ptr)
    }

    /// The wrapped pointer.
    pub fn get(self) -> *mut T {
        self.0
    }
}

mod pool {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    /// Lifetime-erased reference to the borrowed chunk runner. Valid
    /// for the whole batch because [`run`] does not return until every
    /// chunk has finished.
    #[derive(Clone, Copy)]
    struct JobFn(&'static (dyn Fn(usize) + Sync));

    /// What a parked worker copies out under the state lock, once per
    /// batch; all per-chunk traffic then goes through the lock-free
    /// ticket.
    #[derive(Clone, Copy)]
    struct Batch {
        func: JobFn,
        chunks: usize,
        generation: u32,
    }

    struct State {
        batch: Option<Batch>,
        /// Bumped per installed batch; parked workers use it to tell a
        /// new batch from a spurious wakeup.
        generation: u32,
        spawned: usize,
    }

    struct Pool {
        state: Mutex<State>,
        work_cv: Condvar,
        done_cv: Condvar,
        /// Serializes batches: one parallel region at a time.
        submit: Mutex<()>,
        /// Generation-tagged claim ticket: `(generation << 32) | next
        /// unclaimed chunk`. Claiming is a CAS that only advances the
        /// chunk counter when the generation still matches, so a worker
        /// waking late from a finished batch can never claim (or even
        /// perturb the counter of) the next one.
        ticket: AtomicU64,
        /// Chunks whose bodies have returned (or panicked) in the
        /// current batch.
        done: AtomicUsize,
        panicked: AtomicBool,
    }

    static POOL: OnceLock<&'static Pool> = OnceLock::new();

    fn pool() -> &'static Pool {
        POOL.get_or_init(|| {
            Box::leak(Box::new(Pool {
                state: Mutex::new(State { batch: None, generation: 0, spawned: 0 }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                submit: Mutex::new(()),
                ticket: AtomicU64::new(0),
                done: AtomicUsize::new(0),
                panicked: AtomicBool::new(false),
            }))
        })
    }

    /// Claim the next chunk of batch `generation`, without taking the
    /// state lock. Fails once the batch is exhausted or superseded.
    /// (Generations wrap at 2³² — a worker would have to sleep through
    /// 4 billion batches to alias one, at which point `chunks` would
    /// also have to match; accepted.)
    fn claim(p: &Pool, generation: u32, chunks: usize) -> Option<usize> {
        let mut cur = p.ticket.load(Ordering::Acquire);
        loop {
            if (cur >> 32) as u32 != generation {
                return None;
            }
            let idx = (cur & u32::MAX as u64) as usize;
            if idx >= chunks {
                return None;
            }
            match p.ticket.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(idx),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Run one claimed chunk and record completion; the last chunk of
    /// the batch wakes the submitter. The brief state lock before the
    /// notify pairs with the submitter's wait loop so the wakeup cannot
    /// be lost.
    fn execute(p: &Pool, batch: Batch, idx: usize) {
        let result = catch_unwind(AssertUnwindSafe(|| (batch.func.0)(idx)));
        if result.is_err() {
            p.panicked.store(true, Ordering::Release);
        }
        if p.done.fetch_add(1, Ordering::AcqRel) + 1 == batch.chunks {
            drop(p.state.lock().unwrap_or_else(|e| e.into_inner()));
            p.done_cv.notify_all();
        }
    }

    fn worker_loop(p: &'static Pool) {
        IN_PARALLEL_REGION.with(|c| c.set(true));
        let mut seen_generation = 0u32;
        loop {
            let batch = {
                let mut state = p.state.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if state.generation != seen_generation {
                        seen_generation = state.generation;
                        // A batch may already be gone by the time we
                        // wake; note the generation and keep waiting.
                        if let Some(b) = state.batch {
                            break b;
                        }
                    }
                    state = p.work_cv.wait(state).unwrap_or_else(|e| e.into_inner());
                }
            };
            while let Some(idx) = claim(p, batch.generation, batch.chunks) {
                execute(p, batch, idx);
            }
        }
    }

    fn ensure_workers(p: &'static Pool, wanted: usize) {
        let mut state = p.state.lock().unwrap_or_else(|e| e.into_inner());
        while state.spawned < wanted {
            let id = state.spawned;
            std::thread::Builder::new()
                .name(format!("ancstr-par-{id}"))
                .spawn(move || worker_loop(pool()))
                .expect("spawn pool worker");
            state.spawned += 1;
        }
    }

    /// Execute `runner(idx)` for every `idx in 0..chunks` using up to
    /// `workers` threads (including the calling thread). Returns after
    /// all chunks have completed; re-raises any chunk panic.
    pub(super) fn run(chunks: usize, workers: usize, runner: &(dyn Fn(usize) + Sync)) {
        let _prof = profile::time(profile::Kernel::ParRegion, chunks as u64);
        let p = pool();
        let _batch_guard = p.submit.lock().unwrap_or_else(|e| e.into_inner());
        // Helper-thread budget: never more than there are chunks beyond
        // our own share, and never more threads than hardware — the
        // BENCH_PR9 profile showed `--threads 8` on fewer cores spending
        // more wall in scheduler thrash than in kernels. Chunk
        // boundaries don't depend on the thread count, so capping is
        // schedule-only and bit-identical.
        let helpers = workers
            .min(available_parallelism())
            .min(chunks)
            .saturating_sub(1);
        ensure_workers(p, helpers);

        // SAFETY: erasing `runner`'s lifetime is sound because we block
        // below until `done == chunks`, so no worker can touch `runner`
        // after we return.
        let func = JobFn(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(runner)
        });
        let batch = {
            let mut state = p.state.lock().unwrap_or_else(|e| e.into_inner());
            debug_assert!(state.batch.is_none(), "batches are serialized by `submit`");
            state.generation = state.generation.wrapping_add(1);
            let batch = Batch { func, chunks, generation: state.generation };
            // Publish the reset counters before the ticket enables
            // claims for this generation.
            p.done.store(0, Ordering::Relaxed);
            p.panicked.store(false, Ordering::Relaxed);
            p.ticket.store((batch.generation as u64) << 32, Ordering::Release);
            state.batch = Some(batch);
            batch
        };
        if helpers > 0 {
            p.work_cv.notify_all();
        }

        // The submitter participates instead of idling.
        IN_PARALLEL_REGION.with(|c| c.set(true));
        while let Some(idx) = claim(p, batch.generation, batch.chunks) {
            execute(p, batch, idx);
        }
        IN_PARALLEL_REGION.with(|c| c.set(false));

        {
            let mut state = p.state.lock().unwrap_or_else(|e| e.into_inner());
            while p.done.load(Ordering::Acquire) < chunks {
                state = p.done_cv.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            state.batch = None;
        }
        if p.panicked.load(Ordering::Acquire) {
            panic!("ancstr-par: a parallel chunk panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn chunk_ranges_partition_the_input() {
        for n in [0usize, 1, 7, 64, 65, 1000, 4097] {
            for min_chunk in [1usize, 8, 100] {
                let size = chunk_size(n, min_chunk);
                let chunks = chunk_count(n, min_chunk);
                let mut covered = 0;
                for idx in 0..chunks {
                    let r = chunk_range(n, size, idx);
                    assert_eq!(r.start, covered, "n={n} min={min_chunk} idx={idx}");
                    assert!(r.end > r.start);
                    covered = r.end;
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn chunking_is_thread_count_independent() {
        let before = threads();
        let baseline = chunk_count(1000, 8);
        for t in [1usize, 2, 8, 64] {
            set_threads(t);
            assert_eq!(chunk_count(1000, 8), baseline);
        }
        set_threads(before);
    }

    #[test]
    fn for_each_chunk_visits_every_index_once() {
        let n = 10_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        for_each_chunk(n, 16, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_chunks_is_an_ordered_reduction() {
        let n = 5000;
        let parallel = map_chunks(n, 7, |r| (r.start, r.end));
        let size = chunk_size(n, 7);
        let sequential: Vec<(usize, usize)> = (0..chunk_count(n, 7))
            .map(|idx| {
                let r = chunk_range(n, size, idx);
                (r.start, r.end)
            })
            .collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn map_items_preserves_input_order() {
        let items: Vec<u64> = (0..3000).collect();
        let doubled = map_items(&items, 11, |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn float_sum_identical_at_every_thread_count() {
        let data: Vec<f64> = (0..10_000).map(|i| ((i * 37) % 101) as f64 * 0.1 - 5.0).collect();
        let sum_at = |t: usize| {
            set_threads(t);
            let partials = map_chunks(data.len(), 64, |r| data[r].iter().sum::<f64>());
            // Ordered fold over per-chunk partials: chunk boundaries are
            // thread-independent, so this is bit-stable.
            partials.into_iter().sum::<f64>()
        };
        let before = threads();
        let reference = sum_at(1);
        for t in [2usize, 4, 8] {
            assert_eq!(sum_at(t).to_bits(), reference.to_bits());
        }
        set_threads(before);
    }

    #[test]
    fn nested_regions_run_inline_without_deadlock() {
        // Above the item floor so the outer region really uses the pool.
        let n = 4 * PAR_ITEM_FLOOR;
        let before = threads();
        set_threads(4);
        let total: u64 = map_chunks(n, 1, |outer| {
            // Nested call from inside a chunk body: must not deadlock.
            map_chunks(outer.len(), 1, |inner| inner.len() as u64)
                .into_iter()
                .sum::<u64>()
        })
        .into_iter()
        .sum();
        assert_eq!(total, n as u64);
        set_threads(before);
    }

    #[test]
    fn chunk_panics_propagate_to_the_submitter() {
        // Above the item floor so the panic crosses the pool boundary,
        // not just an inline call stack.
        let n = 2 * PAR_ITEM_FLOOR;
        let before = threads();
        set_threads(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            for_each_chunk(n, 1, |r| {
                if r.contains(&(n / 2)) {
                    panic!("boom");
                }
            });
        }));
        set_threads(before);
        assert!(result.is_err(), "panic must cross the pool boundary");
        // The pool must still be usable after a panicked batch.
        let ok: usize = map_chunks(2 * PAR_ITEM_FLOOR, 1, |r| r.len()).into_iter().sum();
        assert_eq!(ok, 2 * PAR_ITEM_FLOOR);
    }

    #[test]
    fn regions_below_the_item_floor_stay_inline() {
        let before = threads();
        set_threads(8);
        assert!(!would_parallelize(PAR_ITEM_FLOOR - 1, 1));
        assert!(would_parallelize(PAR_ITEM_FLOOR, 1));
        // Inline scheduling is invisible in the results.
        let small: usize =
            map_chunks(PAR_ITEM_FLOOR - 1, 1, |r| r.len()).into_iter().sum();
        assert_eq!(small, PAR_ITEM_FLOOR - 1);
        set_threads(before);
    }

    #[test]
    fn zero_and_tiny_inputs() {
        for_each_chunk(0, 8, |_| panic!("no chunks for n=0"));
        assert!(map_chunks(0, 8, |r| r.len()).is_empty());
        assert_eq!(map_chunks(1, 8, |r| r.len()), vec![1]);
    }
}
