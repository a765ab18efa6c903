//! The compute kernels every dense and sparse product in this crate,
//! and Eq. 1's GRU step, run on — one source, compiled twice.
//!
//! # One source, two builds
//!
//! Each of the six entry points (`matmul_rows`, `transpose_matmul`,
//! `csr_rows`, `csr_rows_add`, `gru_rows`, `gru_grad_rows`) has one
//! body, in the private `baseline` module. On x86-64 the same body is
//! compiled a second time inside a `#[target_feature(enable =
//! "avx2,fma")]` twin, and every helper it reaches is
//! `#[inline(always)]`, so the twin compiles all of it with 256-bit
//! vectors. Each call selects its build with
//! `std::is_x86_feature_detected!`, whose answer std caches, so the
//! choice costs one load per call. Other targets build only the
//! baseline. There is no second kernel source, no knob and no
//! AVX-512 build (measured no faster than AVX2).
//!
//! Both builds give the same bits. A vector lane holds an independent
//! output column, so each element still receives its adds one at a
//! time in the order below, with the same zero skips; lanes never
//! split a sum. rustc never contracts `a * b + c` into a fused
//! multiply-add, so enabling FMA changes no rounding, and `tanh` and
//! `exp` stay the same libm calls. The one freedom left is the one
//! IEEE-754 and Rust leave to the compiler in every build: which sign
//! and payload a NaN computed from NaN operands carries, which follows
//! the operand order the compiler picks. So the builds agree on every
//! bit of every non-NaN element, and on NaN-ness.
//!
//! # Bit-identity argument
//!
//! Every kernel produces each output element by the same sequence of
//! IEEE-754 operations as the plain scalar loop or op-by-op composition
//! it replaces (kept as the test-only oracles in `oracle.rs`). The
//! kernels win by keeping partial sums and intermediates in registers
//! and by removing per-element overhead and whole-matrix passes, never
//! by reassociating a sum:
//!
//! * **dense matmul** — each output element starts at `+0.0` and
//!   receives its `a[i][k]·b[k][j]` contributions as separate adds in
//!   ascending `k`, skipping `k` where `a[i][k] == 0.0`. The skip is
//!   not the same as multiplying when `b` holds an `inf`/`NaN`, so
//!   every path applies it per LHS element. At the model's width
//!   (`n == 18`) the whole output row lives in a local `[f64; 18]` and
//!   is stored once; other widths add each `b[k]` row into the output
//!   row in place.
//! * **transposed-LHS matmul** (`Aᵀ·G`, the weight gradient) — element
//!   `(i, j)` accumulates `A[r][i]·G[r][j]` in ascending `r`: exactly
//!   the ascending-`k` order of `A.transpose().matmul(G)`, with the
//!   same zero skip, without materialising the transpose. At the
//!   model's width (`q == 18`) each output row `i` is a local
//!   `[f64; 18]` that walks column `i` of A down the rows and is
//!   stored once; other widths walk A's rows and add each `G[r]` row
//!   into the output rows in place.
//! * **CSR spmm** — each output row walks its source rows in original
//!   edge order and adds each `dense[src_row]` in turn, exactly like a
//!   storage-order edge walk. The
//!   accumulating form (`acc + S·b`) sums the row from `+0.0` the same
//!   way and only then adds it into `acc`, so a row with no entries
//!   still adds `0.0` (turning a `−0.0` into `+0.0`, as `add` would).
//! * **GRU step** — one row at a time, the six products of Eq. 1's
//!   gates (`x·Wz`, `h·Uz`, `x·Wr`, `h·Ur`, `x·Wh`, `(r⊙h)·Uh`) each run
//!   the dense matmul's ascending-`k`, zero-skip sequence into a fresh
//!   row accumulator, and the element-wise steps keep the composition's
//!   operand order: `(x·W + h·U) + b`, `r·h`, `h + z·(h̃ − h)`. Only
//!   z, r, h̃ and h′ leave registers, and only when a tape keeps them.
//!   The backward row walks the composition's reverse sweep: its
//!   gradient products (`·Uᵀ`, `·Wᵀ`) run on transposed copies with the
//!   zero skip on the gradient element, and each gradient slot receives
//!   its terms as separate adds in the sweep's order. Both take the
//!   `[f64; 18]` row path when the message and the state are 18 wide,
//!   and a `Vec` row of the same arithmetic otherwise.
//!
//! * **row sharing** — every kernel above builds an output row only from
//!   its own input rows and the shared weights, in a fixed order. So
//!   the eager evaluator (`classed.rs`) runs the dense products and the
//!   GRU step once per distinct input row and hands the result to every
//!   row with those inputs, and a CSR row reads each source through its
//!   class from a table of distinct rows, in the same entry order. Keys
//!   compare exact bits (`−0.0` and `+0.0`, and NaN payloads, stay
//!   apart), so a shared row is computed from the operands each of its
//!   rows holds; the profiler's `matmul` and `gru_step` elements count
//!   the rows computed.
//!
//! The loop-carried reductions (`dot`, `row_norm` in `matrix.rs`) stay
//! sequential: splitting them across lanes would reassociate the sum.
//! Callers win by hoisting norms instead.

use std::ops::Range;

use crate::tape::sigmoid;

/// The model's feature width `D`: products whose output has exactly
/// this many columns take the register-resident row path.
const NARROW: usize = 18;

/// Defines each entry point `name` over its body `baseline::name`, and
/// on x86-64 a twin `avx2::name` that compiles the same body with AVX2
/// and FMA enabled. The entry point runs the twin when the host has
/// both features.
macro_rules! entry_points {
    ($($name:ident($($arg:ident: $ty:ty),* $(,)?);)*) => {
        $(
            #[doc = concat!("[`baseline::", stringify!($name), "`], as AVX2 code on hosts that have it.")]
            pub(crate) fn $name($($arg: $ty),*) {
                #[cfg(target_arch = "x86_64")]
                if avx2::available() {
                    // SAFETY: the twin enables AVX2 and FMA, and the
                    // host has both.
                    return unsafe { avx2::$name($($arg),*) };
                }
                baseline::$name($($arg),*)
            }
        )*

        /// The entry points' bodies compiled with AVX2 and FMA enabled.
        #[cfg(target_arch = "x86_64")]
        mod avx2 {
            use super::*;

            /// Whether this host has AVX2 and FMA.
            #[inline(always)]
            pub(super) fn available() -> bool {
                std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
            }

            $(
                /// The baseline body compiled with AVX2 and FMA: call
                /// only where [`available`] holds.
                #[target_feature(enable = "avx2,fma")]
                pub(super) fn $name($($arg: $ty),*) {
                    baseline::$name($($arg),*)
                }
            )*
        }
    };
}

entry_points! {
    matmul_rows(a: &[f64], inner: usize, rows: Range<usize>, b: &[f64], n: usize, out: &mut [f64]);
    transpose_matmul(a: &[f64], p: usize, g: &[f64], q: usize, out: &mut [f64]);
    csr_rows(
        starts: &[usize],
        srcs: &[u32],
        rows: Range<usize>,
        dense: &[f64],
        class: Option<&[u32]>,
        cols: usize,
        out: &mut [f64],
    );
    csr_rows_add(
        starts: &[usize],
        srcs: &[u32],
        rows: Range<usize>,
        dense: &[f64],
        class: Option<&[u32]>,
        cols: usize,
        out: &mut [f64],
    );
    gru_rows(p: &GruParams, x: Option<&[f64]>, h: &[f64], rows: Range<usize>, out: [&mut [f64]; 4]);
    gru_grad_rows(
        wt: [&[f64]; 3],
        ut: [&[f64]; 3],
        dims: (usize, usize),
        ins: [&[f64]; 5],
        prior: [bool; 2],
        rows: Range<usize>,
        out: [&mut [f64]; 6],
    );
}

/// The entry points' bodies, compiled for the baseline target.
mod baseline {
    use super::*;

    /// Output rows `rows` of `a · b`, where `a` is `_ × inner` and `b` is
    /// `inner × n`, both row-major. `out` must be zeroed and cover exactly
    /// `rows`.
    #[inline(always)]
    pub(super) fn matmul_rows(
        a: &[f64],
        inner: usize,
        rows: Range<usize>,
        b: &[f64],
        n: usize,
        out: &mut [f64],
    ) {
        if n == 0 {
            return;
        }
        if n == NARROW {
            narrow_rows::<NARROW>(a, inner, rows, b, out);
        } else {
            generic_rows(a, inner, rows, b, n, out);
        }
    }

    /// `aᵀ · g` for row-major `a` (`rows × p`) and `g` (`rows × q`) into
    /// the zeroed `p × q` `out`: element `(i, j)` accumulates
    /// `a[r][i]·g[r][j]` in ascending `r`, skipping zero elements of `a`.
    #[inline(always)]
    pub(super) fn transpose_matmul(a: &[f64], p: usize, g: &[f64], q: usize, out: &mut [f64]) {
        if p == 0 || q == 0 {
            return;
        }
        if q == NARROW {
            narrow_transpose_rows::<NARROW>(a, p, g, out);
            return;
        }
        for (arow, grow) in a.chunks_exact(p).zip(g.chunks_exact(q)) {
            for (&av, orow) in arow.iter().zip(out.chunks_exact_mut(q)) {
                axpy_skip(orow, av, grow);
            }
        }
    }

    /// Output rows `rows` of a CSR product: row `r` sums `dense[src]`
    /// over `srcs[starts[r]..starts[r + 1]]` in entry order. `out` must be
    /// zeroed and cover exactly `rows`. With `class`, entry `src` reads row
    /// `class[src]` of `dense`, a table of distinct rows.
    #[inline(always)]
    pub(super) fn csr_rows(
        starts: &[usize],
        srcs: &[u32],
        rows: Range<usize>,
        dense: &[f64],
        class: Option<&[u32]>,
        cols: usize,
        out: &mut [f64],
    ) {
        if cols == 0 {
            return;
        }
        match class {
            None => csr_rows_via(starts, srcs, rows, dense, |s| s as usize, cols, out),
            Some(c) => csr_rows_via(starts, srcs, rows, dense, |s| c[s as usize] as usize, cols, out),
        }
    }

    /// Output rows `rows` of `acc + S·dense` over a CSR view, in place:
    /// row `r` sums `dense[src]` from `+0.0` in entry order,
    /// exactly as [`csr_rows`] builds it, and only then adds the sum into
    /// `out`'s row — so a row with no entries still adds `0.0`, and every
    /// element is `acc + (S·dense)` as a separate spmm and add give it.
    /// `class` reads a table of distinct rows as in [`csr_rows`].
    #[inline(always)]
    pub(super) fn csr_rows_add(
        starts: &[usize],
        srcs: &[u32],
        rows: Range<usize>,
        dense: &[f64],
        class: Option<&[u32]>,
        cols: usize,
        out: &mut [f64],
    ) {
        match class {
            None => csr_rows_add_via(starts, srcs, rows, dense, |s| s as usize, cols, out),
            Some(c) => {
                csr_rows_add_via(starts, srcs, rows, dense, |s| c[s as usize] as usize, cols, out)
            }
        }
    }

    /// Rows `rows` of one GRU step. `out` holds those rows of
    /// `[h′, z, r, h̃]`; the gate buffers may be empty, and then nothing is
    /// kept. `x` holds every message row, `h` every state row; with
    /// `x == None` each message row is read from `h′`'s buffer, which the
    /// step then overwrites.
    #[inline(always)]
    pub(super) fn gru_rows(
        p: &GruParams,
        x: Option<&[f64]>,
        h: &[f64],
        rows: Range<usize>,
        out: [&mut [f64]; 4],
    ) {
        if p.narrow() {
            gru_rows_as::<[f64; NARROW]>(p, x, h, rows, out);
        } else if p.d > 0 {
            gru_rows_as::<Vec<f64>>(p, x, h, rows, out);
        }
    }

    /// Rows `rows` of one GRU step's backward, given the gradient `g` of
    /// `h′` and the step's rows in `ins = [g, z, r, h̃, h]`. `wt` and `ut`
    /// are the transposed weights (`Wᵀ`: `d × input`, `Uᵀ`: `d × d`).
    ///
    /// Writes those rows of `out = [dZ, dR, dH̃, r ⊙ h, dh, dx]`, where `dZ`,
    /// `dR` and `dH̃` are the gradients of the three gates' activation
    /// arguments, the rows the weight and bias gradients are built from.
    /// Every element follows the op-by-op composition's reverse sweep: each
    /// product starts from `+0.0` in ascending `k` and skips zero gradient
    /// elements, and the gradient slots receive their terms in the sweep's
    /// order — `dh` takes `g`, `(g ⊙ z)·(−1)`, `d(r⊙h) ⊙ r`, `dR·Urᵀ` and
    /// `dZ·Uzᵀ`, `dx` the `Wh`, `Wr` and `Wz` terms. `prior` says whether
    /// the `dh` and `dx` slots already hold a gradient to add to (else
    /// their rows are overwritten); an empty `dh` or `dx` is not computed.
    #[inline(always)]
    pub(super) fn gru_grad_rows(
        wt: [&[f64]; 3],
        ut: [&[f64]; 3],
        dims: (usize, usize),
        ins: [&[f64]; 5],
        prior: [bool; 2],
        rows: Range<usize>,
        out: [&mut [f64]; 6],
    ) {
        let (input, d) = dims;
        if input == NARROW && d == NARROW {
            gru_grad_rows_as::<[f64; NARROW]>(wt, ut, dims, ins, prior, rows, out);
        } else if d > 0 {
            gru_grad_rows_as::<Vec<f64>>(wt, ut, dims, ins, prior, rows, out);
        }
    }
}

/// Narrow-output matmul: the whole output row is a local `[f64; N]`,
/// `k` ascends once over the inner dimension, and the row is stored
/// once. Per element this is [`generic_rows`]'s add sequence.
#[inline(always)]
fn narrow_rows<const N: usize>(
    a: &[f64],
    inner: usize,
    rows: Range<usize>,
    b: &[f64],
    out: &mut [f64],
) {
    for (i, orow) in rows.zip(out.chunks_exact_mut(N)) {
        let arow = &a[i * inner..(i + 1) * inner];
        let mut acc = [0.0f64; N];
        for (&av, brow) in arow.iter().zip(b.chunks_exact(N)) {
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in acc.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
        orow.copy_from_slice(&acc);
    }
}

/// Row-by-row ikj matmul: each output row receives `a[i][k] · b[k]`
/// for ascending `k`, skipping zero `a[i][k]`.
#[inline(always)]
fn generic_rows(a: &[f64], inner: usize, rows: Range<usize>, b: &[f64], n: usize, out: &mut [f64]) {
    for (i, orow) in rows.zip(out.chunks_exact_mut(n)) {
        let arow = &a[i * inner..(i + 1) * inner];
        for (&av, brow) in arow.iter().zip(b.chunks_exact(n)) {
            axpy_skip(orow, av, brow);
        }
    }
}

/// `y += a·x` unless `a == 0.0` — one `k` step of the reference loop.
#[inline(always)]
fn axpy_skip(y: &mut [f64], a: f64, x: &[f64]) {
    if a == 0.0 {
        return;
    }
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += a * xv;
    }
}

/// Narrow-output `aᵀ · g`: output row `i` is a local `[f64; N]` that
/// walks column `i` of `a` over ascending `r` and is stored once. Per
/// element this is [`transpose_matmul`]'s add sequence.
#[inline(always)]
fn narrow_transpose_rows<const N: usize>(a: &[f64], p: usize, g: &[f64], out: &mut [f64]) {
    for (i, orow) in out.chunks_exact_mut(N).enumerate() {
        let mut acc = [0.0f64; N];
        for (arow, grow) in a.chunks_exact(p).zip(g.chunks_exact(N)) {
            let av = arow[i];
            if av == 0.0 {
                continue;
            }
            for (o, &gv) in acc.iter_mut().zip(grow) {
                *o += av * gv;
            }
        }
        orow.copy_from_slice(&acc);
    }
}

#[inline(always)]
fn csr_rows_via(
    starts: &[usize],
    srcs: &[u32],
    rows: Range<usize>,
    dense: &[f64],
    src_row: impl Fn(u32) -> usize,
    cols: usize,
    out: &mut [f64],
) {
    for (r, dst) in rows.zip(out.chunks_exact_mut(cols)) {
        for &src in &srcs[starts[r]..starts[r + 1]] {
            let src = src_row(src) * cols;
            for (d, &x) in dst.iter_mut().zip(&dense[src..src + cols]) {
                *d += x;
            }
        }
    }
}

#[inline(always)]
fn csr_rows_add_via(
    starts: &[usize],
    srcs: &[u32],
    rows: Range<usize>,
    dense: &[f64],
    src_row: impl Fn(u32) -> usize,
    cols: usize,
    out: &mut [f64],
) {
    if cols == NARROW {
        csr_add_rows::<[f64; NARROW]>(starts, srcs, rows, dense, src_row, cols, out);
    } else if cols > 0 {
        csr_add_rows::<Vec<f64>>(starts, srcs, rows, dense, src_row, cols, out);
    }
}

#[inline(always)]
fn csr_add_rows<R: Lanes>(
    starts: &[usize],
    srcs: &[u32],
    rows: Range<usize>,
    dense: &[f64],
    src_row: impl Fn(u32) -> usize,
    cols: usize,
    out: &mut [f64],
) {
    let cols = R::width(cols);
    let mut sum = R::zeroed(cols);
    for (r, dst) in rows.zip(out.chunks_exact_mut(cols)) {
        sum.as_mut().fill(0.0);
        for &src in &srcs[starts[r]..starts[r + 1]] {
            let src = &dense[src_row(src) * cols..][..cols];
            for (s, &x) in sum.as_mut().iter_mut().zip(src) {
                *s += x;
            }
        }
        for (d, &s) in dst.iter_mut().zip(sum.as_ref()) {
            *d += s;
        }
    }
}

/// A row accumulator: a `[f64; N]` on the narrow path, so the row
/// stays in registers and every row length is a constant, and a
/// `Vec<f64>` on the generic-width path.
trait Lanes: AsRef<[f64]> + AsMut<[f64]> {
    /// The row length to use for a requested `len`: `N` for an array.
    fn width(len: usize) -> usize;
    /// A row of [`Lanes::width`]`(len)` zeros (`+0.0`).
    fn zeroed(len: usize) -> Self;
}

impl<const N: usize> Lanes for [f64; N] {
    #[inline(always)]
    fn width(_: usize) -> usize {
        N
    }

    #[inline(always)]
    fn zeroed(_: usize) -> Self {
        [0.0; N]
    }
}

impl Lanes for Vec<f64> {
    #[inline(always)]
    fn width(len: usize) -> usize {
        len
    }

    #[inline(always)]
    fn zeroed(len: usize) -> Self {
        vec![0.0; len]
    }
}

/// `a · b` for one LHS row `a` and a row-major `b` with `n` columns:
/// the matmul kernel's ascending-`k` add sequence from `+0.0`, skipping
/// `k` where `a[k] == 0.0`.
#[inline(always)]
fn row_product<R: Lanes>(a: &[f64], b: &[f64], n: usize) -> R {
    let mut acc = R::zeroed(n);
    for (&av, brow) in a.iter().zip(b.chunks_exact(R::width(n))) {
        if av == 0.0 {
            continue;
        }
        for (o, &bv) in acc.as_mut().iter_mut().zip(brow) {
            *o += av * bv;
        }
    }
    acc
}

/// A copy of `src` (of the accumulator's width).
#[inline(always)]
fn copied<R: Lanes>(src: &[f64]) -> R {
    let mut out = R::zeroed(src.len());
    out.as_mut().copy_from_slice(src);
    out
}

/// `f(a[j], b[j])` for every lane.
#[inline(always)]
fn zip<R: Lanes>(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> R {
    let mut out = R::zeroed(a.len());
    for ((o, &x), &y) in out.as_mut().iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
    out
}

/// `acc[j] = f(acc[j], b[j])` for every lane.
#[inline(always)]
fn update(acc: &mut [f64], b: &[f64], f: impl Fn(f64, f64) -> f64) {
    for (a, &x) in acc.iter_mut().zip(b) {
        *a = f(*a, x);
    }
}

/// The parameters of one GRU step as row-major slices, in
/// [`GruCell::matrices`](crate::GruCell::matrices) order split by role:
/// `w = [Wz, Wr, Wh]` (`input × d`), `u = [Uz, Ur, Uh]` (`d × d`) and
/// `b = [bz, br, bh]` (`1 × d`).
pub(crate) struct GruParams<'a> {
    pub w: [&'a [f64]; 3],
    pub u: [&'a [f64]; 3],
    pub b: [&'a [f64]; 3],
    pub input: usize,
    pub d: usize,
}

impl GruParams<'_> {
    /// Whether the step takes the narrow path: `D = 18` on both sides.
    #[inline(always)]
    fn narrow(&self) -> bool {
        self.input == NARROW && self.d == NARROW
    }
}

/// One gate's activation argument, `(x·W + state·U) + b`, passed
/// through `act`.
#[inline(always)]
fn gate<R: Lanes>(
    p: &GruParams,
    k: usize,
    x: &[f64],
    state: &[f64],
    act: impl Fn(f64) -> f64,
) -> R {
    let xw: R = row_product(x, p.w[k], p.d);
    let hu: R = row_product(state, p.u[k], p.d);
    let mut s: R = zip(xw.as_ref(), hu.as_ref(), |a, b| a + b);
    for (v, &b) in s.as_mut().iter_mut().zip(p.b[k]) {
        *v = act(*v + b);
    }
    s
}

/// One row of Eq. 1's GRU: `[z, r, h̃, h′]` for message row `x` and
/// state row `h`, each element by the add and multiply sequence of the
/// op-by-op composition (`r ⊙ h`, then `h + z ⊙ (h̃ − h)`).
#[inline(always)]
fn gru_row<R: Lanes>(p: &GruParams, x: &[f64], h: &[f64]) -> [R; 4] {
    let z: R = gate(p, 0, x, h, sigmoid);
    let r: R = gate(p, 1, x, h, sigmoid);
    let rh: R = zip(r.as_ref(), h, |r, h| r * h);
    let c: R = gate(p, 2, x, rh.as_ref(), f64::tanh);
    let mut next: R = zip(c.as_ref(), h, |c, h| c - h);
    for ((o, &zv), &hv) in next.as_mut().iter_mut().zip(z.as_ref()).zip(h) {
        *o = hv + zv * *o;
    }
    [z, r, c, next]
}

#[inline(always)]
fn gru_rows_as<R: Lanes>(
    p: &GruParams,
    x: Option<&[f64]>,
    h: &[f64],
    rows: Range<usize>,
    [next, z, r, c]: [&mut [f64]; 4],
) {
    let (input, d) = (R::width(p.input), R::width(p.d));
    let keep = !z.is_empty();
    for (local, i) in rows.enumerate() {
        let own: R;
        let xr = match x {
            Some(x) => &x[i * input..][..input],
            None => {
                own = copied(&next[local * d..][..d]);
                own.as_ref()
            }
        };
        let [zv, rv, cv, hv] = gru_row::<R>(p, xr, &h[i * d..][..d]);
        next[local * d..][..d].copy_from_slice(hv.as_ref());
        if keep {
            z[local * d..][..d].copy_from_slice(zv.as_ref());
            r[local * d..][..d].copy_from_slice(rv.as_ref());
            c[local * d..][..d].copy_from_slice(cv.as_ref());
        }
    }
}

#[inline(always)]
fn gru_grad_rows_as<R: Lanes>(
    wt: [&[f64]; 3],
    ut: [&[f64]; 3],
    (input, d): (usize, usize),
    [g, z, r, c, h]: [&[f64]; 5],
    [dh_prior, dx_prior]: [bool; 2],
    rows: Range<usize>,
    [gz_out, gr_out, gc_out, rh_out, dh_out, dx_out]: [&mut [f64]; 6],
) {
    let (input, d) = (R::width(input), R::width(d));
    let add = |a: f64, b: f64| a + b;
    for (local, i) in rows.enumerate() {
        let [g, z, r, c, h] = [g, z, r, c, h].map(|m| &m[i * d..][..d]);
        // h′ = h + z ⊙ (h̃ − h): the gradients of z and of h̃ − h.
        let delta: R = zip(c, h, |c, h| c - h);
        let mut gz: R = zip(g, delta.as_ref(), |g, dl| g * dl);
        let g_delta: R = zip(g, z, |g, z| g * z);
        // Back through tanh, r ⊙ h and the two sigmoids.
        let gc: R = zip(g_delta.as_ref(), c, |gd, c| gd * (1.0 - c * c));
        let g_rh: R = row_product(gc.as_ref(), ut[2], d);
        let mut gr: R = zip(g_rh.as_ref(), h, |grh, h| grh * h);
        update(gr.as_mut(), r, |gr, r| gr * (r * (1.0 - r)));
        update(gz.as_mut(), z, |gz, z| gz * (z * (1.0 - z)));
        let at = local * d;
        gz_out[at..][..d].copy_from_slice(gz.as_ref());
        gr_out[at..][..d].copy_from_slice(gr.as_ref());
        gc_out[at..][..d].copy_from_slice(gc.as_ref());
        let rh: R = zip(r, h, |r, h| r * h);
        rh_out[at..][..d].copy_from_slice(rh.as_ref());
        if !dh_out.is_empty() {
            let slot = &mut dh_out[at..][..d];
            let mut acc: R = if dh_prior { zip(slot, g, add) } else { copied(g) };
            // `(g ⊙ z)·(−1)` as the composition scales it: on a NaN,
            // negation would flip the sign bit where the product does not.
            #[allow(clippy::neg_multiply)]
            update(acc.as_mut(), g_delta.as_ref(), |a, gd| a + gd * -1.0);
            let via_rh: R = zip(g_rh.as_ref(), r, |grh, r| grh * r);
            update(acc.as_mut(), via_rh.as_ref(), add);
            update(acc.as_mut(), row_product::<R>(gr.as_ref(), ut[1], d).as_ref(), add);
            update(acc.as_mut(), row_product::<R>(gz.as_ref(), ut[0], d).as_ref(), add);
            slot.copy_from_slice(acc.as_ref());
        }
        if !dx_out.is_empty() {
            let slot = &mut dx_out[local * input..][..input];
            let mut acc: R = row_product(gc.as_ref(), wt[2], input);
            if dx_prior {
                acc = zip(slot, acc.as_ref(), add);
            }
            update(acc.as_mut(), row_product::<R>(gr.as_ref(), wt[1], input).as_ref(), add);
            update(acc.as_mut(), row_product::<R>(gz.as_ref(), wt[0], input).as_ref(), add);
            slot.copy_from_slice(acc.as_ref());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::same_bits;

    /// The output widths under test: 1, the widths either side of the
    /// narrow path, the narrow path itself, and a multiple of every
    /// vector length.
    const WIDTHS: [usize; 5] = [1, 17, NARROW, 19, 72];

    /// Calls `$name`'s baseline body, or its AVX2 twin when `$avx`.
    macro_rules! on_path {
        ($avx:expr, $name:ident($($arg:expr),* $(,)?)) => {
            if $avx {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `paths` offers the twin only when the host has
                // AVX2 and FMA.
                unsafe {
                    avx2::$name($($arg),*)
                }
            } else {
                baseline::$name($($arg),*)
            }
        };
    }

    /// The paths to compare: the baseline, and the AVX2 twin when the
    /// host can run it. A host without it says so, so the skip shows.
    fn paths() -> Vec<bool> {
        #[cfg(target_arch = "x86_64")]
        if avx2::available() {
            return vec![false, true];
        }
        eprintln!("kernel: no AVX2 and FMA on this host, so only the baseline path ran");
        vec![false]
    }

    /// Runs `f` on every path, each into its own copy of `init`, and
    /// asserts that every path leaves the baseline's bits (any NaN
    /// matching any NaN, as [`same_bits`] says why).
    fn assert_paths_agree<const K: usize>(
        what: &str,
        init: [Vec<f64>; K],
        f: impl Fn(bool, [&mut [f64]; K]),
    ) {
        let run = |avx: bool| {
            let mut bufs = init.clone();
            f(avx, bufs.each_mut().map(Vec::as_mut_slice));
            bufs
        };
        let want = run(false);
        for avx in paths().into_iter().skip(1) {
            for (k, (got, want)) in run(avx).iter().zip(&want).enumerate() {
                for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
                    assert!(same_bits(g, w), "{what}: output {k}[{i}] is {g:e}, baseline {w:e}");
                }
            }
        }
    }

    /// `len` values in `[-1, 1)` from an LCG, with every fifth a `0.0`
    /// and every seventh a `−0.0`.
    fn values(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|i| {
                s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                match i % 35 {
                    0 | 5 | 10 | 15 | 20 | 25 | 30 => 0.0,
                    7 | 14 | 21 | 28 => -0.0,
                    _ => (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0,
                }
            })
            .collect()
    }

    /// Overwrites row `row` (`width` wide) with `inf`, `NaN` and `−inf`.
    fn poison(m: &mut [f64], row: usize, width: usize) {
        let bad = [f64::INFINITY, f64::NAN, f64::NEG_INFINITY];
        for (j, v) in m[row * width..][..width].iter_mut().enumerate() {
            *v = bad[j % 3];
        }
    }

    /// A `rows × inner` LHS whose column `col` is `0.0` or `−0.0` in
    /// every row but the last, which holds `0.5`.
    fn lhs_skipping(rows: usize, inner: usize, col: usize, seed: u64) -> Vec<f64> {
        let mut a = values(rows * inner, seed);
        for i in 0..rows {
            a[i * inner + col] = [0.0, -0.0, 0.5][if i + 1 == rows { 2 } else { i % 2 }];
        }
        a
    }

    #[test]
    fn matmul_paths_agree_bitwise() {
        let (m, inner) = (6, 5);
        let a = lhs_skipping(m, inner, 1, 1);
        for n in WIDTHS {
            let mut b = values(inner * n, n as u64);
            poison(&mut b, 1, n);
            let rows = 1..m;
            assert_paths_agree(&format!("matmul n={n}"), [vec![0.0; rows.len() * n]], |avx, [out]| {
                on_path!(avx, matmul_rows(&a, inner, rows.clone(), &b, n, out))
            });
        }
    }

    #[test]
    fn transpose_matmul_paths_agree_bitwise() {
        let rows = 7;
        for p in [3, NARROW] {
            let a = lhs_skipping(rows, p, 2, p as u64);
            for q in WIDTHS {
                let mut g = values(rows * q, 40 + q as u64);
                poison(&mut g, 0, q);
                poison(&mut g, rows - 1, q);
                assert_paths_agree(&format!("aᵀ·g p={p} q={q}"), [vec![0.0; p * q]], |avx, [out]| {
                    on_path!(avx, transpose_matmul(&a, p, &g, q, out))
                });
            }
        }
    }

    #[test]
    fn csr_paths_agree_bitwise() {
        // Rows 1 and 4 are empty; sources repeat and interleave.
        let starts = [0, 3, 3, 5, 8, 8, 10];
        let srcs: [u32; 10] = [2, 0, 2, 5, 1, 3, 3, 4, 0, 5];
        let class: [u32; 6] = [1, 0, 2, 1, 3, 0];
        let rows = 0..starts.len() - 1;
        for cols in WIDTHS {
            let mut dense = values(6 * cols, cols as u64);
            poison(&mut dense, 3, cols);
            // Starts at `−0.0`, which an empty row's `+0.0` sum turns to `+0.0`.
            let acc = vec![-0.0; rows.len() * cols];
            for class in [None, Some(&class[..])] {
                let what = format!("csr cols={cols} classed={}", class.is_some());
                assert_paths_agree(&what, [vec![0.0; acc.len()]], |avx, [out]| {
                    on_path!(avx, csr_rows(&starts, &srcs, rows.clone(), &dense, class, cols, out))
                });
                assert_paths_agree(&format!("{what} add"), [acc.clone()], |avx, [out]| {
                    on_path!(avx, csr_rows_add(&starts, &srcs, rows.clone(), &dense, class, cols, out))
                });
            }
        }
    }

    /// `(input, d)` shapes: the narrow path, and the generic one at
    /// every width and with `input != d`.
    fn gru_shapes() -> Vec<(usize, usize)> {
        WIDTHS.iter().map(|&w| (w, w)).chain([(19, NARROW), (NARROW, 17)]).collect()
    }

    /// Three `rows × cols` matrices of [`values`].
    fn three(rows: usize, cols: usize, seed: u64) -> [Vec<f64>; 3] {
        std::array::from_fn(|k| values(rows * cols, seed + k as u64))
    }

    #[test]
    fn gru_paths_agree_bitwise() {
        let n = 5;
        let rows = 1..n;
        for (input, d) in gru_shapes() {
            let (w, u, b) = (three(input, d, 1), three(d, d, 4), three(1, d, 7));
            let p = GruParams {
                w: w.each_ref().map(Vec::as_slice),
                u: u.each_ref().map(Vec::as_slice),
                b: b.each_ref().map(Vec::as_slice),
                input,
                d,
            };
            let mut x = values(n * input, 11);
            poison(&mut x, 2, input);
            let h = values(n * d, 12);
            let len = rows.len() * d;
            for keep in [false, true] {
                let gates = if keep { len } else { 0 };
                let init = [values(len, 13), vec![0.0; gates], vec![0.0; gates], vec![0.0; gates]];
                let what = format!("gru ({input}, {d}) keep={keep}");
                assert_paths_agree(&what, init.clone(), |avx, out| {
                    on_path!(avx, gru_rows(&p, Some(&x), &h, rows.clone(), out))
                });
                if input == d {
                    // The message rows are read from `h′`'s buffer.
                    assert_paths_agree(&format!("{what} in place"), init, |avx, out| {
                        on_path!(avx, gru_rows(&p, None, &h, rows.clone(), out))
                    });
                }
            }
        }
    }

    #[test]
    fn gru_grad_paths_agree_bitwise() {
        let n = 5;
        let rows = 1..n;
        for (input, d) in gru_shapes() {
            let (wt, ut) = (three(d, input, 1), three(d, d, 4));
            let mut g = values(n * d, 7);
            poison(&mut g, 3, d);
            let ins = [g, values(n * d, 8), values(n * d, 9), values(n * d, 10), values(n * d, 11)];
            let ins = ins.each_ref().map(Vec::as_slice);
            let len = rows.len() * d;
            for prior in [[false, false], [true, false], [false, true], [true, true]] {
                for (dh, dx) in [(len, rows.len() * input), (0, rows.len() * input), (len, 0)] {
                    let what = format!("gru grad ({input}, {d}) prior={prior:?} dh={dh} dx={dx}");
                    let init = [
                        vec![0.0; len],
                        vec![0.0; len],
                        vec![0.0; len],
                        vec![0.0; len],
                        values(dh, 20),
                        values(dx, 21),
                    ];
                    assert_paths_agree(&what, init, |avx, out| {
                        on_path!(
                            avx,
                            gru_grad_rows(
                                wt.each_ref().map(Vec::as_slice),
                                ut.each_ref().map(Vec::as_slice),
                                (input, d),
                                ins,
                                prior,
                                rows.clone(),
                                out,
                            )
                        )
                    });
                }
            }
        }
    }
}
