//! The compute kernels every dense and sparse product in this crate
//! runs on — one implementation, no runtime dispatch.
//!
//! # Bit-identity argument
//!
//! Every kernel produces each output element by the same sequence of
//! IEEE-754 operations as the plain scalar loop it replaces (kept as
//! the test-only oracle in `oracle.rs`). The kernels win by keeping
//! partial sums in registers and by removing per-element overhead,
//! never by reassociating a sum:
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
//! * **CSR spmm** — each output row walks its `(src_row, value)`
//!   entries in original triplet order and adds `value·dense[src_row]`
//!   with no zero skip, exactly like a storage-order triplet walk.
//!
//! The loop-carried reductions (`dot`, `row_norm` in `matrix.rs`) stay
//! sequential: splitting them across lanes would reassociate the sum.
//! Callers win by hoisting norms instead.

use std::ops::Range;

/// The model's feature width `D`: products whose output has exactly
/// this many columns take the register-resident row path.
const NARROW: usize = 18;

/// Output rows `rows` of `a · b`, where `a` is `_ × inner` and `b` is
/// `inner × n`, both row-major. `out` must be zeroed and cover exactly
/// `rows`.
pub(crate) fn matmul_rows(
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

/// Narrow-output matmul: the whole output row is a local `[f64; N]`,
/// `k` ascends once over the inner dimension, and the row is stored
/// once. Per element this is [`generic_rows`]'s add sequence.
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
fn generic_rows(a: &[f64], inner: usize, rows: Range<usize>, b: &[f64], n: usize, out: &mut [f64]) {
    for (i, orow) in rows.zip(out.chunks_exact_mut(n)) {
        let arow = &a[i * inner..(i + 1) * inner];
        for (&av, brow) in arow.iter().zip(b.chunks_exact(n)) {
            axpy_skip(orow, av, brow);
        }
    }
}

/// `y += a·x` unless `a == 0.0` — one `k` step of the reference loop.
#[inline]
fn axpy_skip(y: &mut [f64], a: f64, x: &[f64]) {
    if a == 0.0 {
        return;
    }
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += a * xv;
    }
}

/// `aᵀ · g` for row-major `a` (`rows × p`) and `g` (`rows × q`) into
/// the zeroed `p × q` `out`: element `(i, j)` accumulates
/// `a[r][i]·g[r][j]` in ascending `r`, skipping zero elements of `a`.
pub(crate) fn transpose_matmul(a: &[f64], p: usize, g: &[f64], q: usize, out: &mut [f64]) {
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

/// Narrow-output `aᵀ · g`: output row `i` is a local `[f64; N]` that
/// walks column `i` of `a` over ascending `r` and is stored once. Per
/// element this is [`transpose_matmul`]'s add sequence.
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

/// Output rows `rows` of a CSR product: row `r` sums
/// `value · dense[src_row]` over `entries[starts[r]..starts[r + 1]]`
/// in entry order. `out` must be zeroed and cover exactly `rows`.
pub(crate) fn csr_rows(
    starts: &[usize],
    entries: &[(u32, f64)],
    rows: Range<usize>,
    dense: &[f64],
    cols: usize,
    out: &mut [f64],
) {
    if cols == 0 {
        return;
    }
    for (r, dst) in rows.zip(out.chunks_exact_mut(cols)) {
        for &(src, v) in &entries[starts[r]..starts[r + 1]] {
            let src = src as usize * cols;
            for (d, &x) in dst.iter_mut().zip(&dense[src..src + cols]) {
                *d += v * x;
            }
        }
    }
}
