//! Test-only scalar oracles for the kernels in `kernel.rs`: the plain
//! loops each kernel must reproduce bit for bit.
//!
//! Compiled only into tests — as `crate::oracle` for this crate's unit
//! tests and, through a `#[path]` module, into `tests/proptests.rs` —
//! so it depends on nothing but `std` and works on raw row-major
//! slices.

/// `a · b` by the naive ijk loop, skipping `a[i][k] == 0.0`: `a` is
/// `m × inner`, `b` is `inner × n`.
pub fn matmul(a: &[f64], m: usize, inner: usize, b: &[f64], n: usize) -> Vec<f64> {
    let mut out = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            for k in 0..inner {
                let av = a[i * inner + k];
                if av == 0.0 {
                    continue;
                }
                out[i * n + j] += av * b[k * n + j];
            }
        }
    }
    out
}

/// `aᵀ · g` by materialising `aᵀ` and calling [`matmul`]: `a` is
/// `rows × p`, `g` is `rows × q`.
pub fn transpose_matmul(a: &[f64], rows: usize, p: usize, g: &[f64], q: usize) -> Vec<f64> {
    let mut at = vec![0.0; p * rows];
    for r in 0..rows {
        for c in 0..p {
            at[c * rows + r] = a[r * p + c];
        }
    }
    matmul(&at, p, rows, g, q)
}

/// A sparse product by walking `(row, col, value)` triplets in storage
/// order: `S · dense` (`out_rows = rows of S`), or `Sᵀ · dense` when
/// `transpose` is set (`out_rows = cols of S`). No zero skip.
pub fn spmm(
    triplets: &[(usize, usize, f64)],
    out_rows: usize,
    dense: &[f64],
    cols: usize,
    transpose: bool,
) -> Vec<f64> {
    let mut out = vec![0.0; out_rows * cols];
    for &(r, c, v) in triplets {
        let (dst, src) = if transpose { (c, r) } else { (r, c) };
        for j in 0..cols {
            out[dst * cols + j] += v * dense[src * cols + j];
        }
    }
    out
}

/// Bitwise equality, except that any NaN matches any NaN: IEEE-754
/// leaves the payload of a NaN produced from two NaN operands to the
/// operand order, which the compiler may commute.
pub fn same_bits(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}
