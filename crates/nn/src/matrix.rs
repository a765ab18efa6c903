//! Dense row-major `f64` matrices — the numeric workhorse of the
//! substrate.
//!
//! # Kernel design
//!
//! The hot kernels ([`Matrix::matmul`], [`Matrix::transpose_matmul`],
//! [`Matrix::map_par`]) are written so that the parallel path is
//! **bit-identical** to the sequential one at any thread count:
//!
//! * work is split across *output rows*, so every output element is
//!   written by exactly one thread;
//! * the per-element accumulation order (ascending `k`) and the
//!   `a == 0.0` multiplicand skip are fixed by the kernel, not by the
//!   schedule.
//!
//! The arithmetic lives in the crate's single kernel module (whose
//! docs carry the bit-identity argument); this module owns shapes,
//! profiling, and the parallel row-chunk scheduling.

use std::fmt;
use std::ops::{Index, IndexMut, Range};

use crate::kernel;

/// A dense row-major matrix of `f64`.
///
/// # Example
///
/// ```
/// use ancstr_nn::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// assert_eq!(a[(1, 0)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// A matrix filled with one value.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Matrix {
        Matrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Build from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Matrix {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have the same length");
            data.extend_from_slice(row);
        }
        Matrix { rows: r, cols: c, data }
    }

    /// Wrap an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "buffer length must match shape");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// A row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A row as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of range");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · other`.
    ///
    /// Row-parallel for large products; the result is bit-identical at
    /// every thread count (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {:?} · {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        let inner = self.cols;
        let n = other.cols;
        let _prof = ancstr_par::profile::time(
            ancstr_par::profile::Kernel::Matmul,
            (self.rows * inner * n) as u64,
        );
        par_row_chunks(
            self.rows,
            n,
            &mut out.data,
            min_rows_for(inner * n),
            |rows, chunk| kernel::matmul_rows(&self.data, inner, rows, &other.data, n, chunk),
        );
        out
    }

    /// Transposed-LHS matrix product `selfᵀ · other` — the backward
    /// pass's weight gradient `Aᵀ · dC` without materialising `Aᵀ`.
    ///
    /// Bit-identical to `self.transpose().matmul(other)`: walking
    /// `self`'s rows in ascending order gives every output element its
    /// contributions in the same ascending-`k` order, with the same
    /// zero skip.
    ///
    /// # Panics
    ///
    /// Panics unless `self.rows() == other.rows()`.
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows,
            other.rows,
            "transpose_matmul shape mismatch: {:?}ᵀ · {:?}",
            self.shape(),
            other.shape()
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        let _prof = ancstr_par::profile::time(
            ancstr_par::profile::Kernel::Matmul,
            (self.rows * self.cols * other.cols) as u64,
        );
        kernel::transpose_matmul(&self.data, self.cols, &other.data, other.cols, &mut out.data);
        out
    }

    /// Transposed-RHS matrix product `self · otherᵀ` — the backward
    /// pass's `dC · Bᵀ` without asking every caller to transpose.
    ///
    /// Bit-identical to `self.matmul(&other.transpose())` by
    /// construction: one transposed copy of `other` feeds the matmul
    /// kernel. The copy costs `O(k·n)` but keeps the inner loop in the
    /// ikj orientation, whose independent per-`j` accumulators
    /// vectorize; a copy-free row-dot formulation pays a loop-carried
    /// dependence on the accumulator (reassociating it would change the
    /// bits) and measured slower than transpose-then-multiply.
    ///
    /// # Panics
    ///
    /// Panics unless `self.cols() == other.cols()`.
    pub fn matmul_transposed(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_transposed shape mismatch: {:?} · {:?}ᵀ",
            self.shape(),
            other.shape()
        );
        self.matmul(&other.transpose())
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, &v) in row.iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
        out
    }

    /// Stack matrices vertically (row-wise concatenation).
    ///
    /// The building block of batched execution: because every row-major
    /// kernel in this crate computes each output row independently,
    /// stacking `k` left-hand sides, running one kernel call, and
    /// [`Matrix::split_rows`]-ing the result is bit-identical to `k`
    /// separate calls.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the column counts disagree.
    pub fn vstack(parts: &[&Matrix]) -> Matrix {
        let cols = parts.first().expect("vstack needs at least one part").cols;
        let rows = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Split into row blocks of the given sizes — the inverse of
    /// [`Matrix::vstack`].
    ///
    /// # Panics
    ///
    /// Panics unless `sizes` sums to exactly `self.rows()`.
    pub fn split_rows(&self, sizes: &[usize]) -> Vec<Matrix> {
        assert_eq!(
            sizes.iter().sum::<usize>(),
            self.rows,
            "split_rows sizes must cover every row"
        );
        let mut out = Vec::with_capacity(sizes.len());
        let mut start = 0;
        for &n in sizes {
            out.push(Matrix {
                rows: n,
                cols: self.cols,
                data: self.data[start * self.cols..(start + n) * self.cols].to_vec(),
            });
            start += n;
        }
        out
    }

    /// Batched matrix product: each left-hand block times one shared
    /// right-hand side, executed as a single stacked [`Matrix::matmul`]
    /// call.
    ///
    /// Bit-identical to `blocks.iter().map(|a| a.matmul(rhs))` because
    /// the matmul kernel computes every output row from exactly one
    /// LHS row (accumulating over `k` in ascending order, with the
    /// `a == 0.0` skip applied per LHS element) — stacking only changes
    /// how rows are grouped for dispatch, never what any single row
    /// computes. A NaN/Inf in one block therefore cannot leak into
    /// another block's rows. This is the serving layer's batched-forward
    /// entry point.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty or any inner dimension mismatches.
    pub fn matmul_batched(blocks: &[&Matrix], rhs: &Matrix) -> Vec<Matrix> {
        let stacked = Matrix::vstack(blocks);
        let product = stacked.matmul(rhs);
        let sizes: Vec<usize> = blocks.iter().map(|b| b.rows).collect();
        product.split_rows(&sizes)
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise difference `self − other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul_elem(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a * b)
    }

    /// Scalar multiple.
    pub fn scale(&self, k: f64) -> Matrix {
        self.map(|x| x * k)
    }

    /// Apply `f` element-wise.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Apply `f` element-wise, in parallel for large matrices.
    ///
    /// Bit-identical to [`Matrix::map`] at any thread count (each
    /// element is independent). Worth it only when `f` is expensive —
    /// the activation transcendentals (`tanh`, `exp`) qualify; `x * k`
    /// does not.
    pub fn map_par(&self, f: impl Fn(f64) -> f64 + Sync) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let base = ancstr_par::SendPtr::new(out.data.as_mut_ptr());
        ancstr_par::for_each_chunk(self.data.len(), MAP_PAR_MIN_CHUNK, |range| {
            // Sound: chunk ranges are disjoint, so each element is
            // written by exactly one thread.
            let dst = unsafe {
                std::slice::from_raw_parts_mut(base.get().add(range.start), range.len())
            };
            for (o, &x) in dst.iter_mut().zip(&self.data[range]) {
                *o = f(x);
            }
        });
        out
    }

    /// The L2 norm of every row, computed exactly as
    /// [`cosine_similarity`] computes its per-vector norms (sum of
    /// squares in index order, then square root).
    pub fn row_norms(&self) -> Vec<f64> {
        let _prof = ancstr_par::profile::time(
            ancstr_par::profile::Kernel::RowNorms,
            (self.rows * self.cols) as u64,
        );
        ancstr_par::map_chunks(self.rows, min_rows_for(self.cols), |rows| {
            rows.map(|r| row_norm(self.row(r))).collect::<Vec<f64>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// `+=` in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Column sums as a `1 × cols` matrix.
    pub fn column_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for row in self.data.chunks_exact(self.cols.max(1)) {
            for (o, &v) in out.data.iter_mut().zip(row) {
                *o += v;
            }
        }
        out
    }

    /// Maximum absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// Whether every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    fn zip_with(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "element-wise op shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of range");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of range");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

/// Minimum elements per chunk for parallel element-wise maps; sized so
/// a chunk of transcendentals clearly outweighs pool dispatch.
const MAP_PAR_MIN_CHUNK: usize = 2048;

/// Per-chunk floor of ~32k mul-adds keeps pool dispatch overhead under
/// a few percent of chunk compute.
const PAR_MIN_CHUNK_WORK: usize = 32_768;

/// Minimum rows per parallel chunk for a kernel doing `work_per_row`
/// mul-adds per row.
pub(crate) fn min_rows_for(work_per_row: usize) -> usize {
    (PAR_MIN_CHUNK_WORK / work_per_row.max(1)).max(1)
}

/// Run `f` over chunks of rows, handing each invocation the mutable
/// sub-slice of `data` covering exactly its rows. Chunks are disjoint,
/// so the parallel writes are race-free.
pub(crate) fn par_row_chunks(
    rows: usize,
    cols: usize,
    data: &mut [f64],
    min_rows: usize,
    f: impl Fn(Range<usize>, &mut [f64]) + Sync,
) {
    assert_eq!(data.len(), rows * cols, "row-chunk buffer shape mismatch");
    let base = ancstr_par::SendPtr::new(data.as_mut_ptr());
    ancstr_par::for_each_chunk(rows, min_rows, |range| {
        // Sound: row ranges are disjoint and each slice covers only
        // this chunk's rows.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut(base.get().add(range.start * cols), range.len() * cols)
        };
        f(range, chunk);
    });
}

/// Dot product in ascending index order — the exact accumulation
/// [`cosine_similarity`] uses for its numerator, so callers that cache
/// [`Matrix::row_norms`] can reproduce its quotient bit-for-bit.
///
/// Sequential: lane-splitting a loop-carried sum would reassociate it.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// L2 norm of one vector, computed exactly as [`cosine_similarity`]
/// computes its per-vector denominators (and as [`Matrix::row_norms`]
/// computes each row's norm). The single source of truth for norm
/// arithmetic: callers that hoist norms out of pair loops — constraint
/// detection scores O(n²) pairs over n vectors — get quotients
/// bit-identical to calling [`cosine_similarity`] per pair.
pub fn row_norm(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Cosine similarity between two equal-or-different-length vectors; the
/// shorter is zero-padded (used by the variable-length circuit
/// embeddings of Algorithm 2). Returns 0 when either vector is all-zero.
///
/// # Example
///
/// ```
/// use ancstr_nn::matrix::cosine_similarity;
///
/// assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
/// assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
/// // zero-padding: [1,1] vs [1,1,0]
/// assert!((cosine_similarity(&[1.0, 1.0], &[1.0, 1.0, 0.0]) - 1.0).abs() < 1e-12);
/// ```
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    let (na, nb) = (row_norm(a), row_norm(b));
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        let id = Matrix::identity(3);
        assert_eq!(id[(1, 1)], 1.0);
        assert_eq!(id[(0, 1)], 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_checks_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_is_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[4.0, 6.0]]));
        assert_eq!(b.sub(&a), Matrix::from_rows(&[&[2.0, 2.0]]));
        assert_eq!(a.mul_elem(&b), Matrix::from_rows(&[&[3.0, 8.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, 4.0]]));
        assert_eq!(a.sum(), 3.0);
        assert!((a.frobenius_norm() - 5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn column_sums_and_max_abs() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        assert_eq!(a.column_sums(), Matrix::from_rows(&[&[4.0, 2.0]]));
        assert_eq!(a.max_abs(), 4.0);
        assert!(a.is_finite());
        let bad = Matrix::from_rows(&[&[f64::NAN]]);
        assert!(!bad.is_finite());
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine_similarity(&[3.0, 4.0], &[3.0, 4.0]) - 1.0).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
        assert_eq!(cosine_similarity(&[], &[]), 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let a = Matrix::zeros(2, 2);
        assert!(!format!("{a}").is_empty());
    }

    /// Deterministic pseudo-random matrix (no RNG dep in this crate).
    fn lcg_matrix(rows: usize, cols: usize, seed: &mut u64) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| {
            *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((*seed >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        })
    }

    /// The naive ijk oracle with the `a == 0.0` skip.
    fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
        let data = crate::oracle::matmul(a.as_slice(), a.rows(), a.cols(), b.as_slice(), b.cols());
        Matrix::from_vec(a.rows(), b.cols(), data)
    }

    fn assert_same_bits(a: &Matrix, b: &Matrix) {
        assert_eq!(a.shape(), b.shape());
        for (&x, &y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(crate::oracle::same_bits(x, y), "bit divergence: {x} vs {y}");
        }
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive_across_block_boundaries() {
        let mut seed = 7;
        // Long inner dimensions, widths on both sides of the narrow
        // width, and the parallel-dispatch threshold.
        for (m, k, n) in
            [(3, 5, 4), (17, 300, 9), (5, 260, 270), (600, 18, 18), (2500, 18, 18), (64, 257, 31)]
        {
            let mut a = lcg_matrix(m, k, &mut seed);
            // Exercise the zero-skip path too.
            if m > 1 && k > 2 {
                a[(1, 2)] = 0.0;
            }
            let b = lcg_matrix(k, n, &mut seed);
            assert_same_bits(&a.matmul(&b), &matmul_naive(&a, &b));
        }
    }

    #[test]
    fn matmul_is_bit_identical_at_every_thread_count() {
        let before = ancstr_par::threads();
        let mut seed = 99;
        let a = lcg_matrix(700, 19, &mut seed);
        let b = lcg_matrix(19, 23, &mut seed);
        ancstr_par::set_threads(1);
        let reference = a.matmul(&b);
        for t in [2usize, 4, 8] {
            ancstr_par::set_threads(t);
            assert_same_bits(&a.matmul(&b), &reference);
        }
        ancstr_par::set_threads(before);
    }

    #[test]
    fn matmul_transposed_matches_explicit_transpose_bitwise() {
        let mut seed = 13;
        for (m, k, n) in [(4, 6, 3), (320, 18, 18), (9, 270, 12)] {
            let mut a = lcg_matrix(m, k, &mut seed);
            a[(0, 0)] = 0.0;
            let bt = lcg_matrix(n, k, &mut seed);
            assert_same_bits(&a.matmul_transposed(&bt), &a.matmul(&bt.transpose()));
        }
    }

    #[test]
    fn matmul_zero_skip_semantics_preserved() {
        // Skipping a == 0.0 must keep ignoring inf/NaN in the other
        // operand, exactly like the historical kernel.
        let a = Matrix::from_rows(&[&[0.0, 1.0]]);
        let b = Matrix::from_rows(&[&[f64::INFINITY], &[2.0]]);
        assert_eq!(a.matmul(&b)[(0, 0)], 2.0);
        assert_eq!(a.matmul_transposed(&b.transpose())[(0, 0)], 2.0);
        assert_eq!(a.transpose().transpose_matmul(&b)[(0, 0)], 2.0);
    }

    #[test]
    fn transpose_matmul_matches_explicit_transpose_bitwise() {
        let mut seed = 23;
        for (rows, p, q) in [(1, 1, 1), (7, 3, 5), (1233, 18, 18), (40, 19, 18)] {
            let mut a = lcg_matrix(rows, p, &mut seed);
            a[(0, 0)] = 0.0;
            let g = lcg_matrix(rows, q, &mut seed);
            let got = a.transpose_matmul(&g);
            assert_same_bits(&got, &a.transpose().matmul(&g));
            let want = crate::oracle::transpose_matmul(a.as_slice(), rows, p, g.as_slice(), q);
            assert_same_bits(&got, &Matrix::from_vec(p, q, want));
        }
    }

    #[test]
    #[should_panic(expected = "transpose_matmul shape mismatch")]
    fn transpose_matmul_checks_shapes() {
        let _ = Matrix::zeros(2, 3).transpose_matmul(&Matrix::zeros(3, 3));
    }

    #[test]
    fn zero_width_products_are_empty() {
        assert_eq!(Matrix::zeros(3, 2).matmul(&Matrix::zeros(2, 0)).shape(), (3, 0));
        assert_eq!(Matrix::zeros(3, 0).matmul(&Matrix::zeros(0, 4)), Matrix::zeros(3, 4));
        assert_eq!(Matrix::zeros(3, 0).transpose_matmul(&Matrix::zeros(3, 2)).shape(), (0, 2));
        assert_eq!(Matrix::zeros(3, 2).transpose_matmul(&Matrix::zeros(3, 0)).shape(), (2, 0));
        let empty_rows = Matrix::zeros(0, 2).transpose_matmul(&Matrix::zeros(0, 18));
        assert_eq!(empty_rows, Matrix::zeros(2, 18));
        let empty_inner = Matrix::zeros(3, 0).matmul_transposed(&Matrix::zeros(2, 0));
        assert_eq!(empty_inner, Matrix::zeros(3, 2));
    }

    #[test]
    #[should_panic(expected = "matmul_transposed shape mismatch")]
    fn matmul_transposed_checks_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(5, 4);
        let _ = a.matmul_transposed(&b);
    }

    #[test]
    fn map_par_matches_map_bitwise() {
        let mut seed = 3;
        let m = lcg_matrix(123, 45, &mut seed);
        let before = ancstr_par::threads();
        for t in [1usize, 4] {
            ancstr_par::set_threads(t);
            assert_same_bits(&m.map_par(|x| x.tanh()), &m.map(|x| x.tanh()));
        }
        ancstr_par::set_threads(before);
    }

    #[test]
    fn row_norms_match_cosine_denominators() {
        let mut seed = 21;
        let m = lcg_matrix(40, 7, &mut seed);
        let norms = m.row_norms();
        assert_eq!(norms.len(), m.rows());
        for (r, norm) in norms.iter().enumerate() {
            let expect = m.row(r).iter().map(|x| x * x).sum::<f64>().sqrt();
            assert_eq!(norm.to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn vstack_and_split_rows_round_trip() {
        let mut seed = 31;
        let a = lcg_matrix(3, 5, &mut seed);
        let b = lcg_matrix(1, 5, &mut seed);
        let c = lcg_matrix(4, 5, &mut seed);
        let stacked = Matrix::vstack(&[&a, &b, &c]);
        assert_eq!(stacked.shape(), (8, 5));
        let parts = stacked.split_rows(&[3, 1, 4]);
        assert_same_bits(&parts[0], &a);
        assert_same_bits(&parts[1], &b);
        assert_same_bits(&parts[2], &c);
    }

    #[test]
    #[should_panic(expected = "vstack column mismatch")]
    fn vstack_checks_columns() {
        let _ = Matrix::vstack(&[&Matrix::zeros(1, 2), &Matrix::zeros(1, 3)]);
    }

    #[test]
    #[should_panic(expected = "cover every row")]
    fn split_rows_checks_sizes() {
        let _ = Matrix::zeros(4, 2).split_rows(&[1, 2]);
    }

    #[test]
    fn batched_matmul_is_bit_identical_to_per_block_calls() {
        let mut seed = 17;
        // Block heights straddle the parallel-dispatch threshold so the
        // stacked run parallelizes even when solo runs would not.
        let before = ancstr_par::threads();
        for t in [1usize, 4] {
            ancstr_par::set_threads(t);
            let blocks: Vec<Matrix> = [3usize, 700, 1, 64]
                .iter()
                .map(|&r| lcg_matrix(r, 19, &mut seed))
                .collect();
            let rhs = lcg_matrix(19, 23, &mut seed);
            let refs: Vec<&Matrix> = blocks.iter().collect();
            let batched = Matrix::matmul_batched(&refs, &rhs);
            assert_eq!(batched.len(), blocks.len());
            for (got, solo) in batched.iter().zip(&blocks) {
                assert_same_bits(got, &solo.matmul(&rhs));
            }
        }
        ancstr_par::set_threads(before);
    }

    #[test]
    fn batched_matmul_contains_nan_to_its_own_block() {
        let mut seed = 41;
        let mut poisoned = lcg_matrix(4, 6, &mut seed);
        poisoned[(2, 3)] = f64::NAN;
        let clean = lcg_matrix(5, 6, &mut seed);
        let rhs = lcg_matrix(6, 7, &mut seed);
        let out = Matrix::matmul_batched(&[&poisoned, &clean], &rhs);
        assert!(!out[0].is_finite(), "the poisoned block carries its NaN");
        assert_same_bits(&out[1], &clean.matmul(&rhs));
    }

    #[test]
    fn dot_and_row_norm_basics() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(row_norm(&[3.0, 4.0]), 5.0);
    }
}
