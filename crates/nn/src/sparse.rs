//! Sparse matrices in triplet form, used for the GNN's constant
//! adjacency operators (one per edge type).
//!
//! The dense products group the triplets by output row with a stable
//! counting sort into a **CSR view** (`starts` + contiguous
//! `(src_row, value)` entries), built lazily **once per matrix per
//! orientation** and cached — the GNN reuses each adjacency operator
//! across every GRU step of every epoch. Rows then accumulate inline
//! in the crate's kernel module, in parallel across disjoint output
//! rows for large operands. Sort stability is what keeps the result
//! bit-identical to a "walk the triplets in storage order" loop: each
//! output element still receives its contributions in the original
//! triplet order.

use std::sync::OnceLock;

use crate::kernel;
use crate::matrix::{min_rows_for, par_row_chunks, Matrix};

/// A sparse `rows × cols` matrix stored as `(row, col, value)` triplets.
///
/// Duplicate coordinates accumulate, which is exactly what parallel
/// multigraph edges need: an in-neighbour connected through two nets
/// contributes its feature twice to the Eq. 1 sum.
///
/// # Example
///
/// ```
/// use ancstr_nn::{Matrix, SparseMatrix};
///
/// let s = SparseMatrix::from_triplets(2, 3, vec![(0, 1, 2.0), (1, 2, 1.0)]);
/// let x = Matrix::from_rows(&[&[1.0], &[10.0], &[100.0]]);
/// let y = s.matmul_dense(&x);
/// assert_eq!(y, Matrix::from_rows(&[&[20.0], &[100.0]]));
/// ```
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    triplets: Vec<(usize, usize, f64)>,
    /// Cached CSR view grouped by triplet row (the forward product).
    by_row: OnceLock<CsrView>,
    /// Cached CSR view grouped by triplet column (the transpose
    /// product of the backward pass).
    by_col: OnceLock<CsrView>,
}

/// A stable grouping of the triplets by output row:
/// `entries[starts[r]..starts[r + 1]]` are the row-`r` contributions
/// as `(dense source row, value)`, in original storage order.
#[derive(Debug, Clone)]
struct CsrView {
    starts: Vec<usize>,
    entries: Vec<(u32, f64)>,
}

impl CsrView {
    /// Group by `out_row`; each entry reads dense row `src_row`.
    fn build(
        out_rows: usize,
        triplets: &[(usize, usize, f64)],
        out_row: impl Fn(&(usize, usize, f64)) -> usize,
        src_row: impl Fn(&(usize, usize, f64)) -> usize,
    ) -> CsrView {
        let mut starts = vec![0usize; out_rows + 1];
        for t in triplets {
            starts[out_row(t) + 1] += 1;
        }
        for r in 0..out_rows {
            starts[r + 1] += starts[r];
        }
        let mut cursor = starts.clone();
        let mut entries = vec![(0u32, 0.0); triplets.len()];
        for t in triplets {
            let r = out_row(t);
            let src = u32::try_from(src_row(t)).expect("sparse dimension fits in u32");
            entries[cursor[r]] = (src, t.2);
            cursor[r] += 1;
        }
        CsrView { starts, entries }
    }
}

/// Equality is structural (shape + triplets); the lazily built CSR
/// caches are derived data and deliberately excluded.
impl PartialEq for SparseMatrix {
    fn eq(&self, other: &SparseMatrix) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.triplets == other.triplets
    }
}

impl SparseMatrix {
    /// Build from triplets.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: Vec<(usize, usize, f64)>,
    ) -> SparseMatrix {
        for &(r, c, _) in &triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of range");
        }
        SparseMatrix { rows, cols, triplets, by_row: OnceLock::new(), by_col: OnceLock::new() }
    }

    /// An all-zero sparse matrix.
    pub fn zeros(rows: usize, cols: usize) -> SparseMatrix {
        SparseMatrix {
            rows,
            cols,
            triplets: Vec::new(),
            by_row: OnceLock::new(),
            by_col: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored triplets (duplicates counted).
    pub fn nnz(&self) -> usize {
        self.triplets.len()
    }

    /// Dense product `self · dense`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != dense.rows()`.
    pub fn matmul_dense(&self, dense: &Matrix) -> Matrix {
        self.matmul_dense_into(dense, Vec::new())
    }

    /// [`SparseMatrix::matmul_dense`] built in `buf`'s allocation.
    pub(crate) fn matmul_dense_into(&self, dense: &Matrix, buf: Vec<f64>) -> Matrix {
        self.matmul_classed_into(dense, None, buf)
    }

    /// `self · D` built in `buf`'s allocation, where `D` is `table` or,
    /// with `class`, the matrix whose row `j` is `table`'s row
    /// `class[j]`: each output row reads its sources from the table in
    /// triplet order, so its bits are those of the product with `D`
    /// written out.
    ///
    /// # Panics
    ///
    /// Panics if `D` does not have `self.cols()` rows, or a class names
    /// no table row.
    pub(crate) fn matmul_classed_into(
        &self,
        table: &Matrix,
        class: Option<&[u32]>,
        buf: Vec<f64>,
    ) -> Matrix {
        assert_eq!(self.cols, class.map_or(table.rows(), <[u32]>::len), "spmm shape mismatch");
        self.grouped_product(self.rows, table, class, self.row_view(), buf)
    }

    /// `acc + self · D`, written into `acc`, with `D` read from `table`
    /// and `class` as in [`SparseMatrix::matmul_classed_into`]: each row
    /// of the product is summed from `+0.0` in triplet order, exactly as
    /// [`SparseMatrix::matmul_dense`] builds it, and then added into
    /// `acc`'s row — bit-identical to `acc.add(&self.matmul_dense(D))`
    /// without the product's `rows × cols` buffer. An operator with no
    /// triplets still adds `0.0` to every element.
    ///
    /// # Panics
    ///
    /// Panics if `D` does not have `self.cols()` rows or `acc` is not
    /// `self.rows() × table.cols()`.
    pub(crate) fn matmul_dense_add_assign(
        &self,
        table: &Matrix,
        class: Option<&[u32]>,
        acc: &mut Matrix,
    ) {
        assert_eq!(self.cols, class.map_or(table.rows(), <[u32]>::len), "spmm shape mismatch");
        assert_eq!(acc.shape(), (self.rows, table.cols()), "spmm accumulator shape mismatch");
        let view = self.row_view();
        let cols = table.cols();
        let _prof = ancstr_par::profile::time(
            ancstr_par::profile::Kernel::Spmm,
            (self.triplets.len() * cols) as u64,
        );
        let min_rows = min_rows_for((self.triplets.len() * cols.max(1)) / self.rows.max(1));
        let dense = table.as_slice();
        par_row_chunks(self.rows, cols, acc.as_mut_slice(), min_rows, |rows, chunk| {
            kernel::csr_rows_add(&view.starts, &view.entries, rows, dense, class, cols, chunk);
        });
    }

    /// Build the forward product's cached CSR view now (a no-op when it
    /// exists), so the first [`SparseMatrix::matmul_dense`] does not: a
    /// graph builder moves the view's time and memory into its own stage.
    pub fn prepare_row_view(&self) {
        self.row_view();
    }

    /// The cached CSR view grouped by triplet row.
    fn row_view(&self) -> &CsrView {
        self.by_row.get_or_init(|| {
            CsrView::build(self.rows, &self.triplets, |&(r, _, _)| r, |&(_, c, _)| c)
        })
    }

    /// Dense product with the transpose: `selfᵀ · dense` (the backward
    /// pass of [`SparseMatrix::matmul_dense`]).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != dense.rows()`.
    pub fn transpose_matmul_dense(&self, dense: &Matrix) -> Matrix {
        self.transpose_matmul_dense_into(dense, Vec::new())
    }

    /// [`SparseMatrix::transpose_matmul_dense`] built in `buf`'s
    /// allocation.
    pub(crate) fn transpose_matmul_dense_into(&self, dense: &Matrix, buf: Vec<f64>) -> Matrix {
        assert_eq!(self.rows, dense.rows(), "spmmᵀ shape mismatch");
        let view = self.by_col.get_or_init(|| {
            CsrView::build(self.cols, &self.triplets, |&(_, c, _)| c, |&(r, _, _)| r)
        });
        self.grouped_product(self.cols, dense, None, view, buf)
    }

    /// Shared body of both dense products over a cached CSR view,
    /// timed as one spmm call; `class` maps each source row to its row
    /// of `dense` (see [`SparseMatrix::matmul_classed_into`]).
    ///
    /// Walking output rows through the stable CSR grouping accumulates
    /// each output element in original triplet order — bit-identical to
    /// a "walk the triplets in storage order" loop (rows are
    /// independent, so only the interleaving *across* rows differs;
    /// pinned by the tests below).
    fn grouped_product(
        &self,
        out_rows: usize,
        dense: &Matrix,
        class: Option<&[u32]>,
        view: &CsrView,
        buf: Vec<f64>,
    ) -> Matrix {
        let cols = dense.cols();
        let mut out = Matrix::zeros_in(out_rows, cols, buf);
        if self.triplets.is_empty() {
            return out;
        }
        let _prof = ancstr_par::profile::time(
            ancstr_par::profile::Kernel::Spmm,
            (self.triplets.len() * cols) as u64,
        );
        let avg_work = (self.triplets.len() * cols.max(1)) / out_rows.max(1);
        let min_rows = min_rows_for(avg_work);
        let walk = |rows: std::ops::Range<usize>, chunk: &mut [f64]| {
            kernel::csr_rows(&view.starts, &view.entries, rows, dense.as_slice(), class, cols, chunk);
        };
        if !ancstr_par::would_parallelize(out_rows, min_rows) {
            walk(0..out_rows, out.as_mut_slice());
            return out;
        }
        par_row_chunks(out_rows, cols, out.as_mut_slice(), min_rows, walk);
        out
    }

    /// The stored triplets.
    pub fn triplets(&self) -> &[(usize, usize, f64)] {
        &self.triplets
    }

    /// Materialize as a dense matrix (tests and eigen-analysis).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for &(r, c, v) in &self.triplets {
            m[(r, c)] += v;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_accumulate() {
        let s = SparseMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, 1.0)]);
        assert_eq!(s.to_dense()[(0, 0)], 2.0);
        let x = Matrix::identity(2);
        assert_eq!(s.matmul_dense(&x)[(0, 0)], 2.0);
    }

    #[test]
    fn spmm_matches_dense() {
        let s = SparseMatrix::from_triplets(
            3,
            2,
            vec![(0, 0, 1.0), (1, 1, 2.0), (2, 0, -1.0), (2, 1, 0.5)],
        );
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(s.matmul_dense(&x), s.to_dense().matmul(&x));
    }

    #[test]
    fn transpose_spmm_matches_dense() {
        let s = SparseMatrix::from_triplets(3, 2, vec![(0, 1, 1.5), (2, 0, 2.0)]);
        let y = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        assert_eq!(
            s.transpose_matmul_dense(&y),
            s.to_dense().transpose().matmul(&y)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn triplets_are_validated() {
        let _ = SparseMatrix::from_triplets(2, 2, vec![(2, 0, 1.0)]);
    }

    #[test]
    fn zeros_products_are_zero() {
        let s = SparseMatrix::zeros(2, 3);
        assert_eq!(s.nnz(), 0);
        let x = Matrix::filled(3, 4, 7.0);
        assert_eq!(s.matmul_dense(&x), Matrix::zeros(2, 4));
    }

    #[test]
    fn zero_width_dense_operand_gives_empty_products() {
        let s = SparseMatrix::from_triplets(3, 2, vec![(0, 1, 1.5), (2, 0, 2.0)]);
        assert_eq!(s.matmul_dense(&Matrix::zeros(2, 0)).shape(), (3, 0));
        assert_eq!(s.transpose_matmul_dense(&Matrix::zeros(3, 0)).shape(), (2, 0));
    }

    /// The storage-order triplet walk oracle.
    fn spmm_reference(s: &SparseMatrix, dense: &Matrix, transpose: bool) -> Matrix {
        let out_rows = if transpose { s.cols() } else { s.rows() };
        let data =
            crate::oracle::spmm(s.triplets(), out_rows, dense.as_slice(), dense.cols(), transpose);
        Matrix::from_vec(out_rows, dense.cols(), data)
    }

    #[test]
    fn csr_cache_is_warm_after_first_product_and_invisible() {
        let s = SparseMatrix::from_triplets(
            5,
            4,
            vec![(3, 1, 2.0), (0, 0, 1.0), (3, 1, -0.5), (2, 3, 4.0)],
        );
        let pristine = s.clone();
        let x = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f64 * 0.25 - 1.0);
        let cold = s.matmul_dense(&x);
        // Second call hits the cached by-row view; bits must not move.
        let warm = s.matmul_dense(&x);
        for (a, b) in cold.as_slice().iter().zip(warm.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let y = Matrix::from_fn(5, 3, |r, c| (r + c) as f64 * 0.5);
        let t_cold = s.transpose_matmul_dense(&y);
        let t_warm = s.transpose_matmul_dense(&y);
        assert_eq!(t_cold, t_warm);
        // The cache is derived data: a matrix with warm caches still
        // equals its pristine clone, and cloning carries correctness.
        assert_eq!(s, pristine);
        assert_eq!(pristine.matmul_dense(&x), cold);
        assert_eq!(s.clone().matmul_dense(&x), cold);
    }

    #[test]
    fn grouped_spmm_is_bit_identical_to_triplet_order_walk() {
        // Unsorted rows, duplicates, and an empty row — the stable
        // grouping must preserve each element's accumulation order.
        let mut seed = 5u64;
        let mut rnd = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let triplets: Vec<(usize, usize, f64)> = (0..4000)
            .map(|i| ((i * 31 + 7) % 97, (i * 17 + 3) % 23, rnd()))
            .collect();
        let s = SparseMatrix::from_triplets(100, 23, triplets);
        let x = Matrix::from_fn(23, 18, |_, _| rnd());
        let before = ancstr_par::threads();
        for t in [1usize, 4, 8] {
            ancstr_par::set_threads(t);
            let fwd = s.matmul_dense(&x);
            let reference = spmm_reference(&s, &x, false);
            assert_eq!(fwd.shape(), reference.shape());
            for (a, b) in fwd.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            let y = Matrix::from_fn(100, 18, |_, _| rnd());
            let bwd = s.transpose_matmul_dense(&y);
            let reference_t = spmm_reference(&s, &y, true);
            for (a, b) in bwd.as_slice().iter().zip(reference_t.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        ancstr_par::set_threads(before);
    }
}
