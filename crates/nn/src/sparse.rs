//! Sparse matrices of edge counts, used for the GNN's constant
//! adjacency operators (one per edge type).
//!
//! An operator is built once from a `(row, col)` edge list in storage
//! order. Construction groups the list with a stable counting sort into
//! two **CSR views** (`starts` + the `u32` source row of every edge): by
//! row for the forward product, by column for the transpose product of
//! the backward pass. Rows then accumulate inline in the crate's kernel
//! module, in parallel across disjoint output rows for large operands.
//! Sort stability is what keeps both products bit-identical to a "walk
//! the edges in storage order" loop: each output element still receives
//! its contributions in the original edge order. That is why the column
//! view is sorted from the list itself: a transpose of the row view
//! would reorder the backward sums.

use crate::kernel;
use crate::matrix::{min_rows_for, par_row_chunks, Matrix};

/// A sparse `rows × cols` matrix whose entry `(r, c)` counts the edges
/// `(r, c)` it was built from.
///
/// Duplicate edges accumulate, which is exactly what parallel
/// multigraph edges need: an in-neighbour connected through two nets
/// contributes its feature twice to the Eq. 1 sum.
///
/// Equality compares both views: the row view alone does not fix the
/// storage order the transpose product sums in.
///
/// # Example
///
/// ```
/// use ancstr_nn::{Matrix, SparseMatrix};
///
/// let s = SparseMatrix::from_edges(2, 3, &[(0, 1), (0, 1), (1, 2)]);
/// let x = Matrix::from_rows(&[&[1.0], &[10.0], &[100.0]]);
/// let y = s.matmul_dense(&x);
/// assert_eq!(y, Matrix::from_rows(&[&[20.0], &[100.0]]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// The edges grouped by row (the forward product).
    by_row: CsrView,
    /// The edges grouped by column (the transpose product of the
    /// backward pass).
    by_col: CsrView,
}

/// A stable grouping of the edges by output row:
/// `srcs[starts[r]..starts[r + 1]]` are the dense source rows summed
/// into row `r`, in storage order.
#[derive(Debug, Clone, PartialEq)]
struct CsrView {
    starts: Vec<usize>,
    srcs: Vec<u32>,
}

impl CsrView {
    /// Group `edges` by output row `key(e).0`; each entry reads dense
    /// row `key(e).1`.
    fn build(
        out_rows: usize,
        edges: &[(u32, u32)],
        key: impl Fn((u32, u32)) -> (u32, u32),
    ) -> CsrView {
        let mut starts = vec![0usize; out_rows + 1];
        for &e in edges {
            starts[key(e).0 as usize + 1] += 1;
        }
        for r in 0..out_rows {
            starts[r + 1] += starts[r];
        }
        let mut cursor = starts.clone();
        let mut srcs = vec![0u32; edges.len()];
        for &e in edges {
            let (out, src) = key(e);
            srcs[cursor[out as usize]] = src;
            cursor[out as usize] += 1;
        }
        CsrView { starts, srcs }
    }
}

impl SparseMatrix {
    /// Build from `(row, col)` edges in storage order.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn from_edges(rows: usize, cols: usize, edges: &[(u32, u32)]) -> SparseMatrix {
        for &(r, c) in edges {
            assert!((r as usize) < rows && (c as usize) < cols, "edge ({r},{c}) out of range");
        }
        SparseMatrix {
            rows,
            cols,
            by_row: CsrView::build(rows, edges, |(r, c)| (r, c)),
            by_col: CsrView::build(cols, edges, |(r, c)| (c, r)),
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

    /// Number of stored edges (duplicates counted).
    pub fn nnz(&self) -> usize {
        self.by_row.srcs.len()
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
    /// edge order, so its bits are those of the product with `D`
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
        self.grouped_product(self.rows, table, class, &self.by_row, buf)
    }

    /// `acc + self · D`, written into `acc`, with `D` read from `table`
    /// and `class` as in [`SparseMatrix::matmul_classed_into`]: each row
    /// of the product is summed from `+0.0` in edge order, exactly as
    /// [`SparseMatrix::matmul_dense`] builds it, and then added into
    /// `acc`'s row — bit-identical to `acc.add(&self.matmul_dense(D))`
    /// without the product's `rows × cols` buffer. An operator with no
    /// edges still adds `0.0` to every element.
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
        let view = &self.by_row;
        let cols = table.cols();
        let _prof = ancstr_par::profile::time(
            ancstr_par::profile::Kernel::Spmm,
            (self.nnz() * cols) as u64,
        );
        let min_rows = min_rows_for((self.nnz() * cols.max(1)) / self.rows.max(1));
        let dense = table.as_slice();
        par_row_chunks(self.rows, cols, acc.as_mut_slice(), min_rows, |rows, chunk| {
            kernel::csr_rows_add(&view.starts, &view.srcs, rows, dense, class, cols, chunk);
        });
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
        self.grouped_product(self.cols, dense, None, &self.by_col, buf)
    }

    /// Shared body of both dense products over a CSR view, timed as one
    /// spmm call; `class` maps each source row to its row of `dense`
    /// (see [`SparseMatrix::matmul_classed_into`]).
    ///
    /// Walking output rows through the stable CSR grouping accumulates
    /// each output element in original edge order — bit-identical to a
    /// "walk the edges in storage order" loop (rows are independent, so
    /// only the interleaving *across* rows differs; pinned by the tests
    /// below).
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
        if self.nnz() == 0 {
            return out;
        }
        let _prof = ancstr_par::profile::time(
            ancstr_par::profile::Kernel::Spmm,
            (self.nnz() * cols) as u64,
        );
        let min_rows = min_rows_for((self.nnz() * cols.max(1)) / out_rows.max(1));
        let walk = |rows: std::ops::Range<usize>, chunk: &mut [f64]| {
            kernel::csr_rows(&view.starts, &view.srcs, rows, dense.as_slice(), class, cols, chunk);
        };
        if !ancstr_par::would_parallelize(out_rows, min_rows) {
            walk(0..out_rows, out.as_mut_slice());
            return out;
        }
        par_row_chunks(out_rows, cols, out.as_mut_slice(), min_rows, walk);
        out
    }

    /// Materialize as a dense matrix of edge counts (tests).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        let CsrView { starts, srcs } = &self.by_row;
        for r in 0..self.rows {
            for &c in &srcs[starts[r]..starts[r + 1]] {
                m[(r, c as usize)] += 1.0;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_accumulate() {
        let s = SparseMatrix::from_edges(2, 2, &[(0, 0), (0, 0)]);
        assert_eq!(s.to_dense()[(0, 0)], 2.0);
        let x = Matrix::identity(2);
        assert_eq!(s.matmul_dense(&x)[(0, 0)], 2.0);
    }

    #[test]
    fn spmm_matches_dense() {
        let s = SparseMatrix::from_edges(3, 2, &[(0, 0), (1, 1), (2, 0), (2, 1), (1, 1)]);
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(s.matmul_dense(&x), s.to_dense().matmul(&x));
    }

    #[test]
    fn transpose_spmm_matches_dense() {
        let s = SparseMatrix::from_edges(3, 2, &[(0, 1), (2, 0), (2, 0)]);
        let y = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        assert_eq!(s.transpose_matmul_dense(&y), s.to_dense().transpose().matmul(&y));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn triplets_are_validated() {
        let _ = SparseMatrix::from_edges(2, 2, &[(2, 0)]);
    }

    #[test]
    fn zeros_products_are_zero() {
        let s = SparseMatrix::from_edges(2, 3, &[]);
        assert_eq!(s.nnz(), 0);
        let x = Matrix::filled(3, 4, 7.0);
        assert_eq!(s.matmul_dense(&x), Matrix::zeros(2, 4));
        let y = Matrix::filled(2, 4, 7.0);
        assert_eq!(s.transpose_matmul_dense(&y), Matrix::zeros(3, 4));
    }

    #[test]
    fn zero_width_dense_operand_gives_empty_products() {
        let s = SparseMatrix::from_edges(3, 2, &[(0, 1), (2, 0)]);
        assert_eq!(s.matmul_dense(&Matrix::zeros(2, 0)).shape(), (3, 0));
        assert_eq!(s.transpose_matmul_dense(&Matrix::zeros(3, 0)).shape(), (2, 0));
    }

    /// The storage-order edge walk oracle.
    fn spmm_reference(
        edges: &[(u32, u32)],
        out_rows: usize,
        dense: &Matrix,
        transpose: bool,
    ) -> Matrix {
        let data = crate::oracle::spmm(edges, out_rows, dense.as_slice(), dense.cols(), transpose);
        Matrix::from_vec(out_rows, dense.cols(), data)
    }

    #[test]
    fn equal_row_views_in_another_storage_order_compare_unequal() {
        // Row 0 reads columns 0 then 1 in both lists, but column 1 reads
        // rows 1 then 0 in the first and 0 then 1 in the second.
        let a = SparseMatrix::from_edges(2, 2, &[(0, 0), (1, 1), (0, 1)]);
        let b = SparseMatrix::from_edges(2, 2, &[(0, 0), (0, 1), (1, 1)]);
        assert_eq!(a.by_row, b.by_row);
        assert_ne!(a.by_col, b.by_col);
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
        assert_eq!(a.to_dense(), b.to_dense());
    }

    #[test]
    fn grouped_spmm_is_bit_identical_to_triplet_order_walk() {
        // Columns interleave across rows, rows are unsorted, pairs repeat
        // and rows 97..100 are empty — the stable grouping must preserve
        // each element's accumulation order in both orientations.
        let mut seed = 5u64;
        let mut rnd = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let edges: Vec<(u32, u32)> =
            (0..4000u32).map(|i| ((i * 31 + 7) % 97, (i * 17 + 3) % 23)).collect();
        let s = SparseMatrix::from_edges(100, 23, &edges);
        let x = Matrix::from_fn(23, 18, |_, _| rnd());
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let before = ancstr_par::threads();
        for t in [1usize, 4, 8] {
            ancstr_par::set_threads(t);
            let fwd = s.matmul_dense(&x);
            assert_eq!(bits(&fwd), bits(&spmm_reference(&edges, 100, &x, false)));
            let y = Matrix::from_fn(100, 18, |_, _| rnd());
            let bwd = s.transpose_matmul_dense(&y);
            assert_eq!(bits(&bwd), bits(&spmm_reference(&edges, 23, &y, true)));
        }
        ancstr_par::set_threads(before);
    }
}
