//! Reverse-mode automatic differentiation over dense matrices.
//!
//! A [`Tape`] records an eager forward computation as a DAG of matrix
//! ops; [`Tape::backward`] then sweeps it once in reverse, accumulating
//! gradients. The op set is exactly what the AncstrGNN model needs:
//! (sparse-)matmul, broadcast bias, element-wise arithmetic, `σ`/`tanh`,
//! numerically stable `log σ`, row gathering, row-wise dots, and a final
//! sum — enough for Eq. 1's GRU aggregation and Eq. 2's negative-sampling
//! loss.
//!
//! # Example
//!
//! ```
//! use ancstr_nn::{Matrix, Tape};
//!
//! let mut t = Tape::new();
//! let x = t.leaf(Matrix::from_rows(&[&[2.0]]));
//! let y = t.mul_elem(x, x); // y = x²
//! let s = t.sum(y);
//! let grads = t.backward(s);
//! // d(x²)/dx = 2x = 4
//! assert_eq!(grads.grad(x).unwrap()[(0, 0)], 4.0);
//! ```

use std::sync::Arc;

use crate::matrix::Matrix;
use crate::sparse::SparseMatrix;

/// Identifier of a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// Identifier of a constant sparse operand registered on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SparseId(usize);

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    MatMul(NodeId, NodeId),
    SpMm(SparseId, NodeId),
    Add(NodeId, NodeId),
    AddRow(NodeId, NodeId),
    Sub(NodeId, NodeId),
    MulElem(NodeId, NodeId),
    Scale(NodeId, f64),
    Sigmoid(NodeId),
    Tanh(NodeId),
    LogSigmoid(NodeId),
    Neg(NodeId),
    GatherRows(NodeId, Vec<usize>),
    RowDot(NodeId, NodeId),
    Sum(NodeId),
}

#[derive(Debug, Clone)]
struct Node {
    value: Matrix,
    op: Op,
}

/// Gradients produced by [`Tape::backward`].
#[derive(Debug, Clone)]
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// The gradient of the loss with respect to node `id`, or `None`
    /// when the node does not influence the loss.
    pub fn grad(&self, id: NodeId) -> Option<&Matrix> {
        self.grads.get(id.0).and_then(Option::as_ref)
    }

    /// Take ownership of a gradient, leaving `None` behind.
    pub fn take(&mut self, id: NodeId) -> Option<Matrix> {
        self.grads.get_mut(id.0).and_then(Option::take)
    }
}

/// A forward-computation tape supporting one reverse sweep.
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    sparses: Vec<Arc<SparseMatrix>>,
}

/// Numerically stable `σ(x)`.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable `log σ(x)`.
pub fn log_sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        -(-x).exp().ln_1p()
    } else {
        x - x.exp().ln_1p()
    }
}

impl Tape {
    /// A fresh, empty tape.
    pub fn new() -> Tape {
        Tape::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tape.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// Register an input (leaf) node; gradients flow into leaves.
    pub fn leaf(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Leaf)
    }

    /// Register a constant sparse operand for [`Tape::spmm`].
    ///
    /// Accepts an owned [`SparseMatrix`] or an `Arc<SparseMatrix>`.
    /// Callers that record many tapes over the same operator (the
    /// trainer re-records every epoch) should pass a shared `Arc` so
    /// the operator's cached CSR views are built once per graph and
    /// reused across every GRU step of every epoch.
    pub fn sparse(&mut self, s: impl Into<Arc<SparseMatrix>>) -> SparseId {
        self.sparses.push(s.into());
        SparseId(self.sparses.len() - 1)
    }

    /// `a · b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::MatMul(a, b))
    }

    /// `S · b` with constant sparse `S` (message aggregation).
    pub fn spmm(&mut self, s: SparseId, b: NodeId) -> NodeId {
        let v = self.sparses[s.0].matmul_dense(self.value(b));
        self.push(v, Op::SpMm(s, b))
    }

    /// `a + b` (same shape).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).add(self.value(b));
        self.push(v, Op::Add(a, b))
    }

    /// `a + 1·rowᵀ`: broadcast a `1 × d` bias over the rows of `a`.
    ///
    /// # Panics
    ///
    /// Panics unless `row` is `1 × a.cols()`.
    pub fn add_row(&mut self, a: NodeId, row: NodeId) -> NodeId {
        let ac = self.value(a).cols();
        assert_eq!(self.value(row).shape(), (1, ac), "bias must be 1 × cols");
        let bias = self.value(row).row(0);
        let mut v = self.value(a).clone();
        for vrow in v.as_mut_slice().chunks_exact_mut(ac.max(1)) {
            for (x, &b) in vrow.iter_mut().zip(bias) {
                *x += b;
            }
        }
        self.push(v, Op::AddRow(a, row))
    }

    /// `a − b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).sub(self.value(b));
        self.push(v, Op::Sub(a, b))
    }

    /// Hadamard product `a ⊙ b`.
    pub fn mul_elem(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).mul_elem(self.value(b));
        self.push(v, Op::MulElem(a, b))
    }

    /// `k · a`.
    pub fn scale(&mut self, a: NodeId, k: f64) -> NodeId {
        let v = self.value(a).scale(k);
        self.push(v, Op::Scale(a, k))
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map_par(sigmoid);
        self.push(v, Op::Sigmoid(a))
    }

    /// Element-wise `tanh`.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map_par(f64::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Element-wise `log σ` (stable; the building block of Eq. 2).
    pub fn log_sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map_par(log_sigmoid);
        self.push(v, Op::LogSigmoid(a))
    }

    /// `−a`.
    pub fn neg(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).scale(-1.0);
        self.push(v, Op::Neg(a))
    }

    /// Select rows of `a` by index (repeats allowed).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn gather_rows(&mut self, a: NodeId, indices: Vec<usize>) -> NodeId {
        let src = self.value(a);
        let cols = src.cols();
        let mut v = Matrix::zeros(indices.len(), cols);
        for (r, &i) in indices.iter().enumerate() {
            v.row_mut(r).copy_from_slice(src.row(i));
        }
        self.push(v, Op::GatherRows(a, indices))
    }

    /// Row-wise dot products: `(n × d, n × d) → n × 1`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn row_dot(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (av, bv) = (self.value(a), self.value(b));
        assert_eq!(av.shape(), bv.shape(), "row_dot shape mismatch");
        let mut v = Matrix::zeros(av.rows(), 1);
        for r in 0..av.rows() {
            v[(r, 0)] = av
                .row(r)
                .iter()
                .zip(bv.row(r))
                .map(|(x, y)| x * y)
                .sum();
        }
        self.push(v, Op::RowDot(a, b))
    }

    /// Sum of all elements: `→ 1 × 1`.
    pub fn sum(&mut self, a: NodeId) -> NodeId {
        let v = Matrix::from_rows(&[&[self.value(a).sum()]]);
        self.push(v, Op::Sum(a))
    }

    /// Reverse sweep from `loss` (normally a `1 × 1` node); returns the
    /// gradient of `loss.sum()` with respect to every node.
    pub fn backward(&self, loss: NodeId) -> Gradients {
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        let shape = self.value(loss).shape();
        grads[loss.0] = Some(Matrix::filled(shape.0, shape.1, 1.0));

        for i in (0..=loss.0).rev() {
            let Some(g) = grads[i].take() else { continue };
            self.accumulate(i, &g, &mut grads);
            grads[i] = Some(g);
        }
        Gradients { grads }
    }

    fn push(&mut self, value: Matrix, op: Op) -> NodeId {
        self.nodes.push(Node { value, op });
        NodeId(self.nodes.len() - 1)
    }

    fn accumulate(&self, i: usize, g: &Matrix, grads: &mut [Option<Matrix>]) {
        let add_to = |grads: &mut [Option<Matrix>], id: NodeId, delta: Matrix| {
            match &mut grads[id.0] {
                Some(existing) => existing.add_assign(&delta),
                slot @ None => *slot = Some(delta),
            }
        };
        // `add_to` for a gradient passed through unchanged: copies `g`
        // only when the slot is still empty.
        let pass_to = |grads: &mut [Option<Matrix>], id: NodeId| match &mut grads[id.0] {
            Some(existing) => existing.add_assign(g),
            slot @ None => *slot = Some(g.clone()),
        };
        match &self.nodes[i].op {
            Op::Leaf => {}
            Op::MatMul(a, b) => {
                let (av, bv) = (self.value(*a), self.value(*b));
                // dA = dC·Bᵀ and dB = Aᵀ·dC, each bit-identical to
                // materializing the transpose (see
                // `Matrix::matmul_transposed` / `Matrix::transpose_matmul`).
                add_to(grads, *a, g.matmul_transposed(bv));
                add_to(grads, *b, av.transpose_matmul(g));
            }
            Op::SpMm(s, b) => {
                add_to(grads, *b, self.sparses[s.0].transpose_matmul_dense(g));
            }
            Op::Add(a, b) => {
                pass_to(grads, *a);
                pass_to(grads, *b);
            }
            Op::AddRow(a, row) => {
                pass_to(grads, *a);
                add_to(grads, *row, g.column_sums());
            }
            Op::Sub(a, b) => {
                pass_to(grads, *a);
                add_to(grads, *b, g.scale(-1.0));
            }
            Op::MulElem(a, b) => {
                add_to(grads, *a, g.mul_elem(self.value(*b)));
                add_to(grads, *b, g.mul_elem(self.value(*a)));
            }
            Op::Scale(a, k) => add_to(grads, *a, g.scale(*k)),
            Op::Sigmoid(a) => {
                let s = &self.nodes[i].value;
                let ds = s.map_par(|x| x * (1.0 - x));
                add_to(grads, *a, g.mul_elem(&ds));
            }
            Op::Tanh(a) => {
                let t = &self.nodes[i].value;
                let dt = t.map_par(|x| 1.0 - x * x);
                add_to(grads, *a, g.mul_elem(&dt));
            }
            Op::LogSigmoid(a) => {
                // d/dx log σ(x) = 1 − σ(x) = σ(−x)
                let x = self.value(*a);
                let d = x.map_par(|v| sigmoid(-v));
                add_to(grads, *a, g.mul_elem(&d));
            }
            Op::Neg(a) => add_to(grads, *a, g.scale(-1.0)),
            Op::GatherRows(a, indices) => {
                let src = self.value(*a);
                let mut d = Matrix::zeros(src.rows(), src.cols());
                for (r, &idx) in indices.iter().enumerate() {
                    let drow = d.row_mut(idx);
                    for (x, &y) in drow.iter_mut().zip(g.row(r)) {
                        *x += y;
                    }
                }
                add_to(grads, *a, d);
            }
            Op::RowDot(a, b) => {
                let (av, bv) = (self.value(*a), self.value(*b));
                let mut da = Matrix::zeros(av.rows(), av.cols());
                let mut db = Matrix::zeros(bv.rows(), bv.cols());
                for r in 0..av.rows() {
                    let gr = g[(r, 0)];
                    for (d, &x) in da.row_mut(r).iter_mut().zip(bv.row(r)) {
                        *d = gr * x;
                    }
                    for (d, &x) in db.row_mut(r).iter_mut().zip(av.row(r)) {
                        *d = gr * x;
                    }
                }
                add_to(grads, *a, da);
                add_to(grads, *b, db);
            }
            Op::Sum(a) => {
                let shape = self.value(*a).shape();
                add_to(grads, *a, Matrix::filled(shape.0, shape.1, g[(0, 0)]));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_sigmoid_extremes() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        assert!(sigmoid(800.0) <= 1.0 && sigmoid(800.0) > 0.999);
        assert!(sigmoid(-800.0) >= 0.0 && sigmoid(-800.0) < 1e-300);
        assert!(log_sigmoid(800.0).abs() < 1e-12);
        assert!((log_sigmoid(-800.0) + 800.0).abs() < 1e-9);
        assert!(log_sigmoid(0.0) < 0.0);
    }

    #[test]
    fn simple_chain_gradient() {
        // f = sum(sigmoid(2x)); df/dx = 2 σ'(2x)
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[0.3, -0.7]]));
        let sx = t.scale(x, 2.0);
        let sig = t.sigmoid(sx);
        let loss = t.sum(sig);
        let grads = t.backward(loss);
        let gx = grads.grad(x).unwrap();
        for (i, &v) in [0.3, -0.7].iter().enumerate() {
            let s = sigmoid(2.0 * v);
            let expect = 2.0 * s * (1.0 - s);
            assert!((gx[(0, i)] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_gradients() {
        // f = sum(A·B)
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = t.leaf(Matrix::from_rows(&[&[5.0], &[6.0]]));
        let c = t.matmul(a, b);
        let loss = t.sum(c);
        let grads = t.backward(loss);
        // dA = 1·Bᵀ rows, dB = Aᵀ·1
        assert_eq!(
            grads.grad(a).unwrap(),
            &Matrix::from_rows(&[&[5.0, 6.0], &[5.0, 6.0]])
        );
        assert_eq!(grads.grad(b).unwrap(), &Matrix::from_rows(&[&[4.0], &[6.0]]));
    }

    #[test]
    fn gather_rows_accumulates_repeats() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0], &[2.0]]));
        let gathered = t.gather_rows(a, vec![0, 0, 1]);
        assert_eq!(t.value(gathered).rows(), 3);
        let loss = t.sum(gathered);
        let grads = t.backward(loss);
        assert_eq!(grads.grad(a).unwrap(), &Matrix::from_rows(&[&[2.0], &[1.0]]));
    }

    #[test]
    fn row_dot_gradients() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = t.leaf(Matrix::from_rows(&[&[3.0, 4.0]]));
        let d = t.row_dot(a, b);
        assert_eq!(t.value(d)[(0, 0)], 11.0);
        let loss = t.sum(d);
        let grads = t.backward(loss);
        assert_eq!(grads.grad(a).unwrap(), &Matrix::from_rows(&[&[3.0, 4.0]]));
        assert_eq!(grads.grad(b).unwrap(), &Matrix::from_rows(&[&[1.0, 2.0]]));
    }

    #[test]
    fn spmm_gradient_matches_dense() {
        let s = SparseMatrix::from_triplets(2, 3, vec![(0, 1, 2.0), (1, 2, -1.0), (0, 0, 0.5)]);
        let xval = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);

        let mut t = Tape::new();
        let sid = t.sparse(s.clone());
        let x = t.leaf(xval.clone());
        let y = t.spmm(sid, x);
        let loss = t.sum(y);
        let grads = t.backward(loss);

        // Dense reference: d/dX sum(S·X) = Sᵀ·1
        let ones = Matrix::filled(2, 2, 1.0);
        let expect = s.to_dense().transpose().matmul(&ones);
        assert_eq!(grads.grad(x).unwrap(), &expect);
    }

    #[test]
    fn add_row_broadcast_gradient() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::zeros(3, 2));
        let b = t.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
        let y = t.add_row(a, b);
        assert_eq!(t.value(y)[(2, 1)], 2.0);
        let loss = t.sum(y);
        let grads = t.backward(loss);
        assert_eq!(grads.grad(b).unwrap(), &Matrix::from_rows(&[&[3.0, 3.0]]));
        assert_eq!(grads.grad(a).unwrap(), &Matrix::filled(3, 2, 1.0));
    }

    #[test]
    fn unused_nodes_get_no_gradient() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0]]));
        let orphan = t.leaf(Matrix::from_rows(&[&[9.0]]));
        let loss = t.sum(x);
        let grads = t.backward(loss);
        assert!(grads.grad(orphan).is_none());
        assert!(grads.grad(x).is_some());
    }

    /// Central-difference gradient check over a composite expression that
    /// exercises every op: f(P) = Σ logσ(rowdot(tanh(S·(X·P) + b), g(X)))
    #[test]
    fn finite_difference_gradient_check() {
        let xval = Matrix::from_rows(&[
            &[0.2, -0.4, 0.1],
            &[0.5, 0.3, -0.2],
            &[-0.1, 0.8, 0.6],
        ]);
        let s = SparseMatrix::from_triplets(
            3,
            3,
            vec![(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (0, 2, 0.5)],
        );

        let f = |p: &Matrix, b: &Matrix| -> (f64, Matrix, Matrix) {
            let mut t = Tape::new();
            let sid = t.sparse(s.clone());
            let x = t.leaf(xval.clone());
            let pn = t.leaf(p.clone());
            let bn = t.leaf(b.clone());
            let xp = t.matmul(x, pn);
            let agg = t.spmm(sid, xp);
            let biased = t.add_row(agg, bn);
            let th = t.tanh(biased);
            let gathered = t.gather_rows(x, vec![1, 2, 0]);
            let gp = t.matmul(gathered, pn);
            let dots = t.row_dot(th, gp);
            let ls = t.log_sigmoid(dots);
            let neg = t.neg(ls);
            let sig = t.sigmoid(neg);
            let sub = t.sub(sig, ls);
            let prod = t.mul_elem(sub, dots);
            let scaled = t.scale(prod, 0.7);
            let loss = t.sum(scaled);
            let grads = t.backward(loss);
            (
                t.value(loss)[(0, 0)],
                grads.grad(pn).unwrap().clone(),
                grads.grad(bn).unwrap().clone(),
            )
        };

        let p0 = Matrix::from_rows(&[&[0.3, -0.2, 0.5], &[0.1, 0.4, -0.6], &[-0.3, 0.2, 0.1]]);
        let b0 = Matrix::from_rows(&[&[0.05, -0.1, 0.2]]);
        let (_, gp, gb) = f(&p0, &b0);

        let eps = 1e-6;
        for r in 0..3 {
            for c in 0..3 {
                let mut pp = p0.clone();
                pp[(r, c)] += eps;
                let mut pm = p0.clone();
                pm[(r, c)] -= eps;
                let (fp, _, _) = f(&pp, &b0);
                let (fm, _, _) = f(&pm, &b0);
                let numeric = (fp - fm) / (2.0 * eps);
                assert!(
                    (numeric - gp[(r, c)]).abs() < 1e-6 * (1.0 + numeric.abs()),
                    "dP[{r},{c}]: numeric {numeric} vs autograd {}",
                    gp[(r, c)]
                );
            }
        }
        for c in 0..3 {
            let mut bp = b0.clone();
            bp[(0, c)] += eps;
            let mut bm = b0.clone();
            bm[(0, c)] -= eps;
            let (fp, _, _) = f(&p0, &bp);
            let (fm, _, _) = f(&p0, &bm);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - gb[(0, c)]).abs() < 1e-6 * (1.0 + numeric.abs()),
                "db[{c}]: numeric {numeric} vs autograd {}",
                gb[(0, c)]
            );
        }
    }
}
