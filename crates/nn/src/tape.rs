//! Reverse-mode automatic differentiation over dense matrices.
//!
//! A [`Tape`] records an eager forward computation as a DAG of matrix
//! ops; [`Tape::backward`] then sweeps it once in reverse, accumulating
//! gradients. The op set is exactly what the AncstrGNN model needs:
//! (sparse-)matmul, a sparse product summed into an accumulator,
//! broadcast bias, element-wise arithmetic, `σ`/`tanh`, numerically
//! stable `log σ`, a fused GRU step, dot products of indexed row pairs,
//! and a final sum — enough for Eq. 1's aggregation and GRU combiner and
//! Eq. 2's negative-sampling loss. The GRU step is one node that keeps
//! its three gates; its backward reproduces the reverse sweep of the
//! nineteen-node composition it stands for.
//!
//! # What the sweep computes
//!
//! Gradients flow into leaves ([`Tape::leaf`]); an input bound through
//! [`Forward::input`](crate::Forward::input) is a constant. A node
//! needs a gradient only if one of its operands does, and the sweep
//! builds no gradient for a node that does not: the features' `dA`
//! products, for one, are never computed. Skipping a gradient nobody
//! reads changes no leaf gradient's bits.
//!
//! # Buffer reuse
//!
//! A tape keeps the buffers it has freed and builds every later value,
//! gradient and backward temporary in one of them (the smallest that
//! fits). [`Tape::clear`] frees every recorded value and
//! [`Tape::recycle`] takes back gradients, so a training loop that
//! clears one tape per step and recycles its gradients allocates only
//! while its graphs grow: steady-state steps reuse the previous step's
//! buffers. Reuse never changes a value's bits — each op runs the same
//! kernel as the matching [`Matrix`] method (see the matrix module's
//! "Buffer reuse" notes).
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

use crate::gru::{self, GruCell, Message};
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
    Const,
    MatMul(NodeId, NodeId),
    SpMm(SparseId, NodeId),
    /// `acc + S·b`, as `(S, b, acc)`.
    SpMmAdd(SparseId, NodeId, NodeId),
    Add(NodeId, NodeId),
    AddRow(NodeId, NodeId),
    Sub(NodeId, NodeId),
    MulElem(NodeId, NodeId),
    Scale(NodeId, f64),
    Sigmoid(NodeId),
    Tanh(NodeId),
    LogSigmoid(NodeId),
    Neg(NodeId),
    /// Dot products of `z`'s row pairs, stored as `[u0, v0, u1, v1, …]`.
    PairDots(NodeId, Vec<usize>),
    Sum(NodeId),
    GruStep(Box<GruStep>),
}

/// A recorded GRU step: its operands, and the gates its backward reads.
#[derive(Debug, Clone)]
struct GruStep {
    x: NodeId,
    h: NodeId,
    params: [NodeId; GruCell::PARAM_COUNT],
    /// `[z, r, h̃]`.
    gates: [Matrix; 3],
}

impl Op {
    /// The node operands.
    fn operands(&self) -> impl Iterator<Item = NodeId> + '_ {
        let (pair, rest): ([Option<NodeId>; 2], &[NodeId]) = match self {
            Op::Leaf | Op::Const => ([None, None], &[]),
            &Op::MatMul(a, b)
            | &Op::Add(a, b)
            | &Op::AddRow(a, b)
            | &Op::Sub(a, b)
            | &Op::MulElem(a, b)
            | &Op::SpMmAdd(_, a, b) => ([Some(a), Some(b)], &[]),
            &Op::SpMm(_, a)
            | &Op::Scale(a, _)
            | &Op::Sigmoid(a)
            | &Op::Tanh(a)
            | &Op::LogSigmoid(a)
            | &Op::Neg(a)
            | &Op::PairDots(a, _)
            | &Op::Sum(a) => ([Some(a), None], &[]),
            Op::GruStep(step) => ([Some(step.x), Some(step.h)], &step.params),
        };
        pair.into_iter().flatten().chain(rest.iter().copied())
    }

    /// The buffers an op keeps besides its node's value.
    fn into_kept(self) -> (Option<Vec<usize>>, Option<[Matrix; 3]>) {
        match self {
            Op::PairDots(_, indices) => (Some(indices), None),
            Op::GruStep(step) => (None, Some(step.gates)),
            _ => (None, None),
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    value: Matrix,
    op: Op,
    /// Whether a leaf is reachable through the operands: only such a
    /// node gets a gradient.
    needs_grad: bool,
}

/// Gradients produced by [`Tape::backward`].
///
/// Hand them back with [`Tape::recycle`] once read, so the next
/// recording reuses their buffers.
#[derive(Debug, Clone)]
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// The gradient of the loss with respect to leaf `id`, or `None`
    /// when the leaf does not influence the loss or `id` is not a leaf.
    pub fn grad(&self, id: NodeId) -> Option<&Matrix> {
        self.grads.get(id.0).and_then(Option::as_ref)
    }

    /// Take ownership of a gradient, leaving `None` behind.
    pub fn take(&mut self, id: NodeId) -> Option<Matrix> {
        self.grads.get_mut(id.0).and_then(Option::take)
    }
}

/// The gradients still held, in node order.
impl IntoIterator for Gradients {
    type Item = Matrix;
    type IntoIter = std::iter::Flatten<std::vec::IntoIter<Option<Matrix>>>;

    fn into_iter(self) -> Self::IntoIter {
        self.grads.into_iter().flatten()
    }
}

/// Freed buffers kept for reuse, sorted by capacity.
#[derive(Debug)]
struct Pool<T> {
    free: Vec<Vec<T>>,
    /// Buffers handed out since the last [`Pool::trim`].
    taken: usize,
}

impl<T> Default for Pool<T> {
    fn default() -> Pool<T> {
        Pool { free: Vec::new(), taken: 0 }
    }
}

impl<T> Pool<T> {
    /// The smallest free buffer with room for `len` elements (its
    /// contents are stale), or an empty one for the kernel to allocate.
    ///
    /// When nothing fits, the largest free buffer is dropped rather
    /// than kept beside the new one, so a graph that grows replaces
    /// buffers instead of adding to them.
    fn take(&mut self, len: usize) -> Vec<T> {
        self.taken += 1;
        let fit = self.free.partition_point(|b| b.capacity() < len);
        if fit < self.free.len() {
            return self.free.remove(fit);
        }
        self.free.pop();
        Vec::new()
    }

    /// Elements the free buffers have room for.
    fn held(&self) -> usize {
        self.free.iter().map(Vec::capacity).sum()
    }

    fn put(&mut self, buf: Vec<T>) {
        if buf.capacity() > 0 {
            let at = self.free.partition_point(|b| b.capacity() < buf.capacity());
            self.free.insert(at, buf);
        }
    }

    /// Keep no more buffers than were handed out since the last trim,
    /// dropping the smallest: owned leaves and matrices recycled from
    /// outside the tape would otherwise pile up across recordings.
    fn trim(&mut self) {
        let extra = self.free.len().saturating_sub(self.taken);
        self.free.drain(..extra);
        self.taken = 0;
    }
}

/// A forward-computation tape supporting one reverse sweep per
/// recording; [`Tape::clear`] starts the next recording.
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    sparses: Vec<Arc<SparseMatrix>>,
    buffers: Pool<f64>,
    indices: Pool<usize>,
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

    /// Forget every recorded node and operand, keeping their buffers
    /// for the next recording. Earlier [`NodeId`]s and [`SparseId`]s
    /// are invalid afterwards.
    pub fn clear(&mut self) {
        for node in self.nodes.drain(..) {
            self.buffers.put(node.value.into_vec());
            let (indices, gates) = node.op.into_kept();
            if let Some(indices) = indices {
                self.indices.put(indices);
            }
            for gate in gates.into_iter().flatten() {
                self.buffers.put(gate.into_vec());
            }
        }
        self.buffers.trim();
        self.indices.trim();
        self.sparses.clear();
    }

    /// Give matrices back for reuse — normally the [`Gradients`] of
    /// [`Tape::backward`] and anything taken out of them.
    pub fn recycle(&mut self, matrices: impl IntoIterator<Item = Matrix>) {
        for m in matrices {
            self.buffers.put(m.into_vec());
        }
    }

    /// Bytes of buffer capacity the tape holds: its recorded values and
    /// pair indices, and the free buffers it keeps for reuse.
    pub fn held_bytes(&self) -> usize {
        let recorded: usize = self
            .nodes
            .iter()
            .map(|node| {
                let (indices, gates) = match &node.op {
                    Op::PairDots(_, indices) => (indices.capacity(), 0),
                    Op::GruStep(step) => (0, step.gates.iter().map(Matrix::capacity).sum()),
                    _ => (0, 0),
                };
                (node.value.capacity() + gates) * size_of::<f64>() + indices * size_of::<usize>()
            })
            .sum();
        recorded + self.buffers.held() * size_of::<f64>() + self.indices.held() * size_of::<usize>()
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

    /// [`Tape::leaf`] holding a copy of `value` in a reused buffer —
    /// what a loop that records the same parameters every step wants.
    pub(crate) fn leaf_copy(&mut self, value: &Matrix) -> NodeId {
        let v = value.copy_into(self.buffers.take(value.as_slice().len()));
        self.push(v, Op::Leaf)
    }

    /// A constant holding a copy of `value` in a reused buffer: no
    /// gradient flows into it.
    pub(crate) fn const_copy(&mut self, value: &Matrix) -> NodeId {
        let v = value.copy_into(self.buffers.take(value.as_slice().len()));
        self.push(v, Op::Const)
    }

    /// Register a constant sparse operand for [`Tape::spmm`].
    ///
    /// Accepts an owned [`SparseMatrix`] or an `Arc<SparseMatrix>`.
    /// Callers that record many tapes over the same operator (the
    /// trainer re-records every epoch) should pass a shared `Arc`, so
    /// one operator serves every GRU step of every epoch uncopied.
    pub fn sparse(&mut self, s: impl Into<Arc<SparseMatrix>>) -> SparseId {
        self.sparses.push(s.into());
        SparseId(self.sparses.len() - 1)
    }

    /// `a · b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let buf = self.buffers.take(self.value(a).rows() * self.value(b).cols());
        let v = self.value(a).matmul_into(self.value(b), buf);
        self.push(v, Op::MatMul(a, b))
    }

    /// `S · b` with constant sparse `S` (message aggregation).
    pub fn spmm(&mut self, s: SparseId, b: NodeId) -> NodeId {
        let buf = self.buffers.take(self.sparses[s.0].rows() * self.value(b).cols());
        let v = self.sparses[s.0].matmul_dense_into(self.value(b), buf);
        self.push(v, Op::SpMm(s, b))
    }

    /// `acc + S · b` in one pass, bit-identical to [`Tape::spmm`] then
    /// [`Tape::add`] (see [`SparseMatrix`]'s in-place accumulation),
    /// recorded as one node.
    pub fn spmm_add(&mut self, s: SparseId, b: NodeId, acc: NodeId) -> NodeId {
        let buf = self.buffers.take(self.value(acc).as_slice().len());
        let mut v = self.value(acc).copy_into(buf);
        self.sparses[s.0].matmul_dense_add_assign(self.value(b), None, &mut v);
        self.push(v, Op::SpMmAdd(s, b, acc))
    }

    /// One GRU step of Eq. 1 (see [`GruCell`]) from the parameter nodes
    /// `params = [Wz, Wr, Wh, Uz, Ur, Uh, bz, br, bh]`, message `x` and
    /// state `h`, recorded as one node that keeps the gates z, r and h̃
    /// for its backward. Its value and every gradient it passes back are
    /// bit-identical to recording the op-by-op gate composition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches and if `x == h`.
    pub fn gru_step(
        &mut self,
        params: &[NodeId; GruCell::PARAM_COUNT],
        x: NodeId,
        h: NodeId,
    ) -> NodeId {
        assert_ne!(x, h, "GRU step: the message and the state must be distinct nodes");
        let (n, d) = self.value(h).shape();
        let mut bufs: [Matrix; 4] =
            std::array::from_fn(|_| Matrix::zeros_in(n, d, self.buffers.take(n * d)));
        let [next, z, r, c] = &mut bufs;
        let p = params.map(|id| self.value(id));
        gru::step(p, Message::Rows(self.value(x)), self.value(h), next, Some([z, r, c]));
        let [next, z, r, c] = bufs;
        let step = GruStep { x, h, params: *params, gates: [z, r, c] };
        self.push(next, Op::GruStep(Box::new(step)))
    }

    /// `a + b` (same shape).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.zip(a, b, |x, y| x + y);
        self.push(v, Op::Add(a, b))
    }

    /// `a + 1·rowᵀ`: broadcast a `1 × d` bias over the rows of `a`.
    ///
    /// # Panics
    ///
    /// Panics unless `row` is `1 × a.cols()`.
    pub fn add_row(&mut self, a: NodeId, row: NodeId) -> NodeId {
        let buf = self.buffers.take(self.value(a).as_slice().len());
        let mut v = self.value(a).copy_into(buf);
        v.add_row_assign(self.value(row));
        self.push(v, Op::AddRow(a, row))
    }

    /// `a − b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.zip(a, b, |x, y| x - y);
        self.push(v, Op::Sub(a, b))
    }

    /// Hadamard product `a ⊙ b`.
    pub fn mul_elem(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.zip(a, b, |x, y| x * y);
        self.push(v, Op::MulElem(a, b))
    }

    /// `k · a`.
    pub fn scale(&mut self, a: NodeId, k: f64) -> NodeId {
        let buf = self.buffers.take(self.value(a).as_slice().len());
        let v = self.value(a).scale_into(k, buf);
        self.push(v, Op::Scale(a, k))
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.map_par(a, sigmoid);
        self.push(v, Op::Sigmoid(a))
    }

    /// Element-wise `tanh`.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.map_par(a, f64::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Element-wise `log σ` (stable; the building block of Eq. 2).
    pub fn log_sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.map_par(a, log_sigmoid);
        self.push(v, Op::LogSigmoid(a))
    }

    /// `−a`.
    pub fn neg(&mut self, a: NodeId) -> NodeId {
        let buf = self.buffers.take(self.value(a).as_slice().len());
        let v = self.value(a).scale_into(-1.0, buf);
        self.push(v, Op::Neg(a))
    }

    /// `z_uᵀ z_v` for every pair `(u, v)` of rows of `z` (repeats and
    /// `u == v` allowed): `→ pairs.len() × 1`. Equal, value and
    /// gradient, to gathering the `u` rows and the `v` rows and taking
    /// row-wise dots, without building either `pairs.len() × d` gather.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn pair_dots(&mut self, z: NodeId, pairs: &[(usize, usize)]) -> NodeId {
        let mut idx = self.indices.take(2 * pairs.len());
        idx.clear();
        idx.extend(pairs.iter().flat_map(|&(u, v)| [u, v]));
        let mut data = self.buffers.take(pairs.len());
        data.clear();
        let zv = self.value(z);
        data.extend(pairs.iter().map(|&(u, v)| -> f64 {
            zv.row(u).iter().zip(zv.row(v)).map(|(x, y)| x * y).sum()
        }));
        let v = Matrix::from_vec(pairs.len(), 1, data);
        self.push(v, Op::PairDots(z, idx))
    }

    /// Sum of all elements: `→ 1 × 1`.
    pub fn sum(&mut self, a: NodeId) -> NodeId {
        let buf = self.buffers.take(1);
        let v = Matrix::filled_in(1, 1, self.value(a).sum(), buf);
        self.push(v, Op::Sum(a))
    }

    /// Reverse sweep from `loss` (normally a `1 × 1` node); returns the
    /// gradient of `loss.sum()` with respect to every leaf. An interior
    /// node's gradient goes back to the pool as soon as the sweep has
    /// passed it on, so the sweep holds at most the gradients still
    /// waiting to be passed on.
    pub fn backward(&mut self, loss: NodeId) -> Gradients {
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        if self.nodes[loss.0].needs_grad {
            let (rows, cols) = self.value(loss).shape();
            grads[loss.0] =
                Some(Matrix::filled_in(rows, cols, 1.0, self.buffers.take(rows * cols)));
        }

        let Tape { nodes, sparses, buffers, .. } = self;
        let mut sweep = Backward { nodes, sparses, buffers, grads: &mut grads };
        for i in (0..=loss.0).rev() {
            let Some(g) = sweep.grads[i].take() else { continue };
            sweep.accumulate(i, &g);
            if matches!(sweep.nodes[i].op, Op::Leaf) {
                sweep.grads[i] = Some(g);
            } else {
                sweep.buffers.put(g.into_vec());
            }
        }
        Gradients { grads }
    }

    fn push(&mut self, value: Matrix, op: Op) -> NodeId {
        let needs_grad =
            matches!(op, Op::Leaf) || op.operands().any(|id| self.nodes[id.0].needs_grad);
        self.nodes.push(Node { value, op, needs_grad });
        NodeId(self.nodes.len() - 1)
    }

    /// `f(a[i], b[i])` element-wise, in a reused buffer.
    fn zip(&mut self, a: NodeId, b: NodeId, f: impl Fn(f64, f64) -> f64) -> Matrix {
        let buf = self.buffers.take(self.value(a).as_slice().len());
        self.value(a).zip_with_into(self.value(b), buf, f)
    }

    /// `f(a[i])` element-wise and in parallel, in a reused buffer.
    fn map_par(&mut self, a: NodeId, f: impl Fn(f64) -> f64 + Sync) -> Matrix {
        let buf = self.buffers.take(self.value(a).as_slice().len());
        self.value(a).map_par_into(buf, f)
    }
}

/// One reverse sweep: the recorded nodes, read-only, next to the
/// gradient slots and the buffer pool it writes.
struct Backward<'t> {
    nodes: &'t [Node],
    sparses: &'t [Arc<SparseMatrix>],
    buffers: &'t mut Pool<f64>,
    grads: &'t mut [Option<Matrix>],
}

impl Backward<'_> {
    /// A reused buffer with room for a matrix shaped like `m`.
    fn buf_like(&mut self, m: &Matrix) -> Vec<f64> {
        self.buffers.take(m.as_slice().len())
    }

    /// Whether `id` takes a gradient; the sweep builds none for a node
    /// that does not.
    fn needs(&self, id: NodeId) -> bool {
        self.nodes[id.0].needs_grad
    }

    /// Add `delta` into `id`'s gradient, or make it the gradient.
    fn add_to(&mut self, id: NodeId, delta: Matrix) {
        match &mut self.grads[id.0] {
            Some(existing) => {
                existing.add_assign(&delta);
                self.buffers.put(delta.into_vec());
            }
            slot @ None => *slot = Some(delta),
        }
    }

    /// [`Backward::add_to`] for a gradient passed through unchanged:
    /// copies `g` only when the slot is still empty, and not at all
    /// when `id` needs no gradient.
    fn pass_to(&mut self, id: NodeId, g: &Matrix) {
        if !self.needs(id) {
            return;
        }
        if let Some(existing) = &mut self.grads[id.0] {
            existing.add_assign(g);
        } else {
            let copy = g.copy_into(self.buf_like(g));
            self.grads[id.0] = Some(copy);
        }
    }

    /// `g ⊙ d(x)` for the element-wise derivative `d` of an activation
    /// at `x`: `d` is built first (in parallel), then multiplied into
    /// in place as `g · d`, the operand order of `g.mul_elem(&d)`.
    fn activation(&mut self, id: NodeId, x: &Matrix, g: &Matrix, d: impl Fn(f64) -> f64 + Sync) {
        let mut delta = x.map_par_into(self.buf_like(x), d);
        delta.zip_assign(g, |dv, gv| gv * dv);
        self.add_to(id, delta);
    }

    /// A GRU step's backward, `g` being the gradient of its next state:
    /// the row kernel builds the gradients of the three gates'
    /// activation arguments and adds into the `dh` and `dx` slots in the
    /// op-by-op composition's order; the weight and bias gradients then
    /// reach their slots in that composition's sweep order (`bh`, `Uh`,
    /// `Wh`, then the reset gate's, then the update gate's).
    fn gru_step(&mut self, step: &GruStep, g: &Matrix) {
        let nodes = self.nodes;
        let (x, h) = (&nodes[step.x.0].value, &nodes[step.h.0].value);
        let p = step.params.map(|id| &nodes[id.0].value);
        let mut transpose = |k: usize| p[k].transpose_into(self.buf_like(p[k]));
        let (wt, ut) = ([0, 1, 2].map(&mut transpose), [3, 4, 5].map(&mut transpose));
        let mut out: [Matrix; 4] = std::array::from_fn(|_| {
            Matrix::zeros_in(g.rows(), g.cols(), self.buf_like(g))
        });
        // Each state slot is taken out while the kernel writes it.
        let mut slot = |id: NodeId, like: &Matrix| -> Option<(Matrix, bool)> {
            if !self.needs(id) {
                return None;
            }
            Some(match self.grads[id.0].take() {
                Some(prior) => (prior, true),
                None => (Matrix::zeros_in(like.rows(), like.cols(), self.buf_like(like)), false),
            })
        };
        let mut dh = slot(step.h, h);
        let mut dx = slot(step.x, x);
        let [gz, gr, gc, rh] = &mut out;
        gru::step_grad_rows(
            wt.each_ref(),
            ut.each_ref(),
            [g, &step.gates[0], &step.gates[1], &step.gates[2], h],
            [gz, gr, gc, rh],
            dh.as_mut().map(|(m, prior)| (m, *prior)),
            dx.as_mut().map(|(m, prior)| (m, *prior)),
        );
        for (id, grad) in [(step.h, dh), (step.x, dx)] {
            if let Some((m, _)) = grad {
                self.grads[id.0] = Some(m);
            }
        }
        let [gz, gr, gc, rh] = out;
        for (k, (gate, state)) in [(&gz, h), (&gr, h), (&gc, &rh)].into_iter().enumerate().rev() {
            let [w, u, b] = [step.params[k], step.params[3 + k], step.params[6 + k]];
            if self.needs(b) {
                let db = gate.column_sums_into(self.buffers.take(gate.cols()));
                self.add_to(b, db);
            }
            if self.needs(u) {
                let du = state.transpose_matmul_into(gate, self.buffers.take(state.cols() * gate.cols()));
                self.add_to(u, du);
            }
            if self.needs(w) {
                let dw = x.transpose_matmul_into(gate, self.buffers.take(x.cols() * gate.cols()));
                self.add_to(w, dw);
            }
        }
        self.recycle([gz, gr, gc, rh].into_iter().chain(wt).chain(ut));
    }

    /// Give temporaries back to the pool.
    fn recycle(&mut self, matrices: impl IntoIterator<Item = Matrix>) {
        for m in matrices {
            self.buffers.put(m.into_vec());
        }
    }

    /// Pass `g`, the gradient of node `i`, on to each of its operands
    /// that needs one (a node reached here needs a gradient, so a
    /// single operand always does).
    fn accumulate(&mut self, i: usize, g: &Matrix) {
        let nodes = self.nodes;
        match &nodes[i].op {
            Op::Leaf | Op::Const => {}
            Op::MatMul(a, b) => {
                let (av, bv) = (&nodes[a.0].value, &nodes[b.0].value);
                // dA = dC·Bᵀ and dB = Aᵀ·dC, each bit-identical to
                // materializing the transpose (see
                // `Matrix::matmul_transposed` / `Matrix::transpose_matmul`).
                if self.needs(*a) {
                    let (buf, scratch) =
                        (self.buffers.take(g.rows() * bv.rows()), self.buf_like(bv));
                    let (da, scratch) = g.matmul_transposed_into(bv, buf, scratch);
                    self.buffers.put(scratch);
                    self.add_to(*a, da);
                }
                if self.needs(*b) {
                    let db = av.transpose_matmul_into(g, self.buffers.take(av.cols() * g.cols()));
                    self.add_to(*b, db);
                }
            }
            Op::SpMm(s, b) => {
                let s = &self.sparses[s.0];
                let buf = self.buffers.take(s.cols() * g.cols());
                let db = s.transpose_matmul_dense_into(g, buf);
                self.add_to(*b, db);
            }
            Op::SpMmAdd(s, b, acc) => {
                // The sweep of `Add(acc, S·b)` then `SpMm(S, b)`.
                self.pass_to(*acc, g);
                if self.needs(*b) {
                    let s = &self.sparses[s.0];
                    let db = s.transpose_matmul_dense_into(g, self.buffers.take(s.cols() * g.cols()));
                    self.add_to(*b, db);
                }
            }
            Op::GruStep(step) => self.gru_step(step, g),
            Op::Add(a, b) => {
                self.pass_to(*a, g);
                self.pass_to(*b, g);
            }
            Op::AddRow(a, row) => {
                self.pass_to(*a, g);
                if self.needs(*row) {
                    let drow = g.column_sums_into(self.buffers.take(g.cols()));
                    self.add_to(*row, drow);
                }
            }
            Op::Sub(a, b) => {
                self.pass_to(*a, g);
                if self.needs(*b) {
                    let db = g.scale_into(-1.0, self.buf_like(g));
                    self.add_to(*b, db);
                }
            }
            Op::MulElem(a, b) => {
                if self.needs(*a) {
                    let da = g.zip_with_into(&nodes[b.0].value, self.buf_like(g), |x, y| x * y);
                    self.add_to(*a, da);
                }
                if self.needs(*b) {
                    let db = g.zip_with_into(&nodes[a.0].value, self.buf_like(g), |x, y| x * y);
                    self.add_to(*b, db);
                }
            }
            Op::Scale(a, k) => {
                let da = g.scale_into(*k, self.buf_like(g));
                self.add_to(*a, da);
            }
            Op::Sigmoid(a) => self.activation(*a, &nodes[i].value, g, |x| x * (1.0 - x)),
            Op::Tanh(a) => self.activation(*a, &nodes[i].value, g, |x| 1.0 - x * x),
            // d/dx log σ(x) = 1 − σ(x) = σ(−x)
            Op::LogSigmoid(a) => self.activation(*a, &nodes[a.0].value, g, |v| sigmoid(-v)),
            Op::Neg(a) => {
                let da = g.scale_into(-1.0, self.buf_like(g));
                self.add_to(*a, da);
            }
            Op::PairDots(z, pairs) => {
                // `gr·z[v]` scatters into the `u` rows and `gr·z[u]` into
                // the `v` rows, each in pair order from zero; `z` then
                // takes the `v` side first — the order in which a sweep
                // reaches gathers of the `v` rows and the `u` rows
                // recorded before a row-wise dot.
                let zv = &nodes[z.0].value;
                let mut du = Matrix::zeros_in(zv.rows(), zv.cols(), self.buf_like(zv));
                let mut dv = Matrix::zeros_in(zv.rows(), zv.cols(), self.buf_like(zv));
                for (uv, &gr) in pairs.chunks_exact(2).zip(g.as_slice()) {
                    let (u, v) = (uv[0], uv[1]);
                    for (d, &x) in du.row_mut(u).iter_mut().zip(zv.row(v)) {
                        *d += gr * x;
                    }
                    for (d, &x) in dv.row_mut(v).iter_mut().zip(zv.row(u)) {
                        *d += gr * x;
                    }
                }
                self.add_to(*z, dv);
                self.add_to(*z, du);
            }
            Op::Sum(a) => {
                let src = &nodes[a.0].value;
                let da = Matrix::filled_in(src.rows(), src.cols(), g[(0, 0)], self.buf_like(src));
                self.add_to(*a, da);
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

    /// Repeated pairs and `u == v` pairs each add both of their terms:
    /// `d(z_uᵀ z_v)/dz_u = z_v` and `d(z_uᵀ z_v)/dz_v = z_u`.
    #[test]
    fn pair_dots_accumulate_repeats_and_self_pairs() {
        let mut t = Tape::new();
        let zval = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let pairs = [(0, 1), (0, 0), (1, 0), (0, 1)];
        let z = t.leaf(zval.clone());
        let d = t.pair_dots(z, &pairs);
        assert_eq!(t.value(d), &Matrix::from_rows(&[&[11.0], &[5.0], &[11.0], &[11.0]]));
        assert_eq!(t.value(d).as_slice(), crate::oracle::pair_dots(zval.as_slice(), 2, &pairs));
        let loss = t.sum(d);
        let grads = t.backward(loss);
        // Row 2 is in no pair.
        let expect = Matrix::from_rows(&[&[11.0, 16.0], &[3.0, 6.0], &[0.0, 0.0]]);
        assert_eq!(grads.grad(z).unwrap(), &expect);
        let oracle = crate::oracle::pair_dots_grad(zval.as_slice(), 3, 2, &pairs, &[1.0; 4], None);
        assert_eq!(expect.as_slice(), oracle);
    }

    #[test]
    fn spmm_gradient_matches_dense() {
        let s = SparseMatrix::from_edges(2, 3, &[(0, 1), (1, 2), (0, 0), (0, 1)]);
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

    /// Record every op once over an `n`-row input, bound as a leaf or
    /// (`const_input`) as a constant: a pass whose buffer sizes all
    /// scale with `n`. Returns every node (the input and the two
    /// parameters first) and the loss.
    fn record_every_op(t: &mut Tape, n: usize, const_input: bool) -> (Vec<NodeId>, NodeId) {
        let x = Matrix::from_fn(n, 3, |r, c| ((r * 5 + c * 3) % 7) as f64 * 0.2 - 0.6);
        let p = Matrix::from_fn(3, 3, |r, c| ((r + 2 * c) % 5) as f64 * 0.3 - 0.5);
        let edges: Vec<(u32, u32)> =
            (0..2 * n).map(|k| ((k % n) as u32, ((k * 7 + 1) % n) as u32)).collect();
        let sid = t.sparse(SparseMatrix::from_edges(n, n, &edges));
        let x = if const_input { t.const_copy(&x) } else { t.leaf_copy(&x) };
        let pn = t.leaf_copy(&p);
        let bn = t.leaf_copy(&Matrix::from_rows(&[&[0.05, -0.1, 0.2]]));
        let xp = t.matmul(x, pn);
        let agg = t.spmm(sid, xp);
        let biased = t.add_row(agg, bn);
        let th = t.tanh(biased);
        let mixed = t.add(th, x);
        let pairs: Vec<(usize, usize)> = (0..n).map(|r| (r, (r * 3 + 1) % n)).collect();
        let dots = t.pair_dots(mixed, &pairs);
        let ls = t.log_sigmoid(dots);
        let neg = t.neg(ls);
        let sig = t.sigmoid(neg);
        let sub = t.sub(sig, ls);
        let prod = t.mul_elem(sub, dots);
        let scaled = t.scale(prod, 0.7);
        let both = t.add(scaled, prod);
        let loss = t.sum(both);
        (vec![x, pn, bn, xp, agg, biased, th, mixed, dots, ls, neg, sig, sub, prod], loss)
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Values and gradients of `record_every_op` on a tape that has
    /// recorded other shapes before equal a fresh tape's, bit for bit.
    #[test]
    fn reused_buffers_match_a_fresh_tape_across_shape_changes() {
        let fresh = |n: usize| {
            let mut t = Tape::new();
            let (nodes, loss) = record_every_op(&mut t, n, false);
            let grads = t.backward(loss);
            let values: Vec<Vec<u64>> = nodes.iter().map(|&id| bits(t.value(id))).collect();
            let grads: Vec<Vec<u64>> =
                nodes[..3].iter().map(|&id| bits(grads.grad(id).unwrap())).collect();
            (values, grads)
        };
        let mut t = Tape::new();
        for n in [300, 40, 300, 40] {
            t.clear();
            let (nodes, loss) = record_every_op(&mut t, n, false);
            let grads = t.backward(loss);
            let (values, expect) = fresh(n);
            for (k, &id) in nodes.iter().enumerate() {
                assert_eq!(bits(t.value(id)), values[k], "value of node {k} at n = {n}");
            }
            for (k, &id) in nodes[..3].iter().enumerate() {
                assert_eq!(bits(grads.grad(id).unwrap()), expect[k], "gradient of leaf {k} at n = {n}");
            }
            t.recycle(grads);
        }
    }

    /// Once a tape has recorded its largest shape, later recordings of
    /// that shape or a smaller one allocate nothing: the pool comes back
    /// unchanged after every pass.
    #[test]
    fn steady_state_recordings_reuse_every_buffer() {
        let mut t = Tape::new();
        let mut pools = Vec::new();
        for n in [300, 40, 300, 300, 40] {
            let (_, loss) = record_every_op(&mut t, n, false);
            let grads = t.backward(loss);
            t.recycle(grads);
            t.clear();
            pools.push(t.buffers.free.iter().map(Vec::capacity).collect::<Vec<_>>());
        }
        assert!(!pools[0].is_empty());
        for (k, pool) in pools.iter().enumerate() {
            assert_eq!(pool, &pools[0], "pass {k} changed the pool");
        }
    }

    /// Owned leaves and matrices recycled from outside the tape never
    /// leave more free buffers than the last recording took.
    #[test]
    fn foreign_buffers_are_trimmed() {
        let mut t = Tape::new();
        for _ in 0..3 {
            t.leaf(Matrix::zeros(4, 4));
            let (_, loss) = record_every_op(&mut t, 40, false);
            let grads = t.backward(loss);
            t.recycle(grads);
            let taken = t.buffers.taken;
            t.recycle((0..500).map(|_| Matrix::zeros(1, 1)));
            t.clear();
            assert!(t.buffers.free.len() <= taken, "{} > {taken}", t.buffers.free.len());
        }
    }

    /// A constant input gets no gradient, and every leaf gradient (and
    /// every value) equals the recording that binds the input as a leaf;
    /// the sweep takes fewer buffers, since it builds no gradient for
    /// the constant.
    #[test]
    fn constant_input_gets_no_gradient_and_leaves_keep_their_bits() {
        for n in [40, 7] {
            let mut lt = Tape::new();
            let (leaf_nodes, leaf_loss) = record_every_op(&mut lt, n, false);
            let leaf_grads = lt.backward(leaf_loss);
            let mut ct = Tape::new();
            let (const_nodes, const_loss) = record_every_op(&mut ct, n, true);
            let const_grads = ct.backward(const_loss);
            assert!(leaf_grads.grad(leaf_nodes[0]).is_some());
            assert!(const_grads.grad(const_nodes[0]).is_none(), "constant input took a gradient");
            assert!(ct.buffers.taken < lt.buffers.taken, "the sweep built the constant's gradient");
            for (&l, &c) in leaf_nodes.iter().zip(&const_nodes) {
                assert_eq!(bits(lt.value(l)), bits(ct.value(c)), "value at n = {n}");
            }
            for k in 1..3 {
                let (l, c) = (leaf_nodes[k], const_nodes[k]);
                let want = bits(leaf_grads.grad(l).unwrap());
                assert_eq!(bits(const_grads.grad(c).unwrap()), want, "leaf {k} at n = {n}");
            }
        }
    }

    /// A loss no leaf reaches seeds no gradient at all.
    #[test]
    fn loss_of_constants_has_no_gradients() {
        let mut t = Tape::new();
        let x = t.const_copy(&Matrix::from_rows(&[&[1.0, -2.0]]));
        let sq = t.mul_elem(x, x);
        let loss = t.sum(sq);
        assert_eq!(t.backward(loss).into_iter().count(), 0);
    }

    /// Central-difference gradient check over a composite expression that
    /// exercises every op:
    /// f(P) = Σ logσ(pairdots(tanh(S·(X·P) + b) + X·P)), with repeated and
    /// `u == v` pairs.
    #[test]
    fn finite_difference_gradient_check() {
        let xval = Matrix::from_rows(&[
            &[0.2, -0.4, 0.1],
            &[0.5, 0.3, -0.2],
            &[-0.1, 0.8, 0.6],
        ]);
        let s = SparseMatrix::from_edges(3, 3, &[(0, 1), (1, 2), (2, 0), (0, 2), (0, 1)]);

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
            let gp = t.matmul(x, pn);
            let mixed = t.add(th, gp);
            let dots = t.pair_dots(mixed, &[(1, 0), (2, 1), (0, 2), (1, 1), (2, 1)]);
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
