//! The forward ops of Eq. 1 and the GRU, written once over two
//! evaluators.
//!
//! [`Forward`] is the op set the model's layer loop and
//! [`GruCell::forward`](crate::GruCell::forward) are generic over. It has
//! two implementations:
//!
//! * [`Tape`] records every op and returns a [`NodeId`], so a reverse
//!   sweep can follow — the training path;
//! * [`Eager`] returns owned [`Matrix`] values, so each intermediate is
//!   freed at its last use — the inference path, whose peak memory is a
//!   handful of activations instead of the whole recorded pass.
//!
//! Both call the same [`Matrix`]/[`SparseMatrix`] kernel for every op,
//! in the same order, so an eager pass reproduces the tape's values bit
//! for bit. Where [`Eager`] reuses a consumed operand's buffer, each
//! element is still computed by the same expression with its operands
//! in the same order.
//!
//! Two ops are composites, one pass over the rows each:
//! [`Forward::spmm_add`] sums a message term into its accumulator
//! without building the term, and [`Forward::gru_step`] runs Eq. 1's
//! whole GRU combiner in the fused gate kernel. Each gives the bits of
//! the op-by-op composition it replaces. [`Eager`] runs both in place,
//! so a layer holds at most three `n × d` buffers: the state, the
//! message accumulator and one message term.
//!
//! Ownership is part of each signature: an operand passed by value is
//! the caller's last use of it (the eager pass may overwrite or free
//! it); one passed by reference is read and kept.
//!
//! # Example
//!
//! ```
//! use ancstr_nn::{Eager, Forward, Matrix, Tape};
//!
//! // y = tanh(x·w + b), written once.
//! fn layer<'a, F: Forward<'a>>(f: &mut F, x: &'a Matrix, wb: &'a [Matrix; 2]) -> F::Value {
//!     let (x, w, b) = (f.input(x), f.param(&wb[0]), f.param(&wb[1]));
//!     let xw = f.matmul(&x, w);
//!     let pre = f.add_row(xw, b);
//!     f.tanh(pre)
//! }
//!
//! let x = Matrix::from_rows(&[&[0.5, -1.0]]);
//! let wb = [Matrix::from_rows(&[&[1.0], &[2.0]]), Matrix::from_rows(&[&[0.25]])];
//! let mut tape = Tape::new();
//! let recorded = layer(&mut tape, &x, &wb);
//! let eager = layer(&mut Eager, &x, &wb);
//! assert_eq!(tape.value(recorded), &*eager);
//! ```

use std::borrow::Cow;
use std::sync::Arc;

use crate::gru::{self, GruLeaves, Message};
use crate::matrix::Matrix;
use crate::sparse::SparseMatrix;
use crate::tape::{NodeId, SparseId, Tape};

/// The ops a forward pass of Eq. 1 and its combiners is made of.
///
/// Three kinds of operand flow through a pass: values (activations),
/// parameters (weights and biases, bound once per pass) and constant
/// sparse operators (the per-edge-type adjacencies).
pub trait Forward<'a> {
    /// An activation: a tape node, or an owned-or-borrowed matrix.
    type Value;
    /// A bound parameter matrix.
    type Param: Copy;
    /// A bound constant sparse operator.
    type Sparse: Copy;

    /// Bind an input matrix (the vertex features) as a value. On a
    /// [`Tape`] it is a constant: no gradient flows into it.
    fn input(&mut self, m: &'a Matrix) -> Self::Value;
    /// Bind a parameter matrix.
    fn param(&mut self, m: &'a Matrix) -> Self::Param;
    /// Bind a sparse operator shared across passes.
    fn operator(&mut self, s: &'a Arc<SparseMatrix>) -> Self::Sparse;

    /// `a · w`.
    fn matmul(&mut self, a: &Self::Value, w: Self::Param) -> Self::Value;
    /// `S · b`; `b` is not read again.
    fn spmm(&mut self, s: Self::Sparse, b: Self::Value) -> Self::Value;
    /// `acc + S · b`, with the bits of `spmm` then `add`; neither `b`
    /// nor `acc` is read again.
    fn spmm_add(&mut self, s: Self::Sparse, b: Self::Value, acc: Self::Value) -> Self::Value;
    /// `a + b`.
    fn add(&mut self, a: Self::Value, b: &Self::Value) -> Self::Value;
    /// `a + 1·rowᵀ`: broadcast a `1 × d` bias over the rows of `a`.
    fn add_row(&mut self, a: Self::Value, row: Self::Param) -> Self::Value;
    /// `k · a`.
    fn scale(&mut self, a: Self::Value, k: f64) -> Self::Value;
    /// Element-wise `tanh`.
    fn tanh(&mut self, a: Self::Value) -> Self::Value;
    /// One GRU step (see [`GruCell`](crate::GruCell)): the next state
    /// from message `x` and state `h`, with the bits of the op-by-op
    /// gate composition; neither `x` nor `h` is read again.
    fn gru_step(&mut self, leaves: &GruLeaves<Self::Param>, x: Self::Value, h: Self::Value)
        -> Self::Value;
}

impl<'a> Forward<'a> for Tape {
    type Value = NodeId;
    type Param = NodeId;
    type Sparse = SparseId;

    fn input(&mut self, m: &'a Matrix) -> NodeId {
        self.const_copy(m)
    }

    fn param(&mut self, m: &'a Matrix) -> NodeId {
        self.leaf_copy(m)
    }

    fn operator(&mut self, s: &'a Arc<SparseMatrix>) -> SparseId {
        self.sparse(Arc::clone(s))
    }

    fn matmul(&mut self, a: &NodeId, w: NodeId) -> NodeId {
        Tape::matmul(self, *a, w)
    }

    fn spmm(&mut self, s: SparseId, b: NodeId) -> NodeId {
        Tape::spmm(self, s, b)
    }

    fn spmm_add(&mut self, s: SparseId, b: NodeId, acc: NodeId) -> NodeId {
        Tape::spmm_add(self, s, b, acc)
    }

    fn add(&mut self, a: NodeId, b: &NodeId) -> NodeId {
        Tape::add(self, a, *b)
    }

    fn add_row(&mut self, a: NodeId, row: NodeId) -> NodeId {
        Tape::add_row(self, a, row)
    }

    fn scale(&mut self, a: NodeId, k: f64) -> NodeId {
        Tape::scale(self, a, k)
    }

    fn tanh(&mut self, a: NodeId) -> NodeId {
        Tape::tanh(self, a)
    }

    fn gru_step(&mut self, leaves: &GruLeaves<NodeId>, x: NodeId, h: NodeId) -> NodeId {
        Tape::gru_step(self, leaves.ids(), x, h)
    }
}

/// The tape-free evaluator: every op returns its value, and each value
/// is freed when the pass drops it after its last use.
///
/// Inputs are borrowed, not copied; an input is copied only if an op
/// consumes it, and then into the buffer the op's result needs anyway.
#[derive(Debug, Clone, Copy, Default)]
pub struct Eager;

impl<'a> Forward<'a> for Eager {
    type Value = Cow<'a, Matrix>;
    type Param = &'a Matrix;
    type Sparse = &'a SparseMatrix;

    fn input(&mut self, m: &'a Matrix) -> Cow<'a, Matrix> {
        Cow::Borrowed(m)
    }

    fn param(&mut self, m: &'a Matrix) -> &'a Matrix {
        m
    }

    fn operator(&mut self, s: &'a Arc<SparseMatrix>) -> &'a SparseMatrix {
        s
    }

    fn matmul(&mut self, a: &Cow<'a, Matrix>, w: &'a Matrix) -> Cow<'a, Matrix> {
        Cow::Owned(a.matmul(w))
    }

    fn spmm(&mut self, s: &'a SparseMatrix, b: Cow<'a, Matrix>) -> Cow<'a, Matrix> {
        Cow::Owned(s.matmul_dense(&b))
    }

    fn spmm_add(
        &mut self,
        s: &'a SparseMatrix,
        b: Cow<'a, Matrix>,
        mut acc: Cow<'a, Matrix>,
    ) -> Cow<'a, Matrix> {
        s.matmul_dense_add_assign(&b, acc.to_mut());
        acc
    }

    fn add(&mut self, mut a: Cow<'a, Matrix>, b: &Cow<'a, Matrix>) -> Cow<'a, Matrix> {
        a.to_mut().zip_assign(b, |x, y| x + y);
        a
    }

    fn add_row(&mut self, mut a: Cow<'a, Matrix>, row: &'a Matrix) -> Cow<'a, Matrix> {
        a.to_mut().add_row_assign(row);
        a
    }

    fn scale(&mut self, mut a: Cow<'a, Matrix>, k: f64) -> Cow<'a, Matrix> {
        a.to_mut().map_assign(|x| x * k);
        a
    }

    fn tanh(&mut self, mut a: Cow<'a, Matrix>) -> Cow<'a, Matrix> {
        a.to_mut().map_par_assign(f64::tanh);
        a
    }

    /// Writes the next state over the message's rows when the two are
    /// the same width (the model's case), else into a new matrix.
    fn gru_step(
        &mut self,
        leaves: &GruLeaves<&'a Matrix>,
        mut x: Cow<'a, Matrix>,
        h: Cow<'a, Matrix>,
    ) -> Cow<'a, Matrix> {
        let p = *leaves.ids();
        if x.cols() == h.cols() {
            gru::step(p, Message::InPlace, &h, x.to_mut(), None);
            return x;
        }
        let mut next = Matrix::zeros(h.rows(), h.cols());
        gru::step(p, Message::Rows(&x), &h, &mut next, None);
        Cow::Owned(next)
    }
}
