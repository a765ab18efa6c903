//! The forward ops of Eq. 1 and the GRU, written once over two
//! evaluators.
//!
//! [`Forward`] is the op set the model's layer loop and
//! [`GruCell::forward`](crate::GruCell::forward) are generic over, and
//! no more than Eq. 1 needs: three bindings (`input`, `param`,
//! `operator`), the message products (`matmul`, `spmm`, `spmm_add`) and
//! the GRU step (`gru_step`). It has two implementations:
//!
//! * [`Tape`] records every op and returns a [`NodeId`], so a reverse
//!   sweep can follow — the training path;
//! * [`Eager`] returns owned [`ClassedRows`] values, computes each op
//!   once per distinct input row and frees each intermediate at its
//!   last use — the inference path, whose peak memory is a handful of
//!   activations instead of the whole recorded pass.
//!
//! Both call the same [`Matrix`]/[`SparseMatrix`] kernel for every op,
//! so an eager pass reproduces the tape's values bit for bit: every
//! kernel builds an output row from that row's own inputs and the
//! shared weights in a fixed order, so a row the eager pass computes
//! once for several vertices has the bits the tape computes for each.
//! Where [`Eager`] reuses a consumed operand's buffer, each element is
//! still computed by the same expression with its operands in the same
//! order.
//!
//! Two ops are composites, one pass over the rows each:
//! [`Forward::spmm_add`] sums a message term into its accumulator
//! without building the term, and [`Forward::gru_step`] runs Eq. 1's
//! whole GRU combiner in the fused gate kernel. Each gives the bits of
//! the op-by-op composition it replaces. [`Eager`] runs both in place,
//! and its message terms hold only distinct rows, so a layer holds one
//! `n × d` buffer, the message, beside tables of distinct rows.
//!
//! Ownership is part of each signature: an operand passed by value is
//! the caller's last use of it (the eager pass may overwrite or free
//! it); one passed by reference is read and kept.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use ancstr_nn::{Eager, Forward, Matrix, SparseMatrix, Tape};
//!
//! // y = S · (x·w), written once: one message term of Eq. 1.
//! fn term<'a, F: Forward<'a>>(
//!     f: &mut F,
//!     x: &'a Matrix,
//!     w: &'a Matrix,
//!     s: &'a Arc<SparseMatrix>,
//! ) -> F::Value {
//!     let (x, w, s) = (f.input(x), f.param(w), f.operator(s));
//!     let xw = f.matmul(&x, w);
//!     f.spmm(s, xw)
//! }
//!
//! let x = Matrix::from_rows(&[&[0.5, -1.0], &[2.0, 0.25]]);
//! let w = Matrix::from_rows(&[&[1.0], &[2.0]]);
//! let s = Arc::new(SparseMatrix::from_edges(2, 2, &[(0, 1), (1, 0), (1, 1)]));
//! let mut tape = Tape::new();
//! let recorded = term(&mut tape, &x, &w, &s);
//! let eager = term(&mut Eager, &x, &w, &s);
//! assert_eq!(tape.value(recorded), &eager.into_matrix());
//! ```

use std::sync::Arc;

use crate::classed::{self, ClassedRows};
use crate::gru::{self, GruLeaves, Message};
use crate::matrix::Matrix;
use crate::sparse::SparseMatrix;
use crate::tape::{NodeId, SparseId, Tape};

/// The ops a forward pass of Eq. 1 is made of.
///
/// Three kinds of operand flow through a pass: values (activations),
/// parameters (weights and biases, bound once per pass) and constant
/// sparse operators (the per-edge-type adjacencies).
pub trait Forward<'a> {
    /// An activation: a tape node, or a matrix held as its distinct
    /// rows.
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

    fn gru_step(&mut self, leaves: &GruLeaves<NodeId>, x: NodeId, h: NodeId) -> NodeId {
        Tape::gru_step(self, leaves.ids(), x, h)
    }
}

/// The tape-free evaluator: every op returns its value, computed once
/// per distinct input row, and each value is freed when the pass drops
/// it after its last use.
///
/// Values are [`ClassedRows`]: a table of distinct rows and a class per
/// vertex. [`Forward::input`] classes a matrix's rows in one hash pass;
/// a dense product multiplies only the table and keeps the classes; a
/// sparse product walks every vertex's CSR row and reads each source
/// through its class, giving one row per vertex; a GRU step keys each
/// vertex by (message row bits, state class), runs the row kernel once
/// per distinct key and numbers its output rows by those keys, so the
/// next layer hashes nothing of the state. Every kernel builds an output
/// row from that row's inputs alone, so a shared row has the bits each
/// of its vertices would compute.
#[derive(Debug, Clone, Copy, Default)]
pub struct Eager;

impl<'a> Forward<'a> for Eager {
    type Value = ClassedRows;
    type Param = &'a Matrix;
    type Sparse = &'a SparseMatrix;

    fn input(&mut self, m: &'a Matrix) -> ClassedRows {
        ClassedRows::classify(m)
    }

    fn param(&mut self, m: &'a Matrix) -> &'a Matrix {
        m
    }

    fn operator(&mut self, s: &'a Arc<SparseMatrix>) -> &'a SparseMatrix {
        s
    }

    fn matmul(&mut self, a: &ClassedRows, w: &'a Matrix) -> ClassedRows {
        a.map_table(|t| t.matmul(w))
    }

    fn spmm(&mut self, s: &'a SparseMatrix, b: ClassedRows) -> ClassedRows {
        ClassedRows::new(s.matmul_classed_into(b.table(), b.class(), Vec::new()), None)
    }

    fn spmm_add(&mut self, s: &'a SparseMatrix, b: ClassedRows, acc: ClassedRows) -> ClassedRows {
        acc.expanded().update_table(|acc| s.matmul_dense_add_assign(b.table(), b.class(), acc))
    }

    /// Runs the step once per distinct (message row bits, state class)
    /// key, writing each key's next state over its gathered message row
    /// when the two are the same width (the model's case).
    fn gru_step(
        &mut self,
        leaves: &GruLeaves<&'a Matrix>,
        x: ClassedRows,
        h: ClassedRows,
    ) -> ClassedRows {
        let n = h.rows();
        assert_eq!(x.rows(), n, "GRU step: message and state row counts differ");
        let (class, first) = classed::classify(
            n,
            |v| classed::mix(x.key_hash(v), h.key_hash(v)),
            |v, w| x.same_key(v, w) && h.same_key(v, w),
        );
        let p = *leaves.ids();
        let state = h.gather(&first);
        let mut next = x.gather(&first);
        if next.cols() != state.cols() {
            let message = std::mem::replace(&mut next, Matrix::zeros(state.rows(), state.cols()));
            gru::step(p, Message::Rows(&message), &state, &mut next, None);
        } else {
            gru::step(p, Message::InPlace, &state, &mut next, None);
        }
        ClassedRows::new(next, Some(class))
    }
}
