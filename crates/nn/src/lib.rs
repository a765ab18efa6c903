#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! Minimal neural-network substrate for the AncstrGNN reproduction.
//!
//! The paper implements its GNN in PyTorch; this crate replaces that
//! dependency with a from-scratch stack sized for the model at hand
//! (feature dimension 18, two layers, graphs of up to ~10^5 vertices
//! in one pass):
//!
//! * [`Matrix`] — dense row-major `f64` linear algebra;
//! * [`SparseMatrix`] — the per-edge-type adjacency operators, held as
//!   their edge pattern in two CSR views (by row for the forward
//!   product, by column for its transpose);
//! * [`Tape`] — reverse-mode autograd over the op set the model needs
//!   (verified against finite differences in the test suite), which
//!   builds each recording in the buffers the previous one freed;
//! * [`Forward`] — the forward ops of Eq. 1 and the GRU, implemented by
//!   [`Tape`] (recorded, for training) and by [`Eager`] (values freed at
//!   their last use and computed once per distinct row, for inference),
//!   so the model's forward pass is written once and both evaluators
//!   give the same bits;
//! * [`ClassedRows`] — a matrix held as its distinct rows and one class
//!   per row, the eager evaluator's value;
//! * [`GruCell`] — the Eq. 1 combiner, one fused pass over the rows per
//!   step on either evaluator;
//! * [`Adam`] — the optimizer;
//! * [`init`] — Xavier initialization;
//! * [`linalg`] — a Jacobi symmetric eigensolver (used by the S³DET
//!   baseline's spectral analysis).
//!
//! # One kernel module
//!
//! Every dense and sparse product runs on a single set of kernels
//! (the private `kernel` module): a register-resident row path at the
//! model's width `D = 18`, a plain row-by-row loop for other widths, a
//! transpose-free `Aᵀ·G` for weight gradients, a CSR walk for spmm
//! (also summing straight into an accumulator), and the fused GRU gate
//! kernel, forward and backward. Each produces every output element by
//! the same sequence of IEEE-754 operations as the plain scalar loop or
//! op-by-op composition, in the same order, so outputs are
//! byte-identical to it and — because work splits only across output
//! rows — at every thread count. The scalar loops and the GRU's
//! op-by-op composition survive as test-only oracles.
//!
//! The module's one source is compiled twice: for the baseline target,
//! and on x86-64 a second time with AVX2 and FMA enabled. Each kernel
//! call picks the AVX2 build when the host has both features (one
//! cached load). The two builds give the same bits: vector lanes hold
//! independent output columns, so every element keeps its add sequence
//! and zero skips, and rustc never contracts a multiply and an add into
//! an FMA. Only the sign and payload of a NaN computed from NaN
//! operands may differ, as they may between any two compilations.
//!
//! # Example: one gradient step
//!
//! ```
//! use ancstr_nn::{Adam, Matrix, Tape};
//!
//! let mut w = Matrix::from_rows(&[&[0.5, -0.5]]);
//! let mut opt = Adam::new(0.05);
//! let mut tape = Tape::new();
//! for _ in 0..100 {
//!     tape.clear(); // the next recording reuses this one's buffers
//!     let wn = tape.leaf(w.clone());
//!     let sq = tape.mul_elem(wn, wn);
//!     let loss = tape.sum(sq);
//!     let mut grads = tape.backward(loss);
//!     let g = grads.take(wn).expect("w influences the loss");
//!     opt.step(&mut [&mut w], std::slice::from_ref(&g));
//!     tape.recycle([g]);
//! }
//! assert!(w.max_abs() < 1e-2);
//! ```

pub mod classed;
pub mod error;
pub mod forward;
pub mod gru;
pub mod init;
mod kernel;
pub mod linalg;
pub mod matrix;
pub mod optim;
#[cfg(test)]
mod oracle;
pub mod sparse;
pub mod tape;

pub use classed::ClassedRows;
pub use error::NnError;
pub use forward::{Eager, Forward};
pub use gru::{GruCell, GruLeaves};
pub use matrix::{cosine_similarity, dot, row_norm, Matrix};
pub use optim::Adam;
pub use sparse::SparseMatrix;
pub use tape::{log_sigmoid, sigmoid, Gradients, NodeId, SparseId, Tape};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Matrix>();
        assert_send_sync::<crate::SparseMatrix>();
        assert_send_sync::<crate::Tape>();
        assert_send_sync::<crate::Eager>();
        assert_send_sync::<crate::GruCell>();
        assert_send_sync::<crate::Adam>();
    }
}
