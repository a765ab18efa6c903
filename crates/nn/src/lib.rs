#![warn(missing_docs)]

//! Minimal neural-network substrate for the AncstrGNN reproduction.
//!
//! The paper implements its GNN in PyTorch; this crate replaces that
//! dependency with a from-scratch stack sized for the model at hand
//! (feature dimension 18, two layers, graphs of ≤ a few thousand
//! vertices):
//!
//! * [`Matrix`] — dense row-major `f64` linear algebra;
//! * [`SparseMatrix`] — triplet sparse matrices for the per-edge-type
//!   adjacency operators, multiplied through cached CSR views;
//! * [`Tape`] — reverse-mode autograd over the op set the model needs
//!   (verified against finite differences in the test suite);
//! * [`GruCell`] — the Eq. 1 combiner;
//! * [`Adam`] — the optimizer;
//! * [`init`] — Xavier initialization;
//! * [`linalg`] — a Jacobi symmetric eigensolver (used by the S³DET
//!   baseline's spectral analysis).
//!
//! # One kernel module
//!
//! Every dense and sparse product runs on a single set of kernels
//! (the private `kernel` module) with no runtime dispatch: a
//! register-resident row path at the model's width `D = 18`, a plain
//! row-by-row loop for other widths, a transpose-free `Aᵀ·G` for weight
//! gradients, and a flat CSR walk for spmm. Each produces every output
//! element by the same sequence of IEEE-754 adds as the plain scalar
//! loop, in the same order, so outputs are byte-identical to that loop
//! and — because work splits only across output rows — at every
//! thread count. The scalar loops survive as test-only oracles.
//!
//! # Example: one gradient step
//!
//! ```
//! use ancstr_nn::{Adam, Matrix, Tape};
//!
//! let mut w = Matrix::from_rows(&[&[0.5, -0.5]]);
//! let mut opt = Adam::new(0.05);
//! for _ in 0..100 {
//!     let mut tape = Tape::new();
//!     let wn = tape.leaf(w.clone());
//!     let sq = tape.mul_elem(wn, wn);
//!     let loss = tape.sum(sq);
//!     let mut grads = tape.backward(loss);
//!     let g = grads.take(wn).expect("w influences the loss");
//!     opt.step(&mut [&mut w], &[g]);
//! }
//! assert!(w.max_abs() < 1e-2);
//! ```

pub mod error;
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

pub use error::NnError;
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
        assert_send_sync::<crate::GruCell>();
        assert_send_sync::<crate::Adam>();
    }
}
