#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! The AncstrGNN graph neural network (paper Section IV-C).
//!
//! An unsupervised, inductive GNN over the heterogeneous circuit
//! multigraph:
//!
//! * [`GraphTensors`] — Algorithm 1's multigraph as per-edge-type
//!   sparse adjacency operators, built straight from the circuit's pin
//!   stream by [`GraphTensors::from_circuit`] (the Eq. 2 neighbour lists
//!   follow on first use), or converted from a built
//!   [`HetMultigraph`](ancstr_graph::HetMultigraph) by
//!   [`GraphTensors::from_multigraph`], the reference;
//! * [`GnnModel`] — K layers of Eq. 1
//!   (`h_v' = GRU(h_v, Σ_{u∈N_in(v)} W_{e_uv} h_u)`, one `W` per port
//!   type);
//! * [`loss`] — the Eq. 2 negative-sampling context loss;
//! * [`train`] — Adam training over a multi-circuit dataset.
//!
//! The model is *inductive*: once trained, [`GnnModel::embed`] produces
//! vertex embeddings for unseen circuits without retraining.
//!
//! Eq. 1 is written once, over the [`ancstr_nn::Forward`] ops. Training
//! records it on an autograd [`Tape`](ancstr_nn::Tape)
//! ([`GnnModel::forward_on_tape`]); inference ([`GnnModel::embed`],
//! [`GnnModel::try_embed`]) runs it on
//! [`Eager`](ancstr_nn::Eager) values, which hold each activation as its
//! distinct rows and one class per vertex: the `H·W_τ` products and the
//! GRU step run once per distinct row, and only the message and the
//! final `Z` have a row per vertex. The pass classes the features once
//! (through [`GnnModel::embed_owned`] it then frees them) and frees each
//! intermediate after its last use. Every kernel builds an output row
//! from its own input rows alone, in a fixed order, so the embeddings
//! are bit-identical to the tape's.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use ancstr_netlist::{parse::parse_spice, flat::FlatCircuit};
//! use ancstr_graph::{HetMultigraph, BuildOptions};
//! use ancstr_gnn::{GraphTensors, GnnModel, GnnConfig};
//! use ancstr_nn::Matrix;
//!
//! let nl = parse_spice("\
//! .subckt amp in out vdd vss
//! M1 out in vss vss nch w=1u l=0.1u
//! M2 out in vdd vdd pch w=2u l=0.1u
//! .ends
//! ")?;
//! let flat = FlatCircuit::elaborate(&nl)?;
//! let options = BuildOptions::default();
//! let tensors = GraphTensors::from_circuit(&flat, &options);
//! // The same operators as converting the multigraph.
//! let g = HetMultigraph::from_circuit(&flat, &options);
//! assert_eq!(tensors, GraphTensors::from_multigraph(&g));
//!
//! let model = GnnModel::new(GnnConfig { dim: 4, layers: 2, seed: 7 });
//! let features = Matrix::filled(2, 4, 0.1);
//! let z = model.embed(&tensors, &features);
//! assert_eq!(z.shape(), (2, 4));
//! assert_eq!(model.embed_owned(&tensors, features).0, z);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod loss;
pub mod model;
pub mod serialize;
pub mod tensors;
pub mod trainer;

pub use error::{AnomalyCause, EmbedError, TrainError};
pub use loss::{context_loss, ContextBatch, LossConfig};
pub use model::{GnnConfig, GnnModel, ModelLeaves};
pub use serialize::{
    crc32, matrix_from_text, matrix_to_text, open_sealed, seal, ChecksumError, ParseModelError,
};
pub use tensors::GraphTensors;
pub use trainer::{
    train, try_train, try_train_resumable, CheckpointSink, EpochTelemetry, HealthConfig,
    HealthEvent, HealthReport, ResumableHooks, TrainConfig, TrainGraph, TrainOutcome,
    TrainReport, TrainerHooks, TrainerState,
};
