#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! AncstrGNN: universal symmetry-constraint extraction for AMS circuits
//! with graph neural networks — the paper's primary contribution.
//!
//! Pipeline (Fig. 4): a circuit netlist becomes a heterogeneous
//! multigraph; Table II features initialize each vertex; an unsupervised
//! inductive GNN (Eqs. 1–2) learns structure-aware vertex features;
//! Algorithm 2 aggregates them into per-subcircuit embeddings via
//! PageRank; Algorithm 3 classifies candidate pairs by cosine similarity
//! against the Eq. 4 size-adaptive threshold.
//!
//! The pipeline is one set of stages ([`pipeline`]), each written once
//! with its trace span and, under a durable [`RunSession`], its sealed
//! run-dir artifact; the cancellation token is polled at every stage
//! boundary:
//!
//! 1. **load** — parse → elaborate ([`load_netlist`]);
//! 2. **graph** — Algorithm 1's per-port adjacency operators, built
//!    straight from the pin stream without a multigraph → Table II
//!    features ([`SymmetryExtractor::train_graph`]);
//! 3. **train** — guarded unsupervised training, with checkpoints,
//!    resume and the sealed model under a session;
//! 4. **embed** — GNN inference, which consumes its graph, with the one
//!    non-finite-features degrade policy ([`SymmetryExtractor::embed`]);
//! 5. **detect** — Algorithms 2–3 ([`SymmetryExtractor::detect`]).
//!
//! All stages take one [`RunCtx`]: the [`PipelineObs`] handle, the
//! [`CancelToken`] and the training [`HealthConfig`](ancstr_gnn::HealthConfig).
//! The entry points sequence them: [`SymmetryExtractor::fit`] /
//! [`SymmetryExtractor::extract`] (panicking convenience),
//! [`SymmetryExtractor::try_fit`] / [`SymmetryExtractor::try_extract`]
//! (typed errors, optional [`RunSession`]), and the service's
//! [`extract_request`] with its unformatted shorthand, [`extract_source`].
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use ancstr_core::{ExtractorConfig, SymmetryExtractor};
//! use ancstr_netlist::{parse::parse_spice, flat::FlatCircuit};
//!
//! // A cross-coupled latch core: (M1, M2) and (M3, M4) mirror exactly.
//! let nl = parse_spice("\
//! .subckt latch q qb en vdd vss
//! M1 q qb tail vss nch_lvt w=4u l=0.2u
//! M2 qb q tail vss nch_lvt w=4u l=0.2u
//! M3 q qb vdd vdd pch w=8u l=0.2u
//! M4 qb q vdd vdd pch w=8u l=0.2u
//! M5 tail en vss vss nch w=2u l=0.5u
//! .ends
//! ")?;
//! let flat = FlatCircuit::elaborate(&nl)?;
//!
//! let mut extractor = SymmetryExtractor::new(ExtractorConfig::default());
//! extractor.fit(&[&flat]);
//! let result = extractor.extract(&flat);
//! // The cross-coupled pair (M1, M2) is found.
//! let m1 = flat.node_by_path("latch/M1").expect("exists").id;
//! let m2 = flat.node_by_path("latch/M2").expect("exists").id;
//! assert!(result.detection.constraints.contains_pair(m1, m2));
//! # Ok(())
//! # }
//! ```

pub mod detect;
pub mod embed;
pub mod export;
pub mod features;
pub mod groups;
pub mod inject;
pub mod metrics;
pub mod observe;
#[cfg(test)]
mod oracle;
pub mod pairs;
pub mod pipeline;
pub mod recover;
pub mod runstore;
pub mod service;

pub use detect::{
    detect_constraints, DetectionResult, NumericWarning, ScoredPair, ThresholdConfig,
};
pub use embed::{embed_all_blocks, embed_circuit, BlockRanking, EmbedOptions};
pub use export::{read_constraints, write_constraint_pairs, write_constraints, ParseConstraintError};
pub use groups::{merged_groups_sorted, render_groups, SymmetryGroup};
pub use features::{circuit_features, init_features, FeatureConfig, FEATURE_DIM};
pub use metrics::{
    confusion_from_decisions, level_confusions, pr_curve, render_confusions, render_metrics_table,
    roc_curve,
    Confusion, PrCurve, PrPoint, RocCurve, RocPoint,
};
pub use observe::{
    PipelineObs, StageGuard, TrainTelemetry, MINOR_FAULTS_FIELD, PEAK_RSS_FIELD, STAGES,
    TAPE_KB_FIELD,
};
pub use pairs::{pair_stats, valid_pairs, valid_pairs_of_kind, CandidatePair, PairStats};
pub use inject::{
    inject_checkpoint, inject_model, inject_spice, plan_serve_fault, CheckpointFault, ModelFault,
    ServeFault, SpiceFault, WirePlan, WireStep, ALL_CHECKPOINT_FAULTS, ALL_MODEL_FAULTS,
    ALL_SERVE_FAULTS, ALL_SPICE_FAULTS,
};
pub use pipeline::{
    evaluate_detection, load_netlist, Evaluation, Extraction, ExtractorConfig,
    FitOutcome, RunCtx, SymmetryExtractor,
};
pub use recover::ExtractError;
pub use service::{cache_key, extract_request, extract_source, AltFormatter, ServiceReply};
pub use runstore::{
    config_hash, write_atomic, CancelToken, RunError, RunManifest, RunOptions,
    RunSession, RunStore, StageEntry, StageStatus, DEFAULT_CHECKPOINT_EVERY, MANIFEST_VERSION,
};
