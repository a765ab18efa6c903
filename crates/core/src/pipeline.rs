//! The end-to-end AncstrGNN pipeline (Fig. 4) as one set of stages.
//!
//! | stage    | work                           | trace spans                   | run-dir artifact   |
//! |----------|--------------------------------|-------------------------------|--------------------|
//! | `load`   | parse → elaborate              | `parse`, `elaborate`          | —                  |
//! | `graph`  | Alg. 1 operators → Table II    | `graph_build`, `feature_init` | `graph.meta`       |
//! | `train`  | guarded training (Eqs. 1–2)    | `train`                       | `model.txt`, ckpts |
//! | `embed`  | GNN inference                  | `embed`                       | `embeddings.txt`   |
//! | `detect` | Algorithms 2–3                 | `detect`                      | `constraints.txt`  |
//!
//! Each stage is written once, with its span, and runs under one
//! [`RunCtx`]: the observability handle, the cancellation token (polled
//! at every stage boundary and, inside training, at every epoch
//! boundary) and the training health policy. When a [`RunSession`] is
//! present, a stage that is already done in the run directory reloads
//! its sealed artifact instead of running, and a stage that runs seals
//! its artifact.
//!
//! The sequencing entry points are thin: [`SymmetryExtractor::fit`] and
//! [`SymmetryExtractor::extract`] (the panicking convenience API),
//! [`SymmetryExtractor::try_fit`] and [`SymmetryExtractor::try_extract`],
//! and the service's [`extract_request`](crate::service::extract_request)
//! with its unformatted shorthand
//! [`extract_source`](crate::service::extract_source).

use std::time::{Duration, Instant};

use ancstr_gnn::{
    try_train_resumable, CheckpointSink, GnnConfig, GnnModel, GraphTensors, HealthConfig,
    HealthReport, ResumableHooks, TrainConfig, TrainGraph, TrainOutcome, TrainReport,
};
use ancstr_graph::BuildOptions;
use ancstr_netlist::error::ParseNetlistError;
use ancstr_netlist::parse::parse_spice_file;
use ancstr_netlist::{FlatCircuit, Netlist, SymmetryKind};
use ancstr_nn::Matrix;

use crate::detect::{detect_constraints, DetectionResult, ThresholdConfig};
use crate::embed::EmbedOptions;
use crate::features::{circuit_features, FeatureConfig, FEATURE_DIM};
use crate::metrics::{Confusion, RocCurve};
use crate::observe::{PipelineObs, TrainTelemetry};
use crate::recover::ExtractError;
use crate::runstore::{CancelToken, RunSession};

/// Everything configurable about the extractor.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractorConfig {
    /// GNN hyper-parameters. `gnn.dim` must equal [`FEATURE_DIM`].
    pub gnn: GnnConfig,
    /// Unsupervised training schedule.
    pub train: TrainConfig,
    /// Table II feature options.
    pub features: FeatureConfig,
    /// Eq. 4 thresholds.
    pub thresholds: ThresholdConfig,
    /// Algorithm 2 options (M, PageRank).
    pub embed: EmbedOptions,
    /// Algorithm 1 options.
    pub build: BuildOptions,
}

impl Default for ExtractorConfig {
    fn default() -> ExtractorConfig {
        ExtractorConfig {
            gnn: GnnConfig { dim: FEATURE_DIM, layers: 2, seed: 0xA5C7 },
            train: TrainConfig::default(),
            features: FeatureConfig::default(),
            thresholds: ThresholdConfig::default(),
            embed: EmbedOptions::default(),
            // Power/clock rails touch hundreds of pins; their cliques
            // quadratically dominate |E| while carrying no matching
            // signal. The default prunes them (the ablation bench
            // measures the faithful `None` setting on small designs).
            build: BuildOptions { max_net_degree: Some(64) },
        }
    }
}

/// Error returned by [`SymmetryExtractor::with_model`] when the model
/// dimension does not match the Table II feature width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaceModelError {
    /// The offered model's dimension.
    pub found: usize,
}

impl std::fmt::Display for ReplaceModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model dimension {} does not match the feature width {}",
            self.found, FEATURE_DIM
        )
    }
}

impl std::error::Error for ReplaceModelError {}

/// The one context every stage runs under. All three parts are cheap
/// to clone; the [`Default`] is a disabled observability handle, an
/// unarmed token and the default health policy.
#[derive(Clone, Default)]
pub struct RunCtx {
    /// Stage spans, events and metrics.
    pub obs: PipelineObs,
    /// Cooperative cancellation, polled at every stage boundary and,
    /// inside training, at every epoch boundary.
    pub cancel: CancelToken,
    /// The train stage's numerical guardrails.
    pub health: HealthConfig,
}

impl RunCtx {
    /// A context that observes into `obs`, with an unarmed token and
    /// the default health policy.
    pub fn observed(obs: PipelineObs) -> RunCtx {
        RunCtx { obs, ..RunCtx::default() }
    }

    /// The stage-boundary cancellation check.
    pub(crate) fn check(&self) -> Result<(), ExtractError> {
        if self.cancel.is_cancelled() {
            Err(ExtractError::Cancelled)
        } else {
            Ok(())
        }
    }
}

/// How [`SymmetryExtractor::try_fit`] ended.
#[derive(Debug, Clone)]
pub enum FitOutcome {
    /// Training finished — in this call or, with a run session, in a
    /// previous process. Reports describe the *full* run.
    Completed {
        /// Loss trajectory over all epochs.
        report: TrainReport,
        /// Guardrail activity over all epochs.
        health: HealthReport,
        /// Completed-epoch count of the checkpoint training resumed
        /// from, when it did.
        resumed_from: Option<usize>,
        /// Recovery notes (corrupt checkpoints skipped, artifacts
        /// rebuilt) for the caller to surface.
        notes: Vec<String>,
        /// The training graphs, one per circuit, for a following
        /// [`SymmetryExtractor::try_extract`] to reuse; empty when the
        /// weights were reloaded instead of trained.
        graphs: Vec<TrainGraph>,
    },
    /// The cancel token fired at an epoch boundary. With a run session
    /// a final checkpoint was flushed, so the run resumes from exactly
    /// this point.
    Cancelled {
        /// Completed epochs at the moment of cancellation.
        after_epoch: usize,
    },
}

/// Stage `load` for a netlist file: parse → elaborate under `parse` and
/// `elaborate` spans.
///
/// # Errors
///
/// [`ExtractError::Parse`] / [`ExtractError::Elaborate`].
pub fn load_netlist(path: &str, obs: &PipelineObs) -> Result<FlatCircuit, ExtractError> {
    load(path, obs, || parse_spice_file(path))
}

/// Stage `load` over any parser; `origin` labels the `parse` span.
pub(crate) fn load(
    origin: &str,
    obs: &PipelineObs,
    parse: impl FnOnce() -> Result<Netlist, ParseNetlistError>,
) -> Result<FlatCircuit, ExtractError> {
    let netlist = {
        let _g = obs.stage_with("parse", &[("path", origin.into())]);
        parse()?
    };
    let flat = {
        let _g = obs.stage("elaborate");
        FlatCircuit::elaborate(&netlist)?
    };
    obs.event(
        "elaborate",
        "circuit_loaded",
        &[
            ("path", origin.into()),
            ("devices", flat.devices().len().into()),
            ("nets", flat.net_count().into()),
        ],
    );
    Ok(flat)
}

/// The trained extractor. Inductive: [`SymmetryExtractor::fit`] once on
/// a corpus, then [`SymmetryExtractor::extract`] on any circuit,
/// including unseen ones.
#[derive(Debug, Clone)]
pub struct SymmetryExtractor {
    config: ExtractorConfig,
    model: GnnModel,
}

/// Extraction output with its runtime (training excluded, matching the
/// paper's reporting).
#[derive(Debug, Clone)]
pub struct Extraction {
    /// Scores, decisions, and the accepted constraint set.
    pub detection: DetectionResult,
    /// Wall-clock graph build + embed + detect time (see
    /// [`SymmetryExtractor::try_extract`]).
    pub runtime: Duration,
}

/// Extraction compared against ground truth.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The extraction being evaluated.
    pub extraction: Extraction,
    /// Confusion over all valid pairs.
    pub overall: Confusion,
    /// Confusion over system-level pairs only.
    pub system: Confusion,
    /// Confusion over device-level pairs only.
    pub device: Confusion,
    /// `(score, actual)` samples for ROC analysis, all pairs.
    pub samples: Vec<(f64, bool)>,
    /// System-level samples.
    pub system_samples: Vec<(f64, bool)>,
    /// Device-level samples.
    pub device_samples: Vec<(f64, bool)>,
}

impl Evaluation {
    /// ROC curve over all pairs.
    pub fn roc(&self) -> RocCurve {
        crate::metrics::roc_curve(&self.samples)
    }
}

impl SymmetryExtractor {
    /// A fresh (untrained) extractor.
    ///
    /// # Panics
    ///
    /// Panics if `config.gnn.dim != FEATURE_DIM`.
    pub fn new(config: ExtractorConfig) -> SymmetryExtractor {
        assert_eq!(
            config.gnn.dim, FEATURE_DIM,
            "the GNN dimension must match the Table II feature width"
        );
        let model = GnnModel::new(config.gnn.clone());
        SymmetryExtractor { config, model }
    }

    /// The configuration.
    pub fn config(&self) -> &ExtractorConfig {
        &self.config
    }

    /// Borrow the underlying model (e.g. to inspect or serialize its
    /// parameters via [`GnnModel::to_text`]).
    pub fn model(&self) -> &GnnModel {
        &self.model
    }

    /// Mutable model access for the run store's weight reload.
    pub(crate) fn model_mut(&mut self) -> &mut GnnModel {
        &mut self.model
    }

    /// Replace the model with a pre-trained one (the inductive
    /// deployment mode: train once on a corpus, ship the weights).
    ///
    /// # Errors
    ///
    /// Returns the extractor unchanged inside `Err` when the model's
    /// dimension differs from [`FEATURE_DIM`].
    pub fn with_model(mut self, model: GnnModel) -> Result<SymmetryExtractor, ReplaceModelError> {
        if model.config().dim != FEATURE_DIM {
            return Err(ReplaceModelError { found: model.config().dim });
        }
        self.config.gnn = model.config().clone();
        self.model = model;
        Ok(self)
    }

    /// Unsupervised training over a corpus of circuits (Section IV-C):
    /// [`SymmetryExtractor::try_fit`] with the default [`RunCtx`].
    ///
    /// # Panics
    ///
    /// Panics if `circuits` is empty or training fails its guardrails.
    pub fn fit(&mut self, circuits: &[&FlatCircuit]) -> TrainReport {
        match self.try_fit(circuits, &RunCtx::default(), None) {
            Ok(FitOutcome::Completed { report, .. }) => report,
            Ok(FitOutcome::Cancelled { .. }) => unreachable!("an unarmed token never cancels"),
            Err(e) => panic!("training failed: {e}"),
        }
    }

    /// Run the full inference pipeline on one circuit (Algorithm 3):
    /// [`SymmetryExtractor::try_extract`] with the default [`RunCtx`].
    ///
    /// # Panics
    ///
    /// Panics when the model's parameters are non-finite.
    pub fn extract(&self, flat: &FlatCircuit) -> Extraction {
        self.try_extract(flat, None, &RunCtx::default(), None)
            .unwrap_or_else(|e| panic!("extraction failed: {e}"))
    }

    /// The trained per-vertex representations `Z` for a circuit.
    pub fn vertex_embeddings(&self, flat: &FlatCircuit) -> Matrix {
        let tg = self.train_graph(flat, &PipelineObs::disabled());
        self.model.embed_owned(&tg.tensors, tg.features).0
    }

    /// Train through the graph and train stages (Section IV-C). The
    /// training loop is the guarded one: NaN/Inf scans, gradient
    /// clipping and bounded checkpoint-restore recovery (see
    /// [`HealthConfig`]), bit-identical to unguarded training on a
    /// healthy run. `ctx.cancel` is polled at every epoch boundary.
    ///
    /// With a `session`, the graph stage seals `graph.meta`, training
    /// writes periodic checkpoints, resumes from the newest valid one
    /// (skipping corrupt ones with notes), and on completion seals the
    /// model artifact and marks the stage done. A `train` stage that is
    /// already done reloads its weights and skips training entirely.
    /// Crash/resume is bit-identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`ExtractError::Train`] on an empty/invalid corpus or when
    /// anomalies persist past the retry budget; [`ExtractError::Run`]
    /// and [`ExtractError::Model`] on run-store failures.
    pub fn try_fit(
        &mut self,
        circuits: &[&FlatCircuit],
        ctx: &RunCtx,
        mut session: Option<&mut RunSession>,
    ) -> Result<FitOutcome, ExtractError> {
        if let Some(s) = session.as_deref_mut() {
            s.seal_graph_meta(circuits)?;
            s.write_metrics(&ctx.obs);
            if s.stage_done("train") {
                if let Some((report, health)) = s.reload_model(self, &ctx.obs)? {
                    return Ok(FitOutcome::Completed {
                        report,
                        health,
                        resumed_from: None,
                        notes: s.take_notes(),
                        graphs: Vec::new(),
                    });
                }
            }
        }
        let graphs: Vec<TrainGraph> =
            circuits.iter().map(|f| self.train_graph(f, &ctx.obs)).collect();
        let outcome = self.train(graphs, ctx, session.as_deref_mut())?;
        if let Some(s) = session {
            s.write_metrics(&ctx.obs);
        }
        Ok(outcome)
    }

    /// Run the inference stages on one circuit: graph → embed → detect,
    /// with `ctx.cancel` checked between stages. `graph` is the training
    /// graph a preceding [`SymmetryExtractor::try_fit`] built for this
    /// circuit, if any; the graph stage runs only without one.
    ///
    /// Devices whose feature vectors come out non-finite are skipped
    /// with warning records rather than scored with NaN similarities —
    /// a degraded but valid result.
    ///
    /// With a `session`, a done `embed` or `detect` stage reloads its
    /// sealed artifact (recomputing, with a note, when the artifact is
    /// unusable), so a resumed finished run builds no graph at all. A
    /// reloaded detection carries only its constraints: `scored` and
    /// `warnings` are empty and `system_threshold` is NaN.
    ///
    /// [`Extraction::runtime`] is this circuit's graph build (when this
    /// call ran it), embed and detect time.
    ///
    /// # Errors
    ///
    /// [`ExtractError::Embed`] when the model's parameters are
    /// non-finite, [`ExtractError::Cancelled`] when the token trips, and
    /// [`ExtractError::Run`] on run-store failures.
    pub fn try_extract(
        &self,
        flat: &FlatCircuit,
        graph: Option<TrainGraph>,
        ctx: &RunCtx,
        mut session: Option<&mut RunSession>,
    ) -> Result<Extraction, ExtractError> {
        ctx.check()?;
        let mut runtime = Duration::ZERO;
        let shape = (flat.devices().len(), self.model.config().dim);
        let reloaded = session.as_deref_mut().filter(|s| s.stage_done("embed")).and_then(|s| {
            let _g = ctx.obs.stage("embed");
            s.reload_embeddings(shape, &ctx.obs)
        });
        let z = match reloaded {
            Some(z) => z,
            None => {
                let tg = match graph {
                    Some(tg) => tg,
                    None => {
                        let start = Instant::now();
                        let tg = self.train_graph(flat, &ctx.obs);
                        runtime += start.elapsed();
                        ctx.check()?;
                        tg
                    }
                };
                let start = Instant::now();
                let z = self.embed(tg, &ctx.obs)?;
                runtime += start.elapsed();
                if let Some(s) = session.as_deref_mut() {
                    s.seal_embeddings(&z)?;
                }
                z
            }
        };
        if let Some(s) = session.as_deref_mut() {
            s.write_metrics(&ctx.obs);
        }
        ctx.check()?;

        let reloaded = session.as_deref_mut().filter(|s| s.stage_done("detect")).and_then(|s| {
            let _g = ctx.obs.stage("detect");
            s.reload_constraints(flat, &ctx.obs)
        });
        let detection = match reloaded {
            Some(constraints) => DetectionResult {
                scored: Vec::new(),
                constraints,
                system_threshold: f64::NAN,
                warnings: Vec::new(),
                skipped: 0,
                block_ranking: None,
            },
            None => {
                let start = Instant::now();
                let detection = self.detect(flat, &z, &ctx.obs);
                runtime += start.elapsed();
                if let Some(s) = session.as_deref_mut() {
                    s.seal_constraints(flat, &detection.constraints)?;
                }
                detection
            }
        };
        if let Some(s) = session {
            s.write_metrics(&ctx.obs);
        }
        Ok(Extraction { detection, runtime })
    }

    /// Stage `graph`: Algorithm 1's Eq. 1 operators, built straight
    /// from the pin stream ([`GraphTensors::from_circuit`]) under a
    /// `graph_build` span whose `graph_built` event carries the vertex
    /// and typed-edge counts, then the Table II features under a
    /// `feature_init` span.
    pub fn train_graph(&self, flat: &FlatCircuit, obs: &PipelineObs) -> TrainGraph {
        let tensors = {
            let _g = obs.stage("graph_build");
            let t = GraphTensors::from_circuit(flat, &self.config.build);
            obs.event(
                "graph_build",
                "graph_built",
                &[("vertices", t.vertex_count().into()), ("edges", t.edge_count().into())],
            );
            t
        };
        let features = {
            let _g = obs.stage("feature_init");
            circuit_features(flat, &self.config.features)
        };
        TrainGraph { tensors, features }
    }

    /// Stage `train` on prepared graphs, under a `train` span with
    /// per-epoch telemetry. With a session: checkpoint sink, resume and
    /// the sealed model artifact.
    fn train(
        &mut self,
        graphs: Vec<TrainGraph>,
        ctx: &RunCtx,
        mut session: Option<&mut RunSession>,
    ) -> Result<FitOutcome, ExtractError> {
        let config = self.config.train.clone();
        let resume_from = session.as_deref_mut().and_then(|s| s.resume_state(&ctx.obs));
        let resumed_from = resume_from.as_ref().map(|s| s.epoch_losses.len());
        let checkpoint_every = session.as_deref().map(RunSession::checkpoint_every);
        let mut fields: Vec<(&str, ancstr_obs::Value)> = vec![
            ("epochs", config.epochs.into()),
            ("circuits", graphs.len().into()),
            ("seed", config.seed.into()),
        ];
        if let Some(every) = checkpoint_every {
            fields.push(("checkpoint_every", every.into()));
        }
        let _span = ctx.obs.stage_with("train", &fields);
        if let Some(epoch) = resumed_from {
            ctx.obs.event("train", "resumed_from_checkpoint", &[("epoch", epoch.into())]);
        }

        let mut sink = session.as_deref().map(|s| s.checkpoint_sink(&ctx.cancel));
        let cancel = || ctx.cancel.is_cancelled();
        let mut telemetry = TrainTelemetry::new(ctx.obs.clone());
        let hooks = ResumableHooks {
            checkpoint_every,
            on_checkpoint: sink.as_mut().map(|f| f as CheckpointSink),
            cancel: Some(&cancel),
            resume_from,
            observer: Some(&mut telemetry),
        };
        let (report, health, outcome) =
            try_train_resumable(&mut self.model, &graphs, &config, &ctx.health, hooks)?;

        match outcome {
            TrainOutcome::Cancelled { after_epoch } => {
                if let Some(s) = session {
                    s.seal_cancelled(&health)?;
                }
                Ok(FitOutcome::Cancelled { after_epoch })
            }
            TrainOutcome::Completed => {
                let notes = match session {
                    Some(s) => {
                        let (model, obs) = (&self.model, &ctx.obs);
                        s.seal_model(model, &report, &health, &config, graphs.len(), obs)?;
                        s.take_notes()
                    }
                    None => Vec::new(),
                };
                Ok(FitOutcome::Completed { report, health, resumed_from, notes, graphs })
            }
        }
    }

    /// Stage `embed`: one GNN forward pass over `tg`, under one `embed`
    /// span whose end carries `rows` (the vertices) and `rows_computed`
    /// (the rows Eq. 1's K combiner steps computed, summed: one per
    /// distinct message and state). The stage consumes the graph: the
    /// pass frees the features once it has classed their rows and the
    /// operators when it ends, so nothing of the graph outlives the
    /// stage. This is the pipeline's single copy of the degrade policy:
    /// a graph with non-finite features is embedded anyway (a
    /// `degraded_embed` event; detection then quarantines its rows
    /// behind warnings), while a non-finite model fails with
    /// [`EmbedError::NonFiniteParameters`](ancstr_gnn::EmbedError).
    pub fn embed(&self, tg: TrainGraph, obs: &PipelineObs) -> Result<Matrix, ExtractError> {
        let g = obs.stage("embed");
        let TrainGraph { tensors, features } = tg;
        if !features.is_finite() {
            obs.event("embed", "degraded_embed", &[("cause", "non-finite features".into())]);
        } else if !self.model.is_finite() {
            return Err(ExtractError::Embed(ancstr_gnn::EmbedError::NonFiniteParameters));
        }
        let (z, computed) = self.model.embed_owned(&tensors, features);
        g.close_with(&[("rows", z.rows().into()), ("rows_computed", computed.into())]);
        Ok(z)
    }

    /// Stage `detect`: exact Algorithm 2–3 detection under a `detect`
    /// span whose end carries `blocks_compared` and `block_digraphs`
    /// (how much Algorithm 2 work the blocks shared), `candidates` (the
    /// valid pairs considered) and `constraints` (those accepted), then
    /// the detection's gauges and `numeric_warning` events.
    pub fn detect(&self, flat: &FlatCircuit, z: &Matrix, obs: &PipelineObs) -> DetectionResult {
        let g = obs.stage("detect");
        let detection = detect_constraints(flat, z, &self.config.thresholds, &self.config.embed);
        let r = detection.block_ranking.expect("detect_constraints runs Algorithm 2");
        g.close_with(&[
            ("blocks_compared", r.blocks_compared.into()),
            ("block_digraphs", r.block_digraphs.into()),
            ("candidates", detection.candidates().into()),
            ("constraints", detection.constraints.len().into()),
        ]);
        obs.record_detection(&detection);
        detection
    }

    /// Extract and score against the circuit's ground truth.
    pub fn evaluate(&self, flat: &FlatCircuit) -> Evaluation {
        let extraction = self.extract(flat);
        evaluate_detection(flat, extraction)
    }
}

/// Compare a detection against ground truth (used for our detector and
/// for baselines alike).
pub fn evaluate_detection(flat: &FlatCircuit, extraction: Extraction) -> Evaluation {
    let gt = flat.ground_truth();
    let mut overall = Confusion::default();
    let mut system = Confusion::default();
    let mut device = Confusion::default();
    let mut samples = Vec::new();
    let mut system_samples = Vec::new();
    let mut device_samples = Vec::new();

    for s in &extraction.detection.scored {
        let actual = gt.contains_key(s.candidate.pair);
        overall.record(s.accepted, actual);
        samples.push((s.score, actual));
        match s.candidate.kind {
            SymmetryKind::System => {
                system.record(s.accepted, actual);
                system_samples.push((s.score, actual));
            }
            SymmetryKind::Device => {
                device.record(s.accepted, actual);
                device_samples.push((s.score, actual));
            }
        }
    }
    Evaluation {
        extraction,
        overall,
        system,
        device,
        samples,
        system_samples,
        device_samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_circuits::{clock::clock_circuit, comparator::comp2, ota::ota3};
    use ancstr_gnn::LossConfig;

    fn quick_config() -> ExtractorConfig {
        ExtractorConfig {
            train: TrainConfig {
                epochs: 30,
                learning_rate: 0.02,
                loss: LossConfig::default(),
                seed: 7,
            },
            ..ExtractorConfig::default()
        }
    }

    #[test]
    fn fit_then_extract_finds_perfect_pairs() {
        let flat = FlatCircuit::elaborate(&comp2(3)).unwrap();
        let mut ex = SymmetryExtractor::new(quick_config());
        ex.fit(&[&flat]);
        let eval = ex.evaluate(&flat);
        // comp2's matched pairs are exact mirror automorphisms, so they
        // must be found.
        assert_eq!(eval.overall.fn_, 0, "all true pairs found: {:?}", eval.overall);
        assert!(eval.overall.tp >= 3);
        assert!(eval.overall.acc() > 0.8, "acc = {}", eval.overall.acc());
    }

    #[test]
    fn clock_circuit_sizing_story() {
        // The Fig. 2 case: equal-drive inverter pairs match; the x8
        // branch must NOT be constrained to the x1/x2/x4 instances.
        let flat = FlatCircuit::elaborate(&clock_circuit()).unwrap();
        let mut ex = SymmetryExtractor::new(quick_config());
        ex.fit(&[&flat]);
        let eval = ex.evaluate(&flat);
        assert_eq!(eval.system.fn_, 0, "equal-drive pairs found");
        assert_eq!(eval.system.fp, 0, "no cross-drive false alarms: {:?}", eval.system);
    }

    #[test]
    fn inductive_transfer_to_unseen_circuit() {
        // Train on comp2 only, extract on ota3 (never seen).
        let train_c = FlatCircuit::elaborate(&comp2(3)).unwrap();
        let test_c = FlatCircuit::elaborate(&ota3(5)).unwrap();
        let mut ex = SymmetryExtractor::new(quick_config());
        ex.fit(&[&train_c]);
        let eval = ex.evaluate(&test_c);
        // The unseen circuit still gets sensible (better-than-chance)
        // detection quality.
        assert!(eval.overall.acc() > 0.6, "acc = {}", eval.overall.acc());
        assert!(eval.roc().auc > 0.6, "auc = {}", eval.roc().auc);
    }

    #[test]
    #[should_panic(expected = "feature width")]
    fn wrong_dim_is_rejected() {
        let cfg = ExtractorConfig {
            gnn: GnnConfig { dim: 4, layers: 2, seed: 1 },
            ..ExtractorConfig::default()
        };
        let _ = SymmetryExtractor::new(cfg);
    }

    #[test]
    fn runtime_is_measured() {
        let flat = FlatCircuit::elaborate(&comp2(3)).unwrap();
        let ex = SymmetryExtractor::new(quick_config());
        let extraction = ex.extract(&flat);
        assert!(extraction.runtime > Duration::ZERO);
    }
}
