//! Unsupervised training loop: minimize `L_tot = Σ_v L(z_v)` (Eq. 2)
//! over a multi-circuit dataset with Adam.
//!
//! Two entry points share one epoch engine:
//!
//! * [`train`] — the paper-faithful loop. Panics on contract violations
//!   and applies no numerical guardrails; its arithmetic is bit-for-bit
//!   the historical behaviour.
//! * [`try_train`] — the guarded loop. Validates the dataset up front,
//!   scans every epoch's loss and gradients for NaN/Inf, clips
//!   oversized gradients, detects loss divergence, and recovers by
//!   restoring the best-loss checkpoint under a deterministically
//!   derived replacement seed, up to a bounded retry budget. On a clean
//!   run the guardrails never fire and the loss trajectory equals
//!   [`train`]'s exactly.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use ancstr_nn::{Adam, Matrix};

use crate::error::{AnomalyCause, TrainError};
use crate::loss::{context_loss, ContextBatch, LossConfig};
use crate::model::{GnnConfig, GnnModel};
use crate::tensors::GraphTensors;

/// One training graph: its tensors and initial vertex features.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainGraph {
    /// Adjacency operators and neighbour lists.
    pub tensors: GraphTensors,
    /// Initial `n × D` feature matrix (Table II features).
    pub features: Matrix,
}

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Eq. 2 loss configuration.
    pub loss: LossConfig,
    /// Seed for negative sampling and graph-order shuffling.
    pub seed: u64,
    /// Redraw negative samples every epoch (`true`, the stochastic
    /// regime) or fix them once (`false`, useful for convergence tests).
    pub resample_negatives: bool,
    /// GraphSAGE-style neighbour sampling: cap each vertex's incoming
    /// message edges at this many per pass, redrawn every epoch. `None`
    /// aggregates every neighbour (the deterministic full-sum reading of
    /// Eq. 1, and the default).
    pub neighbor_samples: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            epochs: 60,
            learning_rate: 0.01,
            loss: LossConfig::default(),
            seed: 0x5EED,
            resample_negatives: true,
            neighbor_samples: None,
        }
    }
}

/// Loss trajectory returned by [`train`]: the mean per-term loss of each
/// epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// One entry per epoch: dataset-averaged loss.
    pub epoch_losses: Vec<f64>,
}

impl TrainReport {
    /// Loss of the final epoch.
    ///
    /// # Panics
    ///
    /// Panics if training ran for zero epochs.
    pub fn final_loss(&self) -> f64 {
        *self.epoch_losses.last().expect("at least one epoch")
    }
}

/// Numerical-guardrail settings for [`try_train`].
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// Clip the per-step global gradient norm to this value (`None`
    /// disables clipping). Clipping only rescales when the norm
    /// *exceeds* the bound, so healthy runs are untouched.
    pub max_grad_norm: Option<f64>,
    /// An epoch whose loss exceeds `divergence_factor × best_loss` is
    /// declared diverged (after [`HealthConfig::grace_epochs`]).
    pub divergence_factor: f64,
    /// Number of initial epochs exempt from the divergence check (early
    /// losses legitimately bounce before Adam's moments warm up).
    pub grace_epochs: usize,
    /// How many checkpoint-restore + re-seed recoveries to attempt
    /// before giving up with [`TrainError::RetriesExhausted`].
    pub max_retries: usize,
    /// Fault-injection hook for the robustness harness: poison the
    /// gradient with a NaN at this epoch — on the first attempt only, so
    /// the fault is transient and recovery must succeed.
    #[doc(hidden)]
    pub inject_nan_grad_at: Option<usize>,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            max_grad_norm: Some(1e3),
            divergence_factor: 50.0,
            grace_epochs: 3,
            max_retries: 3,
            inject_nan_grad_at: None,
        }
    }
}

/// One recovery event recorded by the guarded loop.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthEvent {
    /// Epoch (0-based) at which the anomaly was detected.
    pub epoch: usize,
    /// Attempt number that hit the anomaly (0 = the original run).
    pub attempt: usize,
    /// What tripped the monitor.
    pub cause: AnomalyCause,
    /// The derived seed the retry restarted the RNG with.
    pub reseeded_to: u64,
}

/// What the guardrails did during a [`try_train`] run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthReport {
    /// Checkpoint-restore recoveries, in order.
    pub retries: Vec<HealthEvent>,
    /// Number of optimizer steps whose gradient was norm-clipped.
    pub clipped_steps: usize,
}

impl HealthReport {
    /// `true` when no guardrail ever fired.
    pub fn clean(&self) -> bool {
        self.retries.is_empty() && self.clipped_steps == 0
    }
}

/// SplitMix64-style derivation of the retry seed: deterministic in the
/// base seed and attempt number, decorrelated from both.
fn derive_seed(base: u64, attempt: u64) -> u64 {
    let mut z = base
        .wrapping_add(attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-epoch training telemetry passed to [`TrainerHooks::on_epoch`].
///
/// Gradient norms are the *global* (all-parameter) L2 norms the health
/// monitor already computes; `pre`/`post` bracket the clipping step.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochTelemetry {
    /// Epoch index (0-based) this snapshot describes.
    pub epoch: usize,
    /// Recovery attempt the epoch ran under (0 = original run).
    pub attempt: usize,
    /// Mean context loss over the epoch.
    pub loss: f64,
    /// Optimizer steps taken this epoch.
    pub steps: usize,
    /// Largest pre-clip gradient norm seen this epoch.
    pub grad_norm_max: f64,
    /// Mean pre-clip gradient norm over the epoch's steps.
    pub grad_norm_mean: f64,
    /// Largest post-clip gradient norm this epoch.
    pub grad_norm_post_clip_max: f64,
    /// Steps whose gradient was norm-clipped this epoch.
    pub clipped_steps: usize,
}

/// Read-only training observer for telemetry.
///
/// Every method defaults to a no-op and nothing an observer does can
/// feed back into training: [`try_train`] / [`try_train_resumable`]
/// follow the exact same RNG call sequence and arithmetic whether or
/// not an observer is attached (proven by a unit test below).
pub trait TrainerHooks {
    /// Called after every successfully completed epoch.
    fn on_epoch(&mut self, telemetry: &EpochTelemetry) {
        let _ = telemetry;
    }

    /// Called when the health monitor recovers from an anomaly by
    /// restoring the best checkpoint and re-seeding.
    fn on_retry(&mut self, event: &HealthEvent) {
        let _ = event;
    }

    /// Called after each checkpoint write with the completed-epoch
    /// count and the sink's write latency.
    fn on_checkpoint(&mut self, completed_epochs: usize, write_time: std::time::Duration) {
        let _ = (completed_epochs, write_time);
    }

    /// Called when cooperative cancellation stops the run.
    fn on_cancelled(&mut self, after_epoch: usize) {
        let _ = after_epoch;
    }
}

/// Per-epoch gradient-norm accumulator, filled only when an observer
/// is attached (the extra square roots never touch the update math).
#[derive(Debug, Clone, Copy, Default)]
struct NormStats {
    steps: usize,
    sum: f64,
    max: f64,
    post_max: f64,
}

/// Per-epoch guardrail state threaded through [`epoch_pass`].
struct EpochGuard<'a> {
    health: &'a HealthConfig,
    epoch: usize,
    attempt: usize,
    clipped_steps: &'a mut usize,
    norms: Option<&'a mut NormStats>,
}

/// One full pass over the dataset. With `guard: None` this is exactly
/// the historical [`train`] epoch — same RNG call sequence, same
/// arithmetic. With a guard it additionally scans gradients (abort on
/// NaN/Inf) and clips their global norm.
#[allow(clippy::too_many_arguments)]
fn epoch_pass(
    model: &mut GnnModel,
    dataset: &[TrainGraph],
    config: &TrainConfig,
    rng: &mut StdRng,
    opt: &mut Adam,
    order: &mut [usize],
    fixed_batches: &[ContextBatch],
    mut guard: Option<EpochGuard<'_>>,
) -> Result<f64, AnomalyCause> {
    order.shuffle(rng);
    let mut total = 0.0;
    let mut counted = 0usize;
    for &gi in order.iter() {
        let graph = &dataset[gi];
        let batch = if config.resample_negatives {
            ContextBatch::sample(&graph.tensors, &config.loss, rng)
        } else {
            fixed_batches[gi].clone()
        };
        if batch.is_empty() {
            continue;
        }
        let sampled;
        let tensors = match config.neighbor_samples {
            Some(k) => {
                sampled = graph.tensors.sampled(k, rng);
                &sampled
            }
            None => &graph.tensors,
        };
        let mut tape = ancstr_nn::Tape::new();
        let (z, leaves) = model.forward_on_tape(&mut tape, tensors, &graph.features);
        let loss = context_loss(&mut tape, z, &batch, &config.loss);
        let loss_value = tape.value(loss)[(0, 0)];
        let mut grads = tape.backward(loss);

        let ids = leaves.ids();
        let mut grad_mats: Vec<Matrix> = ids
            .iter()
            .map(|&id| {
                grads.take(id).unwrap_or_else(|| {
                    // A parameter can be grad-free on degenerate
                    // graphs (e.g. no edges of its type).
                    let (r, c) = tape.value(id).shape();
                    Matrix::zeros(r, c)
                })
            })
            .collect();

        if let Some(g) = guard.as_mut() {
            if g.health.inject_nan_grad_at == Some(g.epoch) && g.attempt == 0 {
                if let Some(first) = grad_mats.first_mut() {
                    if first.rows() > 0 && first.cols() > 0 {
                        first[(0, 0)] = f64::NAN;
                    }
                }
            }
            let norm_sq: f64 = grad_mats
                .iter()
                .map(|m| {
                    let n = m.frobenius_norm();
                    n * n
                })
                .sum();
            if !norm_sq.is_finite() {
                return Err(AnomalyCause::NonFiniteGradient);
            }
            let mut clipped_to = None;
            if let Some(max) = g.health.max_grad_norm {
                let norm = norm_sq.sqrt();
                if norm > max {
                    let scale = max / norm;
                    for m in &mut grad_mats {
                        *m = m.scale(scale);
                    }
                    *g.clipped_steps += 1;
                    clipped_to = Some(max);
                }
            }
            if let Some(stats) = g.norms.as_deref_mut() {
                let norm = norm_sq.sqrt();
                stats.steps += 1;
                stats.sum += norm;
                stats.max = stats.max.max(norm);
                stats.post_max = stats.post_max.max(clipped_to.unwrap_or(norm));
            }
        }

        let mut params = model.matrices_mut();
        opt.step(&mut params, &grad_mats);

        total += loss_value;
        counted += 1;
    }
    Ok(if counted > 0 { total / counted as f64 } else { 0.0 })
}

/// Train `model` on `dataset` in place, returning the loss trajectory.
///
/// Graphs with no loss terms (single-vertex circuits) are skipped.
/// For the guarded, recovering variant see [`try_train`].
///
/// # Panics
///
/// Panics if `dataset` is empty or a feature matrix disagrees with its
/// graph or the model dimension.
pub fn train(model: &mut GnnModel, dataset: &[TrainGraph], config: &TrainConfig) -> TrainReport {
    assert!(!dataset.is_empty(), "training needs at least one graph");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut opt = Adam::new(config.learning_rate);

    // Pre-sample fixed batches when not resampling.
    let fixed_batches: Vec<ContextBatch> = dataset
        .iter()
        .map(|g| ContextBatch::sample(&g.tensors, &config.loss, &mut rng))
        .collect();

    let mut epoch_losses = Vec::with_capacity(config.epochs);
    let mut order: Vec<usize> = (0..dataset.len()).collect();

    for _epoch in 0..config.epochs {
        let loss = epoch_pass(
            model,
            dataset,
            config,
            &mut rng,
            &mut opt,
            &mut order,
            &fixed_batches,
            None,
        )
        .expect("unguarded epochs never abort");
        epoch_losses.push(loss);
    }
    TrainReport { epoch_losses }
}

/// Snapshot of the model's parameter matrices (the checkpoint payload).
fn snapshot(model: &GnnModel) -> Vec<Matrix> {
    model.matrices().into_iter().cloned().collect()
}

fn restore(model: &mut GnnModel, saved: &[Matrix]) {
    for (slot, m) in model.matrices_mut().into_iter().zip(saved) {
        *slot = m.clone();
    }
}

/// Complete guarded-loop state at an epoch boundary — everything needed
/// to resume training bit-identically after a crash: parameters, the
/// recovery snapshot, optimizer moments, mid-stream RNG state, the
/// shuffle permutation, and the retry lineage. Serialized/verified by
/// [`TrainerState::to_text`](TrainerState::to_text) with a CRC-sealed
/// envelope (see `serialize.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerState {
    /// Architecture of the model being trained (validated on resume).
    pub gnn: GnnConfig,
    /// Current model parameter matrices, in [`GnnModel::matrices`] order.
    pub params: Vec<Matrix>,
    /// Best-loss snapshot used by anomaly recovery.
    pub best_params: Vec<Matrix>,
    /// Best epoch loss so far (`+inf` before the first completed epoch).
    pub best_loss: f64,
    /// Completed epochs' losses; its length *is* the epoch counter.
    pub epoch_losses: Vec<f64>,
    /// Attempt number (0 = original run, bumped by anomaly recovery).
    pub attempt: usize,
    /// The current attempt's seed (`derive_seed` lineage from the base
    /// config seed — validated on resume so crash/resume reproduces the
    /// exact recovery path).
    pub seed: u64,
    /// Mid-attempt RNG state words ([`StdRng::state`]).
    pub rng: [u64; 4],
    /// The dataset shuffle permutation. Fisher–Yates mutates it in
    /// place across epochs, so it must survive the crash.
    pub order: Vec<usize>,
    /// Adam step counter ([`Adam::steps`]).
    pub adam_steps: u64,
    /// Adam `(first, second)` moment slots in parameter order.
    pub adam_moments: Vec<(Matrix, Matrix)>,
    /// Gradient-clip counter carried into the resumed [`HealthReport`].
    pub clipped_steps: usize,
    /// Recovery events so far, replayed into the resumed report.
    pub retries: Vec<HealthEvent>,
}

/// How a [`try_train_resumable`] run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainOutcome {
    /// All configured epochs ran.
    Completed,
    /// The cancel hook fired at an epoch boundary; a final checkpoint
    /// was flushed through the sink (when one is installed), so the run
    /// is resumable from exactly this point.
    Cancelled {
        /// Completed epochs at the moment of cancellation.
        after_epoch: usize,
    },
}

/// Checkpoint sink callback: receives the captured state; `Err` is the
/// write-failure reason and aborts training.
pub type CheckpointSink<'a> = &'a mut dyn FnMut(&TrainerState) -> Result<(), String>;

/// Durability hooks for [`try_train_resumable`]. The all-`None`
/// [`Default`] reduces the resumable loop to exactly [`try_train`].
#[derive(Default)]
pub struct ResumableHooks<'a> {
    /// Emit a checkpoint every N completed epochs (`None` disables
    /// periodic checkpoints; a cancellation flush still happens).
    pub checkpoint_every: Option<usize>,
    /// Checkpoint sink. A sink failure aborts training with
    /// [`TrainError::CheckpointWrite`] rather than silently running on
    /// without durability.
    pub on_checkpoint: Option<CheckpointSink<'a>>,
    /// Cooperative cancellation, polled at every epoch boundary.
    pub cancel: Option<&'a dyn Fn() -> bool>,
    /// Resume from this checkpointed state instead of starting fresh.
    pub resume_from: Option<TrainerState>,
    /// Read-only telemetry observer (see [`TrainerHooks`]). Attaching
    /// one never changes training results.
    pub observer: Option<&'a mut dyn TrainerHooks>,
}

#[allow(clippy::too_many_arguments)] // one slot per field of the state
fn capture_state(
    model: &GnnModel,
    best_params: &[Matrix],
    best_loss: f64,
    epoch_losses: &[f64],
    attempt: usize,
    seed: u64,
    rng: &StdRng,
    order: &[usize],
    opt: &Adam,
    report: &HealthReport,
) -> TrainerState {
    TrainerState {
        gnn: model.config().clone(),
        params: snapshot(model),
        best_params: best_params.to_vec(),
        best_loss,
        epoch_losses: epoch_losses.to_vec(),
        attempt,
        seed,
        rng: rng.state(),
        order: order.to_vec(),
        adam_steps: opt.steps(),
        adam_moments: opt.moments().to_vec(),
        clipped_steps: report.clipped_steps,
        retries: report.retries.to_vec(),
    }
}

/// Validate a resume checkpoint against the live model, dataset, and
/// configs before installing any of it.
fn validate_resume(
    state: &TrainerState,
    model: &GnnModel,
    dataset_len: usize,
    config: &TrainConfig,
) -> Result<(), TrainError> {
    let bad = |reason: String| TrainError::InvalidCheckpoint { reason };
    if state.gnn != *model.config() {
        return Err(bad(format!(
            "checkpoint model config {:?} does not match current {:?}",
            state.gnn,
            model.config()
        )));
    }
    let shapes: Vec<(usize, usize)> = model.matrices().iter().map(|m| m.shape()).collect();
    for (label, params) in [("params", &state.params), ("best-params", &state.best_params)] {
        if params.len() != shapes.len() {
            return Err(bad(format!(
                "checkpoint has {} {label} matrices, model has {}",
                params.len(),
                shapes.len()
            )));
        }
        for (i, (m, &shape)) in params.iter().zip(&shapes).enumerate() {
            if m.shape() != shape {
                return Err(bad(format!(
                    "{label}[{i}] is {:?}, model expects {shape:?}",
                    m.shape()
                )));
            }
            if !m.is_finite() {
                return Err(bad(format!("{label}[{i}] contains non-finite values")));
            }
        }
    }
    if !state.adam_moments.is_empty() && state.adam_moments.len() != shapes.len() {
        return Err(bad(format!(
            "checkpoint has {} Adam moment slots, model has {} parameters",
            state.adam_moments.len(),
            shapes.len()
        )));
    }
    for (i, ((m, v), &shape)) in state.adam_moments.iter().zip(&shapes).enumerate() {
        if m.shape() != shape || v.shape() != shape {
            return Err(bad(format!("Adam moment slot {i} disagrees with parameter shape")));
        }
        if !m.is_finite() || !v.is_finite() {
            return Err(bad(format!("Adam moment slot {i} contains non-finite values")));
        }
    }
    if state.epoch_losses.iter().any(|l| !l.is_finite()) {
        return Err(bad("checkpoint loss history contains non-finite values".into()));
    }
    if state.best_loss.is_nan() {
        return Err(bad("checkpoint best-loss is NaN".into()));
    }
    let mut seen = vec![false; dataset_len];
    if state.order.len() != dataset_len {
        return Err(bad(format!(
            "checkpoint shuffle order covers {} graphs, dataset has {dataset_len}",
            state.order.len()
        )));
    }
    for &i in &state.order {
        if i >= dataset_len || seen[i] {
            return Err(bad("checkpoint shuffle order is not a permutation".into()));
        }
        seen[i] = true;
    }
    let expected_seed = if state.attempt == 0 {
        config.seed
    } else {
        derive_seed(config.seed, state.attempt as u64)
    };
    if state.seed != expected_seed {
        return Err(bad(format!(
            "checkpoint attempt {} seed {} does not derive from config seed {}",
            state.attempt, state.seed, config.seed
        )));
    }
    Ok(())
}

/// Guarded training: [`train`] plus NaN/Inf scans, gradient-norm
/// clipping, divergence detection, and bounded checkpoint-restore
/// recovery under deterministically derived seeds.
///
/// On an anomaly the partially-updated parameters are discarded, the
/// best-loss checkpoint is restored, and training resumes at the failed
/// epoch with a fresh RNG seeded by `derive_seed(config.seed,
/// attempt)`. A clean run returns the exact [`train`] trajectory and an
/// empty [`HealthReport`].
///
/// # Errors
///
/// * [`TrainError::EmptyDataset`] / [`TrainError::FeatureShape`] /
///   [`TrainError::NonFiniteFeatures`] /
///   [`TrainError::NonFiniteParameters`] on an invalid input;
/// * [`TrainError::RetriesExhausted`] when anomalies persist past
///   `health.max_retries` recoveries.
pub fn try_train(
    model: &mut GnnModel,
    dataset: &[TrainGraph],
    config: &TrainConfig,
    health: &HealthConfig,
) -> Result<(TrainReport, HealthReport), TrainError> {
    let (report, health_report, outcome) =
        try_train_resumable(model, dataset, config, health, ResumableHooks::default())?;
    debug_assert_eq!(outcome, TrainOutcome::Completed, "no cancel hook was installed");
    Ok((report, health_report))
}

/// [`try_train`] plus durability: periodic [`TrainerState`] checkpoints,
/// cooperative cancellation at epoch boundaries (flushing a final
/// checkpoint so the run stays resumable), and resumption from a
/// checkpointed state that reproduces the uninterrupted run
/// bit-identically — including PR 1's divergence-recovery re-seeds,
/// whose lineage is validated and replayed from the checkpoint.
///
/// With default hooks this *is* [`try_train`]: same RNG call sequence,
/// same arithmetic, same results.
///
/// # Errors
///
/// Everything [`try_train`] returns, plus
/// [`TrainError::InvalidCheckpoint`] when `hooks.resume_from` disagrees
/// with the live model/dataset/config, and
/// [`TrainError::CheckpointWrite`] when the checkpoint sink fails.
pub fn try_train_resumable(
    model: &mut GnnModel,
    dataset: &[TrainGraph],
    config: &TrainConfig,
    health: &HealthConfig,
    mut hooks: ResumableHooks<'_>,
) -> Result<(TrainReport, HealthReport, TrainOutcome), TrainError> {
    if dataset.is_empty() {
        return Err(TrainError::EmptyDataset);
    }
    let dim = model.config().dim;
    for (graph, g) in dataset.iter().enumerate() {
        let expected = (g.tensors.vertex_count(), dim);
        let found = g.features.shape();
        if found != expected {
            return Err(TrainError::FeatureShape { graph, expected, found });
        }
        if !g.features.is_finite() {
            return Err(TrainError::NonFiniteFeatures { graph });
        }
    }
    if !model.is_finite() {
        return Err(TrainError::NonFiniteParameters);
    }

    let mut report = HealthReport::default();
    let mut epoch_losses: Vec<f64> = Vec::with_capacity(config.epochs);
    let mut best_loss = f64::INFINITY;
    let mut best_params = snapshot(model);
    let mut attempt = 0usize;
    let mut seed = config.seed;

    let mut resume = hooks.resume_from.take();
    if let Some(state) = &resume {
        validate_resume(state, model, dataset.len(), config)?;
        restore(model, &state.params);
        best_params = state.best_params.clone();
        best_loss = state.best_loss;
        epoch_losses = state.epoch_losses.clone();
        attempt = state.attempt;
        seed = state.seed;
        report.clipped_steps = state.clipped_steps;
        report.retries = state.retries.clone();
    }

    'attempts: loop {
        // Every attempt replays its setup from the attempt seed: the
        // fixed batches are a deterministic function of the seed, so on
        // resume we re-derive them and only then install the saved
        // mid-stream RNG state, shuffle order, and optimizer moments.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut opt = Adam::new(config.learning_rate);
        let fixed_batches: Vec<ContextBatch> = dataset
            .iter()
            .map(|g| ContextBatch::sample(&g.tensors, &config.loss, &mut rng))
            .collect();
        let mut order: Vec<usize> = (0..dataset.len()).collect();
        if let Some(state) = resume.take() {
            rng = StdRng::from_state(state.rng);
            order = state.order;
            opt = Adam::restore(config.learning_rate, state.adam_steps, state.adam_moments);
        }

        while epoch_losses.len() < config.epochs {
            let epoch = epoch_losses.len();
            if hooks.cancel.is_some_and(|cancel| cancel()) {
                if let Some(sink) = hooks.on_checkpoint.as_mut() {
                    let state = capture_state(
                        model,
                        &best_params,
                        best_loss,
                        &epoch_losses,
                        attempt,
                        seed,
                        &rng,
                        &order,
                        &opt,
                        &report,
                    );
                    let started = Instant::now();
                    sink(&state).map_err(|reason| TrainError::CheckpointWrite {
                        epoch,
                        reason,
                    })?;
                    if let Some(obs) = hooks.observer.as_deref_mut() {
                        obs.on_checkpoint(epoch, started.elapsed());
                    }
                }
                if let Some(obs) = hooks.observer.as_deref_mut() {
                    obs.on_cancelled(epoch);
                }
                return Ok((
                    TrainReport { epoch_losses },
                    report,
                    TrainOutcome::Cancelled { after_epoch: epoch },
                ));
            }
            let mut norms = hooks.observer.as_ref().map(|_| NormStats::default());
            let clipped_before = report.clipped_steps;
            let guard = EpochGuard {
                health,
                epoch,
                attempt,
                clipped_steps: &mut report.clipped_steps,
                norms: norms.as_mut(),
            };
            let outcome = epoch_pass(
                model,
                dataset,
                config,
                &mut rng,
                &mut opt,
                &mut order,
                &fixed_batches,
                Some(guard),
            );
            let anomaly = match outcome {
                Err(cause) => Some(cause),
                Ok(loss) if !loss.is_finite() => Some(AnomalyCause::NonFiniteLoss(loss)),
                Ok(loss)
                    if epoch >= health.grace_epochs
                        && best_loss.is_finite()
                        && loss > health.divergence_factor * best_loss.abs().max(1e-12) =>
                {
                    Some(AnomalyCause::Diverged { loss, best: best_loss })
                }
                Ok(loss) => {
                    epoch_losses.push(loss);
                    if loss < best_loss {
                        best_loss = loss;
                        best_params = snapshot(model);
                    }
                    if let Some(obs) = hooks.observer.as_deref_mut() {
                        let stats = norms.unwrap_or_default();
                        obs.on_epoch(&EpochTelemetry {
                            epoch,
                            attempt,
                            loss,
                            steps: stats.steps,
                            grad_norm_max: stats.max,
                            grad_norm_mean: if stats.steps > 0 {
                                stats.sum / stats.steps as f64
                            } else {
                                0.0
                            },
                            grad_norm_post_clip_max: stats.post_max,
                            clipped_steps: report.clipped_steps - clipped_before,
                        });
                    }
                    None
                }
            };
            if let Some(cause) = anomaly {
                if attempt >= health.max_retries {
                    return Err(TrainError::RetriesExhausted {
                        epoch,
                        retries: attempt,
                        cause,
                    });
                }
                attempt += 1;
                seed = derive_seed(config.seed, attempt as u64);
                restore(model, &best_params);
                report.retries.push(HealthEvent {
                    epoch,
                    attempt: attempt - 1,
                    cause,
                    reseeded_to: seed,
                });
                if let Some(obs) = hooks.observer.as_deref_mut() {
                    obs.on_retry(report.retries.last().expect("just pushed"));
                }
                continue 'attempts;
            }
            let completed = epoch_losses.len();
            if hooks.checkpoint_every.is_some_and(|every| completed.is_multiple_of(every)) {
                if let Some(sink) = hooks.on_checkpoint.as_mut() {
                    let state = capture_state(
                        model,
                        &best_params,
                        best_loss,
                        &epoch_losses,
                        attempt,
                        seed,
                        &rng,
                        &order,
                        &opt,
                        &report,
                    );
                    let started = Instant::now();
                    sink(&state).map_err(|reason| TrainError::CheckpointWrite {
                        epoch: completed,
                        reason,
                    })?;
                    if let Some(obs) = hooks.observer.as_deref_mut() {
                        obs.on_checkpoint(completed, started.elapsed());
                    }
                }
            }
        }
        break;
    }
    Ok((TrainReport { epoch_losses }, report, TrainOutcome::Completed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GnnConfig;
    use ancstr_graph::{HetMultigraph, VertexId};
    use ancstr_netlist::PortType;

    /// Two mirrored "differential" clusters joined by a tail vertex.
    fn sample_graph() -> TrainGraph {
        let mut g = HetMultigraph::with_vertices(0..5);
        // 0 and 1 form one pair, 2 and 3 the other, 4 is the tail.
        for &(a, b, p) in &[
            (0usize, 1usize, PortType::Drain),
            (2, 3, PortType::Drain),
            (0, 4, PortType::Source),
            (1, 4, PortType::Source),
            (2, 4, PortType::Gate),
            (3, 4, PortType::Gate),
        ] {
            g.add_edge(VertexId(a), VertexId(b), p);
            g.add_edge(VertexId(b), VertexId(a), p);
        }
        let tensors = GraphTensors::from_multigraph(&g);
        let features = Matrix::from_fn(5, 6, |r, c| {
            // Symmetric features for the mirrored vertices.
            let class = match r {
                0 | 1 => 0,
                2 | 3 => 1,
                _ => 2,
            };
            if c == class {
                1.0
            } else {
                0.05
            }
        });
        TrainGraph { tensors, features }
    }

    #[test]
    fn loss_decreases_with_fixed_batches() {
        let mut model = GnnModel::new(GnnConfig { dim: 6, layers: 2, seed: 21, ..GnnConfig::default() });
        let dataset = vec![sample_graph()];
        let cfg = TrainConfig {
            epochs: 40,
            learning_rate: 0.02,
            resample_negatives: false,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &dataset, &cfg);
        assert_eq!(report.epoch_losses.len(), 40);
        let first = report.epoch_losses[0];
        let last = report.final_loss();
        assert!(
            last < first * 0.9,
            "loss should drop ≥10%: first {first}, last {last}"
        );
        assert!(last.is_finite());
    }

    #[test]
    fn training_is_seed_deterministic() {
        let dataset = vec![sample_graph()];
        let cfg = TrainConfig { epochs: 5, ..TrainConfig::default() };
        let mut m1 = GnnModel::new(GnnConfig { dim: 6, layers: 2, seed: 8, ..GnnConfig::default() });
        let r1 = train(&mut m1, &dataset, &cfg);
        let mut m2 = GnnModel::new(GnnConfig { dim: 6, layers: 2, seed: 8, ..GnnConfig::default() });
        let r2 = train(&mut m2, &dataset, &cfg);
        assert_eq!(r1, r2);
        assert_eq!(m1, m2);
    }

    #[test]
    fn training_is_bit_identical_at_every_thread_count() {
        // The kernels under the tape (matmul/spmm/activations) fan out
        // across worker threads; the epoch loop itself is sequential
        // (SGD order is semantic). Ordered chunking must keep the whole
        // trajectory — losses and final weights — bit-identical.
        let dataset = vec![sample_graph(), sample_graph()];
        let cfg = TrainConfig { epochs: 4, ..TrainConfig::default() };
        let train_at = |t: usize| {
            ancstr_par::set_threads(t);
            let mut m =
                GnnModel::new(GnnConfig { dim: 6, layers: 2, seed: 8, ..GnnConfig::default() });
            let r = train(&mut m, &dataset, &cfg);
            (m, r)
        };
        let (m1, r1) = train_at(1);
        for t in [2usize, 8] {
            let (mt, rt) = train_at(t);
            assert_eq!(mt, m1, "weights diverged at {t} threads");
            assert_eq!(rt, r1, "loss trajectory diverged at {t} threads");
        }
        ancstr_par::set_threads(0);
    }

    #[test]
    fn trained_embeddings_align_symmetric_pairs() {
        let mut model = GnnModel::new(GnnConfig { dim: 6, layers: 2, seed: 33, ..GnnConfig::default() });
        let graph = sample_graph();
        let cfg = TrainConfig {
            epochs: 80,
            learning_rate: 0.02,
            ..TrainConfig::default()
        };
        train(&mut model, std::slice::from_ref(&graph), &cfg);
        let z = model.embed(&graph.tensors, &graph.features);
        let cos = |a: usize, b: usize| {
            ancstr_nn::cosine_similarity(z.row(a), z.row(b))
        };
        // Mirrored vertices are graph-automorphic with identical
        // features, so they stay exactly aligned...
        assert!(cos(0, 1) > 0.999, "pair (0,1): {}", cos(0, 1));
        assert!(cos(2, 3) > 0.999, "pair (2,3): {}", cos(2, 3));
        // ...while differently-typed clusters separate.
        assert!(cos(0, 2) < cos(0, 1), "cross-pair should be less similar");
    }

    #[test]
    #[should_panic(expected = "at least one graph")]
    fn empty_dataset_panics() {
        let mut model = GnnModel::new(GnnConfig::default());
        let _ = train(&mut model, &[], &TrainConfig::default());
    }

    #[test]
    fn multi_graph_training_runs() {
        let mut model = GnnModel::new(GnnConfig { dim: 6, layers: 2, seed: 1, ..GnnConfig::default() });
        let dataset = vec![sample_graph(), sample_graph()];
        let cfg = TrainConfig { epochs: 3, ..TrainConfig::default() };
        let report = train(&mut model, &dataset, &cfg);
        assert_eq!(report.epoch_losses.len(), 3);
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn guarded_clean_run_matches_unguarded_exactly() {
        let dataset = vec![sample_graph(), sample_graph()];
        let cfg = TrainConfig { epochs: 8, ..TrainConfig::default() };
        let gc = GnnConfig { dim: 6, layers: 2, seed: 8, ..GnnConfig::default() };
        let mut plain = GnnModel::new(gc.clone());
        let plain_report = train(&mut plain, &dataset, &cfg);
        let mut guarded = GnnModel::new(gc);
        let (report, health) =
            try_train(&mut guarded, &dataset, &cfg, &HealthConfig::default()).unwrap();
        // The guardrails are read-only on a healthy run: identical loss
        // trajectory, identical final weights, nothing fired.
        assert_eq!(report, plain_report);
        assert_eq!(guarded, plain);
        assert!(health.clean(), "{health:?}");
    }

    /// Collects every observer callback for assertions.
    #[derive(Default)]
    struct RecordingHooks {
        epochs: Vec<EpochTelemetry>,
        retries: Vec<HealthEvent>,
        checkpoints: Vec<usize>,
        cancelled_after: Option<usize>,
    }

    impl TrainerHooks for RecordingHooks {
        fn on_epoch(&mut self, t: &EpochTelemetry) {
            self.epochs.push(t.clone());
        }
        fn on_retry(&mut self, e: &HealthEvent) {
            self.retries.push(e.clone());
        }
        fn on_checkpoint(&mut self, completed: usize, _write_time: std::time::Duration) {
            self.checkpoints.push(completed);
        }
        fn on_cancelled(&mut self, after_epoch: usize) {
            self.cancelled_after = Some(after_epoch);
        }
    }

    #[test]
    fn attached_observer_never_changes_training_results() {
        let dataset = vec![sample_graph(), sample_graph()];
        let cfg = TrainConfig { epochs: 8, ..TrainConfig::default() };
        let gc = GnnConfig { dim: 6, layers: 2, seed: 8, ..GnnConfig::default() };

        let mut bare = GnnModel::new(gc.clone());
        let bare_out = try_train(&mut bare, &dataset, &cfg, &HealthConfig::default()).unwrap();

        let mut observed = GnnModel::new(gc);
        let mut hooks = RecordingHooks::default();
        let (report, health, outcome) = try_train_resumable(
            &mut observed,
            &dataset,
            &cfg,
            &HealthConfig::default(),
            ResumableHooks { observer: Some(&mut hooks), ..ResumableHooks::default() },
        )
        .unwrap();

        assert_eq!((report.clone(), health), bare_out, "observer is read-only");
        assert_eq!(observed, bare, "final weights are bit-identical");
        assert_eq!(outcome, TrainOutcome::Completed);

        // One telemetry record per epoch, in order, mirroring the losses.
        assert_eq!(hooks.epochs.len(), cfg.epochs);
        for (i, t) in hooks.epochs.iter().enumerate() {
            assert_eq!(t.epoch, i);
            assert_eq!(t.attempt, 0);
            assert_eq!(t.loss, report.epoch_losses[i]);
            assert!(t.steps > 0);
            assert!(t.grad_norm_max >= t.grad_norm_mean);
            assert!(t.grad_norm_max >= t.grad_norm_post_clip_max);
            assert!(t.grad_norm_mean >= 0.0);
        }
        assert!(hooks.retries.is_empty());
        assert!(hooks.cancelled_after.is_none());
    }

    #[test]
    fn observer_sees_retry_and_checkpoint_events() {
        let dataset = vec![sample_graph()];
        let cfg = TrainConfig { epochs: 6, ..TrainConfig::default() };
        let health = HealthConfig { inject_nan_grad_at: Some(2), ..HealthConfig::default() };
        let mut model =
            GnnModel::new(GnnConfig { dim: 6, layers: 2, seed: 5, ..GnnConfig::default() });
        let mut hooks = RecordingHooks::default();
        let mut stored = Vec::new();
        let mut sink = |state: &TrainerState| {
            stored.push(state.epoch_losses.len());
            Ok(())
        };
        let (report, hr, _) = try_train_resumable(
            &mut model,
            &dataset,
            &cfg,
            &health,
            ResumableHooks {
                checkpoint_every: Some(2),
                on_checkpoint: Some(&mut sink),
                observer: Some(&mut hooks),
                ..ResumableHooks::default()
            },
        )
        .unwrap();
        assert_eq!(report.epoch_losses.len(), 6);
        assert_eq!(hooks.retries, hr.retries, "observer saw the recovery");
        assert_eq!(hooks.checkpoints, stored, "one callback per sink write");
        assert_eq!(hooks.checkpoints, vec![2, 4, 6]);
        // Epoch 2 ran twice (NaN then recovery); only the successful
        // pass produces telemetry.
        assert_eq!(hooks.epochs.len(), 6);
        assert_eq!(hooks.epochs[2].attempt, 1);
    }

    #[test]
    fn injected_nan_gradient_recovers_via_checkpoint_restore() {
        let dataset = vec![sample_graph()];
        let cfg = TrainConfig { epochs: 10, ..TrainConfig::default() };
        let mut model = GnnModel::new(GnnConfig { dim: 6, layers: 2, seed: 8, ..GnnConfig::default() });
        let health = HealthConfig { inject_nan_grad_at: Some(4), ..HealthConfig::default() };
        let (report, hr) = try_train(&mut model, &dataset, &cfg, &health)
            .expect("transient fault must be recovered");
        assert_eq!(report.epoch_losses.len(), 10);
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
        assert!(model.is_finite(), "restored weights stay finite");
        assert_eq!(hr.retries.len(), 1, "{hr:?}");
        let event = &hr.retries[0];
        assert_eq!(event.epoch, 4);
        assert_eq!(event.cause, AnomalyCause::NonFiniteGradient);
        assert_ne!(event.reseeded_to, cfg.seed, "retry derives a fresh seed");
    }

    #[test]
    fn recovery_is_deterministic() {
        let dataset = vec![sample_graph()];
        let cfg = TrainConfig { epochs: 6, ..TrainConfig::default() };
        let health = HealthConfig { inject_nan_grad_at: Some(2), ..HealthConfig::default() };
        let run = || {
            let mut m = GnnModel::new(GnnConfig { dim: 6, layers: 2, seed: 5, ..GnnConfig::default() });
            let out = try_train(&mut m, &dataset, &cfg, &health).unwrap();
            (m, out)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn unrecoverable_divergence_exhausts_retry_budget() {
        let dataset = vec![sample_graph()];
        // An absurd learning rate reliably blows the loss up on every
        // attempt (the saturating GRU caps it around ~3.3 rather than
        // NaN, so a tight divergence factor is what detects it), and
        // recovery cannot succeed because the cause is the config.
        let cfg = TrainConfig { epochs: 30, learning_rate: 1e12, ..TrainConfig::default() };
        let mut model = GnnModel::new(GnnConfig { dim: 6, layers: 2, seed: 8, ..GnnConfig::default() });
        let health = HealthConfig {
            max_retries: 2,
            max_grad_norm: None,
            divergence_factor: 2.0,
            grace_epochs: 0,
            ..HealthConfig::default()
        };
        let err = try_train(&mut model, &dataset, &cfg, &health).unwrap_err();
        match err {
            TrainError::RetriesExhausted { retries, .. } => assert_eq!(retries, 2),
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn try_train_validates_inputs() {
        let mut model = GnnModel::new(GnnConfig { dim: 6, layers: 2, seed: 1, ..GnnConfig::default() });
        let health = HealthConfig::default();
        assert_eq!(
            try_train(&mut model, &[], &TrainConfig::default(), &health).unwrap_err(),
            TrainError::EmptyDataset
        );

        let mut bad_shape = sample_graph();
        bad_shape.features = Matrix::zeros(5, 4);
        let err = try_train(&mut model, &[bad_shape], &TrainConfig::default(), &health)
            .unwrap_err();
        assert!(matches!(err, TrainError::FeatureShape { graph: 0, .. }), "{err:?}");

        let mut bad_value = sample_graph();
        bad_value.features[(0, 0)] = f64::NAN;
        let err = try_train(&mut model, &[bad_value], &TrainConfig::default(), &health)
            .unwrap_err();
        assert_eq!(err, TrainError::NonFiniteFeatures { graph: 0 });

        model.matrices_mut()[0][(0, 0)] = f64::INFINITY;
        let err = try_train(&mut model, &[sample_graph()], &TrainConfig::default(), &health)
            .unwrap_err();
        assert_eq!(err, TrainError::NonFiniteParameters);
    }

    #[test]
    fn resumable_with_no_hooks_matches_try_train() {
        let cfg = TrainConfig { epochs: 10, seed: 5, ..TrainConfig::default() };
        let dataset = vec![sample_graph()];
        let gnn = GnnConfig { dim: 6, layers: 2, seed: 3, ..GnnConfig::default() };
        let mut a = GnnModel::new(gnn.clone());
        let mut b = GnnModel::new(gnn);
        let (ra, ha) = try_train(&mut a, &dataset, &cfg, &HealthConfig::default()).unwrap();
        let (rb, hb, outcome) = try_train_resumable(
            &mut b,
            &dataset,
            &cfg,
            &HealthConfig::default(),
            ResumableHooks::default(),
        )
        .unwrap();
        assert_eq!(outcome, TrainOutcome::Completed);
        assert_eq!(ra, rb);
        assert_eq!(ha, hb);
        assert_eq!(a, b);
    }

    #[test]
    fn resume_from_any_checkpoint_is_bit_identical() {
        let cfg = TrainConfig { epochs: 8, seed: 11, ..TrainConfig::default() };
        let dataset = vec![sample_graph()];
        let gnn = GnnConfig { dim: 6, layers: 2, seed: 9, ..GnnConfig::default() };

        // Reference: one uninterrupted run, collecting every-epoch
        // checkpoints along the way.
        let mut reference = GnnModel::new(gnn.clone());
        let states = std::cell::RefCell::new(Vec::new());
        let mut sink = |s: &TrainerState| {
            states.borrow_mut().push(s.clone());
            Ok(())
        };
        let (ref_report, _, outcome) = try_train_resumable(
            &mut reference,
            &dataset,
            &cfg,
            &HealthConfig::default(),
            ResumableHooks {
                checkpoint_every: Some(1),
                on_checkpoint: Some(&mut sink),
                ..ResumableHooks::default()
            },
        )
        .unwrap();
        assert_eq!(outcome, TrainOutcome::Completed);
        let states = states.into_inner();
        assert_eq!(states.len(), cfg.epochs);

        // Restarting a fresh model from every checkpoint must land on
        // the same weights and loss trajectory, bit for bit.
        for state in states {
            let resumed_at = state.epoch_losses.len();
            let mut resumed = GnnModel::new(gnn.clone());
            let (report, _, outcome) = try_train_resumable(
                &mut resumed,
                &dataset,
                &cfg,
                &HealthConfig::default(),
                ResumableHooks { resume_from: Some(state), ..ResumableHooks::default() },
            )
            .unwrap();
            assert_eq!(outcome, TrainOutcome::Completed);
            assert_eq!(report, ref_report, "trajectory diverged resuming at {resumed_at}");
            assert_eq!(resumed, reference, "weights diverged resuming at {resumed_at}");
        }
    }

    #[test]
    fn checkpoint_survives_serialization_round_trip() {
        let cfg = TrainConfig { epochs: 6, seed: 2, ..TrainConfig::default() };
        let dataset = vec![sample_graph()];
        let gnn = GnnConfig { dim: 6, layers: 2, seed: 1, ..GnnConfig::default() };
        let mut reference = GnnModel::new(gnn.clone());
        let captured = std::cell::RefCell::new(None);
        let mut sink = |s: &TrainerState| {
            *captured.borrow_mut() = Some(s.to_text());
            Ok(())
        };
        let (ref_report, _, _) = try_train_resumable(
            &mut reference,
            &dataset,
            &cfg,
            &HealthConfig::default(),
            ResumableHooks {
                checkpoint_every: Some(3),
                on_checkpoint: Some(&mut sink),
                ..ResumableHooks::default()
            },
        )
        .unwrap();
        // Resume through the *textual* checkpoint format.
        let text = captured.into_inner().unwrap();
        let state = TrainerState::from_text(&text).unwrap();
        let mut resumed = GnnModel::new(gnn);
        let (report, _, _) = try_train_resumable(
            &mut resumed,
            &dataset,
            &cfg,
            &HealthConfig::default(),
            ResumableHooks { resume_from: Some(state), ..ResumableHooks::default() },
        )
        .unwrap();
        assert_eq!(report, ref_report);
        assert_eq!(resumed, reference);
    }

    #[test]
    fn cancellation_flushes_a_final_checkpoint_and_reports_the_epoch() {
        let cfg = TrainConfig { epochs: 10, seed: 4, ..TrainConfig::default() };
        let dataset = vec![sample_graph()];
        let mut model =
            GnnModel::new(GnnConfig { dim: 6, layers: 2, seed: 8, ..GnnConfig::default() });
        let flag = std::sync::atomic::AtomicBool::new(false);
        let states = std::cell::RefCell::new(Vec::new());
        let mut sink = |s: &TrainerState| {
            states.borrow_mut().push(s.clone());
            // Simulate a deadline firing after the second checkpoint.
            if s.epoch_losses.len() >= 4 {
                flag.store(true, std::sync::atomic::Ordering::SeqCst);
            }
            Ok(())
        };
        let cancel = || flag.load(std::sync::atomic::Ordering::SeqCst);
        let (report, _, outcome) = try_train_resumable(
            &mut model,
            &dataset,
            &cfg,
            &HealthConfig::default(),
            ResumableHooks {
                checkpoint_every: Some(2),
                on_checkpoint: Some(&mut sink),
                cancel: Some(&cancel),
                ..ResumableHooks::default()
            },
        )
        .unwrap();
        assert_eq!(outcome, TrainOutcome::Cancelled { after_epoch: 4 });
        assert_eq!(report.epoch_losses.len(), 4);
        // The final (cancellation) checkpoint carries the full state at
        // the boundary.
        let last = states.into_inner().pop().unwrap();
        assert_eq!(last.epoch_losses.len(), 4);
        assert_eq!(last.epoch_losses, report.epoch_losses);
    }

    #[test]
    fn invalid_resume_checkpoints_are_rejected_with_typed_errors() {
        let cfg = TrainConfig { epochs: 6, seed: 2, ..TrainConfig::default() };
        let dataset = vec![sample_graph()];
        let gnn = GnnConfig { dim: 6, layers: 2, seed: 1, ..GnnConfig::default() };

        // Capture a genuine checkpoint to corrupt.
        let mut model = GnnModel::new(gnn.clone());
        let captured = std::cell::RefCell::new(None);
        let mut sink = |s: &TrainerState| {
            *captured.borrow_mut() = Some(s.clone());
            Ok(())
        };
        try_train_resumable(
            &mut model,
            &dataset,
            &cfg,
            &HealthConfig::default(),
            ResumableHooks {
                checkpoint_every: Some(2),
                on_checkpoint: Some(&mut sink),
                ..ResumableHooks::default()
            },
        )
        .unwrap();
        let good = captured.into_inner().unwrap();

        let run = |state: TrainerState| {
            let mut m = GnnModel::new(gnn.clone());
            try_train_resumable(
                &mut m,
                &dataset,
                &cfg,
                &HealthConfig::default(),
                ResumableHooks { resume_from: Some(state), ..ResumableHooks::default() },
            )
            .map(|_| ())
        };
        // Config mismatch.
        let mut bad = good.clone();
        bad.gnn.seed += 1;
        assert!(matches!(run(bad), Err(TrainError::InvalidCheckpoint { .. })));
        // Non-permutation shuffle order.
        let mut bad = good.clone();
        bad.order = vec![0, 0];
        assert!(matches!(run(bad), Err(TrainError::InvalidCheckpoint { .. })));
        // Seed outside the derivation lineage.
        let mut bad = good.clone();
        bad.seed ^= 0x55;
        assert!(matches!(run(bad), Err(TrainError::InvalidCheckpoint { .. })));
        // Non-finite parameters.
        let mut bad = good.clone();
        bad.params[0][(0, 0)] = f64::NAN;
        assert!(matches!(run(bad), Err(TrainError::InvalidCheckpoint { .. })));
        // The untampered state still resumes fine.
        assert!(run(good).is_ok());
    }

    #[test]
    fn checkpoint_sink_failure_is_a_typed_error() {
        let cfg = TrainConfig { epochs: 6, seed: 2, ..TrainConfig::default() };
        let dataset = vec![sample_graph()];
        let mut model =
            GnnModel::new(GnnConfig { dim: 6, layers: 2, seed: 1, ..GnnConfig::default() });
        let mut sink = |_: &TrainerState| Err("disk full".to_owned());
        let err = try_train_resumable(
            &mut model,
            &dataset,
            &cfg,
            &HealthConfig::default(),
            ResumableHooks {
                checkpoint_every: Some(2),
                on_checkpoint: Some(&mut sink),
                ..ResumableHooks::default()
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            TrainError::CheckpointWrite { epoch: 2, reason: "disk full".to_owned() }
        );
    }

    #[test]
    fn derived_seeds_are_distinct() {
        let seeds: Vec<u64> = (0..8).map(|a| derive_seed(0x5EED, a)).collect();
        for i in 0..seeds.len() {
            for j in i + 1..seeds.len() {
                assert_ne!(seeds[i], seeds[j]);
            }
            assert_ne!(seeds[i], 0x5EED);
        }
    }
}
