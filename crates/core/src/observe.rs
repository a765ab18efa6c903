//! Observability bridge between the pipeline and [`ancstr_obs`]:
//! stage spans, per-stage metrics, and the [`TrainerHooks`] adapter
//! that turns training telemetry into trace events.
//!
//! [`PipelineObs`] is a cheap-clone handle bundling an optional
//! [`Tracer`] with an always-available metrics [`Registry`]. Every
//! pipeline stage runs the same code whatever the handle; with
//! [`PipelineObs::disabled`] each instrumentation point is a cheap
//! no-op, and observation is strictly read-only either way (proven by
//! integration tests that byte-compare outputs with and without
//! tracing).
//!
//! Span names map onto the paper's algorithms; see DESIGN.md:
//! `parse` → `elaborate` → `graph_build` (Alg. 1) → `feature_init`
//! (Table II) → `train` (Eq. 1–2) → `embed` (GNN inference) → `detect`
//! (Alg. 2–3; the PageRank circuit embedding runs inside detection).

use std::path::Path;
use std::time::Instant;

use ancstr_gnn::{EpochTelemetry, HealthEvent, TrainerHooks};
use ancstr_netlist::FlatCircuit;
use ancstr_obs::{Registry, Span, Tracer, Value, DURATION_BUCKETS_S, GRAD_NORM_BUCKETS};

use crate::detect::{DetectionResult, NumericWarning};
use crate::metrics::level_confusions;

/// The seven pipeline stage names, in execution order. Shared by the
/// instrumentation, the docs, and the trace-coverage tests.
pub const STAGES: [&str; 7] = [
    "parse",
    "elaborate",
    "graph_build",
    "feature_init",
    "train",
    "embed",
    "detect",
];

/// Shared observability handle: an optional tracer plus a metrics
/// registry. Cloning is cheap; clones share state.
#[derive(Clone)]
pub struct PipelineObs {
    tracer: Option<Tracer>,
    metrics: Registry,
    enabled: bool,
}

impl PipelineObs {
    /// An enabled handle. `tracer: None` still collects metrics.
    pub fn new(tracer: Option<Tracer>) -> PipelineObs {
        let metrics = Registry::new();
        metrics.help("ancstr_stage_duration_seconds", "Wall-clock time per pipeline stage.");
        metrics.help("ancstr_stage_runs_total", "Completed executions per pipeline stage.");
        metrics.help("ancstr_train_epochs_total", "Successfully completed training epochs.");
        metrics.help("ancstr_train_loss", "Mean context loss of the latest epoch.");
        metrics.help("ancstr_train_grad_norm", "Pre-clip global gradient norm per epoch (max over steps).");
        metrics.help("ancstr_train_clipped_steps_total", "Optimizer steps whose gradient was norm-clipped.");
        metrics.help("ancstr_train_retries_total", "Health-monitor recoveries (checkpoint restore + re-seed).");
        metrics.help("ancstr_checkpoint_write_seconds", "Checkpoint sink write latency.");
        metrics.help("ancstr_checkpoints_written_total", "Trainer checkpoints flushed through the sink.");
        metrics.help("ancstr_runstore_recovery_notes_total", "Run-store fallback decisions (corrupt checkpoint skipped, artifact reload, retrain).");
        metrics.help("ancstr_detect_warnings_total", "Devices quarantined by detection for non-finite features.");
        metrics.help("ancstr_detect_skipped_pairs_total", "Candidate pairs skipped because a member was quarantined.");
        metrics.help("ancstr_detect_constraints", "Accepted symmetry constraints in the latest detection.");
        metrics.help("ancstr_detect_scored_pairs", "Candidate pairs scored in the latest detection.");
        metrics.help("ancstr_quality", "Table V/VI detection quality against ground truth.");
        metrics.help("ancstr_run_aborted_total", "Runs that ended on watchdog cancellation or a run-store failure.");
        PipelineObs { metrics, tracer, enabled: true }
    }

    /// A disabled handle: no tracer, and a registry nobody reads.
    /// Every instrumentation call stays a cheap no-op.
    pub fn disabled() -> PipelineObs {
        PipelineObs { tracer: None, metrics: Registry::new(), enabled: false }
    }

    /// Whether a tracer is attached.
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// The raw tracer, when one is attached. The serving layer uses it
    /// to open request-lifecycle spans (queue wait, forward hops) that
    /// do not map onto pipeline stages.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Whether anyone reads this handle's metrics. The pipeline runs
    /// the same code either way; callers use this only to skip export
    /// work nobody asked for (metrics files, kernel profiling).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The metrics registry (render with
    /// [`Registry::render`] for `metrics.prom`).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Open a stage span named after the stage itself; the guard also
    /// feeds the stage-duration histogram on drop.
    pub fn stage(&self, stage: &'static str) -> StageGuard {
        self.stage_with(stage, &[])
    }

    /// [`PipelineObs::stage`] with extra fields on the `span_start`.
    pub fn stage_with(&self, stage: &'static str, fields: &[(&str, Value)]) -> StageGuard {
        StageGuard {
            span: self.tracer.as_ref().map(|t| t.span(stage, stage, fields)),
            metrics: self.metrics.clone(),
            stage,
            start: Instant::now(),
        }
    }

    /// Emit a point-in-time trace event (no-op without a tracer).
    pub fn event(&self, stage: &str, name: &str, fields: &[(&str, Value)]) {
        if let Some(t) = &self.tracer {
            t.event(stage, name, fields);
        }
    }

    /// Flush the tracer's buffered output.
    pub fn flush(&self) {
        if let Some(t) = &self.tracer {
            t.flush();
        }
    }

    /// Write the current metrics as Prometheus text exposition to
    /// `path` (atomically, via temp + rename).
    ///
    /// # Errors
    ///
    /// Any I/O failure of the underlying atomic write.
    pub fn write_prom(&self, path: &Path) -> Result<(), crate::runstore::RunError> {
        crate::runstore::write_atomic(path, &self.metrics.render())
    }

    /// Record a run-store fallback decision (corrupt checkpoint
    /// skipped, artifact reload, re-train) as a structured trace event
    /// plus a counter, alongside the human-readable note the run store
    /// already surfaces.
    pub fn runstore_note(&self, note: &str) {
        self.event("train", "runstore_note", &[("note", note.into())]);
        self.metrics.counter_add("ancstr_runstore_recovery_notes_total", &[], 1);
    }

    /// Record a finished detection: constraint/pair gauges, plus the
    /// counted [`NumericWarning`] records as structured `numeric_warning`
    /// events in stable (path-sorted) order.
    pub fn record_detection(&self, detection: &DetectionResult) {
        let m = &self.metrics;
        m.gauge_set("ancstr_detect_constraints", &[], detection.constraints.len() as f64);
        m.gauge_set("ancstr_detect_scored_pairs", &[], detection.scored.len() as f64);
        let mut warnings: Vec<&NumericWarning> = detection.warnings.iter().collect();
        warnings.sort_by(|a, b| a.path.cmp(&b.path).then(a.node.cmp(&b.node)));
        for w in warnings {
            self.event(
                "detect",
                "numeric_warning",
                &[
                    ("path", w.path.as_str().into()),
                    ("skipped_pairs", w.skipped_pairs.into()),
                ],
            );
            m.counter_add("ancstr_detect_warnings_total", &[], 1);
            m.counter_add("ancstr_detect_skipped_pairs_total", &[], w.skipped_pairs as u64);
        }
    }

    /// Record the Table V/VI quality gauges for a finished detection —
    /// same [`level_confusions`] source as the CLI's `--metrics` table.
    pub fn record_quality(
        &self,
        flat: &FlatCircuit,
        constraints: &ancstr_netlist::constraint::ConstraintSet,
    ) {
        for (level, c) in level_confusions(flat, constraints) {
            for (stat, value) in [
                ("tpr", c.tpr()),
                ("fpr", c.fpr()),
                ("ppv", c.ppv()),
                ("acc", c.acc()),
                ("f1", c.f1()),
            ] {
                self.metrics
                    .gauge_set("ancstr_quality", &[("level", level), ("stat", stat)], value);
            }
        }
    }
}

impl Default for PipelineObs {
    /// [`PipelineObs::disabled`].
    fn default() -> PipelineObs {
        PipelineObs::disabled()
    }
}

/// RAII guard for one pipeline stage: closes the trace span and
/// records the stage-duration histogram + run counter on drop.
pub struct StageGuard {
    span: Option<Span>,
    metrics: Registry,
    stage: &'static str,
    start: Instant,
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_secs_f64();
        self.metrics.observe(
            "ancstr_stage_duration_seconds",
            &[("stage", self.stage)],
            &DURATION_BUCKETS_S,
            elapsed,
        );
        self.metrics
            .counter_add("ancstr_stage_runs_total", &[("stage", self.stage)], 1);
        self.span.take(); // emits span_end
    }
}

/// [`TrainerHooks`] adapter: forwards per-epoch telemetry, retries,
/// checkpoint latency and cancellation into trace events and metrics.
pub struct TrainTelemetry {
    obs: PipelineObs,
}

impl TrainTelemetry {
    /// An adapter writing into `obs`.
    pub fn new(obs: PipelineObs) -> TrainTelemetry {
        TrainTelemetry { obs }
    }
}

impl TrainerHooks for TrainTelemetry {
    fn on_epoch(&mut self, t: &EpochTelemetry) {
        self.obs.event(
            "train",
            "epoch",
            &[
                ("epoch", t.epoch.into()),
                ("attempt", t.attempt.into()),
                ("loss", t.loss.into()),
                ("steps", t.steps.into()),
                ("grad_norm_max", t.grad_norm_max.into()),
                ("grad_norm_mean", t.grad_norm_mean.into()),
                ("grad_norm_post_clip_max", t.grad_norm_post_clip_max.into()),
                ("clipped_steps", t.clipped_steps.into()),
            ],
        );
        let m = self.obs.metrics();
        m.counter_add("ancstr_train_epochs_total", &[], 1);
        m.gauge_set("ancstr_train_loss", &[], t.loss);
        m.observe("ancstr_train_grad_norm", &[], &GRAD_NORM_BUCKETS, t.grad_norm_max);
        if t.clipped_steps > 0 {
            m.counter_add("ancstr_train_clipped_steps_total", &[], t.clipped_steps as u64);
        }
    }

    fn on_retry(&mut self, e: &HealthEvent) {
        self.obs.event(
            "train",
            "train_retry",
            &[
                ("epoch", e.epoch.into()),
                ("attempt", e.attempt.into()),
                ("cause", format!("{:?}", e.cause).into()),
                ("reseeded_to", e.reseeded_to.into()),
            ],
        );
        self.obs.metrics().counter_add("ancstr_train_retries_total", &[], 1);
    }

    fn on_checkpoint(&mut self, completed_epochs: usize, write_time: std::time::Duration) {
        let secs = write_time.as_secs_f64();
        self.obs.event(
            "train",
            "checkpoint_write",
            &[
                ("completed_epochs", completed_epochs.into()),
                ("write_seconds", secs.into()),
            ],
        );
        let m = self.obs.metrics();
        m.counter_add("ancstr_checkpoints_written_total", &[], 1);
        m.observe("ancstr_checkpoint_write_seconds", &[], &DURATION_BUCKETS_S, secs);
    }

    fn on_cancelled(&mut self, after_epoch: usize) {
        self.obs
            .event("train", "train_cancelled", &[("after_epoch", after_epoch.into())]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_obs::{validate_exposition, validate_trace, Tracer};

    #[test]
    fn disabled_obs_is_a_cheap_no_op() {
        let obs = PipelineObs::disabled();
        {
            let _g = obs.stage("parse");
            obs.event("parse", "nothing", &[]);
        }
        assert!(!obs.tracing());
        // The registry still counts (nobody renders it), proving the
        // code path is identical with and without a tracer.
        assert_eq!(obs.metrics().counter_value("ancstr_stage_runs_total", &[("stage", "parse")]), 1);
    }

    #[test]
    fn stage_guard_emits_span_and_histogram() {
        let (tracer, buf) = Tracer::in_memory();
        let obs = PipelineObs::new(Some(tracer));
        {
            let _g = obs.stage_with("train", &[("epochs", 2u64.into())]);
            obs.event("train", "epoch", &[("loss", 0.1.into())]);
        }
        obs.flush();
        let events = validate_trace(&buf.contents()).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].span, "train");
        assert_eq!(events[1].parent, events[0].id);
        let prom = obs.metrics().render();
        validate_exposition(&prom).unwrap();
        assert!(prom.contains("ancstr_stage_duration_seconds_count{stage=\"train\"} 1"));
        assert!(prom.contains("ancstr_stage_runs_total{stage=\"train\"} 1"));
    }

    #[test]
    fn telemetry_adapter_translates_epochs_and_retries() {
        let (tracer, buf) = Tracer::in_memory();
        let obs = PipelineObs::new(Some(tracer));
        let mut hooks = TrainTelemetry::new(obs.clone());
        hooks.on_epoch(&EpochTelemetry {
            epoch: 0,
            attempt: 0,
            loss: 0.7,
            steps: 4,
            grad_norm_max: 2.0,
            grad_norm_mean: 1.5,
            grad_norm_post_clip_max: 1.0,
            clipped_steps: 1,
        });
        hooks.on_retry(&HealthEvent {
            epoch: 1,
            attempt: 0,
            cause: ancstr_gnn::AnomalyCause::NonFiniteGradient,
            reseeded_to: 42,
        });
        hooks.on_checkpoint(2, std::time::Duration::from_millis(3));
        hooks.on_cancelled(2);
        obs.flush();
        let events = validate_trace(&buf.contents()).unwrap();
        let names: Vec<&str> = events.iter().map(|e| e.span.as_str()).collect();
        assert_eq!(names, ["epoch", "train_retry", "checkpoint_write", "train_cancelled"]);
        let m = obs.metrics();
        assert_eq!(m.counter_value("ancstr_train_epochs_total", &[]), 1);
        assert_eq!(m.counter_value("ancstr_train_retries_total", &[]), 1);
        assert_eq!(m.counter_value("ancstr_train_clipped_steps_total", &[]), 1);
        assert_eq!(m.counter_value("ancstr_checkpoints_written_total", &[]), 1);
        validate_exposition(&m.render()).unwrap();
    }
}
