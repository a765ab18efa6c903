//! `ancstr` — command-line symmetry-constraint extraction.
//!
//! ```text
//! ancstr extract <netlist.sp> [-o constraints.txt] [--model model.txt]
//!                [--epochs N] [--seed S] [--threads N] [--groups]
//!                [--constraint-format magical|align-json]
//!                [--dot FILE] [--metrics FILE]
//!                [--run-dir DIR] [--resume] [--checkpoint-every N]
//!                [--time-budget SECS] [--trace-out FILE]
//!                [--log-format text|json] [-v|--quiet]
//! ancstr train   <netlist.sp>... --model-out model.txt [--epochs N]
//!                [--seed S] [--threads N]
//!                [--run-dir DIR] [--resume] [--checkpoint-every N]
//!                [--time-budget SECS] [--trace-out FILE]
//!                [--log-format text|json] [-v|--quiet]
//! ancstr stats   <netlist.sp>
//! ancstr corpus  --devices N [--seed S] [-o netlist.sp]
//! ancstr obs-check [--trace FILE] [--require-stages a,b,..]
//!                  [--require-epoch-events] [--prom FILE] [--align FILE]
//! ancstr obs-report <trace.jsonl>...
//! ancstr serve   --model model.txt [--port N] [--workers N]
//!                [--queue-depth N] [--cache-entries N]
//!                [--default-deadline-ms N] [--chaos] [--metrics FILE]
//!                [--threads N] [--trace-out FILE]
//!                [--log-format text|json] [-v|--quiet]
//! ```
//!
//! `extract` trains on the input itself unless `--model` supplies a
//! pre-trained model (the inductive mode). `train` fits one universal
//! model over several netlists and saves it.
//!
//! `--threads N` caps the deterministic compute layer's worker count
//! (default: the machine's available parallelism). Outputs are
//! byte-identical at every thread count — `--threads 1` runs the exact
//! same computation sequentially.
//!
//! `extract` writes the MAGICAL-style constraint text by default;
//! `--constraint-format align-json` emits the ALIGN-compatible JSON
//! document (`SymmBlock`/`SymmNet`/`Align` arrays) produced by
//! `ancstr-hier` instead. `corpus` generates a seeded scale-sweep
//! stress netlist (a time-interleaved ADC array sized to `--devices`
//! primitives, exact hierarchical ground truth included) for
//! throughput experiments.
//!
//! `serve` keeps a trained model warm in a long-lived HTTP daemon
//! (`ancstr-serve`): `POST /v1/extract` takes a SPICE netlist body and
//! returns the constraint set as JSON (byte-identical `constraints_text`
//! to one-shot `extract --model`), `GET /healthz` and `GET /metrics`
//! report liveness and Prometheus metrics, `POST /v1/models` hot-swaps
//! the one resident model from a sealed artifact, and
//! `POST /v1/shutdown` drains and exits. On startup the daemon prints
//! `listening on <addr>` to stdout (use `--port 0` for an ephemeral
//! port and parse that line). The companion `loadgen` binary drives a
//! running daemon for smoke tests and the chaos soak.
//!
//! With `--run-dir`, every pipeline stage writes CRC-sealed artifacts
//! into a durable run directory and records its status in an atomic
//! manifest; training checkpoints every `--checkpoint-every` epochs
//! (default 5). A crashed or deadline-cancelled run is continued with
//! `--resume`, which validates the manifest against the current
//! configuration, skips completed stages, and restarts training from
//! the newest valid checkpoint — the resumed result is bit-identical to
//! an uninterrupted run. `--time-budget SECS` arms a watchdog that
//! requests cooperative cancellation at stage/epoch boundaries,
//! flushing a final checkpoint before exiting with code 10.
//!
//! Observability: `--trace-out FILE` streams span-based JSONL trace
//! events (one JSON object per line; see the README "Observability"
//! section for the schema) covering every pipeline stage plus
//! per-epoch training telemetry; with `--run-dir` the same run also
//! writes `<run-dir>/metrics.prom` (Prometheus text exposition) at
//! every stage boundary — including on an aborted run, together with a
//! terminal `run_aborted` trace event. `--log-format json` turns the
//! diagnostic stderr stream into JSON lines, and `-v` / `--quiet`
//! widen or silence it. Observation is read-only: outputs are
//! byte-identical with and without these flags. A traced stage span's
//! end carries the process's peak RSS so far (`vm_hwm_kb`, on Linux)
//! and its minor page faults so far (`minflt`); each `epoch` event
//! carries the faults taken since the previous epoch and the KiB the
//! training step's tape held at its end (`tape_kb`). The `embed` span's
//! end also carries `rows` and `rows_computed`, the vertices and the
//! rows Eq. 1's GRU steps computed for them over the K layers (one per
//! distinct message and state), and the `detect` span's end carries
//! `blocks_compared` and `block_digraphs`, how many blocks Algorithm 2
//! embedded and how many distinct digraphs it ranked for them, and
//! `candidates` and `constraints`, how many valid pairs Algorithm 3
//! considered and how many it accepted.
//! After `detect`, `extract` traces its output tail as an `export` span
//! (the DOT dump, quality gauges and rendering) and a `write` span.
//! `obs-check` re-validates a trace file and/or a `metrics.prom`
//! exposition line-by-line (used by CI), checks those counts, names
//! the stage that set a trace's peak RSS, and logs how much of the
//! trace's wall its top-level spans cover. `obs-report`
//! groups the spans of one or more JSONL trace files by trace id and
//! renders per-trace waterfalls plus aggregate per-stage latency
//! quantiles — feed it the daemon's `--trace-out` file and a trace id
//! from a reply's `x-ancstr-trace-id` header names one request's
//! timeline.
//!
//! Exit codes are stable so scripts can dispatch on the failure stage:
//! 0 success, 1 failed `obs-check` validation, 2 usage, 3 file I/O,
//! then per pipeline stage ([`ExtractError::exit_code`]): 4 parse, 5
//! elaborate, 6 bad configuration or model file, 7 training, 8
//! inference, 9 run-store failure (corrupt/mismatched manifest or
//! artifact), and 10 when the time budget expired with the run
//! checkpointed for `--resume`.

use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use ancstr_core::groups::merged_groups_sorted;
use ancstr_core::runstore::{RunOptions, RunSession, StageStatus};
use ancstr_core::{
    level_confusions, load_netlist, render_confusions, render_groups, write_constraints,
    ExtractError, ExtractorConfig, FitOutcome, PipelineObs, RunCtx, SymmetryExtractor,
    MINOR_FAULTS_FIELD, PEAK_RSS_FIELD, STAGES, TAPE_KB_FIELD,
};
use ancstr_gnn::{HealthReport, TrainGraph};
use ancstr_graph::BuildOptions;
use ancstr_netlist::constraint::ConstraintSet;
use ancstr_netlist::flat::FlatCircuit;
use ancstr_obs::{
    analyze, validate_exposition, validate_trace, LogFormat, Logger, TraceFile, Tracer,
    Verbosity,
};

fn usage() -> &'static str {
    "usage:\n  ancstr extract <netlist.sp> [-o FILE] [--model FILE] [--epochs N] [--seed S] [--threads N] [--groups] [--constraint-format magical|align-json] [--dot FILE] [--metrics FILE] [--run-dir DIR] [--resume] [--checkpoint-every N] [--time-budget SECS] [--trace-out FILE] [--log-format text|json] [-v|--quiet]\n  ancstr train <netlist.sp>... --model-out FILE [--epochs N] [--seed S] [--threads N] [--run-dir DIR] [--resume] [--checkpoint-every N] [--time-budget SECS] [--trace-out FILE] [--log-format text|json] [-v|--quiet]\n  ancstr stats <netlist.sp>\n  ancstr corpus --devices N [--seed S] [-o FILE]\n  ancstr obs-check [--trace FILE] [--require-stages a,b,..] [--require-epoch-events] [--prom FILE] [--align FILE]\n  ancstr obs-report <trace.jsonl>...\n  ancstr serve --model FILE [--port N] [--workers N] [--queue-depth N] [--cache-entries N] [--default-deadline-ms N] [--chaos] [--metrics FILE] [--threads N] [--trace-out FILE] [--log-format text|json] [-v|--quiet]"
}

/// Everything that can go wrong, sorted by exit code: failed
/// observability validation (1), misuse of the command line (2), file
/// I/O (3), pipeline failures (4–9, from [`ExtractError::exit_code`]),
/// and deadline expiry (10).
enum CliError {
    Validation(String),
    Usage(String),
    Io { path: String, detail: String },
    Pipeline { path: String, err: ExtractError },
    Deadline { run_dir: String },
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Validation(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Io { .. } => 3,
            CliError::Pipeline { err, .. } => err.exit_code(),
            CliError::Deadline { .. } => 10,
        }
    }

    /// Human-readable one-liner for stderr, naming the file and the
    /// pipeline stage that failed.
    fn message(&self) -> String {
        match self {
            CliError::Validation(msg) => msg.clone(),
            CliError::Usage(msg) => format!("{msg}\n{}", usage()),
            CliError::Io { path, detail } => format!("cannot access `{path}`: {detail}"),
            CliError::Pipeline { path, err } => {
                format!("`{path}` failed at the {} stage: {err}", err.stage())
            }
            CliError::Deadline { run_dir } => format!(
                "time budget expired; progress is checkpointed in `{run_dir}` — rerun with \
                 --resume --run-dir {run_dir} to continue"
            ),
        }
    }
}

fn usage_err(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

/// The CLI's context: one structured logger for stderr and the one
/// [`RunCtx`] every pipeline call runs under. With no `--trace-out`
/// and no `--run-dir` its obs handle is disabled.
struct ObsCtx {
    log: Logger,
    run: RunCtx,
}

impl ObsCtx {
    /// Build the observability context a command actually needs:
    ///
    /// - `stats` and `obs-check` never run the pipeline, so they skip
    ///   tracer setup entirely (a stray `--trace-out` would otherwise
    ///   create an empty file that fails `obs-check` later);
    /// - `serve` always collects metrics — it exposes `/metrics` — and
    ///   attaches a tracer only for `--trace-out`;
    /// - `extract`/`train` enable observation iff `--trace-out` or
    ///   `--run-dir` asks for it.
    fn for_command(cmd: &str, args: &Args) -> Result<ObsCtx, CliError> {
        let log = Logger::stderr(args.log_format, args.verbosity);
        if matches!(cmd, "stats" | "corpus" | "obs-check" | "obs-report") {
            return Ok(ObsCtx { log, run: RunCtx::default() });
        }
        let tracer = match &args.trace_out {
            Some(path) => Some(Tracer::to_file(Path::new(path)).map_err(|e| CliError::Io {
                path: path.clone(),
                detail: format!("cannot create trace file: {e}"),
            })?),
            None => None,
        };
        let obs = if cmd == "serve" || tracer.is_some() || args.run_dir.is_some() {
            PipelineObs::new(tracer)
        } else {
            PipelineObs::disabled()
        };
        Ok(ObsCtx { log, run: RunCtx::observed(obs) })
    }
}

fn load(path: &str, ctx: &ObsCtx) -> Result<FlatCircuit, CliError> {
    load_netlist(path, &ctx.run.obs)
        .map_err(|err| CliError::Pipeline { path: path.to_owned(), err })
}

fn config_with(epochs: Option<usize>, seed: Option<u64>) -> ExtractorConfig {
    let mut cfg = ExtractorConfig::default();
    if let Some(e) = epochs {
        cfg.train.epochs = e;
    }
    if let Some(s) = seed {
        cfg.train.seed = s;
        cfg.gnn.seed = s;
    }
    cfg
}

/// Surface any training anomalies the guardrails recovered from.
fn report_health(log: &Logger, health: &HealthReport) {
    for event in &health.retries {
        log.warn(format!(
            "{} at epoch {} (attempt {}); restored best checkpoint, reseeded to {:#x}",
            event.cause, event.epoch, event.attempt, event.reseeded_to
        ));
    }
    if health.clipped_steps > 0 {
        log.warn(format!("gradient norm clipped on {} steps", health.clipped_steps));
    }
}

/// Constraint serialization selected by `--constraint-format`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ConstraintFormat {
    /// The MAGICAL-style text exporter (the default).
    Magical,
    /// The ALIGN-compatible JSON document from `ancstr-hier`.
    AlignJson,
}

struct Args {
    positional: Vec<String>,
    output: Option<String>,
    model: Option<String>,
    model_out: Option<String>,
    epochs: Option<usize>,
    seed: Option<u64>,
    groups: bool,
    constraint_format: ConstraintFormat,
    dot: Option<String>,
    metrics: Option<String>,
    run_dir: Option<String>,
    resume: bool,
    checkpoint_every: Option<usize>,
    time_budget: Option<u64>,
    trace_out: Option<String>,
    log_format: LogFormat,
    verbosity: Verbosity,
    // obs-check inputs
    trace: Option<String>,
    prom: Option<String>,
    align: Option<String>,
    require_stages: Option<String>,
    require_epoch_events: bool,
    // corpus sizing
    devices: Option<usize>,
    // serve tunables
    port: Option<u16>,
    workers: Option<usize>,
    queue_depth: Option<usize>,
    cache_entries: Option<usize>,
    default_deadline_ms: Option<u64>,
    chaos: bool,
    // compute-layer thread cap (None = available parallelism)
    threads: Option<usize>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        output: None,
        model: None,
        model_out: None,
        epochs: None,
        seed: None,
        groups: false,
        constraint_format: ConstraintFormat::Magical,
        dot: None,
        metrics: None,
        run_dir: None,
        resume: false,
        checkpoint_every: None,
        time_budget: None,
        trace_out: None,
        log_format: LogFormat::Text,
        verbosity: Verbosity::Normal,
        trace: None,
        prom: None,
        align: None,
        require_stages: None,
        require_epoch_events: false,
        devices: None,
        port: None,
        workers: None,
        queue_depth: None,
        cache_entries: None,
        default_deadline_ms: None,
        chaos: false,
        threads: None,
    };
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "-o" | "--output" => args.output = Some(take("-o")?),
            "--model" => args.model = Some(take("--model")?),
            "--model-out" => args.model_out = Some(take("--model-out")?),
            "--epochs" => {
                let n: usize = take("--epochs")?.parse().map_err(|_| "bad --epochs")?;
                if n == 0 {
                    return Err("--epochs must be at least 1".to_owned());
                }
                args.epochs = Some(n);
            }
            "--seed" => args.seed = Some(take("--seed")?.parse().map_err(|_| "bad --seed")?),
            "--groups" => args.groups = true,
            "--constraint-format" => {
                let v = take("--constraint-format")?;
                args.constraint_format = match v.as_str() {
                    "magical" => ConstraintFormat::Magical,
                    "align-json" => ConstraintFormat::AlignJson,
                    _ => {
                        return Err(format!(
                            "bad --constraint-format `{v}` (want magical or align-json)"
                        ))
                    }
                };
            }
            "--devices" => {
                let n: usize = take("--devices")?
                    .parse()
                    .map_err(|_| "bad --devices (want a positive integer)")?;
                if n == 0 {
                    return Err("--devices must be at least 1".to_owned());
                }
                args.devices = Some(n);
            }
            "--align" => args.align = Some(take("--align")?),
            "--dot" => args.dot = Some(take("--dot")?),
            "--metrics" => args.metrics = Some(take("--metrics")?),
            "--run-dir" => args.run_dir = Some(take("--run-dir")?),
            "--resume" => args.resume = true,
            "--checkpoint-every" => {
                let n: usize = take("--checkpoint-every")?
                    .parse()
                    .map_err(|_| "bad --checkpoint-every (want a positive integer)")?;
                if n == 0 {
                    return Err("--checkpoint-every must be at least 1".to_owned());
                }
                args.checkpoint_every = Some(n);
            }
            "--time-budget" => {
                let n: u64 = take("--time-budget")?
                    .parse()
                    .map_err(|_| "bad --time-budget (want seconds as a positive integer)")?;
                if n == 0 {
                    return Err("--time-budget must be at least 1 second".to_owned());
                }
                args.time_budget = Some(n);
            }
            "--trace-out" => args.trace_out = Some(take("--trace-out")?),
            "--log-format" => {
                let v = take("--log-format")?;
                args.log_format = LogFormat::parse(&v)
                    .ok_or_else(|| format!("bad --log-format `{v}` (want text or json)"))?;
            }
            "-v" | "--verbose" => args.verbosity = Verbosity::Verbose,
            "-q" | "--quiet" => args.verbosity = Verbosity::Quiet,
            "--trace" => args.trace = Some(take("--trace")?),
            "--prom" => args.prom = Some(take("--prom")?),
            "--port" => {
                args.port =
                    Some(take("--port")?.parse().map_err(|_| "bad --port (want 0..=65535)")?);
            }
            "--workers" => {
                let n: usize = take("--workers")?
                    .parse()
                    .map_err(|_| "bad --workers (want a positive integer)")?;
                if n == 0 {
                    return Err("--workers must be at least 1".to_owned());
                }
                args.workers = Some(n);
            }
            "--queue-depth" => {
                let n: usize = take("--queue-depth")?
                    .parse()
                    .map_err(|_| "bad --queue-depth (want a positive integer)")?;
                if n == 0 {
                    return Err("--queue-depth must be at least 1".to_owned());
                }
                args.queue_depth = Some(n);
            }
            "--cache-entries" => {
                args.cache_entries = Some(
                    take("--cache-entries")?
                        .parse()
                        .map_err(|_| "bad --cache-entries (want an integer; 0 disables)")?,
                );
            }
            "--default-deadline-ms" => {
                let n: u64 = take("--default-deadline-ms")?
                    .parse()
                    .map_err(|_| "bad --default-deadline-ms (want milliseconds)")?;
                if n == 0 {
                    return Err("--default-deadline-ms must be at least 1".to_owned());
                }
                args.default_deadline_ms = Some(n);
            }
            "--chaos" => args.chaos = true,
            "--threads" => {
                let n: usize = take("--threads")?
                    .parse()
                    .map_err(|_| "bad --threads (want a positive integer)")?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_owned());
                }
                args.threads = Some(n);
            }
            "--require-stages" => args.require_stages = Some(take("--require-stages")?),
            "--require-epoch-events" => args.require_epoch_events = true,
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            other => args.positional.push(other.to_owned()),
        }
    }
    Ok(args)
}

/// Validate the durable-run flags and build [`RunOptions`], or `None`
/// when no `--run-dir` was given. Flag misuse (resume/cadence/budget
/// without a run directory, or an unwritable directory) is a usage
/// error so scripts see exit code 2 before any work starts. A
/// `--time-budget` arms the deadline watchdog on the run's token.
fn run_options(args: &Args, ctx: &ObsCtx) -> Result<Option<RunOptions>, CliError> {
    let Some(dir) = &args.run_dir else {
        if args.resume {
            return Err(usage_err("--resume needs --run-dir"));
        }
        if args.checkpoint_every.is_some() {
            return Err(usage_err("--checkpoint-every needs --run-dir"));
        }
        if args.time_budget.is_some() {
            return Err(usage_err("--time-budget needs --run-dir"));
        }
        return Ok(None);
    };
    // Fail fast on an unusable directory, before any training happens.
    fs::create_dir_all(dir)
        .map_err(|e| usage_err(format!("run directory `{dir}` cannot be created: {e}")))?;
    let probe = std::path::Path::new(dir).join(".ancstr-writable-probe");
    fs::write(&probe, b"probe")
        .map_err(|e| usage_err(format!("run directory `{dir}` is not writable: {e}")))?;
    let _ = fs::remove_file(&probe);

    let mut opts = RunOptions::new(dir);
    opts.resume = args.resume;
    if let Some(n) = args.checkpoint_every {
        opts.checkpoint_every = n;
    }
    if let Some(secs) = args.time_budget {
        ctx.run.cancel.arm_deadline(Duration::from_secs(secs));
    }
    // Crash-injection hooks for the resume/abort smoke tests: abort (as
    // a kill would) or cancel (as the watchdog would) right after the
    // Nth checkpoint write.
    opts.test_abort_after_checkpoints = std::env::var("ANCSTR_TEST_ABORT_AFTER_CHECKPOINTS")
        .ok()
        .and_then(|v| v.parse().ok());
    opts.test_cancel_after_checkpoints = std::env::var("ANCSTR_TEST_CANCEL_AFTER_CHECKPOINTS")
        .ok()
        .and_then(|v| v.parse().ok());
    Ok(Some(opts))
}

/// Open the run session for `command` when `--run-dir` was given, and
/// say which stages a resumed run will skip.
fn open_session(
    ctx: &ObsCtx,
    opts: Option<RunOptions>,
    command: &str,
    config: &ExtractorConfig,
    inputs: &[String],
) -> Result<Option<RunSession>, CliError> {
    let Some(opts) = opts else {
        return Ok(None);
    };
    let run_dir = opts.run_dir.display().to_string();
    let session = RunSession::open(opts, command, config, inputs)
        .map_err(|e| CliError::Pipeline { path: run_dir, err: ExtractError::Run(e) })?;
    let done: Vec<&str> = session
        .manifest()
        .stages
        .iter()
        .filter(|s| s.status == StageStatus::Done)
        .map(|s| s.name.as_str())
        .collect();
    if !done.is_empty() {
        ctx.log.info(format!("[run] stages already done: {}", done.join(", ")));
    }
    Ok(Some(session))
}

/// Map a pipeline error on `path`; a cancellation of a durable run is
/// the time budget expiring, with progress checkpointed for `--resume`.
fn pipeline_err(path: &str, run_dir: Option<&String>, err: ExtractError) -> CliError {
    match (err, run_dir) {
        (ExtractError::Cancelled, Some(dir)) => CliError::Deadline { run_dir: dir.clone() },
        (err, _) => CliError::Pipeline { path: path.to_owned(), err },
    }
}

/// Report a finished `try_fit` and hand back its training graphs; a
/// cancelled one is [`ExtractError::Cancelled`].
fn report_fit(ctx: &ObsCtx, outcome: FitOutcome) -> Result<Vec<TrainGraph>, ExtractError> {
    match outcome {
        FitOutcome::Cancelled { after_epoch } => {
            ctx.log.info(format!(
                "[run] training cancelled after epoch {after_epoch}; checkpoint flushed"
            ));
            Err(ExtractError::Cancelled)
        }
        FitOutcome::Completed { report, health, resumed_from, notes, graphs } => {
            for note in &notes {
                ctx.log.info(format!("[run] {note}"));
            }
            if let Some(epoch) = resumed_from {
                ctx.log.info(format!("[run] resumed training from the epoch-{epoch} checkpoint"));
            }
            report_health(&ctx.log, &health);
            if let Some(loss) = report.epoch_losses.last() {
                ctx.log.info(format!("final loss {loss:.4}"));
            }
            Ok(graphs)
        }
    }
}

/// Write the current Prometheus exposition into `<run-dir>/metrics.prom`
/// (atomic temp + rename) after the final stage and on an aborted run;
/// the stages write it at every boundary before that. Failures are
/// surfaced as warnings — observability must never fail the run.
fn write_prom_checkpoint(ctx: &ObsCtx, run_dir: &str) {
    if !ctx.run.obs.enabled() {
        return;
    }
    if let Err(e) = ctx.run.obs.write_prom(&Path::new(run_dir).join("metrics.prom")) {
        ctx.log.warn(format!("could not write metrics.prom: {e}"));
    }
}

/// Shared output tail of `extract`: optional DOT dump, then the
/// constraint set (or merged groups) to `-o`/stdout, traced as an
/// `export` span and a `write` span.
fn emit_outputs(
    ctx: &ObsCtx,
    args: &Args,
    build: &BuildOptions,
    flat: &FlatCircuit,
    constraints: &ConstraintSet,
) -> Result<(), CliError> {
    // CLI spans, not pipeline stages: the daemon has no output tail.
    let export = ctx.run.obs.stage("export");
    if let Some(dot_path) = &args.dot {
        let stream = ancstr_graph::PinStream::from_device_range(flat, 0..flat.devices().len());
        let constrained: std::collections::HashSet<_> = constraints
            .iter()
            .flat_map(|c| [c.pair.lo(), c.pair.hi()])
            .collect();
        let dot = ancstr_graph::dot::to_dot(
            &stream,
            build,
            |v| flat.node(flat.devices()[v].node).path.clone(),
            |v| constrained.contains(&flat.devices()[v].node),
        );
        fs::write(dot_path, dot)
            .map_err(|e| CliError::Io { path: dot_path.clone(), detail: e.to_string() })?;
        ctx.log.info(format!("wrote {dot_path}"));
    }

    // The metrics table and the Prometheus quality gauges share one
    // source of truth (`ancstr_core::metrics::level_confusions`), computed
    // only when one of them is written: the gauges reach a file only
    // through `<run-dir>/metrics.prom`.
    let gauges = args.run_dir.is_some();
    if gauges || args.metrics.is_some() {
        let levels = level_confusions(flat, constraints);
        if gauges {
            ctx.run.obs.record_quality(&levels);
        }
        if let Some(path) = &args.metrics {
            fs::write(path, render_confusions(&levels))
                .map_err(|e| CliError::Io { path: path.clone(), detail: e.to_string() })?;
            ctx.log.info(format!("wrote {path}"));
        }
    }
    if let Some(dir) = &args.run_dir {
        write_prom_checkpoint(ctx, dir);
    }

    let text = match args.constraint_format {
        ConstraintFormat::AlignJson => {
            if args.groups {
                return Err(usage_err(
                    "--groups selects the MAGICAL group view; the ALIGN document already \
                     carries merged groups — drop one of the flags",
                ));
            }
            ancstr_hier::align::export_align(flat, constraints)
        }
        ConstraintFormat::Magical if args.groups => {
            render_groups(flat, &merged_groups_sorted(flat, constraints))
        }
        ConstraintFormat::Magical => write_constraints(flat, constraints),
    };
    drop(export);
    let _write = ctx.run.obs.stage("write");
    match &args.output {
        Some(path) => {
            fs::write(path, &text)
                .map_err(|e| CliError::Io { path: path.clone(), detail: e.to_string() })?;
            ctx.log.info(format!("wrote {path}"));
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// `extract`: load, then either load `--model` or self-train on the
/// input (reusing the training graph for inference), then the
/// inference stages. With `--run-dir` every stage lands in the run
/// directory and completed stages are skipped on `--resume`.
fn cmd_extract(ctx: &ObsCtx, args: Args) -> Result<(), CliError> {
    let run = run_options(&args, ctx)?;
    let [input] = args.positional.as_slice() else {
        return Err(usage_err("extract needs exactly one netlist"));
    };
    if run.is_some() && args.model.is_some() {
        return Err(usage_err(
            "--model cannot be combined with --run-dir: a durable run owns its own \
             training stage",
        ));
    }
    let flat = load(input, ctx)?;
    ctx.log.info(format!(
        "{} devices, {} nets, {} hierarchy nodes",
        flat.devices().len(),
        flat.net_count(),
        flat.nodes().len()
    ));

    let pipeline = |err| pipeline_err(input, args.run_dir.as_ref(), err);
    let config = config_with(args.epochs, args.seed);
    let mut session =
        open_session(ctx, run, "extract", &config, std::slice::from_ref(input))?;
    let mut extractor = SymmetryExtractor::try_new(config).map_err(pipeline)?;
    let graph = if let Some(model_path) = &args.model {
        let text = fs::read_to_string(model_path).map_err(|e| CliError::Io {
            path: model_path.clone(),
            detail: e.to_string(),
        })?;
        extractor = extractor.with_model_text(&text).map_err(|err| CliError::Pipeline {
            path: model_path.clone(),
            err,
        })?;
        ctx.log.info(format!("loaded pre-trained model from {model_path}"));
        None
    } else {
        if !session.as_ref().is_some_and(|s| s.stage_done("train")) {
            ctx.log.info("training on the input netlist ...");
        }
        let outcome =
            extractor.try_fit(&[&flat], &ctx.run, session.as_mut()).map_err(pipeline)?;
        report_fit(ctx, outcome).map_err(pipeline)?.pop()
    };

    let result =
        extractor.try_extract(&flat, graph, &ctx.run, session.as_mut()).map_err(pipeline)?;
    for note in session.as_mut().map(RunSession::take_notes).unwrap_or_default() {
        ctx.log.info(format!("[run] {note}"));
    }
    for warning in &result.detection.warnings {
        ctx.log.warn(warning);
    }
    ctx.log.info(format!(
        "{} constraints in {:.1} ms",
        result.detection.constraints.len(),
        result.runtime.as_secs_f64() * 1e3
    ));
    emit_outputs(ctx, &args, &extractor.config().build, &flat, &result.detection.constraints)?;
    // The outputs are written and the process exits next, which returns
    // the memory anyway: freeing the elaborated circuit's per-node
    // strings and lists, the detection and the extractor one by one
    // cost ~16 ms of a 100k-device extract on a 2-core Xeon.
    std::mem::forget((flat, result, extractor));
    Ok(())
}

fn cmd_train(ctx: &ObsCtx, args: Args) -> Result<(), CliError> {
    let run = run_options(&args, ctx)?;
    if args.positional.is_empty() {
        return Err(usage_err("train needs at least one netlist"));
    }
    let Some(model_out) = args.model_out.clone() else {
        return Err(usage_err("train needs --model-out"));
    };
    let circuits: Vec<FlatCircuit> = args
        .positional
        .iter()
        .map(|p| load(p, ctx))
        .collect::<Result<_, _>>()?;
    let refs: Vec<&FlatCircuit> = circuits.iter().collect();
    let corpus = args.positional.join(", ");
    let pipeline = |err| pipeline_err(&corpus, args.run_dir.as_ref(), err);
    let config = config_with(args.epochs, args.seed);
    let mut session = open_session(ctx, run, "train", &config, &args.positional)?;
    let mut extractor = SymmetryExtractor::try_new(config).map_err(pipeline)?;

    ctx.log.info(format!("training on {} circuits ...", refs.len()));
    let outcome = extractor.try_fit(&refs, &ctx.run, session.as_mut()).map_err(pipeline)?;
    report_fit(ctx, outcome).map_err(pipeline)?;

    fs::write(&model_out, extractor.model().to_text())
        .map_err(|e| CliError::Io { path: model_out.clone(), detail: e.to_string() })?;
    ctx.log.info(format!("wrote {model_out}"));
    Ok(())
}

fn cmd_stats(ctx: &ObsCtx, args: Args) -> Result<(), CliError> {
    let [input] = args.positional.as_slice() else {
        return Err(usage_err("stats needs exactly one netlist"));
    };
    let flat = load(input, ctx)?;
    let stats = ancstr_core::pair_stats(&flat);
    println!("devices      {}", flat.devices().len());
    println!("nets         {}", flat.net_count());
    println!("blocks       {}", flat.blocks().count());
    println!("valid pairs  {}", stats.total);
    println!("  system     {}", stats.system);
    println!("  device     {}", stats.device);
    println!("ground truth {}", stats.positives);
    Ok(())
}

/// Generate a seeded stress netlist (`stress_system`) and write it to
/// `-o` or stdout. The corpus is a pure function of `(devices, seed)`,
/// so reruns with the same arguments are byte-identical — what lets CI
/// pin extraction wall times against a reproducible 10k–100k-device
/// input.
fn cmd_corpus(ctx: &ObsCtx, args: Args) -> Result<(), CliError> {
    if !args.positional.is_empty() {
        return Err(usage_err("corpus takes no positional arguments"));
    }
    let Some(devices) = args.devices else {
        return Err(usage_err("corpus needs --devices"));
    };
    let floor = ancstr_circuits::stress::min_stress_devices();
    if devices < floor {
        return Err(usage_err(format!(
            "--devices {devices} is below one stress channel ({floor} devices)"
        )));
    }
    let seed = args.seed.unwrap_or(7);
    let nl = ancstr_circuits::stress::stress_system(devices, seed);
    let text = ancstr_netlist::write::write_spice(&nl);
    match &args.output {
        Some(path) => {
            fs::write(path, &text)
                .map_err(|e| CliError::Io { path: path.clone(), detail: e.to_string() })?;
            ctx.log.info(format!("wrote {path} ({devices} devices, seed {seed})"));
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Validate an observability artifact set: a JSONL trace (line-by-line
/// schema + LIFO nesting, optionally requiring stage coverage and
/// per-epoch telemetry) and/or a Prometheus text exposition. Exit code
/// 1 on any validation failure, so CI can gate on it.
fn cmd_obs_check(ctx: &ObsCtx, args: Args) -> Result<(), CliError> {
    if args.trace.is_none() && args.prom.is_none() && args.align.is_none() {
        return Err(usage_err("obs-check needs --trace, --prom, and/or --align"));
    }
    if let Some(path) = &args.trace {
        let text = fs::read_to_string(path)
            .map_err(|e| CliError::Io { path: path.clone(), detail: e.to_string() })?;
        let events = validate_trace(&text)
            .map_err(|e| CliError::Validation(format!("`{path}` is not a valid trace: {e}")))?;
        if events.is_empty() {
            return Err(CliError::Validation(format!("`{path}` contains no trace events")));
        }
        if let Some(stages) = &args.require_stages {
            let wanted: Vec<&str> = if stages == "all" {
                STAGES.to_vec()
            } else {
                stages.split(',').filter(|s| !s.is_empty()).collect()
            };
            for stage in wanted {
                if !events.iter().any(|e| e.kind == "span_start" && e.stage == stage) {
                    return Err(CliError::Validation(format!(
                        "`{path}` has no `{stage}` stage span"
                    )));
                }
            }
        }
        if args.require_epoch_events {
            let epochs = events
                .iter()
                .filter(|e| e.kind == "event" && e.span == "epoch")
                .count();
            if epochs == 0 {
                return Err(CliError::Validation(format!(
                    "`{path}` has no per-epoch training telemetry events"
                )));
            }
            ctx.log.info(format!("{epochs} epoch telemetry events"));
        }
        ctx.log.info(format!("{path}: {} schema-valid trace events", events.len()));
        // A count field, when present, is a non-negative integer.
        let count = |e: &ancstr_obs::TraceEvent, field: &str| -> Result<Option<u64>, CliError> {
            let Some(v) = e.fields.get(field) else { return Ok(None) };
            match v.as_num().filter(|n| *n >= 0.0 && n.fract() == 0.0) {
                Some(n) => Ok(Some(n as u64)),
                None => Err(CliError::Validation(format!(
                    "`{path}`: {} {} has a non-integer `{field}`",
                    e.kind, e.id
                ))),
            }
        };
        for e in &events {
            count(e, MINOR_FAULTS_FIELD)?;
            count(e, TAPE_KB_FIELD)?;
        }
        let mut peak: Option<(u64, &str)> = None;
        for e in events.iter().filter(|e| e.kind == "span_end") {
            if let Some(kb) = count(e, PEAK_RSS_FIELD)? {
                if peak.is_none_or(|(best, _)| kb > best) {
                    peak = Some((kb, &e.stage));
                }
            }
            if let (Some(rows), Some(computed)) = (count(e, "rows")?, count(e, "rows_computed")?) {
                ctx.log.info(format!(
                    "{path}: Eq. 1 computed {computed} GRU rows for {rows} vertices"
                ));
            }
            let compared = count(e, "blocks_compared")?;
            let digraphs = count(e, "block_digraphs")?;
            if let (Some(compared), Some(digraphs)) = (compared, digraphs) {
                if digraphs > compared {
                    return Err(CliError::Validation(format!(
                        "`{path}`: span {} ranked {digraphs} block digraphs for only \
                         {compared} compared blocks",
                        e.id
                    )));
                }
                ctx.log.info(format!(
                    "{path}: Algorithm 2 ranked {digraphs} distinct block digraphs for \
                     {compared} compared blocks"
                ));
            }
            let candidates = count(e, "candidates")?;
            let constraints = count(e, "constraints")?;
            if let (Some(candidates), Some(constraints)) = (candidates, constraints) {
                if constraints > candidates {
                    return Err(CliError::Validation(format!(
                        "`{path}`: span {} accepted {constraints} constraints from only \
                         {candidates} candidate pairs",
                        e.id
                    )));
                }
                ctx.log.info(format!(
                    "{path}: Algorithm 3 accepted {constraints} constraints from \
                     {candidates} candidate pairs"
                ));
            }
        }
        if let Some((kb, stage)) = peak {
            ctx.log.info(format!(
                "{path}: peak RSS {:.1} MB, first reached by the end of stage `{stage}`",
                kb as f64 / 1024.0
            ));
        }
        // The trace's wall runs from the tracer's start to its last
        // line; top-level spans that overlap (a daemon's concurrent
        // requests) can sum past it.
        let wall_ns = events.iter().map(|e| e.ts_ns).max().unwrap_or(0);
        let covered_ns: u64 = events
            .iter()
            .filter(|e| e.kind == "span_end" && e.parent == 0)
            .filter_map(|e| e.dur_ns)
            .sum();
        if wall_ns > 0 {
            ctx.log.info(format!(
                "{path}: top-level spans cover {:.1}% of the trace's {:.1} ms",
                100.0 * covered_ns as f64 / wall_ns as f64,
                wall_ns as f64 / 1e6
            ));
        }
    }
    if let Some(path) = &args.prom {
        let text = fs::read_to_string(path)
            .map_err(|e| CliError::Io { path: path.clone(), detail: e.to_string() })?;
        let samples = validate_exposition(&text).map_err(|e| {
            CliError::Validation(format!("`{path}` is not valid Prometheus exposition: {e}"))
        })?;
        ctx.log.info(format!("{path}: {samples} valid exposition samples"));
    }
    if let Some(path) = &args.align {
        let text = fs::read_to_string(path)
            .map_err(|e| CliError::Io { path: path.clone(), detail: e.to_string() })?;
        let doc = ancstr_hier::align::AlignDoc::parse(&text).map_err(|e| {
            CliError::Validation(format!("`{path}` is not a valid ALIGN document: {e}"))
        })?;
        // The exporter is canonical: a valid document re-renders to the
        // exact bytes on disk. Anything else means the file was edited
        // or produced by a non-canonical writer.
        if doc.render() != text {
            return Err(CliError::Validation(format!(
                "`{path}` parses but is not in canonical form (re-render differs)"
            )));
        }
        ctx.log.info(format!(
            "{path}: valid ALIGN document for `{}` ({} symmetry blocks, {} symmetry nets, \
             {} arrays)",
            doc.circuit,
            doc.symm_blocks.len(),
            doc.symm_nets.len(),
            doc.arrays.len()
        ));
    }
    Ok(())
}

/// Group the spans of one or more JSONL trace files by trace id into
/// per-trace waterfalls plus aggregate per-stage latency quantiles.
/// Exit code 1 when a file fails trace validation, 3 when one cannot
/// be read.
fn cmd_obs_report(ctx: &ObsCtx, args: Args) -> Result<(), CliError> {
    if args.positional.is_empty() {
        return Err(usage_err("obs-report needs at least one trace file"));
    }
    let mut inputs = Vec::with_capacity(args.positional.len());
    for path in &args.positional {
        let text = fs::read_to_string(path)
            .map_err(|e| CliError::Io { path: path.clone(), detail: e.to_string() })?;
        let label = Path::new(path)
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.clone());
        inputs.push(TraceFile { label, text });
    }
    let report = analyze(&inputs).map_err(CliError::Validation)?;
    print!("{}", report.rendered);
    ctx.log.info(format!("{} trace(s) across {} file(s)", report.traces, inputs.len()));
    Ok(())
}

/// Run the extraction daemon until `POST /v1/shutdown` (or a signal via
/// the admin endpoint) drains it. Prints `listening on <addr>` to
/// stdout once the socket is bound — scripts and the integration tests
/// parse that line to learn the ephemeral port when `--port 0` is used.
fn cmd_serve(ctx: &ObsCtx, args: Args) -> Result<(), CliError> {
    use std::io::Write as _;

    if !args.positional.is_empty() {
        return Err(usage_err("serve takes no positional arguments"));
    }
    let Some(model_path) = &args.model else {
        return Err(usage_err("serve needs --model (train one with `ancstr train`)"));
    };
    // The daemon never trains and owns no run directory; reject the
    // flags loudly instead of silently ignoring them.
    if args.run_dir.is_some() || args.resume {
        return Err(usage_err("serve does not support --run-dir/--resume"));
    }
    if args.epochs.is_some() || args.seed.is_some() {
        return Err(usage_err("serve does not train; --epochs/--seed are not accepted"));
    }

    let text = fs::read_to_string(model_path)
        .map_err(|e| CliError::Io { path: model_path.clone(), detail: e.to_string() })?;
    let registry = ancstr_serve::ModelRegistry::load(&text, model_path)
        .map_err(|err| CliError::Pipeline { path: model_path.clone(), err })?;
    let fingerprint = registry.current().fingerprint_hex();

    let mut cfg = ancstr_serve::ServeConfig {
        addr: format!("127.0.0.1:{}", args.port.unwrap_or(7878)),
        ..ancstr_serve::ServeConfig::default()
    };
    if let Some(n) = args.workers {
        cfg.workers = n;
    }
    if let Some(n) = args.queue_depth {
        cfg.queue_depth = n;
    }
    if let Some(n) = args.cache_entries {
        cfg.cache_entries = n;
    }
    if let Some(ms) = args.default_deadline_ms {
        cfg.default_deadline = Some(std::time::Duration::from_millis(ms));
    }
    cfg.chaos = args.chaos;
    if args.chaos {
        ctx.log.info("chaos cooperation enabled: x-ancstr-chaos headers are honored (test rigs only)");
    }
    // `--metrics FILE` on the daemon means "persist the final snapshot
    // on drain" — the live view is always `GET /metrics`.
    cfg.metrics_out = args.metrics.as_ref().map(std::path::PathBuf::from);
    ctx.log.info(format!(
        "model {fingerprint} from {model_path}; {} workers, queue {}, cache {}{}",
        cfg.workers,
        cfg.queue_depth,
        cfg.cache_entries,
        if ctx.run.obs.tracing() {
            " (tracing on: requests are serialized for a valid trace stream)"
        } else {
            ""
        }
    ));
    let server =
        ancstr_serve::Server::start(cfg.clone(), std::sync::Arc::new(registry), ctx.run.obs.clone())
            .map_err(|e| CliError::Io { path: cfg.addr.clone(), detail: e.to_string() })?;
    // Stdout is block-buffered when piped; flush so a supervising
    // process sees the address immediately.
    println!("listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    server.wait();
    ctx.log.info("drained all in-flight requests; exiting");
    Ok(())
}

/// Flush terminal observability on an aborted run (watchdog
/// cancellation → exit 10, run-store failure → exit 9): a `run_aborted`
/// trace event, the abort counter, partial `metrics.prom`, and — when
/// `--metrics` was requested — a partial metrics file recording the
/// abort, so downstream tooling never waits on a file that will not
/// appear.
fn flush_abort(ctx: &ObsCtx, err: &CliError, metrics: Option<&str>, run_dir: Option<&str>) {
    let code = err.exit_code();
    ctx.run.obs.event(
        "run",
        "run_aborted",
        &[("exit_code", u64::from(code).into()), ("reason", err.message().into())],
    );
    ctx.run.obs.metrics().counter_add("ancstr_run_aborted_total", &[], 1);
    if let Some(dir) = run_dir {
        write_prom_checkpoint(ctx, dir);
    }
    if let Some(path) = metrics {
        let partial = format!("# level tpr fpr ppv acc f1\n# run_aborted exit_code={code}\n");
        if fs::write(path, partial).is_ok() {
            ctx.log.info(format!("wrote {path} (partial: run aborted)"));
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    // Cap the compute layer before any pipeline work.
    if let Some(n) = args.threads {
        ancstr_par::set_threads(n);
    }

    let ctx = match ObsCtx::for_command(cmd.as_str(), &args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("error: {}", e.message());
            return ExitCode::from(e.exit_code());
        }
    };

    let metrics_path = args.metrics.clone();
    let run_dir = args.run_dir.clone();
    let result = match cmd.as_str() {
        "extract" => cmd_extract(&ctx, args),
        "train" => cmd_train(&ctx, args),
        "stats" => cmd_stats(&ctx, args),
        "corpus" => cmd_corpus(&ctx, args),
        "obs-check" => cmd_obs_check(&ctx, args),
        "obs-report" => cmd_obs_report(&ctx, args),
        "serve" => cmd_serve(&ctx, args),
        other => Err(usage_err(format!("unknown command `{other}`"))),
    };
    let code = match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            ctx.log.error(e.message());
            if matches!(e.exit_code(), 9 | 10) {
                flush_abort(&ctx, &e, metrics_path.as_deref(), run_dir.as_deref());
            }
            ExitCode::from(e.exit_code())
        }
    };
    ctx.run.obs.flush();
    code
}

#[cfg(test)]
mod tests {
    use super::usage;

    const SOURCE: &str = include_str!("ancstr.rs");

    /// Each `parse_args` arm that matches a flag, as its spellings
    /// (`"-o" | "--output" =>` gives `["-o", "--output"]`).
    fn parsed_flags() -> Vec<Vec<&'static str>> {
        let start = SOURCE.find("fn parse_args(").expect("parse_args is defined");
        let body = &SOURCE[start..];
        let body = &body[..body.find("\n}\n").expect("parse_args ends")];
        body.lines()
            .map(str::trim)
            .filter(|l| l.starts_with("\"-"))
            .filter_map(|l| l.split_once(" =>"))
            .map(|(pattern, _)| {
                pattern.split('|').map(|alt| alt.trim().trim_matches('"')).collect()
            })
            .collect()
    }

    /// The module doc's `text` synopsis block.
    fn synopsis() -> String {
        let doc: Vec<&str> = SOURCE
            .lines()
            .take_while(|l| l.starts_with("//!"))
            .map(|l| l.trim_start_matches("//!"))
            .collect();
        let open = doc.iter().position(|l| l.trim() == "```text").expect("synopsis opens");
        let len = doc[open + 1..].iter().position(|l| l.trim() == "```").expect("synopsis closes");
        doc[open + 1..open + 1 + len].join("\n")
    }

    /// `flag` occurs in `text` as a whole flag, not as the prefix of a
    /// longer one (`--model` inside `--model-out`).
    fn mentions(text: &str, flag: &str) -> bool {
        text.match_indices(flag).any(|(at, _)| {
            !text[at + flag.len()..]
                .starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
        })
    }

    #[test]
    fn every_parsed_flag_is_in_the_usage_and_the_synopsis() {
        let flags = parsed_flags();
        assert!(flags.len() > 20, "found only {} flag arms", flags.len());
        let synopsis = synopsis();
        for spellings in &flags {
            assert!(
                spellings.iter().any(|f| mentions(usage(), f)),
                "usage() omits {spellings:?}"
            );
            assert!(
                spellings.iter().any(|f| mentions(&synopsis, f)),
                "the module-doc synopsis omits {spellings:?}"
            );
        }
    }
}
