//! `ancstr` — command-line symmetry-constraint extraction.
//!
//! ```text
//! ancstr extract <netlist.sp> [-o constraints.txt] [--model model.txt]
//!                [--epochs N] [--seed S] [--groups]
//!                [--constraint-format magical|align-json]
//!                [--run-dir DIR] [--resume] [--checkpoint-every N]
//!                [--time-budget SECS] [--trace-out FILE]
//!                [--log-format text|json] [-v|--quiet]
//! ancstr train   <netlist.sp>... --model-out model.txt [--epochs N]
//!                [--run-dir DIR] [--resume] [--checkpoint-every N]
//!                [--time-budget SECS] [--trace-out FILE]
//! ancstr stats   <netlist.sp>
//! ancstr corpus  --devices N [--seed S] [-o netlist.sp]
//! ancstr obs-check [--trace FILE] [--require-stages a,b,..]
//!                  [--require-epoch-events] [--prom FILE] [--align FILE]
//! ancstr obs-report <trace.jsonl>...
//! ancstr serve   --model model.txt [--port N] [--workers N]
//!                [--queue-depth N] [--cache-entries N]
//!                [--peers host:port,..] [--batch-max N] [--model-slots N]
//!                [--trace-out FILE] [--log-format text|json] [-v|--quiet]
//! ancstr bench   [netlist.sp...] [-o report.json] [--epochs N] [--seed S]
//!                [--threads N] [--stress-devices N] [--repeat N]
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
//! `bench` times each pipeline stage (graph-build, train, embed,
//! detect) on the ADC1–ADC5 suite — or on the given netlists — at 1, 2,
//! and N threads, writes a JSON report (default `BENCH.json`) with
//! per-kernel attribution (matmul/spmm/row_norms calls, element counts,
//! and wall time per thread count), and fails with exit code 1 if any
//! thread count changes the extraction output hash. A `stress`
//! stage additionally times inductive extraction (graph-build + embed +
//! pruned detect) over a generated `--stress-devices` corpus (default
//! 10000; 0 disables the stage's work but keeps its rows so report
//! consumers see a stable stage set). `--repeat N` runs each
//! thread-count sweep N times and reports the per-stage
//! minimum wall time — the standard way to push scheduler noise below
//! the effect being measured — while asserting the output hash is
//! identical on every repetition.
//!
//! `serve` keeps a trained model warm in a long-lived HTTP daemon
//! (`ancstr-serve`): `POST /v1/extract` takes a SPICE netlist body and
//! returns the constraint set as JSON (byte-identical `constraints_text`
//! to one-shot `extract --model`), `GET /healthz` and `GET /metrics`
//! report liveness and Prometheus metrics, `POST /v1/models` hot-swaps
//! the model from a sealed artifact, and `POST /v1/shutdown` drains and
//! exits. On startup the daemon prints `listening on <addr>` to stdout
//! (use `--port 0` for an ephemeral port and parse that line). The
//! companion `loadgen` binary drives a running daemon for smoke tests
//! and throughput baselines.
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
//! byte-identical with and without these flags. `obs-check` re-validates a trace file and/or a
//! `metrics.prom` exposition line-by-line (used by CI). `obs-report`
//! merges one or more JSONL trace files by trace id and renders
//! per-trace waterfalls plus aggregate per-stage latency quantiles —
//! feed it the `--trace-out` files from several serve replicas to see
//! a forwarded request as a single cross-replica timeline.
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
use std::time::{Duration, Instant};

use ancstr_core::groups::merged_groups_sorted;
use ancstr_core::runstore::{RunOptions, RunSession, StageStatus};
use ancstr_core::{
    detect_constraints_pruned, load_netlist, render_groups, render_metrics_table,
    write_constraints, ExtractError, ExtractorConfig, FitOutcome, PipelineObs, RunCtx,
    SymmetryExtractor, STAGES,
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
    "usage:\n  ancstr extract <netlist.sp> [-o FILE] [--model FILE] [--epochs N] [--seed S] [--threads N] [--groups] [--constraint-format magical|align-json] [--dot FILE] [--metrics FILE] [--run-dir DIR] [--resume] [--checkpoint-every N] [--time-budget SECS] [--trace-out FILE] [--log-format text|json] [-v|--quiet]\n  ancstr train <netlist.sp>... --model-out FILE [--epochs N] [--seed S] [--threads N] [--run-dir DIR] [--resume] [--checkpoint-every N] [--time-budget SECS] [--trace-out FILE] [--log-format text|json] [-v|--quiet]\n  ancstr stats <netlist.sp>\n  ancstr corpus --devices N [--seed S] [-o FILE]\n  ancstr obs-check [--trace FILE] [--require-stages a,b,..] [--require-epoch-events] [--prom FILE] [--align FILE]\n  ancstr obs-report <trace.jsonl>...\n  ancstr serve --model FILE [--port N] [--workers N] [--queue-depth N] [--cache-entries N] [--default-deadline-ms N] [--chaos] [--metrics FILE] [--threads N] [--trace-out FILE] [--log-format text|json] [-v|--quiet]\n  ancstr bench [netlist.sp...] [-o report.json] [--epochs N] [--seed S] [--threads N] [--stress-devices N] [--repeat N]"
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
        if matches!(cmd, "stats" | "corpus" | "obs-check" | "obs-report" | "bench") {
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
    // corpus / bench stress sizing
    devices: Option<usize>,
    stress_devices: Option<usize>,
    repeat: Option<usize>,
    // serve tunables
    port: Option<u16>,
    workers: Option<usize>,
    queue_depth: Option<usize>,
    cache_entries: Option<usize>,
    default_deadline_ms: Option<u64>,
    chaos: bool,
    peers: Option<String>,
    batch_max: Option<usize>,
    model_slots: Option<usize>,
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
        stress_devices: None,
        repeat: None,
        port: None,
        workers: None,
        queue_depth: None,
        cache_entries: None,
        default_deadline_ms: None,
        chaos: false,
        peers: None,
        batch_max: None,
        model_slots: None,
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
            "--stress-devices" => {
                args.stress_devices = Some(
                    take("--stress-devices")?
                        .parse()
                        .map_err(|_| "bad --stress-devices (want an integer; 0 disables)")?,
                );
            }
            "--repeat" => {
                let n: usize = take("--repeat")?
                    .parse()
                    .map_err(|_| "bad --repeat (want a positive integer)")?;
                if n == 0 {
                    return Err("--repeat must be at least 1".to_owned());
                }
                args.repeat = Some(n);
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
            "--peers" => args.peers = Some(take("--peers")?),
            "--batch-max" => {
                let n: usize = take("--batch-max")?
                    .parse()
                    .map_err(|_| "bad --batch-max (want a positive integer)")?;
                if n == 0 {
                    return Err("--batch-max must be at least 1".to_owned());
                }
                args.batch_max = Some(n);
            }
            "--model-slots" => {
                let n: usize = take("--model-slots")?
                    .parse()
                    .map_err(|_| "bad --model-slots (want a positive integer)")?;
                if n == 0 {
                    return Err("--model-slots must be at least 1".to_owned());
                }
                args.model_slots = Some(n);
            }
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
/// constraint set (or merged groups) to `-o`/stdout.
fn emit_outputs(
    ctx: &ObsCtx,
    args: &Args,
    build: &BuildOptions,
    flat: &FlatCircuit,
    constraints: &ConstraintSet,
) -> Result<(), CliError> {
    if let Some(dot_path) = &args.dot {
        use ancstr_graph::dot::{to_dot, DotOptions};
        use ancstr_graph::HetMultigraph;
        let g = HetMultigraph::from_circuit(flat, build);
        let constrained: std::collections::HashSet<_> = constraints
            .iter()
            .flat_map(|c| [c.pair.lo(), c.pair.hi()])
            .collect();
        let dot = to_dot(
            &g,
            &DotOptions::default(),
            |v| flat.devices()[g.device_index(v)].path.clone(),
            |v| constrained.contains(&flat.devices()[g.device_index(v)].node),
        );
        fs::write(dot_path, dot)
            .map_err(|e| CliError::Io { path: dot_path.clone(), detail: e.to_string() })?;
        ctx.log.info(format!("wrote {dot_path}"));
    }

    // The metrics table and the Prometheus quality gauges share one
    // source of truth (`ancstr_core::metrics::level_confusions`).
    if ctx.run.obs.enabled() {
        ctx.run.obs.record_quality(flat, constraints);
    }
    if let Some(path) = &args.metrics {
        fs::write(path, render_metrics_table(flat, constraints))
            .map_err(|e| CliError::Io { path: path.clone(), detail: e.to_string() })?;
        ctx.log.info(format!("wrote {path}"));
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
    emit_outputs(ctx, &args, &extractor.config().build, &flat, &result.detection.constraints)
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

/// Names of the timed pipeline stages, in execution order. `stress` is
/// the scale-sweep stage: inductive extraction (graph-build + embed +
/// detect) over a generated `--stress-devices` corpus.
const BENCH_STAGES: [&str; 6] = ["graph-build", "train", "embed", "detect", "stress", "total"];

/// FNV-1a over a byte slice, continuing from `hash` — the bench report's
/// output fingerprint (constraints text, scores, warnings).
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Time every pipeline stage on the ADC1–ADC5 suite (or the given
/// netlists) at 1, 2, and N threads, write a JSON report, and fail if
/// any thread count changes the extraction output.
///
/// The report is the PR's performance artifact: one record per
/// `(stage, threads)` with the summed wall time over the suite and the
/// speedup relative to the single-thread run, plus the per-thread-count
/// output hash CI gates on. A `kernels` section attributes each sweep's
/// time to the individual compute kernels (matmul, spmm, row_norms,
/// parallel-region overhead) so a stage-level regression can be pinned
/// on the kernel that caused it.
fn cmd_bench(ctx: &ObsCtx, args: Args) -> Result<(), CliError> {
    if args.run_dir.is_some() || args.resume {
        return Err(usage_err("bench does not support --run-dir/--resume"));
    }
    let out_path = args.output.clone().unwrap_or_else(|| "BENCH.json".to_owned());

    let suite: Vec<(String, FlatCircuit)> = if args.positional.is_empty() {
        ancstr_bench::adc_dataset()
            .into_iter()
            .map(|b| (b.name.to_owned(), b.flat))
            .collect()
    } else {
        let mut v = Vec::with_capacity(args.positional.len());
        for p in &args.positional {
            v.push((p.clone(), load(p, ctx)?));
        }
        v
    };

    let config = config_with(args.epochs, args.seed);
    let obs = &ctx.run.obs;
    let max_threads = args.threads.unwrap_or_else(ancstr_par::available_parallelism);
    let mut counts = vec![1usize, 2, max_threads];
    counts.sort_unstable();
    counts.dedup();
    let repeat = args.repeat.unwrap_or(1);

    // The scale-sweep corpus: generated once (deterministic in devices
    // and seed), then extracted inductively at every thread count.
    let stress_devices = args.stress_devices.unwrap_or(10_000);
    let stress_flat = if stress_devices > 0 {
        let seed = args.seed.unwrap_or(7);
        ctx.log.info(format!(
            "bench: generating {stress_devices}-device stress corpus (seed {seed})"
        ));
        let nl = ancstr_circuits::stress::stress_system(stress_devices, seed);
        Some(FlatCircuit::elaborate(&nl).map_err(|err| CliError::Pipeline {
            path: "stress".to_owned(),
            err: ExtractError::Elaborate(err),
        })?)
    } else {
        None
    };

    // wall[c][s] = summed milliseconds for thread count `counts[c]`,
    // stage `BENCH_STAGES[s]`.
    let mut wall = vec![[0f64; BENCH_STAGES.len()]; counts.len()];
    let mut hashes = vec![0u64; counts.len()];
    // kernels[c] = per-kernel counters accumulated over the whole suite
    // for one thread-count sweep — the attribution that says *which*
    // kernel a stage's wall time went to.
    let mut kernels = vec![Vec::new(); counts.len()];
    ancstr_par::profile::set_enabled(true);

    // The repeat loop is OUTERMOST, not per-cell: on throttled shared
    // hardware the machine drifts over the minutes a sweep takes, so
    // back-to-back repetitions of one cell share the same weather while
    // cells run minutes apart do not. Interleaving spreads every cell's
    // samples across the whole run and the per-stage minimum then
    // compares like with like.
    for rep in 0..repeat {
        if repeat > 1 {
            ctx.log.info(format!("bench: repetition {}/{repeat}", rep + 1));
        }
        for (ci, &t) in counts.iter().enumerate() {
            ancstr_par::set_threads(t);
            if rep == 0 {
                ctx.log.info(format!(
                    "bench: {} circuits at {t} thread(s){}",
                    suite.len(),
                    if repeat > 1 {
                        format!(", min of {repeat} interleaved runs")
                    } else {
                        String::new()
                    }
                ));
            }
            ancstr_par::profile::reset();
            let mut pass = [0f64; BENCH_STAGES.len()];
            let mut hash = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
            for (name, flat) in &suite {
                let pipeline =
                    |err: ExtractError| CliError::Pipeline { path: name.clone(), err };
                let total0 = Instant::now();

                let t0 = Instant::now();
                let mut extractor =
                    SymmetryExtractor::try_new(config.clone()).map_err(pipeline)?;
                let tg = extractor.train_graph(flat, obs);
                pass[0] += t0.elapsed().as_secs_f64() * 1e3;

                let t1 = Instant::now();
                extractor.try_fit(&[flat], &ctx.run, None).map_err(pipeline)?;
                pass[1] += t1.elapsed().as_secs_f64() * 1e3;

                let t2 = Instant::now();
                let z = embed_one(&extractor, &tg, obs).map_err(pipeline)?;
                pass[2] += t2.elapsed().as_secs_f64() * 1e3;

                let t3 = Instant::now();
                let detection = extractor.detect(flat, &z, obs);
                pass[3] += t3.elapsed().as_secs_f64() * 1e3;
                pass[5] += total0.elapsed().as_secs_f64() * 1e3;

                // Fingerprint everything detection produced, in
                // order: exported constraints, every score bit
                // pattern, warnings.
                hash = fnv1a(
                    hash,
                    write_constraints(flat, &detection.constraints).as_bytes(),
                );
                for s in &detection.scored {
                    hash = fnv1a(hash, &s.score.to_bits().to_le_bytes());
                    hash = fnv1a(hash, &[u8::from(s.accepted)]);
                    hash = fnv1a(hash, &s.threshold.to_bits().to_le_bytes());
                }
                for w in &detection.warnings {
                    hash = fnv1a(hash, w.to_string().as_bytes());
                }
            }
            // Stress stage: inductive extraction (no training — the
            // seeded initial model is deterministic, which is all
            // the identity check needs) over the generated corpus,
            // through the pruned detection prepass (its constraints
            // are proven identical to exact detection, so the hash
            // still pins every thread count to one output).
            if let Some(flat) = &stress_flat {
                let pipeline = |err: ExtractError| CliError::Pipeline {
                    path: "stress".to_owned(),
                    err,
                };
                let t4 = Instant::now();
                let extractor =
                    SymmetryExtractor::try_new(config.clone()).map_err(pipeline)?;
                let tg = extractor.train_graph(flat, obs);
                let z = embed_one(&extractor, &tg, obs).map_err(pipeline)?;
                drop(tg);
                let detection =
                    detect_constraints_pruned(flat, &z, &config.thresholds, &config.embed);
                pass[4] += t4.elapsed().as_secs_f64() * 1e3;
                hash = fnv1a(
                    hash,
                    write_constraints(flat, &detection.constraints).as_bytes(),
                );
                if rep == 0 {
                    ctx.log.info(format!(
                        "bench: stress {} devices -> {} constraints at {t} thread(s)",
                        flat.devices().len(),
                        detection.constraints.len()
                    ));
                }
            }
            // Min-of-N per stage: repetitions exist to shake off
            // scheduler noise, and the minimum is the run the
            // machine least interfered with. The output itself must
            // not vary run to run — that would be nondeterminism,
            // which is exactly what this tool exists to catch.
            if rep == 0 {
                hashes[ci] = hash;
                wall[ci] = pass;
            } else {
                if hashes[ci] != hash {
                    return Err(CliError::Validation(format!(
                        "bench: output hash changed between repetitions at {t} \
                         thread(s) ({:016x} then {hash:016x}) — \
                         the pipeline is nondeterministic",
                        hashes[ci]
                    )));
                }
                for (acc, &ms) in wall[ci].iter_mut().zip(&pass) {
                    *acc = acc.min(ms);
                }
            }
            kernels[ci] = ancstr_par::profile::snapshot();
        }
    }
    // Restore the CLI-wide thread cap the sweep overrode.
    ancstr_par::set_threads(args.threads.unwrap_or(0));
    ancstr_par::profile::set_enabled(false);

    let identical = hashes.iter().all(|&h| h == hashes[0]);
    let names: Vec<String> = suite.iter().map(|(n, _)| format!("\"{n}\"")).collect();
    let mut records = String::new();
    for (si, stage) in BENCH_STAGES.iter().enumerate() {
        for (ci, &t) in counts.iter().enumerate() {
            let ms = wall[ci][si];
            let speedup = if ms > 0.0 { wall[0][si] / ms } else { 1.0 };
            if !records.is_empty() {
                records.push_str(",\n");
            }
            records.push_str(&format!(
                "    {{\"stage\": \"{stage}\", \"threads\": {t}, \
                 \"wall_ms\": {ms:.3}, \"speedup\": {speedup:.3}}}"
            ));
        }
    }
    let hash_entries: Vec<String> = counts
        .iter()
        .zip(&hashes)
        .map(|(t, h)| format!("\"{t}\": \"{h:016x}\""))
        .collect();
    let mut kernel_records = String::new();
    for (ci, &t) in counts.iter().enumerate() {
        for s in kernels[ci].iter().filter(|s| s.calls > 0) {
            if !kernel_records.is_empty() {
                kernel_records.push_str(",\n");
            }
            kernel_records.push_str(&format!(
                "    {{\"kernel\": \"{}\", \"threads\": {t}, \
                 \"calls\": {}, \"elements\": {}, \"wall_ms\": {:.3}}}",
                s.name,
                s.calls,
                s.elems,
                s.wall_ns as f64 / 1e6,
            ));
        }
    }
    let report = format!(
        "{{\n  \"schema\": \"ancstr-bench-v3\",\n  \"suite\": [{}],\n  \
         \"stress_devices\": {stress_devices},\n  \"repeat\": {repeat},\n  \
         \"thread_counts\": {counts:?},\n  \"output_hashes\": {{{}}},\n  \
         \"identical_across_threads\": {identical},\n  \
         \"records\": [\n{records}\n  ],\n  \
         \"kernels\": [\n{kernel_records}\n  ]\n}}\n",
        names.join(", "),
        hash_entries.join(", "),
    );
    fs::write(&out_path, &report)
        .map_err(|e| CliError::Io { path: out_path.clone(), detail: e.to_string() })?;
    ctx.log.info(format!("wrote {out_path}"));

    println!("{:<12} {:>8} {:>12} {:>9}", "stage", "threads", "wall_ms", "speedup");
    for (si, stage) in BENCH_STAGES.iter().enumerate() {
        for (ci, &t) in counts.iter().enumerate() {
            let ms = wall[ci][si];
            let speedup = if ms > 0.0 { wall[0][si] / ms } else { 1.0 };
            println!("{stage:<12} {t:>8} {ms:>12.3} {speedup:>8.2}x");
        }
    }
    println!();
    println!(
        "{:<12} {:>8} {:>10} {:>14} {:>12}",
        "kernel", "threads", "calls", "elements", "wall_ms"
    );
    for (ci, &t) in counts.iter().enumerate() {
        for s in kernels[ci].iter().filter(|s| s.calls > 0) {
            println!(
                "{:<12} {t:>8} {:>10} {:>14} {:>12.3}",
                s.name,
                s.calls,
                s.elems,
                s.wall_ns as f64 / 1e6,
            );
        }
    }

    if !identical {
        let rendered: Vec<String> =
            counts.iter().zip(&hashes).map(|(t, h)| format!("{t}: {h:016x}")).collect();
        return Err(CliError::Validation(format!(
            "extraction output diverged across thread counts: {rendered:?}"
        )));
    }
    println!("output identical across thread counts {counts:?}");
    Ok(())
}

/// The embed stage on one graph.
fn embed_one(
    extractor: &SymmetryExtractor,
    tg: &TrainGraph,
    obs: &PipelineObs,
) -> Result<ancstr_nn::Matrix, ExtractError> {
    extractor.embed(&[tg], obs).pop().expect("one result per graph")
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

/// Merge one or more JSONL trace files — typically one per serve
/// replica — into per-trace waterfalls plus aggregate per-stage
/// latency quantiles. Spans sharing a trace id are stitched across
/// files (a forwarded request shows up as one waterfall spanning both
/// replicas); clock skew between files is warned about, not fatal.
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
    for w in &report.warnings {
        ctx.log.warn(w.clone());
    }
    ctx.log.info(format!(
        "{} trace(s) across {} file(s), {} stitched from multiple replicas",
        report.traces,
        inputs.len(),
        report.merged,
    ));
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
    let registry = match args.model_slots {
        Some(n) => ancstr_serve::ModelRegistry::load_with_slots(&text, model_path, n),
        None => ancstr_serve::ModelRegistry::load(&text, model_path),
    }
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
    if let Some(p) = &args.peers {
        cfg.peers =
            p.split(',').map(|s| s.trim().to_owned()).filter(|s| !s.is_empty()).collect();
        if !cfg.peers.is_empty() {
            ctx.log.info(format!(
                "fleet mode: {} peer(s), cache keys partitioned by rendezvous hash",
                cfg.peers.len()
            ));
        }
    }
    if let Some(n) = args.batch_max {
        cfg.batch_max = n;
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

    // Cap the compute layer before any pipeline work; `bench` manages
    // the count itself (sweeping 1, 2, N) and reads the cap as its N.
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
        "bench" => cmd_bench(&ctx, args),
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
