//! Observability integration tests, covering the PR's two acceptance
//! criteria end to end:
//!
//! 1. Observation is strictly read-only: a traced run produces
//!    byte-identical pipeline outputs (model text, constraints, metrics
//!    table) to an unobserved run with the same seed.
//! 2. A fully observed run emits a schema-valid JSONL trace covering
//!    every one of the seven pipeline stages plus per-epoch training
//!    telemetry, and a Prometheus exposition that re-parses.
//!
//! Both library-level (in-memory tracer) and binary-level (`--trace-out`
//! + `obs-check`) paths are exercised.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

use ancstr_core::{
    render_metrics_table, write_constraints, ExtractorConfig, PipelineObs, RunCtx,
    SymmetryExtractor, STAGES,
};
use ancstr_netlist::parse::parse_spice;
use ancstr_netlist::FlatCircuit;
use ancstr_obs::{validate_exposition, validate_trace, Tracer};

const NETLIST: &str = "\
.subckt sa inp inn outp outn clk vdd vss
*.class comparator
M1 x1 inp tail vss nch_lvt w=6u l=0.1u
M2 x2 inn tail vss nch_lvt w=6u l=0.1u
M3 outn outp x1 vss nch_lvt w=6u l=0.1u
M4 outp outn x2 vss nch_lvt w=6u l=0.1u
M5 outn outp vdd vdd pch_lvt w=12u l=0.1u
M6 outp outn vdd vdd pch_lvt w=12u l=0.1u
M7 tail clk vss vss nch w=12u l=0.1u
.ends
";

const EPOCHS: usize = 12;

fn fixture() -> FlatCircuit {
    let nl = parse_spice(NETLIST).expect("valid SPICE");
    FlatCircuit::elaborate(&nl).expect("elaborates")
}

fn quick_config() -> ExtractorConfig {
    let mut cfg = ExtractorConfig::default();
    cfg.train.epochs = EPOCHS;
    cfg.train.seed = 7;
    cfg.gnn.seed = 7;
    cfg
}

/// Run fit + extract and return the three user-visible artifacts:
/// (model text, constraints text, metrics table).
fn run_pipeline(obs: Option<&PipelineObs>) -> (String, String, String) {
    let flat = fixture();
    let mut ex = SymmetryExtractor::try_new(quick_config()).expect("config is valid");
    let result = match obs {
        Some(obs) => {
            let ctx = RunCtx::observed(obs.clone());
            ex.try_fit(&[&flat], &ctx, None).expect("fit");
            ex.try_extract(&flat, None, &ctx, None).expect("extract")
        }
        None => {
            ex.try_fit(&[&flat], &RunCtx::default(), None).expect("fit");
            ex.try_extract(&flat, None, &RunCtx::default(), None).expect("extract")
        }
    };
    (
        ex.model().to_text(),
        write_constraints(&flat, &result.detection.constraints),
        render_metrics_table(&flat, &result.detection.constraints),
    )
}

/// Criterion 1 (library level): tracing a run does not change a single
/// byte of its outputs — model, constraints, and metrics table are all
/// identical with a disabled handle, an enabled handle, and a full
/// in-memory tracer.
#[test]
fn observed_run_is_byte_identical_to_plain_run() {
    let plain = run_pipeline(None);
    let disabled = run_pipeline(Some(&PipelineObs::disabled()));
    let (tracer, buf) = Tracer::in_memory();
    let enabled = PipelineObs::new(Some(tracer));
    let traced = run_pipeline(Some(&enabled));
    enabled.flush();

    assert_eq!(plain.0, disabled.0, "model text drifted under a disabled handle");
    assert_eq!(plain.0, traced.0, "model text drifted under tracing");
    assert_eq!(plain.1, traced.1, "constraints drifted under tracing");
    assert_eq!(plain.2, traced.2, "metrics table drifted under tracing");
    // And the trace itself was real, not empty.
    assert!(
        !validate_trace(&buf.contents()).expect("trace validates").is_empty(),
        "tracer saw no events"
    );
}

/// Criterion 2 (library level): one observed fit + extract covers all
/// seven stages with schema-valid spans, exactly one epoch event per
/// configured epoch, and a metrics registry that renders to valid
/// Prometheus exposition (also via the atomic `write_prom` path).
#[test]
fn observed_run_covers_all_stages_with_epoch_telemetry() {
    let dir = workdir("coverage");
    let sp = dir.join("sa.sp");
    fs::write(&sp, NETLIST).unwrap();

    let (tracer, buf) = Tracer::in_memory();
    let obs = PipelineObs::new(Some(tracer));
    let flat = ancstr_core::load_netlist(sp.to_str().unwrap(), &obs).expect("loads");
    let mut ex = SymmetryExtractor::try_new(quick_config()).expect("config is valid");
    let ctx = RunCtx::observed(obs.clone());
    ex.try_fit(&[&flat], &ctx, None).expect("fit");
    ex.try_extract(&flat, None, &ctx, None).expect("extract");
    obs.flush();

    let events = validate_trace(&buf.contents()).expect("schema-valid trace");
    for stage in STAGES {
        assert!(
            events.iter().any(|e| e.kind == "span_start" && e.stage == stage),
            "stage `{stage}` has no span in the trace"
        );
    }
    let epochs = events.iter().filter(|e| e.kind == "event" && e.span == "epoch").count();
    assert_eq!(epochs, EPOCHS, "one telemetry event per training epoch");
    // Epoch events nest under the train span.
    let train_id = events
        .iter()
        .find(|e| e.kind == "span_start" && e.stage == "train" && e.span == "train")
        .expect("train span present")
        .id;
    assert!(
        events.iter().filter(|e| e.span == "epoch").all(|e| e.parent == train_id),
        "epoch events must be children of the train span"
    );

    let prom = obs.metrics().render();
    validate_exposition(&prom).expect("valid Prometheus exposition");
    assert!(prom.contains("ancstr_train_epochs_total"), "{prom}");
    assert!(prom.contains("ancstr_stage_duration_seconds_bucket"), "{prom}");

    let path = dir.join("metrics.prom");
    obs.write_prom(&path).expect("atomic write");
    let reread = fs::read_to_string(&path).unwrap();
    assert_eq!(reread, prom, "write_prom altered the exposition");
}

// ---- binary-level tests --------------------------------------------------

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ancstr"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ancstr-obs-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp workdir");
    dir
}

/// Criterion 1 (binary level): `-o` output is byte-identical with and
/// without `--trace-out`, and the produced trace passes `obs-check`
/// with full stage coverage and epoch telemetry required.
#[test]
fn cli_trace_out_does_not_change_outputs_and_validates() {
    let dir = workdir("cli-trace");
    let sp = dir.join("sa.sp");
    fs::write(&sp, NETLIST).unwrap();
    let plain_out = dir.join("plain.sym");
    let traced_out = dir.join("traced.sym");
    let trace = dir.join("trace.jsonl");

    let common = ["--epochs", "12", "--seed", "3"];
    let out = bin().arg("extract").arg(&sp).args(common).arg("-o").arg(&plain_out)
        .output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = bin().arg("extract").arg(&sp).args(common).arg("-o").arg(&traced_out)
        .arg("--trace-out").arg(&trace)
        .output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        fs::read(&plain_out).unwrap(),
        fs::read(&traced_out).unwrap(),
        "--trace-out changed the constraint output"
    );

    // Self-contained validation via the library…
    let events = validate_trace(&fs::read_to_string(&trace).unwrap()).expect("valid trace");
    for stage in STAGES {
        assert!(
            events.iter().any(|e| e.kind == "span_start" && e.stage == stage),
            "stage `{stage}` missing from CLI trace"
        );
    }
    // …and via the `obs-check` subcommand CI uses.
    let out = bin().arg("obs-check").arg("--trace").arg(&trace)
        .args(["--require-stages", "all", "--require-epoch-events"])
        .output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // A malformed trace must fail obs-check with exit 1.
    let broken = dir.join("broken.jsonl");
    fs::write(&broken, "{\"ts_ns\":1,\"kind\":\"bogus\"}\n").unwrap();
    let out = bin().arg("obs-check").arg("--trace").arg(&broken).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
}

/// A durable run writes `<run-dir>/metrics.prom` that re-parses as
/// Prometheus exposition (checked via `obs-check --prom`).
#[test]
fn durable_run_writes_valid_metrics_prom() {
    let dir = workdir("cli-prom");
    let sp = dir.join("sa.sp");
    fs::write(&sp, NETLIST).unwrap();
    let run = dir.join("run");

    let out = bin().arg("extract").arg(&sp)
        .args(["--epochs", "12", "--seed", "3"])
        .arg("--run-dir").arg(&run)
        .output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let prom = run.join("metrics.prom");
    let text = fs::read_to_string(&prom).expect("metrics.prom written");
    let samples = validate_exposition(&text).expect("valid exposition");
    assert!(samples > 0);
    assert!(text.contains("ancstr_stage_runs_total"), "{text}");

    let out = bin().arg("obs-check").arg("--prom").arg(&prom).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

/// `--log-format json` makes every stderr line a parseable JSON object
/// with `level` and `msg` keys; `--quiet` silences progress entirely.
#[test]
fn json_logs_parse_and_quiet_silences_progress() {
    let dir = workdir("cli-logs");
    let sp = dir.join("sa.sp");
    fs::write(&sp, NETLIST).unwrap();

    let out = bin().arg("extract").arg(&sp)
        .args(["--epochs", "12", "--log-format", "json"])
        .output().unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.trim().is_empty(), "progress expected on stderr");
    for line in stderr.lines() {
        let parsed = ancstr_obs::json::parse(line).expect("stderr line is JSON");
        let obj = parsed.as_obj().expect("stderr line is a JSON object");
        assert!(obj.contains_key("level") && obj.contains_key("msg"), "{line}");
    }

    let out = bin().arg("extract").arg(&sp)
        .args(["--epochs", "12", "--quiet"])
        .output().unwrap();
    assert!(out.status.success());
    assert!(
        out.stderr.is_empty(),
        "--quiet left stderr output: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Satellite 6: a watchdog-cancelled run (exit 10) still flushes
/// observability — the partial `--metrics` file records the abort, the
/// trace ends with a `run_aborted` event, and `metrics.prom` exists
/// and validates.
#[test]
fn aborted_run_flushes_partial_metrics_and_run_aborted_event() {
    let dir = workdir("cli-abort");
    let sp = dir.join("sa.sp");
    fs::write(&sp, NETLIST).unwrap();
    let run = dir.join("run");
    let metrics = dir.join("metrics.txt");
    let trace = dir.join("trace.jsonl");

    // Deterministic cancellation: the run store honours this env hook
    // as if the deadline watchdog had fired after the 2nd checkpoint.
    let out = bin().arg("extract").arg(&sp)
        .args(["--epochs", "50000", "--seed", "3", "--checkpoint-every", "5",
               "--time-budget", "3600"])
        .arg("--run-dir").arg(&run)
        .arg("--metrics").arg(&metrics)
        .arg("--trace-out").arg(&trace)
        .env("ANCSTR_TEST_CANCEL_AFTER_CHECKPOINTS", "2")
        .output().unwrap();
    assert_eq!(out.status.code(), Some(10), "{}", String::from_utf8_lossy(&out.stderr));

    let partial = fs::read_to_string(&metrics).expect("partial metrics written on abort");
    assert!(partial.contains("run_aborted exit_code=10"), "{partial}");

    let events = validate_trace(&fs::read_to_string(&trace).unwrap())
        .expect("aborted trace still validates");
    assert!(
        events.iter().any(|e| e.kind == "event" && e.span == "run_aborted"),
        "no run_aborted event in the trace"
    );

    let prom = fs::read_to_string(run.join("metrics.prom")).expect("metrics.prom on abort");
    validate_exposition(&prom).expect("valid exposition after abort");
    assert!(prom.contains("ancstr_run_aborted_total 1"), "{prom}");
}

/// A self-trained `extract` builds the input's graph once: inference
/// reuses the training graph instead of running `graph_build` and
/// `feature_init` a second time.
#[test]
fn self_trained_cli_extract_builds_the_graph_once() {
    let dir = workdir("cli-one-build");
    let sp = dir.join("sa.sp");
    fs::write(&sp, NETLIST).unwrap();
    let trace = dir.join("trace.jsonl");

    let out = bin().arg("extract").arg(&sp)
        .args(["--epochs", "12", "--seed", "3"])
        .arg("-o").arg(dir.join("out.sym"))
        .arg("--trace-out").arg(&trace)
        .output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let events = validate_trace(&fs::read_to_string(&trace).unwrap()).expect("valid trace");
    for stage in ["graph_build", "feature_init", "train", "embed", "detect"] {
        let spans =
            events.iter().filter(|e| e.kind == "span_start" && e.stage == stage).count();
        assert_eq!(spans, 1, "`{stage}` ran {spans} times");
    }
}
