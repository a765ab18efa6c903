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
    SymmetryExtractor, MINOR_FAULTS_FIELD, PEAK_RSS_FIELD, STAGES, TAPE_KB_FIELD,
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

/// A traced stage span's end carries the process's peak RSS so far
/// (`VmHWM`) where `/proc/self/status` exists, and omits it elsewhere.
/// Nothing else carries it, and the mark never falls from one stage
/// end to the next.
#[test]
fn stage_span_ends_carry_the_peak_rss_high_water_mark() {
    let dir = workdir("peak-rss");
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
    let has_proc = ancstr_obs::peak_rss_kb().is_some();
    let mut last = 0.0;
    let mut stage_ends = 0;
    for e in &events {
        let hwm = e.fields.get(PEAK_RSS_FIELD).map(|v| v.as_num().expect("numeric"));
        let is_stage_end = e.kind == "span_end" && STAGES.contains(&e.stage.as_str())
            && e.span == e.stage;
        if !is_stage_end || !has_proc {
            assert_eq!(hwm, None, "{} `{}` must not carry {PEAK_RSS_FIELD}", e.kind, e.span);
            continue;
        }
        let kb = hwm.unwrap_or_else(|| panic!("stage `{}` end lacks {PEAK_RSS_FIELD}", e.stage));
        assert!(kb > 0.0 && kb.fract() == 0.0, "{kb}");
        assert!(kb >= last, "high-water mark fell from {last} to {kb} at `{}`", e.stage);
        last = kb;
        stage_ends += 1;
    }
    if has_proc {
        assert!(stage_ends >= STAGES.len(), "only {stage_ends} stage span ends");
    }
}

/// Where `/proc/self/stat` exists, a traced stage span's end carries
/// the process's minor page faults so far, which never fall from one
/// stage end to the next, and every `epoch` event carries the faults
/// taken since the previous epoch. Nothing else carries the field.
#[test]
fn stage_ends_and_epochs_carry_minor_page_faults() {
    let (tracer, buf) = Tracer::in_memory();
    let obs = PipelineObs::new(Some(tracer));
    let flat = fixture();
    let mut ex = SymmetryExtractor::try_new(quick_config()).expect("config is valid");
    let ctx = RunCtx::observed(obs.clone());
    ex.try_fit(&[&flat], &ctx, None).expect("fit");
    ex.try_extract(&flat, None, &ctx, None).expect("extract");
    obs.flush();

    let events = validate_trace(&buf.contents()).expect("schema-valid trace");
    let has_proc = ancstr_obs::minor_faults().is_some();
    let (mut last, mut stage_ends, mut epochs) = (0.0, 0, 0);
    for e in &events {
        let faults = e.fields.get(MINOR_FAULTS_FIELD).map(|v| v.as_num().expect("numeric"));
        let is_stage_end = e.kind == "span_end" && STAGES.contains(&e.stage.as_str())
            && e.span == e.stage;
        let is_epoch = e.kind == "event" && e.span == "epoch";
        if !has_proc || !(is_stage_end || is_epoch) {
            assert_eq!(faults, None, "{} `{}` must not carry {MINOR_FAULTS_FIELD}", e.kind, e.span);
            continue;
        }
        let n = faults.unwrap_or_else(|| panic!("{} `{}` lacks {MINOR_FAULTS_FIELD}", e.kind, e.span));
        assert!(n >= 0.0 && n.fract() == 0.0, "{n}");
        if is_epoch {
            epochs += 1;
        } else {
            assert!(n >= last, "fault count fell from {last} to {n} at `{}`", e.stage);
            last = n;
            stage_ends += 1;
        }
    }
    if has_proc {
        assert!(stage_ends >= STAGES.len(), "only {stage_ends} stage span ends");
        assert_eq!(epochs, EPOCHS, "every epoch event carries its faults");
    }
}

/// Every `epoch` event, and nothing else, carries the KiB the training
/// step's tape held at the epoch's end. A step records into the buffers
/// the previous step freed, so the figure levels off: a buffer grows
/// only while best-fit reuse is still settling which buffer serves
/// which value.
#[test]
fn epochs_carry_the_step_tapes_held_memory() {
    let (tracer, buf) = Tracer::in_memory();
    let obs = PipelineObs::new(Some(tracer));
    let flat = fixture();
    let mut ex = SymmetryExtractor::try_new(quick_config()).expect("config is valid");
    ex.try_fit(&[&flat], &RunCtx::observed(obs.clone()), None).expect("fit");
    obs.flush();

    let events = validate_trace(&buf.contents()).expect("schema-valid trace");
    let mut held = Vec::new();
    for e in &events {
        let kb = e.fields.get(TAPE_KB_FIELD).map(|v| v.as_num().expect("numeric"));
        if e.kind == "event" && e.span == "epoch" {
            let kb = kb.unwrap_or_else(|| panic!("epoch event {} lacks {TAPE_KB_FIELD}", e.id));
            assert!(kb > 0.0 && kb.fract() == 0.0, "{TAPE_KB_FIELD} {kb}");
            held.push(kb);
        } else {
            assert_eq!(kb, None, "{} `{}` must not carry {TAPE_KB_FIELD}", e.kind, e.span);
        }
    }
    assert_eq!(held.len(), EPOCHS, "one {TAPE_KB_FIELD} per epoch");
    let settled = &held[EPOCHS / 2..];
    assert!(settled.iter().all(|&kb| kb == settled[0]), "tape memory still moving: {held:?}");
    assert!(settled[0] < 2.0 * held[0], "tape memory doubled: {held:?}");
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
    // The CLI's output tail follows `detect` as two top-level spans.
    let top: Vec<&str> = events
        .iter()
        .filter(|e| e.kind == "span_end" && e.parent == 0)
        .map(|e| e.span.as_str())
        .collect();
    assert!(top.ends_with(&["detect", "export", "write"]), "{top:?}");
    // …and via the `obs-check` subcommand CI uses.
    let out = bin().arg("obs-check").arg("--trace").arg(&trace)
        .args(["--require-stages", "all", "--require-epoch-events"])
        .output().unwrap();
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{log}");
    assert!(log.contains("top-level spans cover"), "{log}");
    if ancstr_obs::peak_rss_kb().is_some() {
        assert!(log.contains("first reached by the end of stage"), "{log}");
    }

    // A malformed trace must fail obs-check with exit 1.
    let broken = dir.join("broken.jsonl");
    fs::write(&broken, "{\"ts_ns\":1,\"kind\":\"bogus\"}\n").unwrap();
    let out = bin().arg("obs-check").arg("--trace").arg(&broken).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));

    // So must a peak RSS that is not a non-negative integer.
    fs::write(
        &broken,
        "{\"ts_ns\":1,\"kind\":\"span_start\",\"span\":\"parse\",\"stage\":\"parse\",\"id\":1,\"parent\":0,\"fields\":{}}\n\
         {\"ts_ns\":2,\"kind\":\"span_end\",\"span\":\"parse\",\"stage\":\"parse\",\"id\":1,\"parent\":0,\"dur_ns\":1,\"fields\":{\"vm_hwm_kb\":-3}}\n",
    )
    .unwrap();
    let out = bin().arg("obs-check").arg("--trace").arg(&broken).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));

    // And an epoch's fault count that is not a non-negative integer.
    fs::write(
        &broken,
        "{\"ts_ns\":1,\"kind\":\"event\",\"span\":\"epoch\",\"stage\":\"train\",\"id\":1,\"parent\":0,\"fields\":{\"minflt\":1.5}}\n",
    )
    .unwrap();
    let out = bin().arg("obs-check").arg("--trace").arg(&broken).output().unwrap();
    let log = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{log}");
    assert!(log.contains("non-integer `minflt`"), "{log}");

    // And an epoch's tape memory that is not a non-negative integer.
    fs::write(
        &broken,
        "{\"ts_ns\":1,\"kind\":\"event\",\"span\":\"epoch\",\"stage\":\"train\",\"id\":1,\"parent\":0,\"fields\":{\"tape_kb\":-2}}\n",
    )
    .unwrap();
    let out = bin().arg("obs-check").arg("--trace").arg(&broken).output().unwrap();
    let log = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{log}");
    assert!(log.contains("non-integer `tape_kb`"), "{log}");
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

/// Three instances of one master; X2 ties `in` and `out` to one net, so
/// its block digraph differs from X1's and X3's, which share one rank.
const TIED_INSTANCES: &str = "\
.subckt cell in out vdd vss
M1 out in vss vss nch w=1u l=0.1u
M2 x in vdd vdd pch w=2u l=0.1u
R1 x out 1k
.ends
.subckt top a b c d e vdd vss
X1 a b vdd vss cell
X2 c c vdd vss cell
X3 d e vdd vss cell
.ends
";

/// The `span_end` lines of a trace's `detect` stage spans.
fn detect_span_ends(trace: &std::path::Path) -> Vec<ancstr_obs::TraceEvent> {
    let events = validate_trace(&fs::read_to_string(trace).unwrap()).expect("valid trace");
    events.into_iter().filter(|e| e.kind == "span_end" && e.span == "detect").collect()
}

/// The `detect` span end reports how many valid pairs Algorithm 3
/// considered and how many it accepted: the comparator has 7 candidates
/// (six among the four `nch_lvt` devices, one `pch_lvt` pair) and the
/// seeded run accepts the three matched pairs. `obs-check` logs both and
/// rejects counts that are not non-negative integers or accept more
/// constraints than there were candidates.
#[test]
fn detect_span_reports_candidates_and_constraints() {
    let dir = workdir("cli-candidates");
    let sp = dir.join("sa.sp");
    fs::write(&sp, NETLIST).unwrap();
    let trace = dir.join("trace.jsonl");
    let out = bin()
        .arg("extract").arg(&sp).args(["--epochs", "15", "--seed", "3"])
        .arg("-o").arg(dir.join("out.sym"))
        .arg("--trace-out").arg(&trace)
        .output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let ends = detect_span_ends(&trace);
    assert_eq!(ends.len(), 1);
    let field = |name: &str| ends[0].fields.get(name).and_then(|v| v.as_num());
    assert_eq!(field("candidates"), Some(7.0));
    assert_eq!(field("constraints"), Some(3.0));
    let written = fs::read_to_string(dir.join("out.sym")).unwrap();
    assert_eq!(written.lines().filter(|l| l.starts_with("sym ")).count(), 3, "{written}");
    let out = bin().arg("obs-check").arg("--trace").arg(&trace).output().unwrap();
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{log}");
    assert!(log.contains("Algorithm 3 accepted 3 constraints from 7 candidate pairs"), "{log}");

    let broken = dir.join("broken.jsonl");
    for fields in [
        "\"candidates\":3,\"constraints\":4",
        "\"candidates\":3,\"constraints\":1.5",
        "\"candidates\":-1,\"constraints\":0",
        "\"candidates\":\"7\",\"constraints\":3",
    ] {
        fs::write(
            &broken,
            format!(
                "{{\"ts_ns\":1,\"kind\":\"span_start\",\"span\":\"detect\",\"stage\":\"detect\",\"id\":1,\"parent\":0,\"fields\":{{}}}}\n\
                 {{\"ts_ns\":2,\"kind\":\"span_end\",\"span\":\"detect\",\"stage\":\"detect\",\"id\":1,\"parent\":0,\"dur_ns\":1,\"fields\":{{{fields}}}}}\n"
            ),
        )
        .unwrap();
        let out = bin().arg("obs-check").arg("--trace").arg(&broken).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{fields}: {}", String::from_utf8_lossy(&out.stderr));
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The `embed` span end reports the vertices and the rows Eq. 1's GRU
/// steps computed for them: X1 and X3 see the same neighbourhood, so
/// each of the two layers computes at most the six rows of X1 and X2,
/// and `obs-check` logs the counts.
#[test]
fn embed_span_reports_rows_computed_once_per_distinct_row() {
    let dir = workdir("cli-rows-computed");
    let sp = dir.join("tied.sp");
    fs::write(&sp, TIED_INSTANCES).unwrap();
    let trace = dir.join("trace.jsonl");
    let out = bin()
        .arg("extract").arg(&sp).args(["--epochs", "12", "--seed", "3"])
        .arg("-o").arg(dir.join("out.sym"))
        .arg("--trace-out").arg(&trace)
        .output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let events = validate_trace(&fs::read_to_string(&trace).unwrap()).expect("valid trace");
    let ends: Vec<_> = events.iter().filter(|e| e.kind == "span_end" && e.span == "embed").collect();
    assert_eq!(ends.len(), 1);
    let field = |name: &str| ends[0].fields.get(name).and_then(|v| v.as_num());
    assert_eq!(field("rows"), Some(9.0));
    let computed = field("rows_computed").expect("rows_computed on the embed span end");
    assert!((2.0..=12.0).contains(&computed), "{computed} rows computed");
    let out = bin().arg("obs-check").arg("--trace").arg(&trace).output().unwrap();
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{log}");
    assert!(log.contains(&format!("Eq. 1 computed {computed} GRU rows for 9 vertices")), "{log}");
    let _ = fs::remove_dir_all(&dir);
}

/// The `detect` span end and the gauges report how many blocks
/// Algorithm 2 embedded and how many distinct digraphs it ranked for
/// them; a resumed run that reloads the detect stage reports neither,
/// and `obs-check` rejects counts that are not non-negative integers or
/// rank more digraphs than blocks.
#[test]
fn detect_span_reports_shared_block_digraphs() {
    let dir = workdir("cli-block-digraphs");
    let sp = dir.join("tied.sp");
    fs::write(&sp, TIED_INSTANCES).unwrap();
    let run = dir.join("run");
    let extract = |trace: &std::path::Path, resume: bool| {
        let mut cmd = bin();
        cmd.arg("extract").arg(&sp).args(["--epochs", "12", "--seed", "3"])
            .arg("-o").arg(dir.join("out.sym"))
            .arg("--run-dir").arg(&run)
            .arg("--trace-out").arg(trace);
        if resume {
            cmd.arg("--resume");
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    };

    let trace = dir.join("trace.jsonl");
    extract(&trace, false);
    let ends = detect_span_ends(&trace);
    assert_eq!(ends.len(), 1);
    let field = |name: &str| ends[0].fields.get(name).and_then(|v| v.as_num());
    assert_eq!(field("blocks_compared"), Some(3.0));
    assert_eq!(field("block_digraphs"), Some(2.0));
    let prom = fs::read_to_string(run.join("metrics.prom")).unwrap();
    assert!(prom.contains("ancstr_detect_blocks_compared 3\n"), "{prom}");
    assert!(prom.contains("ancstr_detect_block_digraphs 2\n"), "{prom}");
    let out = bin().arg("obs-check").arg("--trace").arg(&trace).output().unwrap();
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{log}");
    assert!(log.contains("ranked 2 distinct block digraphs for 3 compared blocks"), "{log}");

    // A resumed finished run reloads the detection: no counts anywhere.
    let resumed = dir.join("resumed.jsonl");
    extract(&resumed, true);
    let ends = detect_span_ends(&resumed);
    assert_eq!(ends.len(), 1, "the reload still runs under a detect span");
    for name in ["blocks_compared", "block_digraphs"] {
        assert!(!ends[0].fields.contains_key(name), "a reloaded detect reported `{name}`");
    }
    let prom = fs::read_to_string(run.join("metrics.prom")).unwrap();
    assert!(!prom.contains("ancstr_detect_block_digraphs "), "{prom}");

    let broken = dir.join("broken.jsonl");
    for fields in [
        "\"blocks_compared\":3,\"block_digraphs\":4",
        "\"blocks_compared\":3,\"block_digraphs\":1.5",
        "\"blocks_compared\":-1,\"block_digraphs\":0",
    ] {
        fs::write(
            &broken,
            format!(
                "{{\"ts_ns\":1,\"kind\":\"span_start\",\"span\":\"detect\",\"stage\":\"detect\",\"id\":1,\"parent\":0,\"fields\":{{}}}}\n\
                 {{\"ts_ns\":2,\"kind\":\"span_end\",\"span\":\"detect\",\"stage\":\"detect\",\"id\":1,\"parent\":0,\"dur_ns\":1,\"fields\":{{{fields}}}}}\n"
            ),
        )
        .unwrap();
        let out = bin().arg("obs-check").arg("--trace").arg(&broken).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{fields}: {}", String::from_utf8_lossy(&out.stderr));
    }
}
