//! Kill-at-epoch acceptance test: SIGKILL-equivalent crash mid-training
//! (`std::process::abort` fired from inside the binary immediately
//! after a checkpoint write — no destructors, no flushes, exactly what
//! a power cut leaves behind), then `--resume`, then assert the final
//! constraints and the sealed model artifact are **bit-identical** to
//! an uninterrupted reference run.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

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

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ancstr"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ancstr-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp workdir");
    dir
}

const EPOCHS: &str = "30";
const SEED: &str = "11";

fn extract(sp: &PathBuf, run: &PathBuf, out: &PathBuf, resume: bool) -> Command {
    let mut cmd = bin();
    cmd.arg("extract")
        .arg(sp)
        .args(["--epochs", EPOCHS, "--seed", SEED, "--checkpoint-every", "1"])
        .arg("--run-dir")
        .arg(run)
        .arg("-o")
        .arg(out);
    if resume {
        cmd.arg("--resume");
    }
    cmd
}

#[test]
fn killed_mid_training_then_resumed_is_bit_identical_to_uninterrupted() {
    let dir = workdir("kill");
    let sp = dir.join("sa.sp");
    fs::write(&sp, NETLIST).unwrap();

    // Reference: one uninterrupted durable run.
    let ref_run = dir.join("ref-run");
    let ref_out = dir.join("ref.sym");
    let out = extract(&sp, &ref_run, &ref_out, false).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Crashed run: the binary aborts right after the 5th checkpoint
    // write (completed epoch 5 of 30) — mid-pipeline, nothing cleaned
    // up, no output file written.
    let run = dir.join("crash-run");
    let sym = dir.join("crash.sym");
    let out = extract(&sp, &run, &sym, false)
        .env("ANCSTR_TEST_ABORT_AFTER_CHECKPOINTS", "5")
        .output()
        .unwrap();
    assert!(!out.status.success(), "the crash hook must kill the process");
    assert!(out.status.code() != Some(0), "{:?}", out.status);
    assert!(!sym.exists(), "no constraints may be written before the crash point");
    assert!(run.join("manifest.json").exists(), "manifest survives the crash");
    assert!(
        run.join("checkpoints").join("epoch-000005.ckpt").exists(),
        "the checkpoint that triggered the abort is on disk"
    );

    // Resume in a fresh process. It must pick the run up from epoch 5,
    // finish, and write outputs.
    let out = extract(&sp, &run, &sym, true).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("resumed training from the epoch-5 checkpoint"),
        "{stderr}"
    );

    // Bit-identical constraints and sealed model artifact.
    let reference = fs::read(&ref_out).unwrap();
    let resumed = fs::read(&sym).unwrap();
    assert!(!reference.is_empty());
    assert_eq!(resumed, reference, "constraints diverged across crash/resume");
    let ref_model = fs::read(ref_run.join("model.txt")).unwrap();
    let model = fs::read(run.join("model.txt")).unwrap();
    assert_eq!(model, ref_model, "model weights diverged across crash/resume");

    // And both match a run that never used a run directory at all.
    let plain = dir.join("plain.sym");
    let out = bin()
        .arg("extract")
        .arg(&sp)
        .args(["--epochs", EPOCHS, "--seed", SEED])
        .arg("-o")
        .arg(&plain)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(fs::read(&plain).unwrap(), reference, "durable vs plain runs diverged");
}

/// Crashing *twice* — once more after resuming — still converges to the
/// identical result: resume composes with itself.
#[test]
fn double_crash_still_resumes_bit_identically() {
    let dir = workdir("double-kill");
    let sp = dir.join("sa.sp");
    fs::write(&sp, NETLIST).unwrap();

    let ref_run = dir.join("ref-run");
    let ref_out = dir.join("ref.sym");
    let out = extract(&sp, &ref_run, &ref_out, false).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let run = dir.join("crash-run");
    let sym = dir.join("crash.sym");
    let out = extract(&sp, &run, &sym, false)
        .env("ANCSTR_TEST_ABORT_AFTER_CHECKPOINTS", "3")
        .output()
        .unwrap();
    assert!(!out.status.success());
    // Second crash *after a resume*: four more checkpoint writes land
    // at epoch 7.
    let out = extract(&sp, &run, &sym, true)
        .env("ANCSTR_TEST_ABORT_AFTER_CHECKPOINTS", "4")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = extract(&sp, &run, &sym, true).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resumed training from the epoch-7 checkpoint"), "{stderr}");

    assert_eq!(fs::read(&sym).unwrap(), fs::read(&ref_out).unwrap());
    assert_eq!(
        fs::read(run.join("model.txt")).unwrap(),
        fs::read(ref_run.join("model.txt")).unwrap()
    );
}

/// `--resume` of a finished run reloads every stage's sealed artifact:
/// identical output bytes, and no graph is built and nothing trained.
#[test]
fn resuming_a_finished_run_reloads_without_rebuilding_the_graph() {
    let dir = workdir("finished");
    let sp = dir.join("sa.sp");
    fs::write(&sp, NETLIST).unwrap();
    let run = dir.join("run");
    let first = dir.join("first.sym");
    let out = extract(&sp, &run, &first, false).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let again = dir.join("again.sym");
    let trace = dir.join("resume.jsonl");
    let out = extract(&sp, &run, &again, true).arg("--trace-out").arg(&trace).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(fs::read(&again).unwrap(), fs::read(&first).unwrap());

    let events = ancstr_obs::validate_trace(&fs::read_to_string(&trace).unwrap())
        .expect("valid trace");
    let ran = |stage: &str| events.iter().any(|e| e.kind == "span_start" && e.stage == stage);
    for stage in ["graph_build", "feature_init", "train"] {
        assert!(!ran(stage), "a resumed finished run ran `{stage}`");
    }
    for stage in ["parse", "elaborate", "embed", "detect"] {
        assert!(ran(stage), "`{stage}` missing from the resumed trace");
    }
}
