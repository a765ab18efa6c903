//! End-to-end tests of the `ancstr` command-line tool, driving the real
//! binary through temp files: stats → train → extract (with a
//! pre-trained model) → constraint/DOT outputs.

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
    let dir = std::env::temp_dir().join(format!("ancstr-cli-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp workdir");
    dir
}

#[test]
fn stats_reports_counts() {
    let dir = workdir("stats");
    let sp = dir.join("sa.sp");
    fs::write(&sp, NETLIST).unwrap();
    let out = bin().arg("stats").arg(&sp).output().expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("devices      7"), "{stdout}");
    assert!(stdout.contains("valid pairs"), "{stdout}");
}

#[test]
fn train_then_extract_with_model() {
    let dir = workdir("train");
    let sp = dir.join("sa.sp");
    fs::write(&sp, NETLIST).unwrap();
    let model = dir.join("model.txt");

    let out = bin()
        .args(["train"])
        .arg(&sp)
        .args(["--model-out"])
        .arg(&model)
        .args(["--epochs", "25", "--seed", "3"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(model.exists());

    let constraints = dir.join("out.sym");
    let out = bin()
        .args(["extract"])
        .arg(&sp)
        .args(["--model"])
        .arg(&model)
        .args(["-o"])
        .arg(&constraints)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = fs::read_to_string(&constraints).unwrap();
    assert!(text.contains("M1 M2"), "input pair found:\n{text}");
    assert!(text.contains("# hierarchy: sa"), "{text}");
}

#[test]
fn extract_writes_dot() {
    let dir = workdir("dot");
    let sp = dir.join("sa.sp");
    fs::write(&sp, NETLIST).unwrap();
    let dot = dir.join("sa.dot");
    let out = bin()
        .args(["extract"])
        .arg(&sp)
        .args(["--epochs", "15", "--dot"])
        .arg(&dot)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = fs::read_to_string(&dot).unwrap();
    assert!(text.starts_with("digraph"));
    assert!(text.contains("sa/M1"));
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = bin().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = bin().args(["extract", "/nonexistent.sp"]).output().expect("binary runs");
    assert!(!out.status.success());

    let out = bin()
        .args(["extract", "a.sp", "--frobnicate"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));

    let out = bin().args(["bench"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "a removed command is a usage error");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown command `bench`"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The daemon serves one model on one node and runs each request's
    // pipeline alone: the fleet and batching flags are gone.
    for flags in [
        ["serve", "--peers", "x"],
        ["serve", "--model-slots", "2"],
        ["serve", "--batch-max", "2"],
    ] {
        let out = bin().args(flags).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains("unknown flag"), "{flags:?}: {stderr}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .arg("--ramp")
        .output()
        .expect("loadgen runs");
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
}

/// Exit codes are stable per failure stage: 2 usage, 3 I/O, 4 parse,
/// 5 elaborate, 6 bad model file — so scripts can dispatch on them.
#[test]
fn exit_codes_identify_the_failing_stage() {
    let dir = workdir("codes");
    let sp = dir.join("sa.sp");
    fs::write(&sp, NETLIST).unwrap();

    // Usage errors: no command, and a wrong flag.
    let out = bin().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = bin().args(["extract"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "extract with no netlist is a usage error");
    let out = bin()
        .args(["extract"])
        .arg(&sp)
        .args(["--epochs", "0"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "zero epochs is a usage error, not a panic");

    // Parse failure names the stage and the line.
    let bad = dir.join("bad.sp");
    fs::write(&bad, ".ends\n").unwrap();
    let out = bin().args(["stats"]).arg(&bad).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("parse"), "{stderr}");

    // Elaboration failure (instance of an undefined subcircuit).
    let dangling = dir.join("dangling.sp");
    fs::write(&dangling, ".subckt top a b\nX1 a b missing\n.ends\n").unwrap();
    let out = bin().args(["stats"]).arg(&dangling).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(5), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("elaborate"), "{stderr}");

    // Unreadable model file is an I/O error; a corrupt one is a
    // load-model error.
    let out = bin()
        .args(["extract"])
        .arg(&sp)
        .args(["--model"])
        .arg(dir.join("no-such-model.txt"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));

    let corrupt = dir.join("corrupt-model.txt");
    fs::write(&corrupt, "not a model\n").unwrap();
    let out = bin()
        .args(["extract"])
        .arg(&sp)
        .args(["--model"])
        .arg(&corrupt)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(6), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("load-model"), "{stderr}");
}

/// The README's "Exit codes" table is the authoritative contract:
/// every code the binary can emit appears there, and nothing else.
#[test]
fn readme_exit_code_table_matches_the_binary() {
    let readme = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    let text = fs::read_to_string(&readme).expect("README.md at the workspace root");
    let section = text
        .split("### Exit codes")
        .nth(1)
        .expect("README has an `### Exit codes` section");
    let mut documented = Vec::new();
    for line in section.lines() {
        // Table rows look like: | `N` | meaning |
        let Some(rest) = line.strip_prefix("| `") else { continue };
        let Some((code, _)) = rest.split_once('`') else { continue };
        documented.push(code.parse::<i32>().expect("exit code cell is an integer"));
    }
    assert_eq!(
        documented,
        vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
        "README exit-code table drifted from the binary's contract"
    );
    // Spot-check the table against the real binary on both ends of the
    // range: usage (2) and deadline (10) — the stage codes 3–6 are
    // behaviourally pinned by `exit_codes_identify_the_failing_stage`.
    let out = bin().args(["extract", "a.sp", "--frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(section.contains("usage error"), "code 2 row describes usage errors");
    assert!(section.contains("--resume"), "code 10 row points at --resume");
}

/// Durable-run flag validation happens before any work: zero or
/// negative cadences/budgets, orphaned flags, and unusable run
/// directories are all usage errors (exit 2) with a clear message.
#[test]
fn durable_flag_validation_is_exit_2() {
    let dir = workdir("durable-usage");
    let sp = dir.join("sa.sp");
    fs::write(&sp, NETLIST).unwrap();

    let cases: Vec<(Vec<String>, &str)> = vec![
        (vec!["--resume".into()], "--resume needs --run-dir"),
        (vec!["--checkpoint-every".into(), "5".into()], "needs --run-dir"),
        (vec!["--time-budget".into(), "9".into()], "needs --run-dir"),
        (
            vec!["--run-dir".into(), dir.join("r0").display().to_string(),
                 "--checkpoint-every".into(), "0".into()],
            "--checkpoint-every must be at least 1",
        ),
        (
            vec!["--run-dir".into(), dir.join("r1").display().to_string(),
                 "--checkpoint-every".into(), "-3".into()],
            "bad --checkpoint-every",
        ),
        (
            vec!["--run-dir".into(), dir.join("r2").display().to_string(),
                 "--time-budget".into(), "0".into()],
            "--time-budget must be at least 1",
        ),
        (
            vec!["--run-dir".into(), dir.join("r3").display().to_string(),
                 "--time-budget".into(), "nope".into()],
            "bad --time-budget",
        ),
    ];
    for (flags, needle) in cases {
        let out = bin().arg("extract").arg(&sp).args(&flags).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{flags:?}: {stderr}");
    }

    // A run directory that cannot be created (parent is a file).
    let blocker = dir.join("blocker");
    fs::write(&blocker, "not a directory").unwrap();
    let out = bin()
        .arg("extract")
        .arg(&sp)
        .arg("--run-dir")
        .arg(blocker.join("run"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));

    // --model and --run-dir are mutually exclusive: a durable run owns
    // its own trained model artifact.
    let out = bin()
        .arg("extract")
        .arg(&sp)
        .args(["--model", "m.txt", "--run-dir"])
        .arg(dir.join("r4"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
}

/// An expired `--time-budget` exits 10 with the run checkpointed;
/// resuming makes forward progress from the saved epoch rather than
/// starting over.
#[test]
fn time_budget_expiry_exits_10_and_is_resumable() {
    let dir = workdir("deadline");
    let sp = dir.join("sa.sp");
    fs::write(&sp, NETLIST).unwrap();
    let run = dir.join("run");

    let newest_epoch = |run: &PathBuf| -> usize {
        let mut names: Vec<String> = fs::read_dir(run.join("checkpoints"))
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let last = names.last().expect("at least one checkpoint").clone();
        last.trim_start_matches("epoch-").trim_end_matches(".ckpt").parse().unwrap()
    };

    // Far more epochs than one second allows.
    let base = ["--epochs", "200000", "--seed", "3", "--checkpoint-every", "25",
                "--time-budget", "1"];
    let out = bin().arg("extract").arg(&sp).arg("--run-dir").arg(&run).args(base)
        .output().unwrap();
    assert_eq!(out.status.code(), Some(10), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("time budget expired"), "{stderr}");
    assert!(stderr.contains("--resume"), "tells the user how to continue: {stderr}");
    assert!(run.join("manifest.json").exists());
    let first = newest_epoch(&run);

    // Resume under the same (still too small) budget: exits 10 again,
    // but from a strictly later checkpoint — progress accumulates.
    let out = bin().arg("extract").arg(&sp).arg("--run-dir").arg(&run).arg("--resume")
        .args(base).output().unwrap();
    assert_eq!(out.status.code(), Some(10), "{}", String::from_utf8_lossy(&out.stderr));
    let second = newest_epoch(&run);
    assert!(second > first, "no progress across resume: {first} → {second}");
}

#[test]
fn groups_output_renders_paths() {
    let dir = workdir("groups");
    let sp = dir.join("sa.sp");
    fs::write(&sp, NETLIST).unwrap();
    let out = bin()
        .args(["extract"])
        .arg(&sp)
        .args(["--epochs", "15", "--groups"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("members"), "{stdout}");
    assert!(stdout.contains("sa/M1"), "{stdout}");
}

