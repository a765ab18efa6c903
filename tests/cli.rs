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

/// SHA-256 (FIPS 180-4) of `bytes`, as lowercase hex.
fn sha256_hex(bytes: &[u8]) -> String {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut msg = bytes.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&(bytes.len() as u64 * 8).to_be_bytes());
    for block in msg.chunks(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            (hh, g, f, e, d, c, b, a) = (g, f, e, d.wrapping_add(t1), c, b, a, t1.wrapping_add(t2));
        }
        for (x, y) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *x = x.wrapping_add(y);
        }
    }
    h.iter().map(|x| format!("{x:08x}")).collect()
}

/// The `--dot` bytes of a seeded 300-device corpus, pinned as the
/// SHA-256 of the output of the multigraph-based renderer this one
/// replaced (1300 clique pairs, 191 highlighted devices).
#[test]
fn extract_dot_bytes_are_pinned() {
    let dir = workdir("dot-pin");
    let sp = dir.join("c.sp");
    let out = bin()
        .args(["corpus", "--devices", "300", "--seed", "7", "-o"])
        .arg(&sp)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let dot = dir.join("c.dot");
    let out = bin()
        .args(["extract"])
        .arg(&sp)
        .args(["--epochs", "2", "--seed", "3", "--quiet", "-o"])
        .arg(dir.join("c.sym"))
        .arg("--dot")
        .arg(&dot)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let bytes = fs::read(&dot).unwrap();
    assert_eq!(
        sha256_hex(&bytes),
        "3381e02fe9a64df8466c9918f3ee11ec0136cc258dcfd00a64fd6f0f65280648"
    );
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

