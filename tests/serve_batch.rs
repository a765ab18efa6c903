//! Batched-execution identity tests: fusing many extraction requests
//! into one GNN forward pass must be a pure scheduling decision, never
//! a semantic one.
//!
//! Two layers are pinned here:
//!
//! 1. **In-process**: [`ancstr_core::extract_batch`] over batch
//!    sizes 1, 4, and 16 returns, for every item, the byte-identical
//!    `constraints_text` (and identical counts and warnings) that the
//!    solo [`ancstr_core::extract_source`] path returns for that item.
//! 2. **End-to-end**: a live daemon fed 16 concurrent requests, one of
//!    them poisoned (`x-ancstr-chaos: poison` under `--chaos`), answers
//!    exactly 15 of them `200` with the correct bytes and the poisoned
//!    one `500` with the `batch_poison` stage — bisection isolates the
//!    poison instead of failing its batch-mates.

use std::fs;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use ancstr_core::{
    extract_batch, extract_source, FitOutcome, PipelineObs, RunCtx, SymmetryExtractor,
};
use ancstr_gnn::TrainConfig;
use ancstr_netlist::flat::FlatCircuit;
use ancstr_netlist::parse::parse_spice;
use ancstr_serve::client;

const T: Duration = Duration::from_secs(60);

const NETLIST: &str = "\
.subckt sa inp inn outp outn clk vdd vss
M1 x1 inp tail vss nch_lvt w=6u l=0.1u
M2 x2 inn tail vss nch_lvt w=6u l=0.1u
M3 outn outp x1 vss nch_lvt w=6u l=0.1u
M4 outp outn x2 vss nch_lvt w=6u l=0.1u
M5 outn outp vdd vdd pch_lvt w=12u l=0.1u
M6 outp outn vdd vdd pch_lvt w=12u l=0.1u
M7 tail clk vss vss nch w=12u l=0.1u
.ends
";

/// Sixteen *distinct* sources: varied device widths change the graph
/// features item by item, so cross-item leakage in the fused pass would
/// actually move bytes instead of cancelling out.
fn variants() -> Vec<String> {
    (0..16).map(|i| NETLIST.replace("w=6u", &format!("w={}u", 4 + i))).collect()
}

fn trained_extractor() -> SymmetryExtractor {
    let cfg = ancstr_core::ExtractorConfig {
        train: TrainConfig { epochs: 6, seed: 23, ..TrainConfig::default() },
        ..ancstr_core::ExtractorConfig::default()
    };
    let nl = parse_spice(NETLIST).expect("fixture parses");
    let flat = FlatCircuit::elaborate(&nl).expect("fixture elaborates");
    let mut ex = SymmetryExtractor::try_new(cfg).expect("config is consistent");
    let Ok(FitOutcome::Completed { health, .. }) = ex.try_fit(&[&flat], &RunCtx::default(), None)
    else {
        panic!("healthy fit");
    };
    assert!(health.clean(), "fixture training must be anomaly-free: {health:?}");
    ex
}

#[test]
fn batched_extraction_is_byte_identical_at_sizes_1_4_16() {
    let ex = trained_extractor();
    let obs = PipelineObs::new(None);
    let sources = variants();

    // The solo path is the reference semantics.
    let solo: Vec<_> = sources
        .iter()
        .enumerate()
        .map(|(i, s)| extract_source(s, &format!("v{i}.sp"), &ex, &obs).expect("solo extracts"))
        .collect();

    for batch in [1usize, 4, 16] {
        for (chunk_idx, chunk) in sources.chunks(batch).enumerate() {
            let items: Vec<(&str, &str)> =
                chunk.iter().map(|s| (s.as_str(), "batched.sp")).collect();
            let replies = extract_batch(&items, &ex, &RunCtx::observed(obs.clone()), None)
                .expect("an unarmed token never cancels");
            assert_eq!(replies.len(), chunk.len());
            for (j, reply) in replies.into_iter().enumerate() {
                let reply = reply.expect("batched item extracts");
                let reference = &solo[chunk_idx * batch + j];
                assert_eq!(
                    reply.constraints_text, reference.constraints_text,
                    "batch size {batch}, item {j}: constraint bytes diverged"
                );
                assert_eq!(reply.devices, reference.devices);
                assert_eq!(reply.nets, reference.nets);
                assert_eq!(reply.constraints, reference.constraints);
                assert_eq!(reply.warnings, reference.warnings);
            }
        }
    }
}

// ---------------------------------------------------------------- daemon

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ancstr"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ancstr-batch-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp workdir");
    dir
}

fn trained_model(dir: &Path) -> PathBuf {
    let sp = dir.join("sa.sp");
    fs::write(&sp, NETLIST).unwrap();
    let model = dir.join("model.txt");
    let out = bin()
        .args(["train"])
        .arg(&sp)
        .args(["--model-out"])
        .arg(&model)
        .args(["--epochs", "12", "--seed", "7", "--quiet"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "train failed: {}", String::from_utf8_lossy(&out.stderr));
    model
}

struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(model: &Path, extra: &[&str]) -> Daemon {
        let mut child = bin()
            .args(["serve", "--model"])
            .arg(model)
            .args(["--port", "0", "--quiet"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("daemon prints its address");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line `{line}`"))
            .parse()
            .expect("address parses");
        Daemon { child, addr }
    }

    fn shutdown(mut self) {
        let reply = client::post(self.addr, "/v1/shutdown", b"", T).expect("shutdown responds");
        assert_eq!(reply.status, 200, "{}", reply.text());
        let status = self.child.wait().expect("daemon exits");
        assert_eq!(status.code(), Some(0), "daemon must drain and exit cleanly");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The escaped `constraints_text` field of a JSON reply body.
fn constraints(text: &str) -> Option<String> {
    let marker = "\"constraints_text\":\"";
    let start = text.find(marker)? + marker.len();
    let rest = &text[start..];
    let bytes = rest.as_bytes();
    let mut end = 0;
    while end < bytes.len() {
        match bytes[end] {
            b'\\' => end += 2,
            b'"' => return Some(rest[..end].to_owned()),
            _ => end += 1,
        }
    }
    None
}

#[test]
fn one_poison_in_sixteen_concurrent_requests_fails_alone() {
    let dir = workdir("poison");
    let model = trained_model(&dir);
    let daemon = Daemon::spawn(
        &model,
        &["--chaos", "--workers", "16", "--queue-depth", "64", "--batch-max", "16"],
    );
    let addr = daemon.addr;

    // The fault-free reference bytes for this circuit.
    let reference = {
        let reply = client::post(addr, "/v1/extract", NETLIST.as_bytes(), T).unwrap();
        assert_eq!(reply.status, 200, "{}", reply.text());
        constraints(&reply.text()).expect("reference has constraints_text")
    };

    // Sixteen distinct *bodies* of the same circuit (a unique comment
    // line changes the cache key, not the constraints), fired at once;
    // request 0 carries the poison header.
    let replies: Vec<(usize, u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..16usize)
            .map(|i| {
                scope.spawn(move || {
                    let body = format!("{NETLIST}* mate {i}\n");
                    let headers: &[(&str, &str)] =
                        if i == 0 { &[("x-ancstr-chaos", "poison")] } else { &[] };
                    let reply =
                        client::post_with(addr, "/v1/extract", headers, body.as_bytes(), T)
                            .expect("request completes");
                    (i, reply.status, reply.text())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("request thread")).collect()
    });

    let ok: Vec<_> = replies.iter().filter(|(_, status, _)| *status == 200).collect();
    let poisoned: Vec<_> = replies.iter().filter(|(_, status, _)| *status == 500).collect();
    assert_eq!(ok.len(), 15, "exactly the 15 healthy mates succeed: {replies:?}");
    assert_eq!(poisoned.len(), 1, "exactly the poison request fails: {replies:?}");
    assert_eq!(poisoned[0].0, 0, "the 500 lands on the poisoned request, not a mate");
    assert!(
        poisoned[0].2.contains("\"stage\":\"batch_poison\""),
        "poison failure is typed: {}",
        poisoned[0].2
    );
    for (i, _, text) in &ok {
        assert_eq!(
            constraints(text).as_deref(),
            Some(reference.as_str()),
            "mate {i} returned wrong bytes"
        );
    }
    daemon.shutdown();
}
