//! Chaos tests for the `ancstr serve` daemon: every serve-layer fault
//! operator from `ancstr_core::inject` is compiled into a deterministic
//! wire plan (seeded, no wall-clock randomness) and replayed against a
//! live daemon started with `--chaos`.
//!
//! The resilience contract under test:
//!
//! 1. every injected fault yields a *clean* failure — an error status
//!    or a torn connection, never a `200` whose bytes differ from the
//!    fault-free baseline (no silent corruption);
//! 2. immediately after each fault, a well-formed request on a fresh
//!    connection succeeds with the exact baseline bytes (no wedged
//!    workers); and
//! 3. the daemon still drains and exits 0 afterwards.

use std::fs;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use ancstr_core::{plan_serve_fault, ServeFault, ALL_SERVE_FAULTS};
use ancstr_serve::client::{self, RetryPolicy};

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

const T: Duration = Duration::from_secs(60);

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ancstr"))
}

fn workdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ancstr-chaos-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp workdir");
    dir
}

/// Train a model via the CLI and return (netlist path, model path).
fn trained_model(dir: &Path) -> (PathBuf, PathBuf) {
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
    (sp, model)
}

/// A daemon child plus the address it bound. Killed on drop so a failed
/// assertion cannot leak a listener.
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

    /// Graceful stop: `POST /v1/shutdown`, then the process must exit 0.
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

/// The fault-free baseline reply the chaos invariants compare against.
fn baseline(addr: SocketAddr) -> String {
    let reply = client::post(addr, "/v1/extract", NETLIST.as_bytes(), T).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.text());
    constraints(&reply.text()).expect("baseline has constraints_text")
}

#[test]
fn every_fault_operator_leaves_the_daemon_serving() {
    let dir = workdir("sweep");
    let (_sp, model) = trained_model(&dir);
    let daemon = Daemon::spawn(&model, &["--chaos", "--workers", "2"]);
    let addr = daemon.addr;
    let reference = baseline(addr);
    let policy = RetryPolicy::new(7);

    for (i, fault) in ALL_SERVE_FAULTS.iter().enumerate() {
        for seed in [3u64, 1931] {
            let plan = plan_serve_fault(
                *fault,
                "POST",
                "/v1/extract",
                NETLIST.as_bytes(),
                seed.wrapping_mul(31).wrapping_add(i as u64),
            );
            let outcome =
                client::send_plan(addr, &plan, T).unwrap_or_else(|e| panic!("{fault:?}: {e}"));
            // A faulted exchange may fail any way it likes, but never
            // silently corrupt: a 200 must carry the baseline bytes.
            if let Some(reply) = &outcome.reply {
                if reply.status == 200 {
                    assert_eq!(
                        constraints(&reply.text()).as_deref(),
                        Some(reference.as_str()),
                        "{fault:?} produced a 200 with wrong bytes"
                    );
                }
            }
            // No wedged workers: a clean request right after the fault
            // succeeds with the exact baseline bytes.
            let probe = client::request_with_retry(
                addr,
                "POST",
                "/v1/extract",
                &[],
                NETLIST.as_bytes(),
                T,
                &policy,
            )
            .unwrap_or_else(|e| panic!("recovery after {fault:?} failed: {e}"));
            assert_eq!(probe.status, 200, "after {fault:?}: {}", probe.text());
            assert_eq!(
                constraints(&probe.text()).as_deref(),
                Some(reference.as_str()),
                "recovery after {fault:?} diverged from the baseline"
            );
        }
    }
    daemon.shutdown();
}

#[test]
fn fault_operators_map_to_clean_statuses() {
    let dir = workdir("statuses");
    let (_sp, model) = trained_model(&dir);
    let daemon = Daemon::spawn(&model, &["--chaos"]);
    let addr = daemon.addr;
    let reference = baseline(addr);

    let send = |fault: ServeFault, seed: u64| {
        let plan = plan_serve_fault(fault, "POST", "/v1/extract", NETLIST.as_bytes(), seed);
        client::send_plan(addr, &plan, T).expect("plan connects")
    };

    // A torn write still reassembles into the intact request: full 200
    // with baseline bytes.
    let torn = send(ServeFault::TornWrite { fragments: 7 }, 5);
    let torn_reply = torn.reply.expect("torn write gets a reply");
    assert_eq!(torn_reply.status, 200, "{}", torn_reply.text());
    assert_eq!(constraints(&torn_reply.text()).as_deref(), Some(reference.as_str()));

    // A truncated body is a clean 400 (connection closed mid-body).
    let truncated = send(ServeFault::TruncateBody { keep_frac: 0.5 }, 6);
    let truncated_reply = truncated.reply.expect("truncation gets a reply");
    assert_eq!(truncated_reply.status, 400, "{}", truncated_reply.text());

    // A stalled read that dies mid-head is a clean 400 too.
    let stalled = send(ServeFault::StalledRead { hold_ms: 50 }, 7);
    if let Some(reply) = stalled.reply {
        assert_eq!(reply.status, 400, "{}", reply.text());
    }

    // An injected worker panic is isolated into a 500 with the
    // worker_panic stage — same connection, clean JSON.
    let panic = send(ServeFault::WorkerPanic, 8);
    let panic_reply = panic.reply.expect("panic gets a reply");
    assert_eq!(panic_reply.status, 500, "{}", panic_reply.text());
    assert!(panic_reply.text().contains("worker_panic"), "{}", panic_reply.text());

    // A corrupt model upload is refused (seal failure now, breaker
    // afterwards) and never swaps the serving model.
    let corrupt = send(ServeFault::CorruptModelUpload, 9);
    let corrupt_reply = corrupt.reply.expect("corrupt upload gets a reply");
    assert!(
        corrupt_reply.status == 400 || corrupt_reply.status == 422,
        "{}: {}",
        corrupt_reply.status,
        corrupt_reply.text()
    );
    let health = client::get(addr, "/healthz", T).unwrap().text();
    assert!(health.contains("\"generation\":1"), "{health}");

    // Cold bodies: the same circuit plus a unique comment line.
    let cold = |tag: &str| format!("{NETLIST}* chaos probe {tag}\n").into_bytes();

    // A poisoned batch request fails alone with the typed batch_poison
    // stage — and since its body is unique, no mate is implicated.
    let plan =
        plan_serve_fault(ServeFault::PoisonBatchMate, "POST", "/v1/extract", &cold("poison"), 12);
    let outcome = client::send_plan(addr, &plan, T).expect("plan connects");
    let reply = outcome.reply.expect("poison gets a reply");
    assert_eq!(reply.status, 500, "{}", reply.text());
    assert!(reply.text().contains("\"stage\":\"batch_poison\""), "{}", reply.text());

    // After the whole parade the baseline still reproduces.
    assert_eq!(baseline(addr), reference);
    daemon.shutdown();
}

#[test]
fn chaos_headers_require_opt_in() {
    let dir = workdir("optin");
    let (_sp, model) = trained_model(&dir);
    // No --chaos flag: the panic header is inert.
    let daemon = Daemon::spawn(&model, &[]);
    let reply = client::post_with(
        daemon.addr,
        "/v1/extract",
        &[("x-ancstr-chaos", "panic")],
        NETLIST.as_bytes(),
        T,
    )
    .unwrap();
    assert_eq!(reply.status, 200, "{}", reply.text());
    daemon.shutdown();
}

#[test]
fn deadline_header_aborts_with_408_end_to_end() {
    let dir = workdir("deadline");
    let (_sp, model) = trained_model(&dir);
    let daemon = Daemon::spawn(&model, &[]);
    let reply = client::post_with(
        daemon.addr,
        "/v1/extract",
        &[("x-ancstr-deadline-ms", "0")],
        NETLIST.as_bytes(),
        T,
    )
    .unwrap();
    assert_eq!(reply.status, 408, "{}", reply.text());
    assert!(reply.text().contains("\"stage\":\"deadline\""), "{}", reply.text());
    // The daemon is fine; the same request without the header succeeds.
    let ok = client::post(daemon.addr, "/v1/extract", NETLIST.as_bytes(), T).unwrap();
    assert_eq!(ok.status, 200, "{}", ok.text());
    daemon.shutdown();
}

#[test]
fn oversized_header_blocks_are_refused_with_431() {
    let dir = workdir("headers");
    let (_sp, model) = trained_model(&dir);
    let daemon = Daemon::spawn(&model, &[]);
    // More header lines than the daemon's bound (64).
    let names: Vec<String> = (0..80).map(|i| format!("x-filler-{i}")).collect();
    let headers: Vec<(&str, &str)> =
        names.iter().map(|n| (n.as_str(), "x")).collect();
    let reply =
        client::request_with(daemon.addr, "POST", "/v1/extract", &headers, b"", T).unwrap();
    assert_eq!(reply.status, 431, "{}", reply.text());
    daemon.shutdown();
}

#[test]
fn loadgen_chaos_soak_holds_every_invariant() {
    let dir = workdir("loadgen");
    let (sp, model) = trained_model(&dir);
    let daemon = Daemon::spawn(&model, &["--chaos", "--workers", "2"]);
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(["--addr", &daemon.addr.to_string()])
        .args(["--netlist"])
        .arg(&sp)
        .args(["--requests", "1", "--chaos", "7"])
        .output()
        .expect("loadgen runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "loadgen --chaos failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("all resilience invariants held"), "{stdout}");
    daemon.shutdown();
}
