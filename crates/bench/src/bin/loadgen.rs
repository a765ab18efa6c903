//! `loadgen` — a load client for the `ancstr serve` daemon.
//!
//! ```text
//! loadgen --addr 127.0.0.1:7878 --netlist ota.sp [--requests N]
//!         [--concurrency N] [--expect-cached] [--retry-seed S]
//!         [--chaos SEED]
//! ```
//!
//! Fires `--requests` `POST /v1/extract` requests at the daemon from
//! `--concurrency` threads, then reports a one-screen summary:
//! status counts, cache hits, throughput, and latency percentiles.
//! Requests shed by the daemon (`503`/`429`) are retried on a seeded
//! jittered exponential backoff that honors the server's `Retry-After`
//! hint (`--retry-seed` pins the schedule, so runs are reproducible).
//! Three invariants are checked on every run and fail the process
//! (exit 1) when violated:
//!
//! 1. every request must succeed with `200`,
//! 2. every response must carry the same `constraints_text` — the
//!    daemon is deterministic, so divergence under concurrency is a
//!    bug, not noise — and
//! 3. every request is sent with a freshly minted `x-ancstr-trace-id`
//!    (logged per request); when the daemon traces it must echo the id
//!    back verbatim on every `200`, so a dropped or rewritten id is a
//!    broken trace, not noise. A daemon running without `--trace-out`
//!    echoes nothing, which is tolerated — but once any response
//!    carries the header, every `200` must.
//!
//! `--expect-cached` additionally requires at least one response served
//! from the result cache (used by the CI smoke job to prove the cache
//! is actually in the request path).
//!
//! `--chaos SEED` switches to the fault-injection soak: every serve
//! fault operator from `ancstr_core::inject` (truncated bodies, torn
//! writes, stalled reads, injected worker panics, corrupt model
//! uploads, poisoned batch-mates) is compiled into a deterministic wire plan from the seed —
//! no wall-clock randomness — and replayed `--requests` rounds against
//! the daemon (start it with `--chaos` so panic headers are honored).
//! After every fault the harness asserts the resilience invariants: the
//! daemon answers a clean follow-up request with the exact baseline
//! bytes (no wedged workers, no silent corruption), a faulted exchange
//! never yields a `200` with wrong bytes, and the request counters in
//! `/metrics` only ever move forward. Exit codes: 0 success, 1 failed
//! invariant, 2 usage, 3 connection/file errors.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ancstr_core::{plan_serve_fault, ALL_SERVE_FAULTS};
use ancstr_obs::{is_trace_id, mint_trace_id};
use ancstr_serve::client::{self, RetryPolicy};

fn usage() -> &'static str {
    "usage:\n  loadgen --addr HOST:PORT --netlist FILE [--requests N] [--concurrency N] [--expect-cached] [--retry-seed S] [--chaos SEED]"
}

struct Options {
    addr: SocketAddr,
    netlist: String,
    requests: usize,
    concurrency: usize,
    expect_cached: bool,
    retry_seed: u64,
    chaos: Option<u64>,
}

fn parse(raw: &[String]) -> Result<Options, String> {
    let mut addr = None;
    let mut netlist = None;
    let mut requests = 32usize;
    let mut concurrency = 8usize;
    let mut expect_cached = false;
    let mut retry_seed = 1u64;
    let mut chaos = None;
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--addr" => {
                let v = take("--addr")?;
                addr = Some(v.parse().map_err(|_| format!("bad --addr `{v}`"))?);
            }
            "--netlist" => netlist = Some(take("--netlist")?),
            "--requests" => {
                requests = take("--requests")?.parse().map_err(|_| "bad --requests")?;
                if requests == 0 {
                    return Err("--requests must be at least 1".to_owned());
                }
            }
            "--concurrency" => {
                concurrency = take("--concurrency")?.parse().map_err(|_| "bad --concurrency")?;
                if concurrency == 0 {
                    return Err("--concurrency must be at least 1".to_owned());
                }
            }
            "--expect-cached" => expect_cached = true,
            "--retry-seed" => {
                retry_seed = take("--retry-seed")?.parse().map_err(|_| "bad --retry-seed")?;
            }
            "--chaos" => {
                chaos = Some(take("--chaos")?.parse().map_err(|_| "bad --chaos (want a seed)")?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Options {
        addr: addr.ok_or("--addr is required")?,
        netlist: netlist.ok_or("--netlist is required")?,
        requests,
        concurrency,
        expect_cached,
        retry_seed,
        chaos,
    })
}

/// One request's outcome, as much as the summary needs.
struct Sample {
    status: u16,
    cached: bool,
    latency: Duration,
    /// The `constraints_text` JSON field, still escaped — byte equality
    /// of the escaped form implies byte equality of the text itself.
    constraints: Option<String>,
    /// The trace id minted for this request and sent in
    /// `x-ancstr-trace-id`.
    trace: String,
    /// The trace id the daemon echoed back, if it traces.
    echo: Option<String>,
}

/// Pull a string field out of a flat JSON object without re-parsing:
/// returns the escaped value between the quotes.
fn raw_field(body: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let start = body.find(&marker)? + marker.len();
    let rest = &body[start..];
    let mut end = 0;
    let bytes = rest.as_bytes();
    while end < bytes.len() {
        match bytes[end] {
            b'\\' => end += 2,
            b'"' => return Some(rest[..end].to_owned()),
            _ => end += 1,
        }
    }
    None
}

fn run(opts: &Options) -> Result<bool, String> {
    let body = std::fs::read(&opts.netlist)
        .map_err(|e| format!("cannot read `{}`: {e}", opts.netlist))?;
    let body = Arc::new(body);
    let samples: Arc<Mutex<Vec<Sample>>> = Arc::new(Mutex::new(Vec::new()));
    let next = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();

    std::thread::scope(|scope| {
        for _ in 0..opts.concurrency {
            let body = Arc::clone(&body);
            let samples = Arc::clone(&samples);
            let next = Arc::clone(&next);
            scope.spawn(move || {
                loop {
                    let index = next.fetch_add(1, Ordering::SeqCst);
                    if index >= opts.requests {
                        break;
                    }
                    // Per-request seed: every request gets its own
                    // deterministic retry schedule, and distinct
                    // requests de-synchronize instead of stampeding.
                    let policy = RetryPolicy::new(opts.retry_seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    let trace = mint_trace_id();
                    let t0 = Instant::now();
                    let sample = match client::request_with_retry(
                        opts.addr,
                        "POST",
                        "/v1/extract",
                        &[("x-ancstr-trace-id", trace.as_str())],
                        &body,
                        Duration::from_secs(60),
                        &policy,
                    ) {
                        Ok(reply) => {
                            let text = reply.text();
                            Sample {
                                status: reply.status,
                                cached: text.contains("\"cached\":true"),
                                latency: t0.elapsed(),
                                constraints: raw_field(&text, "constraints_text"),
                                echo: reply.header("x-ancstr-trace-id").map(str::to_owned),
                                trace,
                            }
                        }
                        Err(_) => Sample {
                            status: 0,
                            cached: false,
                            latency: t0.elapsed(),
                            constraints: None,
                            echo: None,
                            trace,
                        },
                    };
                    println!(
                        "trace {} status {} latency_ms {:.2}",
                        sample.trace,
                        sample.status,
                        sample.latency.as_secs_f64() * 1e3
                    );
                    samples.lock().unwrap().push(sample);
                }
            });
        }
    });

    let elapsed = started.elapsed();
    let samples = samples.lock().unwrap();
    let ok = samples.iter().filter(|s| s.status == 200).count();
    let cached = samples.iter().filter(|s| s.cached).count();
    let errors = samples.len() - ok;
    let mut latencies: Vec<Duration> = samples.iter().map(|s| s.latency).collect();
    latencies.sort();
    let pct = |p: f64| -> f64 {
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[idx].as_secs_f64() * 1e3
    };
    let distinct: std::collections::HashSet<&str> = samples
        .iter()
        .filter_map(|s| s.constraints.as_deref())
        .collect();

    let echoed = samples.iter().filter(|s| s.echo.is_some()).count();
    println!("requests {}  ok {ok}  cached {cached}  errors {errors}", samples.len());
    println!("throughput {:.1} req/s", samples.len() as f64 / elapsed.as_secs_f64());
    println!("latency_ms p50 {:.2} p95 {:.2} max {:.2}", pct(0.50), pct(0.95), pct(1.0));
    println!("trace ids: {} minted, {echoed} echoed by the daemon", samples.len());

    let mut healthy = true;
    for s in samples.iter() {
        match &s.echo {
            Some(e) if !is_trace_id(e) => {
                eprintln!("error: daemon echoed malformed trace id `{e}`");
                healthy = false;
            }
            Some(e) if e != &s.trace => {
                eprintln!("error: trace id rewritten in flight: sent {} got {e}", s.trace);
                healthy = false;
            }
            Some(_) => {}
            // A daemon without tracing echoes nothing; but once any
            // response proved tracing is on, a silent 200 is a hole in
            // the trace.
            None if echoed > 0 && s.status == 200 => {
                eprintln!("error: trace {} got a 200 with no echoed trace id", s.trace);
                healthy = false;
            }
            None => {}
        }
    }
    if errors > 0 {
        eprintln!("error: {errors} request(s) did not return 200");
        healthy = false;
    }
    if distinct.len() > 1 {
        eprintln!(
            "error: {} distinct constraint sets from one netlist — the daemon must be \
             deterministic",
            distinct.len()
        );
        healthy = false;
    }
    if opts.expect_cached && cached == 0 {
        eprintln!("error: --expect-cached was set but no response was served from the cache");
        healthy = false;
    }
    Ok(healthy)
}

/// Sum every `ancstr_http_requests_total{...}` sample in a metrics
/// scrape — the monotone witness for the chaos soak.
fn requests_total(metrics: &str) -> u64 {
    metrics
        .lines()
        .filter(|l| l.starts_with("ancstr_http_requests_total"))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<f64>().ok())
        .map(|v| v as u64)
        .sum()
}

/// The seeded chaos soak: replay every fault operator, and after each
/// one require the daemon to answer a clean request with the exact
/// baseline bytes.
fn run_chaos(opts: &Options, seed: u64) -> Result<bool, String> {
    const T: Duration = Duration::from_secs(30);
    let body = std::fs::read(&opts.netlist)
        .map_err(|e| format!("cannot read `{}`: {e}", opts.netlist))?;

    // The fault-free baseline everything else is compared against.
    let baseline = client::post(opts.addr, "/v1/extract", &body, T)
        .map_err(|e| format!("baseline request failed: {e}"))?;
    if baseline.status != 200 {
        return Err(format!("baseline request returned {}", baseline.status));
    }
    let baseline_constraints = raw_field(&baseline.text(), "constraints_text")
        .ok_or("baseline reply has no constraints_text")?;

    let mut healthy = true;
    let mut fail = |msg: String| {
        eprintln!("error: {msg}");
        healthy = false;
    };
    let mut last_total = 0u64;
    let mut faults_run = 0usize;
    // Set once any recovery probe echoes a trace id: from then on a
    // 200 without one is an incomplete trace, not a daemon that simply
    // runs untraced.
    let mut tracing_proven = false;
    let policy = RetryPolicy::new(seed);

    for round in 0..opts.requests {
        for (i, fault) in ALL_SERVE_FAULTS.iter().enumerate() {
            // Seed per (round, operator): deterministic for a fixed
            // --chaos seed, different wire bytes across rounds.
            let plan_seed = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((round * ALL_SERVE_FAULTS.len() + i) as u64);
            let plan = plan_serve_fault(*fault, "POST", "/v1/extract", &body, plan_seed);
            let outcome = client::send_plan(opts.addr, &plan, T)
                .map_err(|e| format!("chaos plan {fault:?} could not connect: {e}"))?;
            faults_run += 1;

            // Invariant: a faulted exchange may fail any way it likes,
            // but a 200 with bytes that differ from the baseline is
            // silent corruption.
            if let Some(reply) = &outcome.reply {
                if reply.status == 200 {
                    if let Some(c) = raw_field(&reply.text(), "constraints_text") {
                        if c != baseline_constraints {
                            fail(format!("{fault:?}: 200 reply with wrong constraint bytes"));
                        }
                    }
                }
            }

            // Invariant: the daemon is not wedged — a clean request on
            // a fresh connection succeeds (retrying through shed
            // replies) and reproduces the baseline bytes. The probe
            // carries a fresh trace id; a tracing daemon must echo it
            // on every 200 (trace completeness under faults).
            let trace = mint_trace_id();
            match client::request_with_retry(
                opts.addr,
                "POST",
                "/v1/extract",
                &[("x-ancstr-trace-id", trace.as_str())],
                &body,
                T,
                &policy,
            ) {
                Ok(probe) if probe.status == 200 => {
                    if raw_field(&probe.text(), "constraints_text").as_deref()
                        != Some(baseline_constraints.as_str())
                    {
                        fail(format!("{fault:?}: recovery reply diverged from the baseline"));
                    }
                    match probe.header("x-ancstr-trace-id") {
                        Some(e) if e == trace => tracing_proven = true,
                        Some(e) => fail(format!(
                            "{fault:?}: trace id rewritten in flight: sent {trace} got {e}"
                        )),
                        None if tracing_proven => fail(format!(
                            "{fault:?}: 200 recovery reply lost its trace id {trace}"
                        )),
                        None => {}
                    }
                }
                Ok(probe) => fail(format!(
                    "{fault:?}: recovery request returned {} — a worker may be wedged",
                    probe.status
                )),
                Err(e) => fail(format!("{fault:?}: recovery request failed: {e}")),
            }

            // Invariant: counters only move forward.
            match client::get(opts.addr, "/metrics", T) {
                Ok(m) => {
                    let total = requests_total(&m.text());
                    if total < last_total {
                        fail(format!(
                            "{fault:?}: ancstr_http_requests_total went backwards ({last_total} -> {total})"
                        ));
                    }
                    last_total = total;
                }
                Err(e) => fail(format!("{fault:?}: /metrics scrape failed: {e}")),
            }
        }
    }

    println!(
        "chaos seed {seed}: {faults_run} fault injections over {} round(s), {} operator(s); \
         requests_total {last_total}",
        opts.requests,
        ALL_SERVE_FAULTS.len(),
    );
    if tracing_proven {
        println!("trace completeness held: every 200 echoed its minted trace id");
    }
    if healthy {
        println!("all resilience invariants held");
    }
    Ok(healthy)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&raw) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match opts.chaos {
        Some(seed) => run_chaos(&opts, seed),
        None => run(&opts),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
    }
}
