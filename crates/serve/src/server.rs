//! The extraction daemon: accept loop, request routing, backpressure,
//! deadlines, admission control, and graceful shutdown.
//!
//! Architecture in one paragraph: a single accept thread owns the
//! [`TcpListener`] and a supervised [`WorkerPool`]. Accepted
//! connections are submitted to the pool's bounded queue without
//! blocking — when the queue is full the accept thread answers `503` +
//! `Retry-After` directly, without even reading the request, so
//! overload sheds load in O(1) instead of growing latency. Between the
//! full-queue cliff and normal operation sits a brownout band: when the
//! queue crosses its high watermark the daemon keeps answering cache
//! hits but sheds cold (cache-miss) extract requests with `503`, and
//! leaves brownout only once the queue drains below the low watermark
//! (hysteresis, so the flag does not flap). Workers parse the request
//! under bounded framing limits and a per-request deadline, route it,
//! and run extraction against a warm model snapshot from the
//! [`ModelRegistry`], consulting the content-addressed [`ResultCache`]
//! first. Every request runs under `catch_unwind` twice: once around
//! routing (a panicking handler becomes a clean `500` with stage
//! `worker_panic`) and once in the pool itself (whatever else unwinds
//! restarts the worker slot with capped exponential backoff). Shutdown
//! (`POST /v1/shutdown` or [`ShutdownHandle::signal`]) flips a flag and
//! self-connects to unblock `accept`; the accept loop then closes the
//! queue, drains every request already admitted, and flushes metrics
//! and traces to disk before [`Server::wait`] returns.
//!
//! One deliberate trade-off: the tracer's output format guarantees
//! globally LIFO span nesting with monotonic timestamps (that is what
//! `validate_trace` checks), which concurrent requests would violate.
//! When `--trace-out` is active the daemon therefore serializes request
//! handling through a trace gate — correctness of the trace stream over
//! parallelism. Without tracing there is no gate and requests run fully
//! concurrently. The gate is held by the connection handler *outside*
//! the `catch_unwind` around routing, so a panicking route cannot
//! poison it.

use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ancstr_core::{cache_key, write_atomic, CancelToken, ExtractError, PipelineObs, ServiceReply};
use ancstr_obs::metrics::DURATION_BUCKETS_S;
use ancstr_obs::{is_trace_id, mint_trace_id, Json, Value};

use crate::batch::{BatchJob, BatchOutcome, Batcher};
use crate::cache::{CacheStats, ResultCache};
use crate::flight::SingleFlight;
use crate::http::{read_request, ReadError, ReadLimits, Request, Response};
use crate::pool::{SubmitError, Supervision, WorkerPool};
use crate::registry::{ModelEntry, ModelRegistry, ReloadError, ResolveError};

/// How many consecutive `accept()` failures the loop tolerates before
/// concluding the listener is beyond saving and draining out.
const MAX_CONSECUTIVE_ACCEPT_ERRORS: u32 = 100;

/// Tunables for one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878`. Port 0 picks an ephemeral
    /// port (read it back via [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Bounded queue depth; beyond it connections get `503`.
    pub queue_depth: usize,
    /// Result-cache capacity in replies (0 disables caching).
    pub cache_entries: usize,
    /// Per-request deadline covering queue wait + read + handling.
    pub request_timeout: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Default extraction deadline (`--default-deadline-ms`), tightened
    /// further per request by the `x-ancstr-deadline-ms` header. `None`
    /// leaves only `request_timeout` in force.
    pub default_deadline: Option<Duration>,
    /// Queue depth at which brownout begins (cold traffic is shed).
    pub brownout_high: usize,
    /// Queue depth at which brownout ends. Must be `<= brownout_high`;
    /// the gap is the hysteresis band.
    pub brownout_low: usize,
    /// Honor `x-ancstr-chaos` fault-cooperation headers (test rigs
    /// only; never enable in production).
    pub chaos: bool,
    /// Largest number of queued extract requests fused into one batched
    /// forward pass (`--batch-max`).
    pub batch_max: usize,
    /// When set, the drain path writes the final metrics snapshot here
    /// (Prometheus text format) before the daemon exits.
    pub metrics_out: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_depth: 64,
            cache_entries: 256,
            request_timeout: Duration::from_secs(30),
            max_body_bytes: 4 * 1024 * 1024,
            default_deadline: None,
            brownout_high: 48,
            brownout_low: 16,
            chaos: false,
            batch_max: 16,
            metrics_out: None,
        }
    }
}

/// Shared request-handling state (one per daemon, behind an `Arc`).
struct Ctx {
    registry: Arc<ModelRegistry>,
    cache: ResultCache,
    /// Coalesces concurrent misses on one cache key onto one pipeline
    /// run (anti-thundering-herd).
    flight: SingleFlight,
    /// Fuses queued same-model extract requests into one forward pass,
    /// bisecting failed batches to isolate poison requests.
    batcher: Batcher,
    obs: PipelineObs,
    shutdown: Arc<AtomicBool>,
    /// Present iff a tracer is attached; holding it serializes traced
    /// request handling (see the module docs).
    trace_gate: Option<Mutex<()>>,
    request_timeout: Duration,
    max_body: usize,
    default_deadline: Option<Duration>,
    /// Set while admission control sheds cold traffic.
    brownout: AtomicBool,
    /// Requests whose handler panicked (both catch layers).
    worker_panics: AtomicU64,
    /// Requests isolated as batch poison by bisection.
    poisoned: AtomicU64,
    chaos: bool,
    metrics_out: Option<PathBuf>,
    started: Instant,
    local_addr: SocketAddr,
    /// Cache counters already published to the metrics registry, so
    /// `/metrics` can emit monotonic deltas.
    published: Mutex<CacheStats>,
    /// Batching counters already published.
    batch_published: Mutex<BatchPublished>,
    /// Kernel profiling counters already published. Initialized to the
    /// process-wide counters at server start, so a daemon sharing its
    /// process with other instrumented work (tests, `bench`) exposes
    /// only what accumulated on its own watch.
    kernels_published: Mutex<Vec<KernelPublished>>,
}

/// Kernel-profile counters last folded into the metrics registry.
#[derive(Default, Clone, Copy)]
struct KernelPublished {
    calls: u64,
    elems: u64,
    wall_ns: u64,
}

/// The process-wide kernel counters as a publish baseline.
fn kernel_baseline() -> Vec<KernelPublished> {
    ancstr_par::profile::snapshot()
        .iter()
        .map(|s| KernelPublished { calls: s.calls, elems: s.elems, wall_ns: s.wall_ns })
        .collect()
}

/// Per-request telemetry threaded from the connection handler through
/// routing into [`finish`]: the request's trace identity (present iff
/// tracing is enabled), per-stage timings for the `x-ancstr-timing`
/// summary header, and the cache-temperature / model labels for the
/// request-duration histogram. Interior mutability because the route
/// handlers run inside `catch_unwind` holding only a shared reference.
struct ReqTelemetry {
    /// The request's 128-bit trace id — adopted from a well-formed
    /// `x-ancstr-trace-id` header or freshly minted. `None` whenever
    /// tracing is disabled, which is what keeps responses byte-free of
    /// trace headers in that mode.
    trace_id: Option<String>,
    /// `(stage, nanoseconds)` pairs in completion order.
    timings: Mutex<Vec<(&'static str, u64)>>,
    /// Cache temperature: `hit`, `miss`, or `none` (non-extract routes
    /// and requests rejected before the cache lookup).
    cache: Mutex<&'static str>,
    /// Model fingerprint serving the request, once resolved.
    model: Mutex<Option<String>>,
}

impl ReqTelemetry {
    fn new(trace_id: Option<String>) -> ReqTelemetry {
        ReqTelemetry {
            trace_id,
            timings: Mutex::new(Vec::new()),
            cache: Mutex::new("none"),
            model: Mutex::new(None),
        }
    }

    fn time(&self, stage: &'static str, dur: Duration) {
        self.timings
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((stage, dur.as_nanos() as u64));
    }

    fn set_cache(&self, temperature: &'static str) {
        *self.cache.lock().unwrap_or_else(|e| e.into_inner()) = temperature;
    }

    fn set_model(&self, fingerprint_hex: String) {
        *self.model.lock().unwrap_or_else(|e| e.into_inner()) = Some(fingerprint_hex);
    }

    /// The `x-ancstr-timing` value, Server-Timing style:
    /// `queue_wait;dur=0.12, batch;dur=45.3, total;dur=45.8` (ms).
    fn timing_header(&self, total: Duration) -> String {
        let timings = self.timings.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for (stage, ns) in timings.iter() {
            let _ = write!(out, "{stage};dur={:.3}, ", *ns as f64 / 1e6);
        }
        let _ = write!(out, "total;dur={:.3}", total.as_secs_f64() * 1e3);
        out
    }
}

/// Snapshot of the batching counters last folded into the metrics
/// registry, so publishes stay monotonic deltas.
#[derive(Default, Clone, Copy)]
struct BatchPublished {
    batches: u64,
    batched_requests: u64,
    bisections: u64,
}

/// A handle that asks a running [`Server`] to stop accepting and drain.
#[derive(Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Request shutdown: sets the flag and pokes the listener with a
    /// throwaway connection so a blocking `accept` observes it.
    pub fn signal(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }
}

/// A running daemon. Dropping the struct does not stop it — call
/// [`ShutdownHandle::signal`] (or `POST /v1/shutdown`) and then
/// [`Server::wait`].
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept thread and worker pool, and return
    /// immediately.
    ///
    /// # Errors
    ///
    /// Any failure to bind or inspect the listening socket.
    pub fn start(
        cfg: ServeConfig,
        registry: Arc<ModelRegistry>,
        obs: PipelineObs,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        register_help(&obs);
        // Kernel attribution rides the same switch as the rest of the
        // daemon's observability; when obs is disabled the compute
        // kernels pay only a relaxed load per call.
        if obs.enabled() {
            ancstr_par::profile::set_enabled(true);
        }
        let shutdown = Arc::new(AtomicBool::new(false));
        let ctx = Arc::new(Ctx {
            registry,
            cache: ResultCache::new(cfg.cache_entries),
            flight: SingleFlight::new(),
            batcher: Batcher::new(cfg.batch_max.max(1)),
            trace_gate: obs.tracing().then(|| Mutex::new(())),
            obs,
            shutdown: Arc::clone(&shutdown),
            request_timeout: cfg.request_timeout,
            max_body: cfg.max_body_bytes,
            default_deadline: cfg.default_deadline,
            brownout: AtomicBool::new(false),
            worker_panics: AtomicU64::new(0),
            poisoned: AtomicU64::new(0),
            chaos: cfg.chaos,
            metrics_out: cfg.metrics_out.clone(),
            started: Instant::now(),
            local_addr: addr,
            published: Mutex::new(CacheStats::default()),
            batch_published: Mutex::new(BatchPublished::default()),
            kernels_published: Mutex::new(kernel_baseline()),
        });
        let flag = Arc::clone(&shutdown);
        let accept = thread::Builder::new()
            .name("ancstr-serve-accept".to_owned())
            .spawn(move || accept_loop(listener, cfg, ctx, flag))?;
        Ok(Server { addr, shutdown, accept: Some(accept) })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle other threads can use to stop the daemon.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle { flag: Arc::clone(&self.shutdown), addr: self.addr }
    }

    /// Block until the daemon has stopped accepting and every admitted
    /// request has been answered.
    pub fn wait(mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: TcpListener, cfg: ServeConfig, ctx: Arc<Ctx>, flag: Arc<AtomicBool>) {
    let worker_ctx = Arc::clone(&ctx);
    let panic_ctx = Arc::clone(&ctx);
    let supervision = Supervision {
        on_panic: Some(Arc::new(move |worker| {
            // The dispatch-level catch already answered the client for
            // route panics; this layer fires for anything that escapes
            // it (chaos `panic-raw`, framing bugs) and restarts the
            // slot.
            panic_ctx.worker_panics.fetch_add(1, Ordering::SeqCst);
            panic_ctx.obs.metrics().counter_add(
                "ancstr_serve_worker_panics_total",
                &[("layer", "pool")],
                1,
            );
            panic_ctx.obs.event("serve", "worker_restart", &[("worker", worker.into())]);
        })),
        ..Supervision::default()
    };
    let pool = WorkerPool::supervised(
        cfg.workers,
        cfg.queue_depth,
        supervision,
        move |(stream, accepted, shed_cold)| {
            handle_conn(&worker_ctx, stream, accepted, shed_cold);
        },
    );
    let mut consecutive_errors: u32 = 0;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => {
                consecutive_errors = 0;
                stream
            }
            Err(_) => {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                ctx.obs.metrics().counter_add("ancstr_serve_accept_errors_total", &[], 1);
                consecutive_errors += 1;
                if consecutive_errors >= MAX_CONSECUTIVE_ACCEPT_ERRORS {
                    // The listener is wedged (fd exhaustion, interface
                    // gone). Drain what was admitted and exit cleanly
                    // instead of spinning forever.
                    flag.store(true, Ordering::SeqCst);
                    break;
                }
                thread::sleep(Duration::from_millis(5));
                continue;
            }
        };
        if flag.load(Ordering::SeqCst) {
            break; // the wake connection itself, or a race with it
        }
        // Tag the request with the brownout state at admission: the
        // decision is made once, here, so a flap mid-handling cannot
        // shed a request that was admitted under normal operation.
        let shed_cold = ctx.brownout.load(Ordering::SeqCst);
        match pool.submit((stream, Instant::now(), shed_cold)) {
            Ok(()) => {
                let depth = pool.depth();
                ctx.obs.metrics().gauge_set("ancstr_serve_queue_depth", &[], depth as f64);
                update_brownout(&ctx, depth, cfg.brownout_high, cfg.brownout_low);
            }
            Err((reason, (mut stream, _, _))) => {
                let reason = match reason {
                    SubmitError::Full => "queue_full",
                    SubmitError::Closed => "closed",
                };
                ctx.obs
                    .metrics()
                    .counter_add("ancstr_serve_rejected_total", &[("reason", reason)], 1);
                // Shed load without reading the request: the client gets
                // an immediate, honest signal instead of queueing.
                let _ = Response::new(503).header("Retry-After", "1").write_to(&mut stream);
            }
        }
    }
    drop(listener);
    pool.shutdown();
    ctx.obs.metrics().gauge_set("ancstr_serve_queue_depth", &[], 0.0);
    drain_flush(&ctx);
}

/// Hysteresis for the brownout flag: enter at the high watermark, leave
/// at the low one, hold in between.
fn update_brownout(ctx: &Ctx, depth: usize, high: usize, low: usize) {
    let was = ctx.brownout.load(Ordering::SeqCst);
    let now = if depth >= high.max(1) {
        true
    } else if depth <= low {
        false
    } else {
        was
    };
    if now != was {
        ctx.brownout.store(now, Ordering::SeqCst);
        ctx.obs.metrics().gauge_set("ancstr_serve_brownout", &[], f64::from(u8::from(now)));
        ctx.obs.event("serve", "brownout", &[("active", now.into()), ("depth", depth.into())]);
    }
}

/// The end of the drain path: fold in the final cache counters, persist
/// the metrics snapshot when configured, and flush the trace stream.
/// Every accept-loop exit (shutdown endpoint, signal, wedged listener)
/// funnels through here, so operators get a complete final snapshot
/// even on unhappy paths.
fn drain_flush(ctx: &Ctx) {
    // Publish *everything* a `/metrics` scrape would, not just the
    // counters: families first observed mid-flight (the par-threads
    // gauge, kernel attribution) must appear in the final snapshot even
    // when nothing ever scraped the live endpoint.
    publish_scrape_metrics(ctx);
    if let Some(path) = &ctx.metrics_out {
        let _ = write_atomic(path, &ctx.obs.metrics().render());
    }
    ctx.obs.flush();
}

/// Register help texts for the daemon's metric families (idempotent).
fn register_help(obs: &PipelineObs) {
    let m = obs.metrics();
    m.help("ancstr_http_requests_total", "HTTP requests answered, by route and status code.");
    m.help("ancstr_http_request_seconds", "Request handling time (read + route + respond), by route.");
    m.help("ancstr_serve_queue_depth", "Connections waiting in the bounded accept queue.");
    m.help("ancstr_serve_rejected_total", "Connections shed before handling, by reason.");
    m.help("ancstr_serve_cache_hits_total", "Extract requests answered from the result cache.");
    m.help("ancstr_serve_cache_misses_total", "Extract requests that ran the pipeline.");
    m.help("ancstr_serve_cache_evictions_total", "Cached replies evicted by the LRU bound.");
    m.help("ancstr_serve_cache_entries", "Replies currently resident in the result cache.");
    m.help("ancstr_serve_model_reloads_total", "Model hot-swap attempts, by result.");
    m.help("ancstr_serve_model_quarantined", "Upload bodies quarantined by the reload circuit breaker.");
    m.help("ancstr_serve_worker_panics_total", "Request handlers that panicked, by catch layer.");
    m.help("ancstr_serve_deadline_expired_total", "Extractions aborted because the per-request deadline expired.");
    m.help("ancstr_serve_brownout_sheds_total", "Cold (cache-miss) extract requests shed during brownout.");
    m.help("ancstr_serve_brownout", "1 while admission control is shedding cold traffic.");
    m.help("ancstr_serve_accept_errors_total", "Errors returned by the listener's accept().");
    m.help("ancstr_serve_batches_total", "Fused forward passes executed (including bisection retries).");
    m.help("ancstr_serve_batched_requests_total", "Extract requests that rode a fused pass of size >= 2.");
    m.help("ancstr_serve_batch_bisections_total", "Failed-batch splits performed to isolate poison requests.");
    m.help("ancstr_serve_batch_poisoned_total", "Requests isolated as batch poison and answered 500.");
    m.help("ancstr_serve_request_duration_seconds", "End-to-end request time, by route, status code, cache temperature and model.");
    m.help("ancstr_kernel_calls_total", "Instrumented compute-kernel invocations, by kernel.");
    m.help("ancstr_kernel_elements_total", "Elements processed inside instrumented kernels (mul-adds for matmul/spmm), by kernel.");
    m.help("ancstr_kernel_wall_ns_total", "Wall nanoseconds spent inside instrumented kernels, by kernel.");
    m.help("ancstr_kernel_threads", "Thread count configured at the kernel's most recent call, by kernel.");
}

/// Handle one admitted connection end-to-end.
fn handle_conn(ctx: &Ctx, mut stream: TcpStream, accepted: Instant, shed_cold: bool) {
    // The deadline covers time already spent queued: a request that
    // starved in the queue is answered with 503 rather than processed
    // long after the client gave up.
    let hard_deadline = accepted + ctx.request_timeout;
    let Some(remaining) = ctx.request_timeout.checked_sub(accepted.elapsed()) else {
        ctx.obs
            .metrics()
            .counter_add("ancstr_serve_rejected_total", &[("reason", "deadline")], 1);
        let _ = Response::new(503).header("Retry-After", "1").write_to(&mut stream);
        return;
    };
    let _ = stream.set_read_timeout(Some(remaining));
    let _ = stream.set_write_timeout(Some(ctx.request_timeout));
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".to_owned());

    let queue_wait = accepted.elapsed();
    let started = Instant::now();
    // Framing limits: body size, header count/length, and the hard
    // deadline — a slowloris client dripping bytes is cut off at the
    // same deadline as everyone else, between reads, regardless of the
    // per-read socket timeout.
    let limits = ReadLimits::new(ctx.max_body).with_deadline(hard_deadline);
    let req = match read_request(&mut stream, &limits) {
        Ok(req) => req,
        Err(err) => {
            let (status, route) = match &err {
                ReadError::BadRequest(_) => (400, "malformed"),
                ReadError::BodyTooLarge { .. } => (413, "malformed"),
                ReadError::HeadTooLarge { .. } => (431, "malformed"),
                ReadError::Timeout => (408, "malformed"),
                ReadError::Io(_) => {
                    // The peer vanished; nobody is listening for a reply.
                    return;
                }
            };
            // No request headers to adopt a trace id from.
            let telemetry = ReqTelemetry::new(None);
            let resp = error_response(status, &err.to_string());
            finish(ctx, &mut stream, route, started, resp, &telemetry);
            return;
        }
    };

    // Trace identity is minted (or adopted from the caller) only when
    // tracing is active — with it disabled, no trace work happens and
    // no trace headers appear on the wire.
    let telemetry = ReqTelemetry::new(ctx.obs.tracing().then(|| {
        req.header("x-ancstr-trace-id")
            .filter(|v| is_trace_id(v))
            .map(str::to_owned)
            .unwrap_or_else(mint_trace_id)
    }));

    // Chaos hook exercising the *pool* supervision layer: the panic
    // escapes the dispatch-level catch below, so the client sees a torn
    // connection and the worker slot restarts under backoff.
    if ctx.chaos && req.header("x-ancstr-chaos") == Some("panic-raw") {
        panic!("chaos: injected pre-dispatch panic");
    }

    // The extraction deadline: the hard per-request budget, tightened
    // by the daemon-wide default and the client's own header. The token
    // keeps whichever deadline is earliest.
    let mut cancel = CancelToken::new().with_deadline(hard_deadline);
    if let Some(budget) = ctx.default_deadline {
        cancel = cancel.with_deadline(Instant::now() + budget);
    }
    if let Some(ms) = req.header("x-ancstr-deadline-ms").and_then(|v| v.trim().parse::<u64>().ok())
    {
        cancel = cancel.with_deadline(Instant::now() + Duration::from_millis(ms));
    }

    // Serialize traced handling; see the module docs for why. Held
    // outside the catch_unwind so a panicking route cannot poison it.
    let _gate = ctx
        .trace_gate
        .as_ref()
        .map(|m| m.lock().unwrap_or_else(|e| e.into_inner()));
    let route = route_label(&req);
    let response = {
        // The root request span. When tracing, it carries the trace id,
        // which `obs-report` inherits down to every child span.
        let mut span_fields: Vec<(&str, Value)> =
            vec![("route", route.into()), ("peer", peer.as_str().into())];
        if let Some(id) = &telemetry.trace_id {
            span_fields.push(("trace", id.as_str().into()));
        }
        let _span = ctx.obs.stage_with("serve", &span_fields);
        // Queue wait ended before any span could open; back-date it as
        // the serve span's first child.
        if let Some(tracer) = ctx.obs.tracer() {
            tracer.completed_span("serve", "queue_wait", queue_wait.as_nanos() as u64, &[]);
        }
        telemetry.time("queue_wait", queue_wait);
        // Panic isolation, layer one: a handler panic becomes a clean
        // 500 on this connection and the worker keeps its slot.
        panic::catch_unwind(AssertUnwindSafe(|| {
            dispatch(ctx, &req, &peer, &cancel, shed_cold, &telemetry)
        }))
            .unwrap_or_else(|_| {
                ctx.worker_panics.fetch_add(1, Ordering::SeqCst);
                ctx.obs.metrics().counter_add(
                    "ancstr_serve_worker_panics_total",
                    &[("layer", "dispatch")],
                    1,
                );
                Response::json(
                    500,
                    &Json::obj()
                        .set("error", "the request handler panicked; the worker recovered")
                        .set("stage", "worker_panic"),
                )
            })
    };
    finish(ctx, &mut stream, route, started, response, &telemetry);
}

/// Record request metrics, attach the trace/timing response headers
/// (iff tracing is active), and write the response.
fn finish(
    ctx: &Ctx,
    stream: &mut TcpStream,
    route: &str,
    started: Instant,
    mut response: Response,
    telemetry: &ReqTelemetry,
) {
    let elapsed = started.elapsed();
    let code = response.status.to_string();
    let metrics = ctx.obs.metrics();
    metrics.counter_add("ancstr_http_requests_total", &[("route", route), ("code", &code)], 1);
    metrics.observe(
        "ancstr_http_request_seconds",
        &[("route", route)],
        &DURATION_BUCKETS_S,
        elapsed.as_secs_f64(),
    );
    // Stage-latency attribution: the same duration, sliced by what the
    // request actually was — which route, what it answered, whether the
    // cache saved the pipeline run, and which model served it.
    let cache = *telemetry.cache.lock().unwrap_or_else(|e| e.into_inner());
    let model = telemetry
        .model
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
        .unwrap_or_else(|| "none".to_owned());
    metrics.observe(
        "ancstr_serve_request_duration_seconds",
        &[("route", route), ("code", &code), ("cache", cache), ("model", &model)],
        &DURATION_BUCKETS_S,
        elapsed.as_secs_f64(),
    );
    if let Some(id) = &telemetry.trace_id {
        response = response
            .header("x-ancstr-trace-id", id)
            .header("x-ancstr-timing", &telemetry.timing_header(elapsed));
    }
    let _ = response.write_to(stream);
}

/// The metrics label for a request path: known routes keep their path,
/// everything else collapses into `other` to bound label cardinality.
fn route_label(req: &Request) -> &'static str {
    match req.path.as_str() {
        "/v1/extract" => "/v1/extract",
        "/v1/models" => "/v1/models",
        "/v1/shutdown" => "/v1/shutdown",
        "/healthz" => "/healthz",
        "/healthz/live" => "/healthz/live",
        "/healthz/ready" => "/healthz/ready",
        "/metrics" => "/metrics",
        _ => "other",
    }
}

fn dispatch(
    ctx: &Ctx,
    req: &Request,
    peer: &str,
    cancel: &CancelToken,
    shed_cold: bool,
    telemetry: &ReqTelemetry,
) -> Response {
    if ctx.chaos {
        match req.header("x-ancstr-chaos") {
            // Exercises the dispatch-level catch: clean 500, same
            // connection, worker survives.
            Some("panic") => panic!("chaos: injected dispatch panic"),
            // Simulates a stuck handler so deadline propagation has
            // something real to cut short.
            Some(v) => {
                if let Some(ms) = v.strip_prefix("stall-ms:").and_then(|n| n.parse::<u64>().ok()) {
                    thread::sleep(Duration::from_millis(ms));
                }
            }
            None => {}
        }
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/extract") => extract_route(ctx, req, peer, cancel, shed_cold, telemetry),
        ("GET", "/healthz") => healthz_route(ctx),
        ("GET", "/healthz/live") => Response::json(200, &Json::obj().set("status", "alive")),
        ("GET", "/healthz/ready") => readyz_route(ctx),
        ("GET", "/metrics") => metrics_route(ctx),
        ("POST", "/v1/models") => models_route(ctx, req, peer),
        ("POST", "/v1/shutdown") => shutdown_route(ctx),
        (
            _,
            "/v1/extract" | "/v1/models" | "/v1/shutdown" | "/healthz" | "/healthz/live"
            | "/healthz/ready" | "/metrics",
        ) => error_response(405, &format!("{} is not supported on {}", req.method, req.path)),
        _ => error_response(404, &format!("no endpoint at {}", req.path)),
    }
}

/// A JSON error body: `{"error": "..."}` plus optional stage fields.
fn error_response(status: u16, message: &str) -> Response {
    Response::json(status, &Json::obj().set("error", message))
}

/// Media type of the raw ALIGN-JSON constraint document.
const ALIGN_MEDIA_TYPE: &str = "application/vnd.align+json";

/// Which representation of a [`ServiceReply`] the client asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplyFormat {
    /// The existing wrapper object (`constraints_text`, counters, …).
    Wrapper,
    /// The raw ALIGN-JSON constraint document.
    AlignJson,
}

/// Content negotiation for `POST /v1/extract`: an absent `Accept`, or
/// one naming `application/json` / `application/*` / `*/*`, selects the
/// wrapper; `application/vnd.align+json` (anywhere in the list, taking
/// precedence as the more specific type) selects the raw ALIGN
/// document; anything else is `406`. Quality parameters are ignored —
/// two formats do not need a preference lattice.
fn negotiate_format(req: &Request) -> Result<ReplyFormat, Response> {
    let Some(accept) = req.header("accept") else {
        return Ok(ReplyFormat::Wrapper);
    };
    let mut wrapper_ok = false;
    for part in accept.split(',') {
        let media = part.split(';').next().unwrap_or("").trim().to_ascii_lowercase();
        match media.as_str() {
            ALIGN_MEDIA_TYPE => return Ok(ReplyFormat::AlignJson),
            "application/json" | "application/*" | "*/*" | "" => wrapper_ok = true,
            _ => {}
        }
    }
    if wrapper_ok {
        Ok(ReplyFormat::Wrapper)
    } else {
        Err(Response::json(
            406,
            &Json::obj()
                .set(
                    "error",
                    format!("no acceptable representation: this endpoint offers application/json and {ALIGN_MEDIA_TYPE}"),
                )
                .set("stage", "content_negotiation"),
        ))
    }
}

fn extract_route(
    ctx: &Ctx,
    req: &Request,
    peer: &str,
    cancel: &CancelToken,
    shed_cold: bool,
    telemetry: &ReqTelemetry,
) -> Response {
    let Ok(source) = std::str::from_utf8(&req.body) else {
        return error_response(400, "request body is not valid UTF-8");
    };
    if source.trim().is_empty() {
        return error_response(400, "empty netlist body");
    }
    let format = match negotiate_format(req) {
        Ok(f) => f,
        Err(resp) => return resp,
    };
    // An already-expired budget is 408 even when the answer is cached:
    // the client stopped waiting, and a deterministic status beats a
    // reply whose fate depends on cache temperature.
    if cancel.is_cancelled() {
        ctx.obs.metrics().counter_add("ancstr_serve_deadline_expired_total", &[], 1);
        return extract_error_response(408, &ExtractError::Cancelled);
    }
    // Snapshot the resident model once, checked against the client's
    // x-ancstr-model pin if it sent one; the whole request is served by
    // exactly this entry even if a hot-swap lands mid-flight.
    let entry = match ctx.registry.resolve(req.header("x-ancstr-model")) {
        Ok(entry) => entry,
        Err(err) => {
            let status = match err {
                ResolveError::BadFingerprint(_) => 400,
                ResolveError::NotFound(_) => 404,
            };
            return Response::json(
                status,
                &Json::obj().set("error", err.to_string()).set("stage", "model_routing"),
            );
        }
    };
    telemetry.set_model(entry.fingerprint_hex());
    let key = cache_key(&req.body, entry.extractor.config(), entry.fingerprint);
    // Single-flight: at most one worker computes any given key. A
    // follower waits — bounded by its own deadline — for the leader to
    // publish, then takes leadership itself just long enough to read
    // the cache. This turns N identical cold requests into one
    // pipeline run and makes the hit/miss counters deterministic.
    let flight_started = Instant::now();
    let _lead = loop {
        match ctx.flight.begin(&key) {
            Some(guard) => break guard,
            None => {
                ctx.flight.wait(&key, Duration::from_millis(50));
                if cancel.is_cancelled() {
                    ctx.obs.metrics().counter_add("ancstr_serve_deadline_expired_total", &[], 1);
                    return extract_error_response(408, &ExtractError::Cancelled);
                }
            }
        }
    };
    let flight_wait = flight_started.elapsed();
    if let Some(tracer) = ctx.obs.tracer() {
        tracer.completed_span("serve", "single_flight", flight_wait.as_nanos() as u64, &[]);
    }
    telemetry.time("single_flight", flight_wait);
    if let Some(reply) = ctx.cache.get(&key) {
        // Cache hits are cheap; brownout never sheds them.
        telemetry.set_cache("hit");
        return reply_response(&reply, &entry, true, format);
    }
    telemetry.set_cache("miss");
    if shed_cold {
        ctx.obs.metrics().counter_add("ancstr_serve_brownout_sheds_total", &[], 1);
        return Response::json(
            503,
            &Json::obj()
                .set("error", "brownout: the daemon is shedding cold requests; retry shortly")
                .set("stage", "brownout"),
        )
        .header("Retry-After", "1");
    }
    let chaos = ctx.chaos.then(|| req.header("x-ancstr-chaos")).flatten();
    // The origin label is diagnostic-only (it becomes the parse span's
    // `path` field), which makes it the safe channel for linking the
    // batch lane's pipeline spans back to this requester's trace.
    let origin = match &telemetry.trace_id {
        Some(id) => format!("{peer} trace={id}"),
        None => peer.to_owned(),
    };
    let batch_started = Instant::now();
    let batch_span = ctx.obs.tracer().map(|t| {
        t.span("serve", "batch", &[("model", entry.fingerprint_hex().into())])
    });
    let outcome = ctx.batcher.submit(
        entry.fingerprint,
        &entry.extractor,
        &ctx.obs,
        BatchJob {
            source: source.to_owned(),
            origin,
            cancel: cancel.clone(),
            poison: chaos == Some("poison"),
        },
    );
    drop(batch_span);
    telemetry.time("batch", batch_started.elapsed());
    match outcome {
        BatchOutcome::Reply(reply) => {
            let reply = Arc::new(*reply);
            ctx.cache.put(key, Arc::clone(&reply));
            reply_response(&reply, &entry, false, format)
        }
        BatchOutcome::Error(err) => {
            // Parse/elaborate failures indict the client's netlist; an
            // expired deadline is the client's budget; everything
            // downstream is the server's problem.
            let status = match err.exit_code() {
                4 | 5 => 400,
                10 => {
                    ctx.obs.metrics().counter_add("ancstr_serve_deadline_expired_total", &[], 1);
                    408
                }
                _ => 500,
            };
            extract_error_response(status, &err)
        }
        BatchOutcome::Poisoned => {
            ctx.poisoned.fetch_add(1, Ordering::SeqCst);
            ctx.obs.metrics().counter_add("ancstr_serve_batch_poisoned_total", &[], 1);
            Response::json(
                500,
                &Json::obj()
                    .set(
                        "error",
                        "this request crashed the pipeline; its batch-mates were unaffected",
                    )
                    .set("stage", "batch_poison"),
            )
        }
        BatchOutcome::Budget => Response::json(
            500,
            &Json::obj()
                .set("error", "batch retry budget exhausted before this request succeeded")
                .set("stage", "batch_budget"),
        ),
    }
}

fn extract_error_response(status: u16, err: &ExtractError) -> Response {
    Response::json(
        status,
        &Json::obj()
            .set("error", err.to_string())
            .set("stage", err.stage())
            .set("exit_code", u64::from(err.exit_code())),
    )
}

fn reply_response(
    reply: &ServiceReply,
    entry: &ModelEntry,
    cached: bool,
    format: ReplyFormat,
) -> Response {
    if format == ReplyFormat::AlignJson {
        // The batcher renders the ALIGN view on every pass, so cached
        // and fresh replies alike carry it; the defensive fallback only
        // guards replies minted by an older build sharing the cache.
        if let Some(doc) = &reply.align_json {
            return Response::new(200)
                .header("Content-Type", ALIGN_MEDIA_TYPE)
                .header("x-ancstr-cached", if cached { "1" } else { "0" })
                .with_body(doc.clone().into_bytes());
        }
    }
    let warnings: Vec<Json> = reply.warnings.iter().map(|w| Json::from(w.as_str())).collect();
    Response::json(
        200,
        &Json::obj()
            .set("cached", cached)
            .set("constraints", reply.constraints as u64)
            .set("constraints_text", reply.constraints_text.as_str())
            .set("devices", reply.devices as u64)
            .set("nets", reply.nets as u64)
            .set("model", entry.fingerprint_hex())
            .set("generation", entry.generation)
            .set("runtime_ms", reply.runtime.as_secs_f64() * 1e3)
            .set("warnings", warnings),
    )
}

fn healthz_route(ctx: &Ctx) -> Response {
    let entry = ctx.registry.current();
    let stats = ctx.cache.stats();
    let breaker = ctx.registry.breaker();
    Response::json(
        200,
        &Json::obj()
            .set("status", "ok")
            .set("uptime_seconds", ctx.started.elapsed().as_secs_f64())
            .set("brownout", ctx.brownout.load(Ordering::SeqCst))
            .set("worker_panics", ctx.worker_panics.load(Ordering::SeqCst))
            .set(
                "model",
                Json::obj()
                    .set("fingerprint", entry.fingerprint_hex())
                    .set("generation", entry.generation)
                    .set("source", entry.source.as_str()),
            )
            .set(
                "breaker",
                Json::obj()
                    .set("quarantined", breaker.quarantined as u64)
                    .set("rejected_total", breaker.rejected_total),
            )
            .set(
                "batching",
                Json::obj()
                    .set("batches", ctx.batcher.batches_total())
                    .set("batched_requests", ctx.batcher.batched_requests_total())
                    .set("bisections", ctx.batcher.bisections_total())
                    .set("poisoned", ctx.poisoned.load(Ordering::SeqCst)),
            )
            .set(
                "cache",
                Json::obj()
                    .set("hits", stats.hits)
                    .set("misses", stats.misses)
                    .set("evictions", stats.evictions)
                    .set("entries", stats.entries as u64),
            ),
    )
}

/// Readiness is stricter than liveness: a draining or browned-out
/// daemon is alive (do not restart it) but not ready (stop routing new
/// traffic to it).
fn readyz_route(ctx: &Ctx) -> Response {
    let mut reasons: Vec<Json> = Vec::new();
    if ctx.shutdown.load(Ordering::SeqCst) {
        reasons.push("draining".into());
    }
    if ctx.brownout.load(Ordering::SeqCst) {
        reasons.push("brownout".into());
    }
    let ready = reasons.is_empty();
    let body = Json::obj()
        .set("status", if ready { "ready" } else { "degraded" })
        .set("reasons", reasons)
        .set("quarantined_models", ctx.registry.breaker().quarantined as u64);
    let mut resp = Response::json(if ready { 200 } else { 503 }, &body);
    if !ready {
        resp = resp.header("Retry-After", "1");
    }
    resp
}

fn metrics_route(ctx: &Ctx) -> Response {
    publish_scrape_metrics(ctx);
    Response::new(200)
        .header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        .with_body(ctx.obs.metrics().render().into_bytes())
}

/// Everything a scrape publishes on demand: the cache/batching deltas,
/// the effective compute-layer thread count (the `--threads` flag, or
/// the machine's available parallelism when unset), and kernel
/// attribution. The drain path reuses this so the final snapshot is a
/// superset of what any live scrape would have shown.
fn publish_scrape_metrics(ctx: &Ctx) {
    publish_cache_metrics(ctx);
    publish_kernel_metrics(ctx);
    ctx.obs.metrics().gauge_set("ancstr_par_threads", &[], ancstr_par::threads() as f64);
}

/// Fold the process-wide kernel profiling counters into the registry
/// as monotonic deltas since this daemon's baseline. Saturating
/// subtraction because `bench` (sharing the process in tests) may
/// reset the counters between publishes.
fn publish_kernel_metrics(ctx: &Ctx) {
    if !ancstr_par::profile::enabled() {
        return;
    }
    let snap = ancstr_par::profile::snapshot();
    let mut last = ctx.kernels_published.lock().unwrap_or_else(|e| e.into_inner());
    let m = ctx.obs.metrics();
    for (s, prev) in snap.iter().zip(last.iter_mut()) {
        let labels = [("kernel", s.name)];
        m.counter_add("ancstr_kernel_calls_total", &labels, s.calls.saturating_sub(prev.calls));
        m.counter_add("ancstr_kernel_elements_total", &labels, s.elems.saturating_sub(prev.elems));
        m.counter_add("ancstr_kernel_wall_ns_total", &labels, s.wall_ns.saturating_sub(prev.wall_ns));
        m.gauge_set("ancstr_kernel_threads", &labels, s.threads as f64);
        *prev = KernelPublished { calls: s.calls, elems: s.elems, wall_ns: s.wall_ns };
    }
}

/// Fold the cache's counters into the Prometheus registry as monotonic
/// deltas since the previous publish.
fn publish_cache_metrics(ctx: &Ctx) {
    let now = ctx.cache.stats();
    let mut last = ctx.published.lock().unwrap_or_else(|e| e.into_inner());
    let m = ctx.obs.metrics();
    m.counter_add("ancstr_serve_cache_hits_total", &[], now.hits - last.hits);
    m.counter_add("ancstr_serve_cache_misses_total", &[], now.misses - last.misses);
    m.counter_add("ancstr_serve_cache_evictions_total", &[], now.evictions - last.evictions);
    m.gauge_set("ancstr_serve_cache_entries", &[], now.entries as f64);
    *last = now;
    publish_batch_metrics(ctx);
}

/// Fold the batching counters into the Prometheus registry as
/// monotonic deltas.
fn publish_batch_metrics(ctx: &Ctx) {
    let now = BatchPublished {
        batches: ctx.batcher.batches_total(),
        batched_requests: ctx.batcher.batched_requests_total(),
        bisections: ctx.batcher.bisections_total(),
    };
    let mut last = ctx.batch_published.lock().unwrap_or_else(|e| e.into_inner());
    let m = ctx.obs.metrics();
    m.counter_add("ancstr_serve_batches_total", &[], now.batches - last.batches);
    m.counter_add(
        "ancstr_serve_batched_requests_total",
        &[],
        now.batched_requests - last.batched_requests,
    );
    m.counter_add("ancstr_serve_batch_bisections_total", &[], now.bisections - last.bisections);
    *last = now;
}

fn models_route(ctx: &Ctx, req: &Request, peer: &str) -> Response {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return error_response(400, "model body is not valid UTF-8");
    };
    let m = ctx.obs.metrics();
    let result = ctx.registry.reload_guarded(text, peer);
    let breaker = ctx.registry.breaker();
    m.gauge_set("ancstr_serve_model_quarantined", &[], breaker.quarantined as f64);
    match result {
        Ok(entry) => {
            m.counter_add("ancstr_serve_model_reloads_total", &[("result", "ok")], 1);
            Response::json(
                200,
                &Json::obj()
                    .set("fingerprint", entry.fingerprint_hex())
                    .set("generation", entry.generation),
            )
        }
        Err(err @ ReloadError::BreakerOpen { .. }) => {
            m.counter_add("ancstr_serve_model_reloads_total", &[("result", "breaker_open")], 1);
            Response::json(
                422,
                &Json::obj().set("error", err.to_string()).set("stage", "breaker"),
            )
        }
        Err(err @ ReloadError::Rejected { step, .. }) => {
            m.counter_add("ancstr_serve_model_reloads_total", &[("result", "rejected")], 1);
            Response::json(400, &Json::obj().set("error", err.to_string()).set("stage", step))
        }
    }
}

fn shutdown_route(ctx: &Ctx) -> Response {
    ctx.shutdown.store(true, Ordering::SeqCst);
    // Unblock the accept thread; the admitted-but-unanswered requests
    // (including this one) still drain before the daemon exits.
    let _ = TcpStream::connect_timeout(&ctx.local_addr, Duration::from_secs(1));
    Response::json(200, &Json::obj().set("status", "draining"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use ancstr_gnn::{GnnConfig, GnnModel};

    const NETLIST: &str = "\
.subckt ota inp inn out vdd vss
M1 x inp t vss nch w=2u l=0.1u
M2 y inn t vss nch w=2u l=0.1u
M3 x x vdd vdd pch w=4u l=0.1u
M4 out x vdd vdd pch w=4u l=0.1u
M5 t t vss vss nch w=1u l=0.1u
.ends
";

    fn test_model(seed: u64) -> GnnModel {
        GnnModel::new(GnnConfig {
            dim: ancstr_core::FEATURE_DIM,
            layers: 2,
            seed,
            ..GnnConfig::default()
        })
    }

    fn start_with(cfg: ServeConfig) -> Server {
        let registry =
            Arc::new(ModelRegistry::load(&test_model(11).to_text(), "unit-test").unwrap());
        Server::start(cfg, registry, PipelineObs::new(None)).unwrap()
    }

    fn start_server(cache_entries: usize) -> Server {
        start_with(ServeConfig { workers: 2, cache_entries, ..ServeConfig::default() })
    }

    fn stop(server: Server) {
        server.shutdown_handle().signal();
        server.wait();
    }

    const T: Duration = Duration::from_secs(10);

    #[test]
    fn serves_health_and_unknown_routes() {
        let server = start_server(8);
        let addr = server.local_addr();
        let health = client::get(addr, "/healthz", T).unwrap();
        assert_eq!(health.status, 200);
        assert!(health.text().contains("\"status\":\"ok\""), "{}", health.text());
        assert_eq!(client::get(addr, "/nope", T).unwrap().status, 404);
        assert_eq!(client::get(addr, "/v1/extract", T).unwrap().status, 405);
        stop(server);
    }

    #[test]
    fn liveness_and_readiness_split() {
        let server = start_server(8);
        let addr = server.local_addr();
        let live = client::get(addr, "/healthz/live", T).unwrap();
        assert_eq!(live.status, 200);
        assert!(live.text().contains("\"status\":\"alive\""), "{}", live.text());
        let ready = client::get(addr, "/healthz/ready", T).unwrap();
        assert_eq!(ready.status, 200, "{}", ready.text());
        assert!(ready.text().contains("\"status\":\"ready\""), "{}", ready.text());
        stop(server);
    }

    #[test]
    fn extract_route_serves_and_caches() {
        let server = start_server(8);
        let addr = server.local_addr();
        let first = client::post(addr, "/v1/extract", NETLIST.as_bytes(), T).unwrap();
        assert_eq!(first.status, 200, "{}", first.text());
        assert!(first.text().contains("\"cached\":false"), "{}", first.text());
        let second = client::post(addr, "/v1/extract", NETLIST.as_bytes(), T).unwrap();
        assert_eq!(second.status, 200);
        assert!(second.text().contains("\"cached\":true"), "{}", second.text());
        // Identical payloads modulo the cached flag and runtime.
        let strip = |s: &str| {
            s.lines()
                .next()
                .unwrap()
                .replace("\"cached\":true", "")
                .replace("\"cached\":false", "")
                .split("\"runtime_ms\"")
                .next()
                .unwrap()
                .to_owned()
        };
        assert_eq!(strip(&first.text()), strip(&second.text()));
        // The metrics endpoint reports the hit and the miss.
        let metrics = client::get(addr, "/metrics", T).unwrap().text();
        assert!(metrics.contains("ancstr_serve_cache_hits_total 1"), "{metrics}");
        assert!(metrics.contains("ancstr_serve_cache_misses_total 1"), "{metrics}");
        assert!(metrics.contains("ancstr_http_requests_total"), "{metrics}");
        assert!(metrics.contains("ancstr_par_threads"), "{metrics}");
        stop(server);
    }

    #[test]
    fn accept_negotiation_selects_the_align_document() {
        let server = start_server(8);
        let addr = server.local_addr();
        // Explicit application/json and an absent Accept agree byte-wise.
        let plain = client::post(addr, "/v1/extract", NETLIST.as_bytes(), T).unwrap();
        assert_eq!(plain.status, 200, "{}", plain.text());
        let align = client::post_with(
            addr,
            "/v1/extract",
            &[("accept", "application/vnd.align+json")],
            NETLIST.as_bytes(),
            T,
        )
        .unwrap();
        assert_eq!(align.status, 200, "{}", align.text());
        let doc = align.text();
        assert!(doc.starts_with('{') && doc.contains("\"schema\":\"ancstr-align-v1\""), "{doc}");
        assert!(doc.contains("\"SymmBlock\""), "{doc}");
        assert!(
            !doc.contains("constraints_text"),
            "the raw document is not the wrapper: {doc}"
        );
        // The cached entry serves both formats.
        let wrapped = client::post_with(
            addr,
            "/v1/extract",
            &[("accept", "application/json")],
            NETLIST.as_bytes(),
            T,
        )
        .unwrap();
        assert_eq!(wrapped.status, 200);
        assert!(wrapped.text().contains("\"cached\":true"), "{}", wrapped.text());
        // An unservable Accept is a clean 406.
        let nope = client::post_with(
            addr,
            "/v1/extract",
            &[("accept", "text/html")],
            NETLIST.as_bytes(),
            T,
        )
        .unwrap();
        assert_eq!(nope.status, 406, "{}", nope.text());
        stop(server);
    }

    #[test]
    fn extract_route_rejects_bad_netlists() {
        let server = start_server(8);
        let addr = server.local_addr();
        let bad = client::post(addr, "/v1/extract", b"M1 a b\n", T).unwrap();
        assert_eq!(bad.status, 400, "{}", bad.text());
        assert!(bad.text().contains("\"stage\":\"parse\""), "{}", bad.text());
        let empty = client::post(addr, "/v1/extract", b"", T).unwrap();
        assert_eq!(empty.status, 400);
        stop(server);
    }

    #[test]
    fn an_exhausted_default_deadline_maps_to_408() {
        let server = start_with(ServeConfig {
            workers: 2,
            cache_entries: 8,
            default_deadline: Some(Duration::ZERO),
            ..ServeConfig::default()
        });
        let addr = server.local_addr();
        let reply = client::post(addr, "/v1/extract", NETLIST.as_bytes(), T).unwrap();
        assert_eq!(reply.status, 408, "{}", reply.text());
        assert!(reply.text().contains("\"stage\":\"deadline\""), "{}", reply.text());
        let metrics = client::get(addr, "/metrics", T).unwrap().text();
        assert!(metrics.contains("ancstr_serve_deadline_expired_total 1"), "{metrics}");
        stop(server);
    }

    #[test]
    fn the_deadline_header_tightens_the_budget_per_request() {
        let server = start_server(8);
        let addr = server.local_addr();
        let reply = client::post_with(
            addr,
            "/v1/extract",
            &[("x-ancstr-deadline-ms", "0")],
            NETLIST.as_bytes(),
            T,
        )
        .unwrap();
        assert_eq!(reply.status, 408, "{}", reply.text());
        // Without the header the same request succeeds.
        let ok = client::post(addr, "/v1/extract", NETLIST.as_bytes(), T).unwrap();
        assert_eq!(ok.status, 200, "{}", ok.text());
        stop(server);
    }

    #[test]
    fn brownout_sheds_cold_requests_but_serves_cached_ones() {
        // high watermark 1 + low watermark 0: submitting any request
        // while another is queued latches brownout; serial requests
        // against a single worker keep it latched long enough to observe
        // deterministically by priming the flag with depth >= 1.
        let server = start_with(ServeConfig {
            workers: 1,
            cache_entries: 8,
            brownout_high: 1,
            brownout_low: 0,
            chaos: true,
            ..ServeConfig::default()
        });
        let addr = server.local_addr();
        // Prime the cache while healthy.
        let warm = client::post(addr, "/v1/extract", NETLIST.as_bytes(), T).unwrap();
        assert_eq!(warm.status, 200, "{}", warm.text());
        // Latch brownout: stall the single worker, then pile requests
        // into the queue so depth crosses the high watermark. Every
        // probe is submitted (and thus tagged at admission) while the
        // stall still holds the worker, then they drain FIFO.
        let stalled = thread::spawn(move || {
            client::post_with(addr, "/healthz", &[("x-ancstr-chaos", "stall-ms:1500")], b"", T)
        });
        thread::sleep(Duration::from_millis(200));
        let latch = thread::spawn(move || client::get(addr, "/healthz", T));
        thread::sleep(Duration::from_millis(200));
        // Cache hit: admitted in brownout but served anyway.
        let hit = thread::spawn(move || client::post(addr, "/v1/extract", NETLIST.as_bytes(), T));
        // Cold request: admitted in brownout, cache miss, shed.
        let cold = NETLIST.replace("w=1u", "w=3u");
        let shed = thread::spawn(move || client::post(addr, "/v1/extract", cold.as_bytes(), T));
        thread::sleep(Duration::from_millis(200));
        let ready = thread::spawn(move || client::get(addr, "/healthz/ready", T));

        assert!(stalled.join().unwrap().is_ok());
        assert!(latch.join().unwrap().is_ok());
        let hit = hit.join().unwrap().unwrap();
        assert_eq!(hit.status, 200, "{}", hit.text());
        assert!(hit.text().contains("\"cached\":true"), "{}", hit.text());
        let shed = shed.join().unwrap().unwrap();
        assert_eq!(shed.status, 503, "{}", shed.text());
        assert_eq!(shed.header("retry-after"), Some("1"));
        assert!(shed.text().contains("\"stage\":\"brownout\""), "{}", shed.text());
        let ready = ready.join().unwrap().unwrap();
        assert_eq!(ready.status, 503, "{}", ready.text());
        assert!(ready.text().contains("brownout"), "{}", ready.text());
        stop(server);
    }

    #[test]
    fn a_dispatch_panic_is_answered_500_and_the_worker_survives() {
        let server = start_with(ServeConfig {
            workers: 1,
            cache_entries: 8,
            chaos: true,
            ..ServeConfig::default()
        });
        let addr = server.local_addr();
        let boom = client::post_with(
            addr,
            "/v1/extract",
            &[("x-ancstr-chaos", "panic")],
            NETLIST.as_bytes(),
            T,
        )
        .unwrap();
        assert_eq!(boom.status, 500, "{}", boom.text());
        assert!(boom.text().contains("\"stage\":\"worker_panic\""), "{}", boom.text());
        // The same (sole) worker keeps serving.
        let after = client::post(addr, "/v1/extract", NETLIST.as_bytes(), T).unwrap();
        assert_eq!(after.status, 200, "{}", after.text());
        let metrics = client::get(addr, "/metrics", T).unwrap().text();
        assert!(
            metrics.contains("ancstr_serve_worker_panics_total{layer=\"dispatch\"} 1"),
            "{metrics}"
        );
        stop(server);
    }

    #[test]
    fn a_raw_panic_restarts_the_worker_slot() {
        let server = start_with(ServeConfig {
            workers: 1,
            cache_entries: 8,
            chaos: true,
            ..ServeConfig::default()
        });
        let addr = server.local_addr();
        // The panic fires before the dispatch catch: the connection is
        // torn (no reply) and the pool supervisor restarts the slot.
        let torn = client::post_with(
            addr,
            "/v1/extract",
            &[("x-ancstr-chaos", "panic-raw")],
            NETLIST.as_bytes(),
            T,
        );
        assert!(torn.is_err(), "a raw panic must tear the connection: {torn:?}");
        // The daemon still answers on the next connection.
        let after = client::post(addr, "/v1/extract", NETLIST.as_bytes(), T).unwrap();
        assert_eq!(after.status, 200, "{}", after.text());
        let metrics = client::get(addr, "/metrics", T).unwrap().text();
        assert!(
            metrics.contains("ancstr_serve_worker_panics_total{layer=\"pool\"} 1"),
            "{metrics}"
        );
        stop(server);
    }

    #[test]
    fn chaos_headers_are_inert_without_the_flag() {
        let server = start_server(8);
        let addr = server.local_addr();
        let reply = client::post_with(
            addr,
            "/v1/extract",
            &[("x-ancstr-chaos", "panic")],
            NETLIST.as_bytes(),
            T,
        )
        .unwrap();
        assert_eq!(reply.status, 200, "{}", reply.text());
        stop(server);
    }

    #[test]
    fn model_reload_requires_a_sealed_envelope() {
        let server = start_server(8);
        let addr = server.local_addr();
        let next = test_model(12);
        let plain = client::post(addr, "/v1/models", next.to_text().as_bytes(), T).unwrap();
        assert_eq!(plain.status, 400, "{}", plain.text());
        let sealed =
            client::post(addr, "/v1/models", next.to_text_checksummed().as_bytes(), T).unwrap();
        assert_eq!(sealed.status, 200, "{}", sealed.text());
        assert!(sealed.text().contains("\"generation\":2"), "{}", sealed.text());
        stop(server);
    }

    #[test]
    fn repeated_bad_uploads_open_the_breaker() {
        let server = start_server(8);
        let addr = server.local_addr();
        let tampered = test_model(12).to_text_checksummed().replacen("0.", "1.", 1);
        let first = client::post(addr, "/v1/models", tampered.as_bytes(), T).unwrap();
        assert_eq!(first.status, 400, "{}", first.text());
        assert!(first.text().contains("\"stage\":\"seal\""), "{}", first.text());
        let second = client::post(addr, "/v1/models", tampered.as_bytes(), T).unwrap();
        assert_eq!(second.status, 422, "{}", second.text());
        assert!(second.text().contains("\"stage\":\"breaker\""), "{}", second.text());
        // The boot model never stopped serving.
        let health = client::get(addr, "/healthz", T).unwrap();
        assert!(health.text().contains("\"generation\":1"), "{}", health.text());
        assert!(health.text().contains("\"quarantined\":1"), "{}", health.text());
        stop(server);
    }

    #[test]
    fn a_request_pinned_to_a_swapped_out_model_is_404() {
        let server = start_server(8);
        let addr = server.local_addr();
        let pinned = |hex: &str| {
            client::post_with(addr, "/v1/extract", &[("x-ancstr-model", hex)], NETLIST.as_bytes(), T)
                .unwrap()
        };
        let boot_hex = format!("{:016x}", test_model(11).fingerprint());
        let boot = pinned(&boot_hex);
        assert_eq!(boot.status, 200, "{}", boot.text());
        // Swap in a second model: it replaces the boot model.
        let next = test_model(12);
        let next_hex = format!("{:016x}", next.fingerprint());
        let up = client::post(addr, "/v1/models", next.to_text_checksummed().as_bytes(), T).unwrap();
        assert_eq!(up.status, 200, "{}", up.text());
        // A client still pinned to the old model gets an error, not the
        // new model's answer.
        let gone = pinned(&boot_hex);
        assert_eq!(gone.status, 404, "{}", gone.text());
        assert!(gone.text().contains("\"stage\":\"model_routing\""), "{}", gone.text());
        let served = pinned(&next_hex);
        assert_eq!(served.status, 200, "{}", served.text());
        assert!(served.text().contains(&next_hex), "{}", served.text());
        let headerless = client::post(addr, "/v1/extract", NETLIST.as_bytes(), T).unwrap();
        assert!(headerless.text().contains(&next_hex), "{}", headerless.text());
        // A malformed pin is a 400 with the same stage.
        let bad = pinned("zz");
        assert_eq!(bad.status, 400, "{}", bad.text());
        assert!(bad.text().contains("\"stage\":\"model_routing\""), "{}", bad.text());
        // /healthz names the resident model.
        let health = client::get(addr, "/healthz", T).unwrap().text();
        assert!(health.contains(&format!("\"fingerprint\":\"{next_hex}\"")), "{health}");
        assert!(!health.contains(&boot_hex), "{health}");
        stop(server);
    }

    #[test]
    fn a_poison_request_fails_alone_with_batch_poison() {
        let server = start_with(ServeConfig {
            workers: 2,
            cache_entries: 8,
            chaos: true,
            ..ServeConfig::default()
        });
        let addr = server.local_addr();
        let poisoned = client::post_with(
            addr,
            "/v1/extract",
            &[("x-ancstr-chaos", "poison")],
            NETLIST.as_bytes(),
            T,
        )
        .unwrap();
        assert_eq!(poisoned.status, 500, "{}", poisoned.text());
        assert!(poisoned.text().contains("\"stage\":\"batch_poison\""), "{}", poisoned.text());
        // The same netlist without the poison flag serves fine: the
        // failure was the request's, not the model's.
        let clean = client::post(addr, "/v1/extract", NETLIST.as_bytes(), T).unwrap();
        assert_eq!(clean.status, 200, "{}", clean.text());
        let metrics = client::get(addr, "/metrics", T).unwrap().text();
        assert!(metrics.contains("ancstr_serve_batch_poisoned_total 1"), "{metrics}");
        stop(server);
    }

    #[test]
    fn shutdown_endpoint_drains_and_exits() {
        let server = start_server(8);
        let addr = server.local_addr();
        let reply = client::post(addr, "/v1/shutdown", b"", T).unwrap();
        assert_eq!(reply.status, 200);
        assert!(reply.text().contains("draining"), "{}", reply.text());
        server.wait(); // must return, not hang
    }

    #[test]
    fn drain_writes_the_metrics_snapshot_when_configured() {
        let dir = std::env::temp_dir().join(format!("ancstr-serve-drain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("metrics.prom");
        let server = start_with(ServeConfig {
            workers: 2,
            cache_entries: 8,
            metrics_out: Some(out.clone()),
            ..ServeConfig::default()
        });
        let addr = server.local_addr();
        assert_eq!(client::post(addr, "/v1/extract", NETLIST.as_bytes(), T).unwrap().status, 200);
        stop(server);
        let snapshot = std::fs::read_to_string(&out).unwrap();
        assert!(snapshot.contains("ancstr_serve_cache_misses_total 1"), "{snapshot}");
        assert!(snapshot.contains("ancstr_http_requests_total"), "{snapshot}");
        // Regression: families first observed mid-flight (gauges and
        // histograms that no startup registration creates) must appear
        // in the drain snapshot even though /metrics was never scraped.
        assert!(snapshot.contains("ancstr_par_threads"), "{snapshot}");
        assert!(snapshot.contains("ancstr_serve_request_duration_seconds_bucket"), "{snapshot}");
        assert!(snapshot.contains("ancstr_kernel_calls_total{kernel=\"matmul\"}"), "{snapshot}");
        // The request's embed ran Eq. 1, so real spmm calls reached the
        // kernel profile.
        let spmm_calls = snapshot
            .lines()
            .find_map(|l| l.strip_prefix("ancstr_kernel_calls_total{kernel=\"spmm\"} "))
            .and_then(|v| v.parse::<u64>().ok());
        assert!(spmm_calls.is_some_and(|n| n > 0), "{snapshot}");
        ancstr_obs::metrics::validate_exposition(&snapshot).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tracing_mints_and_echoes_trace_context() {
        let (tracer, buf) = ancstr_obs::Tracer::in_memory();
        let registry =
            Arc::new(ModelRegistry::load(&test_model(11).to_text(), "unit-test").unwrap());
        let server = Server::start(
            ServeConfig { workers: 2, cache_entries: 8, ..ServeConfig::default() },
            registry,
            PipelineObs::new(Some(tracer)),
        )
        .unwrap();
        let addr = server.local_addr();
        // No inbound id: the daemon mints one and echoes it, with the
        // per-stage timing summary alongside.
        let minted = client::post(addr, "/v1/extract", NETLIST.as_bytes(), T).unwrap();
        assert_eq!(minted.status, 200, "{}", minted.text());
        let id = minted.header("x-ancstr-trace-id").expect("trace id echoed").to_owned();
        assert!(is_trace_id(&id), "{id}");
        let timing = minted.header("x-ancstr-timing").expect("timing summary").to_owned();
        assert!(timing.contains("queue_wait;dur="), "{timing}");
        assert!(timing.contains("batch;dur="), "{timing}");
        assert!(timing.contains("total;dur="), "{timing}");
        // A well-formed inbound id is adopted verbatim; a malformed one
        // is replaced, never parroted back.
        let chosen = mint_trace_id();
        let adopted = client::post_with(
            addr,
            "/v1/extract",
            &[("x-ancstr-trace-id", chosen.as_str())],
            NETLIST.as_bytes(),
            T,
        )
        .unwrap();
        assert_eq!(adopted.header("x-ancstr-trace-id"), Some(chosen.as_str()));
        let replaced = client::post_with(
            addr,
            "/v1/extract",
            &[("x-ancstr-trace-id", "not-a-trace-id")],
            NETLIST.as_bytes(),
            T,
        )
        .unwrap();
        let got = replaced.header("x-ancstr-trace-id").unwrap();
        assert!(is_trace_id(got) && got != "not-a-trace-id", "{got}");
        stop(server);
        // The trace stream validates end-to-end and links the adopted
        // id to a serve span with the request-lifecycle children.
        let text = buf.contents();
        let events = ancstr_obs::validate_trace(&text).unwrap();
        assert!(
            events.iter().any(|e| {
                e.kind == "span_start"
                    && e.span == "serve"
                    && e.fields.get("trace").and_then(|v| v.as_str()) == Some(chosen.as_str())
            }),
            "{text}"
        );
        for child in ["queue_wait", "single_flight", "batch"] {
            assert!(events.iter().any(|e| e.span == child), "missing {child} span:\n{text}");
        }
    }

    #[test]
    fn no_trace_headers_appear_when_tracing_is_disabled() {
        let server = start_server(8);
        let addr = server.local_addr();
        let id = mint_trace_id();
        // Even an explicit inbound trace id is ignored: responses stay
        // byte-identical to the untraced daemon.
        let reply = client::post_with(
            addr,
            "/v1/extract",
            &[("x-ancstr-trace-id", id.as_str())],
            NETLIST.as_bytes(),
            T,
        )
        .unwrap();
        assert_eq!(reply.status, 200, "{}", reply.text());
        assert_eq!(reply.header("x-ancstr-trace-id"), None);
        assert_eq!(reply.header("x-ancstr-timing"), None);
        stop(server);
    }
}
