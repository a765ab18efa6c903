//! Span-based structured tracing with JSONL output.
//!
//! A [`Tracer`] writes one JSON object per line to a writer (a file for
//! `--trace-out`, a shared buffer in tests). [`Span::enter`] returns an
//! RAII guard: dropping it emits the matching `span_end` event with the
//! measured duration, so spans nest and close in LIFO order by
//! construction. Timing is monotonic (`std::time::Instant`) relative to
//! the tracer's creation, never wall-clock.
//!
//! Every line has the same shape:
//!
//! ```json
//! {"ts_ns":1234,"kind":"span_start","span":"train","stage":"train",
//!  "id":3,"parent":2,"fields":{"epochs":60}}
//! ```
//!
//! `kind` is one of `span_start`, `span_end` (which adds `dur_ns`) or
//! `event` (a point-in-time record; its `span` key carries the event
//! name and `parent` the enclosing span). [`validate_trace`] re-parses
//! a trace and checks this schema plus the LIFO nesting invariants; it
//! is the single source of truth used by the unit tests, the
//! integration tests and the CI smoke job.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::{self, write_escaped, Json};

/// A key/value field attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float; non-finite values are emitted as JSON strings
    /// (`"NaN"`, `"Infinity"`, `"-Infinity"`) so every line stays
    /// valid JSON.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

macro_rules! impl_value_from {
    ($($t:ty => $var:ident as $conv:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value { Value::$var(v as $conv) }
        }
    )*};
}
impl_value_from!(
    u64 => U64 as u64, u32 => U64 as u64, usize => U64 as u64,
    i64 => I64 as i64, i32 => I64 as i64,
    f64 => F64 as f64, f32 => F64 as f64
);

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Value::F64(x) if x.is_nan() => out.push_str("\"NaN\""),
        Value::F64(x) if *x > 0.0 => out.push_str("\"Infinity\""),
        Value::F64(_) => out.push_str("\"-Infinity\""),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Str(s) => write_escaped(out, s),
    }
}

struct TracerInner {
    out: Box<dyn Write + Send>,
    epoch: Instant,
    next_id: u64,
    stack: Vec<u64>,
}

/// A cheaply cloneable handle emitting JSONL trace events.
///
/// All clones share one output stream, one monotonic clock and one span
/// stack, so spans opened through any clone nest consistently.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Mutex<TracerInner>>,
}

impl Tracer {
    /// A tracer writing to an arbitrary writer.
    pub fn to_writer(out: Box<dyn Write + Send>) -> Tracer {
        Tracer {
            inner: Arc::new(Mutex::new(TracerInner {
                out,
                epoch: Instant::now(),
                next_id: 0,
                stack: Vec::new(),
            })),
        }
    }

    /// A tracer writing (buffered) to `path`, truncating any existing
    /// file.
    pub fn to_file(path: &Path) -> io::Result<Tracer> {
        let f = File::create(path)?;
        Ok(Tracer::to_writer(Box::new(BufWriter::new(f))))
    }

    /// A tracer writing to an in-memory buffer, plus a handle to read
    /// the buffer back. Intended for tests.
    pub fn in_memory() -> (Tracer, TraceBuffer) {
        let buf = TraceBuffer::default();
        (Tracer::to_writer(Box::new(buf.clone())), buf)
    }

    /// Open a span; the returned guard emits `span_end` when dropped.
    pub fn span(&self, stage: &str, name: &str, fields: &[(&str, Value)]) -> Span {
        Span::enter(self, stage, name, fields)
    }

    /// Emit a point-in-time event under the currently open span.
    pub fn event(&self, stage: &str, name: &str, fields: &[(&str, Value)]) {
        let mut inner = self.lock();
        let ts = inner.epoch.elapsed().as_nanos() as u64;
        let id = inner.next_id + 1;
        inner.next_id = id;
        let parent = inner.stack.last().copied().unwrap_or(0);
        let line = render_line(ts, "event", name, stage, id, parent, None, fields);
        let _ = writeln!(inner.out, "{line}");
    }

    /// Emit an already-measured span as an adjacent `span_start` /
    /// `span_end` pair carrying `dur_ns`.
    ///
    /// For work whose duration was measured before a span could be
    /// opened — queue wait ends the moment the handler starts running,
    /// so the handler back-dates it here. Both lines share one
    /// timestamp and the pair closes immediately, so LIFO nesting and
    /// timestamp monotonicity hold by construction ([`validate_trace`]
    /// deliberately does not cross-check `dur_ns` against timestamp
    /// deltas).
    pub fn completed_span(&self, stage: &str, name: &str, dur_ns: u64, fields: &[(&str, Value)]) {
        let mut inner = self.lock();
        let ts = inner.epoch.elapsed().as_nanos() as u64;
        let id = inner.next_id + 1;
        inner.next_id = id;
        let parent = inner.stack.last().copied().unwrap_or(0);
        let line = render_line(ts, "span_start", name, stage, id, parent, None, fields);
        let _ = writeln!(inner.out, "{line}");
        let line = render_line(ts, "span_end", name, stage, id, parent, Some(dur_ns), &[]);
        let _ = writeln!(inner.out, "{line}");
    }

    /// Flush buffered output to the underlying writer.
    pub fn flush(&self) {
        let _ = self.lock().out.flush();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TracerInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[allow(clippy::too_many_arguments)]
fn render_line(
    ts: u64,
    kind: &str,
    span: &str,
    stage: &str,
    id: u64,
    parent: u64,
    dur_ns: Option<u64>,
    fields: &[(&str, Value)],
) -> String {
    let mut s = String::with_capacity(128);
    let _ = write!(s, "{{\"ts_ns\":{ts},\"kind\":\"{kind}\",\"span\":");
    write_escaped(&mut s, span);
    s.push_str(",\"stage\":");
    write_escaped(&mut s, stage);
    let _ = write!(s, ",\"id\":{id},\"parent\":{parent}");
    if let Some(d) = dur_ns {
        let _ = write!(s, ",\"dur_ns\":{d}");
    }
    s.push_str(",\"fields\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write_escaped(&mut s, k);
        s.push(':');
        write_value(&mut s, v);
    }
    s.push_str("}}");
    s
}

/// An open span. Dropping it emits the `span_end` event with the
/// measured duration and pops it from the tracer's span stack.
pub struct Span {
    tracer: Tracer,
    id: u64,
    start_ts: u64,
    name: String,
    stage: String,
    open: bool,
}

impl Span {
    /// Open a span: emits `span_start` and pushes onto the span stack.
    pub fn enter(tracer: &Tracer, stage: &str, name: &str, fields: &[(&str, Value)]) -> Span {
        let mut inner = tracer.lock();
        let ts = inner.epoch.elapsed().as_nanos() as u64;
        let id = inner.next_id + 1;
        inner.next_id = id;
        let parent = inner.stack.last().copied().unwrap_or(0);
        inner.stack.push(id);
        let line = render_line(ts, "span_start", name, stage, id, parent, None, fields);
        let _ = writeln!(inner.out, "{line}");
        drop(inner);
        Span {
            tracer: tracer.clone(),
            id,
            start_ts: ts,
            name: name.to_string(),
            stage: stage.to_string(),
            open: true,
        }
    }

    /// Close the span now (equivalent to dropping it).
    pub fn close(self) {}

    /// Close the span now, with `fields` on its `span_end` line.
    pub fn close_with(mut self, fields: &[(&str, Value)]) {
        self.end(fields);
    }
}

impl Span {
    fn end(&mut self, fields: &[(&str, Value)]) {
        if !std::mem::take(&mut self.open) {
            return;
        }
        let mut inner = self.tracer.lock();
        let ts = inner.epoch.elapsed().as_nanos() as u64;
        // LIFO discipline: a guard dropping out of order (possible only
        // by deliberately reordering guards) closes everything above it.
        while let Some(top) = inner.stack.pop() {
            if top == self.id {
                break;
            }
        }
        let parent = inner.stack.last().copied().unwrap_or(0);
        let dur = ts.saturating_sub(self.start_ts);
        let line = render_line(
            ts,
            "span_end",
            &self.name,
            &self.stage,
            self.id,
            parent,
            Some(dur),
            fields,
        );
        let _ = writeln!(inner.out, "{line}");
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.end(&[]);
    }
}

/// The process's peak resident set so far, in KiB: the running maximum
/// of the `VmHWM` reads from `/proc/self/status`, so a later call never
/// reports less than an earlier one (the kernel's mark can read a few
/// pages lower on a later read while other threads run). `None` where
/// that file does not exist (or has no such line), i.e. off Linux.
pub fn peak_rss_kb() -> Option<u64> {
    static PEAK_KB: AtomicU64 = AtomicU64::new(0);
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().next()?.parse().ok()?;
    Some(PEAK_KB.fetch_max(kb, Ordering::Relaxed).max(kb))
}

/// Minor page faults the process has taken so far: field 10 (`minflt`)
/// of `/proc/self/stat`. `None` where that file does not exist, i.e.
/// off Linux.
pub fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2 is the command name in parentheses and may hold spaces;
    // fields 3 onwards follow its closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(10 - 3)?.parse().ok()
}

/// Mint a process-unique 128-bit trace id as 32 lowercase hex digits.
///
/// Combines wall-clock nanoseconds, the process id, a process-wide
/// counter and the per-process random keys behind
/// [`std::collections::hash_map::RandomState`], so two replicas minting
/// concurrently do not collide and no new dependency (a real RNG crate)
/// is needed. The id is opaque: nothing parses it back, it only has to
/// be unique and stable for the lifetime of a request.
pub fn mint_trace_id() -> String {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let seq = COUNTER.fetch_add(1, Ordering::Relaxed);
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut hi = RandomState::new().build_hasher();
    hi.write_u64(now);
    hi.write_u64(seq);
    hi.write_u64(u64::from(std::process::id()));
    let hi = hi.finish();
    let mut lo = RandomState::new().build_hasher();
    lo.write_u64(hi);
    lo.write_u64(now.rotate_left(17) ^ seq);
    format!("{hi:016x}{:016x}", lo.finish())
}

/// Whether `s` is a well-formed trace id (32 lowercase hex digits).
///
/// Used to decide if an inbound `x-ancstr-trace-id` header can be
/// adopted as-is or must be replaced with a freshly minted id.
pub fn is_trace_id(s: &str) -> bool {
    s.len() == 32 && s.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// Shared in-memory trace sink returned by [`Tracer::in_memory`].
#[derive(Clone, Default)]
pub struct TraceBuffer {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl TraceBuffer {
    /// The accumulated trace text.
    pub fn contents(&self) -> String {
        let buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        String::from_utf8_lossy(&buf).into_owned()
    }
}

impl Write for TraceBuffer {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        buf.extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One schema-validated trace line.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds since tracer creation (monotonic clock).
    pub ts_ns: u64,
    /// `span_start`, `span_end` or `event`.
    pub kind: String,
    /// Span name (for `event` lines, the event name).
    pub span: String,
    /// Pipeline stage the record belongs to.
    pub stage: String,
    /// Unique line id (1-based).
    pub id: u64,
    /// Id of the enclosing span, `0` at top level.
    pub parent: u64,
    /// Span duration; present exactly on `span_end` lines.
    pub dur_ns: Option<u64>,
    /// Free-form key/value payload.
    pub fields: std::collections::BTreeMap<String, Json>,
}

fn require_u64(obj: &std::collections::BTreeMap<String, Json>, key: &str) -> Result<u64, String> {
    let n = obj
        .get(key)
        .ok_or_else(|| format!("missing key `{key}`"))?
        .as_num()
        .ok_or_else(|| format!("key `{key}` is not a number"))?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("key `{key}` is not a non-negative integer: {n}"));
    }
    Ok(n as u64)
}

fn require_str(
    obj: &std::collections::BTreeMap<String, Json>,
    key: &str,
) -> Result<String, String> {
    obj.get(key)
        .ok_or_else(|| format!("missing key `{key}`"))?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("key `{key}` is not a string"))
}

/// Validate one JSONL trace line against the event schema.
///
/// Requires: valid JSON object; `ts_ns`, `id`, `parent` non-negative
/// integers; `kind` one of the three event kinds; `span` and `stage`
/// non-empty strings; `fields` an object; `dur_ns` present iff `kind`
/// is `span_end`.
pub fn validate_line(line: &str) -> Result<TraceEvent, String> {
    let obj = match json::parse(line)? {
        Json::Obj(m) => m,
        _ => return Err("line is not a JSON object".into()),
    };
    let kind = require_str(&obj, "kind")?;
    if !matches!(kind.as_str(), "span_start" | "span_end" | "event") {
        return Err(format!("unknown kind `{kind}`"));
    }
    let span = require_str(&obj, "span")?;
    let stage = require_str(&obj, "stage")?;
    if span.is_empty() || stage.is_empty() {
        return Err("empty `span` or `stage`".into());
    }
    let fields = obj
        .get("fields")
        .ok_or("missing key `fields`")?
        .as_obj()
        .ok_or("key `fields` is not an object")?
        .clone();
    let dur_ns = if kind == "span_end" {
        Some(require_u64(&obj, "dur_ns")?)
    } else {
        if obj.contains_key("dur_ns") {
            return Err(format!("`dur_ns` present on `{kind}` line"));
        }
        None
    };
    Ok(TraceEvent {
        ts_ns: require_u64(&obj, "ts_ns")?,
        kind,
        span,
        stage,
        id: require_u64(&obj, "id")?,
        parent: require_u64(&obj, "parent")?,
        dur_ns,
        fields,
    })
}

/// Validate a whole JSONL trace: every line passes [`validate_line`],
/// timestamps are non-decreasing, and spans open/close in LIFO order
/// with consistent parent links. Spans still open at end-of-trace are
/// allowed (an aborted run truncates its trace).
pub fn validate_trace(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    let mut stack: Vec<u64> = Vec::new();
    let mut last_ts = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let ev = validate_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if ev.ts_ns < last_ts {
            return Err(format!(
                "line {}: ts_ns went backwards ({} < {last_ts})",
                lineno + 1,
                ev.ts_ns
            ));
        }
        last_ts = ev.ts_ns;
        let expected_parent = stack.last().copied().unwrap_or(0);
        match ev.kind.as_str() {
            "span_start" => {
                if ev.parent != expected_parent {
                    return Err(format!(
                        "line {}: span_start parent {} but open span is {expected_parent}",
                        lineno + 1,
                        ev.parent
                    ));
                }
                stack.push(ev.id);
            }
            "span_end" => {
                if stack.last().copied() != Some(ev.id) {
                    return Err(format!(
                        "line {}: span_end id {} does not close the innermost span ({:?})",
                        lineno + 1,
                        ev.id,
                        stack.last()
                    ));
                }
                stack.pop();
                if ev.parent != stack.last().copied().unwrap_or(0) {
                    return Err(format!("line {}: span_end parent mismatch", lineno + 1));
                }
            }
            _ => {
                if ev.parent != expected_parent {
                    return Err(format!(
                        "line {}: event parent {} but open span is {expected_parent}",
                        lineno + 1,
                        ev.parent
                    ));
                }
            }
        }
        events.push(ev);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_validate() {
        let (tracer, buf) = Tracer::in_memory();
        {
            let _outer = tracer.span("train", "train", &[("epochs", 3u64.into())]);
            tracer.event("train", "epoch", &[("loss", 0.5.into())]);
            {
                let _inner = tracer.span("train", "checkpoint", &[]);
            }
        }
        tracer.flush();
        let events = validate_trace(&buf.contents()).unwrap();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].kind, "span_start");
        assert_eq!(events[1].span, "epoch");
        assert_eq!(events[1].parent, events[0].id);
        assert_eq!(events[4].kind, "span_end");
        assert_eq!(events[4].span, "train");
    }

    #[test]
    fn close_with_puts_fields_on_the_single_span_end() {
        let (tracer, buf) = Tracer::in_memory();
        tracer.span("embed", "embed", &[]).close_with(&[("vm_hwm_kb", 42u64.into())]);
        tracer.flush();
        let events = validate_trace(&buf.contents()).unwrap();
        assert_eq!(events.len(), 2, "dropping a closed span emits nothing more");
        assert_eq!(events[1].kind, "span_end");
        assert_eq!(events[1].fields["vm_hwm_kb"].as_num(), Some(42.0));
        assert!(events[0].fields.is_empty());
    }

    #[test]
    fn peak_rss_is_read_where_proc_exists() {
        let expected = std::path::Path::new("/proc/self/status").exists();
        assert_eq!(peak_rss_kb().is_some_and(|kb| kb > 0), expected);
    }

    #[test]
    fn peak_rss_never_falls_from_one_read_to_the_next() {
        let first = peak_rss_kb();
        for _ in 0..100 {
            let later = peak_rss_kb();
            assert!(later >= first, "{later:?} < {first:?}");
        }
    }

    #[test]
    fn minor_faults_are_read_where_proc_exists_and_only_rise() {
        let expected = std::path::Path::new("/proc/self/stat").exists();
        let before = minor_faults();
        assert_eq!(before.is_some_and(|n| n > 0), expected);
        let touched = vec![1u8; 1 << 22];
        assert_eq!(touched.iter().map(|&b| usize::from(b)).sum::<usize>(), 1 << 22);
        assert!(minor_faults() >= before);
    }

    #[test]
    fn non_finite_floats_stay_valid_json() {
        let (tracer, buf) = Tracer::in_memory();
        tracer.event(
            "detect",
            "score",
            &[("a", f64::NAN.into()), ("b", f64::INFINITY.into())],
        );
        let events = validate_trace(&buf.contents()).unwrap();
        assert_eq!(events[0].fields["a"].as_str(), Some("NaN"));
        assert_eq!(events[0].fields["b"].as_str(), Some("Infinity"));
    }

    #[test]
    fn validate_rejects_schema_violations() {
        for bad in [
            "not json",
            r#"{"kind":"event","span":"s","stage":"t","id":1,"parent":0,"fields":{}}"#, // no ts_ns
            r#"{"ts_ns":1,"kind":"event","span":"s","stage":"t","id":1,"parent":0}"#, // no fields
            r#"{"ts_ns":1,"kind":"bogus","span":"s","stage":"t","id":1,"parent":0,"fields":{}}"#,
            r#"{"ts_ns":1,"kind":"event","span":"s","stage":"t","id":1,"parent":0,"dur_ns":4,"fields":{}}"#,
        ] {
            assert!(validate_line(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn completed_spans_backdate_durations_and_keep_nesting_valid() {
        let (tracer, buf) = Tracer::in_memory();
        {
            let _serve = tracer.span("serve", "serve", &[]);
            tracer.completed_span("serve", "queue_wait", 42_000, &[]);
        }
        tracer.flush();
        let events = validate_trace(&buf.contents()).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[1].span, "queue_wait");
        assert_eq!(events[1].parent, events[0].id);
        assert_eq!(events[2].dur_ns, Some(42_000), "back-dated duration survives");
        assert_eq!(events[1].ts_ns, events[2].ts_ns, "the pair shares one timestamp");
    }

    #[test]
    fn minted_trace_ids_are_well_formed_and_distinct() {
        let a = mint_trace_id();
        let b = mint_trace_id();
        assert!(is_trace_id(&a), "{a}");
        assert!(is_trace_id(&b), "{b}");
        assert_ne!(a, b);
        for bad in ["", "xyz", &a[..31], &format!("{}A", &a[..31])] {
            assert!(!is_trace_id(bad), "accepted {bad:?}");
        }
    }

    #[test]
    fn out_of_order_timestamps_are_rejected() {
        let a = r#"{"ts_ns":5,"kind":"event","span":"s","stage":"t","id":1,"parent":0,"fields":{}}"#;
        let b = r#"{"ts_ns":4,"kind":"event","span":"s","stage":"t","id":2,"parent":0,"fields":{}}"#;
        assert!(validate_trace(&format!("{a}\n{b}\n")).is_err());
    }
}
