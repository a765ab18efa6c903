//! Offline trace analysis: group the spans of one or more JSONL trace
//! files by trace id, and render per-trace waterfalls plus aggregate
//! per-span latency quantiles.
//!
//! Each tracer stamps timestamps against its **own** process epoch
//! (`std::time::Instant` at tracer creation), so a waterfall's offsets
//! are measured within one file: a root span is placed relative to the
//! first root of the same trace in the same file.
//!
//! Trace identity rides in span `fields` under the `"trace"` key and is
//! inherited down the parent chain within a file, so only the root
//! span of a request needs stamping.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::trace::{validate_trace, TraceEvent};

/// One input trace file: a display label (typically the file name or
/// replica name) plus its full JSONL contents.
pub struct TraceFile {
    /// Short name shown in waterfall rows, e.g. `replica-a`.
    pub label: String,
    /// The raw JSONL trace text.
    pub text: String,
}

/// The result of analyzing one or more trace files.
#[derive(Debug)]
pub struct Report {
    /// Human-readable waterfalls + aggregate table.
    pub rendered: String,
    /// Number of distinct trace ids seen.
    pub traces: usize,
}

/// A reconstructed span within one file.
struct SpanRec {
    name: String,
    start_ts: u64,
    dur_ns: Option<u64>,
    parent: u64,
    trace: Option<String>,
    children: Vec<u64>,
}

/// Per-file span forest keyed by span id.
struct FileSpans {
    label: String,
    spans: BTreeMap<u64, SpanRec>,
}

fn build_file(label: &str, events: &[TraceEvent]) -> FileSpans {
    let mut spans: BTreeMap<u64, SpanRec> = BTreeMap::new();
    for ev in events {
        match ev.kind.as_str() {
            "span_start" => {
                let trace = ev.fields.get("trace").and_then(Json::as_str).map(str::to_string);
                spans.insert(
                    ev.id,
                    SpanRec {
                        name: ev.span.clone(),
                        start_ts: ev.ts_ns,
                        dur_ns: None,
                        parent: ev.parent,
                        trace,
                        children: Vec::new(),
                    },
                );
            }
            "span_end" => {
                if let Some(rec) = spans.get_mut(&ev.id) {
                    rec.dur_ns = ev.dur_ns;
                }
            }
            _ => {}
        }
    }
    // Inherit trace ids down the parent chain; ids are allocated in
    // increasing order so a single forward pass suffices.
    let ids: Vec<u64> = spans.keys().copied().collect();
    for id in &ids {
        let inherited = {
            let rec = &spans[id];
            if rec.trace.is_some() || rec.parent == 0 {
                None
            } else {
                spans.get(&rec.parent).and_then(|p| p.trace.clone())
            }
        };
        if let Some(t) = inherited {
            spans.get_mut(id).unwrap().trace = Some(t);
        }
    }
    for id in &ids {
        let parent = spans[id].parent;
        if parent != 0 && spans.contains_key(&parent) {
            spans.get_mut(&parent).unwrap().children.push(*id);
        }
    }
    FileSpans { label: label.to_string(), spans }
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

/// Nearest-rank percentile of a sorted duration list.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Render the subtree rooted at `id` in `file`, offsets measured from
/// `base` on the file's own clock.
fn walk(out: &mut String, file: &FileSpans, id: u64, depth: usize, base: u64) {
    let rec = &file.spans[&id];
    let dur = rec.dur_ns.map(fmt_ms).unwrap_or_else(|| "open".to_string());
    let _ = writeln!(
        out,
        "  [{}] {:indent$}{:<24} +{:>12} {:>12}",
        file.label,
        "",
        rec.name,
        fmt_ms(rec.start_ts.saturating_sub(base)),
        dur,
        indent = depth * 2,
    );
    for &child in &rec.children {
        walk(out, file, child, depth + 1, base);
    }
}

/// Analyze one or more JSONL trace files.
///
/// Every file must pass [`validate_trace`]; a schema or nesting
/// violation in any file is a hard error naming the offending file.
pub fn analyze(inputs: &[TraceFile]) -> Result<Report, String> {
    let mut files = Vec::with_capacity(inputs.len());
    for f in inputs {
        let events =
            validate_trace(&f.text).map_err(|e| format!("{}: {e}", f.label))?;
        files.push(build_file(&f.label, &events));
    }

    // trace id -> root span ids as (file index, span id), in file order.
    let mut roots: BTreeMap<String, Vec<(usize, u64)>> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (id, rec) in &file.spans {
            let Some(trace) = &rec.trace else { continue };
            let parent_trace = (rec.parent != 0)
                .then(|| file.spans.get(&rec.parent).and_then(|p| p.trace.as_deref()))
                .flatten();
            if parent_trace != Some(trace.as_str()) {
                roots.entry(trace.clone()).or_default().push((fi, *id));
            }
        }
    }

    let mut out = String::new();
    for (trace, trace_roots) in &roots {
        let mut file_set: Vec<usize> = trace_roots.iter().map(|&(fi, _)| fi).collect();
        file_set.dedup();
        let file_names: Vec<&str> =
            file_set.iter().map(|&fi| files[fi].label.as_str()).collect();
        let span_count: usize = files
            .iter()
            .map(|f| f.spans.values().filter(|s| s.trace.as_deref() == Some(trace)).count())
            .sum();
        let _ = writeln!(
            out,
            "trace {trace} · {span_count} spans · {} file(s): {}",
            file_set.len(),
            file_names.join(","),
        );
        for (i, &(fi, id)) in trace_roots.iter().enumerate() {
            // Roots are grouped by file, so the first root of this file
            // is the earliest one before `i` with the same index.
            let first = trace_roots[..=i].iter().find(|&&(f, _)| f == fi).unwrap().1;
            walk(&mut out, &files[fi], id, 0, files[fi].spans[&first].start_ts);
        }
        out.push('\n');
    }

    // Aggregate per-span-name latency quantiles across all files,
    // including spans with no trace id (pipeline runs outside serve).
    let mut by_name: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for file in &files {
        for rec in file.spans.values() {
            if let Some(d) = rec.dur_ns {
                by_name.entry(rec.name.as_str()).or_default().push(d);
            }
        }
    }
    let _ = writeln!(out, "{:<24} {:>8} {:>12} {:>12}", "span", "count", "p50", "p95");
    for (name, durs) in &mut by_name {
        durs.sort_unstable();
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>12} {:>12}",
            name,
            durs.len(),
            fmt_ms(percentile(durs, 50.0)),
            fmt_ms(percentile(durs, 95.0)),
        );
    }
    Ok(Report { rendered: out, traces: roots.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{mint_trace_id, Tracer};

    /// A fabricated daemon trace: one request's serve span with its
    /// lifecycle children.
    fn serve_trace(trace_id: &str) -> String {
        let (tracer, buf) = Tracer::in_memory();
        {
            let _serve = tracer.span("serve", "serve", &[("trace", trace_id.into())]);
            tracer.span("serve", "queue_wait", &[]).close();
            tracer.span("serve", "batch", &[]).close();
        }
        tracer.flush();
        buf.contents()
    }

    #[test]
    fn a_trace_renders_as_one_waterfall_with_its_children_nested() {
        let id = mint_trace_id();
        let report =
            analyze(&[TraceFile { label: "a".into(), text: serve_trace(&id) }]).unwrap();
        assert_eq!(report.traces, 1, "{}", report.rendered);
        assert!(report.rendered.contains(&format!("trace {id} · 3 spans")), "{}", report.rendered);
        let serve = report.rendered.find("[a] serve").unwrap();
        let child = report.rendered.find("[a]   queue_wait").unwrap();
        assert!(child > serve, "{}", report.rendered);
        assert!(report.rendered.contains("[a]   batch"), "{}", report.rendered);
    }

    #[test]
    fn invalid_files_fail_naming_the_file() {
        let files = [TraceFile { label: "bad.jsonl".into(), text: "not json\n".into() }];
        let err = analyze(&files).unwrap_err();
        assert!(err.starts_with("bad.jsonl:"), "{err}");
    }

    #[test]
    fn aggregates_cover_untrace_spans_and_quantiles_are_ranked() {
        let (tracer, buf) = Tracer::in_memory();
        for _ in 0..3 {
            tracer.span("detect", "detect", &[]).close();
        }
        tracer.flush();
        let report = analyze(&[TraceFile { label: "x".into(), text: buf.contents() }]).unwrap();
        assert_eq!(report.traces, 0);
        assert!(report.rendered.contains("detect"), "{}", report.rendered);
        assert!(report.rendered.contains("p95"), "{}", report.rendered);
    }
}
