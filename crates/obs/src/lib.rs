#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! Zero-dependency observability for the AncstrGNN pipeline.
//!
//! Three independent pieces, all safe to leave disabled:
//!
//! * [`trace`] — span-based structured tracing. A [`Tracer`] emits one
//!   JSON object per line (JSONL); [`Span`] guards nest and time stages
//!   with a monotonic clock. [`validate_trace`] checks the schema and
//!   the LIFO nesting invariant, and is shared by unit tests,
//!   integration tests and the CI smoke job.
//! * [`metrics`] — a [`Registry`] of counters, gauges and fixed-bucket
//!   histograms rendered as Prometheus text exposition
//!   ([`Registry::render`], checked by [`validate_exposition`]).
//! * [`log`] — a structured stderr [`Logger`] with `text`/`json`
//!   formats and quiet/normal/verbose levels.
//!
//! The crate deliberately has **no dependencies** (the build
//! environment is offline), and nothing here feeds back into pipeline
//! arithmetic: tracing a run cannot change its outputs.
//!
//! # Example
//!
//! ```
//! use ancstr_obs::{Tracer, validate_trace};
//!
//! let (tracer, buf) = Tracer::in_memory();
//! {
//!     let _guard = tracer.span("train", "train", &[("epochs", 60u64.into())]);
//!     tracer.event("train", "epoch", &[("loss", 0.5.into())]);
//! }
//! tracer.flush();
//! let events = validate_trace(&buf.contents()).unwrap();
//! assert_eq!(events.len(), 3); // span_start, event, span_end
//! ```

pub mod json;
pub mod log;
pub mod metrics;
pub mod report;
pub mod trace;

pub use json::Json;
pub use log::{LogFormat, Logger, Verbosity};
pub use metrics::{
    validate_exposition, Registry, DURATION_BUCKETS_S, GRAD_NORM_BUCKETS,
};
pub use report::{analyze, Report, TraceFile};
pub use trace::{
    is_trace_id, minor_faults, mint_trace_id, peak_rss_kb, validate_line, validate_trace, Span,
    TraceBuffer, TraceEvent, Tracer, Value,
};
