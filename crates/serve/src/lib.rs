//! `ancstr-serve` — the extraction daemon behind `ancstr serve`.
//!
//! AncstrGNN's GNN is inductive: train once, then extract symmetry
//! constraints from unseen netlists without retraining (paper
//! Section IV-C). That deployment mode wants a long-lived process, not
//! a one-shot CLI that re-loads the model per netlist. This crate is
//! that process, built entirely on `std`:
//!
//! - [`http`] — a minimal HTTP/1.1 message layer over `std::net`
//!   (`Content-Length` bodies, one request per connection).
//! - [`pool`] — a fixed worker pool over a bounded queue; a full queue
//!   is answered with `503` + `Retry-After` instead of unbounded
//!   latency.
//! - [`registry`] — the warm model registry: one resident model,
//!   hot-swappable via `POST /v1/models` behind a seal check, a canary
//!   inference and a quarantining upload breaker; a client may pin it
//!   with `x-ancstr-model`.
//! - [`cache`] — a content-addressed LRU cache of extraction replies,
//!   keyed by netlist bytes ⊕ configuration hash ⊕ model fingerprint.
//! - [`server`] — accept loop, routing, per-request deadlines, metrics,
//!   and graceful drain on shutdown.
//! - [`client`] — the matching blocking client used by `ancstr loadgen`
//!   and the integration tests.
//!
//! The deliberate non-goals: TLS, keep-alive, chunked encoding, HTTP/2.
//! The daemon is an internal service for EDA flows, and every omitted
//! feature is a parser that cannot be wrong and a dependency that does
//! not exist.

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod cache;
pub mod client;
pub mod flight;
pub mod http;
pub mod pool;
pub mod registry;
pub mod server;

pub use cache::{CacheStats, ResultCache};
pub use client::HttpReply;
pub use flight::SingleFlight;
pub use http::{Request, Response};
pub use pool::{SubmitError, WorkerPool};
pub use registry::{ModelEntry, ModelRegistry};
pub use server::{ServeConfig, Server, ShutdownHandle};
