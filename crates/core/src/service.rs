//! Request-level extraction API for long-lived services.
//!
//! The one-shot CLI re-loads the model and re-runs the full pipeline
//! per invocation; a daemon (`ancstr serve`) instead keeps a trained
//! [`SymmetryExtractor`] warm and answers many independent requests
//! against it — the inductive deployment mode of the paper's
//! Section IV-C. This module is the boundary between "a netlist arrived
//! as bytes" and the pipeline stages: [`extract_request`] runs load →
//! graph → embed → detect on one request's in-memory SPICE text,
//! [`extract_source`] is its shorthand without a deadline or an
//! alternate format, and [`cache_key`] derives the content address a
//! result cache stores the reply under.
//!
//! Everything here is deterministic: the same source text, extractor
//! configuration, and model weights always produce the same
//! [`ServiceReply::constraints_text`] — byte-identical to what
//! `ancstr extract --model` writes for the same inputs. That identity
//! is what makes the reply cacheable at all, and it is asserted
//! end-to-end by `tests/serve.rs`.

use std::time::{Duration, Instant};

use ancstr_netlist::parse::parse_spice;
use ancstr_netlist::{ConstraintSet, FlatCircuit};

use crate::export::write_constraints;
use crate::observe::PipelineObs;
use crate::pipeline::{load, ExtractorConfig, RunCtx, SymmetryExtractor};
use crate::recover::ExtractError;
use crate::runstore::config_hash;

/// The service-level result of one extraction request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReply {
    /// The constraint set in the canonical `write_constraints` text
    /// format — byte-identical to one-shot `ancstr extract` output for
    /// the same netlist, configuration, and model.
    pub constraints_text: String,
    /// Human-readable detection warnings (quarantined devices), in the
    /// stable path-sorted order the CLI reports them in.
    pub warnings: Vec<String>,
    /// Devices in the elaborated circuit.
    pub devices: usize,
    /// Nets in the elaborated circuit.
    pub nets: usize,
    /// Accepted symmetry constraints.
    pub constraints: usize,
    /// Graph build, embed and detection, wall-clock (parsing and
    /// training excluded, matching the paper's reporting).
    pub runtime: Duration,
    /// The constraints rendered by the caller-supplied alternate
    /// formatter (the serving layer threads the ALIGN-JSON exporter
    /// through here), or `None` on the plain paths. Computed at extract
    /// time so a cached reply can answer either format.
    pub align_json: Option<String>,
}

/// An alternate constraint serializer threaded through
/// [`extract_request`]. Core cannot depend on the hierarchical exporter (it
/// layers *on* core), so services inject it as a function of the
/// elaborated circuit and the detected constraints.
pub type AltFormatter = dyn Fn(&FlatCircuit, &ConstraintSet) -> String + Sync;

/// Run the full extraction pipeline on in-memory SPICE text with a
/// warm, pre-trained extractor: [`extract_request`] under `obs`, with
/// no deadline and no alternate format. `origin` is a diagnostic label
/// for the request (a peer address, a request id) that lands in the
/// `parse` span where the file path would normally go.
///
/// # Errors
///
/// The usual staged [`ExtractError`]s: `Parse` for malformed SPICE,
/// `Elaborate` for un-flattenable netlists, `Embed` when the model is
/// unusable. Callers map these onto protocol status codes with
/// [`ExtractError::exit_code`] as the stable discriminator.
pub fn extract_source(
    source: &str,
    origin: &str,
    extractor: &SymmetryExtractor,
    obs: &PipelineObs,
) -> Result<ServiceReply, ExtractError> {
    extract_request(source, origin, extractor, &RunCtx::observed(obs.clone()), None)
}

/// Run one request through the pipeline stages against a warm
/// extractor: load → graph → embed → detect. `ctx.cancel` is polled
/// before the load, after the graph build and after the embed; an
/// expired token answers [`ExtractError::Cancelled`]. When `alt` is
/// `Some`, its rendering of the constraints lands in
/// [`ServiceReply::align_json`].
///
/// # Errors
///
/// The staged [`ExtractError`]s of [`extract_source`], plus
/// [`ExtractError::Cancelled`] at a stage boundary.
pub fn extract_request(
    source: &str,
    origin: &str,
    extractor: &SymmetryExtractor,
    ctx: &RunCtx,
    alt: Option<&AltFormatter>,
) -> Result<ServiceReply, ExtractError> {
    ctx.check()?;
    let flat = load(origin, &ctx.obs, || parse_spice(source))?;
    let start = Instant::now();
    let graph = extractor.train_graph(&flat, &ctx.obs);
    ctx.check()?;
    // The embed stage consumes the graph, so none of it lives on into
    // detection.
    let z = extractor.embed(graph, &ctx.obs)?;
    ctx.check()?;
    let detection = extractor.detect(&flat, &z, &ctx.obs);
    let mut warnings: Vec<String> = detection.warnings.iter().map(|w| w.to_string()).collect();
    warnings.sort();
    Ok(ServiceReply {
        constraints_text: write_constraints(&flat, &detection.constraints),
        devices: flat.devices().len(),
        nets: flat.net_count(),
        constraints: detection.constraints.len(),
        warnings,
        runtime: start.elapsed(),
        align_json: alt.map(|f| f(&flat, &detection.constraints)),
    })
}

/// The content address of a service reply: an FNV-1a 64-bit hash over
/// the raw netlist bytes, folded together with the configuration hash
/// ([`config_hash`]) and the serving model's fingerprint. Two requests
/// share a key exactly when they are byte-identical netlists served by
/// the same configuration and the same model weights — so a cache
/// lookup can never return a reply the current pipeline would not
/// itself produce, and a model hot-swap implicitly invalidates every
/// cached entry (old keys simply stop being generated and age out of
/// the LRU).
pub fn cache_key(netlist: &[u8], config: &ExtractorConfig, model_fingerprint: u64) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(netlist);
    eat(config_hash(config).as_bytes());
    eat(&model_fingerprint.to_le_bytes());
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runstore::CancelToken;

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

    fn quick_config() -> ExtractorConfig {
        let mut cfg = ExtractorConfig::default();
        cfg.train.epochs = 12;
        cfg.train.seed = 7;
        cfg.gnn.seed = 7;
        cfg
    }

    fn trained_extractor() -> SymmetryExtractor {
        let netlist = parse_spice(NETLIST).unwrap();
        let flat = FlatCircuit::elaborate(&netlist).unwrap();
        let mut ex = SymmetryExtractor::try_new(quick_config()).unwrap();
        ex.try_fit(&[&flat], &RunCtx::default(), None).unwrap();
        ex
    }

    #[test]
    fn extract_source_matches_the_file_pipeline() {
        let ex = trained_extractor();
        let obs = PipelineObs::disabled();
        let reply = extract_source(NETLIST, "test", &ex, &obs).unwrap();
        // Same model, same netlist, via the file-based path.
        let netlist = parse_spice(NETLIST).unwrap();
        let flat = FlatCircuit::elaborate(&netlist).unwrap();
        let extraction = ex.try_extract(&flat, None, &RunCtx::default(), None).unwrap();
        assert_eq!(
            reply.constraints_text,
            write_constraints(&flat, &extraction.detection.constraints)
        );
        assert_eq!(reply.devices, 7);
        assert_eq!(reply.constraints, extraction.detection.constraints.len());
        assert!(reply.constraints > 0);
    }

    #[test]
    fn extract_source_is_deterministic() {
        let ex = trained_extractor();
        let obs = PipelineObs::disabled();
        let a = extract_source(NETLIST, "a", &ex, &obs).unwrap();
        let b = extract_source(NETLIST, "b", &ex, &obs).unwrap();
        assert_eq!(a.constraints_text, b.constraints_text);
        assert_eq!(a.warnings, b.warnings);
    }

    #[test]
    fn extract_source_reports_staged_errors() {
        let ex = trained_extractor();
        let obs = PipelineObs::disabled();
        let err = extract_source("M1 a b\n", "bad", &ex, &obs).unwrap_err();
        assert_eq!(err.exit_code(), 4, "malformed SPICE is a parse error: {err}");
    }

    #[test]
    fn cancelled_token_aborts_with_the_deadline_stage() {
        let ex = trained_extractor();
        let obs = PipelineObs::disabled();
        let ctx = RunCtx::observed(obs);
        ctx.cancel.cancel();
        let err = extract_request(NETLIST, "t", &ex, &ctx, None).unwrap_err();
        assert_eq!(err, ExtractError::Cancelled);
        assert_eq!(err.exit_code(), 10);
        assert_eq!(err.stage(), "deadline");
    }

    #[test]
    fn expired_passive_deadline_aborts_without_a_watchdog_thread() {
        let ex = trained_extractor();
        let obs = PipelineObs::disabled();
        let cancel = CancelToken::expiring_in(Duration::ZERO);
        let ctx = RunCtx { cancel, ..RunCtx::observed(obs) };
        let err = extract_request(NETLIST, "t", &ex, &ctx, None).unwrap_err();
        assert_eq!(err, ExtractError::Cancelled);
    }

    #[test]
    fn cache_key_separates_every_input_dimension() {
        let cfg = quick_config();
        let base = cache_key(NETLIST.as_bytes(), &cfg, 1);
        // Identical inputs → identical key.
        assert_eq!(base, cache_key(NETLIST.as_bytes(), &cfg, 1));
        // Any single changed dimension → a different key.
        assert_ne!(base, cache_key(b"other netlist", &cfg, 1));
        assert_ne!(base, cache_key(NETLIST.as_bytes(), &cfg, 2));
        let mut other_cfg = quick_config();
        other_cfg.train.epochs += 1;
        assert_ne!(base, cache_key(NETLIST.as_bytes(), &other_cfg, 1));
        // Keys are printable fixed-width hex.
        assert_eq!(base.len(), 16);
        assert!(base.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
