//! Request-level extraction API for long-lived services.
//!
//! The one-shot CLI re-loads the model and re-runs the full pipeline
//! per invocation; a daemon (`ancstr serve`) instead keeps a trained
//! [`SymmetryExtractor`] warm and answers many independent requests
//! against it — the inductive deployment mode of the paper's
//! Section IV-C. This module is the boundary between "a netlist arrived
//! as bytes" and the pipeline stages: [`extract_batch`] runs load →
//! graph → embed → detect on in-memory SPICE text for one or many
//! requests, [`extract_source`] is its batch of one, and [`cache_key`]
//! derives the content address a result cache stores the reply under.
//!
//! Everything here is deterministic: the same source text, extractor
//! configuration, and model weights always produce the same
//! [`ServiceReply::constraints_text`] — byte-identical to what
//! `ancstr extract --model` writes for the same inputs. That identity
//! is what makes the reply cacheable at all, and it is asserted
//! end-to-end by `tests/serve.rs`.

use std::time::{Duration, Instant};

use ancstr_gnn::TrainGraph;
use ancstr_netlist::parse::parse_spice;
use ancstr_netlist::{ConstraintSet, FlatCircuit};
use ancstr_nn::Matrix;

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
    /// This request's graph build, the (possibly shared) embed pass and
    /// this request's detection, wall-clock (parsing and training
    /// excluded, matching the paper's reporting).
    pub runtime: Duration,
    /// The constraints rendered by the caller-supplied alternate
    /// formatter (the serving layer threads the ALIGN-JSON exporter
    /// through here), or `None` on the plain paths. Computed at extract
    /// time so a cached reply can answer either format.
    pub align_json: Option<String>,
}

/// An alternate constraint serializer threaded through
/// [`extract_batch`]. Core cannot depend on the hierarchical exporter (it
/// layers *on* core), so services inject it as a function of the
/// elaborated circuit and the detected constraints.
pub type AltFormatter = dyn Fn(&FlatCircuit, &ConstraintSet) -> String + Sync;

/// Run the full extraction pipeline on in-memory SPICE text with a
/// warm, pre-trained extractor: [`extract_batch`] with a batch of one
/// under `obs`. `origin` is a diagnostic label for the request (a peer
/// address, a request id) that lands in the `parse` span where the file
/// path would normally go.
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
    let ctx = RunCtx::observed(obs.clone());
    extract_batch(&[(source, origin)], extractor, &ctx, None)?
        .pop()
        .expect("one reply per item")
}

/// Run many `(source, origin)` requests against one warm extractor
/// through the pipeline stages: per item load → graph, one shared
/// embed stage (a single graph is embedded directly; several share one
/// forward pass over their block-diagonal fusion), then per item
/// detect. `ctx.cancel` is polled before the first item, after every
/// item's front half and after the shared embed.
///
/// Per-item semantics do not depend on the batch:
///
/// - load and graph failures stay with their item (the inner `Err`);
///   healthy batch-mates are unaffected;
/// - the embed stage's degrade policy applies per item, and an item's
///   non-finite features cannot reach another item's rows;
/// - a non-finite *model* fails every item that is not degraded;
/// - replies are byte-identical whatever the batch size (pinned by
///   `tests/serve_batch.rs` at sizes 1/4/16);
/// - [`ServiceReply::runtime`] is the item's graph build, the shared
///   embed and the item's detect.
///
/// When `alt` is `Some`, its rendering of each item's constraints lands
/// in [`ServiceReply::align_json`].
///
/// # Errors
///
/// The outer `Err` is always [`ExtractError::Cancelled`] and means the
/// shared pass was abandoned at a stage boundary — no item completed.
/// All other failures are per-item.
pub fn extract_batch(
    items: &[(&str, &str)],
    extractor: &SymmetryExtractor,
    ctx: &RunCtx,
    alt: Option<&AltFormatter>,
) -> Result<Vec<Result<ServiceReply, ExtractError>>, ExtractError> {
    struct Front {
        flat: FlatCircuit,
        graph: TrainGraph,
        graph_time: Duration,
    }

    ctx.check()?;
    let mut fronts = Vec::with_capacity(items.len());
    for &(source, origin) in items {
        fronts.push(load(origin, &ctx.obs, || parse_spice(source)).map(|flat| {
            let start = Instant::now();
            let graph = extractor.train_graph(&flat, &ctx.obs);
            Front { flat, graph, graph_time: start.elapsed() }
        }));
        ctx.check()?;
    }

    let start = Instant::now();
    let graphs: Vec<&TrainGraph> = fronts.iter().flatten().map(|f| &f.graph).collect();
    let mut zs = extractor.embed(&graphs, &ctx.obs).into_iter();
    let embed_time = start.elapsed();
    // Each graph is dropped here, before detection.
    let embedded: Vec<Result<(FlatCircuit, Duration, Matrix), ExtractError>> = fronts
        .into_iter()
        .map(|front| {
            let front = front?;
            let z = zs.next().expect("one embedding per graph")?;
            Ok((front.flat, front.graph_time + embed_time, z))
        })
        .collect();
    ctx.check()?;

    Ok(embedded
        .into_iter()
        .map(|item| {
            let (flat, runtime, z) = item?;
            let start = Instant::now();
            let detection = extractor.detect(&flat, &z, &ctx.obs);
            let mut warnings: Vec<String> =
                detection.warnings.iter().map(|w| w.to_string()).collect();
            warnings.sort();
            Ok(ServiceReply {
                constraints_text: write_constraints(&flat, &detection.constraints),
                devices: flat.devices().len(),
                nets: flat.net_count(),
                constraints: detection.constraints.len(),
                warnings,
                runtime: runtime + start.elapsed(),
                align_json: alt.map(|f| f(&flat, &detection.constraints)),
            })
        })
        .collect())
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

    /// A cancelled token abandons the whole batch (here, of one).
    #[test]
    fn cancelled_token_aborts_with_the_deadline_stage() {
        let ex = trained_extractor();
        let obs = PipelineObs::disabled();
        let ctx = RunCtx::observed(obs);
        ctx.cancel.cancel();
        let err = extract_batch(&[(NETLIST, "t")], &ex, &ctx, None).unwrap_err();
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
        let err = extract_batch(&[(NETLIST, "t")], &ex, &ctx, None).unwrap_err();
        assert_eq!(err, ExtractError::Cancelled);
    }

    const OTHER: &str = "\
.subckt ota inp inn out ib vdd vss
M1 n1 inp tail vss nch w=4u l=0.2u
M2 out inn tail vss nch w=4u l=0.2u
M3 n1 n1 vdd vdd pch w=8u l=0.2u
M4 out n1 vdd vdd pch w=8u l=0.2u
M5 tail ib vss vss nch w=2u l=0.5u
.ends
";

    #[test]
    fn batched_extraction_is_byte_identical_to_solo_extraction() {
        let ex = trained_extractor();
        let obs = PipelineObs::disabled();
        let items = [(NETLIST, "a"), (OTHER, "b"), (NETLIST, "c")];
        let batched = extract_batch(&items, &ex, &RunCtx::observed(obs.clone()), None).unwrap();
        assert_eq!(batched.len(), 3);
        for ((source, origin), got) in items.iter().zip(&batched) {
            let got = got.as_ref().expect("well-formed items succeed");
            let solo = extract_source(source, origin, &ex, &obs).unwrap();
            assert_eq!(got.constraints_text, solo.constraints_text);
            assert_eq!(got.warnings, solo.warnings);
            assert_eq!(got.devices, solo.devices);
            assert_eq!(got.nets, solo.nets);
            assert_eq!(got.constraints, solo.constraints);
        }
    }

    #[test]
    fn batched_extraction_keeps_failures_with_their_item() {
        let ex = trained_extractor();
        let obs = PipelineObs::disabled();
        let items = [(NETLIST, "good"), ("M1 a b\n", "bad"), (OTHER, "also-good")];
        let batched = extract_batch(&items, &ex, &RunCtx::observed(obs.clone()), None).unwrap();
        assert_eq!(batched[1].as_ref().unwrap_err().exit_code(), 4);
        let solo = extract_source(NETLIST, "good", &ex, &obs).unwrap();
        assert_eq!(
            batched[0].as_ref().unwrap().constraints_text,
            solo.constraints_text,
            "a malformed batch-mate must not change a healthy reply"
        );
        assert!(batched[2].is_ok());
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
