//! The warm model registry: the one trained [`GnnModel`] the daemon
//! serves, loaded once, shared by every worker, hot-swappable while
//! requests are in flight.
//!
//! AncstrGNN is inductive (paper Section IV-C): a model trained once on
//! a corpus generalizes to unseen netlists, so the expensive part —
//! loading and validating weights — should happen once per model, not
//! once per request. The registry holds exactly one resident model.
//! Requests grab a cheap [`Arc`] snapshot and keep using it even if an
//! operator swaps the model mid-flight, so a reload never corrupts an
//! in-progress extraction. A client may pin the model it expects with
//! the `x-ancstr-model` header ([`ModelRegistry::resolve`]); once that
//! model is swapped out, the pinned request is refused instead of being
//! answered by another model. Reloads go through the checksummed
//! envelope ([`GnnModel::from_text_checksummed`]) — an HTTP body is
//! exactly the kind of transport where truncation and bit rot happen,
//! and the seal turns both into clean `400`s instead of silently-wrong
//! constraint sets.

use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ancstr_core::{ExtractError, ExtractorConfig, RunCtx, SymmetryExtractor};
use ancstr_gnn::GnnModel;
use ancstr_netlist::{parse::parse_spice, FlatCircuit};

/// The tiny built-in circuit the canary inference runs against before a
/// hot-swapped model is committed: a cross-coupled pair any usable
/// model must embed to finite vectors. Cheap enough (5 devices) to run
/// on every reload.
const CANARY_NETLIST: &str = "\
.subckt canary q qb en vdd vss
M1 q qb tail vss nch w=4u l=0.2u
M2 qb q tail vss nch w=4u l=0.2u
M3 q qb vdd vdd pch w=8u l=0.2u
M4 qb q vdd vdd pch w=8u l=0.2u
M5 tail en vss vss nch w=2u l=0.5u
.ends
";

/// One loaded model and the extractor built around it.
pub struct ModelEntry {
    /// The warm extractor (model + configuration), shared read-only.
    pub extractor: SymmetryExtractor,
    /// [`GnnModel::fingerprint`] of the loaded weights — part of every
    /// cache key, so a swap implicitly invalidates cached replies.
    pub fingerprint: u64,
    /// Where the weights came from (file path or uploading client), for
    /// `/healthz` and logs.
    pub source: String,
    /// Monotonic reload counter: 1 for the boot model, +1 per swap.
    pub generation: u64,
}

impl ModelEntry {
    /// The fingerprint as fixed-width hex (the form used in JSON
    /// replies, the `x-ancstr-model` header, and metrics labels).
    pub fn fingerprint_hex(&self) -> String {
        format!("{:016x}", self.fingerprint)
    }
}

/// Why an `x-ancstr-model` header could not be honoured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// The header is not a 16-hex-digit fingerprint.
    BadFingerprint(String),
    /// The resident model has another fingerprint (never loaded, or
    /// swapped out).
    NotFound(String),
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::BadFingerprint(s) => {
                write!(f, "x-ancstr-model must be a 16-digit hex fingerprint, got {s:?}")
            }
            ResolveError::NotFound(s) => {
                write!(f, "the resident model is not fingerprint {s}")
            }
        }
    }
}

/// Why a guarded hot-swap was refused. Either way the previous model
/// keeps serving — a reload can never leave the daemon without a good
/// model.
#[derive(Debug, Clone, PartialEq)]
pub enum ReloadError {
    /// The circuit breaker is open for this exact body: an earlier
    /// upload of identical bytes already failed validation, so the
    /// artifact is quarantined and re-validation is skipped.
    BreakerOpen {
        /// FNV-64 of the quarantined body.
        key: u64,
    },
    /// Validation failed now (and the body was quarantined): the
    /// checksum seal, model parse, dimension check, or canary inference
    /// rejected it.
    Rejected {
        /// Which validation step refused the upload (`seal`, `build`,
        /// or `canary`).
        step: &'static str,
        /// Human-readable cause.
        reason: String,
    },
}

impl fmt::Display for ReloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReloadError::BreakerOpen { key } => write!(
                f,
                "circuit breaker open: this model body (key {key:016x}) already failed \
                 validation and is quarantined"
            ),
            ReloadError::Rejected { step, reason } => {
                write!(f, "model rejected at {step}: {reason}")
            }
        }
    }
}

/// Point-in-time circuit-breaker state, for readiness reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BreakerState {
    /// Distinct quarantined upload bodies.
    pub quarantined: usize,
    /// Total guarded reloads refused (first rejections + breaker hits).
    pub rejected_total: u64,
}

/// Shared registry of the resident model.
pub struct ModelRegistry {
    model: Mutex<Arc<ModelEntry>>,
    generation: AtomicU64,
    /// FNV-64 keys of upload bodies that already failed validation;
    /// identical re-uploads are refused without re-validating.
    quarantined: Mutex<HashSet<u64>>,
    rejected_total: AtomicU64,
}

fn entry_from_model(
    model: GnnModel,
    source: &str,
    generation: u64,
) -> Result<ModelEntry, ExtractError> {
    let fingerprint = model.fingerprint();
    let extractor = SymmetryExtractor::try_new(ExtractorConfig::default())?.with_model(model)?;
    Ok(ModelEntry { extractor, fingerprint, source: source.to_owned(), generation })
}

/// Whether `text` carries the checksummed artifact envelope.
fn is_sealed(text: &str) -> bool {
    text.lines().next_back().is_some_and(|l| l.starts_with("ancstr-seal "))
}

/// FNV-1a 64 over the raw upload body — the quarantine key. Hashing
/// the *bytes* (not a parsed fingerprint) means even un-parseable
/// bodies get a stable identity the breaker can pin.
fn body_key(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// First-inference check: the candidate extractor must produce a clean
/// extraction of the built-in canary circuit — no error *and* no
/// quarantined devices (non-finite embeddings). Catches models that
/// deserialize fine but are numerically unusable, before any client
/// traffic sees them.
fn canary_check(extractor: &SymmetryExtractor) -> Result<(), String> {
    let netlist = parse_spice(CANARY_NETLIST).expect("built-in canary netlist parses");
    let flat = FlatCircuit::elaborate(&netlist).expect("built-in canary netlist elaborates");
    let extraction = extractor
        .try_extract(&flat, None, &RunCtx::default(), None)
        .map_err(|e| format!("canary inference failed: {e}"))?;
    if !extraction.detection.warnings.is_empty() {
        return Err(format!(
            "canary inference quarantined {} device(s) (non-finite embeddings)",
            extraction.detection.warnings.len()
        ));
    }
    Ok(())
}

impl ModelRegistry {
    /// Load the boot model from serialized text. Accepts both the plain
    /// [`GnnModel::to_text`] form (what `ancstr train` writes) and the
    /// sealed [`GnnModel::to_text_checksummed`] envelope; a present seal
    /// is always verified.
    ///
    /// # Errors
    ///
    /// [`ExtractError::Model`] on malformed or corrupt text,
    /// [`ExtractError::ModelDim`] when the weights do not fit the
    /// Table II feature width.
    pub fn load(text: &str, source: &str) -> Result<ModelRegistry, ExtractError> {
        let model = if is_sealed(text) {
            GnnModel::from_text_checksummed(text)?
        } else {
            GnnModel::from_text(text)?
        };
        Ok(ModelRegistry {
            model: Mutex::new(Arc::new(entry_from_model(model, source, 1)?)),
            generation: AtomicU64::new(1),
            quarantined: Mutex::new(HashSet::new()),
            rejected_total: AtomicU64::new(0),
        })
    }

    /// A snapshot of the resident model. The `Arc` keeps the snapshot
    /// alive across a concurrent swap, so a request never observes a
    /// half-replaced model.
    pub fn current(&self) -> Arc<ModelEntry> {
        Arc::clone(&self.model.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Check an `x-ancstr-model` header against the resident model. An
    /// absent header takes the resident model; a present one must be
    /// its 16-hex-digit fingerprint.
    ///
    /// # Errors
    ///
    /// [`ResolveError::BadFingerprint`] for a malformed header,
    /// [`ResolveError::NotFound`] for any other model's fingerprint.
    pub fn resolve(&self, header: Option<&str>) -> Result<Arc<ModelEntry>, ResolveError> {
        let entry = self.current();
        let Some(raw) = header else {
            return Ok(entry);
        };
        let trimmed = raw.trim();
        let fp = (trimmed.len() == 16)
            .then(|| u64::from_str_radix(trimmed, 16).ok())
            .flatten()
            .ok_or_else(|| ResolveError::BadFingerprint(trimmed.to_owned()))?;
        if fp == entry.fingerprint {
            Ok(entry)
        } else {
            Err(ResolveError::NotFound(format!("{fp:016x}")))
        }
    }

    /// Make `entry` the resident model. Snapshots taken before the swap
    /// stay valid until their requests finish.
    fn install(&self, entry: Arc<ModelEntry>) {
        *self.model.lock().unwrap_or_else(|e| e.into_inner()) = entry;
    }

    /// Hot-load a model from a **sealed** artifact
    /// ([`GnnModel::to_text_checksummed`]) and make it the resident one,
    /// behind a circuit breaker and a canary inference. The strictness
    /// is the point: reload bodies travel over the network, and the
    /// CRC-32 seal converts truncation, bit flips, and version skew into
    /// typed rejections before the swap. Validation runs **before** the
    /// install:
    /// checksum seal → model build → first inference on the built-in
    /// canary circuit. Any failure quarantines the upload body (by byte
    /// hash), leaves the resident model serving, and opens the breaker
    /// for that exact body — an identical re-upload is refused
    /// immediately without re-running validation. This is the path
    /// `POST /v1/models` uses.
    ///
    /// # Errors
    ///
    /// [`ReloadError::BreakerOpen`] for a quarantined body,
    /// [`ReloadError::Rejected`] when validation fails now.
    pub fn reload_guarded(&self, text: &str, source: &str) -> Result<Arc<ModelEntry>, ReloadError> {
        let key = body_key(text);
        if self.quarantined.lock().unwrap_or_else(|e| e.into_inner()).contains(&key) {
            self.rejected_total.fetch_add(1, Ordering::SeqCst);
            return Err(ReloadError::BreakerOpen { key });
        }
        let reject = |step: &'static str, reason: String| {
            self.quarantined.lock().unwrap_or_else(|e| e.into_inner()).insert(key);
            self.rejected_total.fetch_add(1, Ordering::SeqCst);
            ReloadError::Rejected { step, reason }
        };
        let model = GnnModel::from_text_checksummed(text)
            .map_err(|e| reject("seal", e.to_string()))?;
        // Build with a placeholder generation; the real one is assigned
        // only at commit, so failed validations never burn a number.
        let candidate = entry_from_model(model, source, 0)
            .map_err(|e| reject("build", e.to_string()))?;
        canary_check(&candidate.extractor).map_err(|reason| reject("canary", reason))?;
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let entry = Arc::new(ModelEntry { generation, ..candidate });
        self.install(Arc::clone(&entry));
        Ok(entry)
    }

    /// Current circuit-breaker state, for `/healthz/ready` and metrics.
    pub fn breaker(&self) -> BreakerState {
        BreakerState {
            quarantined: self.quarantined.lock().unwrap_or_else(|e| e.into_inner()).len(),
            rejected_total: self.rejected_total.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_gnn::GnnConfig;

    fn model(seed: u64) -> GnnModel {
        GnnModel::new(GnnConfig {
            dim: ancstr_core::FEATURE_DIM,
            layers: 2,
            seed,
        })
    }

    #[test]
    fn loads_plain_and_sealed_boot_models() {
        let m = model(3);
        for text in [m.to_text(), m.to_text_checksummed()] {
            let reg = ModelRegistry::load(&text, "boot").unwrap();
            let entry = reg.current();
            assert_eq!(entry.fingerprint, m.fingerprint());
            assert_eq!(entry.generation, 1);
            assert_eq!(entry.source, "boot");
        }
    }

    #[test]
    fn boot_load_rejects_garbage_and_corrupt_seals() {
        assert!(ModelRegistry::load("not a model", "x").is_err());
        let sealed = model(3).to_text_checksummed();
        let tampered = sealed.replacen("0.", "1.", 1);
        assert!(ModelRegistry::load(&tampered, "x").is_err());
    }

    #[test]
    fn reload_swaps_atomically_and_keeps_old_snapshots_alive() {
        let reg = ModelRegistry::load(&model(3).to_text(), "boot").unwrap();
        let before = reg.current();
        let swapped = reg.reload_guarded(&model(4).to_text_checksummed(), "peer").unwrap();
        assert_eq!(swapped.generation, 2);
        assert_ne!(swapped.fingerprint, before.fingerprint);
        assert_eq!(reg.current().fingerprint, swapped.fingerprint);
        // The pre-swap snapshot still works (no use-after-swap hazard).
        assert_eq!(before.generation, 1);
    }

    /// `ModelEntry` holds a live extractor and has no `Debug`, so
    /// `unwrap_err` does not apply; this is the moral equivalent.
    fn reload_err(reg: &ModelRegistry, text: &str) -> ReloadError {
        match reg.reload_guarded(text, "peer") {
            Ok(_) => panic!("expected the reload to be rejected"),
            Err(err) => err,
        }
    }

    #[test]
    fn guarded_reload_swaps_a_good_model() {
        let reg = ModelRegistry::load(&model(3).to_text(), "boot").unwrap();
        let entry = reg.reload_guarded(&model(4).to_text_checksummed(), "peer").unwrap();
        assert_eq!(entry.generation, 2);
        assert_eq!(reg.current().fingerprint, entry.fingerprint);
        assert_eq!(reg.breaker(), BreakerState::default());
    }

    #[test]
    fn guarded_reload_quarantines_and_opens_the_breaker() {
        let reg = ModelRegistry::load(&model(3).to_text(), "boot").unwrap();
        let good_fp = reg.current().fingerprint;
        let tampered = model(4).to_text_checksummed().replacen("0.", "1.", 1);

        // First upload: validated, rejected, quarantined.
        let err = reload_err(&reg, &tampered);
        assert!(matches!(err, ReloadError::Rejected { step: "seal", .. }), "{err}");

        // Identical re-upload: the breaker answers without re-validating.
        let err = reload_err(&reg, &tampered);
        assert!(matches!(err, ReloadError::BreakerOpen { .. }), "{err}");
        assert_eq!(reg.breaker(), BreakerState { quarantined: 1, rejected_total: 2 });

        // The last good model never stopped serving.
        assert_eq!(reg.current().fingerprint, good_fp);
        assert_eq!(reg.current().generation, 1);
    }

    #[test]
    fn failed_validation_burns_no_generation_numbers() {
        let reg = ModelRegistry::load(&model(3).to_text(), "boot").unwrap();
        let _ = reload_err(&reg, "garbage");
        let _ = reload_err(&reg, &model(5).to_text()); // unsealed
        let entry = reg.reload_guarded(&model(4).to_text_checksummed(), "peer").unwrap();
        assert_eq!(entry.generation, 2, "rejections must not consume generations");
    }

    #[test]
    fn canary_rejects_a_numerically_poisoned_extractor() {
        // Poisoned weights (not representable in a sealed upload — the
        // parser rejects NaN) still cannot sneak past the canary, which
        // guards the semantic gap between "deserializes" and "serves".
        let mut poisoned = model(9);
        poisoned.matrices_mut()[0][(0, 0)] = f64::NAN;
        let ex = SymmetryExtractor::new(ExtractorConfig::default())
            .with_model(poisoned)
            .unwrap();
        let err = canary_check(&ex).unwrap_err();
        assert!(err.contains("canary inference failed"), "{err}");
        // A healthy extractor passes.
        let ok = SymmetryExtractor::new(ExtractorConfig::default())
            .with_model(model(9))
            .unwrap();
        assert!(canary_check(&ok).is_ok());
    }

    #[test]
    fn guarded_reload_runs_the_canary_on_parseable_models() {
        // Finite but adversarial weights: ±1e308 in the same dot
        // product overflows to inf − inf = NaN during inference. The
        // seal verifies and the model parses — only the canary's first
        // inference can catch it.
        let reg = ModelRegistry::load(&model(3).to_text(), "boot").unwrap();
        let mut bad = model(4);
        for m in bad.matrices_mut() {
            let (rows, cols) = m.shape();
            for r in 0..rows {
                for c in 0..cols {
                    m[(r, c)] = if (r + c) % 2 == 0 { 1e308 } else { -1e308 };
                }
            }
        }
        let err = reload_err(&reg, &bad.to_text_checksummed());
        assert!(
            matches!(err, ReloadError::Rejected { step: "canary", .. }),
            "expected a canary rejection, got: {err}"
        );
        assert_eq!(reg.current().generation, 1, "rollback to the last good generation");
        assert_eq!(reg.breaker().quarantined, 1);
    }

    #[test]
    fn routing_header_resolves_fingerprints_and_rejects_garbage() {
        let reg = ModelRegistry::load(&model(3).to_text(), "boot").unwrap();
        let boot_fp = reg.current().fingerprint;
        let other = reg.reload_guarded(&model(4).to_text_checksummed(), "peer").unwrap();

        // Headerless and the resident fingerprint both take the new model.
        assert_eq!(reg.resolve(None).unwrap().fingerprint, other.fingerprint);
        assert_eq!(reg.resolve(Some(&other.fingerprint_hex())).unwrap().generation, 2);
        // The swapped-out model is gone: pinning it is an error, never
        // another model's answer.
        let hex = format!("{boot_fp:016x}");
        let gone = reg.resolve(Some(&hex)).err().expect("swapped-out model rejected");
        assert_eq!(gone, ResolveError::NotFound(hex));
        // Malformed and unknown fingerprints are typed errors.
        let bad = reg.resolve(Some("zz")).err().expect("malformed header rejected");
        assert!(matches!(bad, ResolveError::BadFingerprint(_)), "{bad}");
        let missing = reg
            .resolve(Some("00000000000000aa"))
            .err()
            .expect("unknown fingerprint rejected");
        assert!(matches!(missing, ResolveError::NotFound(_)), "{missing}");
    }
}
