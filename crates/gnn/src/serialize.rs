//! Plain-text model serialization, so a universal model trained once on
//! a corpus can be shipped and reused on unseen circuits (the inductive
//! deployment mode of Section IV-C) without retraining.
//!
//! Format (line-oriented, whitespace-separated):
//!
//! ```text
//! ancstr-gnn v1
//! dim 18 layers 2 seed 42 combiner gru
//! matrix 18 18
//! 0.123 -0.456 …           (one line per row)
//! …
//! ```
//!
//! # Checksummed artifacts
//!
//! Durable on-disk artifacts (run-store stage outputs, training
//! checkpoints) additionally carry a CRC-32 footer via [`seal`] /
//! [`open_sealed`]:
//!
//! ```text
//! <payload text, newline-terminated>
//! ancstr-seal v1 kind=<kind> len=<payload bytes> crc32=<8 hex digits>
//! ```
//!
//! The footer sits *last* so that truncation — the overwhelmingly common
//! corruption mode for a killed writer — always removes or damages it,
//! and any payload byte flip breaks the CRC. [`open_sealed`] returns a
//! typed [`ChecksumError`] rather than ever yielding a corrupt payload.
//!
//! Training checkpoints ([`crate::trainer::TrainerState`]) serialize the
//! *entire* guarded-loop state — parameters, best-loss snapshot, Adam
//! moments, RNG state, shuffle order, loss history, and recovery
//! lineage — so a killed run resumes bit-identically.

use std::error::Error;
use std::fmt;

use ancstr_nn::Matrix;

use crate::error::AnomalyCause;
use crate::model::{GnnConfig, GnnModel};
use crate::trainer::{HealthEvent, TrainerState};

/// Error returned by [`GnnModel::from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError {
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid model text: {}", self.reason)
    }
}

impl Error for ParseModelError {}

fn err(reason: impl Into<String>) -> ParseModelError {
    ParseModelError { reason: reason.into() }
}

/// Why a sealed artifact failed verification ([`open_sealed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChecksumError {
    /// The `ancstr-seal` footer line is absent or malformed — the
    /// classic signature of a truncated write.
    MissingFooter,
    /// The footer is intact but belongs to a different artifact kind.
    KindMismatch {
        /// The kind the caller expected.
        expected: String,
        /// The kind the footer declares.
        found: String,
    },
    /// The payload byte count disagrees with the footer's declaration.
    LengthMismatch {
        /// Bytes the footer declares.
        declared: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The payload's CRC-32 disagrees with the footer's declaration.
    CrcMismatch {
        /// Checksum the footer declares.
        declared: u32,
        /// Checksum of the bytes actually present.
        computed: u32,
    },
}

impl fmt::Display for ChecksumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChecksumError::MissingFooter => {
                write!(f, "missing or malformed ancstr-seal footer (truncated write?)")
            }
            ChecksumError::KindMismatch { expected, found } => {
                write!(f, "artifact kind is `{found}`, expected `{expected}`")
            }
            ChecksumError::LengthMismatch { declared, actual } => {
                write!(f, "payload is {actual} bytes, footer declares {declared}")
            }
            ChecksumError::CrcMismatch { declared, computed } => write!(
                f,
                "payload crc32 {computed:08x} does not match footer {declared:08x}"
            ),
        }
    }
}

impl Error for ChecksumError {}

/// CRC-32 (IEEE 802.3, reflected) lookup table, built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes` — detects every single-bit and single-byte
/// error, which is exactly the corruption class the fault-injection
/// suite replays.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Wrap a payload in the checksummed artifact envelope: the payload
/// (newline-terminated; one is added if missing) followed by a footer
/// line declaring the artifact `kind`, the payload byte count, and its
/// CRC-32. The inverse of [`open_sealed`].
pub fn seal(kind: &str, payload: &str) -> String {
    debug_assert!(
        !kind.contains(char::is_whitespace),
        "artifact kinds are single tokens"
    );
    let mut out = String::with_capacity(payload.len() + 64);
    out.push_str(payload);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    let body_len = out.len();
    let crc = crc32(out.as_bytes());
    out.push_str(&format!("ancstr-seal v1 kind={kind} len={body_len} crc32={crc:08x}\n"));
    out
}

/// Verify a sealed artifact and return its payload.
///
/// # Errors
///
/// A typed [`ChecksumError`] when the footer is missing/garbled, the
/// kind disagrees, the length disagrees (truncation), or the CRC-32
/// disagrees (bit rot). A corrupt artifact is never returned as valid.
pub fn open_sealed<'a>(kind: &str, text: &'a str) -> Result<&'a str, ChecksumError> {
    let trimmed = text.strip_suffix('\n').ok_or(ChecksumError::MissingFooter)?;
    let footer_at = trimmed.rfind('\n').map(|i| i + 1).unwrap_or(0);
    let footer = &trimmed[footer_at..];
    let payload = &text[..footer_at];

    let tokens: Vec<&str> = footer.split_whitespace().collect();
    let ["ancstr-seal", "v1", kind_kv, len_kv, crc_kv] = tokens.as_slice() else {
        return Err(ChecksumError::MissingFooter);
    };
    let found_kind =
        kind_kv.strip_prefix("kind=").ok_or(ChecksumError::MissingFooter)?;
    let declared_len: usize = len_kv
        .strip_prefix("len=")
        .and_then(|v| v.parse().ok())
        .ok_or(ChecksumError::MissingFooter)?;
    let declared_crc = crc_kv
        .strip_prefix("crc32=")
        .and_then(|v| u32::from_str_radix(v, 16).ok())
        .ok_or(ChecksumError::MissingFooter)?;

    if found_kind != kind {
        return Err(ChecksumError::KindMismatch {
            expected: kind.to_owned(),
            found: found_kind.to_owned(),
        });
    }
    if payload.len() != declared_len {
        return Err(ChecksumError::LengthMismatch {
            declared: declared_len,
            actual: payload.len(),
        });
    }
    let computed = crc32(payload.as_bytes());
    if computed != declared_crc {
        return Err(ChecksumError::CrcMismatch { declared: declared_crc, computed });
    }
    Ok(payload)
}

/// Append one `matrix r c` block (declaration + rows) to `out`.
fn write_matrix(out: &mut String, m: &Matrix) {
    out.push_str(&format!("matrix {} {}\n", m.rows(), m.cols()));
    for r in 0..m.rows() {
        let row: Vec<String> = m.row(r).iter().map(|v| format!("{v:?}")).collect();
        out.push_str(&row.join(" "));
        out.push('\n');
    }
}

/// Read the rows of a declared `rows × cols` matrix, rejecting
/// non-finite values and shape drift.
fn read_matrix_rows(
    lines: &mut std::str::Lines<'_>,
    rows: usize,
    cols: usize,
    context: &str,
) -> Result<Matrix, ParseModelError> {
    let mut m = Matrix::zeros(rows, cols);
    for r in 0..rows {
        let row_line = lines.next().ok_or_else(|| err(format!("truncated {context}")))?;
        let values: Vec<f64> = row_line
            .split_whitespace()
            .map(|v| v.parse::<f64>())
            .collect::<Result<_, _>>()
            .map_err(|_| err(format!("bad value in {context}")))?;
        // `"NaN".parse::<f64>()` succeeds, so non-finite weights must be
        // rejected explicitly: a matrix carrying them would silently
        // poison every downstream cosine score.
        if let Some(bad) = values.iter().find(|v| !v.is_finite()) {
            return Err(err(format!("non-finite weight {bad} in {context} row {r}")));
        }
        if values.len() != cols {
            return Err(err(format!(
                "{context} row has {} values, expected {cols}",
                values.len()
            )));
        }
        m.row_mut(r).copy_from_slice(&values);
    }
    Ok(m)
}

/// Read one full `matrix` block (declaration line + rows).
fn read_matrix(lines: &mut std::str::Lines<'_>, context: &str) -> Result<Matrix, ParseModelError> {
    let decl = lines.next().ok_or_else(|| err(format!("missing {context} matrix")))?;
    let mut t = decl.split_whitespace();
    if t.next() != Some("matrix") {
        return Err(err(format!("expected `matrix` for {context}, got `{decl}`")));
    }
    let rows: usize = t
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err(format!("bad {context} matrix rows")))?;
    let cols: usize = t
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err(format!("bad {context} matrix cols")))?;
    read_matrix_rows(lines, rows, cols, context)
}

/// Serialize one matrix as a standalone text block (declaration + rows),
/// e.g. for the run store's embeddings artifact. Inverse of
/// [`matrix_from_text`]; round trips are bit-exact.
pub fn matrix_to_text(m: &Matrix) -> String {
    let mut out = String::new();
    write_matrix(&mut out, m);
    out
}

/// Parse a [`matrix_to_text`] block.
///
/// # Errors
///
/// [`ParseModelError`] on truncation, shape drift, or non-finite values.
pub fn matrix_from_text(text: &str) -> Result<Matrix, ParseModelError> {
    let mut lines = text.lines();
    let m = read_matrix(&mut lines, "matrix")?;
    if lines.any(|l| !l.trim().is_empty()) {
        return Err(err("trailing data after matrix block"));
    }
    Ok(m)
}

impl GnnModel {
    /// Serialize the model (configuration + every parameter matrix) to
    /// text. The inverse of [`GnnModel::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = String::from("ancstr-gnn v1\n");
        out.push_str(&config_line(self.config()));
        for m in self.matrices() {
            write_matrix(&mut out, m);
        }
        out
    }

    /// Deserialize a model from [`GnnModel::to_text`] output.
    ///
    /// # Errors
    ///
    /// Returns [`ParseModelError`] on version/shape/number mismatches.
    pub fn from_text(text: &str) -> Result<GnnModel, ParseModelError> {
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| err("empty input"))?;
        if header.trim() != "ancstr-gnn v1" {
            return Err(err(format!("unsupported header `{header}`")));
        }
        let config_line = lines.next().ok_or_else(|| err("missing config line"))?;
        let tokens: Vec<&str> = config_line.split_whitespace().collect();
        let head = match tokens.as_slice() {
            [a, b, c, d, e, f] => [*a, *b, *c, *d, *e, *f],
            [a, b, c, d, e, f, k_comb, comb] => {
                if *k_comb != "combiner" {
                    return Err(err("expected `combiner` keyword"));
                }
                check_combiner(comb)?;
                [*a, *b, *c, *d, *e, *f]
            }
            _ => return Err(err("config line needs `dim N layers K seed S [combiner gru]`")),
        };
        let [k_dim, dim, k_layers, layers, k_seed, seed] = head;
        if k_dim != "dim" || k_layers != "layers" || k_seed != "seed" {
            return Err(err("config line keywords are dim/layers/seed"));
        }
        let config = GnnConfig {
            dim: dim.parse().map_err(|_| err("bad dim"))?,
            layers: layers.parse().map_err(|_| err("bad layers"))?,
            seed: seed.parse().map_err(|_| err("bad seed"))?,
        };

        let mut model = GnnModel::new(config);
        let expected = model.param_count();
        let mut matrices = Vec::with_capacity(expected);
        while let Some(line) = lines.next() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut t = line.split_whitespace();
            if t.next() != Some("matrix") {
                return Err(err(format!("expected `matrix`, got `{line}`")));
            }
            let rows: usize = t
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err("bad matrix rows"))?;
            let cols: usize = t
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| err("bad matrix cols"))?;
            let m = read_matrix_rows(&mut lines, rows, cols, &format!("matrix {}", matrices.len()))?;
            matrices.push(m);
        }
        if matrices.len() != expected {
            return Err(err(format!(
                "model has {} matrices, expected {expected}",
                matrices.len()
            )));
        }
        for (slot, m) in model.matrices_mut().into_iter().zip(matrices) {
            if slot.shape() != m.shape() {
                return Err(err(format!(
                    "matrix shape {:?} does not fit slot {:?}",
                    m.shape(),
                    slot.shape()
                )));
            }
            *slot = m;
        }
        Ok(model)
    }

    /// [`GnnModel::to_text`] wrapped in the [`seal`] envelope (kind
    /// `model`), for durable run-store artifacts.
    pub fn to_text_checksummed(&self) -> String {
        seal("model", &self.to_text())
    }

    /// Verify and deserialize a [`GnnModel::to_text_checksummed`]
    /// artifact.
    ///
    /// # Errors
    ///
    /// [`ParseModelError`] naming the checksum failure or the structural
    /// parse failure; a corrupt artifact is never returned as a model.
    pub fn from_text_checksummed(text: &str) -> Result<GnnModel, ParseModelError> {
        let payload = open_sealed("model", text).map_err(|e| err(e.to_string()))?;
        GnnModel::from_text(payload)
    }

    /// A stable 64-bit FNV-1a fingerprint of the model's serialized
    /// form (configuration + every weight, bit-exact). Two models share
    /// a fingerprint exactly when [`GnnModel::to_text`] round trips
    /// them identically, which makes it the right token for result
    /// cache keys and for naming which weights a long-lived service is
    /// currently holding warm.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in self.to_text().as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

fn parse_kv<'a>(
    tokens: &mut std::str::SplitWhitespace<'a>,
    key: &str,
) -> Result<&'a str, ParseModelError> {
    match (tokens.next(), tokens.next()) {
        (Some(k), Some(v)) if k == key => Ok(v),
        other => Err(err(format!("expected `{key} <value>`, got {other:?}"))),
    }
}

/// The config line of a model or checkpoint. The combiner is always
/// Eq. 1's GRU but is still written: every model fingerprint and golden
/// hash covers this line.
fn config_line(c: &GnnConfig) -> String {
    format!("dim {} layers {} seed {} combiner gru\n", c.dim, c.layers, c.seed)
}

/// The config line's `combiner` value: Eq. 1's GRU is the only one.
fn check_combiner(value: &str) -> Result<(), ParseModelError> {
    match value {
        "gru" => Ok(()),
        other => Err(err(format!("unknown combiner `{other}`"))),
    }
}

fn parse_num<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, ParseModelError> {
    v.parse().map_err(|_| err(format!("bad {what} `{v}`")))
}

/// Parse an `f64` that may legitimately be `inf` (the best-loss field
/// before any epoch completes) but never NaN.
fn parse_loss(v: &str, what: &str) -> Result<f64, ParseModelError> {
    let x: f64 = v.parse().map_err(|_| err(format!("bad {what} `{v}`")))?;
    if x.is_nan() {
        return Err(err(format!("{what} is NaN")));
    }
    Ok(x)
}

impl TrainerState {
    /// The checkpoint artifact kind used by the [`seal`] envelope.
    pub const ARTIFACT_KIND: &'static str = "checkpoint";

    /// Serialize the full guarded-loop state, [`seal`]ed with kind
    /// [`TrainerState::ARTIFACT_KIND`]. The inverse of
    /// [`TrainerState::from_text`]; round trips are bit-exact, which is
    /// what makes crash/resume reproduce an uninterrupted run.
    pub fn to_text(&self) -> String {
        let mut out = String::from("ancstr-ckpt v1\n");
        out.push_str(&config_line(&self.gnn));
        out.push_str(&format!(
            "epoch {} attempt {} train-seed {} clipped {} adam-steps {}\n",
            self.epoch_losses.len(),
            self.attempt,
            self.seed,
            self.clipped_steps,
            self.adam_steps,
        ));
        out.push_str(&format!("best-loss {:?}\n", self.best_loss));
        let losses: Vec<String> = self.epoch_losses.iter().map(|v| format!("{v:?}")).collect();
        out.push_str(&format!("losses {}\n", losses.join(" ")));
        let rng: Vec<String> = self.rng.iter().map(u64::to_string).collect();
        out.push_str(&format!("rng {}\n", rng.join(" ")));
        let order: Vec<String> = self.order.iter().map(usize::to_string).collect();
        out.push_str(&format!("order {}\n", order.join(" ")));
        out.push_str(&format!("retries {}\n", self.retries.len()));
        for e in &self.retries {
            let cause = match e.cause {
                AnomalyCause::NonFiniteLoss(v) => format!("loss {v:?}"),
                AnomalyCause::NonFiniteGradient => "grad".to_owned(),
                AnomalyCause::Diverged { loss, best } => format!("diverged {loss:?} {best:?}"),
            };
            out.push_str(&format!(
                "retry {} {} {} {cause}\n",
                e.epoch, e.attempt, e.reseeded_to
            ));
        }
        out.push_str(&format!("params {}\n", self.params.len()));
        for m in &self.params {
            write_matrix(&mut out, m);
        }
        out.push_str(&format!("best-params {}\n", self.best_params.len()));
        for m in &self.best_params {
            write_matrix(&mut out, m);
        }
        out.push_str(&format!("moments {}\n", self.adam_moments.len()));
        for (m, v) in &self.adam_moments {
            write_matrix(&mut out, m);
            write_matrix(&mut out, v);
        }
        seal(Self::ARTIFACT_KIND, &out)
    }

    /// Verify the envelope and deserialize a checkpoint.
    ///
    /// # Errors
    ///
    /// [`ParseModelError`] on checksum or structural failure. A
    /// truncated, bit-flipped, or otherwise damaged checkpoint always
    /// fails here — resume falls back to an older one instead of
    /// loading garbage.
    pub fn from_text(text: &str) -> Result<TrainerState, ParseModelError> {
        let payload =
            open_sealed(Self::ARTIFACT_KIND, text).map_err(|e| err(e.to_string()))?;
        let mut lines = payload.lines();
        let header = lines.next().ok_or_else(|| err("empty checkpoint"))?;
        if header.trim() != "ancstr-ckpt v1" {
            return Err(err(format!("unsupported checkpoint header `{header}`")));
        }

        let config_line = lines.next().ok_or_else(|| err("missing config line"))?;
        let mut t = config_line.split_whitespace();
        let dim: usize = parse_num(parse_kv(&mut t, "dim")?, "dim")?;
        let layers: usize = parse_num(parse_kv(&mut t, "layers")?, "layers")?;
        let model_seed: u64 = parse_num(parse_kv(&mut t, "seed")?, "seed")?;
        check_combiner(parse_kv(&mut t, "combiner")?)?;
        let gnn = GnnConfig { dim, layers, seed: model_seed };

        let progress = lines.next().ok_or_else(|| err("missing progress line"))?;
        let mut t = progress.split_whitespace();
        let epoch: usize = parse_num(parse_kv(&mut t, "epoch")?, "epoch")?;
        let attempt: usize = parse_num(parse_kv(&mut t, "attempt")?, "attempt")?;
        let seed: u64 = parse_num(parse_kv(&mut t, "train-seed")?, "train-seed")?;
        let clipped_steps: usize = parse_num(parse_kv(&mut t, "clipped")?, "clipped")?;
        let adam_steps: u64 = parse_num(parse_kv(&mut t, "adam-steps")?, "adam-steps")?;

        let loss_line = lines.next().ok_or_else(|| err("missing best-loss line"))?;
        let mut t = loss_line.split_whitespace();
        let best_loss = parse_loss(parse_kv(&mut t, "best-loss")?, "best-loss")?;

        let losses_line = lines.next().ok_or_else(|| err("missing losses line"))?;
        let mut t = losses_line.split_whitespace();
        if t.next() != Some("losses") {
            return Err(err("expected `losses` line"));
        }
        let epoch_losses: Vec<f64> = t
            .map(|v| parse_loss(v, "epoch loss"))
            .collect::<Result<_, _>>()?;
        if epoch_losses.len() != epoch {
            return Err(err(format!(
                "checkpoint declares epoch {epoch} but carries {} losses",
                epoch_losses.len()
            )));
        }

        let rng_line = lines.next().ok_or_else(|| err("missing rng line"))?;
        let mut t = rng_line.split_whitespace();
        if t.next() != Some("rng") {
            return Err(err("expected `rng` line"));
        }
        let rng_words: Vec<u64> = t
            .map(|v| parse_num(v, "rng word"))
            .collect::<Result<_, _>>()?;
        let rng: [u64; 4] = rng_words
            .try_into()
            .map_err(|_| err("rng line needs exactly 4 words"))?;

        let order_line = lines.next().ok_or_else(|| err("missing order line"))?;
        let mut t = order_line.split_whitespace();
        if t.next() != Some("order") {
            return Err(err("expected `order` line"));
        }
        let order: Vec<usize> = t
            .map(|v| parse_num(v, "order index"))
            .collect::<Result<_, _>>()?;

        let retries_line = lines.next().ok_or_else(|| err("missing retries line"))?;
        let mut t = retries_line.split_whitespace();
        let n_retries: usize = parse_num(parse_kv(&mut t, "retries")?, "retries")?;
        let mut retries = Vec::with_capacity(n_retries);
        for _ in 0..n_retries {
            let line = lines.next().ok_or_else(|| err("truncated retries"))?;
            let mut t = line.split_whitespace();
            if t.next() != Some("retry") {
                return Err(err(format!("expected `retry`, got `{line}`")));
            }
            let epoch: usize =
                parse_num(t.next().ok_or_else(|| err("retry epoch"))?, "retry epoch")?;
            let attempt: usize =
                parse_num(t.next().ok_or_else(|| err("retry attempt"))?, "retry attempt")?;
            let reseeded_to: u64 =
                parse_num(t.next().ok_or_else(|| err("retry reseed"))?, "retry reseed")?;
            let cause = match t.next() {
                Some("grad") => AnomalyCause::NonFiniteGradient,
                Some("loss") => {
                    let v: f64 =
                        parse_num(t.next().ok_or_else(|| err("retry loss"))?, "retry loss")?;
                    AnomalyCause::NonFiniteLoss(v)
                }
                Some("diverged") => {
                    let loss = parse_loss(
                        t.next().ok_or_else(|| err("retry diverged loss"))?,
                        "retry diverged loss",
                    )?;
                    let best = parse_loss(
                        t.next().ok_or_else(|| err("retry diverged best"))?,
                        "retry diverged best",
                    )?;
                    AnomalyCause::Diverged { loss, best }
                }
                other => return Err(err(format!("unknown retry cause {other:?}"))),
            };
            retries.push(HealthEvent { epoch, attempt, cause, reseeded_to });
        }

        let read_block = |lines: &mut std::str::Lines<'_>,
                          key: &str|
         -> Result<Vec<Matrix>, ParseModelError> {
            let line = lines.next().ok_or_else(|| err(format!("missing {key} line")))?;
            let mut t = line.split_whitespace();
            let n: usize = parse_num(parse_kv(&mut t, key)?, key)?;
            (0..n).map(|i| read_matrix(lines, &format!("{key}[{i}]"))).collect()
        };
        let params = read_block(&mut lines, "params")?;
        let best_params = read_block(&mut lines, "best-params")?;

        let line = lines.next().ok_or_else(|| err("missing moments line"))?;
        let mut t = line.split_whitespace();
        let n_moments: usize = parse_num(parse_kv(&mut t, "moments")?, "moments")?;
        let mut adam_moments = Vec::with_capacity(n_moments);
        for i in 0..n_moments {
            let m = read_matrix(&mut lines, &format!("moment-m[{i}]"))?;
            let v = read_matrix(&mut lines, &format!("moment-v[{i}]"))?;
            adam_moments.push((m, v));
        }
        if lines.any(|l| !l.trim().is_empty()) {
            return Err(err("trailing data after checkpoint"));
        }

        Ok(TrainerState {
            gnn,
            params,
            best_params,
            best_loss,
            epoch_losses,
            attempt,
            seed,
            rng,
            order,
            adam_steps,
            adam_moments,
            clipped_steps,
            retries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensors::GraphTensors;
    use ancstr_graph::{HetMultigraph, VertexId};
    use ancstr_netlist::PortType;

    fn sample_model() -> GnnModel {
        GnnModel::new(GnnConfig { dim: 5, layers: 2, seed: 77 })
    }

    #[test]
    fn round_trip_is_exact() {
        let model = sample_model();
        let text = model.to_text();
        let back = GnnModel::from_text(&text).unwrap();
        assert_eq!(back, model);
    }

    #[test]
    fn round_tripped_model_embeds_identically() {
        let model = sample_model();
        let back = GnnModel::from_text(&model.to_text()).unwrap();
        let mut g = HetMultigraph::with_vertices(0..4);
        g.add_edge(VertexId(0), VertexId(1), PortType::Drain);
        g.add_edge(VertexId(2), VertexId(3), PortType::Gate);
        let t = GraphTensors::from_multigraph(&g);
        let x = Matrix::filled(4, 5, 0.3);
        assert_eq!(model.embed(&t, &x), back.embed(&t, &x));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(GnnModel::from_text("").is_err());
        assert!(GnnModel::from_text("wrong header\n").is_err());
        assert!(GnnModel::from_text("ancstr-gnn v1\ndim x layers 2 seed 1\n").is_err());
        // Truncated body.
        let model = sample_model();
        let text = model.to_text();
        let cut: String = text.lines().take(10).collect::<Vec<_>>().join("\n");
        assert!(GnnModel::from_text(&cut).is_err());
        // Corrupted value.
        let bad = text.replacen("matrix 5 5", "matrix 5 4", 1);
        assert!(GnnModel::from_text(&bad).is_err());
    }

    #[test]
    fn rejects_non_finite_weights() {
        let model = sample_model();
        let text = model.to_text();
        // Replace the first weight of the first matrix with each
        // non-finite spelling `f64::parse` accepts.
        let first_row = text.lines().nth(3).expect("first weight row");
        let first_value = first_row.split_whitespace().next().unwrap();
        for bad in ["NaN", "inf", "-inf", "infinity"] {
            let poisoned = text.replacen(first_value, bad, 1);
            let err = GnnModel::from_text(&poisoned).unwrap_err();
            assert!(
                err.reason.contains("non-finite"),
                "`{bad}` must be rejected, got: {err}"
            );
        }
    }

    #[test]
    fn truncation_at_every_boundary_is_an_error_not_a_panic() {
        let model = sample_model();
        let text = model.to_text();
        let total = text.lines().count();
        // Cutting the file after any prefix of lines must yield a typed
        // error (or, for the empty tail case, a complete model).
        for keep in 0..total {
            let cut: String = text.lines().take(keep).collect::<Vec<_>>().join("\n");
            assert!(GnnModel::from_text(&cut).is_err(), "prefix of {keep} lines accepted");
        }
        assert!(GnnModel::from_text(&text).is_ok());
    }

    #[test]
    fn corrupt_values_and_headers_are_typed_errors() {
        let model = sample_model();
        let text = model.to_text();
        // A letter where a number belongs.
        let garbled = text.replacen("matrix 5 5\n", "matrix 5 5\nx", 1);
        assert!(GnnModel::from_text(&garbled).is_err());
        // Matrix count mismatch: drop one whole matrix block.
        let lines: Vec<&str> = text.lines().collect();
        let last_matrix = lines.iter().rposition(|l| l.starts_with("matrix")).unwrap();
        let dropped = lines[..last_matrix].join("\n");
        let err = GnnModel::from_text(&dropped).unwrap_err();
        assert!(err.reason.contains("matrices"), "{err}");
        // Oversized declared shape that doesn't fit its slot.
        let bad_shape = text.replacen("matrix 1 5", "matrix 5 1", 1);
        assert!(GnnModel::from_text(&bad_shape).is_err());
    }

    #[test]
    fn full_precision_survives() {
        let model = sample_model();
        let back = GnnModel::from_text(&model.to_text()).unwrap();
        for (a, b) in model.matrices().iter().zip(back.matrices()) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "bit-exact round trip");
            }
        }
    }

    #[test]
    fn seal_round_trips_and_names_its_failures() {
        let sealed = seal("model", "payload line\nmore\n");
        assert_eq!(open_sealed("model", &sealed).unwrap(), "payload line\nmore\n");
        assert!(matches!(
            open_sealed("checkpoint", &sealed).unwrap_err(),
            ChecksumError::KindMismatch { .. }
        ));
        assert!(matches!(
            open_sealed("model", "no footer at all\n").unwrap_err(),
            ChecksumError::MissingFooter
        ));
        // Any truncation destroys the footer (it is written last).
        for cut in 0..sealed.len() {
            assert!(
                open_sealed("model", &sealed[..cut]).is_err(),
                "truncation at byte {cut} accepted"
            );
        }
    }

    #[test]
    fn checksummed_model_rejects_in_payload_tampering() {
        let model = sample_model();
        let sealed = model.to_text_checksummed();
        let back = GnnModel::from_text_checksummed(&sealed).unwrap();
        assert_eq!(back, model);
        // A value swap that the plain parser would happily accept is
        // caught by the CRC.
        let first_weight_line = sealed.lines().nth(3).unwrap();
        let first_value = first_weight_line.split_whitespace().next().unwrap();
        let tampered = sealed.replacen(first_value, "0.5", 1);
        assert_ne!(tampered, sealed);
        let err = GnnModel::from_text_checksummed(&tampered).unwrap_err();
        assert!(err.reason.contains("crc32") || err.reason.contains("declares"), "{err}");
    }

    #[test]
    fn checksummed_model_rejects_truncated_envelope() {
        // Truncation anywhere — including cuts that leave a complete,
        // parseable model body but a damaged footer — is rejected with
        // a typed error, never a panic: the reload endpoint feeds
        // arbitrary request bodies straight into this parser.
        let sealed = sample_model().to_text_checksummed();
        for keep in [0, 1, sealed.len() / 4, sealed.len() / 2, sealed.len() - 1] {
            let mut cut = keep;
            while cut > 0 && !sealed.is_char_boundary(cut) {
                cut -= 1;
            }
            let err = GnnModel::from_text_checksummed(&sealed[..cut]).unwrap_err();
            assert!(
                err.reason.contains("footer")
                    || err.reason.contains("declares")
                    || err.reason.contains("crc32"),
                "cut at {keep}: unexpected error {err}"
            );
        }
        // A whole-line truncation keeps the text well-formed but the
        // declared length cannot match.
        let without_last_payload_line: Vec<&str> = {
            let lines: Vec<&str> = sealed.lines().collect();
            let n = lines.len();
            lines[..n - 2].iter().copied().chain(lines[n - 1..].iter().copied()).collect()
        };
        let shortened = format!("{}\n", without_last_payload_line.join("\n"));
        let err = GnnModel::from_text_checksummed(&shortened).unwrap_err();
        assert!(err.reason.contains("declares"), "{err}");
    }

    #[test]
    fn checksummed_model_rejects_crc_mismatch() {
        // Flip one payload byte for another of equal width: length
        // still matches the footer, so only the CRC can catch it.
        let sealed = sample_model().to_text_checksummed();
        let flipped = if sealed.contains("0.") {
            sealed.replacen("0.", "1.", 1)
        } else {
            sealed.replacen('1', "2", 1)
        };
        assert_ne!(flipped, sealed);
        assert_eq!(flipped.len(), sealed.len(), "same-width tamper");
        let err = GnnModel::from_text_checksummed(&flipped).unwrap_err();
        assert!(err.reason.contains("crc32"), "{err}");
    }

    #[test]
    fn checksummed_model_rejects_version_skew() {
        // A well-sealed artifact (valid CRC) whose payload declares an
        // unknown format version: the seal passes, the parser rejects.
        let future = sample_model().to_text().replacen("ancstr-gnn v1", "ancstr-gnn v9", 1);
        let sealed = seal("model", &future);
        assert!(open_sealed("model", &sealed).is_ok(), "seal itself is valid");
        let err = GnnModel::from_text_checksummed(&sealed).unwrap_err();
        assert!(err.reason.contains("unsupported header"), "{err}");
        // Same for a sealed-with-the-wrong-kind envelope.
        let wrong_kind = seal("checkpoint", &sample_model().to_text());
        let err = GnnModel::from_text_checksummed(&wrong_kind).unwrap_err();
        assert!(err.reason.contains("kind"), "{err}");
    }

    #[test]
    fn fingerprint_tracks_weight_identity() {
        let a = sample_model();
        assert_eq!(a.fingerprint(), a.fingerprint());
        // A round-tripped model is bit-identical, so it shares the
        // fingerprint.
        let back = GnnModel::from_text(&a.to_text()).unwrap();
        assert_eq!(back.fingerprint(), a.fingerprint());
        // Different seed → different weights → different fingerprint.
        let b = GnnModel::new(GnnConfig { dim: 5, layers: 2, seed: 78 });
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    fn sample_state() -> TrainerState {
        let model = sample_model();
        let params: Vec<Matrix> = model.matrices().into_iter().cloned().collect();
        let adam_moments = params
            .iter()
            .map(|m| {
                (
                    Matrix::filled(m.rows(), m.cols(), 0.01),
                    Matrix::filled(m.rows(), m.cols(), 0.002),
                )
            })
            .collect();
        TrainerState {
            gnn: model.config().clone(),
            best_params: params.clone(),
            params,
            best_loss: 0.123_456_789_012_345_6,
            epoch_losses: vec![1.5, 0.9, 0.123_456_789_012_345_6],
            attempt: 1,
            seed: 0xDEAD_BEEF_CAFE,
            rng: [u64::MAX, 2, 3, 0x0123_4567_89AB_CDEF],
            order: vec![2, 0, 1],
            adam_steps: 42,
            adam_moments,
            clipped_steps: 3,
            retries: vec![
                HealthEvent {
                    epoch: 1,
                    attempt: 0,
                    cause: AnomalyCause::NonFiniteGradient,
                    reseeded_to: 99,
                },
                HealthEvent {
                    epoch: 2,
                    attempt: 1,
                    cause: AnomalyCause::Diverged { loss: 50.5, best: 0.9 },
                    reseeded_to: 0xBEEF,
                },
            ],
        }
    }

    #[test]
    fn trainer_state_round_trip_is_exact() {
        let state = sample_state();
        let back = TrainerState::from_text(&state.to_text()).unwrap();
        assert_eq!(back, state);
        // RNG words and seeds survive at full u64 width.
        assert_eq!(back.rng[0], u64::MAX);
        // Losses survive bit-exactly.
        assert_eq!(back.best_loss.to_bits(), state.best_loss.to_bits());
    }

    #[test]
    fn trainer_state_with_infinite_best_loss_round_trips() {
        // Before the first completed epoch, best_loss is +inf; NaN is
        // still rejected.
        let mut state = sample_state();
        state.best_loss = f64::INFINITY;
        state.epoch_losses.clear();
        let back = TrainerState::from_text(&state.to_text()).unwrap();
        assert_eq!(back.best_loss, f64::INFINITY);
        assert_eq!(back, state);
    }

    #[test]
    fn trainer_state_rejects_corruption() {
        let text = sample_state().to_text();
        // Any truncation is caught by the seal.
        for keep in [0, 1, text.len() / 2, text.len() - 1] {
            let mut cut = keep;
            while cut > 0 && !text.is_char_boundary(cut) {
                cut -= 1;
            }
            assert!(TrainerState::from_text(&text[..cut]).is_err(), "keep {keep}");
        }
        // A sealed-but-wrong-kind artifact is rejected.
        let model_sealed = sample_model().to_text_checksummed();
        let err = TrainerState::from_text(&model_sealed).unwrap_err();
        assert!(err.reason.contains("kind"), "{err}");
        // In-payload tampering is caught by the CRC.
        let tampered = text.replacen("epoch 3", "epoch 4", 1);
        assert_ne!(tampered, text);
        assert!(TrainerState::from_text(&tampered).is_err());
    }

    /// The mean combiner is gone: a model or checkpoint naming it is a
    /// typed parse error, a config line without a combiner still loads
    /// as the GRU, and models keep writing `combiner gru`.
    #[test]
    fn removed_combiner_is_rejected_cleanly() {
        let model = sample_model();
        let text = model.to_text();
        assert_eq!(text.lines().nth(1), Some("dim 5 layers 2 seed 77 combiner gru"));

        let mean = text.replacen("combiner gru", "combiner mean", 1);
        let err = GnnModel::from_text(&mean).unwrap_err();
        assert!(err.reason.contains("unknown combiner `mean`"), "{err}");

        let legacy = text.replacen(" combiner gru", "", 1);
        assert_eq!(legacy.lines().nth(1), Some("dim 5 layers 2 seed 77"));
        assert_eq!(GnnModel::from_text(&legacy).unwrap(), model);

        let ckpt = sample_state().to_text();
        let payload = open_sealed(TrainerState::ARTIFACT_KIND, &ckpt).unwrap();
        let mean = payload.replacen("combiner gru", "combiner mean", 1);
        let mean = seal(TrainerState::ARTIFACT_KIND, &mean);
        let err = TrainerState::from_text(&mean).unwrap_err();
        assert!(err.reason.contains("unknown combiner `mean`"), "{err}");
    }
}
