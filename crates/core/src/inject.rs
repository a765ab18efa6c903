//! Seeded fault injection for robustness testing.
//!
//! Corruption operators over the textual trust boundaries of the
//! pipeline — SPICE netlist sources ([`SpiceFault`]), serialized model
//! files ([`ModelFault`]), and run-store checkpoint/manifest artifacts
//! ([`CheckpointFault`]) — each deterministic in an explicit seed, so a
//! failing case reproduces exactly. The integration suite
//! (`tests/fault_injection.rs`) drives every operator through the full
//! pipeline and asserts the invariant this module exists for: **every
//! fault yields a typed error or a degraded-but-valid result, never a
//! panic**.
//!
//! A third fault class lives in the trainer itself
//! ([`ancstr_gnn::HealthConfig`]'s hidden NaN-gradient hook), because
//! mid-training state cannot be corrupted from outside.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A corruption operator over SPICE netlist text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpiceFault {
    /// Cut the text, keeping roughly this fraction of its bytes
    /// (clamped to `[0, 1]`); models an interrupted transfer.
    TruncateTail {
        /// Fraction of the source to keep.
        keep_frac: f64,
    },
    /// Overwrite this many characters with random printable ASCII;
    /// models bit rot / encoding damage.
    GarbleChars {
        /// Number of characters to overwrite.
        count: usize,
    },
    /// Delete one random line; models a lost card.
    DropLine,
    /// Delete one random token from a random device card; models a
    /// missing pin or parameter.
    DropToken,
    /// Rename a random device card to the name of an earlier card in
    /// the same subcircuit; models a duplicate-name collision.
    DuplicateDevice,
    /// Point a random `X` instance at a subcircuit that does not exist.
    UnknownSubckt,
    /// Zero out one random `w=`/`l=` geometry parameter.
    ZeroGeometry,
    /// Replace one random numeric parameter value with garbage.
    BadNumber,
    /// Delete the first `.ends`; models an unterminated subcircuit.
    RemoveEnds,
    /// Strip every device and instance card, leaving bare subcircuit
    /// shells; models an empty design.
    EmptyBody,
}

/// All SPICE fault classes, for exhaustive sweeps.
pub const ALL_SPICE_FAULTS: [SpiceFault; 10] = [
    SpiceFault::TruncateTail { keep_frac: 0.6 },
    SpiceFault::GarbleChars { count: 12 },
    SpiceFault::DropLine,
    SpiceFault::DropToken,
    SpiceFault::DuplicateDevice,
    SpiceFault::UnknownSubckt,
    SpiceFault::ZeroGeometry,
    SpiceFault::BadNumber,
    SpiceFault::RemoveEnds,
    SpiceFault::EmptyBody,
];

/// Whether a line is a device/instance card (not a directive/comment).
fn is_card(line: &str) -> bool {
    let t = line.trim_start();
    !t.is_empty() && !t.starts_with('.') && !t.starts_with('*') && !t.starts_with('+')
}

fn pick_line(lines: &[String], rng: &mut StdRng, pred: impl Fn(&str) -> bool) -> Option<usize> {
    let candidates: Vec<usize> =
        (0..lines.len()).filter(|&i| pred(&lines[i])).collect();
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.gen_range(0..candidates.len())])
    }
}

/// Apply `fault` to `source`, deterministically in `seed`.
///
/// The result is intentionally *not* guaranteed to be invalid: some
/// faults on some seeds produce netlists that still parse (that is the
/// point — the pipeline must handle both outcomes without panicking).
pub fn inject_spice(source: &str, fault: SpiceFault, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines: Vec<String> = source.lines().map(str::to_owned).collect();
    match fault {
        SpiceFault::TruncateTail { keep_frac } => {
            let keep = (source.len() as f64 * keep_frac.clamp(0.0, 1.0)) as usize;
            // Cut on a char boundary.
            let mut cut = keep.min(source.len());
            while cut > 0 && !source.is_char_boundary(cut) {
                cut -= 1;
            }
            return source[..cut].to_owned();
        }
        SpiceFault::GarbleChars { count } => {
            let mut chars: Vec<char> = source.chars().collect();
            if chars.is_empty() {
                return String::new();
            }
            for _ in 0..count {
                let i = rng.gen_range(0..chars.len());
                // Random printable ASCII, newline included so structure
                // can break too.
                let replacement = match rng.gen_range(0..8u32) {
                    0 => '\n',
                    _ => char::from(rng.gen_range(0x21u8..0x7F)),
                };
                chars[i] = replacement;
            }
            return chars.into_iter().collect();
        }
        SpiceFault::DropLine => {
            if !lines.is_empty() {
                let i = rng.gen_range(0..lines.len());
                lines.remove(i);
            }
        }
        SpiceFault::DropToken => {
            if let Some(i) = pick_line(&lines, &mut rng, is_card) {
                let mut tokens: Vec<&str> = lines[i].split_whitespace().collect();
                if tokens.len() > 1 {
                    let t = rng.gen_range(0..tokens.len());
                    tokens.remove(t);
                    lines[i] = tokens.join(" ");
                }
            }
        }
        SpiceFault::DuplicateDevice => {
            let cards: Vec<usize> =
                (0..lines.len()).filter(|&i| is_card(&lines[i])).collect();
            if cards.len() >= 2 {
                let a = cards[rng.gen_range(0..cards.len())];
                let b = cards[rng.gen_range(0..cards.len())];
                let donor_name =
                    lines[b].split_whitespace().next().unwrap_or("M1").to_owned();
                let rest: Vec<&str> = lines[a].split_whitespace().skip(1).collect();
                lines[a] = format!("{donor_name} {}", rest.join(" "));
            }
        }
        SpiceFault::UnknownSubckt => {
            if let Some(i) = pick_line(&lines, &mut rng, |l| {
                is_card(l) && l.trim_start().starts_with(['X', 'x'])
            }) {
                let mut tokens: Vec<String> =
                    lines[i].split_whitespace().map(str::to_owned).collect();
                if let Some(last) = tokens.last_mut() {
                    *last = "no_such_subckt".to_owned();
                }
                lines[i] = tokens.join(" ");
            }
        }
        SpiceFault::ZeroGeometry => {
            if let Some(i) = pick_line(&lines, &mut rng, |l| {
                l.contains("w=") || l.contains("l=")
            }) {
                let key = if lines[i].contains("w=") { "w=" } else { "l=" };
                let line = &lines[i];
                let start = line.find(key).expect("picked for containing key");
                let val_start = start + key.len();
                let val_end = line[val_start..]
                    .find(char::is_whitespace)
                    .map_or(line.len(), |o| val_start + o);
                lines[i] = format!("{}{key}0{}", &line[..start], &line[val_end..]);
            }
        }
        SpiceFault::BadNumber => {
            if let Some(i) = pick_line(&lines, &mut rng, |l| l.contains('=')) {
                let line = lines[i].clone();
                let eq_positions: Vec<usize> =
                    line.char_indices().filter(|&(_, c)| c == '=').map(|(p, _)| p).collect();
                let eq = eq_positions[rng.gen_range(0..eq_positions.len())];
                let val_start = eq + 1;
                let val_end = line[val_start..]
                    .find(char::is_whitespace)
                    .map_or(line.len(), |o| val_start + o);
                lines[i] = format!("{}=$?#{}", &line[..eq], &line[val_end..]);
            }
        }
        SpiceFault::RemoveEnds => {
            if let Some(i) =
                lines.iter().position(|l| l.trim_start().starts_with(".ends"))
            {
                lines.remove(i);
            }
        }
        SpiceFault::EmptyBody => {
            lines.retain(|l| !is_card(l));
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// A corruption operator over serialized model text
/// ([`ancstr_gnn::GnnModel::to_text`] format).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelFault {
    /// Cut the text, keeping roughly this fraction of its lines.
    Truncate {
        /// Fraction of the lines to keep.
        keep_frac: f64,
    },
    /// Replace one random weight with a non-numeric token.
    GarbleValue,
    /// Replace one random weight with `NaN` (parses as `f64`, so only an
    /// explicit finiteness check catches it).
    NanWeight,
    /// Replace one random weight with `inf`.
    InfWeight,
    /// Corrupt the version header.
    CorruptHeader,
    /// Change a declared matrix shape so it no longer fits its slot.
    WrongShape,
}

/// All model fault classes, for exhaustive sweeps.
pub const ALL_MODEL_FAULTS: [ModelFault; 6] = [
    ModelFault::Truncate { keep_frac: 0.5 },
    ModelFault::GarbleValue,
    ModelFault::NanWeight,
    ModelFault::InfWeight,
    ModelFault::CorruptHeader,
    ModelFault::WrongShape,
];

/// Replace one whitespace-separated value on a random weight row.
fn replace_weight(text: &str, rng: &mut StdRng, replacement: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let weight_rows: Vec<usize> = (0..lines.len())
        .filter(|&i| {
            i >= 2
                && !lines[i].starts_with("matrix")
                && !lines[i].trim().is_empty()
        })
        .collect();
    if weight_rows.is_empty() {
        return text.to_owned();
    }
    let row = weight_rows[rng.gen_range(0..weight_rows.len())];
    let mut tokens: Vec<String> =
        lines[row].split_whitespace().map(str::to_owned).collect();
    let t = rng.gen_range(0..tokens.len());
    tokens[t] = replacement.to_owned();
    let mut out: Vec<String> = lines.iter().map(|&l| l.to_owned()).collect();
    out[row] = tokens.join(" ");
    let mut s = out.join("\n");
    s.push('\n');
    s
}

/// Apply `fault` to serialized model text, deterministically in `seed`.
pub fn inject_model(text: &str, fault: ModelFault, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    match fault {
        ModelFault::Truncate { keep_frac } => {
            let lines: Vec<&str> = text.lines().collect();
            let keep = ((lines.len() as f64) * keep_frac.clamp(0.0, 1.0)) as usize;
            let mut s = lines[..keep.min(lines.len())].join("\n");
            s.push('\n');
            s
        }
        ModelFault::GarbleValue => replace_weight(text, &mut rng, "#corrupt#"),
        ModelFault::NanWeight => replace_weight(text, &mut rng, "NaN"),
        ModelFault::InfWeight => replace_weight(text, &mut rng, "inf"),
        ModelFault::CorruptHeader => text.replacen("ancstr-gnn v1", "ancstr-gnn v9", 1),
        ModelFault::WrongShape => {
            // Bump the first declared matrix's row count.
            if let Some(pos) = text.find("matrix ") {
                let line_end = text[pos..].find('\n').map_or(text.len(), |o| pos + o);
                let decl = &text[pos..line_end];
                let mut parts: Vec<String> =
                    decl.split_whitespace().map(str::to_owned).collect();
                if parts.len() == 3 {
                    if let Ok(r) = parts[1].parse::<usize>() {
                        parts[1] = (r + 1).to_string();
                    }
                    return format!("{}{}{}", &text[..pos], parts.join(" "), &text[line_end..]);
                }
            }
            text.to_owned()
        }
    }
}

/// A corruption operator over CRC-sealed run-store artifacts
/// (checkpoints and the run manifest; see [`crate::runstore`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckpointFault {
    /// Cut the file, keeping roughly this fraction of its bytes; models
    /// a crash mid-write on a filesystem without atomic rename (the
    /// seal footer sits last, so any truncation destroys it).
    TruncateTail {
        /// Fraction of the bytes to keep.
        keep_frac: f64,
    },
    /// Flip this many random bits; models silent media corruption. The
    /// CRC-32 seal catches every such flip.
    FlipBit {
        /// Number of bit flips to apply.
        count: usize,
    },
    /// Rewrite the manifest's `config_hash` to a stale value and
    /// re-seal it, so the file *verifies* but belongs to a different
    /// run; resume must reject it with a typed config mismatch, not
    /// trust the checksum alone. A no-op on non-manifest artifacts.
    StaleManifest,
}

/// All checkpoint/manifest fault classes, for exhaustive sweeps.
pub const ALL_CHECKPOINT_FAULTS: [CheckpointFault; 3] = [
    CheckpointFault::TruncateTail { keep_frac: 0.7 },
    CheckpointFault::FlipBit { count: 1 },
    CheckpointFault::StaleManifest,
];

/// Apply `fault` to a sealed artifact's text, deterministically in
/// `seed`.
pub fn inject_checkpoint(text: &str, fault: CheckpointFault, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    match fault {
        CheckpointFault::TruncateTail { keep_frac } => {
            let keep = (text.len() as f64 * keep_frac.clamp(0.0, 1.0)) as usize;
            let mut cut = keep.min(text.len());
            while cut > 0 && !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text[..cut].to_owned()
        }
        CheckpointFault::FlipBit { count } => {
            let mut bytes = text.as_bytes().to_vec();
            if bytes.is_empty() {
                return String::new();
            }
            for _ in 0..count {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8u32);
            }
            // Corruption may break UTF-8; lossy decoding models what a
            // reader would see (and still differs from the original).
            String::from_utf8_lossy(&bytes).into_owned()
        }
        CheckpointFault::StaleManifest => {
            // Split off the seal footer, keeping its kind.
            let Some(footer_start) = text.rfind("ancstr-seal ") else {
                return text.to_owned();
            };
            let footer = &text[footer_start..];
            let Some(kind) = footer
                .split_whitespace()
                .find_map(|tok| tok.strip_prefix("kind="))
            else {
                return text.to_owned();
            };
            let kind = kind.to_owned();
            let payload = &text[..footer_start];
            // Swap the config hash for a stale one, then re-seal so the
            // checksum is *valid* — only semantic validation can catch it.
            let Some(pos) = payload.find("\"config_hash\": \"") else {
                return text.to_owned();
            };
            let val_start = pos + "\"config_hash\": \"".len();
            let Some(val_len) = payload[val_start..].find('"') else {
                return text.to_owned();
            };
            let stale = format!(
                "{}{}{}",
                &payload[..val_start],
                "0".repeat(val_len),
                &payload[val_start + val_len..]
            );
            ancstr_gnn::seal(&kind, &stale)
        }
    }
}

// ---------------------------------------------------------------------
// Serve-layer faults

/// A fault operator over the daemon's HTTP transport: each one compiles
/// a request into a deterministic [`WirePlan`] — an explicit sequence
/// of socket writes and pauses — that a raw-socket executor (the serve
/// crate's `client::send_plan`) replays byte-for-byte. Keeping the
/// *plan* here and the *socket* in the serve crate preserves the crate
/// layering (core cannot depend on serve) while keeping every fault
/// seeded: the same `(fault, request, seed)` triple always produces the
/// same bytes at the same offsets, so a failing chaos case reproduces
/// exactly, independent of wall-clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeFault {
    /// Declare the full `Content-Length` but send only this fraction of
    /// the body before half-closing; models a client dying mid-upload.
    /// The server must answer a clean `400`/`408`, never hang or serve
    /// a truncated extraction.
    TruncateBody {
        /// Fraction of the body bytes actually sent.
        keep_frac: f64,
    },
    /// Deliver a well-formed request shredded into this many separate
    /// writes with short pauses between them; models pathological TCP
    /// segmentation. The server must reassemble it and answer exactly
    /// as if it arrived in one piece.
    TornWrite {
        /// Number of socket writes the request is split into.
        fragments: usize,
    },
    /// Send a seeded prefix of the request head, then stall for this
    /// long without ever completing it; models a slowloris client. The
    /// server's read deadline must reclaim the worker (`408` or a
    /// dropped connection), never wait forever.
    StalledRead {
        /// How long the client stays silent before giving up.
        hold_ms: u64,
    },
    /// A well-formed request carrying the `x-ancstr-chaos: panic`
    /// cooperation header; a chaos-enabled server panics inside the
    /// handler. The supervised pool must answer `500` with a
    /// `worker_panic` stage and keep the worker slot alive.
    WorkerPanic,
    /// Flip one seeded bit inside a sealed model upload body; the
    /// CRC-32 seal (or the canary inference) must reject it and the old
    /// model must keep serving.
    CorruptModelUpload,
    /// A well-formed request carrying `x-ancstr-chaos: poison`: the
    /// fused batch pass it rides in panics. Bisection must isolate it —
    /// this request alone answers `500` with stage `batch_poison`, and
    /// every batch-mate still gets its correct bytes.
    PoisonBatchMate,
}

/// All serve-layer fault classes, for exhaustive sweeps.
pub const ALL_SERVE_FAULTS: [ServeFault; 6] = [
    ServeFault::TruncateBody { keep_frac: 0.5 },
    ServeFault::TornWrite { fragments: 7 },
    ServeFault::StalledRead { hold_ms: 800 },
    ServeFault::WorkerPanic,
    ServeFault::CorruptModelUpload,
    ServeFault::PoisonBatchMate,
];

/// One step of a [`WirePlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireStep {
    /// Write these bytes to the socket.
    Send(Vec<u8>),
    /// Sleep this long before the next step.
    Pause(std::time::Duration),
}

/// A deterministic socket script: the executor connects, replays the
/// steps in order, half-closes the write side, and (when
/// `expect_reply`) reads whatever response the server produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WirePlan {
    /// Socket writes and pauses, in order.
    pub steps: Vec<WireStep>,
    /// Whether the executor should try to read a response afterwards.
    pub expect_reply: bool,
}

/// Serialize a one-shot HTTP/1.1 request in the exact dialect the
/// daemon speaks (`Content-Length` framing, `Connection: close`).
fn raw_request(method: &str, path: &str, extra_headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: chaos\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut raw = head.into_bytes();
    raw.extend_from_slice(body);
    raw
}

/// Compile `fault` applied to a `method path` request with `body` into
/// a [`WirePlan`], deterministically in `seed`.
pub fn plan_serve_fault(
    fault: ServeFault,
    method: &str,
    path: &str,
    body: &[u8],
    seed: u64,
) -> WirePlan {
    let mut rng = StdRng::seed_from_u64(seed);
    match fault {
        ServeFault::TruncateBody { keep_frac } => {
            let keep = (body.len() as f64 * keep_frac.clamp(0.0, 1.0)) as usize;
            let mut raw = raw_request(method, path, &[], body);
            raw.truncate(raw.len() - (body.len() - keep.min(body.len())));
            WirePlan { steps: vec![WireStep::Send(raw)], expect_reply: true }
        }
        ServeFault::TornWrite { fragments } => {
            let raw = raw_request(method, path, &[], body);
            let fragments = fragments.clamp(1, raw.len().max(1));
            // Seeded cut points; sorted + deduped so every byte is sent
            // exactly once, in order.
            let mut cuts: Vec<usize> =
                (0..fragments - 1).map(|_| rng.gen_range(1..raw.len().max(2))).collect();
            cuts.sort_unstable();
            cuts.dedup();
            let mut steps = Vec::new();
            let mut start = 0;
            for cut in cuts.into_iter().chain(std::iter::once(raw.len())) {
                if cut > start {
                    steps.push(WireStep::Send(raw[start..cut].to_vec()));
                    steps.push(WireStep::Pause(std::time::Duration::from_millis(
                        rng.gen_range(1..5),
                    )));
                    start = cut;
                }
            }
            steps.pop(); // no trailing pause after the final write
            WirePlan { steps, expect_reply: true }
        }
        ServeFault::StalledRead { hold_ms } => {
            let raw = raw_request(method, path, &[], body);
            // A strict prefix of the *head*, so the request can never
            // be complete when the stall begins.
            let head_len = raw
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .map_or(raw.len(), |i| i + 4);
            let keep = rng.gen_range(1..head_len.max(2) - 1);
            WirePlan {
                steps: vec![
                    WireStep::Send(raw[..keep].to_vec()),
                    WireStep::Pause(std::time::Duration::from_millis(hold_ms)),
                ],
                expect_reply: true,
            }
        }
        ServeFault::WorkerPanic => WirePlan {
            steps: vec![WireStep::Send(raw_request(
                method,
                path,
                &[("x-ancstr-chaos", "panic")],
                body,
            ))],
            expect_reply: true,
        },
        ServeFault::CorruptModelUpload => {
            let mut corrupted = body.to_vec();
            if !corrupted.is_empty() {
                let i = rng.gen_range(0..corrupted.len());
                corrupted[i] ^= 1 << rng.gen_range(0..8u32);
            }
            WirePlan {
                steps: vec![WireStep::Send(raw_request(method, "/v1/models", &[], &corrupted))],
                expect_reply: true,
            }
        }
        ServeFault::PoisonBatchMate => WirePlan {
            steps: vec![WireStep::Send(raw_request(
                method,
                path,
                &[("x-ancstr-chaos", "poison")],
                body,
            ))],
            expect_reply: true,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_gnn::{GnnConfig, GnnModel};

    const SRC: &str = "\
.subckt dp inp inn o1 o2 ib vdd vss
M1 o1 inp tail vss nch w=4u l=0.2u
M2 o2 inn tail vss nch w=4u l=0.2u
M5 tail ib vss vss nch w=2u l=0.5u
.ends
.subckt top a b vdd vss
X1 a b o1 o2 ibb vdd vss dp
.ends
";

    #[test]
    fn spice_faults_are_seed_deterministic_and_mutating() {
        for fault in ALL_SPICE_FAULTS {
            let a = inject_spice(SRC, fault, 11);
            let b = inject_spice(SRC, fault, 11);
            assert_eq!(a, b, "{fault:?} must be deterministic");
            assert_ne!(a, SRC, "{fault:?} must actually change the text");
            let other = inject_spice(SRC, fault, 12);
            // Not all operators depend on the seed (e.g. RemoveEnds), but
            // every result must still be deterministic for that seed.
            assert_eq!(other, inject_spice(SRC, fault, 12));
        }
    }

    #[test]
    fn targeted_spice_faults_hit_their_target() {
        let zeroed = inject_spice(SRC, SpiceFault::ZeroGeometry, 3);
        assert!(zeroed.contains("w=0") || zeroed.contains("l=0"), "{zeroed}");
        let unknown = inject_spice(SRC, SpiceFault::UnknownSubckt, 3);
        assert!(unknown.contains("no_such_subckt"), "{unknown}");
        let empty = inject_spice(SRC, SpiceFault::EmptyBody, 3);
        assert!(!empty.lines().any(super::is_card), "{empty}");
        let noends = inject_spice(SRC, SpiceFault::RemoveEnds, 3);
        assert_eq!(noends.matches(".ends").count(), 1);
    }

    #[test]
    fn model_faults_mutate_the_text() {
        let model =
            GnnModel::new(GnnConfig { dim: 4, layers: 1, seed: 9, ..GnnConfig::default() });
        let text = model.to_text();
        for fault in ALL_MODEL_FAULTS {
            let mutated = inject_model(&text, fault, 5);
            assert_eq!(mutated, inject_model(&text, fault, 5), "{fault:?} deterministic");
            assert_ne!(mutated, text, "{fault:?} must change the text");
        }
        assert!(inject_model(&text, ModelFault::NanWeight, 5).contains("NaN"));
        assert!(inject_model(&text, ModelFault::InfWeight, 5).contains("inf"));
    }

    #[test]
    fn checkpoint_faults_are_deterministic_and_break_the_seal() {
        let sealed = ancstr_gnn::seal("checkpoint", "ancstr-ckpt v1\npayload data\n");
        for fault in [
            CheckpointFault::TruncateTail { keep_frac: 0.7 },
            CheckpointFault::FlipBit { count: 1 },
        ] {
            let a = inject_checkpoint(&sealed, fault, 21);
            assert_eq!(a, inject_checkpoint(&sealed, fault, 21), "{fault:?} deterministic");
            assert_ne!(a, sealed, "{fault:?} must change the text");
            assert!(
                ancstr_gnn::open_sealed("checkpoint", &a).is_err(),
                "{fault:?} must break checksum verification"
            );
        }
    }

    /// Flatten a plan's `Send` steps back into one byte stream.
    fn sent_bytes(plan: &WirePlan) -> Vec<u8> {
        plan.steps
            .iter()
            .filter_map(|s| match s {
                WireStep::Send(b) => Some(b.as_slice()),
                WireStep::Pause(_) => None,
            })
            .collect::<Vec<_>>()
            .concat()
    }

    #[test]
    fn serve_fault_plans_are_seed_deterministic() {
        for fault in ALL_SERVE_FAULTS {
            let a = plan_serve_fault(fault, "POST", "/v1/extract", SRC.as_bytes(), 17);
            let b = plan_serve_fault(fault, "POST", "/v1/extract", SRC.as_bytes(), 17);
            assert_eq!(a, b, "{fault:?} must be deterministic in the seed");
        }
    }

    #[test]
    fn torn_write_reassembles_to_the_intact_request() {
        let intact = raw_request("POST", "/v1/extract", &[], SRC.as_bytes());
        let plan = plan_serve_fault(
            ServeFault::TornWrite { fragments: 7 },
            "POST",
            "/v1/extract",
            SRC.as_bytes(),
            3,
        );
        assert!(plan.steps.len() > 2, "{plan:?}");
        assert_eq!(sent_bytes(&plan), intact, "torn writes must not lose or reorder bytes");
    }

    #[test]
    fn truncate_body_declares_more_than_it_sends() {
        let plan = plan_serve_fault(
            ServeFault::TruncateBody { keep_frac: 0.5 },
            "POST",
            "/v1/extract",
            SRC.as_bytes(),
            3,
        );
        let sent = sent_bytes(&plan);
        let text = String::from_utf8_lossy(&sent);
        assert!(
            text.contains(&format!("Content-Length: {}", SRC.len())),
            "must declare the full body: {text}"
        );
        assert!(sent.len() < raw_request("POST", "/v1/extract", &[], SRC.as_bytes()).len());
    }

    #[test]
    fn stalled_read_never_completes_the_head() {
        let plan = plan_serve_fault(
            ServeFault::StalledRead { hold_ms: 5 },
            "GET",
            "/healthz",
            b"",
            9,
        );
        let sent = sent_bytes(&plan);
        assert!(!sent.windows(4).any(|w| w == b"\r\n\r\n"), "head must stay incomplete");
        assert!(matches!(plan.steps.last(), Some(WireStep::Pause(_))));
    }

    #[test]
    fn corrupt_model_upload_flips_exactly_one_bit() {
        let model =
            GnnModel::new(GnnConfig { dim: 4, layers: 1, seed: 9, ..GnnConfig::default() });
        let sealed = model.to_text_checksummed();
        let plan = plan_serve_fault(
            ServeFault::CorruptModelUpload,
            "POST",
            "/v1/models",
            sealed.as_bytes(),
            4,
        );
        let sent = sent_bytes(&plan);
        let intact = raw_request("POST", "/v1/models", &[], sealed.as_bytes());
        assert_eq!(sent.len(), intact.len());
        let diffs = sent.iter().zip(&intact).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1, "exactly one corrupted byte");
    }

    #[test]
    fn worker_panic_plan_carries_the_cooperation_header() {
        let plan = plan_serve_fault(ServeFault::WorkerPanic, "POST", "/v1/extract", b"x", 0);
        let text = String::from_utf8_lossy(&sent_bytes(&plan)).into_owned();
        assert!(text.contains("x-ancstr-chaos: panic"), "{text}");
    }

    #[test]
    fn stale_manifest_keeps_a_valid_seal_but_zeroes_the_hash() {
        let payload = "{\n  \"config_hash\": \"49c099dbacda8945\",\n  \"seed\": 7\n}\n";
        let sealed = ancstr_gnn::seal("manifest", payload);
        let stale = inject_checkpoint(&sealed, CheckpointFault::StaleManifest, 0);
        assert_ne!(stale, sealed);
        // The seal still verifies — only semantic validation catches it.
        let opened = ancstr_gnn::open_sealed("manifest", &stale).unwrap();
        assert!(opened.contains("\"config_hash\": \"0000000000000000\""), "{opened}");
        // Non-manifest artifacts are left alone.
        let ckpt = ancstr_gnn::seal("checkpoint", "ancstr-ckpt v1\n");
        assert_eq!(inject_checkpoint(&ckpt, CheckpointFault::StaleManifest, 0), ckpt);
    }
}
