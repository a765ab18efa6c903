//! Crash-safe run store: durable, resumable pipeline runs.
//!
//! A *run directory* holds one pipeline run as versioned,
//! CRC-checksummed artifacts (see [`ancstr_gnn::seal`]) plus a JSON
//! manifest recording per-stage status, the config hash, and the seed
//! lineage. Every write is atomic — temp file, `fsync`, `rename`, then
//! a best-effort directory `fsync` — so a killed process never leaves a
//! partially written artifact that a later resume could read as valid.
//!
//! ```text
//! run-dir/
//!   manifest.json            sealed kind=manifest
//!   graph.meta               sealed kind=graph-meta
//!   model.txt                sealed kind=model
//!   embeddings.txt           sealed kind=embeddings
//!   constraints.txt          sealed kind=constraints
//!   checkpoints/
//!     epoch-000005.ckpt      sealed kind=checkpoint (TrainerState)
//! ```
//!
//! [`RunSession`] holds the stage lifecycle: a resumed session
//! validates the manifest against the current command, config hash, and
//! inputs, and the pipeline stages (see [`crate::pipeline`]) skip
//! completed stages by reloading their artifacts. Training restarts
//! from the newest *valid* checkpoint, falling back past corrupt ones
//! with notes rather than errors. A [`CancelToken`] (optionally armed
//! with a deadline watchdog) requests cooperative cancellation at stage
//! and epoch boundaries; the trainer flushes a final checkpoint first,
//! so an interrupted run is always resumable.

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ancstr_gnn::{
    matrix_from_text, matrix_to_text, seal, GnnModel, HealthReport, TrainConfig, TrainReport,
    TrainerState,
};
use ancstr_netlist::{ConstraintSet, FlatCircuit};
use ancstr_nn::Matrix;

use crate::export::{read_constraints, write_constraint_pairs};
use crate::observe::PipelineObs;
use crate::pipeline::{ExtractorConfig, SymmetryExtractor};
use crate::recover::ExtractError;

/// Manifest schema version this build reads and writes. Version 2 seals
/// the `detect` stage as one `sym` line per detected pair; version 1
/// sealed merged groups, which reload as their full pairwise closure.
pub const MANIFEST_VERSION: u64 = 2;

/// Default training checkpoint cadence (epochs) when a run directory is
/// active but `--checkpoint-every` was not given.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 5;

/// Any failure of the run store: I/O, a corrupt or mismatched manifest,
/// or a corrupt stage artifact that has no fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// The OS error text.
        detail: String,
    },
    /// The path given to `--resume` is not a run directory (no
    /// manifest).
    NotARun {
        /// The offending path.
        path: String,
    },
    /// The manifest failed its checksum or did not parse.
    CorruptManifest {
        /// What the verification found.
        reason: String,
    },
    /// The manifest is from an incompatible schema version.
    UnsupportedVersion {
        /// The version the manifest declares.
        found: u64,
    },
    /// The manifest belongs to a different run: the command, config
    /// hash, or input set disagrees with the current invocation, so
    /// resuming would silently mix two experiments.
    ConfigMismatch {
        /// Which manifest field disagreed.
        field: &'static str,
        /// The current invocation's value.
        expected: String,
        /// The manifest's value.
        found: String,
    },
    /// A completed stage's artifact failed verification and the stage
    /// cannot be transparently re-run.
    CorruptArtifact {
        /// Artifact file name within the run directory.
        name: String,
        /// What the verification found.
        reason: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Io { path, detail } => write!(f, "run-store I/O on `{path}`: {detail}"),
            RunError::NotARun { path } => {
                write!(f, "`{path}` is not a run directory (no manifest.json)")
            }
            RunError::CorruptManifest { reason } => write!(f, "corrupt run manifest: {reason}"),
            RunError::UnsupportedVersion { found } => write!(
                f,
                "run manifest version {found} is not supported (this build reads \
                 {MANIFEST_VERSION})"
            ),
            RunError::ConfigMismatch { field, expected, found } => write!(
                f,
                "cannot resume: manifest {field} is `{found}` but this invocation has \
                 `{expected}` (same run directory, different run)"
            ),
            RunError::CorruptArtifact { name, reason } => {
                write!(f, "artifact `{name}` failed verification: {reason}")
            }
        }
    }
}

impl std::error::Error for RunError {}

fn io_err(path: &Path, e: impl fmt::Display) -> RunError {
    RunError::Io { path: path.display().to_string(), detail: e.to_string() }
}

/// FNV-1a 64-bit hash rendered as 16 hex digits; used to fingerprint
/// the extractor configuration in the manifest.
pub fn config_hash(config: &ExtractorConfig) -> String {
    fnv1a64(format!("{config:?}").as_bytes())
}

fn fnv1a64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Atomically replace `path` with `contents`: write a temp file in the
/// same directory, `fsync` it, `rename` over the target, then `fsync`
/// the directory (best effort) so the rename itself is durable.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), RunError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).map_or_else(
        || PathBuf::from("."),
        Path::to_path_buf,
    );
    let name = path
        .file_name()
        .ok_or_else(|| io_err(path, "path has no file name"))?
        .to_string_lossy()
        .into_owned();
    let tmp = dir.join(format!(".{name}.tmp.{}", std::process::id()));
    {
        let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        f.write_all(contents.as_bytes()).map_err(|e| io_err(&tmp, e))?;
        f.sync_all().map_err(|e| io_err(&tmp, e))?;
    }
    fs::rename(&tmp, path).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        io_err(path, e)
    })?;
    if let Ok(d) = fs::File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Minimal JSON for the manifest. Hand-rolled because the workspace is
// offline (no serde): numbers are kept as raw strings so u64 seeds
// never round-trip through f64.

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Str(String),
    Num(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn json_escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(&format!("expected `{}`", b as char))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                self.pos += 1;
                while self
                    .peek()
                    .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
                {
                    self.pos += 1;
                }
                Ok(Json::Num(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?
                        .to_owned(),
                ))
            }
            _ => self.fail("expected a JSON value"),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return self.fail("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return self.fail("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return self.fail("truncated \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|e| e.to_string())?;
                            let cp =
                                u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        other => return self.fail(&format!("bad escape `\\{}`", other as char)),
                    }
                }
                other => {
                    // Re-borrow the full UTF-8 char starting at `other`.
                    let width = match other {
                        0x00..=0x7F => 0,
                        0xC0..=0xDF => 1,
                        0xE0..=0xEF => 2,
                        _ => 3,
                    };
                    let start = self.pos - 1;
                    self.pos += width;
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?;
                    out.push_str(s);
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return self.fail("expected `,` or `}`"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.fail("expected `,` or `]`"),
            }
        }
    }
}

fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = JsonParser { bytes: text.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.fail("trailing data");
    }
    Ok(v)
}

// ---------------------------------------------------------------------
// Manifest

/// Lifecycle of one pipeline stage in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageStatus {
    /// Not yet (fully) run.
    Pending,
    /// Completed; its artifact is on disk and sealed.
    Done,
}

impl StageStatus {
    fn as_str(self) -> &'static str {
        match self {
            StageStatus::Pending => "pending",
            StageStatus::Done => "done",
        }
    }
}

/// One stage row of the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageEntry {
    /// Stage name (`graph`, `train`, `embed`, `detect`).
    pub name: String,
    /// Current status.
    pub status: StageStatus,
    /// Artifact file name within the run directory, once written.
    pub artifact: Option<String>,
}

/// The run manifest: everything a resume needs to decide what is done,
/// what matches, and what to redo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// Schema version ([`MANIFEST_VERSION`]).
    pub version: u64,
    /// The CLI command that owns this run (`extract` or `train`).
    pub command: String,
    /// [`config_hash`] of the extractor configuration.
    pub config_hash: String,
    /// The base training seed.
    pub seed: u64,
    /// Seed lineage: the base seed followed by every divergence-recovery
    /// re-seed, in order — reproduced identically across crash/resume.
    pub seed_lineage: Vec<u64>,
    /// Input netlist paths, in invocation order.
    pub inputs: Vec<String>,
    /// Stage rows, in pipeline order.
    pub stages: Vec<StageEntry>,
}

impl RunManifest {
    fn new(command: &str, hash: String, seed: u64, inputs: &[String], stages: &[&str]) -> Self {
        RunManifest {
            version: MANIFEST_VERSION,
            command: command.to_owned(),
            config_hash: hash,
            seed,
            seed_lineage: vec![seed],
            inputs: inputs.to_vec(),
            stages: stages
                .iter()
                .map(|&name| StageEntry {
                    name: name.to_owned(),
                    status: StageStatus::Pending,
                    artifact: None,
                })
                .collect(),
        }
    }

    /// Serialize to (unsealed) JSON text.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"version\": {},\n", self.version));
        out.push_str("  \"command\": ");
        json_escape(&self.command, &mut out);
        out.push_str(",\n  \"config_hash\": ");
        json_escape(&self.config_hash, &mut out);
        out.push_str(&format!(",\n  \"seed\": {},\n", self.seed));
        let lineage: Vec<String> = self.seed_lineage.iter().map(u64::to_string).collect();
        out.push_str(&format!("  \"seed_lineage\": [{}],\n", lineage.join(", ")));
        out.push_str("  \"inputs\": [");
        for (i, input) in self.inputs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json_escape(input, &mut out);
        }
        out.push_str("],\n  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            out.push_str("    {\"name\": ");
            json_escape(&s.name, &mut out);
            out.push_str(&format!(", \"status\": \"{}\"", s.status.as_str()));
            if let Some(a) = &s.artifact {
                out.push_str(", \"artifact\": ");
                json_escape(a, &mut out);
            }
            out.push('}');
            if i + 1 < self.stages.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse [`RunManifest::to_json`] output.
    ///
    /// # Errors
    ///
    /// [`RunError::CorruptManifest`] on malformed JSON or a missing
    /// field; [`RunError::UnsupportedVersion`] on a schema mismatch.
    pub fn from_json(text: &str) -> Result<RunManifest, RunError> {
        let corrupt = |reason: String| RunError::CorruptManifest { reason };
        let v = parse_json(text).map_err(corrupt)?;
        let field = |key: &'static str| {
            v.get(key).ok_or_else(|| corrupt(format!("missing field `{key}`")))
        };
        let version = field("version")?
            .as_u64()
            .ok_or_else(|| corrupt("`version` is not an integer".into()))?;
        if version != MANIFEST_VERSION {
            return Err(RunError::UnsupportedVersion { found: version });
        }
        let as_string = |key: &'static str| -> Result<String, RunError> {
            field(key)?
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| corrupt(format!("`{key}` is not a string")))
        };
        let command = as_string("command")?;
        let hash = as_string("config_hash")?;
        let seed = field("seed")?
            .as_u64()
            .ok_or_else(|| corrupt("`seed` is not an integer".into()))?;
        let seed_lineage = field("seed_lineage")?
            .as_arr()
            .ok_or_else(|| corrupt("`seed_lineage` is not an array".into()))?
            .iter()
            .map(|j| j.as_u64().ok_or_else(|| corrupt("bad seed in lineage".into())))
            .collect::<Result<Vec<u64>, _>>()?;
        let inputs = field("inputs")?
            .as_arr()
            .ok_or_else(|| corrupt("`inputs` is not an array".into()))?
            .iter()
            .map(|j| {
                j.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| corrupt("bad input path".into()))
            })
            .collect::<Result<Vec<String>, _>>()?;
        let stages = field("stages")?
            .as_arr()
            .ok_or_else(|| corrupt("`stages` is not an array".into()))?
            .iter()
            .map(|j| {
                let name = j
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| corrupt("stage without a name".into()))?
                    .to_owned();
                let status = match j.get("status").and_then(Json::as_str) {
                    Some("pending") => StageStatus::Pending,
                    Some("done") => StageStatus::Done,
                    other => {
                        return Err(corrupt(format!("stage `{name}` has bad status {other:?}")))
                    }
                };
                let artifact = j.get("artifact").and_then(Json::as_str).map(str::to_owned);
                Ok(StageEntry { name, status, artifact })
            })
            .collect::<Result<Vec<StageEntry>, RunError>>()?;
        Ok(RunManifest { version, command, config_hash: hash, seed, seed_lineage, inputs, stages })
    }

    /// Status of the named stage ([`StageStatus::Pending`] if absent).
    pub fn stage_status(&self, name: &str) -> StageStatus {
        self.stages
            .iter()
            .find(|s| s.name == name)
            .map_or(StageStatus::Pending, |s| s.status)
    }
}

// ---------------------------------------------------------------------
// Cancellation

/// Cooperative cancellation flag, checked at stage and epoch
/// boundaries. Cloning shares the flag (and copies the deadline, if
/// any).
///
/// Two expiry mechanisms coexist: the explicit [`CancelToken::cancel`]
/// flag (shared across clones) and an optional *passive* deadline
/// ([`CancelToken::with_deadline`]) that needs no watchdog thread —
/// [`CancelToken::is_cancelled`] simply compares against the clock.
/// The passive form is what request-scoped callers (the serve daemon)
/// use: thousands of short-lived tokens per second must not each spawn
/// a thread.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<std::time::Instant>,
}

impl CancelToken {
    /// A fresh, un-cancelled token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// This token with a passive expiry instant. Checking
    /// [`CancelToken::is_cancelled`] at or past `at` reports
    /// cancellation without any watchdog thread. An earlier existing
    /// deadline is kept (deadlines only ever tighten).
    pub fn with_deadline(mut self, at: std::time::Instant) -> CancelToken {
        self.deadline = Some(match self.deadline {
            Some(existing) => existing.min(at),
            None => at,
        });
        self
    }

    /// A fresh token that passively expires `budget` from now.
    pub fn expiring_in(budget: Duration) -> CancelToken {
        CancelToken::new().with_deadline(std::time::Instant::now() + budget)
    }

    /// The passive expiry instant, if one was set.
    pub fn deadline(&self) -> Option<std::time::Instant> {
        self.deadline
    }

    /// Request cancellation. Irrevocable.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Has cancellation been requested (explicitly, or by passing the
    /// passive deadline)?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
            || self.deadline.is_some_and(|d| std::time::Instant::now() >= d)
    }

    /// Arm a watchdog thread that cancels this token after `budget`.
    /// The thread is detached; it dies with the process. Long-lived
    /// CLI runs use this so the flag also trips for clones that were
    /// taken *before* the deadline was armed; request-scoped callers
    /// should prefer the thread-free [`CancelToken::with_deadline`].
    pub fn arm_deadline(&self, budget: Duration) {
        let flag = Arc::clone(&self.flag);
        std::thread::spawn(move || {
            std::thread::sleep(budget);
            flag.store(true, Ordering::SeqCst);
        });
    }
}

// ---------------------------------------------------------------------
// The store

/// Low-level access to a run directory: sealed artifacts, the sealed
/// manifest, and the training checkpoint series.
#[derive(Debug, Clone)]
pub struct RunStore {
    root: PathBuf,
}

impl RunStore {
    const MANIFEST: &'static str = "manifest.json";
    const CHECKPOINT_DIR: &'static str = "checkpoints";

    /// Open (creating if needed) the run directory skeleton.
    ///
    /// # Errors
    ///
    /// [`RunError::Io`] when the directories cannot be created.
    pub fn create(root: impl Into<PathBuf>) -> Result<RunStore, RunError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_err(&root, e))?;
        let ckpt = root.join(Self::CHECKPOINT_DIR);
        fs::create_dir_all(&ckpt).map_err(|e| io_err(&ckpt, e))?;
        Ok(RunStore { root })
    }

    /// The run directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn manifest_path(&self) -> PathBuf {
        self.root.join(Self::MANIFEST)
    }

    /// Atomically persist the sealed manifest.
    ///
    /// # Errors
    ///
    /// [`RunError::Io`] on write failure.
    pub fn save_manifest(&self, manifest: &RunManifest) -> Result<(), RunError> {
        write_atomic(&self.manifest_path(), &seal("manifest", &manifest.to_json()))
    }

    /// Load and verify the manifest.
    ///
    /// # Errors
    ///
    /// [`RunError::NotARun`] when absent, [`RunError::CorruptManifest`]
    /// on checksum/parse failure, [`RunError::UnsupportedVersion`] on a
    /// schema mismatch.
    pub fn load_manifest(&self) -> Result<RunManifest, RunError> {
        let path = self.manifest_path();
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(RunError::NotARun { path: self.root.display().to_string() })
            }
            Err(e) => return Err(io_err(&path, e)),
        };
        let payload = ancstr_gnn::open_sealed("manifest", &text)
            .map_err(|e| RunError::CorruptManifest { reason: e.to_string() })?;
        RunManifest::from_json(payload)
    }

    /// Atomically write a sealed stage artifact.
    ///
    /// # Errors
    ///
    /// [`RunError::Io`] on write failure.
    pub fn write_artifact(&self, name: &str, kind: &str, payload: &str) -> Result<(), RunError> {
        write_atomic(&self.root.join(name), &seal(kind, payload))
    }

    /// Read and verify a sealed stage artifact, returning its payload.
    ///
    /// # Errors
    ///
    /// [`RunError::Io`] when unreadable, [`RunError::CorruptArtifact`]
    /// on checksum failure.
    pub fn read_artifact(&self, name: &str, kind: &str) -> Result<String, RunError> {
        let path = self.root.join(name);
        let text = fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
        ancstr_gnn::open_sealed(kind, &text)
            .map(str::to_owned)
            .map_err(|e| RunError::CorruptArtifact { name: name.to_owned(), reason: e.to_string() })
    }

    /// Path of the checkpoint for the given completed-epoch count.
    pub fn checkpoint_path(&self, epoch: usize) -> PathBuf {
        self.root.join(Self::CHECKPOINT_DIR).join(format!("epoch-{epoch:06}.ckpt"))
    }

    /// Atomically persist a training checkpoint, named by its
    /// completed-epoch count.
    ///
    /// # Errors
    ///
    /// [`RunError::Io`] on write failure.
    pub fn write_checkpoint(&self, state: &TrainerState) -> Result<(), RunError> {
        write_atomic(&self.checkpoint_path(state.epoch_losses.len()), &state.to_text())
    }

    /// Delete every checkpoint (a fresh, non-resume run must not mix
    /// lineages with a previous occupant of the directory).
    ///
    /// # Errors
    ///
    /// [`RunError::Io`] when the directory cannot be read or a file
    /// cannot be removed.
    pub fn clear_checkpoints(&self) -> Result<(), RunError> {
        let dir = self.root.join(Self::CHECKPOINT_DIR);
        for entry in fs::read_dir(&dir).map_err(|e| io_err(&dir, e))? {
            let entry = entry.map_err(|e| io_err(&dir, e))?;
            fs::remove_file(entry.path()).map_err(|e| io_err(&entry.path(), e))?;
        }
        Ok(())
    }

    /// The newest checkpoint that verifies and parses, scanning the
    /// checkpoint directory newest-first and *skipping* (not failing on)
    /// corrupt entries. Returns the state (if any) plus one
    /// human-readable note per skipped file.
    pub fn latest_valid_checkpoint(&self) -> (Option<TrainerState>, Vec<String>) {
        let dir = self.root.join(Self::CHECKPOINT_DIR);
        let mut notes = Vec::new();
        let Ok(entries) = fs::read_dir(&dir) else {
            return (None, notes);
        };
        let mut candidates: Vec<(usize, PathBuf)> = entries
            .flatten()
            .filter_map(|e| {
                let path = e.path();
                let name = path.file_name()?.to_str()?.to_owned();
                let epoch: usize =
                    name.strip_prefix("epoch-")?.strip_suffix(".ckpt")?.parse().ok()?;
                Some((epoch, path))
            })
            .collect();
        candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
        for (_, path) in candidates {
            let display = path.file_name().map_or_else(String::new, |n| {
                n.to_string_lossy().into_owned()
            });
            match fs::read_to_string(&path) {
                Ok(text) => match TrainerState::from_text(&text) {
                    Ok(state) => return (Some(state), notes),
                    Err(e) => notes.push(format!("skipping corrupt checkpoint {display}: {e}")),
                },
                Err(e) => notes.push(format!("skipping unreadable checkpoint {display}: {e}")),
            }
        }
        (None, notes)
    }
}

// ---------------------------------------------------------------------
// Session orchestration

/// Options for opening a [`RunSession`].
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The run directory.
    pub run_dir: PathBuf,
    /// Resume a previous run in that directory instead of starting
    /// fresh (a fresh start clears old checkpoints).
    pub resume: bool,
    /// Training checkpoint cadence in epochs.
    pub checkpoint_every: usize,
    /// Crash-test hook: abort the process (as an uncatchable kill)
    /// immediately after the Nth checkpoint write of this run.
    #[doc(hidden)]
    pub test_abort_after_checkpoints: Option<usize>,
    /// Interruption-test hook: fire the run's cancel token after the
    /// Nth checkpoint write, producing a deterministic epoch-boundary
    /// cancellation without killing the test process.
    #[doc(hidden)]
    pub test_cancel_after_checkpoints: Option<usize>,
}

impl RunOptions {
    /// Defaults for the given directory: fresh run, cadence
    /// [`DEFAULT_CHECKPOINT_EVERY`].
    pub fn new(run_dir: impl Into<PathBuf>) -> RunOptions {
        RunOptions {
            run_dir: run_dir.into(),
            resume: false,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            test_abort_after_checkpoints: None,
            test_cancel_after_checkpoints: None,
        }
    }
}

/// A live durable run: the store, the manifest, and the options,
/// validated and ready for stages to execute against.
#[derive(Debug)]
pub struct RunSession {
    store: RunStore,
    manifest: RunManifest,
    options: RunOptions,
    checkpoint_writes: Arc<AtomicUsize>,
    notes: Vec<String>,
}

impl RunSession {
    /// Open a session. A fresh session (`options.resume == false`)
    /// initializes the directory and a pending manifest, clearing any
    /// previous occupant's checkpoints. A resumed session loads the
    /// existing manifest and validates it against the current command,
    /// configuration, and inputs.
    ///
    /// # Errors
    ///
    /// [`RunError::NotARun`] when resuming a directory with no
    /// manifest; [`RunError::CorruptManifest`] /
    /// [`RunError::UnsupportedVersion`] when the manifest fails
    /// verification; [`RunError::ConfigMismatch`] when it belongs to a
    /// different run; [`RunError::Io`] on filesystem failure.
    pub fn open(
        options: RunOptions,
        command: &str,
        config: &ExtractorConfig,
        inputs: &[String],
    ) -> Result<RunSession, RunError> {
        let store = RunStore::create(&options.run_dir)?;
        let hash = config_hash(config);
        let stages: &[&str] = match command {
            "train" => &["graph", "train"],
            _ => &["graph", "train", "embed", "detect"],
        };
        let manifest = if options.resume {
            let manifest = store.load_manifest()?;
            let mismatch = |field: &'static str, expected: &str, found: &str| {
                Err(RunError::ConfigMismatch {
                    field,
                    expected: expected.to_owned(),
                    found: found.to_owned(),
                })
            };
            if manifest.command != command {
                return mismatch("command", command, &manifest.command);
            }
            if manifest.config_hash != hash {
                return mismatch("config_hash", &hash, &manifest.config_hash);
            }
            if manifest.inputs != inputs {
                return mismatch("inputs", &inputs.join(", "), &manifest.inputs.join(", "));
            }
            manifest
        } else {
            store.clear_checkpoints()?;
            let manifest =
                RunManifest::new(command, hash, config.train.seed, inputs, stages);
            store.save_manifest(&manifest)?;
            manifest
        };
        Ok(RunSession {
            store,
            manifest,
            options,
            checkpoint_writes: Arc::new(AtomicUsize::new(0)),
            notes: Vec::new(),
        })
    }

    /// The underlying store.
    pub fn store(&self) -> &RunStore {
        &self.store
    }

    /// The live manifest.
    pub fn manifest(&self) -> &RunManifest {
        &self.manifest
    }

    /// Is the named stage already completed (from a resumed manifest)?
    pub fn stage_done(&self, name: &str) -> bool {
        self.manifest.stage_status(name) == StageStatus::Done
    }

    /// Mark a stage done (recording its artifact) and persist the
    /// manifest atomically.
    ///
    /// # Errors
    ///
    /// [`RunError::Io`] when the manifest cannot be written.
    fn mark_done(&mut self, name: &str, artifact: Option<&str>) -> Result<(), RunError> {
        if let Some(s) = self.manifest.stages.iter_mut().find(|s| s.name == name) {
            s.status = StageStatus::Done;
            if artifact.is_some() {
                s.artifact = artifact.map(str::to_owned);
            }
        }
        self.store.save_manifest(&self.manifest)
    }

    /// Write a stage's artifact and mark the stage done in one step. A
    /// stage that is already done gets its artifact re-sealed (the
    /// recomputation after an unusable artifact).
    ///
    /// # Errors
    ///
    /// [`RunError::Io`] on write failure.
    fn complete_stage(
        &mut self,
        name: &str,
        artifact: &str,
        kind: &str,
        payload: &str,
    ) -> Result<(), RunError> {
        self.store.write_artifact(artifact, kind, payload)?;
        if self.stage_done(name) {
            return Ok(());
        }
        self.mark_done(name, Some(artifact))
    }

    fn record_seed_lineage(&mut self, health: &HealthReport) {
        let mut lineage = vec![self.manifest.seed];
        lineage.extend(health.retries.iter().map(|e| e.reseeded_to));
        self.manifest.seed_lineage = lineage;
    }

    /// Completed-epoch cadence of periodic training checkpoints.
    pub(crate) fn checkpoint_every(&self) -> usize {
        self.options.checkpoint_every.max(1)
    }

    /// Drain the recovery notes the stages left since the last call
    /// (corrupt checkpoints skipped, artifacts recomputed), for the
    /// caller to surface.
    pub fn take_notes(&mut self) -> Vec<String> {
        std::mem::take(&mut self.notes)
    }

    /// Record a fallback decision: a note for the caller plus a
    /// `runstore_note` event and counter.
    fn recovery_note(&mut self, obs: &PipelineObs, note: String) {
        obs.runstore_note(&note);
        self.notes.push(note);
    }

    /// Write `metrics.prom` at a stage boundary when anyone reads the
    /// metrics. Observability never fails the run: a failed write is
    /// a note, not an error.
    pub(crate) fn write_metrics(&mut self, obs: &PipelineObs) {
        if !obs.enabled() {
            return;
        }
        if let Err(e) = obs.write_prom(&self.store.root.join("metrics.prom")) {
            self.notes.push(format!("could not write metrics.prom: {e}"));
        }
    }

    /// Seal the `graph` stage: a summary of what the run was built
    /// from. No-op once done.
    pub(crate) fn seal_graph_meta(&mut self, circuits: &[&FlatCircuit]) -> Result<(), RunError> {
        if self.stage_done("graph") {
            return Ok(());
        }
        let inputs = self.manifest.inputs.join(", ");
        let devices: usize = circuits.iter().map(|f| f.devices().len()).sum();
        let meta = if self.manifest.command == "train" {
            format!("netlists {inputs}\ncircuits {}\ndevices {devices}\n", circuits.len())
        } else {
            let nets: usize = circuits.iter().map(|f| f.net_count()).sum();
            let nodes: usize = circuits.iter().map(|f| f.nodes().len()).sum();
            format!("netlist {inputs}\ndevices {devices}\nnets {nets}\nnodes {nodes}\n")
        };
        self.complete_stage("graph", "graph.meta", "graph-meta", &meta)
    }

    /// Reload the weights of a `train` stage that is already done. The
    /// final checkpoint is the canonical artifact: it holds the weights
    /// *and* the full report. Falls back to the model artifact, and
    /// past that returns `None` with the stage reset to pending, so the
    /// caller re-trains.
    pub(crate) fn reload_model(
        &mut self,
        extractor: &mut SymmetryExtractor,
        obs: &PipelineObs,
    ) -> Result<Option<(TrainReport, HealthReport)>, ExtractError> {
        let (state, scan_notes) = self.store.latest_valid_checkpoint();
        for note in scan_notes {
            self.recovery_note(obs, note);
        }
        let state_fits = |state: &TrainerState| {
            let slots = extractor.model().matrices();
            state.gnn == extractor.config().gnn
                && state.epoch_losses.len() >= extractor.config().train.epochs
                && state.params.len() == slots.len()
                && state.params.iter().zip(&slots).all(|(p, s)| p.shape() == s.shape())
        };
        if let Some(state) = state.filter(state_fits) {
            for (slot, m) in extractor.model_mut().matrices_mut().into_iter().zip(&state.params) {
                *slot = m.clone();
            }
            let report = TrainReport { epoch_losses: state.epoch_losses };
            let health =
                HealthReport { retries: state.retries, clipped_steps: state.clipped_steps };
            return Ok(Some((report, health)));
        }
        match self.store.read_artifact("model.txt", "model") {
            Ok(payload) => {
                let model = GnnModel::from_text(&payload).map_err(ExtractError::Model)?;
                *extractor =
                    SymmetryExtractor::new(extractor.config().clone()).with_model(model)?;
                self.recovery_note(
                    obs,
                    "train stage was done but no full checkpoint survived; loaded sealed \
                     model artifact (loss history unavailable)"
                        .to_owned(),
                );
                Ok(Some((TrainReport { epoch_losses: Vec::new() }, HealthReport::default())))
            }
            Err(e) => {
                self.recovery_note(
                    obs,
                    format!(
                        "train stage was marked done but its artifacts are gone ({e}); \
                         re-training"
                    ),
                );
                if let Some(s) = self.manifest.stages.iter_mut().find(|s| s.name == "train") {
                    s.status = StageStatus::Pending;
                }
                Ok(None)
            }
        }
    }

    /// The newest valid checkpoint to resume training from, on a
    /// resumed session (skipped corrupt ones become notes).
    pub(crate) fn resume_state(&mut self, obs: &PipelineObs) -> Option<TrainerState> {
        if !self.options.resume {
            return None;
        }
        let (state, scan_notes) = self.store.latest_valid_checkpoint();
        for note in scan_notes {
            self.recovery_note(obs, note);
        }
        state
    }

    /// The trainer's checkpoint sink: write each checkpoint atomically,
    /// then run the crash-test hooks (abort as a kill would, or fire
    /// `cancel` as the deadline watchdog would).
    pub(crate) fn checkpoint_sink(
        &self,
        cancel: &CancelToken,
    ) -> impl FnMut(&TrainerState) -> Result<(), String> {
        let store = self.store.clone();
        let writes = Arc::clone(&self.checkpoint_writes);
        let abort_after = self.options.test_abort_after_checkpoints;
        let cancel_after = self.options.test_cancel_after_checkpoints;
        let cancel = cancel.clone();
        move |state: &TrainerState| {
            store.write_checkpoint(state).map_err(|e| e.to_string())?;
            let n = writes.fetch_add(1, Ordering::SeqCst) + 1;
            if abort_after.is_some_and(|limit| n >= limit) {
                // Model a SIGKILL mid-run: no unwinding, no destructors.
                std::process::abort();
            }
            if cancel_after.is_some_and(|limit| n >= limit) {
                cancel.cancel();
            }
            Ok(())
        }
    }

    /// Persist the seed lineage of a cancelled training run, which the
    /// trainer has already checkpointed.
    pub(crate) fn seal_cancelled(&mut self, health: &HealthReport) -> Result<(), RunError> {
        self.record_seed_lineage(health);
        self.store.save_manifest(&self.manifest)
    }

    /// Seal a completed training run: a final checkpoint (the canonical
    /// record) and the model artifact, then flip the `train` stage with
    /// its seed lineage recorded.
    pub(crate) fn seal_model(
        &mut self,
        model: &GnnModel,
        report: &TrainReport,
        health: &HealthReport,
        config: &TrainConfig,
        graphs: usize,
        obs: &PipelineObs,
    ) -> Result<(), RunError> {
        let final_state = TrainerState {
            gnn: model.config().clone(),
            params: model.matrices().into_iter().cloned().collect(),
            best_params: model.matrices().into_iter().cloned().collect(),
            best_loss: report.epoch_losses.iter().copied().fold(f64::INFINITY, f64::min),
            epoch_losses: report.epoch_losses.clone(),
            attempt: health.retries.len(),
            seed: health.retries.last().map_or(config.seed, |e| e.reseeded_to),
            rng: [0; 4],
            order: (0..graphs).collect(),
            adam_steps: 0,
            adam_moments: Vec::new(),
            clipped_steps: health.clipped_steps,
            retries: health.retries.clone(),
        };
        self.store.write_checkpoint(&final_state)?;
        self.store.write_artifact("model.txt", "model", &model.to_text())?;
        self.record_seed_lineage(health);
        self.mark_done("train", Some("model.txt"))?;
        obs.event(
            "train",
            "stage_sealed",
            &[("artifact", "model.txt".into()), ("epochs", report.epoch_losses.len().into())],
        );
        Ok(())
    }

    /// The sealed embeddings of a done `embed` stage, when they verify
    /// and have the expected `(devices, dim)` shape — one vertex per
    /// device. Otherwise a note, and `None` so the caller recomputes.
    pub(crate) fn reload_embeddings(
        &mut self,
        shape: (usize, usize),
        obs: &PipelineObs,
    ) -> Option<Matrix> {
        self.reload(obs, "embeddings.txt", "embeddings", |payload| {
            let z = matrix_from_text(payload).map_err(|e| e.to_string())?;
            if z.shape() == shape {
                Ok(z)
            } else {
                Err(format!("shape {:?}, expected {shape:?}", z.shape()))
            }
        })
    }

    /// Seal the `embed` stage's artifact.
    pub(crate) fn seal_embeddings(&mut self, z: &Matrix) -> Result<(), RunError> {
        self.complete_stage("embed", "embeddings.txt", "embeddings", &matrix_to_text(z))
    }

    /// The sealed constraint set of a done `detect` stage, or a note and
    /// `None` so the caller re-detects.
    pub(crate) fn reload_constraints(
        &mut self,
        flat: &FlatCircuit,
        obs: &PipelineObs,
    ) -> Option<ConstraintSet> {
        self.reload(obs, "constraints.txt", "constraints", |payload| {
            read_constraints(flat, payload).map_err(|e| e.to_string())
        })
    }

    /// Read, verify and parse a stage artifact; an unusable one becomes
    /// a recovery note and `None`.
    fn reload<T>(
        &mut self,
        obs: &PipelineObs,
        artifact: &str,
        kind: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Option<T> {
        let loaded = self
            .store
            .read_artifact(artifact, kind)
            .map_err(|e| e.to_string())
            .and_then(|payload| parse(&payload));
        match loaded {
            Ok(value) => Some(value),
            Err(reason) => {
                let note = format!("{kind} artifact unusable ({reason}); recomputing");
                self.recovery_note(obs, note);
                None
            }
        }
    }

    /// Seal the `detect` stage's artifact: the detected constraint set,
    /// one pair per line, so a resumed run reloads exactly the pairs
    /// the fresh run detected (not the closure of their groups).
    pub(crate) fn seal_constraints(
        &mut self,
        flat: &FlatCircuit,
        constraints: &ConstraintSet,
    ) -> Result<(), RunError> {
        self.complete_stage(
            "detect",
            "constraints.txt",
            "constraints",
            &write_constraint_pairs(flat, constraints),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{FitOutcome, RunCtx};

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ancstr-runstore-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let mut m = RunManifest::new(
            "extract",
            "0123456789abcdef".to_owned(),
            7,
            &["a.sp".to_owned(), "dir/b \"q\".sp".to_owned()],
            &["graph", "train", "embed", "detect"],
        );
        m.seed_lineage = vec![7, u64::MAX];
        m.stages[1].status = StageStatus::Done;
        m.stages[1].artifact = Some("model.txt".to_owned());
        let back = RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        // u64::MAX survives (no f64 round-trip).
        assert_eq!(back.seed_lineage[1], u64::MAX);
    }

    #[test]
    fn manifest_rejects_bad_versions_and_garbage() {
        let m = RunManifest::new("train", "x".into(), 1, &[], &["graph", "train"]);
        let json = m
            .to_json()
            .replace(&format!("\"version\": {MANIFEST_VERSION}"), "\"version\": 99");
        assert_eq!(
            RunManifest::from_json(&json).unwrap_err(),
            RunError::UnsupportedVersion { found: 99 }
        );
        assert!(matches!(
            RunManifest::from_json("not json").unwrap_err(),
            RunError::CorruptManifest { .. }
        ));
        assert!(matches!(
            RunManifest::from_json("{}").unwrap_err(),
            RunError::CorruptManifest { .. }
        ));
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp_files() {
        let dir = tmp("atomic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file.txt");
        write_atomic(&path, "first").unwrap();
        write_atomic(&path, "second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn store_round_trips_artifacts_and_rejects_corruption() {
        let store = RunStore::create(tmp("artifacts")).unwrap();
        store.write_artifact("blob.txt", "blob", "hello world\n").unwrap();
        assert_eq!(store.read_artifact("blob.txt", "blob").unwrap(), "hello world\n");
        // Kind mismatch is typed.
        assert!(matches!(
            store.read_artifact("blob.txt", "other").unwrap_err(),
            RunError::CorruptArtifact { .. }
        ));
        // A flipped byte is caught by the CRC.
        let path = store.root().join("blob.txt");
        let mut bytes = fs::read(&path).unwrap();
        bytes[1] ^= 0x01;
        fs::write(&path, bytes).unwrap();
        assert!(matches!(
            store.read_artifact("blob.txt", "blob").unwrap_err(),
            RunError::CorruptArtifact { .. }
        ));
    }

    #[test]
    fn resume_validates_command_config_and_inputs() {
        let dir = tmp("resume-validate");
        let config = ExtractorConfig::default();
        let inputs = vec!["a.sp".to_owned()];
        let session =
            RunSession::open(RunOptions::new(&dir), "extract", &config, &inputs).unwrap();
        drop(session);

        let mut opts = RunOptions::new(&dir);
        opts.resume = true;
        assert!(RunSession::open(opts.clone(), "extract", &config, &inputs).is_ok());
        assert!(matches!(
            RunSession::open(opts.clone(), "train", &config, &inputs).unwrap_err(),
            RunError::ConfigMismatch { field: "command", .. }
        ));
        let mut other = config.clone();
        other.train.seed = 999;
        assert!(matches!(
            RunSession::open(opts.clone(), "extract", &other, &inputs).unwrap_err(),
            RunError::ConfigMismatch { field: "config_hash", .. }
        ));
        assert!(matches!(
            RunSession::open(opts, "extract", &config, &["b.sp".to_owned()]).unwrap_err(),
            RunError::ConfigMismatch { field: "inputs", .. }
        ));

        // Resuming a directory that never was a run is typed.
        let mut opts = RunOptions::new(tmp("resume-empty"));
        opts.resume = true;
        assert!(matches!(
            RunSession::open(opts, "extract", &config, &inputs).unwrap_err(),
            RunError::NotARun { .. }
        ));
    }

    #[test]
    fn deadline_token_fires() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        token.arm_deadline(Duration::from_millis(10));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !token.is_cancelled() {
            assert!(std::time::Instant::now() < deadline, "watchdog never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn latch() -> FlatCircuit {
        let nl = ancstr_netlist::parse::parse_spice(
            "\
.subckt latch q qb en vdd vss
M1 q qb tail vss nch_lvt w=4u l=0.2u
M2 qb q tail vss nch_lvt w=4u l=0.2u
M5 tail en vss vss nch w=2u l=0.5u
.ends
",
        )
        .unwrap();
        FlatCircuit::elaborate(&nl).unwrap()
    }

    fn quick_config() -> ExtractorConfig {
        ExtractorConfig {
            train: ancstr_gnn::TrainConfig {
                epochs: 12,
                learning_rate: 0.02,
                seed: 7,
                ..ancstr_gnn::TrainConfig::default()
            },
            ..ExtractorConfig::default()
        }
    }

    #[test]
    fn interrupted_resume_is_bit_identical_to_uninterrupted() {
        let flat = latch();
        let config = quick_config();
        let inputs = vec!["latch.sp".to_owned()];

        // Reference: one uninterrupted durable run.
        let mut reference = SymmetryExtractor::new(config.clone());
        let mut session = RunSession::open(
            RunOptions::new(tmp("durable-ref")),
            "extract",
            &config,
            &inputs,
        )
        .unwrap();
        let out = reference.try_fit(&[&flat], &RunCtx::default(), Some(&mut session)).unwrap();
        assert!(matches!(out, FitOutcome::Completed { resumed_from: None, .. }), "{out:?}");

        // Interrupted run: the cancel token fires after the second
        // periodic checkpoint (completed epoch 4), as a deadline would.
        let dir = tmp("durable-interrupted");
        let mut opts = RunOptions::new(&dir);
        opts.checkpoint_every = 2;
        opts.test_cancel_after_checkpoints = Some(2);
        let mut interrupted = SymmetryExtractor::new(config.clone());
        let mut session = RunSession::open(opts, "extract", &config, &inputs).unwrap();
        let out = interrupted.try_fit(&[&flat], &RunCtx::default(), Some(&mut session)).unwrap();
        let FitOutcome::Cancelled { after_epoch } = out else {
            panic!("expected cancellation, got {out:?}");
        };
        assert_eq!(after_epoch, 4);
        assert!(!session.stage_done("train"));

        // Resume as a fresh process would: new extractor, new session.
        let mut opts = RunOptions::new(&dir);
        opts.resume = true;
        opts.checkpoint_every = 2;
        let mut session = RunSession::open(opts, "extract", &config, &inputs).unwrap();
        let mut resumed = SymmetryExtractor::new(config.clone());
        let out = resumed.try_fit(&[&flat], &RunCtx::default(), Some(&mut session)).unwrap();
        let FitOutcome::Completed { report, resumed_from, .. } = out else {
            panic!("expected completion, got {out:?}");
        };
        assert_eq!(resumed_from, Some(4));
        assert!(session.stage_done("train"));
        assert_eq!(session.manifest().seed_lineage, vec![config.train.seed]);

        // Bit-identical weights and loss trajectory: vs the durable
        // reference AND vs the plain (non-durable) training path.
        assert_eq!(resumed.model().to_text(), reference.model().to_text());
        let mut plain = SymmetryExtractor::new(config.clone());
        let plain_report = plain.fit(&[&flat]);
        assert_eq!(report, plain_report);
        assert_eq!(resumed.model().to_text(), plain.model().to_text());

        // Resuming the now-completed run skips training entirely and
        // reloads the same weights with the full loss history.
        let mut opts = RunOptions::new(&dir);
        opts.resume = true;
        let mut session = RunSession::open(opts, "extract", &config, &inputs).unwrap();
        let mut reloaded = SymmetryExtractor::new(config.clone());
        let out = reloaded.try_fit(&[&flat], &RunCtx::default(), Some(&mut session)).unwrap();
        let FitOutcome::Completed { report, resumed_from, .. } = out else {
            panic!("expected completion, got {out:?}");
        };
        assert_eq!(resumed_from, None);
        assert_eq!(report, plain_report);
        assert_eq!(reloaded.model().to_text(), plain.model().to_text());
    }

    #[test]
    fn pre_expired_deadline_checkpoints_before_the_first_epoch() {
        let flat = latch();
        let config = quick_config();
        let dir = tmp("durable-deadline0");
        let ctx = RunCtx::default();
        ctx.cancel.cancel();
        let mut session =
            RunSession::open(RunOptions::new(&dir), "extract", &config, &["latch.sp".to_owned()])
                .unwrap();
        let mut ex = SymmetryExtractor::new(config.clone());
        let out = ex.try_fit(&[&flat], &ctx, Some(&mut session)).unwrap();
        let FitOutcome::Cancelled { after_epoch } = out else {
            panic!("expected cancellation, got {out:?}");
        };
        assert_eq!(after_epoch, 0);
        // The zero-epoch checkpoint exists and verifies.
        let (state, notes) = session.store().latest_valid_checkpoint();
        assert!(notes.is_empty(), "{notes:?}");
        assert_eq!(state.unwrap().epoch_losses.len(), 0);
    }

    /// A sealed `detect` stage reloads as the detected pairs: {a–b, b–c}
    /// stays two constraints, where a sealed group `a b c` would reload
    /// as three.
    #[test]
    fn sealed_constraints_reload_as_the_detected_pairs() {
        use ancstr_netlist::{SymmetryConstraint, SymmetryKind};
        let flat = latch();
        let id = |p: &str| flat.node_by_path(p).unwrap().id;
        let root = flat.root().id;
        let detected: ConstraintSet = [
            SymmetryConstraint::new(root, id("latch/M1"), id("latch/M2"), SymmetryKind::Device),
            SymmetryConstraint::new(root, id("latch/M2"), id("latch/M5"), SymmetryKind::Device),
        ]
        .into_iter()
        .collect();
        let config = quick_config();
        let inputs = vec!["latch.sp".to_owned()];
        let dir = tmp("seal-constraints");
        let mut session =
            RunSession::open(RunOptions::new(&dir), "extract", &config, &inputs).unwrap();
        session.seal_constraints(&flat, &detected).unwrap();
        let mut opts = RunOptions::new(&dir);
        opts.resume = true;
        let mut resumed = RunSession::open(opts, "extract", &config, &inputs).unwrap();
        assert!(resumed.stage_done("detect"));
        let back = resumed.reload_constraints(&flat, &PipelineObs::disabled()).unwrap();
        assert_eq!(back.len(), 2);
        for c in detected.iter() {
            assert_eq!(back.get(c.pair.lo(), c.pair.hi()), Some(c));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_hash_is_stable_and_discriminating() {
        let a = ExtractorConfig::default();
        let mut b = ExtractorConfig::default();
        assert_eq!(config_hash(&a), config_hash(&b));
        b.train.epochs += 1;
        assert_ne!(config_hash(&a), config_hash(&b));
        assert_eq!(config_hash(&a).len(), 16);
    }
}
