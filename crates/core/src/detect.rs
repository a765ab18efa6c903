//! Symmetry constraint detection (paper Section IV-E, Algorithm 3,
//! Eqs. 4–5).

use std::collections::HashMap;
use std::mem::MaybeUninit;

use ancstr_netlist::flat::{FlatCircuit, HierNode, HierNodeId, HierNodeKind};
use ancstr_netlist::{ConstraintSet, PairKey, SymmetryConstraint, SymmetryKind};
use ancstr_nn::{dot, row_norm, Matrix};

use crate::embed::{embed_blocks, BlockRanking, EmbedOptions};
use crate::pairs::{pair_layout, pair_parents, CandidatePair, SiblingGroups};

/// Threshold parameters (Eq. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdConfig {
    /// Eq. 4 `α` (paper: 0.95).
    pub alpha: f64,
    /// Eq. 4 `β` (paper: 0.95).
    pub beta: f64,
    /// Hard cap of Eq. 4 (paper: 0.999).
    pub cap: f64,
    /// Device-level threshold (paper: 0.99).
    pub device: f64,
}

impl Default for ThresholdConfig {
    fn default() -> ThresholdConfig {
        ThresholdConfig { alpha: 0.95, beta: 0.95, cap: 0.999, device: 0.99 }
    }
}

impl ThresholdConfig {
    /// The system-level threshold
    /// `λ_th = min(cap, α + β / (1 + |N̂_sub|))` for a design whose
    /// largest proper subcircuit has `max_subcircuit_size` devices.
    pub fn system_threshold(&self, max_subcircuit_size: usize) -> f64 {
        (self.alpha + self.beta / (1.0 + max_subcircuit_size as f64)).min(self.cap)
    }
}

/// A numerical-health warning attached to a detection: a hierarchy node
/// whose feature vector contained NaN/Inf, so every pair touching it was
/// skipped instead of being scored with a poisoned cosine similarity.
///
/// Warnings are *counted records*: one per affected node, carrying how
/// many candidate pairs it suppressed, so a badly poisoned node emits
/// one line instead of one line per pair.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericWarning {
    /// The affected node.
    pub node: ancstr_netlist::HierNodeId,
    /// Its hierarchical path (for human-readable reporting).
    pub path: String,
    /// Number of candidate pairs skipped because this node's feature
    /// vector was non-finite.
    pub skipped_pairs: usize,
}

impl std::fmt::Display for NumericWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "skipped {} pair{} touching `{}`: non-finite feature vector",
            self.skipped_pairs,
            if self.skipped_pairs == 1 { "" } else { "s" },
            self.path
        )
    }
}

/// One scored candidate pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredPair {
    /// The candidate.
    pub candidate: CandidatePair,
    /// Cosine similarity of the pair's features (Eq. 5).
    pub score: f64,
    /// Whether `score > λ_th` (Algorithm 3 line 7).
    pub accepted: bool,
    /// The threshold applied to this pair.
    pub threshold: f64,
}

/// Output of [`detect_constraints`].
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionResult {
    /// All valid pairs with scores and decisions.
    pub scored: Vec<ScoredPair>,
    /// The accepted constraints `S`.
    pub constraints: ConstraintSet,
    /// The system-level threshold that was used.
    pub system_threshold: f64,
    /// Nodes whose features were non-finite; pairs touching them were
    /// skipped rather than scored (empty on a healthy run).
    pub warnings: Vec<NumericWarning>,
    /// How many valid pairs were skipped behind `warnings` instead of
    /// being scored.
    pub skipped: usize,
    /// How many blocks Algorithm 2 embedded and how many distinct
    /// digraphs it ranked for them. `None` when this detection did not
    /// run Algorithm 2: a reloaded detect stage, or a baseline detector.
    pub block_ranking: Option<BlockRanking>,
}

impl DetectionResult {
    /// How many valid pairs the detection considered: every scored
    /// pair and every skipped one.
    pub fn candidates(&self) -> usize {
        self.scored.len() + self.skipped
    }
}

/// Per-node facts hoisted out of the O(pairs) scoring loop: each node's
/// finiteness flag and full-vector L2 norm are computed once instead of
/// once per pair the node appears in.
struct NodeStat {
    finite: bool,
    norm: f64,
}

/// The features Algorithm 3 compares: device rows of `z`, and the
/// Algorithm 2 embedding of every compared block, with their hoisted
/// [`NodeStat`]s.
struct Features<'a> {
    flat: &'a FlatCircuit,
    z: &'a Matrix,
    blocks: &'a [Option<Vec<f64>>],
    stats: Vec<Option<NodeStat>>,
}

impl<'a> Features<'a> {
    /// Device norms come from the row-norm kernel via
    /// `Matrix::row_norms`; block-embedding norms go through the same
    /// free `row_norm`, one source of truth for the denominator
    /// arithmetic. Stats are taken for the `compared` nodes only.
    fn new(
        flat: &'a FlatCircuit,
        z: &'a Matrix,
        blocks: &'a [Option<Vec<f64>>],
        compared: &[bool],
    ) -> Features<'a> {
        let mut features = Features { flat, z, blocks, stats: Vec::new() };
        let device_norms = z.row_norms();
        features.stats = (0..compared.len())
            .map(|raw| {
                if !compared[raw] {
                    return None;
                }
                let id = HierNodeId(raw);
                let feature = features.of(id);
                let norm = match &flat.node(id).kind {
                    HierNodeKind::Device(i) => device_norms[*i],
                    HierNodeKind::Block { .. } => row_norm(feature),
                };
                Some(NodeStat { finite: feature.iter().all(|x| x.is_finite()), norm })
            })
            .collect();
        features
    }

    fn of(&self, id: HierNodeId) -> &'a [f64] {
        match &self.flat.node(id).kind {
            HierNodeKind::Device(i) => self.z.row(*i),
            HierNodeKind::Block { .. } => {
                self.blocks[id.0].as_deref().expect("every compared block has an embedding")
            }
        }
    }

    /// The pair's cosine similarity, or which of its two nodes
    /// (`lo`, `hi`) has a non-finite feature. A NaN anywhere would turn
    /// the score into NaN, which compares false against every threshold
    /// and silently becomes a rejection; it is surfaced as a counted
    /// warning instead.
    fn score(&self, pair: PairKey) -> Result<f64, (bool, bool)> {
        let stat = |id: HierNodeId| {
            self.stats[id.0].as_ref().expect("every candidate node is compared")
        };
        let (sa, sb) = (stat(pair.lo()), stat(pair.hi()));
        if !sa.finite || !sb.finite {
            return Err((!sa.finite, !sb.finite));
        }
        Ok(if sa.norm == 0.0 || sb.norm == 0.0 {
            0.0
        } else {
            dot(self.of(pair.lo()), self.of(pair.hi())) / (sa.norm * sb.norm)
        })
    }
}

/// Algorithm 3 line 7 for one scored candidate: the level's threshold
/// and the decision.
fn decide(
    candidate: CandidatePair,
    score: f64,
    lambda_sys: f64,
    thresholds: &ThresholdConfig,
) -> ScoredPair {
    let threshold = match candidate.kind {
        SymmetryKind::System => lambda_sys,
        SymmetryKind::Device => thresholds.device,
    };
    ScoredPair { candidate, score, accepted: score > threshold, threshold }
}

/// The accepted constraints and the counted warnings, folded from the
/// scored and the skipped candidates in candidate order.
#[derive(Default)]
struct Fold {
    constraints: ConstraintSet,
    warnings: Vec<NumericWarning>,
    warned: HashMap<HierNodeId, usize>,
    skipped: usize,
}

impl Fold {
    fn scored(&mut self, s: &ScoredPair) {
        if s.accepted {
            self.constraints.insert(SymmetryConstraint {
                hierarchy: s.candidate.hierarchy,
                pair: s.candidate.pair,
                kind: s.candidate.kind,
            });
        }
    }

    fn skipped(&mut self, flat: &FlatCircuit, pair: PairKey, (lo_bad, hi_bad): (bool, bool)) {
        self.skipped += 1;
        for (id, bad) in [(pair.lo(), lo_bad), (pair.hi(), hi_bad)] {
            if !bad {
                continue;
            }
            let warnings = &mut self.warnings;
            let slot = *self.warned.entry(id).or_insert_with(|| {
                warnings.push(NumericWarning {
                    node: id,
                    path: flat.node(id).path.clone(),
                    skipped_pairs: 0,
                });
                warnings.len() - 1
            });
            warnings[slot].skipped_pairs += 1;
        }
    }

    fn finish(self, scored: Vec<ScoredPair>, lambda_sys: f64) -> DetectionResult {
        DetectionResult {
            scored,
            constraints: self.constraints,
            system_threshold: lambda_sys,
            warnings: self.warnings,
            skipped: self.skipped,
            block_ranking: None,
        }
    }
}

/// What one chunk of parents found. Its scored pairs are already in
/// the output, packed from the start of its parents' region.
struct Part {
    /// Where the chunk's parents' pairs start in candidate order.
    start: usize,
    /// How many of them were scored, and how many of those accepted.
    scored: usize,
    accepted: usize,
    /// Candidates skipped for a non-finite feature, with which of the
    /// two nodes is at fault.
    skipped: Vec<(PairKey, (bool, bool))>,
}

/// Parents per chunk of the scoring pass, at least. Below
/// [`ancstr_par::PAR_ITEM_FLOOR`] parents the pass runs inline anyway.
const PARENTS_PER_CHUNK: usize = 16;

/// Algorithm 3: score every valid pair with cosine similarity and keep
/// those above the level-appropriate threshold.
///
/// * device-level pairs compare the two devices' trained GNN vectors;
/// * system-level pairs between blocks compare Algorithm 2 circuit
///   embeddings;
/// * system-level pairs between passive devices compare device vectors
///   against the system threshold (they are primitives living among
///   blocks).
///
/// Valid pairs never cross a hierarchy level, so each parent's pair
/// count, and with it where its pairs fall in candidate order, is known
/// from its sibling-group sizes before any pair is scored. `scored` is
/// allocated once at that size, and one pass over the non-`Logic`
/// parents, split into chunks, enumerates, scores and decides each
/// parent's sibling pairs straight into it; no candidate list is built.
/// Skipped candidates leave gaps, which one in-order pass closes. The
/// constraints and warnings are folded in candidate order, so the
/// result is identical at any thread count.
///
/// Per-node norms and finiteness flags are hoisted out of the pair loop
/// (computed once per node, not once per pair); the resulting quotient
/// `dot / (‖a‖·‖b‖)` is bit-identical to calling
/// [`ancstr_nn::cosine_similarity`] per pair, so scores, decisions and
/// warnings match the historical implementation exactly.
///
/// # Panics
///
/// Panics if `z` has fewer rows than the circuit has devices.
pub fn detect_constraints(
    flat: &FlatCircuit,
    z: &Matrix,
    thresholds: &ThresholdConfig,
    embed: &EmbedOptions,
) -> DetectionResult {
    assert!(
        z.rows() >= flat.devices().len(),
        "need one trained feature row per device"
    );
    // Algorithm 2 runs only where Algorithm 3 looks: the blocks with a
    // same-class sibling.
    let layout = pair_layout(flat);
    let (block_embeddings, ranking) = embed_blocks(flat, z, embed, &layout.compared);
    let features = Features::new(flat, z, &block_embeddings, &layout.compared);
    let lambda_sys = thresholds.system_threshold(flat.max_subcircuit_size());

    let parents: Vec<&HierNode> = pair_parents(flat).collect();
    let offsets = &layout.offsets;
    let mut scored: Vec<ScoredPair> = Vec::with_capacity(offsets[parents.len()]);
    let base = ancstr_par::SendPtr::new(scored.as_mut_ptr().cast::<MaybeUninit<ScoredPair>>());
    let parts = ancstr_par::map_chunks(parents.len(), PARENTS_PER_CHUNK, |range| {
        let start = offsets[range.start];
        // SAFETY: `offsets` is a prefix sum ending at the capacity, and
        // chunk ranges are disjoint, so each chunk's region lies inside
        // the allocation and no other chunk touches it. Writes index the
        // region, so a miscounted parent panics instead of overrunning.
        let region = unsafe {
            std::slice::from_raw_parts_mut(base.get().add(start), offsets[range.end] - start)
        };
        let mut part = Part { start, scored: 0, accepted: 0, skipped: Vec::new() };
        let mut groups = SiblingGroups::default();
        for parent in &parents[range] {
            groups.group(flat, parent);
            groups.for_each_pair(flat, parent, |candidate| {
                match features.score(candidate.pair) {
                    Ok(score) => {
                        let s = decide(candidate, score, lambda_sys, thresholds);
                        part.accepted += usize::from(s.accepted);
                        region[part.scored].write(s);
                        part.scored += 1;
                    }
                    Err(bad) => part.skipped.push((candidate.pair, bad)),
                }
            });
        }
        assert_eq!(part.scored + part.skipped.len(), region.len(), "pair count off");
        part
    });

    // Close the gaps skipped candidates left, in candidate order.
    let mut len = 0;
    for part in &parts {
        if part.start != len {
            // SAFETY: `len <= part.start`, both ranges lie in the
            // allocation, and the part's chunk wrote its first
            // `part.scored` slots; `copy` allows the ranges to overlap.
            unsafe {
                let from = scored.as_ptr().add(part.start);
                std::ptr::copy(from, scored.as_mut_ptr().add(len), part.scored);
            }
        }
        len += part.scored;
    }
    // SAFETY: the first `len` slots now hold the scored pairs, in order.
    unsafe { scored.set_len(len) };

    let accepted = parts.iter().map(|p| p.accepted).sum();
    let mut fold = Fold { constraints: ConstraintSet::with_capacity(accepted), ..Fold::default() };
    scored.iter().for_each(|s| fold.scored(s));
    for (pair, bad) in parts.into_iter().flat_map(|p| p.skipped) {
        fold.skipped(flat, pair, bad);
    }
    DetectionResult { block_ranking: Some(ranking), ..fold.finish(scored, lambda_sys) }
}

/// The candidate-list scorer Algorithm 3 was first written as: score
/// `candidates` in order over the per-node features (device rows of `z`,
/// and the `block_embeddings` of every `compared` block). The oracle of
/// the one-pass scorer.
#[cfg(test)]
fn score_candidates(
    flat: &FlatCircuit,
    z: &Matrix,
    thresholds: &ThresholdConfig,
    candidates: Vec<CandidatePair>,
    compared: &[bool],
    block_embeddings: &[Option<Vec<f64>>],
) -> DetectionResult {
    let lambda_sys = thresholds.system_threshold(flat.max_subcircuit_size());
    let features = Features::new(flat, z, block_embeddings, compared);
    let mut scored = Vec::new();
    let mut fold = Fold::default();
    for candidate in candidates {
        match features.score(candidate.pair) {
            Ok(score) => {
                let s = decide(candidate, score, lambda_sys, thresholds);
                fold.scored(&s);
                scored.push(s);
            }
            Err(bad) => fold.skipped(flat, candidate.pair, bad),
        }
    }
    fold.finish(scored, lambda_sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::valid_pairs;
    use ancstr_netlist::parse::parse_spice;
    use ancstr_nn::cosine_similarity;

    #[test]
    fn eq4_threshold_shape() {
        let t = ThresholdConfig::default();
        // Tiny design: 0.95 + 0.95/(1+2) ≈ 1.27 → capped at 0.999.
        assert_eq!(t.system_threshold(2), 0.999);
        // Large design: approaches α.
        let large = t.system_threshold(500);
        assert!(large > 0.95 && large < 0.96);
        // Monotone decreasing in subcircuit size.
        assert!(t.system_threshold(10) >= t.system_threshold(100));
    }

    fn two_inv() -> FlatCircuit {
        let nl = parse_spice(
            "\
.subckt inv in out vdd vss
Mp out in vdd vdd pch w=2u l=0.1u
Mn out in vss vss nch w=1u l=0.1u
.ends
.subckt top a y vdd vss
X1 a m vdd vss inv
X2 m y vdd vss inv
C1 a vss 10f
C2 y vss 10f
.ends
",
        )
        .unwrap();
        FlatCircuit::elaborate(&nl).unwrap()
    }

    #[test]
    fn identical_embeddings_are_accepted() {
        let flat = two_inv();
        // 6 devices; give matched ones identical vectors.
        let z = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[0.5, 0.5],
            &[0.5, 0.5],
        ]);
        let result = detect_constraints(
            &flat,
            &z,
            &ThresholdConfig::default(),
            &EmbedOptions::default(),
        );
        // Valid pairs: (X1, X2) blocks and (C1, C2) passives → both
        // system-level, both perfectly similar.
        assert_eq!(result.scored.len(), 2);
        assert!(result.scored.iter().all(|s| s.accepted));
        assert_eq!(result.constraints.len(), 2);
        let x1 = flat.node_by_path("top/X1").unwrap().id;
        let x2 = flat.node_by_path("top/X2").unwrap().id;
        assert!(result.constraints.contains_pair(x1, x2));
    }

    #[test]
    fn dissimilar_embeddings_are_rejected() {
        let flat = two_inv();
        let z = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[-0.2, 0.9],
            &[0.9, -0.2],
            &[0.5, 0.5],
            &[-0.5, 0.5],
        ]);
        let result = detect_constraints(
            &flat,
            &z,
            &ThresholdConfig::default(),
            &EmbedOptions::default(),
        );
        assert!(result.scored.iter().all(|s| !s.accepted));
        assert!(result.constraints.is_empty());
    }

    #[test]
    fn device_pairs_use_device_threshold() {
        let nl = parse_spice(
            "\
.subckt cell a b vdd vss
M1 a b t vss nch w=1u l=0.1u
M2 b a t vss nch w=1u l=0.1u
.ends
",
        )
        .unwrap();
        let flat = FlatCircuit::elaborate(&nl).unwrap();
        // Similarity 0.995: above device λ = 0.99 → accepted.
        let z = Matrix::from_rows(&[&[1.0, 0.1], &[1.0, 0.0]]);
        let sim = cosine_similarity(z.row(0), z.row(1));
        assert!(sim > 0.99 && sim < 0.999);
        let result = detect_constraints(
            &flat,
            &z,
            &ThresholdConfig::default(),
            &EmbedOptions::default(),
        );
        assert_eq!(result.scored.len(), 1);
        assert_eq!(result.scored[0].threshold, 0.99);
        assert!(result.scored[0].accepted);
    }

    #[test]
    fn non_finite_rows_are_skipped_with_warnings() {
        let nl = parse_spice(
            "\
.subckt cell a b vdd vss
M1 a b t vss nch w=1u l=0.1u
M2 b a t vss nch w=1u l=0.1u
M3 a b s vss nch w=2u l=0.1u
M4 b a s vss nch w=2u l=0.1u
.ends
",
        )
        .unwrap();
        let flat = FlatCircuit::elaborate(&nl).unwrap();
        // M1's row is poisoned; the matched M3/M4 pair stays scoreable.
        let z = Matrix::from_rows(&[
            &[f64::NAN, 1.0],
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[0.0, 1.0],
        ]);
        let result = detect_constraints(
            &flat,
            &z,
            &ThresholdConfig::default(),
            &EmbedOptions::default(),
        );
        // No NaN score leaks out.
        assert!(result.scored.iter().all(|s| s.score.is_finite()));
        // The poisoned device is reported exactly once, by path, with
        // the number of pairs it suppressed.
        assert_eq!(result.warnings.len(), 1);
        assert_eq!(result.warnings[0].path, "cell/M1");
        assert!(result.warnings[0].skipped_pairs >= 1);
        let rendered = result.warnings[0].to_string();
        assert!(rendered.contains("cell/M1"), "{rendered}");
        assert!(
            rendered.contains(&result.warnings[0].skipped_pairs.to_string()),
            "{rendered}"
        );
        // The healthy pair is still detected.
        let m3 = flat.node_by_path("cell/M3").unwrap().id;
        let m4 = flat.node_by_path("cell/M4").unwrap().id;
        assert!(result.constraints.contains_pair(m3, m4));
        // No scored entry touches the poisoned node.
        let m1 = flat.node_by_path("cell/M1").unwrap().id;
        assert!(result
            .scored
            .iter()
            .all(|s| s.candidate.pair.lo() != m1 && s.candidate.pair.hi() != m1));
    }

    #[test]
    fn embedding_only_compared_blocks_matches_the_all_blocks_path() {
        // `buf` is a Logic block, so its inverter children are never
        // compared; `wrap`'s inverter is an only child; `wrap` itself has
        // no same-class sibling. Only XB1/XB2 (and C1/C2) are candidates.
        let nl = parse_spice(
            "\
.subckt inv in out vdd vss
*.class inverter
Mp out in vdd vdd pch w=2u l=0.1u
Mn out in vss vss nch w=1u l=0.1u
.ends
.subckt buf in out vdd vss
*.class logic
X1 in m vdd vss inv
X2 m out vdd vss inv
.ends
.subckt wrap in out vdd vss
X0 in out vdd vss inv
.ends
.subckt top a y vdd vss
XB1 a m vdd vss buf
XB2 m y vdd vss buf
XW a y vdd vss wrap
C1 a vss 10f
C2 y vss 10f
.ends
",
        )
        .unwrap();
        let flat = FlatCircuit::elaborate(&nl).unwrap();
        let n = flat.devices().len();
        let z = Matrix::from_fn(n, 3, |r, c| ((r * 7 + c * 3) % 5) as f64 - 1.5);
        let (cfg, opts) = (ThresholdConfig::default(), EmbedOptions::default());

        let compared = pair_layout(&flat).compared;
        let compared_blocks: Vec<&str> =
            flat.blocks().filter(|b| compared[b.id.0]).map(|b| b.path.as_str()).collect();
        assert_eq!(compared_blocks, ["top/XB1", "top/XB2"]);

        // The old path: every block embedded, every node's stats taken.
        let all = vec![true; flat.nodes().len()];
        let reference = score_candidates(
            &flat,
            &z,
            &cfg,
            valid_pairs(&flat),
            &all,
            &embed_blocks(&flat, &z, &opts, &all).0,
        );
        let got = detect_constraints(&flat, &z, &cfg, &opts);
        let ranking = got.block_ranking.expect("detection ran Algorithm 2");
        assert_eq!(ranking.blocks_compared, 2);
        let got = DetectionResult { block_ranking: None, ..got };
        assert_eq!(got, reference);
    }

    /// The one pass over sibling groups equals the candidate-list
    /// oracle, score bits and warnings included, on every benchmark
    /// design with a few non-finite rows.
    #[test]
    fn one_pass_scoring_matches_the_candidate_list_oracle() {
        let mut designs = ancstr_circuits::adc::adc_benchmarks();
        designs.extend(ancstr_circuits::block_benchmarks(7));
        designs.push(ancstr_circuits::stress::stress_system(2000, 7));
        let (cfg, opts) = (ThresholdConfig::default(), EmbedOptions::default());
        let (mut accepted, mut skipped) = (0, 0);
        for nl in &designs {
            let flat = FlatCircuit::elaborate(nl).unwrap();
            let n = flat.devices().len();
            let z = Matrix::from_fn(n, 3, |r, c| {
                if r % 151 == 40 && c == 1 {
                    f64::NAN
                } else {
                    ((r * 7 + c * 3) % 5) as f64 - 1.5
                }
            });
            let compared = pair_layout(&flat).compared;
            let want = score_candidates(
                &flat,
                &z,
                &cfg,
                valid_pairs(&flat),
                &compared,
                &embed_blocks(&flat, &z, &opts, &compared).0,
            );
            let got = detect_constraints(&flat, &z, &cfg, &opts);
            let got = DetectionResult { block_ranking: None, ..got };
            let bits = |d: &DetectionResult| -> Vec<u64> {
                d.scored.iter().map(|s| s.score.to_bits()).collect()
            };
            assert_eq!(bits(&got), bits(&want), "{}", nl.top());
            assert_eq!(got, want, "{}", nl.top());
            accepted += got.constraints.len();
            skipped += got.skipped;
        }
        assert!(accepted > 0 && skipped > 0, "{accepted} accepted, {skipped} skipped");
    }

    #[test]
    fn healthy_runs_produce_no_warnings() {
        let flat = two_inv();
        let result = detect_constraints(
            &flat,
            &Matrix::identity(6),
            &ThresholdConfig::default(),
            &EmbedOptions::default(),
        );
        assert!(result.warnings.is_empty());
    }

    #[test]
    fn scores_are_reported_for_roc() {
        let flat = two_inv();
        let z = Matrix::identity(6);
        let result = detect_constraints(
            &flat,
            &z,
            &ThresholdConfig::default(),
            &EmbedOptions::default(),
        );
        for s in &result.scored {
            assert!((-1.0..=1.0).contains(&s.score));
        }
    }
}
