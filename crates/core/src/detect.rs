//! Symmetry constraint detection (paper Section IV-E, Algorithm 3,
//! Eqs. 4–5).

use ancstr_graph::{BuildOptions, HetMultigraph};
use ancstr_netlist::flat::{FlatCircuit, HierNodeKind};
use ancstr_netlist::{ConstraintSet, SymmetryConstraint, SymmetryKind};
use ancstr_nn::{dot, row_norm, Matrix};

use crate::embed::{embed_blocks, BlockRanking, EmbedOptions};
use crate::pairs::{compared_nodes, valid_pairs, CandidatePair};

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
    /// How many blocks Algorithm 2 embedded and how many distinct
    /// digraphs it ranked for them. `None` when this detection did not
    /// run Algorithm 2: a reloaded detect stage, or a baseline detector.
    pub block_ranking: Option<BlockRanking>,
}

impl DetectionResult {
    /// Scored pairs of one level.
    pub fn scored_of_kind(&self, kind: SymmetryKind) -> impl Iterator<Item = &ScoredPair> {
        self.scored.iter().filter(move |s| s.candidate.kind == kind)
    }
}

/// Per-node facts hoisted out of the O(pairs) scoring loop: each node's
/// finiteness flag and full-vector L2 norm are computed once instead of
/// once per pair the node appears in.
struct NodeStat {
    finite: bool,
    norm: f64,
}

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
    // Algorithm 2 runs only where Algorithm 3 looks: the blocks of some
    // candidate pair.
    let candidates = valid_pairs(flat);
    let compared = compared_nodes(flat, &candidates);
    let (block_embeddings, ranking) = embed_blocks(flat, z, embed, &compared);
    DetectionResult {
        block_ranking: Some(ranking),
        ..score_candidates(flat, z, thresholds, candidates, &compared, &block_embeddings)
    }
}

/// Algorithm 3's scoring of `candidates` over the per-node features:
/// device rows of `z`, and the `block_embeddings` of every `compared`
/// block.
fn score_candidates(
    flat: &FlatCircuit,
    z: &Matrix,
    thresholds: &ThresholdConfig,
    candidates: Vec<CandidatePair>,
    compared: &[bool],
    block_embeddings: &[Option<Vec<f64>>],
) -> DetectionResult {
    let lambda_sys = thresholds.system_threshold(flat.max_subcircuit_size());

    fn feature_of<'a>(
        flat: &FlatCircuit,
        z: &'a Matrix,
        block_embeddings: &'a [Option<Vec<f64>>],
        id: ancstr_netlist::HierNodeId,
    ) -> &'a [f64] {
        match &flat.node(id).kind {
            HierNodeKind::Device(i) => z.row(*i),
            HierNodeKind::Block { .. } => block_embeddings[id.0]
                .as_deref()
                .expect("every compared block has an embedding"),
        }
    }

    // Hoisted per-node stats, for the compared nodes only. Device norms
    // come from the row-norm kernel via `Matrix::row_norms`;
    // block-embedding norms go through the same free `row_norm` — one
    // source of truth for the denominator arithmetic.
    let device_norms = z.row_norms();
    let stats: Vec<Option<NodeStat>> = (0..compared.len())
        .map(|raw| {
            if !compared[raw] {
                return None;
            }
            let id = ancstr_netlist::HierNodeId(raw);
            let feature = feature_of(flat, z, block_embeddings, id);
            let norm = match &flat.node(id).kind {
                HierNodeKind::Device(i) => device_norms[*i],
                HierNodeKind::Block { .. } => row_norm(feature),
            };
            Some(NodeStat { finite: feature.iter().all(|x| x.is_finite()), norm })
        })
        .collect();
    let stat = |id: ancstr_netlist::HierNodeId| {
        stats[id.0].as_ref().expect("every candidate node is compared")
    };

    /// What the parallel scoring pass found for one candidate, in
    /// candidate order; folded serially below so warning/constraint
    /// encounter order is identical to the historical sequential loop.
    enum PairOutcome {
        Scored(f64),
        Skipped { lo_bad: bool, hi_bad: bool },
    }

    let outcomes = ancstr_par::map_items(&candidates, 64, |candidate| {
        let (sa, sb) = (stat(candidate.pair.lo()), stat(candidate.pair.hi()));
        // A NaN anywhere would turn the cosine score into NaN, which
        // compares false against every threshold and silently becomes a
        // rejection. Surface it as a counted warning record instead.
        if !sa.finite || !sb.finite {
            return PairOutcome::Skipped { lo_bad: !sa.finite, hi_bad: !sb.finite };
        }
        let za = feature_of(flat, z, block_embeddings, candidate.pair.lo());
        let zb = feature_of(flat, z, block_embeddings, candidate.pair.hi());
        PairOutcome::Scored(if sa.norm == 0.0 || sb.norm == 0.0 {
            0.0
        } else {
            dot(za, zb) / (sa.norm * sb.norm)
        })
    });

    let mut scored = Vec::new();
    let mut constraints = ConstraintSet::new();
    let mut warnings: Vec<NumericWarning> = Vec::new();
    let mut warned = std::collections::HashMap::new();
    for (candidate, outcome) in candidates.into_iter().zip(outcomes) {
        let score = match outcome {
            PairOutcome::Skipped { lo_bad, hi_bad } => {
                for (id, bad) in
                    [(candidate.pair.lo(), lo_bad), (candidate.pair.hi(), hi_bad)]
                {
                    if !bad {
                        continue;
                    }
                    let slot = *warned.entry(id).or_insert_with(|| {
                        warnings.push(NumericWarning {
                            node: id,
                            path: flat.node(id).path.clone(),
                            skipped_pairs: 0,
                        });
                        warnings.len() - 1
                    });
                    warnings[slot].skipped_pairs += 1;
                }
                continue;
            }
            PairOutcome::Scored(score) => score,
        };
        let threshold = match candidate.kind {
            SymmetryKind::System => lambda_sys,
            SymmetryKind::Device => thresholds.device,
        };
        let accepted = score > threshold;
        if accepted {
            constraints.insert(SymmetryConstraint {
                hierarchy: candidate.hierarchy,
                pair: candidate.pair,
                kind: candidate.kind,
            });
        }
        scored.push(ScoredPair { candidate, score, accepted, threshold });
    }
    DetectionResult {
        scored,
        constraints,
        system_threshold: lambda_sys,
        warnings,
        block_ranking: None,
    }
}

/// Detect *self-symmetric* devices: modules placed on the symmetry axis
/// (tail current sources, clock tails, equalizer switches).
///
/// A device is flagged when (a) it participates in no accepted pairwise
/// constraint, and (b) its in-neighbours pair up among themselves — for
/// every neighbour `u` there is a distinct neighbour `u'` with
/// `cos(z_u, z_u') > pair_threshold` — i.e. the device bridges two
/// matched halves. This extends the paper's pairwise output with the
/// axis annotations analog placers additionally need (the benchmark
/// generators record them as `*.selfsym`). Neighbours come from the
/// circuit's multigraph built with `build` — pass the extractor's
/// `ExtractorConfig::build`, so the axis check sees the graph the model
/// was trained on.
///
/// Returns hierarchy node ids of the flagged devices, sorted.
pub fn detect_self_symmetric(
    flat: &FlatCircuit,
    z: &Matrix,
    detection: &DetectionResult,
    pair_threshold: f64,
    build: &BuildOptions,
) -> Vec<ancstr_netlist::HierNodeId> {
    let g = HetMultigraph::from_circuit(flat, build);
    let mut paired = std::collections::HashSet::new();
    for c in detection.constraints.iter() {
        paired.insert(c.pair.lo());
        paired.insert(c.pair.hi());
    }

    // Hoisted per-device row norms: the nested neighbour check below
    // compares O(pairs) combinations, and recomputing both norms inside
    // `cosine_similarity` per comparison re-normalized each row once
    // per *pair* instead of once per *device*. `row_norms` uses the
    // exact arithmetic of `cosine_similarity`'s denominators, so the
    // quotient below is bit-identical to the old nested call.
    let norms = z.row_norms();
    let cosine = |iu: usize, iw: usize| -> f64 {
        if norms[iu] == 0.0 || norms[iw] == 0.0 {
            return 0.0;
        }
        dot(z.row(iu), z.row(iw)) / (norms[iu] * norms[iw])
    };

    let mut out = Vec::new();
    for (i, d) in flat.devices().iter().enumerate() {
        if paired.contains(&d.node) {
            continue;
        }
        let Some(v) = g.vertex_for_device(i) else { continue };
        let neighbors = g.in_neighbors(v);
        if neighbors.len() < 2 {
            continue;
        }
        // Every neighbour must have a distinct matching partner.
        let all_paired = neighbors.iter().all(|&u| {
            neighbors.iter().any(|&w| {
                u != w && cosine(g.device_index(u), g.device_index(w)) > pair_threshold
            })
        });
        if all_paired {
            out.push(d.node);
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn self_symmetric_tail_is_flagged() {
        // A differential pair M1/M2 over a tail M5: the tail's
        // neighbours (M1, M2) are matched, so M5 sits on the axis.
        let nl = parse_spice(
            "\
.subckt dp inp inn o1 o2 ib vdd vss
M1 o1 inp tail vss nch w=4u l=0.2u
M2 o2 inn tail vss nch w=4u l=0.2u
M5 tail ib vss vss nch w=2u l=0.5u
.ends
",
        )
        .unwrap();
        let flat = FlatCircuit::elaborate(&nl).unwrap();
        // Matched features for M1/M2, distinct for M5.
        let z = Matrix::from_rows(&[&[1.0, 0.2], &[1.0, 0.2], &[0.1, 1.0]]);
        let detection = detect_constraints(
            &flat,
            &z,
            &ThresholdConfig::default(),
            &EmbedOptions::default(),
        );
        let selfsym = detect_self_symmetric(&flat, &z, &detection, 0.95, &BuildOptions::default());
        let m5 = flat.node_by_path("dp/M5").unwrap().id;
        assert!(selfsym.contains(&m5), "tail flagged: {selfsym:?}");
        // The paired devices themselves are not flagged.
        let m1 = flat.node_by_path("dp/M1").unwrap().id;
        assert!(!selfsym.contains(&m1));
    }

    #[test]
    fn asymmetric_devices_are_not_self_symmetric() {
        let nl = parse_spice(
            "\
.subckt c a b vdd vss
M1 x a y vss nch w=1u l=0.1u
M2 y b vss vss nch w=3u l=0.3u
M3 x x vdd vdd pch w=2u l=0.1u
.ends
",
        )
        .unwrap();
        let flat = FlatCircuit::elaborate(&nl).unwrap();
        // All-distinct features: nothing pairs, nothing is on an axis.
        let z = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[-1.0, 0.5]]);
        let detection = detect_constraints(
            &flat,
            &z,
            &ThresholdConfig::default(),
            &EmbedOptions::default(),
        );
        let selfsym = detect_self_symmetric(&flat, &z, &detection, 0.95, &BuildOptions::default());
        assert!(selfsym.is_empty(), "{selfsym:?}");
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

        let compared = compared_nodes(&flat, &valid_pairs(&flat));
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
