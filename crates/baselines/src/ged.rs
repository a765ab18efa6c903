//! A graph-edit-distance (GED) system-level detector in the spirit of
//! ICCAD'20 \[21\] ("A general approach for identifying hierarchical
//! symmetry constraints for analog circuit layout").
//!
//! \[21\] trains a *supervised* GNN to predict the GED between subcircuit
//! pairs and thresholds the prediction. Reproducing its training would
//! require its labeled corpus; instead this module computes the
//! quantity that model regresses — an approximate GED — directly, via a
//! greedy signature assignment. That makes this baseline an upper bound
//! on \[21\]'s matching quality (its GNN approximates what we compute),
//! which is the right comparison target for Table I's row.
//!
//! Like S³DET it considers topology and *device-level* type labels, and
//! unlike the paper's framework it ignores subcircuit sizing — so it
//! inherits the same class of sizing false alarms.

use std::time::Instant;

use ancstr_core::detect::{DetectionResult, ScoredPair};
use ancstr_core::pairs::valid_pairs_of_kind;
use ancstr_core::pipeline::Extraction;
use ancstr_graph::{BuildOptions, HetMultigraph, VertexId};
use ancstr_netlist::flat::{FlatCircuit, HierNodeId, HierNodeKind};
use ancstr_netlist::{ConstraintSet, PortType, SymmetryConstraint, SymmetryKind};

/// Configuration of the GED baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GedConfig {
    /// Accept when `1 / (1 + GED / max(|V|))` exceeds this.
    pub threshold: f64,
    /// Multigraph construction options.
    pub build: BuildOptions,
}

impl Default for GedConfig {
    fn default() -> GedConfig {
        GedConfig { threshold: 0.7, build: BuildOptions::default() }
    }
}

/// Per-vertex structural signature: device type plus typed in/out degree
/// histograms.
#[derive(Debug, Clone, PartialEq)]
struct Signature {
    type_index: usize,
    in_hist: [usize; PortType::COUNT],
    out_hist: [usize; PortType::COUNT],
}

impl Signature {
    fn cost(&self, other: &Signature) -> f64 {
        let mut c = if self.type_index == other.type_index { 0.0 } else { 4.0 };
        for i in 0..PortType::COUNT {
            c += (self.in_hist[i] as f64 - other.in_hist[i] as f64).abs();
            c += (self.out_hist[i] as f64 - other.out_hist[i] as f64).abs();
        }
        c
    }
}

fn signatures(flat: &FlatCircuit, id: HierNodeId, build: &BuildOptions) -> Vec<Signature> {
    match flat.node(id).kind {
        HierNodeKind::Block { .. } => {
            let g = HetMultigraph::from_subtree(flat, id, build);
            (0..g.vertex_count())
                .map(|v| {
                    let vid = VertexId(v);
                    let mut in_hist = [0usize; PortType::COUNT];
                    for e in g.in_edges(vid) {
                        in_hist[e.port.index()] += 1;
                    }
                    let mut out_hist = [0usize; PortType::COUNT];
                    for e in g.out_edges(vid) {
                        out_hist[e.port.index()] += 1;
                    }
                    Signature {
                        type_index: flat.devices()[g.device_index(vid)]
                            .dtype
                            .one_hot_index(),
                        in_hist,
                        out_hist,
                    }
                })
                .collect()
        }
        HierNodeKind::Device(i) => vec![Signature {
            type_index: flat.devices()[i].dtype.one_hot_index(),
            in_hist: [0; PortType::COUNT],
            out_hist: [0; PortType::COUNT],
        }],
    }
}

/// Approximate GED between two signature multisets: greedy minimum-cost
/// assignment plus an insertion/deletion penalty for the size gap.
fn approx_ged(a: &[Signature], b: &[Signature]) -> f64 {
    const NODE_COST: f64 = 6.0;
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut used = vec![false; large.len()];
    let mut total = 0.0;
    for s in small {
        let mut best = f64::INFINITY;
        let mut best_j = None;
        for (j, l) in large.iter().enumerate() {
            if used[j] {
                continue;
            }
            let c = s.cost(l);
            if c < best {
                best = c;
                best_j = Some(j);
            }
        }
        if let Some(j) = best_j {
            used[j] = true;
            total += best;
        }
    }
    total + NODE_COST * (large.len() - small.len()) as f64
}

/// Normalized similarity in `(0, 1]`: `1 / (1 + GED / max(|V_a|, |V_b|))`.
pub fn ged_similarity(flat: &FlatCircuit, a: HierNodeId, b: HierNodeId, build: &BuildOptions) -> f64 {
    let sa = signatures(flat, a, build);
    let sb = signatures(flat, b, build);
    let ged = approx_ged(&sa, &sb);
    let scale = sa.len().max(sb.len()).max(1) as f64;
    1.0 / (1.0 + ged / scale)
}

/// Run the GED baseline over the *system-level* valid pairs.
pub fn ged_extract(flat: &FlatCircuit, config: &GedConfig) -> Extraction {
    let start = Instant::now();
    let mut scored = Vec::new();
    let mut constraints = ConstraintSet::new();
    for candidate in valid_pairs_of_kind(flat, SymmetryKind::System) {
        let score = ged_similarity(flat, candidate.pair.lo(), candidate.pair.hi(), &config.build);
        let accepted = score > config.threshold;
        if accepted {
            constraints.insert(SymmetryConstraint {
                hierarchy: candidate.hierarchy,
                pair: candidate.pair,
                kind: candidate.kind,
            });
        }
        scored.push(ScoredPair {
            candidate,
            score,
            accepted,
            threshold: config.threshold,
        });
    }
    Extraction {
        detection: DetectionResult {
            scored,
            constraints,
            system_threshold: config.threshold,
            warnings: Vec::new(),
            skipped: 0,
            block_ranking: None,
        },
        runtime: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_circuits::adc::adc1;
    use ancstr_core::pipeline::evaluate_detection;

    #[test]
    fn identical_blocks_have_similarity_one() {
        let flat = FlatCircuit::elaborate(&adc1()).unwrap();
        let a = flat.node_by_path("adc1/Xdac1a").unwrap().id;
        let b = flat.node_by_path("adc1/Xdac1b").unwrap().id;
        let s = ged_similarity(&flat, a, b, &BuildOptions::default());
        assert!((s - 1.0).abs() < 1e-12, "identical slices: {s}");
    }

    #[test]
    fn different_blocks_score_lower() {
        let flat = FlatCircuit::elaborate(&adc1()).unwrap();
        let dac = flat.node_by_path("adc1/Xdac1a").unwrap().id;
        let refbuf = flat.node_by_path("adc1/Xrefp").unwrap().id;
        let same = ged_similarity(&flat, dac, dac, &BuildOptions::default());
        let diff = ged_similarity(&flat, dac, refbuf, &BuildOptions::default());
        assert!(diff < same);
        assert!(diff < 0.7, "6-dev DAC vs 20-dev OTA: {diff}");
    }

    #[test]
    fn finds_identical_system_pairs_but_is_sizing_blind() {
        let flat = FlatCircuit::elaborate(&adc1()).unwrap();
        let ex = ged_extract(&flat, &GedConfig::default());
        let eval = evaluate_detection(&flat, ex);
        assert_eq!(eval.system.fn_, 0, "identical pairs found: {:?}", eval.system);
        // The scaled integrators share topology → GED false alarm.
        let i1 = flat.node_by_path("adc1/Xint1").unwrap().id;
        let i2 = flat.node_by_path("adc1/Xint2").unwrap().id;
        assert!(eval
            .extraction
            .detection
            .constraints
            .contains_pair(i1, i2));
        assert!(flat.ground_truth().get(i1, i2).is_none());
    }

    #[test]
    fn scores_are_in_unit_interval() {
        let flat = FlatCircuit::elaborate(&adc1()).unwrap();
        let ex = ged_extract(&flat, &GedConfig::default());
        for s in &ex.detection.scored {
            assert!((0.0..=1.0).contains(&s.score), "{}", s.score);
        }
    }
}
