//! Reimplementation of the MAGICAL signal-flow-analysis (SFA)
//! device-level symmetry detector (ICCAD'19 \[6\]).
//!
//! SFA pattern-matches structural motifs on the circuit graph:
//! differential pairs, current mirrors, cross-coupled pairs, clocked
//! pass pairs, and common-net passive pairs. It is fast and recalls
//! aggressively, but it is *sizing-blind*: two same-type transistors
//! hanging off the same nets are marked matched regardless of W/L — the
//! over-marking that gives it a higher TPR and a much higher FPR than
//! the GNN (paper Table VI). Being a heuristic, it produces one point in
//! ROC space rather than a curve (paper Fig. 7).

use std::time::Instant;

use ancstr_core::detect::{DetectionResult, ScoredPair};
use ancstr_core::pairs::valid_pairs_of_kind;
use ancstr_core::pipeline::Extraction;
use ancstr_netlist::flat::{FlatCircuit, FlatDevice, HierNodeKind, NetId};
use ancstr_netlist::{ConstraintSet, SymmetryConstraint, SymmetryKind};

/// MOS pin view used by the patterns.
struct MosPins {
    d: NetId,
    g: NetId,
    s: NetId,
}

fn mos_pins(dev: &FlatDevice) -> Option<MosPins> {
    if dev.dtype.is_mos() || dev.dtype.is_bjt() {
        Some(MosPins { d: dev.pins[0], g: dev.pins[1], s: dev.pins[2] })
    } else {
        None
    }
}

/// Decide whether SFA's patterns match a device pair.
fn matches_pattern(a: &FlatDevice, b: &FlatDevice) -> bool {
    if a.dtype != b.dtype {
        return false;
    }
    if let (Some(pa), Some(pb)) = (mos_pins(a), mos_pins(b)) {
        // Differential pair: common source, distinct gates and drains.
        let diff_pair = pa.s == pb.s && pa.g != pb.g && pa.d != pb.d;
        // Current mirror: common gate and common source.
        let mirror = pa.g == pb.g && pa.s == pb.s;
        // Cross-coupled: each gate on the other's drain.
        let cross = pa.g == pb.d && pb.g == pa.d;
        // Clocked pass pair: common gate, symmetric roles.
        let pass_pair = pa.g == pb.g && (pa.d == pb.d || pa.s == pb.s);
        return diff_pair || mirror || cross || pass_pair;
    }
    // Passives (whatever their values, the published aggressive
    // behaviour) and diodes: marked when they share a net.
    a.pins.iter().any(|n| b.pins.contains(n))
}

/// Run SFA on one circuit: binary decisions over the *device-level*
/// valid pairs (SFA does not produce system-level constraints).
pub fn sfa_extract(flat: &FlatCircuit) -> Extraction {
    let start = Instant::now();
    let candidates = valid_pairs_of_kind(flat, SymmetryKind::Device);
    let mut scored = Vec::with_capacity(candidates.len());
    let mut constraints = ConstraintSet::new();
    for candidate in candidates {
        let (a, b) = (candidate.pair.lo(), candidate.pair.hi());
        let (HierNodeKind::Device(ia), HierNodeKind::Device(ib)) =
            (&flat.node(a).kind, &flat.node(b).kind)
        else {
            continue; // device-level pairs are always leaves
        };
        let accepted = matches_pattern(&flat.devices()[*ia], &flat.devices()[*ib]);
        if accepted {
            constraints.insert(SymmetryConstraint {
                hierarchy: candidate.hierarchy,
                pair: candidate.pair,
                kind: candidate.kind,
            });
        }
        scored.push(ScoredPair {
            candidate,
            score: if accepted { 1.0 } else { 0.0 },
            accepted,
            threshold: 0.5,
        });
    }
    Extraction {
        detection: DetectionResult {
            scored,
            constraints,
            system_threshold: 0.5,
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
    use ancstr_circuits::comparator::comp2;
    use ancstr_circuits::ota::ota1;
    use ancstr_core::pipeline::evaluate_detection;
    use ancstr_netlist::parse::parse_spice;

    #[test]
    fn finds_classic_patterns() {
        let flat = FlatCircuit::elaborate(&comp2(1)).unwrap();
        let ex = sfa_extract(&flat);
        let eval = evaluate_detection(&flat, ex);
        // comp2 is all classic motifs: diff pair, cross-coupled ×2.
        assert_eq!(eval.device.fn_, 0, "{:?}", eval.device);
        assert!(eval.device.tp >= 3);
    }

    #[test]
    fn sizing_blindness_over_marks() {
        // ota1's tail/sink/bias NMOS devices share gate (ibias) and
        // source (vss) → the mirror pattern fires although their sizes
        // differ (ground-truth negatives).
        let flat = FlatCircuit::elaborate(&ota1(3)).unwrap();
        let ex = sfa_extract(&flat);
        let eval = evaluate_detection(&flat, ex);
        assert!(eval.device.fp > 0, "expected false alarms: {:?}", eval.device);
    }

    #[test]
    fn passives_sharing_a_net_match_whatever_their_values() {
        let nl = parse_spice(
            "\
.subckt c a b vss
C1 a vss 10f
C2 b vss 10f
C3 a vss 99f
.ends
",
        )
        .unwrap();
        let flat = FlatCircuit::elaborate(&nl).unwrap();
        // Every pair shares vss, so every pair is marked, C3's 99f
        // against the others' 10f included.
        let ex = sfa_extract(&flat);
        assert_eq!(ex.detection.scored.len(), 3);
        assert!(ex.detection.scored.iter().all(|s| s.accepted));
    }

    #[test]
    fn produces_binary_scores_only() {
        let flat = FlatCircuit::elaborate(&ota1(1)).unwrap();
        let ex = sfa_extract(&flat);
        assert!(!ex.detection.scored.is_empty());
        for s in &ex.detection.scored {
            assert!(s.score == 0.0 || s.score == 1.0);
            assert_eq!(s.candidate.kind, SymmetryKind::Device);
        }
    }

    #[test]
    fn cross_coupled_detection() {
        let nl = parse_spice(
            "\
.subckt x q qb vdd vss
M1 q qb vss vss nch w=1u l=0.1u
M2 qb q vss vss nch w=1u l=0.1u
.ends
",
        )
        .unwrap();
        let flat = FlatCircuit::elaborate(&nl).unwrap();
        let ex = sfa_extract(&flat);
        assert_eq!(ex.detection.constraints.len(), 1);
    }
}
