//! Valid candidate pair enumeration (Section III-A).
//!
//! A pair `(t_i, t_j)` is *valid* when both modules sit under the same
//! circuit hierarchy `T_c` (they are siblings) and have identical types
//! — the same device type for primitives, the same functional class for
//! building blocks. Pairs across hierarchies or with nonidentical types
//! are invalid and never considered.

use ancstr_netlist::flat::{FlatCircuit, HierNodeId, HierNodeKind, ModuleType};
use ancstr_netlist::{CircuitClass, PairKey, SymmetryKind};

/// A valid candidate pair, the unit the detectors score.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidatePair {
    /// The common parent `T_c`.
    pub hierarchy: HierNodeId,
    /// The unordered pair.
    pub pair: PairKey,
    /// System- or device-level, per the Section III-A classification.
    pub kind: SymmetryKind,
    /// The shared module type.
    pub module_type: ModuleType,
}

/// Enumerate every valid pair of the design.
///
/// Complexity is quadratic in the sibling-group sizes (grouped by module
/// type), matching the `for each valid pair` loops of Algorithm 3.
///
/// Hierarchies classed as pure digital [`CircuitClass::Logic`] are
/// skipped: their repeated cells (shift registers, gate banks) get
/// placement *regularity*, not analog symmetry, and the paper's
/// valid-pair counts (e.g. 776 pairs for the 731-device SAR) are only
/// consistent with digital-internal pairs being excluded. Clock-class
/// blocks stay included — Fig. 2's matched inverters are exactly such a
/// case.
pub fn valid_pairs(flat: &FlatCircuit) -> Vec<CandidatePair> {
    let mut out = Vec::new();
    for parent in flat.blocks() {
        if let HierNodeKind::Block { class: CircuitClass::Logic, .. } = &parent.kind {
            continue;
        }
        // Group children by module type.
        let children = &parent.children;
        for i in 0..children.len() {
            let ti = flat.module_type(children[i]);
            for j in (i + 1)..children.len() {
                let tj = flat.module_type(children[j]);
                if ti != tj {
                    continue;
                }
                let (a, b) = (children[i], children[j]);
                out.push(CandidatePair {
                    hierarchy: parent.id,
                    pair: PairKey::new(a, b),
                    kind: flat.classify_pair(parent.id, a, b),
                    module_type: ti.clone(),
                });
            }
        }
    }
    out
}

/// Which hierarchy nodes appear in some candidate, indexed by node id:
/// the nodes whose features Algorithm 3 reads.
pub(crate) fn compared_nodes(flat: &FlatCircuit, candidates: &[CandidatePair]) -> Vec<bool> {
    let mut compared = vec![false; flat.nodes().len()];
    for c in candidates {
        compared[c.pair.lo().0] = true;
        compared[c.pair.hi().0] = true;
    }
    compared
}

/// Only the pairs of one level.
pub fn valid_pairs_of_kind(flat: &FlatCircuit, kind: SymmetryKind) -> Vec<CandidatePair> {
    valid_pairs(flat)
        .into_iter()
        .filter(|p| p.kind == kind)
        .collect()
}

/// Sanity statistics over the candidate set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairStats {
    /// All valid pairs.
    pub total: usize,
    /// System-level pairs.
    pub system: usize,
    /// Device-level pairs.
    pub device: usize,
    /// How many valid pairs the ground truth marks positive.
    pub positives: usize,
}

/// Compute [`PairStats`], checking ground truth ⊆ valid pairs.
///
/// # Panics
///
/// Panics if a ground-truth constraint is not a valid pair — that would
/// mean the generators and the Section III-A rules disagree.
pub fn pair_stats(flat: &FlatCircuit) -> PairStats {
    let pairs = valid_pairs(flat);
    let system = pairs.iter().filter(|p| p.kind == SymmetryKind::System).count();
    let mut covered = 0usize;
    let keys: std::collections::HashSet<PairKey> = pairs.iter().map(|p| p.pair).collect();
    for c in flat.ground_truth().iter() {
        assert!(
            keys.contains(&c.pair),
            "ground-truth pair {:?} is not a valid candidate",
            c.pair
        );
        covered += 1;
    }
    PairStats {
        total: pairs.len(),
        system,
        device: pairs.len() - system,
        positives: covered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_netlist::parse::parse_spice;

    fn flat(src: &str) -> FlatCircuit {
        FlatCircuit::elaborate(&parse_spice(src).unwrap()).unwrap()
    }

    #[test]
    fn same_type_siblings_pair_up() {
        let f = flat(
            "\
.subckt c a b vdd vss
M1 a b t vss nch w=1u l=0.1u
M2 b a t vss nch w=1u l=0.1u
M3 t a vss vss pch w=1u l=0.1u
.ends
",
        );
        let pairs = valid_pairs(&f);
        // Only (M1, M2): M3 is PMOS.
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].kind, SymmetryKind::Device);
    }

    #[test]
    fn cross_hierarchy_pairs_are_invalid() {
        let f = flat(
            "\
.subckt inv in out vdd vss
Mp out in vdd vdd pch w=2u l=0.1u
Mn out in vss vss nch w=1u l=0.1u
.ends
.subckt top a y vdd vss
X1 a m vdd vss inv
X2 m y vdd vss inv
.ends
",
        );
        let pairs = valid_pairs(&f);
        // (X1, X2) at top; (Mp, Mn) inside each inv is type-mismatched.
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].kind, SymmetryKind::System);
        // Mp of X1 never pairs with Mp of X2 (different hierarchy).
        let mp1 = f.node_by_path("top/X1/Mp").unwrap().id;
        let mp2 = f.node_by_path("top/X2/Mp").unwrap().id;
        assert!(!pairs.iter().any(|p| p.pair == PairKey::new(mp1, mp2)));
    }

    #[test]
    fn passives_next_to_blocks_are_system_level() {
        let f = flat(
            "\
.subckt inv in out vdd vss
Mp out in vdd vdd pch w=2u l=0.1u
Mn out in vss vss nch w=1u l=0.1u
.ends
.subckt top a y vdd vss
X1 a m vdd vss inv
C1 a vss 10f
C2 y vss 10f
.ends
",
        );
        let pairs = valid_pairs(&f);
        let cap_pair = pairs
            .iter()
            .find(|p| matches!(p.module_type, ModuleType::Device(t) if t.is_passive()))
            .unwrap();
        assert_eq!(cap_pair.kind, SymmetryKind::System);
    }

    #[test]
    fn stats_on_generated_benchmarks() {
        let f = ancstr_netlist::flat::FlatCircuit::elaborate(&ancstr_circuits::ota::ota1(1))
            .unwrap();
        let stats = pair_stats(&f);
        assert!(stats.total >= stats.positives);
        assert_eq!(stats.total, stats.system + stats.device);
        assert!(stats.positives >= 2);
    }

    #[test]
    fn kind_filter_partitions() {
        let f = ancstr_netlist::flat::FlatCircuit::elaborate(&ancstr_circuits::adc::adc1())
            .unwrap();
        let all = valid_pairs(&f).len();
        let sys = valid_pairs_of_kind(&f, SymmetryKind::System).len();
        let dev = valid_pairs_of_kind(&f, SymmetryKind::Device).len();
        assert_eq!(all, sys + dev);
        assert!(sys > 0 && dev > 0);
    }
}
