//! Valid candidate pair enumeration (Section III-A).
//!
//! A pair `(t_i, t_j)` is *valid* when both modules sit under the same
//! circuit hierarchy `T_c` (they are siblings) and have identical types
//! — the same device type for primitives, the same functional class for
//! building blocks. Pairs across hierarchies or with nonidentical types
//! are invalid and never considered.

use ancstr_netlist::flat::{FlatCircuit, HierNode, HierNodeId, HierNodeKind};
use ancstr_netlist::{CircuitClass, DeviceType, PairKey, SymmetryKind};

/// A valid candidate pair, the unit the detectors score.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidatePair {
    /// The common parent `T_c`.
    pub hierarchy: HierNodeId,
    /// The unordered pair.
    pub pair: PairKey,
    /// System- or device-level, per the Section III-A classification.
    pub kind: SymmetryKind,
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
    let mut groups = SiblingGroups::default();
    for parent in pair_parents(flat) {
        groups.group(flat, parent);
        groups.for_each_pair(flat, parent, |c| out.push(c));
    }
    out
}

/// The hierarchies whose children can pair: every block but the
/// [`CircuitClass::Logic`] ones, in node order.
pub(crate) fn pair_parents(flat: &FlatCircuit) -> impl Iterator<Item = &HierNode> {
    flat.blocks()
        .filter(|p| !matches!(&p.kind, HierNodeKind::Block { class: CircuitClass::Logic, .. }))
}

/// What Algorithm 3 needs to know of the valid pairs before scoring
/// any, read off each parent's sibling-group sizes in one grouping walk:
/// no pair is enumerated.
pub(crate) struct PairLayout {
    /// Which hierarchy nodes appear in some valid pair, indexed by node
    /// id: the nodes whose features Algorithm 3 reads. A child is
    /// compared iff a sibling shares its module type.
    pub(crate) compared: Vec<bool>,
    /// The pairs of the `p`-th [`pair_parents`] parent are candidates
    /// `offsets[p]..offsets[p + 1]` of [`valid_pairs`]; the last entry
    /// is the number of valid pairs.
    pub(crate) offsets: Vec<usize>,
}

/// The [`PairLayout`] of a design.
pub(crate) fn pair_layout(flat: &FlatCircuit) -> PairLayout {
    let mut compared = vec![false; flat.nodes().len()];
    let mut offsets = vec![0];
    let mut groups = SiblingGroups::default();
    for parent in pair_parents(flat) {
        groups.group(flat, parent);
        for (i, &c) in parent.children.iter().enumerate() {
            compared[c.0] |= groups.has_twin(i);
        }
        offsets.push(offsets[offsets.len() - 1] + groups.pair_count());
    }
    PairLayout { compared, offsets }
}

/// A module type, borrowed from the circuit: the key siblings are
/// grouped by (equal exactly when [`FlatCircuit::module_type`]s are).
#[derive(Clone, Copy, PartialEq, Eq)]
enum TypeKey<'a> {
    Device(DeviceType),
    Block(&'a CircuitClass),
}

fn type_key(flat: &FlatCircuit, id: HierNodeId) -> TypeKey<'_> {
    match &flat.node(id).kind {
        HierNodeKind::Device(i) => TypeKey::Device(flat.devices()[*i].dtype),
        HierNodeKind::Block { class, .. } => TypeKey::Block(class),
    }
}

/// One parent's children grouped by module type: each child's group,
/// numbered by first occurrence, and each group's size. Each child's
/// type is read once per parent, and the buffers are reused from one
/// parent to the next.
#[derive(Default)]
pub(crate) struct SiblingGroups<'a> {
    types: Vec<TypeKey<'a>>,
    sizes: Vec<usize>,
    group_of: Vec<usize>,
}

impl<'a> SiblingGroups<'a> {
    /// Group the children of `parent`.
    pub(crate) fn group(&mut self, flat: &'a FlatCircuit, parent: &HierNode) {
        self.types.clear();
        self.sizes.clear();
        self.group_of.clear();
        for &c in &parent.children {
            let t = type_key(flat, c);
            let g = match self.types.iter().position(|&u| u == t) {
                Some(g) => g,
                None => {
                    self.types.push(t);
                    self.sizes.push(0);
                    self.types.len() - 1
                }
            };
            self.sizes[g] += 1;
            self.group_of.push(g);
        }
    }

    /// Whether child `i` shares its type with a sibling.
    pub(crate) fn has_twin(&self, i: usize) -> bool {
        self.sizes[self.group_of[i]] > 1
    }

    /// How many pairs [`SiblingGroups::for_each_pair`] visits: Σ k(k−1)/2
    /// over the group sizes `k`.
    pub(crate) fn pair_count(&self) -> usize {
        self.sizes.iter().map(|&k| k * (k - 1) / 2).sum()
    }

    /// Call `f` on every valid pair under `parent` (the parent last
    /// passed to [`SiblingGroups::group`]), in child order: `(i, j)`
    /// with `i < j`, ascending `i` then `j`.
    pub(crate) fn for_each_pair(
        &self,
        flat: &FlatCircuit,
        parent: &HierNode,
        mut f: impl FnMut(CandidatePair),
    ) {
        let has_sub_blocks = flat.has_sub_blocks(parent.id);
        let children = &parent.children;
        for i in 0..children.len() {
            if !self.has_twin(i) {
                continue;
            }
            let g = self.group_of[i];
            for j in (i + 1)..children.len() {
                if self.group_of[j] != g {
                    continue;
                }
                let (a, b) = (children[i], children[j]);
                f(CandidatePair {
                    hierarchy: parent.id,
                    pair: PairKey::new(a, b),
                    kind: flat.classify_pair_under(has_sub_blocks, a, b),
                });
            }
        }
    }
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
    use ancstr_netlist::flat::ModuleType;
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
            .find(|p| matches!(f.module_type(p.pair.lo()), ModuleType::Device(t) if t.is_passive()))
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

    /// ADC1–5, the Table IV blocks and a 2k stress corpus, by name.
    fn designs() -> Vec<(String, FlatCircuit)> {
        use ancstr_circuits::{adc::adc_benchmarks, block_benchmark_names, block_benchmarks};
        let mut designs: Vec<(String, ancstr_netlist::Netlist)> = adc_benchmarks()
            .into_iter()
            .enumerate()
            .map(|(i, nl)| (format!("ADC{}", i + 1), nl))
            .collect();
        let blocks = block_benchmarks(7).into_iter().zip(block_benchmark_names());
        designs.extend(blocks.map(|(nl, name)| (name.to_string(), nl)));
        designs.push(("2k corpus".into(), ancstr_circuits::stress::stress_system(2000, 7)));
        designs
            .into_iter()
            .map(|(name, nl)| (name, FlatCircuit::elaborate(&nl).unwrap()))
            .collect()
    }

    /// `valid_pairs` scans each parent's children for a sub-block once;
    /// every candidate's kind is still `classify_pair`'s, which scans
    /// them per pair.
    #[test]
    fn candidate_kinds_match_classify_pair() {
        let mut seen = [0usize; 2];
        for (name, f) in &designs() {
            for c in valid_pairs(f) {
                let want = f.classify_pair(c.hierarchy, c.pair.lo(), c.pair.hi());
                assert_eq!(c.kind, want, "{name}: {:?}", c.pair);
                seen[usize::from(c.kind == SymmetryKind::System)] += 1;
            }
        }
        assert!(seen[0] > 0 && seen[1] > 0, "both kinds occur: {seen:?}");
    }

    /// The compared set read off the per-parent type counts is exactly
    /// the set of nodes that appear in some enumerated candidate.
    #[test]
    fn compared_nodes_are_the_nodes_of_some_candidate() {
        let designs = designs();
        assert_eq!(designs.len(), 5 + 15 + 1);
        for (name, f) in &designs {
            let mut want = vec![false; f.nodes().len()];
            for c in valid_pairs(f) {
                want[c.pair.lo().0] = true;
                want[c.pair.hi().0] = true;
            }
            assert_eq!(pair_layout(f).compared, want, "{name}");
        }
    }

    /// Each parent's pair count, read off its group sizes, is the
    /// number of candidates `valid_pairs` enumerates under it, and the
    /// offsets place them where they fall in candidate order.
    #[test]
    fn per_parent_counts_place_every_candidate() {
        for (name, f) in &designs() {
            let parents: Vec<HierNodeId> = pair_parents(f).map(|p| p.id).collect();
            let offsets = pair_layout(f).offsets;
            assert_eq!(offsets.len(), parents.len() + 1, "{name}");
            let pairs = valid_pairs(f);
            assert_eq!(offsets[parents.len()], pairs.len(), "{name}");
            for (p, &parent) in parents.iter().enumerate() {
                let under = &pairs[offsets[p]..offsets[p + 1]];
                assert!(under.iter().all(|c| c.hierarchy == parent), "{name}: parent {p}");
                let want = pairs.iter().filter(|c| c.hierarchy == parent).count();
                assert_eq!(under.len(), want, "{name}: parent {p}");
            }
        }
    }

    /// A sibling group is keyed by the full module type: blocks of one
    /// class pair, devices of one type pair, and a device never pairs
    /// with a block.
    #[test]
    fn groups_follow_module_types() {
        let f = flat(
            "\
.subckt inv in out vdd vss
*.class inverter
Mp out in vdd vdd pch w=2u l=0.1u
Mn out in vss vss nch w=1u l=0.1u
.ends
.subckt top a y vdd vss
M1 a y vss vss nch w=1u l=0.1u
X1 a m vdd vss inv
M2 y a vss vss nch w=1u l=0.1u
X2 m y vdd vss inv
M3 a a vdd vdd pch w=1u l=0.1u
.ends
",
        );
        let path = |id: HierNodeId| f.node(id).path.clone();
        let got: Vec<(String, String)> =
            valid_pairs(&f).iter().map(|c| (path(c.pair.lo()), path(c.pair.hi()))).collect();
        assert_eq!(
            got,
            [("top/M1".into(), "top/M2".into()), ("top/X1".into(), "top/X2".into())]
        );
        let compared = pair_layout(&f).compared;
        let compared: Vec<&str> =
            f.nodes().iter().filter(|n| compared[n.id.0]).map(|n| n.path.as_str()).collect();
        assert_eq!(compared, ["top/M1", "top/X1", "top/M2", "top/X2"]);
    }
}
