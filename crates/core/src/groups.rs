//! Symmetry *groups*: the union-find closure of pairwise constraints.
//!
//! Analog P&R engines (MAGICAL, ALIGN) consume symmetry groups — sets
//! of modules placed around one axis — rather than raw pairs. This
//! module merges the pairwise constraints of a detection into maximal
//! groups per hierarchy, the form a downstream placer ingests.

use ancstr_netlist::flat::{FlatCircuit, HierNodeId};
use ancstr_netlist::{ConstraintSet, SymmetryKind};

/// A maximal matched group under one hierarchy node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetryGroup {
    /// The hierarchy node `T_c` the group lives under.
    pub hierarchy: HierNodeId,
    /// Level of the group's constraints.
    pub kind: SymmetryKind,
    /// The matched modules, in natural path order.
    pub members: Vec<HierNodeId>,
}

impl SymmetryGroup {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the group is degenerate (fewer than two members).
    pub fn is_empty(&self) -> bool {
        self.members.len() < 2
    }
}

/// Merge pairwise constraints into maximal groups — the connected
/// components of the constraint relation — ordered for export.
///
/// A group takes the hierarchy and level of the first constraint (in
/// set order) that mentions its union-find root. Members sort by their
/// natural path order (digit runs by value, so `Cu2` precedes `Cu10`),
/// and groups by hierarchy path, then first member path. Node ids are
/// an artifact of elaboration order; paths are the stable,
/// human-meaningful key, so every serializer (MAGICAL text, ALIGN JSON,
/// group reports) funnels through this. Paths are compared through
/// [`FlatCircuit::path_rank`], and the union-find runs over vectors
/// indexed by node id.
///
/// # Example
///
/// ```
/// use ancstr_core::groups::merged_groups_sorted;
/// use ancstr_netlist::{parse::parse_spice, ConstraintSet, FlatCircuit};
/// use ancstr_netlist::{SymmetryConstraint, SymmetryKind};
///
/// let nl = parse_spice(
///     ".subckt top a vss\nC10 a vss 1f\nC2 a vss 1f\nC1 a vss 1f\nC3 a vss 1f\n.ends\n",
/// )?;
/// let flat = FlatCircuit::elaborate(&nl)?;
/// let id = |p: &str| flat.node_by_path(p).unwrap().id;
/// let root = flat.root().id;
/// let set: ConstraintSet = [
///     SymmetryConstraint::new(root, id("top/C10"), id("top/C2"), SymmetryKind::Device),
///     SymmetryConstraint::new(root, id("top/C2"), id("top/C1"), SymmetryKind::Device),
/// ]
/// .into_iter()
/// .collect();
/// let groups = merged_groups_sorted(&flat, &set);
/// assert_eq!(groups.len(), 1);
/// assert_eq!(groups[0].members, vec![id("top/C1"), id("top/C2"), id("top/C10")]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn merged_groups_sorted(flat: &FlatCircuit, constraints: &ConstraintSet) -> Vec<SymmetryGroup> {
    const UNSEEN: usize = usize::MAX;
    let n = flat.nodes().len();
    // `parent[x] == UNSEEN` until a constraint mentions node `x`.
    let mut parent = vec![UNSEEN; n];
    let mut meta: Vec<Option<(HierNodeId, SymmetryKind)>> = vec![None; n];
    let find = |parent: &mut [usize], mut x: usize| {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    };
    for c in constraints.iter() {
        let (a, b) = (c.pair.lo().0, c.pair.hi().0);
        for x in [a, b] {
            if parent[x] == UNSEEN {
                parent[x] = x;
                meta[x] = Some((c.hierarchy, c.kind));
            }
        }
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[rb] = ra;
        }
    }

    // Every component holds a pair of distinct nodes, so no group is
    // degenerate. `slot` maps a root to its group.
    let mut slot = vec![UNSEEN; n];
    let mut groups: Vec<SymmetryGroup> = Vec::new();
    for x in 0..n {
        if parent[x] == UNSEEN {
            continue;
        }
        let root = find(&mut parent, x);
        if slot[root] == UNSEEN {
            slot[root] = groups.len();
            let (hierarchy, kind) = meta[root].expect("a root was mentioned");
            groups.push(SymmetryGroup { hierarchy, kind, members: Vec::new() });
        }
        groups[slot[root]].members.push(HierNodeId(x));
    }
    let rank = |id: HierNodeId| flat.path_rank(id);
    for g in &mut groups {
        g.members.sort_unstable_by_key(|&m| rank(m));
    }
    groups.sort_unstable_by_key(|g| (rank(g.hierarchy), rank(g.members[0])));
    groups
}

/// Render groups with full hierarchical paths (human-readable report).
pub fn render_groups(flat: &FlatCircuit, groups: &[SymmetryGroup]) -> String {
    let mut out = String::new();
    for g in groups {
        out.push_str(&format!(
            "[{}] under {} ({} members):\n",
            g.kind,
            flat.node(g.hierarchy).path,
            g.len()
        ));
        for &m in &g.members {
            out.push_str(&format!("  {}\n", flat.node(m).path));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_netlist::parse::parse_spice;
    use ancstr_netlist::SymmetryConstraint;

    /// `top` holds caps `C1`–`C4` and two `cell` instances, each with
    /// caps `C1` and `C2`.
    fn fixture() -> FlatCircuit {
        let nl = parse_spice(
            "\
.subckt cell a vss
C1 a vss 1f
C2 a vss 1f
.ends
.subckt top a vss
C1 a vss 1f
C2 a vss 1f
C3 a vss 1f
C4 a vss 1f
X1 a vss cell
X2 a vss cell
.ends
.top top
",
        )
        .unwrap();
        FlatCircuit::elaborate(&nl).unwrap()
    }

    fn id(flat: &FlatCircuit, path: &str) -> HierNodeId {
        flat.node_by_path(path).unwrap().id
    }

    #[test]
    fn transitive_pairs_merge() {
        let flat = fixture();
        let (root, n) = (flat.root().id, |p: &str| id(&flat, &format!("top/{p}")));
        let set: ConstraintSet = [
            SymmetryConstraint::new(root, n("C1"), n("C2"), SymmetryKind::Device),
            SymmetryConstraint::new(root, n("C3"), n("C2"), SymmetryKind::Device),
            SymmetryConstraint::new(root, n("C4"), n("C1"), SymmetryKind::Device),
        ]
        .into_iter()
        .collect();
        let groups = merged_groups_sorted(&flat, &set);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].members, vec![n("C1"), n("C2"), n("C3"), n("C4")]);
        assert_eq!(groups, crate::oracle::merged_groups_sorted(&flat, &set));
    }

    #[test]
    fn disjoint_hierarchies_stay_apart() {
        let flat = fixture();
        let n = |p: &str| id(&flat, p);
        let (x1, c1, c2) = (n("top/X1"), n("top/X1/C1"), n("top/X1/C2"));
        let set: ConstraintSet = [
            SymmetryConstraint::new(x1, c1, c2, SymmetryKind::System),
            SymmetryConstraint::new(n("top"), n("top/C1"), n("top/C2"), SymmetryKind::Device),
        ]
        .into_iter()
        .collect();
        let groups = merged_groups_sorted(&flat, &set);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].kind, SymmetryKind::Device);
        assert_eq!(groups[1].kind, SymmetryKind::System);
        assert_eq!(groups[1].hierarchy, n("top/X1"));
        assert_eq!(groups, crate::oracle::merged_groups_sorted(&flat, &set));
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(merged_groups_sorted(&fixture(), &ConstraintSet::new()).is_empty());
    }

    /// Members are declared in an order whose node ids disagree with
    /// natural path order (`C10` before `C2`); the exported order must
    /// follow paths, not ids. This pins the `sym_group` determinism fix.
    #[test]
    fn groups_sort_by_natural_path_not_node_id() {
        let nl = parse_spice(
            "\
.subckt top a vdd vss
C10 a vss 10f
C2 a vss 10f
C1 a vss 10f
*.symmetry C10 C2
*.symmetry C2 C1
.ends
",
        )
        .unwrap();
        let flat = FlatCircuit::elaborate(&nl).unwrap();
        let groups = merged_groups_sorted(&flat, flat.ground_truth());
        assert_eq!(groups.len(), 1);
        let names: Vec<&str> = groups[0]
            .members
            .iter()
            .map(|&m| flat.node(m).name.as_str())
            .collect();
        assert_eq!(names, vec!["C1", "C2", "C10"], "path order, digit runs by value");
        // Node-id (declaration) order would have been C10, C2, C1.
        let ids: Vec<HierNodeId> = groups[0].members.clone();
        let mut by_id = ids.clone();
        by_id.sort();
        assert_ne!(ids, by_id, "the fixture really does distinguish the two orders");
    }

    #[test]
    fn deterministic_ordering() {
        let flat = fixture();
        let n = |p: &str| id(&flat, p);
        let build = || -> Vec<SymmetryGroup> {
            let pair = |block: &str, a: &str, b: &str| {
                let (a, b) = (n(&format!("{block}/{a}")), n(&format!("{block}/{b}")));
                SymmetryConstraint::new(n(block), a, b, SymmetryKind::Device)
            };
            let set: ConstraintSet =
                [pair("top/X2", "C1", "C2"), pair("top/X1", "C2", "C1")].into_iter().collect();
            merged_groups_sorted(&flat, &set)
        };
        assert_eq!(build(), build());
        assert_eq!(build()[0].hierarchy, n("top/X1"));
    }
}
