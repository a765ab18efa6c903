//! Test-only oracle for [`merged_groups_sorted`](crate::groups::merged_groups_sorted):
//! the `HashMap` union-find over the node ids a constraint set mentions,
//! then a sort by `natural_cmp` over full path strings. The dense,
//! rank-ordered merge must return exactly what these two steps do.
//!
//! Compiled only into tests — as `crate::oracle` for this crate's unit
//! tests and, through a `#[path]` module, into `tests/proptests.rs`. It
//! imports [`SymmetryGroup`] through `super`: the crate root here, the
//! test crate's root (which imports it from `ancstr_core`) there.

use std::collections::HashMap;

use ancstr_netlist::flat::{FlatCircuit, HierNodeId};
use ancstr_netlist::order::natural_cmp;
use ancstr_netlist::{ConstraintSet, SymmetryKind};

use super::SymmetryGroup;

/// Merge pairwise constraints into maximal groups (connected components
/// of the constraint relation). A group takes the hierarchy and level
/// of the first constraint that mentions its union-find root; groups
/// come sorted by hierarchy id, then first member.
pub fn merge_groups(constraints: &ConstraintSet) -> Vec<SymmetryGroup> {
    let mut parent: HashMap<HierNodeId, HierNodeId> = HashMap::new();
    let mut meta: HashMap<HierNodeId, (HierNodeId, SymmetryKind)> = HashMap::new();

    fn find(parent: &mut HashMap<HierNodeId, HierNodeId>, x: HierNodeId) -> HierNodeId {
        let p = *parent.get(&x).unwrap_or(&x);
        if p == x {
            return x;
        }
        let root = find(parent, p);
        parent.insert(x, root);
        root
    }

    for c in constraints.iter() {
        let (a, b) = (c.pair.lo(), c.pair.hi());
        for n in [a, b] {
            parent.entry(n).or_insert(n);
            meta.entry(n).or_insert((c.hierarchy, c.kind));
        }
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent.insert(rb, ra);
        }
    }

    let mut members: HashMap<HierNodeId, Vec<HierNodeId>> = HashMap::new();
    let keys: Vec<HierNodeId> = parent.keys().copied().collect();
    for n in keys {
        let root = find(&mut parent, n);
        members.entry(root).or_default().push(n);
    }

    let mut groups: Vec<SymmetryGroup> = members
        .into_iter()
        .map(|(root, mut ms)| {
            ms.sort();
            let (hierarchy, kind) = meta[&root];
            SymmetryGroup {
                hierarchy,
                kind,
                members: ms,
            }
        })
        .filter(|g| !g.is_empty())
        .collect();
    groups.sort_by_key(|g| (g.hierarchy, g.members[0]));
    groups
}

/// Re-order `groups` by hierarchical path: members by their natural
/// path order, groups by hierarchy path, then first member path.
pub fn sort_groups_by_path(flat: &FlatCircuit, groups: &mut [SymmetryGroup]) {
    let path = |id: HierNodeId| flat.node(id).path.as_str();
    for g in groups.iter_mut() {
        g.members.sort_by(|&a, &b| natural_cmp(path(a), path(b)));
    }
    groups.sort_by(|a, b| {
        natural_cmp(path(a.hierarchy), path(b.hierarchy))
            .then_with(|| natural_cmp(path(a.members[0]), path(b.members[0])))
    });
}

/// [`merge_groups`] followed by [`sort_groups_by_path`].
pub fn merged_groups_sorted(flat: &FlatCircuit, constraints: &ConstraintSet) -> Vec<SymmetryGroup> {
    let mut groups = merge_groups(constraints);
    sort_groups_by_path(flat, &mut groups);
    groups
}
