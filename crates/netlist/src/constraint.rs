//! Symmetry-constraint domain types (Section III-A).
//!
//! A symmetry constraint is the three-tuple `s = (T_c, t_i, t_j)`:
//! a pair of matched modules `(t_i, t_j)` under circuit hierarchy `T_c`.
//! Constraints are *system-level* when the pair consists of building
//! blocks or of passive devices sitting next to other subcircuits, and
//! *device-level* otherwise.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

use crate::flat::HierNodeId;

/// Level of a symmetry constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SymmetryKind {
    /// Matching between building blocks (or passives among blocks).
    System,
    /// Matching between primitive devices inside one block.
    Device,
}

impl SymmetryKind {
    /// The level's name in constraint files: `system` or `device`.
    pub fn as_str(self) -> &'static str {
        match self {
            SymmetryKind::System => "system",
            SymmetryKind::Device => "device",
        }
    }
}

impl fmt::Display for SymmetryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Order-independent identity of a module pair; the `(t_i, t_j)` of a
/// constraint with `t_i` and `t_j` sorted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairKey {
    lo: HierNodeId,
    hi: HierNodeId,
}

impl PairKey {
    /// A key for the unordered pair `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`; a module cannot pair with itself.
    pub fn new(a: HierNodeId, b: HierNodeId) -> PairKey {
        assert_ne!(a, b, "a symmetry pair needs two distinct modules");
        if a < b {
            PairKey { lo: a, hi: b }
        } else {
            PairKey { lo: b, hi: a }
        }
    }

    /// The smaller node id.
    pub fn lo(&self) -> HierNodeId {
        self.lo
    }

    /// The larger node id.
    pub fn hi(&self) -> HierNodeId {
        self.hi
    }
}

/// A symmetry constraint `s = (T_c, t_i, t_j)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymmetryConstraint {
    /// The hierarchy node `T_c` under which the matched pair lives
    /// (the pair's common parent).
    pub hierarchy: HierNodeId,
    /// The unordered matched pair `(t_i, t_j)`.
    pub pair: PairKey,
    /// System- or device-level.
    pub kind: SymmetryKind,
}

impl SymmetryConstraint {
    /// A new constraint for the pair `{a, b}` under `hierarchy`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (see [`PairKey::new`]).
    pub fn new(
        hierarchy: HierNodeId,
        a: HierNodeId,
        b: HierNodeId,
        kind: SymmetryKind,
    ) -> SymmetryConstraint {
        SymmetryConstraint { hierarchy, pair: PairKey::new(a, b), kind }
    }
}

/// A deduplicated set of symmetry constraints with pair-keyed lookup.
///
/// Used both for ground truth (designer annotations) and for detector
/// output, so that metric computation is a set comparison.
///
/// # Example
///
/// ```
/// use ancstr_netlist::{ConstraintSet, SymmetryConstraint, SymmetryKind};
/// use ancstr_netlist::flat::HierNodeId;
///
/// let mut set = ConstraintSet::new();
/// let (h, a, b) = (HierNodeId(0), HierNodeId(1), HierNodeId(2));
/// set.insert(SymmetryConstraint::new(h, a, b, SymmetryKind::Device));
/// assert!(set.contains_pair(a, b));
/// assert!(set.contains_pair(b, a)); // order-independent
/// assert_eq!(set.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConstraintSet {
    /// The constraints in insertion order.
    items: Vec<SymmetryConstraint>,
    /// Pair → its position in `items`.
    index: HashMap<PairKey, usize>,
}

impl ConstraintSet {
    /// An empty set.
    pub fn new() -> ConstraintSet {
        ConstraintSet::default()
    }

    /// An empty set with room for `n` constraints, so filling it with
    /// up to `n` never regrows its storage.
    pub fn with_capacity(n: usize) -> ConstraintSet {
        ConstraintSet { items: Vec::with_capacity(n), index: HashMap::with_capacity(n) }
    }

    /// Insert a constraint; returns `false` if the pair was already
    /// present (the earlier entry wins).
    pub fn insert(&mut self, c: SymmetryConstraint) -> bool {
        match self.index.entry(c.pair) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(self.items.len());
                self.items.push(c);
                true
            }
        }
    }

    /// Whether the unordered pair `{a, b}` is constrained.
    pub fn contains_pair(&self, a: HierNodeId, b: HierNodeId) -> bool {
        a != b && self.index.contains_key(&PairKey::new(a, b))
    }

    /// Whether the given key is constrained.
    pub fn contains_key(&self, key: PairKey) -> bool {
        self.index.contains_key(&key)
    }

    /// The constraint for `{a, b}`, if any.
    pub fn get(&self, a: HierNodeId, b: HierNodeId) -> Option<&SymmetryConstraint> {
        if a == b {
            return None;
        }
        self.index.get(&PairKey::new(a, b)).map(|&i| &self.items[i])
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterator over constraints in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, SymmetryConstraint> {
        self.items.iter()
    }

    /// A new set holding only the constraints of the given kind.
    pub fn filter_kind(&self, kind: SymmetryKind) -> ConstraintSet {
        self.iter().filter(|c| c.kind == kind).copied().collect()
    }
}

impl FromIterator<SymmetryConstraint> for ConstraintSet {
    fn from_iter<I: IntoIterator<Item = SymmetryConstraint>>(iter: I) -> ConstraintSet {
        let mut set = ConstraintSet::new();
        for c in iter {
            set.insert(c);
        }
        set
    }
}

impl Extend<SymmetryConstraint> for ConstraintSet {
    fn extend<I: IntoIterator<Item = SymmetryConstraint>>(&mut self, iter: I) {
        for c in iter {
            self.insert(c);
        }
    }
}

impl<'a> IntoIterator for &'a ConstraintSet {
    type Item = &'a SymmetryConstraint;
    type IntoIter = std::slice::Iter<'a, SymmetryConstraint>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> HierNodeId {
        HierNodeId(i)
    }

    #[test]
    fn pair_key_is_order_independent() {
        assert_eq!(PairKey::new(id(3), id(7)), PairKey::new(id(7), id(3)));
        assert_eq!(PairKey::new(id(3), id(7)).lo(), id(3));
        assert_eq!(PairKey::new(id(3), id(7)).hi(), id(7));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn pair_key_rejects_self_pair() {
        let _ = PairKey::new(id(1), id(1));
    }

    #[test]
    fn set_deduplicates() {
        let mut s = ConstraintSet::new();
        assert!(s.insert(SymmetryConstraint::new(id(0), id(1), id(2), SymmetryKind::Device)));
        assert!(!s.insert(SymmetryConstraint::new(id(0), id(2), id(1), SymmetryKind::Device)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn with_capacity_holds_n_without_regrowing_and_equals_a_grown_set() {
        let items: Vec<_> = (1..=50)
            .map(|i| SymmetryConstraint::new(id(0), id(2 * i), id(2 * i + 1), SymmetryKind::Device))
            .collect();
        let mut s = ConstraintSet::with_capacity(items.len());
        assert!(s.is_empty());
        let (items_cap, index_cap) = (s.items.capacity(), s.index.capacity());
        assert!(items_cap >= 50 && index_cap >= 50);
        for &c in &items {
            assert!(s.insert(c));
        }
        assert!(!s.insert(items[7]));
        assert_eq!((s.items.capacity(), s.index.capacity()), (items_cap, index_cap));
        assert_eq!(s, items.into_iter().collect::<ConstraintSet>());
    }

    #[test]
    fn filter_kind_splits_levels() {
        let s: ConstraintSet = [
            SymmetryConstraint::new(id(0), id(1), id(2), SymmetryKind::Device),
            SymmetryConstraint::new(id(0), id(3), id(4), SymmetryKind::System),
            SymmetryConstraint::new(id(0), id(5), id(6), SymmetryKind::System),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.filter_kind(SymmetryKind::System).len(), 2);
        assert_eq!(s.filter_kind(SymmetryKind::Device).len(), 1);
    }

    #[test]
    fn get_and_contains_are_symmetric() {
        let mut s = ConstraintSet::new();
        s.insert(SymmetryConstraint::new(id(0), id(1), id(2), SymmetryKind::System));
        assert!(s.get(id(2), id(1)).is_some());
        assert!(s.get(id(1), id(1)).is_none());
        assert!(!s.contains_pair(id(1), id(1)));
    }

    #[test]
    fn extend_and_iter_preserve_insertion_order() {
        let mut s = ConstraintSet::new();
        s.extend([
            SymmetryConstraint::new(id(0), id(5), id(6), SymmetryKind::Device),
            SymmetryConstraint::new(id(0), id(1), id(2), SymmetryKind::Device),
        ]);
        let pairs: Vec<_> = s.iter().map(|c| (c.pair.lo(), c.pair.hi())).collect();
        assert_eq!(pairs, vec![(id(5), id(6)), (id(1), id(2))]);
    }
}
