#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! Hierarchical symmetry constraints, layered on the pairwise detector.
//!
//! The paper's extractor emits *pairwise* constraints; production
//! placers (MAGICAL, ALIGN) consume richer structure, per Kunal et al.
//! (arXiv:2010.00051):
//!
//! * **arrays** — runs of ≥ 3 matched unit cells under one hierarchy
//!   node (a DAC capacitor bank, a decap bank), promoted here into
//!   [`ArrayConstraint`] with an explicit placement order;
//! * **group closure across instances** — a constraint found inside one
//!   instance of a subcircuit template holds in every isomorphic
//!   instance, so [`HierAnalysis::analyze`] lifts detected pairs through
//!   the hierarchy, recording any conflict with already-present
//!   constraints as a structured [`HierWarning`] instead of silently
//!   overwriting;
//! * **ALIGN-compatible export** — [`align`] renders the closed
//!   constraint system as a canonical JSON document next to the
//!   existing MAGICAL text format.
//!
//! The analysis is purely structural (hierarchy tree + constraint set),
//! so it applies identically to designer ground truth and to GNN
//! detections.

pub mod align;

use std::collections::HashMap;
use std::fmt;

use ancstr_core::groups::{merged_groups_sorted, SymmetryGroup};
use ancstr_netlist::flat::{FlatCircuit, HierNodeId, HierNodeKind, ModuleType};
use ancstr_netlist::{ConstraintSet, SymmetryConstraint, SymmetryKind};

/// An array of matched unit cells under one hierarchy node: the
/// placement-order form of a symmetry group whose members are uniform
/// siblings (a capacitor bank, a bank of integrator slices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayConstraint {
    /// The hierarchy node the array lives under.
    pub hierarchy: HierNodeId,
    /// Constraint level inherited from the underlying group.
    pub kind: SymmetryKind,
    /// Unit cell name: the device model for leaf arrays, the subcircuit
    /// template for block arrays.
    pub unit: String,
    /// Member count (`order.len()`, kept explicit for serialization).
    pub count: usize,
    /// Members in natural path order — the placement order of the bank.
    pub order: Vec<HierNodeId>,
}

/// A structured conflict or gap found while closing constraints over
/// isomorphic instances. Warnings never abort the analysis: the closed
/// set stays valid, and the warning records exactly what was dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HierWarning {
    /// A lifted pair collides with an existing constraint of a
    /// different level; the existing one wins and the lifted level is
    /// dropped.
    KindConflict {
        /// Path of the instance the conflict occurred under.
        instance: String,
        /// Local name of the first member.
        a: String,
        /// Local name of the second member.
        b: String,
        /// The level already in the set (kept).
        kept: SymmetryKind,
        /// The level the closure tried to lift in (dropped).
        dropped: SymmetryKind,
    },
    /// An isomorphic instance is missing a member by local name, so the
    /// constraint cannot be lifted into it (templates mutated after
    /// instantiation, or a name collision).
    MissingMember {
        /// Template both instances share.
        template: String,
        /// Path of the instance the member is missing from.
        instance: String,
        /// The local member name that failed to resolve.
        member: String,
    },
}

impl fmt::Display for HierWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierWarning::KindConflict { instance, a, b, kept, dropped } => write!(
                f,
                "kind conflict under {instance}: {a}/{b} kept {kept}, dropped lifted {dropped}"
            ),
            HierWarning::MissingMember { template, instance, member } => write!(
                f,
                "member {member} of template {template} is missing in instance {instance}"
            ),
        }
    }
}

/// The result of the hierarchical analysis: the closed constraint set
/// plus its derived group, array, and warning structure.
#[derive(Debug, Clone)]
pub struct HierAnalysis {
    /// The input constraints plus everything lifted by instance closure.
    pub constraints: ConstraintSet,
    /// Maximal symmetry groups of the closed set, path-sorted.
    pub groups: Vec<SymmetryGroup>,
    /// Groups promoted to arrays (≥ 3 uniform siblings).
    pub arrays: Vec<ArrayConstraint>,
    /// Constraints added by closure (not present in the input).
    pub lifted: usize,
    /// Structural conflicts recorded during closure.
    pub warnings: Vec<HierWarning>,
}

impl HierAnalysis {
    /// Close `detected` over isomorphic instances, merge into groups,
    /// and promote uniform sibling groups to arrays.
    pub fn analyze(flat: &FlatCircuit, detected: &ConstraintSet) -> HierAnalysis {
        let mut constraints: ConstraintSet = detected.iter().cloned().collect();
        let mut warnings = Vec::new();
        let lifted = close_over_instances(flat, detected, &mut constraints, &mut warnings);
        let groups = merged_groups_sorted(flat, &constraints);
        let arrays = promote_arrays(flat, &groups);
        HierAnalysis { constraints, groups, arrays, lifted, warnings }
    }
}

/// Lift every constraint whose members are direct children of a block
/// into all other instances of the same template. Returns the number of
/// constraints inserted.
fn close_over_instances(
    flat: &FlatCircuit,
    detected: &ConstraintSet,
    out: &mut ConstraintSet,
    warnings: &mut Vec<HierWarning>,
) -> usize {
    // Template name -> instances, in node-id (DFS) order so lifting is
    // deterministic.
    let mut instances: HashMap<&str, Vec<HierNodeId>> = HashMap::new();
    for n in flat.blocks() {
        if let HierNodeKind::Block { subckt, .. } = &n.kind {
            instances.entry(subckt.as_str()).or_default().push(n.id);
        }
    }
    // Lazily built per-instance child name maps, cached across the
    // constraint loop (one instance is typically hit many times).
    let mut child_maps: HashMap<HierNodeId, HashMap<String, HierNodeId>> = HashMap::new();

    let mut added = 0usize;
    for c in detected.iter() {
        let tc = c.hierarchy;
        let (a, b) = (c.pair.lo(), c.pair.hi());
        // Closure only applies when both members are direct children of
        // the constraint's block — that is how sym annotations and the
        // detector's sibling candidates are shaped; anything else has no
        // well-defined local name under an isomorphic instance.
        if flat.node(a).parent != Some(tc) || flat.node(b).parent != Some(tc) {
            continue;
        }
        let HierNodeKind::Block { subckt, .. } = &flat.node(tc).kind else {
            continue;
        };
        let (name_a, name_b) = (flat.node(a).name.clone(), flat.node(b).name.clone());
        let siblings = instances.get(subckt.as_str()).cloned().unwrap_or_default();
        for t2 in siblings {
            if t2 == tc {
                continue;
            }
            let map = child_maps.entry(t2).or_insert_with(|| {
                flat.node(t2)
                    .children
                    .iter()
                    .map(|&c| (flat.node(c).name.clone(), c))
                    .collect()
            });
            let resolved = (map.get(name_a.as_str()), map.get(name_b.as_str()));
            let (a2, b2) = match resolved {
                (Some(&a2), Some(&b2)) => (a2, b2),
                (missing_a, _) => {
                    let member = if missing_a.is_none() { &name_a } else { &name_b };
                    warnings.push(HierWarning::MissingMember {
                        template: subckt.clone(),
                        instance: flat.node(t2).path.clone(),
                        member: member.clone(),
                    });
                    continue;
                }
            };
            let kind = flat.classify_pair(t2, a2, b2);
            if let Some(existing) = out.get(a2, b2) {
                if existing.kind != kind {
                    warnings.push(HierWarning::KindConflict {
                        instance: flat.node(t2).path.clone(),
                        a: name_a.clone(),
                        b: name_b.clone(),
                        kept: existing.kind,
                        dropped: kind,
                    });
                }
                continue;
            }
            if out.insert(SymmetryConstraint::new(t2, a2, b2, kind)) {
                added += 1;
            }
        }
    }
    added
}

/// Promote groups of ≥ 3 members that are uniform-typed direct siblings
/// into arrays. Group order is already natural path order, which is the
/// bank's placement order.
fn promote_arrays(flat: &FlatCircuit, groups: &[SymmetryGroup]) -> Vec<ArrayConstraint> {
    let mut arrays = Vec::new();
    for g in groups {
        if g.members.len() < 3 {
            continue;
        }
        if g.members.iter().any(|&m| flat.node(m).parent != Some(g.hierarchy)) {
            continue;
        }
        let ty = flat.module_type(g.members[0]);
        if g.members[1..].iter().any(|&m| flat.module_type(m) != ty) {
            continue;
        }
        let unit = match &flat.node(g.members[0]).kind {
            HierNodeKind::Device(i) => flat.devices()[*i].dtype.to_string(),
            HierNodeKind::Block { subckt, .. } => subckt.clone(),
        };
        debug_assert!(matches!(
            (&ty, &flat.node(g.members[0]).kind),
            (ModuleType::Device(_), HierNodeKind::Device(_))
                | (ModuleType::Block(_), HierNodeKind::Block { .. })
        ));
        arrays.push(ArrayConstraint {
            hierarchy: g.hierarchy,
            kind: g.kind,
            unit,
            count: g.members.len(),
            order: g.members.clone(),
        });
    }
    arrays
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_netlist::parse::parse_spice;

    fn elaborate(src: &str) -> FlatCircuit {
        FlatCircuit::elaborate(&parse_spice(src).unwrap()).unwrap()
    }

    const TWO_INSTANCE: &str = "\
.subckt inv in out vdd vss
Mp out in vdd vdd pch w=2u l=0.1u
Mn out in vss vss nch w=1u l=0.1u
.ends
.subckt top a y vdd vss
X1 a m vdd vss inv
X2 m y vdd vss inv
.ends
";

    #[test]
    fn a_constraint_in_one_instance_lifts_to_all_isomorphic_instances() {
        let flat = elaborate(TWO_INSTANCE);
        let x1 = flat.node_by_path("top/X1").unwrap().id;
        let mp1 = flat.node_by_path("top/X1/Mp").unwrap().id;
        let mn1 = flat.node_by_path("top/X1/Mn").unwrap().id;
        let detected: ConstraintSet =
            [SymmetryConstraint::new(x1, mp1, mn1, SymmetryKind::Device)]
                .into_iter()
                .collect();
        let analysis = HierAnalysis::analyze(&flat, &detected);
        assert_eq!(analysis.lifted, 1);
        let mp2 = flat.node_by_path("top/X2/Mp").unwrap().id;
        let mn2 = flat.node_by_path("top/X2/Mn").unwrap().id;
        assert!(analysis.constraints.contains_pair(mp2, mn2));
        assert!(analysis.warnings.is_empty());
    }

    #[test]
    fn an_existing_conflicting_kind_is_kept_and_warned_about() {
        let flat = elaborate(TWO_INSTANCE);
        let x1 = flat.node_by_path("top/X1").unwrap().id;
        let x2 = flat.node_by_path("top/X2").unwrap().id;
        let mp1 = flat.node_by_path("top/X1/Mp").unwrap().id;
        let mn1 = flat.node_by_path("top/X1/Mn").unwrap().id;
        let mp2 = flat.node_by_path("top/X2/Mp").unwrap().id;
        let mn2 = flat.node_by_path("top/X2/Mn").unwrap().id;
        // The X2 pair is already present at system level (a wrong or
        // foreign classification); the lifted device-level copy must not
        // overwrite it.
        let detected: ConstraintSet = [
            SymmetryConstraint::new(x1, mp1, mn1, SymmetryKind::Device),
            SymmetryConstraint::new(x2, mp2, mn2, SymmetryKind::System),
        ]
        .into_iter()
        .collect();
        let analysis = HierAnalysis::analyze(&flat, &detected);
        assert_eq!(analysis.lifted, 0);
        assert_eq!(
            analysis.constraints.get(mp2, mn2).unwrap().kind,
            SymmetryKind::System,
            "the pre-existing constraint wins"
        );
        assert!(matches!(
            analysis.warnings.as_slice(),
            [HierWarning::KindConflict { kept: SymmetryKind::System, .. }]
        ));
    }

    #[test]
    fn uniform_sibling_groups_promote_to_arrays_in_path_order() {
        let flat = elaborate(
            "\
.subckt bank a vss
C10 a vss 10f
C2 a vss 10f
C1 a vss 10f
M1 a a vss vss nch w=1u l=0.1u
*.symmetry C10 C2
*.symmetry C2 C1
.ends
",
        );
        let analysis = HierAnalysis::analyze(&flat, flat.ground_truth());
        assert_eq!(analysis.arrays.len(), 1);
        let arr = &analysis.arrays[0];
        assert_eq!(arr.count, 3);
        assert_eq!(arr.unit, "cap");
        let names: Vec<&str> =
            arr.order.iter().map(|&m| flat.node(m).name.as_str()).collect();
        assert_eq!(names, vec!["C1", "C2", "C10"]);
    }

    #[test]
    fn mixed_type_and_two_member_groups_stay_pairwise() {
        let flat = elaborate(
            "\
.subckt cell a b vss
M1 a b vss vss nch w=1u l=0.1u
M2 b a vss vss nch w=1u l=0.1u
*.symmetry M1 M2
.ends
",
        );
        let analysis = HierAnalysis::analyze(&flat, flat.ground_truth());
        assert!(analysis.arrays.is_empty(), "a pair is not an array");
        assert_eq!(analysis.groups.len(), 1);
    }
}
