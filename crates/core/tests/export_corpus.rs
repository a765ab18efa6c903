//! Constraint-file round trips at corpus scale: a 2k-device stress
//! corpus's ground truth plus a chain of pairs that is not closed under
//! transitivity.

use std::collections::HashSet;

use ancstr_circuits::stress::stress_system;
use ancstr_core::{
    merged_groups_sorted, read_constraints, write_constraint_pairs, write_constraints,
};
use ancstr_netlist::{ConstraintSet, FlatCircuit, PairKey, SymmetryConstraint};

fn corpus() -> (FlatCircuit, ConstraintSet) {
    let flat = FlatCircuit::elaborate(&stress_system(2000, 7)).expect("corpus elaborates");
    let mut set = flat.ground_truth().clone();
    // Chain the first block's children that share a module type: a–b,
    // b–c, … with no a–c, unless the ground truth holds it.
    let block = flat
        .blocks()
        .find(|b| b.children.len() >= 4)
        .expect("a wide block");
    let kids: Vec<_> = block
        .children
        .iter()
        .copied()
        .filter(|&c| flat.module_type(c) == flat.module_type(block.children[0]))
        .collect();
    for w in kids.windows(2) {
        let kind = flat.classify_pair(block.id, w[0], w[1]);
        set.insert(SymmetryConstraint::new(block.id, w[0], w[1], kind));
    }
    (flat, set)
}

fn as_set(set: &ConstraintSet) -> HashSet<SymmetryConstraint> {
    set.iter().copied().collect()
}

#[test]
fn pair_form_reads_back_as_the_same_set() {
    let (flat, set) = corpus();
    let text = write_constraint_pairs(&flat, &set);
    assert_eq!(
        text.lines().filter(|l| l.starts_with("sym ")).count(),
        set.len()
    );
    let back = read_constraints(&flat, &text).expect("own output parses");
    assert_eq!(as_set(&back), as_set(&set));
    assert_eq!(
        write_constraint_pairs(&flat, &back),
        text,
        "the text is canonical for the set"
    );
}

#[test]
fn group_form_reads_back_as_the_closure_of_its_groups() {
    let (flat, set) = corpus();
    let text = write_constraints(&flat, &set);
    let back = read_constraints(&flat, &text).expect("own output parses");
    let mut closure = HashSet::new();
    for g in merged_groups_sorted(&flat, &set) {
        for (i, &a) in g.members.iter().enumerate() {
            for &b in &g.members[i + 1..] {
                closure.insert(SymmetryConstraint::new(g.hierarchy, a, b, g.kind));
            }
        }
    }
    assert_eq!(as_set(&back), closure);
    assert!(back.len() > set.len(), "the chain closes into more pairs");
    for c in set.iter() {
        assert!(back.contains_key(PairKey::new(c.pair.lo(), c.pair.hi())));
    }
    assert_eq!(
        write_constraints(&flat, &back),
        text,
        "closing a closed set changes nothing"
    );
}
