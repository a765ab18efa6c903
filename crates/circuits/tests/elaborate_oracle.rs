//! Elaboration of every generated benchmark — ADC1–5, the Table IV
//! blocks and a 2k-device stress corpus — equals the name-keyed oracle
//! expansion: the same nets, nodes, devices and ground truth.

use ancstr_circuits::{adc, block_benchmark_names, block_benchmarks, stress};
use ancstr_netlist::flat::{FlatCircuit, FlatDevice, HierNode, HierNodeId, HierNodeKind, NetId};
use ancstr_netlist::order::natural_cmp;
use ancstr_netlist::{ConstraintSet, ElaborateError, Element, Netlist, Subckt, SymmetryConstraint};

/// The netlist crate's test-only elaboration oracle.
#[path = "../../netlist/src/oracle.rs"]
mod oracle;

fn assert_matches_oracle(nl: &Netlist) {
    let flat = FlatCircuit::elaborate(nl).expect("generated designs elaborate");
    oracle::assert_matches(&flat, &oracle::elaborate(nl).expect("the oracle agrees"));
    let mut by_path: Vec<&HierNode> = flat.nodes().iter().collect();
    by_path.sort_by(|a, b| natural_cmp(&a.path, &b.path));
    for (i, n) in by_path.iter().enumerate() {
        assert_eq!(flat.path_rank(n.id), i, "{}", n.path);
    }
}

#[test]
fn adc_benchmarks_match_the_oracle() {
    for nl in adc::adc_benchmarks() {
        assert_matches_oracle(&nl);
    }
}

#[test]
fn block_benchmarks_match_the_oracle() {
    for (nl, name) in block_benchmarks(1).iter().zip(block_benchmark_names()) {
        eprintln!("{name}");
        assert_matches_oracle(nl);
    }
}

#[test]
fn stress_corpus_matches_the_oracle() {
    assert_matches_oracle(&stress::stress_system(2000, 7));
}
