//! `GraphTensors::from_circuit` builds Eq. 1's operators straight from
//! the pin stream; `GraphTensors::from_multigraph` over
//! `HetMultigraph::from_circuit` is its reference. The two must agree
//! exactly: every operator's edges in order, every in-degree, and every
//! neighbour list, order included.

use ancstr_circuits::stress::stress_system;
use ancstr_circuits::{adc::adc_benchmarks, block_benchmark_names, block_benchmarks};
use ancstr_gnn::GraphTensors;
use ancstr_graph::{BuildOptions, HetMultigraph};
use ancstr_netlist::flat::FlatCircuit;
use ancstr_netlist::{Device, DeviceType, Geometry, Netlist, PortType, Subckt};
use proptest::prelude::*;

/// Panics with `what` and the first difference unless the direct build
/// of `flat` equals the reference under `options`.
fn assert_direct_equals_reference(flat: &FlatCircuit, options: &BuildOptions, what: &str) {
    let reference = GraphTensors::from_multigraph(&HetMultigraph::from_circuit(flat, options));
    let direct = GraphTensors::from_circuit(flat, options);
    assert_eq!(
        direct.vertex_count(),
        reference.vertex_count(),
        "{what}: vertices"
    );
    for port in PortType::ALL {
        assert!(
            direct.adjacency(port) == reference.adjacency(port),
            "{what}: {port:?} operator row or column views differ"
        );
    }
    for v in 0..direct.vertex_count() {
        assert_eq!(
            direct.in_degree(v),
            reference.in_degree(v),
            "{what}: in-degree of {v}"
        );
        assert_eq!(
            direct.in_neighbors(v),
            reference.in_neighbors(v),
            "{what}: in-neighbours of {v}"
        );
    }
    assert!(direct == reference, "{what}: tensors differ");
}

/// A random flat circuit of three-pin transistors and two-pin passives
/// over a small net pool, so every port type occurs, nets carry many
/// pins and diode connections make parallel edges.
fn circuit(devices: Vec<(usize, usize, usize, usize)>) -> FlatCircuit {
    let nets = ["n0", "n1", "n2", "n3", "n4", "n5"];
    let mut sub = Subckt::new("cell", ["n0", "n1"]);
    for (i, (kind, a, b, c)) in devices.into_iter().enumerate() {
        let (dtype, pins) = match kind {
            0 => (DeviceType::Nch, vec![nets[a], nets[b], nets[c]]),
            1 => (DeviceType::Pch, vec![nets[a], nets[b], nets[c]]),
            2 => (DeviceType::Resistor, vec![nets[a], nets[b]]),
            _ => (DeviceType::Capacitor, vec![nets[a], nets[c]]),
        };
        let pins = pins.into_iter().map(String::from).collect();
        let d = Device::new(format!("D{i}"), dtype, pins, Geometry::new(0.1, 1.0))
            .expect("pin count matches the type");
        sub.push_device(d).expect("unique names");
    }
    let mut nl = Netlist::new("cell");
    nl.add_subckt(sub).expect("fresh library");
    FlatCircuit::elaborate(&nl).expect("valid by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn direct_build_equals_the_multigraph_reference(
        devices in prop::collection::vec((0usize..4, 0usize..6, 0usize..6, 0usize..6), 1..30),
        max_net_degree in 1usize..8,
    ) {
        let flat = circuit(devices);
        assert_direct_equals_reference(&flat, &BuildOptions::default(), "random, faithful");
        let pruned = BuildOptions { max_net_degree: Some(max_net_degree) };
        assert_direct_equals_reference(&flat, &pruned, "random, pruned");
    }
}

/// Algorithm 1 as the paper states it, and the pipeline's default
/// fan-out cap.
fn both_options() -> [BuildOptions; 2] {
    [
        BuildOptions::default(),
        BuildOptions {
            max_net_degree: Some(64),
        },
    ]
}

#[test]
fn direct_build_equals_the_reference_on_adc1_to_adc5() {
    for (i, nl) in adc_benchmarks().iter().enumerate() {
        let flat = FlatCircuit::elaborate(nl).unwrap();
        for options in both_options() {
            assert_direct_equals_reference(&flat, &options, &format!("ADC{} {options:?}", i + 1));
        }
    }
}

#[test]
fn direct_build_equals_the_reference_on_the_table_iv_blocks() {
    for (nl, name) in block_benchmarks(7).iter().zip(block_benchmark_names()) {
        let flat = FlatCircuit::elaborate(nl).unwrap();
        for options in both_options() {
            assert_direct_equals_reference(&flat, &options, &format!("{name} {options:?}"));
        }
    }
}

#[test]
fn direct_build_equals_the_reference_on_a_2k_corpus() {
    let flat = FlatCircuit::elaborate(&stress_system(2000, 7)).unwrap();
    for options in both_options() {
        assert_direct_equals_reference(&flat, &options, &format!("2k corpus {options:?}"));
    }
}
