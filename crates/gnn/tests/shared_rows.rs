//! Inference computes each Eq. 1 op once per distinct row: matched
//! devices in repeated structures share their rows, and a shared row
//! must carry exactly the bits the recorded training forward computes
//! for each of its vertices. These tests pin `GnnModel::embed` to
//! `forward_on_tape` bit for bit on the designs whose repetition the
//! sharing exploits: ADC1–5, the Table IV blocks and a 2k corpus.

use ancstr_circuits::stress::stress_system;
use ancstr_circuits::{adc::adc_benchmarks, block_benchmark_names, block_benchmarks};
use ancstr_gnn::{GnnConfig, GnnModel, GraphTensors};
use ancstr_graph::BuildOptions;
use ancstr_netlist::flat::FlatCircuit;
use ancstr_netlist::{DeviceType, Netlist};
use ancstr_nn::{Matrix, Tape};

/// Per-device features in the spirit of Table II: a device-type one-hot
/// and the drawn size, so devices of one type and size share a row.
fn device_features(flat: &FlatCircuit, dim: usize) -> Matrix {
    let devices = flat.devices();
    Matrix::from_fn(devices.len(), dim, |v, c| {
        let d = &devices[v];
        let kinds = DeviceType::ALL.len();
        match c {
            c if c < kinds => f64::from(u8::from(DeviceType::ALL[c] == d.dtype)),
            c if c == kinds => d.geometry.width,
            c if c == kinds + 1 => d.geometry.length,
            c if c == kinds + 2 => f64::from(d.multiplier),
            _ => 0.0,
        }
    })
}

/// Asserts that the eager embedding of `netlist` has the tape's bits,
/// for an untrained model at the paper's `D = 18`, `K = 2`; returns the
/// vertex count and the rows the two GRU steps computed.
fn assert_embed_matches_the_tape(netlist: &Netlist, what: &str) -> (usize, usize) {
    let flat = FlatCircuit::elaborate(netlist).expect("elaborates");
    let tensors = GraphTensors::from_circuit(&flat, &BuildOptions::default());
    let model = GnnModel::new(GnnConfig::default());
    let features = device_features(&flat, model.config().dim);
    let eager = model.embed(&tensors, &features);
    let (owned, computed) = model.embed_owned(&tensors, features.clone());
    let mut tape = Tape::new();
    let (z, _) = model.forward_on_tape(&mut tape, &tensors, &features);
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let want = bits(tape.value(z));
    assert_eq!(eager.shape(), tape.value(z).shape(), "{what}: shape");
    assert!(bits(&eager) == want, "{what}: embed diverged from the tape");
    assert!(
        bits(&owned) == want,
        "{what}: embed_owned diverged from the tape"
    );
    let n = tensors.vertex_count();
    assert!(
        computed <= 2 * n,
        "{what}: {computed} rows computed for {n} vertices"
    );
    (n, computed)
}

#[test]
fn embed_matches_the_tape_on_adc1_to_adc5() {
    for (i, nl) in adc_benchmarks().iter().enumerate() {
        let (n, computed) = assert_embed_matches_the_tape(nl, &format!("ADC{}", i + 1));
        assert!(
            computed < 2 * n,
            "ADC{}: no row was shared ({computed} of {n})",
            i + 1
        );
    }
}

#[test]
fn embed_matches_the_tape_on_the_table_iv_blocks() {
    for (nl, name) in block_benchmarks(7).iter().zip(block_benchmark_names()) {
        assert_embed_matches_the_tape(nl, name);
    }
}

#[test]
fn embed_matches_the_tape_on_a_2k_corpus() {
    let (n, computed) = assert_embed_matches_the_tape(&stress_system(2000, 7), "2k corpus");
    assert!(
        computed < 2 * n,
        "2k corpus: no row was shared ({computed} of {n})"
    );
}
