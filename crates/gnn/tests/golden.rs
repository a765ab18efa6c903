//! Absolute-bits golden test for training.
//!
//! The identity tests elsewhere compare runs of the same build with
//! each other (thread counts, crash/resume, batching), so a kernel
//! change that moved every run's bits the same way would pass them all.
//! This test pins the bits themselves: five epochs on the COMP1
//! comparator at the paper's `D = 18`, hashed from the model's text
//! form. The constant was computed before the single-kernel rewrite of
//! `ancstr-nn`; every kernel must keep reproducing it.

use ancstr_gnn::{train, GnnConfig, GnnModel, GraphTensors, TrainConfig, TrainGraph};
use ancstr_graph::{BuildOptions, HetMultigraph};
use ancstr_netlist::FlatCircuit;
use ancstr_nn::Matrix;

/// FNV-1a over `GnnModel::to_text` after the run below.
const GOLDEN_MODEL_HASH: u64 = 0x8e21_3034_322e_ff60;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn comparator_graph() -> TrainGraph {
    let flat = FlatCircuit::elaborate(&ancstr_circuits::comparator::comp1(1)).expect("comp1");
    let graph = HetMultigraph::from_circuit(&flat, &BuildOptions::default());
    let tensors = GraphTensors::from_multigraph(&graph);
    // Deterministic features with exact zeros, so the kernels' zero
    // skip is part of what the hash pins.
    let features = Matrix::from_fn(tensors.vertex_count(), 18, |r, c| {
        ((r * 7 + c * 3) % 11) as f64 * 0.1 - 0.5
    });
    TrainGraph { tensors, features }
}

#[test]
fn five_comparator_epochs_reproduce_the_golden_model_bits() {
    let graph = comparator_graph();
    let mut model = GnnModel::new(GnnConfig::default());
    let cfg = TrainConfig { epochs: 5, ..TrainConfig::default() };
    train(&mut model, std::slice::from_ref(&graph), &cfg);
    let hash = fnv1a(model.to_text().as_bytes());
    assert_eq!(hash, GOLDEN_MODEL_HASH, "trained model bits moved: {hash:#018x}");
}
