//! Absolute-bits golden tests for training and inference.
//!
//! The identity tests elsewhere compare runs of the same build with
//! each other (thread counts, crash/resume, batching), so a kernel
//! change that moved every run's bits the same way would pass them all.
//! This test pins the bits themselves: five epochs on the COMP1
//! comparator at the paper's `D = 18`, hashed from the model's text
//! form. The constant was computed before the single-kernel rewrite of
//! `ancstr-nn`; every kernel must keep reproducing it. A second
//! constant pins the inference bits: the embedding that trained model
//! produces for the same features. A third constant pins a run whose
//! steps alternate between two graph sizes, so buffers reused across
//! steps must never leak into a value.

use ancstr_gnn::{train, GnnConfig, GnnModel, GraphTensors, TrainConfig, TrainGraph};
use ancstr_graph::{BuildOptions, HetMultigraph};
use ancstr_netlist::{FlatCircuit, Netlist};
use ancstr_nn::Matrix;

/// FNV-1a over `GnnModel::to_text` after the run below.
const GOLDEN_MODEL_HASH: u64 = 0x8e21_3034_322e_ff60;

/// FNV-1a over the little-endian bits of every element of
/// `GnnModel::embed` for the model trained below, on its own features.
/// Computed at commit 52f2b47, when inference still recorded its
/// forward pass on the autograd tape, so the tape-free value path is
/// pinned to the tape's historical bits rather than only to the tape of
/// the same build.
const GOLDEN_EMBED_HASH: u64 = 0xef90_94df_04b9_975e;

/// FNV-1a over `GnnModel::to_text` after five epochs over COMP1 and
/// OTA2 (47 and 20 vertices) with resampled negatives and full
/// aggregation. Computed at commit a12d3e0, when the adjacency
/// operators still held `f64` weights and triplets (with its
/// neighbour-sampling option off), so the edge-pattern operators are
/// pinned to the weighted ones' bits.
const GOLDEN_TWO_SHAPE_MODEL_HASH: u64 = 0x7b16_b07c_4397_1fde;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn comparator_graph() -> TrainGraph {
    graph_of(&ancstr_circuits::comparator::comp1(1))
}

fn graph_of(netlist: &Netlist) -> TrainGraph {
    let flat = FlatCircuit::elaborate(netlist).expect("elaborates");
    let graph = HetMultigraph::from_circuit(&flat, &BuildOptions::default());
    let tensors = GraphTensors::from_multigraph(&graph);
    // Deterministic features with exact zeros, so the kernels' zero
    // skip is part of what the hash pins.
    let features = Matrix::from_fn(tensors.vertex_count(), 18, |r, c| {
        ((r * 7 + c * 3) % 11) as f64 * 0.1 - 0.5
    });
    TrainGraph { tensors, features }
}

/// Five epochs of the default trainer on `graph`.
fn five_epoch_model(graph: &TrainGraph) -> GnnModel {
    let mut model = GnnModel::new(GnnConfig::default());
    let cfg = TrainConfig { epochs: 5, ..TrainConfig::default() };
    train(&mut model, std::slice::from_ref(graph), &cfg);
    model
}

#[test]
fn five_comparator_epochs_reproduce_the_golden_model_bits() {
    let model = five_epoch_model(&comparator_graph());
    let hash = fnv1a(model.to_text().as_bytes());
    assert_eq!(hash, GOLDEN_MODEL_HASH, "trained model bits moved: {hash:#018x}");
}

#[test]
fn five_epoch_comparator_embedding_reproduces_the_golden_bits() {
    let graph = comparator_graph();
    let z = five_epoch_model(&graph).embed(&graph.tensors, &graph.features);
    let bytes: Vec<u8> = z.as_slice().iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
    let hash = fnv1a(&bytes);
    assert_eq!(hash, GOLDEN_EMBED_HASH, "embedding bits moved: {hash:#018x}");
}

#[test]
fn two_shape_epochs_reproduce_the_golden_model_bits() {
    let dataset = [
        comparator_graph(),
        graph_of(&ancstr_circuits::ota::ota2(1)),
    ];
    let sizes = dataset.each_ref().map(|g| g.tensors.vertex_count());
    assert_eq!(sizes, [47, 20], "the two graphs must differ in size");
    let mut model = GnnModel::new(GnnConfig::default());
    let cfg = TrainConfig { epochs: 5, ..TrainConfig::default() };
    train(&mut model, &dataset, &cfg);
    let hash = fnv1a(model.to_text().as_bytes());
    assert_eq!(hash, GOLDEN_TWO_SHAPE_MODEL_HASH, "trained model bits moved: {hash:#018x}");
}
