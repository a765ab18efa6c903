//! Criterion benches for the computational kernels behind every table:
//! multigraph construction (Alg. 1), PageRank (Eq. 3), GNN forward
//! (Eq. 1), training step (Eq. 2), Jacobi eigensolve and K-S statistic
//! (the S³DET inner loops).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ancstr_bench::quick_config;
use ancstr_circuits::adc::adc1;
use ancstr_circuits::comparator::comp1;
use ancstr_core::circuit_features;
use ancstr_core::{EmbedOptions, FeatureConfig};
use ancstr_gnn::{GnnConfig, GnnModel, GraphTensors};
use ancstr_graph::{pagerank, BuildOptions, HetMultigraph, SimpleDigraph};
use ancstr_netlist::flat::FlatCircuit;
use ancstr_nn::linalg::{normalized_laplacian, symmetric_eigenvalues};
use ancstr_nn::Matrix;

fn bench_graph_build(c: &mut Criterion) {
    let small = FlatCircuit::elaborate(&comp1(1)).expect("comp1");
    let large = FlatCircuit::elaborate(&adc1()).expect("adc1");
    let mut g = c.benchmark_group("multigraph_build");
    for (name, flat) in [("comp1_47", &small), ("adc1_285", &large)] {
        g.bench_with_input(BenchmarkId::from_parameter(name), flat, |b, flat| {
            b.iter(|| HetMultigraph::from_circuit(flat, &BuildOptions { max_net_degree: Some(64) }))
        });
    }
    g.finish();
}

/// Algorithm 2 lines 1–6 as `extract` runs them: the simple digraph
/// built straight from the pins, then PageRank.
fn bench_pagerank(c: &mut Criterion) {
    let flat = FlatCircuit::elaborate(&adc1()).expect("adc1");
    let opts = EmbedOptions::default();
    c.bench_function("pagerank_adc1", |b| {
        b.iter(|| {
            let s = SimpleDigraph::from_device_range(&flat, 0..flat.devices().len(), &opts.build);
            pagerank(&s, &opts.pagerank)
        })
    });
}

fn bench_gnn_forward(c: &mut Criterion) {
    let flat = FlatCircuit::elaborate(&adc1()).expect("adc1");
    let g = HetMultigraph::from_circuit(&flat, &BuildOptions { max_net_degree: Some(64) });
    let tensors = GraphTensors::from_multigraph(&g);
    let features = circuit_features(&flat, &FeatureConfig::default());
    let model = GnnModel::new(GnnConfig::default());
    c.bench_function("gnn_forward_adc1", |b| {
        b.iter(|| model.embed(&tensors, &features))
    });
}

fn bench_extraction(c: &mut Criterion) {
    let flat = FlatCircuit::elaborate(&comp1(1)).expect("comp1");
    let mut ex = ancstr_core::SymmetryExtractor::new(quick_config());
    ex.fit(&[&flat]);
    c.bench_function("extract_comp1", |b| b.iter(|| ex.extract(&flat)));
}

fn bench_eigensolve(c: &mut Criterion) {
    let mut g = c.benchmark_group("jacobi_eigensolve");
    g.sample_size(10);
    for n in [16usize, 48, 96] {
        // A Laplacian-like symmetric matrix.
        let adj = Matrix::from_fn(n, n, |i, j| {
            if i != j && (i + j) % 3 == 0 {
                1.0
            } else {
                0.0
            }
        });
        let lap = normalized_laplacian(&adj);
        g.bench_with_input(BenchmarkId::from_parameter(n), &lap, |b, lap| {
            b.iter(|| symmetric_eigenvalues(lap))
        });
    }
    g.finish();
}

fn bench_ks(c: &mut Criterion) {
    let a: Vec<f64> = (0..512).map(|i| (i as f64 * 37.0) % 101.0).collect();
    let b_: Vec<f64> = (0..512).map(|i| (i as f64 * 53.0) % 97.0).collect();
    c.bench_function("ks_statistic_512", |b| {
        b.iter(|| ancstr_baselines::ks_statistic(&a, &b_))
    });
}

fn bench_placer(c: &mut Criterion) {
    use ancstr_place::{place, AnnealConfig, PlacementProblem};
    let flat = FlatCircuit::elaborate(&comp1(1)).expect("comp1");
    let problem = PlacementProblem::from_circuit(&flat, flat.ground_truth());
    let cfg = AnnealConfig { steps: 40, moves_per_step: 60, ..AnnealConfig::default() };
    let mut g = c.benchmark_group("placer_anneal");
    g.sample_size(10);
    g.bench_function("comp1_47_cells", |b| b.iter(|| place(&problem, &cfg)));
    g.finish();
}

criterion_group!(
    benches,
    bench_graph_build,
    bench_pagerank,
    bench_gnn_forward,
    bench_extraction,
    bench_eigensolve,
    bench_ks,
    bench_placer
);
criterion_main!(benches);
