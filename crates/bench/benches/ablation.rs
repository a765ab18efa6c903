//! Ablation benches for the design choices DESIGN.md calls out: number
//! of GNN layers K, sizing features on/off (the Fig. 2 story), the
//! top-M embedding budget, power-net pruning, and S³DET spectra caching.
//!
//! These are quality-oriented ablations wrapped in Criterion so the
//! runtime cost of each choice is measured too; the resulting F1 values
//! are printed once per configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ancstr_baselines::{s3det_extract, S3detConfig};
use ancstr_bench::{block_dataset, quick_config, train_extractor, AverageRow, MetricRow};
use ancstr_circuits::adc::adc1;
use ancstr_core::{EmbedOptions, FeatureConfig};
use ancstr_graph::BuildOptions;
use ancstr_netlist::flat::FlatCircuit;

fn device_f1(config: ancstr_core::ExtractorConfig) -> f64 {
    let dataset = block_dataset();
    let ex = train_extractor(&dataset, config);
    let rows: Vec<MetricRow> = dataset
        .iter()
        .map(|b| MetricRow::from_evaluation(b.name, &ex.evaluate(&b.flat), |e| e.device))
        .collect();
    AverageRow::of(&rows).f1
}

fn bench_layers_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_layers_k");
    group.sample_size(10);
    for k in [1usize, 2, 3] {
        let mut cfg = quick_config();
        cfg.gnn.layers = k;
        let f1 = device_f1(cfg.clone());
        println!("[ablation] K = {k}: device-level mean F1 = {f1:.3}");
        let dataset = block_dataset();
        let ex = train_extractor(&dataset, cfg);
        group.bench_with_input(BenchmarkId::from_parameter(k), &dataset[3], |b, bench| {
            b.iter(|| ex.extract(&bench.flat))
        });
    }
    group.finish();
}

fn bench_sizing_features(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_sizing");
    group.sample_size(10);
    for (name, use_sizing) in [("with_sizing", true), ("without_sizing", false)] {
        let mut cfg = quick_config();
        cfg.features = FeatureConfig { use_sizing };
        let f1 = device_f1(cfg.clone());
        println!("[ablation] {name}: device-level mean F1 = {f1:.3}");
        let dataset = block_dataset();
        let ex = train_extractor(&dataset, cfg);
        group.bench_with_input(BenchmarkId::from_parameter(name), &dataset[0], |b, bench| {
            b.iter(|| ex.extract(&bench.flat))
        });
    }
    group.finish();
}

fn bench_top_m(c: &mut Criterion) {
    let flat = FlatCircuit::elaborate(&adc1()).expect("adc1");
    let dataset = vec![ancstr_bench::Benchmark { name: "ADC1", flat: flat.clone() }];
    let mut group = c.benchmark_group("ablation_top_m");
    group.sample_size(10);
    for m in [1usize, 5, 10, 20] {
        let mut cfg = quick_config();
        cfg.embed = EmbedOptions { m, ..EmbedOptions::default() };
        let ex = train_extractor(&dataset, cfg);
        let eval = ex.evaluate(&flat);
        println!(
            "[ablation] M = {m:>2}: ADC1 system F1 = {:.3}",
            eval.system.f1()
        );
        group.bench_with_input(BenchmarkId::from_parameter(m), &flat, |b, flat| {
            b.iter(|| ex.extract(flat))
        });
    }
    group.finish();
}

fn bench_net_pruning(c: &mut Criterion) {
    let flat = FlatCircuit::elaborate(&adc1()).expect("adc1");
    let mut group = c.benchmark_group("ablation_net_pruning");
    group.sample_size(10);
    for (name, max) in [("faithful_none", None), ("pruned_64", Some(64)), ("pruned_16", Some(16))]
    {
        let mut cfg = quick_config();
        cfg.build = BuildOptions { max_net_degree: max };
        let dataset = vec![ancstr_bench::Benchmark { name: "ADC1", flat: flat.clone() }];
        let ex = train_extractor(&dataset, cfg);
        let eval = ex.evaluate(&flat);
        println!(
            "[ablation] net pruning {name}: ADC1 overall F1 = {:.3}",
            eval.overall.f1()
        );
        group.bench_with_input(BenchmarkId::from_parameter(name), &flat, |b, flat| {
            b.iter(|| ex.extract(flat))
        });
    }
    group.finish();
}

fn bench_s3det_caching(c: &mut Criterion) {
    let flat = FlatCircuit::elaborate(&adc1()).expect("adc1");
    let mut group = c.benchmark_group("ablation_s3det_cache");
    group.sample_size(10);
    for (name, cache) in [("recompute", false), ("cached", true)] {
        let cfg = S3detConfig { cache_spectra: cache, ..Default::default() };
        group.bench_with_input(BenchmarkId::from_parameter(name), &flat, |b, flat| {
            b.iter(|| s3det_extract(flat, &cfg))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_layers_k,
    bench_sizing_features,
    bench_top_m,
    bench_net_pruning,
    bench_s3det_caching
);
criterion_main!(benches);
