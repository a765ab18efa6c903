//! Criterion benches timing the end-to-end experiment units behind each
//! table: per-design detection for Table V (ours vs S³DET) and Table VI
//! (ours vs SFA). Training is benchmarked separately since the paper's
//! runtimes exclude it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ancstr_baselines::{s3det_extract, sfa_extract, S3detConfig};
use ancstr_bench::{block_dataset, quick_config, train_extractor, Benchmark};
use ancstr_circuits::adc::{adc1, adc4};
use ancstr_netlist::flat::FlatCircuit;

fn bench_table5_designs(c: &mut Criterion) {
    let designs: Vec<(&str, FlatCircuit)> = vec![
        ("ADC1", FlatCircuit::elaborate(&adc1()).expect("adc1")),
        ("ADC4", FlatCircuit::elaborate(&adc4()).expect("adc4")),
    ];
    let dataset: Vec<Benchmark> = designs
        .iter()
        .map(|(name, flat)| Benchmark { name, flat: flat.clone() })
        .collect();
    let extractor = train_extractor(&dataset, quick_config());

    let mut group = c.benchmark_group("table5_system_level");
    group.sample_size(10);
    for (name, flat) in &designs {
        group.bench_with_input(BenchmarkId::new("ours", name), flat, |b, flat| {
            b.iter(|| extractor.extract(flat))
        });
        group.bench_with_input(BenchmarkId::new("s3det", name), flat, |b, flat| {
            b.iter(|| {
                s3det_extract(flat, &S3detConfig { cache_spectra: true, ..Default::default() })
            })
        });
    }
    group.finish();
}

fn bench_table6_designs(c: &mut Criterion) {
    let dataset = block_dataset();
    let extractor = train_extractor(&dataset, quick_config());

    let mut group = c.benchmark_group("table6_device_level");
    group.sample_size(20);
    for b in dataset.iter().take(3) {
        group.bench_with_input(BenchmarkId::new("ours", b.name), &b.flat, |bn, flat| {
            bn.iter(|| extractor.extract(flat))
        });
        group.bench_with_input(BenchmarkId::new("sfa", b.name), &b.flat, |bn, flat| {
            bn.iter(|| sfa_extract(flat))
        });
    }
    group.finish();
}

fn bench_training(c: &mut Criterion) {
    let dataset = block_dataset();
    let mut group = c.benchmark_group("gnn_training");
    group.sample_size(10);
    group.bench_function("fit_15_blocks_5_epochs", |b| {
        b.iter(|| {
            let mut cfg = quick_config();
            cfg.train.epochs = 5;
            train_extractor(&dataset, cfg)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_table5_designs, bench_table6_designs, bench_training);
criterion_main!(benches);
