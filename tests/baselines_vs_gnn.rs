//! Cross-crate comparisons: the headline claims of Tables V–VI must
//! hold on the synthetic benchmarks — who wins, and in which metric.

use ancstr_baselines::{s3det_extract, sfa_extract, S3detConfig};
use ancstr_bench::{block_dataset, quick_config, train_extractor, AverageRow, MetricRow};
use ancstr_circuits::adc::adc1;
use ancstr_core::pipeline::evaluate_detection;
use ancstr_core::roc_curve;
use ancstr_netlist::flat::FlatCircuit;

/// Table VI shape: SFA recalls more but false-alarms much more; the GNN
/// wins on FPR, PPV, and F1.
#[test]
fn device_level_shape_holds() {
    let dataset = block_dataset();
    let extractor = train_extractor(&dataset, quick_config());

    let mut gnn_rows = Vec::new();
    let mut sfa_rows = Vec::new();
    for b in &dataset {
        let g = extractor.evaluate(&b.flat);
        gnn_rows.push(MetricRow::from_evaluation(b.name, &g, |e| e.device));
        let s = evaluate_detection(&b.flat, sfa_extract(&b.flat));
        sfa_rows.push(MetricRow::from_evaluation(b.name, &s, |e| e.device));
    }
    let gnn = AverageRow::of(&gnn_rows);
    let sfa = AverageRow::of(&sfa_rows);

    assert!(sfa.tpr >= gnn.tpr - 0.05, "SFA recalls at least comparably");
    assert!(gnn.fpr < sfa.fpr / 2.0, "GNN false-alarms far less: {} vs {}", gnn.fpr, sfa.fpr);
    assert!(gnn.ppv > sfa.ppv, "GNN precision wins");
    assert!(gnn.f1 > sfa.f1, "GNN F1 wins: {} vs {}", gnn.f1, sfa.f1);
    assert!(gnn.fpr < 0.05, "GNN FPR is small in absolute terms");
}

/// Table V shape on one ADC: S3DET is sizing-blind (high FPR), the GNN
/// is precise; the GNN is also faster.
#[test]
fn system_level_shape_holds_on_adc1() {
    let flat = FlatCircuit::elaborate(&adc1()).expect("adc1");
    let mut ex = ancstr_core::SymmetryExtractor::new(quick_config());
    ex.fit(&[&flat]);
    let gnn = ex.evaluate(&flat);
    let s3 = evaluate_detection(&flat, s3det_extract(&flat, &S3detConfig::default()));

    assert!(
        gnn.system.fpr() < s3.system.fpr(),
        "GNN FPR {} < S3DET FPR {}",
        gnn.system.fpr(),
        s3.system.fpr()
    );
    assert!(
        gnn.system.f1() > s3.system.f1(),
        "GNN F1 {} > S3DET F1 {}",
        gnn.system.f1(),
        s3.system.f1()
    );
}

/// Fig. 6 shape: the GNN ROC dominates S3DET's on merged system pairs.
#[test]
fn system_roc_dominates() {
    let flat = FlatCircuit::elaborate(&adc1()).expect("adc1");
    let mut ex = ancstr_core::SymmetryExtractor::new(quick_config());
    ex.fit(&[&flat]);
    let gnn_samples = ex.evaluate(&flat).system_samples;
    let s3 = evaluate_detection(
        &flat,
        s3det_extract(&flat, &S3detConfig { cache_spectra: true, ..Default::default() }),
    );
    let gnn_auc = roc_curve(&gnn_samples).auc;
    let s3_auc = roc_curve(&s3.system_samples).auc;
    assert!(
        gnn_auc > s3_auc,
        "GNN AUC {gnn_auc:.3} should exceed S3DET AUC {s3_auc:.3}"
    );
}

/// Fig. 7 shape: device-level merged AUC is high (paper: 0.956).
#[test]
fn device_roc_auc_is_high() {
    let dataset = block_dataset();
    let extractor = train_extractor(&dataset, quick_config());
    let mut samples = Vec::new();
    for b in &dataset {
        samples.extend(extractor.evaluate(&b.flat).device_samples);
    }
    let auc = roc_curve(&samples).auc;
    assert!(auc > 0.85, "device-level AUC {auc:.3} (paper: 0.956)");
}

/// Runtime shape: S3DET cost grows much faster with design size than
/// the GNN's (the 218x story, scaled to our substrate).
#[test]
fn runtime_gap_grows_with_design_size() {
    let small = FlatCircuit::elaborate(&ancstr_circuits::comparator::comp3(1)).expect("comp3");
    let large = FlatCircuit::elaborate(&ancstr_circuits::adc::adc5()).expect("adc5");

    let t_small = s3det_extract(&small, &S3detConfig::default()).runtime;
    let t_large = s3det_extract(&large, &S3detConfig::default()).runtime;

    let mut ex = ancstr_core::SymmetryExtractor::new(quick_config());
    ex.fit(&[&small]);
    let g_small = ex.extract(&small).runtime;
    let g_large = ex.extract(&large).runtime;

    let s3_growth = t_large.as_secs_f64() / t_small.as_secs_f64().max(1e-6);
    let gnn_growth = g_large.as_secs_f64() / g_small.as_secs_f64().max(1e-6);
    assert!(
        s3_growth > gnn_growth,
        "S3DET growth {s3_growth:.1}x vs GNN growth {gnn_growth:.1}x"
    );
}
