//! Paper fidelity gate: the integer confusion counts behind Tables V
//! and VI, pinned per design under `experiment_config()`.
//!
//! The table binaries print ratios derived from exactly these counts,
//! so any change to training, thresholds, labels or the baselines that
//! moves a published number fails here. A pin may only change together
//! with an EXPERIMENTS.md paragraph naming the deliberate algorithm or
//! label change behind it.
//!
//! The S³DET pins are `#[ignore]`d because its spectral search on
//! ADC4/5 dominates the Table V runtime; CI runs them with
//! `--include-ignored`.

use ancstr_baselines::{s3det_extract, sfa_extract, S3detConfig};
use ancstr_bench::{adc_dataset, block_dataset, experiment_config, train_extractor, Benchmark};
use ancstr_core::pipeline::evaluate_detection;
use ancstr_core::Confusion;

/// One design's pinned `[TP, FP, TN, FN]`: this work's, then the
/// table's baseline's.
type Row = (&'static str, [[usize; 4]; 2]);

/// Column of [`Row`] holding this work's counts.
const THIS_WORK: usize = 0;
/// Column of [`Row`] holding the baseline's counts.
const BASELINE: usize = 1;

/// Table V, system level on ADC1–5: this work, then S³DET.
const TABLE5: [Row; 5] = [
    ("ADC1", [[14, 0, 30, 2], [16, 27, 3, 0]]),
    ("ADC2", [[23, 0, 54, 5], [27, 37, 17, 1]]),
    ("ADC3", [[21, 0, 55, 5], [25, 41, 14, 1]]),
    ("ADC4", [[18, 0, 37, 6], [24, 34, 3, 0]]),
    ("ADC5", [[64, 0, 55, 2], [66, 31, 24, 0]]),
];

/// Table VI, device level on the 15 blocks: this work, then SFA.
const TABLE6: [Row; 15] = [
    ("OTA1", [[0, 0, 7, 2], [2, 6, 1, 0]]),
    ("OTA2", [[8, 0, 19, 0], [6, 8, 11, 2]]),
    ("OTA3", [[2, 0, 9, 2], [4, 9, 0, 0]]),
    ("OTA4", [[12, 10, 92, 0], [8, 64, 38, 4]]),
    ("OTA5", [[222, 1, 8, 0], [220, 1, 8, 2]]),
    ("OTA6", [[12, 0, 12, 2], [14, 12, 0, 0]]),
    ("COMP1", [[29, 6, 255, 2], [30, 127, 134, 1]]),
    ("COMP2", [[3, 0, 6, 0], [3, 0, 6, 0]]),
    ("COMP3", [[13, 0, 169, 3], [15, 93, 76, 1]]),
    ("COMP4", [[10, 0, 64, 0], [9, 16, 48, 1]]),
    ("COMP5", [[8, 0, 36, 0], [8, 22, 14, 0]]),
    ("COMP6", [[8, 0, 28, 0], [8, 22, 6, 0]]),
    ("DAC1", [[3, 0, 1, 5], [8, 1, 0, 0]]),
    ("DAC2", [[6, 0, 22, 6], [6, 10, 12, 6]]),
    ("LATCH1", [[10, 0, 75, 0], [9, 40, 35, 1]]),
];

/// Compare every design's counts against its pin in `column`,
/// reporting all mismatches at once so a drift shows its full extent.
fn assert_pins(
    table: &str,
    dataset: &[Benchmark],
    rows: &[Row],
    column: usize,
    confusion: impl Fn(&Benchmark) -> Confusion,
) {
    assert_eq!(dataset.len(), rows.len(), "{table}: one pin per design");
    let mut drift = Vec::new();
    for (b, (name, pins)) in dataset.iter().zip(rows) {
        assert_eq!(b.name, *name, "{table}: pins follow the dataset order");
        let c = confusion(b);
        let got = [c.tp, c.fp, c.tn, c.fn_];
        if got != pins[column] {
            drift.push(format!("    {name}: got {got:?}, pinned {:?}", pins[column]));
        }
    }
    assert!(drift.is_empty(), "{table} counts drifted from the pins:\n{}", drift.join("\n"));
}

#[test]
fn table5_this_work_counts_are_pinned() {
    let dataset = adc_dataset();
    let extractor = train_extractor(&dataset, experiment_config());
    assert_pins("Table V this work", &dataset, &TABLE5, THIS_WORK, |b| {
        extractor.evaluate(&b.flat).system
    });
}

#[test]
#[ignore = "S3DET on ADC4/5 takes several seconds; CI runs it with --include-ignored"]
fn table5_s3det_counts_are_pinned() {
    let dataset = adc_dataset();
    assert_pins("Table V S3DET", &dataset, &TABLE5, BASELINE, |b| {
        evaluate_detection(&b.flat, s3det_extract(&b.flat, &S3detConfig::default())).system
    });
}

#[test]
fn table6_this_work_counts_are_pinned() {
    let dataset = block_dataset();
    let extractor = train_extractor(&dataset, experiment_config());
    assert_pins("Table VI this work", &dataset, &TABLE6, THIS_WORK, |b| {
        extractor.evaluate(&b.flat).device
    });
}

#[test]
fn table6_sfa_counts_are_pinned() {
    let dataset = block_dataset();
    assert_pins("Table VI SFA", &dataset, &TABLE6, BASELINE, |b| {
        evaluate_detection(&b.flat, sfa_extract(&b.flat)).device
    });
}
