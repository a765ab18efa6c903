#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! Experiment harness: shared plumbing for the binaries that regenerate
//! the paper's Tables III–VI and Figs. 6–7 (and the extension
//! experiments), the Criterion benches, and the workspace
//! examples/integration tests.

use std::time::Duration;

use ancstr_circuits::{adc, adc_benchmark_names, block_benchmark_names, block_benchmarks};
use ancstr_core::{
    pair_stats, Confusion, Evaluation, ExtractorConfig, SymmetryExtractor,
};
use ancstr_gnn::TrainConfig;
use ancstr_netlist::flat::FlatCircuit;
use ancstr_netlist::Netlist;

/// Deterministic seed used by every experiment binary.
pub const EXPERIMENT_SEED: u64 = 20210705;

/// A named elaborated benchmark.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Table row name (e.g. `ADC1`, `OTA3`).
    pub name: &'static str,
    /// The elaborated circuit.
    pub flat: FlatCircuit,
}

fn elaborate_all(names: Vec<&'static str>, netlists: Vec<Netlist>) -> Vec<Benchmark> {
    names
        .into_iter()
        .zip(netlists)
        .map(|(name, nl)| Benchmark {
            name,
            flat: FlatCircuit::elaborate(&nl)
                .unwrap_or_else(|e| panic!("{name} must elaborate: {e}")),
        })
        .collect()
}

/// The five ADC benchmarks of Table III.
pub fn adc_dataset() -> Vec<Benchmark> {
    elaborate_all(adc_benchmark_names(), adc::adc_benchmarks())
}

/// The 15 block-level benchmarks of Table IV.
pub fn block_dataset() -> Vec<Benchmark> {
    elaborate_all(block_benchmark_names(), block_benchmarks(EXPERIMENT_SEED))
}

/// The experiment-grade extractor configuration (Section V: K = 2,
/// D = 18, B = 5, M = 10, α = β = 0.95).
pub fn experiment_config() -> ExtractorConfig {
    ExtractorConfig {
        train: TrainConfig {
            epochs: 60,
            learning_rate: 0.01,
            seed: EXPERIMENT_SEED,
            ..TrainConfig::default()
        },
        ..ExtractorConfig::default()
    }
}

/// A faster configuration for tests and smoke runs.
pub fn quick_config() -> ExtractorConfig {
    ExtractorConfig {
        train: TrainConfig {
            epochs: 30,
            learning_rate: 0.02,
            seed: EXPERIMENT_SEED,
            ..TrainConfig::default()
        },
        ..ExtractorConfig::default()
    }
}

/// Train one extractor on a whole dataset (the paper trains the
/// unsupervised model on all circuits jointly).
pub fn train_extractor(dataset: &[Benchmark], config: ExtractorConfig) -> SymmetryExtractor {
    let mut ex = SymmetryExtractor::new(config);
    let refs: Vec<&FlatCircuit> = dataset.iter().map(|b| &b.flat).collect();
    ex.fit(&refs);
    ex
}

/// One formatted metric row (TPR/FPR/PPV/ACC/F1 + runtime).
#[derive(Debug, Clone)]
pub struct MetricRow {
    /// Row label.
    pub name: String,
    /// Confusion the metrics derive from.
    pub confusion: Confusion,
    /// Detection runtime.
    pub runtime: Duration,
}

impl MetricRow {
    /// Build from an evaluation, selecting the confusion by `selector`.
    pub fn from_evaluation(
        name: impl Into<String>,
        eval: &Evaluation,
        selector: impl Fn(&Evaluation) -> Confusion,
    ) -> MetricRow {
        MetricRow {
            name: name.into(),
            confusion: selector(eval),
            runtime: eval.extraction.runtime,
        }
    }

    /// Render as a fixed-width table line.
    pub fn render(&self) -> String {
        let c = &self.confusion;
        format!(
            "{:<8} {:>6.3} {:>6.3} {:>6.3} {:>6.3} {:>8.3} {:>10.3}",
            self.name,
            c.tpr(),
            c.fpr(),
            c.ppv(),
            c.acc(),
            c.f1(),
            self.runtime.as_secs_f64()
        )
    }
}

/// The table header matching [`MetricRow::render`].
pub fn metric_header() -> String {
    format!(
        "{:<8} {:>6} {:>6} {:>6} {:>6} {:>8} {:>10}",
        "Design", "TPR", "FPR", "PPV", "ACC", "F1", "Runtime(s)"
    )
}

/// Macro-averaged metrics over a set of rows (the paper's "Average"
/// rows average the per-design metrics, not the confusions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AverageRow {
    /// Mean true positive rate.
    pub tpr: f64,
    /// Mean false positive rate.
    pub fpr: f64,
    /// Mean positive predictive value.
    pub ppv: f64,
    /// Mean accuracy.
    pub acc: f64,
    /// Mean F₁-score.
    pub f1: f64,
    /// Mean runtime.
    pub runtime: Duration,
}

impl AverageRow {
    /// Macro-average a non-empty set of rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty.
    pub fn of(rows: &[MetricRow]) -> AverageRow {
        assert!(!rows.is_empty(), "cannot average zero rows");
        let n = rows.len() as f64;
        let avg = |f: &dyn Fn(&Confusion) -> f64| {
            rows.iter().map(|r| f(&r.confusion)).sum::<f64>() / n
        };
        AverageRow {
            tpr: avg(&Confusion::tpr),
            fpr: avg(&Confusion::fpr),
            ppv: avg(&Confusion::ppv),
            acc: avg(&Confusion::acc),
            f1: avg(&Confusion::f1),
            runtime: rows.iter().map(|r| r.runtime).sum::<Duration>() / rows.len() as u32,
        }
    }

    /// Render in the [`MetricRow::render`] format.
    pub fn render(&self) -> String {
        format!(
            "{:<8} {:>6.3} {:>6.3} {:>6.3} {:>6.3} {:>8.3} {:>10.3}",
            "Average",
            self.tpr,
            self.fpr,
            self.ppv,
            self.acc,
            self.f1,
            self.runtime.as_secs_f64()
        )
    }
}

/// Render the macro-average row of a set of rows.
pub fn render_average(rows: &[MetricRow]) -> String {
    AverageRow::of(rows).render()
}

/// Dataset statistics line for Tables III/IV.
pub fn stats_line(b: &Benchmark) -> String {
    let stats = pair_stats(&b.flat);
    format!(
        "{:<8} {:>9} {:>6} {:>12} {:>10} {:>8} {:>8}",
        b.name,
        b.flat.devices().len(),
        b.flat.net_count(),
        stats.total,
        stats.positives,
        stats.system,
        stats.device,
    )
}

/// Header matching [`stats_line`].
pub fn stats_header() -> String {
    format!(
        "{:<8} {:>9} {:>6} {:>12} {:>10} {:>8} {:>8}",
        "Design", "#Devices", "#Nets", "#ValidPairs", "#Matched", "#System", "#Device"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_load() {
        let blocks = block_dataset();
        assert_eq!(blocks.len(), 15);
        let total: usize = blocks.iter().map(|b| b.flat.devices().len()).sum();
        assert_eq!(total, 324);
    }

    #[test]
    fn metric_row_renders_all_fields() {
        let row = MetricRow {
            name: "X".into(),
            confusion: Confusion { tp: 1, fp: 1, tn: 1, fn_: 1 },
            runtime: Duration::from_millis(1500),
        };
        let s = row.render();
        assert!(s.contains("0.500"));
        assert!(s.contains("1.500"));
        assert_eq!(metric_header().split_whitespace().count(), 7);
    }

    #[test]
    fn average_row_macro_averages() {
        let rows = vec![
            MetricRow {
                name: "a".into(),
                confusion: Confusion { tp: 1, fp: 0, tn: 1, fn_: 0 },
                runtime: Duration::from_secs(1),
            },
            MetricRow {
                name: "b".into(),
                confusion: Confusion { tp: 0, fp: 1, tn: 0, fn_: 1 },
                runtime: Duration::from_secs(3),
            },
        ];
        let avg = render_average(&rows);
        // TPR avg of 1.0 and 0.0.
        assert!(avg.contains("0.500"));
        assert!(avg.contains("2.000"));
    }
}
