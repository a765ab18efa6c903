#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! Synthetic AMS benchmark circuits with designer ground-truth symmetry
//! constraints.
//!
//! The paper evaluates on five proprietary taped-out ADCs (Table III)
//! and 15 open-source block-level circuits (Table IV). This crate builds
//! structurally equivalent, seeded synthetic versions:
//!
//! * [`ota::ota_suite`] — six OTA variants (Table VI: 12/20/12/36/38/15
//!   devices);
//! * [`comparator::comparator_suite`] — six comparators
//!   (47/8/34/22/17/17 devices);
//! * [`dac::dac_suite`] — two DACs (10/12 devices);
//! * [`latch::latch1`] — the 24-device latch;
//! * [`adc`] — ADC1–ADC5 system assemblers hitting the published device
//!   counts (285/345/347/731/1233) exactly;
//! * [`stress`] — seeded scale-sweep systems (10k–100k devices) with
//!   exact hierarchical ground truth for throughput benchmarking;
//! * [`clock::clock_circuit`] — the Fig. 2 sizing-aware clock example.
//!
//! Ground truth comes from `*.symmetry` annotations placed by the
//! generators: matched pairs share drawn sizes; same-type decoys get
//! distinct sizes so sizing-blind detectors produce false alarms.
//!
//! # Example
//!
//! ```
//! use ancstr_circuits::block_benchmarks;
//! use ancstr_netlist::flat::FlatCircuit;
//!
//! let blocks = block_benchmarks(42);
//! assert_eq!(blocks.len(), 15);
//! let total: usize = blocks
//!     .iter()
//!     .map(|nl| FlatCircuit::elaborate(nl).unwrap().devices().len())
//!     .sum();
//! assert_eq!(total, 324); // Table IV total
//! ```

pub mod adc;
pub mod builder;
pub mod clock;
pub mod comparator;
pub mod dac;
pub mod digital;
pub mod extras;
pub mod latch;
pub mod ota;
pub mod stress;
pub mod variants;

use ancstr_netlist::Netlist;

/// The 15 block-level benchmarks of Table IV, in Table VI order
/// (OTA1–6, COMP1–6, DAC1–2, LATCH1).
pub fn block_benchmarks(seed: u64) -> Vec<Netlist> {
    let mut out = ota::ota_suite(seed);
    out.extend(comparator::comparator_suite(seed));
    out.extend(dac::dac_suite(seed));
    out.push(latch::latch1(seed));
    out
}

/// Human-readable names of [`block_benchmarks`] entries, aligned with
/// the paper's Table VI rows.
pub fn block_benchmark_names() -> Vec<&'static str> {
    vec![
        "OTA1", "OTA2", "OTA3", "OTA4", "OTA5", "OTA6", "COMP1", "COMP2", "COMP3",
        "COMP4", "COMP5", "COMP6", "DAC1", "DAC2", "LATCH1",
    ]
}

/// Names of the ADC benchmarks, aligned with Table III/V rows.
pub fn adc_benchmark_names() -> Vec<&'static str> {
    vec!["ADC1", "ADC2", "ADC3", "ADC4", "ADC5"]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_netlist::flat::FlatCircuit;

    #[test]
    fn benchmark_names_align() {
        assert_eq!(block_benchmarks(1).len(), block_benchmark_names().len());
        assert_eq!(adc::adc_benchmarks().len(), adc_benchmark_names().len());
    }

    #[test]
    fn every_benchmark_elaborates_with_ground_truth() {
        for (nl, name) in block_benchmarks(1).iter().zip(block_benchmark_names()) {
            let flat = FlatCircuit::elaborate(nl).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!flat.ground_truth().is_empty(), "{name} lacks ground truth");
            assert!(flat.devices().len() >= 8, "{name} is too small");
        }
    }

    #[test]
    fn benchmarks_round_trip_through_spice() {
        use ancstr_netlist::{parse::parse_spice, write::write_spice};
        for nl in block_benchmarks(2) {
            let text = write_spice(&nl);
            let back = parse_spice(&text).expect("generated netlists parse back");
            let f1 = FlatCircuit::elaborate(&nl).unwrap();
            let f2 = FlatCircuit::elaborate(&back).unwrap();
            assert_eq!(f1.devices().len(), f2.devices().len());
            assert_eq!(f1.ground_truth().len(), f2.ground_truth().len());
        }
    }
}
