#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! Reimplementations of the prior symmetry-constraint detectors the
//! paper compares against:
//!
//! * [`s3det`] — S³DET (ASP-DAC'20 \[20\]): system-level detection via
//!   normalized-Laplacian spectra + Kolmogorov–Smirnov graph similarity
//!   (Table V / Fig. 6 comparator);
//! * [`sfa`] — MAGICAL's signal-flow-analysis heuristic patterns
//!   (ICCAD'19 \[6\]): device-level detection (Table VI / Fig. 7
//!   comparator).
//!
//! Both reuse [`ancstr_core`]'s candidate enumeration and scoring types
//! so that [`ancstr_core::pipeline::evaluate_detection`] applies
//! uniformly to every detector.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use ancstr_baselines::sfa::sfa_extract;
//! use ancstr_netlist::{parse::parse_spice, flat::FlatCircuit};
//!
//! let nl = parse_spice("\
//! .subckt dp inp inn o1 o2 t vss
//! M1 o1 inp t vss nch w=4u l=0.2u
//! M2 o2 inn t vss nch w=4u l=0.2u
//! .ends
//! ")?;
//! let flat = FlatCircuit::elaborate(&nl)?;
//! let result = sfa_extract(&flat);
//! assert_eq!(result.detection.constraints.len(), 1); // the diff pair
//! # Ok(())
//! # }
//! ```

pub mod s3det;
pub mod sfa;
pub mod stats;

pub use s3det::{s3det_extract, S3detConfig};
pub use sfa::sfa_extract;
pub use stats::ks_statistic;
