#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! Circuit netlist data model for the AncstrGNN symmetry-extraction
//! framework.
//!
//! This crate provides everything the rest of the workspace needs to talk
//! about analog/mixed-signal circuits:
//!
//! * [`DeviceType`] — the 15-way primitive device taxonomy used by the
//!   paper's one-hot feature encoding (Table II);
//! * [`Subckt`] / [`Netlist`] — hierarchical subcircuit templates with
//!   devices, nets, and child instances;
//! * [`parse::parse_spice`] — a SPICE-subset parser (`.subckt`, `M`/`R`/
//!   `C`/`L`/`D`/`Q`/`X` cards, SI-suffixed values, symmetry pragmas);
//! * [`flat::FlatCircuit`] — the elaborated design: a flattened device/net
//!   list plus the hierarchy tree `T` of Problem 1;
//! * [`SymmetryConstraint`] — the three-tuple `s = (T_c, t_i, t_j)` of
//!   Section III-A, with system-/device-level classification.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use ancstr_netlist::{parse::parse_spice, flat::FlatCircuit};
//!
//! let src = "\
//! .subckt inv in out vdd vss
//! Mp out in vdd vdd pch_lvt w=2u l=0.1u
//! Mn out in vss vss nch_lvt w=1u l=0.1u
//! .ends
//! .subckt top a b vdd vss
//! Xu0 a b vdd vss inv
//! .ends
//! .top top
//! ";
//! let netlist = parse_spice(src)?;
//! let flat = FlatCircuit::elaborate(&netlist)?;
//! assert_eq!(flat.devices().len(), 2);
//! # Ok(())
//! # }
//! ```

pub mod constraint;
pub mod device;
pub mod error;
pub mod flat;
pub mod netlist;
#[cfg(test)]
mod oracle;
pub mod order;
pub mod parse;
pub mod subckt;
pub mod units;
pub mod write;

pub use constraint::{ConstraintSet, PairKey, SymmetryConstraint, SymmetryKind};
pub use device::{Device, DeviceType, Geometry, PortType};
pub use error::{ElaborateError, ParseNetlistError};
pub use flat::{FlatCircuit, FlatDevice, HierNode, HierNodeId, HierNodeKind, NetId};
pub use netlist::Netlist;
pub use subckt::{CircuitClass, Element, Instance, Subckt};
