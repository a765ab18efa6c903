#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

//! Heterogeneous multigraph circuit representation (paper Section IV-A)
//! and the graph algorithms the AncstrGNN pipeline relies on.
//!
//! * [`PinStream`] — a block's pins in Algorithm 1's order with the
//!   global net ids erased. Its clique walk
//!   ([`PinStream::for_each_clique_pair`]) is where Algorithm 1's rules
//!   live; every graph below is built from it, and so are the GNN's
//!   Eq. 1 operators (`ancstr_gnn::GraphTensors::from_circuit`), the
//!   DOT export ([`dot::to_dot`]) and the S³DET baseline's adjacency,
//!   none of which stores a multigraph;
//! * [`HetMultigraph`] — the directed multigraph `G = (V, E)` whose
//!   vertices are primitive devices and whose edges `(u, v, τ_v)` are
//!   typed by the destination port. No library or CLI path builds one:
//!   it is the reference the direct builds are tested against;
//! * [`SimpleDigraph`] — the de-paralleled, untyped digraph `G'_t` used
//!   by circuit feature embedding (Algorithm 2, lines 1–4);
//! * [`pagerank()`] — Eq. 3's PageRank iteration.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use ancstr_netlist::{parse::parse_spice, flat::FlatCircuit};
//! use ancstr_graph::{HetMultigraph, BuildOptions, PinStream};
//!
//! let nl = parse_spice("\
//! .subckt amp in out vdd vss
//! M1 out in vss vss nch w=1u l=0.1u
//! M2 out in vdd vdd pch w=2u l=0.1u
//! C1 out vss 10f
//! .ends
//! ")?;
//! let flat = FlatCircuit::elaborate(&nl)?;
//! let options = BuildOptions::default();
//! let g = HetMultigraph::from_circuit(&flat, &options);
//! assert_eq!(g.vertex_count(), 3);
//!
//! // The same clique walk, without storing a graph: each pair of pins
//! // on a net is two typed edges.
//! let stream = PinStream::from_device_range(&flat, 0..flat.devices().len());
//! let mut edges = 0;
//! stream.for_each_clique_pair(&options, |_, _| edges += 2);
//! assert_eq!(edges, g.edge_count());
//! # Ok(())
//! # }
//! ```

pub mod build;
pub mod dot;
pub mod multigraph;
pub mod pagerank;
pub mod simplify;

pub use build::{BuildOptions, PinStream};
pub use multigraph::{Edge, EdgeId, HetMultigraph, VertexId};
pub use pagerank::{pagerank, PageRankOptions};
pub use simplify::SimpleDigraph;
