//! Algorithm 1: `ConstructHeterogeneousGraph(N)` — clique-based edge
//! construction over the nets of a (sub)circuit.

use std::ops::Range;

use ancstr_netlist::flat::{FlatCircuit, HierNodeId};
use ancstr_netlist::PortType;

use crate::multigraph::HetMultigraph;

/// Options controlling multigraph construction.
///
/// The defaults reproduce the paper's Algorithm 1 exactly. The
/// `max_net_degree` knob exists for the ablation study: cliques on
/// high-fanout nets (supplies, clocks) dominate `|E|` quadratically, and
/// the ablation bench measures what skipping them does to quality and
/// runtime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BuildOptions {
    /// When `Some(k)`, nets touching more than `k` device pins contribute
    /// no clique edges. `None` (the default) is the faithful Algorithm 1.
    pub max_net_degree: Option<usize>,
}

/// Algorithm 1's clique enumeration over the devices in `range` — the
/// one place its rules live.
///
/// Nets are restricted to the pins of in-scope devices, so connections
/// leaving the scope are ignored (they belong to the enclosing
/// hierarchy). Nets are visited by id, the pins of one net in device
/// then pin order; a net with more than `max_net_degree` pins is
/// skipped. For every unordered pair of pins on a net that belong to
/// two different devices (no self loops), `pair((u, τ_u), (v, τ_v))` is
/// called with local vertex indices (`device index - range.start`, so
/// `u` comes first in pin order). Algorithm 1 turns the pair into the
/// two typed edges `(u, v, τ_v)` and `(v, u, τ_u)`.
pub(crate) fn for_each_clique_pair(
    flat: &FlatCircuit,
    range: Range<usize>,
    options: &BuildOptions,
    mut pair: impl FnMut((usize, PortType), (usize, PortType)),
) {
    // In-scope pins as (net, vertex, pin index, port), sorted by net,
    // then vertex, then pin index: grouped by net, each net's pins in
    // device then pin order. The keys are unique, so an in-place
    // unstable sort gives that order; on a 100k-device circuit a stable
    // sort's scratch buffer over wider entries raised `extract`'s peak
    // RSS by ~15 MB. (Vertex and net counts fit `u32` in any circuit
    // that fits in memory.)
    let devices = &flat.devices()[range];
    let mut pins: Vec<(u32, u32, u8, PortType)> =
        Vec::with_capacity(devices.iter().map(|d| d.typed_pins().count()).sum());
    for (v, d) in devices.iter().enumerate() {
        for (k, (net, port)) in d.typed_pins().enumerate() {
            pins.push((net.0 as u32, v as u32, k as u8, port));
        }
    }
    pins.sort_unstable_by_key(|&(net, v, k, _)| (net, v, k));

    for net in pins.chunk_by(|a, b| a.0 == b.0) {
        if options.max_net_degree.is_some_and(|k| net.len() > k) {
            continue;
        }
        for (i, &(_, u, _, tu)) in net.iter().enumerate() {
            for &(_, v, _, tv) in &net[i + 1..] {
                if u != v {
                    pair((u as usize, tu), (v as usize, tv));
                }
            }
        }
    }
}

impl HetMultigraph {
    /// Build the multigraph over *all* devices of the circuit
    /// (Algorithm 1 applied to the whole netlist).
    pub fn from_circuit(flat: &FlatCircuit, options: &BuildOptions) -> HetMultigraph {
        Self::from_device_range(flat, 0..flat.devices().len(), options)
    }

    /// Build the multigraph over the devices beneath one hierarchy node —
    /// the per-subcircuit graph `G_t`. (Circuit feature embedding needs
    /// only its simple digraph, which
    /// [`SimpleDigraph::from_device_range`](crate::SimpleDigraph::from_device_range)
    /// builds without it.)
    pub fn from_subtree(
        flat: &FlatCircuit,
        node: HierNodeId,
        options: &BuildOptions,
    ) -> HetMultigraph {
        Self::from_device_range(flat, flat.subtree_device_indices(node), options)
    }

    /// Build the multigraph over an explicit range of flat-device
    /// indices. Nets are restricted to the pins of in-scope devices, so
    /// connections leaving the scope are ignored (they belong to the
    /// enclosing hierarchy).
    pub fn from_device_range(
        flat: &FlatCircuit,
        range: Range<usize>,
        options: &BuildOptions,
    ) -> HetMultigraph {
        let mut g = HetMultigraph::with_vertices(range.clone());
        // Both directions of each clique pair, each typed by its
        // destination port.
        for_each_clique_pair(flat, range, options, |(u, tu), (v, tv)| {
            g.add_edge(crate::VertexId(u), crate::VertexId(v), tv);
            g.add_edge(crate::VertexId(v), crate::VertexId(u), tu);
        });
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_netlist::parse::parse_spice;
    use crate::VertexId;

    /// The circuit of Fig. 5 / Example 1: a two-transistor branch with a
    /// tail device and a load capacitor.
    ///
    /// `m1` and `m2` share a drain net `out`; `C_L` also hangs on `out`.
    fn fig5() -> FlatCircuit {
        let nl = parse_spice(
            "\
.subckt amp in bias out vdd vss
M0 tail bias vss vss nch w=2u l=0.2u
M1 out in tail vss nch w=4u l=0.1u
M2 out out vdd vdd pch w=8u l=0.1u
CL out vss 100f
.ends
",
        )
        .unwrap();
        FlatCircuit::elaborate(&nl).unwrap()
    }

    fn vertex_by_name(flat: &FlatCircuit, g: &HetMultigraph, name: &str) -> VertexId {
        let di = flat
            .devices()
            .iter()
            .position(|d| d.path.ends_with(name))
            .unwrap();
        g.vertex_for_device(di).unwrap()
    }

    #[test]
    fn example1_fig5() {
        let flat = fig5();
        let g = HetMultigraph::from_circuit(&flat, &BuildOptions::default());
        assert_eq!(g.vertex_count(), 4);
        let m1 = vertex_by_name(&flat, &g, "M1");
        let m2 = vertex_by_name(&flat, &g, "M2");
        let cl = vertex_by_name(&flat, &g, "CL");

        // e1 = (m1, m2, p_drain): m1's drain net `out` lands on m2's drain.
        assert!(g
            .edges()
            .iter()
            .any(|e| e.src == m1 && e.dst == m2 && e.port == PortType::Drain));
        // e2 = (m1, CL, p_passive).
        assert!(g
            .edges()
            .iter()
            .any(|e| e.src == m1 && e.dst == cl && e.port == PortType::Passive));
        // Reciprocal edge back into m1's drain.
        assert!(g
            .edges()
            .iter()
            .any(|e| e.src == cl && e.dst == m1 && e.port == PortType::Drain));
    }

    #[test]
    fn edges_come_in_reciprocal_pairs() {
        let flat = fig5();
        let g = HetMultigraph::from_circuit(&flat, &BuildOptions::default());
        // Algorithm 1 adds (u, v, τ_v) and (v, u, τ_u) together, so the
        // edge count is even and every edge has a partner.
        assert_eq!(g.edge_count() % 2, 0);
        for e in g.edges() {
            assert!(
                g.edges().iter().any(|r| r.src == e.dst && r.dst == e.src),
                "no reciprocal edge for {e:?}"
            );
        }
    }

    #[test]
    fn no_self_loops_even_with_multi_pin_nets() {
        // M2 is diode-connected (gate tied to drain): both pins on `out`.
        let flat = fig5();
        let g = HetMultigraph::from_circuit(&flat, &BuildOptions::default());
        for e in g.edges() {
            assert_ne!(e.src, e.dst);
        }
    }

    #[test]
    fn diode_connection_creates_parallel_edges() {
        // m2 gate and m2 drain both sit on `out`, so (m1, m2, ·) exists
        // both as a drain-typed and a gate-typed edge: parallel edges.
        let flat = fig5();
        let g = HetMultigraph::from_circuit(&flat, &BuildOptions::default());
        let m1 = vertex_by_name(&flat, &g, "M1");
        let m2 = vertex_by_name(&flat, &g, "M2");
        let types: Vec<PortType> = g
            .edges()
            .iter()
            .filter(|e| e.src == m1 && e.dst == m2)
            .map(|e| e.port)
            .collect();
        assert!(types.contains(&PortType::Drain));
        assert!(types.contains(&PortType::Gate));
    }

    #[test]
    fn subtree_graph_ignores_out_of_scope_connections() {
        let nl = parse_spice(
            "\
.subckt inv in out vdd vss
Mp out in vdd vdd pch w=2u l=0.1u
Mn out in vss vss nch w=1u l=0.1u
.ends
.subckt top a y vdd vss
X1 a m vdd vss inv
X2 m y vdd vss inv
.ends
",
        )
        .unwrap();
        let flat = FlatCircuit::elaborate(&nl).unwrap();
        let x1 = flat.node_by_path("top/X1").unwrap().id;
        let g1 = HetMultigraph::from_subtree(&flat, x1, &BuildOptions::default());
        assert_eq!(g1.vertex_count(), 2);
        // Within X1: Mp and Mn share nets in/out/(vdd+vss are distinct) →
        // edges exist, but none reference X2's devices.
        assert!(g1.edge_count() > 0);
        let full = HetMultigraph::from_circuit(&flat, &BuildOptions::default());
        assert!(full.edge_count() > g1.edge_count());
    }

    #[test]
    fn max_net_degree_prunes_fanout_cliques() {
        let flat = fig5();
        let full = HetMultigraph::from_circuit(&flat, &BuildOptions::default());
        let pruned = HetMultigraph::from_circuit(
            &flat,
            &BuildOptions { max_net_degree: Some(2) },
        );
        assert!(pruned.edge_count() < full.edge_count());
        // Vertices are unaffected.
        assert_eq!(pruned.vertex_count(), full.vertex_count());
    }

    #[test]
    fn deterministic_construction() {
        let flat = fig5();
        let a = HetMultigraph::from_circuit(&flat, &BuildOptions::default());
        let b = HetMultigraph::from_circuit(&flat, &BuildOptions::default());
        assert_eq!(a, b);
    }
}
