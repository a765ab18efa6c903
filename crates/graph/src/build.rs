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

/// A block's pins in Algorithm 1's visiting order, with the global net
/// ids erased: the input of the clique enumeration, and all of it.
///
/// The pins of the devices in a range are sorted by net, then device,
/// then pin index, so they come grouped by net, each net's pins in
/// device then pin order. Only the group boundaries and each pin's
/// `(local vertex, port)` are kept (vertex `v` is flat device
/// `range.start + v`). Nets are restricted to in-scope pins, so
/// connections leaving the scope are ignored (they belong to the
/// enclosing hierarchy).
///
/// Everything Algorithm 1 reads of a range is in its stream, so two
/// ranges with equal streams have the same clique pairs in the same
/// order: the same multigraph up to the device offset, and the same
/// simple digraph. That makes the stream a content key for per-block
/// work.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PinStream {
    vertices: usize,
    /// End offset in `pins` of each net's group, in net order.
    ends: Vec<u32>,
    /// Every in-scope pin, grouped by net, as `local vertex << 2 | port
    /// index`: one integer per pin, so hashing and comparing a stream
    /// are single passes over plain words.
    pins: Vec<u32>,
}

impl PinStream {
    /// The pin stream of the devices in `range` (flat-device indices; a
    /// subtree's devices are one range).
    pub fn from_device_range(flat: &FlatCircuit, range: Range<usize>) -> PinStream {
        // In-scope pins packed as `net << 32 | vertex << 4 | pin index
        // << 2 | port`, so sorting the words sorts by net, then vertex,
        // then pin index: the port rides along, never orders (a MOS
        // stores its pins D, G, S but their port indices order G, D, S).
        // The keys are unique, so an in-place unstable sort gives that
        // order; on a 100k-device circuit a stable sort's scratch buffer
        // over wider entries raised `extract`'s peak RSS by ~15 MB. (Net
        // counts fit `u32` in any circuit that fits in memory, and a
        // device has at most three typed pins.)
        let devices = &flat.devices()[range];
        assert!(devices.len() < 1 << 28, "a pin stream packs vertices into 28 bits");
        let mut sorted: Vec<u64> =
            Vec::with_capacity(devices.iter().map(|d| d.typed_pins().count()).sum());
        for (v, d) in devices.iter().enumerate() {
            for (k, (net, port)) in d.typed_pins().enumerate() {
                let key = (net.0 as u64) << 32 | (v as u64) << 4 | (k as u64) << 2;
                sorted.push(key | port.index() as u64);
            }
        }
        sorted.sort_unstable();

        let mut ends = Vec::new();
        let mut pins = Vec::with_capacity(sorted.len());
        for net in sorted.chunk_by(|a, b| a >> 32 == b >> 32) {
            // Drop the pin index: `vertex << 2 | port`.
            pins.extend(net.iter().map(|&p| (p as u32 >> 4) << 2 | (p as u32 & 3)));
            ends.push(pins.len() as u32);
        }
        PinStream { vertices: devices.len(), ends, pins }
    }

    /// Number of vertices (devices in the range).
    pub fn vertex_count(&self) -> usize {
        self.vertices
    }

    /// Algorithm 1's clique enumeration over the stream — the one
    /// place its rules live.
    ///
    /// Nets are visited in stream order; a net with more than
    /// `max_net_degree` pins is skipped. For every unordered pair of
    /// pins on a net that belong to two different devices (no self
    /// loops), `pair((u, τ_u), (v, τ_v))` is called with local vertex
    /// indices (`u` comes first in pin order). Algorithm 1 turns the
    /// pair into the two typed edges `(u, v, τ_v)` and `(v, u, τ_u)`;
    /// [`HetMultigraph::from_device_range`] stores them, and
    /// `ancstr_gnn::GraphTensors::from_circuit` streams them straight
    /// into the Eq. 1 operators.
    pub fn for_each_clique_pair(
        &self,
        options: &BuildOptions,
        mut pair: impl FnMut((usize, PortType), (usize, PortType)),
    ) {
        let decode = |p: u32| ((p >> 2) as usize, PortType::ALL[(p & 3) as usize]);
        let mut start = 0;
        for &end in &self.ends {
            let net = &self.pins[start..end as usize];
            start = end as usize;
            if options.max_net_degree.is_some_and(|k| net.len() > k) {
                continue;
            }
            for (i, &u) in net.iter().enumerate() {
                for &v in &net[i + 1..] {
                    if u >> 2 != v >> 2 {
                        pair(decode(u), decode(v));
                    }
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
    /// [`SimpleDigraph::from_pin_stream`](crate::SimpleDigraph::from_pin_stream)
    /// builds without it.)
    pub fn from_subtree(
        flat: &FlatCircuit,
        node: HierNodeId,
        options: &BuildOptions,
    ) -> HetMultigraph {
        Self::from_device_range(flat, flat.subtree_device_indices(node), options)
    }

    /// Build the multigraph over an explicit range of flat-device
    /// indices, from the range's [`PinStream`]. Nets are restricted to
    /// the pins of in-scope devices, so connections leaving the scope
    /// are ignored (they belong to the enclosing hierarchy).
    pub fn from_device_range(
        flat: &FlatCircuit,
        range: Range<usize>,
        options: &BuildOptions,
    ) -> HetMultigraph {
        let stream = PinStream::from_device_range(flat, range.clone());
        let mut g = HetMultigraph::with_vertices(range);
        // Both directions of each clique pair, each typed by its
        // destination port.
        stream.for_each_clique_pair(options, |(u, tu), (v, tv)| {
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
            .position(|d| flat.node(d.node).path.ends_with(name))
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

    /// The stream orders a net's pins by vertex, then pin index, never
    /// by port: diode-connected M2 stores its drain, then its gate, on
    /// `out`, while the port indices put the gate first.
    #[test]
    fn pin_stream_orders_a_devices_pins_by_pin_index() {
        let flat = fig5();
        let stream = PinStream::from_device_range(&flat, 0..flat.devices().len());
        let mut got = Vec::new();
        stream.for_each_clique_pair(&BuildOptions::default(), |u, v| got.push((u, v)));

        // Every pin as (net, vertex, pin index, port), sorted by the
        // first three, and the clique pairs of each net in that order.
        let mut pins = Vec::new();
        for (v, d) in flat.devices().iter().enumerate() {
            for (k, (net, port)) in d.typed_pins().enumerate() {
                pins.push((net.0, v, k, port));
            }
        }
        pins.sort_by_key(|&(net, v, k, _)| (net, v, k));
        let mut want = Vec::new();
        for net in pins.chunk_by(|a, b| a.0 == b.0) {
            for (i, a) in net.iter().enumerate() {
                for b in net[i + 1..].iter().filter(|b| b.1 != a.1) {
                    want.push(((a.1, a.3), (b.1, b.3)));
                }
            }
        }
        assert_eq!(got, want);

        // On `out`, M1's drain meets M2's drain before M2's gate.
        let (m1, m2) = (1, 2);
        let m2_ports: Vec<PortType> = got
            .iter()
            .filter(|&&(u, v)| u == (m1, PortType::Drain) && v.0 == m2)
            .map(|&(_, v)| v.1)
            .collect();
        assert_eq!(m2_ports, [PortType::Drain, PortType::Gate]);
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
