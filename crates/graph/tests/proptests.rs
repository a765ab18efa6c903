//! Property tests for graph construction and PageRank invariants.

use ancstr_graph::{
    pagerank, BuildOptions, HetMultigraph, PageRankOptions, PinStream, SimpleDigraph,
};
use ancstr_netlist::flat::FlatCircuit;
use ancstr_netlist::{Device, DeviceType, Geometry, Netlist, Subckt};
use proptest::prelude::*;

/// Strategy: a random flat circuit of MOS devices over a small net pool.
fn arb_flat() -> impl Strategy<Value = FlatCircuit> {
    let dev = (0usize..4, 0usize..4, 0usize..4).prop_map(|(a, b, c)| (a, b, c));
    prop::collection::vec(dev, 1..20).prop_map(|devs| {
        let nets = ["n0", "n1", "n2", "n3"];
        let mut sub = Subckt::new("cell", ["n0", "n1"]);
        for (i, (a, b, c)) in devs.into_iter().enumerate() {
            let d = Device::new(
                format!("M{i}"),
                DeviceType::Nch,
                vec![nets[a].into(), nets[b].into(), nets[c].into()],
                Geometry::new(0.1, 1.0),
            )
            .expect("3 pins");
            sub.push_device(d).expect("unique names");
        }
        let mut nl = Netlist::new("cell");
        nl.add_subckt(sub).expect("fresh library");
        FlatCircuit::elaborate(&nl).expect("valid by construction")
    })
}

proptest! {
    /// Algorithm-1 invariants: vertex count equals device count, no self
    /// loops, every edge has a reciprocal partner, and in/out degree sums
    /// both equal |E|.
    #[test]
    fn multigraph_invariants(flat in arb_flat()) {
        let g = HetMultigraph::from_circuit(&flat, &BuildOptions::default());
        prop_assert_eq!(g.vertex_count(), flat.devices().len());
        let mut in_total = 0usize;
        let mut out_total = 0usize;
        for v in g.vertices() {
            in_total += g.in_degree(v);
            out_total += g.out_degree(v);
        }
        prop_assert_eq!(in_total, g.edge_count());
        prop_assert_eq!(out_total, g.edge_count());
        for e in g.edges() {
            prop_assert_ne!(e.src, e.dst);
            prop_assert!(g.edges().iter().any(|r| r.src == e.dst && r.dst == e.src));
        }
    }

    /// Simplification never increases edges and caps pair multiplicity at
    /// two (one per direction).
    #[test]
    fn simplify_invariants(flat in arb_flat()) {
        let g = HetMultigraph::from_circuit(&flat, &BuildOptions::default());
        let s = SimpleDigraph::from_multigraph(&g);
        prop_assert!(s.edge_count() <= g.edge_count());
        for u in 0..s.vertex_count() {
            for v in 0..s.vertex_count() {
                if u != v {
                    let m = usize::from(s.has_edge(u, v)) + usize::from(s.has_edge(v, u));
                    prop_assert!(m <= 2);
                }
            }
            // No duplicate out-neighbours.
            let mut outs = s.out_neighbors(u).to_vec();
            outs.sort_unstable();
            outs.dedup();
            prop_assert_eq!(outs.len(), s.out_degree(u));
        }
    }

    /// PageRank is a probability distribution with strictly positive mass.
    #[test]
    fn pagerank_is_distribution(flat in arb_flat()) {
        let g = HetMultigraph::from_circuit(&flat, &BuildOptions::default());
        let s = SimpleDigraph::from_multigraph(&g);
        let pr = pagerank(&s, &PageRankOptions::default());
        let sum: f64 = pr.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum = {}", sum);
        for &p in &pr {
            prop_assert!(p > 0.0);
        }
    }

    /// The pin-stream digraph builder is the multigraph path without
    /// the multigraph: same neighbour lists in the same order, and so
    /// the same PageRank bits, for any device window and degree cap.
    #[test]
    fn direct_builder_matches_the_multigraph_collapse(
        flat in arb_flat(),
        cap in 0usize..8,
        window in (0usize..20, 0usize..20),
    ) {
        let n = flat.devices().len();
        let (a, b) = (window.0 % (n + 1), window.1 % (n + 1));
        let range = a.min(b)..a.max(b);
        // A cap of 0 stands for no cap (the faithful Algorithm 1).
        let options = BuildOptions { max_net_degree: (cap > 0).then_some(cap) };
        let reference = SimpleDigraph::from_multigraph(
            &HetMultigraph::from_device_range(&flat, range.clone(), &options),
        );
        let direct =
            SimpleDigraph::from_pin_stream(&PinStream::from_device_range(&flat, range), &options);
        // Equal structs: every in- and out-list, in order.
        prop_assert_eq!(&direct, &reference);
        let bits = |g: &SimpleDigraph| -> Vec<u64> {
            pagerank(g, &PageRankOptions::default()).iter().map(|x| x.to_bits()).collect()
        };
        prop_assert_eq!(bits(&direct), bits(&reference));
    }

    /// Net-degree pruning is monotone: a tighter cutoff never adds edges.
    #[test]
    fn pruning_is_monotone(flat in arb_flat(), k in 1usize..8) {
        let loose = HetMultigraph::from_circuit(
            &flat,
            &BuildOptions { max_net_degree: Some(k + 1) },
        );
        let tight = HetMultigraph::from_circuit(
            &flat,
            &BuildOptions { max_net_degree: Some(k) },
        );
        prop_assert!(tight.edge_count() <= loose.edge_count());
    }
}
