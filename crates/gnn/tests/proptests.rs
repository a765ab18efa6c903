//! Property tests for the GNN: forward-pass invariants over random
//! graphs and configurations, the inference pass's bit identity with
//! the recorded tape, and serialization round trips.

use ancstr_gnn::{open_sealed, seal, GnnConfig, GnnModel, GraphTensors};
use ancstr_graph::{HetMultigraph, VertexId};
use ancstr_netlist::PortType;
use ancstr_nn::{Matrix, Tape};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = GraphTensors> {
    arb_graph_on(8)
}

/// A random multigraph on `n` vertices with fewer than `3n` typed edges.
fn arb_graph_on(n: usize) -> impl Strategy<Value = GraphTensors> {
    prop::collection::vec((0..n, 0..n, 0usize..4), 0..3 * n).prop_map(move |edges| {
        let mut g = HetMultigraph::with_vertices(0..n);
        for (u, v, p) in edges {
            if u != v {
                g.add_edge(VertexId(u), VertexId(v), PortType::ALL[p]);
            }
        }
        GraphTensors::from_multigraph(&g)
    })
}

/// The distinct in-neighbours of `v` by a per-vertex `|V|`-sized
/// dedup: the reference both neighbour-list builders must match.
fn naive_in_neighbors(g: &HetMultigraph, v: usize) -> Vec<usize> {
    let mut seen = vec![false; g.vertex_count()];
    let mut out = Vec::new();
    for e in g.in_edges(VertexId(v)) {
        if !std::mem::replace(&mut seen[e.src.0], true) {
            out.push(e.src.0);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `GraphTensors`' one-pass neighbour lists and
    /// `HetMultigraph::in_neighbors` both equal the naive per-vertex
    /// dedup, order included, on multigraphs whose few vertices force
    /// many parallel edges.
    #[test]
    fn neighbor_lists_match_a_naive_dedup(
        n in 2usize..10,
        edges in prop::collection::vec((0usize..10, 0usize..10, 0usize..4), 0..60),
    ) {
        let mut g = HetMultigraph::with_vertices(0..n);
        for (u, v, p) in edges {
            let (u, v) = (u % n, v % n);
            if u != v {
                g.add_edge(VertexId(u), VertexId(v), PortType::ALL[p]);
            }
        }
        let t = GraphTensors::from_multigraph(&g);
        for v in 0..n {
            let naive = naive_in_neighbors(&g, v);
            let direct: Vec<usize> = g.in_neighbors(VertexId(v)).iter().map(|u| u.0).collect();
            prop_assert_eq!(t.in_neighbors(v), naive.as_slice());
            prop_assert_eq!(direct, naive);
        }
    }

    /// Embeddings are finite, shaped n × D, and deterministic for any
    /// graph, seed, and layer count.
    #[test]
    fn forward_invariants(
        t in arb_graph(),
        seed in 0u64..100,
        layers in 1usize..4,
    ) {
        let model = GnnModel::new(GnnConfig { dim: 6, layers, seed });
        let x = Matrix::from_fn(8, 6, |r, c| ((r * 5 + c) % 7) as f64 * 0.1 - 0.3);
        let z1 = model.embed(&t, &x);
        let z2 = model.embed(&t, &x);
        prop_assert_eq!(z1.shape(), (8, 6));
        prop_assert!(z1.is_finite());
        prop_assert_eq!(z1, z2);
    }

    /// Inference (`embed`, tape-free, with the features borrowed or
    /// owned) reproduces the value of the recorded training forward bit
    /// for bit, for K ∈ {1, 2, 3}, at one and two threads. The 600-vertex graphs are
    /// large enough for the kernels to split work across threads. A NaN
    /// feature keeps identical bits on both paths, and stays in the rows
    /// it can reach in K hops along the edges.
    #[test]
    fn eager_forward_is_bit_identical_to_the_tape(
        t in any::<bool>().prop_flat_map(|big| arb_graph_on(if big { 600 } else { 8 })),
        seed in 0u64..100,
        layers in 1usize..4,
        poison in any::<bool>(),
        nan_row in 0usize..8,
        threads in 1usize..3,
    ) {
        let model = GnnModel::new(GnnConfig { dim: 18, layers, seed });
        let n = t.vertex_count();
        let mut x = Matrix::from_fn(n, 18, |r, c| {
            ((r * 5 + c * 3) as u64 + seed) as f64 % 13.0 * 0.1 - 0.6
        });
        let nan_row = poison.then_some(nan_row);
        if let Some(v) = nan_row {
            x[(v, seed as usize % 18)] = f64::NAN;
        }

        let before = ancstr_par::threads();
        ancstr_par::set_threads(threads);
        let eager = model.embed(&t, &x);
        let (owned, _) = model.embed_owned(&t, x.clone());
        let mut tape = Tape::new();
        let (z, _) = model.forward_on_tape(&mut tape, &t, &x);
        ancstr_par::set_threads(before);
        let recorded = tape.value(z);
        prop_assert_eq!(eager.shape(), recorded.shape());
        for (a, b) in eager.as_slice().iter().zip(recorded.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "eager forward diverged from the tape");
        }
        for (a, b) in owned.as_slice().iter().zip(eager.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "owned features changed the bits");
        }

        if let Some(v) = nan_row {
            let mut reached = vec![false; n];
            reached[v] = true;
            for _ in 0..layers {
                let prev = reached.clone();
                for (u, hit) in reached.iter_mut().enumerate() {
                    *hit |= t.in_neighbors(u).iter().any(|&w| prev[w]);
                }
            }
            for (r, &hit) in reached.iter().enumerate() {
                let finite = eager.row(r).iter().all(|e| e.is_finite());
                prop_assert_eq!(finite, !hit, "row {} of a NaN at vertex {}", r, v);
            }
        }
    }

    /// Serialization round trip is exact for any configuration.
    #[test]
    fn serialize_round_trip(
        seed in 0u64..100,
        layers in 1usize..4,
        dim in 2usize..8,
    ) {
        let model = GnnModel::new(GnnConfig { dim, layers, seed });
        let back = GnnModel::from_text(&model.to_text()).expect("round trip parses");
        prop_assert_eq!(back, model);
    }

    /// Vertices with identical features and no edges embed identically
    /// (no positional leakage).
    #[test]
    fn isolated_vertices_are_exchangeable(seed in 0u64..100) {
        let g = HetMultigraph::with_vertices(0..5);
        let t = GraphTensors::from_multigraph(&g);
        let model = GnnModel::new(GnnConfig { dim: 4, layers: 2, seed });
        let x = Matrix::filled(5, 4, 0.2);
        let z = model.embed(&t, &x);
        for v in 1..5 {
            for c in 0..4 {
                prop_assert!((z[(0, c)] - z[(v, c)]).abs() < 1e-12);
            }
        }
    }

    /// Sealing any model yields a bit-identical payload on open, and the
    /// checksummed round trip reproduces the model exactly.
    #[test]
    fn sealed_round_trip_is_bit_identical(
        seed in 0u64..100,
        layers in 1usize..4,
        dim in 2usize..8,
    ) {
        let model = GnnModel::new(GnnConfig { dim, layers, seed });
        let payload = model.to_text();
        let sealed = seal("model", &payload);
        let opened = open_sealed("model", &sealed).expect("clean seal opens");
        prop_assert_eq!(opened, payload.as_str());
        let back = GnnModel::from_text_checksummed(&model.to_text_checksummed())
            .expect("checksummed round trip parses");
        prop_assert_eq!(back, model);
    }

    /// Corrupting any single byte of a sealed artifact — any position,
    /// any non-zero bit flip — yields a typed checksum error, never a
    /// panic and never silent acceptance.
    #[test]
    fn any_single_byte_corruption_is_detected(
        seed in 0u64..50,
        pos_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let model = GnnModel::new(GnnConfig { dim: 4, layers: 2, seed });
        let sealed = seal("model", &model.to_text());
        let mut bytes = sealed.clone().into_bytes();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= xor;
        let corrupt = String::from_utf8_lossy(&bytes).into_owned();
        prop_assert!(corrupt != sealed, "xor is non-zero, text must change");
        let err = open_sealed("model", &corrupt).expect_err("corruption must be caught");
        prop_assert!(!err.to_string().is_empty());
    }

    /// Truncating a sealed artifact at any point is always detected:
    /// the footer is written last, so losing the tail loses the seal.
    #[test]
    fn any_truncation_is_detected(seed in 0u64..50, keep_frac in 0.0f64..1.0) {
        let model = GnnModel::new(GnnConfig { dim: 4, layers: 2, seed });
        let sealed = seal("model", &model.to_text());
        let keep = ((sealed.len() - 1) as f64 * keep_frac) as usize;
        let truncated: String = sealed.chars().take(keep).collect();
        prop_assert!(open_sealed("model", &truncated).is_err());
    }
}
