//! Circuit feature embedding (paper Section IV-D, Algorithm 2).
//!
//! A subcircuit's embedding is the concatenation of the trained feature
//! vectors of its top-M PageRank vertices, computed on the simplified
//! (untyped, de-paralleled) digraph of its own multigraph.
//!
//! Lines 1–6 (the digraph, its PageRank and the top-M choice) read only
//! the block's [`PinStream`]: its pins in Algorithm 1's order, with the
//! global net ids erased. Only lines 7–10 read the block's own rows of
//! `z`. So [`embed_all_blocks`] ranks each distinct stream once and
//! gathers every block's rows through the shared top-M local indices.
//!
//! The key is exact. Streams are compared in full (a hash match is
//! confirmed by equality), and equal streams give the same neighbour
//! lists in the same order, hence the same PageRank bits and the same
//! top-M. The key is deliberately not the subcircuit master: two
//! instances of one master whose ports are tied differently in the
//! parent (say `in` and `out` on one net) have different in-scope nets
//! and so different digraphs. Instances whose nets happen to be
//! numbered in a different order get different streams too, which
//! costs sharing, never correctness.

use std::collections::HashMap;

use ancstr_graph::{
    pagerank::top_m_by_pagerank, pagerank, BuildOptions, PageRankOptions, PinStream,
    SimpleDigraph,
};
use ancstr_netlist::flat::{FlatCircuit, HierNodeId};
use ancstr_nn::Matrix;

use crate::pairs::pair_layout;

/// Options of Algorithm 2.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbedOptions {
    /// Representative-vertex budget `M` (paper: 10; `M = |V_t|` when the
    /// subcircuit is smaller).
    pub m: usize,
    /// PageRank parameters (Eq. 3, damping γ).
    pub pagerank: PageRankOptions,
    /// Multigraph construction options for `G_t`.
    pub build: BuildOptions,
}

impl Default for EmbedOptions {
    fn default() -> EmbedOptions {
        EmbedOptions {
            m: 10,
            pagerank: PageRankOptions::default(),
            // Algorithm 1's clique construction is quadratic in net
            // fanout. Detection embeds only compared blocks, never the
            // root whose flattened supply rail touches every device of
            // a 100k-device corpus, but a compared block can still
            // carry a rail of thousands of pins, and every clique pair
            // is enumerated before the simple-digraph dedup. No
            // hand-built benchmark has a block-local net over 551 pins,
            // so pruning at 1024 leaves every committed result
            // bit-identical while keeping synthetic-scale embedding
            // linear. (The training graph prunes harder, at 64 — see
            // `ExtractorConfig::default`.)
            build: BuildOptions { max_net_degree: Some(1024) },
        }
    }
}

/// How much Algorithm 2 work one detection shared between blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRanking {
    /// Blocks Algorithm 3 compares, each of which gets an embedding.
    pub blocks_compared: usize,
    /// Distinct pin streams among them, each ranked once.
    pub block_digraphs: usize,
}

/// Algorithm 2 lines 1–6 on one block's pin stream: the simple digraph,
/// its PageRank, and the top-M local vertex indices in rank order.
fn rank(stream: &PinStream, options: &EmbedOptions) -> Vec<usize> {
    let simple = SimpleDigraph::from_pin_stream(stream, &options.build);
    let pr = pagerank(&simple, &options.pagerank);
    top_m_by_pagerank(&pr, options.m.min(simple.vertex_count()))
}

/// Algorithm 2 lines 7–10: the trained features of the `top` vertices of
/// a block whose vertex `v` is flat device `first + v`, concatenated.
fn gather(z: &Matrix, first: usize, top: &[usize]) -> Vec<f64> {
    let mut out = Vec::with_capacity(top.len() * z.cols());
    for &v in top {
        out.extend_from_slice(z.row(first + v));
    }
    out
}

/// Compute a subcircuit's feature embedding `z_t` (Algorithm 2).
///
/// `z` holds the trained per-vertex representations of the *whole*
/// circuit (row = flat device index). Returns the concatenation of the
/// top-M rows by PageRank; length is `min(M, |V_t|) · D`, so embeddings
/// of different subcircuits may differ in length — cosine comparison
/// zero-pads (see [`ancstr_nn::cosine_similarity`]).
///
/// # Panics
///
/// Panics if `node` is not part of `flat` or `z` has fewer rows than the
/// circuit has devices.
pub fn embed_circuit(
    flat: &FlatCircuit,
    node: HierNodeId,
    z: &Matrix,
    options: &EmbedOptions,
) -> Vec<f64> {
    assert!(
        z.rows() >= flat.devices().len(),
        "need one trained feature row per device"
    );
    let range = flat.subtree_device_indices(node);
    let top = rank(&PinStream::from_device_range(flat, range.clone()), options);
    gather(z, range.start, &top)
}

/// Embeddings of the blocks Algorithm 3 compares, keyed by node id
/// order: `Some` exactly for the blocks that appear in a
/// [`valid_pairs`](crate::pairs::valid_pairs) candidate, found from each
/// parent's child types without enumerating a pair. Every other node is
/// `None`: leaves, the root, blocks with no same-class sibling and the
/// children of [`Logic`](ancstr_netlist::CircuitClass::Logic) blocks,
/// whose embeddings no pair reads. Each distinct block pin stream is
/// ranked once (see the module docs).
pub fn embed_all_blocks(
    flat: &FlatCircuit,
    z: &Matrix,
    options: &EmbedOptions,
) -> Vec<Option<Vec<f64>>> {
    embed_blocks(flat, z, options, &pair_layout(flat).compared).0
}

/// Embeddings of the blocks whose `compared[id]` is set, keyed by node
/// id order (`None` elsewhere), with the work they shared.
pub(crate) fn embed_blocks(
    flat: &FlatCircuit,
    z: &Matrix,
    options: &EmbedOptions,
    compared: &[bool],
) -> (Vec<Option<Vec<f64>>>, BlockRanking) {
    let blocks: Vec<HierNodeId> =
        flat.blocks().map(|b| b.id).filter(|id| compared[id.0]).collect();
    // The streams and the ranks are independent per block and per
    // stream, fanned out; `map_items` returns results in input order,
    // so the numbering and the scatter below are deterministic.
    let streams = ancstr_par::map_items(&blocks, 1, |&id| {
        PinStream::from_device_range(flat, flat.subtree_device_indices(id))
    });
    // Number the distinct streams in block order. The map is keyed by
    // the stream itself, so a hash match is confirmed by full equality.
    let mut keys: HashMap<&PinStream, usize> = HashMap::new();
    let mut distinct: Vec<&PinStream> = Vec::new();
    let key_of: Vec<usize> = streams
        .iter()
        .map(|s| {
            *keys.entry(s).or_insert_with(|| {
                distinct.push(s);
                distinct.len() - 1
            })
        })
        .collect();
    let ranks = ancstr_par::map_items(&distinct, 1, |s| rank(s, options));

    let mut out = vec![None; flat.nodes().len()];
    for (&id, &key) in blocks.iter().zip(&key_of) {
        let first = flat.subtree_device_indices(id).start;
        out[id.0] = Some(gather(z, first, &ranks[key]));
    }
    let ranking = BlockRanking { blocks_compared: blocks.len(), block_digraphs: ranks.len() };
    (out, ranking)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_netlist::parse::parse_spice;
    use ancstr_nn::cosine_similarity;

    fn flat(src: &str) -> FlatCircuit {
        FlatCircuit::elaborate(&parse_spice(src).unwrap()).unwrap()
    }

    const TWO_INV: &str = "\
.subckt inv in out vdd vss
Mp out in vdd vdd pch w=2u l=0.1u
Mn out in vss vss nch w=1u l=0.1u
.ends
.subckt top a y vdd vss
X1 a m vdd vss inv
X2 m y vdd vss inv
.ends
";

    /// Identity features: row i = one-hot of the device index, so the
    /// embedding is readable in tests.
    fn identity_features(n: usize) -> Matrix {
        Matrix::identity(n)
    }

    #[test]
    fn embedding_length_is_min_m_times_d() {
        let f = flat(TWO_INV);
        let z = identity_features(4);
        let x1 = f.node_by_path("top/X1").unwrap().id;
        let e = embed_circuit(&f, x1, &z, &EmbedOptions::default());
        // |V_t| = 2 < M = 10 → length 2 · D.
        assert_eq!(e.len(), 2 * 4);
        let e1 = embed_circuit(&f, x1, &z, &EmbedOptions { m: 1, ..Default::default() });
        assert_eq!(e1.len(), 4);
    }

    #[test]
    fn identical_subcircuits_embed_identically_under_symmetric_features() {
        let f = flat(TWO_INV);
        // Give matched devices matched features (as a trained GNN would).
        let z = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[1.0, 0.0],
            &[0.0, 1.0],
        ]);
        let x1 = f.node_by_path("top/X1").unwrap().id;
        let x2 = f.node_by_path("top/X2").unwrap().id;
        let opts = EmbedOptions::default();
        let e1 = embed_circuit(&f, x1, &z, &opts);
        let e2 = embed_circuit(&f, x2, &z, &opts);
        assert!((cosine_similarity(&e1, &e2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn different_features_separate_subcircuits() {
        let f = flat(TWO_INV);
        let z = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 1.0],
            &[-1.0, 0.3],
            &[0.3, -1.0],
        ]);
        let x1 = f.node_by_path("top/X1").unwrap().id;
        let x2 = f.node_by_path("top/X2").unwrap().id;
        let opts = EmbedOptions::default();
        let e1 = embed_circuit(&f, x1, &z, &opts);
        let e2 = embed_circuit(&f, x2, &z, &opts);
        assert!(cosine_similarity(&e1, &e2) < 0.9);
    }

    #[test]
    fn pagerank_ordering_prefers_hub_devices() {
        // A star: M0 touches everything, peripherals touch only M0.
        let f = flat(
            "\
.subckt c a vdd vss
M0 h a vss vss nch w=1u l=0.1u
R1 h x1 1k
R2 h x2 1k
R3 h x3 1k
.ends
",
        );
        let z = identity_features(4);
        let root = f.root().id;
        let e = embed_circuit(&f, root, &z, &EmbedOptions { m: 1, ..Default::default() });
        // Top-1 vertex must be the hub M0 → its one-hot row is index 0.
        assert_eq!(e, vec![1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn embed_all_blocks_covers_compared_blocks_only() {
        let f = flat(TWO_INV);
        let z = identity_features(4);
        let all = embed_all_blocks(&f, &z, &EmbedOptions::default());
        // (X1, X2) is the only candidate pair: the root block `top` is
        // never compared, so it is not embedded.
        let x1 = f.node_by_path("top/X1").unwrap().id;
        let x2 = f.node_by_path("top/X2").unwrap().id;
        for n in f.nodes() {
            assert_eq!(all[n.id.0].is_some(), n.id == x1 || n.id == x2, "{}", n.path);
        }
    }

    /// Algorithm 2 the way it was first written, kept as the oracle of
    /// the direct path: the typed multigraph, collapsed by
    /// `from_multigraph`, ranked by a PageRank that divides once per
    /// in-edge.
    fn reference_pagerank(g: &SimpleDigraph, options: &PageRankOptions) -> Vec<f64> {
        let n = g.vertex_count();
        if n == 0 {
            return Vec::new();
        }
        let nf = n as f64;
        let gamma = options.damping;
        let base = (1.0 - gamma) / nf;
        let mut pr = vec![1.0 / nf; n];
        let mut next = vec![0.0; n];
        let out_deg: Vec<f64> = (0..n).map(|v| g.out_degree(v) as f64).collect();
        let dangling_vertices: Vec<usize> = (0..n).filter(|&v| g.out_degree(v) == 0).collect();
        for _ in 0..options.max_iterations {
            let dangling: f64 = dangling_vertices.iter().map(|&v| pr[v]).sum();
            let dangling_share = gamma * dangling / nf;
            for (v, slot) in next.iter_mut().enumerate() {
                let mut acc = 0.0;
                for &u in g.in_neighbors(v) {
                    acc += pr[u] / out_deg[u];
                }
                *slot = base + dangling_share + gamma * acc;
            }
            let delta: f64 = pr.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut pr, &mut next);
            if delta < options.tolerance {
                break;
            }
        }
        pr
    }

    fn reference_embed_circuit(
        flat: &FlatCircuit,
        node: HierNodeId,
        z: &Matrix,
        options: &EmbedOptions,
    ) -> (Vec<f64>, Vec<f64>) {
        let g = ancstr_graph::HetMultigraph::from_subtree(flat, node, &options.build);
        let simple = SimpleDigraph::from_multigraph(&g);
        let pr = reference_pagerank(&simple, &options.pagerank);
        let top = top_m_by_pagerank(&pr, options.m.min(g.vertex_count()));
        let mut out = Vec::new();
        for &v in &top {
            out.extend_from_slice(z.row(g.device_index(ancstr_graph::VertexId(v))));
        }
        (out, pr)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn option_bits(v: &[Option<Vec<f64>>]) -> Vec<Option<Vec<u64>>> {
        v.iter().map(|e| e.as_deref().map(bits)).collect()
    }

    #[test]
    fn direct_algorithm2_is_bit_identical_to_the_multigraph_reference() {
        let mut designs = ancstr_circuits::adc::adc_benchmarks();
        designs.extend(ancstr_circuits::block_benchmarks(20210705));
        designs.push(ancstr_circuits::stress::stress_system(2000, 7));
        let opts = EmbedOptions::default();
        let (mut blocks, mut digraphs) = (0, 0);
        for nl in &designs {
            let f = FlatCircuit::elaborate(nl).unwrap();
            // Distinct rows, so the embedding spells out the top-M order.
            let z = Matrix::from_fn(f.devices().len(), 2, |r, c| (r * (c + 1)) as f64);
            let mut want_all = vec![None; f.nodes().len()];
            for b in f.blocks() {
                let (want, want_pr) = reference_embed_circuit(&f, b.id, &z, &opts);
                let stream = PinStream::from_device_range(&f, f.subtree_device_indices(b.id));
                let simple = SimpleDigraph::from_pin_stream(&stream, &opts.build);
                let pr = pagerank(&simple, &opts.pagerank);
                assert_eq!(bits(&pr), bits(&want_pr), "{}: PageRank bits", b.path);
                let got = embed_circuit(&f, b.id, &z, &opts);
                assert_eq!(bits(&got), bits(&want), "{}: embedding bits", b.path);
                want_all[b.id.0] = Some(want);
                blocks += 1;
            }
            // With every block compared, ranking each distinct pin
            // stream once gives every block its own reference bits (at
            // the ambient thread count; tests/embed_thread_identity.rs
            // compares one and two threads).
            let all = vec![true; f.nodes().len()];
            let (got, ranking) = embed_blocks(&f, &z, &opts, &all);
            assert_eq!(option_bits(&got), option_bits(&want_all), "{}", nl.top());
            assert_eq!(ranking.blocks_compared, f.blocks().count());
            assert!(ranking.block_digraphs <= ranking.blocks_compared);
            digraphs += ranking.block_digraphs;
        }
        assert!(blocks > 100, "only {blocks} blocks checked");
        assert!(digraphs < blocks, "no block shared a rank");
    }

    #[test]
    fn instances_tied_differently_rank_apart_and_alike_ones_share() {
        // Three instances of one master: X1 and X3 keep `in` and `out`
        // on separate nets, X2 ties both to one net, which merges two of
        // its block-local nets.
        let f = flat(
            "\
.subckt cell in out vdd vss
M1 out in vss vss nch w=1u l=0.1u
M2 x in vdd vdd pch w=2u l=0.1u
R1 x out 1k
.ends
.subckt top a b c d e vdd vss
X1 a b vdd vss cell
X2 c c vdd vss cell
X3 d e vdd vss cell
.ends
",
        );
        let z = Matrix::from_fn(f.devices().len(), 2, |r, c| (r * (c + 1)) as f64);
        let opts = EmbedOptions::default();
        let id = |path: &str| f.node_by_path(path).unwrap().id;
        let [x1, x2, x3] = [id("top/X1"), id("top/X2"), id("top/X3")];
        let stream = |node| PinStream::from_device_range(&f, f.subtree_device_indices(node));
        assert_ne!(stream(x1), stream(x2), "a port tie must change the key");
        assert_eq!(stream(x1), stream(x3), "net ids must not leak into the key");

        let compared = pair_layout(&f).compared;
        let (got, ranking) = embed_blocks(&f, &z, &opts, &compared);
        assert_eq!(ranking, BlockRanking { blocks_compared: 3, block_digraphs: 2 });
        for x in [x1, x2, x3] {
            let (want, _) = reference_embed_circuit(&f, x, &z, &opts);
            assert_eq!(got[x.0].as_deref().map(bits), Some(bits(&want)), "{}", f.node(x).path);
        }
        // X3 shares X1's rank but gathers its own rows.
        assert_ne!(got[x1.0], got[x3.0]);
    }
}
