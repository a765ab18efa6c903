//! Tensor form of a circuit graph: one sparse adjacency operator per
//! edge type, plus the neighbour lists the loss needs.

use std::sync::{Arc, OnceLock};

use ancstr_graph::{BuildOptions, HetMultigraph, PinStream};
use ancstr_netlist::{FlatCircuit, PortType};
use ancstr_nn::SparseMatrix;

/// Algorithm 1's multigraph as the operators Eq. 1 consumes.
///
/// `adjacency[τ][v, u]` counts edges `(u, v, τ)`, so the aggregated
/// message matrix is `Σ_τ A_τ · (H · W_τ)` — parallel edges contribute
/// multiple times, exactly as the Eq. 1 sum over `N_in(v)` does when a
/// neighbour connects through several nets.
///
/// Operators are held behind `Arc` so every tape recorded over this
/// graph shares the same [`SparseMatrix`] instances, built once per
/// graph instead of once per forward pass.
///
/// [`GraphTensors::from_circuit`] builds the operators straight from the
/// circuit's pin stream; [`GraphTensors::from_multigraph`] converts a
/// built [`HetMultigraph`] and is the reference the direct build is
/// tested against. Equality compares the vertex count, the operators
/// (both views, so the edge order), the in-degrees and the neighbour
/// lists.
#[derive(Debug, Clone)]
pub struct GraphTensors {
    n: usize,
    adjacency: Vec<Arc<SparseMatrix>>,
    in_degree: Vec<usize>,
    in_neighbors: Arc<InNeighbors>,
}

/// Eq. 2's distinct in-neighbour lists, held as one flat CSR and built
/// on first use when a source stream is kept: inference never asks for
/// them.
#[derive(Debug)]
struct InNeighbors {
    /// The clique walk the lists are built from; `None` when they were
    /// built with the graph.
    source: Option<(PinStream, BuildOptions)>,
    lists: OnceLock<NeighborLists>,
}

/// `srcs[starts[v]..starts[v + 1]]` are `v`'s distinct in-neighbours in
/// order of first appearance in edge order.
#[derive(Debug, PartialEq)]
struct NeighborLists {
    starts: Vec<usize>,
    srcs: Vec<usize>,
}

impl NeighborLists {
    /// Compact per-vertex source runs to their first occurrences: `srcs`
    /// holds every in-edge's source grouped by destination as `starts`
    /// delimits, in edge order. `seen[u]` marks `u` as already in the
    /// current list and is cleared again from the finished list, so
    /// this is O(|V| + |E|) with one byte of scratch per vertex.
    fn dedup(mut starts: Vec<usize>, mut srcs: Vec<usize>) -> NeighborLists {
        let mut seen = vec![false; starts.len() - 1];
        let mut kept = 0;
        for v in 0..starts.len() - 1 {
            let (begin, end) = (starts[v], starts[v + 1]);
            starts[v] = kept;
            for i in begin..end {
                let u = srcs[i];
                if !std::mem::replace(&mut seen[u], true) {
                    srcs[kept] = u;
                    kept += 1;
                }
            }
            for &u in &srcs[starts[v]..kept] {
                seen[u] = false;
            }
        }
        *starts.last_mut().expect("n + 1 offsets") = kept;
        srcs.truncate(kept);
        srcs.shrink_to_fit();
        NeighborLists { starts, srcs }
    }

    /// The lists of the multigraph a clique walk over `stream` builds:
    /// one pass drops each edge's source into its destination's run
    /// (runs sized by `in_degree`), then [`NeighborLists::dedup`].
    fn from_stream(stream: &PinStream, options: &BuildOptions, in_degree: &[usize]) -> Self {
        let mut starts = Vec::with_capacity(in_degree.len() + 1);
        starts.push(0);
        for &d in in_degree {
            starts.push(starts[starts.len() - 1] + d);
        }
        let mut cursor = starts[..in_degree.len()].to_vec();
        let mut srcs = vec![0; starts[in_degree.len()]];
        stream.for_each_clique_pair(options, |(u, _), (v, _)| {
            srcs[cursor[v]] = u;
            cursor[v] += 1;
            srcs[cursor[u]] = v;
            cursor[u] += 1;
        });
        NeighborLists::dedup(starts, srcs)
    }

    fn get(&self, v: usize) -> &[usize] {
        &self.srcs[self.starts[v]..self.starts[v + 1]]
    }
}

impl InNeighbors {
    fn lists(&self, in_degree: &[usize]) -> &NeighborLists {
        self.lists.get_or_init(|| {
            let (stream, options) =
                self.source.as_ref().expect("lists without a source are built eagerly");
            NeighborLists::from_stream(stream, options, in_degree)
        })
    }
}

impl PartialEq for GraphTensors {
    fn eq(&self, other: &GraphTensors) -> bool {
        self.n == other.n
            && self.adjacency == other.adjacency
            && self.in_degree == other.in_degree
            && self.neighbor_lists() == other.neighbor_lists()
    }
}

impl GraphTensors {
    /// Algorithm 1 over every device of `flat`, straight into the
    /// operators: one clique walk over the circuit's [`PinStream`]
    /// pushes each pair's two typed edges into the per-port edge lists,
    /// in the order [`HetMultigraph::from_circuit`] would store them, and
    /// counts in-degrees; each list becomes its operator and is dropped.
    /// No multigraph exists at any point. The stream is kept, so the
    /// neighbour lists are built by a second walk the first time
    /// [`GraphTensors::in_neighbors`] is asked, which inference never
    /// does. Equal to
    /// `from_multigraph(&HetMultigraph::from_circuit(flat, options))`.
    pub fn from_circuit(flat: &FlatCircuit, options: &BuildOptions) -> GraphTensors {
        let stream = PinStream::from_device_range(flat, 0..flat.devices().len());
        let n = stream.vertex_count();
        let mut edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); PortType::COUNT];
        let mut in_degree = vec![0; n];
        stream.for_each_clique_pair(options, |(u, tu), (v, tv)| {
            // The edges (u, v, τ_v) and (v, u, τ_u), in that order, each
            // stored as (dst, src).
            edges[tv.index()].push((v as u32, u as u32));
            edges[tu.index()].push((u as u32, v as u32));
            in_degree[v] += 1;
            in_degree[u] += 1;
        });
        let adjacency = operators(n, edges);
        let in_neighbors = InNeighbors {
            source: Some((stream, options.clone())),
            lists: OnceLock::new(),
        };
        GraphTensors { n, adjacency, in_degree, in_neighbors: Arc::new(in_neighbors) }
    }

    /// Convert a built multigraph, neighbour lists included: the
    /// reference [`GraphTensors::from_circuit`] is tested against.
    pub fn from_multigraph(g: &HetMultigraph) -> GraphTensors {
        let n = g.vertex_count();
        let mut edges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); PortType::COUNT];
        for e in g.edges() {
            edges[e.port.index()].push((e.dst.0 as u32, e.src.0 as u32));
        }
        let adjacency = operators(n, edges);
        let in_degree: Vec<usize> =
            (0..n).map(|v| g.in_degree(ancstr_graph::VertexId(v))).collect();
        let mut starts = Vec::with_capacity(n + 1);
        let mut srcs = Vec::with_capacity(g.edge_count());
        starts.push(0);
        for v in 0..n {
            srcs.extend(g.in_edges(ancstr_graph::VertexId(v)).map(|e| e.src.0));
            starts.push(srcs.len());
        }
        let in_neighbors = InNeighbors {
            source: None,
            lists: OnceLock::from(NeighborLists::dedup(starts, srcs)),
        };
        GraphTensors { n, adjacency, in_degree, in_neighbors: Arc::new(in_neighbors) }
    }

    fn neighbor_lists(&self) -> &NeighborLists {
        self.in_neighbors.lists(&self.in_degree)
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// The adjacency operator for one edge type.
    pub fn adjacency(&self, port: PortType) -> &SparseMatrix {
        &self.adjacency[port.index()]
    }

    /// The adjacency operator as a shared handle — what
    /// [`Forward::operator`](ancstr_nn::Forward::operator) binds, so
    /// repeated forward passes reuse one operator instead of cloning it
    /// per pass.
    pub fn adjacency_shared(&self, port: PortType) -> &Arc<SparseMatrix> {
        &self.adjacency[port.index()]
    }

    /// Distinct 1-hop in-neighbours of `v` (the positive-pair set of
    /// Eq. 2), in order of first appearance in edge order. The first
    /// call on a [`GraphTensors::from_circuit`] graph builds every
    /// vertex's list.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn in_neighbors(&self, v: usize) -> &[usize] {
        self.neighbor_lists().get(v)
    }

    /// In-degree of `v` with parallel edges counted (negative-sampling
    /// weight basis).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn in_degree(&self, v: usize) -> usize {
        self.in_degree[v]
    }

    /// Total number of typed edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(|a| a.nnz()).sum()
    }
}

/// One `n × n` operator per port from its `(dst, src)` edge list,
/// each list dropped once its operator is built. The lists hold vertex
/// ids cast to `u32`, which is lossless only when `n` fits.
fn operators(n: usize, edges: Vec<Vec<(u32, u32)>>) -> Vec<Arc<SparseMatrix>> {
    u32::try_from(n).expect("vertex ids fit in u32");
    edges.into_iter().map(|e| Arc::new(SparseMatrix::from_edges(n, n, &e))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_graph::VertexId;

    fn sample() -> GraphTensors {
        let mut g = HetMultigraph::with_vertices(0..3);
        g.add_edge(VertexId(0), VertexId(1), PortType::Drain);
        g.add_edge(VertexId(1), VertexId(0), PortType::Gate);
        g.add_edge(VertexId(2), VertexId(1), PortType::Drain);
        g.add_edge(VertexId(0), VertexId(1), PortType::Drain); // parallel
        GraphTensors::from_multigraph(&g)
    }

    #[test]
    fn adjacency_splits_by_type_and_counts_multiplicity() {
        let t = sample();
        let drain = t.adjacency(PortType::Drain).to_dense();
        assert_eq!(drain[(1, 0)], 2.0); // two parallel drain edges 0→1
        assert_eq!(drain[(1, 2)], 1.0);
        let gate = t.adjacency(PortType::Gate).to_dense();
        assert_eq!(gate[(0, 1)], 1.0);
        assert_eq!(t.adjacency(PortType::Source).nnz(), 0);
        assert_eq!(t.edge_count(), 4);
    }

    #[test]
    fn neighbor_lists_deduplicate_but_degrees_do_not() {
        let t = sample();
        assert_eq!(t.in_neighbors(1), &[0, 2]);
        assert_eq!(t.in_degree(1), 3);
        assert_eq!(t.in_neighbors(2), &[] as &[usize]);
        assert_eq!(t.vertex_count(), 3);
    }

    /// Fig. 5's amplifier branch with a diode-connected load, so one
    /// pair of devices is joined through two nets (parallel edges).
    fn fig5() -> FlatCircuit {
        let nl = ancstr_netlist::parse::parse_spice(
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

    #[test]
    fn inference_builds_no_neighbor_lists_until_asked() {
        let flat = fig5();
        let options = BuildOptions::default();
        let reference =
            GraphTensors::from_multigraph(&HetMultigraph::from_circuit(&flat, &options));
        let direct = GraphTensors::from_circuit(&flat, &options);
        // The operators and the degrees exist; the lists do not.
        assert_eq!(direct.adjacency, reference.adjacency);
        assert_eq!(direct.in_degree, reference.in_degree);
        assert!(direct.in_neighbors.lists.get().is_none());
        // The first call builds every list, exactly the reference's.
        let _ = direct.in_neighbors(0);
        assert_eq!(direct.in_neighbors.lists.get(), reference.in_neighbors.lists.get());
        for v in 0..direct.vertex_count() {
            assert_eq!(direct.in_neighbors(v), reference.in_neighbors(v));
        }
    }
}
