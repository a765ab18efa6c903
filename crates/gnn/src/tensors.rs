//! Tensor form of a circuit multigraph: one sparse adjacency operator
//! per edge type, plus the neighbour lists the loss needs.

use std::sync::Arc;

use ancstr_graph::HetMultigraph;
use ancstr_netlist::PortType;
use ancstr_nn::SparseMatrix;

/// The multigraph converted to the operators Eq. 1 consumes.
///
/// `adjacency[τ][v, u]` counts edges `(u, v, τ)`, so the aggregated
/// message matrix is `Σ_τ A_τ · (H · W_τ)` — parallel edges contribute
/// multiple times, exactly as the Eq. 1 sum over `N_in(v)` does when a
/// neighbour connects through several nets.
///
/// Operators are held behind `Arc` so every tape recorded over this
/// graph shares the same [`SparseMatrix`] instances — and therefore the
/// same lazily built CSR views, constructed once per graph instead of
/// once per forward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphTensors {
    n: usize,
    adjacency: Vec<Arc<SparseMatrix>>,
    in_neighbors: Vec<Vec<usize>>,
    in_degree: Vec<usize>,
}

impl GraphTensors {
    /// Convert a multigraph.
    pub fn from_multigraph(g: &HetMultigraph) -> GraphTensors {
        let n = g.vertex_count();
        let mut triplets: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); PortType::COUNT];
        for e in g.edges() {
            triplets[e.port.index()].push((e.dst.0, e.src.0, 1.0));
        }
        let adjacency = triplets
            .into_iter()
            .map(|t| Arc::new(SparseMatrix::from_triplets(n, n, t)))
            .collect();
        // One pass over the in-edges: `seen[u]` marks `u` as already in
        // `v`'s list and is cleared again from the finished list, so each
        // list keeps first occurrences in edge order (what
        // `HetMultigraph::in_neighbors` returns) in O(|V| + |E|). One
        // byte per vertex keeps the scratch as small as the per-vertex
        // array it replaces.
        let mut seen = vec![false; n];
        let in_neighbors: Vec<Vec<usize>> = (0..n)
            .map(|v| {
                let list: Vec<usize> = g
                    .in_edges(ancstr_graph::VertexId(v))
                    .map(|e| e.src.0)
                    .filter(|&u| !std::mem::replace(&mut seen[u], true))
                    .collect();
                for &u in &list {
                    seen[u] = false;
                }
                list
            })
            .collect();
        let in_degree = (0..n)
            .map(|v| g.in_degree(ancstr_graph::VertexId(v)))
            .collect();
        GraphTensors { n, adjacency, in_neighbors, in_degree }
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
    /// repeated forward passes reuse one operator (and its cached CSR
    /// views) instead of cloning the triplets per pass.
    pub fn adjacency_shared(&self, port: PortType) -> &Arc<SparseMatrix> {
        &self.adjacency[port.index()]
    }

    /// Distinct 1-hop in-neighbours of `v` (the positive-pair set of
    /// Eq. 2).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn in_neighbors(&self, v: usize) -> &[usize] {
        &self.in_neighbors[v]
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

    /// A *sampled* view for one training pass: every vertex keeps at
    /// most `max_in` incoming edges (uniformly chosen across all edge
    /// types), GraphSAGE-style. The paper describes its aggregator as
    /// "sample and aggregate the neighboring features"; full
    /// aggregation is the `max_in = ∞` limit, and the trainer exposes
    /// this knob for the sampling ablation.
    ///
    /// Neighbour lists and degrees (used by the loss) are kept from the
    /// full graph so positive pairs are unaffected; only the message
    /// operator is sparsified.
    pub fn sampled(&self, max_in: usize, rng: &mut impl rand::Rng) -> GraphTensors {
        use rand::seq::SliceRandom;
        // Collect each vertex's incoming triplets across types.
        let mut incoming: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); self.n];
        for (t, adj) in self.adjacency.iter().enumerate() {
            for &(dst, src, w) in adj.triplets() {
                incoming[dst].push((t, src, w));
            }
        }
        let mut triplets: Vec<Vec<(usize, usize, f64)>> =
            vec![Vec::new(); self.adjacency.len()];
        for (v, mut edges) in incoming.into_iter().enumerate() {
            if edges.len() > max_in {
                edges.shuffle(rng);
                edges.truncate(max_in);
            }
            for (t, u, w) in edges {
                triplets[t].push((v, u, w));
            }
        }
        GraphTensors {
            n: self.n,
            adjacency: triplets
                .into_iter()
                .map(|t| Arc::new(SparseMatrix::from_triplets(self.n, self.n, t)))
                .collect(),
            in_neighbors: self.in_neighbors.clone(),
            in_degree: self.in_degree.clone(),
        }
    }
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
    fn sampling_caps_in_edges_but_keeps_loss_structure() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut g = HetMultigraph::with_vertices(0..5);
        for u in 1..5 {
            g.add_edge(VertexId(u), VertexId(0), PortType::Drain);
            g.add_edge(VertexId(u), VertexId(0), PortType::Gate);
        }
        let t = GraphTensors::from_multigraph(&g);
        assert_eq!(t.edge_count(), 8);
        let mut rng = StdRng::seed_from_u64(4);
        let s = t.sampled(3, &mut rng);
        // Vertex 0 keeps at most 3 incoming messages.
        let kept: usize = PortType::ALL
            .iter()
            .map(|&p| s.adjacency(p).triplets().iter().filter(|t| t.0 == 0).count())
            .sum();
        assert_eq!(kept, 3);
        // Positive pairs / degrees come from the full graph.
        assert_eq!(s.in_neighbors(0), t.in_neighbors(0));
        assert_eq!(s.in_degree(0), t.in_degree(0));
        // Sampling below the cap is the identity.
        let id = t.sampled(100, &mut rng);
        assert_eq!(id.edge_count(), t.edge_count());
    }

    #[test]
    fn neighbor_lists_deduplicate_but_degrees_do_not() {
        let t = sample();
        assert_eq!(t.in_neighbors(1), &[0, 2]);
        assert_eq!(t.in_degree(1), 3);
        assert_eq!(t.in_neighbors(2), &[] as &[usize]);
        assert_eq!(t.vertex_count(), 3);
    }
}
