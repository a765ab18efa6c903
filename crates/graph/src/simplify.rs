//! Algorithm 2 (lines 1–4): the simplified directed graph `G'_t`.
//!
//! Edges lose their types and parallel edges collapse, so at most two
//! directed edges (one per direction) remain between any two vertices.

use std::collections::HashSet;

use crate::build::{BuildOptions, PinStream};
use crate::multigraph::{HetMultigraph, VertexId};

/// An untyped simple digraph over the same vertex set as a
/// [`HetMultigraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimpleDigraph {
    n: usize,
    out: Vec<Vec<usize>>,
    inn: Vec<Vec<usize>>,
}

impl SimpleDigraph {
    /// The simple digraph `G'_t` of Algorithm 2 of a block, built
    /// straight from its [`PinStream`]. It is identical (neighbour order
    /// included) to
    /// `from_multigraph(&HetMultigraph::from_device_range(flat, range,
    /// options))` for the range the stream was taken from, without
    /// materializing the typed multigraph.
    pub fn from_pin_stream(stream: &PinStream, options: &BuildOptions) -> SimpleDigraph {
        let n = stream.vertex_count();
        let mut out = vec![Vec::new(); n];
        let mut inn = vec![Vec::new(); n];
        // The multigraph's two edges of every clique pair, untyped.
        stream.for_each_clique_pair(options, |(u, _), (v, _)| {
            out[u].push(v);
            inn[v].push(u);
            out[v].push(u);
            inn[u].push(v);
        });
        // Parallel edges collapse: each list keeps the first occurrence
        // of every neighbour, which is where `from_multigraph` first saw
        // that edge. A per-list stamp finds repeats without hashing.
        for lists in [&mut out, &mut inn] {
            let mut stamp = vec![usize::MAX; n];
            for (u, list) in lists.iter_mut().enumerate() {
                list.retain(|&w| std::mem::replace(&mut stamp[w], u) != u);
            }
        }
        SimpleDigraph { n, out, inn }
    }

    /// Collapse a multigraph into a simple digraph (Algorithm 2 lines
    /// 1–4): drop edge types, reject duplicates. Production builds `G'_t`
    /// with [`SimpleDigraph::from_pin_stream`]; this is the reference it
    /// is tested against.
    pub fn from_multigraph(g: &HetMultigraph) -> SimpleDigraph {
        let n = g.vertex_count();
        let mut out = vec![Vec::new(); n];
        let mut inn = vec![Vec::new(); n];
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        for e in g.edges() {
            let key = (e.src.0, e.dst.0);
            if seen.insert(key) {
                out[e.src.0].push(e.dst.0);
                inn[e.dst.0].push(e.src.0);
            }
        }
        SimpleDigraph { n, out, inn }
    }

    /// Build directly from an edge list (for tests and baselines).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> SimpleDigraph {
        let mut out = vec![Vec::new(); n];
        let mut inn = vec![Vec::new(); n];
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge endpoint out of range");
            if seen.insert((u, v)) {
                out[u].push(v);
                inn[v].push(u);
            }
        }
        SimpleDigraph { n, out, inn }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// Out-neighbours of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn out_neighbors(&self, v: usize) -> &[usize] {
        &self.out[v]
    }

    /// In-neighbours of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn in_neighbors(&self, v: usize) -> &[usize] {
        &self.inn[v]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: usize) -> usize {
        self.out[v].len()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: usize) -> usize {
        self.inn[v].len()
    }

    /// Whether the directed edge `(u, v)` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.out[u].contains(&v)
    }

    /// Vertices as [`VertexId`]s (shared index space with the source
    /// multigraph).
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.n).map(VertexId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_netlist::PortType;

    #[test]
    fn parallel_edges_collapse() {
        let mut g = HetMultigraph::with_vertices([0, 1, 2]);
        g.add_edge(VertexId(0), VertexId(1), PortType::Drain);
        g.add_edge(VertexId(0), VertexId(1), PortType::Gate);
        g.add_edge(VertexId(1), VertexId(0), PortType::Drain);
        g.add_edge(VertexId(1), VertexId(2), PortType::Passive);
        let s = SimpleDigraph::from_multigraph(&g);
        assert_eq!(s.edge_count(), 3); // (0,1), (1,0), (1,2)
        assert!(s.has_edge(0, 1));
        assert!(s.has_edge(1, 0));
        assert!(!s.has_edge(2, 1));
        assert_eq!(s.out_degree(1), 2);
        assert_eq!(s.in_degree(1), 1);
    }

    #[test]
    fn at_most_two_edges_between_any_pair() {
        let mut g = HetMultigraph::with_vertices(0..4);
        for _ in 0..5 {
            g.add_edge(VertexId(0), VertexId(1), PortType::Drain);
            g.add_edge(VertexId(1), VertexId(0), PortType::Source);
        }
        let s = SimpleDigraph::from_multigraph(&g);
        let between: usize = usize::from(s.has_edge(0, 1)) + usize::from(s.has_edge(1, 0));
        assert_eq!(between, 2);
        assert_eq!(s.edge_count(), 2);
    }

    #[test]
    fn from_edges_deduplicates() {
        let s = SimpleDigraph::from_edges(3, &[(0, 1), (0, 1), (1, 2)]);
        assert_eq!(s.edge_count(), 2);
        assert_eq!(s.in_neighbors(1), &[0]);
        assert_eq!(s.out_neighbors(1), &[2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_validates_range() {
        let _ = SimpleDigraph::from_edges(2, &[(0, 5)]);
    }
}
