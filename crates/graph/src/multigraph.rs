//! The heterogeneous directed multigraph `G = (V, E)`.

use std::collections::{HashMap, HashSet};
use std::fmt;

use ancstr_netlist::PortType;

/// Identifier of a vertex (one primitive device) in a [`HetMultigraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub usize);

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of a directed edge in a [`HetMultigraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

/// A directed typed edge `e = (u, v, τ_v)`: the interconnection from `u`
/// to `v`, typed by the port of `v` it lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source vertex `u`.
    pub src: VertexId,
    /// Destination vertex `v`.
    pub dst: VertexId,
    /// Port type `τ_v` of the destination pin.
    pub port: PortType,
}

/// The heterogeneous directed multigraph of Section IV-A.
///
/// Vertices are primitive devices; parallel edges are permitted (two
/// devices may be connected through several nets/pins). Each vertex
/// remembers the index of its device in the owning
/// [`ancstr_netlist::FlatCircuit`], so features can be looked up.
#[derive(Debug, Clone, PartialEq)]
pub struct HetMultigraph {
    device_of: Vec<usize>,
    vertex_of_device: HashMap<usize, VertexId>,
    edges: Vec<Edge>,
    in_edges: Vec<Vec<EdgeId>>,
    out_edges: Vec<Vec<EdgeId>>,
}

impl HetMultigraph {
    /// An empty multigraph over the given flat-device indices.
    pub fn with_vertices(device_indices: impl IntoIterator<Item = usize>) -> HetMultigraph {
        let device_of: Vec<usize> = device_indices.into_iter().collect();
        let vertex_of_device = device_of
            .iter()
            .enumerate()
            .map(|(v, &d)| (d, VertexId(v)))
            .collect();
        let n = device_of.len();
        HetMultigraph {
            device_of,
            vertex_of_device,
            edges: Vec::new(),
            in_edges: vec![Vec::new(); n],
            out_edges: vec![Vec::new(); n],
        }
    }

    /// Number of vertices `|V|`.
    pub fn vertex_count(&self) -> usize {
        self.device_of.len()
    }

    /// Number of directed edges `|E|` (parallel edges counted).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.device_of.len()).map(VertexId)
    }

    /// All edges in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The flat-device index behind a vertex.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this graph.
    pub fn device_index(&self, v: VertexId) -> usize {
        self.device_of[v.0]
    }

    /// The vertex representing a flat-device index, if it is in scope.
    pub fn vertex_for_device(&self, device_index: usize) -> Option<VertexId> {
        self.vertex_of_device.get(&device_index).copied()
    }

    /// Add a directed typed edge. Self-loops are rejected per
    /// Algorithm 1 line 10.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` or either endpoint is out of range.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId, port: PortType) -> EdgeId {
        assert_ne!(src, dst, "the multigraph must not contain self loops");
        assert!(src.0 < self.vertex_count() && dst.0 < self.vertex_count());
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { src, dst, port });
        self.out_edges[src.0].push(id);
        self.in_edges[dst.0].push(id);
        id
    }

    /// Incoming edges of `v` (the `N_in(v)` aggregation set of Eq. 1).
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = &Edge> {
        self.in_edges[v.0].iter().map(move |&e| &self.edges[e.0])
    }

    /// Outgoing edges of `v`.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = &Edge> {
        self.out_edges[v.0].iter().map(move |&e| &self.edges[e.0])
    }

    /// In-degree of `v` (parallel edges counted).
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_edges[v.0].len()
    }

    /// Out-degree of `v` (parallel edges counted).
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_edges[v.0].len()
    }

    /// The distinct in-neighbour vertices of `v` (parallel edges
    /// deduplicated, order of first appearance), in time linear in
    /// `v`'s in-degree.
    pub fn in_neighbors(&self, v: VertexId) -> Vec<VertexId> {
        let mut seen = HashSet::with_capacity(self.in_degree(v));
        self.in_edges(v).map(|e| e.src).filter(|&u| seen.insert(u)).collect()
    }

    /// Count of edges per port type, in [`PortType::ALL`] order.
    pub fn edge_type_histogram(&self) -> [usize; PortType::COUNT] {
        let mut h = [0usize; PortType::COUNT];
        for e in &self.edges {
            h[e.port.index()] += 1;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> HetMultigraph {
        let mut g = HetMultigraph::with_vertices([10, 20, 30]);
        g.add_edge(VertexId(0), VertexId(1), PortType::Drain);
        g.add_edge(VertexId(1), VertexId(0), PortType::Gate);
        g.add_edge(VertexId(1), VertexId(2), PortType::Passive);
        g.add_edge(VertexId(0), VertexId(1), PortType::Drain); // parallel
        g
    }

    #[test]
    fn vertices_map_to_devices() {
        let g = triangle();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.device_index(VertexId(1)), 20);
        assert_eq!(g.vertex_for_device(30), Some(VertexId(2)));
        assert_eq!(g.vertex_for_device(99), None);
    }

    #[test]
    fn parallel_edges_are_kept() {
        let g = triangle();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.in_degree(VertexId(1)), 2);
        assert_eq!(g.in_neighbors(VertexId(1)), vec![VertexId(0)]);
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loops_are_rejected() {
        let mut g = triangle();
        g.add_edge(VertexId(0), VertexId(0), PortType::Gate);
    }

    #[test]
    fn degree_bookkeeping() {
        let g = triangle();
        assert_eq!(g.out_degree(VertexId(0)), 2);
        assert_eq!(g.out_degree(VertexId(1)), 2);
        assert_eq!(g.out_degree(VertexId(2)), 0);
        let total_in: usize = g.vertices().map(|v| g.in_degree(v)).sum();
        assert_eq!(total_in, g.edge_count());
    }

    #[test]
    fn histogram_counts_types() {
        let g = triangle();
        let h = g.edge_type_histogram();
        assert_eq!(h[PortType::Gate.index()], 1);
        assert_eq!(h[PortType::Drain.index()], 2);
        assert_eq!(h[PortType::Source.index()], 0);
        assert_eq!(h[PortType::Passive.index()], 1);
    }
}
