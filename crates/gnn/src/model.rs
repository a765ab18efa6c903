//! The Eq. 1 model: K layers of edge-type-conditioned aggregation
//! combined by a GRU.
//!
//! ```text
//! h_v^{(k)} = GRU(h_v^{(k-1)}, Σ_{u ∈ N_in(v)} W_{e_uv} · h_u^{(k-1)})
//! ```
//!
//! with one weight matrix per edge type (`|W| = 4`).

use rand::rngs::StdRng;
use rand::SeedableRng;

use ancstr_netlist::PortType;
use ancstr_nn::init::xavier_uniform;
use ancstr_nn::{ClassedRows, Eager, Forward, GruCell, Matrix, NodeId, Tape};

use crate::tensors::GraphTensors;

/// Hyper-parameters of the GNN.
#[derive(Debug, Clone, PartialEq)]
pub struct GnnConfig {
    /// Feature / hidden dimension `D` (the paper uses 18, matching the
    /// Table II input features).
    pub dim: usize,
    /// Number of layers `K` (paper: 2 — features aggregate from 2-hop
    /// neighbourhoods).
    pub layers: usize,
    /// RNG seed for weight initialization.
    pub seed: u64,
}

impl Default for GnnConfig {
    fn default() -> GnnConfig {
        GnnConfig { dim: 18, layers: 2, seed: 0xA5C7 }
    }
}

/// One layer: four edge-type transforms plus the GRU combiner.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    edge_weights: Vec<Matrix>,
    gru: GruCell,
}

/// The trained model: weights for every layer.
#[derive(Debug, Clone, PartialEq)]
pub struct GnnModel {
    config: GnnConfig,
    layers: Vec<Layer>,
}

/// All tape leaves of a recorded forward pass, used by the trainer to
/// collect gradients in [`GnnModel::matrices_mut`] order.
#[derive(Debug, Clone)]
pub struct ModelLeaves {
    ids: Vec<NodeId>,
}

impl ModelLeaves {
    /// Leaf ids in [`GnnModel::matrices`] order.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }
}

impl GnnModel {
    /// A freshly initialized model.
    ///
    /// # Panics
    ///
    /// Panics if `config.dim == 0` or `config.layers == 0`.
    pub fn new(config: GnnConfig) -> GnnModel {
        assert!(config.dim > 0, "dimension must be positive");
        assert!(config.layers > 0, "need at least one layer");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let layers = (0..config.layers)
            .map(|_| Layer {
                edge_weights: (0..PortType::COUNT)
                    .map(|_| xavier_uniform(config.dim, config.dim, &mut rng))
                    .collect(),
                gru: GruCell::new(config.dim, config.dim, &mut rng),
            })
            .collect();
        GnnModel { config, layers }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &GnnConfig {
        &self.config
    }

    /// All parameter matrices in a stable order (per layer: the four
    /// edge-type transforms, then the GRU's nine matrices).
    pub fn matrices(&self) -> Vec<&Matrix> {
        let mut out = Vec::new();
        for l in &self.layers {
            out.extend(l.edge_weights.iter());
            out.extend(l.gru.matrices().iter());
        }
        out
    }

    /// Mutable access to the parameters, same order as
    /// [`GnnModel::matrices`].
    pub fn matrices_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out = Vec::new();
        for l in &mut self.layers {
            let (ew, gru) = (&mut l.edge_weights, &mut l.gru);
            out.extend(ew.iter_mut());
            out.extend(gru.matrices_mut().iter_mut());
        }
        out
    }

    /// Number of parameter matrices.
    pub fn param_count(&self) -> usize {
        self.layers.len() * (PortType::COUNT + GruCell::PARAM_COUNT)
    }

    /// Whether every parameter is finite (no NaN/Inf — e.g. after
    /// deserialization or a training run worth distrusting).
    pub fn is_finite(&self) -> bool {
        self.matrices().iter().all(|m| m.is_finite())
    }

    /// Record a full forward pass on `tape`, returning the final hidden
    /// state node and the parameter leaves (for gradient collection).
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong column count or row count.
    pub fn forward_on_tape(
        &self,
        tape: &mut Tape,
        tensors: &GraphTensors,
        features: &Matrix,
    ) -> (NodeId, ModelLeaves) {
        self.check_features(tensors, features);
        let h = tape.input(features);
        let (h, ids) = self.forward(tape, tensors, h, |_| {});
        (h, ModelLeaves { ids })
    }

    /// Inference: the final feature representation `Z = H^{(K)}` for
    /// every vertex. Runs the same forward pass as
    /// [`GnnModel::forward_on_tape`], bit for bit, without recording it:
    /// each op runs once per distinct input row, and each intermediate
    /// is freed after its last use.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches (see [`GnnModel::forward_on_tape`]).
    pub fn embed(&self, tensors: &GraphTensors, features: &Matrix) -> Matrix {
        self.check_features(tensors, features);
        self.embed_classed(tensors, ClassedRows::classify(features)).0
    }

    /// [`GnnModel::embed`] that takes the features by value and frees
    /// them once their distinct rows are classed: the pipeline's embed
    /// stage, which has no further use for them. Also returns the rows
    /// the K combiner steps computed, summed over the layers (at most
    /// `K × n`; far fewer when vertices share their neighbourhoods).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches (see [`GnnModel::forward_on_tape`]).
    pub fn embed_owned(&self, tensors: &GraphTensors, features: Matrix) -> (Matrix, usize) {
        self.check_features(tensors, &features);
        let h = ClassedRows::classify(&features);
        drop(features);
        self.embed_classed(tensors, h)
    }

    /// The eager pass from classed features: `Z`, and the rows each
    /// layer's combiner computed, summed.
    fn embed_classed(&self, tensors: &GraphTensors, h: ClassedRows) -> (Matrix, usize) {
        let mut computed = 0;
        let (z, _) = self.forward(&mut Eager, tensors, h, |h| computed += h.distinct_rows());
        (z.into_matrix(), computed)
    }

    fn check_features(&self, tensors: &GraphTensors, features: &Matrix) {
        assert_eq!(
            features.cols(),
            self.config.dim,
            "feature dimension must match the model"
        );
        assert_eq!(
            features.rows(),
            tensors.vertex_count(),
            "one feature row per vertex"
        );
    }

    /// Eq. 1, K times, over either evaluator from the bound features
    /// `h`: the final hidden state and every parameter as bound by `f`,
    /// in [`GnnModel::matrices`] order. `layer_done` sees each layer's
    /// new state.
    fn forward<'a, F: Forward<'a>>(
        &'a self,
        f: &mut F,
        tensors: &'a GraphTensors,
        mut h: F::Value,
        mut layer_done: impl FnMut(&F::Value),
    ) -> (F::Value, Vec<F::Param>) {
        // Shared handles: every pass over this graph reuses the same
        // operators instead of copying them per pass.
        let adj: Vec<F::Sparse> = PortType::ALL
            .iter()
            .map(|&p| f.operator(tensors.adjacency_shared(p)))
            .collect();

        let mut params = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            let edge_w: Vec<F::Param> = layer.edge_weights.iter().map(|w| f.param(w)).collect();
            let gru = layer.gru.leaves(f);
            params.extend_from_slice(&edge_w);
            params.extend_from_slice(gru.ids());

            // message = Σ_τ A_τ · (H · W_τ), each term summed into the
            // first. Each operand passed by value is at its last use, so
            // the eager pass frees it here.
            let mut message: Option<F::Value> = None;
            for (&w, &a) in edge_w.iter().zip(&adj) {
                let hw = f.matmul(&h, w);
                message = Some(match message {
                    Some(acc) => f.spmm_add(a, hw, acc),
                    None => f.spmm(a, hw),
                });
            }
            let message = message.expect("PortType::COUNT > 0");
            h = GruCell::forward(f, &gru, message, h);
            layer_done(&h);
        }
        (h, params)
    }

    /// Checked [`GnnModel::embed`]: validates shapes and finiteness of
    /// both the features and the model parameters, returning a typed
    /// error instead of panicking or silently propagating NaN.
    ///
    /// # Errors
    ///
    /// See [`EmbedError`](crate::error::EmbedError).
    pub fn try_embed(
        &self,
        tensors: &GraphTensors,
        features: &Matrix,
    ) -> Result<Matrix, crate::error::EmbedError> {
        use crate::error::EmbedError;
        if features.cols() != self.config.dim {
            return Err(EmbedError::FeatureDim {
                expected: self.config.dim,
                found: features.cols(),
            });
        }
        if features.rows() != tensors.vertex_count() {
            return Err(EmbedError::FeatureRows {
                expected: tensors.vertex_count(),
                found: features.rows(),
            });
        }
        if !features.is_finite() {
            return Err(EmbedError::NonFiniteFeatures);
        }
        if !self.is_finite() {
            return Err(EmbedError::NonFiniteParameters);
        }
        Ok(self.embed(tensors, features))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_graph::{HetMultigraph, VertexId};

    fn line_graph(n: usize) -> GraphTensors {
        let mut g = HetMultigraph::with_vertices(0..n);
        for i in 0..n.saturating_sub(1) {
            g.add_edge(VertexId(i), VertexId(i + 1), PortType::Drain);
            g.add_edge(VertexId(i + 1), VertexId(i), PortType::Source);
        }
        GraphTensors::from_multigraph(&g)
    }

    #[test]
    fn embed_shapes_and_determinism() {
        let cfg = GnnConfig { dim: 6, layers: 2, seed: 3 };
        let model = GnnModel::new(cfg.clone());
        let t = line_graph(5);
        let x = Matrix::filled(5, 6, 0.1);
        let z1 = model.embed(&t, &x);
        let z2 = model.embed(&t, &x);
        assert_eq!(z1.shape(), (5, 6));
        assert_eq!(z1, z2);
        // Different seed → different embedding.
        let other = GnnModel::new(GnnConfig { seed: 4, ..cfg });
        assert_ne!(other.embed(&t, &x), z1);
    }

    #[test]
    fn param_count_and_ordering() {
        let model = GnnModel::new(GnnConfig { dim: 4, layers: 3, seed: 1 });
        assert_eq!(model.param_count(), 3 * 13);
        assert_eq!(model.matrices().len(), 39);
        let mut m = model.clone();
        assert_eq!(m.matrices_mut().len(), 39);
    }

    #[test]
    fn isomorphic_vertices_get_identical_embeddings() {
        // A 4-cycle with uniform features: every vertex is automorphic
        // to every other, so embeddings must coincide exactly.
        let mut g = HetMultigraph::with_vertices(0..4);
        for i in 0..4 {
            let j = (i + 1) % 4;
            g.add_edge(VertexId(i), VertexId(j), PortType::Drain);
            g.add_edge(VertexId(j), VertexId(i), PortType::Drain);
        }
        let t = GraphTensors::from_multigraph(&g);
        let model = GnnModel::new(GnnConfig { dim: 5, layers: 2, seed: 11 });
        let x = Matrix::filled(4, 5, 0.25);
        let z = model.embed(&t, &x);
        for v in 1..4 {
            for c in 0..5 {
                assert!(
                    (z[(0, c)] - z[(v, c)]).abs() < 1e-12,
                    "vertex {v} differs at column {c}"
                );
            }
        }
    }

    #[test]
    fn distinguishes_different_neighborhood_types() {
        // Two vertices with identical features but different incoming
        // edge types must embed differently.
        let mut g = HetMultigraph::with_vertices(0..3);
        g.add_edge(VertexId(0), VertexId(1), PortType::Gate);
        g.add_edge(VertexId(0), VertexId(2), PortType::Drain);
        let t = GraphTensors::from_multigraph(&g);
        let model = GnnModel::new(GnnConfig { dim: 4, layers: 1, seed: 5 });
        let x = Matrix::filled(3, 4, 0.5);
        let z = model.embed(&t, &x);
        let row1: Vec<f64> = z.row(1).to_vec();
        let row2: Vec<f64> = z.row(2).to_vec();
        assert!(
            row1.iter().zip(&row2).any(|(a, b)| (a - b).abs() > 1e-9),
            "gate- and drain-fed vertices should differ"
        );
    }

    #[test]
    fn try_embed_reports_typed_errors() {
        use crate::error::EmbedError;
        let model = GnnModel::new(GnnConfig { dim: 4, layers: 1, seed: 5 });
        let t = line_graph(3);
        // Wrong column count.
        let err = model.try_embed(&t, &Matrix::zeros(3, 7)).unwrap_err();
        assert_eq!(err, EmbedError::FeatureDim { expected: 4, found: 7 });
        // Wrong row count.
        let err = model.try_embed(&t, &Matrix::zeros(2, 4)).unwrap_err();
        assert_eq!(err, EmbedError::FeatureRows { expected: 3, found: 2 });
        // Non-finite features.
        let mut x = Matrix::zeros(3, 4);
        x[(1, 2)] = f64::NAN;
        assert_eq!(model.try_embed(&t, &x).unwrap_err(), EmbedError::NonFiniteFeatures);
        // Non-finite parameters.
        let mut poisoned = model.clone();
        poisoned.matrices_mut()[3][(0, 0)] = f64::INFINITY;
        assert!(!poisoned.is_finite());
        assert_eq!(
            poisoned.try_embed(&t, &Matrix::zeros(3, 4)).unwrap_err(),
            EmbedError::NonFiniteParameters
        );
        // The happy path agrees with `embed` exactly.
        let x = Matrix::filled(3, 4, 0.2);
        assert_eq!(model.try_embed(&t, &x).unwrap(), model.embed(&t, &x));
    }

    #[test]
    #[should_panic(expected = "feature dimension")]
    fn wrong_feature_dim_panics() {
        let model = GnnModel::new(GnnConfig { dim: 4, layers: 1, seed: 5 });
        let t = line_graph(3);
        let x = Matrix::zeros(3, 7);
        let _ = model.embed(&t, &x);
    }

    #[test]
    fn k_layers_reach_k_hops() {
        // In a directed line 0→1→2→3 (single edge type), information from
        // vertex 0 reaches vertex K after K layers, not before.
        let n = 4;
        let mut g = HetMultigraph::with_vertices(0..n);
        for i in 0..n - 1 {
            g.add_edge(VertexId(i), VertexId(i + 1), PortType::Drain);
        }
        let t = GraphTensors::from_multigraph(&g);
        let base = Matrix::zeros(n, 3);
        let mut perturbed = base.clone();
        perturbed[(0, 0)] = 1.0;

        for k in 1..=3 {
            let model = GnnModel::new(GnnConfig { dim: 3, layers: k, seed: 2 });
            let zb = model.embed(&t, &base);
            let zp = model.embed(&t, &perturbed);
            for v in 0..n {
                let changed = (0..3).any(|c| (zb[(v, c)] - zp[(v, c)]).abs() > 1e-12);
                assert_eq!(
                    changed,
                    v <= k,
                    "layers={k} vertex={v}: influence should reach exactly {k} hops"
                );
            }
        }
    }
}
