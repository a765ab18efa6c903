//! The unsupervised graph-context loss of Eq. 2:
//!
//! ```text
//! L(z_v) = − Σ_{u ∈ N_in(v)} log σ(z_uᵀ z_v)
//!          − Σ_{i=1}^{B} E_{ũ ~ Neg(v)} log(1 − σ(z_ũᵀ z_v))
//! ```
//!
//! Positives are the 1-hop in-neighbours; `Neg(v)` is a unigram
//! distribution over in-degrees raised to the 3/4 power (word2vec
//! style), excluding `v` itself and, when possible, its in-neighbours.
//! `log(1 − σ(x)) = log σ(−x)` is used for numerical stability.

use rand::Rng;

use ancstr_nn::{NodeId, Tape};

use crate::tensors::GraphTensors;

/// Configuration of the Eq. 2 loss.
#[derive(Debug, Clone, PartialEq)]
pub struct LossConfig {
    /// Negative samples per vertex (`B`; paper: 5).
    pub negative_samples: usize,
}

impl Default for LossConfig {
    fn default() -> LossConfig {
        LossConfig { negative_samples: 5 }
    }
}

/// The cumulative degree^(3/4) unigram table `Neg(v)` draws from. It
/// depends only on the graph, so a training run builds it once per
/// graph and reuses it for every resampled batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct NegativeTable {
    cumulative: Vec<f64>,
}

impl NegativeTable {
    /// The table of `tensors`: entry `v` is `Σ_{w ≤ v} (in_degree(w) + 1)^0.75`.
    pub(crate) fn new(tensors: &GraphTensors) -> NegativeTable {
        let mut acc = 0.0;
        let cumulative = (0..tensors.vertex_count())
            .map(|v| {
                acc += ((tensors.in_degree(v) + 1) as f64).powf(0.75);
                acc
            })
            .collect();
        NegativeTable { cumulative }
    }

    fn total(&self) -> f64 {
        self.cumulative.last().copied().unwrap_or(0.0)
    }
}

/// The positive/negative index pairs for one training pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContextBatch {
    /// Positive pairs `(u, v)` with `u ∈ N_in(v)`.
    pub positives: Vec<(usize, usize)>,
    /// Negative pairs `(ũ, v)`.
    pub negatives: Vec<(usize, usize)>,
}

impl ContextBatch {
    /// Draw a batch for every vertex of `tensors`.
    ///
    /// Positive pairs enumerate all distinct 1-hop in-neighbours.
    /// Negatives are sampled from the degree^(3/4) unigram distribution;
    /// up to 10 redraws avoid `v` itself and its in-neighbours, after
    /// which the last draw is kept (matching the usual word2vec
    /// implementation compromise).
    pub fn sample(tensors: &GraphTensors, config: &LossConfig, rng: &mut impl Rng) -> ContextBatch {
        let mut batch = ContextBatch::default();
        batch.resample(tensors, &NegativeTable::new(tensors), config, rng);
        batch
    }

    /// Replace this batch with [`ContextBatch::sample`]'s draw, reusing
    /// its allocations and `table`, the [`NegativeTable`] of `tensors`:
    /// the same pairs from the same RNG calls.
    pub(crate) fn resample(
        &mut self,
        tensors: &GraphTensors,
        table: &NegativeTable,
        config: &LossConfig,
        rng: &mut impl Rng,
    ) {
        let n = tensors.vertex_count();
        let positives = &mut self.positives;
        positives.clear();
        for v in 0..n {
            for &u in tensors.in_neighbors(v) {
                positives.push((u, v));
            }
        }

        // Unigram distribution ∝ (in_degree + 1)^0.75.
        let cumulative = &table.cumulative;
        let total = table.total();

        let negatives = &mut self.negatives;
        negatives.clear();
        if n > 1 && total > 0.0 {
            for v in 0..n {
                let forbidden = tensors.in_neighbors(v);
                for _ in 0..config.negative_samples {
                    let mut pick = 0;
                    for _attempt in 0..10 {
                        let r = rng.gen::<f64>() * total;
                        pick = cumulative.partition_point(|&c| c < r).min(n - 1);
                        if pick != v && !forbidden.contains(&pick) {
                            break;
                        }
                    }
                    negatives.push((pick, v));
                }
            }
        }
    }

    /// Number of loss terms.
    pub fn len(&self) -> usize {
        self.positives.len() + self.negatives.len()
    }

    /// Whether the batch carries no terms.
    pub fn is_empty(&self) -> bool {
        self.positives.is_empty() && self.negatives.is_empty()
    }
}

/// Record the Eq. 2 loss on `tape` given the final embeddings node `z`
/// (shape `n × D`). Returns a `1 × 1` loss node: the summed terms
/// divided by their count, so the gradient scale does not grow with
/// the graph (the paper optimizes the plain sum `L_tot`; the division
/// only rescales the learning rate).
///
/// # Panics
///
/// Panics if the batch is empty (there is nothing to optimize).
pub fn context_loss(tape: &mut Tape, z: NodeId, batch: &ContextBatch) -> NodeId {
    assert!(!batch.is_empty(), "cannot build a loss from an empty batch");
    let mut terms: Vec<NodeId> = Vec::new();

    if !batch.positives.is_empty() {
        let dots = tape.pair_dots(z, &batch.positives);
        let ls = tape.log_sigmoid(dots);
        let s = tape.sum(ls);
        terms.push(tape.neg(s));
    }
    if !batch.negatives.is_empty() {
        let dots = tape.pair_dots(z, &batch.negatives);
        // log(1 − σ(x)) = log σ(−x)
        let neg_dots = tape.neg(dots);
        let ls = tape.log_sigmoid(neg_dots);
        let s = tape.sum(ls);
        terms.push(tape.neg(s));
    }

    let mut loss = terms[0];
    for &t in &terms[1..] {
        loss = tape.add(loss, t);
    }
    tape.scale(loss, 1.0 / batch.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_graph::{HetMultigraph, VertexId};
    use ancstr_netlist::PortType;
    use ancstr_nn::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tensors() -> GraphTensors {
        let mut g = HetMultigraph::with_vertices(0..6);
        for i in 0..5 {
            g.add_edge(VertexId(i), VertexId(i + 1), PortType::Drain);
            g.add_edge(VertexId(i + 1), VertexId(i), PortType::Gate);
        }
        GraphTensors::from_multigraph(&g)
    }

    #[test]
    fn batch_counts() {
        let t = tensors();
        let cfg = LossConfig::default();
        let batch = ContextBatch::sample(&t, &cfg, &mut StdRng::seed_from_u64(1));
        // 10 directed in-neighbour pairs on the bidirected line.
        assert_eq!(batch.positives.len(), 10);
        assert_eq!(batch.negatives.len(), 6 * 5);
        assert_eq!(batch.len(), 40);
        assert!(!batch.is_empty());
    }

    #[test]
    fn sampling_is_seed_deterministic() {
        let t = tensors();
        let cfg = LossConfig::default();
        let a = ContextBatch::sample(&t, &cfg, &mut StdRng::seed_from_u64(9));
        let b = ContextBatch::sample(&t, &cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    /// One table reused across many resamples draws exactly what a
    /// fresh [`ContextBatch::sample`] draws at every seed.
    #[test]
    fn table_backed_resample_matches_sample_across_seeds() {
        let t = tensors();
        let cfg = LossConfig::default();
        let table = NegativeTable::new(&t);
        let mut batch = ContextBatch::default();
        for seed in 0..32 {
            let mut rng = StdRng::seed_from_u64(seed);
            batch.resample(&t, &table, &cfg, &mut rng);
            let mut fresh_rng = StdRng::seed_from_u64(seed);
            assert_eq!(batch, ContextBatch::sample(&t, &cfg, &mut fresh_rng), "seed {seed}");
            assert_eq!(rng.gen::<u64>(), fresh_rng.gen::<u64>(), "RNG stream at seed {seed}");
        }
    }

    #[test]
    fn negatives_mostly_avoid_self_and_neighbors() {
        let t = tensors();
        let cfg = LossConfig { negative_samples: 20 };
        let batch = ContextBatch::sample(&t, &cfg, &mut StdRng::seed_from_u64(3));
        let bad = batch
            .negatives
            .iter()
            .filter(|&&(u, v)| u == v || t.in_neighbors(v).contains(&u))
            .count();
        // Retries make collisions rare on this graph.
        assert!(bad * 10 < batch.negatives.len(), "{bad} bad of {}", batch.negatives.len());
    }

    #[test]
    fn loss_is_positive_and_decreases_for_aligned_embeddings() {
        let t = tensors();
        let cfg = LossConfig::default();
        let batch = ContextBatch::sample(&t, &cfg, &mut StdRng::seed_from_u64(2));

        // Random embeddings.
        let eval = |z: Matrix| -> f64 {
            let mut tape = Tape::new();
            let zn = tape.leaf(z);
            let loss = context_loss(&mut tape, zn, &batch);
            tape.value(loss)[(0, 0)]
        };
        let random = eval(Matrix::from_fn(6, 4, |r, c| ((r * 7 + c * 3) % 5) as f64 * 0.1 - 0.2));
        assert!(random > 0.0);

        // "Perfect" embeddings: neighbours identical & large, far pairs
        // opposite. On the line graph give alternating ±: neighbours then
        // have negative dots — should be *worse* than aligned.
        let aligned = eval(Matrix::filled(6, 4, 1.0));
        let alternating = eval(Matrix::from_fn(6, 4, |r, _| if r % 2 == 0 { 2.0 } else { -2.0 }));
        assert!(aligned < alternating);
    }

    #[test]
    fn gradient_flows_from_loss_to_embeddings() {
        let t = tensors();
        let cfg = LossConfig::default();
        let batch = ContextBatch::sample(&t, &cfg, &mut StdRng::seed_from_u64(4));
        let mut tape = Tape::new();
        let z = tape.leaf(Matrix::filled(6, 4, 0.1));
        let loss = context_loss(&mut tape, z, &batch);
        let grads = tape.backward(loss);
        let g = grads.grad(z).expect("embeddings influence the loss");
        assert!(g.is_finite());
        assert!(g.max_abs() > 0.0);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let mut tape = Tape::new();
        let z = tape.leaf(Matrix::zeros(2, 2));
        let batch = ContextBatch { positives: vec![], negatives: vec![] };
        let _ = context_loss(&mut tape, z, &batch);
    }

    #[test]
    fn isolated_graph_yields_negative_only_batch() {
        let g = HetMultigraph::with_vertices(0..4);
        let t = GraphTensors::from_multigraph(&g);
        let batch = ContextBatch::sample(&t, &LossConfig::default(), &mut StdRng::seed_from_u64(5));
        assert!(batch.positives.is_empty());
        assert!(!batch.negatives.is_empty());
    }
}
