//! PageRank over the simplified digraph (Eq. 3).
//!
//! The paper's Eq. 3 reads
//! `PR(v) = (1-γ)/|V_t| + γ · Σ_{u ∈ N_in(v)} PR(u)/|N_out(v)|`;
//! the denominator is the standard `|N_out(u)|` (each in-neighbour
//! distributes its rank over *its own* out-edges — the printed `v` is a
//! typo, and with it the iteration would not conserve rank). Dangling
//! vertices redistribute uniformly, the usual convention.

use crate::simplify::SimpleDigraph;

/// Parameters of the PageRank iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankOptions {
    /// Damping factor `γ`.
    pub damping: f64,
    /// Stop when the L1 change between sweeps drops below this.
    pub tolerance: f64,
    /// Hard cap on sweeps.
    pub max_iterations: usize,
}

impl Default for PageRankOptions {
    fn default() -> PageRankOptions {
        PageRankOptions { damping: 0.85, tolerance: 1e-10, max_iterations: 200 }
    }
}

/// Compute PageRank values for every vertex of `g`.
///
/// Returns a vector summing to 1 (up to floating-point error); an empty
/// graph yields an empty vector.
///
/// # Example
///
/// ```
/// use ancstr_graph::{pagerank, PageRankOptions, SimpleDigraph};
///
/// // A hub that everything points at ranks highest.
/// let g = SimpleDigraph::from_edges(3, &[(0, 2), (1, 2)]);
/// let pr = pagerank(&g, &PageRankOptions::default());
/// assert!(pr[2] > pr[0] && pr[2] > pr[1]);
/// ```
pub fn pagerank(g: &SimpleDigraph, options: &PageRankOptions) -> Vec<f64> {
    let n = g.vertex_count();
    if n == 0 {
        return Vec::new();
    }
    let nf = n as f64;
    let gamma = options.damping;
    let base = (1.0 - gamma) / nf;
    let mut pr = vec![1.0 / nf; n];
    let mut next = vec![0.0; n];
    let mut share = vec![0.0; n];

    // Out-degrees are loop invariants: hoist the float conversions and
    // the dangling-vertex scan out of the power iteration.
    let out_deg: Vec<f64> = (0..n).map(|v| g.out_degree(v) as f64).collect();
    let dangling_vertices: Vec<usize> = (0..n).filter(|&v| g.out_degree(v) == 0).collect();

    for _ in 0..options.max_iterations {
        // Rank from dangling vertices spreads uniformly.
        let dangling: f64 = dangling_vertices.iter().map(|&v| pr[v]).sum();
        let dangling_share = gamma * dangling / nf;
        // Each vertex's per-out-edge share, divided once per sweep rather
        // than once per out-edge: the same division on the same operands,
        // summed below in the same order, so the ranks keep their bits.
        // A dangling vertex's share is never read (it is nobody's
        // in-neighbour).
        for ((s, &p), &d) in share.iter_mut().zip(&pr).zip(&out_deg) {
            *s = p / d;
        }
        for (v, slot) in next.iter_mut().enumerate() {
            let mut acc = 0.0;
            for &u in g.in_neighbors(v) {
                acc += share[u];
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

/// Indices of the top-`m` vertices by PageRank, ties broken by vertex
/// index for determinism (Algorithm 2 lines 5–6 and 8).
pub fn top_m_by_pagerank(pr: &[f64], m: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..pr.len()).collect();
    idx.sort_by(|&a, &b| {
        pr[b]
            .partial_cmp(&pr[a])
            .expect("PageRank values are finite")
            .then(a.cmp(&b))
    });
    idx.truncate(m);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_sum_to_one() {
        let g = SimpleDigraph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 2), (4, 2)]);
        let pr = pagerank(&g, &PageRankOptions::default());
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-8, "sum = {sum}");
    }

    #[test]
    fn empty_graph() {
        let g = SimpleDigraph::from_edges(0, &[]);
        assert!(pagerank(&g, &PageRankOptions::default()).is_empty());
    }

    #[test]
    fn isolated_vertices_share_uniformly() {
        let g = SimpleDigraph::from_edges(4, &[]);
        let pr = pagerank(&g, &PageRankOptions::default());
        for &p in &pr {
            assert!((p - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let g = SimpleDigraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let pr = pagerank(&g, &PageRankOptions::default());
        for &p in &pr {
            assert!((p - 0.25).abs() < 1e-8);
        }
    }

    #[test]
    fn hub_ranks_highest() {
        // star: everyone points to 0, 0 points back to 1 only.
        let g = SimpleDigraph::from_edges(4, &[(1, 0), (2, 0), (3, 0), (0, 1)]);
        let pr = pagerank(&g, &PageRankOptions::default());
        assert!(pr[0] > pr[1] && pr[1] > pr[2]);
        assert!((pr[2] - pr[3]).abs() < 1e-9, "symmetric leaves tie");
    }

    #[test]
    fn dangling_mass_is_conserved() {
        // 1 is dangling.
        let g = SimpleDigraph::from_edges(3, &[(0, 1), (2, 1)]);
        let pr = pagerank(&g, &PageRankOptions::default());
        let sum: f64 = pr.iter().sum();
        assert!((sum - 1.0).abs() < 1e-8);
        assert!(pr[1] > pr[0]);
    }

    #[test]
    fn top_m_is_deterministic_and_sorted() {
        let pr = vec![0.1, 0.4, 0.4, 0.05, 0.05];
        assert_eq!(top_m_by_pagerank(&pr, 3), vec![1, 2, 0]);
        assert_eq!(top_m_by_pagerank(&pr, 10), vec![1, 2, 0, 3, 4]);
        assert!(top_m_by_pagerank(&pr, 0).is_empty());
    }
}
