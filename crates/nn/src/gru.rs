//! A gated recurrent unit cell, the combiner of Eq. 1:
//! `h_v^{(k)} = GRU(h_v^{(k-1)}, m_v)` where `m_v` is the aggregated
//! neighbour message.

use rand::Rng;

use crate::forward::Forward;
use crate::init::xavier_uniform;
use crate::matrix::Matrix;

/// Learnable parameters of a GRU cell.
///
/// Gate equations (x = message input, h = previous state):
///
/// ```text
/// z = σ(x·Wz + h·Uz + bz)        update gate
/// r = σ(x·Wr + h·Ur + br)        reset gate
/// h̃ = tanh(x·Wh + (r ⊙ h)·Uh + bh)
/// h' = (1 − z) ⊙ h + z ⊙ h̃
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GruCell {
    input_dim: usize,
    hidden_dim: usize,
    /// `[Wz, Wr, Wh, Uz, Ur, Uh, bz, br, bh]`.
    params: Vec<Matrix>,
}

/// A cell's parameters bound for one forward pass (on a tape, its
/// leaves), in the same order as [`GruCell::matrices`].
#[derive(Debug, Clone)]
pub struct GruLeaves<P> {
    ids: Vec<P>,
}

impl<P> GruLeaves<P> {
    /// The bound parameters, ordered as [`GruCell::matrices`].
    pub fn ids(&self) -> &[P] {
        &self.ids
    }
}

impl GruCell {
    /// Number of parameter matrices in a cell.
    pub const PARAM_COUNT: usize = 9;

    /// A new cell with Xavier-uniform weights and zero biases.
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut impl Rng) -> GruCell {
        let params = vec![
            xavier_uniform(input_dim, hidden_dim, rng),
            xavier_uniform(input_dim, hidden_dim, rng),
            xavier_uniform(input_dim, hidden_dim, rng),
            xavier_uniform(hidden_dim, hidden_dim, rng),
            xavier_uniform(hidden_dim, hidden_dim, rng),
            xavier_uniform(hidden_dim, hidden_dim, rng),
            Matrix::zeros(1, hidden_dim),
            Matrix::zeros(1, hidden_dim),
            Matrix::zeros(1, hidden_dim),
        ];
        GruCell { input_dim, hidden_dim, params }
    }

    /// Input (message) dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// The parameter matrices `[Wz, Wr, Wh, Uz, Ur, Uh, bz, br, bh]`.
    pub fn matrices(&self) -> &[Matrix] {
        &self.params
    }

    /// Mutable access to the parameter matrices (same order).
    pub fn matrices_mut(&mut self) -> &mut [Matrix] {
        &mut self.params
    }

    /// Bind the parameters for one pass of `f` (leaves, on a tape).
    pub fn leaves<'a, F: Forward<'a>>(&'a self, f: &mut F) -> GruLeaves<F::Param> {
        GruLeaves {
            ids: self.params.iter().map(|m| f.param(m)).collect(),
        }
    }

    /// One GRU step: combine message `x` (`n × input_dim`) with state `h`
    /// (`n × hidden_dim`) into the next state (`n × hidden_dim`).
    ///
    /// # Panics
    ///
    /// Panics (inside the ops) on shape mismatches.
    pub fn forward<'a, F: Forward<'a>>(
        f: &mut F,
        leaves: &GruLeaves<F::Param>,
        x: F::Value,
        h: F::Value,
    ) -> F::Value {
        let [wz, wr, wh, uz, ur, uh, bz, br, bh] = leaves.ids[..] else {
            unreachable!("GruLeaves always holds {} ids", GruCell::PARAM_COUNT)
        };
        let gate = |f: &mut F, x: &F::Value, w, u_in, b, state: &F::Value| {
            let xw = f.matmul(x, w);
            let hu = f.matmul(state, u_in);
            let s = f.add(xw, &hu);
            f.add_row(s, b)
        };
        let z_pre = gate(f, &x, wz, uz, bz, &h);
        let z = f.sigmoid(z_pre);
        let r_pre = gate(f, &x, wr, ur, br, &h);
        let r = f.sigmoid(r_pre);
        let rh = f.mul_elem(r, &h);
        let cand_pre = gate(f, &x, wh, uh, bh, &rh);
        // Last uses: the eager pass frees these before allocating again
        // (on a tape, dropping a node id does nothing).
        drop((x, rh));
        let cand = f.tanh(cand_pre);
        // h' = h + z ⊙ (h̃ − h)
        let delta = f.sub(cand, &h);
        let zd = f.mul_elem(z, &delta);
        drop(delta);
        f.add(h, &zd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::Eager;
    use crate::tape::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cell() -> GruCell {
        let mut rng = StdRng::seed_from_u64(7);
        GruCell::new(4, 3, &mut rng)
    }

    #[test]
    fn shapes_are_correct() {
        let c = cell();
        assert_eq!(c.matrices().len(), GruCell::PARAM_COUNT);
        assert_eq!(c.matrices()[0].shape(), (4, 3)); // Wz
        assert_eq!(c.matrices()[3].shape(), (3, 3)); // Uz
        assert_eq!(c.matrices()[6].shape(), (1, 3)); // bz
        assert_eq!(c.input_dim(), 4);
        assert_eq!(c.hidden_dim(), 3);
    }

    #[test]
    fn forward_produces_bounded_update() {
        let c = cell();
        let mut tape = Tape::new();
        let leaves = c.leaves(&mut tape);
        let x = tape.leaf(Matrix::filled(5, 4, 0.3));
        let h = tape.leaf(Matrix::filled(5, 3, 0.1));
        let out = GruCell::forward(&mut tape, &leaves, x, h);
        let v = tape.value(out);
        assert_eq!(v.shape(), (5, 3));
        assert!(v.is_finite());
        // GRU output is a convex combination of h and tanh(·), so |h'| ≤ max(|h|, 1).
        assert!(v.max_abs() <= 1.0 + 1e-12);
    }

    #[test]
    fn eager_step_matches_the_tape_bitwise() {
        let c = cell();
        let xv = Matrix::from_fn(6, 4, |r, k| (r * 4 + k) as f64 * 0.07 - 0.8);
        let hv = Matrix::from_fn(6, 3, |r, k| (r + 2 * k) as f64 * -0.05 + 0.3);
        let mut tape = Tape::new();
        let leaves = c.leaves(&mut tape);
        let (x, h) = (tape.leaf(xv.clone()), tape.leaf(hv.clone()));
        let out = GruCell::forward(&mut tape, &leaves, x, h);
        let mut eager = Eager;
        let leaves = c.leaves(&mut eager);
        let (x, h) = (eager.input(&xv), eager.input(&hv));
        let eager_out = GruCell::forward(&mut eager, &leaves, x, h);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&eager_out), bits(tape.value(out)));
    }

    #[test]
    fn zero_message_zero_state_stays_small() {
        let c = cell();
        let mut tape = Tape::new();
        let leaves = c.leaves(&mut tape);
        let x = tape.leaf(Matrix::zeros(2, 4));
        let h = tape.leaf(Matrix::zeros(2, 3));
        let out = GruCell::forward(&mut tape, &leaves, x, h);
        // z = σ(0) = 0.5, h̃ = tanh(0) = 0 → h' = 0.
        assert!(tape.value(out).max_abs() < 1e-12);
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let c = cell();
        let mut tape = Tape::new();
        let leaves = c.leaves(&mut tape);
        let x = tape.leaf(Matrix::filled(3, 4, 0.2));
        let h = tape.leaf(Matrix::filled(3, 3, -0.1));
        let out = GruCell::forward(&mut tape, &leaves, x, h);
        let loss = tape.sum(out);
        let grads = tape.backward(loss);
        for (i, &id) in leaves.ids().iter().enumerate() {
            let g = grads.grad(id).unwrap_or_else(|| panic!("param {i} missing grad"));
            assert!(g.is_finite());
            assert!(g.max_abs() > 0.0, "param {i} has zero gradient");
        }
    }

    #[test]
    fn gru_finite_difference_check() {
        // Check dLoss/dWz numerically on a tiny instance.
        let c = cell();
        let xv = Matrix::from_rows(&[&[0.4, -0.3, 0.2, 0.1]]);
        let hv = Matrix::from_rows(&[&[0.05, -0.2, 0.15]]);

        let run = |cell: &GruCell| -> (f64, Matrix) {
            let mut tape = Tape::new();
            let leaves = cell.leaves(&mut tape);
            let x = tape.leaf(xv.clone());
            let h = tape.leaf(hv.clone());
            let out = GruCell::forward(&mut tape, &leaves, x, h);
            let loss = tape.sum(out);
            let grads = tape.backward(loss);
            (
                tape.value(loss)[(0, 0)],
                grads.grad(leaves.ids()[0]).unwrap().clone(),
            )
        };
        let (_, g_wz) = run(&c);
        let eps = 1e-6;
        for r in 0..4 {
            for col in 0..3 {
                let mut cp = c.clone();
                cp.matrices_mut()[0][(r, col)] += eps;
                let mut cm = c.clone();
                cm.matrices_mut()[0][(r, col)] -= eps;
                let numeric = (run(&cp).0 - run(&cm).0) / (2.0 * eps);
                assert!(
                    (numeric - g_wz[(r, col)]).abs() < 1e-6,
                    "dWz[{r},{col}] numeric {numeric} vs {}",
                    g_wz[(r, col)]
                );
            }
        }
    }
}
