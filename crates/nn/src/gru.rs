//! A gated recurrent unit cell, the combiner of Eq. 1:
//! `h_v^{(k)} = GRU(h_v^{(k-1)}, m_v)` where `m_v` is the aggregated
//! neighbour message.
//!
//! A step is one pass over the rows: [`Forward::gru_step`] runs the
//! crate's fused gate kernel, which computes z, r, `r ⊙ h`, h̃ and h′
//! for a row in registers from the nine parameter matrices, so no
//! `n × d` intermediate is built. Each element is produced by the add
//! and multiply sequence of the op-by-op composition (six matmuls,
//! three bias adds, two sigmoids, a tanh and the element-wise blend),
//! which survives only as the test-only oracle; on a
//! [`Tape`](crate::Tape) the step is one recorded op whose backward
//! reproduces that composition's reverse sweep.

use rand::Rng;

use crate::forward::Forward;
use crate::init::xavier_uniform;
use crate::kernel::{self, GruParams};
use crate::matrix::{min_rows_for, par_row_chunks_of, Matrix};

/// Learnable parameters of a GRU cell.
///
/// Gate equations (x = message input, h = previous state):
///
/// ```text
/// z = σ(x·Wz + h·Uz + bz)        update gate
/// r = σ(x·Wr + h·Ur + br)        reset gate
/// h̃ = tanh(x·Wh + (r ⊙ h)·Uh + bh)
/// h' = (1 − z) ⊙ h + z ⊙ h̃       computed as h + z ⊙ (h̃ − h)
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
    ids: [P; GruCell::PARAM_COUNT],
}

impl<P> GruLeaves<P> {
    /// The bound parameters, ordered as [`GruCell::matrices`].
    pub fn ids(&self) -> &[P; GruCell::PARAM_COUNT] {
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
            ids: std::array::from_fn(|k| f.param(&self.params[k])),
        }
    }

    /// One GRU step: combine message `x` (`n × input_dim`) with state `h`
    /// (`n × hidden_dim`) into the next state (`n × hidden_dim`).
    ///
    /// # Panics
    ///
    /// Panics (inside the op) on shape mismatches.
    pub fn forward<'a, F: Forward<'a>>(
        f: &mut F,
        leaves: &GruLeaves<F::Param>,
        x: F::Value,
        h: F::Value,
    ) -> F::Value {
        f.gru_step(leaves, x, h)
    }
}

/// Mul-adds of the six row products per row of a step — its work unit
/// for profiling and for sizing parallel chunks. The chunks split a
/// step's `n × d` outputs the way the element-wise gate passes it
/// replaces were split, so the transcendentals still fan out on graphs
/// of fewer rows than the pool's item floor.
fn work_per_row(input: usize, d: usize) -> usize {
    3 * (input + d) * d
}

/// The parameters of one step as the kernel reads them.
///
/// # Panics
///
/// Panics unless `x` is `n × input` and `h` is `n × d` for a parameter
/// set of `input × d` weights, `d × d` recurrent weights and `1 × d`
/// biases.
fn kernel_params<'m>(
    p: [&'m Matrix; GruCell::PARAM_COUNT],
    x: &Matrix,
    h: &Matrix,
) -> GruParams<'m> {
    let (n, d) = h.shape();
    let input = x.cols();
    assert_eq!(x.rows(), n, "GRU step: message and state row counts differ");
    for (k, m) in p.iter().enumerate() {
        let want = [(input, d), (d, d), (1, d)][k / 3];
        assert_eq!(m.shape(), want, "GRU step: parameter {k} has the wrong shape");
    }
    GruParams {
        w: [p[0].as_slice(), p[1].as_slice(), p[2].as_slice()],
        u: [p[3].as_slice(), p[4].as_slice(), p[5].as_slice()],
        b: [p[6].as_slice(), p[7].as_slice(), p[8].as_slice()],
        input,
        d,
    }
}

/// Where a step reads its message rows from.
pub(crate) enum Message<'m> {
    /// A separate matrix.
    Rows(&'m Matrix),
    /// The `next` buffer itself: each row is read and then overwritten
    /// with the next state (message width = state width).
    InPlace,
}

/// One GRU step over every row, in parallel across row chunks: the next
/// state into `next` (`n × d`, contents ignored unless the message is
/// [`Message::InPlace`]) and, when given, the gates z, r and h̃ into
/// `gates` (`n × d` each, contents ignored).
pub(crate) fn step(
    p: [&Matrix; GruCell::PARAM_COUNT],
    x: Message<'_>,
    h: &Matrix,
    next: &mut Matrix,
    gates: Option<[&mut Matrix; 3]>,
) {
    let (n, d) = h.shape();
    let (params, x) = match x {
        Message::Rows(x) => (kernel_params(p, x, h), Some(x.as_slice())),
        Message::InPlace => (kernel_params(p, next, h), None),
    };
    assert_eq!(next.shape(), (n, d), "GRU step: next-state buffer shape");
    let work = work_per_row(params.input, d);
    let _prof = ancstr_par::profile::time(ancstr_par::profile::Kernel::GruStep, (n * work) as u64);
    let [z, r, c]: [&mut [f64]; 3] = match gates {
        Some(g) => g.map(|m| {
            assert_eq!(m.shape(), (n, d), "GRU step: gate buffer shape");
            m.as_mut_slice()
        }),
        None => [&mut [], &mut [], &mut []],
    };
    par_row_chunks_of(n, d, [next.as_mut_slice(), z, r, c], min_rows_for(work), |rows, out| {
        kernel::gru_rows(&params, x, h.as_slice(), rows, out);
    });
}
/// A gradient slot a step's backward writes: the matrix, and whether it
/// already held a gradient to add to (else its contents are ignored).
pub(crate) type GradSlot<'m> = Option<(&'m mut Matrix, bool)>;

/// A slot's buffer (empty when absent) and whether it held a gradient.
fn slot_rows(slot: GradSlot<'_>, shape: (usize, usize)) -> (&mut [f64], bool) {
    match slot {
        Some((m, prior)) => {
            assert_eq!(m.shape(), shape, "GRU step gradient: slot shape");
            (m.as_mut_slice(), prior)
        }
        None => (&mut [], false),
    }
}

/// The row part of one step's backward, in parallel across row chunks:
/// from `rows = [g, z, r, h̃, h]` (the gradient of h′, the kept gates and
/// the state) and the transposed weights (`wt = [Wzᵀ, Wrᵀ, Whᵀ]`,
/// `ut = [Uzᵀ, Urᵀ, Uhᵀ]`), writes `out = [dZ, dR, dH̃, r ⊙ h]` (the
/// gradients of the gates' activation arguments, and the recurrent
/// product's left operand) and adds into the `dh` and `dx` slots given.
/// The weight and bias gradients are then `xᵀ·dZ`, `hᵀ·dZ`, the column
/// sums of `dZ`, and so on.
pub(crate) fn step_grad_rows(
    wt: [&Matrix; 3],
    ut: [&Matrix; 3],
    rows: [&Matrix; 5],
    out: [&mut Matrix; 4],
    dh: GradSlot<'_>,
    dx: GradSlot<'_>,
) {
    let (n, d) = rows[4].shape();
    let input = wt[0].cols();
    for m in rows {
        assert_eq!(m.shape(), (n, d), "GRU step gradient: row shape");
    }
    let work = work_per_row(input, d);
    let _prof = ancstr_par::profile::time(ancstr_par::profile::Kernel::GruStep, (n * work) as u64);
    let ((dh, dh_prior), (dx, dx_prior)) = (slot_rows(dh, (n, d)), slot_rows(dx, (n, input)));
    let [gz, gr, gc, rh] = out.map(Matrix::as_mut_slice);
    let ins = rows.map(Matrix::as_slice);
    let (wt, ut) = (wt.map(Matrix::as_slice), ut.map(Matrix::as_slice));
    par_row_chunks_of(n, d, [gz, gr, gc, rh, dh, dx], min_rows_for(work), |rows, out| {
        kernel::gru_grad_rows(wt, ut, (input, d), ins, [dh_prior, dx_prior], rows, out);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::Eager;
    use crate::tape::{NodeId, Tape};
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

    /// The eager step matches the tape's, and both match the op-by-op
    /// oracle, value and every gradient, with the message wider than the
    /// state (so the eager step cannot work in place).
    #[test]
    fn eager_step_matches_the_tape_bitwise() {
        let c = cell();
        let xv = Matrix::from_fn(6, 4, |r, k| (r * 4 + k) as f64 * 0.07 - 0.8);
        let hv = Matrix::from_fn(6, 3, |r, k| (r + 2 * k) as f64 * -0.05 + 0.3);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let run = |step: fn(&mut Tape, &[NodeId; 9], NodeId, NodeId) -> NodeId| {
            let mut tape = Tape::new();
            let p: [NodeId; 9] = std::array::from_fn(|k| tape.leaf(c.matrices()[k].clone()));
            let (x, h) = (tape.leaf(xv.clone()), tape.leaf(hv.clone()));
            let out = step(&mut tape, &p, x, h);
            let loss = tape.sum(out);
            let grads = tape.backward(loss);
            let mut all = vec![bits(tape.value(out))];
            all.extend(p.iter().chain([&x, &h]).map(|&id| bits(grads.grad(id).unwrap())));
            all
        };
        let want = run(crate::oracle::gru_step);
        assert_eq!(run(|t, p, x, h| t.gru_step(p, x, h)), want);
        let mut eager = Eager;
        let leaves = c.leaves(&mut eager);
        let (x, h) = (eager.input(&xv), eager.input(&hv));
        assert_eq!(bits(&GruCell::forward(&mut eager, &leaves, x, h).into_matrix()), want[0]);
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
