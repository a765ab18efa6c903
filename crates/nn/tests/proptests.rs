//! Property tests for the NN substrate: linear-algebra identities,
//! autograd linearity, eigen-solver invariants, and bitwise agreement
//! of every kernel path with its oracle.

use std::sync::Arc;

use ancstr_nn::linalg::{normalized_laplacian, symmetric_eigenvalues};
use ancstr_nn::{cosine_similarity, Eager, Forward, GruCell, Matrix, NodeId, SparseMatrix, Tape};
use proptest::prelude::*;
use rand::SeedableRng;

/// The crate's test-only scalar oracles, shared with its unit tests.
#[path = "../src/oracle.rs"]
mod oracle;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0f64..2.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn matmul_transpose_identity(a in arb_matrix(3, 4), b in arb_matrix(4, 2)) {
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        prop_assert!(left.sub(&right).max_abs() < 1e-12);
    }

    /// Matmul distributes over addition.
    #[test]
    fn matmul_distributes(a in arb_matrix(2, 3), b in arb_matrix(3, 2), c in arb_matrix(3, 2)) {
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(left.sub(&right).max_abs() < 1e-12);
    }

    /// Cosine similarity is bounded and symmetric.
    #[test]
    fn cosine_bounded_symmetric(
        a in prop::collection::vec(-5.0f64..5.0, 1..10),
        b in prop::collection::vec(-5.0f64..5.0, 1..10),
    ) {
        let s1 = cosine_similarity(&a, &b);
        let s2 = cosine_similarity(&b, &a);
        prop_assert!((-1.0 - 1e-12..=1.0 + 1e-12).contains(&s1));
        prop_assert!((s1 - s2).abs() < 1e-12);
        // Self-similarity is 1 for nonzero vectors.
        if a.iter().any(|&x| x != 0.0) {
            prop_assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-12);
        }
    }

    /// Autograd is linear: grad of (αf) equals α · grad of f.
    #[test]
    fn backward_is_linear(x in arb_matrix(2, 3), alpha in 0.1f64..3.0) {
        let run = |scale: f64| {
            let mut t = Tape::new();
            let xn = t.leaf(x.clone());
            let s = t.sigmoid(xn);
            let sq = t.mul_elem(s, s);
            let scaled = t.scale(sq, scale);
            let loss = t.sum(scaled);
            let grads = t.backward(loss);
            grads.grad(xn).expect("x influences loss").clone()
        };
        let g1 = run(1.0);
        let ga = run(alpha);
        prop_assert!(ga.sub(&g1.scale(alpha)).max_abs() < 1e-10);
    }

    /// Sparse products agree with their dense materialization.
    #[test]
    fn sparse_matches_dense(
        edges in prop::collection::vec((0u32..4, 0u32..4), 0..12),
        x in arb_matrix(4, 3),
    ) {
        let s = SparseMatrix::from_edges(4, 4, &edges);
        let via_sparse = s.matmul_dense(&x);
        let via_dense = s.to_dense().matmul(&x);
        prop_assert!(via_sparse.sub(&via_dense).max_abs() < 1e-12);
        let yt = s.transpose_matmul_dense(&x);
        let yt_dense = s.to_dense().transpose().matmul(&x);
        prop_assert!(yt.sub(&yt_dense).max_abs() < 1e-12);
    }

    /// Normalized-Laplacian eigenvalues of a random undirected graph lie
    /// in [0, 2] and include 0.
    #[test]
    fn laplacian_spectrum_in_range(
        edges in prop::collection::vec((0usize..6, 0usize..6), 1..15),
    ) {
        let mut a = Matrix::zeros(6, 6);
        for (u, v) in edges {
            if u != v {
                a[(u, v)] = 1.0;
                a[(v, u)] = 1.0;
            }
        }
        let lap = normalized_laplacian(&a);
        let ev = symmetric_eigenvalues(&lap);
        prop_assert!(ev[0].abs() < 1e-8, "smallest eigenvalue is 0, got {}", ev[0]);
        for &e in &ev {
            prop_assert!((-1e-8..=2.0 + 1e-8).contains(&e));
        }
    }

    /// Jacobi preserves the trace.
    #[test]
    fn jacobi_preserves_trace(m in arb_matrix(5, 5)) {
        let sym = m.add(&m.transpose()).scale(0.5);
        let ev = symmetric_eigenvalues(&sym);
        let trace: f64 = (0..5).map(|i| sym[(i, i)]).sum();
        let sum: f64 = ev.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-8);
    }
}

// Bit-exactness properties: every kernel path must reproduce its
// scalar oracle *bitwise*, not just within tolerance — the kernels are
// the substrate of the repo-wide identity contract.

/// Output widths covering the generic row path on both sides of the
/// narrow `D = 18` row path, a lone column, and a wide row.
const WIDTHS: [usize; 5] = [1, 17, 18, 19, 72];

/// Seeded LCG fill in [-2, 2) with every `zero_every`-th element an
/// exact zero (`zero_every == 0`: no planted zeros).
fn lcg_fill(len: usize, seed: u64, zero_every: usize) -> Vec<f64> {
    let mut state = seed;
    (0..len)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0;
            if zero_every > 0 && i % zero_every == 0 {
                0.0
            } else {
                v
            }
        })
        .collect()
}

fn assert_bits(got: &Matrix, want: &[f64], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.as_slice().len(), want.len(), "{}: length", what);
    for (i, (&g, &w)) in got.as_slice().iter().zip(want).enumerate() {
        prop_assert!(oracle::same_bits(g, w), "{} diverged at index {}: {} vs {}", what, i, g, w);
    }
    Ok(())
}

proptest! {
    /// Dense matmul — the narrow row path at n = 18 and the generic path
    /// at every other width — matches the naive ijk oracle bitwise,
    /// planted zeros included.
    #[test]
    fn matmul_matches_oracle_bitwise(
        m in 1usize..9,
        inner in 1usize..40,
        width in 0usize..WIDTHS.len(),
        seed in any::<u64>(),
        zero_every in 0usize..7,
    ) {
        let n = WIDTHS[width];
        let a = Matrix::from_vec(m, inner, lcg_fill(m * inner, seed, zero_every));
        let b = Matrix::from_vec(inner, n, lcg_fill(inner * n, seed ^ 0x9E37, 0));
        let want = oracle::matmul(a.as_slice(), m, inner, b.as_slice(), n);
        assert_bits(&a.matmul(&b), &want, "matmul")?;
    }

    /// `transpose_matmul` matches both `transpose().matmul()` and the
    /// oracle built on an explicit transpose, bitwise.
    #[test]
    fn transpose_matmul_matches_oracle_bitwise(
        rows in 1usize..60,
        p in 1usize..24,
        width in 0usize..WIDTHS.len(),
        seed in any::<u64>(),
        zero_every in 0usize..7,
    ) {
        let q = WIDTHS[width];
        let a = Matrix::from_vec(rows, p, lcg_fill(rows * p, seed, zero_every));
        let g = Matrix::from_vec(rows, q, lcg_fill(rows * q, seed ^ 0x51ED, 0));
        let got = a.transpose_matmul(&g);
        assert_bits(&got, a.transpose().matmul(&g).as_slice(), "transpose_matmul vs transpose")?;
        let want = oracle::transpose_matmul(a.as_slice(), rows, p, g.as_slice(), q);
        assert_bits(&got, &want, "transpose_matmul vs oracle")?;
    }

    /// Flat-CSR spmm in both orientations matches the storage-order
    /// edge walk bitwise, with unsorted rows and columns and duplicates.
    #[test]
    fn csr_spmm_matches_triplet_reference_bitwise(
        edges in prop::collection::vec((0u32..7, 0u32..5), 0..60),
        width in 0usize..WIDTHS.len(),
        seed in any::<u64>(),
    ) {
        let cols = WIDTHS[width];
        let s = SparseMatrix::from_edges(7, 5, &edges);
        let x = Matrix::from_vec(5, cols, lcg_fill(5 * cols, seed, 0));
        let y = Matrix::from_vec(7, cols, lcg_fill(7 * cols, seed ^ 0xC0DE, 0));
        let want = oracle::spmm(&edges, 7, x.as_slice(), cols, false);
        let want_t = oracle::spmm(&edges, 5, y.as_slice(), cols, true);
        assert_bits(&s.matmul_dense(&x), &want, "spmm")?;
        assert_bits(&s.transpose_matmul_dense(&y), &want_t, "spmm transpose")?;
    }

    /// A zero LHS element next to an inf/NaN RHS row: the dense paths
    /// skip it (the output stays finite), spmm adds every source row it
    /// names (the output is not) — and every path agrees with its oracle.
    #[test]
    fn zero_next_to_non_finite_row_agrees_with_oracle_in_every_path(
        inner in 2usize..12,
        zero_at in 0usize..12,
        width in 0usize..WIDTHS.len(),
        nan in any::<bool>(),
    ) {
        let n = WIDTHS[width];
        let k = zero_at % inner;
        let bad = if nan { f64::NAN } else { f64::INFINITY };
        // Row 0 has the zero at `k`; row 1 multiplies the bad row.
        let mut a = lcg_fill(2 * inner, 7, 0);
        a[k] = 0.0;
        let mut b = lcg_fill(inner * n, 11, 0);
        b[k * n..(k + 1) * n].fill(bad);
        let am = Matrix::from_vec(2, inner, a.clone());
        let bm = Matrix::from_vec(inner, n, b.clone());

        // Dense matmul (narrow or generic by width): row 0 skips the bad row.
        let got = am.matmul(&bm);
        assert_bits(&got, &oracle::matmul(&a, 2, inner, &b, n), "matmul")?;
        prop_assert!(got.row(0).iter().all(|v| v.is_finite()), "matmul row 0: {:?}", got.row(0));

        // transpose_matmul: Aᵀ·G with A = am (2 × inner)ᵀ-shaped input.
        let at = am.transpose();
        let g = Matrix::from_vec(inner, n, b.clone());
        let got_t = at.transpose_matmul(&g);
        let want_t = oracle::transpose_matmul(at.as_slice(), inner, 2, &b, n);
        assert_bits(&got_t, &want_t, "transpose_matmul")?;
        prop_assert!(got_t.row(0).iter().all(|v| v.is_finite()), "transpose_matmul row 0");

        // spmm: an edge to the bad source row adds it, in both
        // orientations.
        let k = k as u32;
        let edges = [(0, k), (0, (k + 1) % inner as u32), (1, k)];
        let s = SparseMatrix::from_edges(2, inner, &edges);
        let got_s = s.matmul_dense(&bm);
        assert_bits(&got_s, &oracle::spmm(&edges, 2, &b, n, false), "spmm")?;
        prop_assert!(got_s.row(0).iter().all(|v| !v.is_finite()), "spmm row 0 must be non-finite");
        let flipped = edges.map(|(r, c)| (c, r));
        let st = SparseMatrix::from_edges(inner, 2, &flipped);
        let got_st = st.transpose_matmul_dense(&bm);
        let want_st = oracle::spmm(&flipped, 2, &b, n, true);
        assert_bits(&got_st, &want_st, "spmm transpose")?;
    }
}

proptest! {
    /// `Tape::pair_dots` matches the gather + row-dot composition
    /// bitwise: its values, and the gradient it leaves in `z` with and
    /// without one already there. Random shapes, repeated pairs,
    /// `u == v` pairs and rows no pair touches, at 1 and 2 threads.
    #[test]
    fn pair_dots_match_the_gather_composition_bitwise(
        n in 1usize..12,
        spare in 0usize..3,
        width in 0usize..WIDTHS.len(),
        raw in prop::collection::vec((0usize..12, 0usize..12, any::<bool>()), 1..40),
        seed in any::<u64>(),
        prior in any::<bool>(),
    ) {
        let d = WIDTHS[width];
        // Rows `n..n + spare` are in no pair.
        let rows = n + spare;
        let pairs: Vec<(usize, usize)> = raw
            .iter()
            .map(|&(u, v, same)| (u % n, if same { u % n } else { v % n }))
            .collect();
        let z = Matrix::from_vec(rows, d, lcg_fill(rows * d, seed, 0));
        let g = lcg_fill(pairs.len(), seed ^ 0xD07, 0);
        let want = oracle::pair_dots(z.as_slice(), d, &pairs);
        let before = prior.then(|| vec![0.5; rows * d]);
        let want_grad = oracle::pair_dots_grad(z.as_slice(), rows, d, &pairs, &g, before);
        for threads in [1, 2] {
            ancstr_par::set_threads(threads);
            let mut t = Tape::new();
            let zn = t.leaf(z.clone());
            let dots = t.pair_dots(zn, &pairs);
            // d(Σ dots ⊙ w)/d dots = w exactly.
            let w = t.leaf(Matrix::from_vec(pairs.len(), 1, g.clone()));
            let weighted = t.mul_elem(dots, w);
            let mut loss = t.sum(weighted);
            if prior {
                // Recorded later, so swept first: `z` holds 0.5s when
                // the pair dots reach it.
                let half = t.scale(zn, 0.5);
                let s = t.sum(half);
                loss = t.add(loss, s);
            }
            assert_bits(t.value(dots), &want, "pair_dots")?;
            let grads = t.backward(loss);
            assert_bits(grads.grad(zn).unwrap(), &want_grad, "pair_dots gradient")?;
        }
        ancstr_par::set_threads(0);
    }

    /// `transpose_matmul` at the model's width, the register-resident
    /// row path, matches the oracle bitwise with zeros in A next to
    /// ±inf and NaN in G.
    #[test]
    fn narrow_transpose_matmul_matches_oracle_with_non_finite_gradients(
        rows in 1usize..40,
        p in 1usize..24,
        seed in any::<u64>(),
        zero_every in 2usize..6,
        bad in prop::collection::vec((any::<usize>(), 0usize..3), 0..6),
    ) {
        let q = 18;
        let a = lcg_fill(rows * p, seed, zero_every);
        let mut g = lcg_fill(rows * q, seed ^ 0x51ED, 0);
        for &(at, kind) in &bad {
            let len = g.len();
            g[at % len] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][kind];
        }
        let am = Matrix::from_vec(rows, p, a.clone());
        let got = am.transpose_matmul(&Matrix::from_vec(rows, q, g.clone()));
        assert_bits(&got, &oracle::transpose_matmul(&a, rows, p, &g, q), "transpose_matmul at q = 18")?;
    }
}

/// A GRU cell with every parameter from the seeded fill: weights with
/// zeros every `zero_every` elements, biases in [-2, 2). `bad` plants
/// `[+inf, -inf, NaN][kind]` into row `kx` of `Wz`, `Wr`, `Wh` and row
/// `kh` of `Uz`, `Ur`, `Uh`.
fn gru_cell(input: usize, d: usize, seed: u64, bad: Option<(usize, usize, usize)>) -> GruCell {
    let mut cell = GruCell::new(input, d, &mut rand::rngs::StdRng::seed_from_u64(seed));
    for (k, m) in cell.matrices_mut().iter_mut().enumerate() {
        let (rows, cols) = m.shape();
        *m = Matrix::from_vec(rows, cols, lcg_fill(rows * cols, seed ^ (k as u64 * 0x9E37), 5));
        if let Some((kx, kh, kind)) = bad {
            let v = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][kind];
            match k {
                0..=2 => m.row_mut(kx).fill(v),
                3..=5 => m.row_mut(kh).fill(v),
                _ => {}
            }
        }
    }
    cell
}

/// What one recording of a GRU step gives: the next state, the nine
/// parameter gradients, and the gradients of the message and (when it
/// is a leaf) the state.
struct StepRun {
    value: Matrix,
    params: Vec<Matrix>,
    dx: Matrix,
    dh: Option<Matrix>,
}

/// Record `step` on a fresh tape over leaf parameters and message, and a
/// state bound as a leaf or (`h_const`) a constant. The loss is
/// `Σ h′ ⊙ w`, so the step's upstream gradient is exactly `w`. With
/// `prior`, `x` and `h` also feed `Σ 0.5·x + Σ 0.5·h`, recorded after
/// the step and so swept before it: their slots hold gradients already
/// when the step's backward adds into them.
fn run_step(
    cell: &GruCell,
    x: &Matrix,
    h: &Matrix,
    w: &Matrix,
    (h_const, prior): (bool, bool),
    step: fn(&mut Tape, &[NodeId; 9], NodeId, NodeId) -> NodeId,
) -> StepRun {
    let mut t = Tape::new();
    let p: [NodeId; 9] = std::array::from_fn(|k| t.leaf(cell.matrices()[k].clone()));
    let xn = t.leaf(x.clone());
    let hn = if h_const { t.input(h) } else { t.leaf(h.clone()) };
    let wn = t.input(w);
    let next = step(&mut t, &p, xn, hn);
    let weighted = t.mul_elem(next, wn);
    let mut loss = t.sum(weighted);
    if prior {
        for id in [xn, hn] {
            let half = t.scale(id, 0.5);
            let s = t.sum(half);
            loss = t.add(loss, s);
        }
    }
    let grads = t.backward(loss);
    StepRun {
        value: t.value(next).clone(),
        params: p.iter().map(|&id| grads.grad(id).expect("every parameter reaches h′").clone()).collect(),
        dx: grads.grad(xn).expect("x reaches h′").clone(),
        dh: grads.grad(hn).cloned(),
    }
}

fn fused(t: &mut Tape, p: &[NodeId; 9], x: NodeId, h: NodeId) -> NodeId {
    t.gru_step(p, x, h)
}

/// The fused step on a tape and on the eager evaluator against the
/// op-by-op composition: value, nine parameter gradients, `dx`, `dh`.
fn check_step(
    cell: &GruCell,
    x: &Matrix,
    h: &Matrix,
    w: &Matrix,
    flags: (bool, bool),
) -> Result<Matrix, TestCaseError> {
    let want = run_step(cell, x, h, w, flags, oracle::gru_step);
    for threads in [1, 2] {
        ancstr_par::set_threads(threads);
        let got = run_step(cell, x, h, w, flags, fused);
        assert_bits(&got.value, want.value.as_slice(), "tape value")?;
        for (k, (g, wg)) in got.params.iter().zip(&want.params).enumerate() {
            assert_bits(g, wg.as_slice(), &format!("parameter {k} gradient"))?;
        }
        assert_bits(&got.dx, want.dx.as_slice(), "dx")?;
        prop_assert_eq!(got.dh.is_some(), want.dh.is_some());
        if let (Some(g), Some(wg)) = (&got.dh, &want.dh) {
            assert_bits(g, wg.as_slice(), "dh")?;
        }
        let mut eager = Eager;
        let leaves = cell.leaves(&mut eager);
        // The in-place path when the widths agree.
        let (xv, hv) = (eager.input(x), eager.input(h));
        let value = eager.gru_step(&leaves, xv, hv);
        assert_bits(&value.into_matrix(), want.value.as_slice(), "eager value")?;
    }
    ancstr_par::set_threads(0);
    Ok(want.value)
}

/// Row counts on both sides of the row-parallel split (which needs
/// 2048 rows at least).
const STEP_ROWS: [usize; 4] = [1, 7, 40, 2100];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `gru_step` reproduces the op-by-op gate composition bit for bit
    /// on both evaluators, at the model's width `D = 18` (the narrow
    /// path, and the generic path when the message is 19 wide) and at
    /// D ∈ 2..8: its value, all nine parameter gradients, `dx` and `dh`,
    /// with and without gradients already in the `dx`/`dh` slots, with
    /// the state a leaf or a constant, at 1 and 2 threads. Zeros in the
    /// upstream gradient skip their products; with `bad`, a zero column
    /// of x and of h (so of `r ⊙ h`) sits next to ±inf/NaN weight rows,
    /// and the zero skip keeps every value finite.
    #[test]
    fn gru_step_matches_the_op_by_op_composition_bitwise(
        wide in any::<bool>(),
        small_d in 2usize..8,
        extra_input in 0usize..2,
        rows in 0usize..STEP_ROWS.len(),
        seed in any::<u64>(),
        zero_every in 2usize..7,
        flags in (any::<bool>(), any::<bool>()),
        bad in (any::<bool>(), any::<usize>(), any::<usize>(), 0usize..3),
    ) {
        let d = if wide { 18 } else { small_d };
        let (n, input) = (STEP_ROWS[rows], d + extra_input);
        let bad = bad.0.then_some((bad.1 % input, bad.2 % d, bad.3));
        let cell = gru_cell(input, d, seed, bad);
        let mut x = Matrix::from_vec(n, input, lcg_fill(n * input, seed ^ 0x11, zero_every));
        let mut h = Matrix::from_vec(n, d, lcg_fill(n * d, seed ^ 0x22, zero_every + 1));
        let w = Matrix::from_vec(n, d, lcg_fill(n * d, seed ^ 0x33, zero_every));
        if let Some((kx, kh, _)) = bad {
            for r in 0..n {
                x[(r, kx)] = 0.0;
                h[(r, kh)] = if r % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        let value = check_step(&cell, &x, &h, &w, flags)?;
        if bad.is_some() {
            prop_assert!(value.is_finite(), "a zero operand multiplied a non-finite weight");
        }
    }

    /// A NaN in one row of the message or the state stays in that row:
    /// every other row of h′, `dx` and `dh` is finite, on both
    /// evaluators, and every bit still matches the composition.
    #[test]
    fn gru_step_keeps_a_nan_row_in_its_row(
        wide in any::<bool>(),
        rows in 1usize..STEP_ROWS.len(),
        at in any::<usize>(),
        in_state in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (n, d) = (STEP_ROWS[rows], if wide { 18 } else { 5 });
        let bad_row = at % n;
        let cell = gru_cell(d, d, seed, None);
        let mut x = Matrix::from_vec(n, d, lcg_fill(n * d, seed ^ 0x44, 4));
        let mut h = Matrix::from_vec(n, d, lcg_fill(n * d, seed ^ 0x55, 0));
        let w = Matrix::from_vec(n, d, lcg_fill(n * d, seed ^ 0x66, 0));
        if in_state { h[(bad_row, 1)] = f64::NAN } else { x[(bad_row, 0)] = f64::NAN }
        let value = check_step(&cell, &x, &h, &w, (false, false))?;
        let run = run_step(&cell, &x, &h, &w, (false, false), fused);
        for r in 0..n {
            let finite = |m: &Matrix| m.row(r).iter().all(|v| v.is_finite());
            prop_assert_eq!(finite(&value), r != bad_row, "h′ row {}", r);
            prop_assert_eq!(finite(&run.dx), r != bad_row, "dx row {}", r);
            prop_assert_eq!(finite(run.dh.as_ref().unwrap()), r != bad_row, "dh row {}", r);
        }
    }

    /// `spmm_add` equals `spmm` then `add` bit for bit on both
    /// evaluators, value and gradients: random operators with duplicate
    /// edges, or none at all, over accumulators that
    /// hold −0.0 (so a row the operator leaves empty must still add
    /// `+0.0`), on both sides of the row-parallel split.
    #[test]
    fn spmm_add_matches_spmm_then_add_bitwise(
        width in 0usize..WIDTHS.len(),
        big in any::<bool>(),
        raw in prop::collection::vec((any::<u32>(), any::<u32>()), 0..60),
        seed in any::<u64>(),
    ) {
        let (cols, n) = (WIDTHS[width], if big { 2100 } else { 9 });
        let edges: Vec<(u32, u32)> =
            raw.into_iter().map(|(r, c)| (r % n as u32, c % n as u32)).collect();
        let s = Arc::new(SparseMatrix::from_edges(n, n, &edges));
        let b = Matrix::from_vec(n, cols, lcg_fill(n * cols, seed, 0));
        let acc = Matrix::from_fn(n, cols, |r, c| if (r + c) % 3 == 0 { -0.0 } else { (r * cols + c) as f64 * 0.01 });
        let want = acc.add(&s.matmul_dense(&b));
        for threads in [1, 2] {
            ancstr_par::set_threads(threads);
            let mut eager = Eager;
            let sp = eager.operator(&s);
            let (bv, accv) = (eager.input(&b), eager.input(&acc));
            let got = eager.spmm_add(sp, bv, accv);
            assert_bits(&got.into_matrix(), want.as_slice(), "eager spmm_add")?;
            // Tape: the fused node against spmm + add, gradients included.
            let run = |fused: bool| {
                let mut t = Tape::new();
                let sid = t.sparse(Arc::clone(&s));
                let (bn, an) = (t.leaf(b.clone()), t.leaf(acc.clone()));
                let out = if fused {
                    t.spmm_add(sid, bn, an)
                } else {
                    let m = t.spmm(sid, bn);
                    t.add(an, m)
                };
                let wn = t.input(&b);
                let weighted = t.mul_elem(out, wn);
                let loss = t.sum(weighted);
                let grads = t.backward(loss);
                let grad = |id| grads.grad(id).cloned().unwrap_or_else(|| Matrix::zeros(0, 0));
                (t.value(out).clone(), grad(bn), grad(an))
            };
            let (got, want_t) = (run(true), run(false));
            assert_bits(&got.0, want.as_slice(), "tape spmm_add")?;
            assert_bits(&got.1, want_t.1.as_slice(), "spmm_add db")?;
            assert_bits(&got.2, want_t.2.as_slice(), "spmm_add dacc")?;
        }
        ancstr_par::set_threads(0);
    }
}

/// An operator with no entries adds `+0.0`: `−0.0 + 0.0 = +0.0`, as a
/// separate spmm and add give it.
#[test]
fn empty_operator_adds_positive_zero() {
    let s = Arc::new(SparseMatrix::from_edges(2, 2, &[]));
    let acc = Matrix::filled(2, 18, -0.0);
    let b = Matrix::filled(2, 18, 1.0);
    let want = acc.add(&s.matmul_dense(&b));
    assert!(want.as_slice().iter().all(|v| v.to_bits() == 0), "−0.0 + 0.0 is +0.0");
    let mut eager = Eager;
    let sp = eager.operator(&s);
    let (bv, accv) = (eager.input(&b), eager.input(&acc));
    let got = eager.spmm_add(sp, bv, accv).into_matrix();
    assert_eq!(got.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(), vec![0; 36]);
}

/// Two layers of Eq. 1 over either evaluator: per layer, the state
/// times two weights, each product through its operator (the second
/// summed into the first), then a GRU step.
fn two_layers<'a, F: Forward<'a>>(
    f: &mut F,
    x: &'a Matrix,
    ops: &'a [Arc<SparseMatrix>; 2],
    weights: &'a [Matrix; 4],
    cells: &'a [GruCell; 2],
) -> F::Value {
    let ops = [f.operator(&ops[0]), f.operator(&ops[1])];
    let mut h = f.input(x);
    for (layer, cell) in cells.iter().enumerate() {
        let leaves = cell.leaves(f);
        let (w0, w1) = (f.param(&weights[2 * layer]), f.param(&weights[2 * layer + 1]));
        let term = f.matmul(&h, w0);
        let message = f.spmm(ops[0], term);
        let term = f.matmul(&h, w1);
        let message = f.spmm_add(ops[1], term, message);
        h = f.gru_step(&leaves, message, h);
    }
    h
}

/// Row counts for the shared-row pass: none, one, and both sides of the
/// row-parallel split.
const SHARED_ROWS: [usize; 5] = [0, 1, 7, 40, 2100];

/// `n × d` features of one row pattern: 0 repeats of a few distinct
/// rows, 1 the same with `−0.0` in place of `+0.0` in every other row,
/// 2 repeats with NaN rows of two payloads, 3 one row everywhere, 4
/// every row distinct.
fn patterned_rows(n: usize, d: usize, pattern: usize, seed: u64) -> Matrix {
    let pool = Matrix::from_vec(4, d, lcg_fill(4 * d, seed, 3));
    let quiet = f64::from_bits(f64::NAN.to_bits() | 1);
    Matrix::from_fn(n, d, |r, c| {
        let pick = (r * 7 + (seed as usize) % 5) % 3;
        match pattern {
            0 => pool[(pick, c)],
            1 => {
                let v = pool[(pick, c)];
                if v == 0.0 && r % 2 == 1 { -0.0 } else { v }
            }
            2 if r % 5 == 1 && c == 0 => if r % 10 == 1 { f64::NAN } else { quiet },
            2 => pool[(pick, c)],
            3 => pool[(0, c)],
            _ => lcg_fill(1, seed ^ (r * d + c) as u64, 0)[0],
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The eager pass computes each op once per distinct row and still
    /// gives the tape's value bit for bit, at 1 and 2 threads: two
    /// layers of `matmul → spmm / spmm_add → gru_step` over features
    /// with repeated rows, rows apart only in the sign of a zero, NaN
    /// rows, one row everywhere, or every row distinct, at the model's
    /// width and at a generic one.
    #[test]
    fn shared_rows_give_the_tape_bits(
        rows in 0usize..SHARED_ROWS.len(),
        pattern in 0usize..5,
        wide in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (n, d) = (SHARED_ROWS[rows], if wide { 18 } else { 5 });
        let x = patterned_rows(n, d, pattern, seed);
        let op = |salt: u64| {
            let raw = lcg_fill(3 * n, seed ^ salt, 4);
            let edges: Vec<(u32, u32)> = (0..3 * n)
                .map(|k| ((k * 5 + 1) % n, (k * 11 + (raw[k].to_bits() as usize)) % n))
                .map(|(r, c)| (r as u32, c as u32))
                .collect();
            Arc::new(SparseMatrix::from_edges(n, n, &edges))
        };
        let ops = [op(0xA1), op(0xB2)];
        let weights: [Matrix; 4] = std::array::from_fn(|k| {
            Matrix::from_vec(d, d, lcg_fill(d * d, seed ^ ((k as u64 + 1) * 0x77), 4))
        });
        let cells = [gru_cell(d, d, seed ^ 0x5, None), gru_cell(d, d, seed ^ 0x6, None)];
        let mut tape = Tape::new();
        let recorded = two_layers(&mut tape, &x, &ops, &weights, &cells);
        let want: Vec<u64> = tape.value(recorded).as_slice().iter().map(|v| v.to_bits()).collect();
        for threads in [1, 2] {
            ancstr_par::set_threads(threads);
            let eager = two_layers(&mut Eager, &x, &ops, &weights, &cells);
            prop_assert!(eager.distinct_rows() <= n);
            let got = eager.into_matrix();
            prop_assert_eq!(got.shape(), (n, d));
            let got: Vec<u64> = got.as_slice().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&got, &want, "eager diverged from the tape at {} threads", threads);
        }
        ancstr_par::set_threads(0);
    }
}
