//! Property tests for the NN substrate: linear-algebra identities,
//! autograd linearity, eigen-solver invariants, and bitwise agreement
//! of every kernel path with its scalar oracle.

use ancstr_nn::linalg::{normalized_laplacian, symmetric_eigenvalues};
use ancstr_nn::{cosine_similarity, Matrix, SparseMatrix, Tape};
use proptest::prelude::*;

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
        triplets in prop::collection::vec((0usize..4, 0usize..4, -2.0f64..2.0), 0..12),
        x in arb_matrix(4, 3),
    ) {
        let s = SparseMatrix::from_triplets(4, 4, triplets);
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
    /// triplet walk bitwise, cold (building the cached view) and warm
    /// (reusing it), with unsorted rows, duplicates and exact-zero
    /// weights.
    #[test]
    fn csr_spmm_matches_triplet_reference_bitwise(
        raw in prop::collection::vec((0usize..7, 0usize..5, -2.0f64..2.0, 0u8..4), 0..60),
        width in 0usize..WIDTHS.len(),
        seed in any::<u64>(),
    ) {
        let cols = WIDTHS[width];
        // A quarter of the weights are exact zeros: spmm never skips.
        let triplets: Vec<(usize, usize, f64)> = raw
            .into_iter()
            .map(|(r, c, w, z)| (r, c, if z == 0 { 0.0 } else { w }))
            .collect();
        let s = SparseMatrix::from_triplets(7, 5, triplets.clone());
        let x = Matrix::from_vec(5, cols, lcg_fill(5 * cols, seed, 0));
        let y = Matrix::from_vec(7, cols, lcg_fill(7 * cols, seed ^ 0xC0DE, 0));
        let want = oracle::spmm(&triplets, 7, x.as_slice(), cols, false);
        let want_t = oracle::spmm(&triplets, 5, y.as_slice(), cols, true);
        for _pass in 0..2 {
            assert_bits(&s.matmul_dense(&x), &want, "spmm")?;
            assert_bits(&s.transpose_matmul_dense(&y), &want_t, "spmm transpose")?;
        }
    }

    /// A zero LHS element next to an inf/NaN RHS row: the dense paths
    /// skip it (the output stays finite), spmm multiplies through it
    /// (the output is NaN) — and every path agrees with its oracle.
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

        // spmm: a zero weight on the bad source row is multiplied, not
        // skipped, in both orientations.
        let triplets = vec![(0, k, 0.0), (0, (k + 1) % inner, 1.5), (1, k, 2.0)];
        let s = SparseMatrix::from_triplets(2, inner, triplets.clone());
        let got_s = s.matmul_dense(&bm);
        assert_bits(&got_s, &oracle::spmm(&triplets, 2, &b, n, false), "spmm")?;
        prop_assert!(got_s.row(0).iter().all(|v| v.is_nan()), "spmm row 0 must be NaN");
        let st = SparseMatrix::from_triplets(
            inner,
            2,
            triplets.iter().map(|&(r, c, v)| (c, r, v)).collect(),
        );
        let got_st = st.transpose_matmul_dense(&bm);
        let want_st = oracle::spmm(st.triplets(), 2, &b, n, true);
        assert_bits(&got_st, &want_st, "spmm transpose")?;
    }
}
