//! Test-only oracles for the kernels in `kernel.rs`: the plain loops and
//! op-by-op compositions each kernel must reproduce bit for bit.
//!
//! Compiled only into tests — as `crate::oracle` for this crate's unit
//! tests and, through a `#[path]` module, into `tests/proptests.rs`.
//! The scalar loops depend on nothing but `std` and work on raw
//! row-major slices. The GRU composition records on the crate's own
//! [`Tape`] ops, which it imports through `super`: the crate root here,
//! the test crate's root (which imports them from `ancstr_nn`) there.

use super::{NodeId, Tape};

/// `a · b` by the naive ijk loop, skipping `a[i][k] == 0.0`: `a` is
/// `m × inner`, `b` is `inner × n`.
pub fn matmul(a: &[f64], m: usize, inner: usize, b: &[f64], n: usize) -> Vec<f64> {
    let mut out = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            for k in 0..inner {
                let av = a[i * inner + k];
                if av == 0.0 {
                    continue;
                }
                out[i * n + j] += av * b[k * n + j];
            }
        }
    }
    out
}

/// `aᵀ · g` by materialising `aᵀ` and calling [`matmul`]: `a` is
/// `rows × p`, `g` is `rows × q`.
pub fn transpose_matmul(a: &[f64], rows: usize, p: usize, g: &[f64], q: usize) -> Vec<f64> {
    let mut at = vec![0.0; p * rows];
    for r in 0..rows {
        for c in 0..p {
            at[c * rows + r] = a[r * p + c];
        }
    }
    matmul(&at, p, rows, g, q)
}

/// A sparse product by walking `(row, col)` edges in storage order,
/// each adding its source row: `S · dense` (`out_rows = rows of S`), or
/// `Sᵀ · dense` when `transpose` is set (`out_rows = cols of S`).
pub fn spmm(
    edges: &[(u32, u32)],
    out_rows: usize,
    dense: &[f64],
    cols: usize,
    transpose: bool,
) -> Vec<f64> {
    let mut out = vec![0.0; out_rows * cols];
    for &(r, c) in edges {
        let (dst, src) = if transpose { (c, r) } else { (r, c) };
        let (dst, src) = (dst as usize, src as usize);
        for j in 0..cols {
            out[dst * cols + j] += dense[src * cols + j];
        }
    }
    out
}

/// One side of a pair: its `u` or its `v`.
type Side = fn(&(usize, usize)) -> usize;
const U: Side = |p| p.0;
const V: Side = |p| p.1;

/// Row `side(pair)` of `z` (`_ × d`) for every pair, stacked.
fn gather(z: &[f64], d: usize, pairs: &[(usize, usize)], side: Side) -> Vec<f64> {
    pairs.iter().flat_map(|p| z[side(p) * d..(side(p) + 1) * d].iter().copied()).collect()
}

/// Eq. 2's pair dots by gathering the `u` rows and the `v` rows of `z`
/// (`_ × d`) and taking row-wise dots.
pub fn pair_dots(z: &[f64], d: usize, pairs: &[(usize, usize)]) -> Vec<f64> {
    let (zu, zv) = (gather(z, d, pairs, U), gather(z, d, pairs, V));
    (0..pairs.len())
        .map(|r| -> f64 {
            let (a, b) = (&zu[r * d..(r + 1) * d], &zv[r * d..(r + 1) * d]);
            a.iter().zip(b).map(|(x, y)| x * y).sum()
        })
        .collect()
}

/// The gradient `z` (`n × d`) holds after a reverse sweep passes `g`
/// (one value per pair) back through [`pair_dots`]'s composition, when
/// it held `dz` before (`None`: no gradient yet). The row-wise dot
/// gives the `u` gather `g[r]·z[v]` and the `v` gather `g[r]·z[u]`;
/// each gather scatters its rows into zeros in pair order; the sweep
/// reaches the `v` gather first.
pub fn pair_dots_grad(
    z: &[f64],
    n: usize,
    d: usize,
    pairs: &[(usize, usize)],
    g: &[f64],
    dz: Option<Vec<f64>>,
) -> Vec<f64> {
    let (zu, zv) = (gather(z, d, pairs, U), gather(z, d, pairs, V));
    let times_g = |rows: &[f64]| -> Vec<f64> {
        (0..rows.len()).map(|k| g[k / d] * rows[k]).collect()
    };
    let scatter = |rows: &[f64], side: Side| -> Vec<f64> {
        let mut out = vec![0.0; n * d];
        for (r, p) in pairs.iter().enumerate() {
            for j in 0..d {
                out[side(p) * d + j] += rows[r * d + j];
            }
        }
        out
    };
    let dv = scatter(&times_g(&zu), V);
    let du = scatter(&times_g(&zv), U);
    let add = |mut acc: Vec<f64>, delta: &[f64]| {
        for (a, &x) in acc.iter_mut().zip(delta) {
            *a += x;
        }
        acc
    };
    let dz = match dz {
        Some(dz) => add(dz, &dv),
        None => dv,
    };
    add(dz, &du)
}

/// Bitwise equality, except that any NaN matches any NaN: IEEE-754
/// leaves the payload of a NaN produced from two NaN operands to the
/// operand order, which the compiler may commute.
pub fn same_bits(x: f64, y: f64) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

/// Eq. 1's GRU step as the op-by-op composition the fused gate kernel
/// replaces, recorded on `t` node by node from the parameter nodes
/// `p = [Wz, Wr, Wh, Uz, Ur, Uh, bz, br, bh]`, message `x` and state `h`:
/// per gate two matmuls, an add and a bias add, then the sigmoids, the
/// reset product `r ⊙ h`, the candidate's tanh and the blend
/// `h + z ⊙ (h̃ − h)`. The tape's reverse sweep over these nodes gives
/// the gradients the fused op must reproduce, in the same order.
pub fn gru_step(t: &mut Tape, p: &[NodeId; 9], x: NodeId, h: NodeId) -> NodeId {
    let [wz, wr, wh, uz, ur, uh, bz, br, bh] = *p;
    let gate = |t: &mut Tape, w, u, b, state| {
        let xw = t.matmul(x, w);
        let hu = t.matmul(state, u);
        let s = t.add(xw, hu);
        t.add_row(s, b)
    };
    let z_pre = gate(t, wz, uz, bz, h);
    let z = t.sigmoid(z_pre);
    let r_pre = gate(t, wr, ur, br, h);
    let r = t.sigmoid(r_pre);
    let rh = t.mul_elem(r, h);
    let cand_pre = gate(t, wh, uh, bh, rh);
    let cand = t.tanh(cand_pre);
    let delta = t.sub(cand, h);
    let zd = t.mul_elem(z, delta);
    t.add(h, zd)
}
