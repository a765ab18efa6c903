//! Matrices held as their distinct rows: the values of the
//! [`Eager`](crate::Eager) evaluator.
//!
//! Eq. 1 builds each output row from that row's own inputs and the
//! shared weights alone, so two rows whose inputs agree bit for bit
//! get the same output bits. Matched devices in repeated structures see
//! the same neighbourhood, so most rows of a circuit's activations are
//! repeats. A [`ClassedRows`] keeps one copy of each distinct row (its
//! table) and, per vertex, the index of its row in the table (its
//! class). A dense product then multiplies only the table, a sparse
//! product reads each source vertex's row through its class, and a GRU
//! step runs once per distinct (message, state) key.
//!
//! Classes are numbered by first occurrence and keys compare exact bit
//! patterns, so `−0.0` and `+0.0` stay apart, as do different NaN
//! payloads: two rows share a class only when every input bit agrees.
//! Numbering is one sequential pass, so it does not depend on the
//! thread count.

use std::sync::Arc;

use crate::matrix::Matrix;

/// An `n × d` matrix held as a table of its `u ≤ n` distinct rows and,
/// for each of the `n` rows, the table row it equals.
///
/// A value without classes holds one table row per vertex (`u = n`):
/// an Eq. 1 message, which is summed per vertex.
///
/// # Example
///
/// ```
/// use ancstr_nn::{ClassedRows, Matrix};
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[1.0, 2.0]]);
/// let c = ClassedRows::classify(&m);
/// assert_eq!((c.rows(), c.distinct_rows()), (3, 2));
/// assert_eq!(c.into_matrix(), m);
/// ```
#[derive(Debug, Clone)]
pub struct ClassedRows {
    table: Matrix,
    /// Row `v`'s table row; `None` when it is table row `v`.
    class: Option<Arc<[u32]>>,
}

impl ClassedRows {
    /// Class the rows of `m` by exact bit pattern, in one hash pass.
    pub fn classify(m: &Matrix) -> ClassedRows {
        let (class, first) = classify(
            m.rows(),
            |v| row_hash(m.row(v)),
            |v, w| same_bits(m.row(v), m.row(w)),
        );
        ClassedRows::new(gather_rows(m, first.into_iter()), Some(class))
    }

    /// A value from its table and its rows' classes (`None`: one table
    /// row per vertex).
    pub(crate) fn new(table: Matrix, class: Option<Vec<u32>>) -> ClassedRows {
        ClassedRows {
            table,
            class: class.map(Arc::from),
        }
    }

    /// The number of rows `n`.
    pub fn rows(&self) -> usize {
        self.class.as_ref().map_or(self.table.rows(), |c| c.len())
    }

    /// The row width `d`.
    pub fn cols(&self) -> usize {
        self.table.cols()
    }

    /// The number of table rows `u`: the rows the op that made this
    /// value computed.
    pub fn distinct_rows(&self) -> usize {
        self.table.rows()
    }

    /// The table of distinct rows.
    pub(crate) fn table(&self) -> &Matrix {
        &self.table
    }

    /// Each row's table row (`None`: row `v` is table row `v`).
    pub(crate) fn class(&self) -> Option<&[u32]> {
        self.class.as_deref()
    }

    /// The same classes over a new table: an op applied to every table
    /// row, such as `H · W`.
    pub(crate) fn map_table(&self, f: impl FnOnce(&Matrix) -> Matrix) -> ClassedRows {
        ClassedRows {
            table: f(&self.table),
            class: self.class.clone(),
        }
    }

    /// Apply `f` to the table in place, keeping the classes.
    pub(crate) fn update_table(mut self, f: impl FnOnce(&mut Matrix)) -> ClassedRows {
        f(&mut self.table);
        self
    }

    /// The `n × d` matrix, one row per vertex.
    pub fn into_matrix(self) -> Matrix {
        match self.class {
            None => self.table,
            Some(c) => gather_rows(&self.table, c.iter().map(|&c| c as usize)),
        }
    }

    /// The same value with one table row per vertex.
    pub(crate) fn expanded(self) -> ClassedRows {
        ClassedRows::new(self.into_matrix(), None)
    }

    /// The table row vertex `v` reads.
    #[inline]
    pub(crate) fn slot(&self, v: usize) -> usize {
        self.class.as_ref().map_or(v, |c| c[v] as usize)
    }

    /// A hash of row `v`'s key: its class, or its bits when the value
    /// has no classes.
    #[inline]
    pub(crate) fn key_hash(&self, v: usize) -> u64 {
        match &self.class {
            Some(c) => mix(SEED, u64::from(c[v])),
            None => row_hash(self.table.row(v)),
        }
    }

    /// Whether rows `v` and `w` have the same key: the same class, or
    /// the same bits when the value has no classes.
    #[inline]
    pub(crate) fn same_key(&self, v: usize, w: usize) -> bool {
        match &self.class {
            Some(c) => c[v] == c[w],
            None => same_bits(self.table.row(v), self.table.row(w)),
        }
    }

    /// Rows `rows` of the `n × d` matrix as a new matrix; the table
    /// itself when that is every row in order.
    pub(crate) fn gather(self, rows: &[usize]) -> Matrix {
        if self.class.is_none() && rows.len() == self.table.rows() {
            // Rows numbered by first occurrence: `u = n` means 0..n.
            debug_assert!(rows.iter().enumerate().all(|(k, &v)| k == v));
            return self.table;
        }
        gather_rows(&self.table, rows.iter().map(|&v| self.slot(v)))
    }
}

/// The rows of `m` that `rows` names, in that order.
fn gather_rows(m: &Matrix, rows: impl ExactSizeIterator<Item = usize>) -> Matrix {
    let (n, d) = (rows.len(), m.cols());
    let mut data = Vec::with_capacity(n * d);
    for r in rows {
        data.extend_from_slice(m.row(r));
    }
    Matrix::from_vec(n, d, data)
}

/// Whether two rows hold the same bits.
#[inline]
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A hash of a row's bits.
#[inline]
fn row_hash(row: &[f64]) -> u64 {
    row.iter().fold(SEED, |h, x| mix(h, x.to_bits()))
}

/// The hasher's start state.
const SEED: u64 = 0x243f_6a88_85a3_08d3;

/// One multiply-rotate hash step over a 64-bit word (the Fx hash).
#[inline]
pub(crate) fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// Number `n` keys by first occurrence. `hash(v)` hashes key `v`, and
/// `same(v, w)` says whether keys `v` and `w` are equal; it is asked
/// only about keys of equal hash. Returns each key's class and each
/// class's first key.
///
/// # Panics
///
/// Panics if `n` does not fit in a `u32`.
pub(crate) fn classify(
    n: usize,
    hash: impl Fn(usize) -> u64,
    same: impl Fn(usize, usize) -> bool,
) -> (Vec<u32>, Vec<usize>) {
    assert!(u32::try_from(n).is_ok(), "row count fits in u32");
    const EMPTY: u32 = u32::MAX;
    let mut class = Vec::with_capacity(n);
    let (mut first, mut hashes) = (Vec::new(), Vec::new());
    // Open addressing with linear probing, indexed by the hash's top
    // bits (a multiplicative hash mixes into those), at most half full.
    let mut bits = 4u32;
    let mut slots = vec![EMPTY; 1 << bits];
    for v in 0..n {
        let h = hash(v);
        let mask = slots.len() - 1;
        let mut i = (h >> (64 - bits)) as usize;
        let id = loop {
            match slots[i] {
                EMPTY => {
                    let id = first.len() as u32;
                    slots[i] = id;
                    first.push(v);
                    hashes.push(h);
                    break id;
                }
                c if hashes[c as usize] == h && same(first[c as usize], v) => break c,
                _ => i = (i + 1) & mask,
            }
        };
        class.push(id);
        if 2 * first.len() > slots.len() {
            bits += 1;
            slots = vec![EMPTY; 1 << bits];
            let mask = slots.len() - 1;
            for (c, &h) in hashes.iter().enumerate() {
                let mut i = (h >> (64 - bits)) as usize;
                while slots[i] != EMPTY {
                    i = (i + 1) & mask;
                }
                slots[i] = c as u32;
            }
        }
    }
    (class, first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_number_rows_by_first_occurrence_and_exact_bits() {
        let m = Matrix::from_rows(&[
            &[1.0, 0.0],
            &[2.0, f64::NAN],
            &[1.0, -0.0],
            &[1.0, 0.0],
            &[2.0, f64::NAN],
            &[2.0, -f64::NAN],
        ]);
        let c = ClassedRows::classify(&m);
        assert_eq!(c.class().unwrap(), &[0, 1, 2, 0, 1, 3]);
        assert_eq!(c.distinct_rows(), 4);
        let back = c.into_matrix();
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&m));
    }

    #[test]
    fn the_table_grows_past_its_first_size() {
        // Every row distinct, then every row again: 3,000 classes force
        // several rehashes, and the repeats find their classes after.
        let m = Matrix::from_fn(6000, 3, |r, c| ((r % 3000) * 3 + c) as f64);
        let c = ClassedRows::classify(&m);
        let want: Vec<u32> = (0..6000).map(|r| (r % 3000) as u32).collect();
        assert_eq!(c.class().unwrap(), want.as_slice());
        assert_eq!(c.into_matrix(), m);
    }

    #[test]
    fn empty_and_zero_width_matrices_classify() {
        let c = ClassedRows::classify(&Matrix::zeros(0, 4));
        assert_eq!((c.rows(), c.distinct_rows()), (0, 0));
        let c = ClassedRows::classify(&Matrix::zeros(5, 0));
        assert_eq!((c.rows(), c.distinct_rows(), c.cols()), (5, 1, 0));
        assert_eq!(c.into_matrix().shape(), (5, 0));
    }
}
