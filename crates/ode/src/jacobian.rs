//! Finite-difference Jacobians that pay for their sparsity pattern once.
//!
//! The first Jacobian of a Newton solve is probed column by column, one
//! evaluation of `F` per unknown, and every entry that moved is kept in
//! compressed sparse column form: those entries are the pattern. Later
//! Jacobians at nearby points reuse the pattern through Curtis–Powell–Reid
//! column colouring: columns that touch disjoint rows are perturbed
//! together, so one evaluation of `F` refills a whole colour group. The
//! truncated mean-field families couple each level to a few neighbours
//! plus a few global scalars, which takes a Jacobian from `n`
//! evaluations to a handful.
//!
//! A probe misses every entry that vanished at the probe point, and a
//! warm start from a shorter truncation has a zero tail, where the
//! global scalars' columns vanish row after row. So once the Newton
//! polish has moved those columns to the dense border
//! ([`crate::bordered`]), it widens each of them to every row
//! (`SparseJacobian::widen_columns`). Each border column has a colour of
//! its own, so a widened column still costs one evaluation per refill.
//!
//! A pattern probed at one truncation also serves a larger one, without
//! a second probe. The state is laid out as a few head scalars and
//! equally long level blocks ([`BlockLayout`]), and the pattern is
//! extended (`SparseJacobian::extend`) in two parts:
//! - The head scalars and the border keep their (block, level)
//!   coordinates, and so do the entries in their rows. Their columns
//!   hold every row.
//! - Every other entry is a stencil triple (row block, column block,
//!   level offset), repeated at every level of the larger truncation,
//!   the border's levels included: a border row near the probe's last
//!   level reads levels the probe did not carry.
//!
//! A level's equations read the same neighbours at every depth past a
//! few boundary levels, so the stencil holds every entry the larger
//! truncation can move. It also restores entries that vanished at the
//! probe point at some levels but not at others.

use crate::linalg::DenseMatrix;

/// Forward-difference step for an unknown currently at `xj`.
#[inline]
fn fd_step(xj: f64, fd_eps: f64) -> f64 {
    fd_eps * xj.abs().max(1e-5)
}

/// How a state vector is stored: `head` scalars, then `blocks` equally
/// long blocks of levels. At `L` levels per block, level `l` (from 0) of
/// block `b` is unknown `head + b·L + l`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockLayout {
    /// Scalars stored ahead of the level blocks.
    pub head: usize,
    /// Number of level blocks (at least 1).
    pub blocks: usize,
}

impl BlockLayout {
    /// One tail `y = (s_1, …, s_L)`: no head, one block.
    pub const TAIL: Self = Self { head: 0, blocks: 1 };

    /// Levels per block of a state of `n` values.
    ///
    /// # Panics
    /// Panics if `n` is not `head` scalars plus whole blocks.
    pub fn levels(self, n: usize) -> usize {
        assert!(
            n >= self.head && (n - self.head) % self.blocks == 0,
            "state of {n} values is not {} scalars plus {} whole blocks",
            self.head,
            self.blocks
        );
        (n - self.head) / self.blocks
    }

    /// Length of a state with `levels` per block.
    pub fn dim(self, levels: usize) -> usize {
        self.head + self.blocks * levels
    }

    /// `y` re-embedded at `levels` per block: the head scalars and each
    /// block's levels keep their values, levels `y` does not carry start
    /// at zero, and levels past `levels` are dropped.
    pub fn embed(self, y: &[f64], levels: usize) -> Vec<f64> {
        let from = self.levels(y.len());
        let keep = from.min(levels);
        let mut out = vec![0.0; self.dim(levels)];
        out[..self.head].copy_from_slice(&y[..self.head]);
        for b in 0..self.blocks {
            out[self.index(b, 0, levels)..][..keep]
                .copy_from_slice(&y[self.index(b, 0, from)..][..keep]);
        }
        out
    }

    /// Unknown of level `l` of block `b` at `levels` per block.
    pub(crate) fn index(self, b: usize, l: usize, levels: usize) -> usize {
        self.head + b * levels + l
    }

    /// Block and level of unknown `v`, not a head scalar, at `levels`
    /// per block.
    fn coord(self, v: usize, levels: usize) -> (usize, usize) {
        ((v - self.head) / levels, (v - self.head) % levels)
    }

    /// Unknown `v` of a state with `from` levels per block, renumbered
    /// for `to ≥ from` levels per block.
    pub(crate) fn moved(self, v: usize, from: usize, to: usize) -> usize {
        if v < self.head {
            v
        } else {
            let (b, l) = self.coord(v, from);
            self.index(b, l, to)
        }
    }
}

/// A forward-difference Jacobian stored by column (CSC): for column `j`,
/// `rows[col_start[j]..col_start[j + 1]]` are the rows of its pattern in
/// ascending order and `vals` the matching entries.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseJacobian {
    n: usize,
    col_start: Vec<usize>,
    rows: Vec<usize>,
    vals: Vec<f64>,
}

impl SparseJacobian {
    /// Probe `∂F/∂x` at `x` (with `fx = F(x)`, finite) one column at a
    /// time and keep every nonzero difference: `n` evaluations of `F`. The
    /// entries equal the dense forward-difference Jacobian's bit for bit;
    /// only rows whose value moved pay for a division ([`push_moved`]).
    pub fn probe(
        mut f: impl FnMut(&[f64], &mut [f64]),
        x: &[f64],
        fx: &[f64],
        fd_eps: f64,
    ) -> Self {
        let n = x.len();
        let mut x_pert = x.to_vec();
        let mut f_pert = vec![0.0; n];
        let mut col_start = Vec::with_capacity(n + 1);
        col_start.push(0);
        let (mut rows, mut vals) = (Vec::new(), Vec::new());
        for j in 0..n {
            let h = fd_step(x[j], fd_eps);
            x_pert[j] = x[j] + h;
            f(&x_pert, &mut f_pert);
            x_pert[j] = x[j];
            push_moved(&f_pert, fx, h, &mut rows, &mut vals);
            col_start.push(rows.len());
        }
        Self {
            n,
            col_start,
            rows,
            vals,
        }
    }

    /// The nonzero entries of a dense matrix, as a Jacobian with that
    /// pattern.
    pub fn from_dense(a: &DenseMatrix) -> Self {
        let n = a.order();
        let mut col_start = vec![0];
        let (mut rows, mut vals) = (Vec::new(), Vec::new());
        for j in 0..n {
            for i in 0..n {
                if a[(i, j)] != 0.0 {
                    rows.push(i);
                    vals.push(a[(i, j)]);
                }
            }
            col_start.push(rows.len());
        }
        Self {
            n,
            col_start,
            rows,
            vals,
        }
    }

    /// Recompute every pattern entry at `x` (with `fx = F(x)`) by
    /// perturbing each colour group at once: one evaluation of `F` per
    /// colour. Rows outside the pattern are assumed not to move; a
    /// widened column has none.
    pub fn refill(
        &mut self,
        mut f: impl FnMut(&[f64], &mut [f64]),
        x: &[f64],
        fx: &[f64],
        fd_eps: f64,
        colouring: &Colouring,
    ) {
        let mut x_pert = x.to_vec();
        let mut f_pert = vec![0.0; self.n];
        for group in colouring.groups() {
            for &j in group {
                x_pert[j] = x[j] + fd_step(x[j], fd_eps);
            }
            f(&x_pert, &mut f_pert);
            for &j in group {
                x_pert[j] = x[j];
                let h = fd_step(x[j], fd_eps);
                for k in self.col_start[j]..self.col_start[j + 1] {
                    let i = self.rows[k];
                    self.vals[k] = (f_pert[i] - fx[i]) / h;
                }
            }
        }
    }

    /// Curtis–Powell–Reid colouring. Each column in `alone` gets a colour
    /// of its own; the others, in order, greedily take the smallest colour
    /// that no column sharing one of their rows holds.
    ///
    /// Dense columns belong in `alone`: they share rows with nearly every
    /// column anyway, and a refill then reads every row of theirs from an
    /// evaluation that moved no other column, which is what lets the
    /// Newton polish widen them to every row.
    pub fn colour(&self, alone: &[usize]) -> Colouring {
        let n = self.n;
        let (row_start, row_cols) = self.transpose();
        let mut colour = vec![usize::MAX; n];
        for (c, &j) in alone.iter().enumerate() {
            colour[j] = c;
        }
        // `taken[c] == j` marks colour c as used by a neighbour of j.
        let mut taken = vec![usize::MAX; alone.len()];
        for j in 0..n {
            if colour[j] != usize::MAX {
                continue;
            }
            for &i in self.column_rows(j) {
                for &k in &row_cols[row_start[i]..row_start[i + 1]] {
                    if let Some(t) = taken.get_mut(colour[k]) {
                        *t = j;
                    }
                }
            }
            colour[j] = match taken[alone.len()..].iter().position(|&t| t != j) {
                Some(c) => alone.len() + c,
                None => {
                    taken.push(usize::MAX);
                    taken.len() - 1
                }
            };
        }
        let (start, cols) = csr(taken.len(), || colour.iter().copied().zip(0..n));
        Colouring { start, cols }
    }

    /// Widen each column in `cols` to every row. Entries the pattern did
    /// not hold are stored as `0.0`, which is what the probe measured
    /// there; the next [`Self::refill`] fills them in, exactly when each
    /// widened column has a colour of its own.
    pub(crate) fn widen_columns(&mut self, cols: &[usize]) {
        let n = self.n;
        let mut wide = vec![false; n];
        for &j in cols {
            wide[j] = true;
        }
        let mut col_start = Vec::with_capacity(n + 1);
        col_start.push(0);
        let mut rows = Vec::with_capacity(self.rows.len() + cols.len() * n);
        let mut vals = Vec::with_capacity(rows.capacity());
        for (j, &wide) in wide.iter().enumerate() {
            if wide {
                let start = vals.len();
                rows.extend(0..n);
                vals.resize(start + n, 0.0);
                for (&i, &v) in self.column_rows(j).iter().zip(self.column_values(j)) {
                    vals[start + i] = v;
                }
            } else {
                rows.extend_from_slice(self.column_rows(j));
                vals.extend_from_slice(self.column_values(j));
            }
            col_start.push(rows.len());
        }
        self.col_start = col_start;
        self.rows = rows;
        self.vals = vals;
    }

    /// The pattern of this Jacobian, of a state laid out as `blocks`,
    /// extended to `levels` per block, with every value zero (see the
    /// [module docs](self)). The `fixed` unknowns, in this Jacobian's
    /// numbering, keep their coordinates, as do the entries in their
    /// rows. Every other entry is repeated at every level, in every
    /// row, as a stencil triple. The `wide` unknowns, in the new
    /// numbering, hold every row in their columns.
    ///
    /// # Panics
    /// Panics if `levels` is fewer than this Jacobian's levels per block.
    pub(crate) fn extend(
        &self,
        blocks: BlockLayout,
        fixed: &[usize],
        wide: &[usize],
        levels: usize,
    ) -> Self {
        let from = blocks.levels(self.n);
        assert!(
            levels >= from,
            "a pattern extends to more levels, not fewer"
        );
        let n = blocks.dim(levels);
        let mut is_fixed = vec![false; self.n];
        for &v in fixed {
            is_fixed[v] = true;
        }
        let mut is_wide = vec![false; n];
        for &v in wide {
            is_wide[v] = true;
        }
        // The fixed rows' entries as (column, row) in the new numbering,
        // and the stencil as (column block, row block, row level − column
        // level).
        let mut kept = Vec::new();
        let mut stencil = Vec::new();
        for (i, j, _) in self.entries() {
            if is_fixed[j] {
                continue;
            }
            if is_fixed[i] {
                kept.push((blocks.moved(j, from, levels), blocks.moved(i, from, levels)));
            } else {
                let ((bi, li), (bj, lj)) = (blocks.coord(i, from), blocks.coord(j, from));
                stencil.push((bj, bi, li as isize - lj as isize));
            }
        }
        kept.sort_unstable();
        stencil.sort_unstable();
        stencil.dedup();
        let mut kept = kept.into_iter().peekable();
        let mut col_start = Vec::with_capacity(n + 1);
        col_start.push(0);
        let mut rows = Vec::new();
        let mut column = Vec::new();
        for (j, &full) in is_wide.iter().enumerate() {
            if full {
                rows.extend(0..n);
                col_start.push(rows.len());
                continue;
            }
            column.clear();
            while let Some((_, i)) = kept.next_if(|&(c, _)| c == j) {
                column.push(i);
            }
            if j >= blocks.head {
                let (bj, lj) = blocks.coord(j, levels);
                let first = stencil.partition_point(|s| s.0 < bj);
                for &(_, bi, offset) in stencil[first..].iter().take_while(|s| s.0 == bj) {
                    if let Some(li) = lj.checked_add_signed(offset).filter(|&l| l < levels) {
                        column.push(blocks.index(bi, li, levels));
                    }
                }
            }
            column.sort_unstable();
            column.dedup();
            rows.extend_from_slice(&column);
            col_start.push(rows.len());
        }
        Self {
            n,
            col_start,
            vals: vec![0.0; rows.len()],
            rows,
        }
    }

    /// Order `n` of the (square) Jacobian.
    pub(crate) fn order(&self) -> usize {
        self.n
    }

    /// Rows of column `j`'s pattern, ascending.
    fn column_rows(&self, j: usize) -> &[usize] {
        &self.rows[self.col_start[j]..self.col_start[j + 1]]
    }

    /// Entries of column `j`, matching [`Self::column_rows`].
    fn column_values(&self, j: usize) -> &[f64] {
        &self.vals[self.col_start[j]..self.col_start[j + 1]]
    }

    /// Every stored entry as `(row, column, value)`, column by column.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |j| {
            self.column_rows(j)
                .iter()
                .zip(self.column_values(j))
                .map(move |(&i, &v)| (i, j, v))
        })
    }

    /// The Jacobian as a dense matrix (zeros off the pattern).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(self.n);
        for (i, j, v) in self.entries() {
            a[(i, j)] = v;
        }
        a
    }

    /// Row-wise view of the pattern: `(row_start, cols)`.
    fn transpose(&self) -> (Vec<usize>, Vec<usize>) {
        csr(self.n, || self.entries().map(|(i, j, _)| (i, j)))
    }
}

/// Append `(i, (a_i − b_i)/h)` to `rows` and `vals` for every `i` where
/// that quotient is nonzero; `b` must be finite. A probed column moves
/// few rows, so blocks of eight are compared first, without branches
/// (which vectorises), and only a block where a row moved is visited row
/// by row.
#[inline]
fn push_moved(a: &[f64], b: &[f64], h: f64, rows: &mut Vec<usize>, vals: &mut Vec<f64>) {
    const BLOCK: usize = 8;
    let mut visit = |start: usize, a: &[f64], b: &[f64]| {
        for (i, (&a, &b)) in (start..).zip(a.iter().zip(b)) {
            if a != b {
                let d = (a - b) / h;
                if d != 0.0 {
                    rows.push(i);
                    vals.push(d);
                }
            }
        }
    };
    let whole = a.len() - a.len() % BLOCK;
    let blocks = a[..whole]
        .chunks_exact(BLOCK)
        .zip(b[..whole].chunks_exact(BLOCK));
    for (start, (a8, b8)) in (0..).step_by(BLOCK).zip(blocks) {
        let mut moved = false;
        for k in 0..BLOCK {
            moved |= a8[k] != b8[k];
        }
        if moved {
            visit(start, a8, b8);
        }
    }
    visit(whole, &a[whole..], &b[whole..]);
}

/// Counting sort of `(key, value)` pairs with keys in `0..keys` into
/// compressed form: key `k`'s values are `values[start[k]..start[k + 1]]`,
/// in the order `pairs` yields them. Returns `(start, values)`.
pub(crate) fn csr<I: Iterator<Item = (usize, usize)>>(
    keys: usize,
    pairs: impl Fn() -> I,
) -> (Vec<usize>, Vec<usize>) {
    let mut start = vec![0; keys + 1];
    for (k, _) in pairs() {
        start[k + 1] += 1;
    }
    for k in 0..keys {
        start[k + 1] += start[k];
    }
    let mut fill = start.clone();
    let mut values = vec![0; start[keys]];
    for (k, v) in pairs() {
        values[fill[k]] = v;
        fill[k] += 1;
    }
    (start, values)
}

/// A partition of the columns into groups whose patterns touch pairwise
/// disjoint rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Colouring {
    start: Vec<usize>,
    cols: Vec<usize>,
}

impl Colouring {
    /// The column groups, each in ascending column order.
    pub(crate) fn groups(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.start.windows(2).map(|w| &self.cols[w[0]..w[1]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tridiagonal map plus one dense column (x₀ feeds every row).
    fn arrow(x: &[f64], out: &mut [f64]) {
        let n = x.len();
        for i in 0..n {
            let left = if i > 0 { x[i - 1] } else { 0.0 };
            let right = if i + 1 < n { x[i + 1] } else { 0.0 };
            out[i] = 3.0 * x[i] - left - right * right + x[0] * x[i];
        }
    }

    #[test]
    fn probe_keeps_exactly_the_structural_nonzeros() {
        let x: Vec<f64> = (0..8).map(|i| 1.0 + 0.1 * i as f64).collect();
        let mut fx = vec![0.0; 8];
        arrow(&x, &mut fx);
        let jac = SparseJacobian::probe(arrow, &x, &fx, 1e-7);
        assert_eq!(jac.column_rows(0), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(jac.column_rows(4), &[3, 4, 5]);
        assert_eq!(jac.entries().count(), 8 + 2 + 3 * 6);
    }

    #[test]
    fn colouring_separates_columns_sharing_a_row() {
        let x: Vec<f64> = (0..12).map(|i| 0.5 + 0.05 * i as f64).collect();
        let mut fx = vec![0.0; 12];
        arrow(&x, &mut fx);
        let jac = SparseJacobian::probe(arrow, &x, &fx, 1e-7);
        let colouring = jac.colour(&[0]);
        // The dense column plus three for the tridiagonal band.
        assert_eq!(colouring.groups().count(), 4);
        for group in colouring.groups() {
            let mut seen = [false; 12];
            for &j in group {
                for &i in jac.column_rows(j) {
                    assert!(!seen[i], "row {i} hit twice in one colour");
                    seen[i] = true;
                }
            }
        }
    }

    #[test]
    fn coloured_refill_reproduces_the_probe() {
        let x: Vec<f64> = (0..12).map(|i| 0.5 + 0.05 * i as f64).collect();
        let mut fx = vec![0.0; 12];
        arrow(&x, &mut fx);
        let probed = SparseJacobian::probe(arrow, &x, &fx, 1e-7);
        let mut refilled = probed.clone();
        refilled.vals.iter_mut().for_each(|v| *v = f64::NAN);
        refilled.refill(arrow, &x, &fx, 1e-7, &probed.colour(&[0]));
        assert_eq!(refilled, probed);
    }
}
