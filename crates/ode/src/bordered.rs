//! Bordered-banded LU: a narrow band plus a few dense rows and columns.
//!
//! The Jacobians of the truncated mean-field families couple level `i`
//! to a few neighbouring levels, plus a handful of global scalars (`s₁`,
//! `s₂`, `s_T`, …) that feed every row. [`BorderedBanded::analyse`] reads
//! that shape off a probed pattern:
//!
//! 1. the dense unknowns move to a *border* `B`;
//! 2. the remaining *core* `C` is ordered by reverse Cuthill–McKee, which
//!    turns block layouts (two classes, several phases) into one narrow
//!    band;
//! 3. with the permuted matrix split as `[A_CC A_CB; A_BC A_BB]`, `A_CC` is
//!    factored as a band with partial pivoting and the border's dense
//!    Schur complement `S = A_BB − A_BC A_CC⁻¹ A_CB` with
//!    [`crate::linalg::Lu`].
//!
//! The border size is chosen by estimated flops, including the all-dense
//! layout (empty core, `S = A`). A Jacobian without band structure, such
//! as pairwise rebalancing's, is therefore factored by `Lu` exactly as a
//! dense matrix would be.
//!
//! `A_CB`, `A_BC` and `A_BB` are stored densely, so a layout factors any
//! pattern whose core entries fit its band, whatever the border's rows
//! and columns hold: the Newton polish widens the border's columns to
//! every row after the analysis ([`crate::newton`]).
//!
//! A layout can also be given its border and core order outright
//! (`BorderedBanded::from_order`). A structure extended to a larger
//! truncation keeps the probed border and lays the core out level by
//! level, blocks interleaved, which reads the band off the pattern with
//! no graph search.

use crate::jacobian::{csr, SparseJacobian};
use crate::linalg::{DenseMatrix, Lu, SingularMatrix};

/// Where one unknown lands in the permuted block layout.
#[derive(Debug, Clone, Copy)]
enum Pos {
    /// Position in the core's band order.
    Core(usize),
    /// Position in the border.
    Border(usize),
}

/// A bordered-banded layout for one sparsity pattern.
#[derive(Debug, Clone)]
pub struct BorderedBanded {
    n: usize,
    /// Core unknowns in band order.
    core: Vec<usize>,
    /// Border unknowns, ascending.
    border: Vec<usize>,
    /// Where each unknown lands.
    pos: Vec<Pos>,
    /// Lower and upper half-bandwidths of `A_CC` in band order.
    kl: usize,
    ku: usize,
}

impl BorderedBanded {
    /// Choose the cheapest layout for `jac`'s pattern: the unknowns of
    /// highest degree move to the border, as many as minimize the
    /// estimated factorization flops, the all-dense layout included.
    pub fn analyse(jac: &SparseJacobian) -> Self {
        let n = jac.order();
        let graph = Graph::symmetrized(jac);
        let mut by_degree: Vec<usize> = (0..n).collect();
        by_degree.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
        let median = by_degree.get(n / 2).map_or(0, |&v| graph.degree(v));
        let dense = by_degree
            .iter()
            .take_while(|&&v| graph.degree(v) > 2 * median + 2)
            .count();
        // Border sizes worth ordering: each dense unknown up to 16, then
        // doubling steps, then everything.
        let mut sizes: Vec<usize> = (0..=dense.min(16)).collect();
        let mut k = 32;
        while k < dense {
            sizes.push(k);
            k *= 2;
        }
        sizes.extend([dense, n]);
        sizes.dedup();
        let mut best: Option<(f64, Self)> = None;
        for &k in &sizes {
            let layout = Self::with_border(jac, &graph, &by_degree[..k]);
            let cost = layout.cost();
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, layout));
            }
        }
        let (_, layout) = best.expect("at least the all-dense layout");
        layout
    }

    /// The layout with `border` as the dense unknowns and the rest in
    /// reverse Cuthill–McKee order.
    fn with_border(jac: &SparseJacobian, graph: &Graph, border: &[usize]) -> Self {
        let n = jac.order();
        let mut in_border = vec![false; n];
        for &v in border {
            in_border[v] = true;
        }
        let core = graph.reverse_cuthill_mckee(&in_border);
        Self::from_order(jac, border.to_vec(), core)
    }

    /// The layout with `border` as the dense unknowns and `core`, every
    /// other unknown once, in this band order; `jac`'s entries between
    /// core unknowns set the bandwidths.
    ///
    /// # Panics
    /// Panics if `border` and `core` do not add up to `jac`'s order.
    pub(crate) fn from_order(
        jac: &SparseJacobian,
        mut border: Vec<usize>,
        core: Vec<usize>,
    ) -> Self {
        let n = jac.order();
        assert_eq!(border.len() + core.len(), n, "layout of another order");
        border.sort_unstable();
        let mut pos = vec![Pos::Border(0); n];
        for (p, &v) in border.iter().enumerate() {
            pos[v] = Pos::Border(p);
        }
        for (r, &v) in core.iter().enumerate() {
            pos[v] = Pos::Core(r);
        }
        let (mut kl, mut ku) = (0, 0);
        for (i, j, _) in jac.entries() {
            if let (Pos::Core(r), Pos::Core(c)) = (pos[i], pos[j]) {
                if r > c {
                    kl = kl.max(r - c);
                } else {
                    ku = ku.max(c - r);
                }
            }
        }
        Self {
            n,
            core,
            border,
            pos,
            kl,
            ku,
        }
    }

    /// Estimated flops of one factorization: band LU with pivoting fill,
    /// one band solve per border column, the Schur product and the dense
    /// LU of the Schur complement.
    fn cost(&self) -> f64 {
        let (nc, nb) = (self.core.len() as f64, self.border.len() as f64);
        let (kl, ku) = (self.kl as f64, self.ku as f64);
        nc * kl * (kl + ku + 1.0)
            + nb * nc * (2.0 * kl + ku + 1.0)
            + nb * nb * nc
            + nb * nb * nb / 3.0
    }

    /// Stored entries per band row: `kl` sub-diagonals, the diagonal, and
    /// `kl + ku` super-diagonals (room for pivoting fill).
    fn band_width(&self) -> usize {
        2 * self.kl + self.ku + 1
    }

    /// Size of the dense part: the border, i.e. the order of the Schur
    /// complement factored by [`Lu`].
    pub fn dense_dim(&self) -> usize {
        self.border.len()
    }

    /// The dense unknowns, ascending.
    pub fn border(&self) -> &[usize] {
        &self.border
    }

    /// Whether the whole matrix is in the border (no band core).
    pub fn is_dense(&self) -> bool {
        self.core.is_empty()
    }

    /// Lower and upper half-bandwidths of the core in band order.
    #[cfg(test)]
    pub(crate) fn bandwidths(&self) -> (usize, usize) {
        (self.kl, self.ku)
    }

    /// Factor `jac − shift·I`, where `jac` is the pattern this layout was
    /// analysed from, or one that adds entries only in the border's rows
    /// and columns. The band's diagonal and the Schur corner are stored
    /// whatever the pattern holds, so the shift needs no diagonal entry
    /// in it. The failing column is reported in original numbering.
    ///
    /// # Panics
    /// Panics if `jac` is of another order, or has an entry between core
    /// unknowns outside the analysed band.
    pub fn factor(
        &self,
        jac: &SparseJacobian,
        shift: f64,
    ) -> Result<BorderedLu<'_>, SingularMatrix> {
        assert_eq!(jac.order(), self.n, "pattern differs from layout");
        let (nc, nb) = (self.core.len(), self.border.len());
        let width = self.band_width();
        let mut band = vec![0.0; nc * width];
        // A_CB column by column, A_BC row by row, A_BB row-major.
        let mut cols = vec![0.0; nc * nb];
        let mut rows = vec![0.0; nb * nc];
        let mut corner = vec![0.0; nb * nb];
        for (i, j, v) in jac.entries() {
            match (self.pos[i], self.pos[j]) {
                (Pos::Core(r), Pos::Core(c)) => {
                    assert!(
                        r <= c + self.kl && c <= r + self.ku,
                        "pattern differs from layout"
                    );
                    band[r * width + c + self.kl - r] = v;
                }
                (Pos::Core(r), Pos::Border(q)) => cols[q * nc + r] = v,
                (Pos::Border(p), Pos::Core(c)) => rows[p * nc + c] = v,
                (Pos::Border(p), Pos::Border(q)) => corner[p * nb + q] = v,
            }
        }
        for r in 0..nc {
            band[r * width + self.kl] -= shift;
        }
        for p in 0..nb {
            corner[p * nb + p] -= shift;
        }
        let mut piv = vec![0; nc];
        band_factor(&mut band, nc, self.kl, self.ku, &mut piv).map_err(|r| SingularMatrix {
            column: self.core[r],
        })?;
        // W = A_CC⁻¹ A_CB in place of A_CB, then S = A_BB − A_BC W in
        // place of A_BB.
        let mut w = cols;
        for q in 0..nb {
            band_solve(&band, &piv, self.kl, self.ku, &mut w[q * nc..(q + 1) * nc]);
        }
        for p in 0..nb {
            let row = &rows[p * nc..(p + 1) * nc];
            for q in 0..nb {
                corner[p * nb + q] -= dot(row, &w[q * nc..(q + 1) * nc]);
            }
        }
        let schur = if nb == 0 {
            None
        } else {
            let lu = DenseMatrix::from_rows(nb, &corner)
                .lu()
                .map_err(|e| SingularMatrix {
                    column: self.border[e.column],
                })?;
            Some(lu)
        };
        Ok(BorderedLu {
            layout: self,
            band,
            piv,
            w,
            rows,
            schur,
        })
    }
}

/// Factors produced by [`BorderedBanded::factor`].
#[derive(Debug, Clone)]
pub struct BorderedLu<'a> {
    layout: &'a BorderedBanded,
    /// Band LU of `A_CC` (multipliers below the diagonal, `U` above).
    band: Vec<f64>,
    /// Row interchanges of the band LU, LAPACK `gbtrf` style.
    piv: Vec<usize>,
    /// `W = A_CC⁻¹ A_CB`, border column by border column.
    w: Vec<f64>,
    /// `A_BC`, border row by border row.
    rows: Vec<f64>,
    /// LU of the Schur complement (absent without a border).
    schur: Option<Lu>,
}

impl BorderedLu<'_> {
    /// Solve `A x = b`, overwriting `b` with `x`.
    ///
    /// # Panics
    /// Panics if `b.len()` differs from the matrix order.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let l = self.layout;
        assert_eq!(b.len(), l.n, "BorderedLu::solve_in_place: wrong rhs length");
        let nc = l.core.len();
        let mut xc: Vec<f64> = l.core.iter().map(|&v| b[v]).collect();
        band_solve(&self.band, &self.piv, l.kl, l.ku, &mut xc);
        if let Some(schur) = &self.schur {
            let mut xb: Vec<f64> = l.border.iter().map(|&v| b[v]).collect();
            for (p, v) in xb.iter_mut().enumerate() {
                *v -= dot(&self.rows[p * nc..(p + 1) * nc], &xc);
            }
            schur.solve_in_place(&mut xb);
            for (q, &xq) in xb.iter().enumerate() {
                for (x, wi) in xc.iter_mut().zip(&self.w[q * nc..(q + 1) * nc]) {
                    *x -= wi * xq;
                }
            }
            for (&v, &x) in l.border.iter().zip(&xb) {
                b[v] = x;
            }
        }
        for (&v, &x) in l.core.iter().zip(&xc) {
            b[v] = x;
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// LU with partial pivoting of an `n × n` band matrix with `kl`
/// sub- and `ku` super-diagonals, stored row by row with `2kl + ku + 1`
/// slots per row (entry `(r, c)` at `r·width + c + kl − r`). On a zero
/// pivot, returns the failing elimination step.
fn band_factor(
    a: &mut [f64],
    n: usize,
    kl: usize,
    ku: usize,
    piv: &mut [usize],
) -> Result<(), usize> {
    let width = 2 * kl + ku + 1;
    let at = |r: usize, c: usize| r * width + c + kl - r;
    for k in 0..n {
        let last = (k + kl).min(n - 1);
        let mut p = k;
        let mut best = a[at(k, k)].abs();
        for r in k + 1..=last {
            let v = a[at(r, k)].abs();
            if v > best {
                best = v;
                p = r;
            }
        }
        if best <= 0.0 || !best.is_finite() {
            return Err(k);
        }
        piv[k] = p;
        // With pivoting, row k's fill reaches kl + ku past the diagonal.
        let right = (k + kl + ku).min(n - 1);
        if p != k {
            for c in k..=right {
                a.swap(at(k, c), at(p, c));
            }
        }
        let pivot = a[at(k, k)];
        for r in k + 1..=last {
            let m = a[at(r, k)] / pivot;
            a[at(r, k)] = m;
            if m != 0.0 {
                let (upper, lower) = a.split_at_mut(r * width);
                let pivot_row = &upper[at(k, k + 1)..=at(k, right)];
                let row = &mut lower[at(r, k + 1) - r * width..=at(r, right) - r * width];
                for (x, u) in row.iter_mut().zip(pivot_row) {
                    *x -= m * u;
                }
            }
        }
    }
    Ok(())
}

/// Solve with the factors of [`band_factor`], in place.
fn band_solve(a: &[f64], piv: &[usize], kl: usize, ku: usize, b: &mut [f64]) {
    let n = b.len();
    let width = 2 * kl + ku + 1;
    let at = |r: usize, c: usize| r * width + c + kl - r;
    for k in 0..n {
        b.swap(k, piv[k]);
        let bk = b[k];
        for r in k + 1..=(k + kl).min(n - 1) {
            b[r] -= a[at(r, k)] * bk;
        }
    }
    for k in (0..n).rev() {
        let right = (k + kl + ku).min(n - 1);
        let row = &a[at(k, k)..=at(k, right)];
        b[k] = (b[k] - dot(&row[1..], &b[k + 1..=right])) / row[0];
    }
}

/// The symmetrized pattern without self loops, as CSR adjacency.
struct Graph {
    start: Vec<usize>,
    adj: Vec<usize>,
}

impl Graph {
    fn symmetrized(jac: &SparseJacobian) -> Self {
        let n = jac.order();
        let mut edges: Vec<(usize, usize)> = jac
            .entries()
            .filter(|&(i, j, _)| i != j)
            .flat_map(|(i, j, _)| [(i, j), (j, i)])
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let (start, adj) = csr(n, || edges.iter().copied());
        Self { start, adj }
    }

    fn degree(&self, v: usize) -> usize {
        self.start[v + 1] - self.start[v]
    }

    fn neighbours(&self, v: usize) -> &[usize] {
        &self.adj[self.start[v]..self.start[v + 1]]
    }

    /// Reverse Cuthill–McKee order of the nodes not in `skip`, on the
    /// graph without them. Each connected component starts from a
    /// pseudo-peripheral node (George–Liu) and is numbered breadth
    /// first, neighbours by increasing degree; the whole order is then
    /// reversed.
    fn reverse_cuthill_mckee(&self, skip: &[bool]) -> Vec<usize> {
        let n = skip.len();
        let mut by_degree: Vec<usize> = (0..n).filter(|&v| !skip[v]).collect();
        by_degree.sort_by_key(|&v| (self.degree(v), v));
        let mut placed = skip.to_vec();
        let mut order = Vec::with_capacity(by_degree.len());
        let mut bfs = Bfs::new(n);
        let mut next = Vec::new();
        for &seed in &by_degree {
            if placed[seed] {
                continue;
            }
            // George–Liu: restart from a minimum-degree node of the last
            // level while that lengthens the level structure.
            let mut root = seed;
            let mut depth = bfs.run(self, skip, root);
            loop {
                let candidate = bfs
                    .last_level()
                    .iter()
                    .copied()
                    .min_by_key(|&v| (self.degree(v), v))
                    .expect("a component has at least its root");
                let d = bfs.run(self, skip, candidate);
                if d <= depth {
                    break;
                }
                root = candidate;
                depth = d;
            }
            let mut head = order.len();
            order.push(root);
            placed[root] = true;
            while head < order.len() {
                let v = order[head];
                head += 1;
                next.clear();
                next.extend(self.neighbours(v).iter().copied().filter(|&u| !placed[u]));
                next.sort_by_key(|&u| (self.degree(u), u));
                for &u in &next {
                    placed[u] = true;
                    order.push(u);
                }
            }
        }
        order.reverse();
        order
    }
}

/// Breadth-first level structure, reusing its buffers across runs.
struct Bfs {
    stamp: Vec<u32>,
    run: u32,
    queue: Vec<usize>,
    last_level_start: usize,
}

impl Bfs {
    fn new(n: usize) -> Self {
        Self {
            stamp: vec![0; n],
            run: 0,
            queue: Vec::new(),
            last_level_start: 0,
        }
    }

    /// Visit `root`'s component of `graph` without the `skip` nodes;
    /// returns its eccentricity (levels − 1).
    fn run(&mut self, graph: &Graph, skip: &[bool], root: usize) -> usize {
        self.run += 1;
        self.queue.clear();
        self.queue.push(root);
        self.stamp[root] = self.run;
        let (mut level_start, mut depth) = (0, 0);
        loop {
            let level_end = self.queue.len();
            for h in level_start..level_end {
                for &u in graph.neighbours(self.queue[h]) {
                    if self.stamp[u] != self.run && !skip[u] {
                        self.stamp[u] = self.run;
                        self.queue.push(u);
                    }
                }
            }
            if self.queue.len() == level_end {
                self.last_level_start = level_start;
                return depth;
            }
            level_start = level_end;
            depth += 1;
        }
    }

    fn last_level(&self) -> &[usize] {
        &self.queue[self.last_level_start..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &DenseMatrix, x: &[f64], b: &[f64]) -> f64 {
        a.mul_vec(x)
            .iter()
            .zip(b)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max)
    }

    /// Tridiagonal plus dense column 0 and dense row `n − 1`.
    fn arrowhead(n: usize) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(n);
        for i in 0..n {
            a[(i, i)] = 4.0 + (i % 3) as f64;
            if i > 0 {
                a[(i, i - 1)] = -1.0;
                a[(i - 1, i)] = 0.5;
            }
            a[(i, 0)] += 0.25;
            a[(n - 1, i)] += 0.125;
        }
        a
    }

    #[test]
    fn arrowhead_splits_into_band_and_border() {
        let a = arrowhead(60);
        let jac = SparseJacobian::from_dense(&a);
        let layout = BorderedBanded::analyse(&jac);
        assert_eq!(layout.dense_dim(), 2);
        assert_eq!(layout.bandwidths(), (1, 1));
        let b: Vec<f64> = (0..60).map(|i| (i as f64).cos()).collect();
        let mut x = b.clone();
        layout.factor(&jac, 0.0).unwrap().solve_in_place(&mut x);
        assert!(residual(&a, &x, &b) < 1e-13);
    }

    #[test]
    fn interleaved_blocks_become_a_narrow_band() {
        // Two coupled chains stored as blocks [u_1..u_m, v_1..v_m]: in
        // natural order the u_i–v_i coupling sits m off the diagonal.
        let m = 40;
        let mut a = DenseMatrix::zeros(2 * m);
        for i in 0..2 * m {
            a[(i, i)] = 5.0;
        }
        for i in 0..m {
            a[(i, m + i)] = 1.0;
            a[(m + i, i)] = -1.0;
            if i + 1 < m {
                a[(i, i + 1)] = 1.0;
                a[(m + i + 1, m + i)] = 1.0;
            }
        }
        let jac = SparseJacobian::from_dense(&a);
        let layout = BorderedBanded::analyse(&jac);
        assert_eq!(layout.dense_dim(), 0);
        let (kl, ku) = layout.bandwidths();
        assert!(kl <= 3 && ku <= 3, "bandwidths {kl}, {ku}");
        let b = vec![1.0; 2 * m];
        let mut x = b.clone();
        layout.factor(&jac, 0.0).unwrap().solve_in_place(&mut x);
        assert!(residual(&a, &x, &b) < 1e-13);
    }

    #[test]
    fn dense_matrix_lands_in_the_border() {
        let n = 12;
        let mut a = DenseMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = 1.0 / (1.0 + i as f64 + 2.0 * j as f64);
            }
            a[(i, i)] += 3.0;
        }
        let jac = SparseJacobian::from_dense(&a);
        let layout = BorderedBanded::analyse(&jac);
        assert!(layout.is_dense());
        assert_eq!(layout.dense_dim(), n);
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut x = b.clone();
        layout.factor(&jac, 0.0).unwrap().solve_in_place(&mut x);
        // The all-dense layout is Lu on the unpermuted matrix.
        assert_eq!(x, a.clone().lu().unwrap().solve(&b));
    }

    #[test]
    fn pivoting_inside_the_band() {
        // Off-diagonals dominate the diagonal in both directions, so the
        // elimination swaps rows whichever way the band is ordered.
        let n = 20;
        let mut a = DenseMatrix::zeros(n);
        for i in 0..n {
            a[(i, i)] = 0.01 * (i + 1) as f64;
            if i + 1 < n {
                a[(i, i + 1)] = 1.0 + 0.1 * i as f64;
                a[(i + 1, i)] = -2.0 + 0.05 * i as f64;
            }
        }
        let jac = SparseJacobian::from_dense(&a);
        let layout = BorderedBanded::analyse(&jac);
        assert!(!layout.is_dense());
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let mut x = b.clone();
        layout.factor(&jac, 0.0).unwrap().solve_in_place(&mut x);
        assert!(residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn shift_reaches_diagonal_entries_the_pattern_lacks() {
        let n = 40;
        let mut a = arrowhead(n);
        // No diagonal entry at a core unknown nor at the border's first.
        a[(7, 7)] = 0.0;
        a[(0, 0)] = 0.0;
        let jac = SparseJacobian::from_dense(&a);
        let layout = BorderedBanded::analyse(&jac);
        assert!(layout.border().contains(&0) && !layout.border().contains(&7));
        let mut shifted = a.clone();
        for i in 0..n {
            shifted[(i, i)] -= 3.0;
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut x = b.clone();
        layout.factor(&jac, 3.0).unwrap().solve_in_place(&mut x);
        assert!(residual(&shifted, &x, &b) < 1e-13);
    }

    #[test]
    fn singular_core_is_reported() {
        let mut a = arrowhead(30);
        for j in 0..30 {
            a[(7, j)] = 0.0;
        }
        let jac = SparseJacobian::from_dense(&a);
        let layout = BorderedBanded::analyse(&jac);
        assert!(layout.factor(&jac, 0.0).is_err());
    }
}
