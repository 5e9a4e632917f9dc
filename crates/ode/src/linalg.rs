//! Minimal dense linear algebra: a row-major matrix and LU factorization
//! with partial pivoting, for the dense part of a Newton polish (the
//! Schur complement of [`crate::bordered`], or a whole Jacobian without
//! band structure, up to a few hundred unknowns).

/// A dense, row-major `n × n` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Create an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Create a matrix from a row-major slice of length `n * n`.
    ///
    /// # Panics
    /// Panics if `data.len() != n * n`.
    pub fn from_rows(n: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), n * n, "DenseMatrix: wrong data length");
        Self {
            n,
            data: data.to_vec(),
        }
    }

    /// Matrix order `n`.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != n`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut out = vec![0.0; self.n];
        for (i, oi) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.n..(i + 1) * self.n];
            *oi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        out
    }

    /// Factor `A = P L U` in place. Fails on (numerical) singularity.
    pub fn lu(self) -> Result<Lu, SingularMatrix> {
        Lu::factor(self)
    }

    #[inline]
    fn idx(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.n && c < self.n);
        r * self.n + c
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[self.idx(r, c)]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        let i = self.idx(r, c);
        &mut self.data[i]
    }
}

/// Error returned when a matrix is singular to working precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrix {
    /// The elimination column at which no usable pivot was found.
    pub column: usize,
}

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular at column {}", self.column)
    }
}

impl std::error::Error for SingularMatrix {}

/// An LU factorization with partial pivoting (`P A = L U`).
#[derive(Debug, Clone)]
pub struct Lu {
    lu: DenseMatrix,
    piv: Vec<usize>,
}

impl Lu {
    /// Factor the given matrix (consumed; the factors share its storage).
    pub fn factor(mut a: DenseMatrix) -> Result<Self, SingularMatrix> {
        let n = a.n;
        let mut piv: Vec<usize> = (0..n).collect();
        for col in 0..n {
            // Partial pivoting: find the largest entry in this column.
            let mut p = col;
            let mut best = a[(col, col)].abs();
            for r in (col + 1)..n {
                let v = a[(r, col)].abs();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            if best <= 0.0 || !best.is_finite() {
                return Err(SingularMatrix { column: col });
            }
            if p != col {
                for c in 0..n {
                    let (i, j) = (a.idx(col, c), a.idx(p, c));
                    a.data.swap(i, j);
                }
                piv.swap(col, p);
            }
            let pivot = a[(col, col)];
            for r in (col + 1)..n {
                let m = a[(r, col)] / pivot;
                a[(r, col)] = m;
                if m != 0.0 {
                    // Row update: split the two disjoint row slices so the
                    // inner loop is bounds-check free.
                    let (upper, lower) = a.data.split_at_mut(r * n);
                    let pivot_row = &upper[col * n..col * n + n];
                    let row = &mut lower[..n];
                    for c in (col + 1)..n {
                        row[c] -= m * pivot_row[c];
                    }
                }
            }
        }
        Ok(Self { lu: a, piv })
    }

    /// Solve `A x = b`, overwriting `b` with `x`.
    ///
    /// # Panics
    /// Panics if `b.len()` differs from the matrix order.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let n = self.lu.n;
        assert_eq!(b.len(), n, "Lu::solve_in_place: wrong rhs length");
        // Apply the permutation.
        let permuted: Vec<f64> = self.piv.iter().map(|&p| b[p]).collect();
        b.copy_from_slice(&permuted);
        // Forward substitution with unit lower-triangular L.
        for i in 0..n {
            let row = &self.lu.data[i * n..i * n + i];
            let dot: f64 = row.iter().zip(&b[..i]).map(|(l, x)| l * x).sum();
            b[i] -= dot;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let row = &self.lu.data[i * n + i..(i + 1) * n];
            let dot: f64 = row[1..].iter().zip(&b[i + 1..]).map(|(u, x)| u * x).sum();
            b[i] = (b[i] - dot) / row[0];
        }
    }

    /// Solve `A x = b`, returning `x`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_small_system() {
        // [2 1; 1 3] x = [3; 5]  =>  x = [0.8, 1.4]
        let a = DenseMatrix::from_rows(2, &[2.0, 1.0, 1.0, 3.0]);
        let lu = a.lu().unwrap();
        let x = lu.solve(&[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn identity_solves_to_rhs() {
        let lu = DenseMatrix::identity(4).lu().unwrap();
        let b = [1.0, -2.0, 3.5, 0.0];
        let x = lu.solve(&b);
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // Leading entry is zero; naive elimination would divide by 0.
        let a = DenseMatrix::from_rows(2, &[0.0, 1.0, 1.0, 0.0]);
        let lu = a.lu().unwrap();
        let x = lu.solve(&[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = DenseMatrix::from_rows(2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(a.lu().is_err());
    }

    #[test]
    fn residual_is_small_for_random_like_matrix() {
        // Deterministic pseudo-random fill via a linear congruential
        // generator; checks A x ≈ b with a residual test.
        let n = 25;
        let mut seed: u64 = 0x9E3779B97F4A7C15;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut a = DenseMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += 4.0; // diagonally dominant => well conditioned
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let a2 = a.clone();
        let x = a.lu().unwrap().solve(&b);
        let ax = a2.mul_vec(&x);
        let resid: f64 = ax
            .iter()
            .zip(&b)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max);
        assert!(resid < 1e-11, "residual {resid}");
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = DenseMatrix::from_rows(2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }
}
