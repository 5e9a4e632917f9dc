//! Property-based tests for the numeric substrate.

use proptest::prelude::*;

use loadsteal_ode::bordered::BorderedBanded;
use loadsteal_ode::jacobian::SparseJacobian;
use loadsteal_ode::linalg::DenseMatrix;
use loadsteal_ode::{
    brent, newton_solve, AdaptiveOptions, DormandPrince45, NewtonError, NewtonOptions, OdeSystem,
};

/// A diagonally dominant random matrix is well conditioned; LU must
/// solve it to tight residuals.
fn dominant_matrix(n: usize, entries: Vec<f64>) -> DenseMatrix {
    let mut a = DenseMatrix::zeros(n);
    for i in 0..n {
        let mut row_sum = 0.0;
        for j in 0..n {
            let v = entries[i * n + j];
            a[(i, j)] = v;
            row_sum += v.abs();
        }
        a[(i, i)] += row_sum + 1.0;
    }
    a
}

/// Uniform draws in `[-1, 1)` from a seeded LCG.
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }
}

/// A diagonally dominant band-plus-border matrix with its blocks
/// randomly interleaved, as the mean-field Jacobians are: `blocks`
/// chains of `len` levels, each level coupled to chain neighbours within
/// `half` and to the same level of the next chain, plus `border` dense
/// rows and columns, all stored under a random permutation. Returns the
/// matrix and the stored index of every core unknown.
fn band_plus_border(
    seed: u64,
    blocks: usize,
    len: usize,
    half: usize,
    border: usize,
) -> (DenseMatrix, Vec<usize>) {
    let mut next = lcg(seed);
    let n_core = blocks * len;
    let n = n_core + border;
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = ((next() + 1.0) * 0.5 * (i + 1) as f64) as usize;
        perm.swap(i, j.min(i));
    }
    let mut a = DenseMatrix::zeros(n);
    for b in 0..blocks {
        for i in 0..len {
            let u = perm[b * len + i];
            for k in i.saturating_sub(half)..(i + half + 1).min(len) {
                if k != i {
                    a[(u, perm[b * len + k])] = next();
                }
            }
            if b + 1 < blocks {
                let v = perm[(b + 1) * len + i];
                a[(u, v)] = next();
                a[(v, u)] = next();
            }
        }
    }
    for &t in &perm[n_core..] {
        for j in 0..n {
            a[(t, j)] = next();
            a[(j, t)] = next();
        }
    }
    for i in 0..n {
        let off: f64 = (0..n).filter(|&j| j != i).map(|j| a[(i, j)].abs()).sum();
        a[(i, i)] = off + 1.0 + next().abs();
    }
    (a, perm[..n_core].to_vec())
}

fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, x| m.max(x.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bordered_banded_solve_matches_dense_lu(
        seed in any::<u64>(),
        blocks in 1usize..4,
        len in 2usize..40,
        half in 1usize..4,
        border in 0usize..4,
    ) {
        let (a, _) = band_plus_border(seed, blocks, len, half, border);
        let n = a.order();
        let mut next = lcg(!seed);
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let jac = SparseJacobian::from_dense(&a);
        let layout = BorderedBanded::analyse(&jac);
        prop_assert!(layout.is_dense() || layout.dense_dim() <= border,
            "border {} for {border} planted", layout.dense_dim());
        let mut x = b.clone();
        layout.factor(&jac, 0.0).unwrap().solve_in_place(&mut x);
        let x_lu = a.clone().lu().unwrap().solve(&b);
        let r: Vec<f64> = a.mul_vec(&x).iter().zip(&b).map(|(p, q)| p - q).collect();
        let d: Vec<f64> = x.iter().zip(&x_lu).map(|(p, q)| p - q).collect();
        prop_assert!(max_abs(&r) <= 1e-12 * max_abs(&b), "residual {:e}", max_abs(&r));
        prop_assert!(max_abs(&d) <= 1e-12 * max_abs(&x_lu), "off Lu by {:e}", max_abs(&d));
    }

    #[test]
    fn singular_core_is_a_singular_jacobian(
        seed in any::<u64>(),
        blocks in 1usize..4,
        len in 2usize..40,
        half in 1usize..4,
        border in 0usize..4,
    ) {
        // Zeroing a core row makes F(x) = A x − b singular whatever the
        // layout puts where.
        let (mut a, core) = band_plus_border(seed, blocks, len, half, border);
        let n = a.order();
        let row = core[(seed % core.len() as u64) as usize];
        for j in 0..n {
            a[(row, j)] = 0.0;
        }
        let mut x = vec![0.0; n];
        let err = newton_solve(
            |v, out| {
                for (i, o) in a.mul_vec(v).into_iter().enumerate() {
                    out[i] = o - 1.0;
                }
            },
            &mut x,
            &NewtonOptions::default(),
        )
        .unwrap_err();
        prop_assert!(matches!(err, NewtonError::SingularJacobian { .. }), "{err}");
    }

    #[test]
    fn lu_solves_diagonally_dominant_systems(
        n in 1usize..20,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let entries: Vec<f64> = (0..n * n).map(|_| next()).collect();
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let a = dominant_matrix(n, entries);
        let a2 = a.clone();
        let x = a.lu().unwrap().solve(&b);
        let ax = a2.mul_vec(&x);
        for (l, r) in ax.iter().zip(&b) {
            prop_assert!((l - r).abs() < 1e-9, "residual {}", (l - r).abs());
        }
    }

    #[test]
    fn brent_finds_roots_of_shifted_cubics(shift in -8.0f64..8.0) {
        // f(x) = x^3 − shift is monotone with a single real root.
        let f = |x: f64| x * x * x - shift;
        let root = brent(f, -3.0, 3.0, 1e-13).unwrap();
        prop_assert!(f(root).abs() < 1e-9, "f({root}) = {}", f(root));
    }

    #[test]
    fn newton_inverts_smooth_monotone_maps(target in 0.1f64..10.0) {
        // Solve exp(x) = target.
        let mut x = vec![0.0];
        newton_solve(
            |v, out| out[0] = v[0].exp() - target,
            &mut x,
            &NewtonOptions::default(),
        )
        .unwrap();
        prop_assert!((x[0] - target.ln()).abs() < 1e-9);
    }

    #[test]
    fn dp45_matches_exact_linear_decay(
        rate in 0.01f64..5.0,
        horizon in 0.1f64..10.0,
        y0 in 0.1f64..10.0,
    ) {
        struct Decay(f64);
        impl OdeSystem for Decay {
            fn dim(&self) -> usize { 1 }
            fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) { dy[0] = -self.0 * y[0]; }
        }
        let mut y = vec![y0];
        let mut dp = DormandPrince45::new(AdaptiveOptions::default());
        dp.integrate(&Decay(rate), 0.0, horizon, &mut y).unwrap();
        let exact = y0 * (-rate * horizon).exp();
        prop_assert!((y[0] - exact).abs() < 1e-6 * y0.max(1.0),
            "got {}, exact {exact}", y[0]);
    }

    #[test]
    fn dp45_is_exact_on_quadratic_polynomials(a in -2.0f64..2.0, b in -2.0f64..2.0) {
        // y' = a t + b integrates exactly (order ≥ 2 method).
        struct Poly(f64, f64);
        impl OdeSystem for Poly {
            fn dim(&self) -> usize { 1 }
            fn deriv(&self, t: f64, _y: &[f64], dy: &mut [f64]) { dy[0] = self.0 * t + self.1; }
        }
        let mut y = vec![0.0];
        let mut dp = DormandPrince45::new(AdaptiveOptions::default());
        dp.integrate(&Poly(a, b), 0.0, 2.0, &mut y).unwrap();
        let exact = a * 2.0 + b * 2.0; // ∫₀² (a t + b) dt = 2a + 2b
        prop_assert!((y[0] - exact).abs() < 1e-9);
    }
}
