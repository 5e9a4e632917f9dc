//! The no-stealing baseline — equation (1) of the paper.
//!
//! Without stealing each processor is an independent M/M/1 queue:
//!
//! ```text
//! ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1})
//! ```
//!
//! with fixed point `π_i = λ^i` and mean time in system `1/(1−λ)`.
//! Every stealing model in this crate is compared against this tail.

use loadsteal_ode::OdeSystem;

use crate::tail::TailVector;

use super::{check_lambda, default_truncation, s, MeanFieldModel};

/// Mean-field model of `n → ∞` independent M/M/1 queues.
#[derive(Debug, Clone, PartialEq)]
pub struct NoSteal {
    lambda: f64,
    levels: usize,
}

impl NoSteal {
    /// Create the model for arrival rate `0 < λ < 1`.
    pub fn new(lambda: f64) -> Result<Self, String> {
        check_lambda(lambda)?;
        Ok(Self {
            lambda,
            levels: default_truncation(lambda),
        })
    }

    /// The arrival rate λ.
    pub fn arrival_rate(&self) -> f64 {
        self.lambda
    }

    /// Exact fixed point tail `π_i = λ^i` down to the truncation.
    pub fn closed_form_tails(&self) -> TailVector {
        TailVector::geometric(self.lambda, self.levels)
    }

    /// Exact mean time in system, `1/(1 − λ)` (M/M/1).
    pub fn closed_form_mean_time(&self) -> f64 {
        1.0 / (1.0 - self.lambda)
    }
}

impl OdeSystem for NoSteal {
    fn dim(&self) -> usize {
        self.levels
    }

    fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let lambda = self.lambda;
        let levels = self.levels;
        if levels == 0 {
            return;
        }
        // Levels 1 and L read s_0 = 1 and s_{L+1} = 0 through `s`; the
        // levels between read s_{i−1}, s_i and s_{i+1}, all stored: one
        // straight-line loop over shifted slices, the same arithmetic.
        let level = |i: usize| lambda * (s(y, i - 1) - s(y, i)) - (s(y, i) - s(y, i + 1));
        dy[0] = level(1);
        dy[levels - 1] = level(levels);
        if levels > 2 {
            let interior = dy[1..levels - 1]
                .iter_mut()
                .zip(&y[..levels - 2])
                .zip(&y[1..levels - 1])
                .zip(&y[2..levels]);
            for (((d, &lo), &si), &hi) in interior {
                *d = lambda * (lo - si) - (si - hi);
            }
        }
    }

    fn project(&self, y: &mut [f64]) {
        TailVector::project_slice(y);
    }
}

impl MeanFieldModel for NoSteal {
    fn name(&self) -> String {
        format!("no stealing (λ = {})", self.lambda)
    }

    fn lambda(&self) -> f64 {
        self.lambda
    }

    fn truncation(&self) -> usize {
        self.levels
    }

    fn with_truncation(&self, levels: usize) -> Self {
        Self {
            levels,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_point::{solve, FixedPointOptions};

    #[test]
    fn slice_loop_matches_the_per_level_oracle_bit_for_bit() {
        // The per-level loop `deriv` used before its interior became one
        // slice loop, every level through `s`.
        fn reference_deriv(m: &NoSteal, y: &[f64], dy: &mut [f64]) {
            for i in 1..=m.levels {
                dy[i - 1] = m.lambda * (s(y, i - 1) - s(y, i)) - (s(y, i) - s(y, i + 1));
            }
        }
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        let mut uniform = move || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for levels in 1..=301 {
            let m = NoSteal::new(0.05 + 0.94 * uniform())
                .unwrap()
                .with_truncation(levels);
            for _ in 0..5 {
                let mut y: Vec<f64> = (0..levels).map(|_| uniform()).collect();
                y.sort_by(|a, b| b.total_cmp(a));
                let (mut fast, mut oracle) = (vec![0.0; levels], vec![0.0; levels]);
                m.deriv(0.0, &y, &mut fast);
                reference_deriv(&m, &y, &mut oracle);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&oracle), "L = {levels}");
            }
        }
    }

    #[test]
    fn numeric_fixed_point_matches_mm1() {
        for lambda in [0.3, 0.7, 0.9] {
            let m = NoSteal::new(lambda).unwrap();
            let fp = solve(&m, &FixedPointOptions::default()).unwrap();
            let w = m.closed_form_mean_time();
            assert!(
                (fp.mean_time_in_system - w).abs() < 1e-7,
                "λ = {lambda}: {} vs {w}",
                fp.mean_time_in_system
            );
            // Geometric tails at rate λ.
            for i in 1..6 {
                assert!(
                    (fp.task_tails[i] - lambda.powi(i as i32)).abs() < 1e-8,
                    "λ = {lambda}, i = {i}"
                );
            }
        }
    }

    #[test]
    fn closed_form_tail_is_fixed_point_of_the_ode() {
        let m = NoSteal::new(0.8).unwrap();
        let y = m.closed_form_tails().into_vec();
        let mut dy = vec![0.0; y.len()];
        m.deriv(0.0, &y, &mut dy);
        // Away from the truncation boundary the derivative vanishes.
        for (i, d) in dy.iter().enumerate().take(y.len() - 2) {
            assert!(d.abs() < 1e-12, "ds_{}/dt = {d}", i + 1);
        }
    }

    #[test]
    fn rejects_unstable_rates() {
        assert!(NoSteal::new(1.0).is_err());
        assert!(NoSteal::new(0.0).is_err());
        assert!(NoSteal::new(-0.5).is_err());
        assert!(NoSteal::new(f64::NAN).is_err());
    }

    #[test]
    fn tail_ratio_is_lambda() {
        let m = NoSteal::new(0.6).unwrap();
        let fp = solve(&m, &FixedPointOptions::default()).unwrap();
        let r = fp.tail_ratio().unwrap();
        assert!((r - 0.6).abs() < 1e-4, "ratio {r}");
    }
}
