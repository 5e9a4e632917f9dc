//! The simple work-stealing model — Section 2.2, equations (2)–(3).
//!
//! A processor that completes its final task attempts to steal one task
//! from the tail of a uniformly random victim; the steal succeeds iff
//! the victim holds at least two tasks. In the mean field:
//!
//! ```text
//! ds_1/dt = λ(s_0 − s_1) − (s_1 − s_2)(1 − s_2)
//! ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1})(1 + s_1 − s_2),   i ≥ 2
//! ```
//!
//! The fixed point is known in closed form (`π_1 = λ`,
//! `π_2 = (1 + λ − √(1 + 2λ − 3λ²))/2`, then geometric with ratio
//! `ρ' = λ/(1 + λ − π_2)`), which is what the paper's Table 1
//! "Estimate" column reports via the mean time in system.

use loadsteal_ode::OdeSystem;

use crate::fixed_point::FixedPoint;
use crate::tail::TailVector;

use super::{check_lambda, default_truncation, s, MeanFieldModel};

/// Mean-field model of the paper's simple WS algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct SimpleWs {
    lambda: f64,
    levels: usize,
}

impl SimpleWs {
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

    /// Closed-form `π_2 = (1 + λ − √(1 + 2λ − 3λ²)) / 2`, the fraction
    /// of processors with at least two tasks at the fixed point.
    pub fn pi2(&self) -> f64 {
        let l = self.lambda;
        let disc = (1.0 + l) * (1.0 + l) - 4.0 * l * l; // = 1 + 2λ − 3λ²
        0.5 * (1.0 + l - disc.sqrt())
    }

    /// The geometric tail ratio `ρ' = λ / (1 + λ − π_2)`.
    ///
    /// The denominator is the *apparent service rate*: the real rate 1
    /// plus the steal rate `π_1 − π_2 = λ − π_2` experienced by loaded
    /// processors. Strictly less than λ, so stealing tightens the tails.
    pub fn rho_prime(&self) -> f64 {
        self.lambda / (1.0 + self.lambda - self.pi2())
    }

    /// Closed-form fixed point tail: `π_1 = λ`,
    /// `π_i = π_2 ρ'^{i−2}` for `i ≥ 2`.
    pub fn closed_form_tails(&self) -> TailVector {
        let pi2 = self.pi2();
        let rho = self.rho_prime();
        let mut v = Vec::with_capacity(self.levels);
        v.push(self.lambda);
        let mut cur = pi2;
        for _ in 1..self.levels {
            v.push(cur);
            cur *= rho;
        }
        TailVector::from_slice(&v)
    }

    /// Closed-form mean tasks per processor
    /// `L = λ + π_2 / (1 − ρ')`.
    pub fn closed_form_mean_tasks(&self) -> f64 {
        self.lambda + self.pi2() / (1.0 - self.rho_prime())
    }

    /// Closed-form mean time in system `W = L / λ` (the paper's Table 1
    /// "Estimate" column).
    pub fn closed_form_mean_time(&self) -> f64 {
        self.closed_form_mean_tasks() / self.lambda
    }

    /// The closed-form fixed point packaged with its metrics.
    pub fn closed_form_fixed_point(&self) -> FixedPoint {
        let tails = self.closed_form_tails();
        let state = tails.clone().into_vec();
        let mut dy = vec![0.0; state.len()];
        self.deriv(0.0, &state, &mut dy);
        let residual = dy.iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
        FixedPoint {
            residual,
            polished: true,
            mean_tasks: self.closed_form_mean_tasks(),
            mean_time_in_system: self.closed_form_mean_time(),
            task_tails: std::iter::once(1.0).chain(state.iter().copied()).collect(),
            truncation: self.levels,
            state,
        }
    }
}

impl OdeSystem for SimpleWs {
    fn dim(&self) -> usize {
        self.levels
    }

    fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let lambda = self.lambda;
        let s1 = s(y, 1);
        let s2 = s(y, 2);
        // Rate at which thieves appear = rate processors complete their
        // final task.
        let steal_rate = s1 - s2;
        dy[0] = lambda * (1.0 - s1) - (s1 - s2) * (1.0 - s2);
        for i in 2..=self.levels {
            dy[i - 1] =
                lambda * (s(y, i - 1) - s(y, i)) - (s(y, i) - s(y, i + 1)) * (1.0 + steal_rate);
        }
    }

    fn project(&self, y: &mut [f64]) {
        TailVector::project_slice(y);
    }
}

impl MeanFieldModel for SimpleWs {
    fn name(&self) -> String {
        format!("simple WS (λ = {})", self.lambda)
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

    /// The paper's Table 1 "Estimate" column.
    const TABLE1_ESTIMATES: &[(f64, f64)] = &[
        (0.50, 1.618),
        (0.70, 2.107),
        (0.80, 2.562),
        (0.90, 3.541),
        (0.95, 4.887),
        (0.99, 10.462),
    ];

    #[test]
    fn closed_form_reproduces_table1_estimates() {
        for &(lambda, expect) in TABLE1_ESTIMATES {
            let m = SimpleWs::new(lambda).unwrap();
            let w = m.closed_form_mean_time();
            assert!(
                (w - expect).abs() < 5e-3,
                "λ = {lambda}: computed {w}, paper {expect}"
            );
        }
    }

    #[test]
    fn numeric_solve_matches_closed_form() {
        for lambda in [0.5, 0.8, 0.95] {
            let m = SimpleWs::new(lambda).unwrap();
            let fp = solve(&m, &FixedPointOptions::default()).unwrap();
            let exact = m.closed_form_mean_time();
            assert!(
                (fp.mean_time_in_system - exact).abs() < 1e-7,
                "λ = {lambda}: numeric {} vs exact {exact}",
                fp.mean_time_in_system
            );
        }
    }

    #[test]
    fn closed_form_is_a_fixed_point_of_the_equations() {
        for lambda in [0.3, 0.6, 0.9, 0.99] {
            let m = SimpleWs::new(lambda).unwrap();
            let fp = m.closed_form_fixed_point();
            assert!(
                fp.residual < 1e-12,
                "λ = {lambda}: residual {}",
                fp.residual
            );
        }
    }

    #[test]
    fn pi1_is_lambda_at_fixed_point() {
        // Throughput balance: the fraction of busy processors equals λ.
        let m = SimpleWs::new(0.85).unwrap();
        let fp = solve(&m, &FixedPointOptions::default()).unwrap();
        assert!((fp.task_tails[1] - 0.85).abs() < 1e-9);
    }

    #[test]
    fn tails_decay_faster_than_without_stealing() {
        for lambda in [0.5, 0.9, 0.99] {
            let m = SimpleWs::new(lambda).unwrap();
            assert!(
                m.rho_prime() < lambda,
                "λ = {lambda}: ρ' = {} must beat λ",
                m.rho_prime()
            );
        }
    }

    #[test]
    fn numeric_tail_ratio_matches_rho_prime() {
        let m = SimpleWs::new(0.9).unwrap();
        let fp = solve(&m, &FixedPointOptions::default()).unwrap();
        let ratio = fp.tail_ratio().unwrap();
        assert!(
            (ratio - m.rho_prime()).abs() < 1e-6,
            "measured {ratio} vs ρ' = {}",
            m.rho_prime()
        );
    }

    #[test]
    fn apparent_service_interpretation() {
        // ρ' = λ/μ' with μ' = 1 + (π_1 − π_2) = 1 + steal rate.
        let m = SimpleWs::new(0.7).unwrap();
        let mu_prime = 1.0 + (0.7 - m.pi2());
        assert!((m.rho_prime() - 0.7 / mu_prime).abs() < 1e-14);
    }

    #[test]
    fn pi2_bounds() {
        // 0 < π₂ < π₁ = λ for all admissible λ.
        for lambda in [0.05, 0.5, 0.95, 0.999] {
            let m = SimpleWs::new(lambda).unwrap();
            let p = m.pi2();
            assert!(p > 0.0 && p < lambda, "λ = {lambda}, π₂ = {p}");
        }
    }

    #[test]
    fn mean_time_beats_mm1() {
        for lambda in [0.5, 0.9] {
            let ws = SimpleWs::new(lambda).unwrap().closed_form_mean_time();
            let mm1 = 1.0 / (1.0 - lambda);
            assert!(ws < mm1, "λ = {lambda}: WS {ws} vs M/M/1 {mm1}");
        }
    }
}
