//! Threshold stealing — Section 2.3, equations (4)–(6).
//!
//! A thief only steals from victims holding at least `T` tasks (to make
//! the transfer worth its cost). The limiting system:
//!
//! ```text
//! ds_1/dt = λ(s_0 − s_1) − (s_1 − s_2)(1 − s_T)
//! ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1}),                        2 ≤ i ≤ T−1
//! ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1})(1 + s_1 − s_2),         i ≥ T
//! ```
//!
//! The fixed point is closed form (derived by telescoping the first
//! `T − 1` equations): `π_T = (1 + λ − √((1+λ)² − 4λ^T))/2`,
//! `π_2 = λ(λ − π_T)/(1 − π_T)`, `π_i − π_{i+1} = λ^{i−1}(λ − π_2)` up
//! to `T`, and geometric tails at ratio `λ/(1 + λ − π_2)` beyond `T`.
//! `T = 2` recovers the simple WS model exactly.

use loadsteal_ode::OdeSystem;

use crate::fixed_point::FixedPoint;
use crate::tail::TailVector;

use super::{check_lambda, default_truncation, s, MeanFieldModel};

/// Mean-field model of threshold-`T` work stealing.
///
/// ```
/// use loadsteal_core::models::ThresholdWs;
/// let model = ThresholdWs::new(0.9, 4).unwrap();
/// // Raising the threshold throttles stealing: more waiting than the
/// // steal-whenever-possible policy, but fewer transfers.
/// let aggressive = ThresholdWs::new(0.9, 2).unwrap();
/// assert!(model.closed_form_mean_time() > aggressive.closed_form_mean_time());
/// // Beyond T the tails stay geometric and tighter than λ.
/// assert!(model.rho_prime() < 0.9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdWs {
    lambda: f64,
    threshold: usize,
    levels: usize,
}

impl ThresholdWs {
    /// Create the model for `0 < λ < 1` and threshold `T ≥ 2`.
    pub fn new(lambda: f64, threshold: usize) -> Result<Self, String> {
        check_lambda(lambda)?;
        if threshold < 2 {
            return Err(format!("threshold must be >= 2, got {threshold}"));
        }
        let levels = default_truncation(lambda).max(threshold + 8);
        Ok(Self {
            lambda,
            threshold,
            levels,
        })
    }

    /// The steal threshold `T`.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Closed-form `π_T = (1 + λ − √((1 + λ)² − 4 λ^T)) / 2`.
    pub fn pi_t(&self) -> f64 {
        let l = self.lambda;
        let disc = (1.0 + l) * (1.0 + l) - 4.0 * l.powi(self.threshold as i32);
        0.5 * (1.0 + l - disc.sqrt())
    }

    /// Closed-form `π_2 = λ(λ − π_T)/(1 − π_T)` (from equation (4) at
    /// the fixed point).
    pub fn pi2(&self) -> f64 {
        if self.threshold == 2 {
            return self.pi_t();
        }
        let pt = self.pi_t();
        self.lambda * (self.lambda - pt) / (1.0 - pt)
    }

    /// Geometric tail ratio beyond `T`: `λ / (1 + λ − π_2)`.
    pub fn rho_prime(&self) -> f64 {
        self.lambda / (1.0 + self.lambda - self.pi2())
    }

    /// Closed-form fixed-point tails.
    ///
    /// For `i ≤ T`: `π_i = λ − (λ − π_2)(1 − λ^{i−1})/(1 − λ)`
    /// (telescoped recurrence `π_{i+1} = π_i − λ^{i−1}(λ − π_2)`);
    /// beyond `T`, geometric at [`Self::rho_prime`].
    pub fn closed_form_tails(&self) -> TailVector {
        let l = self.lambda;
        let pi2 = self.pi2();
        let rho = self.rho_prime();
        let mut v = Vec::with_capacity(self.levels);
        v.push(l); // π₁ = λ
        let mut diff = l - pi2; // π_i − π_{i+1} at i = 1
        for _ in 2..=self.threshold.min(self.levels) {
            let next = v.last().unwrap() - diff;
            v.push(next);
            diff *= l;
        }
        let mut cur = *v.last().unwrap();
        while v.len() < self.levels {
            cur *= rho;
            v.push(cur);
        }
        TailVector::from_slice(&v)
    }

    /// Closed-form mean tasks per processor
    /// `L = Σ_{i=1}^{T−1} π_i + π_T/(1 − ρ')`.
    pub fn closed_form_mean_tasks(&self) -> f64 {
        let tails = self.closed_form_tails();
        let head: f64 = (1..self.threshold).map(|i| tails.get(i)).sum();
        head + self.pi_t() / (1.0 - self.rho_prime())
    }

    /// Closed-form mean time in system `W = L/λ`.
    pub fn closed_form_mean_time(&self) -> f64 {
        self.closed_form_mean_tasks() / self.lambda
    }

    /// The closed-form fixed point packaged with its metrics.
    pub fn closed_form_fixed_point(&self) -> FixedPoint {
        let state = self.closed_form_tails().into_vec();
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

impl OdeSystem for ThresholdWs {
    fn dim(&self) -> usize {
        self.levels
    }

    fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let lambda = self.lambda;
        let s1 = s(y, 1);
        let s2 = s(y, 2);
        let st = s(y, self.threshold);
        let steal_rate = s1 - s2;
        dy[0] = lambda * (1.0 - s1) - (s1 - s2) * (1.0 - st);
        for i in 2..=self.levels {
            let flow = lambda * (s(y, i - 1) - s(y, i));
            let dep = s(y, i) - s(y, i + 1);
            dy[i - 1] = if i < self.threshold {
                flow - dep
            } else {
                flow - dep * (1.0 + steal_rate)
            };
        }
    }

    fn project(&self, y: &mut [f64]) {
        TailVector::project_slice(y);
    }
}

impl MeanFieldModel for ThresholdWs {
    fn name(&self) -> String {
        format!("threshold WS (λ = {}, T = {})", self.lambda, self.threshold)
    }

    fn lambda(&self) -> f64 {
        self.lambda
    }

    fn truncation(&self) -> usize {
        self.levels
    }

    fn with_truncation(&self, levels: usize) -> Self {
        Self {
            levels: levels.max(self.threshold + 8),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_point::{solve, FixedPointOptions};
    use crate::models::SimpleWs;

    #[test]
    fn t2_reduces_to_simple_ws() {
        for lambda in [0.5, 0.9] {
            let t = ThresholdWs::new(lambda, 2).unwrap();
            let s = SimpleWs::new(lambda).unwrap();
            assert!((t.pi2() - s.pi2()).abs() < 1e-14);
            assert!((t.closed_form_mean_time() - s.closed_form_mean_time()).abs() < 1e-12);
        }
    }

    #[test]
    fn closed_form_is_a_fixed_point() {
        for threshold in [2, 3, 5, 8] {
            for lambda in [0.5, 0.9] {
                let m = ThresholdWs::new(lambda, threshold).unwrap();
                let fp = m.closed_form_fixed_point();
                assert!(
                    fp.residual < 1e-12,
                    "λ = {lambda}, T = {threshold}: residual {}",
                    fp.residual
                );
            }
        }
    }

    #[test]
    fn numeric_matches_closed_form() {
        for threshold in [3, 4] {
            for lambda in [0.6, 0.9] {
                let m = ThresholdWs::new(lambda, threshold).unwrap();
                let fp = solve(&m, &FixedPointOptions::default()).unwrap();
                let exact = m.closed_form_mean_time();
                assert!(
                    (fp.mean_time_in_system - exact).abs() < 1e-7,
                    "λ = {lambda}, T = {threshold}: {} vs {exact}",
                    fp.mean_time_in_system
                );
            }
        }
    }

    #[test]
    fn telescoped_sum_condition_holds() {
        // Σ_{i=1}^{T−1} dπ_i/dt = 0 collapses to
        // λ(1 − π_{T−1}) − (λ − π_T) + (λ − π_2) π_T = 0.
        let m = ThresholdWs::new(0.8, 5).unwrap();
        let t = m.closed_form_tails();
        let lhs = 0.8 * (1.0 - t.get(4)) - (0.8 - t.get(5)) + (0.8 - t.get(2)) * t.get(5);
        assert!(lhs.abs() < 1e-12, "sum condition residual {lhs}");
    }

    #[test]
    fn higher_threshold_means_fewer_steals_but_bounded_tails() {
        // π_T decreases in T; the tail ratio stays below λ (stealing
        // still beats no stealing beyond the threshold).
        let lambda = 0.9;
        let mut last_pit = f64::INFINITY;
        for t in 2..7 {
            let m = ThresholdWs::new(lambda, t).unwrap();
            assert!(m.pi_t() < last_pit);
            last_pit = m.pi_t();
            assert!(m.rho_prime() < lambda);
        }
    }

    #[test]
    fn tails_below_threshold_match_recurrence() {
        let m = ThresholdWs::new(0.7, 6).unwrap();
        let t = m.closed_form_tails();
        // π_{i+1} = π_i − λ^{i−1}(λ − π_2) for i < T.
        for i in 1..5usize {
            let expect = t.get(i) - 0.7f64.powi(i as i32 - 1) * (0.7 - m.pi2());
            assert!((t.get(i + 1) - expect).abs() < 1e-12, "i = {i}");
        }
    }

    #[test]
    fn rejects_threshold_below_two() {
        assert!(ThresholdWs::new(0.5, 1).is_err());
        assert!(ThresholdWs::new(0.5, 0).is_err());
    }
}
