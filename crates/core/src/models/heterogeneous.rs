//! Heterogeneous processor speeds — Section 3.5.
//!
//! Two processor classes, "fast" (fraction `α`, service rate `μ_f`) and
//! "slow" (fraction `1 − α`, rate `μ_s`), each with its own state
//! vector; both receive Poisson(λ) arrivals and run the simple stealing
//! policy with threshold `T` against victims drawn uniformly over *all*
//! processors. Writing `f_i`/`g_i` for the fraction of all processors
//! that are fast/slow with at least `i` tasks (`f_0 = α`,
//! `g_0 = 1 − α`):
//!
//! ```text
//! df_1/dt = λ(f_0 − f_1) − μ_f (f_1 − f_2)(1 − f_T − g_T)
//! df_i/dt = λ(f_{i−1} − f_i) − μ_f (f_i − f_{i+1}),                  2 ≤ i ≤ T−1
//! df_i/dt = λ(f_{i−1} − f_i) − μ_f (f_i − f_{i+1}) − A (f_i − f_{i+1}),   i ≥ T
//! ```
//!
//! (symmetrically for `g`), where
//! `A = μ_f (f_1 − f_2) + μ_s (g_1 − g_2)` is the total rate at which
//! thieves appear. Stability requires the aggregate capacity to cover
//! the load: `λ < α μ_f + (1 − α) μ_s` is necessary; stealing couples
//! the classes so slow processors can even handle `λ > μ_s`.

use loadsteal_ode::jacobian::BlockLayout;
use loadsteal_ode::OdeSystem;

use super::MeanFieldModel;

/// Mean-field model of two-speed-class work stealing.
#[derive(Debug, Clone, PartialEq)]
pub struct Heterogeneous {
    lambda: f64,
    fast_fraction: f64,
    fast_rate: f64,
    slow_rate: f64,
    threshold: usize,
    levels: usize,
}

impl Heterogeneous {
    /// Create the model: arrival rate `λ > 0`, fraction `α ∈ (0, 1)` of
    /// fast processors with service rate `μ_f`, slow rate `μ_s`,
    /// threshold `T ≥ 2`. Requires spare aggregate capacity
    /// `λ < α μ_f + (1 − α) μ_s`.
    pub fn new(
        lambda: f64,
        fast_fraction: f64,
        fast_rate: f64,
        slow_rate: f64,
        threshold: usize,
    ) -> Result<Self, String> {
        if !(lambda > 0.0 && lambda.is_finite()) {
            return Err(format!("arrival rate must be positive, got {lambda}"));
        }
        if !(0.0 < fast_fraction && fast_fraction < 1.0) {
            return Err(format!(
                "fast fraction must be in (0, 1), got {fast_fraction}"
            ));
        }
        if !(fast_rate > 0.0 && slow_rate > 0.0) {
            return Err("service rates must be positive".into());
        }
        if threshold < 2 {
            return Err(format!("threshold must be >= 2, got {threshold}"));
        }
        let capacity = fast_fraction * fast_rate + (1.0 - fast_fraction) * slow_rate;
        if lambda >= capacity {
            return Err(format!(
                "unstable: λ = {lambda} >= aggregate capacity {capacity}"
            ));
        }
        // Tail decay is at worst governed by the slow class utilization
        // λ/μ_s; if that reaches 1, stealing carries the surplus and the
        // tails still decay, so fall back to the aggregate utilization
        // (the solver grows the truncation if mass still reaches it).
        let aggregate = lambda / capacity;
        let ratio = if lambda < slow_rate {
            (lambda / slow_rate).max(aggregate)
        } else {
            aggregate
        };
        let levels = crate::tail::truncation_for_ratio(ratio, 1e-14, 32, 8_192).max(threshold + 8);
        Ok(Self {
            lambda,
            fast_fraction,
            fast_rate,
            slow_rate,
            threshold,
            levels,
        })
    }

    /// Fraction of fast processors `α`.
    pub fn fast_fraction(&self) -> f64 {
        self.fast_fraction
    }

    /// Fast/slow service rates `(μ_f, μ_s)`.
    pub fn rates(&self) -> (f64, f64) {
        (self.fast_rate, self.slow_rate)
    }

    // State layout: y = [f_1 … f_L, g_1 … g_L];
    // f_0 = α and g_0 = 1 − α implicit.

    #[inline]
    fn f(&self, y: &[f64], i: usize) -> f64 {
        if i == 0 {
            self.fast_fraction
        } else if i <= self.levels {
            y[i - 1]
        } else {
            0.0
        }
    }

    #[inline]
    fn g(&self, y: &[f64], i: usize) -> f64 {
        if i == 0 {
            1.0 - self.fast_fraction
        } else if i <= self.levels {
            y[self.levels + i - 1]
        } else {
            0.0
        }
    }

    /// Per-class tail fractions `(fast, slow)`, each normalized by its
    /// own class size so `result[0] = 1`.
    pub fn class_tails(&self, y: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let fast: Vec<f64> = (0..=self.levels)
            .map(|i| self.f(y, i) / self.fast_fraction)
            .collect();
        let slow: Vec<f64> = (0..=self.levels)
            .map(|i| self.g(y, i) / (1.0 - self.fast_fraction))
            .collect();
        (fast, slow)
    }
}

impl OdeSystem for Heterogeneous {
    fn dim(&self) -> usize {
        2 * self.levels
    }

    fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let (lambda, t) = (self.lambda, self.threshold);
        let (mf, ms) = (self.fast_rate, self.slow_rate);
        let thief_rate = mf * (self.f(y, 1) - self.f(y, 2)) + ms * (self.g(y, 1) - self.g(y, 2));
        let success = self.f(y, t) + self.g(y, t);
        for i in 1..=self.levels {
            // Fast class.
            let flow = lambda * (self.f(y, i - 1) - self.f(y, i));
            let dep = mf * (self.f(y, i) - self.f(y, i + 1));
            dy[i - 1] = if i == 1 {
                flow - dep * (1.0 - success)
            } else if i < t {
                flow - dep
            } else {
                flow - dep - thief_rate * (self.f(y, i) - self.f(y, i + 1))
            };
            // Slow class.
            let flow = lambda * (self.g(y, i - 1) - self.g(y, i));
            let dep = ms * (self.g(y, i) - self.g(y, i + 1));
            dy[self.levels + i - 1] = if i == 1 {
                flow - dep * (1.0 - success)
            } else if i < t {
                flow - dep
            } else {
                flow - dep - thief_rate * (self.g(y, i) - self.g(y, i + 1))
            };
        }
    }

    fn project(&self, y: &mut [f64]) {
        let (f_block, g_block) = y.split_at_mut(self.levels);
        let mut prev = self.fast_fraction;
        for v in f_block.iter_mut() {
            *v = v.clamp(0.0, prev);
            prev = *v;
        }
        let mut prev = 1.0 - self.fast_fraction;
        for v in g_block.iter_mut() {
            *v = v.clamp(0.0, prev);
            prev = *v;
        }
    }
}

impl MeanFieldModel for Heterogeneous {
    fn name(&self) -> String {
        format!(
            "heterogeneous WS (λ = {}, α = {}, μ_f = {}, μ_s = {}, T = {})",
            self.lambda, self.fast_fraction, self.fast_rate, self.slow_rate, self.threshold
        )
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

    fn empty_state(&self) -> Vec<f64> {
        vec![0.0; 2 * self.levels]
    }

    fn task_tails(&self, y: &[f64]) -> Vec<f64> {
        let mut tails = vec![1.0];
        for i in 1..=self.levels {
            tails.push(self.f(y, i) + self.g(y, i));
        }
        tails
    }

    fn boundary_mass(&self, y: &[f64]) -> f64 {
        self.f(y, self.levels).max(self.g(y, self.levels))
    }

    fn block_layout(&self) -> BlockLayout {
        BlockLayout { head: 0, blocks: 2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_point::{solve, FixedPointOptions};
    use crate::models::SimpleWs;

    fn opts() -> FixedPointOptions {
        FixedPointOptions::default()
    }

    #[test]
    fn equal_speeds_reduce_to_simple_ws() {
        let lambda = 0.8;
        let m = Heterogeneous::new(lambda, 0.5, 1.0, 1.0, 2).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        let exact = SimpleWs::new(lambda).unwrap().closed_form_mean_time();
        assert!(
            (fp.mean_time_in_system - exact).abs() < 1e-6,
            "{} vs {exact}",
            fp.mean_time_in_system
        );
    }

    #[test]
    fn throughput_balance_holds() {
        // μ_f f₁ + μ_s g₁ = λ at the fixed point.
        let m = Heterogeneous::new(0.9, 0.25, 2.0, 0.8, 2).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        let m = m.with_truncation(fp.truncation);
        let f1 = fp.state[0];
        let g1 = fp.state[m.truncation()];
        let throughput = 2.0 * f1 + 0.8 * g1;
        assert!((throughput - 0.9).abs() < 1e-7, "throughput {throughput}");
    }

    #[test]
    fn slow_class_can_exceed_its_own_capacity() {
        // λ = 0.9 > μ_s = 0.8: without stealing the slow class diverges;
        // with stealing the coupled system is stable and solvable.
        let m = Heterogeneous::new(0.9, 0.5, 1.5, 0.8, 2).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        assert!(fp.mean_time_in_system.is_finite());
        assert!(fp.task_tails[1] < 1.0);
    }

    #[test]
    fn slow_processors_hold_more_load() {
        let m = Heterogeneous::new(0.8, 0.5, 2.0, 0.6, 2).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        let m = m.with_truncation(fp.truncation);
        let (fast, slow) = m.class_tails(&fp.state);
        assert!(
            slow[1] > fast[1],
            "slow busy fraction {} should exceed fast {}",
            slow[1],
            fast[1]
        );
    }

    #[test]
    fn rejects_inconsistent_parameters() {
        assert!(Heterogeneous::new(0.9, 0.0, 1.0, 1.0, 2).is_err());
        assert!(Heterogeneous::new(0.9, 0.5, 1.0, 1.0, 1).is_err());
        // aggregate capacity 0.5·0.6 + 0.5·0.6 = 0.6 < λ
        assert!(Heterogeneous::new(0.9, 0.5, 0.6, 0.6, 2).is_err());
    }
}
