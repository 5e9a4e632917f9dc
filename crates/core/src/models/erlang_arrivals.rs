//! Erlang's method of stages on the *arrival* process — Section 3.1's
//! other half.
//!
//! The paper notes the staging trick works for arrival distributions
//! too: replace the Poisson process with `c` exponential phases of rate
//! `cλ` each, so inter-arrival times are Erlang-c with mean `1/λ`
//! (`c → ∞` gives perfectly regular, constant-spaced arrivals). The
//! state carries the arrival phase: `s^a_i` = fraction of processors in
//! arrival phase `a ∈ {0, …, c−1}` holding at least `i` tasks. Phase
//! masses stay uniform (`s^a_0 = 1/c`) from a uniform start, so only
//! the queue tails evolve:
//!
//! ```text
//! ds^a_i/dt = cλ(s^{a−1}_i − s^a_i)                       (phase advance, a ≥ 1)
//! ds^0_i/dt = cλ(s^{c−1}_{i−1} − s^0_i)                   (wrap = an arrival)
//!             − (s^a_i − s^a_{i+1})·[service/steal terms as in the
//!                threshold model, with s_m ≝ Σ_b s^b_m]
//! ```
//!
//! Stealing is the on-empty threshold-`T` policy; victims are chosen
//! over all processors so the steal terms couple the phases only through
//! the aggregated tails.

use loadsteal_ode::jacobian::BlockLayout;
use loadsteal_ode::OdeSystem;

use super::{check_lambda, default_truncation, MeanFieldModel};

/// Mean-field model of threshold stealing under Erlang-`c` arrivals.
#[derive(Debug, Clone, PartialEq)]
pub struct ErlangArrivals {
    lambda: f64,
    phases: usize,
    threshold: usize,
    levels: usize,
}

impl ErlangArrivals {
    /// Create the model for `0 < λ < 1`, `c ≥ 1` arrival phases, and
    /// victim threshold `T ≥ 2`.
    pub fn new(lambda: f64, phases: usize, threshold: usize) -> Result<Self, String> {
        check_lambda(lambda)?;
        if phases == 0 {
            return Err("need at least one arrival phase".into());
        }
        if threshold < 2 {
            return Err(format!("threshold must be >= 2, got {threshold}"));
        }
        let levels = default_truncation(lambda).max(threshold + 8);
        Ok(Self {
            lambda,
            phases,
            threshold,
            levels,
        })
    }

    /// The number of arrival phases `c`.
    pub fn phases(&self) -> usize {
        self.phases
    }

    /// The victim threshold `T`.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// The matching simulator inter-arrival distribution (Erlang-`c`
    /// with mean `1/λ`).
    pub fn sim_arrival_distribution(&self) -> loadsteal_queueing::ServiceDistribution {
        loadsteal_queueing::ServiceDistribution::Erlang {
            stages: self.phases as u32,
            rate: self.phases as f64 * self.lambda,
        }
    }

    // State layout: y[a * levels + (i − 1)] = s^a_i; s^a_0 ≡ 1/c.

    #[inline]
    fn sp(&self, y: &[f64], a: usize, i: usize) -> f64 {
        if i == 0 {
            1.0 / self.phases as f64
        } else if i <= self.levels {
            y[a * self.levels + i - 1]
        } else {
            0.0
        }
    }

    /// Aggregated tail `s_i = Σ_a s^a_i`.
    #[inline]
    fn agg(&self, y: &[f64], i: usize) -> f64 {
        if i == 0 {
            1.0
        } else if i > self.levels {
            0.0
        } else {
            (0..self.phases).map(|a| self.sp(y, a, i)).sum()
        }
    }
}

impl OdeSystem for ErlangArrivals {
    fn dim(&self) -> usize {
        self.phases * self.levels
    }

    fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let c = self.phases;
        let rate = c as f64 * self.lambda;
        let t = self.threshold;
        let thief_rate: f64 = (0..c).map(|a| self.sp(y, a, 1) - self.sp(y, a, 2)).sum();
        let success = self.agg(y, t);
        for a in 0..c {
            let prev = if a == 0 { c - 1 } else { a - 1 };
            for i in 1..=self.levels {
                // Phase advance; the wrap from the last phase delivers a
                // task, lifting ≥ i−1 to ≥ i.
                let inflow = if a == 0 {
                    rate * self.sp(y, prev, i - 1)
                } else {
                    rate * self.sp(y, prev, i)
                };
                let phase_flow = inflow - rate * self.sp(y, a, i);
                let dep = self.sp(y, a, i) - self.sp(y, a, i + 1);
                let service = if i == 1 {
                    dep * (1.0 - success)
                } else if i < t {
                    dep
                } else {
                    dep * (1.0 + thief_rate)
                };
                dy[a * self.levels + i - 1] = phase_flow - service;
            }
        }
    }

    fn project(&self, y: &mut [f64]) {
        let cap = 1.0 / self.phases as f64;
        for a in 0..self.phases {
            let block = &mut y[a * self.levels..(a + 1) * self.levels];
            let mut prev = cap;
            for v in block.iter_mut() {
                *v = v.clamp(0.0, prev);
                prev = *v;
            }
        }
    }
}

impl MeanFieldModel for ErlangArrivals {
    fn name(&self) -> String {
        format!(
            "erlang-arrival WS (λ = {}, c = {} phases, T = {})",
            self.lambda, self.phases, self.threshold
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
        // Empty queues, phases uniform (which the dynamics preserve).
        vec![0.0; self.phases * self.levels]
    }

    fn task_tails(&self, y: &[f64]) -> Vec<f64> {
        (0..=self.levels).map(|i| self.agg(y, i)).collect()
    }

    fn boundary_mass(&self, y: &[f64]) -> f64 {
        self.agg(y, self.levels)
    }

    fn block_layout(&self) -> BlockLayout {
        BlockLayout {
            head: 0,
            blocks: self.phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_point::{solve, FixedPointOptions};
    use crate::models::{SimpleWs, ThresholdWs};

    fn opts() -> FixedPointOptions {
        FixedPointOptions::default()
    }

    #[test]
    fn one_phase_is_poisson() {
        let lambda = 0.8;
        let m = ErlangArrivals::new(lambda, 1, 2).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        let exact = SimpleWs::new(lambda).unwrap().closed_form_mean_time();
        assert!(
            (fp.mean_time_in_system - exact).abs() < 1e-6,
            "c = 1: {} vs {exact}",
            fp.mean_time_in_system
        );
    }

    #[test]
    fn one_phase_matches_threshold_model_too() {
        let lambda = 0.9;
        let m = ErlangArrivals::new(lambda, 1, 4).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        let exact = ThresholdWs::new(lambda, 4).unwrap().closed_form_mean_time();
        assert!((fp.mean_time_in_system - exact).abs() < 1e-6);
    }

    #[test]
    fn throughput_balance_holds() {
        let m = ErlangArrivals::new(0.8, 5, 2).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        assert!(
            (fp.task_tails[1] - 0.8).abs() < 1e-7,
            "s₁ = {}",
            fp.task_tails[1]
        );
    }

    #[test]
    fn regular_arrivals_beat_poisson() {
        // Less arrival variability → shorter times (the E_k/M/1 analogue
        // of Table 2's service-side result).
        let lambda = 0.9;
        let poisson = SimpleWs::new(lambda).unwrap().closed_form_mean_time();
        let regular = solve(&ErlangArrivals::new(lambda, 10, 2).unwrap(), &opts())
            .unwrap()
            .mean_time_in_system;
        assert!(
            regular < poisson,
            "Erlang-10 arrivals {regular} vs Poisson {poisson}"
        );
    }

    #[test]
    fn more_phases_help_monotonically() {
        let lambda = 0.9;
        let mut last = f64::INFINITY;
        for c in [1usize, 2, 5, 10] {
            let w = solve(&ErlangArrivals::new(lambda, c, 2).unwrap(), &opts())
                .unwrap()
                .mean_time_in_system;
            assert!(w < last + 1e-9, "c = {c}: {w} !< {last}");
            last = w;
        }
    }

    #[test]
    fn sim_distribution_is_consistent() {
        let m = ErlangArrivals::new(0.7, 8, 2).unwrap();
        let d = m.sim_arrival_distribution();
        assert!((d.mean() - 1.0 / 0.7).abs() < 1e-12);
        assert!((d.scv() - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(ErlangArrivals::new(0.5, 0, 2).is_err());
        assert!(ErlangArrivals::new(0.5, 4, 1).is_err());
        assert!(ErlangArrivals::new(1.1, 4, 2).is_err());
    }
}
