//! Preemptive stealing — Section 2.4.
//!
//! Rather than waiting until it is empty, a processor starts stealing
//! when its queue drops to `B` tasks: a completion that leaves
//! `j ≤ B` tasks triggers an attempt against a victim holding at least
//! `j + T` tasks. The limiting system:
//!
//! ```text
//! ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1})(1 − s_{i+T−1}),      1 ≤ i ≤ B+1
//! ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1}),                     B+2 ≤ i ≤ T−1
//! ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1})
//!              − (s_i − s_{i+1})(s_1 − s_{min(B+2, i−T+2)}),        i ≥ T
//! ```
//!
//! For `i > B + T` the tails decay geometrically with ratio
//! `λ/(1 + λ − π_{B+2} + ...)` — the paper expresses it via the
//! asymptotic steal pressure `s_1 − s_{B+2}`; we verify the measured
//! ratio against `λ/(1 + λ − π_2')` with `π_2' ≝ π_{B+2}` in the tests.
//! `B = 0` recovers the simple WS model.

use loadsteal_ode::OdeSystem;

use crate::tail::TailVector;

use super::{check_lambda, default_truncation, s, MeanFieldModel};

/// Mean-field model of preemptive stealing with parameters `(B, T)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Preemptive {
    lambda: f64,
    begin_at: usize,
    rel_threshold: usize,
    levels: usize,
}

impl Preemptive {
    /// Create the model for `0 < λ < 1`, steal-start level `B ≥ 0` and
    /// relative threshold `T ≥ 2` with `B + 2 ≤ T` (so the thief and
    /// victim level ranges in the paper's equations do not overlap).
    pub fn new(lambda: f64, begin_at: usize, rel_threshold: usize) -> Result<Self, String> {
        check_lambda(lambda)?;
        if rel_threshold < 2 {
            return Err(format!(
                "relative threshold must be >= 2, got {rel_threshold}"
            ));
        }
        if begin_at + 2 > rel_threshold {
            return Err(format!(
                "need B + 2 <= T (got B = {begin_at}, T = {rel_threshold})"
            ));
        }
        let levels = default_truncation(lambda).max(begin_at + rel_threshold + 8);
        Ok(Self {
            lambda,
            begin_at,
            rel_threshold,
            levels,
        })
    }

    /// `B`: the queue length at which stealing begins.
    pub fn begin_at(&self) -> usize {
        self.begin_at
    }

    /// `T`: the required victim surplus.
    pub fn rel_threshold(&self) -> usize {
        self.rel_threshold
    }

    /// Asymptotic tail ratio `λ / (1 + λ − (π_1 − π_{B+2}))`, where
    /// `π_1 − π_{B+2}` is the total steal pressure felt by deeply loaded
    /// victims. Requires a fixed-point tail vector.
    pub fn asymptotic_tail_ratio(&self, tails: &TailVector) -> f64 {
        let pressure = tails.get(1) - tails.get(self.begin_at + 2);
        self.lambda / (1.0 + pressure)
    }
}

impl OdeSystem for Preemptive {
    fn dim(&self) -> usize {
        self.levels
    }

    fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let lambda = self.lambda;
        let (b, t) = (self.begin_at, self.rel_threshold);
        let s1 = s(y, 1);
        for i in 1..=self.levels {
            let flow = lambda * (s(y, i - 1) - s(y, i));
            let dep = s(y, i) - s(y, i + 1);
            dy[i - 1] = if i <= b + 1 {
                // Dropping from i to i−1 ≤ B triggers an attempt against
                // victims ≥ (i−1)+T = i+T−1; on success the thief's load
                // returns to i, so the departure is thinned by the
                // failure probability.
                flow - dep * (1.0 - s(y, i + t - 1))
            } else if i < t {
                flow - dep
            } else {
                // Victims at level ≥ i are robbed by thieves dropping to
                // level j ≤ min(B, i−T): total pressure
                // s_1 − s_{min(B+2, i−T+2)}.
                let cut = (b + 2).min(i - t + 2);
                flow - dep * (1.0 + (s1 - s(y, cut)))
            };
        }
    }

    fn project(&self, y: &mut [f64]) {
        TailVector::project_slice(y);
    }
}

impl MeanFieldModel for Preemptive {
    fn name(&self) -> String {
        format!(
            "preemptive WS (λ = {}, B = {}, T = {})",
            self.lambda, self.begin_at, self.rel_threshold
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
            levels: levels.max(self.begin_at + self.rel_threshold + 8),
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
    fn b0_t2_reduces_to_simple_ws() {
        let lambda = 0.8;
        let p = Preemptive::new(lambda, 0, 2).unwrap();
        let s = SimpleWs::new(lambda).unwrap();
        let fp_p = solve(&p, &FixedPointOptions::default()).unwrap();
        assert!(
            (fp_p.mean_time_in_system - s.closed_form_mean_time()).abs() < 1e-7,
            "preemptive(0,2) {} vs simple {}",
            fp_p.mean_time_in_system,
            s.closed_form_mean_time()
        );
    }

    #[test]
    fn fixed_point_satisfies_throughput_balance() {
        let m = Preemptive::new(0.9, 1, 3).unwrap();
        let fp = solve(&m, &FixedPointOptions::default()).unwrap();
        assert!(
            (fp.task_tails[1] - 0.9).abs() < 1e-8,
            "π₁ = {}",
            fp.task_tails[1]
        );
    }

    #[test]
    fn tail_ratio_matches_asymptotic_formula() {
        let m = Preemptive::new(0.9, 1, 3).unwrap();
        let fp = solve(&m, &FixedPointOptions::default()).unwrap();
        let tails = TailVector::from_slice(&fp.task_tails[1..]);
        let predicted = m.asymptotic_tail_ratio(&tails);
        let measured = fp.tail_ratio().unwrap();
        assert!(
            (measured - predicted).abs() < 1e-6,
            "measured {measured} vs predicted {predicted}"
        );
    }

    #[test]
    fn preemption_beats_waiting_until_empty() {
        // With the same asymptotic threshold shift, stealing earlier
        // reduces the mean time in system at high load.
        let lambda = 0.95;
        let eager = Preemptive::new(lambda, 1, 3).unwrap();
        let lazy = Preemptive::new(lambda, 0, 3).unwrap();
        let opts = FixedPointOptions::default();
        let we = solve(&eager, &opts).unwrap().mean_time_in_system;
        let wl = solve(&lazy, &opts).unwrap().mean_time_in_system;
        assert!(we < wl, "eager {we} vs lazy {wl}");
    }

    #[test]
    fn rejects_overlapping_ranges() {
        assert!(Preemptive::new(0.5, 1, 2).is_err()); // B+2 > T
        assert!(Preemptive::new(0.5, 0, 1).is_err());
        assert!(Preemptive::new(0.5, 3, 4).is_err());
        assert!(Preemptive::new(0.5, 2, 4).is_ok());
    }
}
