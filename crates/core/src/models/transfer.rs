//! Transfer times — Section 3.2.
//!
//! Stolen tasks are no longer teleported: a successful steal removes the
//! task from the victim immediately, but it reaches the thief only after
//! an exponential transfer delay of mean `1/r`. A thief with a task in
//! flight does not steal again (at most one outstanding steal), although
//! it can still be a victim. The state doubles: `s_i` counts processors
//! *not* awaiting a transfer with ≥ i tasks, `w_i` counts awaiting ones.
//!
//! ```text
//! ds_0/dt = r w_0 − (s_1 − s_2)(s_T + w_T)
//! ds_i/dt = λ(s_{i−1} − s_i) + r w_{i−1} − (s_i − s_{i+1}),             1 ≤ i ≤ T−1
//! ds_i/dt = λ(s_{i−1} − s_i) + r w_{i−1} − (s_i − s_{i+1})(1 + s_1 − s_2),   i ≥ T
//! dw_0/dt = −r w_0 + (s_1 − s_2)(s_T + w_T)
//! dw_i/dt = λ(w_{i−1} − w_i) − r w_i − (w_i − w_{i+1}),                 1 ≤ i ≤ T−1
//! dw_i/dt = λ(w_{i−1} − w_i) − r w_i − (w_i − w_{i+1})(1 + s_1 − s_2),  i ≥ T
//! ```
//!
//! `w_0 = 1 − s_0` is eliminated from the numeric state (it is conserved
//! by the dynamics, and keeping it would make the fixed-point Jacobian
//! singular). The mean number of tasks per processor counts the tasks in
//! transit: `L = Σ_{i≥1}(s_i + w_i) + w_0`.

use loadsteal_ode::jacobian::BlockLayout;
use loadsteal_ode::OdeSystem;

use super::{check_lambda, default_truncation, MeanFieldModel};

/// Mean-field model of threshold stealing with transfer delays.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferWs {
    lambda: f64,
    rate: f64,
    threshold: usize,
    levels: usize,
}

impl TransferWs {
    /// Create the model for `0 < λ < 1`, transfer rate `r > 0` (mean
    /// transfer time `1/r`), threshold `T ≥ 2`.
    pub fn new(lambda: f64, rate: f64, threshold: usize) -> Result<Self, String> {
        check_lambda(lambda)?;
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(format!(
                "transfer rate must be positive and finite, got {rate}"
            ));
        }
        if threshold < 2 {
            return Err(format!("threshold must be >= 2, got {threshold}"));
        }
        let levels = default_truncation(lambda).max(threshold + 8);
        Ok(Self {
            lambda,
            rate,
            threshold,
            levels,
        })
    }

    /// The transfer rate `r`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The victim threshold `T`.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    // State layout: y = [s_0, s_1 … s_L, w_1 … w_L]; w_0 = 1 − s_0.

    #[inline]
    fn s(&self, y: &[f64], i: usize) -> f64 {
        if i <= self.levels {
            y[i]
        } else {
            0.0
        }
    }

    #[inline]
    fn w(&self, y: &[f64], i: usize) -> f64 {
        if i == 0 {
            1.0 - y[0]
        } else if i <= self.levels {
            y[self.levels + i]
        } else {
            0.0
        }
    }
}

impl OdeSystem for TransferWs {
    fn dim(&self) -> usize {
        2 * self.levels + 1
    }

    // Loop variables are occupancy levels i as in the paper's equations.
    #[allow(clippy::needless_range_loop)]
    fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let (lambda, r, t) = (self.lambda, self.rate, self.threshold);
        let s1 = self.s(y, 1);
        let s2 = self.s(y, 2);
        let thief_rate = s1 - s2;
        let success = self.s(y, t) + self.w(y, t);
        // s_0
        dy[0] = r * self.w(y, 0) - thief_rate * success;
        // s_i
        for i in 1..=self.levels {
            let flow = lambda * (self.s(y, i - 1) - self.s(y, i)) + r * self.w(y, i - 1);
            let dep = self.s(y, i) - self.s(y, i + 1);
            dy[i] = if i < t {
                flow - dep
            } else {
                flow - dep * (1.0 + thief_rate)
            };
        }
        // w_i (i ≥ 1; w_0 is implicit)
        for i in 1..=self.levels {
            let flow = lambda * (self.w(y, i - 1) - self.w(y, i)) - r * self.w(y, i);
            let dep = self.w(y, i) - self.w(y, i + 1);
            dy[self.levels + i] = if i < t {
                flow - dep
            } else {
                flow - dep * (1.0 + thief_rate)
            };
        }
    }

    fn project(&self, y: &mut [f64]) {
        // s-block: s_0 ∈ [0, 1], then non-increasing.
        let mut prev = 1.0_f64;
        for v in y[..=self.levels].iter_mut() {
            *v = v.clamp(0.0, prev);
            prev = *v;
        }
        // w-block: bounded by w_0 = 1 − s_0, then non-increasing.
        let mut prev = 1.0 - y[0];
        for v in y[self.levels + 1..].iter_mut() {
            *v = v.clamp(0.0, prev);
            prev = *v;
        }
    }
}

impl MeanFieldModel for TransferWs {
    fn name(&self) -> String {
        format!(
            "transfer WS (λ = {}, r = {}, T = {})",
            self.lambda, self.rate, self.threshold
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
        let mut y = vec![0.0; 2 * self.levels + 1];
        y[0] = 1.0; // everyone idle, nobody awaiting a transfer
        y
    }

    /// `L = Σ_{i≥1}(s_i + w_i) + w_0` — the `w_0` term counts the tasks
    /// in transit (each awaiting processor has exactly one).
    fn mean_tasks(&self, y: &[f64]) -> f64 {
        let queued: f64 = y[1..].iter().rev().sum();
        queued + self.w(y, 0)
    }

    fn task_tails(&self, y: &[f64]) -> Vec<f64> {
        // Folded over the waiting split: fraction with ≥ i queued tasks.
        let mut tails = vec![1.0];
        for i in 1..=self.levels {
            tails.push(self.s(y, i) + self.w(y, i));
        }
        tails
    }

    fn boundary_mass(&self, y: &[f64]) -> f64 {
        self.s(y, self.levels).max(self.w(y, self.levels))
    }

    fn block_layout(&self) -> BlockLayout {
        BlockLayout { head: 1, blocks: 2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_point::{solve, FixedPointOptions};
    use crate::models::ThresholdWs;

    fn opts() -> FixedPointOptions {
        FixedPointOptions::default()
    }

    #[test]
    fn throughput_balance_holds() {
        // At the fixed point s_1 + w_1 = λ (busy fraction = arrival rate).
        let m = TransferWs::new(0.8, 0.25, 4).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        let busy = fp.task_tails[1];
        assert!((busy - 0.8).abs() < 1e-7, "busy fraction {busy}");
    }

    #[test]
    fn population_split_is_conserved() {
        // s_0 + w_0 = 1 by construction; check s_0 stays in (0, 1).
        let m = TransferWs::new(0.9, 0.25, 4).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        let s0 = fp.state[0];
        assert!(s0 > 0.0 && s0 < 1.0, "s₀ = {s0}");
    }

    #[test]
    fn reproduces_table3_estimates() {
        // Table 3 (r = 0.25): selected cells.
        for &(lambda, t, expect) in &[
            (0.50, 4, 1.950),
            (0.70, 4, 2.938),
            (0.90, 4, 7.015),
            (0.50, 3, 1.985),
            (0.90, 6, 7.026),
        ] {
            let m = TransferWs::new(lambda, 0.25, t).unwrap();
            let w = solve(&m, &opts()).unwrap().mean_time_in_system;
            assert!(
                (w - expect).abs() < 0.02,
                "λ = {lambda}, T = {t}: computed {w}, paper {expect}"
            );
        }
    }

    #[test]
    fn best_threshold_shifts_with_load() {
        // Table 3's observation: T* = 4 ≈ 1/r at λ = 0.5; larger at 0.95.
        let best_t = |lambda: f64| -> usize {
            (3..=6)
                .min_by(|&a, &b| {
                    let wa = solve(&TransferWs::new(lambda, 0.25, a).unwrap(), &opts())
                        .unwrap()
                        .mean_time_in_system;
                    let wb = solve(&TransferWs::new(lambda, 0.25, b).unwrap(), &opts())
                        .unwrap()
                        .mean_time_in_system;
                    wa.total_cmp(&wb)
                })
                .unwrap()
        };
        assert_eq!(best_t(0.5), 4);
        assert!(best_t(0.95) > 4);
    }

    #[test]
    fn transfer_cost_hurts_relative_to_instant_steals() {
        let lambda = 0.8;
        let instant = ThresholdWs::new(lambda, 4).unwrap().closed_form_mean_time();
        let delayed = solve(&TransferWs::new(lambda, 0.25, 4).unwrap(), &opts())
            .unwrap()
            .mean_time_in_system;
        assert!(delayed > instant, "delayed {delayed} vs instant {instant}");
    }

    #[test]
    fn fast_transfers_approach_instant_stealing() {
        let lambda = 0.8;
        let instant = ThresholdWs::new(lambda, 4).unwrap().closed_form_mean_time();
        let fast = solve(&TransferWs::new(lambda, 64.0, 4).unwrap(), &opts())
            .unwrap()
            .mean_time_in_system;
        assert!(
            (fast - instant).abs() < 0.05,
            "r = 64: {fast} vs instant {instant}"
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(TransferWs::new(0.5, 0.0, 4).is_err());
        assert!(TransferWs::new(0.5, 0.25, 1).is_err());
        assert!(TransferWs::new(0.0, 0.25, 4).is_err());
    }
}
