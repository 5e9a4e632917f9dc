//! Repeated steal attempts — Section 2.5.
//!
//! As in the WS algorithm of Blumofe–Leiserson, a thief that fails keeps
//! trying: empty processors make steal attempts at exponential rate `r`
//! (on top of the attempt made the moment they empty). With victim
//! threshold `T`:
//!
//! ```text
//! ds_1/dt = λ(s_0 − s_1) + r(s_0 − s_1) s_T − (s_1 − s_2)(1 − s_T)
//! ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1}),                     2 ≤ i ≤ T−1
//! ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1})
//!              − (s_1 − s_2)(s_i − s_{i+1})
//!              − r(s_0 − s_1)(s_i − s_{i+1}),                       i ≥ T
//! ```
//!
//! Beyond `T` the tails decay geometrically with ratio
//! `λ / (1 + r(1 − π_1) + π_1 − π_2)`; as `r → ∞`, `π_T → 0`: with
//! instantaneous retries no queue can keep `T` tasks for long.

use loadsteal_ode::OdeSystem;

use crate::tail::TailVector;

use super::{check_lambda, default_truncation, s, MeanFieldModel};

/// Mean-field model of repeated steal attempts at rate `r`.
#[derive(Debug, Clone, PartialEq)]
pub struct RepeatedSteal {
    lambda: f64,
    rate: f64,
    threshold: usize,
    levels: usize,
}

impl RepeatedSteal {
    /// Create the model for `0 < λ < 1`, retry rate `r > 0`, threshold
    /// `T ≥ 2`.
    pub fn new(lambda: f64, rate: f64, threshold: usize) -> Result<Self, String> {
        check_lambda(lambda)?;
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(format!(
                "retry rate must be positive and finite, got {rate}"
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

    /// The retry rate `r`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The victim threshold `T`.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Asymptotic tail ratio `λ / (1 + r(1 − π_1) + π_1 − π_2)` given a
    /// fixed-point tail vector (Section 2.5's closed form, with
    /// `π_1 = λ` at the fixed point).
    pub fn asymptotic_tail_ratio(&self, tails: &TailVector) -> f64 {
        let p1 = tails.get(1);
        let p2 = tails.get(2);
        self.lambda / (1.0 + self.rate * (1.0 - p1) + p1 - p2)
    }
}

impl OdeSystem for RepeatedSteal {
    fn dim(&self) -> usize {
        self.levels
    }

    fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let lambda = self.lambda;
        let r = self.rate;
        let s1 = s(y, 1);
        let s2 = s(y, 2);
        let st = s(y, self.threshold);
        // Steal pressure on deep victims: completions of final tasks
        // plus retry probes from the idle pool.
        let pressure = (s1 - s2) + r * (1.0 - s1);
        dy[0] = lambda * (1.0 - s1) + r * (1.0 - s1) * st - (s1 - s2) * (1.0 - st);
        for i in 2..=self.levels {
            let flow = lambda * (s(y, i - 1) - s(y, i));
            let dep = s(y, i) - s(y, i + 1);
            dy[i - 1] = if i < self.threshold {
                flow - dep
            } else {
                flow - dep * (1.0 + pressure)
            };
        }
    }

    fn project(&self, y: &mut [f64]) {
        TailVector::project_slice(y);
    }
}

impl MeanFieldModel for RepeatedSteal {
    fn name(&self) -> String {
        format!(
            "repeated-attempt WS (λ = {}, r = {}, T = {})",
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_point::{solve, FixedPointOptions};
    use crate::models::ThresholdWs;

    #[test]
    fn fixed_point_satisfies_throughput_balance() {
        let m = RepeatedSteal::new(0.9, 2.0, 2).unwrap();
        let fp = solve(&m, &FixedPointOptions::default()).unwrap();
        assert!((fp.task_tails[1] - 0.9).abs() < 1e-8);
    }

    #[test]
    fn retries_beat_single_attempts() {
        let lambda = 0.9;
        let single = ThresholdWs::new(lambda, 2).unwrap().closed_form_mean_time();
        let m = RepeatedSteal::new(lambda, 2.0, 2).unwrap();
        let w = solve(&m, &FixedPointOptions::default())
            .unwrap()
            .mean_time_in_system;
        assert!(w < single, "repeated {w} vs single-attempt {single}");
    }

    #[test]
    fn more_retries_help_monotonically() {
        let lambda = 0.9;
        let opts = FixedPointOptions::default();
        let mut last = f64::INFINITY;
        for r in [0.5, 1.0, 2.0, 4.0, 8.0] {
            let m = RepeatedSteal::new(lambda, r, 2).unwrap();
            let w = solve(&m, &opts).unwrap().mean_time_in_system;
            assert!(w < last, "r = {r}: {w} !< {last}");
            last = w;
        }
    }

    #[test]
    fn pi_t_vanishes_as_rate_grows() {
        // Section 2.5: as r → ∞, π_T → 0.
        let lambda = 0.8;
        let threshold = 3;
        let opts = FixedPointOptions::default();
        let small = solve(&RepeatedSteal::new(lambda, 1.0, threshold).unwrap(), &opts)
            .unwrap()
            .task_tails[threshold];
        let large = solve(&RepeatedSteal::new(lambda, 64.0, threshold).unwrap(), &opts)
            .unwrap()
            .task_tails[threshold];
        assert!(large < small / 5.0, "π_T: r=1 → {small}, r=64 → {large}");
    }

    #[test]
    fn tail_ratio_matches_section_2_5_formula() {
        let m = RepeatedSteal::new(0.9, 2.0, 2).unwrap();
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
    fn rejects_bad_parameters() {
        assert!(RepeatedSteal::new(0.5, 0.0, 2).is_err());
        assert!(RepeatedSteal::new(0.5, -1.0, 2).is_err());
        assert!(RepeatedSteal::new(0.5, f64::INFINITY, 2).is_err());
        assert!(RepeatedSteal::new(0.5, 1.0, 1).is_err());
    }
}
