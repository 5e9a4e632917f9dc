//! Internal arrivals and static systems — Section 3.5.
//!
//! The arrival rate splits into `λ_ext` (new tasks from outside) and
//! `λ_int` (tasks spawned by tasks already at the processor; active only
//! while the queue is non-empty). Setting `λ_ext = 0` and starting from
//! a loaded state gives a *static* system that runs until all queues are
//! empty: for large `n` the trajectory of the differential equations
//! approximates the drain profile, and the time until `s_1` falls below
//! a small threshold approximates the makespan.
//!
//! With simple (threshold-2) stealing:
//!
//! ```text
//! ds_1/dt = λ_ext(s_0 − s_1) − (s_1 − s_2)(1 − s_2)
//! ds_i/dt = (λ_ext + λ_int)(s_{i−1} − s_i) − (s_i − s_{i+1})(1 + s_1 − s_2),   i ≥ 2
//! ```
//!
//! — internal arrivals cannot lift an empty processor to load 1, so the
//! `i = 1` flow only carries `λ_ext`.

use loadsteal_ode::solver::Control;
use loadsteal_ode::{AdaptiveOptions, DormandPrince45, IntegrationError, OdeSystem};

use crate::tail::TailVector;

use super::{s, MeanFieldModel};

/// Mean-field model with split external/internal arrivals; supports the
/// static (`λ_ext = 0`) drain regime.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticDrain {
    lambda_ext: f64,
    lambda_int: f64,
    levels: usize,
}

impl StaticDrain {
    /// Create the model. Requires `λ_ext + λ_int < 1` for stability and
    /// `λ_ext ≥ 0`, `λ_int ≥ 0`. `levels` bounds the initial loads the
    /// state can represent.
    pub fn new(lambda_ext: f64, lambda_int: f64, levels: usize) -> Result<Self, String> {
        if !(lambda_ext >= 0.0 && lambda_ext.is_finite()) {
            return Err(format!("λ_ext must be finite and >= 0, got {lambda_ext}"));
        }
        if !(lambda_int >= 0.0 && lambda_int.is_finite()) {
            return Err(format!("λ_int must be finite and >= 0, got {lambda_int}"));
        }
        if lambda_ext + lambda_int >= 1.0 {
            return Err(format!(
                "unstable: λ_ext + λ_int = {} >= 1",
                lambda_ext + lambda_int
            ));
        }
        if levels == 0 {
            return Err("need at least one level".into());
        }
        Ok(Self {
            lambda_ext,
            lambda_int,
            levels,
        })
    }

    /// External arrival rate `λ_ext`.
    pub fn lambda_ext(&self) -> f64 {
        self.lambda_ext
    }

    /// Internal (spawned-while-busy) arrival rate `λ_int`.
    pub fn lambda_int(&self) -> f64 {
        self.lambda_int
    }

    /// Trajectory from a uniformly loaded start (`initial_load` tasks on
    /// every processor) until `s_1 < eps` or `t_max`; returns the drain
    /// time. Meaningful in the static regime (`λ_ext = 0`).
    pub fn drain_time(
        &self,
        initial_load: usize,
        eps: f64,
        t_max: f64,
    ) -> Result<f64, IntegrationError> {
        let mut y = TailVector::uniform_load(initial_load, self.levels).into_vec();
        let mut dp = DormandPrince45::new(AdaptiveOptions::default());
        dp.integrate_observed(self, 0.0, t_max, &mut y, |_t, y| {
            if y[0] < eps {
                Control::Stop
            } else {
                Control::Continue
            }
        })
    }
}

impl OdeSystem for StaticDrain {
    fn dim(&self) -> usize {
        self.levels
    }

    fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let s1 = s(y, 1);
        let s2 = s(y, 2);
        let steal_rate = s1 - s2;
        let total = self.lambda_ext + self.lambda_int;
        dy[0] = self.lambda_ext * (1.0 - s1) - (s1 - s2) * (1.0 - s2);
        for i in 2..=self.levels {
            dy[i - 1] =
                total * (s(y, i - 1) - s(y, i)) - (s(y, i) - s(y, i + 1)) * (1.0 + steal_rate);
        }
    }

    fn project(&self, y: &mut [f64]) {
        TailVector::project_slice(y);
    }
}

impl MeanFieldModel for StaticDrain {
    fn name(&self) -> String {
        format!(
            "internal-arrival WS (λ_ext = {}, λ_int = {})",
            self.lambda_ext, self.lambda_int
        )
    }

    /// Total task-generation rate; Little's law uses it in the dynamic
    /// regime. (In the pure static regime there are no arrivals and the
    /// fixed point is the empty system.)
    fn lambda(&self) -> f64 {
        (self.lambda_ext + self.lambda_int).max(f64::MIN_POSITIVE)
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
    use crate::models::SimpleWs;

    #[test]
    fn pure_external_matches_simple_ws() {
        let lambda = 0.85;
        let m = StaticDrain::new(lambda, 0.0, 256).unwrap();
        let fp = solve(&m, &FixedPointOptions::default()).unwrap();
        let exact = SimpleWs::new(lambda).unwrap().closed_form_mean_time();
        assert!(
            (fp.mean_time_in_system - exact).abs() < 1e-6,
            "{} vs {exact}",
            fp.mean_time_in_system
        );
    }

    #[test]
    fn static_system_drains() {
        let m = StaticDrain::new(0.0, 0.0, 64).unwrap();
        let t = m.drain_time(10, 1e-6, 1e4).unwrap();
        // 10 unit-mean tasks per processor, served at rate ≥ 1 with
        // stealing smoothing the end: drain time is O(10), not O(100).
        assert!(t > 8.0 && t < 60.0, "drain time {t}");
    }

    #[test]
    fn heavier_initial_load_drains_later() {
        let m = StaticDrain::new(0.0, 0.0, 128).unwrap();
        let t_small = m.drain_time(5, 1e-6, 1e4).unwrap();
        let t_big = m.drain_time(50, 1e-6, 1e4).unwrap();
        assert!(t_big > t_small + 30.0, "{t_small} vs {t_big}");
    }

    #[test]
    fn internal_spawning_slows_the_drain() {
        let plain = StaticDrain::new(0.0, 0.0, 64).unwrap();
        let spawning = StaticDrain::new(0.0, 0.5, 64).unwrap();
        let t0 = plain.drain_time(10, 1e-6, 1e5).unwrap();
        let t1 = spawning.drain_time(10, 1e-6, 1e5).unwrap();
        assert!(t1 > t0, "spawning {t1} vs plain {t0}");
    }

    #[test]
    fn internal_arrivals_raise_steady_load() {
        let base = solve(
            &StaticDrain::new(0.5, 0.0, 256).unwrap(),
            &FixedPointOptions::default(),
        )
        .unwrap();
        let spawning = solve(
            &StaticDrain::new(0.5, 0.3, 256).unwrap(),
            &FixedPointOptions::default(),
        )
        .unwrap();
        assert!(spawning.mean_tasks > base.mean_tasks);
    }

    #[test]
    fn rejects_unstable_totals() {
        assert!(StaticDrain::new(0.6, 0.5, 64).is_err());
        assert!(StaticDrain::new(-0.1, 0.0, 64).is_err());
        assert!(StaticDrain::new(0.1, 0.0, 0).is_err());
    }
}
