//! Stability of the fixed points — Section 4.
//!
//! The paper calls a fixed point *stable* when the L₁ distance
//! `D(t) = Σ_i |s_i(t) − π_i|` never increases along trajectories
//! (stronger than the usual Lyapunov notion). Theorems 1 and 2 prove
//! stability of the simple and threshold systems whenever `π_2 < 1/2`,
//! which for the simple system means
//! `λ < λ* = (1 + √5)/4 ≈ 0.809` (the root of `π_2(λ) = 1/2`).
//!
//! Convergence (let alone monotone contraction) is open beyond that
//! regime; the paper suggests checking numerically from varied starting
//! points, which is what [`check_l1_contraction`] does.

use loadsteal_ode::norms::l1_distance;
use loadsteal_ode::solver::Control;
use loadsteal_ode::{AdaptiveOptions, DormandPrince45, IntegrationError};

use crate::models::{MeanFieldModel, SimpleWs};

/// The critical arrival rate of Theorem 1 for the simple WS system:
/// `π_2(λ*) = 1/2` at `λ* = (1 + √5)/4 ≈ 0.809017`.
pub fn simple_ws_stability_threshold() -> f64 {
    0.25 * (1.0 + 5.0_f64.sqrt())
}

/// Whether the Theorem 1/2 hypothesis `π_2 < 1/2` holds for the simple
/// system at arrival rate `lambda`.
pub fn theorem_condition_holds(lambda: f64) -> bool {
    SimpleWs::new(lambda)
        .map(|m| m.pi2() < 0.5)
        .unwrap_or(false)
}

/// Outcome of a numeric L₁-contraction check.
#[derive(Debug, Clone)]
pub struct ContractionReport {
    /// L₁ distance at the start.
    pub initial_distance: f64,
    /// L₁ distance when the check stopped.
    pub final_distance: f64,
    /// Largest observed increase of `D` between consecutive accepted
    /// steps (0 for a perfectly monotone trajectory).
    pub max_increase: f64,
    /// Time at which the trajectory entered `D < tol` (if it did).
    pub converged_at: Option<f64>,
    /// Sampled `(t, D(t))` trajectory (thinned).
    pub trajectory: Vec<(f64, f64)>,
}

impl ContractionReport {
    /// Whether `D(t)` was non-increasing up to `slack` (floating-point
    /// and integrator tolerance head-room).
    pub fn is_monotone(&self, slack: f64) -> bool {
        self.max_increase <= slack
    }

    /// Estimated asymptotic decay rate `γ` of `D(t) ≈ C e^{−γt}`,
    /// least-squares fitted on `log D` over the later half of the
    /// recorded trajectory (where the slowest mode dominates). `None`
    /// when the trajectory is too short or already at the noise floor.
    ///
    /// `1/γ` is the relaxation time of the system — how long the
    /// transient behind the paper's Table 1 protocol actually lasts.
    pub fn decay_rate(&self) -> Option<f64> {
        let pts: Vec<(f64, f64)> = self
            .trajectory
            .iter()
            .filter(|(_, d)| *d > 1e-10)
            .map(|&(t, d)| (t, d.ln()))
            .collect();
        if pts.len() < 6 {
            return None;
        }
        let tail = &pts[pts.len() / 2..];
        let n = tail.len() as f64;
        let (st, sd): (f64, f64) = tail
            .iter()
            .fold((0.0, 0.0), |(a, b), (t, l)| (a + t, b + l));
        let (mt, md) = (st / n, sd / n);
        let (mut num, mut den) = (0.0, 0.0);
        for (t, l) in tail {
            num += (t - mt) * (l - md);
            den += (t - mt) * (t - mt);
        }
        if den <= 0.0 {
            return None;
        }
        let slope = num / den;
        (slope < 0.0).then_some(-slope)
    }
}

/// Integrate `model` from `start` and track the L₁ distance to `fixed`.
///
/// Stops when the distance falls below `tol` or at `t_max`. The state
/// and fixed point must have the model's dimension: re-embed a
/// [`crate::FixedPoint::state`] with [`MeanFieldModel::embed_state`].
pub fn check_l1_contraction<M: MeanFieldModel>(
    model: &M,
    start: &[f64],
    fixed: &[f64],
    tol: f64,
    t_max: f64,
) -> Result<ContractionReport, IntegrationError> {
    assert_eq!(start.len(), model.dim(), "start state has wrong dimension");
    assert_eq!(fixed.len(), model.dim(), "fixed point has wrong dimension");
    let mut y = start.to_vec();
    let initial = l1_distance(&y, fixed);
    let mut last = initial;
    let mut max_increase = 0.0_f64;
    let mut trajectory = vec![(0.0, initial)];
    let mut converged_at = None;
    let mut dp = DormandPrince45::new(AdaptiveOptions::default());
    dp.integrate_observed(model, 0.0, t_max, &mut y, |t, y| {
        let d = l1_distance(y, fixed);
        max_increase = max_increase.max(d - last);
        last = d;
        // Thin the trajectory: keep ~1 sample per unit time.
        if trajectory
            .last()
            .map(|&(tt, _)| t - tt >= 1.0)
            .unwrap_or(true)
        {
            trajectory.push((t, d));
        }
        if d < tol {
            converged_at = Some(t);
            Control::Stop
        } else {
            Control::Continue
        }
    })?;
    trajectory.push((t_max.min(converged_at.unwrap_or(t_max)), last));
    Ok(ContractionReport {
        initial_distance: initial,
        final_distance: last,
        max_increase,
        converged_at,
        trajectory,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_point::{solve, FixedPointOptions};
    use crate::tail::TailVector;

    #[test]
    fn threshold_constant_is_the_golden_like_root() {
        let l = simple_ws_stability_threshold();
        // π₂(λ*) = 1/2 exactly.
        let m = SimpleWs::new(l).unwrap();
        assert!((m.pi2() - 0.5).abs() < 1e-12, "π₂(λ*) = {}", m.pi2());
        assert!(theorem_condition_holds(l - 0.01));
        assert!(!theorem_condition_holds(l + 0.01));
    }

    #[test]
    fn distance_contracts_from_overloaded_start() {
        let m = SimpleWs::new(0.7).unwrap();
        let fp = solve(&m, &FixedPointOptions::default()).unwrap();
        let start = TailVector::uniform_load(5, m.truncation()).into_vec();
        let report =
            check_l1_contraction(&m, &start, &m.embed_state(&fp.state), 1e-8, 2_000.0).unwrap();
        assert!(
            report.converged_at.is_some(),
            "did not converge: {report:?}"
        );
        // Theorem 1 regime: monotone up to integrator noise.
        assert!(
            report.is_monotone(1e-7),
            "max increase {}",
            report.max_increase
        );
    }

    #[test]
    fn distance_contracts_from_empty_start() {
        let m = SimpleWs::new(0.5).unwrap();
        let fp = solve(&m, &FixedPointOptions::default()).unwrap();
        let start = m.empty_state();
        let report =
            check_l1_contraction(&m, &start, &m.embed_state(&fp.state), 1e-8, 2_000.0).unwrap();
        assert!(report.converged_at.is_some());
        assert!(report.final_distance < report.initial_distance);
    }

    #[test]
    fn trajectory_is_recorded() {
        let m = SimpleWs::new(0.6).unwrap();
        let fp = solve(&m, &FixedPointOptions::default()).unwrap();
        let start = TailVector::uniform_load(3, m.truncation()).into_vec();
        let report =
            check_l1_contraction(&m, &start, &m.embed_state(&fp.state), 1e-6, 500.0).unwrap();
        assert!(report.trajectory.len() > 3);
        assert!(report.trajectory[0].1 >= report.trajectory.last().unwrap().1);
    }

    #[test]
    fn decay_rate_tracks_relaxation_speed() {
        // Relaxation slows as λ → 1: γ(0.5) must beat γ(0.9).
        let rate = |lambda: f64| {
            let m = SimpleWs::new(lambda).unwrap();
            let fp = solve(&m, &FixedPointOptions::default()).unwrap();
            let start = TailVector::uniform_load(3, m.truncation()).into_vec();
            check_l1_contraction(&m, &start, &m.embed_state(&fp.state), 1e-9, 20_000.0)
                .unwrap()
                .decay_rate()
                .expect("fit")
        };
        let fast = rate(0.5);
        let slow = rate(0.9);
        assert!(
            fast > 2.0 * slow,
            "γ(0.5) = {fast} should dwarf γ(0.9) = {slow}"
        );
    }

    #[test]
    fn beyond_theorem_regime_still_converges_numerically() {
        // The paper can only *prove* stability for π₂ < 1/2, but suggests
        // numerical checks beyond; at λ = 0.95 the system still converges.
        let m = SimpleWs::new(0.95).unwrap();
        let fp = solve(&m, &FixedPointOptions::default()).unwrap();
        let start = TailVector::uniform_load(4, m.truncation()).into_vec();
        let report =
            check_l1_contraction(&m, &start, &m.embed_state(&fp.state), 1e-6, 20_000.0).unwrap();
        assert!(
            report.converged_at.is_some(),
            "no convergence at λ = 0.95: final D = {}",
            report.final_distance
        );
    }
}
