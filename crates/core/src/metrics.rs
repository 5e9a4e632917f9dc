//! Performance metrics derived from mean-field states.
//!
//! The paper's headline comparison (Tables 1–4) is the expected time a
//! task spends in the system, obtained from a fixed point via Little's
//! law. This module also exposes the tail-law checks used throughout the
//! experiments: the geometric decay ratio and the "apparent service
//! rate" interpretation of Section 2.2.

use crate::models::MeanFieldModel;
use crate::tail::TailVector;

/// Summary of a state's occupancy metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancySummary {
    /// Mean tasks per processor `L` (in-transit included).
    pub mean_tasks: f64,
    /// Mean time in system `W = L/λ`.
    pub mean_time_in_system: f64,
    /// Busy fraction `s_1` (folded over classes).
    pub busy_fraction: f64,
    /// Measured geometric decay ratio deep in the tail, if resolvable.
    pub tail_ratio: Option<f64>,
}

/// Compute an [`OccupancySummary`] for `state` under `model`.
pub fn summarize<M: MeanFieldModel>(model: &M, state: &[f64]) -> OccupancySummary {
    let tails = model.task_tails(state);
    OccupancySummary {
        mean_tasks: model.mean_tasks(state),
        mean_time_in_system: model.mean_time_in_system(state),
        busy_fraction: tails.get(1).copied().unwrap_or(0.0),
        tail_ratio: TailVector::from_slice(&tails[1..]).tail_ratio(1e-11),
    }
}

/// The apparent-service-rate prediction of Section 2.2: with steal
/// pressure `σ` added to unit service, tails should decay at
/// `λ / (1 + σ)`.
pub fn apparent_rate_ratio(lambda: f64, steal_pressure: f64) -> f64 {
    lambda / (1.0 + steal_pressure)
}

/// Relative error in percent, as reported in the paper's Table 1:
/// `100 · |sim − estimate| / sim`.
pub fn relative_error_percent(sim: f64, estimate: f64) -> f64 {
    100.0 * (sim - estimate).abs() / sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_point::{solve, FixedPointOptions};
    use crate::models::SimpleWs;

    #[test]
    fn summary_is_consistent_with_fixed_point() {
        let m = SimpleWs::new(0.8).unwrap();
        let fp = solve(&m, &FixedPointOptions::default()).unwrap();
        let s = summarize(&m.with_truncation(fp.truncation), &fp.state);
        assert!((s.mean_tasks - fp.mean_tasks).abs() < 1e-12);
        assert!((s.mean_time_in_system - fp.mean_time_in_system).abs() < 1e-12);
        assert!((s.busy_fraction - 0.8).abs() < 1e-8);
        let predicted = apparent_rate_ratio(0.8, 0.8 - m.pi2());
        assert!((s.tail_ratio.unwrap() - predicted).abs() < 1e-6);
    }

    #[test]
    fn relative_error_matches_paper_convention() {
        // Table 1, λ = 0.99: sim 11.306, estimate 10.462 → 7.46%.
        let err = relative_error_percent(11.306, 10.462);
        assert!((err - 7.46).abs() < 0.02, "error {err}");
    }
}
