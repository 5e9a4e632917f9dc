//! The paper's model families, one module per system.
//!
//! Every model implements [`MeanFieldModel`]: it is an
//! [`loadsteal_ode::OdeSystem`] over some finite truncation of the
//! infinite mean-field state, and it knows how to interpret that state —
//! what the arrival rate is, how many tasks per processor the state
//! carries, and what the task-count tail `s_i` looks like.
//!
//! | Module | Paper section | System |
//! |--------|---------------|--------|
//! | [`no_steal`] | eq. (1) | independent M/M/1 queues |
//! | [`simple_ws`] | §2.2, eqs. (2)–(3) | steal one task on empty, victim ≥ 2; closed form |
//! | [`threshold`] | §2.3, eqs. (4)–(6) | victim must hold ≥ T; closed form |
//! | [`preemptive`] | §2.4 | start stealing at B tasks left |
//! | [`repeated`] | §2.5 | empty processors retry at rate r |
//! | [`erlang_stages`] | §3.1 | c-stage (≈ constant) service |
//! | [`erlang_arrivals`] | §3.1 | c-phase (≈ regular) arrivals |
//! | [`hyper_service`] | §3.1 | hyperexponential (bursty) service |
//! | [`transfer`] | §3.2 | stolen tasks travel for Exp(r) time |
//! | [`general`] | §2.2–2.3, §3.3, §3.4, combined (§3) | threshold T × best of d victims × k tasks per steal |
//! | [`rebalance`] | §3.4 | pairwise load equalization |
//! | [`heterogeneous`] | §3.5 | fast/slow processor classes |
//! | [`static_drain`] | §3.5 | internal arrivals / drain from a loaded start |
//! | [`work_sharing`] | §1 (the foil) | sender-initiated sharing, for the probe-cost comparison |
//!
//! On-empty stealing has one ODE, [`GeneralWs`]: every `policy=steal`
//! spec with exponential service, Poisson arrivals, no transfer delay
//! and unit speeds solves it, whatever its `(T, d, k)`. [`SimpleWs`]
//! and [`ThresholdWs`] are the paper's closed forms (Table 1's
//! estimates, the fixed point of eqs. (4)–(6), `loadsteal stability`);
//! with transcriptions of the printed §3.3 and §3.4 equations in this
//! module's tests they are the oracles `GeneralWs` is tested against.

pub mod erlang_arrivals;
pub mod erlang_stages;
pub mod general;
pub mod heterogeneous;
pub mod hyper_service;
pub mod no_steal;
pub mod preemptive;
pub mod rebalance;
pub mod repeated;
pub mod simple_ws;
pub mod static_drain;
pub mod threshold;
pub mod transfer;
pub mod work_sharing;

pub use erlang_arrivals::ErlangArrivals;
pub use erlang_stages::ErlangStages;
pub use general::GeneralWs;
pub use heterogeneous::Heterogeneous;
pub use hyper_service::HyperService;
pub use no_steal::NoSteal;
pub use preemptive::Preemptive;
pub use rebalance::{Rebalance, RebalanceRateFn};
pub use repeated::RepeatedSteal;
pub use simple_ws::SimpleWs;
pub use static_drain::StaticDrain;
pub use threshold::ThresholdWs;
pub use transfer::TransferWs;
pub use work_sharing::WorkSharing;

use loadsteal_ode::jacobian::BlockLayout;
use loadsteal_ode::OdeSystem;

/// A mean-field work-stealing model: a truncated ODE family plus the
/// interpretation of its state.
pub trait MeanFieldModel: OdeSystem + Clone {
    /// Short human-readable name with parameters, e.g.
    /// `"threshold WS (λ = 0.9, T = 3)"`.
    fn name(&self) -> String;

    /// Per-processor task arrival rate `λ` (external + internal; used by
    /// Little's law).
    fn lambda(&self) -> f64;

    /// Number of truncation levels currently carried.
    fn truncation(&self) -> usize;

    /// The same model re-truncated to `levels`.
    fn with_truncation(&self, levels: usize) -> Self;

    // The defaults below cover layouts that store one tail
    // `y = (s_1, …, s_L)`; models that store several level blocks, stages
    // or a transit class override what differs.

    /// The empty-system state (the canonical integration start).
    fn empty_state(&self) -> Vec<f64> {
        vec![0.0; self.dim()]
    }

    /// Mean number of tasks per processor in state `y`, including tasks
    /// in transit where the model has them: `Σ_i s_i` by default.
    fn mean_tasks(&self, y: &[f64]) -> f64 {
        y.iter().rev().sum()
    }

    /// Task-count tail `s = (s_0 = 1, s_1, s_2, …)` folded over any
    /// internal structure (stages, waiting classes, speed classes).
    /// `result[i]` = fraction of processors with at least `i` tasks.
    fn task_tails(&self, y: &[f64]) -> Vec<f64> {
        std::iter::once(1.0).chain(y.iter().copied()).collect()
    }

    /// Mass at the truncation boundary — used to decide whether the
    /// truncation must grow before trusting the solution. By default
    /// the last stored level.
    fn boundary_mass(&self, y: &[f64]) -> f64 {
        y.last().copied().unwrap_or(0.0)
    }

    /// How the state is stored: head scalars, then equally long level
    /// blocks. One tail `y = (s_1, …, s_L)` by default. The solver
    /// re-embeds states and extends Jacobian structures through it.
    fn block_layout(&self) -> BlockLayout {
        BlockLayout::TAIL
    }

    /// `y`, a state of this model at another truncation (such as a
    /// [`crate::FixedPoint::state`]), re-embedded at this model's
    /// truncation: levels `y` does not carry start empty, and levels
    /// beyond this truncation are dropped.
    fn embed_state(&self, y: &[f64]) -> Vec<f64> {
        let blocks = self.block_layout();
        blocks.embed(y, blocks.levels(self.dim()))
    }

    /// Mean time a task spends in the system at state `y`
    /// (Little's law, `W = L/λ`).
    fn mean_time_in_system(&self, y: &[f64]) -> f64 {
        loadsteal_queueing::littles_law::time_in_system(self.mean_tasks(y), self.lambda())
    }
}

/// `s_i` of a state `y = (s_1, …, s_L)`, with the boundary conventions
/// `s_0 = 1` and `s_i = 0` past the truncation.
#[inline]
pub(crate) fn s(y: &[f64], i: usize) -> f64 {
    if i == 0 {
        1.0
    } else if i <= y.len() {
        y[i - 1]
    } else {
        0.0
    }
}

/// Validate an arrival rate for the dynamic models (`0 < λ < 1`).
pub(crate) fn check_lambda(lambda: f64) -> Result<(), String> {
    if lambda.is_finite() && 0.0 < lambda && lambda < 1.0 {
        Ok(())
    } else {
        Err(format!(
            "arrival rate must satisfy 0 < λ < 1 for stability, got {lambda}"
        ))
    }
}

/// Default truncation for a task-tail model: enough levels that an
/// `M/M/1`-speed tail (`λ^i`, an upper bound on every stealing model's
/// tail) falls below 1e−14, with a floor for shallow systems. It serves
/// trajectories from arbitrary starts; the fixed-point solver sizes its
/// own truncation from the measured tail.
pub(crate) fn default_truncation(lambda: f64) -> usize {
    crate::tail::truncation_for_ratio(lambda, 1e-14, 32, 8_192)
}

/// Section 3.3, best of `d` victims: the printed equations, kept as the
/// test oracle for [`GeneralWs`] at `k = 1`, and the section's claims
/// checked on [`GeneralWs`].
#[cfg(test)]
mod multi_choice {
    use super::s;

    /// The printed §3.3 system, term for term, over `y.len()` levels:
    ///
    /// ```text
    /// ds_1/dt = λ(s_0 − s_1) − (s_1 − s_2)(1 − s_T)^d
    /// ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1}),                     2 ≤ i ≤ T−1
    /// ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1})
    ///              − ((1 − s_{i+1})^d − (1 − s_i)^d)(s_1 − s_2),        i ≥ T
    /// ```
    pub(super) fn printed_deriv(lambda: f64, d: u32, t: usize, y: &[f64], dy: &mut [f64]) {
        let d = d as i32;
        let thief = s(y, 1) - s(y, 2);
        dy[0] = lambda * (1.0 - s(y, 1)) - thief * (1.0 - s(y, t)).powi(d);
        for i in 2..=y.len() {
            let flow = lambda * (s(y, i - 1) - s(y, i)) - (s(y, i) - s(y, i + 1));
            dy[i - 1] = if i < t {
                flow
            } else {
                flow - ((1.0 - s(y, i + 1)).powi(d) - (1.0 - s(y, i)).powi(d)) * thief
            };
        }
    }

    mod tests {
        use crate::fixed_point::{solve, FixedPointOptions};
        use crate::models::{GeneralWs, SimpleWs};

        fn w(lambda: f64, d: u32) -> f64 {
            let m = GeneralWs::new(lambda, 2, d, 1).unwrap();
            solve(&m, &FixedPointOptions::default())
                .unwrap()
                .mean_time_in_system
        }

        #[test]
        fn one_choice_is_the_simple_model() {
            let exact = SimpleWs::new(0.9).unwrap().closed_form_mean_time();
            assert!((w(0.9, 1) - exact).abs() < 1e-7, "{} vs {exact}", w(0.9, 1));
        }

        #[test]
        fn reproduces_table4_estimates() {
            // Table 4, "Estimate, 2 choices" column.
            for &(lambda, expect) in &[
                (0.50, 1.433),
                (0.70, 1.673),
                (0.80, 1.864),
                (0.90, 2.220),
                (0.95, 2.640),
                (0.99, 4.011),
            ] {
                let w = w(lambda, 2);
                assert!(
                    (w - expect).abs() < 5e-3,
                    "λ = {lambda}: computed {w}, paper {expect}"
                );
            }
        }

        #[test]
        fn more_choices_help_monotonically() {
            let mut last = f64::INFINITY;
            for d in 1..=4 {
                let w = w(0.95, d);
                assert!(w < last, "d = {d}: {w} !< {last}");
                last = w;
            }
        }

        #[test]
        fn deep_tail_ratio_attains_the_d_fold_rate() {
            // Section 3.3's intuition: d choices raise the steal pressure
            // on the most loaded queues by at most a factor d, so the best
            // possible tail ratio is λ/(1 + d(λ − π₂)). Deep in the tail
            // hit(i) − hit(i+1) linearizes to d(s_i − s_{i+1}), so that
            // best case is *attained* asymptotically.
            let (lambda, d) = (0.9, 2);
            let m = GeneralWs::new(lambda, 2, d, 1).unwrap();
            let fp = solve(&m, &FixedPointOptions::default()).unwrap();
            let pi2 = fp.task_tails[2];
            let predicted = lambda / (1.0 + f64::from(d) * (lambda - pi2));
            let measured = fp.tail_ratio().unwrap();
            assert!(
                (measured - predicted).abs() < 1e-6,
                "measured {measured} vs asymptotic {predicted}"
            );
        }

        #[test]
        fn throughput_balance_holds() {
            let m = GeneralWs::new(0.8, 2, 3, 1).unwrap();
            let fp = solve(&m, &FixedPointOptions::default()).unwrap();
            assert!((fp.task_tails[1] - 0.8).abs() < 1e-8);
        }

        #[test]
        fn rejects_bad_parameters() {
            assert!(GeneralWs::new(0.5, 2, 0, 1).is_err());
            assert!(GeneralWs::new(0.5, 1, 2, 1).is_err());
        }
    }
}

/// Section 3.4, `k` tasks per steal: the printed equations, kept as the
/// test oracle for [`GeneralWs`] at `d = 1`, and the section's claims
/// checked on [`GeneralWs`].
#[cfg(test)]
mod multi_steal {
    use super::s;

    /// The printed §3.4 system, term for term, over `y.len()` levels:
    ///
    /// ```text
    /// ds_1/dt = λ(s_0 − s_1) − (s_1 − s_2)(1 − s_T)
    /// ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1}) + (s_1 − s_2) s_T,        2 ≤ i ≤ k
    /// ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1}),                          k+1 ≤ i ≤ T−k
    /// ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1})
    ///              − (s_1 − s_2)(s_T − s_{i+k}),                             T−k+1 ≤ i ≤ T
    /// ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1})
    ///              − (s_1 − s_2)(s_i − s_{i+k}),                             i ≥ T+1
    /// ```
    pub(super) fn printed_deriv(lambda: f64, k: usize, t: usize, y: &[f64], dy: &mut [f64]) {
        let thief = s(y, 1) - s(y, 2);
        let st = s(y, t);
        dy[0] = lambda * (1.0 - s(y, 1)) - thief * (1.0 - st);
        for i in 2..=y.len() {
            let flow = lambda * (s(y, i - 1) - s(y, i)) - (s(y, i) - s(y, i + 1));
            dy[i - 1] = if i <= k {
                flow + thief * st
            } else if i <= t - k {
                flow
            } else if i <= t {
                flow - thief * (st - s(y, i + k))
            } else {
                flow - thief * (s(y, i) - s(y, i + k))
            };
        }
    }

    mod tests {
        use loadsteal_ode::OdeSystem;

        use crate::fixed_point::{solve, FixedPointOptions};
        use crate::models::{GeneralWs, MeanFieldModel, ThresholdWs};
        use crate::tail::TailVector;

        fn w(lambda: f64, t: usize, k: usize) -> f64 {
            let m = GeneralWs::new(lambda, t, 1, k).unwrap();
            solve(&m, &FixedPointOptions::default())
                .unwrap()
                .mean_time_in_system
        }

        #[test]
        fn k1_reduces_to_threshold_model() {
            for (lambda, t) in [(0.7, 4), (0.9, 6)] {
                let exact = ThresholdWs::new(lambda, t).unwrap().closed_form_mean_time();
                let w = w(lambda, t, 1);
                assert!(
                    (w - exact).abs() < 1e-6,
                    "λ = {lambda}, T = {t}: {w} vs {exact}"
                );
            }
        }

        #[test]
        fn stealing_more_helps_with_high_threshold() {
            // Section 3.4: with instant transfers, equalizing harder is
            // better — k = 3 beats k = 1 at T = 6.
            let (w1, w3) = (w(0.9, 6, 1), w(0.9, 6, 3));
            assert!(w3 < w1, "k=3 {w3} vs k=1 {w1}");
        }

        #[test]
        fn batch_gain_is_monotone_in_k() {
            let mut last = f64::INFINITY;
            for k in 1..=4 {
                let w = w(0.95, 8, k);
                assert!(w < last, "k = {k}: {w} !< {last}");
                last = w;
            }
        }

        #[test]
        fn throughput_balance_holds() {
            let m = GeneralWs::new(0.85, 5, 1, 2).unwrap();
            let fp = solve(&m, &FixedPointOptions::default()).unwrap();
            assert!((fp.task_tails[1] - 0.85).abs() < 1e-8);
        }

        #[test]
        fn mass_conservation_of_steal_terms() {
            // A steal moves k tasks, so the gain on levels ≤ k equals the
            // loss on levels > T−k, and dL/dt is arrivals − services =
            // λ − s_1 (up to truncation leakage) at any interior state.
            let m = GeneralWs::new(0.8, 6, 1, 2).unwrap();
            let state = TailVector::geometric(0.7, m.truncation()).into_vec();
            let mut dy = vec![0.0; state.len()];
            m.deriv(0.0, &state, &mut dy);
            let dl: f64 = dy.iter().sum();
            let expect = 0.8 - 0.7;
            assert!(
                (dl - expect).abs() < 1e-9,
                "dL/dt = {dl}, expected {expect}"
            );
        }

        #[test]
        fn rejects_bad_parameters() {
            assert!(GeneralWs::new(0.5, 4, 1, 0).is_err());
            assert!(GeneralWs::new(0.5, 4, 1, 3).is_err()); // 2k > T
            assert!(GeneralWs::new(0.5, 4, 1, 2).is_ok());
        }
    }
}
