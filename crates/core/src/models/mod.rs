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
//! | [`simple_ws`] | §2.2, eqs. (2)–(3) | steal one task on empty, victim ≥ 2 |
//! | [`threshold`] | §2.3, eqs. (4)–(6) | victim must hold ≥ T |
//! | [`preemptive`] | §2.4 | start stealing at B tasks left |
//! | [`repeated`] | §2.5 | empty processors retry at rate r |
//! | [`erlang_stages`] | §3.1 | c-stage (≈ constant) service |
//! | [`erlang_arrivals`] | §3.1 | c-phase (≈ regular) arrivals |
//! | [`hyper_service`] | §3.1 | hyperexponential (bursty) service |
//! | [`transfer`] | §3.2 | stolen tasks travel for Exp(r) time |
//! | [`multi_choice`] | §3.3 | best of d victim candidates |
//! | [`multi_steal`] | §3.4 | k tasks per steal |
//! | [`general`] | §3 ("combined as desired") | threshold × d choices × k batch |
//! | [`rebalance`] | §3.4 | pairwise load equalization |
//! | [`heterogeneous`] | §3.5 | fast/slow processor classes |
//! | [`static_drain`] | §3.5 | internal arrivals / drain from a loaded start |
//! | [`work_sharing`] | §1 (the foil) | sender-initiated sharing, for the probe-cost comparison |

pub mod erlang_arrivals;
pub mod erlang_stages;
pub mod general;
pub mod heterogeneous;
pub mod hyper_service;
pub mod multi_choice;
pub mod multi_steal;
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
pub use multi_choice::MultiChoice;
pub use multi_steal::MultiSteal;
pub use no_steal::NoSteal;
pub use preemptive::Preemptive;
pub use rebalance::{Rebalance, RebalanceRateFn};
pub use repeated::RepeatedSteal;
pub use simple_ws::SimpleWs;
pub use static_drain::StaticDrain;
pub use threshold::ThresholdWs;
pub use transfer::TransferWs;
pub use work_sharing::WorkSharing;

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

    /// The empty-system state (the canonical integration start).
    fn empty_state(&self) -> Vec<f64>;

    /// Mean number of tasks per processor in state `y`, including tasks
    /// in transit where the model has them.
    fn mean_tasks(&self, y: &[f64]) -> f64;

    /// Task-count tail `s = (s_0 = 1, s_1, s_2, …)` folded over any
    /// internal structure (stages, waiting classes, speed classes).
    /// `result[i]` = fraction of processors with at least `i` tasks.
    fn task_tails(&self, y: &[f64]) -> Vec<f64>;

    /// Mass at the truncation boundary — used to decide whether the
    /// truncation must grow before trusting the solution.
    fn boundary_mass(&self, y: &[f64]) -> f64;

    /// `y`, a state of this model at another truncation (such as a
    /// [`crate::FixedPoint::state`]), re-embedded at this model's
    /// truncation: levels `y` does not carry start empty, and levels
    /// beyond this truncation are dropped.
    ///
    /// The default covers layouts that store one tail `(s_1, …, s_L)`;
    /// models that store several level blocks override it.
    fn embed_state(&self, y: &[f64]) -> Vec<f64> {
        embed_blocks(y, 0, 1, self.dim())
    }

    /// Mean time a task spends in the system at state `y`
    /// (Little's law, `W = L/λ`).
    fn mean_time_in_system(&self, y: &[f64]) -> f64 {
        loadsteal_queueing::littles_law::time_in_system(self.mean_tasks(y), self.lambda())
    }
}

/// [`MeanFieldModel::embed_state`] for a state laid out as `head`
/// scalars followed by `blocks` equally long level blocks, re-embedded
/// at `levels` per block.
pub(crate) fn embed_blocks(y: &[f64], head: usize, blocks: usize, levels: usize) -> Vec<f64> {
    assert!(
        y.len() >= head && (y.len() - head) % blocks == 0,
        "state of {} values is not {head} scalars plus {blocks} whole blocks",
        y.len()
    );
    let from = (y.len() - head) / blocks;
    let keep = from.min(levels);
    let mut out = vec![0.0; head + blocks * levels];
    out[..head].copy_from_slice(&y[..head]);
    for b in 0..blocks {
        out[head + b * levels..][..keep].copy_from_slice(&y[head + b * from..][..keep]);
    }
    out
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
