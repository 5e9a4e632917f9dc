//! Conformance suite: every model in the zoo satisfies the structural
//! contract of [`MeanFieldModel`] and the physics every work-stealing
//! system must obey at its fixed point.

use loadsteal_core::fixed_point::{solve, FixedPoint, FixedPointOptions};
use loadsteal_core::models::*;
use loadsteal_core::tail::TailVector;
use loadsteal_ode::OdeSystem;

const LAMBDA: f64 = 0.85;

/// A named, deferred fixed-point computation.
type ZooEntry = (String, Box<dyn Fn() -> (usize, FixedPoint)>);

/// Every dynamic model at λ = 0.85, boxed behind a common test closure.
fn zoo() -> Vec<ZooEntry> {
    macro_rules! entry {
        ($m:expr) => {{
            let m = $m;
            let name = m.name();
            (
                name,
                Box::new(move || {
                    let fp = solve(&m, &FixedPointOptions::default()).expect("fixed point");
                    (m.dim(), fp)
                }) as Box<dyn Fn() -> (usize, FixedPoint)>,
            )
        }};
    }
    vec![
        entry!(NoSteal::new(LAMBDA).unwrap()),
        entry!(SimpleWs::new(LAMBDA).unwrap()),
        entry!(ThresholdWs::new(LAMBDA, 4).unwrap()),
        entry!(Preemptive::new(LAMBDA, 1, 3).unwrap()),
        entry!(RepeatedSteal::new(LAMBDA, 2.0, 2).unwrap()),
        entry!(ErlangStages::new(LAMBDA, 5).unwrap()),
        entry!(ErlangArrivals::new(LAMBDA, 5, 2).unwrap()),
        entry!(TransferWs::new(LAMBDA, 0.5, 3).unwrap()),
        entry!(GeneralWs::new(LAMBDA, 2, 2, 1).unwrap()),
        entry!(GeneralWs::new(LAMBDA, 4, 1, 2).unwrap()),
        entry!(GeneralWs::new(LAMBDA, 4, 2, 2).unwrap()),
        entry!(Rebalance::new(LAMBDA, RebalanceRateFn::Constant(1.0)).unwrap()),
        entry!(Heterogeneous::new(LAMBDA, 0.5, 1.3, 0.9, 2).unwrap()),
        entry!(StaticDrain::new(LAMBDA, 0.0, 256).unwrap()),
        entry!(WorkSharing::new(LAMBDA, 2, 2).unwrap()),
        entry!(HyperService::with_scv(LAMBDA, 3.0, 2).unwrap()),
    ]
}

#[test]
fn every_model_reaches_a_clean_fixed_point() {
    for (name, solve_it) in zoo() {
        let (_, fp) = solve_it();
        assert!(
            fp.residual < 1e-7,
            "{name}: residual {} too large",
            fp.residual
        );
        assert!(
            fp.mean_time_in_system.is_finite() && fp.mean_time_in_system > 1.0,
            "{name}: W = {}",
            fp.mean_time_in_system
        );
    }
}

#[test]
fn every_fixed_point_satisfies_throughput_balance() {
    // Busy mass × service rate = λ. For the homogeneous unit-rate models
    // this is s₁ = λ; the heterogeneous model is checked in its own
    // module (its folded s₁ is not the throughput).
    for (name, solve_it) in zoo() {
        // Mixed service rates make the folded s₁ a different quantity
        // than the throughput; those models check balance in their own
        // unit tests.
        if name.starts_with("heterogeneous") || name.starts_with("hyperexp") {
            continue;
        }
        let (_, fp) = solve_it();
        assert!(
            (fp.task_tails[1] - LAMBDA).abs() < 1e-6,
            "{name}: s₁ = {} ≠ λ",
            fp.task_tails[1]
        );
    }
}

#[test]
fn every_fixed_point_tail_is_a_valid_tail_vector() {
    for (name, solve_it) in zoo() {
        let (_, fp) = solve_it();
        let t = TailVector::from_slice(&fp.task_tails[1..]);
        assert!(
            t.is_valid(1e-8),
            "{name}: invalid tail {:?}…",
            &fp.task_tails[..5]
        );
        assert!((fp.task_tails[0] - 1.0).abs() < 1e-12, "{name}: s₀ ≠ 1");
    }
}

#[test]
fn every_stealing_model_beats_no_stealing() {
    let baseline = NoSteal::new(LAMBDA).unwrap().closed_form_mean_time();
    for (name, solve_it) in zoo() {
        // Exclusions: the baseline itself; different service laws
        // (hyperexponential is burstier than M/M/1 even with stealing);
        // heterogeneous compares against a different capacity.
        if name.starts_with("no stealing")
            || name.starts_with("heterogeneous")
            || name.starts_with("hyperexp")
        {
            continue;
        }
        let (_, fp) = solve_it();
        assert!(
            fp.mean_time_in_system < baseline + 1e-9,
            "{name}: W = {} not better than M/M/1 {baseline}",
            fp.mean_time_in_system
        );
    }
}

#[test]
fn mean_tasks_agrees_with_tail_sum() {
    // For models without in-transit mass, L must equal Σ_{i≥1} s_i of
    // the folded tails.
    for (name, solve_it) in zoo() {
        if name.starts_with("transfer") {
            continue; // in-transit tasks are in L but not in the tails
        }
        let (_, fp) = solve_it();
        let tail_sum: f64 = fp.task_tails[1..].iter().rev().sum();
        assert!(
            (fp.mean_tasks - tail_sum).abs() < 1e-9 * (1.0 + fp.mean_tasks),
            "{name}: L = {} vs Σ tails = {tail_sum}",
            fp.mean_tasks
        );
    }
}

#[test]
fn transfer_mean_tasks_exceeds_tail_sum_by_transit_mass() {
    let m = TransferWs::new(LAMBDA, 0.5, 3).unwrap();
    let fp = solve(&m, &FixedPointOptions::default()).unwrap();
    let tail_sum: f64 = fp.task_tails[1..].iter().rev().sum();
    let transit = fp.mean_tasks - tail_sum;
    assert!(transit > 0.0, "no in-transit mass measured");
    // In-transit mass = w₀ = 1 − s₀.
    assert!(
        (transit - (1.0 - fp.state[0])).abs() < 1e-9,
        "transit {transit} vs w₀ = {}",
        1.0 - fp.state[0]
    );
}
