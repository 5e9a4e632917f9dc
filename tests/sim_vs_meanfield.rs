//! The paper's central validation: fixed points of the differential
//! equations predict finite-system simulations.
//!
//! Each test pits one mean-field model against the discrete-event
//! simulator at n = 128 (the paper's largest size). Agreement bounds
//! are not hand-picked percentages: [`loadsteal::verify::stat`]
//! derives each bound from the replications' own Student-t confidence
//! interval plus an O(1/n) finite-size allowance, so a test only fails
//! when the disagreement is statistically decisive. Seeds are pinned,
//! so failures replay exactly. Horizons are shorter than the paper's
//! 100,000 s to keep the suite fast; the CI widens to match.

use loadsteal::meanfield::fixed_point::{solve, FixedPointOptions};
use loadsteal::meanfield::models::{
    ErlangArrivals, ErlangStages, GeneralWs, Heterogeneous, NoSteal, Preemptive, Rebalance,
    RebalanceRateFn, RepeatedSteal, SimpleWs, ThresholdWs, TransferWs,
};
use loadsteal::queueing::ServiceDistribution;
use loadsteal::sim::{
    replicate, RebalanceRate, SimConfig, SpeedProfile, StealPolicy, TransferTime,
};

fn sim_cfg(lambda: f64, policy: StealPolicy) -> SimConfig {
    let mut cfg = SimConfig::paper_default(128, lambda);
    cfg.horizon = 12_000.0;
    cfg.warmup = 1_500.0;
    cfg.policy = policy;
    cfg
}

/// Assert the replications' mean sojourn time agrees with the
/// mean-field prediction within a CI-width-derived bound at n = 128.
fn assert_agrees(rep: &loadsteal::sim::ReplicateResult, predicted: f64, what: &str) {
    let a = loadsteal::verify::stat::sojourn_agreement(rep, predicted, 128);
    assert!(a.holds(), "{what}: {}", a.describe());
}

#[test]
fn no_steal_matches_mm1_field() {
    let lambda = 0.8;
    let rep = replicate(&sim_cfg(lambda, StealPolicy::None), 3, 1);
    let predicted = NoSteal::new(lambda).unwrap().closed_form_mean_time();
    assert_agrees(&rep, predicted, "no stealing, λ = 0.8");
}

#[test]
fn simple_ws_matches_table1_protocol() {
    let lambda = 0.9;
    let rep = replicate(&sim_cfg(lambda, StealPolicy::simple_ws()), 4, 2);
    let predicted = SimpleWs::new(lambda).unwrap().closed_form_mean_time();
    // Paper Table 1 at λ=0.9: Sim(128) = 3.586 vs estimate 3.541 (1.2%).
    assert_agrees(&rep, predicted, "simple WS, λ = 0.9");
}

#[test]
fn threshold_model_matches_simulation() {
    let lambda = 0.85;
    let policy = StealPolicy::OnEmpty {
        threshold: 4,
        choices: 1,
        batch: 1,
    };
    let rep = replicate(&sim_cfg(lambda, policy), 3, 3);
    let predicted = ThresholdWs::new(lambda, 4).unwrap().closed_form_mean_time();
    assert_agrees(&rep, predicted, "threshold T = 4, λ = 0.85");
}

#[test]
fn preemptive_model_matches_simulation() {
    let lambda = 0.85;
    let policy = StealPolicy::Preemptive {
        begin_at: 1,
        rel_threshold: 3,
    };
    let rep = replicate(&sim_cfg(lambda, policy), 3, 4);
    let m = Preemptive::new(lambda, 1, 3).unwrap();
    let predicted = solve(&m, &FixedPointOptions::default())
        .unwrap()
        .mean_time_in_system;
    assert_agrees(&rep, predicted, "preemptive B = 1, T = 3");
}

#[test]
fn repeated_attempts_match_simulation() {
    let lambda = 0.9;
    let policy = StealPolicy::Repeated {
        rate: 2.0,
        threshold: 2,
    };
    let rep = replicate(&sim_cfg(lambda, policy), 3, 5);
    let m = RepeatedSteal::new(lambda, 2.0, 2).unwrap();
    let predicted = solve(&m, &FixedPointOptions::default())
        .unwrap()
        .mean_time_in_system;
    assert_agrees(&rep, predicted, "repeated r = 2, λ = 0.9");
}

#[test]
fn erlang_stage_estimate_predicts_constant_service_sims() {
    // Table 2's protocol: simulate truly constant service, estimate with
    // a 20-stage Erlang fixed point.
    let lambda = 0.8;
    let mut cfg = sim_cfg(lambda, StealPolicy::simple_ws());
    cfg.service = ServiceDistribution::unit_deterministic();
    let rep = replicate(&cfg, 3, 6);
    let m = ErlangStages::new(lambda, 20).unwrap();
    let predicted = solve(&m, &FixedPointOptions::default())
        .unwrap()
        .mean_time_in_system;
    // Paper Table 2 at λ=0.8: Sim(128) = 2.013 vs c=20 estimate 2.039.
    assert_agrees(&rep, predicted, "constant service via 20 stages");
}

#[test]
fn transfer_model_matches_simulation() {
    let lambda = 0.8;
    let policy = StealPolicy::OnEmpty {
        threshold: 4,
        choices: 1,
        batch: 1,
    };
    let mut cfg = sim_cfg(lambda, policy);
    cfg.transfer = Some(TransferTime::exponential(0.25));
    let rep = replicate(&cfg, 3, 7);
    let m = TransferWs::new(lambda, 0.25, 4).unwrap();
    let predicted = solve(&m, &FixedPointOptions::default())
        .unwrap()
        .mean_time_in_system;
    // Paper Table 3 at λ=0.8, T=4: Sim(128) = 4.003 vs estimate 3.996.
    assert_agrees(&rep, predicted, "transfer r = 0.25, T = 4");
}

#[test]
fn multi_choice_matches_simulation() {
    let lambda = 0.9;
    let policy = StealPolicy::OnEmpty {
        threshold: 2,
        choices: 2,
        batch: 1,
    };
    let rep = replicate(&sim_cfg(lambda, policy), 3, 8);
    let m = GeneralWs::new(lambda, 2, 2, 1).unwrap();
    let predicted = solve(&m, &FixedPointOptions::default())
        .unwrap()
        .mean_time_in_system;
    // Paper Table 4 at λ=0.9: Sim = 2.260 vs estimate 2.220.
    assert_agrees(&rep, predicted, "two choices, λ = 0.9");
}

#[test]
fn multi_steal_matches_simulation() {
    let lambda = 0.85;
    let policy = StealPolicy::OnEmpty {
        threshold: 6,
        choices: 1,
        batch: 3,
    };
    let rep = replicate(&sim_cfg(lambda, policy), 3, 9);
    let m = GeneralWs::new(lambda, 6, 1, 3).unwrap();
    let predicted = solve(&m, &FixedPointOptions::default())
        .unwrap()
        .mean_time_in_system;
    assert_agrees(&rep, predicted, "multi-steal k = 3, T = 6");
}

#[test]
fn rebalance_matches_simulation() {
    let lambda = 0.8;
    let policy = StealPolicy::Rebalance {
        rate: RebalanceRate::Constant(0.5),
    };
    let rep = replicate(&sim_cfg(lambda, policy), 3, 10);
    let m = Rebalance::new(lambda, RebalanceRateFn::Constant(0.5)).unwrap();
    let predicted = solve(&m, &FixedPointOptions::default())
        .unwrap()
        .mean_time_in_system;
    assert_agrees(&rep, predicted, "rebalance r = 0.5, λ = 0.8");
}

#[test]
fn heterogeneous_matches_simulation() {
    // Half the processors run at rate 1.5, half at 0.8; λ = 0.9 exceeds
    // the slow class's own capacity, so stealing carries the surplus.
    let lambda = 0.9;
    let mut cfg = sim_cfg(lambda, StealPolicy::simple_ws());
    cfg.speeds = SpeedProfile::Classes(vec![(0.5, 1.5), (0.5, 0.8)]);
    let rep = replicate(&cfg, 3, 11);
    let m = Heterogeneous::new(lambda, 0.5, 1.5, 0.8, 2).unwrap();
    let predicted = solve(&m, &FixedPointOptions::default())
        .unwrap()
        .mean_time_in_system;
    assert_agrees(&rep, predicted, "heterogeneous 1.5/0.8");
}

#[test]
fn hyperexponential_service_matches_simulation() {
    use loadsteal::meanfield::models::HyperService;
    let lambda = 0.8;
    let m = HyperService::with_scv(lambda, 4.0, 2).unwrap();
    let (p, mu1, mu2) = m.branches();
    let mut cfg = sim_cfg(lambda, StealPolicy::simple_ws());
    cfg.service = loadsteal::queueing::ServiceDistribution::HyperExp {
        p,
        rate1: mu1,
        rate2: mu2,
    };
    let rep = replicate(&cfg, 3, 16);
    let predicted = solve(&m, &FixedPointOptions::default())
        .unwrap()
        .mean_time_in_system;
    assert_agrees(&rep, predicted, "hyperexponential service scv = 4");
}

#[test]
fn work_sharing_matches_simulation() {
    use loadsteal::meanfield::models::WorkSharing;
    let lambda = 0.9;
    let policy = StealPolicy::Share {
        send_threshold: 2,
        recv_threshold: 2,
    };
    let rep = replicate(&sim_cfg(lambda, policy), 3, 15);
    let m = WorkSharing::new(lambda, 2, 2).unwrap();
    let predicted = solve(&m, &FixedPointOptions::default())
        .unwrap()
        .mean_time_in_system;
    assert_agrees(&rep, predicted, "work sharing F = R = 2");
}

#[test]
fn general_combined_model_matches_simulation() {
    // All three knobs at once: T = 6, d = 2 choices, k = 3 tasks.
    let lambda = 0.9;
    let policy = StealPolicy::OnEmpty {
        threshold: 6,
        choices: 2,
        batch: 3,
    };
    let rep = replicate(&sim_cfg(lambda, policy), 3, 13);
    let m = GeneralWs::new(lambda, 6, 2, 3).unwrap();
    let predicted = solve(&m, &FixedPointOptions::default())
        .unwrap()
        .mean_time_in_system;
    assert_agrees(&rep, predicted, "general T=6, d=2, k=3");
}

#[test]
fn erlang_arrivals_match_simulation() {
    // Regularized (Erlang-10) arrival streams, simple stealing.
    let lambda = 0.9;
    let m = ErlangArrivals::new(lambda, 10, 2).unwrap();
    let mut cfg = sim_cfg(lambda, StealPolicy::simple_ws());
    cfg.arrival = Some(m.sim_arrival_distribution());
    let rep = replicate(&cfg, 3, 14);
    let predicted = solve(&m, &FixedPointOptions::default())
        .unwrap()
        .mean_time_in_system;
    assert_agrees(&rep, predicted, "Erlang-10 arrivals");
}

#[test]
fn transient_trajectory_matches_simulation() {
    // Kurtz's theorem is about trajectories, not just fixed points: the
    // ODE solution from the empty state tracks the simulated tails
    // through the whole transient.
    use loadsteal::meanfield::models::MeanFieldModel;
    use loadsteal::meanfield::trajectory::{sample_tails, sup_distance};
    let lambda = 0.9;
    let model = SimpleWs::new(lambda).unwrap();
    let ode = sample_tails(&model, &model.empty_state(), 40.0, 1.0).unwrap();

    let mut cfg = SimConfig::paper_default(512, lambda);
    cfg.horizon = 40.0;
    cfg.warmup = 0.0;
    cfg.snapshot_interval = Some(1.0);
    let mut err_sum = 0.0;
    let runs = 4;
    for r in 0..runs {
        let res = loadsteal::sim::run_seeded(&cfg, 500 + r);
        err_sum += sup_distance(&ode, &res.snapshots, 8);
    }
    let err = err_sum / runs as f64;
    // Structural bound, not a CI: Kurtz fluctuations scale like
    // 1/√n ≈ 0.044 at n = 512, and the window allows ~2× headroom.
    assert!(err < 0.1, "transient sup error {err} too large at n = 512");
}

#[test]
fn static_drain_time_matches_large_n_makespan() {
    use loadsteal::meanfield::models::{MeanFieldModel, RepeatedSteal};
    use loadsteal::meanfield::tail::TailVector;
    use loadsteal::meanfield::trajectory::drain_time;
    let initial = 20;
    // Mean-field counterpart of the simulated policy (repeated attempts
    // at rate 8) with a vanishing arrival rate; the n-processor makespan
    // corresponds to the mean-field time at which less than one
    // processor's worth of busy mass remains (ε = 1/n).
    let model = RepeatedSteal::new(1e-9, 8.0, 2)
        .unwrap()
        .with_truncation(4 * initial);
    let start = TailVector::uniform_load(initial, 4 * initial).into_vec();
    let predicted = drain_time(&model, &start, 1.0 / 256.0, 1e5).unwrap();

    let mut cfg = SimConfig::paper_default(256, 0.0);
    cfg.lambda = 0.0;
    cfg.run_until_drained = true;
    cfg.initial_load = initial;
    cfg.warmup = 0.0;
    cfg.policy = StealPolicy::Repeated {
        rate: 8.0,
        threshold: 2,
    };
    let sim = replicate(&cfg, 5, 12).makespan_mean.mean();
    // Structural bound, not a CI: the two "done" notions (simulated
    // last completion vs mean-field mass dropping below ε = 1/n) are
    // only heuristically matched, so the window is modeling error, not
    // sampling noise. The simulated policy retries aggressively,
    // approximating the mean-field's idealized leveling.
    let err = (sim - predicted).abs() / predicted;
    assert!(
        err < 0.15,
        "drain: sim {sim:.2} vs mean-field {predicted:.2} ({:.1}%)",
        100.0 * err
    );
}
