//! Metamorphic checks: properties the models must satisfy independently
//! of any simulation.
//!
//! These are relations the paper derives analytically — each one holds
//! for *every* correct transcription of the equations, so a violation
//! pins a defect to the model code without needing a statistical
//! comparison.

use loadsteal_core::fixed_point::{solve, FixedPointOptions};
use loadsteal_core::models::{
    GeneralWs, MeanFieldModel, NoSteal, Preemptive, Rebalance, RebalanceRateFn, RepeatedSteal,
    SimpleWs, ThresholdWs, WorkSharing,
};
use loadsteal_core::trajectory::mass_balance_residual;
use loadsteal_core::TailVector;

use crate::harness::{Check, Outcome, Settings};
use crate::zoo;

/// Every fixed point in the zoo must be a valid tail vector (entries in
/// `[0, 1]`, non-increasing in the level), and — for unit-speed
/// conservative variants — its busy fraction must equal λ exactly
/// (throughput balance: departures at rate `s_1` match arrivals at λ).
fn fixed_points_valid(settings: &Settings) -> Outcome {
    let mut problems = Vec::new();
    let mut seen = 0;
    for v in zoo::variants(settings) {
        let fp = match (v.predict)() {
            Ok(fp) => fp,
            Err(e) => {
                problems.push(format!("{}: solve failed: {e}", v.name));
                continue;
            }
        };
        seen += 1;
        let tails = TailVector::from_slice(&fp.task_tails[1..]);
        if !tails.is_valid(1e-6) {
            problems.push(format!("{}: fixed-point tails invalid", v.name));
        }
        if v.busy_is_lambda {
            let s1 = fp.task_tails[1];
            if (s1 - v.lambda).abs() > 1e-6 {
                problems.push(format!(
                    "{}: busy fraction {s1:.8} ≠ λ = {}",
                    v.name, v.lambda
                ));
            }
        }
    }
    if problems.is_empty() {
        Outcome::Pass(format!("{seen} fixed points valid, busy fraction = λ"))
    } else {
        Outcome::Fail(problems.join("; "))
    }
}

/// Mass conservation under the ODE flow: for unit-speed models whose
/// state is the plain task tail, `dL/dt = λ − s_1` must hold at every
/// state (stealing only moves tasks). Checked at three states with
/// negligible truncation-boundary mass.
fn mass_conservation() -> Outcome {
    fn probe<M: MeanFieldModel>(model: &M, problems: &mut Vec<String>) {
        let states = [
            model.empty_state(),
            TailVector::geometric(0.5, model.truncation()).into_vec(),
            TailVector::uniform_load(3, model.truncation()).into_vec(),
        ];
        for (k, state) in states.iter().enumerate() {
            let r = mass_balance_residual(model, state);
            if r.abs() > 1e-6 {
                problems.push(format!("{} state {k}: residual {r:.2e}", model.name()));
            }
        }
    }
    let mut problems = Vec::new();
    probe(&NoSteal::new(0.8).unwrap(), &mut problems);
    probe(&SimpleWs::new(0.9).unwrap(), &mut problems);
    probe(&ThresholdWs::new(0.85, 4).unwrap(), &mut problems);
    probe(&Preemptive::new(0.85, 1, 3).unwrap(), &mut problems);
    probe(&RepeatedSteal::new(0.9, 2.0, 2).unwrap(), &mut problems);
    probe(&GeneralWs::new(0.9, 2, 2, 1).unwrap(), &mut problems);
    probe(&GeneralWs::new(0.85, 6, 1, 3).unwrap(), &mut problems);
    probe(&GeneralWs::new(0.9, 6, 2, 3).unwrap(), &mut problems);
    probe(&WorkSharing::new(0.9, 2, 2).unwrap(), &mut problems);
    probe(
        &Rebalance::new(0.8, RebalanceRateFn::Constant(0.5)).unwrap(),
        &mut problems,
    );
    if problems.is_empty() {
        Outcome::Pass("dL/dt = λ − s₁ on 10 models × 3 states".into())
    } else {
        Outcome::Fail(problems.join("; "))
    }
}

/// The no-steal system is `n` independent M/M/1 queues: its fixed point
/// must be the geometric tail `s_i = λ^i` with `W = 1/(1 − λ)`.
fn no_steal_is_mm1() -> Outcome {
    let lambda = 0.8;
    let m = NoSteal::new(lambda).unwrap();
    let fp = match solve(&m, &FixedPointOptions::default()) {
        Ok(fp) => fp,
        Err(e) => return Outcome::Fail(format!("solve failed: {e}")),
    };
    let mut worst = 0.0_f64;
    for i in 1..=20 {
        let expect = lambda.powi(i as i32);
        let got = fp.task_tails.get(i).copied().unwrap_or(0.0);
        worst = worst.max((got - expect).abs());
    }
    let w_err = (fp.mean_time_in_system - 1.0 / (1.0 - lambda)).abs();
    if worst < 1e-7 && w_err < 1e-7 {
        Outcome::Pass(format!(
            "s_i = λ^i to {worst:.1e}, W = 1/(1−λ) to {w_err:.1e}"
        ))
    } else {
        Outcome::Fail(format!("tail error {worst:.2e}, W error {w_err:.2e}"))
    }
}

/// Mean sojourn time must be strictly increasing in λ (more load, more
/// waiting) — checked on the simple-WS family.
fn sojourn_monotone_in_lambda() -> Outcome {
    let lambdas = [0.5, 0.7, 0.8, 0.9, 0.95];
    let mut ws = Vec::new();
    for &l in &lambdas {
        let m = SimpleWs::new(l).unwrap();
        match solve(&m, &FixedPointOptions::default()) {
            Ok(fp) => ws.push(fp.mean_time_in_system),
            Err(e) => return Outcome::Fail(format!("solve(λ={l}) failed: {e}")),
        }
    }
    if ws.windows(2).all(|w| w[0] < w[1]) {
        Outcome::Pass(format!(
            "W(λ) = {:?} strictly increasing",
            ws.iter()
                .map(|w| (w * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        ))
    } else {
        Outcome::Fail(format!("W(λ) not monotone: {ws:?}"))
    }
}

/// Every stealing variant must beat the no-steal baseline at equal λ:
/// `W < 1/(1 − λ)` (Section 2.2's headline comparison, extended across
/// the zoo).
fn stealing_dominates_no_steal(settings: &Settings) -> Outcome {
    let mut problems = Vec::new();
    let mut seen = 0;
    for v in zoo::variants(settings) {
        if !v.dominates_no_steal {
            continue;
        }
        let mm1 = 1.0 / (1.0 - v.lambda);
        match (v.predict)() {
            Ok(fp) => {
                seen += 1;
                if fp.mean_time_in_system >= mm1 {
                    problems.push(format!(
                        "{}: W = {:.3} ≥ M/M/1 {:.3}",
                        v.name, fp.mean_time_in_system, mm1
                    ));
                }
            }
            Err(e) => problems.push(format!("{}: solve failed: {e}", v.name)),
        }
    }
    if problems.is_empty() {
        Outcome::Pass(format!("{seen} variants beat 1/(1−λ)"))
    } else {
        Outcome::Fail(problems.join("; "))
    }
}

/// The numeric pipeline must agree with Section 2.2's closed form:
/// `W`, and the geometric tail ratio `ρ' = λ/(1 + λ − π_2)`.
fn simple_ws_closed_form() -> Outcome {
    let m = SimpleWs::new(0.9).unwrap();
    let exact = m.closed_form_fixed_point();
    let fp = match solve(&m, &FixedPointOptions::default()) {
        Ok(fp) => fp,
        Err(e) => return Outcome::Fail(format!("solve failed: {e}")),
    };
    let w_err = (fp.mean_time_in_system - exact.mean_time_in_system).abs();
    let ratio = fp.tail_ratio().unwrap_or(f64::NAN);
    let ratio_err = (ratio - m.rho_prime()).abs();
    if w_err < 1e-6 && ratio_err < 1e-3 {
        Outcome::Pass(format!(
            "W to {w_err:.1e}, tail ratio {ratio:.4} ≈ ρ' {:.4}",
            m.rho_prime()
        ))
    } else {
        Outcome::Fail(format!("W error {w_err:.2e}, ratio error {ratio_err:.2e}"))
    }
}

/// Build the metamorphic check family.
pub fn checks(settings: &Settings) -> Vec<Check> {
    let s1 = settings.clone();
    let s2 = settings.clone();
    vec![
        Check::new("metamorphic", "fixed-points-valid", move || {
            fixed_points_valid(&s1)
        }),
        Check::new("metamorphic", "mass-conservation", mass_conservation),
        Check::new("metamorphic", "no-steal-is-mm1", no_steal_is_mm1),
        Check::new(
            "metamorphic",
            "sojourn-monotone-in-lambda",
            sojourn_monotone_in_lambda,
        ),
        Check::new("metamorphic", "stealing-dominates-no-steal", move || {
            stealing_dominates_no_steal(&s2)
        }),
        Check::new(
            "metamorphic",
            "simple-ws-closed-form",
            simple_ws_closed_form,
        ),
    ]
}
