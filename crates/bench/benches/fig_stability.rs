//! Figure: stability of the fixed point (Section 4, Theorems 1–2).
//!
//! For each arrival rate, launches trajectories from three very
//! different starting states and reports the L₁ distance profile: the
//! maximum observed increase (0 ⟺ monotone contraction, the paper's
//! strong stability notion) and the time to reach a 1e−6 neighbourhood.
//! Expected shape: monotone contraction everywhere, provable only for
//! λ < (1+√5)/4 ≈ 0.809 (π₂ < 1/2).

use loadsteal_bench::Protocol;
use loadsteal_core::fixed_point::{solve, FixedPointOptions};
use loadsteal_core::models::{MeanFieldModel, SimpleWs, ThresholdWs};
use loadsteal_core::stability::{
    check_l1_contraction, simple_ws_stability_threshold, theorem_condition_holds,
};
use loadsteal_core::tail::TailVector;

fn main() {
    let _ = Protocol::from_env(); // no sims here; keep the env interface uniform
    println!("\n=== Figure: L₁ stability of the simple/threshold WS fixed points ===");
    println!(
        "Theorem 1 regime: λ < λ* = {:.6} (π₂ < 1/2)\n",
        simple_ws_stability_threshold()
    );
    println!(
        "{:>10} {:>6} {:>10} {:>16} {:>12} {:>14} {:>12} {:>10}",
        "model", "λ", "π₂<1/2?", "start", "initial D", "max increase", "t(D<1e-6)", "decay γ"
    );
    let opts = FixedPointOptions::default();
    for lambda in [0.5, 0.7, 0.809, 0.9, 0.95, 0.99] {
        // Simple WS.
        let m = SimpleWs::new(lambda).unwrap();
        let fixed = m.embed_state(&solve(&m, &opts).unwrap().state);
        for (name, start) in starts(&m) {
            let rep = check_l1_contraction(&m, &start, &fixed, 1e-6, 100_000.0).unwrap();
            print_line(
                "simple",
                lambda,
                theorem_condition_holds(lambda),
                name,
                &rep,
            );
        }
        // Threshold T = 4 (Theorem 2).
        let m = ThresholdWs::new(lambda, 4).unwrap();
        let fixed = m.embed_state(&solve(&m, &opts).unwrap().state);
        for (name, start) in starts(&m) {
            let rep = check_l1_contraction(&m, &start, &fixed, 1e-6, 100_000.0).unwrap();
            print_line("T=4", lambda, theorem_condition_holds(lambda), name, &rep);
        }
    }
    println!("\nshape check: max increase ≈ 0 (within integrator noise) for every row;");
    println!("the paper proves it only for π₂ < 1/2 and leaves the rest open.");
}

fn starts<M: MeanFieldModel>(m: &M) -> Vec<(&'static str, Vec<f64>)> {
    let l = m.truncation();
    vec![
        ("empty", m.empty_state()),
        ("uniform 4", TailVector::uniform_load(4, l).into_vec()),
        ("geometric .97", TailVector::geometric(0.97, l).into_vec()),
    ]
}

fn print_line(
    model: &str,
    lambda: f64,
    cond: bool,
    start: &str,
    rep: &loadsteal_core::stability::ContractionReport,
) {
    println!(
        "{model:>10} {lambda:>6.3} {:>10} {start:>16} {:>12.4} {:>14.2e} {:>12} {:>10}",
        if cond { "yes" } else { "no" },
        rep.initial_distance,
        rep.max_increase,
        rep.converged_at
            .map(|t| format!("{t:.1}"))
            .unwrap_or_else(|| "—".into()),
        rep.decay_rate()
            .map(|g| format!("{g:.4}"))
            .unwrap_or_else(|| "—".into()),
    );
}
