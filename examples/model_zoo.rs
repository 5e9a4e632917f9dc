//! The whole model zoo on one screen.
//!
//! Solves every mean-field family in the crate at a common arrival rate
//! and prints its mean time in system, busy fraction, and tail decay
//! ratio — a quick map of how the paper's design knobs trade off.
//!
//! Run with: `cargo run --release --example model_zoo`

use loadsteal::meanfield::fixed_point::{solve, FixedPointOptions};
use loadsteal::meanfield::models::*;

fn main() {
    let lambda = 0.9;
    let opts = FixedPointOptions::default();
    println!("All models at λ = {lambda}:\n");
    println!(
        "{:<52} {:>8} {:>8} {:>10}",
        "model", "W", "s₁", "tail ratio"
    );
    println!("{}", "-".repeat(80));

    macro_rules! row {
        ($m:expr) => {{
            let m = $m;
            let fp = solve(&m, &opts).expect("fixed point");
            println!(
                "{:<52} {:>8.3} {:>8.4} {:>10.4}",
                m.name(),
                fp.mean_time_in_system,
                fp.task_tails[1],
                fp.tail_ratio().unwrap_or(f64::NAN),
            );
        }};
    }

    row!(NoSteal::new(lambda).unwrap());
    row!(SimpleWs::new(lambda).unwrap());
    row!(ThresholdWs::new(lambda, 4).unwrap());
    row!(Preemptive::new(lambda, 1, 3).unwrap());
    row!(RepeatedSteal::new(lambda, 2.0, 2).unwrap());
    row!(ErlangStages::new(lambda, 10).unwrap());
    row!(ErlangArrivals::new(lambda, 10, 2).unwrap());
    row!(TransferWs::new(lambda, 0.25, 4).unwrap());
    row!(GeneralWs::new(lambda, 2, 2, 1).unwrap());
    row!(GeneralWs::new(lambda, 6, 1, 3).unwrap());
    row!(GeneralWs::new(lambda, 6, 2, 3).unwrap());
    row!(Rebalance::new(lambda, RebalanceRateFn::Constant(1.0)).unwrap());
    row!(Heterogeneous::new(lambda, 0.5, 1.5, 0.8, 2).unwrap());
    row!(HyperService::with_scv(lambda, 4.0, 2).unwrap());
    row!(WorkSharing::new(lambda, 2, 2).unwrap());

    println!("\nReading guide: lower W is better; the no-steal row is the M/M/1");
    println!(
        "baseline W = 1/(1−λ) = {:.1}; every stealing variant tightens the",
        1.0 / (1.0 - lambda)
    );
    println!("tail ratio below λ = {lambda}.");
}
