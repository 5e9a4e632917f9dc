//! The power of two choices — for thieves (the Table 4 scenario).
//!
//! In load *sharing*, letting an arriving task pick the shorter of two
//! random queues improves the maximum load exponentially. Here the
//! analogous idea — a thief samples d victims and robs the most loaded —
//! helps, but far less dramatically: one random victim already captures
//! most of the available gain, because steals (unlike arrivals) only
//! happen when they are useful. This example quantifies that with the
//! mean-field fixed points and checks them against simulation.
//!
//! Run with: `cargo run --release --example two_choices`

use loadsteal::meanfield::fixed_point::{solve, FixedPointOptions};
use loadsteal::meanfield::models::GeneralWs;
use loadsteal::sim::{replicate, SimConfig, StealPolicy};

fn main() {
    let opts = FixedPointOptions::default();
    let lambdas = [0.50, 0.70, 0.80, 0.90, 0.95, 0.99];

    println!("Mean time in system, victim threshold T = 2:");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "λ", "est d=1", "est d=2", "est d=4", "sim d=1", "sim d=2"
    );
    for lambda in lambdas {
        let est: Vec<f64> = [1u32, 2, 4]
            .iter()
            .map(|&d| {
                let m = GeneralWs::new(lambda, 2, d, 1).expect("valid");
                solve(&m, &opts).expect("fixed point").mean_time_in_system
            })
            .collect();

        let sim = |choices: usize| {
            let mut cfg = SimConfig::paper_default(128, lambda);
            cfg.horizon = 10_000.0;
            cfg.warmup = 1_000.0;
            cfg.policy = StealPolicy::OnEmpty {
                threshold: 2,
                choices,
                batch: 1,
            };
            replicate(&cfg, 3, 7).mean_sojourn()
        };

        println!(
            "{lambda:>6.2} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            est[0],
            est[1],
            est[2],
            sim(1),
            sim(2)
        );
    }
    println!("\nTwo choices help most at high λ, but d = 1 already gets most of the gain");
    println!("(and more choices cost more probes in a real system).");
}
