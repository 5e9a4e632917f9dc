//! Figure: multi-task steals (Section 3.4, first part).
//!
//! With a high threshold T, taking k > 1 tasks per steal equalizes the
//! load better (transfers are instantaneous in this model). Expected
//! shape: W decreases in k up to k = T/2, with the gain largest at high
//! arrival rates; the simulation agrees.

use loadsteal_bench::{print_header, print_row, Protocol};
use loadsteal_core::fixed_point::{solve, FixedPointOptions};
use loadsteal_core::models::GeneralWs;
use loadsteal_sim::{SimConfig, StealPolicy};

fn main() {
    let protocol = Protocol::from_env();
    let opts = FixedPointOptions::default();
    for (lambda, threshold) in [(0.8, 6usize), (0.95, 6), (0.95, 8)] {
        print_header(
            &format!("Figure: multi-steal sweep, λ = {lambda}, T = {threshold}"),
            &protocol,
            &["k", "Estimate W", "Sim(128) W"],
        );
        for k in 1..=threshold / 2 {
            let m = GeneralWs::new(lambda, threshold, 1, k).expect("valid");
            let est = solve(&m, &opts).expect("fp").mean_time_in_system;
            let mut cfg = SimConfig::paper_default(128, lambda);
            cfg.policy = StealPolicy::OnEmpty {
                threshold,
                choices: 1,
                batch: k,
            };
            let sim = protocol.mean_sojourn(cfg, 8000 + (threshold * 10 + k) as u64);
            print_row(&[k as f64, est, sim]);
        }
    }
    println!("\nshape check: W decreases in k (equalizing loads helps when transfers are free).");
}
