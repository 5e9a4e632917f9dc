//! Table 4 — one victim choice vs. two (T = 2, n = 128).
//!
//! Expected shape: two choices help, especially at high λ (4.6 → ~2.7×
//! at λ = 0.99 in the paper), but one choice already captures most of
//! the gain; the 2-choice estimate tracks the simulation except at the
//! highest arrival rates.

use loadsteal_bench::{print_header, print_row, Protocol};
use loadsteal_core::fixed_point::{solve, FixedPointOptions};
use loadsteal_core::models::GeneralWs;
use loadsteal_sim::{SimConfig, StealPolicy};

fn main() {
    let protocol = Protocol::from_env();
    let opts = FixedPointOptions::default();
    print_header(
        "Table 4: one choice vs two victim choices (T = 2, n = 128)",
        &protocol,
        &["λ", "Sim d=1", "Sim d=2", "Est d=2", "Est d=1"],
    );
    for (row, &lambda) in [0.50, 0.70, 0.80, 0.90, 0.95, 0.99].iter().enumerate() {
        let mut cells = vec![lambda];
        for (col, d) in [1usize, 2].into_iter().enumerate() {
            let mut cfg = SimConfig::paper_default(128, lambda);
            cfg.policy = StealPolicy::OnEmpty {
                threshold: 2,
                choices: d,
                batch: 1,
            };
            let seed = 4000 + (row * 10 + col) as u64;
            cells.push(protocol.mean_sojourn(cfg, seed));
        }
        for d in [2u32, 1] {
            let m = GeneralWs::new(lambda, 2, d, 1).expect("valid");
            cells.push(solve(&m, &opts).expect("fixed point").mean_time_in_system);
        }
        print_row(&cells);
    }
    println!("\npaper (Sim d=1 | Sim d=2 | Est d=2):");
    println!("  λ=0.50: 1.620 | 1.436 | 1.433     λ=0.90: 3.586 | 2.260 | 2.220");
    println!("  λ=0.70: 2.114 | 1.680 | 1.673     λ=0.95: 5.000 | 2.742 | 2.640");
    println!("  λ=0.80: 2.576 | 1.879 | 1.864     λ=0.99: 11.306 | 4.597 | 4.011");
}
