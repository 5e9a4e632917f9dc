//! Figure: heterogeneous processor speeds (Section 3.5).
//!
//! Two speed classes with fixed aggregate capacity 1.15·λ-ish; sweep the
//! speed asymmetry. Expected shape: stealing lets slow processors run
//! above their individual capacity (λ > μ_s); more asymmetry costs more
//! waiting; slow processors carry visibly heavier tails than fast ones.

use loadsteal_bench::{print_header, print_row, Protocol};
use loadsteal_core::fixed_point::{solve, FixedPointOptions};
use loadsteal_core::models::{Heterogeneous, MeanFieldModel};
use loadsteal_sim::{SimConfig, SpeedProfile, StealPolicy};

fn main() {
    let protocol = Protocol::from_env();
    let opts = FixedPointOptions::default();
    let lambda = 0.9;
    // Half fast, half slow; aggregate capacity fixed at 1.15.
    let pairs = [(1.15, 1.15), (1.3, 1.0), (1.5, 0.8), (1.7, 0.6)];
    print_header(
        &format!("Figure: two speed classes (α = 0.5, capacity 1.15, λ = {lambda})"),
        &protocol,
        &[
            "μ_fast",
            "μ_slow",
            "Est W",
            "Sim(128) W",
            "slow s₁",
            "fast s₁",
        ],
    );
    for (mf, ms) in pairs {
        let m = Heterogeneous::new(lambda, 0.5, mf, ms, 2).expect("valid");
        let fp = solve(&m, &opts).expect("fp");
        let (fast, slow) = m.with_truncation(fp.truncation).class_tails(&fp.state);
        let mut cfg = SimConfig::paper_default(128, lambda);
        cfg.policy = StealPolicy::simple_ws();
        cfg.speeds = SpeedProfile::Classes(vec![(0.5, mf), (0.5, ms)]);
        let sim = protocol.mean_sojourn(cfg, 11_000 + (mf * 10.0) as u64);
        print_row(&[mf, ms, fp.mean_time_in_system, sim, slow[1], fast[1]]);
    }
    println!("\nshape check: slow processors stay busier (larger s₁) and W grows with");
    println!("asymmetry; λ = 0.9 > μ_slow is stable because stealing moves the surplus.");
}
