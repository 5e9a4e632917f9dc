//! `calibrate [seeds] [large-seeds]`: the seed sweep behind the
//! statistical tolerances of the benchmark's checks.
//!
//! For `--seed 1..=seeds` it runs every checked `sim-paper` cell exactly
//! as the workload does and reports the spread of the cell's mean
//! sojourn around the mean-field W; for `--seed 1..=large-seeds` it runs
//! `sim-large` and reports the sup-norm distance of its end-state tails
//! from the ODE trajectory. For each it prints the committed tolerance,
//! the false alarms it would raise over the sweep, and `|mean| + 6 sd`
//! as a suggestion.

use loadsteal_exec::prelude::*;
use loadsteal_exec::Pool;
use loadsteal_perfbench::workloads::{derive_seed, sim_large, sim_paper};
use loadsteal_sim::{replicate, run};

fn summary(label: &str, v: &[f64], tol: f64, signed: bool) {
    let n = v.len() as f64;
    let mean = v.iter().sum::<f64>() / n;
    let sd = (v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0).max(1.0)).sqrt();
    let min = v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let alarms = v
        .iter()
        .filter(|x| if signed { x.abs() > tol } else { **x > tol })
        .count();
    println!(
        "{label:<22} n={:<4} mean={mean:+.5} sd={sd:.5} min={min:+.5} max={max:+.5} \
         tol={tol} false_alarms={alarms}/{} suggest={:.4}",
        v.len(),
        v.len(),
        mean.abs() + 6.0 * sd
    );
}

fn main() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let mut count = |default: u64| -> Result<u64, String> {
        args.next()
            .map_or(Ok(default), |s| s.parse().map_err(|e| format!("{s}: {e}")))
    };
    let seeds = count(200)?;
    let large_seeds = count(40)?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = Pool::builder().num_threads(workers).build();

    // Cell indices are the workload's, so `derive_seed` gives each cell
    // the streams `--seed` gives it there.
    let all = sim_paper::cells(0)?;
    let cells: Vec<(u64, &sim_paper::Cell, (f64, f64))> = all
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.reference.map(|r| (i as u64, c, r)))
        .collect();
    let errors: Vec<Vec<f64>> = (1..=seeds)
        .map(|seed| {
            pool.install(|| {
                cells
                    .clone()
                    .into_par_iter()
                    .map(|(index, cell, (w, _))| {
                        let runs =
                            replicate(&cell.cfg, sim_paper::RUNS, derive_seed(seed, index)).runs;
                        sim_paper::sojourn_error(&runs, w)
                    })
                    .collect()
            })
        })
        .collect();
    println!("sim-paper: relative error of the cell's mean sojourn, --seed 1..={seeds}");
    for (c, (_, cell, (_, tol))) in cells.iter().enumerate() {
        let v: Vec<f64> = errors.iter().map(|e| e[c]).collect();
        summary(&cell.label, &v, *tol, true);
    }

    let cfg = sim_large::config();
    let reference = sim_large::reference_tails()?;
    let distances: Vec<f64> = pool.install(|| {
        (1..large_seeds + 1)
            .into_par_iter()
            .map(|seed| {
                let r = run(&cfg, derive_seed(seed, 0));
                sim_large::tail_distance(&r, &reference).unwrap_or(f64::INFINITY)
            })
            .collect()
    });
    println!("sim-large: sup-norm of end-state tails against the ODE, --seed 1..={large_seeds}");
    summary("n=65536 λ=0.9", &distances, sim_large::TAIL_TOL, false);
    Ok(())
}
