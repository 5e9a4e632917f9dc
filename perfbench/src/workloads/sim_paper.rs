//! `sim-paper`: the grid behind the paper's Tables 1–4 at n = 128.
//!
//! Simple WS over six arrival rates plus one λ = 0.9 cell each for the
//! threshold, preemptive, repeated and multi-choice presets. Each cell's
//! seeded replications fan out through `sim::replicate` inside
//! `Pool::install` on a pool of `nproc` workers. About 256 events are
//! pending at once, so the engine stays cache-resident and the cost is
//! per-event sampling, the SoA update and the executor fan-out.

use std::time::Instant;

use loadsteal_core::models::SimpleWs;
use loadsteal_core::ModelSpec;
use loadsteal_exec::prelude::*;
use loadsteal_exec::Pool;
use loadsteal_sim::{replicate, run_seeded, sim_config, SimConfig, SimResult};

use super::{check_counters, derive_seed, ensure, fingerprint, BatchOut, Checks, Workload};
use crate::measure::{median, Metric};
use crate::span::{Span, Tracer};

const N: usize = 128;
const HORIZON: f64 = 2_000.0;
const WARMUP: f64 = 200.0;
/// Replications per cell.
pub const RUNS: usize = 4;
const SIMPLE_LAMBDAS: [f64; 6] = [0.5, 0.7, 0.8, 0.9, 0.95, 0.99];
const PRESETS: [&str; 4] = ["threshold", "preemptive", "repeated", "multi-choice"];
/// The cell whose fan-out is compared bit for bit with sequential
/// `run_seeded` calls (simple WS, λ = 0.9).
const REFERENCE_CELL: usize = 3;

/// Relative tolerance of a cell's mean sojourn (mean of its `RUNS` run
/// means) against the mean-field W: |mean| + 6 sd of the error over
/// `calibrate`'s sweep of seeds 1..=200, rounded up to 0.005 (README.md
/// has the sweep; no seed in it comes near). The mean is the Θ(1/n)
/// bias of n = 128. λ = 0.99 is not checked: over 20 seeds its sojourn
/// spread −19 %…+6 %.
const SOJOURN_TOL: [(&str, f64); 9] = [
    ("simple-ws λ=0.5", 0.02),
    ("simple-ws λ=0.7", 0.03),
    ("simple-ws λ=0.8", 0.035),
    ("simple-ws λ=0.9", 0.065),
    ("simple-ws λ=0.95", 0.115),
    ("threshold λ=0.9", 0.065),
    ("preemptive λ=0.9", 0.045),
    ("repeated λ=0.9", 0.065),
    ("multi-choice λ=0.9", 0.05),
];

pub struct Cell {
    pub label: String,
    pub cfg: SimConfig,
    pub base_seed: u64,
    /// Mean-field W and the relative tolerance the cell's mean sojourn
    /// is checked with; `None` for λ = 0.99.
    pub reference: Option<(f64, f64)>,
}

/// The grid's cells with their reference values. W comes from the
/// simple-WS closed form, or from `fixed_point()` at λ = 0.9 for the
/// other presets; never from a solve at λ ≥ 0.95, which takes seconds
/// to minutes there.
pub fn cells(seed: u64) -> Result<Vec<Cell>, String> {
    let tol = |label: &str| SOJOURN_TOL.iter().find(|(l, _)| *l == label).map(|p| p.1);
    let mut specs: Vec<(String, ModelSpec, Option<f64>)> = Vec::new();
    for l in SIMPLE_LAMBDAS {
        let w = (l <= 0.95)
            .then(|| SimpleWs::new(l).map(|m| m.closed_form_mean_time()))
            .transpose()?;
        specs.push((format!("simple-ws λ={l}"), ModelSpec::simple_ws(l), w));
    }
    for p in PRESETS {
        let spec = ModelSpec::parse(&format!("{p},lambda=0.9"))?;
        let w = spec.fixed_point()?.mean_time_in_system;
        specs.push((format!("{p} λ=0.9"), spec, Some(w)));
    }
    specs
        .into_iter()
        .enumerate()
        .map(|(c, (label, spec, w))| {
            let mut cfg = sim_config(&spec, N).map_err(|e| e.to_string())?;
            cfg.horizon = HORIZON;
            cfg.warmup = WARMUP;
            let reference = match w {
                Some(w) => Some((w, tol(&label).ok_or(format!("no tolerance for {label}"))?)),
                None => None,
            };
            Ok(Cell {
                label,
                cfg,
                base_seed: derive_seed(seed, c as u64),
                reference,
            })
        })
        .collect()
}

/// Mean of the runs' mean sojourns relative to `w`, minus one.
pub fn sojourn_error(runs: &[SimResult], w: f64) -> f64 {
    let mean = runs.iter().map(|r| r.sojourn.mean()).sum::<f64>() / runs.len() as f64;
    mean / w - 1.0
}

pub struct SimPaper {
    cells: Vec<Cell>,
    pool: Pool,
    workers: usize,
    /// Sequential `run_seeded` fingerprints of the reference cell.
    reference_runs: Vec<Vec<u64>>,
    /// The first batch's runs, cell by cell; every later batch must
    /// repeat them.
    first_runs: Vec<SimResult>,
    ns_per_event: Vec<f64>,
    busy_s: Vec<f64>,
    concurrency: Vec<f64>,
    idle_frac: Vec<f64>,
}

impl SimPaper {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let cells = cells(seed)?;
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pool = Pool::builder().num_threads(workers).build();
        // The reference runs double as the warm-up.
        let r = &cells[REFERENCE_CELL];
        let reference_runs = (0..RUNS as u64)
            .map(|i| fingerprint(&run_seeded(&r.cfg, r.base_seed + i)))
            .collect();
        Ok(Self {
            cells,
            pool,
            workers,
            reference_runs,
            first_runs: Vec::new(),
            ns_per_event: Vec::new(),
            busy_s: Vec::new(),
            concurrency: Vec::new(),
            idle_frac: Vec::new(),
        })
    }

    /// All cells' replications, fanned out on the pool. The traced
    /// variant runs the same `into_par_iter().map(run_seeded)` that
    /// `replicate` runs, so that each run can carry its own span; the
    /// reference-cell check pins both to the same results.
    fn fan_out(&self, tracer: &Tracer) -> Vec<Vec<SimResult>> {
        let cells = &self.cells;
        if !tracer.enabled() {
            return self.pool.install(|| {
                (0..cells.len())
                    .into_par_iter()
                    .map(|c| replicate(&cells[c].cfg, RUNS, cells[c].base_seed).runs)
                    .collect()
            });
        }
        tracer.span("exec", "install+fan-out", || {
            let parent = tracer.current();
            self.pool.install(|| {
                (0..cells.len())
                    .into_par_iter()
                    .map(|c| {
                        let cell = &cells[c];
                        (0..RUNS as u64)
                            .into_par_iter()
                            .map(|i| {
                                tracer.span_in(parent, "sim", "run_seeded", || {
                                    run_seeded(&cell.cfg, cell.base_seed + i)
                                })
                            })
                            .collect()
                    })
                    .collect()
            })
        })
    }
}

impl Workload for SimPaper {
    fn batch(&mut self, tracer: &Tracer, checks: &mut Checks) -> BatchOut {
        let t = Instant::now();
        let results = self.fan_out(tracer);
        let wall = t.elapsed().as_secs_f64();

        let prints: Vec<Vec<Vec<u64>>> = results
            .iter()
            .map(|runs| runs.iter().map(fingerprint).collect())
            .collect();
        for (c, (cell, runs)) in self.cells.iter().zip(&results).enumerate() {
            let mut cell_problems = Vec::new();
            if let Some((w, tol)) = cell.reference {
                let err = sojourn_error(runs, w);
                ensure(&mut cell_problems, err.abs() <= tol, || {
                    format!(
                        "mean sojourn off mean-field W={w:.4} by {:+.2}% (tolerance {:.1}%)",
                        100.0 * err,
                        100.0 * tol
                    )
                });
            }
            if c == REFERENCE_CELL {
                ensure(&mut cell_problems, prints[c] == self.reference_runs, || {
                    "fan-out differs from sequential run_seeded of the same seeds".into()
                });
            }
            for (i, r) in runs.iter().enumerate() {
                let mut problems = cell_problems.clone();
                check_counters(r, &mut problems);
                ensure(
                    &mut problems,
                    r.sojourn.count() > 0 && r.sojourn.mean().is_finite(),
                    || "no finite sojourn".into(),
                );
                if let Some(first) = self.first_runs.get(c * RUNS + i) {
                    ensure(&mut problems, prints[c][i] == fingerprint(first), || {
                        "differs from the first batch's run of the same seed".into()
                    });
                }
                checks.item(|| format!("{} run {i}", cell.label), &problems);
            }
        }

        let runs: Vec<SimResult> = results.into_iter().flatten().collect();
        let busy: f64 = runs.iter().map(|r| r.wall_ms).sum::<f64>() / 1e3;
        self.ns_per_event.push(super::ns_per_event(&runs));
        self.busy_s.push(busy);
        self.concurrency.push(busy / wall);
        self.idle_frac
            .push(1.0 - busy / (self.workers as f64 * wall));
        let out = BatchOut {
            items_ms: runs.iter().map(|r| r.wall_ms).collect(),
            work: runs.iter().map(|r| r.events_processed).sum(),
            kernel_s: Vec::new(),
        };
        if self.first_runs.is_empty() {
            self.first_runs = runs;
        }
        out
    }

    fn layer_metrics(&self, _batch_spans: &[Span], _traced: usize) -> Vec<Metric> {
        let mut m = super::sim_metrics(&self.first_runs, &self.ns_per_event);
        m.extend([
            Metric::new("exec.workers", self.workers as f64, "count"),
            Metric::new("exec.busy_s", median(&self.busy_s), "s"),
            Metric::new("exec.concurrency", median(&self.concurrency), "ratio"),
            Metric::new("exec.idle_frac", median(&self.idle_frac), "ratio"),
        ]);
        m
    }

    fn threads(&self) -> usize {
        self.workers
    }
}
