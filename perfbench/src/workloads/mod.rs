//! The four workloads. Each is a closed batch: an item starts when a
//! worker frees, and every batch of a run repeats the same inputs, so
//! every batch must reproduce the first one's outputs exactly.

pub mod sim_large;
pub mod sim_paper;
pub mod solve_zoo;
pub mod trace_pipe;

use loadsteal_sim::SimResult;

use crate::measure::Metric;
use crate::span::{Span, Tracer};

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["sim-paper", "sim-large", "solve-zoo", "trace-pipe"];

/// What one batch produced, beyond its wall time.
pub struct BatchOut {
    /// Wall time of each item, in milliseconds.
    pub items_ms: Vec<f64>,
    /// Units of work done: simulated events, trace events through the
    /// pipe, or preset solves.
    pub work: u64,
    /// Calibration slices a long batch ran after each of its items (see
    /// `calib`), excluded from its wall; empty when the runner's slices
    /// around the batch suffice.
    pub kernel_s: Vec<f64>,
}

pub trait Workload {
    /// Run one batch, recording every item's checks.
    fn batch(&mut self, tracer: &Tracer, checks: &mut Checks) -> BatchOut;

    /// Layer metrics of this workload's own calls, from what the timed
    /// batches returned and the spans of its traced batches.
    fn layer_metrics(&self, batch_spans: &[Span], traced_batches: usize) -> Vec<Metric>;

    /// Layer metrics that need extra calls of their own; run once,
    /// after the timed batches of a traced run.
    fn breakdown(&mut self) -> Vec<Metric> {
        Vec::new()
    }

    /// Threads a batch keeps busy, so the calibration kernel runs on as
    /// many.
    fn threads(&self) -> usize {
        1
    }

    /// Events pending in the workload's largest simulation's event
    /// list, about 2n: 256 for the n = 128 workloads, and for the one
    /// that simulates nothing.
    fn pending_events(&self) -> usize {
        256
    }
}

/// Build a workload: configurations, reference values for its checks,
/// and a warm-up call.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sim-paper" => Box::new(sim_paper::SimPaper::setup(seed)?),
        "sim-large" => Box::new(sim_large::SimLarge::setup(seed)?),
        "solve-zoo" => Box::new(solve_zoo::SolveZoo::setup()?),
        "trace-pipe" => Box::new(trace_pipe::TracePipe::setup(seed)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// Items attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one item; `problems` lists every check it failed.
    pub fn item(&mut self, what: impl FnOnce() -> String, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures
                    .push(format!("{}: {}", what(), problems.join("; ")));
            }
        }
    }
}

/// Push `msg()` onto `problems` unless `ok`.
pub fn ensure(problems: &mut Vec<String>, ok: bool, msg: impl FnOnce() -> String) {
    if !ok {
        problems.push(msg());
    }
}

/// Everything a simulation run returns except its wall time, reduced to
/// integers so equality is bit-exact.
pub fn fingerprint(r: &SimResult) -> Vec<u64> {
    let mut v = vec![
        r.events_processed,
        r.tasks_arrived,
        r.tasks_completed,
        r.steal_attempts,
        r.steal_successes,
        r.tasks_migrated,
        r.sojourn.count(),
        r.sojourn.mean().to_bits(),
        r.sojourn.variance().to_bits(),
        r.end_time.to_bits(),
    ];
    v.extend(r.load_tails.iter().map(|x| x.to_bits()));
    for (t, s) in &r.snapshots {
        v.push(t.to_bits());
        v.extend(s.iter().map(|x| x.to_bits()));
    }
    v
}

/// Counter checks every simulation must pass.
pub fn check_counters(r: &SimResult, problems: &mut Vec<String>) {
    ensure(problems, r.tasks_completed <= r.tasks_arrived, || {
        format!(
            "completed {} > arrived {}",
            r.tasks_completed, r.tasks_arrived
        )
    });
    ensure(problems, r.steal_successes <= r.steal_attempts, || {
        format!(
            "steal successes {} > attempts {}",
            r.steal_successes, r.steal_attempts
        )
    });
    ensure(problems, r.events_processed > 0, || "no events".into());
}

/// The simulator-counter metrics shared by the two sim workloads:
/// counts from one batch (every batch repeats them) and the median
/// ns/event over batches.
pub fn sim_metrics(runs: &[SimResult], ns_per_event: &[f64]) -> Vec<Metric> {
    let sum = |f: fn(&SimResult) -> u64| runs.iter().map(f).sum::<u64>();
    let attempts = sum(|r| r.steal_attempts);
    vec![
        Metric::new(
            "sim.ns_per_event",
            crate::measure::median(ns_per_event),
            "ns",
        ),
        Metric::new("sim.events", sum(|r| r.events_processed) as f64, "count"),
        Metric::new(
            "sim.tasks_completed",
            sum(|r| r.tasks_completed) as f64,
            "count",
        ),
        Metric::new("sim.steal_attempts", attempts as f64, "count"),
        Metric::new(
            "sim.steal_hit_ratio",
            sum(|r| r.steal_successes) as f64 / attempts.max(1) as f64,
            "ratio",
        ),
    ]
}

/// Σ run time / Σ events of one batch, in ns.
pub fn ns_per_event(runs: &[SimResult]) -> f64 {
    let ms: f64 = runs.iter().map(|r| r.wall_ms).sum();
    let events: u64 = runs.iter().map(|r| r.events_processed).sum();
    ms * 1e6 / events.max(1) as f64
}

/// A seed for stream `k` of a run seeded `seed` (SplitMix64), so the
/// workloads' streams do not overlap for neighbouring seeds.
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Durations (ms) of the spans called `name`.
pub fn span_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_s() * 1e3)
        .collect()
}
