//! Executor layer: the *measured* work-stealing pool against the
//! mean-field fixed point.
//!
//! Every other layer checks the discrete-event simulator against the
//! ODEs. This one closes the remaining gap to the paper's subject
//! matter: it drives the real thread pool
//! ([`loadsteal_exec::stealbench`]) with the per-processor
//! Poisson(λ)/Exp(1) workload at λ = 0.9 under the
//! one-steal-per-idle-transition policy, captures the pool's
//! `loadsteal.trace.v1` event stream through the
//! [`loadsteal_obs::ShardedRecorder`] path that `loadsteal stealbench`
//! ships, reconstructs queue occupancies with the same
//! [`loadsteal_trace::Timeline`] replay the simulator traces go
//! through, and requires:
//!
//! * **trace consistency** — the measured trace replays into a single
//!   coherent run: no queue-depth underflows, every migration carries
//!   both endpoints, arrivals and completions in the trace equal the
//!   driver's and the pool's own counters;
//! * **steal success ≈ π₂** — the fraction of steal probes that find a
//!   task matches the fixed point's probability that a random victim
//!   holds ≥ 2 tasks;
//! * **tail occupancies ≈ s₁…s₃** — time-averaged fractions of busy /
//!   doubly-loaded / triply-loaded workers match the fixed point;
//! * **arrival-rate sanity** — the trace-measured λ̂ is the λ that was
//!   asked for (the timing discipline in the bench driver actually
//!   landed).
//!
//! Bounds are the harness's usual `t-CI + c/n + floor` with `n` the
//! *worker* count — 16 workers is far from the mean-field limit, so
//! the finite-size allowance does real work here, exactly as the
//! theory says it must.
//!
//! The measurements are wall-clock timed, so these checks are marked
//! [`Check::serial`] and a run's data is captured once and shared.

use std::sync::{Arc, OnceLock};

use loadsteal_core::ModelSpec;
use loadsteal_exec::stealbench::{run_once, StealBenchConfig, StealBenchOutcome};
use loadsteal_obs::{CollectingRecorder, ShardSink, ShardedRecorder};
use loadsteal_queueing::OnlineStats;
use loadsteal_trace::{Timeline, TimelineConfig};

use crate::harness::{Check, Outcome, Settings, Tier};
use crate::stat;

/// Pool workers = model processors for the measured runs.
const WORKERS: usize = 16;

/// Arrival rate for the agreement checks (the paper's hardest Table 1
/// row that is still comfortably stable).
const LAMBDA: f64 = 0.9;

/// Seconds of wall clock per model time unit.
const TAU: f64 = 0.004;

/// Deepest tail level compared (`s_1 ..= s_3`).
const TAIL_DEPTH: usize = 3;

/// One measured run: driver/pool counters plus the trace replay.
pub struct MeasuredRun {
    /// Counters from the bench driver and the pool.
    pub out: StealBenchOutcome,
    /// Timeline reconstructed from the captured trace.
    pub tl: Timeline,
}

/// Model-time horizon per run for a tier (wall time = horizon × τ; the
/// full tier buys roughly double the sample).
fn tier_horizon(tier: Tier) -> f64 {
    match tier {
        Tier::Quick => 300.0,
        Tier::Full => 600.0,
    }
}

/// Drive `runs` measured executor runs and replay each trace. Warmup
/// for the replay is 15% of the horizon (the occupancy process mixes
/// in O(10) time units at λ = 0.9).
pub fn measure(runs: usize, base_seed: u64, horizon: f64) -> Result<Vec<MeasuredRun>, String> {
    let warmup = 0.15 * horizon;
    let mut all = Vec::with_capacity(runs);
    for i in 0..runs as u64 {
        let cfg = StealBenchConfig {
            workers: WORKERS,
            lambda: LAMBDA,
            horizon,
            tau: TAU,
            seed: base_seed.wrapping_add(i),
        };
        // The sharded path `loadsteal stealbench` ships: one shard per
        // worker plus one for the submitting thread, merged back into t
        // order on finish.
        let sink = Arc::new(ShardedRecorder::new(CollectingRecorder::new(), WORKERS + 1));
        let out = run_once(&cfg, Arc::clone(&sink) as Arc<dyn ShardSink>)?;
        let events = Arc::try_unwrap(sink)
            .map_err(|_| "trace sink still shared after pool shutdown".to_string())?
            .finish()
            .into_events();
        let tl = Timeline::build(
            &events,
            &TimelineConfig {
                warmup,
                ..TimelineConfig::default()
            },
        );
        all.push(MeasuredRun { out, tl });
    }
    Ok(all)
}

/// Shared measurement cache: the four checks report on one set of runs
/// (checks execute one at a time — they are serial — so the first one
/// to run pays the wall time).
type BenchCache = Arc<OnceLock<Result<Vec<MeasuredRun>, String>>>;

fn cached<'a>(cache: &'a BenchCache, settings: &Settings) -> Result<&'a [MeasuredRun], String> {
    cache
        .get_or_init(|| measure(settings.runs, settings.seed, tier_horizon(settings.tier)))
        .as_ref()
        .map(|v| v.as_slice())
        .map_err(Clone::clone)
}

/// Trace hygiene: every run's trace must replay into a coherent
/// single-run timeline that agrees with the independent counters.
fn consistency_check(cache: &BenchCache, settings: &Settings) -> Outcome {
    let data = match cached(cache, settings) {
        Ok(d) => d,
        Err(e) => return Outcome::Fail(e),
    };
    let mut total_events = 0u64;
    for (i, r) in data.iter().enumerate() {
        let tl = &r.tl;
        if tl.depth_underflows > 0 || tl.sourceless_migrations > 0 {
            return Outcome::Fail(format!(
                "run {i}: {} depth underflows, {} sourceless migrations — trace is not a coherent single run",
                tl.depth_underflows, tl.sourceless_migrations
            ));
        }
        if tl.n_procs != WORKERS {
            return Outcome::Fail(format!(
                "run {i}: trace names {} processors, pool has {WORKERS}",
                tl.n_procs
            ));
        }
        if tl.counts.arrivals != r.out.submitted {
            return Outcome::Fail(format!(
                "run {i}: trace has {} arrivals, driver submitted {}",
                tl.counts.arrivals, r.out.submitted
            ));
        }
        if tl.counts.completions != r.out.stats.executed {
            return Outcome::Fail(format!(
                "run {i}: trace has {} completions, pool executed {}",
                tl.counts.completions, r.out.stats.executed
            ));
        }
        if tl.counts.steal_attempts != r.out.stats.steal_attempts
            || tl.counts.steal_successes != r.out.stats.steal_successes
        {
            return Outcome::Fail(format!(
                "run {i}: trace steal counts ({}/{}) disagree with pool counters ({}/{})",
                tl.counts.steal_successes,
                tl.counts.steal_attempts,
                r.out.stats.steal_successes,
                r.out.stats.steal_attempts
            ));
        }
        total_events += tl.counts.arrivals
            + tl.counts.completions
            + tl.counts.steal_attempts
            + tl.counts.steal_successes
            + tl.counts.migrations;
    }
    Outcome::Pass(format!(
        "{} runs, {total_events} events; every trace replays cleanly and matches the pool counters",
        data.len()
    ))
}

/// Solve the mean-field fixed point the measurements are compared to.
fn fixed_point() -> Result<loadsteal_core::fixed_point::FixedPoint, String> {
    ModelSpec::simple_ws(LAMBDA).fixed_point()
}

/// Steal success rate vs π₂ (the fixed-point probability a random
/// victim holds ≥ 2 tasks).
fn steal_success_check(cache: &BenchCache, settings: &Settings) -> Outcome {
    let data = match cached(cache, settings) {
        Ok(d) => d,
        Err(e) => return Outcome::Fail(e),
    };
    let fp = match fixed_point() {
        Ok(fp) => fp,
        Err(e) => return Outcome::Fail(format!("fixed-point solve failed: {e}")),
    };
    let pi2 = fp.task_tails.get(2).copied().unwrap_or(0.0);
    let rates: OnlineStats = data.iter().map(|r| r.out.steal_success_rate()).collect();
    let attempts: u64 = data.iter().map(|r| r.out.stats.steal_attempts).sum();
    let a = stat::Agreement {
        what: format!("steal success over {attempts} probes"),
        observed: rates.mean(),
        predicted: pi2,
        bound: stat::bound_from(
            &rates,
            pi2,
            WORKERS,
            stat::FINITE_N_REL_TAIL,
            stat::ABS_FLOOR_TAIL,
        ),
    };
    if a.holds() {
        Outcome::Pass(a.describe())
    } else {
        Outcome::Fail(a.describe())
    }
}

/// Time-averaged tail occupancies `s_1 ..= s_3` vs the fixed point.
fn tails_check(cache: &BenchCache, settings: &Settings) -> Outcome {
    let data = match cached(cache, settings) {
        Ok(d) => d,
        Err(e) => return Outcome::Fail(e),
    };
    let fp = match fixed_point() {
        Ok(fp) => fp,
        Err(e) => return Outcome::Fail(format!("fixed-point solve failed: {e}")),
    };
    let mut agreements = Vec::new();
    for level in 1..=TAIL_DEPTH {
        let predicted = fp.task_tails.get(level).copied().unwrap_or(0.0);
        let stats: OnlineStats = data
            .iter()
            .map(|r| r.tl.tails.get(level).copied().unwrap_or(0.0))
            .collect();
        agreements.push(stat::Agreement {
            what: format!("measured tail s_{level}"),
            observed: stats.mean(),
            predicted,
            bound: stat::bound_from(
                &stats,
                predicted,
                WORKERS,
                stat::FINITE_N_REL_TAIL,
                stat::ABS_FLOOR_TAIL,
            ),
        });
    }
    let failed: Vec<String> = agreements
        .iter()
        .filter(|a| !a.holds())
        .map(stat::Agreement::describe)
        .collect();
    if failed.is_empty() {
        Outcome::Pass(
            agreements
                .iter()
                .map(stat::Agreement::describe)
                .collect::<Vec<_>>()
                .join("; "),
        )
    } else {
        Outcome::Fail(failed.join("; "))
    }
}

/// The trace-measured per-worker arrival rate must be the λ the bench
/// driver was asked for — the timing discipline check.
fn arrival_rate_check(cache: &BenchCache, settings: &Settings) -> Outcome {
    let data = match cached(cache, settings) {
        Ok(d) => d,
        Err(e) => return Outcome::Fail(e),
    };
    let rates: OnlineStats = data.iter().map(|r| r.tl.arrival_rate()).collect();
    let a = stat::Agreement {
        what: "measured λ̂".into(),
        observed: rates.mean(),
        predicted: LAMBDA,
        bound: stat::bound_from(
            &rates,
            LAMBDA,
            WORKERS,
            stat::FINITE_N_REL_TAIL,
            stat::ABS_FLOOR_TAIL,
        ),
    };
    if a.holds() {
        Outcome::Pass(a.describe())
    } else {
        Outcome::Fail(a.describe())
    }
}

/// Assemble the executor checks. All four are serial (wall-clock
/// measurements) and share one cached set of runs.
pub fn checks(settings: &Settings) -> Vec<Check> {
    let cache: BenchCache = Arc::new(OnceLock::new());
    let mut checks = Vec::new();
    let (c, s) = (Arc::clone(&cache), settings.clone());
    checks.push(Check::serial("executor", "trace-consistency", move || {
        consistency_check(&c, &s)
    }));
    let (c, s) = (Arc::clone(&cache), settings.clone());
    checks.push(Check::serial(
        "executor",
        format!("steal-success(λ={LAMBDA})"),
        move || steal_success_check(&c, &s),
    ));
    let (c, s) = (Arc::clone(&cache), settings.clone());
    checks.push(Check::serial(
        "executor",
        format!("tails(λ={LAMBDA})"),
        move || tails_check(&c, &s),
    ));
    let (c, s) = (Arc::clone(&cache), settings.clone());
    checks.push(Check::serial(
        "executor",
        format!("arrival-rate(λ={LAMBDA})"),
        move || arrival_rate_check(&c, &s),
    ));
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_serial_checks_in_the_executor_group() {
        let s = Settings::tiny(3);
        let cs = checks(&s);
        assert_eq!(cs.len(), 4);
        for c in &cs {
            assert_eq!(c.group, "executor");
            assert!(c.serial, "{} must be serial", c.name);
        }
    }

    #[test]
    fn fixed_point_matches_the_paper_row() {
        // Table 1's λ = 0.9 column: π₂ ≈ 0.6459 for the basic model.
        let fp = fixed_point().unwrap();
        let pi2 = fp.task_tails[2];
        assert!((pi2 - 0.6459).abs() < 5e-4, "π₂ = {pi2}");
        assert!((fp.task_tails[1] - LAMBDA).abs() < 1e-9);
    }

    /// A short measured run (≈0.4 s wall) replays cleanly and lands in
    /// a loose physical window. The λ = 0.9 precision claims are
    /// exercised by `loadsteal verify --quick`, where the serial
    /// scheduling guarantees a quiet machine; here other test threads
    /// share the CPU, so only robustness is asserted.
    #[test]
    fn short_measured_run_is_coherent() {
        let data = measure(2, 77, 100.0).expect("bench runs");
        assert_eq!(data.len(), 2);
        for r in &data {
            assert_eq!(r.tl.depth_underflows, 0);
            assert_eq!(r.tl.sourceless_migrations, 0);
            assert_eq!(r.tl.counts.arrivals, r.out.submitted);
            assert_eq!(r.tl.counts.completions, r.out.stats.executed);
            assert!(r.out.stats.steal_attempts > 0, "idle workers must probe");
            let rate = r.out.steal_success_rate();
            assert!(
                (0.3..=0.95).contains(&rate),
                "steal success {rate} outside any plausible window for λ = 0.9"
            );
            let s1 = r.tl.tails.get(1).copied().unwrap_or(0.0);
            assert!((0.7..=1.0).contains(&s1), "s₁ = {s1}");
        }
    }
}
