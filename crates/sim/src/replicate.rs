//! Parallel independent replications.
//!
//! The paper reports "the average of 10 simulations of 100,000 seconds
//! each". Replications are independent given distinct seeds, so they run
//! on the rayon thread pool and are reduced with run-level statistics
//! (mean of run means plus a confidence interval over runs).
//!
//! Recorded replications ([`replicate_recorded`]) run in parallel too.
//! Each run buffers its events privately and hands them to the caller's
//! recorder 4096 at a time under one mutex, so runs contend once per
//! batch rather than once per event. A run's events keep their
//! order; concurrent runs interleave batch by batch. While the flight
//! recorder is armed, events go straight through unbuffered, so a
//! crash dump still ends at the last event before the panic.

use std::sync::Mutex;

use rayon::prelude::*;

use loadsteal_obs::{flight, Event as ObsEvent, Recorder};
use loadsteal_queueing::{ConfidenceInterval, OnlineStats};

use crate::config::SimConfig;
use crate::engine::{run_recorded, run_seeded};
use crate::metrics::SimResult;

/// Aggregated outcome of a set of replications.
#[derive(Debug, Clone)]
pub struct ReplicateResult {
    /// One result per run, in seed order.
    pub runs: Vec<SimResult>,
    /// Run-level statistics of the mean sojourn time.
    pub sojourn_mean: OnlineStats,
    /// Run-level statistics of the makespan (drained mode only).
    pub makespan_mean: OnlineStats,
}

impl ReplicateResult {
    /// Grand mean of per-run mean sojourn times (the paper's "Sim"
    /// columns).
    pub fn mean_sojourn(&self) -> f64 {
        self.sojourn_mean.mean()
    }

    /// 95% confidence interval over runs for the mean sojourn time.
    pub fn sojourn_ci(&self) -> ConfidenceInterval {
        self.sojourn_mean.confidence_interval(0.95)
    }

    /// Merged sojourn-time digest across all runs (`None` unless
    /// [`SimConfig::sojourn_digest`] was set). Per-run digests are built
    /// independently on worker threads and folded here — the mergeable
    /// layout makes the combined quantiles identical to a single-stream
    /// digest.
    pub fn merged_sojourn_digest(&self) -> Option<loadsteal_obs::Digest> {
        let mut acc: Option<loadsteal_obs::Digest> = None;
        for r in &self.runs {
            if let Some(d) = &r.sojourn_digest {
                acc.get_or_insert_with(loadsteal_obs::Digest::new).merge(d);
            }
        }
        acc
    }

    /// Average measured tail vector `s_i` across runs, padded with zeros
    /// to the longest run.
    pub fn mean_load_tails(&self) -> Vec<f64> {
        let len = self
            .runs
            .iter()
            .map(|r| r.load_tails.len())
            .max()
            .unwrap_or(0);
        let mut acc = vec![0.0; len];
        for r in &self.runs {
            for (i, &v) in r.load_tails.iter().enumerate() {
                acc[i] += v;
            }
        }
        let n = self.runs.len().max(1) as f64;
        for v in &mut acc {
            *v /= n;
        }
        acc
    }
}

/// Run `runs` independent replications in parallel, seeded
/// `base_seed, base_seed + 1, …`.
///
/// # Panics
/// Panics if `runs == 0` or the configuration is invalid.
pub fn replicate(cfg: &SimConfig, runs: usize, base_seed: u64) -> ReplicateResult {
    assert!(runs > 0, "need at least one replication");
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid simulation config: {e}"));
    let results: Vec<SimResult> = (0..runs as u64)
        .into_par_iter()
        .map(|i| {
            let _span = loadsteal_obs::span::span("sim.replicate");
            run_seeded(cfg, base_seed.wrapping_add(i))
        })
        .collect();
    aggregate(results)
}

/// [`replicate`] with every run's events — and one `replicate_done`
/// throughput summary per run — handed to `rec`.
///
/// Runs still execute in parallel. Each hands its events over in
/// batches (see the module docs), so an NDJSON trace of a multi-run
/// batch interleaves the runs batch by batch, in wall order, not seed
/// order; within a run the order is the run's own. When `rec` is
/// disabled the engines skip event construction exactly as in
/// [`replicate`].
///
/// # Panics
/// Panics if `runs == 0` or the configuration is invalid.
pub fn replicate_recorded<R: Recorder + Send>(
    cfg: &SimConfig,
    runs: usize,
    base_seed: u64,
    rec: &mut R,
) -> ReplicateResult {
    assert!(runs > 0, "need at least one replication");
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid simulation config: {e}"));
    let enabled = rec.enabled();
    let sink = Mutex::new(rec);
    let results: Vec<SimResult> = (0..runs as u64)
        .into_par_iter()
        .map(|i| {
            let _span = loadsteal_obs::span::span("sim.replicate");
            let seed = base_seed.wrapping_add(i);
            let mut batch = RunBatch::new(&sink, enabled);
            let mut r = run_recorded(cfg, seed, &mut batch);
            r.seed = seed;
            if enabled {
                batch.record(&ObsEvent::ReplicateDone {
                    seed,
                    wall_ms: r.wall_ms,
                    events: r.events_processed,
                    events_per_sec: r.events_per_sec(),
                });
                batch.hand_over(false);
            }
            r
        })
        .collect();
    aggregate(results)
}

/// Events a run buffers before it hands them to the shared recorder.
const BATCH: usize = 4096;

/// One run's private front end to the recorder shared by all runs of
/// a [`replicate_recorded`] call.
struct RunBatch<'a, 'r, R> {
    sink: &'a Mutex<&'r mut R>,
    /// `rec.enabled()`, sampled once before the runs start.
    enabled: bool,
    buf: Vec<ObsEvent>,
}

impl<'a, 'r, R: Recorder> RunBatch<'a, 'r, R> {
    fn new(sink: &'a Mutex<&'r mut R>, enabled: bool) -> Self {
        RunBatch {
            sink,
            enabled,
            buf: Vec::new(),
        }
    }

    /// Hand every buffered event to the shared recorder under one lock,
    /// then flush it if asked.
    fn hand_over(&mut self, flush: bool) {
        if self.buf.is_empty() && !flush {
            return;
        }
        let mut rec = self.sink.lock().expect("recorder mutex poisoned");
        for ev in self.buf.drain(..) {
            rec.record(&ev);
        }
        if flush {
            rec.flush();
        }
    }
}

impl<R: Recorder> Recorder for RunBatch<'_, '_, R> {
    fn enabled(&self) -> bool {
        self.enabled
    }

    fn record(&mut self, ev: &ObsEvent) {
        self.buf.push(*ev);
        // An armed flight recorder sees each event as it happens, so a
        // crash dump ends at the last event before the panic.
        if self.buf.len() >= BATCH || flight::active() {
            self.hand_over(false);
        }
    }

    fn flush(&mut self) {
        self.hand_over(true);
    }
}

fn aggregate(results: Vec<SimResult>) -> ReplicateResult {
    let mut sojourn_mean = OnlineStats::new();
    let mut makespan_mean = OnlineStats::new();
    for r in &results {
        if r.sojourn.count() > 0 {
            sojourn_mean.push(r.sojourn.mean());
        }
        if let Some(m) = r.makespan {
            makespan_mean.push(m);
        }
    }
    ReplicateResult {
        runs: results,
        sojourn_mean,
        makespan_mean,
    }
}

/// Run replications in batches until the 95% confidence interval of the
/// mean sojourn time is narrower than `target_half_width` (or `max_runs`
/// is reached). Returns the aggregate over all runs performed.
///
/// Batches of `batch` runs execute in parallel; precision typically
/// improves like `1/√runs`, so the loop predicts little and simply
/// re-checks after each batch.
pub fn replicate_until(
    cfg: &SimConfig,
    target_half_width: f64,
    max_runs: usize,
    base_seed: u64,
) -> ReplicateResult {
    assert!(target_half_width > 0.0, "need a positive precision target");
    assert!(max_runs >= 2, "need at least two runs for an interval");
    let batch = 4;
    let mut result = replicate(cfg, batch.min(max_runs), base_seed);
    while result.runs.len() < max_runs {
        let ci = result.sojourn_ci();
        if ci.half_width <= target_half_width && result.runs.len() >= 3 {
            break;
        }
        let next = batch.min(max_runs - result.runs.len());
        let more = replicate(cfg, next, base_seed + result.runs.len() as u64);
        for r in more.runs {
            if r.sojourn.count() > 0 {
                result.sojourn_mean.push(r.sojourn.mean());
            }
            if let Some(m) = r.makespan {
                result.makespan_mean.push(m);
            }
            result.runs.push(r);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StealPolicy;

    fn quick_cfg() -> SimConfig {
        let mut cfg = SimConfig::paper_default(16, 0.5);
        cfg.horizon = 2_000.0;
        cfg.warmup = 200.0;
        cfg
    }

    #[test]
    fn replications_are_deterministic_per_seed() {
        let cfg = quick_cfg();
        let a = replicate(&cfg, 3, 7);
        let b = replicate(&cfg, 3, 7);
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(x.sojourn.mean(), y.sojourn.mean());
            assert_eq!(x.tasks_completed, y.tasks_completed);
        }
    }

    #[test]
    fn distinct_seeds_give_distinct_runs() {
        let cfg = quick_cfg();
        let r = replicate(&cfg, 2, 100);
        assert_ne!(r.runs[0].sojourn.mean(), r.runs[1].sojourn.mean());
        assert_eq!(r.runs[0].seed, 100);
        assert_eq!(r.runs[1].seed, 101);
    }

    #[test]
    fn aggregate_mean_is_mean_of_run_means() {
        let cfg = quick_cfg();
        let r = replicate(&cfg, 4, 11);
        let manual: f64 =
            r.runs.iter().map(|x| x.sojourn.mean()).sum::<f64>() / r.runs.len() as f64;
        assert!((r.mean_sojourn() - manual).abs() < 1e-12);
    }

    #[test]
    fn replicate_until_stops_on_precision() {
        let cfg = quick_cfg();
        // A loose target stops at the first batch, whose interval meets
        // it…
        let loose = replicate_until(&cfg, 1.0, 32, 7);
        assert!(loose.runs.len() <= 4);
        let first = loose.sojourn_ci().half_width;
        assert!(first <= 1.0, "stopped at half-width {first}");
        // …a tight one starts from the same batch, which misses it, so
        // it keeps going (but respects the cap).
        let tight = replicate_until(&cfg, 1e-4, 8, 7);
        assert!(first > 1e-4, "first batch already at half-width {first}");
        for (a, b) in loose.runs.iter().zip(&tight.runs) {
            assert_eq!(a.sojourn.mean(), b.sojourn.mean());
        }
        assert_eq!(tight.runs.len(), 8);
        assert!(tight.sojourn_ci().half_width > 1e-4);
    }

    #[test]
    fn replicate_until_uses_distinct_seeds() {
        let cfg = quick_cfg();
        let r = replicate_until(&cfg, 1e-4, 8, 100);
        let mut seeds: Vec<u64> = r.runs.iter().map(|x| x.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), r.runs.len(), "duplicate seeds: {seeds:?}");
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_runs_panics() {
        let _ = replicate(&quick_cfg(), 0, 1);
    }

    #[test]
    #[should_panic(expected = "positive precision target")]
    fn replicate_until_rejects_zero_target() {
        let _ = replicate_until(&quick_cfg(), 0.0, 8, 1);
    }

    #[test]
    #[should_panic(expected = "at least two runs")]
    fn replicate_until_rejects_tiny_cap() {
        let _ = replicate_until(&quick_cfg(), 0.1, 1, 1);
    }

    #[test]
    fn recorded_replication_counts_events_and_matches_plain() {
        use loadsteal_obs::CountingRecorder;
        let cfg = quick_cfg();
        let mut counting = CountingRecorder::new();
        let rec = replicate_recorded(&cfg, 2, 7, &mut counting);
        let plain = replicate(&cfg, 2, 7);
        // Instrumentation must not perturb the simulation itself.
        assert_eq!(rec.mean_sojourn(), plain.mean_sojourn());
        assert_eq!(rec.runs[0].seed, 7);
        assert_eq!(rec.runs[1].seed, 8);
        let counts = counting.counts();
        assert_eq!(counts.replicates, 2);
        let arrived: u64 = rec.runs.iter().map(|r| r.tasks_arrived).sum();
        let completed: u64 = rec.runs.iter().map(|r| r.tasks_completed).sum();
        assert_eq!(counts.arrivals, arrived);
        assert_eq!(counts.completions, completed);
        assert!(counts.steal_attempts > 0);
        let events: u64 = rec.runs.iter().map(|r| r.events_processed).sum();
        assert!(events > 0);
    }

    #[test]
    fn disabled_recorder_sees_nothing() {
        use loadsteal_obs::NullRecorder;
        let r = replicate_recorded(&quick_cfg(), 1, 3, &mut NullRecorder);
        assert!(r.runs[0].events_processed > 0);
    }

    /// Runs hand over whole batches, so the merged stream splits back
    /// into each seed's own `run_recorded` stream, in order, with every
    /// seed's `replicate_done` after that seed's last event.
    #[test]
    fn recorded_runs_interleave_without_reordering() {
        use loadsteal_obs::CollectingRecorder;
        let cfg = quick_cfg();
        let seeds = [21u64, 22, 23];
        let expected: Vec<Vec<ObsEvent>> = seeds
            .iter()
            .map(|&seed| {
                let mut rec = CollectingRecorder::new();
                run_recorded(&cfg, seed, &mut rec);
                rec.into_events()
            })
            .collect();
        for stream in &expected {
            assert!(stream.len() > 4 * BATCH, "each run must span many batches");
        }
        let mut merged = CollectingRecorder::new();
        replicate_recorded(&cfg, seeds.len(), seeds[0], &mut merged);
        let mut next = [0usize; 3];
        let mut done = [false; 3];
        for ev in merged.events() {
            if let ObsEvent::ReplicateDone { seed, .. } = ev {
                let k = seeds.iter().position(|s| s == seed).expect("known seed");
                assert_eq!(next[k], expected[k].len(), "seed {seed} done early");
                assert!(!done[k], "seed {seed} done twice");
                done[k] = true;
                continue;
            }
            let k = (0..seeds.len())
                .find(|&k| !done[k] && expected[k].get(next[k]) == Some(ev))
                .unwrap_or_else(|| panic!("{ev:?} is no seed's next event"));
            next[k] += 1;
        }
        assert_eq!(done, [true; 3]);
        for k in 0..seeds.len() {
            assert_eq!(next[k], expected[k].len(), "seed {} lost events", seeds[k]);
        }
    }

    /// While the flight recorder is armed each event reaches the shared
    /// recorder at once; disarmed, it waits in the run's batch.
    #[test]
    fn armed_flight_recorder_bypasses_the_batch() {
        use loadsteal_obs::CollectingRecorder;
        let ev = ObsEvent::Heartbeat {
            t: 1.0,
            events: 1,
            tasks_in_system: 0,
        };
        let mut sink = CollectingRecorder::new();
        let shared = Mutex::new(&mut sink);
        let mut batch = RunBatch::new(&shared, true);
        // Arming is process-global: the other tests here pass in either
        // mode, and a concurrent test's panic must not drop a crash
        // dump into the crate directory.
        flight::set_dump_dir(Some(std::env::temp_dir().to_string_lossy().into_owned()));
        flight::install(16);
        batch.record(&ev);
        let armed = shared.lock().unwrap().events().len();
        flight::disarm();
        batch.record(&ev);
        let disarmed = shared.lock().unwrap().events().len();
        assert_eq!(armed, 1, "armed: the event must reach the sink at once");
        assert_eq!(disarmed, 1, "disarmed: the event must stay buffered");
        batch.hand_over(false);
        assert_eq!(shared.lock().unwrap().events().len(), 2);
    }

    #[test]
    fn no_steal_mode_runs_too() {
        let mut cfg = quick_cfg();
        cfg.policy = StealPolicy::None;
        let r = replicate(&cfg, 2, 5);
        assert!(r.mean_sojourn() > 1.0);
        for run in &r.runs {
            assert_eq!(run.steal_attempts, 0);
        }
    }
}
