//! Wall-clock runs of the steal-bench driver on the real pool. Service is
//! a sleep, so a run's counters depend on the CPU it gets: these tests
//! have a test binary of their own (cargo runs test binaries one at a
//! time) and run one at a time within it.

use std::sync::{Arc, Mutex, MutexGuard};

use loadsteal_exec::stealbench::{run_once, StealBenchConfig, StealBenchOutcome};
use loadsteal_obs::{CollectingRecorder, Event, ShardSink, ShardedRecorder, SimEventKind};

/// Held by each test for its whole run. The guarded value is `()`, so a
/// lock poisoned by a failed test is still safe to take.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny() -> StealBenchConfig {
    StealBenchConfig {
        workers: 4,
        lambda: 0.7,
        horizon: 40.0,
        tau: 0.002,
        seed: 11,
    }
}

/// Run `cfg` through [`run_once`] into a sharded collecting sink
/// with one shard per worker plus the driver's, and return the
/// counters with the merged event stream.
fn traced_run(cfg: &StealBenchConfig) -> (StealBenchOutcome, Vec<Event>) {
    let sink = Arc::new(ShardedRecorder::new(
        CollectingRecorder::new(),
        cfg.workers + 1,
    ));
    let out = run_once(cfg, Arc::clone(&sink) as Arc<dyn ShardSink>).expect("bench runs");
    let events = Arc::try_unwrap(sink)
        .unwrap_or_else(|_| panic!("pool must release its sink on shutdown"))
        .finish()
        .into_events();
    (out, events)
}

/// End-to-end smoke: a short run's arrival/completion/steal events
/// are consistent with the pool counters. (~80 ms of wall clock.)
#[test]
fn run_once_produces_a_consistent_trace() {
    let _alone = one_at_a_time();
    let (out, events) = traced_run(&tiny());
    assert!(!events.is_empty(), "trace must not be empty");
    let mut arrivals = 0u64;
    let mut completions = 0u64;
    let mut attempts = 0u64;
    let mut successes = 0u64;
    let mut migrations = 0u64;
    for e in &events {
        if let Event::Sim { kind, .. } = e {
            match kind {
                SimEventKind::Arrival => arrivals += 1,
                SimEventKind::Completion => completions += 1,
                SimEventKind::StealAttempt => attempts += 1,
                SimEventKind::StealSuccess => successes += 1,
                SimEventKind::Migration => migrations += 1,
            }
        }
    }
    assert_eq!(arrivals, out.submitted);
    assert_eq!(completions, out.completed);
    assert_eq!(attempts, out.stats.steal_attempts);
    assert_eq!(successes, out.stats.steal_successes);
    assert_eq!(migrations, successes, "every success migrates one task");
    assert!(completions <= arrivals, "cannot complete more than arrived");
    // At λ=0.7 over 40 time units the system is busy enough that
    // the vast majority of arrivals complete within the horizon.
    assert!(completions as f64 >= 0.8 * arrivals as f64);
}

/// The merge-on-drain interleaves every shard into one stream:
/// arrivals (driver shard) and each worker's completions (its own
/// shard) all reach the sink, globally monotone in `t`.
#[test]
fn run_once_sharded_produces_a_consistent_merged_trace() {
    let _alone = one_at_a_time();
    let cfg = tiny();
    let (out, events) = traced_run(&cfg);
    assert!(!events.is_empty(), "merged trace must not be empty");
    let mut arrivals = 0u64;
    let mut completed_by = vec![0u64; cfg.workers];
    let mut last_t = f64::NEG_INFINITY;
    for e in &events {
        if let Event::Sim { kind, t, proc, .. } = e {
            assert!(*t >= last_t, "merged trace must be monotone in t");
            last_t = *t;
            match kind {
                SimEventKind::Arrival => arrivals += 1,
                SimEventKind::Completion => completed_by[*proc as usize] += 1,
                _ => {}
            }
        }
    }
    assert_eq!(arrivals, out.submitted);
    assert!(
        completed_by.iter().all(|&c| c > 0),
        "every worker's shard must reach the merged trace: {completed_by:?}"
    );
    assert_eq!(completed_by.iter().sum::<u64>(), out.completed);
}
