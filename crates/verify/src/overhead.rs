//! Overhead layer: the telemetry pipeline itself.
//!
//! Every other layer trusts the trace: it treats the recorded event
//! stream as ground truth about what the simulator or the executor
//! did. This layer closes the loop on that assumption by checking the
//! *pipeline* that produces the stream:
//!
//! * **sharded-vs-locked equivalence** — a deterministic multi-thread
//!   synthetic stream recorded through the sharded path
//!   ([`loadsteal_obs::ShardedRecorder`]) and through a locked
//!   reference sink (one mutex for every producer, private to this
//!   module) must serialize to bit-for-bit identical event multisets,
//!   and the merged sharded stream must preserve each shard's emission
//!   order and be globally nondecreasing in `t` (the ordering contract
//!   in `docs/trace-schema.md`);
//! * **pinned-seed stealbench equivalence** — the executor bench run
//!   once into the locked reference sink and once into the sharded
//!   recorder on the same seed must submit the same jobs, trace the
//!   same arrival sequence (the arrival plan is seed-deterministic),
//!   and account for every completion its pool counters report, in
//!   both runs;
//! * **tracing overhead budget** — full tracing on the simulator bench
//!   (every event serialized to NDJSON) must cost at most
//!   [`OVERHEAD_BUDGET`] × the untraced run. The sharded/batched
//!   pipeline exists so observability stays affordable; this check is
//!   the regression gate on that promise (budget table in
//!   `docs/telemetry.md`).
//!
//! The overhead measurement is wall-clock timed, so it and the bench
//! run are marked [`Check::serial`]; the synthetic equivalence check
//! is pure CPU and runs with the concurrent pool.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use loadsteal_core::ModelSpec;
use loadsteal_exec::stealbench::{run_once, StealBenchConfig};
use loadsteal_obs::{
    CollectingRecorder, Event, NdjsonRecorder, Recorder, ShardSink, ShardedRecorder, SimEventKind,
};
use loadsteal_sim::{run_recorded, run_seeded, sim_config};

use crate::harness::{Check, Outcome, Settings, Tier};

/// Maximum allowed wall-clock ratio of a fully traced simulator run
/// (every event serialized to NDJSON) over the untraced run. Eight
/// `verify --quick --filter overhead` runs on a 2-vCPU Xeon host read
/// 4.3–4.7× (median 4.5×): the engine simulates ≈ 28 M events/s
/// untraced and ≈ 6.4 M events/s with every event encoded straight
/// into the batch buffer (see `docs/telemetry.md`). The budget is 1.5×
/// the worst of the runs that set it (5.3×), rounded up. It leaves headroom for slow
/// shared runners while still catching a per-event allocation in the
/// encoder (the allocating encoder read 7.9–14.6× on the same host), a
/// reintroduced per-event sink lock or an unbatched write path.
pub const OVERHEAD_BUDGET: f64 = 8.0;

/// Threads hammering the recorder in the synthetic equivalence check.
const SYN_THREADS: usize = 8;

/// Events emitted per thread in the synthetic stream.
const SYN_EVENTS: usize = 4_000;

/// The reference the sharded path is checked against: every producer
/// records through one mutex, so events land in the order the lock
/// admits them, whatever shard they name.
struct LockedSink(Mutex<CollectingRecorder>);

impl LockedSink {
    fn new() -> Self {
        LockedSink(Mutex::new(CollectingRecorder::new()))
    }

    fn into_events(self) -> Vec<Event> {
        self.0
            .into_inner()
            .expect("locked sink poisoned")
            .into_events()
    }
}

impl ShardSink for LockedSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, _shard: usize, ev: &Event) {
        self.0.lock().expect("locked sink poisoned").record(ev);
    }

    fn shards(&self) -> usize {
        usize::MAX
    }
}

/// The deterministic event stream thread `shard` emits: `count` is a
/// 1-based per-shard sequence stamp (so order survives serialization)
/// and the `t` values are strictly increasing within the shard.
fn synthetic_stream(shard: usize) -> Vec<Event> {
    (0..SYN_EVENTS)
        .map(|i| Event::Sim {
            kind: match i % 4 {
                0 => SimEventKind::Arrival,
                1 => SimEventKind::StealAttempt,
                2 => SimEventKind::StealSuccess,
                _ => SimEventKind::Completion,
            },
            t: shard as f64 + i as f64 * 1e-5,
            proc: shard as u32,
            src: None,
            count: i as u32 + 1,
        })
        .collect()
}

/// Record every shard's synthetic stream from its own thread through
/// `record`, which receives `(shard, event)`.
fn hammer(record: impl Fn(usize, &Event) + Sync) {
    std::thread::scope(|scope| {
        for shard in 0..SYN_THREADS {
            let record = &record;
            scope.spawn(move || {
                for ev in synthetic_stream(shard) {
                    record(shard, &ev);
                }
            });
        }
    });
}

/// Sharded-vs-locked equivalence on the synthetic stream: identical
/// serialized multisets, per-shard order preserved after the merge,
/// global `t` order nondecreasing.
fn equivalence_check() -> Outcome {
    let sharded = ShardedRecorder::new(CollectingRecorder::new(), SYN_THREADS);
    hammer(|shard, ev| sharded.record(shard, ev));
    let total = sharded.recorded();
    let merged = sharded.finish().into_events();

    let locked = LockedSink::new();
    hammer(|shard, ev| locked.record(shard, ev));
    let interleaved = locked.into_events();

    let expected = (SYN_THREADS * SYN_EVENTS) as u64;
    if total != expected || merged.len() as u64 != expected {
        return Outcome::Fail(format!(
            "sharded recorder lost events: {total} recorded, {} merged, {expected} emitted",
            merged.len()
        ));
    }

    // Bit-for-bit multiset equality of the serialized streams.
    let canon = |evs: &[Event]| {
        let mut lines: Vec<String> = evs.iter().map(Event::to_json_line).collect();
        lines.sort_unstable();
        lines
    };
    if canon(&merged) != canon(&interleaved) {
        return Outcome::Fail(
            "sharded and locked recorders serialized different event multisets".into(),
        );
    }

    // Per-shard emission order survives the merge (count is the
    // per-shard sequence stamp), and the merge is globally t-ordered.
    let mut next_seq = [1u32; SYN_THREADS];
    let mut last_t = f64::NEG_INFINITY;
    for ev in &merged {
        let Event::Sim { t, proc, count, .. } = ev else {
            return Outcome::Fail("unexpected event kind in merged stream".into());
        };
        if *t < last_t {
            return Outcome::Fail(format!("merged stream regressed in t at proc {proc}"));
        }
        last_t = *t;
        let shard = *proc as usize;
        if *count != next_seq[shard] {
            return Outcome::Fail(format!(
                "shard {shard} order broken: saw seq {count}, expected {}",
                next_seq[shard]
            ));
        }
        next_seq[shard] += 1;
    }
    Outcome::Pass(format!(
        "{SYN_THREADS} threads × {SYN_EVENTS} events: multisets bit-identical, per-shard order and global t-order hold"
    ))
}

/// Stealbench configuration for the pinned-seed equivalence run:
/// small enough that two serial wall-clock runs cost ≈ 0.2 s.
fn bench_cfg(seed: u64) -> StealBenchConfig {
    StealBenchConfig {
        workers: 8,
        lambda: 0.8,
        horizon: 50.0,
        tau: 0.002,
        seed,
    }
}

/// The arrival `proc` sequence of a trace, in stream order. Both
/// sinks must reproduce the bench's seed-deterministic
/// submission plan exactly.
fn arrival_procs(events: &[Event]) -> Vec<u32> {
    events
        .iter()
        .filter_map(|ev| match ev {
            Event::Sim {
                kind: SimEventKind::Arrival,
                proc,
                ..
            } => Some(*proc),
            _ => None,
        })
        .collect()
}

/// Pinned-seed equivalence of the executor bench traced into the
/// locked reference sink and into the sharded recorder.
fn stealbench_check(settings: &Settings) -> Outcome {
    let cfg = bench_cfg(settings.seed ^ 0x0B5E_C0DE);
    let locked_sink = Arc::new(LockedSink::new());
    let locked_out = match run_once(&cfg, Arc::clone(&locked_sink) as Arc<dyn ShardSink>) {
        Ok(o) => o,
        Err(e) => return Outcome::Fail(format!("locked run failed: {e}")),
    };
    let locked_events = match Arc::try_unwrap(locked_sink) {
        Ok(s) => s.into_events(),
        Err(_) => return Outcome::Fail("locked sink still shared after shutdown".into()),
    };

    let sharded_sink = Arc::new(ShardedRecorder::new(
        CollectingRecorder::new(),
        cfg.workers + 1,
    ));
    let sharded_out = match run_once(&cfg, Arc::clone(&sharded_sink) as Arc<dyn ShardSink>) {
        Ok(o) => o,
        Err(e) => return Outcome::Fail(format!("sharded run failed: {e}")),
    };
    let sharded_events = match Arc::try_unwrap(sharded_sink) {
        Ok(s) => s.finish().into_events(),
        Err(_) => return Outcome::Fail("sharded sink still shared after shutdown".into()),
    };

    if locked_out.submitted != sharded_out.submitted {
        return Outcome::Fail(format!(
            "same seed submitted {} jobs locked vs {} sharded — plan is not deterministic",
            locked_out.submitted, sharded_out.submitted
        ));
    }
    let (la, sa) = (
        arrival_procs(&locked_events),
        arrival_procs(&sharded_events),
    );
    if la != sa {
        return Outcome::Fail(format!(
            "arrival sequences diverge: {} locked vs {} sharded arrivals",
            la.len(),
            sa.len()
        ));
    }
    if la.len() as u64 != locked_out.submitted {
        return Outcome::Fail(format!(
            "{} traced arrivals vs {} submitted",
            la.len(),
            locked_out.submitted
        ));
    }
    for (path, out, events) in [
        ("locked", &locked_out, &locked_events),
        ("sharded", &sharded_out, &sharded_events),
    ] {
        let completions = events
            .iter()
            .filter(|ev| {
                matches!(
                    ev,
                    Event::Sim {
                        kind: SimEventKind::Completion,
                        ..
                    }
                )
            })
            .count() as u64;
        if completions != out.stats.executed {
            return Outcome::Fail(format!(
                "{path} trace has {completions} completions, pool executed {}",
                out.stats.executed
            ));
        }
    }
    let mut last_t = f64::NEG_INFINITY;
    for ev in &sharded_events {
        if let Event::Sim { t, .. } = ev {
            if *t < last_t {
                return Outcome::Fail("merged sharded bench trace regressed in t".into());
            }
            last_t = *t;
        }
    }
    Outcome::Pass(format!(
        "seed {:#x}: {} submitted, identical arrival sequences, completions match pool counters, merged trace t-ordered",
        cfg.seed, locked_out.submitted
    ))
}

/// Model-time horizon for the overhead measurement (long enough that
/// the baseline run is well above timer resolution).
fn overhead_horizon(tier: Tier) -> f64 {
    match tier {
        Tier::Quick => 1_500.0,
        Tier::Full => 4_000.0,
    }
}

/// Best-of-`reps` wall time of `body`, in seconds.
fn best_of(reps: usize, mut body: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            body();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Enabled-tracing overhead on the sim bench vs [`OVERHEAD_BUDGET`].
fn overhead_check(settings: &Settings) -> Outcome {
    let spec = ModelSpec::simple_ws(0.9);
    let mut cfg = match sim_config(&spec, settings.n) {
        Ok(c) => c,
        Err(e) => return Outcome::Fail(format!("sim config: {e}")),
    };
    cfg.horizon = overhead_horizon(settings.tier);
    cfg.warmup = 0.1 * cfg.horizon;
    let seed = settings.seed;

    let baseline = best_of(3, || {
        std::hint::black_box(run_seeded(&cfg, seed));
    });
    let mut lines = 0u64;
    let traced = best_of(3, || {
        let mut rec = NdjsonRecorder::new(std::io::sink());
        std::hint::black_box(run_recorded(&cfg, seed, &mut rec));
        lines = rec.lines();
    });
    if baseline < 1e-3 {
        return Outcome::Skip(format!(
            "baseline run too fast to time reliably ({:.2} ms)",
            baseline * 1e3
        ));
    }
    let ratio = traced / baseline;
    let msg = format!(
        "traced {lines} events: {:.1} ms vs {:.1} ms untraced, ratio {ratio:.2}× (budget {OVERHEAD_BUDGET}×)",
        traced * 1e3,
        baseline * 1e3,
    );
    if ratio <= OVERHEAD_BUDGET {
        Outcome::Pass(msg)
    } else {
        Outcome::Fail(msg)
    }
}

/// Assemble the overhead checks. The two wall-clock measurements are
/// serial; the synthetic equivalence check is not.
pub fn checks(settings: &Settings) -> Vec<Check> {
    let mut checks = Vec::new();
    checks.push(Check::new(
        "overhead",
        "sharded-vs-locked",
        equivalence_check,
    ));
    let s = settings.clone();
    checks.push(Check::serial(
        "overhead",
        "stealbench-pinned-seed",
        move || stealbench_check(&s),
    ));
    let s = settings.clone();
    checks.push(Check::serial("overhead", "tracing-budget", move || {
        overhead_check(&s)
    }));
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_checks_in_the_overhead_group() {
        let s = Settings::tiny(5);
        let cs = checks(&s);
        assert_eq!(cs.len(), 3);
        for c in &cs {
            assert_eq!(c.group, "overhead");
        }
        assert!(!cs[0].serial, "equivalence check is pure CPU");
        assert!(cs[1].serial && cs[2].serial, "timed checks must be serial");
    }

    #[test]
    fn synthetic_equivalence_holds() {
        assert!(
            matches!(equivalence_check(), Outcome::Pass(_)),
            "{:?}",
            equivalence_check()
        );
    }

    #[test]
    fn pinned_seed_stealbench_paths_agree() {
        let s = Settings::tiny(11);
        let out = stealbench_check(&s);
        assert!(matches!(out, Outcome::Pass(_)), "{out:?}");
    }
}
