//! Concurrency property test for the sharded telemetry pipeline: N
//! threads hammering a [`ShardedRecorder`] on pinned seeds must lose
//! no events, preserve every shard's emission order through the
//! merge, and serialize to the bit-for-bit identical event multiset a
//! locked (`Mutex`-guarded) recorder produces from the same streams.
//!
//! A concurrent drainer runs while the writers hammer, so the
//! incremental [`ShardedRecorder::drain`] path is exercised under
//! contention, not just the final [`ShardedRecorder::finish`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use loadsteal_obs::{
    CollectingRecorder, Event, Recorder, ShardSink, ShardedRecorder, SimEventKind,
};

const THREADS: usize = 8;
const EVENTS_PER_THREAD: usize = 10_000;

/// splitmix64 — the pinned-seed entropy source for the streams.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic stream thread `shard` emits for `seed`: a mix of
/// timestamped Sim events (with repeated-timestamp runs to exercise
/// tiebreaks), Heartbeats, and timestampless ReplicateDone events
/// (which must inherit their shard position in the merge). Every
/// event encodes `shard` so the merged stream can be split back.
fn stream(seed: u64, shard: usize) -> Vec<Event> {
    let mut rng = seed ^ (shard as u64).wrapping_mul(0xA5A5_A5A5_A5A5_A5A5);
    let mut t = 0.0_f64;
    (0..EVENTS_PER_THREAD)
        .map(|i| {
            let r = splitmix64(&mut rng);
            // Hold t constant ~25% of the time so equal-timestamp
            // tiebreak ordering is exercised.
            if r % 4 != 0 {
                t += (r >> 32) as f64 / 1e12 + 1e-9;
            }
            match r % 10 {
                0..=6 => Event::Sim {
                    kind: match r % 5 {
                        0 => SimEventKind::Arrival,
                        1 => SimEventKind::Completion,
                        2 => SimEventKind::StealAttempt,
                        3 => SimEventKind::StealSuccess,
                        _ => SimEventKind::Migration,
                    },
                    t,
                    proc: shard as u32,
                    src: if r % 5 == 4 { Some(shard as u32) } else { None },
                    count: i as u32 + 1,
                },
                7 | 8 => Event::Heartbeat {
                    t,
                    events: i as u64,
                    tasks_in_system: shard as u64,
                },
                _ => Event::ReplicateDone {
                    seed: shard as u64,
                    wall_ms: i as f64,
                    events: r >> 40,
                    events_per_sec: 1.0,
                },
            }
        })
        .collect()
}

/// Which shard an event from [`stream`] came from.
fn shard_of(ev: &Event) -> usize {
    match ev {
        Event::Sim { proc, .. } => *proc as usize,
        Event::Heartbeat {
            tasks_in_system, ..
        } => *tasks_in_system as usize,
        Event::ReplicateDone { seed, .. } => *seed as usize,
        other => panic!("stream never emits {other:?}"),
    }
}

/// Hammer `record` from THREADS threads with the pinned streams.
fn hammer(seed: u64, record: impl Fn(usize, &Event) + Sync) {
    std::thread::scope(|scope| {
        for shard in 0..THREADS {
            let record = &record;
            scope.spawn(move || {
                for ev in stream(seed, shard) {
                    record(shard, &ev);
                }
            });
        }
    });
}

fn sorted_lines(events: &[Event]) -> Vec<String> {
    let mut lines: Vec<String> = events.iter().map(Event::to_json_line).collect();
    lines.sort_unstable();
    lines
}

#[test]
fn hammered_sharded_recorder_matches_locked_recorder_bit_for_bit() {
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        // Sharded path, with a concurrent drainer racing the writers.
        let sharded = ShardedRecorder::new(CollectingRecorder::new(), THREADS);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let sink = &sharded;
            let stop = &stop;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    sink.drain();
                    std::thread::yield_now();
                }
            });
            hammer(seed, |shard, ev| sink.record(shard, ev));
            stop.store(true, Ordering::Relaxed);
        });
        let expected = (THREADS * EVENTS_PER_THREAD) as u64;
        assert_eq!(sharded.recorded(), expected, "seed {seed}: events lost");
        let merged = sharded.finish().into_events();
        assert_eq!(
            merged.len() as u64,
            expected,
            "seed {seed}: merge lost events"
        );

        // Locked path: same streams through a mutex-guarded recorder.
        let locked = Mutex::new(CollectingRecorder::new());
        hammer(seed, |_, ev| locked.lock().unwrap().record(ev));
        let interleaved = locked.into_inner().unwrap().into_events();

        assert_eq!(
            sorted_lines(&merged),
            sorted_lines(&interleaved),
            "seed {seed}: serialized multisets differ"
        );

        // Per-shard order: splitting the merged stream by origin must
        // reproduce each thread's emission sequence exactly.
        let mut by_shard: Vec<Vec<Event>> = vec![Vec::new(); THREADS];
        for ev in &merged {
            by_shard[shard_of(ev)].push(*ev);
        }
        for (shard, got) in by_shard.iter().enumerate() {
            let want = stream(seed, shard);
            assert_eq!(got.len(), want.len(), "seed {seed}: shard {shard} count");
            if let Some(i) = (0..want.len()).find(|&i| got[i] != want[i]) {
                panic!(
                    "seed {seed}: shard {shard} order diverges at index {i}:\n  got  {:?}\n  want {:?}\n  (next got  {:?})\n  (next want {:?})",
                    got[i],
                    want[i],
                    got.get(i + 1),
                    want.get(i + 1),
                );
            }
        }
    }
}
