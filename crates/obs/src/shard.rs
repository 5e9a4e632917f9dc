//! Sharded, contention-free event recording for multi-threaded
//! producers.
//!
//! A pool that traced through one shared mutex would serialize every
//! worker on it — the telemetry path would contend on exactly the
//! parallelism it is supposed to observe. [`ShardedRecorder`] keeps
//! that lock off the hot path: each producer thread owns one *shard*
//! (a buffer behind a mutex that only that producer and the drainer
//! ever touch, on its own cache line), events are stamped with a
//! per-shard sequence number as they land, and a drainer merge-sorts
//! the shards into a single stream for the wrapped [`Recorder`].
//!
//! # Ordering contract (`loadsteal.trace.v1`)
//!
//! Producers stamp `t` on their own thread, outside any shared lock,
//! so the merge — not a lock — is what orders the stream. The
//! contract documented in `docs/trace-schema.md` and
//! `docs/telemetry.md`:
//!
//! * **per-shard order is preserved** — events from one shard appear
//!   in the merged stream exactly in the order they were recorded
//!   (the per-shard sequence number is the final sort key);
//! * **the merged stream is sorted by `t`** — provided each producer
//!   stamps non-decreasing timestamps into its own shard, which every
//!   emitter in this codebase does (timestamps come from a monotone
//!   clock read by the recording thread);
//! * **the event multiset is exactly what was recorded** — a shard's
//!   buffer grows until the next drain takes it; nothing is dropped.
//!
//! Events without their own timestamp (heartbeats, replication
//! summaries) inherit the last timestamp seen on their shard, so they
//! keep their recorded position through the merge.
//!
//! Draining while producers are still recording is allowed — per-shard
//! order still holds across drains, and each drained batch is
//! internally sorted — but only a drain after producers quiesce (the
//! terminal [`ShardedRecorder::drain`] / [`ShardedRecorder::finish`])
//! guarantees the *whole* stream is globally sorted.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::event::Event;
use crate::recorder::Recorder;

/// A multi-producer event sink addressed by shard index: the trait the
/// executor pool traces through without knowing the wrapped recorder's
/// concrete type. [`ShardedRecorder`] is the canonical implementation.
pub trait ShardSink: Send + Sync {
    /// Cheap enabled gate (cached at construction; never takes a
    /// lock). Producers skip event construction entirely when false.
    fn enabled(&self) -> bool;
    /// Record one event on `shard` (indices wrap modulo
    /// [`ShardSink::shards`]). Never blocks on another shard.
    fn record(&self, shard: usize, ev: &Event);
    /// Number of shards. Producers that need exclusive shards (one per
    /// thread) check this at setup time.
    fn shards(&self) -> usize;
}

/// One buffered event: merge key plus provenance.
#[derive(Clone, Copy)]
struct Stamped {
    /// Sort key: the event's own `t`, or the shard's last seen `t` for
    /// timestampless events.
    key: f64,
    /// Originating shard (first tiebreak).
    shard: u32,
    /// Per-shard sequence number (final tiebreak — preserves per-shard
    /// recording order even on equal timestamps).
    seq: u64,
    ev: Event,
}

/// A shard's mutable state. The mutex around it is only ever contended
/// by its owning producer and the drainer — never by another producer.
struct ShardBuf {
    seq: u64,
    last_key: f64,
    events: Vec<Stamped>,
}

/// Cache-line-aligned so adjacent shards' locks never share a line
/// (the whole point is that worker A recording never invalidates
/// worker B's cache).
#[repr(align(128))]
struct Shard {
    buf: Mutex<ShardBuf>,
}

/// A sharded front-end for any [`Recorder`]: lock-free *between*
/// producers on the hot path, merge-sorted back into one globally
/// ordered stream on drain. See the module docs for the ordering
/// contract.
pub struct ShardedRecorder<R> {
    shards: Vec<Shard>,
    inner: Mutex<R>,
    enabled: bool,
    recorded: AtomicU64,
}

impl<R: Recorder + Send> ShardedRecorder<R> {
    /// Wrap `inner` behind `shards` independent producer buffers. The
    /// enabled gate is cached from `inner.enabled()` here, so producers
    /// never take a lock to learn that recording is off.
    pub fn new(inner: R, shards: usize) -> Self {
        let enabled = inner.enabled();
        ShardedRecorder {
            shards: (0..shards.max(1))
                .map(|_| Shard {
                    buf: Mutex::new(ShardBuf {
                        seq: 0,
                        last_key: f64::NEG_INFINITY,
                        events: Vec::new(),
                    }),
                })
                .collect(),
            inner: Mutex::new(inner),
            enabled,
            recorded: AtomicU64::new(0),
        }
    }

    /// Run `f` against the wrapped recorder (e.g. to write a trace
    /// header before producers start). Takes the inner lock — not for
    /// the hot path.
    pub fn with<T>(&self, f: impl FnOnce(&mut R) -> T) -> T {
        f(&mut self.inner.lock().expect("inner recorder lock poisoned"))
    }

    /// Events recorded so far (including already-drained ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events currently buffered (undrained). Approximate under
    /// concurrent recording.
    pub fn pending(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.buf.lock().expect("shard lock poisoned").events.len())
            .sum()
    }

    /// Collect everything buffered, merge-sort by `(t, shard, seq)`,
    /// and forward to the wrapped recorder in that order. Returns how
    /// many events were forwarded. Safe to call concurrently with
    /// producers (see the module docs for what ordering survives).
    pub fn drain(&self) -> u64 {
        // Inner lock first: concurrent drains serialize here, so two
        // drained batches never interleave their forwarding.
        let mut inner = self.inner.lock().expect("inner recorder lock poisoned");
        let mut all = Vec::new();
        for s in &self.shards {
            // Swap the buffer out under the shard lock; the producer
            // is held up for a pointer swap, not for the copy.
            let mut taken = std::mem::take(&mut s.buf.lock().expect("shard lock poisoned").events);
            all.append(&mut taken);
        }
        all.sort_by(|a, b| {
            a.key
                .total_cmp(&b.key)
                .then(a.shard.cmp(&b.shard))
                .then(a.seq.cmp(&b.seq))
        });
        for st in &all {
            inner.record(&st.ev);
        }
        inner.flush();
        all.len() as u64
    }

    /// Terminal drain: forward everything still buffered and hand the
    /// wrapped recorder back.
    pub fn finish(self) -> R {
        self.drain();
        self.inner
            .into_inner()
            .expect("inner recorder lock poisoned")
    }
}

impl<R: Recorder + Send> ShardSink for ShardedRecorder<R> {
    fn enabled(&self) -> bool {
        self.enabled
    }

    fn record(&self, shard: usize, ev: &Event) {
        if !self.enabled {
            return;
        }
        let idx = shard % self.shards.len();
        let mut b = self.shards[idx].buf.lock().expect("shard lock poisoned");
        let key = match event_time(ev) {
            Some(t) => {
                b.last_key = t;
                t
            }
            None => b.last_key,
        };
        b.seq += 1;
        let seq = b.seq;
        b.events.push(Stamped {
            key,
            shard: idx as u32,
            seq,
            ev: *ev,
        });
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    fn shards(&self) -> usize {
        self.shards.len()
    }
}

/// The event's own timestamp, when it carries one. Used as the merge
/// key; timestampless events inherit their shard's last key.
pub fn event_time(ev: &Event) -> Option<f64> {
    match ev {
        Event::SolverStep { t, .. }
        | Event::SolverSteady { t, .. }
        | Event::Sim { t, .. }
        | Event::Job { t, .. }
        | Event::TailSample { t, .. }
        | Event::Heartbeat { t, .. } => Some(*t),
        Event::SolverDone { .. } | Event::ReplicateDone { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SimEventKind;
    use crate::recorder::CollectingRecorder;

    fn sim(t: f64, proc: u32) -> Event {
        Event::Sim {
            kind: SimEventKind::Arrival,
            t,
            proc,
            src: None,
            count: 1,
        }
    }

    #[test]
    fn merges_shards_into_time_order() {
        let rec = ShardedRecorder::new(CollectingRecorder::new(), 3);
        // Interleave records across shards with increasing per-shard t.
        rec.record(0, &sim(0.1, 0));
        rec.record(1, &sim(0.05, 1));
        rec.record(2, &sim(0.2, 2));
        rec.record(0, &sim(0.3, 0));
        rec.record(1, &sim(0.15, 1));
        assert_eq!(rec.recorded(), 5);
        let inner = rec.finish();
        let ts: Vec<f64> = inner
            .events()
            .iter()
            .map(|e| match e {
                Event::Sim { t, .. } => *t,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ts, vec![0.05, 0.1, 0.15, 0.2, 0.3]);
    }

    #[test]
    fn equal_timestamps_tiebreak_by_shard_then_seq() {
        let rec = ShardedRecorder::new(CollectingRecorder::new(), 2);
        rec.record(1, &sim(1.0, 10));
        rec.record(0, &sim(1.0, 20));
        rec.record(1, &sim(1.0, 11));
        let inner = rec.finish();
        let procs: Vec<u32> = inner
            .events()
            .iter()
            .map(|e| match e {
                Event::Sim { proc, .. } => *proc,
                _ => unreachable!(),
            })
            .collect();
        // Shard 0 first, then shard 1 in its recording order.
        assert_eq!(procs, vec![20, 10, 11]);
    }

    #[test]
    fn timestampless_events_inherit_shard_position() {
        let rec = ShardedRecorder::new(CollectingRecorder::new(), 2);
        rec.record(0, &sim(1.0, 0));
        rec.record(
            0,
            &Event::ReplicateDone {
                seed: 7,
                wall_ms: 1.0,
                events: 1,
                events_per_sec: 1.0,
            },
        );
        rec.record(1, &sim(0.5, 1));
        rec.record(0, &sim(2.0, 0));
        let inner = rec.finish();
        let names: Vec<&str> = inner.events().iter().map(|e| e.name()).collect();
        // The summary keeps its slot right after t=1.0 on shard 0.
        assert_eq!(
            names,
            vec!["arrival", "arrival", "replicate_done", "arrival"]
        );
    }

    #[test]
    fn disabled_inner_disables_the_whole_pipeline() {
        let rec = ShardedRecorder::new(crate::recorder::NullRecorder, 4);
        assert!(!ShardSink::enabled(&rec));
        rec.record(0, &sim(1.0, 0));
        assert_eq!(rec.recorded(), 0);
        assert_eq!(rec.pending(), 0);
    }

    #[test]
    fn drain_is_incremental() {
        let rec = ShardedRecorder::new(CollectingRecorder::new(), 2);
        rec.record(0, &sim(1.0, 0));
        assert_eq!(rec.drain(), 1);
        rec.record(1, &sim(2.0, 1));
        assert_eq!(rec.drain(), 1);
        assert_eq!(rec.drain(), 0);
        let inner = rec.finish();
        assert_eq!(inner.events().len(), 2);
    }

    #[test]
    fn shard_indices_wrap() {
        let rec = ShardedRecorder::new(CollectingRecorder::new(), 2);
        rec.record(7, &sim(1.0, 0)); // lands on shard 7 % 2 == 1
        assert_eq!(rec.shards(), 2);
        assert_eq!(rec.recorded(), 1);
    }
}
