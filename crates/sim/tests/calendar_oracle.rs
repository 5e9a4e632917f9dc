//! Property tests of the calendar queue against the `BinaryHeap`
//! oracle, in isolation from the engine.
//!
//! The contract under test is the [`EventQueue`] one: pops come out in
//! exactly the pinned event total order ([`event_order`]: time, then
//! sequence) — the heap enforces it by comparison, the calendar by
//! window arithmetic plus bucket scans, and any disagreement between
//! the two is a calendar bug by definition. The generators lean on the
//! structures the calendar actually has: clustered times (many events
//! per window), exact ties (sequence-number tie-breaks), sparse
//! far-future outliers (year rollovers and the `pop_direct` fallback),
//! and interleaved push/pop (cursor advancement and the self-tuning
//! rebuilds).

use proptest::prelude::*;

use loadsteal_sim::{CalendarQueue, Event, EventKind, EventQueue};

fn ev(time: f64, seq: u64) -> Event {
    Event {
        time,
        seq,
        kind: EventKind::ExtArrival { proc: 0 },
    }
}

/// Event times with deliberate structure. The compat `prop_oneof!` is
/// unweighted, so the dense-cluster arm is repeated to dominate the
/// mix while ties and far-future jumps stay regular visitors.
fn arb_times() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(
        prop_oneof![
            (0.0f64..50.0).prop_map(|t| t),
            (0.0f64..50.0).prop_map(|t| t),
            (0.0f64..50.0).prop_map(|t| t),
            // Exact ties: a small set of representable values.
            (0u32..40).prop_map(|k| k as f64 * 1.25),
            // Sparse far future: many empty years.
            (1.0e3f64..1.0e6).prop_map(|t| t),
        ],
        1..400,
    )
}

fn drain_both(cal: &mut CalendarQueue, heap: &mut std::collections::BinaryHeap<Event>) {
    loop {
        let (c, h) = (cal.pop(), EventQueue::pop(heap));
        match (c, h) {
            (None, None) => break,
            (c, h) => {
                let c = c.expect("calendar drained before the oracle");
                let h = h.expect("oracle drained before the calendar");
                assert_eq!(
                    (c.time.to_bits(), c.seq),
                    (h.time.to_bits(), h.seq),
                    "pop order diverged"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bulk load, then drain: the calendar's full pop sequence equals
    /// the heap's, including tie-breaks (equal times are generated
    /// often; sequence numbers are the insertion order, so stability
    /// is directly observable).
    #[test]
    fn bulk_drain_matches_heap_oracle(times in arb_times()) {
        let mut cal = CalendarQueue::with_hint(times.len());
        let mut heap = std::collections::BinaryHeap::with_hint(times.len());
        for (i, &t) in times.iter().enumerate() {
            cal.push(ev(t, i as u64));
            heap.push(ev(t, i as u64));
        }
        prop_assert_eq!(cal.len(), EventQueue::len(&heap));
        drain_both(&mut cal, &mut heap);
    }

    /// Interleaved pushes and pops like the engine's advancing-time
    /// usage, plus occasional far-ahead pushes. Every intermediate pop
    /// and every intermediate length must agree.
    #[test]
    fn interleaved_ops_match_heap_oracle(
        ops in prop::collection::vec(
            prop_oneof![
                (0.0f64..100.0).prop_map(Some),
                (0.0f64..100.0).prop_map(Some),
                (0.0f64..100.0).prop_map(Some),
                (500.0f64..2.0e4).prop_map(Some),
                Just(None),
                Just(None),
            ],
            1..600,
        ),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = std::collections::BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0.0f64;
        for op in ops {
            match op {
                Some(dt) => {
                    // Times advance with the drained frontier, like the
                    // engine scheduling at `now + dt`.
                    let t = now + dt;
                    cal.push(ev(t, seq));
                    EventQueue::push(&mut heap, ev(t, seq));
                    seq += 1;
                }
                None => {
                    let (c, h) = (cal.pop(), EventQueue::pop(&mut heap));
                    match (c, h) {
                        (None, None) => {}
                        (Some(c), Some(h)) => {
                            prop_assert_eq!(
                                (c.time.to_bits(), c.seq),
                                (h.time.to_bits(), h.seq)
                            );
                            now = c.time;
                        }
                        (c, h) => panic!("emptiness diverged: calendar {c:?} vs heap {h:?}"),
                    }
                }
            }
            prop_assert_eq!(cal.len(), EventQueue::len(&heap));
        }
        drain_both(&mut cal, &mut heap);
    }

    /// Epoch-style lazy cancellation over both queues: a driver pushes
    /// probe events carrying `(proc, epoch)`, bumps per-proc epochs as
    /// it goes, and discards stale pops — the engine's invalidation
    /// idiom. Both queues must accept exactly the same events in the
    /// same order; in particular a cancelled (stale-epoch) event must
    /// never be delivered where the oracle would have skipped it.
    #[test]
    fn epoch_invalidation_never_resurrects_cancelled_events(
        ops in prop::collection::vec(
            (0u32..4u32, 0.0f64..80.0, 0u8..4u8),
            1..300,
        ),
    ) {
        let mut cal = CalendarQueue::new();
        let mut heap = std::collections::BinaryHeap::new();
        let mut epoch = [0u32; 4];
        let mut seq = 0u64;
        let mut now = 0.0f64;
        let mut accepted_cal: Vec<(u64, u64)> = Vec::new();
        let mut accepted_heap: Vec<(u64, u64)> = Vec::new();
        for (proc, dt, action) in ops {
            match action {
                // Schedule a probe at the proc's current epoch.
                0 | 1 => {
                    let k = EventKind::RebalanceTick { proc, epoch: epoch[proc as usize] };
                    let e = Event { time: now + dt, seq, kind: k };
                    cal.push(e);
                    EventQueue::push(&mut heap, e);
                    seq += 1;
                }
                // Invalidate everything pending for this proc.
                2 => epoch[proc as usize] += 1,
                // Pop one event from each queue, engine-style: stale
                // epochs are discarded, fresh ones accepted.
                _ => {
                    for (q, accepted) in [
                        (cal.pop(), &mut accepted_cal),
                        (EventQueue::pop(&mut heap), &mut accepted_heap),
                    ] {
                        if let Some(e) = q {
                            now = now.max(e.time);
                            if let EventKind::RebalanceTick { proc, epoch: ep } = e.kind {
                                if ep == epoch[proc as usize] {
                                    accepted.push((e.time.to_bits(), e.seq));
                                }
                            }
                        }
                    }
                    prop_assert_eq!(accepted_cal.last(), accepted_heap.last());
                }
            }
        }
        // Drain what's left under a frozen epoch table.
        loop {
            let (c, h) = (cal.pop(), EventQueue::pop(&mut heap));
            if c.is_none() && h.is_none() {
                break;
            }
            let (c, h) = (c.unwrap(), h.unwrap());
            prop_assert_eq!((c.time.to_bits(), c.seq), (h.time.to_bits(), h.seq));
        }
        prop_assert_eq!(accepted_cal, accepted_heap);
    }

    /// Bucket rollover: events whole "years" apart land in the same
    /// bucket with different stored windows. The earlier window must
    /// always drain first — a pop must never skip into the next year
    /// while the current one still has events.
    #[test]
    fn same_bucket_different_year_pops_in_time_order(
        base in 0.0f64..10.0,
        years in prop::collection::vec(0u64..5u64, 2..40),
    ) {
        // Default sizing: 16 buckets × width 1.0 ⇒ a year is 16 s.
        let mut cal = CalendarQueue::new();
        let mut heap = std::collections::BinaryHeap::new();
        for (i, &y) in years.iter().enumerate() {
            let t = base + 16.0 * y as f64;
            cal.push(ev(t, i as u64));
            EventQueue::push(&mut heap, ev(t, i as u64));
        }
        drain_both(&mut cal, &mut heap);
    }
}
