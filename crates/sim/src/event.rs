//! The future-event list's currency: compact scheduled events and the
//! single pinned total order every engine must pop them in.

use std::cmp::Ordering;

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// External arrival at a processor whose inter-arrival law is not
    /// exponential (the engine superposes Poisson streams into one
    /// clock).
    ExtArrival {
        /// Target processor.
        proc: u32,
    },
    /// The task at the head of a processor's queue finishes a service
    /// time that is not exponential (the engine superposes exponential
    /// completions into one clock). Never stale: steals and rebalances
    /// only move tail tasks.
    Completion {
        /// Serving processor.
        proc: u32,
    },
    /// A pairwise rebalance initiation (Section 3.4); valid only if the
    /// probe epoch still matches (the rate depends on the load).
    RebalanceTick {
        /// The initiating processor.
        proc: u32,
        /// Epoch at scheduling time.
        epoch: u32,
    },
    /// A stolen task reaches its thief after a transfer delay
    /// (Section 3.2). The task's payload (job id, arrival time,
    /// remaining work) lives in the engine's transfer pool under
    /// `slot`, keeping every event at two words of payload.
    TransferArrive {
        /// The thief.
        proc: u32,
        /// Index into the engine's in-flight transfer pool.
        slot: u32,
    },
}

/// A scheduled event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Firing time.
    pub time: f64,
    /// Monotone sequence number breaking time ties deterministically.
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

/// The event total order: time first (`f64::total_cmp`), then the
/// monotone sequence number.
///
/// This is the **pinned contract** every future-event-list
/// implementation must honour. Simultaneous events (a deterministic
/// arrival landing at the instant a rebalance tick fires, transfer delays
/// of exactly zero, …) replay in scheduling order under any engine, so
/// heap and calendar runs of the same `(config, seed)` pop the same
/// event sequence and therefore make identical RNG draws and emit
/// bit-identical traces. Tie-breaking by anything engine-internal
/// (bucket index, heap arity, insertion address) would silently fork
/// the engines on the first simultaneous pair.
#[inline]
pub fn event_order(a: &Event, b: &Event) -> Ordering {
    a.time.total_cmp(&b.time).then_with(|| a.seq.cmp(&b.seq))
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    /// [`event_order`] reversed so that `BinaryHeap<Event>` pops the
    /// *earliest* event.
    fn cmp(&self, other: &Self) -> Ordering {
        event_order(other, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    fn ev(time: f64, seq: u64) -> Event {
        Event {
            time,
            seq,
            kind: EventKind::ExtArrival { proc: 0 },
        }
    }

    #[test]
    fn heap_pops_in_time_order() {
        let mut heap = BinaryHeap::new();
        for (i, t) in [3.0, 1.0, 2.0, 0.5].into_iter().enumerate() {
            heap.push(ev(t, i as u64));
        }
        let times: Vec<f64> = std::iter::from_fn(|| heap.pop()).map(|e| e.time).collect();
        assert_eq!(times, vec![0.5, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_by_sequence() {
        let mut heap = BinaryHeap::new();
        heap.push(ev(1.0, 5));
        heap.push(ev(1.0, 2));
        heap.push(ev(1.0, 9));
        let seqs: Vec<u64> = std::iter::from_fn(|| heap.pop()).map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 5, 9]);
    }

    #[test]
    fn event_order_is_time_then_sequence() {
        assert_eq!(event_order(&ev(1.0, 9), &ev(2.0, 0)), Ordering::Less);
        assert_eq!(event_order(&ev(1.0, 2), &ev(1.0, 5)), Ordering::Less);
        assert_eq!(event_order(&ev(1.0, 5), &ev(1.0, 5)), Ordering::Equal);
        assert_eq!(event_order(&ev(3.0, 0), &ev(1.0, 9)), Ordering::Greater);
    }

    #[test]
    fn heap_order_delegates_to_event_order() {
        // `Ord` must stay the exact reverse of the shared comparator —
        // a drift here would let heap and calendar engines disagree.
        let cases = [
            (ev(1.0, 0), ev(2.0, 1)),
            (ev(1.0, 3), ev(1.0, 4)),
            (ev(5.0, 7), ev(5.0, 7)),
            (ev(0.0, 1), ev(0.0, 0)),
        ];
        for (a, b) in cases {
            assert_eq!(a.cmp(&b), event_order(&b, &a));
        }
    }

    #[test]
    fn events_stay_two_words_of_payload() {
        // The calendar queue's bucket density (and the heap's percolation
        // cost) depends on the event staying compact: 8 (time) + 8 (seq)
        // + 12 (kind) rounded to alignment.
        assert!(std::mem::size_of::<Event>() <= 32);
    }
}
