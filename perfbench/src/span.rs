//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a layer name, a call name, a start and an end (nanoseconds
//! since the tracer was built), the thread it ran on and the span that
//! caused it. Spans are kept in memory and written out when the run
//! ends. A disabled tracer runs the closure and records nothing, so the
//! untraced batches pay one atomic load per wrapped call.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layers the benchmark measures, in dependency order.
pub const LAYERS: [&str; 7] = ["queueing", "sim", "exec", "ode", "core", "obs", "trace"];

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

thread_local! {
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn thread_id() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turn recording on or off. Called between batches, while no
    /// wrapped call is running.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// The innermost open span on this thread.
    pub fn current(&self) -> Option<u64> {
        CURRENT.with(Cell::get)
    }

    /// Run `f` inside a span whose parent is the innermost open span on
    /// this thread.
    pub fn span<R>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_in(self.current(), layer, name, f)
    }

    /// Run `f` inside a span with an explicit parent, for calls that run
    /// on a pool worker on behalf of a span opened on another thread.
    pub fn span_in<R>(
        &self,
        parent: Option<u64>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled() {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let outer = CURRENT.with(|c| c.replace(Some(id)));
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let r = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        CURRENT.with(|c| c.set(outer));
        let span = Span {
            id,
            parent,
            layer,
            name,
            start_ns,
            end_ns,
            thread: thread_id(),
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking span")
            .push(span);
        r
    }

    /// Take every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span buffer lock poisoned by a panicking span"),
        )
    }
}

/// Self time per layer: each span's duration minus the part of its
/// interval that its child spans cover.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`. Children
/// on pool workers overlap one another, so their durations cannot
/// simply be summed.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "t",
            start_ns: s,
            end_ns: e,
            thread: 1,
        }
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span(1, None, "exec", 0, 100),
            span(2, Some(1), "sim", 10, 60),
            span(3, Some(1), "sim", 40, 90),
        ];
        let t = self_time_by_layer(&spans);
        assert!((t["exec"] - 20e-9).abs() < 1e-15);
        assert!((t["sim"] - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new();
        assert_eq!(tr.span("sim", "run", || 7), 7);
        assert!(tr.drain().is_empty());
        tr.set_enabled(true);
        tr.span("exec", "outer", || tr.span("sim", "inner", || ()));
        let spans = tr.drain();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
    }
}
