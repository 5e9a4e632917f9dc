//! A small metrics registry: named counters, gauges, and log2-bucketed
//! histograms with atomic updates and a JSON-serializable snapshot.

use crate::json::JsonBuf;
use crate::sketch::Digest;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets: bucket `i` (for `i >= 1`) holds values
/// `v` with `2^(i-1) <= v < 2^i`; bucket 0 holds `v == 0`; the last
/// bucket also absorbs everything beyond the range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins floating-point gauge (stored as `f64` bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A histogram over `u64` observations with power-of-two buckets.
///
/// Recording is one atomic add; there is no locking and no allocation.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [(); HISTOGRAM_BUCKETS].map(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros(v)`.
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Histogram {
    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Snapshot of the raw bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum(),
        }
    }

    /// Estimate the `q`-quantile from the live buckets (see
    /// [`HistogramSnapshot::quantile`]).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        self.snapshot().quantile(q)
    }
}

/// Inclusive-lower / exclusive-upper value bounds of log2 bucket `i`.
fn log2_bucket_bounds(i: usize) -> (f64, f64) {
    match i {
        0 => (0.0, 1.0),
        _ => ((1u128 << (i - 1)) as f64, (1u128 << i) as f64),
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of observations.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Upper bound (exclusive) of the highest non-empty bucket — a
    /// cheap order-of-magnitude "max".
    pub fn max_bound(&self) -> u64 {
        match self.buckets.iter().rposition(|&c| c > 0) {
            None | Some(0) => 0,
            Some(i) if i >= 64 => u64::MAX,
            Some(i) => 1u64 << i,
        }
    }

    /// Estimate the `q`-quantile (`q` clamped to `[0, 1]`) by linear
    /// interpolation within the covering log2 bucket, or `None` when the
    /// histogram is empty.
    ///
    /// Bucket 0 (exact zeros) contributes 0; bucket `i >= 1` covers
    /// `[2^(i-1), 2^i)`, so the estimate carries up to a factor-of-two
    /// relative error — use a [`Digest`] sketch when tighter tails
    /// matter.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * (total - 1) as f64 + 1.0;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let lo_rank = seen as f64 + 1.0;
            seen += c;
            if rank <= seen as f64 {
                if i == 0 {
                    return Some(0.0);
                }
                let (lo, hi) = log2_bucket_bounds(i);
                let frac = if c == 1 {
                    0.5
                } else {
                    (rank - lo_rank) / (c - 1) as f64
                };
                return Some(lo + frac * (hi - lo));
            }
        }
        Some(log2_bucket_bounds(HISTOGRAM_BUCKETS - 1).1)
    }
}

/// A thread-safe handle around a mergeable quantile [`Digest`].
///
/// Recording takes a mutex (unlike [`Histogram`]), so sketches are
/// intended for per-run aggregation paths, not per-event hot loops.
#[derive(Debug, Default)]
pub struct Sketch(Mutex<Digest>);

impl Sketch {
    /// Record one observation.
    pub fn record(&self, v: f64) {
        self.0.lock().expect("sketch poisoned").record(v);
    }

    /// Fold a locally-built digest into this sketch (the cheap path for
    /// worker threads: record into a private [`Digest`], merge once).
    pub fn merge_from(&self, d: &Digest) {
        self.0.lock().expect("sketch poisoned").merge(d);
    }

    /// Point-in-time copy of the underlying digest.
    pub fn snapshot(&self) -> Digest {
        self.0.lock().expect("sketch poisoned").clone()
    }
}

/// A registry of named metrics. Handles are `Arc`s, so instrumented
/// code resolves a name once and updates lock-free afterwards.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    sketches: Mutex<BTreeMap<String, Arc<Sketch>>>,
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("registry poisoned");
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        map.insert(name.to_owned(), Arc::clone(&c));
        c
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("registry poisoned");
        if let Some(g) = map.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::default());
        map.insert(name.to_owned(), Arc::clone(&g));
        g
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("registry poisoned");
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::default());
        map.insert(name.to_owned(), Arc::clone(&h));
        h
    }

    /// Get or create the quantile sketch `name`.
    pub fn sketch(&self, name: &str) -> Arc<Sketch> {
        let mut map = self.sketches.lock().expect("registry poisoned");
        if let Some(s) = map.get(name) {
            return Arc::clone(s);
        }
        let s = Arc::new(Sketch::default());
        map.insert(name.to_owned(), Arc::clone(&s));
        s
    }

    /// Point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> MetricsReport {
        let counters = self
            .counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let sketches = self
            .sketches
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsReport {
            counters,
            gauges,
            histograms,
            sketches,
        }
    }
}

/// A snapshot of a [`Registry`], ready for serialization.
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Quantile-sketch digests by name.
    pub sketches: BTreeMap<String, Digest>,
}

impl MetricsReport {
    /// Serialize onto an open JSON object scope (caller owns the
    /// surrounding object/ key).
    pub fn write_json(&self, j: &mut JsonBuf) {
        j.begin_obj();
        j.key("counters").begin_obj();
        for (k, v) in &self.counters {
            j.field_u64(k, *v);
        }
        j.end_obj();
        j.key("gauges").begin_obj();
        for (k, v) in &self.gauges {
            j.field_f64(k, *v);
        }
        j.end_obj();
        j.key("histograms").begin_obj();
        for (k, h) in &self.histograms {
            j.key(k).begin_obj();
            j.field_u64("count", h.count())
                .field_u64("sum", h.sum)
                .field_f64("mean", h.mean())
                .field_u64("max_bound", h.max_bound());
            if h.count() > 0 {
                j.field_f64("p50", h.quantile(0.5).unwrap_or(0.0))
                    .field_f64("p90", h.quantile(0.9).unwrap_or(0.0))
                    .field_f64("p99", h.quantile(0.99).unwrap_or(0.0));
            }
            // Sparse rendering: [bucket_index, count] pairs.
            j.key("buckets").begin_arr();
            for (i, &c) in h.buckets.iter().enumerate() {
                if c > 0 {
                    j.begin_arr().u64_val(i as u64).u64_val(c).end_arr();
                }
            }
            j.end_arr();
            j.end_obj();
        }
        j.end_obj();
        j.key("sketches").begin_obj();
        for (k, d) in &self.sketches {
            j.key(k).begin_obj();
            j.field_u64("count", d.count()).field_f64("mean", d.mean());
            if d.count() > 0 {
                j.field_f64("min", d.min().unwrap_or(0.0))
                    .field_f64("max", d.max().unwrap_or(0.0))
                    .field_f64("p50", d.quantile(0.5).unwrap_or(0.0))
                    .field_f64("p90", d.quantile(0.9).unwrap_or(0.0))
                    .field_f64("p95", d.quantile(0.95).unwrap_or(0.0))
                    .field_f64("p99", d.quantile(0.99).unwrap_or(0.0));
            }
            if d.rejected > 0 {
                j.field_u64("rejected", d.rejected);
            }
            j.end_obj();
        }
        j.end_obj();
        j.end_obj();
    }

    /// Serialize as a standalone JSON document.
    pub fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        self.write_json(&mut j);
        j.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_counts_sum_and_bounds() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum, 1010);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[3], 1); // 4
        assert_eq!(s.buckets[10], 1); // 1000
        assert_eq!(s.max_bound(), 1024);
        assert!((s.mean() - 1010.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn registry_handles_are_shared_and_snapshot_is_consistent() {
        let reg = Registry::new();
        let c1 = reg.counter("sim.arrivals");
        let c2 = reg.counter("sim.arrivals");
        c1.inc();
        c2.add(2);
        reg.gauge("sim.rate").set(0.75);
        reg.histogram("sim.batch").record(7);

        let snap = reg.snapshot();
        assert_eq!(snap.counters["sim.arrivals"], 3);
        assert_eq!(snap.gauges["sim.rate"], 0.75);
        assert_eq!(snap.histograms["sim.batch"].count(), 1);
        assert_eq!(snap.histograms["sim.batch"].sum, 7);
    }

    #[test]
    fn report_json_shape() {
        let reg = Registry::new();
        reg.counter("a").add(5);
        reg.gauge("g").set(1.5);
        reg.histogram("h").record(3);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""counters":{"a":5}"#), "{json}");
        assert!(json.contains(r#""gauges":{"g":1.5}"#), "{json}");
        assert!(json.contains(r#""buckets":[[2,1]]"#), "{json}");
    }

    #[test]
    fn empty_histogram_report() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.max_bound(), 0);
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.snapshot().quantile(0.99), None);
    }

    #[test]
    fn quantile_of_single_value() {
        let h = Histogram::default();
        h.record(100); // bucket [64, 128)
        for q in [0.0, 0.5, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((64.0..128.0).contains(&v), "q={q} -> {v}");
        }
        // A lone zero is exact.
        let z = Histogram::default();
        z.record(0);
        assert_eq!(z.quantile(0.5), Some(0.0));
    }

    #[test]
    fn quantile_crosses_buckets_monotonically() {
        let h = Histogram::default();
        // 50 small values in [1,2), 40 in [16,32), 10 in [1024,2048).
        for _ in 0..50 {
            h.record(1);
        }
        for _ in 0..40 {
            h.record(20);
        }
        for _ in 0..10 {
            h.record(1500);
        }
        let s = h.snapshot();
        let p25 = s.quantile(0.25).unwrap();
        let p70 = s.quantile(0.70).unwrap();
        let p99 = s.quantile(0.99).unwrap();
        assert!((1.0..2.0).contains(&p25), "p25={p25}");
        assert!((16.0..32.0).contains(&p70), "p70={p70}");
        assert!((1024.0..2048.0).contains(&p99), "p99={p99}");
        assert!(p25 <= p70 && p70 <= p99);
        // Clamped inputs behave.
        assert_eq!(s.quantile(-1.0), s.quantile(0.0));
        assert_eq!(s.quantile(2.0), s.quantile(1.0));
    }

    #[test]
    fn registry_sketches_snapshot_and_merge() {
        let reg = Registry::new();
        let s1 = reg.sketch("sim.sojourn");
        let s2 = reg.sketch("sim.sojourn");
        s1.record(1.0);
        s2.record(3.0);
        let mut local = Digest::new();
        local.record(2.0);
        s1.merge_from(&local);
        let snap = reg.snapshot();
        let d = &snap.sketches["sim.sojourn"];
        assert_eq!(d.count(), 3);
        assert!((d.mean() - 2.0).abs() < 1e-12);
        let json = snap.to_json();
        assert!(json.contains(r#""sketches":{"sim.sojourn":"#), "{json}");
        assert!(json.contains(r#""p99":"#), "{json}");
    }

    #[test]
    fn histogram_json_includes_quantiles() {
        let reg = Registry::new();
        let h = reg.histogram("h");
        for v in [1, 2, 3, 100] {
            h.record(v);
        }
        let json = reg.snapshot().to_json();
        assert!(json.contains(r#""p50":"#), "{json}");
        assert!(json.contains(r#""p90":"#), "{json}");
    }
}
