//! A small metrics registry: named counters and gauges with atomic
//! updates, quantile sketches for distributions, and a
//! JSON-serializable snapshot.

use crate::json::JsonBuf;
use crate::sketch::Digest;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

/// A thread-safe handle around a mergeable quantile [`Digest`].
///
/// Recording takes a mutex (unlike [`Counter`] and [`Gauge`]), so
/// sketches are intended for per-run aggregation paths, not per-event
/// hot loops.
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
    sketches: Mutex<BTreeMap<String, Arc<Sketch>>>,
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        handle(&self.counters, name)
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        handle(&self.gauges, name)
    }

    /// Get or create the quantile sketch `name`.
    pub fn sketch(&self, name: &str) -> Arc<Sketch> {
        handle(&self.sketches, name)
    }

    /// Point-in-time snapshot of every metric.
    pub fn snapshot(&self) -> MetricsReport {
        MetricsReport {
            counters: values(&self.counters, Counter::get),
            gauges: values(&self.gauges, Gauge::get),
            sketches: values(&self.sketches, Sketch::snapshot),
        }
    }
}

/// Get or create the metric `name` in one of the registry's maps.
fn handle<M: Default>(map: &Mutex<BTreeMap<String, Arc<M>>>, name: &str) -> Arc<M> {
    let mut map = map.lock().expect("registry poisoned");
    if let Some(m) = map.get(name) {
        return Arc::clone(m);
    }
    let m = Arc::new(M::default());
    map.insert(name.to_owned(), Arc::clone(&m));
    m
}

/// Read every metric of one of the registry's maps.
fn values<M, V>(map: &Mutex<BTreeMap<String, Arc<M>>>, read: fn(&M) -> V) -> BTreeMap<String, V> {
    let map = map.lock().expect("registry poisoned");
    map.iter().map(|(k, m)| (k.clone(), read(m))).collect()
}

/// A snapshot of a [`Registry`], ready for serialization.
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
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
    fn registry_handles_are_shared_and_snapshot_is_consistent() {
        let reg = Registry::new();
        let c1 = reg.counter("sim.arrivals");
        let c2 = reg.counter("sim.arrivals");
        c1.inc();
        c2.add(2);
        reg.gauge("sim.rate").set(0.75);

        let snap = reg.snapshot();
        assert_eq!(snap.counters["sim.arrivals"], 3);
        assert_eq!(snap.gauges["sim.rate"], 0.75);
    }

    #[test]
    fn report_json_shape() {
        let reg = Registry::new();
        reg.counter("a").add(5);
        reg.gauge("g").set(1.5);
        reg.sketch("s").record(3.0);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(
            json.starts_with(
                r#"{"counters":{"a":5},"gauges":{"g":1.5},"sketches":{"s":{"count":1,"mean":3.0,"min":3.0,"max":3.0,"#
            ),
            "{json}"
        );
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
}
