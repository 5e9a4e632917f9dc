//! `loadsteal-obs` — the observability layer of the loadsteal
//! workspace: structured tracing, a metrics registry, and run
//! manifests, with zero heavy dependencies.
//!
//! The crate is organized around four ideas:
//!
//! * **Typed events** ([`Event`]): everything the solver and the
//!   simulator can report — ODE step acceptances/rejections,
//!   steady-state convergence residuals, per-event simulator activity,
//!   progress heartbeats, and per-replicate throughput.
//! * **Recorders** ([`Recorder`]): sinks for those events.
//!   [`NullRecorder`] is free (its `enabled()` hint lets hot loops skip
//!   event construction entirely), [`CountingRecorder`] aggregates
//!   in-memory tallies, [`NdjsonRecorder`] streams one JSON object per
//!   event line, and [`ShardedRecorder`] gives each producer thread
//!   its own contention-free shard, merge-sorted back into one
//!   globally ordered stream on drain (the executor's trace path —
//!   see `docs/telemetry.md`). Parallel simulator replications need
//!   no shared sink type: each run buffers privately and hands its
//!   events to the caller's recorder in batches.
//! * **Metrics** ([`registry::Registry`]): named counters, gauges, and
//!   quantile sketches ([`Digest`]), snapshottable into a JSON
//!   [`registry::MetricsReport`] — the machine-readable footprint of a
//!   run.
//! * **Manifests** ([`manifest::RunManifest`]): the reproducibility
//!   header (command, version, seed, configuration) that turns a
//!   metrics report into a self-describing artifact.
//!
//! Supporting cast: [`json`] is the hand-rolled JSON writer/parser pair
//! everything serializes through (no serde), [`sketch`] provides a
//! mergeable streaming quantile digest, [`prom`] renders any
//! [`registry::MetricsReport`] in Prometheus text format,
//! [`span`] is the hierarchical span profiler (Chrome-trace and
//! folded-stack exports), [`flight`] is the crash-safe flight recorder
//! whose panic hook dumps the recent event ring, and [`log`] is the
//! `LOADSTEAL_LOG` env-filtered diagnostic logger.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod flight;
pub mod json;
pub mod log;
pub mod manifest;
pub mod prom;
pub mod recorder;
pub mod registry;
pub mod shard;
pub mod sketch;
pub mod span;

pub use event::{Event, JobEventKind, SimEventKind, TraceHeader, TAIL_SAMPLE_DEPTH, TRACE_SCHEMA};
pub use flight::PanicRecord;
pub use manifest::{ConfigValue, RunManifest};
pub use prom::prometheus_text;
pub use recorder::{
    CollectingRecorder, CountingRecorder, EventCounts, NdjsonRecorder, NullRecorder, Recorder,
    RegistryRecorder, TailReference,
};
pub use registry::{Counter, Gauge, MetricsReport, Registry, Sketch};
pub use shard::{ShardSink, ShardedRecorder};
pub use sketch::Digest;
pub use span::{ProfileReport, SpanAggregate, SpanGuard, SpanInstance, SpanRecord, ThreadProfile};
