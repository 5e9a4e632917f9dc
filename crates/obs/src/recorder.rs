//! Event sinks.
//!
//! A [`Recorder`] receives [`Event`]s from instrumented code. Hot loops
//! are expected to cache [`Recorder::enabled`] in a local once per
//! run/batch and skip event construction entirely when it is `false`,
//! which makes the disabled path (a [`NullRecorder`]) essentially free.

use crate::event::{Event, JobEventKind, SimEventKind};
use crate::registry::{Counter, Gauge, Registry};
use std::io::Write;
use std::sync::Arc;

/// A sink for structured events.
pub trait Recorder {
    /// Whether this recorder wants events at all.
    ///
    /// Instrumented loops should read this once (per run, per batch)
    /// and branch on the cached value; the default is `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Accept one event.
    fn record(&mut self, ev: &Event);

    /// Flush any buffered output. Default: no-op.
    fn flush(&mut self) {}
}

impl<R: Recorder + ?Sized> Recorder for Box<R> {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn record(&mut self, ev: &Event) {
        (**self).record(ev);
    }

    fn flush(&mut self) {
        (**self).flush();
    }
}

/// The do-nothing recorder: `enabled()` is `false` so instrumented code
/// skips event construction entirely.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _ev: &Event) {}
}

/// Tallies of events seen by a [`CountingRecorder`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EventCounts {
    /// Accepted solver steps.
    pub solver_accepted: u64,
    /// Rejected solver steps.
    pub solver_rejected: u64,
    /// Steady-state residual samples.
    pub solver_steady: u64,
    /// Solver end-of-integration summaries.
    pub solver_done: u64,
    /// Task arrivals.
    pub arrivals: u64,
    /// Task completions.
    pub completions: u64,
    /// Steal attempts.
    pub steal_attempts: u64,
    /// Successful steals.
    pub steal_successes: u64,
    /// Migration events.
    pub migrations: u64,
    /// Tasks moved across processors (sum of migration multiplicities).
    pub tasks_migrated: u64,
    /// Job lifecycle events (all four stages; only emitted when job
    /// tracing is opted into).
    pub job_events: u64,
    /// Empirical tail-vector snapshots (only emitted when transient
    /// sampling is opted into).
    pub tail_samples: u64,
    /// Heartbeats.
    pub heartbeats: u64,
    /// Finished replications.
    pub replicates: u64,
    /// Longest consecutive step-rejection streak reported by any
    /// `solver_done` summary (a stiffness hint; not an event count).
    pub solver_max_reject_streak: u64,
}

impl EventCounts {
    /// Total events tallied.
    pub fn total(&self) -> u64 {
        self.solver_accepted
            + self.solver_rejected
            + self.solver_steady
            + self.solver_done
            + self.arrivals
            + self.completions
            + self.steal_attempts
            + self.steal_successes
            + self.migrations
            + self.job_events
            + self.tail_samples
            + self.heartbeats
            + self.replicates
    }
}

/// A recorder that keeps in-memory tallies — cheap enough for tests and
/// for overhead measurements, and the basis of metrics aggregation.
#[derive(Debug, Default, Clone)]
pub struct CountingRecorder {
    counts: EventCounts,
}

impl CountingRecorder {
    /// Fresh recorder with zeroed tallies.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the tallies so far.
    pub fn counts(&self) -> EventCounts {
        self.counts
    }
}

impl Recorder for CountingRecorder {
    fn record(&mut self, ev: &Event) {
        let c = &mut self.counts;
        match *ev {
            Event::SolverStep { accepted, .. } => {
                if accepted {
                    c.solver_accepted += 1;
                } else {
                    c.solver_rejected += 1;
                }
            }
            Event::SolverSteady { .. } => c.solver_steady += 1,
            Event::SolverDone {
                max_reject_streak, ..
            } => {
                c.solver_done += 1;
                c.solver_max_reject_streak = c.solver_max_reject_streak.max(max_reject_streak);
            }
            Event::Sim { kind, count, .. } => match kind {
                SimEventKind::Arrival => c.arrivals += 1,
                SimEventKind::Completion => c.completions += 1,
                SimEventKind::StealAttempt => c.steal_attempts += 1,
                SimEventKind::StealSuccess => c.steal_successes += 1,
                SimEventKind::Migration => {
                    c.migrations += 1;
                    c.tasks_migrated += count as u64;
                }
            },
            Event::Job { .. } => c.job_events += 1,
            Event::TailSample { .. } => c.tail_samples += 1,
            Event::Heartbeat { .. } => c.heartbeats += 1,
            Event::ReplicateDone { .. } => c.replicates += 1,
        }
    }
}

/// Streams events as NDJSON (one JSON object per line) to any writer.
///
/// Emission is **batched**: each event is encoded straight into an
/// internal buffer, and lines reach the writer in
/// [`NdjsonRecorder::BATCH_BYTES`] chunks, so a million-event trace
/// costs hundreds of `write` calls, not millions, and no per-event
/// allocation — the amortization that keeps tracing affordable at
/// n ≥ 65536 simulate scale (see `docs/telemetry.md` for the measured
/// budget). [`Recorder::flush`] and [`NdjsonRecorder::into_inner`]
/// push the partial batch through; an I/O error is detected at the
/// batch boundary that hits it and is sticky from then on.
#[derive(Debug)]
pub struct NdjsonRecorder<W: Write> {
    w: W,
    buf: String,
    lines: u64,
    /// First I/O error encountered, if any; recording keeps counting
    /// but stops writing.
    error: Option<std::io::Error>,
}

impl<W: Write> NdjsonRecorder<W> {
    /// Batch size: lines are handed to the writer once at least this
    /// many bytes have accumulated (or on flush).
    pub const BATCH_BYTES: usize = 64 * 1024;

    /// Wrap a writer. Batching happens here, so a raw `File` works;
    /// a `BufWriter` adds nothing but another copy.
    pub fn new(w: W) -> Self {
        Self {
            w,
            buf: String::with_capacity(Self::BATCH_BYTES + 256),
            lines: 0,
            error: None,
        }
    }

    /// Lines written (or attempted) so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flush and return the inner writer (and the first error, if any).
    pub fn into_inner(mut self) -> (W, Option<std::io::Error>) {
        self.write_batch();
        if self.error.is_none() {
            if let Err(e) = self.w.flush() {
                self.error = Some(e);
            }
        }
        (self.w, self.error)
    }

    /// Write one pre-rendered NDJSON line verbatim (the trace-header
    /// path; [`Recorder::record`] covers ordinary events). Counts
    /// toward [`NdjsonRecorder::lines`] and shares the batching and
    /// sticky-error behavior.
    pub fn write_line(&mut self, line: &str) {
        self.append_line(|buf| buf.push_str(line));
    }

    /// Count one line and, unless an I/O error has stopped writing,
    /// let `write` append it to the batch, then end it with a newline.
    fn append_line(&mut self, write: impl FnOnce(&mut String)) {
        self.lines += 1;
        if self.error.is_some() {
            return;
        }
        write(&mut self.buf);
        self.buf.push('\n');
        if self.buf.len() >= Self::BATCH_BYTES {
            self.write_batch();
        }
    }

    /// Push the accumulated batch to the writer.
    fn write_batch(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        if self.error.is_none() {
            if let Err(e) = self.w.write_all(self.buf.as_bytes()) {
                self.error = Some(e);
            }
        }
        self.buf.clear();
    }
}

impl<W: Write> Recorder for NdjsonRecorder<W> {
    fn record(&mut self, ev: &Event) {
        // Encode straight into the batch: no per-event line buffer.
        self.append_line(|buf| ev.write_json(buf));
    }

    fn flush(&mut self) {
        self.write_batch();
        if self.error.is_none() {
            if let Err(e) = self.w.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// A recorder that buffers every event in memory, in arrival order.
///
/// The in-process analogue of tracing to a file and reading it back:
/// the verify harness and tests feed one run's events straight into the
/// trace-replay machinery without serializing. Unbounded — meant for
/// bounded runs, not servers.
#[derive(Debug, Default, Clone)]
pub struct CollectingRecorder {
    events: Vec<Event>,
}

impl CollectingRecorder {
    /// Fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The events recorded so far, in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consume the recorder, yielding the event buffer.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }
}

impl Recorder for CollectingRecorder {
    fn record(&mut self, ev: &Event) {
        self.events.push(*ev);
    }
}

/// A recorder that folds events into a live [`Registry`], so an
/// in-flight run can be scraped (e.g. by the Prometheus endpoint)
/// while it executes.
///
/// Metric handles are resolved once at construction; recording an event
/// is a handful of relaxed atomic adds, no map lookups.
#[derive(Debug)]
pub struct RegistryRecorder {
    registry: Arc<Registry>,
    arrivals: Arc<Counter>,
    completions: Arc<Counter>,
    steal_attempts: Arc<Counter>,
    steal_successes: Arc<Counter>,
    migrations: Arc<Counter>,
    tasks_migrated: Arc<Counter>,
    job_arrivals: Arc<Counter>,
    job_migrations: Arc<Counter>,
    job_service_starts: Arc<Counter>,
    job_completions: Arc<Counter>,
    heartbeats: Arc<Counter>,
    replicates: Arc<Counter>,
    solver_accepted: Arc<Counter>,
    solver_rejected: Arc<Counter>,
    tail_samples: Arc<Counter>,
    tail_gauges: Vec<Arc<Gauge>>,
    transient: Option<TransientGauges>,
    sim_t: Arc<Gauge>,
    tasks_in_system: Arc<Gauge>,
    events_per_sec: Arc<Gauge>,
}

impl RegistryRecorder {
    /// Attach to a registry. Counter/gauge names follow the
    /// `sim.*`/`solver.*` scheme used by the CLI metrics documents.
    pub fn new(registry: Arc<Registry>) -> Self {
        Self {
            arrivals: registry.counter("sim.arrivals"),
            completions: registry.counter("sim.completions"),
            steal_attempts: registry.counter("sim.steal_attempts"),
            steal_successes: registry.counter("sim.steal_successes"),
            migrations: registry.counter("sim.migrations"),
            tasks_migrated: registry.counter("sim.tasks_migrated"),
            job_arrivals: registry.counter("job.arrivals"),
            job_migrations: registry.counter("job.migrations"),
            job_service_starts: registry.counter("job.service_starts"),
            job_completions: registry.counter("job.completions"),
            heartbeats: registry.counter("sim.heartbeats"),
            replicates: registry.counter("sim.replicates_done"),
            solver_accepted: registry.counter("solver.steps_accepted"),
            solver_rejected: registry.counter("solver.steps_rejected"),
            tail_samples: registry.counter("sim.tail_samples"),
            tail_gauges: (1..=crate::event::TAIL_SAMPLE_DEPTH)
                .map(|i| registry.gauge(&format!("sim.tail_s{i}")))
                .collect(),
            transient: None,
            sim_t: registry.gauge("sim.t"),
            tasks_in_system: registry.gauge("sim.tasks_in_system"),
            events_per_sec: registry.gauge("sim.events_per_sec"),
            registry,
        }
    }

    /// The registry this recorder feeds.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Attach a mean-field reference trajectory: every incoming
    /// [`Event::TailSample`] is then matched against the reference grid
    /// and the drift published live as `transient.residual_s<i>`
    /// (signed, per tail), `transient.residual_sup` (instantaneous),
    /// `transient.residual_sup_max` (running worst case), and
    /// `transient.relaxation_time` (NaN until the sample stream has
    /// entered — and stayed in — the ε-ball around the fixed point).
    pub fn with_tail_reference(mut self, reference: TailReference) -> Self {
        let per_tail = (1..=crate::event::TAIL_SAMPLE_DEPTH)
            .map(|i| self.registry.gauge(&format!("transient.residual_s{i}")))
            .collect();
        let tg = TransientGauges {
            reference,
            per_tail,
            sup: self.registry.gauge("transient.residual_sup"),
            sup_max: self.registry.gauge("transient.residual_sup_max"),
            relaxation: self.registry.gauge("transient.relaxation_time"),
            relaxed_since: None,
            worst: 0.0,
        };
        tg.relaxation.set(f64::NAN);
        self.transient = Some(tg);
        self
    }
}

/// A mean-field reference trajectory for live drift gauges — plain
/// data (integrate it with the core crate and pass it in), so this
/// crate stays ODE-free.
#[derive(Debug, Clone)]
pub struct TailReference {
    /// Reference instants `(t, s₁(t)…s₈(t))`, time-ascending, on the
    /// same grid the simulator samples on (`--sample-tails <dt>`).
    pub grid: Vec<(f64, [f64; crate::event::TAIL_SAMPLE_DEPTH])>,
    /// Fixed-point tails `s*₁…s*₈`.
    pub fixed_point: [f64; crate::event::TAIL_SAMPLE_DEPTH],
    /// Relaxation threshold ε for `transient.relaxation_time`.
    pub epsilon: f64,
}

#[derive(Debug)]
struct TransientGauges {
    reference: TailReference,
    per_tail: Vec<Arc<Gauge>>,
    sup: Arc<Gauge>,
    sup_max: Arc<Gauge>,
    relaxation: Arc<Gauge>,
    relaxed_since: Option<f64>,
    worst: f64,
}

impl TransientGauges {
    fn observe(&mut self, t: f64, tails: &[f64; crate::event::TAIL_SAMPLE_DEPTH]) {
        let r = &self.reference;
        // Nearest reference instant within tolerance; samples off the
        // grid (a foreign trace) are simply not compared.
        let i = r.grid.partition_point(|(gt, _)| *gt < t);
        let tol = 1e-9 * t.abs().max(1.0);
        let idx = if i < r.grid.len() && (r.grid[i].0 - t).abs() <= tol {
            i
        } else if i > 0 && (r.grid[i - 1].0 - t).abs() <= tol {
            i - 1
        } else {
            return;
        };
        let reference = &r.grid[idx].1;
        let mut sup = 0.0f64;
        for (g, (hat, s)) in self.per_tail.iter().zip(tails.iter().zip(reference)) {
            let resid = hat - s;
            g.set(resid);
            sup = sup.max(resid.abs());
        }
        self.sup.set(sup);
        if sup > self.worst {
            self.worst = sup;
            self.sup_max.set(sup);
        }
        let dev = tails
            .iter()
            .zip(&r.fixed_point)
            .map(|(hat, fp)| (hat - fp).abs())
            .fold(0.0f64, f64::max);
        if dev <= r.epsilon {
            let since = *self.relaxed_since.get_or_insert(t);
            self.relaxation.set(since);
        } else {
            self.relaxed_since = None;
            self.relaxation.set(f64::NAN);
        }
    }
}

impl Recorder for RegistryRecorder {
    fn record(&mut self, ev: &Event) {
        match *ev {
            Event::SolverStep { accepted, .. } => {
                if accepted {
                    self.solver_accepted.inc();
                } else {
                    self.solver_rejected.inc();
                }
            }
            Event::SolverSteady { .. } | Event::SolverDone { .. } => {}
            Event::Sim { kind, count, .. } => match kind {
                SimEventKind::Arrival => self.arrivals.inc(),
                SimEventKind::Completion => self.completions.inc(),
                SimEventKind::StealAttempt => self.steal_attempts.inc(),
                SimEventKind::StealSuccess => self.steal_successes.inc(),
                SimEventKind::Migration => {
                    self.migrations.inc();
                    self.tasks_migrated.add(count as u64);
                }
            },
            Event::Job { kind, .. } => match kind {
                JobEventKind::Arrival => self.job_arrivals.inc(),
                JobEventKind::Migrate => self.job_migrations.inc(),
                JobEventKind::ServiceStart => self.job_service_starts.inc(),
                JobEventKind::Completion => self.job_completions.inc(),
            },
            Event::TailSample { t, tails, depth } => {
                self.tail_samples.inc();
                self.sim_t.set(t);
                for (g, &s) in self.tail_gauges.iter().zip(&tails).take(depth as usize) {
                    g.set(s);
                }
                if let Some(tg) = self.transient.as_mut() {
                    tg.observe(t, &tails);
                }
            }
            Event::Heartbeat {
                t, tasks_in_system, ..
            } => {
                self.heartbeats.inc();
                self.sim_t.set(t);
                self.tasks_in_system.set(tasks_in_system as f64);
            }
            Event::ReplicateDone { events_per_sec, .. } => {
                self.replicates.inc();
                self.events_per_sec.set(events_per_sec);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(kind: SimEventKind, count: u32) -> Event {
        Event::Sim {
            kind,
            t: 1.0,
            proc: 0,
            src: None,
            count,
        }
    }

    #[test]
    fn null_recorder_reports_disabled() {
        assert!(!NullRecorder.enabled());
    }

    #[test]
    fn counting_recorder_tallies_by_kind() {
        let mut r = CountingRecorder::new();
        r.record(&sim(SimEventKind::Arrival, 1));
        r.record(&sim(SimEventKind::Arrival, 1));
        r.record(&sim(SimEventKind::StealAttempt, 1));
        r.record(&sim(SimEventKind::StealSuccess, 1));
        r.record(&sim(SimEventKind::Migration, 5));
        r.record(&Event::SolverStep {
            accepted: false,
            t: 0.0,
            h: 0.1,
            err_norm: 2.0,
        });
        let c = r.counts();
        assert_eq!(c.arrivals, 2);
        assert_eq!(c.steal_attempts, 1);
        assert_eq!(c.steal_successes, 1);
        assert_eq!(c.migrations, 1);
        assert_eq!(c.tasks_migrated, 5);
        assert_eq!(c.solver_rejected, 1);
        assert_eq!(c.total(), 6);
    }

    fn job(kind: JobEventKind, job: u64) -> Event {
        Event::Job {
            kind,
            t: 1.0,
            job,
            proc: 0,
            src: None,
            delay: 0.0,
        }
    }

    #[test]
    fn counting_recorder_tallies_job_events() {
        let mut r = CountingRecorder::new();
        r.record(&job(JobEventKind::Arrival, 1));
        r.record(&job(JobEventKind::ServiceStart, 1));
        r.record(&job(JobEventKind::Completion, 1));
        let c = r.counts();
        assert_eq!(c.job_events, 3);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn collecting_recorder_preserves_order() {
        let mut r = CollectingRecorder::new();
        r.record(&job(JobEventKind::Arrival, 7));
        r.record(&job(JobEventKind::Completion, 7));
        assert_eq!(r.events().len(), 2);
        let events = r.into_events();
        assert!(matches!(
            events[0],
            Event::Job {
                kind: JobEventKind::Arrival,
                job: 7,
                ..
            }
        ));
        assert!(matches!(
            events[1],
            Event::Job {
                kind: JobEventKind::Completion,
                job: 7,
                ..
            }
        ));
    }

    #[test]
    fn registry_recorder_feeds_job_counters() {
        let reg = Arc::new(Registry::new());
        let mut r = RegistryRecorder::new(Arc::clone(&reg));
        r.record(&job(JobEventKind::Arrival, 1));
        r.record(&job(JobEventKind::Migrate, 1));
        r.record(&job(JobEventKind::ServiceStart, 1));
        r.record(&job(JobEventKind::Completion, 1));
        let snap = reg.snapshot();
        assert_eq!(snap.counters["job.arrivals"], 1);
        assert_eq!(snap.counters["job.migrations"], 1);
        assert_eq!(snap.counters["job.service_starts"], 1);
        assert_eq!(snap.counters["job.completions"], 1);
    }

    #[test]
    fn recorders_tally_tail_samples() {
        let sample = Event::TailSample {
            t: 5.0,
            tails: [0.9, 0.5, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0],
            depth: 3,
        };
        let mut c = CountingRecorder::new();
        c.record(&sample);
        assert_eq!(c.counts().tail_samples, 1);
        assert_eq!(c.counts().total(), 1);

        let reg = Arc::new(Registry::new());
        let mut r = RegistryRecorder::new(Arc::clone(&reg));
        r.record(&sample);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["sim.tail_samples"], 1);
        assert_eq!(snap.gauges["sim.tail_s1"], 0.9);
        assert_eq!(snap.gauges["sim.tail_s3"], 0.2);
        // Entries past `depth` keep their registered default.
        assert_eq!(snap.gauges["sim.tail_s4"], 0.0);
        assert_eq!(snap.gauges["sim.t"], 5.0);
    }

    #[test]
    fn tail_reference_publishes_live_drift_gauges() {
        let fp = [0.5, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let reference = TailReference {
            grid: vec![
                (1.0, [0.4, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
                (2.0, [0.5, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
            ],
            fixed_point: fp,
            epsilon: 0.02,
        };
        let reg = Arc::new(Registry::new());
        let mut r = RegistryRecorder::new(Arc::clone(&reg)).with_tail_reference(reference);

        // Off the ε-ball at t = 1: residual +0.1 on s₁, not relaxed.
        r.record(&Event::TailSample {
            t: 1.0,
            tails: [0.5, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            depth: 2,
        });
        let snap = reg.snapshot();
        assert!((snap.gauges["transient.residual_s1"] - 0.1).abs() < 1e-12);
        assert!((snap.gauges["transient.residual_sup"] - 0.1).abs() < 1e-12);
        assert!(snap.gauges["transient.relaxation_time"].is_nan());

        // Inside the ε-ball at t = 2: relaxation clock latches.
        r.record(&Event::TailSample {
            t: 2.0,
            tails: [0.51, 0.25, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            depth: 2,
        });
        let snap = reg.snapshot();
        assert!((snap.gauges["transient.residual_s1"] - 0.01).abs() < 1e-12);
        assert!((snap.gauges["transient.residual_sup_max"] - 0.1).abs() < 1e-12);
        assert_eq!(snap.gauges["transient.relaxation_time"], 2.0);

        // A sample off the reference grid is ignored, not mismatched.
        r.record(&Event::TailSample {
            t: 2.7,
            tails: [0.9, 0.9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            depth: 2,
        });
        let snap = reg.snapshot();
        assert!((snap.gauges["transient.residual_sup"] - 0.01).abs() < 1e-12);
    }

    #[test]
    fn ndjson_recorder_writes_one_line_per_event() {
        let mut r = NdjsonRecorder::new(Vec::new());
        r.record(&sim(SimEventKind::Completion, 1));
        r.record(&Event::Heartbeat {
            t: 2.0,
            events: 10,
            tasks_in_system: 3,
        });
        r.flush();
        let (buf, err) = r.into_inner();
        assert!(err.is_none());
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(text.contains("\"ev\":\"completion\""));
        assert!(text.contains("\"ev\":\"heartbeat\""));
    }

    #[test]
    fn ndjson_recorder_amortizes_write_calls() {
        use std::rc::Rc;
        /// Counts `write` calls so the batching is observable.
        struct CountingWriter {
            calls: std::rc::Rc<std::cell::Cell<usize>>,
            out: Vec<u8>,
        }
        impl std::io::Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.calls.set(self.calls.get() + 1);
                self.out.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let calls = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut r = NdjsonRecorder::new(CountingWriter {
            calls: Rc::clone(&calls),
            out: Vec::new(),
        });
        let n = 20_000u64;
        for i in 0..n {
            r.record(&Event::Sim {
                kind: SimEventKind::Arrival,
                t: i as f64,
                proc: 0,
                src: None,
                count: 1,
            });
        }
        let (w, err) = r.into_inner();
        assert!(err.is_none());
        assert!(
            calls.get() < 100,
            "{n} events must batch into few writes, got {}",
            calls.get()
        );
        let text = String::from_utf8(w.out).unwrap();
        assert_eq!(text.lines().count(), n as usize);
    }

    #[test]
    fn registry_recorder_feeds_live_metrics() {
        let reg = Arc::new(Registry::new());
        let mut r = RegistryRecorder::new(Arc::clone(&reg));
        r.record(&sim(SimEventKind::Arrival, 1));
        r.record(&sim(SimEventKind::StealSuccess, 1));
        r.record(&sim(SimEventKind::Migration, 4));
        r.record(&Event::Heartbeat {
            t: 9.5,
            events: 100,
            tasks_in_system: 7,
        });
        r.record(&Event::ReplicateDone {
            seed: 1,
            wall_ms: 2.0,
            events: 100,
            events_per_sec: 50_000.0,
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counters["sim.arrivals"], 1);
        assert_eq!(snap.counters["sim.steal_successes"], 1);
        assert_eq!(snap.counters["sim.tasks_migrated"], 4);
        assert_eq!(snap.counters["sim.replicates_done"], 1);
        assert_eq!(snap.gauges["sim.t"], 9.5);
        assert_eq!(snap.gauges["sim.tasks_in_system"], 7.0);
        assert_eq!(snap.gauges["sim.events_per_sec"], 50_000.0);
        // The same registry handle observes updates live.
        assert!(r.registry().snapshot().counters["sim.arrivals"] == 1);
    }
}
