//! The typed event model: everything a solver, simulator, or
//! replication driver can report, with an NDJSON rendering.

use std::fmt::Write;

use crate::json::JsonBuf;

/// What kind of simulator activity a [`Event::Sim`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEventKind {
    /// A task entered the system.
    Arrival,
    /// A task finished service.
    Completion,
    /// A steal (or rebalance/share) probe was initiated.
    StealAttempt,
    /// A probe found an eligible victim.
    StealSuccess,
    /// Tasks moved between processors (`count` of them).
    Migration,
}

impl SimEventKind {
    /// Stable wire name used in traces and counter keys.
    pub fn name(self) -> &'static str {
        match self {
            Self::Arrival => "arrival",
            Self::Completion => "completion",
            Self::StealAttempt => "steal_attempt",
            Self::StealSuccess => "steal_success",
            Self::Migration => "migration",
        }
    }

    /// The start of this kind's NDJSON line, up to `t`'s value.
    fn json_prefix(self) -> &'static str {
        match self {
            Self::Arrival => r#"{"ev":"arrival","t":"#,
            Self::Completion => r#"{"ev":"completion","t":"#,
            Self::StealAttempt => r#"{"ev":"steal_attempt","t":"#,
            Self::StealSuccess => r#"{"ev":"steal_success","t":"#,
            Self::Migration => r#"{"ev":"migration","t":"#,
        }
    }
}

/// What stage of a job's lifecycle a [`Event::Job`] reports.
///
/// Job events are the identity-carrying companions of the anonymous
/// [`SimEventKind`] stream: they let a reader reconstruct each job's
/// causal history (arrival → migrations → service → completion) and
/// decompose its sojourn into queue wait, transfer time, and service
/// time. They are only emitted when job tracing is opted into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobEventKind {
    /// The job entered the system.
    Arrival,
    /// The job moved from `src` (victim) to `proc` (thief), taking
    /// `delay` time units in flight (0 for instantaneous moves).
    Migrate,
    /// The job reached the front of a queue and began service.
    ServiceStart,
    /// The job finished service and left the system.
    Completion,
}

impl JobEventKind {
    /// Stable wire name used in traces.
    pub fn name(self) -> &'static str {
        match self {
            Self::Arrival => "job_arrival",
            Self::Migrate => "job_migrate",
            Self::ServiceStart => "job_service_start",
            Self::Completion => "job_completion",
        }
    }
}

/// Deepest tail a [`Event::TailSample`] can carry. The mean-field
/// tails decay geometrically (`λ^i` and faster under stealing), so
/// eight levels reach ~`λ⁸ ≈ 0.43` even at `λ = 0.9` — deep enough
/// for trajectory comparison while keeping the event `Copy`.
pub const TAIL_SAMPLE_DEPTH: usize = 8;

/// One structured observation.
///
/// Events are small `Copy` values so emitting one costs a branch and a
/// few register moves when a recorder is attached, and nothing at all
/// when the hot loop has cached `Recorder::enabled() == false`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// One attempted step of an adaptive ODE integrator.
    SolverStep {
        /// Whether the error controller accepted the step.
        accepted: bool,
        /// Time *before* the step.
        t: f64,
        /// Step size attempted.
        h: f64,
        /// Weighted error-norm estimate (≤ 1 means accepted).
        err_norm: f64,
    },
    /// Steady-state drive progress: the residual after an accepted step.
    SolverSteady {
        /// Integration time.
        t: f64,
        /// `‖dy/dt‖∞` at `t`.
        residual: f64,
    },
    /// End-of-integration summary.
    SolverDone {
        /// Accepted step count.
        accepted: u64,
        /// Rejected step count.
        rejected: u64,
        /// Smallest accepted step size.
        min_h: f64,
        /// Largest accepted step size.
        max_h: f64,
        /// Longest run of consecutive rejections (a stiffness hint when
        /// large).
        max_reject_streak: u64,
        /// Whether a steady-state target (if any) was met.
        converged: bool,
        /// Final residual `‖dy/dt‖∞`.
        residual: f64,
    },
    /// One simulator event.
    Sim {
        /// Event kind.
        kind: SimEventKind,
        /// Simulated time.
        t: f64,
        /// Processor involved (thief for steals, receiver for
        /// migrations).
        proc: u32,
        /// Donor processor for migrations (`None` for other kinds), so
        /// per-processor queue timelines are reconstructible from a
        /// trace alone.
        src: Option<u32>,
        /// Multiplicity (tasks moved for migrations, 1 otherwise).
        count: u32,
    },
    /// One lifecycle stage of an identified job (opt-in job tracing).
    Job {
        /// Lifecycle stage.
        kind: JobEventKind,
        /// Simulated time.
        t: f64,
        /// Stable job identity, unique within one simulation run.
        job: u64,
        /// Processor involved: where the job arrived, the thief for
        /// migrations, where it started service or completed.
        proc: u32,
        /// Victim processor for migrations (`None` for other stages).
        src: Option<u32>,
        /// Transfer delay for migrations (0 when the move is
        /// instantaneous; 0 for other stages).
        delay: f64,
    },
    /// Periodic snapshot of the empirical tail vector `ŝ₁…ŝ_depth`
    /// (opt-in transient sampling): `tails[i-1]` is the instantaneous
    /// fraction of processors with queue depth ≥ `i` at simulated time
    /// `t`. `s₀ = 1` is implicit and never carried.
    TailSample {
        /// Simulated time of the snapshot.
        t: f64,
        /// Tail fractions `ŝ₁…ŝ_depth`; entries past `depth` are 0.
        tails: [f64; TAIL_SAMPLE_DEPTH],
        /// How many leading entries of `tails` are meaningful
        /// (≤ [`TAIL_SAMPLE_DEPTH`]).
        depth: u32,
    },
    /// Periodic progress heartbeat from a long simulation run.
    Heartbeat {
        /// Simulated time.
        t: f64,
        /// Events processed so far in this run.
        events: u64,
        /// Tasks currently in the system.
        tasks_in_system: u64,
    },
    /// One finished replication.
    ReplicateDone {
        /// Seed of the run.
        seed: u64,
        /// Wall-clock duration in milliseconds.
        wall_ms: f64,
        /// Events processed.
        events: u64,
        /// Throughput (events per wall-clock second).
        events_per_sec: f64,
    },
}

impl Event {
    /// Stable wire name of the event type.
    pub fn name(&self) -> &'static str {
        match self {
            Self::SolverStep { .. } => "solver_step",
            Self::SolverSteady { .. } => "solver_steady",
            Self::SolverDone { .. } => "solver_done",
            Self::Sim { kind, .. } => kind.name(),
            Self::Job { kind, .. } => kind.name(),
            Self::TailSample { .. } => "tail_sample",
            Self::Heartbeat { .. } => "heartbeat",
            Self::ReplicateDone { .. } => "replicate_done",
        }
    }

    /// Render the event as a single-line JSON object (no trailing
    /// newline) — the NDJSON wire format.
    pub fn to_json_line(&self) -> String {
        let mut line = String::new();
        self.write_json(&mut line);
        line
    }

    /// Append the event's NDJSON line (no trailing newline) to `out`,
    /// allocating only if `out` must grow.
    pub(crate) fn write_json(&self, out: &mut String) {
        // Simulator events are most of every trace, so their lines are
        // written straight into `out`, byte for byte what `JsonBuf`
        // would write.
        if let Self::Sim {
            kind,
            t,
            proc,
            src,
            count,
        } = *self
        {
            out.push_str(kind.json_prefix());
            if t.is_finite() {
                let _ = write!(out, "{t:?}");
            } else {
                out.push_str("null");
            }
            out.push_str(r#","proc":"#);
            push_u32(out, proc);
            if let Some(s) = src {
                out.push_str(r#","src":"#);
                push_u32(out, s);
            }
            if count != 1 {
                out.push_str(r#","count":"#);
                push_u32(out, count);
            }
            out.push('}');
            return;
        }
        let mut j = JsonBuf::from_string(std::mem::take(out));
        j.begin_obj().field_str("ev", self.name());
        match *self {
            Self::SolverStep {
                accepted,
                t,
                h,
                err_norm,
            } => {
                j.field_bool("accepted", accepted)
                    .field_f64("t", t)
                    .field_f64("h", h)
                    .field_f64("err_norm", err_norm);
            }
            Self::SolverSteady { t, residual } => {
                j.field_f64("t", t).field_f64("residual", residual);
            }
            Self::SolverDone {
                accepted,
                rejected,
                min_h,
                max_h,
                max_reject_streak,
                converged,
                residual,
            } => {
                j.field_u64("accepted", accepted)
                    .field_u64("rejected", rejected)
                    .field_f64("min_h", min_h)
                    .field_f64("max_h", max_h)
                    .field_u64("max_reject_streak", max_reject_streak)
                    .field_bool("converged", converged)
                    .field_f64("residual", residual);
            }
            Self::Sim { .. } => unreachable!("simulator events are written above"),
            Self::Job {
                t,
                job,
                proc,
                src,
                delay,
                ..
            } => {
                j.field_f64("t", t)
                    .field_u64("job", job)
                    .field_u64("proc", proc as u64);
                if let Some(s) = src {
                    j.field_u64("src", s as u64);
                }
                if delay != 0.0 {
                    j.field_f64("delay", delay);
                }
            }
            Self::TailSample { t, tails, depth } => {
                j.field_f64("t", t).key("s").begin_arr();
                for &s in tails.iter().take(depth as usize) {
                    j.f64_val(s);
                }
                j.end_arr();
            }
            Self::Heartbeat {
                t,
                events,
                tasks_in_system,
            } => {
                j.field_f64("t", t)
                    .field_u64("events", events)
                    .field_u64("tasks_in_system", tasks_in_system);
            }
            Self::ReplicateDone {
                seed,
                wall_ms,
                events,
                events_per_sec,
            } => {
                j.field_u64("seed", seed)
                    .field_f64("wall_ms", wall_ms)
                    .field_u64("events", events)
                    .field_f64("events_per_sec", events_per_sec);
            }
        }
        j.end_obj();
        *out = j.finish();
    }
}

/// Append `v` in decimal.
fn push_u32(out: &mut String, mut v: u32) {
    let mut digits = [0u8; 10];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

/// Schema identifier written in trace header lines.
pub const TRACE_SCHEMA: &str = "loadsteal.trace.v1";

/// The optional first line of an NDJSON trace: what system produced
/// the events that follow, so a trace is self-describing.
///
/// Events are `Copy` and headers carry a model string, so the header
/// is its own type rather than an [`Event`] variant; readers that
/// predate it (or `Lossy` mode on unknown fields) simply skip the
/// line. All fields are optional — a solver trace has a model but no
/// seed, a bare simulator trace may have neither.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceHeader {
    /// Canonical `ModelSpec` string of the simulated/solved system.
    pub model: Option<String>,
    /// Number of processors simulated.
    pub n: Option<u64>,
    /// Base RNG seed.
    pub seed: Option<u64>,
    /// Number of replications whose events follow.
    pub runs: Option<u64>,
}

impl TraceHeader {
    /// Render as a single-line JSON object (the NDJSON wire format):
    /// `{"ev":"header","schema":"loadsteal.trace.v1",...}` with absent
    /// fields elided.
    pub fn to_json_line(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj()
            .field_str("ev", "header")
            .field_str("schema", TRACE_SCHEMA);
        if let Some(model) = &self.model {
            j.field_str("model", model);
        }
        if let Some(n) = self.n {
            j.field_u64("n", n);
        }
        if let Some(seed) = self.seed {
            j.field_u64("seed", seed);
        }
        if let Some(runs) = self.runs {
            j.field_u64("runs", runs);
        }
        j.end_obj();
        j.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{NdjsonRecorder, Recorder};

    /// A header and one event of every kind with its exact wire line:
    /// elided `count`, `src` and `delay`, `null` for a non-finite float,
    /// a `u64::MAX` seed, floats that need an exponent, and an empty
    /// tail sample.
    fn golden() -> (TraceHeader, &'static str, Vec<(Event, &'static str)>) {
        let header = TraceHeader {
            model: Some("lambda=0.9,policy=steal,T=2,d=1,k=1".into()),
            n: Some(128),
            seed: Some(u64::MAX),
            runs: Some(3),
        };
        let header_line = r#"{"ev":"header","schema":"loadsteal.trace.v1","model":"lambda=0.9,policy=steal,T=2,d=1,k=1","n":128,"seed":18446744073709551615,"runs":3}"#;
        let sim = |kind, t, proc, src, count| Event::Sim {
            kind,
            t,
            proc,
            src,
            count,
        };
        let job = |kind, t, src, delay| Event::Job {
            kind,
            t,
            job: 9,
            proc: 1,
            src,
            delay,
        };
        let events = vec![
            (
                Event::SolverStep {
                    accepted: false,
                    t: 0.0,
                    h: 0.001,
                    err_norm: 3.2e-11,
                },
                r#"{"ev":"solver_step","accepted":false,"t":0.0,"h":0.001,"err_norm":3.2e-11}"#,
            ),
            (
                Event::SolverSteady {
                    t: 1.5,
                    residual: f64::NAN,
                },
                r#"{"ev":"solver_steady","t":1.5,"residual":null}"#,
            ),
            (
                Event::SolverDone {
                    accepted: 10,
                    rejected: 2,
                    min_h: 1e-7,
                    max_h: 1e20,
                    max_reject_streak: 1,
                    converged: true,
                    residual: f64::INFINITY,
                },
                r#"{"ev":"solver_done","accepted":10,"rejected":2,"min_h":1e-7,"max_h":1e20,"max_reject_streak":1,"converged":true,"residual":null}"#,
            ),
            (
                sim(SimEventKind::Arrival, 0.25, 3, None, 1),
                r#"{"ev":"arrival","t":0.25,"proc":3}"#,
            ),
            (
                sim(SimEventKind::Completion, 1.0, 0, None, 1),
                r#"{"ev":"completion","t":1.0,"proc":0}"#,
            ),
            (
                sim(SimEventKind::StealAttempt, 2.5, 7, None, 1),
                r#"{"ev":"steal_attempt","t":2.5,"proc":7}"#,
            ),
            (
                sim(SimEventKind::StealSuccess, 2.5, 7, None, 1),
                r#"{"ev":"steal_success","t":2.5,"proc":7}"#,
            ),
            (
                sim(SimEventKind::Migration, 3.0, 7, Some(2), 3),
                r#"{"ev":"migration","t":3.0,"proc":7,"src":2,"count":3}"#,
            ),
            (
                sim(SimEventKind::Migration, 3.5, 4, Some(0), 1),
                r#"{"ev":"migration","t":3.5,"proc":4,"src":0}"#,
            ),
            (
                job(JobEventKind::Arrival, 1.0, None, 0.0),
                r#"{"ev":"job_arrival","t":1.0,"job":9,"proc":1}"#,
            ),
            (
                job(JobEventKind::Migrate, 2.0, Some(6), 0.5),
                r#"{"ev":"job_migrate","t":2.0,"job":9,"proc":1,"src":6,"delay":0.5}"#,
            ),
            (
                job(JobEventKind::Migrate, 2.25, Some(6), 0.0),
                r#"{"ev":"job_migrate","t":2.25,"job":9,"proc":1,"src":6}"#,
            ),
            (
                job(JobEventKind::ServiceStart, 2.5, None, 0.0),
                r#"{"ev":"job_service_start","t":2.5,"job":9,"proc":1}"#,
            ),
            (
                job(JobEventKind::Completion, 3.75, None, 0.0),
                r#"{"ev":"job_completion","t":3.75,"job":9,"proc":1}"#,
            ),
            (
                Event::TailSample {
                    t: 12.5,
                    tails: [0.875, 0.5, f64::NAN, 0.0, 0.0, 0.0, 0.0, 0.0],
                    depth: 3,
                },
                r#"{"ev":"tail_sample","t":12.5,"s":[0.875,0.5,null]}"#,
            ),
            (
                Event::TailSample {
                    t: 13.0,
                    tails: [0.0; TAIL_SAMPLE_DEPTH],
                    depth: 0,
                },
                r#"{"ev":"tail_sample","t":13.0,"s":[]}"#,
            ),
            (
                Event::Heartbeat {
                    t: 100.0,
                    events: 65536,
                    tasks_in_system: 12,
                },
                r#"{"ev":"heartbeat","t":100.0,"events":65536,"tasks_in_system":12}"#,
            ),
            (
                Event::ReplicateDone {
                    seed: u64::MAX,
                    wall_ms: 15.5,
                    events: 1000,
                    events_per_sec: 64516.0,
                },
                r#"{"ev":"replicate_done","seed":18446744073709551615,"wall_ms":15.5,"events":1000,"events_per_sec":64516.0}"#,
            ),
        ];
        (header, header_line, events)
    }

    #[test]
    fn sim_lines_cover_the_digit_writer_edges() {
        let line = |t, proc, src, count| {
            Event::Sim {
                kind: SimEventKind::Arrival,
                t,
                proc,
                src,
                count,
            }
            .to_json_line()
        };
        assert_eq!(
            line(f64::NAN, u32::MAX, Some(0), 0),
            r#"{"ev":"arrival","t":null,"proc":4294967295,"src":0,"count":0}"#
        );
        assert_eq!(
            line(1e-300, 10, Some(1_000_000), 4_000_000_000),
            r#"{"ev":"arrival","t":1e-300,"proc":10,"src":1000000,"count":4000000000}"#
        );
    }

    #[test]
    fn wire_lines_match_the_golden_text() {
        let (header, header_line, events) = golden();
        assert_eq!(header.to_json_line(), header_line);
        for (ev, line) in &events {
            assert_eq!(ev.to_json_line(), *line);
        }
    }

    #[test]
    fn batched_recorder_writes_the_golden_text() {
        let (header, header_line, events) = golden();
        let mut rec = NdjsonRecorder::new(Vec::new());
        rec.write_line(&header.to_json_line());
        let mut want = format!("{header_line}\n");
        for (ev, line) in &events {
            rec.record(ev);
            want.push_str(line);
            want.push('\n');
        }
        let (bytes, err) = rec.into_inner();
        assert!(err.is_none());
        assert_eq!(String::from_utf8(bytes).unwrap(), want);
    }

    #[test]
    fn every_event_renders_one_json_object() {
        let events = [
            Event::SolverStep {
                accepted: true,
                t: 1.0,
                h: 0.5,
                err_norm: 0.3,
            },
            Event::SolverSteady {
                t: 2.0,
                residual: 1e-9,
            },
            Event::SolverDone {
                accepted: 10,
                rejected: 2,
                min_h: 1e-3,
                max_h: 4.0,
                max_reject_streak: 1,
                converged: true,
                residual: 5e-11,
            },
            Event::Sim {
                kind: SimEventKind::Migration,
                t: 3.0,
                proc: 7,
                src: Some(2),
                count: 3,
            },
            Event::Job {
                kind: JobEventKind::Migrate,
                t: 3.5,
                job: 17,
                proc: 4,
                src: Some(11),
                delay: 0.25,
            },
            Event::TailSample {
                t: 3.75,
                tails: [0.9, 0.4, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0],
                depth: 3,
            },
            Event::Heartbeat {
                t: 4.0,
                events: 100,
                tasks_in_system: 12,
            },
            Event::ReplicateDone {
                seed: 42,
                wall_ms: 15.5,
                events: 1000,
                events_per_sec: 64516.0,
            },
        ];
        for ev in events {
            let line = ev.to_json_line();
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(!line.contains('\n'));
            assert!(
                line.contains(&format!("\"ev\":\"{}\"", ev.name())),
                "{line}"
            );
        }
    }

    #[test]
    fn unit_count_is_elided() {
        let line = Event::Sim {
            kind: SimEventKind::Arrival,
            t: 0.0,
            proc: 0,
            src: None,
            count: 1,
        }
        .to_json_line();
        assert!(!line.contains("count"), "{line}");
        assert!(!line.contains("src"), "{line}");
    }

    #[test]
    fn header_renders_with_elided_fields() {
        let full = TraceHeader {
            model: Some("lambda=0.9,policy=steal,T=2,d=1,k=1".into()),
            n: Some(128),
            seed: Some(42),
            runs: Some(3),
        };
        let line = full.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains(r#""ev":"header""#), "{line}");
        assert!(line.contains(r#""schema":"loadsteal.trace.v1""#), "{line}");
        assert!(line.contains(r#""model":"lambda=0.9"#), "{line}");
        assert!(line.contains(r#""n":128"#), "{line}");
        let sparse = TraceHeader {
            model: Some("lambda=0.8,policy=none".into()),
            ..TraceHeader::default()
        };
        let line = sparse.to_json_line();
        assert!(!line.contains("\"n\""), "{line}");
        assert!(!line.contains("seed"), "{line}");
    }

    #[test]
    fn job_event_elides_src_and_zero_delay() {
        let line = Event::Job {
            kind: JobEventKind::Arrival,
            t: 1.0,
            job: 3,
            proc: 5,
            src: None,
            delay: 0.0,
        }
        .to_json_line();
        assert!(line.contains(r#""ev":"job_arrival""#), "{line}");
        assert!(line.contains(r#""job":3"#), "{line}");
        assert!(line.contains(r#""proc":5"#), "{line}");
        assert!(!line.contains("src"), "{line}");
        assert!(!line.contains("delay"), "{line}");
    }

    #[test]
    fn job_migrate_carries_victim_and_delay() {
        let line = Event::Job {
            kind: JobEventKind::Migrate,
            t: 2.0,
            job: 9,
            proc: 1,
            src: Some(6),
            delay: 0.5,
        }
        .to_json_line();
        assert!(line.contains(r#""ev":"job_migrate""#), "{line}");
        assert!(line.contains(r#""src":6"#), "{line}");
        assert!(line.contains(r#""delay":0.5"#), "{line}");
        // An instantaneous hop elides the delay field (reader defaults
        // it to 0).
        let instant = Event::Job {
            kind: JobEventKind::Migrate,
            t: 2.0,
            job: 9,
            proc: 1,
            src: Some(6),
            delay: 0.0,
        }
        .to_json_line();
        assert!(!instant.contains("delay"), "{instant}");
    }

    #[test]
    fn tail_sample_writes_only_depth_entries() {
        let line = Event::TailSample {
            t: 12.5,
            tails: [0.875, 0.5, 0.125, 0.0, 0.0, 0.0, 0.0, 0.0],
            depth: 3,
        }
        .to_json_line();
        assert!(line.contains(r#""ev":"tail_sample""#), "{line}");
        assert!(line.contains(r#""t":12.5"#), "{line}");
        assert!(line.contains(r#""s":[0.875,0.5,0.125]"#), "{line}");
        // Non-finite entries render as null, like every other f64.
        let nan = Event::TailSample {
            t: 0.0,
            tails: [f64::NAN, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            depth: 1,
        }
        .to_json_line();
        assert!(nan.contains(r#""s":[null]"#), "{nan}");
    }

    #[test]
    fn migration_source_is_emitted() {
        let line = Event::Sim {
            kind: SimEventKind::Migration,
            t: 1.0,
            proc: 3,
            src: Some(9),
            count: 2,
        }
        .to_json_line();
        assert!(line.contains(r#""src":9"#), "{line}");
        assert!(line.contains(r#""count":2"#), "{line}");
    }
}
