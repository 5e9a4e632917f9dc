//! Per-layer probes, run once at the end of every traced run whatever
//! the workload, each inside a span of its layer and timed from outside
//! around public calls. They give every layer a measured cost on every
//! workload, including layers the workload's own batch never calls.

use std::hint::black_box;
use std::time::Instant;

use loadsteal_core::models::SimpleWs;
use loadsteal_exec::deque;
use loadsteal_obs::{CollectingRecorder, NdjsonRecorder, Recorder};
use loadsteal_ode::linalg::{DenseMatrix, Lu};
use loadsteal_ode::OdeSystem;
use loadsteal_queueing::dist::exp_sample;
use loadsteal_sim::{run_recorded, CalendarQueue, Event, EventKind, EventQueue};
use loadsteal_trace::{read_bytes, ReadMode, Timeline, TimelineConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::measure::{median, Metric};
use crate::span::Tracer;
use crate::workloads::{derive_seed, trace_pipe};

/// Repetitions of each timed loop; the median is reported.
const REPS: usize = 5;

/// Median over `REPS` of `f()`'s wall time in ns, divided by `per`.
fn time_ns(per: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    median(&v)
}

/// Run every probe. `pending` is the workload's pending-event count for
/// the calendar queue probe.
pub fn run(tracer: &Tracer, seed: u64, pending: usize) -> Result<Vec<Metric>, String> {
    let mut m = Vec::new();
    m.push(tracer.span("queueing", "exp_sample", || exp_sample_ns(seed)));
    m.push(tracer.span("sim", "calendar_queue", || calendar_ns(seed, pending)));
    m.extend(tracer.span("exec", "deque", deque_ns));
    m.push(tracer.span("ode", "lu_factor", || lu_factor_ms(seed)));
    m.push(tracer.span("core", "deriv", deriv_us)?);
    m.extend(encode_parse(tracer, seed)?);
    Ok(m)
}

fn exp_sample_ns(seed: u64) -> Metric {
    const DRAWS: usize = 1 << 20;
    let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 10));
    let ns = time_ns(DRAWS, || {
        let mut acc = 0.0;
        for _ in 0..DRAWS {
            acc += exp_sample(&mut rng, 1.0);
        }
        black_box(acc);
    });
    Metric::new("queueing.exp_sample_ns", ns, "ns")
}

/// Push+pop pairs on a calendar queue held at `pending` events (the
/// hold model: pop the minimum and push it again an Exp(1) time later,
/// so events are spaced about 1/pending apart as in the engine).
fn calendar_ns(seed: u64, pending: usize) -> Metric {
    const OPS: usize = 1 << 19;
    let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 11));
    let mut q = CalendarQueue::with_hint(pending);
    let mut seq = 0;
    let mut ev = |time: f64| {
        seq += 1;
        Event {
            time,
            seq,
            kind: EventKind::Completion { proc: 0 },
        }
    };
    for _ in 0..pending {
        q.push(ev(exp_sample(&mut rng, 1.0)));
    }
    let ns = time_ns(OPS, || {
        for _ in 0..OPS {
            let e = q.pop().expect("the hold model keeps the queue full");
            q.push(ev(e.time + exp_sample(&mut rng, 1.0)));
        }
    });
    black_box(q.len());
    Metric::new("sim.calendar_ns_per_op", ns, "ns")
}

/// Owner push+pop pairs, and steals through the stealer handle of the
/// same deque, on one thread: the uncontended cost of each operation.
fn deque_ns() -> Vec<Metric> {
    const BLOCK: usize = 256;
    const ROUNDS: usize = 2048;
    let (w, s) = deque::deque::<u64>();
    let push_pop = time_ns(BLOCK * ROUNDS, || {
        for _ in 0..ROUNDS {
            for i in 0..BLOCK as u64 {
                w.push(i);
            }
            for _ in 0..BLOCK {
                black_box(w.pop());
            }
        }
    });
    let steals: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut ns = 0;
            for _ in 0..ROUNDS {
                for i in 0..BLOCK as u64 {
                    w.push(i);
                }
                let t = Instant::now();
                for _ in 0..BLOCK {
                    black_box(s.steal().success());
                }
                ns += t.elapsed().as_nanos();
            }
            ns as f64 / (BLOCK * ROUNDS) as f64
        })
        .collect();
    vec![
        Metric::new("exec.deque_push_pop_ns", push_pop, "ns"),
        Metric::new("exec.deque_steal_ns", median(&steals), "ns"),
    ]
}

/// Dense LU at dimension 306, the truncation most presets solve at.
fn lu_factor_ms(seed: u64) -> Metric {
    const DIM: usize = 306;
    let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 12));
    let mut a = DenseMatrix::zeros(DIM);
    for r in 0..DIM {
        for c in 0..DIM {
            a[(r, c)] = exp_sample(&mut rng, 1.0) + if r == c { DIM as f64 } else { 0.0 };
        }
    }
    let ms = time_ns(1, || {
        black_box(Lu::factor(a.clone()).expect("diagonally dominant"));
    }) * 1e-6;
    Metric::new("ode.lu_factor_ms", ms, "ms")
}

/// One simple-WS right-hand side at its fixed point and solved
/// truncation, timed call by call.
fn deriv_us() -> Result<Metric, String> {
    let model = SimpleWs::new(0.9)?;
    let y = model.closed_form_tails().into_vec();
    let mut dy = vec![0.0; model.dim()];
    let v: Vec<f64> = (0..1001)
        .map(|_| {
            let t = Instant::now();
            model.deriv(0.0, black_box(&y), &mut dy);
            black_box(&dy);
            t.elapsed().as_nanos() as f64 * 1e-3
        })
        .collect();
    Ok(Metric::new("core.deriv_us_p50", median(&v), "us"))
}

/// The trace-pipe workload's event stream, collected in memory, then
/// encoded, parsed and replayed separately.
fn encode_parse(tracer: &Tracer, seed: u64) -> Result<Vec<Metric>, String> {
    let seed = derive_seed(seed, 0);
    let (cfg, _) = trace_pipe::config(seed)?;
    let events = tracer.span("sim", "run_recorded+collect", || {
        let mut rec = CollectingRecorder::new();
        run_recorded(&cfg, seed, &mut rec);
        rec.into_events()
    });
    let count = events.len().max(1) as f64;
    let (encode_s, bytes) = tracer.span("obs", "encode", || {
        let t = Instant::now();
        let mut rec = NdjsonRecorder::new(Vec::new());
        for e in &events {
            rec.record(e);
        }
        let (bytes, err) = rec.into_inner();
        (
            t.elapsed().as_secs_f64(),
            err.map_or(Ok(bytes), |e| Err(e.to_string())),
        )
    });
    let bytes = bytes?;
    let (parse_s, parsed) = tracer.span("trace", "read_bytes", || {
        let t = Instant::now();
        let p = read_bytes(&bytes, ReadMode::Strict);
        (t.elapsed().as_secs_f64(), p)
    });
    let parsed = parsed.map_err(|e| format!("probe trace does not parse: {e}"))?;
    if parsed.events.len() != events.len() {
        return Err(format!(
            "probe trace: {} events encoded, {} parsed",
            events.len(),
            parsed.events.len()
        ));
    }
    let timeline_s = tracer.span("trace", "timeline", || {
        let t = Instant::now();
        black_box(Timeline::build(&parsed.events, &TimelineConfig::default()));
        t.elapsed().as_secs_f64()
    });
    Ok(vec![
        Metric::new("obs.encode_ns_per_event", encode_s * 1e9 / count, "ns"),
        Metric::new("obs.bytes_per_event", bytes.len() as f64 / count, "B"),
        Metric::new("trace.parse_ns_per_event", parse_s * 1e9 / count, "ns"),
        Metric::new(
            "trace.timeline_ns_per_event",
            timeline_s * 1e9 / count,
            "ns",
        ),
    ])
}
