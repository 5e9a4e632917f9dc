//! `trace-pipe`: `loadsteal simulate --trace - | loadsteal report -` in
//! one process. One n = 128, λ = 0.9 run records into an
//! `NdjsonRecorder<Vec<u8>>`, then goes through
//! `trace::read_bytes(Strict)`, `Timeline::build` and `render_report`.
//!
//! It is the only workload where obs writes (encode) and trace reads
//! (parse) dominate, so a format change that speeds one side and slows
//! the other shows here.

use std::time::Instant;

use loadsteal_core::models::SimpleWs;
use loadsteal_core::ModelSpec;
use loadsteal_obs::{NdjsonRecorder, TraceHeader};
use loadsteal_sim::{run, run_recorded, sim_config, SimConfig, SimResult};
use loadsteal_trace::{
    read_bytes, render_report, MeanFieldPrediction, ReadMode, Timeline, TimelineConfig,
};

use super::{check_counters, derive_seed, ensure, span_ms, BatchOut, Checks, Workload};
use crate::measure::{median, Metric};
use crate::span::{Span, Tracer};

const N: usize = 128;
const LAMBDA: f64 = 0.9;
const HORIZON: f64 = 500.0;
const WARMUP: f64 = 50.0;

/// The simulated system and its trace header, as `simulate` writes it.
pub fn config(seed: u64) -> Result<(SimConfig, String), String> {
    let spec = ModelSpec::simple_ws(LAMBDA);
    let mut cfg = sim_config(&spec, N).map_err(|e| e.to_string())?;
    cfg.horizon = HORIZON;
    cfg.warmup = WARMUP;
    let header = TraceHeader {
        model: Some(spec.to_string()),
        n: Some(N as u64),
        seed: Some(seed),
        runs: Some(1),
        ..TraceHeader::default()
    };
    Ok((cfg, header.to_json_line()))
}

/// What one pass through the pipe returned.
struct Pass {
    result: SimResult,
    lines: u64,
    bytes: usize,
    parsed: Result<loadsteal_trace::ParsedTrace, String>,
    timeline: Option<Timeline>,
    report: String,
}

pub struct TracePipe {
    cfg: SimConfig,
    header: String,
    seed: u64,
    prediction: MeanFieldPrediction,
    first: Option<(u64, usize)>,
    events_parsed: u64,
}

impl TracePipe {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let seed = derive_seed(seed, 0);
        let (cfg, header) = config(seed)?;
        let model = SimpleWs::new(LAMBDA)?;
        let prediction =
            MeanFieldPrediction::new(LAMBDA, model.pi2(), model.closed_form_mean_time());
        let mut pipe = Self {
            cfg,
            header,
            seed,
            prediction,
            first: None,
            events_parsed: 0,
        };
        // Warm-up: one pass over a tenth of the horizon.
        let full = pipe.cfg.clone();
        pipe.cfg.horizon /= 10.0;
        pipe.cfg.warmup /= 10.0;
        pipe.pass(&Tracer::new());
        pipe.cfg = full;
        Ok(pipe)
    }

    fn pass(&self, tracer: &Tracer) -> Pass {
        // Encoding is interleaved with the simulation inside
        // `run_recorded`, so outside spans cannot split it; the obs
        // probe replays the same events into the encoder to do that.
        let (result, lines, bytes) = tracer.span("sim", "run_recorded+encode", || {
            let mut rec = NdjsonRecorder::new(Vec::new());
            rec.write_line(&self.header);
            let result = run_recorded(&self.cfg, self.seed, &mut rec);
            let lines = rec.lines();
            let (bytes, err) = rec.into_inner();
            (result, lines, err.map_or(Ok(bytes), |e| Err(e.to_string())))
        });
        let parsed = bytes.and_then(|b| {
            tracer.span("trace", "read_bytes", || {
                read_bytes(&b, ReadMode::Strict)
                    .map(|p| (p, b.len()))
                    .map_err(|e| e.to_string())
            })
        });
        let (parsed, nbytes) = match parsed {
            Ok((p, n)) => (Ok(p), n),
            Err(e) => (Err(e), 0),
        };
        let timeline = parsed.as_ref().ok().map(|p| {
            tracer.span("trace", "timeline", || {
                Timeline::build(
                    &p.events,
                    &TimelineConfig {
                        warmup: self.cfg.warmup,
                        ..TimelineConfig::default()
                    },
                )
            })
        });
        let report = timeline.as_ref().map_or_else(String::new, |tl| {
            tracer.span("trace", "render_report", || {
                render_report(tl, Some(&self.prediction))
            })
        });
        Pass {
            result,
            lines,
            bytes: nbytes,
            parsed,
            timeline,
            report,
        }
    }
}

impl Workload for TracePipe {
    fn batch(&mut self, tracer: &Tracer, checks: &mut Checks) -> BatchOut {
        let t = Instant::now();
        let pass = self.pass(tracer);
        let ms = t.elapsed().as_secs_f64() * 1e3;

        let r = &pass.result;
        let mut problems = Vec::new();
        check_counters(r, &mut problems);
        let mut events = 0;
        match (&pass.parsed, &pass.timeline) {
            (Ok(p), Some(tl)) => {
                events = p.events.len() as u64;
                ensure(
                    &mut problems,
                    p.header.is_some() && events + 1 == pass.lines,
                    || format!("{events} events + header parsed from {} lines", pass.lines),
                );
                let c = tl.counts;
                let want = [
                    ("arrivals", c.arrivals, r.tasks_arrived),
                    ("completions", c.completions, r.tasks_completed),
                    ("steal attempts", c.steal_attempts, r.steal_attempts),
                    ("steal successes", c.steal_successes, r.steal_successes),
                    ("tasks migrated", c.tasks_migrated, r.tasks_migrated),
                    ("depth underflows", tl.depth_underflows, 0),
                    ("sourceless migrations", tl.sourceless_migrations, 0),
                ];
                for (what, got, expected) in want {
                    ensure(&mut problems, got == expected, || {
                        format!("timeline {what} {got} != {expected}")
                    });
                }
                ensure(&mut problems, !pass.report.is_empty(), || {
                    "empty report".into()
                });
            }
            (Err(e), _) => problems.push(format!("strict parse failed: {e}")),
            (Ok(_), None) => problems.push("no timeline".into()),
        }
        let print = (pass.lines, pass.bytes);
        let first = *self.first.get_or_insert(print);
        ensure(&mut problems, print == first, || {
            format!("trace of {print:?} lines/bytes differs from the first batch's {first:?}")
        });
        checks.item(|| "pipe pass".into(), &problems);
        self.events_parsed = events;
        BatchOut {
            items_ms: vec![ms],
            work: events,
            kernel_s: Vec::new(),
        }
    }

    fn layer_metrics(&self, batch_spans: &[Span], traced: usize) -> Vec<Metric> {
        let mut m = vec![Metric::new(
            "trace.events_parsed",
            self.events_parsed as f64,
            "count",
        )];
        if traced > 0 {
            m.push(Metric::new(
                "trace.report_ms",
                median(&span_ms(batch_spans, "render_report")),
                "ms",
            ));
        }
        m
    }

    /// The same run under `NdjsonRecorder` and under `NullRecorder`
    /// (`sim::run`), three times each.
    fn breakdown(&mut self) -> Vec<Metric> {
        let time = |f: &dyn Fn()| {
            let v: Vec<f64> = (0..3)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed().as_secs_f64()
                })
                .collect();
            median(&v)
        };
        let traced = time(&|| {
            let mut rec = NdjsonRecorder::new(Vec::new());
            std::hint::black_box(run_recorded(&self.cfg, self.seed, &mut rec));
            std::hint::black_box(rec.into_inner());
        });
        let plain = time(&|| {
            std::hint::black_box(run(&self.cfg, self.seed));
        });
        vec![Metric::new("obs.trace_overhead_x", traced / plain, "ratio")]
    }
}
