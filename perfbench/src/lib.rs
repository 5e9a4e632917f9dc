//! The loadsteal benchmark of record: four workloads that call the
//! workspace crates' public functions in-process, check every output,
//! and report end-to-end metrics from an untraced run or per-layer
//! metrics from a traced one. See README.md.

pub mod calib;
pub mod measure;
pub mod probes;
pub mod span;
pub mod workloads;

use std::time::Instant;

use measure::{iqr_frac, mean, median, Metric};
use span::{self_time_by_layer, Span, Tracer, LAYERS};
use workloads::Checks;

/// Set-ups per run; the median is reported as `setup_s`.
pub const SETUP_REPS: usize = 5;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Outcome {
    pub workload: &'static str,
    /// The metrics `BENCHMARK.json` lists: end-to-end ones from an
    /// untraced run, per-layer ones from a traced run.
    pub metrics: Vec<Metric>,
    /// Workload-specific metrics, printed and recorded but not gated.
    pub details: Vec<Metric>,
    pub checks: Checks,
    /// Spans of the traced batches and of the probes.
    pub spans: Vec<Span>,
}

/// Run one workload: set up `SETUP_REPS` times, then run batches until
/// `seconds` have passed. A traced run alternates untraced and traced
/// batches, then measures the workload's breakdown and the probes.
pub fn run_workload(name: &str, opts: &Options) -> Result<Outcome, String> {
    let workload = *workloads::NAMES
        .iter()
        .find(|n| **n == name)
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    let tracer = Tracer::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(workloads::setup(workload, opts.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = built.expect("at least one set-up");

    let mut checks = Checks::default();
    let threads = w.threads();
    let (mut walls, mut traced_walls, mut items_ms, mut work) = (vec![], vec![], vec![], vec![]);
    let mut batch_spans = Vec::new();
    let mut peak_rss = f64::NAN;
    // Calibration slices, taken between batches (and between the items
    // of a long batch) so that they sample the host as the batches do.
    let mut kernel_s = vec![calib::time_slice(threads)];
    let rss_reset = measure::reset_peak_rss();
    let start = Instant::now();
    let min_batches = if opts.trace { 2 } else { 1 };
    let mut k = 0;
    // Stop before a batch that would overrun `seconds` (predicted from
    // the median batch so far), so a run's length tracks `--seconds`.
    while k < min_batches || start.elapsed().as_secs_f64() + median(&walls) <= opts.seconds {
        let traced = opts.trace && k % 2 == 1;
        tracer.set_enabled(traced);
        let t = Instant::now();
        let out = w.batch(&tracer, &mut checks);
        let wall = t.elapsed().as_secs_f64() - out.kernel_s.iter().sum::<f64>();
        tracer.set_enabled(false);
        if k == 0 {
            // What one `simulate`/`solve` invocation holds at its peak.
            // Later batches only add allocator history, which varies
            // from run to run.
            peak_rss = measure::peak_rss_mib().unwrap_or(f64::NAN);
        }
        if out.kernel_s.is_empty() {
            kernel_s.push(calib::time_slice(threads));
        } else {
            kernel_s.extend(&out.kernel_s);
        }
        if traced {
            traced_walls.push(wall);
            batch_spans.extend(tracer.drain());
        } else {
            walls.push(wall);
            items_ms.extend(out.items_ms);
            work.push(out.work as f64);
        }
        k += 1;
    }

    let mut details = w.layer_metrics(&batch_spans, traced_walls.len());
    let work_per_batch = median(&work);
    details.extend([
        Metric::new(
            "failed_frac",
            checks.failed as f64 / checks.attempted.max(1) as f64,
            "ratio",
        ),
        Metric::new("batches", walls.len() as f64, "count"),
        Metric::new("wall_s", median(&walls), "s"),
        Metric::new(
            if workload == "solve-zoo" {
                "solve_ms_p50"
            } else {
                "item_ms_p50"
            },
            median(&items_ms),
            "ms",
        ),
        Metric::new("item_samples", items_ms.len() as f64, "count"),
        Metric::new(work_name(workload), work_per_batch / median(&walls), "1/s"),
        Metric::new("calib.kernel_ms", mean(&kernel_s) * 1e3, "ms"),
        Metric::new("noise.wall_iqr_frac", iqr_frac(&walls), "ratio"),
        Metric::new("noise.kernel_iqr_frac", iqr_frac(&kernel_s), "ratio"),
    ]);
    if !rss_reset {
        eprintln!("note: /proc/self/clear_refs refused; peak RSS covers the whole process");
    }

    let (metrics, spans) = if opts.trace {
        details.extend(w.breakdown());
        tracer.set_enabled(true);
        let probes = probes::run(&tracer, opts.seed, w.pending_events());
        tracer.set_enabled(false);
        let probe_spans = tracer.drain();
        let per_batch = self_time_by_layer(&batch_spans);
        let probe_self = self_time_by_layer(&probe_spans);
        let traced_batches = traced_walls.len() as f64;
        let mut m: Vec<Metric> = LAYERS
            .iter()
            .map(|l| {
                let batch = per_batch.get(l).copied().unwrap_or(0.0) / traced_batches;
                let probe = probe_self.get(l).copied().unwrap_or(0.0);
                Metric::new(format!("{l}.self_s"), batch + probe, "s")
            })
            .collect();
        m.extend(probes?);
        // Traced and untraced batches alternate, so they meet the same
        // host conditions.
        m.push(Metric::new(
            "bench.trace_overhead_frac",
            mean(&traced_walls) / mean(&walls) - 1.0,
            "ratio",
        ));
        batch_spans.extend(probe_spans);
        (m, batch_spans)
    } else {
        // Mean over mean: a co-tenant slows batches and kernel slices for
        // the same share of the run, which a ratio of means cancels and
        // a ratio of medians (each picking one host state) does not.
        let wall_ku = mean(&walls) / mean(&kernel_s);
        let m = vec![
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("wall_ku", wall_ku, "ku"),
            Metric::new("work_per_ku", work_per_batch / wall_ku, "1/ku"),
            Metric::new("peak_rss_mb", peak_rss, "MiB"),
        ];
        (m, Vec::new())
    };
    let bad: Vec<String> = metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("{} = {}", m.name, m.value))
        .collect();
    if !bad.is_empty() {
        checks.item(
            || "metrics".into(),
            &[format!("not finite: {}", bad.join(", "))],
        );
    }
    Ok(Outcome {
        workload,
        metrics,
        details,
        checks,
        spans,
    })
}

/// The printed name of a workload's raw throughput.
fn work_name(workload: &str) -> &'static str {
    match workload {
        "sim-paper" | "sim-large" => "sim_events_per_s",
        "trace-pipe" => "trace_events_per_s",
        _ => "solves_per_s",
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (already reported as failed checks)
/// become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `{"name": {"value": v, "unit": u}, …}`, with `prefix` before each name.
pub fn metrics_json(metrics: &[Metric], prefix: &str) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&format!("{prefix}{}", m.name)),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
