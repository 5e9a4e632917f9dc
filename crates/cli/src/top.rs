//! `loadsteal top` — live terminal dashboard over the work-stealing
//! executor.
//!
//! Two sources, one table:
//!
//! * **In-process** (default): build the `stealbench` workload
//!   untraced, drive it on a background thread, and poll
//!   [`Pool::worker_stats`](loadsteal_exec::Pool::worker_stats) — the
//!   lock-free per-worker counter slots — every `--interval` ms.
//! * **Scrape** (`--url http://host:port/metrics`): poll a running
//!   `loadsteal serve --stealbench` endpoint and rebuild the same rows
//!   from its `loadsteal_exec_worker_<i>_*` Prometheus gauges (plus
//!   any `loadsteal_transient_residual_*` drift gauges a simulator
//!   serve exposes).
//!
//! Output is plain ANSI: each frame clears the screen and redraws;
//! `--once` prints a single frame with no escape codes (the CI smoke
//! path and the pipe-friendly mode).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use loadsteal_exec::stealbench::StealBench;
use loadsteal_exec::WorkerStats;

use crate::args::Args;
use crate::commands::{stealbench_config, STEALBENCH_FLAGS};

/// One dashboard row, source-agnostic.
struct Row {
    deque: u64,
    inbox: u64,
    attempts: u64,
    steals: u64,
    parks: u64,
    /// `None` when the source does not report liveness (scrape mode
    /// exposes busy only; parked is inferred as "not busy").
    busy: Option<bool>,
}

/// One rendered frame's scalars.
struct Totals {
    submitted: Option<u64>,
    completed: Option<u64>,
    events_per_sec: Option<f64>,
    lambda_est: Option<f64>,
    /// `transient.residual_*` gauges, verbatim (name, value).
    residuals: Vec<(String, f64)>,
}

/// `loadsteal top` entry point.
pub fn top(a: &Args) -> Result<(), String> {
    a.ensure_known(&[STEALBENCH_FLAGS, &["interval", "url"]].concat())?;
    let once = a.switch("once");
    let interval = Duration::from_millis(a.get_or("interval", 500u64)?.max(50));
    match a.raw("url") {
        Some(url) => top_scrape(url, interval, once),
        None => top_in_process(a, interval, once),
    }
}

/// In-process mode: run the bench untraced, poll its pool directly.
fn top_in_process(a: &Args, interval: Duration, once: bool) -> Result<(), String> {
    let cfg = stealbench_config(a)?;
    let bench = Arc::new(StealBench::new_untraced(&cfg)?);
    let driver = {
        let bench = Arc::clone(&bench);
        std::thread::spawn(move || bench.drive())
    };
    if once {
        // Sample mid-run so the single frame shows a working pool, not
        // the quiescent start: wait out ~40% of the horizon, capped so
        // CI smoke stays fast.
        let wall = Duration::from_secs_f64(cfg.horizon * cfg.tau);
        std::thread::sleep((wall.mul_f64(0.4)).min(Duration::from_secs(1)));
    }
    let mut prev: Option<(Instant, Vec<WorkerStats>, u64)> = None;
    loop {
        let now = Instant::now();
        let per = bench.pool().worker_stats();
        let submitted = bench.submitted_so_far();
        let elapsed = bench.pool().epoch().elapsed().as_secs_f64();
        let (events_per_sec, window_secs) = match &prev {
            Some((t0, per0, sub0)) => {
                let dt = now.duration_since(*t0).as_secs_f64().max(1e-9);
                let d = activity(&per, submitted) - activity(per0, *sub0);
                (d / dt, dt)
            }
            // First frame: average over the whole run so far.
            None => (activity(&per, submitted) / elapsed.max(1e-9), elapsed),
        };
        let _ = window_secs;
        let model_time = (elapsed / cfg.tau).min(cfg.horizon);
        let lambda_est = if model_time > 0.0 {
            Some(submitted as f64 / (model_time * cfg.workers as f64))
        } else {
            None
        };
        let completed: u64 = per.iter().map(|w| w.executed).sum();
        let totals = Totals {
            submitted: Some(submitted),
            completed: Some(completed),
            events_per_sec: Some(events_per_sec),
            lambda_est,
            residuals: Vec::new(),
        };
        let rows: Vec<Row> = per
            .iter()
            .map(|w| Row {
                deque: w.queue_depth as u64,
                inbox: w.inbox_depth as u64,
                attempts: w.steal_attempts,
                steals: w.steal_successes,
                parks: w.parks,
                busy: Some(w.busy),
            })
            .collect();
        let header = format!(
            "loadsteal top — {} workers, λ = {} target, t = {:.1}/{} model units",
            cfg.workers, cfg.lambda, model_time, cfg.horizon
        );
        emit_frame(&header, &rows, &totals, once);
        if once {
            // Abandon the rest of the run: the frame was the product.
            return Ok(());
        }
        if driver.is_finished() {
            break;
        }
        prev = Some((now, per, submitted));
        std::thread::sleep(interval);
    }
    driver
        .join()
        .map_err(|_| "stealbench driver panicked".to_string())?;
    if let Ok(bench) = Arc::try_unwrap(bench) {
        let outcome = bench.finish();
        println!(
            "done: {} submitted, {} completed, steal hit rate {:.4}",
            outcome.submitted,
            outcome.completed,
            outcome.steal_success_rate()
        );
    }
    Ok(())
}

/// Sum of externally visible activity counters — the events/sec
/// numerator (arrivals + completions + steal probes).
fn activity(per: &[WorkerStats], submitted: u64) -> f64 {
    let worker: u64 = per.iter().map(|w| w.executed + w.steal_attempts).sum();
    (worker + submitted) as f64
}

/// Scrape mode: poll a Prometheus endpoint and rebuild the table from
/// `loadsteal_exec_worker_<i>_*` samples.
fn top_scrape(url: &str, interval: Duration, once: bool) -> Result<(), String> {
    let mut prev: Option<(Instant, f64)> = None;
    loop {
        let body = http_get(url)?;
        let now = Instant::now();
        let samples = parse_prometheus(&body);
        let rows = scrape_rows(&samples);
        if rows.is_empty() && !samples.keys().any(|k| k.starts_with("loadsteal_")) {
            return Err(format!("{url}: no loadsteal_* samples in scrape"));
        }
        let submitted = samples.get("loadsteal_exec_submitted").map(|v| *v as u64);
        let completed = samples.get("loadsteal_exec_completed").map(|v| *v as u64);
        let act: f64 = rows
            .iter()
            .map(|r| (r.attempts + r.steals) as f64)
            .sum::<f64>()
            + completed.unwrap_or(0) as f64
            + submitted.unwrap_or(0) as f64;
        let events_per_sec = prev.map(|(t0, act0)| {
            (act - act0).max(0.0) / now.duration_since(t0).as_secs_f64().max(1e-9)
        });
        let residuals: Vec<(String, f64)> = samples
            .iter()
            .filter(|(k, _)| k.starts_with("loadsteal_transient_residual"))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let totals = Totals {
            submitted,
            completed,
            events_per_sec,
            lambda_est: None,
            residuals,
        };
        let header = format!("loadsteal top — scraping {url} ({} workers)", rows.len());
        emit_frame(&header, &rows, &totals, once);
        if once {
            return Ok(());
        }
        prev = Some((now, act));
        std::thread::sleep(interval);
    }
}

/// Rebuild per-worker rows from flat Prometheus samples; stops at the
/// first missing worker index, so rows come back dense and ordered.
fn scrape_rows(samples: &BTreeMap<String, f64>) -> Vec<Row> {
    let g = |i: usize, field: &str| -> Option<f64> {
        samples
            .get(&format!("loadsteal_exec_worker_{i}_{field}"))
            .copied()
    };
    let mut rows = Vec::new();
    for i in 0.. {
        let Some(deque) = g(i, "deque_depth") else {
            break;
        };
        rows.push(Row {
            deque: deque as u64,
            inbox: g(i, "inbox_depth").unwrap_or(0.0) as u64,
            attempts: g(i, "steal_attempts").unwrap_or(0.0) as u64,
            steals: g(i, "steals").unwrap_or(0.0) as u64,
            parks: g(i, "parks").unwrap_or(0.0) as u64,
            busy: g(i, "busy").map(|v| v != 0.0),
        });
    }
    rows
}

/// Render one frame to stdout. Live mode clears the screen first
/// (plain ANSI, no cursor tricks); `--once` prints the bare table.
fn emit_frame(header: &str, rows: &[Row], totals: &Totals, once: bool) {
    use std::io::Write as _;
    let mut out = String::new();
    if !once {
        // Clear screen + home — the whole "TUI".
        out.push_str("\x1b[2J\x1b[H");
    }
    out.push_str(header);
    out.push('\n');
    let mut line = String::new();
    if let Some(eps) = totals.events_per_sec {
        line.push_str(&format!("events/sec {eps:.0}"));
    }
    if let Some(l) = totals.lambda_est {
        line.push_str(&format!("  ·  λ̂ = {l:.3} per worker"));
    }
    if let Some(s) = totals.submitted {
        line.push_str(&format!("  ·  submitted {s}"));
    }
    if let Some(c) = totals.completed {
        line.push_str(&format!("  ·  completed {c}"));
    }
    if !line.is_empty() {
        out.push_str(line.trim_start_matches(" ·"));
        out.push('\n');
    }
    out.push_str(&format!(
        "{:>6}  {:>5}  {:>5}  {:>8}  {:>8}  {:>6}  {:>5}  {}\n",
        "WORKER", "DEQUE", "INBOX", "PROBES", "STEALS", "HIT%", "PARKS", "STATE"
    ));
    for (i, r) in rows.iter().enumerate() {
        let hit = if r.attempts > 0 {
            format!("{:.1}", 100.0 * r.steals as f64 / r.attempts as f64)
        } else {
            "-".to_string()
        };
        let state = match r.busy {
            Some(true) => "busy",
            Some(false) => "idle",
            None => "?",
        };
        out.push_str(&format!(
            "{i:>6}  {:>5}  {:>5}  {:>8}  {:>8}  {hit:>6}  {:>5}  {state}\n",
            r.deque, r.inbox, r.attempts, r.steals, r.parks
        ));
    }
    for (name, v) in &totals.residuals {
        out.push_str(&format!("{name} = {v:.6}\n"));
    }
    let mut so = std::io::stdout();
    let _ = so.write_all(out.as_bytes());
    let _ = so.flush();
}

/// Minimal HTTP GET over a plain `TcpStream` (no TLS, no redirects) —
/// enough to scrape a `loadsteal serve` endpoint.
fn http_get(url: &str) -> Result<String, String> {
    use std::io::{Read as _, Write as _};

    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("--url: only http:// is supported, got {url:?}"))?;
    let (hostport, path) = match rest.split_once('/') {
        Some((h, p)) => (h, format!("/{p}")),
        None => (rest, "/metrics".to_string()),
    };
    let mut stream = std::net::TcpStream::connect(hostport)
        .map_err(|e| format!("--url: cannot connect to {hostport}: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {hostport}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| format!("--url: request failed: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("--url: read failed: {e}"))?;
    match raw.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(format!("--url: malformed HTTP response from {hostport}")),
    }
}

/// Parse Prometheus text exposition into `name → value`, ignoring
/// comments, labels, and anything that does not parse as a float.
fn parse_prometheus(body: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        // Strip a label set if present (none of ours carry labels, but
        // stay tolerant).
        let name = name.split('{').next().unwrap_or(name);
        if let Ok(v) = value.trim().parse::<f64>() {
            out.insert(name.to_string(), v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_parser_reads_plain_samples() {
        let body = "\
# HELP loadsteal_exec_worker_0_steals whatever
# TYPE loadsteal_exec_worker_0_steals gauge
loadsteal_exec_worker_0_steals 7
loadsteal_exec_worker_0_deque_depth 2
loadsteal_exec_worker_1_deque_depth 0
loadsteal_up{instance=\"x\"} 1
garbage line without value
";
        let s = parse_prometheus(body);
        assert_eq!(s.get("loadsteal_exec_worker_0_steals"), Some(&7.0));
        assert_eq!(s.get("loadsteal_up"), Some(&1.0));
        let rows = scrape_rows(&s);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].steals, 7);
        assert_eq!(rows[0].deque, 2);
        assert_eq!(rows[1].deque, 0);
    }

    #[test]
    fn scrape_rows_stop_at_first_gap() {
        let mut s = BTreeMap::new();
        s.insert("loadsteal_exec_worker_0_deque_depth".to_string(), 1.0);
        s.insert("loadsteal_exec_worker_2_deque_depth".to_string(), 1.0);
        assert_eq!(scrape_rows(&s).len(), 1);
    }

    #[test]
    fn frames_render_without_panicking() {
        let rows = vec![Row {
            deque: 1,
            inbox: 0,
            attempts: 10,
            steals: 3,
            parks: 4,
            busy: Some(true),
        }];
        let totals = Totals {
            submitted: Some(11),
            completed: Some(9),
            events_per_sec: Some(123.4),
            lambda_est: Some(0.71),
            residuals: vec![("loadsteal_transient_residual_sup".into(), 0.01)],
        };
        emit_frame("test frame", &rows, &totals, true);
    }
}
