//! `loadsteal top` — live terminal dashboard over the work-stealing
//! executor.
//!
//! Builds the `stealbench` workload untraced, drives it on a background
//! thread, and polls
//! [`Pool::worker_stats`](loadsteal_exec::Pool::worker_stats) — the
//! lock-free per-worker counter slots — every `--interval` ms.
//!
//! Output is plain ANSI: each frame clears the screen and redraws;
//! `--once` prints a single frame with no escape codes (the CI smoke
//! path and the pipe-friendly mode).

use std::sync::Arc;
use std::time::{Duration, Instant};

use loadsteal_exec::stealbench::StealBench;
use loadsteal_exec::WorkerStats;

use crate::args::Args;
use crate::commands::{stealbench_config, STEALBENCH_FLAGS};
use crate::stdout::{self, out, outln};

/// `loadsteal top` entry point: run the bench untraced and poll its
/// pool directly.
pub fn top(a: &Args) -> Result<(), String> {
    a.ensure_known(&[STEALBENCH_FLAGS, &["interval"]].concat())?;
    let once = a.switch("once");
    let interval = Duration::from_millis(a.get_or("interval", 500u64)?.max(50));
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
    // Activity (arrivals + completions + steal probes) at the previous
    // frame; the first frame averages over the whole run so far.
    let mut prev = (bench.pool().epoch(), 0);
    loop {
        let now = Instant::now();
        let per = bench.pool().worker_stats();
        let submitted = bench.submitted_so_far();
        let worker: u64 = per.iter().map(|w| w.executed + w.steal_attempts).sum();
        let act = submitted + worker;
        let events_per_sec =
            (act - prev.1) as f64 / now.duration_since(prev.0).as_secs_f64().max(1e-9);
        let elapsed = now.duration_since(bench.pool().epoch()).as_secs_f64();
        let model_time = (elapsed / cfg.tau).min(cfg.horizon);
        let mut totals = format!("events/sec {events_per_sec:.0}");
        if model_time > 0.0 {
            let lambda_est = submitted as f64 / (model_time * cfg.workers as f64);
            totals.push_str(&format!("  ·  λ̂ = {lambda_est:.3} per worker"));
        }
        let completed: u64 = per.iter().map(|w| w.executed).sum();
        totals.push_str(&format!(
            "  ·  submitted {submitted}  ·  completed {completed}"
        ));
        let header = format!(
            "loadsteal top — {} workers, λ = {} target, t = {:.1}/{} model units",
            cfg.workers, cfg.lambda, model_time, cfg.horizon
        );
        emit_frame(&header, &totals, &per, once);
        if once {
            // Abandon the rest of the run: the frame was the product.
            return Ok(());
        }
        if driver.is_finished() {
            break;
        }
        prev = (now, act);
        std::thread::sleep(interval);
    }
    driver
        .join()
        .map_err(|_| "stealbench driver panicked".to_string())?;
    if let Ok(bench) = Arc::try_unwrap(bench) {
        let outcome = bench.finish();
        outln!(
            "done: {} submitted, {} completed, steal hit rate {:.4}",
            outcome.submitted,
            outcome.completed,
            outcome.steal_success_rate()
        );
    }
    Ok(())
}

/// Render one frame to stdout: the header, the totals line, then one
/// table row per worker. Live mode clears the screen first (plain ANSI,
/// no cursor tricks); `--once` prints the bare table.
fn emit_frame(header: &str, totals: &str, per: &[WorkerStats], once: bool) {
    let mut frame = String::new();
    if !once {
        // Clear screen + home — the whole "TUI".
        frame.push_str("\x1b[2J\x1b[H");
    }
    frame.push_str(&format!("{header}\n{totals}\n"));
    frame.push_str(&format!(
        "{:>6}  {:>5}  {:>5}  {:>8}  {:>8}  {:>6}  {:>5}  {}\n",
        "WORKER", "DEQUE", "INBOX", "PROBES", "STEALS", "HIT%", "PARKS", "STATE"
    ));
    for (i, w) in per.iter().enumerate() {
        let hit = match w.steal_attempts {
            0 => "-".to_string(),
            n => format!("{:.1}", 100.0 * w.steal_successes as f64 / n as f64),
        };
        let state = if w.busy { "busy" } else { "idle" };
        frame.push_str(&format!(
            "{i:>6}  {:>5}  {:>5}  {:>8}  {:>8}  {hit:>6}  {:>5}  {state}\n",
            w.queue_depth, w.inbox_depth, w.steal_attempts, w.steal_successes, w.parks
        ));
    }
    out!("{frame}");
    stdout::flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_render_without_panicking() {
        let per = [WorkerStats {
            queue_depth: 1,
            steal_attempts: 10,
            steal_successes: 3,
            parks: 4,
            busy: true,
            ..WorkerStats::default()
        }];
        emit_frame("test frame", "events/sec 123", &per, true);
    }
}
