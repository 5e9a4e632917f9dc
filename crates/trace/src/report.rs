//! Rendering a reconstructed [`Timeline`] as a human-readable
//! sim-vs-mean-field comparison.
//!
//! Predictions are inputs: the caller (normally the CLI, which has
//! `loadsteal-core` at hand) evaluates the paper's fixed point and
//! passes a [`MeanFieldPrediction`]; this module only formats. Without
//! a prediction the report degrades to a measurement summary.

use crate::timeline::Timeline;

/// Mean-field quantities to compare the trace against.
#[derive(Debug, Clone, Copy)]
pub struct MeanFieldPrediction {
    /// Arrival rate λ the prediction was computed at.
    pub lambda: f64,
    /// The paper's π₂ fixed point (fraction of processors with ≥ 2
    /// tasks under work stealing).
    pub pi2: f64,
    /// Predicted asymptotic tail ratio `λ/(1+λ−π₂)`.
    pub tail_ratio: f64,
    /// Predicted mean sojourn time (the paper's "time in system").
    pub mean_sojourn: f64,
}

impl MeanFieldPrediction {
    /// Assemble a prediction from λ and π₂, deriving the tail ratio
    /// `λ/(1+λ−π₂)` internally.
    pub fn new(lambda: f64, pi2: f64, mean_sojourn: f64) -> Self {
        Self {
            lambda,
            pi2,
            tail_ratio: lambda / (1.0 + lambda - pi2),
            mean_sojourn,
        }
    }
}

/// Format one comparison row: measured, predicted, relative error.
fn row(out: &mut String, label: &str, sim: Option<f64>, pred: Option<f64>) {
    let fmt = |v: Option<f64>| match v {
        Some(v) if v.is_finite() => format!("{v:>12.4}"),
        _ => format!("{:>12}", "—"),
    };
    let err = match (sim, pred) {
        (Some(s), Some(p)) if p != 0.0 && s.is_finite() && p.is_finite() => {
            format!("{:>+9.1}%", 100.0 * (s - p) / p)
        }
        _ => format!("{:>10}", "—"),
    };
    out.push_str(&format!("  {label:<26}{}{}{err}\n", fmt(sim), fmt(pred)));
}

/// Render the sim-vs-mean-field report.
pub fn render_report(tl: &Timeline, pred: Option<&MeanFieldPrediction>) -> String {
    let mut out = String::new();

    out.push_str("trace summary\n");
    out.push_str(&format!("  processors          {:>8}\n", tl.n_procs));
    out.push_str(&format!(
        "  span                [{:.1}, {:.1}]  (warmup {:.1}, measured {:.1})\n",
        tl.start,
        tl.end,
        tl.warmup,
        tl.span()
    ));
    out.push_str(&format!(
        "  events              {:>8} arrivals, {} completions, {} steal attempts, {} migrations\n",
        tl.counts.arrivals, tl.counts.completions, tl.counts.steal_attempts, tl.counts.migrations
    ));
    if tl.replicates > 0 {
        out.push_str(&format!("  replicates          {:>8}\n", tl.replicates));
    }
    if tl.replicates > 1 {
        out.push_str(&format!(
            "  WARNING: trace holds {} runs — the statistics below pool them on one clock, so rates and occupancies are not any single run's; record with --runs 1\n",
            tl.replicates
        ));
    }
    if tl.depth_underflows > 0 {
        out.push_str(&format!(
            "  WARNING: {} queue-depth underflows — trace is truncated or interleaves multiple runs; per-processor statistics are unreliable\n",
            tl.depth_underflows
        ));
    }
    if tl.sourceless_migrations > 0 {
        out.push_str(&format!(
            "  WARNING: {} migrations carry no donor (`src`) — trace predates the two-endpoint format; queue depths and tail fractions are unreliable\n",
            tl.sourceless_migrations
        ));
    }
    if let Some(t) = tl.steady_at {
        out.push_str(&format!("  steady state from   {t:>8.1}\n"));
        let span = tl.end - tl.start;
        if span > 0.0 {
            let frac = ((t - tl.start) / span).clamp(0.0, 1.0);
            out.push_str(&format!(
                "  relaxation          {:>8.1}  ({:.0}% of run in transient)\n",
                t - tl.start,
                frac * 100.0
            ));
        }
    }

    if tl.n_procs > 0 {
        out.push('\n');
        match pred {
            Some(p) => out.push_str(&format!(
                "sim vs mean-field  (λ = {:.4}, π₂ = {:.4})\n",
                p.lambda, p.pi2
            )),
            None => out.push_str("measurements  (no mean-field prediction supplied)\n"),
        }
        out.push_str(&format!(
            "  {:<26}{:>12}{:>12}{:>10}\n",
            "quantity", "simulated", "predicted", "rel. err"
        ));
        row(
            &mut out,
            "arrival rate λ",
            Some(tl.arrival_rate()),
            pred.map(|p| p.lambda),
        );
        row(
            &mut out,
            "mean sojourn time",
            tl.mean_sojourn_little(),
            pred.map(|p| p.mean_sojourn),
        );
        row(
            &mut out,
            "tail ratio s(i+1)/s(i)",
            tl.tail_ratio(),
            pred.map(|p| p.tail_ratio),
        );
        row(
            &mut out,
            "utilization s(1)",
            tl.tails.get(1).copied(),
            pred.map(|p| p.lambda),
        );
        row(
            &mut out,
            "π₂ (fraction ≥ 2 tasks)",
            tl.tails.get(2).copied(),
            pred.map(|p| p.pi2),
        );
        row(
            &mut out,
            "steal success rate",
            (tl.measured.steal_attempts > 0).then(|| tl.steal_success_rate()),
            None,
        );
        row(
            &mut out,
            "throughput / proc",
            Some(tl.throughput()),
            pred.map(|p| p.lambda),
        );
    }

    if tl.n_procs > 0 && (tl.counts.steal_attempts > 0 || tl.counts.migrations > 0) {
        out.push('\n');
        out.push_str("steal / migration breakdown\n");
        out.push_str(&format!(
            "  attempts            {:>8}  ({} successful, {:.1}% hit rate)\n",
            tl.counts.steal_attempts,
            tl.counts.steal_successes,
            if tl.counts.steal_attempts > 0 {
                100.0 * tl.counts.steal_successes as f64 / tl.counts.steal_attempts as f64
            } else {
                0.0
            }
        ));
        out.push_str(&format!(
            "  migrations          {:>8}  ({} tasks moved, {:.3} per migration)\n",
            tl.counts.migrations,
            tl.counts.tasks_migrated,
            if tl.counts.migrations > 0 {
                tl.counts.tasks_migrated as f64 / tl.counts.migrations as f64
            } else {
                0.0
            }
        ));
        // Per-processor spread: min / mean / max over the fleet, so a
        // 128-proc trace stays a 4-line section rather than a table.
        let spread = |get: fn(&crate::timeline::ProcTimeline) -> u64| {
            let vals: Vec<u64> = tl.per_proc.iter().map(get).collect();
            let min = vals.iter().min().copied().unwrap_or(0);
            let max = vals.iter().max().copied().unwrap_or(0);
            let mean = vals.iter().sum::<u64>() as f64 / vals.len().max(1) as f64;
            format!("{min:>6} min {mean:>9.2} mean {max:>6} max")
        };
        out.push_str(&format!(
            "  attempts / proc     {}\n",
            spread(|p| p.steal_attempts)
        ));
        out.push_str(&format!(
            "  successes / proc    {}\n",
            spread(|p| p.steal_successes)
        ));
        out.push_str(&format!(
            "  tasks in / proc     {}\n",
            spread(|p| p.tasks_in)
        ));
        out.push_str(&format!(
            "  tasks out / proc    {}\n",
            spread(|p| p.tasks_out)
        ));
    }

    if tl.solver.steps_total() > 0 {
        out.push('\n');
        out.push_str("solver\n");
        out.push_str(&format!(
            "  steps               {} accepted, {} rejected\n",
            tl.solver.steps_accepted, tl.solver.steps_rejected
        ));
        if let Some(c) = tl.solver.converged {
            out.push_str(&format!(
                "  converged           {c}{}\n",
                tl.solver
                    .final_residual
                    .map(|r| format!("  (residual {r:.3e})"))
                    .unwrap_or_default()
            ));
        }
        if let Some((t, r)) = tl.solver.residuals.last() {
            out.push_str(&format!("  last residual       {r:.3e} at t = {t:.1}\n"));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::TimelineConfig;
    use loadsteal_obs::{Event, SimEventKind};

    fn small_timeline() -> Timeline {
        let mut events = Vec::new();
        for k in 0..20 {
            let t = k as f64;
            events.push(Event::Sim {
                kind: SimEventKind::Arrival,
                t,
                proc: (k % 4) as u32,
                src: None,
                count: 1,
            });
            events.push(Event::Sim {
                kind: SimEventKind::Completion,
                t: t + 0.5,
                proc: (k % 4) as u32,
                src: None,
                count: 1,
            });
        }
        events.push(Event::Sim {
            kind: SimEventKind::StealAttempt,
            t: 10.0,
            proc: 1,
            src: None,
            count: 1,
        });
        Timeline::build(&events, &TimelineConfig::default())
    }

    #[test]
    fn prediction_derives_tail_ratio() {
        let p = MeanFieldPrediction::new(0.5, 0.1, 1.63);
        assert!((p.tail_ratio - 0.5 / 1.4).abs() < 1e-12);
    }

    #[test]
    fn report_with_prediction_has_comparison_rows() {
        let tl = small_timeline();
        let p = MeanFieldPrediction::new(0.25, 0.02, 1.2);
        let r = render_report(&tl, Some(&p));
        assert!(r.contains("sim vs mean-field"), "{r}");
        assert!(r.contains("mean sojourn time"), "{r}");
        assert!(r.contains("tail ratio"), "{r}");
        assert!(r.contains("rel. err"), "{r}");
        assert!(r.contains("processors"), "{r}");
        // Every comparison row carries a relative error or a dash.
        assert!(r.contains('%') || r.contains('—'), "{r}");
    }

    #[test]
    fn report_includes_steal_breakdown_when_steals_happened() {
        let tl = small_timeline();
        let r = render_report(&tl, None);
        assert!(r.contains("steal / migration breakdown"), "{r}");
        assert!(r.contains("attempts / proc"), "{r}");
        assert!(r.contains("tasks out / proc"), "{r}");
    }

    #[test]
    fn report_omits_steal_breakdown_for_steal_free_traces() {
        let events = [Event::Sim {
            kind: SimEventKind::Arrival,
            t: 0.0,
            proc: 0,
            src: None,
            count: 1,
        }];
        let tl = Timeline::build(&events, &TimelineConfig::default());
        let r = render_report(&tl, None);
        assert!(!r.contains("steal / migration breakdown"), "{r}");
    }

    #[test]
    fn report_without_prediction_degrades_gracefully() {
        let tl = small_timeline();
        let r = render_report(&tl, None);
        assert!(r.contains("no mean-field prediction"), "{r}");
        assert!(!r.contains("sim vs mean-field"), "{r}");
    }

    #[test]
    fn empty_timeline_reports_summary_only() {
        let tl = Timeline::build(&[], &TimelineConfig::default());
        let r = render_report(&tl, None);
        assert!(r.contains("trace summary"), "{r}");
        assert!(!r.contains("quantity"), "{r}");
    }

    #[test]
    fn underflow_warning_appears() {
        let events = [Event::Sim {
            kind: SimEventKind::Completion,
            t: 1.0,
            proc: 0,
            src: None,
            count: 1,
        }];
        let tl = Timeline::build(&events, &TimelineConfig::default());
        let r = render_report(&tl, None);
        assert!(r.contains("WARNING"), "{r}");
    }

    #[test]
    fn multi_run_warning_appears() {
        let done = |seed| Event::ReplicateDone {
            seed,
            wall_ms: 1.0,
            events: 1,
            events_per_sec: 1.0,
        };
        let one = Timeline::build(&[done(1)], &TimelineConfig::default());
        assert!(!render_report(&one, None).contains("WARNING"));
        let two = Timeline::build(&[done(1), done(2)], &TimelineConfig::default());
        let r = render_report(&two, None);
        assert!(r.contains("WARNING") && r.contains("--runs 1"), "{r}");
    }
}
