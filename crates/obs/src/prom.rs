//! Prometheus text-format exposition of a [`MetricsReport`].
//!
//! Renders the standard exposition format (version 0.0.4): `# HELP` /
//! `# TYPE` headers, `_total`-suffixed counters, plain gauges, and
//! sketch quantiles as summaries. Metric names are sanitized
//! (`.` and any other invalid character → `_`), values use Rust's
//! shortest-roundtrip float formatting with non-finite values spelled
//! `+Inf`/`-Inf`/`NaN` as the format requires.

use crate::registry::MetricsReport;
use std::fmt::Write as _;

/// Turn a registry metric name into a valid Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, with every invalid byte mapped to `_`
/// and a `_` prefix when the name would start with a digit.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, ch) in name.chars().enumerate() {
        let ok =
            ch.is_ascii_alphabetic() || ch == '_' || ch == ':' || (i > 0 && ch.is_ascii_digit());
        if i == 0 && ch.is_ascii_digit() {
            out.push('_');
            out.push(ch);
        } else if ok {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Format a sample value per the exposition format.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{v}")
    }
}

/// Render a snapshot as Prometheus text format.
///
/// `prefix` is prepended (with a `_` separator) to every metric name;
/// pass `""` for none. Every emitted line is newline-terminated, as
/// required by scrapers (an empty report renders as the empty string).
pub fn prometheus_text(report: &MetricsReport, prefix: &str) -> String {
    let mut out = String::new();
    let pre = if prefix.is_empty() {
        String::new()
    } else {
        format!("{}_", sanitize_name(prefix))
    };

    for (name, value) in &report.counters {
        let m = format!("{pre}{}_total", sanitize_name(name));
        let _ = writeln!(
            out,
            "# HELP {m} Counter {name:?} from the loadsteal registry."
        );
        let _ = writeln!(out, "# TYPE {m} counter");
        let _ = writeln!(out, "{m} {value}");
    }

    for (name, value) in &report.gauges {
        let m = format!("{pre}{}", sanitize_name(name));
        let _ = writeln!(
            out,
            "# HELP {m} Gauge {name:?} from the loadsteal registry."
        );
        let _ = writeln!(out, "# TYPE {m} gauge");
        let _ = writeln!(out, "{m} {}", fmt_value(*value));
    }

    for (name, d) in &report.sketches {
        let m = format!("{pre}{}", sanitize_name(name));
        let _ = writeln!(
            out,
            "# HELP {m} Quantile sketch {name:?} (mergeable digest)."
        );
        let _ = writeln!(out, "# TYPE {m} summary");
        for q in [0.5, 0.9, 0.95, 0.99] {
            if let Some(v) = d.quantile(q) {
                let _ = writeln!(out, "{m}{{quantile=\"{q}\"}} {}", fmt_value(v));
            }
        }
        let _ = writeln!(out, "{m}_sum {}", fmt_value(d.sum()));
        let _ = writeln!(out, "{m}_count {}", d.count());
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    /// A line-level validity check mirroring what a scraper enforces:
    /// comments start with `# `, samples are `name{labels} value`.
    fn assert_valid_exposition(text: &str) {
        assert!(text.ends_with('\n'), "must end with a newline");
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# ") {
                assert!(
                    rest.starts_with("HELP ") || rest.starts_with("TYPE "),
                    "bad comment: {line}"
                );
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').expect("sample needs a value");
            let name_end = name_part.find('{').unwrap_or(name_part.len());
            let name = &name_part[..name_end];
            assert!(
                name.chars()
                    .enumerate()
                    .all(|(i, c)| c.is_ascii_alphabetic()
                        || c == '_'
                        || c == ':'
                        || (i > 0 && c.is_ascii_digit())),
                "bad metric name in: {line}"
            );
            assert!(
                value.parse::<f64>().is_ok() || ["+Inf", "-Inf", "NaN"].contains(&value),
                "bad value in: {line}"
            );
        }
    }

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize_name("sim.arrivals"), "sim_arrivals");
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn full_report_renders_validly() {
        let reg = Registry::new();
        reg.counter("sim.arrivals").add(42);
        reg.gauge("sim.rate").set(0.75);
        let s = reg.sketch("sim.sojourn");
        for i in 1..=100 {
            s.record(i as f64 / 10.0);
        }
        let text = prometheus_text(&reg.snapshot(), "loadsteal");
        assert_valid_exposition(&text);
        assert!(text.contains("loadsteal_sim_arrivals_total 42"), "{text}");
        assert!(text.contains("# TYPE loadsteal_sim_rate gauge"), "{text}");
        assert!(text.contains("loadsteal_sim_rate 0.75"), "{text}");
        assert!(
            text.contains("loadsteal_sim_sojourn{quantile=\"0.99\"}"),
            "{text}"
        );
        assert!(text.contains("loadsteal_sim_sojourn_count 100"), "{text}");
    }

    #[test]
    fn empty_report_is_empty_but_valid() {
        let text = prometheus_text(&MetricsReport::default(), "x");
        assert!(text.is_empty());
    }

    #[test]
    fn non_finite_gauges_render_prometheus_spellings() {
        let reg = Registry::new();
        reg.gauge("g").set(f64::INFINITY);
        let text = prometheus_text(&reg.snapshot(), "");
        assert!(text.contains("g +Inf"), "{text}");
        assert_valid_exposition(&text);
    }
}
