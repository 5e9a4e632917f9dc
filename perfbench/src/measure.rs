//! Metric values, order statistics, peak memory and the provenance
//! every result carries.

use std::process::Command;

/// One reported number with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Median of `v` (the mean of the middle pair for even lengths).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least once.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// Arithmetic mean of `v`.
///
/// # Panics
/// Panics on an empty slice: every caller measures at least once.
pub fn mean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "mean of no samples");
    v.iter().sum::<f64>() / v.len() as f64
}

/// Interquartile range over median, the within-run spread of `v`
/// (0 for fewer than four samples).
pub fn iqr_frac(v: &[f64]) -> f64 {
    if v.len() < 4 {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let q = |p: f64| {
        let x = p * (s.len() - 1) as f64;
        let (i, f) = (x.floor() as usize, x.fract());
        s[i] + f * (s[(i + 1).min(s.len() - 1)] - s[i])
    };
    (q(0.75) - q(0.25)) / median(v)
}

/// Reset the kernel's peak-RSS mark for this process, so the next
/// [`peak_rss_mib`] covers only what runs after. Returns whether the
/// kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Where a result came from: machine, toolchain, source and seed.
pub fn provenance(seed: u64) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu),
        ("l2_cache", cache_size(2)),
        ("l3_cache", cache_size(3)),
        ("rustc", command_line("rustc", &["--version"])),
        ("git_commit", command_line("git", &["rev-parse", "HEAD"])),
        ("seed", seed.to_string()),
    ]
}

/// Size of the first unified or data cache at `level` of CPU 0.
fn cache_size(level: u32) -> String {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    for i in 0..8 {
        let read = |f: &str| std::fs::read_to_string(format!("{base}/index{i}/{f}")).ok();
        let (Some(l), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let kind = read("type").unwrap_or_default();
        if l.trim() == level.to_string() && kind.trim() != "Instruction" {
            return size.trim().to_owned();
        }
    }
    "unknown".into()
}

/// First line of a command's standard output, or `unknown` when it
/// cannot run (no git checkout, no toolchain on the path).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()?
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(iqr_frac(&[1.0, 1.0, 1.0, 1.0]), 0.0);
        assert!(iqr_frac(&[1.0, 2.0, 3.0, 4.0, 5.0]) > 0.0);
    }
}
