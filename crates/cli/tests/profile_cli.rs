//! End-to-end tests of the span-profiler surface: `--profile <out>`
//! Chrome trace-event / folded-stack exports (valid on every
//! subcommand) and the `loadsteal profile <command>` self-time report.

use std::path::PathBuf;
use std::process::{Command, Output};

use loadsteal_obs::json::{self, JsonValue};

fn loadsteal_in(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_loadsteal"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn loadsteal binary")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "loadsteal-profile-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn profile_flag_exports_a_valid_chrome_trace() {
    let dir = scratch_dir("chrome");
    let out = loadsteal_in(
        &dir,
        &[
            "simulate",
            "--model",
            "basic",
            "--n",
            "32",
            "--horizon",
            "200",
            "--runs",
            "1",
            "--profile",
            "p.json",
            "--quiet",
        ],
    );
    assert!(
        out.status.success(),
        "simulate --profile succeeds: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(dir.join("p.json")).expect("profile written");
    let parsed = json::parse(&body).expect("profile is valid JSON");
    let JsonValue::Arr(events) = parsed else {
        panic!("Chrome trace is a JSON array, got {body:.120}");
    };
    assert!(!events.is_empty(), "trace has span instances");
    let mut names = Vec::new();
    for ev in &events {
        assert_eq!(
            ev.get("ph").and_then(|v| v.as_str()),
            Some("X"),
            "complete events"
        );
        assert_eq!(ev.get("cat").and_then(|v| v.as_str()), Some("loadsteal"));
        assert!(ev.get("ts").and_then(|v| v.as_f64()).is_some(), "ts");
        assert!(ev.get("dur").and_then(|v| v.as_f64()).is_some(), "dur");
        assert!(ev.get("pid").and_then(|v| v.as_u64()).is_some(), "pid");
        assert!(ev.get("tid").and_then(|v| v.as_u64()).is_some(), "tid");
        names.push(ev.get("name").and_then(|v| v.as_str()).expect("name"));
    }
    for expected in ["cli.simulate", "sim.run", "sim.arrival", "sim.completion"] {
        assert!(
            names.contains(&expected),
            "trace names a {expected} span: {names:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_flag_with_folded_extension_writes_folded_stacks() {
    let dir = scratch_dir("folded");
    let out = loadsteal_in(
        &dir,
        &[
            "solve",
            "--model",
            "basic",
            "--profile",
            "p.folded",
            "--quiet",
        ],
    );
    assert!(
        out.status.success(),
        "solve --profile succeeds: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(dir.join("p.folded")).expect("folded written");
    let lines: Vec<&str> = body.lines().collect();
    assert!(!lines.is_empty(), "folded output has stacks");
    for line in &lines {
        // `parent;child self_weight` — weight is a non-negative integer.
        let (stack, weight) = line.rsplit_once(' ').expect("stack <space> weight");
        assert!(!stack.is_empty());
        weight.parse::<u64>().expect("integer weight");
    }
    assert!(
        lines.iter().any(|l| l.starts_with("cli.solve")),
        "root frame is the dispatched command: {lines:?}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains("ode.continuation;ode.factor")),
        "the continuation's factorizations appear as a nested frame: {lines:?}"
    );
    assert!(
        lines.iter().any(|l| l.contains(";ode.newton")),
        "the Newton polish has a frame of its own: {lines:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_command_prints_a_self_time_table_summing_to_wall() {
    let dir = scratch_dir("report");
    let out = loadsteal_in(
        &dir,
        &[
            "profile",
            "simulate",
            "--model",
            "basic",
            "--n",
            "64",
            "--horizon",
            "1000",
            "--runs",
            "2",
            "--quiet",
        ],
    );
    assert!(
        out.status.success(),
        "profile simulate succeeds: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let header = stdout
        .lines()
        .find(|l| l.starts_with("PROFILE"))
        .expect("PROFILE header line");
    // `PROFILE  wall X ms, span self-time total Y ms (Z% of wall)` —
    // the span self-times must account for at least the command's wall
    // time (no unattributed gaps). Replication now runs on the real
    // work-stealing pool, so the two `sim.run` spans execute on worker
    // threads concurrently with the main thread's root span: the total
    // legitimately *exceeds* wall, bounded by root + one span per run
    // (~300% here) plus scheduling slack.
    let pct: f64 = header
        .split('(')
        .nth(1)
        .and_then(|t| t.split('%').next())
        .expect("coverage percentage")
        .parse()
        .expect("percentage parses");
    assert!(
        (95.0..=320.0).contains(&pct),
        "span self-time covers wall without over-counting beyond the \
         root + 2 parallel runs: {header}"
    );
    for col in ["SPAN", "CALLS", "SELF ms", "P99 us"] {
        assert!(stdout.contains(col), "table column {col}: {stdout}");
    }
    assert!(
        stdout.contains("SIM PHASES"),
        "per-phase events/sec section: {stdout}"
    );
    assert!(stdout.contains("sim.arrival") && stdout.contains("ev/s"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Calls of the spans whose path ends in `;<leaf>` in a `loadsteal
/// profile` table.
fn span_calls(table: &str, leaf: &str) -> u64 {
    let suffix = format!(";{leaf}");
    table
        .lines()
        .filter_map(|l| {
            let mut cols = l.split_whitespace();
            let path = cols.next()?;
            path.ends_with(&suffix)
                .then(|| cols.next()?.parse::<u64>().ok())?
        })
        .sum()
}

/// `loadsteal profile solve --model <model>`'s table.
fn profile_solve(dir: &std::path::Path, model: &str) -> String {
    let out = loadsteal_in(dir, &["profile", "solve", "--model", model]);
    assert!(
        out.status.success(),
        "profile solve {model}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

#[test]
fn erlang_stage_polish_needs_few_factorizations() {
    // A grown pass warm-starts from a state whose new levels are empty;
    // with the border's columns widened to every row, its polish
    // converges quadratically. A pattern that missed those entries took
    // 14 and 15 factorizations here. The pilot's continuation factors
    // once per step under a frame of its own, not counted here.
    let dir = scratch_dir("factor-count");
    for model in ["erlang-service,lambda=0.9", "threshold-erlang,lambda=0.9"] {
        let stdout = profile_solve(&dir, model);
        let factors = span_calls(&stdout, "ode.newton;ode.factor");
        assert!(
            (1..=6).contains(&factors),
            "{model}: {factors} polish factorizations\n{stdout}"
        );
        assert!(
            span_calls(&stdout, "ode.probe") >= 1,
            "{model}: the first probe has a span of its own\n{stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn grown_polish_aims_no_deeper_than_the_neglected_mass() {
    // transfer at λ = 0.99 grows its truncation three times. Each grown
    // polish aims as deep as the pass it grew from, but not below the
    // 1e-14 of tail mass the truncation neglects; chasing the pilot's
    // deeper residual took 15 factorizations.
    let dir = scratch_dir("depth-floor");
    let stdout = profile_solve(&dir, "transfer,lambda=0.99");
    let factors = span_calls(&stdout, "ode.newton;ode.factor");
    assert!(
        (1..=10).contains(&factors),
        "{factors} polish factorizations\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_preset_solves_with_one_probe_and_no_integration() {
    // The pilot's continuation probes once and hands its structure on;
    // a Dormand–Prince integration runs only when a pass falls back.
    let dir = scratch_dir("no-integration");
    let models = loadsteal_in(&dir, &["models"]);
    let listing = String::from_utf8(models.stdout).expect("stdout is UTF-8");
    let presets: Vec<&str> = listing
        .lines()
        .skip(1)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(presets.len(), 16, "{listing}");
    for preset in presets {
        let stdout = profile_solve(&dir, &format!("{preset},lambda=0.99"));
        assert_eq!(span_calls(&stdout, "ode.probe"), 1, "{preset}\n{stdout}");
        assert_eq!(
            span_calls(&stdout, "ode.integrate"),
            0,
            "{preset}\n{stdout}"
        );
        assert!(
            span_calls(&stdout, "ode.continuation") >= 1,
            "{preset}\n{stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn grown_passes_extend_the_pilot_structure_instead_of_probing() {
    // Both solves grow their truncation (erlang-service once, transfer
    // three times); only the pilot probes its Jacobian, n evaluations
    // of F, and every grown pass extends that structure.
    let dir = scratch_dir("probe-count");
    for model in ["erlang-service,lambda=0.9", "transfer,lambda=0.99"] {
        let out = loadsteal_in(&dir, &["profile", "solve", "--model", model]);
        assert!(
            out.status.success(),
            "profile solve {model}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        assert_eq!(
            span_calls(&stdout, "ode.probe"),
            1,
            "{model}: one probe\n{stdout}"
        );
        assert!(
            span_calls(&stdout, "ode.extend") >= 1,
            "{model}: grown passes extend\n{stdout}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_command_without_inner_command_is_a_clean_error() {
    let dir = scratch_dir("noinner");
    let out = loadsteal_in(&dir, &["profile"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("loadsteal profile <command>"),
        "usage hint: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_carries_span_summaries_when_profiling() {
    let dir = scratch_dir("tracespans");
    let out = loadsteal_in(
        &dir,
        &[
            "simulate",
            "--model",
            "basic",
            "--n",
            "16",
            "--horizon",
            "100",
            "--runs",
            "1",
            "--trace",
            "t.ndjson",
            "--profile",
            "p.json",
            "--quiet",
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(dir.join("t.ndjson")).expect("trace written");
    let parsed = loadsteal_trace::read_bytes(&bytes, loadsteal_trace::ReadMode::Strict)
        .expect("trace with span summaries parses strictly");
    assert!(
        parsed.spans.iter().any(|s| s.path.contains("sim.run")),
        "span summary records land in the trace: {:?}",
        parsed.spans.iter().map(|s| &s.path).collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
