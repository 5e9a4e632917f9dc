//! End-to-end tests of the `loadsteal` binary.

use std::process::Command;

fn loadsteal(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_loadsteal"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = loadsteal(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("solve"));
}

#[test]
fn no_arguments_fails_with_usage() {
    let (ok, _, stderr) = loadsteal(&[]);
    assert!(!ok);
    assert!(stderr.contains("USAGE"));
}

#[test]
fn solve_simple_reports_table1_estimate() {
    let (ok, stdout, stderr) = loadsteal(&["solve", "--model", "simple-ws", "--lambda", "0.9"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("mean time in system"), "{stdout}");
    // λ = 0.9 estimate is 3.541 (paper Table 1).
    assert!(stdout.contains("3.541"), "{stdout}");
}

#[test]
fn solve_threshold_takes_flags_in_both_forms() {
    let (ok, a, _) = loadsteal(&["solve", "--model", "threshold,T=4", "--lambda", "0.8"]);
    assert!(ok);
    let (ok2, b, _) = loadsteal(&["solve", "--model=threshold,T=4", "--lambda=0.8"]);
    assert!(ok2);
    assert_eq!(a, b);
}

#[test]
fn stability_converges_from_every_start() {
    // The trajectories run at the model's own truncation while the fixed
    // point comes at the solver's, so this also checks the re-embedding.
    for lambda in ["0.4", "0.9"] {
        let (ok, stdout, stderr) = loadsteal(&["stability", "--lambda", lambda]);
        assert!(ok, "λ = {lambda}: {stderr}");
        let starts: Vec<&str> = stdout.lines().filter(|l| l.starts_with("start")).collect();
        assert_eq!(starts.len(), 3, "λ = {lambda}: {stdout}");
        for line in starts {
            assert!(line.contains("converged at t ="), "λ = {lambda}: {line}");
        }
    }
}

#[test]
fn tails_prints_monotone_levels() {
    let (ok, stdout, _) = loadsteal(&[
        "tails",
        "--model",
        "simple-ws",
        "--lambda",
        "0.7",
        "--levels",
        "6",
    ]);
    assert!(ok);
    let values: Vec<f64> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        .collect();
    assert!(values.len() >= 6, "{stdout}");
    for w in values.windows(2) {
        assert!(w[0] >= w[1] - 1e-12, "{stdout}");
    }
}

/// A reader that stops early (`loadsteal tails … | head -1`) ends the
/// command with exit 0 and a quiet stderr, not a panic (exit 101).
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    // ~2 MB of output: the pipe buffer fills, so the command is still
    // writing when the reader leaves.
    let mut child = Command::new(env!("CARGO_BIN_EXE_loadsteal"))
        .args(["tails", "--levels", "100000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn loadsteal tails");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .expect("first line");
    assert!(first.starts_with("model:"), "{first:?}");
    // The reader, and with it the pipe's read end, is gone here.
    let out = child.wait_with_output().expect("tails exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn simulate_runs_a_short_experiment() {
    let (ok, stdout, stderr) = loadsteal(&[
        "simulate",
        "--n",
        "16",
        "--lambda",
        "0.5",
        "--runs",
        "2",
        "--horizon",
        "500",
        "--warmup",
        "50",
        "--seed",
        "1",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("mean time in system"), "{stdout}");
}

#[test]
fn unknown_model_is_a_clean_error() {
    let (ok, _, stderr) = loadsteal(&["solve", "--model", "bogus", "--lambda", "0.5"]);
    assert!(!ok);
    assert!(stderr.contains("unknown model"), "{stderr}");
}

#[test]
fn unknown_flag_is_a_clean_error() {
    let (ok, _, stderr) = loadsteal(&[
        "solve",
        "--model",
        "simple-ws",
        "--lambda",
        "0.5",
        "--tresh",
        "2",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag"), "{stderr}");
}

#[test]
fn invalid_lambda_is_a_clean_error() {
    let (ok, _, stderr) = loadsteal(&["solve", "--model", "simple-ws", "--lambda", "1.5"]);
    assert!(!ok);
    assert!(stderr.contains("arrival rate"), "{stderr}");
}

#[test]
fn drain_reports_both_numbers() {
    let (ok, stdout, stderr) = loadsteal(&["drain", "--initial", "5", "--n", "16", "--runs", "2"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("mean-field drain time"));
    assert!(stdout.contains("simulated makespan"));
}

/// Run shapes with nothing to simulate are input errors: exit 1 with a
/// message naming the flag, not a panic (exit 101). `serve` must refuse
/// before its listener comes up.
#[test]
fn empty_run_shapes_are_clean_errors() {
    let cases = [
        ("simulate --runs 0 --n 8 --horizon 10", "--runs"),
        (
            "converge --runs 0 --n-min 8 --n-max 32 --horizon 10",
            "--runs",
        ),
        (
            "serve --runs 0 --prom-addr 127.0.0.1:0 --horizon 10",
            "--runs",
        ),
        ("drain --initial 5 --n 4 --runs 0", "--runs"),
        ("drain --initial 0 --n 4", "--initial"),
        ("drain --initial 5 --n 0", "--n"),
        ("simulate --n 0 --horizon 10", "--n"),
        ("simulate --n 8 --horizon 0", "--horizon"),
        ("simulate --n 8 --horizon 10 --warmup 10", "--warmup"),
    ];
    for (args, flag) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_loadsteal"))
            .args(args.split(' '))
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {flag}")),
            "{args}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args}");
    }
}

#[test]
fn verify_filtered_layer_passes_and_renders_a_table() {
    // The determinism layer is simulation-light (n ≤ 16, short
    // horizons), so it is fast enough for an e2e test even unoptimized.
    let (ok, stdout, stderr) = loadsteal(&["verify", "--quick", "--filter", "determinism"]);
    assert!(ok, "stderr: {stderr}\nstdout: {stdout}");
    assert!(stdout.contains("determinism"), "{stdout}");
    assert!(stdout.contains("PASS"), "{stdout}");
    assert!(stdout.contains("0 failed"), "{stdout}");
}

#[test]
fn verify_rejects_conflicting_tiers() {
    let (ok, _, stderr) = loadsteal(&["verify", "--quick", "--full"]);
    assert!(!ok);
    assert!(stderr.contains("--quick"), "{stderr}");
}

#[test]
fn verify_unmatched_filter_is_a_clean_error() {
    let (ok, _, stderr) = loadsteal(&["verify", "--filter", "no-such-check"]);
    assert!(!ok);
    assert!(stderr.contains("no checks match"), "{stderr}");
}

#[test]
fn models_lists_every_registry_preset_with_tail_ratios() {
    let (ok, stdout, stderr) = loadsteal(&["models"]);
    assert!(ok, "stderr: {stderr}");
    for preset in ["simple-ws", "threshold-erlang", "work-sharing", "rebalance"] {
        assert!(stdout.contains(preset), "missing {preset}: {stdout}");
    }
    assert!(stdout.contains("tail ratio"), "{stdout}");
    assert!(
        stdout.contains("lambda=0.9,policy=steal,T=2,d=1,k=1"),
        "{stdout}"
    );
    // λ = 0.8 no-steal is an M/M/1 with geometric tails, so π₂ = λ²
    // and the ratio λ/(1+λ−π₂) = 0.8/(1.8 − 0.64) = 0.6897 exactly.
    let (ok, stdout, _) = loadsteal(&["models", "--lambda", "0.8"]);
    assert!(ok);
    assert!(stdout.contains("0.6897"), "{stdout}");
}

#[test]
fn solve_accepts_registry_presets_and_spec_overrides() {
    // Preset alone: λ comes from the preset definition.
    let (ok, stdout, stderr) = loadsteal(&["solve", "--model", "simple-ws"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("3.541"), "{stdout}");
    // --lambda overrides the preset's λ, exactly like an in-spec key.
    let (ok, a, _) = loadsteal(&["solve", "--model", "simple-ws", "--lambda", "0.8"]);
    assert!(ok);
    let (ok2, b, _) = loadsteal(&["solve", "--model", "simple-ws,lambda=0.8"]);
    assert!(ok2);
    assert_eq!(a, b);
    // Full key=val grammar, including a threshold × Erlang cross-product.
    let (ok, stdout, stderr) = loadsteal(&[
        "solve",
        "--model",
        "lambda=0.8,policy=steal,T=4,d=1,k=1,service=erlang:10",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("erlang-stage"), "{stdout}");
}

#[test]
fn simulate_takes_a_model_spec_and_rejects_legacy_knob_conflicts() {
    let (ok, stdout, stderr) = loadsteal(&[
        "simulate",
        "--n",
        "16",
        "--model",
        "threshold,lambda=0.5",
        "--runs",
        "1",
        "--horizon",
        "300",
        "--warmup",
        "30",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("mean time in system"), "{stdout}");
    let (ok, _, stderr) = loadsteal(&[
        "simulate",
        "--n",
        "16",
        "--model",
        "simple-ws",
        "--policy",
        "none",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag --policy"), "{stderr}");
}

#[test]
fn solve_and_simulate_record_the_spec_that_models_lists() {
    // `models` prints each preset's canonical spec. Every command must
    // resolve the preset name to that same spec, so a second model
    // grammar cannot drift from the registry unnoticed.
    let (ok, listing, stderr) = loadsteal(&["models", "--lambda", "0.8"]);
    assert!(ok, "stderr: {stderr}");
    let presets: Vec<(&str, &str)> = listing
        .lines()
        .skip(1)
        .filter_map(|l| Some((l.split_whitespace().next()?, l.split_whitespace().last()?)))
        .collect();
    assert!(
        presets.iter().any(|(name, _)| *name == "threshold"),
        "{listing}"
    );
    for (name, spec) in presets {
        let want = format!("\"model\":\"{spec}\"");
        for cmd in [&["solve"][..], &["simulate", "--n", "8", "--horizon", "20"]] {
            let mut args = cmd.to_vec();
            args.extend_from_slice(&["--model", name, "--lambda", "0.8", "--metrics-json", "-"]);
            let (ok, doc, stderr) = loadsteal(&args);
            assert!(ok, "{args:?}: {stderr}");
            assert!(doc.contains(&want), "{args:?} did not record {spec}: {doc}");
        }
    }
}

/// More Erlang stages than the mean-field model's stage-level cap.
const OVERSIZED_ERLANG: &str = "lambda=0.9,service=erlang:7501";

#[test]
fn solve_rejects_an_oversized_erlang_stage_spec() {
    let (ok, _, stderr) = loadsteal(&["solve", "--model", OVERSIZED_ERLANG]);
    assert!(!ok);
    assert!(
        stderr.contains("error:") && !stderr.contains("panicked"),
        "{stderr}"
    );
}

#[test]
fn report_of_a_solve_trace_agrees_with_solve() {
    let path = std::env::temp_dir().join(format!(
        "loadsteal_solve_trace_{}.ndjson",
        std::process::id()
    ));
    let path_s = path.to_str().unwrap();
    let args = ["solve", "--model", "simple-ws", "--lambda", "0.9"];
    let (ok, solved, stderr) = loadsteal(&[&args[..], &["--trace", path_s]].concat());
    assert!(ok, "{stderr}");
    // `residual ‖F(π)‖∞:      2.776e-17 (Newton-polished)`.
    let residual = solved
        .lines()
        .find(|l| l.starts_with("residual"))
        .and_then(|l| l.split_whitespace().nth(2))
        .unwrap_or_else(|| panic!("no residual line: {solved}"));
    let (ok, report, stderr) = loadsteal(&["report", path_s]);
    let _ = std::fs::remove_file(&path);
    assert!(ok, "{stderr}");
    assert!(
        report.contains(&format!("converged           true  (residual {residual})")),
        "solve printed residual {residual}:\n{report}"
    );
}

#[test]
fn report_drops_the_prediction_for_an_oversized_erlang_stage_spec() {
    let path = std::env::temp_dir().join(format!(
        "loadsteal_erlang_cap_{}.ndjson",
        std::process::id()
    ));
    let trace = format!(
        "{{\"ev\":\"header\",\"schema\":\"loadsteal.trace.v1\",\"model\":\"{OVERSIZED_ERLANG}\"}}\n\
         {{\"ev\":\"arrival\",\"t\":0.5,\"proc\":0}}\n{{\"ev\":\"completion\",\"t\":1.5,\"proc\":0}}\n"
    );
    std::fs::write(&path, trace).unwrap();
    let (ok, stdout, stderr) = loadsteal(&["report", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("no mean-field prediction supplied"),
        "{stdout}"
    );
}

#[test]
fn top_once_prints_one_plain_frame() {
    let args = "top --workers 4 --lambda 0.8 --horizon 80 --tau-ms 2 --seed 11 --once";
    let (ok, stdout, stderr) = loadsteal(&args.split(' ').collect::<Vec<_>>());
    assert!(ok, "{stderr}");
    assert!(!stdout.contains('\x1b'), "{stdout:?}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines[0].starts_with("loadsteal top — 4 workers"),
        "{stdout}"
    );
    assert!(
        lines[1].contains("submitted") && lines[1].contains("completed"),
        "{stdout}"
    );
    assert!(lines[2].trim_start().starts_with("WORKER"), "{stdout}");
    let rows: Vec<&str> = lines[3..]
        .iter()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(rows, ["0", "1", "2", "3"], "{stdout}");
}
