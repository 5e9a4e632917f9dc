//! Command implementations.

use loadsteal_core::fixed_point::{solve as solve_fp, solve_traced, FixedPoint, FixedPointOptions};
use loadsteal_core::models::{MeanFieldModel, SimpleWs, StaticDrain};
use loadsteal_core::rate::{fit_power_law, geometric_grid};
use loadsteal_core::stability::{check_l1_contraction, theorem_condition_holds};
use loadsteal_core::tail::TailVector;
use loadsteal_core::{ModelRegistry, ModelSpec, PresetTier};
use loadsteal_exec::stealbench::{StealBench, StealBenchConfig};
use loadsteal_obs::{
    prometheus_text, EventCounts, Recorder, Registry, RegistryRecorder, TailReference, TraceHeader,
    TAIL_SAMPLE_DEPTH,
};
use loadsteal_sim::{
    replicate, replicate_recorded, ConfigError, SimConfig, StealPolicy, ToSimConfig,
    DEFAULT_HEARTBEAT_EVERY,
};
use loadsteal_trace::{
    read_bytes, transient, MeanFieldPrediction, ParsedTrace, ReadMode, Timeline, TimelineConfig,
    TransientAnalysis, TransientOptions,
};
use loadsteal_verify::rate::error_curve;

use crate::args::Args;
use crate::obs::{manifest, say, Narrator, ObsOpts, OBS_FLAGS};
use crate::stdout::{self, out, outln};

/// The flags [`model_spec`] reads.
const MODEL_FLAGS: &[&str] = &["model", "lambda"];

/// Resolve `--model` (default `simple-ws`) through the shared
/// `<preset|key=val,...>` grammar, with `--lambda` appended as an
/// override (last key wins).
fn model_spec(a: &Args) -> Result<ModelSpec, String> {
    let mut text = a.raw("model").unwrap_or("simple-ws").to_owned();
    if let Some(l) = a.get::<f64>("lambda")? {
        text.push_str(&format!(",lambda={l}"));
    }
    ModelSpec::parse(&text)
}

/// The model a trace is analysed against: `--model` through
/// [`model_spec`] when given, otherwise the trace header's spec
/// re-pinned to `--lambda` (the paper's basic model when the header
/// names none). `None` when neither flag nor header names a model.
fn trace_model_spec(a: &Args, trace: &ParsedTrace) -> Result<Option<ModelSpec>, String> {
    if a.raw("model").is_some() {
        return model_spec(a).map(Some);
    }
    let header_spec = trace
        .header
        .as_ref()
        .and_then(|h| h.model.as_deref())
        .and_then(|m| match ModelSpec::parse(m) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("warning: ignoring unparseable trace-header model: {e}");
                None
            }
        });
    Ok(match a.get::<f64>("lambda")? {
        Some(l) => Some(match header_spec {
            Some(s) => s.with_lambda(l),
            None => ModelSpec::simple_ws(l),
        }),
        None => header_spec,
    })
}

/// Read the one trace operand of `loadsteal <cmd>`: the positional
/// argument or `--input`, where `-` is stdin so the command pipes from
/// `simulate --trace -`. Raw bytes, not a string, so `--lossy` can skip
/// a corrupt region line by line; without it the first bad line fails.
/// Returns the path as given alongside the parsed trace.
fn read_trace<'a>(a: &'a Args, cmd: &str, usage: &str) -> Result<(&'a str, ParsedTrace), String> {
    let path = a
        .positional(0)
        .or_else(|| a.raw("input"))
        .ok_or_else(|| format!("usage: loadsteal {cmd} <trace.ndjson|-> {usage}"))?;
    if a.positional(1).is_some() {
        return Err(format!("{cmd} takes exactly one trace file"));
    }
    let bytes = if path == "-" {
        use std::io::Read as _;
        let mut buf = Vec::new();
        std::io::stdin()
            .read_to_end(&mut buf)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        buf
    } else {
        std::fs::read(path).map_err(|e| format!("cannot read trace {path:?}: {e}"))?
    };
    let mode = if a.switch("lossy") {
        ReadMode::Lossy
    } else {
        ReadMode::Strict
    };
    let parsed = read_bytes(&bytes, mode).map_err(|e| format!("{path}: {e} (try --lossy)"))?;
    if !parsed.skipped.is_empty() {
        eprintln!(
            "warning: skipped {} of {} lines (first: {})",
            parsed.skipped.len(),
            parsed.lines,
            parsed.skipped[0]
        );
    }
    Ok((path, parsed))
}

/// The flags [`stealbench_config`] reads.
pub(crate) const STEALBENCH_FLAGS: &[&str] = &["workers", "lambda", "horizon", "tau-ms", "seed"];

/// The real-pool workload shared by `stealbench` and `top`: 16 workers
/// at λ = 0.9 for 400 model units of τ = 4 ms.
pub(crate) fn stealbench_config(a: &Args) -> Result<StealBenchConfig, String> {
    let cfg = StealBenchConfig {
        workers: a.get_or("workers", 16)?,
        lambda: a.get_or("lambda", 0.9)?,
        horizon: a.get_or("horizon", 400.0)?,
        tau: a.get_or::<f64>("tau-ms", 4.0)? / 1_000.0,
        seed: a.get_or("seed", 42)?,
    };
    cfg.validate()?;
    Ok(cfg)
}

/// Add the solver counters common to every traced command.
fn solver_metrics(reg: &Registry, c: &EventCounts) {
    reg.counter("solver.steps_accepted").add(c.solver_accepted);
    reg.counter("solver.steps_rejected").add(c.solver_rejected);
    reg.counter("solver.steady_samples").add(c.solver_steady);
    reg.counter("solver.integrations").add(c.solver_done);
    reg.gauge("solver.max_reject_streak")
        .set(c.solver_max_reject_streak as f64);
    reg.gauge("solver.stiffness_hint")
        .set(if c.solver_max_reject_streak >= 5 {
            1.0
        } else {
            0.0
        });
}

/// `loadsteal solve` — fixed point metrics.
pub fn solve(a: &Args) -> Result<(), String> {
    a.ensure_known(&[MODEL_FLAGS, OBS_FLAGS].concat())?;
    let obs = ObsOpts::from_args(a)?;
    let out = Narrator::new(obs.machine_stdout());
    let spec = model_spec(a)?;
    let canonical = spec.to_string();
    let mut rec = obs.recorder()?;
    rec.write_header(&TraceHeader {
        model: Some(canonical.clone()),
        ..TraceHeader::default()
    });
    let model = spec.mean_field().map_err(|e| e.to_string())?;
    let name = model.name();
    let fp =
        solve_traced(&model, &FixedPointOptions::default(), &mut rec).map_err(|e| e.to_string())?;
    let (counts, trace_lines) = rec.finish()?;
    say!(out, "model:                 {name}");
    say!(out, "truncation levels:     {}", fp.truncation);
    say!(
        out,
        "residual ‖F(π)‖∞:      {:.3e}{}",
        fp.residual,
        if fp.polished {
            " (Newton-polished)"
        } else {
            " (integration only)"
        }
    );
    say!(
        out,
        "busy fraction s₁:      {:.6}",
        fp.task_tails.get(1).copied().unwrap_or(0.0)
    );
    say!(out, "mean tasks / proc L:   {:.6}", fp.mean_tasks);
    say!(out, "mean time in system W: {:.6}", fp.mean_time_in_system);
    if let Some(r) = fp.tail_ratio() {
        say!(out, "tail decay ratio:      {r:.6}");
    }
    if obs.metrics_json.is_some() {
        let reg = Registry::new();
        solver_metrics(&reg, &counts);
        reg.gauge("solver.residual").set(fp.residual);
        reg.gauge("solver.truncation").set(fp.truncation as f64);
        reg.gauge("solver.mean_tasks").set(fp.mean_tasks);
        reg.gauge("solver.mean_time_in_system")
            .set(fp.mean_time_in_system);
        if trace_lines > 0 {
            reg.counter("trace.lines").add(trace_lines);
        }
        export_spans(&reg);
        let mut m = manifest();
        m.config("model", canonical.as_str())
            .config("lambda", spec.lambda);
        obs.emit(&m, &reg.snapshot())?;
    }
    Ok(())
}

/// `loadsteal tails` — fixed point occupancy tails.
pub fn tails(a: &Args) -> Result<(), String> {
    a.ensure_known(&[MODEL_FLAGS, &["levels"]].concat())?;
    let levels: usize = a.get_or("levels", 12)?;
    let spec = model_spec(a)?;
    let model = spec.mean_field().map_err(|e| e.to_string())?;
    let name = model.name();
    let fp = solve_fp(&model, &FixedPointOptions::default()).map_err(|e| e.to_string())?;
    outln!("model: {name}");
    outln!("{:>4} {:>14}", "i", "s_i");
    for i in 0..=levels {
        outln!(
            "{i:>4} {:>14.8}",
            fp.task_tails.get(i).copied().unwrap_or(0.0)
        );
    }
    Ok(())
}

const SIM_FLAGS: &[&str] = &[
    "n",
    "model",
    "lambda",
    "runs",
    "horizon",
    "warmup",
    "seed",
    "internal",
    "heartbeat-every",
    "sample-tails",
];

/// Solve the mean-field companion of a simulated spec, feeding the
/// solver's convergence trace into `rec`, so a simulation's metrics
/// report carries solver counters next to the simulator's. Specs with
/// no mean-field model and convergence failures (e.g. an unstable λ)
/// are not fatal: the companion is simply reported as unavailable.
fn companion_fixed_point(spec: &ModelSpec, rec: &mut dyn Recorder) -> Option<(String, FixedPoint)> {
    let model = match spec.mean_field() {
        Ok(m) => m,
        Err(e) => {
            loadsteal_obs::debug!("mean-field companion unavailable: {e}");
            return None;
        }
    };
    let name = model.name();
    match solve_traced(&model, &FixedPointOptions::default(), rec) {
        Ok(fp) => Some((name, fp)),
        Err(e) => {
            loadsteal_obs::debug!("mean-field companion did not converge: {e}");
            None
        }
    }
}

/// Build a [`SimConfig`] for `spec` with the run-shape flags (horizon,
/// warmup, internal arrivals, heartbeat cadence) applied on top. `--n`
/// defaults to 128, the paper's largest simulated system.
fn sim_config(a: &Args, spec: &ModelSpec) -> Result<SimConfig, String> {
    let n: usize = a.get_or("n", 128)?;
    let mut cfg = spec.sim_config(n).map_err(config_error)?;
    cfg.horizon = a.get_or("horizon", 20_000.0)?;
    cfg.warmup = a.get_or("warmup", cfg.horizon / 10.0)?;
    cfg.internal_lambda = a.get_or("internal", 0.0)?;
    cfg.heartbeat_every = a.get_or("heartbeat-every", DEFAULT_HEARTBEAT_EVERY)?;
    cfg.sample_tails = a.get::<f64>("sample-tails")?;
    cfg.validate().map_err(config_error)?;
    Ok(cfg)
}

/// A [`SimConfig::validate`] error, led by the flag that sets the value
/// at fault; `--model` stands for everything the model spec sets.
fn config_error(e: ConfigError) -> String {
    let flag = match e {
        ConfigError::ZeroProcessors | ConfigError::TooManyProcessors(_) => "n",
        ConfigError::BadInternalLambda(_) => "internal",
        ConfigError::BadHorizon(_) => "horizon",
        ConfigError::BadWarmup { .. } => "warmup",
        ConfigError::BadSampleInterval(_) => "sample-tails",
        ConfigError::DrainedEndsImmediately => "initial",
        _ => "model",
    };
    format!("--{flag}: {e}")
}

/// `--runs` of the simulating commands (`default` when absent): at
/// least one replication, since there is no estimate without one.
fn runs_flag(a: &Args, default: usize) -> Result<usize, String> {
    match a.get_or("runs", default)? {
        0 => Err("--runs must be at least 1".into()),
        runs => Ok(runs),
    }
}

/// `loadsteal simulate` — run the discrete-event simulator.
pub fn simulate(a: &Args) -> Result<(), String> {
    let mut known = SIM_FLAGS.to_vec();
    known.extend_from_slice(OBS_FLAGS);
    a.ensure_known(&known)?;
    let spec = model_spec(a)?;
    let canonical = spec.to_string();
    let mut cfg = sim_config(a, &spec)?;
    let n = cfg.n;
    let lambda = cfg.lambda;
    let runs = runs_flag(a, 3)?;
    let seed: u64 = a.get_or("seed", 42)?;

    let obs = ObsOpts::from_args(a)?;
    // Collect sojourn quantiles whenever the metrics document will be
    // written; the digest stays off otherwise so the hot loop pays
    // nothing for it.
    cfg.sojourn_digest = obs.metrics_json.is_some();
    // Per-job lifecycle events are opt-in: the engine only emits them
    // when a recorder is attached AND this flag is set, so plain runs
    // pay nothing.
    cfg.trace_jobs = a.switch("trace-jobs");
    let out = Narrator::new(obs.machine_stdout());
    let mut rec = obs.recorder()?;
    rec.write_header(&TraceHeader {
        model: Some(canonical.clone()),
        n: Some(n as u64),
        seed: Some(seed),
        runs: Some(runs as u64),
    });
    let observing = rec.enabled();

    let mean_field = if observing {
        companion_fixed_point(&spec, &mut rec)
    } else {
        None
    };

    let result = replicate_recorded(&cfg, runs, seed, &mut rec);
    let (counts, trace_lines) = rec.finish()?;

    let ci = result.sojourn_ci();
    say!(
        out,
        "config:              n = {n}, λ = {lambda}, policy = {:?}",
        cfg.policy
    );
    say!(
        out,
        "protocol:            {runs} × {:.0} s (warmup {:.0} s), seed {seed}",
        cfg.horizon,
        cfg.warmup
    );
    say!(
        out,
        "mean time in system: {:.4} ± {:.4} (95% CI over runs)",
        ci.mean,
        ci.half_width
    );
    if let Some((mname, fp)) = &mean_field {
        say!(
            out,
            "mean-field W (n→∞):  {:.4} ({mname})",
            fp.mean_time_in_system
        );
    }
    let r0 = &result.runs[0];
    say!(
        out,
        "per run ≈ {} tasks, steal success rate {:.1}%",
        r0.tasks_completed,
        100.0 * r0.steal_success_rate()
    );
    let tails = result.mean_load_tails();
    let mut tail_line = String::from("tails s₁..s₈:        ");
    for i in 1..=8 {
        tail_line.push_str(&format!("{:.4} ", tails.get(i).copied().unwrap_or(0.0)));
    }
    say!(out, "{}", tail_line.trim_end());

    if obs.metrics_json.is_some() {
        let reg = Registry::new();
        reg.counter("sim.arrivals").add(counts.arrivals);
        reg.counter("sim.completions").add(counts.completions);
        reg.counter("sim.steal_attempts").add(counts.steal_attempts);
        reg.counter("sim.steal_successes")
            .add(counts.steal_successes);
        reg.counter("sim.migrations").add(counts.migrations);
        reg.counter("sim.tasks_migrated").add(counts.tasks_migrated);
        reg.counter("sim.heartbeats").add(counts.heartbeats);
        reg.counter("sim.replicates").add(counts.replicates);
        if counts.job_events > 0 {
            reg.counter("job.events").add(counts.job_events);
        }
        if counts.tail_samples > 0 {
            reg.counter("sim.tail_samples").add(counts.tail_samples);
        }
        let (mut events, mut attempts, mut successes) = (0u64, 0u64, 0u64);
        let run_wall = reg.sketch("sim.run_wall_ms");
        let run_events = reg.sketch("sim.run_events");
        for r in &result.runs {
            events += r.events_processed;
            attempts += r.steal_attempts;
            successes += r.steal_successes;
            run_wall.record(r.wall_ms);
            run_events.record(r.events_processed as f64);
        }
        reg.counter("sim.events").add(events);
        // Streaming sojourn-time quantiles, merged across runs.
        if let Some(d) = result.merged_sojourn_digest() {
            reg.sketch("sim.sojourn_time").merge_from(&d);
        }
        reg.gauge("sim.mean_sojourn").set(ci.mean);
        reg.gauge("sim.sojourn_ci_half_width").set(ci.half_width);
        reg.gauge("sim.steal_success_rate").set(if attempts == 0 {
            0.0
        } else {
            successes as f64 / attempts as f64
        });
        solver_metrics(&reg, &counts);
        if let Some((_, fp)) = &mean_field {
            reg.gauge("solver.residual").set(fp.residual);
            reg.gauge("solver.mean_time_in_system")
                .set(fp.mean_time_in_system);
        }
        if trace_lines > 0 {
            reg.counter("trace.lines").add(trace_lines);
        }
        export_spans(&reg);
        let mut m = manifest();
        m.seed = Some(seed);
        m.config("n", n)
            .config("lambda", lambda)
            .config("model", canonical.as_str())
            .config("runs", runs)
            .config("horizon", cfg.horizon)
            .config("warmup", cfg.warmup);
        if let Some((mname, _)) = &mean_field {
            m.config("mean_field_model", mname.as_str());
        }
        obs.emit(&m, &reg.snapshot())?;
    }
    Ok(())
}

/// Flags accepted by `loadsteal converge`: the model, the grid bounds
/// and the per-size run shape.
const CONVERGE_FLAGS: &[&str] = &[
    "model", "lambda", "n-min", "n-max", "runs", "horizon", "warmup", "seed",
];

/// `loadsteal converge` — measure the finite-size convergence rate.
///
/// Sweeps the system size over a geometric grid, measures the
/// stationary tail error at each size ([`error_curve`]), and fits its
/// decay exponent. Ying's refinement of the Kurtz limit puts the
/// stationary error at Θ(1/n), so the fitted slope should sit near −1;
/// an O(1) model-transcription bias flattens it towards 0 instead.
pub fn converge(a: &Args) -> Result<(), String> {
    let mut known = CONVERGE_FLAGS.to_vec();
    known.extend_from_slice(OBS_FLAGS);
    a.ensure_known(&known)?;
    let spec = model_spec(a)?;
    let canonical = spec.to_string();
    let n_min: usize = a.get_or("n-min", 128)?;
    let n_max: usize = a.get_or("n-max", 2_048)?;
    if n_min < 2 {
        return Err("--n-min must be at least 2".into());
    }
    let runs = runs_flag(a, 3)?;
    let horizon: f64 = a.get_or("horizon", 4_000.0)?;
    let warmup: f64 = a.get_or("warmup", horizon / 10.0)?;
    let seed: u64 = a.get_or("seed", 42)?;
    let grid = geometric_grid(n_min, n_max);
    if grid.len() < 2 {
        return Err(format!(
            "grid {grid:?} has fewer than two sizes; raise --n-max above 2×--n-min"
        ));
    }

    let obs = ObsOpts::from_args(a)?;
    let out = Narrator::new(obs.machine_stdout());
    say!(out, "model:    {canonical}");
    say!(
        out,
        "protocol: n ∈ {grid:?}, {runs} × {horizon:.0} s (warmup {warmup:.0} s), seed {seed}"
    );
    let points: Vec<(f64, f64)> = error_curve(&spec, &grid, runs, horizon, warmup, seed)?
        .iter()
        .map(|p| (p.n, p.sup_error()))
        .collect();
    for (n, err) in &points {
        say!(out, "  n = {:>7}: e(n) = {err:.3e}", *n as usize);
    }

    let fit = fit_power_law(&points).ok_or("could not fit a slope (degenerate or zero errors)")?;
    // The grep-able verdict line, also the CI smoke target.
    outln!(
        "convergence slope: {:.3} (R² {:.3}, {} sizes, target −1 for Θ(1/n))",
        fit.slope,
        fit.r_squared,
        points.len()
    );

    if obs.metrics_json.is_some() {
        let reg = Registry::new();
        reg.gauge("converge.slope").set(fit.slope);
        reg.gauge("converge.r_squared").set(fit.r_squared);
        reg.gauge("converge.sizes").set(points.len() as f64);
        for (n, e) in &points {
            reg.gauge(&format!("converge.err_n{}", *n as usize)).set(*e);
        }
        let mut m = manifest();
        m.seed = Some(seed);
        m.config("model", canonical.as_str())
            .config("n_min", n_min)
            .config("n_max", n_max)
            .config("runs", runs)
            .config("horizon", horizon)
            .config("warmup", warmup);
        obs.emit(&m, &reg.snapshot())?;
    }
    Ok(())
}

/// `loadsteal stability` — Section 4 contraction check.
pub fn stability(a: &Args) -> Result<(), String> {
    a.ensure_known(&["lambda", "t-max"])?;
    let lambda: f64 = a.required("lambda")?;
    let t_max: f64 = a.get_or("t-max", 50_000.0)?;
    let m = SimpleWs::new(lambda)?;
    let fp = solve_fp(&m, &FixedPointOptions::default()).map_err(|e| e.to_string())?;
    // The trajectories start from loaded states, so they run at the
    // model's own λⁱ-sized truncation; the solver sized the fixed point's.
    let fixed = m.embed_state(&fp.state);
    outln!(
        "Theorem 1 hypothesis π₂ < 1/2: {} (π₂ = {:.4})",
        if theorem_condition_holds(lambda) {
            "holds"
        } else {
            "does NOT hold"
        },
        m.pi2()
    );
    for (name, start) in [
        ("empty", m.empty_state()),
        (
            "uniform load 4",
            TailVector::uniform_load(4, m.truncation()).into_vec(),
        ),
        (
            "geometric 0.97",
            TailVector::geometric(0.97, m.truncation()).into_vec(),
        ),
    ] {
        let rep =
            check_l1_contraction(&m, &start, &fixed, 1e-6, t_max).map_err(|e| e.to_string())?;
        outln!(
            "start {name:>16}: D₀ = {:.4}, max increase {:.2e}, converged at {}, decay γ ≈ {}",
            rep.initial_distance,
            rep.max_increase,
            rep.converged_at
                .map(|t| format!("t = {t:.1}"))
                .unwrap_or_else(|| "— (not within horizon)".into()),
            rep.decay_rate()
                .map(|g| format!("{g:.4}"))
                .unwrap_or_else(|| "—".into()),
        );
    }
    Ok(())
}

/// `loadsteal drain` — static system drain comparison.
pub fn drain(a: &Args) -> Result<(), String> {
    a.ensure_known(&["initial", "n", "internal", "runs", "seed"])?;
    let initial: usize = a.required("initial")?;
    let n: usize = a.get_or("n", 128)?;
    let internal: f64 = a.get_or("internal", 0.0)?;
    let runs = runs_flag(a, 5)?;
    let seed: u64 = a.get_or("seed", 42)?;
    let mut cfg = SimConfig::paper_default(n, 0.0);
    cfg.lambda = 0.0;
    cfg.internal_lambda = internal;
    cfg.run_until_drained = true;
    cfg.initial_load = initial;
    cfg.warmup = 0.0;
    cfg.policy = StealPolicy::Repeated {
        rate: 8.0,
        threshold: 2,
    };
    cfg.validate().map_err(config_error)?;

    let model = StaticDrain::new(0.0, internal, 4 * initial + 16)?;
    let predicted = model
        .drain_time(initial, 1e-3, 1e6)
        .map_err(|e| e.to_string())?;
    outln!("mean-field drain time (n → ∞): {predicted:.2}");
    let result = replicate(&cfg, runs, seed);
    outln!(
        "simulated makespan (n = {n}, {runs} runs): {:.2} ± {:.2}",
        result.makespan_mean.mean(),
        result.makespan_mean.confidence_interval(0.95).half_width
    );
    Ok(())
}

/// `loadsteal stealbench` — drive the *real* work-stealing thread pool
/// with the paper's workload and report what it measurably did.
///
/// Each pool worker plays one processor: an open-loop driver submits a
/// Poisson(λ) task stream to every worker's inbox, tasks occupy their
/// worker for an Exp(1) service time (scaled by τ wall seconds per
/// model time unit), and idle workers probe one random victim per
/// transition-to-empty — the paper's steal rule. With `--trace` the
/// pool emits the same `loadsteal.trace.v1` events as the simulator,
/// so `loadsteal report` and the verify harness consume measured
/// executor traces unchanged.
pub fn stealbench(a: &Args) -> Result<(), String> {
    use std::sync::Arc;

    a.ensure_known(&[STEALBENCH_FLAGS, OBS_FLAGS].concat())?;
    let cfg = stealbench_config(a)?;
    let spec = ModelSpec::simple_ws(cfg.lambda);
    let canonical = spec.to_string();

    let obs = ObsOpts::from_args(a)?;
    let out = Narrator::new(obs.machine_stdout());
    let mut rec = obs.recorder()?;
    // The header carries the canonical model spec, so a downstream
    // `loadsteal report` resolves the mean-field comparison without
    // being told the model again.
    rec.write_header(&TraceHeader {
        model: Some(canonical.clone()),
        n: Some(cfg.workers as u64),
        seed: Some(cfg.seed),
        runs: Some(1),
    });

    say!(
        out,
        "pool:     {} workers, one steal probe per transition-to-empty, seed {}",
        cfg.workers,
        cfg.seed
    );
    say!(
        out,
        "workload: λ = {} per worker, horizon {} model units, τ = {} ms ({:.1} s wall)",
        cfg.lambda,
        cfg.horizon,
        cfg.tau * 1_000.0,
        cfg.horizon * cfg.tau
    );

    // Each worker appends into its own shard, the submitting thread
    // into shard `workers`, and the merge on drain restores one globally
    // t-ordered stream. No global sink lock is taken per event — see
    // docs/telemetry.md.
    let sink = Arc::new(loadsteal_obs::ShardedRecorder::new(rec, cfg.workers + 1));
    let bench = StealBench::new(&cfg, Arc::clone(&sink) as Arc<dyn loadsteal_obs::ShardSink>)?;
    bench.drive();
    let (outcome, per_worker) = bench.finish_detailed();
    // The pool joined its workers at shutdown, so ours is the last
    // reference to the recorder.
    let rec = Arc::try_unwrap(sink)
        .map_err(|_| "recorder still shared after pool shutdown".to_string())?
        .finish();
    let (counts, trace_lines) = rec.finish()?;

    let measured_rate = outcome.steal_success_rate();
    let pi2 = spec
        .fixed_point()
        .ok()
        .and_then(|fp| fp.task_tails.get(2).copied());
    say!(
        out,
        "driven:   {} tasks submitted, {} completed, {:.2} s wall (sleep overshoot {:.0} µs)",
        outcome.submitted,
        outcome.completed,
        outcome.wall_secs,
        outcome.sleep_overshoot * 1e6
    );
    match pi2 {
        Some(pi2) => say!(
            out,
            "steals:   {} probes, {} hits — success rate {:.4} measured vs π₂ = {pi2:.4} predicted",
            outcome.stats.steal_attempts,
            outcome.stats.steal_successes,
            measured_rate
        ),
        None => say!(
            out,
            "steals:   {} probes, {} hits — success rate {:.4}",
            outcome.stats.steal_attempts,
            outcome.stats.steal_successes,
            measured_rate
        ),
    }
    if outcome.stats.panics > 0 {
        say!(
            out,
            "warning:  {} task panic(s) isolated",
            outcome.stats.panics
        );
    }

    if obs.metrics_json.is_some() {
        let reg = Registry::new();
        reg.counter("exec.submitted").add(outcome.submitted);
        reg.counter("exec.completed").add(outcome.completed);
        reg.counter("exec.steal_attempts")
            .add(outcome.stats.steal_attempts);
        reg.counter("exec.steal_successes")
            .add(outcome.stats.steal_successes);
        reg.counter("exec.panics").add(outcome.stats.panics);
        reg.counter("exec.trace_events").add(
            counts.arrivals
                + counts.completions
                + counts.steal_attempts
                + counts.steal_successes
                + counts.migrations,
        );
        reg.gauge("exec.steal_success_rate").set(measured_rate);
        if let Some(pi2) = pi2 {
            reg.gauge("exec.predicted_pi2").set(pi2);
        }
        reg.gauge("exec.wall_secs").set(outcome.wall_secs);
        reg.gauge("exec.sleep_overshoot_us")
            .set(outcome.sleep_overshoot * 1e6);
        export_worker_gauges(&reg, &per_worker);
        if trace_lines > 0 {
            reg.counter("trace.lines").add(trace_lines);
        }
        export_spans(&reg);
        let mut m = manifest();
        m.seed = Some(cfg.seed);
        m.config("workers", cfg.workers)
            .config("lambda", cfg.lambda)
            .config("model", canonical.as_str())
            .config("horizon", cfg.horizon)
            .config("tau", cfg.tau);
        obs.emit(&m, &reg.snapshot())?;
    }
    Ok(())
}

/// `loadsteal report <trace.ndjson>` — reconstruct a timeline from a
/// trace and compare it against the mean-field prediction.
pub fn report(a: &Args) -> Result<(), String> {
    a.ensure_known(&["warmup", "lambda", "model", "input"])?;
    let (_, parsed) = read_trace(
        a,
        "report",
        "[--lossy] [--warmup T] [--model M] [--lambda λ]",
    )?;
    let warmup: f64 = a.get_or("warmup", 0.0)?;
    let tl = Timeline::build(
        &parsed.events,
        &TimelineConfig {
            warmup,
            ..TimelineConfig::default()
        },
    );

    // Mean-field comparison against --model, --lambda or the trace
    // header (see `trace_model_spec`), and otherwise the basic model at
    // the measured arrival rate. A spec with no mean-field equations or
    // an unstable rate simply drops the prediction columns.
    let spec = trace_model_spec(a, &parsed)?.or_else(|| {
        let l = tl.arrival_rate();
        (l > 0.0 && l < 1.0).then(|| ModelSpec::simple_ws(l))
    });
    let pred = spec.and_then(|s| {
        let fp = s.fixed_point().ok()?;
        let pi2 = fp.task_tails.get(2).copied().unwrap_or(0.0);
        Some(MeanFieldPrediction::new(
            s.lambda,
            pi2,
            fp.mean_time_in_system,
        ))
    });
    out!("{}", loadsteal_trace::render_report(&tl, pred.as_ref()));
    Ok(())
}

/// `loadsteal jobs <trace.ndjson|->` — reconstruct per-job causal
/// timelines from a `--trace-jobs` trace and print the sojourn
/// decomposition, migrated-vs-local comparison, and chain statistics.
pub fn jobs(a: &Args) -> Result<(), String> {
    a.ensure_known(&["warmup", "input"])?;
    let (_, parsed) = read_trace(a, "jobs", "[--lossy] [--warmup T]")?;
    let warmup: f64 = a.get_or("warmup", 0.0)?;
    let analysis = loadsteal_trace::JobAnalysis::build(&parsed.events, warmup);
    if analysis.arrived == 0 {
        eprintln!(
            "warning: trace contains no job_* events — was the run started with --trace-jobs?"
        );
    }
    out!("{}", loadsteal_trace::render_jobs(&analysis));
    Ok(())
}

/// First `TAIL_SAMPLE_DEPTH` tail levels of an `s₀`-based tail vector
/// (`row[0] = s₀ = 1`), zero-padded — the fixed-width layout the
/// tail-sample machinery uses.
fn tails8(row: &[f64]) -> [f64; TAIL_SAMPLE_DEPTH] {
    let mut out = [0.0f64; TAIL_SAMPLE_DEPTH];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = row.get(i + 1).copied().unwrap_or(0.0);
    }
    out
}

/// `loadsteal transient <trace.ndjson|->` — replay the `tail_sample`
/// stream of a `--sample-tails` trace against the mean-field ODE
/// trajectory integrated on the same grid: per-time residuals,
/// sup-norm deviation, empirical relaxation time, and drift events
/// outside the CI envelope.
pub fn transient(a: &Args) -> Result<(), String> {
    a.ensure_known(&[
        "input",
        "model",
        "lambda",
        "n",
        "depth",
        "epsilon",
        "metrics-json",
    ])?;
    let (path, parsed) = read_trace(
        a,
        "transient",
        "[--lossy] [--model M] [--lambda λ] [--n N] [--depth K] [--epsilon ε]",
    )?;

    let groups = transient::group_by_time(&transient::extract_samples(&parsed.events));
    let Some((dt, t_end)) = transient::grid_of(&groups) else {
        outln!("no tail samples in trace (run simulate with --sample-tails <dt>)");
        return Ok(());
    };

    // Unlike `report` there is no measured-rate fallback: the ODE side
    // *is* the analysis, so an unresolvable model is an error rather
    // than a dropped column.
    let spec = trace_model_spec(a, &parsed)?
        .ok_or("trace header carries no model; pass --model <spec> (or --lambda λ)")?;

    let model = spec
        .mean_field()
        .map_err(|e| format!("spec has no mean-field equations: {e}"))?;
    // Integrate past the last sample so float drift on the grid never
    // drops it; matching is by instant, so the extra headroom is inert.
    let ode = loadsteal_core::trajectory::sample_tails(
        &model,
        &model.empty_state(),
        t_end + 0.5 * dt,
        dt,
    )
    .map_err(|e| format!("ODE integration failed: {e}"))?;
    let fixed_point = spec.fixed_point().ok().map(|fp| fp.task_tails);

    let n: usize = match a.get::<usize>("n")? {
        Some(n) => n,
        None => parsed
            .header
            .as_ref()
            .and_then(|h| h.n)
            .map(|n| n as usize)
            .unwrap_or_else(|| {
                eprintln!("warning: trace header carries no n; envelope assumes --n 128");
                128
            }),
    };
    let mut opts = TransientOptions::new(n);
    opts.depth = a.get_or("depth", 0usize)?;
    opts.epsilon = a.get_or("epsilon", 0.02)?;
    let analysis = TransientAnalysis::from_groups(&groups, &ode, fixed_point.as_deref(), &opts);
    // Same split as `simulate --metrics-json -`: when the document goes
    // to stdout, the human narrative moves to stderr.
    if a.raw("metrics-json") == Some("-") {
        eprint!("{}", loadsteal_trace::render_transient(&analysis));
    } else {
        out!("{}", loadsteal_trace::render_transient(&analysis));
    }

    // The drift verdict doubles as a machine-readable document: the
    // same transient.* gauge names the live `serve` exposition uses.
    if let Some(out) = a.raw("metrics-json") {
        let reg = Registry::new();
        reg.counter("sim.tail_samples")
            .add(analysis.points.iter().map(|p| p.runs as u64).sum());
        reg.gauge("transient.residual_sup")
            .set(analysis.residual_sup);
        reg.gauge("transient.mean_abs_residual")
            .set(analysis.mean_abs_residual);
        reg.gauge("transient.relaxation_time")
            .set(analysis.relaxation_time.unwrap_or(f64::NAN));
        reg.gauge("transient.ode_settling_time")
            .set(analysis.ode_settling_time.unwrap_or(f64::NAN));
        reg.counter("transient.drift_events")
            .add(analysis.drift.len() as u64);
        for (i, sup) in analysis.per_tail_sup.iter().enumerate() {
            reg.gauge(&format!("transient.residual_s{}", i + 1))
                .set(*sup);
        }
        let mut m = manifest();
        m.config("trace", path)
            .config("model", spec.to_string().as_str())
            .config("n", n)
            .config("dt", dt)
            .config("epsilon", opts.epsilon);
        let doc = m.to_run_document(&reg.snapshot());
        if out == "-" {
            outln!("{doc}");
        } else {
            std::fs::write(out, format!("{doc}\n"))
                .map_err(|e| format!("--metrics-json: cannot write {out:?}: {e}"))?;
        }
    }
    Ok(())
}

/// `loadsteal models` — list every registry preset with its paper
/// section, fixed-point tail decay ratio `λ/(1+λ−π₂)`, and canonical
/// spec string (the shared `--model` grammar).
pub fn models(a: &Args) -> Result<(), String> {
    a.ensure_known(&["lambda"])?;
    let lambda = a.get::<f64>("lambda")?;
    outln!(
        "{:<17} {:<6} {:<12} {:>10}  spec",
        "name",
        "tier",
        "section",
        "tail ratio"
    );
    for p in ModelRegistry::standard().presets() {
        let spec = match lambda {
            Some(l) => p.spec.clone().with_lambda(l),
            None => p.spec.clone(),
        };
        // The paper's asymptotic tail decay ratio λ/(1+λ−π₂), with π₂
        // read off the solved fixed point.
        let ratio = spec
            .fixed_point()
            .ok()
            .map(|fp| {
                let pi2 = fp.task_tails.get(2).copied().unwrap_or(0.0);
                format!("{:.4}", spec.lambda / (1.0 + spec.lambda - pi2))
            })
            .unwrap_or_else(|| "—".into());
        let tier = match p.tier {
            PresetTier::Quick => "quick",
            PresetTier::Full => "full",
        };
        outln!(
            "{:<17} {:<6} {:<12} {:>10}  {}",
            p.name,
            tier,
            p.section,
            ratio,
            spec
        );
    }
    Ok(())
}

/// `loadsteal verify [--quick|--full]` — run the statistical
/// verification harness across the model zoo and print its pass/fail
/// table. Exits nonzero (via `Err`) when any check fails, so CI can
/// gate on it directly.
pub fn verify(a: &Args) -> Result<(), String> {
    a.ensure_known(&["seed", "filter"])?;
    if a.switch("quick") && a.switch("full") {
        return Err("pass at most one of --quick / --full".into());
    }
    let seed: u64 = a.get_or("seed", 42)?;
    let settings = if a.switch("full") {
        loadsteal_verify::Settings::full(seed)
    } else {
        loadsteal_verify::Settings::quick(seed)
    };
    let filter = a.raw("filter");
    outln!(
        "verify: {} tier, seed {seed}, n = {}, {} runs × {} s per differential check",
        if a.switch("full") { "full" } else { "quick" },
        settings.n,
        settings.runs,
        settings.horizon,
    );
    let report = loadsteal_verify::run(&settings, filter);
    if report.results.is_empty() {
        return Err(format!(
            "no checks match filter {:?}",
            filter.unwrap_or_default()
        ));
    }
    out!("{}", report.render());
    if report.passed() {
        Ok(())
    } else {
        Err(format!(
            "{} verification check(s) failed",
            report.failures()
        ))
    }
}

/// `loadsteal serve` — run a simulation while exposing its live metrics
/// registry as a Prometheus scrape endpoint. With `--scrapes N` the
/// process exits after serving N requests (the workload is abandoned if
/// still running); otherwise it serves until the simulation finishes.
pub fn serve(a: &Args) -> Result<(), String> {
    let mut known = SIM_FLAGS.to_vec();
    known.extend_from_slice(&["prom-addr", "scrapes"]);
    a.ensure_known(&known)?;
    let addr = a.raw("prom-addr").unwrap_or("127.0.0.1:9464");
    let scrapes: u64 = a.get_or("scrapes", 0)?;
    let spec = model_spec(a)?;
    let mut cfg = sim_config(a, &spec)?;
    cfg.sojourn_digest = true;
    // With --trace-jobs the registry recorder also maintains the
    // job.* lifecycle counters in the scrape.
    cfg.trace_jobs = a.switch("trace-jobs");
    let runs = runs_flag(a, 1)?;
    let seed: u64 = a.get_or("seed", 42)?;

    let registry = std::sync::Arc::new(Registry::new());
    let mut reg_rec = RegistryRecorder::new(registry.clone());
    // With --sample-tails the scrape also carries live drift: the ODE
    // trajectory is integrated up front on the sampling grid and every
    // tail sample is compared against it as it lands.
    if let Some(dt) = cfg.sample_tails {
        match spec.mean_field() {
            Ok(model) => {
                let traj = loadsteal_core::trajectory::sample_tails(
                    &model,
                    &model.empty_state(),
                    cfg.horizon + 0.5 * dt,
                    dt,
                )
                .map_err(|e| format!("--sample-tails: ODE reference failed: {e}"))?;
                let grid = traj.iter().map(|(t, row)| (*t, tails8(row))).collect();
                let fixed_point = spec
                    .fixed_point()
                    .map(|fp| tails8(&fp.task_tails))
                    .unwrap_or([0.0; TAIL_SAMPLE_DEPTH]);
                reg_rec = reg_rec.with_tail_reference(TailReference {
                    grid,
                    fixed_point,
                    epsilon: 0.02,
                });
            }
            Err(e) => loadsteal_obs::debug!("no transient reference for this spec: {e}"),
        }
    }
    let worker = {
        let cfg = cfg.clone();
        std::thread::spawn(move || {
            let result = replicate_recorded(&cfg, runs, seed, &mut reg_rec);
            if let Some(d) = result.merged_sojourn_digest() {
                reg_rec.registry().sketch("sim.sojourn_time").merge_from(&d);
            }
        })
    };

    serve_metrics(addr, scrapes, &registry, || worker.is_finished())?;
    if worker.is_finished() {
        worker
            .join()
            .map_err(|_| "simulation worker panicked".to_string())?;
    }
    Ok(())
}

/// The scrape loop behind `loadsteal serve`, minimal by design: bind a
/// `std::net::TcpListener`, announce the bound address on stdout (the
/// machine-readable contract line), then answer every GET, one request
/// per connection, with the registry in Prometheus text format 0.0.4.
/// It ends after `scrapes` requests, or once `done()` when `scrapes`
/// is 0.
fn serve_metrics(
    addr: &str,
    scrapes: u64,
    registry: &Registry,
    done: impl Fn() -> bool,
) -> Result<(), String> {
    use std::io::{Read as _, Write as _};

    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| format!("--prom-addr: cannot bind {addr:?}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("--prom-addr: {e}"))?;
    // The bound address line is a contract: with `--prom-addr host:0`
    // it is the only way callers learn the chosen port. Flush past any
    // pipe buffering.
    outln!("serving Prometheus metrics at http://{local}/metrics");
    stdout::flush();
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("--prom-addr: {e}"))?;

    let mut served = 0u64;
    loop {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(2)));
                // Drain the request head; the path is irrelevant —
                // every GET gets the exposition.
                let mut buf = [0u8; 1024];
                let mut head = Vec::new();
                while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                    match stream.read(&mut buf) {
                        Ok(0) => break,
                        Ok(k) => head.extend_from_slice(&buf[..k]),
                        Err(_) => break,
                    }
                    if head.len() > 64 * 1024 {
                        break;
                    }
                }
                let body = prometheus_text(&registry.snapshot(), "loadsteal");
                let resp = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    body
                );
                let _ = stream.write_all(resp.as_bytes());
                let _ = stream.flush();
                served += 1;
                if scrapes > 0 && served >= scrapes {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if scrapes == 0 && done() {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => return Err(format!("accept failed: {e}")),
        }
    }
    Ok(())
}

/// Mirror a per-worker executor snapshot into `exec.worker.<i>.*`
/// gauges (deque/inbox depth, steals, parks, …) — the per-worker rows
/// of the `stealbench --metrics-json` run document.
fn export_worker_gauges(reg: &Registry, per_worker: &[loadsteal_exec::WorkerStats]) {
    for (i, w) in per_worker.iter().enumerate() {
        reg.gauge(&format!("exec.worker.{i}.deque_depth"))
            .set(w.queue_depth as f64);
        reg.gauge(&format!("exec.worker.{i}.inbox_depth"))
            .set(w.inbox_depth as f64);
        reg.gauge(&format!("exec.worker.{i}.executed"))
            .set(w.executed as f64);
        reg.gauge(&format!("exec.worker.{i}.steal_attempts"))
            .set(w.steal_attempts as f64);
        reg.gauge(&format!("exec.worker.{i}.steals"))
            .set(w.steal_successes as f64);
        reg.gauge(&format!("exec.worker.{i}.parks"))
            .set(w.parks as f64);
        reg.gauge(&format!("exec.worker.{i}.busy"))
            .set(if w.busy { 1.0 } else { 0.0 });
    }
}

/// Mirror the live span aggregates into a metrics registry (counter
/// `span.<path>.calls`, gauge `span.<path>.self_us`, duration sketch
/// `span.<path>.us`) so profiled runs carry them through the run
/// document and Prometheus exposition. A no-op when profiling is off.
fn export_spans(reg: &Registry) {
    if loadsteal_obs::span::enabled() {
        loadsteal_obs::span::export_to_registry(reg, &loadsteal_obs::span::snapshot());
    }
}

/// Write the `--profile <out>` export: folded stacks (inferno /
/// flamegraph.pl) when the path ends in `.folded`, Chrome trace-event
/// JSON (chrome://tracing, Perfetto) otherwise.
pub fn write_profile(path: &str, report: &loadsteal_obs::ProfileReport) -> Result<(), String> {
    let body = if path.ends_with(".folded") {
        report.folded()
    } else {
        let mut t = report.chrome_trace();
        t.push('\n');
        t
    };
    std::fs::write(path, body).map_err(|e| format!("--profile: cannot write {path:?}: {e}"))
}

/// Render the `loadsteal profile` report: top spans by self time, a
/// per-thread self-time decomposition when more than one thread
/// recorded (concurrent workers make the global sum exceed wall —
/// it is CPU time, not wall time), then simulator events/sec per
/// instrumented phase.
pub fn render_profile(report: &loadsteal_obs::ProfileReport, wall_ms: f64) -> String {
    const TOP: usize = 20;
    let mut out = String::new();
    let self_ms = report.total_self_us() / 1_000.0;
    let pct = if wall_ms > 0.0 {
        100.0 * self_ms / wall_ms
    } else {
        0.0
    };
    let threads = report.thread_spans.len();
    if threads > 1 {
        out.push_str(&format!(
            "PROFILE  wall {wall_ms:.1} ms, span self-time total {self_ms:.1} ms of CPU across {threads} threads ({pct:.1}% of wall; per-thread below)\n",
        ));
    } else {
        out.push_str(&format!(
            "PROFILE  wall {wall_ms:.1} ms, span self-time total {self_ms:.1} ms ({pct:.1}% of wall)\n",
        ));
    }
    let mut spans: Vec<_> = report.spans.iter().collect();
    spans.sort_by(|a, b| b.self_us.total_cmp(&a.self_us));
    let path_w = spans
        .iter()
        .take(TOP)
        .map(|s| s.path.len())
        .max()
        .unwrap_or(4)
        .max(4);
    out.push_str(&format!(
        "{:<path_w$}  {:>9}  {:>11}  {:>11}  {:>6}  {:>10}  {:>10}\n",
        "SPAN", "CALLS", "TOTAL ms", "SELF ms", "SELF%", "P50 us", "P99 us",
    ));
    for s in spans.iter().take(TOP) {
        let self_pct = if self_ms > 0.0 {
            100.0 * (s.self_us / 1_000.0) / self_ms
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<path_w$}  {:>9}  {:>11.2}  {:>11.2}  {:>5.1}%  {:>10.1}  {:>10.1}\n",
            s.path,
            s.count,
            s.total_us / 1_000.0,
            s.self_us / 1_000.0,
            self_pct,
            s.p50_us(),
            s.p99_us(),
        ));
    }
    if spans.len() > TOP {
        out.push_str(&format!("… and {} more spans\n", spans.len() - TOP));
    }
    // Per-worker self time: each row is one thread's CPU time inside
    // spans, which is what can be compared against wall (the global
    // sum above double-counts concurrency).
    if threads > 1 {
        out.push_str("\nTHREADS (self-time by recording thread)\n");
        let name_w = report
            .thread_spans
            .iter()
            .map(|t| t.name.len())
            .max()
            .unwrap_or(6)
            .max(6);
        out.push_str(&format!(
            "{:<name_w$}  {:>9}  {:>11}  {:>6}  HOTTEST SPAN\n",
            "THREAD", "SPANS", "SELF ms", "WALL%",
        ));
        for t in &report.thread_spans {
            let t_self_ms = t.self_us() / 1_000.0;
            let t_pct = if wall_ms > 0.0 {
                100.0 * t_self_ms / wall_ms
            } else {
                0.0
            };
            let hottest = t.hottest().map(|s| s.path.as_str()).unwrap_or("—");
            out.push_str(&format!(
                "{:<name_w$}  {:>9}  {:>11.2}  {:>5.1}%  {hottest}\n",
                t.name,
                t.count(),
                t_self_ms,
                t_pct,
            ));
        }
    }
    // Simulator phase throughput: span count = events of that kind, so
    // count / total-time is the per-phase processing rate.
    const SIM_PHASES: &[&str] = &[
        "sim.arrival",
        "sim.completion",
        "sim.steal_attempt",
        "sim.rebalance",
        "sim.transfer",
        "sim.heartbeat",
    ];
    let mut phases: Vec<_> = report
        .spans
        .iter()
        .filter(|s| SIM_PHASES.contains(&s.name()) && s.total_us > 0.0)
        .collect();
    if !phases.is_empty() {
        phases.sort_by_key(|s| std::cmp::Reverse(s.count));
        out.push_str("\nSIM PHASES (events/sec of span time)\n");
        for s in &phases {
            out.push_str(&format!(
                "{:<path_w$}  {:>9}  {:>14.0} ev/s\n",
                s.path,
                s.count,
                s.count as f64 / (s.total_us / 1e6),
            ));
        }
    }
    if report.dropped_instances > 0 {
        out.push_str(&format!(
            "\nnote: {} span instances beyond the {} retained cap were dropped from the\nChrome trace export (aggregates above still include them)\n",
            report.dropped_instances,
            loadsteal_obs::span::MAX_INSTANCES,
        ));
    }
    out
}
