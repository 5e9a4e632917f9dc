//! `loadsteal` — command-line interface to the mean-field work-stealing
//! models (Mitzenmacher, SPAA 1998) and the companion simulator.
//!
//! ```text
//! loadsteal solve    --model simple-ws --lambda 0.9
//! loadsteal solve    --model "general,T=4,k=2" --lambda 0.9
//! loadsteal tails    --model threshold --lambda 0.9 --levels 12
//! loadsteal simulate --n 128 --model simple-ws --lambda 0.9 --runs 5
//! loadsteal stability --lambda 0.9
//! loadsteal drain    --initial 20 --n 128
//! ```

mod args;
mod commands;
mod obs;
mod stdout;
mod top;

use std::process::ExitCode;

use stdout::{out, outln};

/// Value-less boolean flags, recognized by every subcommand.
const SWITCHES: &[&str] = &[
    "quiet",
    "lossy",
    "quick",
    "full",
    "flight-recorder",
    "trace-jobs",
    "once",
];

/// Commands that take a positional operand (everything else rejects
/// bare arguments, preserving early typo detection).
const POSITIONAL_COMMANDS: &[&str] = &["report", "jobs", "transient"];

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(mut cmd) = argv.next() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `loadsteal profile <command> [flags]`: run the wrapped command
    // under the span profiler and print a self-time report afterwards.
    let mut profile_report = false;
    if cmd == "profile" {
        match argv.next() {
            Some(inner) if inner != "profile" => {
                profile_report = true;
                cmd = inner;
            }
            _ => {
                eprintln!("error: usage: loadsteal profile <command> [flags]\n\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut parsed = match args::Args::parse(argv, SWITCHES).and_then(|a| {
        if !POSITIONAL_COMMANDS.contains(&cmd.as_str()) {
            a.ensure_no_positionals()?;
        }
        Ok(a)
    }) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Cross-cutting observability flags, valid on every subcommand:
    // `--profile <out>` exports the span profile, `--flight-recorder`
    // arms the crash-dump ring.
    let profile_out = parsed.take("profile");
    // `--flight-dir` redirects crash dumps (flag > LOADSTEAL_FLIGHT_DIR
    // env > working directory); taken even without --flight-recorder so
    // it is never an unknown-flag error.
    let flight_dir = parsed.take("flight-dir");
    if flight_dir.is_some() {
        loadsteal_obs::flight::set_dump_dir(flight_dir);
    }
    if parsed.switch("flight-recorder") {
        loadsteal_obs::flight::install(loadsteal_obs::flight::DEFAULT_CAPACITY);
    }
    let profiling = profile_report || profile_out.is_some();
    if profiling {
        loadsteal_obs::span::set_enabled(true);
    }
    if parsed.switch("quiet") {
        loadsteal_obs::log::set_quiet(true);
    }
    let wall = std::time::Instant::now();
    let (result, wall_ms) = {
        // Root span over command dispatch, so profiled self-times sum
        // to the command's wall time.
        let _root = profiling.then(|| loadsteal_obs::span::span_dyn(format!("cli.{cmd}")));
        let r = match cmd.as_str() {
            "solve" => commands::solve(&parsed),
            "tails" => commands::tails(&parsed),
            "models" => commands::models(&parsed),
            "simulate" => commands::simulate(&parsed),
            "stability" => commands::stability(&parsed),
            "converge" => commands::converge(&parsed),
            "drain" => commands::drain(&parsed),
            "stealbench" => commands::stealbench(&parsed),
            "report" => commands::report(&parsed),
            "jobs" => commands::jobs(&parsed),
            "transient" => commands::transient(&parsed),
            "serve" => commands::serve(&parsed),
            "top" => top::top(&parsed),
            "verify" => commands::verify(&parsed),
            "help" | "--help" | "-h" => {
                outln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
        };
        // Wall is read before the root span's drop flushes thread-local
        // profiles to the global table, so the report's coverage line
        // compares span self-time against dispatch time alone, not
        // dispatch plus profile-merge/snapshot cost.
        (r, wall.elapsed().as_secs_f64() * 1_000.0)
    };
    if profiling {
        let report = loadsteal_obs::span::snapshot();
        if let Some(path) = &profile_out {
            if let Err(e) = commands::write_profile(path, &report) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        if profile_report {
            out!("{}", commands::render_profile(&report, wall_ms));
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
loadsteal — mean-field analyses of load stealing (Mitzenmacher, SPAA 1998)

USAGE:
  loadsteal models [--lambda <λ>]
      List the model-registry presets with their paper sections,
      fixed-point tail ratios λ/(1+λ−π₂), and canonical spec strings.
  loadsteal solve [--model <MODEL>] [--lambda <λ>]
      Fixed point and metrics of a mean-field model.
  loadsteal tails [--model <MODEL>] [--lambda <λ>] [--levels N]
      Print the fixed-point occupancy tails s_i.
  loadsteal simulate [--model <MODEL>] [--lambda <λ>] [--n N] [sim flags]
      Discrete-event simulation of the finite system (--n defaults to
      128, the paper's largest simulated size).
  loadsteal stability --lambda <λ> [--t-max T]
      L1-contraction check towards the fixed point (Section 4).
  loadsteal converge [--model <MODEL>] [--lambda <λ>] [--n-min N] [--n-max N] [sim flags]
      Finite-size convergence rate: sweep n over a geometric grid
      (default 128..2048), measure the stationary tail error against
      the mean-field fixed point, and fit the log-log slope — Θ(1/n)
      means a slope near −1. Prints a grep-able `convergence slope:`
      line; --metrics-json exports converge.* gauges.
  loadsteal drain --initial <m0> [--n N] [--internal λint]
      Static-system drain: mean-field vs simulated makespan.
  loadsteal stealbench [--workers N] [--lambda <λ>] [--horizon T] [--tau-ms ms] [--seed S]
      Drive the real work-stealing thread pool (Chase–Lev deques, one
      steal probe per transition-to-empty) with a Poisson(λ) task
      stream per worker and Exp(1) service times, τ wall-milliseconds
      per model time unit. Prints the measured steal success rate
      against the fixed point's π₂; with --trace the pool emits
      loadsteal.trace.v1 events, so the measured trace pipes straight
      into `loadsteal report -`.
  loadsteal report <trace.ndjson|-> [--lossy] [--warmup T] [--model M] [--lambda λ]
      Reconstruct a timeline from an NDJSON trace and compare the
      measured statistics against the mean-field prediction. The model
      is resolved from the trace's header line when neither --model nor
      --lambda is given. `-` reads from stdin, piping from
      `simulate --trace -` or `stealbench --trace -`.
  loadsteal jobs <trace.ndjson|-> [--lossy] [--warmup T]
      Reconstruct per-job causal timelines from a `--trace-jobs` trace:
      sojourn decomposition (queue wait + transfer + service),
      migrated-vs-local sojourn percentiles, and migration-chain
      statistics. `-` reads the trace from stdin, so it pipes directly
      from `simulate --trace-jobs --trace -`.
  loadsteal transient <trace.ndjson|-> [--lossy] [--model M] [--lambda λ] [--n N] [--epsilon ε]
      Replay the `tail_sample` stream of a `--sample-tails` trace
      against the mean-field ODE trajectory integrated on the same
      grid: per-time residuals, sup-norm deviation ‖ŝ−s‖∞, empirical
      relaxation time, and drift events outside the CI envelope. `-`
      reads from stdin, piping from `simulate --sample-tails Δ --trace -`.
  loadsteal serve --prom-addr <host:port> [--model <MODEL>] [--lambda <λ>] [--n N] [sim flags]
      Run a simulation while serving its live metrics registry in
      Prometheus text format (`--prom-addr host:0` picks a free port;
      `--scrapes N` exits after N scrapes).
  loadsteal top [--workers N --lambda <λ> --horizon T --tau-ms ms --seed S]
                [--interval ms] [--once]
      Live dashboard over the work-stealing executor: per-worker deque
      and inbox depth, steal probes/hits, parks, events/sec, and the
      measured per-worker λ̂. It runs the stealbench workload
      in-process and polls the pool's lock-free per-worker counters.
      --once prints a single plain frame and exits (CI smoke).
  loadsteal profile <command> [flags]
      Run any subcommand under the hierarchical span profiler and print
      a self-time table (top spans by self time, simulator events/sec
      per phase). Combine with --profile <out> to also export the
      spans.
  loadsteal verify [--quick|--full] [--seed S] [--filter SUBSTR]
      Statistical verification harness: differential (simulation vs
      mean-field fixed point across the model zoo), metamorphic,
      convergence-order, and seed-replay checks. --quick (default) is
      CI-sized; --full re-simulates the paper's Table 1-4 grids.
      Exits nonzero if any check fails.

MODELS (--model, shared by solve/tails/simulate/converge/serve/report/transient):
  A registry preset name (see `loadsteal models`), optionally followed
  by comma-separated key=value overrides, or a bare spec. Without
  --model, solve/tails/simulate/converge/serve run simple-ws:
      --model simple-ws
      --model \"threshold-erlang,lambda=0.9\"
      --model \"lambda=0.85,policy=steal,T=4,d=2,k=1,service=erlang:10\"
  Keys: lambda, policy (none|steal|preemptive|repeated|rebalance|share),
  T, d, k, B, r, per-task, send, recv, service (exp|det|erlang:<c>|
  hyper:<p>:<r1>:<r2>), arrival (poisson|erlang:<c>), transfer,
  speeds (homogeneous|classes:<frac>:<fast>:<slow>). Last key wins, so
  `--lambda` composes with presets as an override.

SIM FLAGS (simulate, converge and serve):
  --runs R, --horizon T, --warmup T, --seed S; simulate and serve also
  take --n N, --internal λint, --heartbeat-every K, --sample-tails Δt

OBSERVABILITY (solve and simulate; --profile and --flight-recorder work
on every subcommand):
  --trace <file.ndjson|->   stream every solver/simulator event as NDJSON;
                            `-` writes to stdout (narrative moves to stderr)
  --trace-jobs              (simulate) add per-job lifecycle events
                            (job_arrival/job_migrate/job_service_start/
                            job_completion) to the trace and job.* counters
                            to the metrics; analyse with `loadsteal jobs`
  --sample-tails <Δt>       (simulate/serve) emit a tail_sample event with
                            the empirical tail vector ŝ₁..ŝ₈ every Δt
                            simulated seconds; analyse with `loadsteal
                            transient`, or scrape live sim.tail_s<i> and
                            transient.residual_* gauges from `serve`
  --metrics-json <file|->   write the loadsteal.run.v1 document (manifest
                            + metrics, including sojourn-time quantile
                            sketches); `-` prints to stdout likewise
  --profile <out>           export the hierarchical span profile: Chrome
                            trace-event JSON (chrome://tracing, Perfetto)
                            by default, folded stacks for inferno /
                            flamegraph.pl when the path ends in .folded
  --flight-recorder         keep a fixed-capacity ring of recent events;
                            a panic dumps it to loadsteal-crash-<pid>.ndjson
  --flight-dir <dir>        directory for flight-recorder crash dumps
                            (default: $LOADSTEAL_FLIGHT_DIR, then the
                            working directory)
  --heartbeat-every <K>     simulator heartbeat cadence in events
                            (default 65536; 0 disables)
  --quiet                   silence the human narrative entirely
  LOADSTEAL_LOG=off|info|debug   stderr diagnostics filter (default info)
";
