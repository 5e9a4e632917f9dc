//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit, then, as the last line of
//! standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when any output check
//! failed and 2 on a usage or set-up error. Each run also writes its
//! provenance, all metrics and (traced) its spans to
//! `perfbench-runs/<workload>-seed<n>-trace<t>.json` beside the binary.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use loadsteal_perfbench::measure::provenance;
use loadsteal_perfbench::workloads::NAMES;
use loadsteal_perfbench::{json_num, json_str, metrics_json, run_workload, Options, Outcome};

const USAGE: &str = "usage: perfbench --workload <sim-paper|sim-large|solve-zoo|trace-pipe|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    opts: Options,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    Ok(Args { workload, opts })
}

fn print_outcome(o: &Outcome, opts: &Options) {
    println!(
        "== {} (seed {}, {} s, trace {})",
        o.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    for m in o.metrics.iter().chain(&o.details) {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  checks: {} items, {} failed",
        o.checks.attempted, o.checks.failed
    );
    for f in &o.checks.failures {
        println!("  FAILED {f}");
    }
}

/// Provenance, checks, every metric and the spans, beside the binary.
fn write_record(o: &Outcome, opts: &Options, prov: &[(&str, String)]) -> std::io::Result<PathBuf> {
    let dir = std::env::current_exe()?
        .parent()
        .map(|p| p.join("perfbench-runs"))
        .ok_or_else(|| std::io::Error::other("binary has no directory"))?;
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        o.workload,
        opts.seed,
        u8::from(opts.trace)
    ));
    let prov: Vec<String> = prov
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let failures: Vec<String> = o.checks.failures.iter().map(|f| json_str(f)).collect();
    let spans: Vec<String> = o
        .spans
        .iter()
        .map(|s| {
            format!(
                "{{\"id\": {}, \"parent\": {}, \"layer\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"thread\": {}}}",
                s.id,
                s.parent.map_or("null".into(), |p| p.to_string()),
                json_str(s.layer),
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.thread
            )
        })
        .collect();
    let body = format!(
        "{{\"workload\": {}, \"seconds\": {}, \"trace\": {}, \"provenance\": {{{}}}, \
         \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"metrics\": {}, \
         \"details\": {}, \"spans\": [{}]}}\n",
        json_str(o.workload),
        json_num(opts.seconds),
        opts.trace,
        prov.join(", "),
        o.checks.attempted,
        o.checks.failed,
        failures.join(", "),
        metrics_json(&o.metrics, ""),
        metrics_json(&o.details, ""),
        spans.join(",\n")
    );
    let mut f = std::fs::File::create(&path)?;
    f.write_all(body.as_bytes())?;
    f.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let prov = provenance(args.opts.seed);
    println!(
        "provenance: {}",
        prov.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    let mut outcomes = Vec::new();
    for name in names {
        let o = match run_workload(name, &args.opts) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::from(2);
            }
        };
        print_outcome(&o, &args.opts);
        match write_record(&o, &args.opts, &prov) {
            Ok(p) => eprintln!("record: {}", p.display()),
            Err(e) => eprintln!("warning: run record not written: {e}"),
        }
        outcomes.push(o);
    }

    let attempted: u64 = outcomes.iter().map(|o| o.checks.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.checks.failed).sum();
    let metrics = if let [o] = outcomes.as_slice() {
        metrics_json(&o.metrics, "")
    } else {
        let parts: Vec<String> = outcomes
            .iter()
            .map(|o| {
                let m = metrics_json(&o.metrics, &format!("{}/", o.workload));
                m[1..m.len() - 1].to_owned()
            })
            .collect();
        format!("{{{}}}", parts.join(", "))
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
