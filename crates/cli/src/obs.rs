//! CLI-side observability plumbing: the composite recorder behind
//! `--trace` / `--metrics-json`, narrative output routing, and run
//! document emission.

use std::fs::File;
use std::io::{BufWriter, Write};

use loadsteal_obs::log::{level_enabled, Level};
use loadsteal_obs::{
    CountingRecorder, Event, EventCounts, MetricsReport, NdjsonRecorder, Recorder, RunManifest,
};

use crate::args::Args;
use crate::stdout::outln;

/// Flags handled by this module; commands append them to their own
/// known-flag lists.
pub const OBS_FLAGS: &[&str] = &["trace", "metrics-json"];

/// Observability options parsed from the command line.
#[derive(Debug, Clone, Default)]
pub struct ObsOpts {
    /// `--trace <file.ndjson|->`: stream every event as NDJSON (`-`
    /// writes to stdout and moves the narrative to stderr).
    pub trace: Option<String>,
    /// `--metrics-json <file|->`: emit the `loadsteal.run.v1` document.
    pub metrics_json: Option<String>,
}

impl ObsOpts {
    /// Read the observability flags from parsed arguments. Errors when
    /// both machine-readable streams claim stdout.
    pub fn from_args(a: &Args) -> Result<Self, String> {
        let opts = Self {
            trace: a.raw("trace").map(str::to_owned),
            metrics_json: a.raw("metrics-json").map(str::to_owned),
        };
        if opts.trace_on_stdout() && opts.json_on_stdout() {
            return Err(
                "--trace - and --metrics-json - both want stdout; send one to a file".into(),
            );
        }
        Ok(opts)
    }

    /// Whether the metrics document goes to stdout.
    pub fn json_on_stdout(&self) -> bool {
        self.metrics_json.as_deref() == Some("-")
    }

    /// Whether the NDJSON trace goes to stdout.
    pub fn trace_on_stdout(&self) -> bool {
        self.trace.as_deref() == Some("-")
    }

    /// Whether stdout carries a machine-readable stream — which moves
    /// the human narrative to stderr so stdout stays parseable.
    pub fn machine_stdout(&self) -> bool {
        self.json_on_stdout() || self.trace_on_stdout()
    }

    /// Build the recorder for this invocation. Disabled (and therefore
    /// free for the instrumented hot loops) when neither output was
    /// requested and the flight recorder is disarmed.
    pub fn recorder(&self) -> Result<CliRecorder, String> {
        let trace = match self.trace.as_deref() {
            None => None,
            Some("-") => {
                let w: Box<dyn Write + Send> = Box::new(std::io::stdout());
                Some(NdjsonRecorder::new(w))
            }
            Some(path) => {
                let f = File::create(path)
                    .map_err(|e| format!("--trace: cannot create {path:?}: {e}"))?;
                let w: Box<dyn Write + Send> = Box::new(BufWriter::new(f));
                Some(NdjsonRecorder::new(w))
            }
        };
        // Hidden fault-injection hook for the crash-dump test suite:
        // panic after N recorded events, mid-simulation, so the flight
        // recorder's panic hook can be exercised from a child process.
        let panic_after = std::env::var("LOADSTEAL_PANIC_AFTER_EVENTS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok());
        Ok(CliRecorder {
            counts: CountingRecorder::new(),
            metrics_wanted: self.metrics_json.is_some(),
            trace,
            flight: loadsteal_obs::flight::active(),
            panic_after,
            recorded: 0,
        })
    }

    /// Write the finished run document to the chosen destination.
    pub fn emit(&self, manifest: &RunManifest, report: &MetricsReport) -> Result<(), String> {
        let Some(dest) = &self.metrics_json else {
            return Ok(());
        };
        let doc = manifest.to_run_document(report);
        if dest == "-" {
            outln!("{doc}");
            Ok(())
        } else {
            std::fs::write(dest, format!("{doc}\n"))
                .map_err(|e| format!("--metrics-json: cannot write {dest:?}: {e}"))
        }
    }
}

/// Counts every event (feeding the metrics report), optionally tees it
/// to an NDJSON trace destination (file or stdout), and feeds the
/// flight-recorder ring when `--flight-recorder` armed it.
pub struct CliRecorder {
    counts: CountingRecorder,
    metrics_wanted: bool,
    trace: Option<NdjsonRecorder<Box<dyn Write + Send>>>,
    flight: bool,
    /// `LOADSTEAL_PANIC_AFTER_EVENTS` fault injection (tests only).
    panic_after: Option<u64>,
    recorded: u64,
}

impl CliRecorder {
    /// Write the trace's self-describing header line (and remember it
    /// for crash dumps when the flight recorder is armed). A no-op
    /// without `--trace` or `--flight-recorder`, so commands call it
    /// unconditionally before their first event.
    pub fn write_header(&mut self, header: &loadsteal_obs::TraceHeader) {
        if let Some(t) = &mut self.trace {
            t.write_line(&header.to_json_line());
        }
        if self.flight {
            loadsteal_obs::flight::set_header(header.to_json_line());
        }
    }

    /// Flush the trace, surface any deferred I/O error, and return the
    /// tallies plus the number of trace lines written. When the span
    /// profiler is live, per-span summary records are appended to the
    /// trace first (`{"ev":"span",…}` — see docs/trace-schema.md).
    pub fn finish(mut self) -> Result<(EventCounts, u64), String> {
        let mut lines = 0;
        if let Some(mut t) = self.trace.take() {
            if loadsteal_obs::span::enabled() {
                for rec in loadsteal_obs::span::snapshot().to_records() {
                    t.write_line(&rec.to_json_line());
                }
            }
            lines = t.lines();
            let (_, err) = t.into_inner();
            if let Some(e) = err {
                return Err(format!("--trace: write failed: {e}"));
            }
        }
        Ok((self.counts.counts(), lines))
    }
}

impl Recorder for CliRecorder {
    fn enabled(&self) -> bool {
        self.metrics_wanted || self.trace.is_some() || self.flight
    }

    fn record(&mut self, ev: &Event) {
        self.counts.record(ev);
        if let Some(t) = &mut self.trace {
            t.record(ev);
        }
        if self.flight {
            loadsteal_obs::flight::record(ev);
        }
        if let Some(n) = self.panic_after {
            self.recorded += 1;
            if self.recorded >= n {
                panic!("injected crash after {n} recorded events (LOADSTEAL_PANIC_AFTER_EVENTS)");
            }
        }
    }

    fn flush(&mut self) {
        if let Some(t) = &mut self.trace {
            Recorder::flush(t);
        }
    }
}

/// Routes the human-readable narrative: stdout normally, stderr when
/// stdout carries the JSON document, nowhere under `--quiet` (or
/// `LOADSTEAL_LOG=off`).
#[derive(Debug, Clone, Copy)]
pub struct Narrator {
    to_stderr: bool,
}

impl Narrator {
    /// A narrator that diverts to stderr when `json_on_stdout` is set.
    pub fn new(json_on_stdout: bool) -> Self {
        Self {
            to_stderr: json_on_stdout,
        }
    }

    /// Print one narrative line (subject to the quiet/level filter).
    pub fn say(&self, args: std::fmt::Arguments<'_>) {
        if !level_enabled(Level::Info) {
            return;
        }
        if self.to_stderr {
            eprintln!("{args}");
        } else {
            outln!("{args}");
        }
    }
}

/// `println!`-style narrative line through a [`Narrator`].
macro_rules! say {
    ($n:expr, $($t:tt)*) => { $n.say(format_args!($($t)*)) };
}
pub(crate) use say;

/// Start a run manifest stamped with the crate version, the git
/// revision (when built from a checkout), and the reconstructed
/// command line.
pub fn manifest() -> RunManifest {
    let command: Vec<String> = std::env::args().skip(1).collect();
    let mut m = RunManifest::new(env!("CARGO_PKG_VERSION"), &command.join(" "));
    let rev = env!("LOADSTEAL_GIT_REV");
    if !rev.is_empty() {
        m.git = Some(rev.to_owned());
    }
    m
}
