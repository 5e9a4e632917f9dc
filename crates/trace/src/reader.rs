//! NDJSON trace parsing: `--trace` output back into typed
//! [`Event`]s.
//!
//! The wire format is one JSON object per line with a `"ev"` field
//! naming the event type; field elision follows the writer exactly
//! (`count` omitted when 1, `src` omitted for non-migrations, and
//! non-finite floats rendered as `null`). Two modes:
//!
//! * [`ReadMode::Strict`] — the first malformed line aborts with a
//!   [`TraceError`] carrying 1-based line and column numbers. Every
//!   line the writer can produce parses in this mode.
//! * [`ReadMode::Lossy`] — malformed lines are skipped and collected as
//!   [`TraceDiagnostic`]s, so a truncated or concatenated trace still
//!   yields its parseable prefix/suffix.

use loadsteal_obs::json::{parse, JsonValue};
use loadsteal_obs::{
    Event, JobEventKind, PanicRecord, SimEventKind, SpanRecord, TraceHeader, TAIL_SAMPLE_DEPTH,
    TRACE_SCHEMA,
};

/// How to treat malformed lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// Fail on the first malformed line.
    Strict,
    /// Skip malformed lines, collecting diagnostics.
    Lossy,
}

/// A fatal parse failure (strict mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// 1-based byte column within the line where parsing failed (best
    /// effort: 1 for semantic errors that concern the whole line).
    pub column: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line {}, column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for TraceError {}

/// A skipped line (lossy mode): same shape as [`TraceError`] but
/// non-fatal.
pub type TraceDiagnostic = TraceError;

/// The outcome of reading a trace.
#[derive(Debug, Clone, Default)]
pub struct ParsedTrace {
    /// The trace's self-describing header, when one was present. For
    /// concatenated traces the *first* header wins; later header lines
    /// still count toward [`ParsedTrace::lines`].
    pub header: Option<TraceHeader>,
    /// Every successfully parsed event, in input order.
    pub events: Vec<Event>,
    /// Lines skipped in lossy mode (always empty in strict mode —
    /// strict fails instead).
    pub skipped: Vec<TraceDiagnostic>,
    /// Per-span profiler summaries (`{"ev":"span",…}` lines, appended
    /// by profiled runs), in input order.
    pub spans: Vec<SpanRecord>,
    /// Panic records (`{"ev":"panic",…}` — the terminal line of a
    /// flight-recorder crash dump), in input order.
    pub panics: Vec<PanicRecord>,
    /// Total non-blank lines seen (parsed + skipped).
    pub lines: usize,
}

/// One parsed NDJSON line: an event, the stream's header, a span
/// summary, or a crash-dump panic record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// An ordinary [`Event`] line.
    Event(Event),
    /// A `{"ev":"header",...}` line.
    Header(TraceHeader),
    /// A `{"ev":"span",...}` profiler summary line.
    Span(SpanRecord),
    /// A `{"ev":"panic",...}` crash-dump terminator.
    Panic(PanicRecord),
}

impl ParsedTrace {
    /// Fold one parsed record in (events append; the first header
    /// wins).
    fn absorb(&mut self, record: Record) {
        match record {
            Record::Event(ev) => self.events.push(ev),
            Record::Header(h) => {
                if self.header.is_none() {
                    self.header = Some(h);
                }
            }
            Record::Span(s) => self.spans.push(s),
            Record::Panic(p) => self.panics.push(p),
        }
    }
}

/// Parse a complete NDJSON document held in memory.
pub fn read_str(text: &str, mode: ReadMode) -> Result<ParsedTrace, TraceError> {
    read_lines(text.lines(), mode)
}

/// Parse a raw byte buffer (e.g. straight from [`std::fs::read`])
/// without requiring the whole file to be valid UTF-8.
///
/// Lines are split on `\n` (a trailing `\r` is trimmed, so CRLF traces
/// work). A line that is not valid UTF-8 is reported with the 1-based
/// byte column of the first invalid byte — in strict mode as the fatal
/// [`TraceError`], in lossy mode as a diagnostic while every decodable
/// line still parses. This keeps a trace with one corrupt region
/// readable instead of failing wholesale the way
/// `String::from_utf8(file)?` would.
pub fn read_bytes(bytes: &[u8], mode: ReadMode) -> Result<ParsedTrace, TraceError> {
    let mut out = ParsedTrace::default();
    for (idx, raw) in bytes.split(|&b| b == b'\n').enumerate() {
        let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
        let line = match std::str::from_utf8(raw) {
            Ok(line) => line,
            Err(e) => {
                out.lines += 1;
                let diag = TraceError {
                    line: idx + 1,
                    column: e.valid_up_to() + 1,
                    message: "invalid UTF-8".to_owned(),
                };
                match mode {
                    ReadMode::Strict => return Err(diag),
                    ReadMode::Lossy => {
                        out.skipped.push(diag);
                        continue;
                    }
                }
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        out.lines += 1;
        match parse_record(line) {
            Ok(record) => out.absorb(record),
            Err((column, message)) => {
                let diag = TraceError {
                    line: idx + 1,
                    column,
                    message,
                };
                match mode {
                    ReadMode::Strict => return Err(diag),
                    ReadMode::Lossy => out.skipped.push(diag),
                }
            }
        }
    }
    Ok(out)
}

/// Parse from any iterator of lines (e.g. `BufRead::lines()` output
/// already unwrapped, or `str::lines`). Blank lines are skipped in both
/// modes — NDJSON writers commonly end with a trailing newline.
pub fn read_lines<'a, I>(lines: I, mode: ReadMode) -> Result<ParsedTrace, TraceError>
where
    I: IntoIterator<Item = &'a str>,
{
    let mut out = ParsedTrace::default();
    for (idx, line) in lines.into_iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.lines += 1;
        match parse_record(line) {
            Ok(record) => out.absorb(record),
            Err((column, message)) => {
                let diag = TraceError {
                    line: idx + 1,
                    column,
                    message,
                };
                match mode {
                    ReadMode::Strict => return Err(diag),
                    ReadMode::Lossy => out.skipped.push(diag),
                }
            }
        }
    }
    Ok(out)
}

/// Parse one NDJSON line into an event. Header lines are an error
/// here — use [`read_str`]/[`read_bytes`]/[`parse_record`], which
/// surface them as [`ParsedTrace::header`]. Errors are
/// `(column, message)` with a 1-based column.
pub fn parse_line(line: &str) -> Result<Event, (usize, String)> {
    match parse_record(line)? {
        Record::Event(ev) => Ok(ev),
        Record::Header(_) => Err((
            1,
            "header line is not an event (readers surface it as ParsedTrace::header)".to_owned(),
        )),
        Record::Span(_) => Err((
            1,
            "span summary line is not an event (readers surface it as ParsedTrace::spans)"
                .to_owned(),
        )),
        Record::Panic(_) => Err((
            1,
            "panic record line is not an event (readers surface it as ParsedTrace::panics)"
                .to_owned(),
        )),
    }
}

fn parse_header(v: &JsonValue) -> Result<TraceHeader, (usize, String)> {
    if let Some(schema) = v.get("schema") {
        let schema = schema
            .as_str()
            .ok_or_else(|| (1, "field \"schema\" is not a string".to_owned()))?;
        if schema != TRACE_SCHEMA {
            return Err((
                1,
                format!("unsupported trace schema {schema:?} (expected {TRACE_SCHEMA:?})"),
            ));
        }
    }
    let model = match v.get("model") {
        None => None,
        Some(m) => Some(
            m.as_str()
                .ok_or_else(|| (1, "field \"model\" is not a string".to_owned()))?
                .to_owned(),
        ),
    };
    Ok(TraceHeader {
        model,
        n: opt_u64_field(v, "n")?,
        seed: opt_u64_field(v, "seed")?,
        runs: opt_u64_field(v, "runs")?,
    })
}

/// Parse one NDJSON line into a [`Record`] (event or header). Errors
/// are `(column, message)` with a 1-based column.
pub fn parse_record(line: &str) -> Result<Record, (usize, String)> {
    let v = parse(line).map_err(|e| (e.offset + 1, e.message))?;
    let ev = v
        .get("ev")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| (1, "missing or non-string \"ev\" field".to_owned()))?;
    if ev == "header" {
        return parse_header(&v).map(Record::Header);
    }
    if ev == "span" {
        return parse_span(&v).map(Record::Span);
    }
    if ev == "panic" {
        return parse_panic(&v).map(Record::Panic);
    }
    parse_event(&v, ev).map(Record::Event)
}

fn parse_span(v: &JsonValue) -> Result<SpanRecord, (usize, String)> {
    let path = v
        .get("path")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| (1, "missing or non-string \"path\" field".to_owned()))?
        .to_owned();
    Ok(SpanRecord {
        path,
        count: u64_field(v, "count")?,
        total_us: f64_field(v, "total_us")?,
        self_us: f64_field(v, "self_us")?,
        p50_us: f64_field(v, "p50_us")?,
        p99_us: f64_field(v, "p99_us")?,
    })
}

fn parse_panic(v: &JsonValue) -> Result<PanicRecord, (usize, String)> {
    let message = v
        .get("message")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| (1, "missing or non-string \"message\" field".to_owned()))?
        .to_owned();
    let thread = match v.get("thread") {
        None => None,
        Some(t) => Some(
            t.as_str()
                .ok_or_else(|| (1, "field \"thread\" is not a string".to_owned()))?
                .to_owned(),
        ),
    };
    Ok(PanicRecord {
        message,
        thread,
        buffered: u64_field(v, "buffered")?,
        dropped: u64_field(v, "dropped")?,
    })
}

fn parse_event(v: &JsonValue, ev: &str) -> Result<Event, (usize, String)> {
    let kind = match ev {
        "solver_step" => {
            return Ok(Event::SolverStep {
                accepted: bool_field(v, "accepted")?,
                t: f64_field(v, "t")?,
                h: f64_field(v, "h")?,
                err_norm: f64_field(v, "err_norm")?,
            })
        }
        "solver_steady" => {
            return Ok(Event::SolverSteady {
                t: f64_field(v, "t")?,
                residual: f64_field(v, "residual")?,
            })
        }
        "solver_done" => {
            return Ok(Event::SolverDone {
                accepted: u64_field(v, "accepted")?,
                rejected: u64_field(v, "rejected")?,
                min_h: f64_field(v, "min_h")?,
                max_h: f64_field(v, "max_h")?,
                max_reject_streak: u64_field(v, "max_reject_streak")?,
                converged: bool_field(v, "converged")?,
                residual: f64_field(v, "residual")?,
            })
        }
        "heartbeat" => {
            return Ok(Event::Heartbeat {
                t: f64_field(v, "t")?,
                events: u64_field(v, "events")?,
                tasks_in_system: u64_field(v, "tasks_in_system")?,
            })
        }
        "replicate_done" => {
            return Ok(Event::ReplicateDone {
                seed: u64_field(v, "seed")?,
                wall_ms: f64_field(v, "wall_ms")?,
                events: u64_field(v, "events")?,
                events_per_sec: f64_field(v, "events_per_sec")?,
            })
        }
        "tail_sample" => return parse_tail_sample(v),
        "job_arrival" => return parse_job(v, JobEventKind::Arrival),
        "job_migrate" => return parse_job(v, JobEventKind::Migrate),
        "job_service_start" => return parse_job(v, JobEventKind::ServiceStart),
        "job_completion" => return parse_job(v, JobEventKind::Completion),
        "arrival" => SimEventKind::Arrival,
        "completion" => SimEventKind::Completion,
        "steal_attempt" => SimEventKind::StealAttempt,
        "steal_success" => SimEventKind::StealSuccess,
        "migration" => SimEventKind::Migration,
        other => return Err((1, format!("unknown event kind {other:?}"))),
    };
    Ok(Event::Sim {
        kind,
        t: f64_field(v, "t")?,
        proc: u32_field(v, "proc")?,
        src: opt_u32_field(v, "src")?,
        count: match v.get("count") {
            // The writer elides unit counts.
            None => 1,
            Some(_) => u32_field(v, "count")?,
        },
    })
}

fn parse_tail_sample(v: &JsonValue) -> Result<Event, (usize, String)> {
    let t = f64_field(v, "t")?;
    let arr = match v.get("s") {
        Some(JsonValue::Arr(items)) => items,
        Some(_) => return Err((1, "field \"s\" is not an array".to_owned())),
        None => return Err(missing("s")),
    };
    if arr.len() > TAIL_SAMPLE_DEPTH {
        return Err((
            1,
            format!(
                "field \"s\" carries {} tails (this reader supports at most {TAIL_SAMPLE_DEPTH})",
                arr.len()
            ),
        ));
    }
    // The writer elides trailing zeros; absent depths really are 0.
    let mut tails = [0.0f64; TAIL_SAMPLE_DEPTH];
    for (i, item) in arr.iter().enumerate() {
        tails[i] = match item {
            // Same null → NaN convention as every other float field.
            JsonValue::Null => f64::NAN,
            other => other
                .as_f64()
                .ok_or_else(|| (1, format!("entry {} of \"s\" is not a number", i + 1)))?,
        };
    }
    Ok(Event::TailSample {
        t,
        tails,
        depth: arr.len() as u32,
    })
}

fn parse_job(v: &JsonValue, kind: JobEventKind) -> Result<Event, (usize, String)> {
    Ok(Event::Job {
        kind,
        t: f64_field(v, "t")?,
        job: u64_field(v, "job")?,
        proc: u32_field(v, "proc")?,
        src: opt_u32_field(v, "src")?,
        delay: match v.get("delay") {
            // The writer elides zero delays (and non-migration stages
            // never carry one).
            None => 0.0,
            Some(_) => f64_field(v, "delay")?,
        },
    })
}

// ---------------------------------------------------------------------
// Field accessors. Column 1 for all semantic errors — the JSON parser
// has already validated the grammar, so byte-precise positions only
// exist for syntax errors.

fn missing(key: &str) -> (usize, String) {
    (1, format!("missing field {key:?}"))
}

fn f64_field(v: &JsonValue, key: &str) -> Result<f64, (usize, String)> {
    match v.get(key) {
        // The writer renders non-finite floats as null; reading them
        // back as NaN keeps "writer lines always parse" true while
        // still quarantining the value (NaN fails every comparison).
        Some(JsonValue::Null) => Ok(f64::NAN),
        Some(val) => val
            .as_f64()
            .ok_or_else(|| (1, format!("field {key:?} is not a number"))),
        None => Err(missing(key)),
    }
}

fn u64_field(v: &JsonValue, key: &str) -> Result<u64, (usize, String)> {
    v.get(key)
        .ok_or_else(|| missing(key))?
        .as_u64()
        .ok_or_else(|| (1, format!("field {key:?} is not a non-negative integer")))
}

fn u32_field(v: &JsonValue, key: &str) -> Result<u32, (usize, String)> {
    let n = u64_field(v, key)?;
    u32::try_from(n).map_err(|_| (1, format!("field {key:?} overflows u32 ({n})")))
}

fn opt_u32_field(v: &JsonValue, key: &str) -> Result<Option<u32>, (usize, String)> {
    match v.get(key) {
        None => Ok(None),
        Some(_) => u32_field(v, key).map(Some),
    }
}

fn opt_u64_field(v: &JsonValue, key: &str) -> Result<Option<u64>, (usize, String)> {
    match v.get(key) {
        None => Ok(None),
        Some(_) => u64_field(v, key).map(Some),
    }
}

fn bool_field(v: &JsonValue, key: &str) -> Result<bool, (usize, String)> {
    v.get(key)
        .ok_or_else(|| missing(key))?
        .as_bool()
        .ok_or_else(|| (1, format!("field {key:?} is not a boolean")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One of every event the writer can produce, including the field
    /// elision cases (`count == 1`, `src` absent) and a non-finite
    /// float rendered as null.
    fn exemplars() -> Vec<Event> {
        vec![
            Event::SolverStep {
                accepted: true,
                t: 0.0,
                h: 0.1,
                err_norm: 0.42,
            },
            Event::SolverStep {
                accepted: false,
                t: 1.5e-3,
                h: 1e-9,
                err_norm: 17.0,
            },
            Event::SolverSteady {
                t: 12.5,
                residual: 3.2e-11,
            },
            Event::SolverDone {
                accepted: 1000,
                rejected: 17,
                min_h: 1e-6,
                max_h: 2.0,
                max_reject_streak: 4,
                converged: true,
                residual: 9.9e-13,
            },
            Event::Sim {
                kind: SimEventKind::Arrival,
                t: 0.25,
                proc: 0,
                src: None,
                count: 1,
            },
            Event::Sim {
                kind: SimEventKind::Completion,
                t: 1.75,
                proc: 31,
                src: None,
                count: 1,
            },
            Event::Sim {
                kind: SimEventKind::StealAttempt,
                t: 2.0,
                proc: 5,
                src: None,
                count: 1,
            },
            Event::Sim {
                kind: SimEventKind::StealSuccess,
                t: 2.0,
                proc: 5,
                src: None,
                count: 1,
            },
            Event::Sim {
                kind: SimEventKind::Migration,
                t: 2.0,
                proc: 5,
                src: Some(9),
                count: 3,
            },
            Event::Job {
                kind: JobEventKind::Arrival,
                t: 0.25,
                job: 0,
                proc: 0,
                src: None,
                delay: 0.0,
            },
            Event::Job {
                kind: JobEventKind::Migrate,
                t: 1.0,
                job: 7,
                proc: 5,
                src: Some(9),
                delay: 0.75,
            },
            Event::Job {
                kind: JobEventKind::Migrate,
                t: 1.25,
                job: 7,
                proc: 2,
                src: Some(5),
                delay: 0.0, // instantaneous hop: delay elided on the wire
            },
            Event::Job {
                kind: JobEventKind::ServiceStart,
                t: 1.5,
                job: 7,
                proc: 2,
                src: None,
                delay: 0.0,
            },
            Event::Job {
                kind: JobEventKind::Completion,
                t: 2.5,
                job: 7,
                proc: 2,
                src: None,
                delay: 0.0,
            },
            Event::TailSample {
                t: 10.0,
                tails: [0.921875, 0.5, 0.125, 0.03125, 0.0, 0.0, 0.0, 0.0],
                depth: 4,
            },
            Event::TailSample {
                // An empty system: every tail is zero, so the writer
                // elides the whole vector.
                t: 0.5,
                tails: [0.0; 8],
                depth: 0,
            },
            Event::Heartbeat {
                t: 100.0,
                events: 65536,
                tasks_in_system: 42,
            },
            Event::ReplicateDone {
                seed: u64::MAX,
                wall_ms: 15.25,
                events: 123456789,
                events_per_sec: 8.1e6,
            },
        ]
    }

    #[test]
    fn every_writer_line_parses_strict_and_round_trips() {
        for ev in exemplars() {
            let line = ev.to_json_line();
            let back = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            assert_eq!(ev, back, "{line}");
        }
    }

    #[test]
    fn full_document_round_trips_in_strict_mode() {
        let events = exemplars();
        let doc: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
        let parsed = read_str(&doc, ReadMode::Strict).unwrap();
        assert_eq!(parsed.events, events);
        assert_eq!(parsed.lines, events.len());
        assert!(parsed.skipped.is_empty());
    }

    #[test]
    fn non_finite_float_reads_back_as_nan() {
        // The writer renders a non-finite residual as null.
        let line = Event::SolverSteady {
            t: 1.0,
            residual: f64::INFINITY,
        }
        .to_json_line();
        assert!(line.contains("null"), "{line}");
        match parse_line(&line).unwrap() {
            Event::SolverSteady { t, residual } => {
                assert_eq!(t, 1.0);
                assert!(residual.is_nan());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn strict_mode_reports_line_and_column() {
        let doc = "{\"ev\":\"arrival\",\"t\":0.5,\"proc\":0}\n{\"ev\": nope}\n";
        let err = read_str(doc, ReadMode::Strict).unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.column, 8); // byte offset 7 of the bad token, 1-based
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn lossy_mode_skips_bad_lines_and_keeps_good_ones() {
        let doc = "\
{\"ev\":\"arrival\",\"t\":0.5,\"proc\":0}
garbage
{\"ev\":\"mystery\",\"t\":1.0}
{\"ev\":\"completion\",\"t\":1.5,\"proc\":0}
{\"ev\":\"arrival\",\"t\":2.0}
";
        let parsed = read_str(doc, ReadMode::Lossy).unwrap();
        assert_eq!(parsed.events.len(), 2);
        assert_eq!(parsed.lines, 5);
        assert_eq!(parsed.skipped.len(), 3);
        assert_eq!(parsed.skipped[0].line, 2); // garbage
        assert_eq!(parsed.skipped[1].line, 3); // unknown kind
        assert_eq!(parsed.skipped[2].line, 5); // missing proc
        assert!(parsed.skipped[2].message.contains("proc"));
    }

    #[test]
    fn blank_lines_are_ignored_in_both_modes() {
        let doc = "\n\n{\"ev\":\"arrival\",\"t\":0.5,\"proc\":3}\n\n";
        for mode in [ReadMode::Strict, ReadMode::Lossy] {
            let parsed = read_str(doc, mode).unwrap();
            assert_eq!(parsed.events.len(), 1);
            assert_eq!(parsed.lines, 1);
        }
    }

    #[test]
    fn semantic_checks_reject_bad_fields() {
        for (line, needle) in [
            (r#"{"t":1.0,"proc":0}"#, "ev"),
            (r#"{"ev":"arrival","proc":0}"#, "\"t\""),
            (r#"{"ev":"arrival","t":1.0,"proc":-1}"#, "proc"),
            (r#"{"ev":"arrival","t":1.0,"proc":4294967296}"#, "overflows"),
            (r#"{"ev":"arrival","t":true,"proc":0}"#, "not a number"),
            (
                r#"{"ev":"solver_step","t":1.0,"h":0.1,"err_norm":0.2}"#,
                "accepted",
            ),
            (
                r#"{"ev":"heartbeat","t":1.0,"events":2.5,"tasks_in_system":0}"#,
                "events",
            ),
        ] {
            let err = parse_line(line).unwrap_err();
            assert!(err.1.contains(needle), "{line} -> {err:?}");
        }
    }

    #[test]
    fn job_events_require_identity() {
        let (_, msg) = parse_line(r#"{"ev":"job_arrival","t":1.0,"proc":0}"#).unwrap_err();
        assert!(msg.contains("job"), "{msg}");
        // Absent delay defaults to zero; absent src to None.
        match parse_line(r#"{"ev":"job_migrate","t":1.0,"job":4,"proc":0}"#).unwrap() {
            Event::Job {
                kind: JobEventKind::Migrate,
                job,
                src,
                delay,
                ..
            } => {
                assert_eq!(job, 4);
                assert_eq!(src, None);
                assert_eq!(delay, 0.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tail_sample_parses_with_padding_null_and_depth_cap() {
        // Short vectors zero-pad; the depth is the wire length.
        match parse_line(r#"{"ev":"tail_sample","t":2.5,"s":[0.75,0.25]}"#).unwrap() {
            Event::TailSample { t, tails, depth } => {
                assert_eq!(t, 2.5);
                assert_eq!(depth, 2);
                assert_eq!(&tails[..3], &[0.75, 0.25, 0.0]);
            }
            other => panic!("{other:?}"),
        }
        // Nulls (non-finite on the writer side) come back as NaN.
        match parse_line(r#"{"ev":"tail_sample","t":1.0,"s":[null]}"#).unwrap() {
            Event::TailSample { tails, depth, .. } => {
                assert_eq!(depth, 1);
                assert!(tails[0].is_nan());
            }
            other => panic!("{other:?}"),
        }
        // Semantic failures: missing/malformed vector, oversized depth.
        let (_, msg) = parse_line(r#"{"ev":"tail_sample","t":1.0}"#).unwrap_err();
        assert!(msg.contains("\"s\""), "{msg}");
        let (_, msg) = parse_line(r#"{"ev":"tail_sample","t":1.0,"s":0.5}"#).unwrap_err();
        assert!(msg.contains("not an array"), "{msg}");
        let (_, msg) = parse_line(r#"{"ev":"tail_sample","t":1.0,"s":[0.5,"x"]}"#).unwrap_err();
        assert!(msg.contains("entry 2"), "{msg}");
        let nine = r#"{"ev":"tail_sample","t":1.0,"s":[1,1,1,1,1,1,1,1,1]}"#;
        let (_, msg) = parse_line(nine).unwrap_err();
        assert!(msg.contains("at most 8"), "{msg}");
    }

    #[test]
    fn unknown_extra_fields_are_tolerated() {
        // Forward compatibility: a newer writer may add fields.
        let ev = parse_line(r#"{"ev":"arrival","t":1.0,"proc":0,"future_field":"x"}"#).unwrap();
        assert!(matches!(
            ev,
            Event::Sim {
                kind: SimEventKind::Arrival,
                ..
            }
        ));
    }

    #[test]
    fn seeds_above_2_pow_53_survive() {
        let seed = 3_189_771_427_388_177_366u64; // needs exact u64 parsing
        let line = Event::ReplicateDone {
            seed,
            wall_ms: 1.0,
            events: 10,
            events_per_sec: 1e4,
        }
        .to_json_line();
        match parse_line(&line).unwrap() {
            Event::ReplicateDone { seed: s, .. } => assert_eq!(s, seed),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn header_round_trips_through_reader() {
        let header = TraceHeader {
            model: Some("lambda=0.9,policy=steal,T=2,d=1,k=1".into()),
            n: Some(128),
            seed: Some(42),
            runs: Some(4),
        };
        let heartbeat = Event::Heartbeat {
            t: 1.0,
            events: 10,
            tasks_in_system: 3,
        }
        .to_json_line();
        let text = format!("{}\n{heartbeat}\n", header.to_json_line());
        let parsed = read_str(&text, ReadMode::Strict).unwrap();
        assert_eq!(parsed.header.as_ref(), Some(&header));
        assert_eq!(parsed.events.len(), 1);
        assert_eq!(parsed.lines, 2);
        // Older writers could stamp a `"sample"` stride into the header;
        // strict readers still accept such a trace and ignore the key.
        let old = header.to_json_line().replace('}', ",\"sample\":8}");
        let parsed = read_str(&format!("{old}\n{heartbeat}\n"), ReadMode::Strict).unwrap();
        assert_eq!(parsed.header.as_ref(), Some(&header));
    }

    #[test]
    fn first_header_wins_in_concatenated_traces() {
        let a = TraceHeader {
            model: Some("lambda=0.8,policy=none".into()),
            ..TraceHeader::default()
        };
        let b = TraceHeader {
            model: Some("lambda=0.9,policy=steal,T=2,d=1,k=1".into()),
            ..TraceHeader::default()
        };
        let text = format!("{}\n{}\n", a.to_json_line(), b.to_json_line());
        let parsed = read_str(&text, ReadMode::Strict).unwrap();
        assert_eq!(parsed.header, Some(a));
        assert!(parsed.events.is_empty());
        assert_eq!(parsed.lines, 2);
    }

    #[test]
    fn headerless_trace_has_no_header() {
        let parsed = read_str(r#"{"ev":"arrival","t":1.0,"proc":0}"#, ReadMode::Strict).unwrap();
        assert_eq!(parsed.header, None);
        assert_eq!(parsed.events.len(), 1);
    }

    #[test]
    fn unsupported_header_schema_is_rejected_strict_and_skipped_lossy() {
        let line = r#"{"ev":"header","schema":"loadsteal.trace.v99"}"#;
        let err = read_str(line, ReadMode::Strict).unwrap_err();
        assert!(err.message.contains("unsupported trace schema"), "{err}");
        let parsed = read_str(line, ReadMode::Lossy).unwrap();
        assert_eq!(parsed.header, None);
        assert_eq!(parsed.skipped.len(), 1);
    }

    #[test]
    fn schemaless_header_is_accepted() {
        // An older or hand-written header without the schema field.
        let parsed = read_str(
            r#"{"ev":"header","model":"lambda=0.5,policy=steal,T=2,d=1,k=1"}"#,
            ReadMode::Strict,
        )
        .unwrap();
        let header = parsed.header.expect("header");
        assert_eq!(
            header.model.as_deref(),
            Some("lambda=0.5,policy=steal,T=2,d=1,k=1")
        );
        assert_eq!(header.n, None);
    }

    #[test]
    fn parse_line_refuses_header_lines() {
        let line = TraceHeader::default().to_json_line();
        let (_, msg) = parse_line(&line).unwrap_err();
        assert!(msg.contains("header line is not an event"), "{msg}");
    }

    #[test]
    fn span_summary_lines_round_trip() {
        let rec = SpanRecord {
            path: "cli.simulate;sim.run;sim.arrival".into(),
            count: 42,
            total_us: 1234.5,
            self_us: 1000.25,
            p50_us: 20.0,
            p99_us: 95.5,
        };
        let parsed = read_str(&rec.to_json_line(), ReadMode::Strict).unwrap();
        assert_eq!(parsed.spans, vec![rec]);
        assert!(parsed.events.is_empty());
    }

    #[test]
    fn panic_record_parses_strictly_with_and_without_thread() {
        let rec = PanicRecord {
            message: "injected panic (obs.rs:12)".into(),
            thread: Some("main".into()),
            buffered: 4096,
            dropped: 120,
        };
        let parsed = read_str(&rec.to_json_line(), ReadMode::Strict).unwrap();
        assert_eq!(parsed.panics, vec![rec]);

        let anon = PanicRecord {
            message: "boom".into(),
            thread: None,
            buffered: 0,
            dropped: 0,
        };
        let parsed = read_str(&anon.to_json_line(), ReadMode::Strict).unwrap();
        assert_eq!(parsed.panics[0].thread, None);
    }

    #[test]
    fn crash_dump_shape_parses_strictly_and_ends_with_the_panic() {
        // Header, a few events, then the terminal panic record — the
        // exact stream the flight recorder's hook writes.
        let dump = format!(
            "{}\n{}\n{}\n{}\n",
            r#"{"ev":"header","schema":"loadsteal.trace.v1","n":8}"#,
            r#"{"ev":"arrival","t":0.5,"proc":3}"#,
            r#"{"ev":"heartbeat","t":1.0,"events":100,"tasks_in_system":7}"#,
            r#"{"ev":"panic","message":"boom (engine.rs:1)","thread":"main","buffered":2,"dropped":0}"#,
        );
        let parsed = read_str(&dump, ReadMode::Strict).unwrap();
        assert_eq!(parsed.events.len(), 2);
        assert_eq!(parsed.panics.len(), 1);
        assert_eq!(parsed.panics[0].buffered, 2);
        // The panic line is the last non-blank line of the dump.
        let last = dump.lines().last().unwrap();
        assert!(matches!(parse_record(last).unwrap(), Record::Panic(_)));
    }

    #[test]
    fn malformed_span_line_is_fatal_strict_but_skipped_lossy() {
        let text = format!(
            "{}\n{}\n",
            r#"{"ev":"span","count":1}"#, // missing path
            r#"{"ev":"arrival","t":1.0,"proc":0}"#,
        );
        let err = read_str(&text, ReadMode::Strict).unwrap_err();
        assert!(err.message.contains("path"), "{err}");
        let parsed = read_str(&text, ReadMode::Lossy).unwrap();
        assert_eq!(parsed.skipped.len(), 1);
        assert_eq!(parsed.events.len(), 1);
    }

    #[test]
    fn parse_line_refuses_span_and_panic_lines() {
        let (_, msg) =
            parse_line(r#"{"ev":"span","path":"a","count":1,"total_us":1.0,"self_us":1.0,"p50_us":1.0,"p99_us":1.0}"#)
                .unwrap_err();
        assert!(msg.contains("span summary line is not an event"), "{msg}");
        let (_, msg) =
            parse_line(r#"{"ev":"panic","message":"x","buffered":0,"dropped":0}"#).unwrap_err();
        assert!(msg.contains("panic record line is not an event"), "{msg}");
    }
}
