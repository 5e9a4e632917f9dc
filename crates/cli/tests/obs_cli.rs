//! End-to-end tests of the observability surface of the `loadsteal`
//! binary: `--trace`, `--metrics-json`, `--quiet`, and the shape of the
//! emitted `loadsteal.run.v1` documents.
//!
//! The `--metrics-json` checks parse the output with a tiny
//! recursive-descent JSON parser (below) rather than substring
//! matching, so malformed escaping or nesting fails loudly.

use std::collections::BTreeMap;
use std::process::{Command, Output};

fn loadsteal(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_loadsteal"))
        .args(args)
        .output()
        .expect("spawn loadsteal binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("stderr is UTF-8")
}

// ---------------------------------------------------------------------
// A minimal JSON parser — just enough to validate the run documents.

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m
                .get(key)
                .unwrap_or_else(|| panic!("missing key {key:?} in {m:?}")),
            other => panic!("expected object with key {key:?}, got {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("expected object, got {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(v) => *v,
            other => panic!("expected number, got {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

fn parse_json(s: &str) -> Json {
    let mut p = Parser {
        s: s.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.skip_ws();
    assert_eq!(p.i, p.s.len(), "trailing garbage after JSON value in {s:?}");
    v
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> u8 {
        self.skip_ws();
        *self.s.get(self.i).expect("unexpected end of JSON")
    }

    fn eat(&mut self, b: u8) {
        assert_eq!(self.peek(), b, "at byte {}", self.i);
        self.i += 1;
    }

    fn lit(&mut self, word: &str, v: Json) -> Json {
        self.skip_ws();
        assert!(
            self.s[self.i..].starts_with(word.as_bytes()),
            "at byte {}",
            self.i
        );
        self.i += word.len();
        v
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Json {
        self.eat(b'{');
        let mut m = BTreeMap::new();
        if self.peek() == b'}' {
            self.i += 1;
            return Json::Obj(m);
        }
        loop {
            self.skip_ws();
            let k = self.string();
            self.eat(b':');
            m.insert(k, self.value());
            match self.peek() {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Json::Obj(m);
                }
                other => panic!("expected ',' or '}}', got {:?}", other as char),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.eat(b'[');
        let mut v = Vec::new();
        if self.peek() == b']' {
            self.i += 1;
            return Json::Arr(v);
        }
        loop {
            v.push(self.value());
            match self.peek() {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Json::Arr(v);
                }
                other => panic!("expected ',' or ']', got {:?}", other as char),
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let b = *self.s.get(self.i).expect("unterminated string");
            self.i += 1;
            match b {
                b'"' => return out,
                b'\\' => {
                    let esc = self.s[self.i];
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                            self.i += 4;
                            let code = u32::from_str_radix(hex, 16).expect("bad \\u escape");
                            out.push(char::from_u32(code).expect("surrogates unsupported"));
                        }
                        other => panic!("bad escape \\{:?}", other as char),
                    }
                }
                // The CLI never emits multi-byte UTF-8 in these
                // documents; treating bytes as chars is fine here.
                _ => out.push(b as char),
            }
        }
    }

    fn number(&mut self) -> Json {
        self.skip_ws();
        let start = self.i;
        while self.i < self.s.len()
            && matches!(
                self.s[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
        Json::Num(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number {text:?}")),
        )
    }
}

#[test]
fn json_parser_self_check() {
    let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":"xA\n","c":{"d":true,"e":null}}"#);
    assert_eq!(
        v.get("a"),
        &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-300.0)])
    );
    assert_eq!(v.get("b").str(), "xA\n");
    assert_eq!(v.get("c").get("d"), &Json::Bool(true));
    assert_eq!(v.get("c").get("e"), &Json::Null);
}

// ---------------------------------------------------------------------
// The tests proper.

const QUICK_SIM: &[&str] = &[
    "simulate",
    "--n",
    "16",
    "--lambda",
    "0.7",
    "--model",
    "simple-ws",
    "--runs",
    "2",
    "--horizon",
    "500",
    "--warmup",
    "50",
    "--seed",
    "7",
];

fn quick_sim_with<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut v = QUICK_SIM.to_vec();
    v.extend_from_slice(extra);
    v
}

#[test]
fn metrics_json_stdout_is_one_parseable_document_with_both_layers() {
    let out = loadsteal(&quick_sim_with(&["--metrics-json", "-"]));
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // Exactly one line of JSON on stdout; the narrative went to stderr.
    assert_eq!(text.trim_end().lines().count(), 1, "{text}");
    assert!(
        stderr(&out).contains("mean time in system"),
        "{}",
        stderr(&out)
    );

    let doc = parse_json(text.trim_end());
    assert_eq!(doc.get("schema").str(), "loadsteal.run.v1");

    let manifest = doc.get("manifest");
    assert_eq!(manifest.get("seed").num(), 7.0);
    assert!(manifest.get("command").str().starts_with("simulate"));
    assert_eq!(manifest.get("config").get("n").num(), 16.0);
    assert_eq!(manifest.get("config").get("lambda").num(), 0.7);

    // Simulator AND solver counters in the same report.
    let counters = doc.get("metrics").get("counters").obj();
    assert!(counters["sim.arrivals"].num() > 0.0);
    assert!(counters["sim.completions"].num() > 0.0);
    assert!(counters["sim.steal_attempts"].num() > 0.0);
    assert_eq!(counters["sim.replicates"].num(), 2.0);
    assert!(counters["solver.steps_accepted"].num() > 0.0);
    assert_eq!(counters["solver.integrations"].num(), 1.0);

    let gauges = doc.get("metrics").get("gauges").obj();
    assert!(gauges["sim.mean_sojourn"].num() > 1.0);
    assert!(gauges["solver.mean_time_in_system"].num() > 1.0);

    // Distributions are sketches, one summary per run, with exact
    // extremes.
    let metrics: Vec<&str> = doc
        .get("metrics")
        .obj()
        .keys()
        .map(|k| k.as_str())
        .collect();
    assert_eq!(metrics, ["counters", "gauges", "sketches"]);
    for name in ["sim.run_events", "sim.run_wall_ms"] {
        let s = doc.get("metrics").get("sketches").get(name);
        assert_eq!(s.get("count").num(), 2.0, "{name}");
        let (min, p50, max) = (s.get("min").num(), s.get("p50").num(), s.get("max").num());
        assert!(min <= p50 && p50 <= max, "{name}: {min} {p50} {max}");
    }
    let events = doc.get("metrics").get("sketches").get("sim.run_events");
    assert_eq!(
        events.get("min").num() + events.get("max").num(),
        counters["sim.events"].num()
    );
}

#[test]
fn metrics_json_writes_to_a_file() {
    let path = std::env::temp_dir().join("loadsteal_cli_test_metrics.json");
    let path_s = path.to_str().unwrap();
    let out = loadsteal(&quick_sim_with(&["--metrics-json", path_s]));
    assert!(out.status.success(), "{}", stderr(&out));
    // File destination keeps the narrative on stdout.
    assert!(
        stdout(&out).contains("mean time in system"),
        "{}",
        stdout(&out)
    );
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let doc = parse_json(text.trim_end());
    assert_eq!(doc.get("schema").str(), "loadsteal.run.v1");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_writes_valid_ndjson() {
    let path = std::env::temp_dir().join("loadsteal_cli_test_trace.ndjson");
    let path_s = path.to_str().unwrap();
    let out = loadsteal(&quick_sim_with(&["--trace", path_s]));
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let mut kinds = std::collections::BTreeSet::new();
    let mut lines = 0usize;
    for line in text.lines() {
        let ev = parse_json(line);
        kinds.insert(ev.get("ev").str().to_owned());
        lines += 1;
    }
    assert!(lines > 100, "suspiciously short trace: {lines} lines");
    for expected in [
        "solver_step",
        "arrival",
        "completion",
        "steal_attempt",
        "replicate_done",
    ] {
        assert!(
            kinds.contains(expected),
            "no {expected:?} events in {kinds:?}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn quiet_silences_the_narrative() {
    let out = loadsteal(&quick_sim_with(&["--quiet"]));
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stdout(&out), "", "expected no narrative");

    // --quiet composes with --metrics-json -: JSON only, nothing else.
    let out = loadsteal(&quick_sim_with(&["--quiet", "--metrics-json", "-"]));
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stderr(&out), "", "narrative should be silenced");
    let doc = parse_json(stdout(&out).trim_end());
    assert_eq!(doc.get("schema").str(), "loadsteal.run.v1");
}

#[test]
fn trace_to_stdout_is_pure_ndjson() {
    let out = loadsteal(&quick_sim_with(&["--quiet", "--trace", "-"]));
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(stderr(&out), "", "narrative should be silenced");
    let text = stdout(&out);
    let mut lines = 0usize;
    for line in text.lines() {
        let ev = parse_json(line);
        ev.get("ev").str();
        lines += 1;
    }
    assert!(lines > 100, "suspiciously short trace: {lines} lines");

    // Without --quiet the narrative moves to stderr, keeping stdout
    // machine-readable.
    let out = loadsteal(&quick_sim_with(&["--trace", "-"]));
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("mean time in system"),
        "{}",
        stderr(&out)
    );
    parse_json(stdout(&out).lines().next().expect("ndjson on stdout"));
}

#[test]
fn trace_and_metrics_cannot_both_claim_stdout() {
    let out = loadsteal(&quick_sim_with(&["--trace", "-", "--metrics-json", "-"]));
    assert!(!out.status.success());
    assert!(stderr(&out).contains("stdout"), "{}", stderr(&out));
}

#[test]
fn metrics_json_carries_sojourn_quantile_sketch() {
    let out = loadsteal(&quick_sim_with(&["--quiet", "--metrics-json", "-"]));
    assert!(out.status.success(), "{}", stderr(&out));
    let doc = parse_json(stdout(&out).trim_end());
    let sketch = doc.get("metrics").get("sketches").get("sim.sojourn_time");
    assert!(sketch.get("count").num() > 100.0);
    let (p50, p90, p99) = (
        sketch.get("p50").num(),
        sketch.get("p90").num(),
        sketch.get("p99").num(),
    );
    assert!(p50 > 0.0 && p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
    // The sketch's mean agrees with the directly measured mean sojourn.
    let mean = doc.get("metrics").get("gauges").obj()["sim.mean_sojourn"].num();
    assert!(
        (sketch.get("mean").num() - mean).abs() / mean < 0.05,
        "sketch mean {} vs gauge {}",
        sketch.get("mean").num(),
        mean
    );
    // Per-run totals are sketches too, with quantiles alongside.
    let run_events = doc.get("metrics").get("sketches").get("sim.run_events");
    assert!(run_events.get("p50").num() > 0.0);
}

#[test]
fn report_renders_sim_vs_mean_field_table() {
    let path = std::env::temp_dir().join("loadsteal_cli_test_report.ndjson");
    let path_s = path.to_str().unwrap();
    // One run so the trace replays into a consistent timeline.
    let out = loadsteal(&[
        "simulate",
        "--n",
        "16",
        "--lambda",
        "0.7",
        "--runs",
        "1",
        "--horizon",
        "2000",
        "--warmup",
        "200",
        "--seed",
        "7",
        "--trace",
        path_s,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let out = loadsteal(&["report", path_s, "--warmup", "200"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("sim vs mean-field"), "{text}");
    assert!(text.contains("tail ratio"), "{text}");
    assert!(text.contains("mean sojourn time"), "{text}");
    assert!(text.contains("rel. err"), "{text}");
    assert!(!text.contains("WARNING"), "consistent trace: {text}");

    // A corrupted trace fails strict mode but recovers with --lossy.
    let text = std::fs::read_to_string(&path).unwrap();
    let mangled: String = text
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i == 3 {
                "not json\n".to_string()
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    std::fs::write(&path, mangled).unwrap();
    let out = loadsteal(&["report", path_s, "--warmup", "200"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("line 4"), "{}", stderr(&out));
    let out = loadsteal(&["report", path_s, "--warmup", "200", "--lossy"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("skipped 1"), "{}", stderr(&out));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn serve_exposes_prometheus_text_on_a_live_listener() {
    use std::io::{BufRead, BufReader, Read, Write};

    let mut child = Command::new(env!("CARGO_BIN_EXE_loadsteal"))
        .args([
            "serve",
            "--prom-addr",
            "127.0.0.1:0",
            "--n",
            "8",
            "--lambda",
            "0.6",
            "--runs",
            "1",
            "--horizon",
            "2000",
            "--warmup",
            "200",
            "--scrapes",
            "1",
            "--quiet",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn loadsteal serve");

    // The first stdout line announces the bound address.
    let mut child_out = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    child_out.read_line(&mut line).expect("address line");
    let addr = line
        .split("http://")
        .nth(1)
        .and_then(|s| s.split("/metrics").next())
        .unwrap_or_else(|| panic!("no address in {line:?}"))
        .to_string();

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect to scrape endpoint");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");

    assert!(
        response.starts_with("HTTP/1.1 200 OK\r\n"),
        "{}",
        &response[..response.len().min(200)]
    );
    assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
    let body = response
        .split("\r\n\r\n")
        .nth(1)
        .expect("response carries a body");
    // Scrape-style validation: every line is a comment or `name value`.
    let mut samples = 0usize;
    for l in body.lines() {
        if l.is_empty() || l.starts_with('#') {
            continue;
        }
        let (name, value) = l
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad line {l:?}"));
        assert!(
            name.chars().next().unwrap().is_ascii_alphabetic() || name.starts_with('_'),
            "bad metric name in {l:?}"
        );
        assert!(
            value == "+Inf" || value == "-Inf" || value == "NaN" || value.parse::<f64>().is_ok(),
            "bad value in {l:?}"
        );
        samples += 1;
    }
    assert!(samples > 5, "thin exposition:\n{body}");
    assert!(
        body.contains("loadsteal_sim_arrivals_total"),
        "live sim counters missing:\n{body}"
    );

    let status = child.wait().expect("serve exits after --scrapes 1");
    assert!(status.success());
}

#[test]
fn unknown_flags_are_rejected_and_obs_flags_are_known() {
    let out = loadsteal(&quick_sim_with(&["--bogus", "1"]));
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("unknown flag --bogus"), "{err}");
    // The observability flags are listed as known.
    assert!(err.contains("metrics-json"), "{err}");
}

#[test]
fn solve_also_emits_a_run_document() {
    let out = loadsteal(&[
        "solve",
        "--model",
        "simple-ws",
        "--lambda",
        "0.9",
        "--metrics-json",
        "-",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let doc = parse_json(stdout(&out).trim_end());
    let counters = doc.get("metrics").get("counters").obj();
    assert!(counters["solver.steps_accepted"].num() > 0.0);
    let gauges = doc.get("metrics").get("gauges").obj();
    assert!(gauges["solver.residual"].num() < 1e-6);
}
