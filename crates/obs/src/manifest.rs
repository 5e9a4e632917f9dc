//! Run manifests: the reproducibility header that turns a metrics
//! report into a self-describing artifact.
//!
//! The document schema (`loadsteal.run.v1`) is:
//!
//! ```json
//! {
//!   "schema": "loadsteal.run.v1",
//!   "manifest": {
//!     "version": "0.1.0",
//!     "git": "abc1234",          // omitted when unknown
//!     "command": "simulate --n 64 ...",
//!     "seed": 12345,             // omitted when not applicable
//!     "config": { "n": 64, ... } // free-form key/value pairs
//!   },
//!   "metrics": { "counters": ..., "gauges": ..., "sketches": ... }
//! }
//! ```

use crate::json::JsonBuf;
use crate::registry::MetricsReport;

/// Schema identifier written into every run document.
pub const SCHEMA: &str = "loadsteal.run.v1";

/// A typed configuration value for the manifest `config` map.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigValue {
    /// A string.
    Str(String),
    /// A float.
    F64(f64),
    /// An unsigned integer.
    U64(u64),
    /// A boolean.
    Bool(bool),
}

impl From<&str> for ConfigValue {
    fn from(v: &str) -> Self {
        Self::Str(v.to_owned())
    }
}
impl From<String> for ConfigValue {
    fn from(v: String) -> Self {
        Self::Str(v)
    }
}
impl From<f64> for ConfigValue {
    fn from(v: f64) -> Self {
        Self::F64(v)
    }
}
impl From<u64> for ConfigValue {
    fn from(v: u64) -> Self {
        Self::U64(v)
    }
}
impl From<usize> for ConfigValue {
    fn from(v: usize) -> Self {
        Self::U64(v as u64)
    }
}
impl From<bool> for ConfigValue {
    fn from(v: bool) -> Self {
        Self::Bool(v)
    }
}

/// Everything needed to rerun (and trust) a run.
#[derive(Debug, Clone, Default)]
pub struct RunManifest {
    /// Crate version (`CARGO_PKG_VERSION`).
    pub version: String,
    /// Git revision, when built from a checkout.
    pub git: Option<String>,
    /// The subcommand and flags as invoked.
    pub command: String,
    /// Base RNG seed, for seeded runs.
    pub seed: Option<u64>,
    /// Resolved configuration (insertion order preserved).
    pub config: Vec<(String, ConfigValue)>,
}

impl RunManifest {
    /// Start a manifest for `command` at `version`.
    pub fn new(version: &str, command: &str) -> Self {
        Self {
            version: version.to_owned(),
            command: command.to_owned(),
            ..Self::default()
        }
    }

    /// Record one resolved configuration entry.
    pub fn config(&mut self, key: &str, value: impl Into<ConfigValue>) -> &mut Self {
        self.config.push((key.to_owned(), value.into()));
        self
    }

    /// Serialize just the manifest object onto `j`.
    pub fn write_json(&self, j: &mut JsonBuf) {
        j.begin_obj();
        j.field_str("version", &self.version);
        if let Some(git) = &self.git {
            j.field_str("git", git);
        }
        j.field_str("command", &self.command);
        if let Some(seed) = self.seed {
            j.field_u64("seed", seed);
        }
        j.key("config").begin_obj();
        for (k, v) in &self.config {
            match v {
                ConfigValue::Str(s) => j.field_str(k, s),
                ConfigValue::F64(x) => j.field_f64(k, *x),
                ConfigValue::U64(x) => j.field_u64(k, *x),
                ConfigValue::Bool(b) => j.field_bool(k, *b),
            };
        }
        j.end_obj();
        j.end_obj();
    }

    /// Render the full `loadsteal.run.v1` document: manifest plus
    /// metrics snapshot.
    pub fn to_run_document(&self, metrics: &MetricsReport) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj();
        j.field_str("schema", SCHEMA);
        j.key("manifest");
        self.write_json(&mut j);
        j.key("metrics");
        metrics.write_json(&mut j);
        j.end_obj();
        j.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn manifest_renders_all_fields() {
        let mut m = RunManifest::new("0.1.0", "simulate --n 64");
        m.git = Some("abc1234".into());
        m.seed = Some(99);
        m.config("n", 64usize)
            .config("lambda", 0.9)
            .config("policy", "simple");

        let mut j = JsonBuf::new();
        m.write_json(&mut j);
        let s = j.finish();
        assert!(s.contains(r#""version":"0.1.0""#), "{s}");
        assert!(s.contains(r#""git":"abc1234""#), "{s}");
        assert!(s.contains(r#""seed":99"#), "{s}");
        assert!(
            s.contains(r#""config":{"n":64,"lambda":0.9,"policy":"simple"}"#),
            "{s}"
        );
    }

    #[test]
    fn optional_fields_are_omitted() {
        let m = RunManifest::new("0.1.0", "solve");
        let mut j = JsonBuf::new();
        m.write_json(&mut j);
        let s = j.finish();
        assert!(!s.contains("git"), "{s}");
        assert!(!s.contains("seed"), "{s}");
    }

    #[test]
    fn run_document_embeds_schema_manifest_and_metrics() {
        let reg = Registry::new();
        reg.counter("sim.events").add(10);
        let doc = RunManifest::new("0.1.0", "simulate").to_run_document(&reg.snapshot());
        assert!(
            doc.starts_with(&format!(r#"{{"schema":"{SCHEMA}""#)),
            "{doc}"
        );
        assert!(doc.contains(r#""manifest":{"#), "{doc}");
        assert!(
            doc.contains(r#""metrics":{"counters":{"sim.events":10}"#),
            "{doc}"
        );
        assert!(doc.ends_with("}}"), "{doc}");
    }
}
