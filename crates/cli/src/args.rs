//! Minimal `--key value` argument parsing (no external dependencies).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` flags and
/// boolean `--switch` flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

impl Args {
    /// Parse flags from an iterator of raw arguments (after the
    /// subcommand). `--flag value` and `--flag=value` are both accepted,
    /// but an argument starting with `--` is never taken as a value;
    /// the named `switch_names` are value-less boolean switches
    /// (`--quiet`): present or absent, never consuming the following
    /// argument. Bare (non-`--`) arguments are collected as positionals,
    /// for commands like `report <trace.ndjson>` that take a file
    /// operand; the others reject them with
    /// [`Self::ensure_no_positionals`].
    pub fn parse(raw: impl Iterator<Item = String>, switch_names: &[&str]) -> Result<Self, String> {
        let mut flags = BTreeMap::new();
        let mut switches = Vec::new();
        let mut positionals = Vec::new();
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            let Some(name) = arg.strip_prefix("--") else {
                positionals.push(arg);
                continue;
            };
            if let Some((k, v)) = name.split_once('=') {
                flags.insert(k.to_string(), v.to_string());
            } else if switch_names.contains(&name) {
                switches.push(name.to_string());
            } else {
                // Another flag is not a value (`--name=--x` still
                // passes one literally).
                let value = raw
                    .next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                flags.insert(name.to_string(), value);
            }
        }
        Ok(Self {
            flags,
            switches,
            positionals,
        })
    }

    /// Error out if any positional argument was given (commands that
    /// take none call this to catch stray operands early).
    pub fn ensure_no_positionals(&self) -> Result<(), String> {
        match self.positionals.first() {
            None => Ok(()),
            Some(p) => Err(format!("unexpected positional argument: {p}")),
        }
    }

    /// The `i`-th positional argument, if present.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(|s| s.as_str())
    }

    /// Whether a boolean switch (declared at parse time) was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// A required flag, parsed.
    pub fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self
            .flags
            .get(name)
            .ok_or_else(|| format!("missing required flag --{name}"))?;
        v.parse()
            .map_err(|_| format!("flag --{name}: cannot parse {v:?}"))
    }

    /// An optional flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse {v:?}")),
        }
    }

    /// An optional flag.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("flag --{name}: cannot parse {v:?}")),
        }
    }

    /// Raw string flag.
    pub fn raw(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    /// Remove and return a valued flag. Used for flags handled
    /// centrally in `main` (e.g. `--profile`) so they never reach — and
    /// never have to be declared in — per-command `ensure_known` lists.
    pub fn take(&mut self, name: &str) -> Option<String> {
        self.flags.remove(name)
    }

    /// Reject unknown flags (catches typos early). Switches were
    /// validated against their declared names at parse time, so only
    /// valued flags are checked here.
    pub fn ensure_known(&self, known: &[&str]) -> Result<(), String> {
        for k in self.flags.keys() {
            if !known.contains(&k.as_str()) {
                return Err(format!(
                    "unknown flag --{k}; known flags: {}",
                    known.join(", ")
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str], switches: &[&str]) -> Result<Args, String> {
        Args::parse(parts.iter().map(|s| s.to_string()), switches)
    }

    #[test]
    fn parses_separate_and_equals_forms() {
        let a = parse(&["--lambda", "0.9", "--threshold=4"], &[]).unwrap();
        assert_eq!(a.required::<f64>("lambda").unwrap(), 0.9);
        assert_eq!(a.required::<usize>("threshold").unwrap(), 4);
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["--lambda", "0.5"], &[]).unwrap();
        assert_eq!(a.get_or("runs", 3usize).unwrap(), 3);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["--lambda"], &[]).is_err());
        // The next flag is not taken as the value ...
        let err = parse(&["--model", "--lambda", "0.9"], &[]).unwrap_err();
        assert_eq!(err, "flag --model needs a value");
        // ... but the `=` form still passes a literal one.
        let a = parse(&["--model=--x"], &[]).unwrap();
        assert_eq!(a.required::<String>("model").unwrap(), "--x");
    }

    #[test]
    fn positional_arguments_are_rejected() {
        let a = parse(&["oops"], &[]).unwrap();
        assert!(a.ensure_no_positionals().is_err());
    }

    #[test]
    fn unknown_flags_are_caught() {
        let a = parse(&["--lambda", "0.5", "--tresh", "2"], &[]).unwrap();
        assert!(a.ensure_known(&["lambda", "threshold"]).is_err());
        assert!(a.ensure_known(&["lambda", "tresh"]).is_ok());
    }

    #[test]
    fn bad_parse_reports_flag_name() {
        let a = parse(&["--lambda", "abc"], &[]).unwrap();
        let err = a.required::<f64>("lambda").unwrap_err();
        assert!(err.contains("lambda"));
    }

    #[test]
    fn switches_do_not_consume_values() {
        let a = parse(&["--quiet", "--lambda", "0.9"], &["quiet"]).unwrap();
        assert!(a.switch("quiet"));
        assert_eq!(a.required::<f64>("lambda").unwrap(), 0.9);
        assert!(!a.switch("verbose"));
    }

    #[test]
    fn trailing_switch_is_not_a_missing_value() {
        let a = parse(&["--lambda", "0.9", "--quiet"], &["quiet"]).unwrap();
        assert!(a.switch("quiet"));
    }

    #[test]
    fn mixed_parsing_collects_positionals() {
        let a = parse(&["trace.ndjson", "--warmup", "50", "--lossy"], &["lossy"]).unwrap();
        assert_eq!(a.positional(0), Some("trace.ndjson"));
        assert_eq!(a.positional(1), None);
        assert!(a.switch("lossy"));
        assert_eq!(a.get_or("warmup", 0.0).unwrap(), 50.0);
        assert!(a.ensure_no_positionals().is_err());
    }

    #[test]
    fn undeclared_switch_still_needs_a_value() {
        // Without the declaration, `--quiet` is a valued flag and a
        // trailing one is an error — the seed behaviour is preserved.
        assert!(parse(&["--quiet"], &[]).is_err());
    }
}
