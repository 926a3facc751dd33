//! Minimal argument parsing (no external dependencies).
//!
//! Grammar: `cochar [global flags] <command> [positional args] [flags]`.
//! Flags may appear anywhere after the command; `--flag value` and
//! `--flag=value` are both accepted.

use std::collections::HashMap;

/// Parsed command line.
#[derive(Debug, Default)]
pub struct Opts {
    pub command: String,
    pub positional: Vec<String>,
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

/// Flags that take a value (everything else is a boolean switch).
const VALUED: [&str; 39] = [
    "machine", "work", "threads", "trials", "seed", "csv", "policy", "pads", "max-threads",
    "train-frac", "train-apps", "lambda", "json", "store", "max-retries",
    // bench flags
    "pin", "tolerance", "reps",
    // fabric flags
    "workers", "bind", "connect", "lease-timeout-ms",
    "label", "pin-cpu", "connect-retry-ms", "max-reconnects",
    // cluster scenario flags
    "nodes", "slots", "jobs", "rate", "util", "qos", "slo", "compose", "knowledge",
    "trace", "trace-out", "defrag-period", "mean-work",
];

impl Opts {
    /// Parses `args` (without the program name).
    pub fn parse(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts::default();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(flag) = arg.strip_prefix("--") {
                let (name, inline) = match flag.split_once('=') {
                    Some((n, v)) => (n.to_string(), Some(v.to_string())),
                    None => (flag.to_string(), None),
                };
                if VALUED.contains(&name.as_str()) {
                    let value = match inline {
                        Some(v) => v,
                        None => it
                            .next()
                            .ok_or_else(|| format!("--{name} needs a value"))?
                            .clone(),
                    };
                    opts.flags.insert(name, value);
                } else {
                    opts.switches.push(name);
                }
            } else if opts.command.is_empty() {
                opts.command = arg.clone();
            } else {
                opts.positional.push(arg.clone());
            }
        }
        Ok(opts)
    }

    /// Value of a flag, if given.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    /// Parsed value of a flag with a default.
    pub fn flag_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid --{name} value {v:?}")),
        }
    }

    /// True if a boolean switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The n-th positional argument or an error naming it.
    pub fn pos(&self, n: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(n)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing argument: {what}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Opts {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        Opts::parse(&args).unwrap()
    }

    #[test]
    fn command_positionals_and_flags() {
        let o = parse("pair G-CC fotonik3d --threads 2 --csv=out.csv --breakdown");
        assert_eq!(o.command, "pair");
        assert_eq!(o.positional, vec!["G-CC", "fotonik3d"]);
        assert_eq!(o.flag("threads"), Some("2"));
        assert_eq!(o.flag("csv"), Some("out.csv"));
        assert!(o.switch("breakdown"));
        assert!(!o.switch("nope"));
    }

    #[test]
    fn flag_parse_defaults_and_errors() {
        let o = parse("solo G-PR --work 0.5");
        assert_eq!(o.flag_parse("work", 1.0f64).unwrap(), 0.5);
        assert_eq!(o.flag_parse("trials", 3u32).unwrap(), 3);
        let bad = parse("solo x --work abc");
        assert!(bad.flag_parse("work", 1.0f64).is_err());
    }

    #[test]
    fn missing_value_is_an_error() {
        let args: Vec<String> = vec!["solo".into(), "--threads".into()];
        assert!(Opts::parse(&args).is_err());
    }

    #[test]
    fn pos_reports_whats_missing() {
        let o = parse("pair G-CC");
        assert_eq!(o.pos(0, "fg").unwrap(), "G-CC");
        let err = o.pos(1, "background app").unwrap_err();
        assert!(err.contains("background app"));
    }
}
