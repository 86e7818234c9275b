//! Minimal `--flag value` argument parsing (no external dependency).

use std::collections::HashMap;

/// Parsed arguments: positional values plus `--key value` options
/// (`--key` without a following value is a boolean flag).
pub struct Args {
    pub positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
    /// The keys the verb reads, once [`Args::restrict`] has run.
    known: Option<Vec<&'static str>>,
}

impl Args {
    /// Parses `argv` (without the command name).
    pub fn parse(argv: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut options = HashMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(key) = a.strip_prefix("--") {
                let next_is_value = argv
                    .get(i + 1)
                    .map(|n| !n.starts_with("--"))
                    .unwrap_or(false);
                if next_is_value {
                    options.insert(key.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    flags.push(key.to_string());
                    i += 1;
                }
            } else {
                positional.push(a.clone());
                i += 1;
            }
        }
        Args {
            positional,
            options,
            flags,
            known: None,
        }
    }

    /// Refuses any `--key` outside `known`, the options the verb reads,
    /// so a misspelt or inapplicable option is an error rather than a
    /// silent no-op.
    pub fn restrict(&mut self, verb: &str, known: Vec<&'static str>) -> Result<(), String> {
        let given = self.options.keys().chain(&self.flags);
        let unknown = given.filter(|k| !known.contains(&k.as_str())).min();
        self.known = Some(known);
        match unknown {
            Some(key) => Err(format!("{verb} does not take --{key}")),
            None => Ok(()),
        }
    }

    /// Checks (in debug builds) that a read key was declared to
    /// [`Args::restrict`], so the declarations cannot fall behind the
    /// verbs' code.
    fn read(&self, key: &str) {
        debug_assert!(
            self.known.as_ref().is_none_or(|k| k.contains(&key)),
            "--{key} is read but not declared"
        );
    }

    /// Value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.read(key);
        self.options.get(key).map(String::as_str)
    }

    /// Required `--key value`.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    /// Parsed numeric option with default.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// Whether `--key` appeared as a bare flag.
    pub fn flag(&self, key: &str) -> bool {
        self.read(key);
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_options_flags_positional() {
        let a = Args::parse(&argv(&[
            "run",
            "--query",
            "a b*",
            "--print-results",
            "--window",
            "100",
        ]));
        assert_eq!(a.positional, vec!["run"]);
        assert_eq!(a.get("query"), Some("a b*"));
        assert!(a.flag("print-results"));
        assert_eq!(a.get_num::<i64>("window", 0).unwrap(), 100);
        assert_eq!(a.get_num::<i64>("slide", 7).unwrap(), 7);
    }

    #[test]
    fn require_reports_missing() {
        let a = Args::parse(&argv(&["gen"]));
        assert!(a.require("out").is_err());
    }

    #[test]
    fn bad_number_is_an_error() {
        let a = Args::parse(&argv(&["--edges", "many"]));
        assert!(a.get_num::<usize>("edges", 1).is_err());
    }
}
