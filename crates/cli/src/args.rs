//! Minimal dependency-free argument parsing: `command --key value --flag`.

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` options and
/// `--flag` booleans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Args {
    /// First positional token (the subcommand).
    pub command: Option<String>,
    /// Second positional token (the action of two-level commands like
    /// `journal convert`).
    pub subcommand: Option<String>,
    /// Positional tokens past the second, which no command reads.
    pub extra: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse raw tokens (without the binary name).
    ///
    /// A token starting with `--` consumes the next token as its value,
    /// unless that token also starts with `--` or is absent — then it is a
    /// boolean flag.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Self {
        let mut args = Args::default();
        let mut it = tokens.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                match it.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let value = it.next().expect("peeked");
                        args.options.insert(key.to_owned(), value);
                    }
                    _ => args.flags.push(key.to_owned()),
                }
            } else if args.command.is_none() {
                args.command = Some(tok);
            } else if args.subcommand.is_none() {
                args.subcommand = Some(tok);
            } else {
                args.extra.push(tok);
            }
        }
        args
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Option parsed to any `FromStr` type; `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{key}: {v:?}")),
        }
    }

    /// Boolean flag presence.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Every `--key` given, options and flags alike, in sorted order.
    pub fn keys(&self) -> Vec<&str> {
        let mut keys: Vec<&str> =
            self.options.keys().chain(&self.flags).map(String::as_str).collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse("recommend --workload w.json --budget 0.2 --json");
        assert_eq!(a.command.as_deref(), Some("recommend"));
        assert_eq!(a.subcommand, None);
        assert_eq!(a.get("workload"), Some("w.json"));
        assert_eq!(a.get_parsed("budget", 0.0), Ok(0.2));
        assert!(a.flag("json"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn second_positional_is_the_subcommand() {
        let a = parse("journal convert --to binary --log in.jsonl");
        assert_eq!(a.command.as_deref(), Some("journal"));
        assert_eq!(a.subcommand.as_deref(), Some("convert"));
        assert_eq!(a.get("to"), Some("binary"));
        // A third positional is kept apart, for the command to refuse.
        let a = parse("journal convert extra");
        assert_eq!(a.subcommand.as_deref(), Some("convert"));
        assert_eq!(a.extra, ["extra"]);
    }

    #[test]
    fn adjacent_flags_do_not_eat_each_other() {
        let a = parse("x --json --verbose");
        assert!(a.flag("json"));
        assert!(a.flag("verbose"));
    }

    #[test]
    fn missing_options_fall_back_to_defaults() {
        let a = parse("generate");
        assert_eq!(a.get_parsed("seed", 7u64), Ok(7));
        assert_eq!(a.get("out"), None);
    }

    #[test]
    fn bad_values_error_with_context() {
        let a = parse("x --budget nope");
        let err = a.get_parsed::<f64>("budget", 0.0).unwrap_err();
        assert!(err.contains("budget"));
    }

    #[test]
    fn keys_list_options_and_flags() {
        let a = parse("replay --workload w.json --offline-check --budget 0.3");
        assert_eq!(a.keys(), ["budget", "offline-check", "workload"]);
    }

    #[test]
    fn empty_input_has_no_command() {
        let a = parse("");
        assert_eq!(a.command, None);
    }
}
