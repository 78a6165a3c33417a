//! Command-line argument parsing (no external dependencies).
//!
//! Grammar: `orion-power-cli <command> [--option value | --flag | positional]...`.
//! Every option has a long name only; values follow as the next token.
//! Each command declares a [`Grammar`], and [`Args::parse`] is the one
//! place that walks the tokens, so every command rejects malformed
//! input the same way.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// What a command accepts after its name.
#[derive(Debug, Clone, Copy)]
pub struct Grammar {
    /// Options that take a value: `--name value`.
    pub options: &'static [&'static str],
    /// Bare flags: `--name`. A flag never consumes the next token.
    pub flags: &'static [&'static str],
    /// The command's one positional argument, named for error messages.
    pub positional: Option<&'static str>,
}

impl Grammar {
    /// A grammar of options and flags only.
    pub const fn new(options: &'static [&'static str], flags: &'static [&'static str]) -> Grammar {
        Grammar {
            options,
            flags,
            positional: None,
        }
    }

    /// The same grammar plus one required positional argument.
    pub const fn with_positional(self, name: &'static str) -> Grammar {
        Grammar {
            positional: Some(name),
            ..self
        }
    }
}

/// A parsed command line: the command name plus its arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (`buffer`, `simulate`, `experiment run`, ...).
    pub command: String,
    positional: Option<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Error produced while parsing or interpreting the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses the tokens after `command` against its `grammar`. The
    /// positional argument may appear anywhere; a repeated option
    /// keeps its last value.
    ///
    /// # Errors
    ///
    /// Returns an error for an unknown option, a value option whose
    /// next token is missing or starts with `--`, a stray positional
    /// argument, or a missing required one.
    pub fn parse(command: &str, tokens: &[String], grammar: &Grammar) -> Result<Args, ArgError> {
        let mut args = Args {
            command: command.to_string(),
            positional: None,
            options: HashMap::new(),
            flags: Vec::new(),
        };
        let mut it = tokens.iter();
        while let Some(tok) = it.next() {
            match tok.strip_prefix("--") {
                Some(name) if grammar.flags.contains(&name) => args.flags.push(name.to_string()),
                Some(name) if grammar.options.contains(&name) => {
                    let value = it
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .ok_or_else(|| ArgError(format!("--{name} requires a value")))?;
                    args.options.insert(name.to_string(), value.clone());
                }
                Some(name) => {
                    return Err(ArgError(format!("unknown option --{name} for `{command}`")))
                }
                None if grammar.positional.is_some() && args.positional.is_none() => {
                    args.positional = Some(tok.clone());
                }
                None => return Err(ArgError(format!("unexpected positional argument `{tok}`"))),
            }
        }
        if let (Some(name), None) = (grammar.positional, &args.positional) {
            return Err(ArgError(format!("missing {name} for `{command}`")));
        }
        Ok(args)
    }

    /// The positional argument (always present when the grammar
    /// declares one; empty otherwise).
    pub fn positional(&self) -> &str {
        self.positional.as_deref().unwrap_or_default()
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// An optional string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// An optional option parsed as `T`; `kind` names the expected
    /// form in the error message.
    fn parsed<T: FromStr>(&self, name: &str, kind: &str) -> Result<Option<T>, ArgError> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| ArgError(format!("--{name} expects {kind}, got `{v}`")))
            })
            .transpose()
    }

    /// A `u32` option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value is present but not a valid number.
    pub fn u32_or(&self, name: &str, default: u32) -> Result<u32, ArgError> {
        Ok(self.parsed(name, "an integer")?.unwrap_or(default))
    }

    /// A required `u32` option.
    ///
    /// # Errors
    ///
    /// Returns an error if absent or malformed.
    pub fn u32_required(&self, name: &str) -> Result<u32, ArgError> {
        self.parsed(name, "an integer")?
            .ok_or_else(|| ArgError(format!("missing required option --{name}")))
    }

    /// An optional `u64` option (cycle counts, seeds).
    ///
    /// # Errors
    ///
    /// Returns an error if the value is present but not a valid number.
    pub fn u64_opt(&self, name: &str) -> Result<Option<u64>, ArgError> {
        self.parsed(name, "an integer")
    }

    /// A `u64` option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value is present but not a valid number.
    pub fn u64_or(&self, name: &str, default: u64) -> Result<u64, ArgError> {
        Ok(self.u64_opt(name)?.unwrap_or(default))
    }

    /// An `f64` option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value is present but not a valid number.
    pub fn f64_or(&self, name: &str, default: f64) -> Result<f64, ArgError> {
        Ok(self.parsed(name, "a number")?.unwrap_or(default))
    }

    /// A positive integer option, if given (worker, shard and budget
    /// counts).
    ///
    /// # Errors
    ///
    /// Returns an error if the value is malformed or zero.
    pub fn positive<T: FromStr + Default + PartialEq>(
        &self,
        name: &str,
    ) -> Result<Option<T>, ArgError> {
        match self.parsed(name, "an integer")? {
            Some(n) if n == T::default() => Err(ArgError(format!("--{name} must be positive"))),
            n => Ok(n),
        }
    }

    /// A positive millisecond budget, if given (`--cell-timeout-ms`).
    ///
    /// # Errors
    ///
    /// Returns an error if the value is malformed or zero.
    pub fn positive_millis(&self, name: &str) -> Result<Option<Duration>, ArgError> {
        Ok(self.positive(name)?.map(Duration::from_millis))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn parse(line: &str) -> Result<Args, ArgError> {
        crate::run::parse(&toks(line)).map(|(_, args)| args)
    }

    const TEST: Grammar = Grammar::new(&["flits"], &["json"]).with_positional("spec");

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse("buffer --flits 64 --bits 256 --decoder").unwrap();
        assert_eq!(a.command, "buffer");
        assert_eq!(a.get("flits"), Some("64"));
        assert_eq!(a.get("bits"), Some("256"));
        assert!(a.flag("decoder"));
        assert!(!a.flag("bogus"));
    }

    #[test]
    fn numeric_accessors() {
        let a = parse("link --length-mm 3.5 --bits 32").unwrap();
        assert_eq!(a.f64_or("length-mm", 1.0).unwrap(), 3.5);
        assert_eq!(a.u32_or("bits", 64).unwrap(), 32);
        assert_eq!(a.u32_or("absent", 7).unwrap(), 7);
        assert_eq!(a.u64_or("bits", 64).unwrap(), 32);
        assert_eq!(a.u64_or("absent", 9).unwrap(), 9);
        assert!(a.u32_required("missing").is_err());
    }

    #[test]
    fn rejects_bad_numbers() {
        let a = parse("buffer --flits sixty").unwrap();
        assert!(a.u32_or("flits", 1).is_err());
        assert!(a.u32_required("flits").is_err());
    }

    #[test]
    fn rejects_positional_noise_and_empty() {
        assert!(parse("").is_err());
        assert!(parse("--flits 4").is_err());
        assert!(parse("buffer stray").is_err());
    }

    #[test]
    fn unknown_option_detection() {
        let line = toks("--flits 4 --typo 9");
        let known = |options| Args::parse("buffer", &line, &Grammar::new(options, &[]));
        assert!(known(&["flits"]).is_err());
        assert!(known(&["flits", "typo"]).is_ok());
    }

    #[test]
    fn flag_followed_by_option() {
        let a = parse("buffer --decoder --flits 8").unwrap();
        assert!(a.flag("decoder"));
        assert_eq!(a.get("flits"), Some("8"));
    }

    #[test]
    fn value_options_require_values_and_flags_take_none() {
        for line in ["a.toml --flits", "a.toml --flits --json"] {
            let e = Args::parse("t", &toks(line), &TEST).unwrap_err();
            assert!(e.0.contains("--flits requires a value"), "{line}: {e}");
        }
        let e = Args::parse("t", &toks("a.toml --json stray"), &TEST).unwrap_err();
        assert!(
            e.0.contains("unexpected positional argument `stray`"),
            "{e}"
        );
    }

    #[test]
    fn positional_anywhere_required_once() {
        let a = Args::parse("t", &toks("--json --flits 2 a.toml"), &TEST).unwrap();
        assert_eq!(a.positional(), "a.toml");
        assert!(a.flag("json"));
        let e = Args::parse("t", &toks("--flits 2"), &TEST).unwrap_err();
        assert!(e.0.contains("missing spec"), "{e}");
        assert!(Args::parse("t", &toks("a.toml b.toml"), &TEST).is_err());
    }

    #[test]
    fn repeated_option_keeps_last_value() {
        let a = Args::parse("t", &toks("x --flits 2 --flits 3"), &TEST).unwrap();
        assert_eq!(a.u64_or("flits", 0).unwrap(), 3);
    }
}
