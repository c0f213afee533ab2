//! Minimal argument parsing: `--flag`, `--key value`, and positionals.

use std::collections::HashMap;
use std::fmt;

/// A parse failure with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ArgError(pub(crate) String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Parsed arguments: options, boolean flags, and positionals.
#[derive(Debug, Default, Clone)]
pub(crate) struct Parsed {
    options: HashMap<String, String>,
    flags: Vec<String>,
    positionals: Vec<String>,
}

impl Parsed {
    /// Parse `argv` given the sets of known value-taking options and known
    /// boolean flags (both spelled without the leading `--`).
    pub(crate) fn parse(
        argv: &[String],
        value_options: &[&str],
        bool_flags: &[&str],
    ) -> Result<Parsed, ArgError> {
        let mut parsed = Parsed::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                // `--key=value` form.
                if let Some((k, v)) = name.split_once('=') {
                    if !value_options.contains(&k) {
                        return Err(ArgError(format!("unknown option `--{k}`")));
                    }
                    parsed.options.insert(k.to_string(), v.to_string());
                } else if value_options.contains(&name) {
                    let Some(value) = it.next() else {
                        return Err(ArgError(format!("`--{name}` requires a value")));
                    };
                    parsed.options.insert(name.to_string(), value.clone());
                } else if bool_flags.contains(&name) {
                    parsed.flags.push(name.to_string());
                } else {
                    return Err(ArgError(format!("unknown option `--{name}`")));
                }
            } else {
                parsed.positionals.push(arg.clone());
            }
        }
        Ok(parsed)
    }

    /// Raw string value of an option, if given.
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Whether a boolean flag was given.
    pub(crate) fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Positional arguments.
    pub(crate) fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Typed option with default.
    pub(crate) fn get_parsed<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ArgError(format!("invalid value `{raw}` for `--{key}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_options_flags_and_positionals() {
        let p = Parsed::parse(
            &argv(&["--scale", "0.1", "file.csv", "--no-drs", "--days=3"]),
            &["scale", "days"],
            &["no-drs"],
        )
        .unwrap();
        assert_eq!(p.get("scale"), Some("0.1"));
        assert_eq!(p.get("days"), Some("3"));
        assert!(p.flag("no-drs"));
        assert!(!p.flag("cross-bb"));
        assert_eq!(p.positionals(), &["file.csv".to_string()]);
    }

    #[test]
    fn typed_access_with_defaults() {
        let p = Parsed::parse(&argv(&["--scale", "0.25"]), &["scale"], &[]).unwrap();
        assert_eq!(p.get_parsed("scale", 1.0f64).unwrap(), 0.25);
        assert_eq!(p.get_parsed("days", 30u64).unwrap(), 30);
        let bad = Parsed::parse(&argv(&["--scale", "abc"]), &["scale"], &[]).unwrap();
        assert!(bad.get_parsed("scale", 1.0f64).is_err());
    }

    #[test]
    fn unknown_options_are_rejected() {
        let err = Parsed::parse(&argv(&["--bogus"]), &["scale"], &["no-drs"]).unwrap_err();
        assert!(err.to_string().contains("--bogus"));
    }

    #[test]
    fn missing_value_is_rejected() {
        let err = Parsed::parse(&argv(&["--scale"]), &["scale"], &[]).unwrap_err();
        assert!(err.to_string().contains("requires a value"));
    }
}
