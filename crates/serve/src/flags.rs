//! Structured CLI flag parsing shared by the server and the bench binaries.
//!
//! Deliberately tiny: `--flag value` pairs and bare `--switch`es over
//! `std::env::args`. Every failure is an `Err(String)` suitable for printing
//! next to a usage line — parsing never panics, whatever the input.

/// A parsed argument list.
#[derive(Clone, Debug)]
pub struct Flags {
    args: Vec<String>,
}

impl Flags {
    /// Capture the process arguments (skipping the binary name).
    pub fn from_env() -> Flags {
        Flags {
            args: std::env::args().skip(1).collect(),
        }
    }

    /// Build from an explicit argument list (tests).
    pub fn from_args<S: Into<String>, I: IntoIterator<Item = S>>(args: I) -> Flags {
        Flags {
            args: args.into_iter().map(Into::into).collect(),
        }
    }

    /// Is the bare switch present (e.g. `--check`)?
    pub fn switch(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The value of `--name value`, parsed as `T`. `Ok(None)` when the flag
    /// is absent; `Err` when it is present with a missing or unparsable
    /// value.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some(i) = self.args.iter().position(|a| a == name) else {
            return Ok(None);
        };
        let Some(value) = self.args.get(i + 1) else {
            return Err(format!("{name} expects a value, got nothing"));
        };
        if value.starts_with("--") {
            return Err(format!("{name} expects a value, got flag {value:?}"));
        }
        value
            .parse()
            .map(Some)
            .map_err(|_| format!("{name} expects a valid value, got {value:?}"))
    }

    /// Like [`Flags::get`] with a default for the absent case.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.get(name)?.unwrap_or(default))
    }

    /// Reject flags outside `known` (typo guard). Positional arguments and
    /// flag values are ignored; anything starting with `--` must be known,
    /// also where it follows a flag, because [`Flags::get`] never takes a
    /// `--` token as a value.
    pub fn check_known(&self, known: &[&str]) -> Result<(), String> {
        match self
            .args
            .iter()
            .find(|arg| arg.starts_with("--") && !known.contains(&arg.as_str()))
        {
            Some(arg) => Err(format!("unknown flag {arg:?}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_typed_values_and_defaults() {
        let f = Flags::from_args(["--threads", "8", "--check"]);
        assert_eq!(f.get::<usize>("--threads"), Ok(Some(8)));
        assert_eq!(f.get_or::<usize>("--requests", 50), Ok(50));
        assert!(f.switch("--check"));
        assert!(!f.switch("--verbose"));
    }

    #[test]
    fn missing_or_bad_values_are_errors_not_panics() {
        let f = Flags::from_args(["--threads"]);
        assert!(f.get::<usize>("--threads").is_err());
        let f = Flags::from_args(["--threads", "lots"]);
        assert!(f.get::<usize>("--threads").is_err());
        let f = Flags::from_args(["--threads", "--check"]);
        assert!(f.get::<usize>("--threads").is_err());
    }

    #[test]
    fn unknown_flags_are_flagged() {
        let f = Flags::from_args(["--addr", "127.0.0.1:0", "--oops", "1"]);
        assert!(f.check_known(&["--addr"]).is_err());
        assert!(f.check_known(&["--addr", "--oops"]).is_ok());
        // A typo right after a bare switch is still a flag, not its value.
        let f = Flags::from_args(["--spawn", "--bogus", "3"]);
        assert!(f.check_known(&["--spawn"]).is_err());
        let f = Flags::from_args(["--keep-alive", "--treads", "4"]);
        assert!(f.check_known(&["--keep-alive", "--threads"]).is_err());
    }
}
