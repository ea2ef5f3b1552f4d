//! The flag reader `noc-cli`, `noc-serviced` and `noc-bench` share, so a
//! missing or malformed value reads the same whichever binary was asked.

use std::fmt::Display;
use std::str::FromStr;

/// A cursor over a (sub)command's arguments.
pub struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    /// Start at the first of `args`.
    pub fn new(args: &'a [String]) -> Self {
        Flags(args.iter())
    }

    /// The text after `flag`, which must be there.
    pub fn text(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value after `flag`, parsed as a `T`.
    pub fn value<T: FromStr<Err: Display>>(&mut self, flag: &str) -> Result<T, String> {
        self.text(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    }
}

impl<'a> Iterator for Flags<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_typed_values_and_names_the_flag_on_failure() {
        let args: Vec<String> = ["--port", "80", "--port", "http", "--port"]
            .map(String::from)
            .to_vec();
        let mut flags = Flags::new(&args);
        assert_eq!(flags.next(), Some("--port"));
        assert_eq!(flags.value::<u16>("--port"), Ok(80));
        assert_eq!(flags.next(), Some("--port"));
        let err = flags.value::<u16>("--port").unwrap_err();
        assert!(err.starts_with("--port: "), "{err}");
        assert_eq!(flags.next(), Some("--port"));
        assert_eq!(
            flags.value::<u16>("--port"),
            Err("--port needs a value".to_string())
        );
    }
}
