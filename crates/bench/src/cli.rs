//! The one command-line reader the report binaries share: `--name VALUE`
//! flags and bare `--switch`es.
//!
//! [`Flags::parse`] takes the flag names a binary reads; every error (an
//! unknown flag, a missing value, a value its reader rejects) prints its
//! reason and exits through the binary's own `usage`. A flag may repeat:
//! [`Flags::all`] reads every value in order, and [`Flags::get`] keeps
//! the last one but still reads every occurrence, so an earlier bad
//! value fails too.

use std::fmt::Display;
use std::str::FromStr;

/// A parsed command line.
pub struct Flags {
    /// Each flag given, in order, with its value (`None` for a switch).
    given: Vec<(String, Option<String>)>,
    usage: fn() -> !,
}

/// Prints `why` and exits through `usage`.
pub fn fail(usage: fn() -> !, why: impl Display) -> ! {
    eprintln!("{why}");
    usage()
}

impl Flags {
    /// Reads `args`: each must be `--name` for a name in `switches`, or
    /// in `valued` followed by its value.
    pub fn parse(args: &[String], valued: &[&str], switches: &[&str], usage: fn() -> !) -> Flags {
        let mut given = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                fail(usage, format!("unexpected argument {a:?}"));
            };
            let value = if switches.contains(&name) {
                None
            } else if valued.contains(&name) {
                match it.next() {
                    Some(v) => Some(v.clone()),
                    None => fail(usage, format!("flag --{name} needs a value")),
                }
            } else {
                fail(usage, format!("unknown flag --{name}"));
            };
            given.push((name.to_string(), value));
        }
        Flags { given, usage }
    }

    /// Every value given for `name`, in order.
    fn texts<'a: 'n, 'n>(&'a self, name: &'n str) -> impl Iterator<Item = &'a str> + 'n {
        self.given
            .iter()
            .filter(move |(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
    }

    /// Whether `name` was given (a switch, or a flag with any value).
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| n == name)
    }

    /// The last value given for `name`, as given.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.texts(name).last()
    }

    /// Every value given for `name`, in order, each through `read`.
    pub fn all<T, E: Display>(&self, name: &str, read: impl Fn(&str) -> Result<T, E>) -> Vec<T> {
        self.texts(name)
            .map(|v| {
                read(v).unwrap_or_else(|e| fail(self.usage, format!("bad --{name} {v:?}: {e}")))
            })
            .collect()
    }

    /// The last value given for `name` through `read`; every earlier
    /// value is read too, so a bad one still fails.
    pub fn get<T, E: Display>(&self, name: &str, read: impl Fn(&str) -> Result<T, E>) -> Option<T> {
        self.all(name, read).pop()
    }

    /// [`Flags::get`] through `T`'s [`FromStr`].
    pub fn value<T: FromStr>(&self, name: &str) -> Option<T>
    where
        T::Err: Display,
    {
        self.get(name, str::parse)
    }
}

/// A reader for a number that must satisfy `ok`; a value that does not
/// parse or falls outside is refused with `want`.
pub fn ranged<T: FromStr>(
    ok: impl Fn(&T) -> bool,
    want: &'static str,
) -> impl Fn(&str) -> Result<T, &'static str> {
    move |v| v.parse().ok().filter(&ok).ok_or(want)
}

/// Reads a `--seeds a,b,c` list.
pub fn seeds(list: &str) -> Result<Vec<u64>, String> {
    list.split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad seed {s:?}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage() -> ! {
        panic!("usage");
    }

    fn flags(args: &[&str]) -> Flags {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Flags::parse(&args, &["n", "spec"], &["smoke"], usage)
    }

    fn fails(args: &'static [&'static str], read: fn(&Flags)) -> bool {
        std::panic::catch_unwind(|| read(&flags(args))).is_err()
    }

    #[test]
    fn switches_and_values_are_read() {
        let f = flags(&["--smoke", "--n", "3", "--spec", "a,b"]);
        assert!(f.has("smoke") && f.has("n"));
        assert!(!flags(&["--n", "1"]).has("smoke"));
        assert_eq!(f.value::<u32>("n"), Some(3));
        assert_eq!(f.text("spec"), Some("a,b"));
        assert_eq!(f.value::<u32>("absent"), None);
        assert_eq!(f.text("smoke"), None, "a switch has no value");
    }

    #[test]
    fn repeated_flags_keep_their_order_and_the_last_wins() {
        let f = flags(&["--n", "1", "--smoke", "--n", "2", "--n", "3"]);
        assert_eq!(f.all("n", str::parse::<u32>), [1, 2, 3]);
        assert_eq!(f.value::<u32>("n"), Some(3));
        assert_eq!(f.text("n"), Some("3"));
    }

    #[test]
    fn an_earlier_bad_value_still_fails() {
        assert!(fails(&["--n", "x", "--n", "2"], |f| {
            f.value::<u32>("n");
        }));
        assert!(fails(&["--n", "2"], |f| {
            f.get("n", |v| {
                v.parse::<u32>().ok().filter(|&n| n > 2).ok_or("want > 2")
            });
        }));
    }

    #[test]
    fn malformed_command_lines_fail() {
        let read_nothing = |_: &Flags| {};
        for args in [
            &["--wat"][..],
            &["smoke"],
            &["--n"],
            &["--smoke", "1"],
            &["-n", "1"],
        ] {
            assert!(fails(args, read_nothing), "{args:?}");
        }
    }

    #[test]
    fn seeds_read_a_comma_list() {
        assert_eq!(seeds("11"), Ok(vec![11]));
        assert_eq!(seeds("1, 2,3"), Ok(vec![1, 2, 3]));
        assert_eq!(seeds("1,x"), Err("bad seed \"x\"".to_string()));
        assert!(seeds("").is_err());
    }
}
