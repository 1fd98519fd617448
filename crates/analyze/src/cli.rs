//! The one command line of the workspace's binaries: [`Args`] splits the
//! arguments against a table of the flags a binary (or subcommand)
//! accepts, and [`main`] keeps the exit-status contract every binary
//! shares.
//!
//! The contract: `--help` or `-h` anywhere prints the usage on stdout and
//! exits 0; a usage error is one stderr line, `<bin>: <diagnostic>`, that
//! names the offending argument, and exit 2. Nothing a user types unwinds.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::str::FromStr;

/// One flag a binary accepts.
#[derive(Clone, Copy, Debug)]
pub enum Flag {
    /// Present or absent; takes no value.
    Switch(&'static str),
    /// Takes the next argument as its value; the second field says what
    /// that value must be (`--runs needs a number >= 1`).
    Value(&'static str, &'static str),
    /// Takes a count from 1 to the second field, the flag's ceiling: a
    /// count the binary turns into that many threads, seeds or runs held
    /// at once must not ask for more than the machine has
    /// (`--runs needs a number >= 1 and <= 10000`). Read with
    /// [`Args::count`].
    Count(&'static str, usize),
}

impl Flag {
    fn name(&self) -> &'static str {
        match self {
            Flag::Switch(name) | Flag::Value(name, _) | Flag::Count(name, _) => name,
        }
    }
}

/// What a count flag's value must be.
pub const COUNT: &str = "a number >= 1";

/// A count: a `usize` of at least 1 (zero runs or zero threads is no work).
pub fn count(v: &str) -> Option<usize> {
    v.parse().ok().filter(|&n| n >= 1)
}

/// One command line, split: the positionals in order and every value each
/// flag was given.
#[derive(Debug)]
pub struct Args<'a> {
    table: &'a [Flag],
    positional: Vec<&'a str>,
    values: BTreeMap<&'a str, Vec<&'a str>>,
}

impl<'a> Args<'a> {
    /// Splits `args` against `table`. An argument starting with `--` that
    /// the table does not list, and a value flag with nothing after it, are
    /// usage errors; anything else is a positional.
    pub fn parse(args: &'a [String], table: &'a [Flag]) -> Result<Args<'a>, String> {
        let mut parsed = Args {
            table,
            positional: Vec::new(),
            values: BTreeMap::new(),
        };
        let mut args = args.iter().map(String::as_str);
        while let Some(a) = args.next() {
            if !a.starts_with("--") {
                parsed.positional.push(a);
                continue;
            }
            let value = match table.iter().find(|f| f.name() == a) {
                None => return Err(format!("unknown argument `{a}`")),
                Some(Flag::Switch(_)) => "",
                Some(Flag::Value(..) | Flag::Count(..)) => {
                    args.next().ok_or_else(|| parsed.needs(a))?
                }
            };
            parsed.values.entry(a).or_default().push(value);
        }
        Ok(parsed)
    }

    /// The diagnostic for `flag`'s missing or unusable value.
    fn needs(&self, flag: &str) -> String {
        match self.table.iter().find(|f| f.name() == flag) {
            Some(Flag::Value(_, what)) => format!("{flag} needs {what}"),
            Some(Flag::Count(_, max)) => format!("{flag} needs {COUNT} and <= {max}"),
            _ => format!("{flag} needs a value"),
        }
    }

    /// The positionals, in order.
    pub fn positional(&self) -> &[&'a str] {
        &self.positional
    }

    /// Exactly `N` positionals; `missing` is the diagnostic when there are
    /// fewer, and the first extra one is named when there are more.
    pub fn exactly<const N: usize>(&self, missing: &str) -> Result<[&'a str; N], String> {
        if let Some(extra) = self.positional.get(N) {
            return Err(format!("unknown argument `{extra}`"));
        }
        <[&str; N]>::try_from(self.positional.as_slice()).map_err(|_| missing.to_string())
    }

    /// No positional at all.
    pub fn none(&self) -> Result<(), String> {
        self.exactly::<0>("").map(drop)
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.values.contains_key(flag)
    }

    /// The raw value of `flag`; the last one given wins.
    pub fn value(&self, flag: &str) -> Option<&'a str> {
        self.values.get(flag).and_then(|v| v.last().copied())
    }

    /// The value of `flag` (the last one given) as `parse` reads it; a value
    /// `parse` refuses is the flag's usage error.
    pub fn flag<T>(
        &self,
        flag: &str,
        parse: impl Fn(&'a str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| parse(v).ok_or_else(|| self.needs(flag)))
            .transpose()
    }

    /// The value of the [`Flag::Count`] `flag`: a [`count`] no larger than
    /// the ceiling its table entry gives.
    pub fn count(&self, flag: &str) -> Result<Option<usize>, String> {
        let max = self
            .table
            .iter()
            .find_map(|f| match *f {
                Flag::Count(name, max) if name == flag => Some(max),
                _ => None,
            })
            .expect("a Flag::Count of this table");
        self.flag(flag, |v| count(v).filter(|&n| n <= max))
    }

    /// [`Args::flag`] through the value type's [`FromStr`].
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.flag(flag, |v| v.parse().ok())
    }

    /// Every value of the repeatable `flag`, in order, as `parse` reads
    /// them.
    pub fn all<T>(
        &self,
        flag: &str,
        parse: impl Fn(&'a str) -> Option<T>,
    ) -> Result<Vec<T>, String> {
        let values = self.values.get(flag).map_or(&[][..], Vec::as_slice);
        values
            .iter()
            .map(|v| parse(v).ok_or_else(|| self.needs(flag)))
            .collect()
    }
}

/// `--format human|json`: whether JSON was asked for.
pub fn json_format(v: &str) -> Option<bool> {
    match v {
        "human" => Some(false),
        "json" => Some(true),
        _ => None,
    }
}

/// A binary's `main`: prints `usage` on stdout and exits 0 when `--help`
/// or `-h` appears anywhere; otherwise hands the arguments (without the
/// program name) to `run`, whose `Err` becomes `<bin>: <diagnostic>` on
/// stderr and exit 2.
pub fn main(
    bin: &str,
    usage: &str,
    run: impl FnOnce(&[String]) -> Result<ExitCode, String>,
) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match unless_help(&args, run) {
        None => {
            println!("{usage}");
            ExitCode::SUCCESS
        }
        Some(Ok(code)) => code,
        Some(Err(e)) => {
            eprintln!("{bin}: {e}");
            ExitCode::from(2)
        }
    }
}

/// What `run` makes of `args`; `None`, without calling it, when `--help`
/// or `-h` appears anywhere in them.
fn unless_help<R>(args: &[String], run: impl FnOnce(&[String]) -> R) -> Option<R> {
    let help = args.iter().any(|a| a == "--help" || a == "-h");
    (!help).then(|| run(args))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &[Flag] = &[
        Flag::Switch("--smoke"),
        Flag::Value("--runs", COUNT),
        Flag::Count("--threads", 8),
        Flag::Value("--param", "NAME=VALUE"),
        Flag::Value("--out", "a path"),
    ];

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn a_switch_takes_no_value_and_a_value_flag_takes_the_next_argument() {
        let argv = strings(&["--smoke", "x.fail", "--out", "--smoke"]);
        let args = Args::parse(&argv, TABLE).expect("parses");
        assert!(args.switch("--smoke"));
        // `--smoke` after `--out` is `--out`'s value, not the switch again.
        assert_eq!(args.value("--out"), Some("--smoke"));
        assert_eq!(args.positional(), ["x.fail"]);
        assert_eq!(args.exactly::<1>("needs a file"), Ok(["x.fail"]));
        assert!(!Args::parse(&strings(&[]), TABLE)
            .expect("parses")
            .switch("--smoke"));
    }

    #[test]
    fn a_repeated_flag_keeps_every_value_and_the_last_one_wins() {
        let argv = strings(&[
            "--param", "N=5", "--runs", "3", "--param", "X=2", "--runs", "4",
        ]);
        let args = Args::parse(&argv, TABLE).expect("parses");
        let kv = |v: &str| {
            v.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
        };
        let params = args.all("--param", kv).expect("all well-formed");
        assert_eq!(params, [("N".into(), "5".into()), ("X".into(), "2".into())]);
        assert_eq!(args.flag("--runs", count), Ok(Some(4)));
        assert_eq!(args.parsed::<u32>("--out"), Ok(None));
        let argv = strings(&["--param", "N=5", "--param", "oops"]);
        let args = Args::parse(&argv, TABLE).expect("parses");
        assert_eq!(
            args.all("--param", kv),
            Err("--param needs NAME=VALUE".to_string())
        );
    }

    #[test]
    fn usage_errors_name_the_offending_argument() {
        let err = |argv: &[&str]| Args::parse(&strings(argv), TABLE).map(drop).unwrap_err();
        assert_eq!(err(&["--runs"]), "--runs needs a number >= 1");
        assert_eq!(
            err(&["x", "--frobnicate", "1"]),
            "unknown argument `--frobnicate`"
        );
        let argv = strings(&["--runs", "0"]);
        let args = Args::parse(&argv, TABLE).expect("parses");
        assert_eq!(
            args.flag("--runs", count),
            Err("--runs needs a number >= 1".to_string())
        );
        let argv = strings(&["a", "b"]);
        let args = Args::parse(&argv, TABLE).expect("parses");
        assert_eq!(
            args.exactly::<1>("needs a file"),
            Err("unknown argument `b`".to_string())
        );
        assert_eq!(args.none(), Err("unknown argument `a`".to_string()));
        let argv = strings(&[]);
        let args = Args::parse(&argv, TABLE).expect("parses");
        assert_eq!(
            args.exactly::<1>("needs a file"),
            Err("needs a file".to_string())
        );
        assert_eq!(args.none(), Ok(()));
    }

    #[test]
    fn a_count_flag_is_refused_past_its_ceiling() {
        let count_of = |argv: &[&str]| {
            let argv = strings(argv);
            let args = Args::parse(&argv, TABLE).map_err(|e| e.to_string())?;
            args.count("--threads")
        };
        let needs = Err("--threads needs a number >= 1 and <= 8".to_string());
        assert_eq!(count_of(&[]), Ok(None));
        assert_eq!(count_of(&["--threads", "1"]), Ok(Some(1)));
        assert_eq!(count_of(&["--threads", "8"]), Ok(Some(8)));
        assert_eq!(count_of(&["--threads", "9"]), needs);
        assert_eq!(count_of(&["--threads", "0"]), needs);
        assert_eq!(count_of(&["--threads", "18446744073709551615"]), needs);
        assert_eq!(count_of(&["--threads"]), needs);
    }

    /// `--help` wins over anything else on the line, a bad flag before it
    /// included.
    #[test]
    fn help_after_a_bad_flag_is_still_help() {
        let split = |argv: &[String]| Args::parse(argv, TABLE).map(drop);
        assert_eq!(
            unless_help(&strings(&["--frobnicate", "--help"]), split),
            None
        );
        assert_eq!(unless_help(&strings(&["--runs", "-h"]), split), None);
        let refused = Some(Err("unknown argument `--frobnicate`".to_string()));
        assert_eq!(unless_help(&strings(&["--frobnicate"]), split), refused);
    }
}
