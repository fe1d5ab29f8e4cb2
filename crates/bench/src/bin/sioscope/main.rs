//! `sioscope`: the command-line front door to the reproduction, one
//! subcommand per module (`sioscope -h` lists them).
//!
//! Every subcommand shares one flag parser ([`Args`]), one id parser
//! ([`sioscope_bench::parse_ids`]) and one exit path. Exit codes are
//! part of the contract: `0` success, `2` unusable arguments, `3` an
//! I/O failure (the failing path is printed), `4` the run finished but
//! an expectation failed (a shape check, a chaos invariant, a
//! campaign run or cache-hit floor, a speedup gate). `-h`/`--help`
//! prints the usage and exits 0, and a reader that closes stdout
//! early (`sioscope repro | head`) is a clean exit 0.

mod baseline;
mod campaign;
mod chaos;
mod characterize;
mod repro;

use sioscope_campaign::{run_cli, CliError};
use std::str::FromStr;

const USAGE: &str = "usage: sioscope <subcommand> [ARGS...]

subcommands:
  repro         regenerate the paper's tables and figures (and sweeps)
  campaign      plan or run a campaign spec through the result cache
  chaos         soak seeded fault schedules across the storage tiers
  characterize  characterize a trace file, or simulate one with --demo
  baseline      collate or compare `cargo bench` baselines

`sioscope <subcommand> -h` prints that subcommand's usage.";

/// A subcommand: its name, its usage, and its body.
type Subcommand = (&'static str, &'static str, fn(Args) -> Result<(), CliError>);

const SUBCOMMANDS: [Subcommand; 5] = [
    ("repro", repro::USAGE, repro::main),
    ("campaign", campaign::USAGE, campaign::main),
    ("chaos", chaos::USAGE, chaos::main),
    ("characterize", characterize::USAGE, characterize::main),
    ("baseline", baseline::USAGE, baseline::main),
];

fn main() {
    run_cli(dispatch);
}

fn is_help(arg: &str) -> bool {
    arg == "-h" || arg == "--help"
}

fn dispatch(argv: &[String]) -> Result<(), CliError> {
    let Some((name, rest)) = argv.split_first() else {
        return Err(CliError::BadArgs(format!("missing subcommand\n{USAGE}")));
    };
    if is_help(name) {
        println!("{USAGE}");
        return Ok(());
    }
    let Some(&(_, usage, body)) = SUBCOMMANDS.iter().find(|(n, ..)| n == name) else {
        let known: Vec<&str> = SUBCOMMANDS.iter().map(|(n, ..)| *n).collect();
        return Err(CliError::BadArgs(format!(
            "unknown subcommand `{name}` (known: {})",
            known.join(", ")
        )));
    };
    if rest.iter().any(|a| is_help(a)) {
        println!("{usage}");
        return Ok(());
    }
    body(Args {
        usage,
        rest: rest.to_vec(),
    })
}

/// One subcommand's arguments, consumed flag by flag. Whatever no
/// call consumed is rejected by [`Args::finish`], so a misspelt or
/// misplaced flag is a usage error (exit 2), never silently ignored.
/// Consume flags that take a value before bare flags and positionals.
struct Args {
    usage: &'static str,
    rest: Vec<String>,
}

impl Args {
    /// A usage error (exit 2): `msg`, then the subcommand's usage.
    fn bad(&self, msg: impl std::fmt::Display) -> CliError {
        CliError::BadArgs(format!("{msg}\n{}", self.usage))
    }

    /// Whether the bare flag `name` was given.
    fn flag(&mut self, name: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != name);
        self.rest.len() != before
    }

    /// The value after `name`, if the flag was given (the last one
    /// wins). A flag with no value after it is a usage error.
    fn value(&mut self, name: &str) -> Result<Option<String>, CliError> {
        let mut value = None;
        while let Some(i) = self.rest.iter().position(|a| a == name) {
            if i + 1 == self.rest.len() {
                return Err(self.bad(format!("{name} requires a value")));
            }
            value = Some(self.rest.remove(i + 1));
            self.rest.remove(i);
        }
        Ok(value)
    }

    /// The value after `name`, parsed as a `T`.
    pub fn parsed<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, CliError> {
        let Some(v) = self.value(name)? else {
            return Ok(None);
        };
        v.parse()
            .map(Some)
            .map_err(|_| self.bad(format!("bad {name} value `{v}`")))
    }

    /// The `name` / `name=a,b` flag: `None` when absent, otherwise the
    /// text after every `=`, joined by commas (empty for a bare flag).
    fn optional_list(&mut self, name: &str) -> Option<String> {
        let mut lists: Option<Vec<String>> = None;
        self.rest.retain(|a| {
            let list = if a == name {
                ""
            } else if let Some(list) = a.strip_prefix(name).and_then(|r| r.strip_prefix('=')) {
                list
            } else {
                return true;
            };
            lists.get_or_insert_with(Vec::new).push(list.to_string());
            false
        });
        lists.map(|l| l.join(","))
    }

    /// Every remaining argument that is not a flag, in order.
    fn positionals(&mut self) -> Vec<String> {
        let (flags, positionals) = std::mem::take(&mut self.rest)
            .into_iter()
            .partition(|a| a.starts_with('-'));
        self.rest = flags;
        positionals
    }

    /// Reject any argument no call consumed.
    fn finish(&self) -> Result<(), CliError> {
        match self.rest.first() {
            Some(a) => Err(self.bad(format!("unknown argument `{a}`"))),
            None => Ok(()),
        }
    }
}
