//! The one argument parser and the subcommand table.
//!
//! Every subcommand takes what it knows out of an [`Args`] and then calls
//! [`Args::finish`], which refuses whatever is left; a refused or unparsable
//! argument prints the subcommand's usage line and exits 2 — before any work
//! is done, and never as a panic.

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use crate::{gate, hunt, live, paper, profiles, storage, sweep};

/// The arguments of one subcommand invocation, consumed piece by piece.
pub struct Args(Vec<String>);

impl Args {
    /// Wraps the arguments after the subcommand name.
    pub fn new(args: impl IntoIterator<Item = impl Into<String>>) -> Args {
        Args(args.into_iter().map(Into::into).collect())
    }

    /// Takes the switch `name` out; true if it was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let at = self.0.iter().position(|a| a == name);
        at.map(|at| self.0.remove(at)).is_some()
    }

    /// Takes `name VALUE` out and parses the value.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(at) = self.0.iter().position(|a| a == name) else { return Ok(None) };
        if at + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        let raw = self.0.remove(at + 1);
        self.0.remove(at);
        raw.parse().map(Some).map_err(|_| format!("bad {name} '{raw}'"))
    }

    /// `--out PATH`: where the report's JSON goes (nowhere when absent).
    pub fn out(&mut self) -> Result<Option<PathBuf>, String> {
        self.value("--out")
    }

    /// Takes the first argument that is not a `--flag`; call it after every
    /// [`Args::value`], whose values are such arguments too.
    pub fn positional(&mut self, what: &str) -> Result<String, String> {
        let at = self.0.iter().position(|a| !a.starts_with("--"));
        at.map(|at| self.0.remove(at)).ok_or_else(|| format!("missing {what}"))
    }

    /// Refuses whatever no one took.
    pub fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(arg) => Err(format!("unknown argument '{arg}'")),
        }
    }
}

/// A subcommand: `Err` is a usage or IO error (exit 2); `Ok` carries the
/// verdict (0, or 1 when a run did not certify / a gate did not hold).
pub type Run = fn(Args) -> Result<ExitCode, String>;

/// Every subcommand: name, usage line, entry point. `net-worker` is the
/// process `net --processes N` re-executes; it is not for people.
const COMMANDS: [(&str, &str, Run); 12] = [
    (
        "sweep",
        "[--seeds N] [--threads T1[,T2,...]] [--scenarios all|live|NAME,...] [--ops N] \
         [--artifact-dir DIR] [--out PATH]",
        sweep::sweep,
    ),
    ("replay", "ARTIFACT.json", sweep::replay),
    (
        "hunt",
        "[--budget-execs N] [--budget-secs S] [--seed S] [--bug-zoo] [--expect-bug] [--out DIR]",
        hunt::hunt,
    ),
    ("baseline", "[--out PATH]", paper::baseline),
    ("engine", "[--iters N] [--out PATH]", profiles::engine),
    ("checker", "[--out PATH]", profiles::checker),
    ("storage", "[--out PATH]", storage::storage),
    (
        "live",
        "[--quick] [--seed S] [--scale N] [--transport mpsc|uds|tcp] [--out PATH]",
        live::live,
    ),
    (
        "net",
        "[--quick] [--seed S] [--scale N] [--open-loop] [--processes N] [--out PATH]",
        live::net,
    ),
    ("net-worker", "(spawned by `net --processes N`)", live::worker),
    (
        "paper",
        "fig4|fig5|fig6|fig7|ablation-spanner|ablation-gryff|gryff-overhead|all [--quick] \
         [--out PATH]",
        paper::paper,
    ),
    ("gate", "CURRENT.json REFERENCE.json", gate::gate),
];

/// Runs the subcommand named by the first argument.
pub fn main(args: impl IntoIterator<Item = String>) -> ExitCode {
    let mut args = args.into_iter();
    let name = args.next().unwrap_or_default();
    let Some((name, usage, run)) = COMMANDS.iter().find(|(n, _, _)| *n == name) else {
        eprintln!("error: unknown subcommand '{name}'\nusage: regular-bench <subcommand> ...");
        for (name, usage, _) in COMMANDS.iter().filter(|(n, _, _)| *n != "net-worker") {
            eprintln!("  {name} {usage}");
        }
        return ExitCode::from(2);
    };
    run(Args::new(args)).unwrap_or_else(|error| {
        eprintln!("error: {error}\nusage: regular-bench {name} {usage}");
        ExitCode::from(2)
    })
}
