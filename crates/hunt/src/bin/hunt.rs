//! Coverage-guided bug hunt over the simulated Gryff-RSC deployment.
//!
//! Runs the evaluator cascade (smoke → random → guided mutation) under a
//! time/execution budget; on the first certification failure, minimizes the
//! triggering input with the ddmin shrinker and writes a replayable
//! artifact that `regular-bench replay` reproduces without
//! re-simulating.
//!
//! Usage:
//!
//! ```text
//! hunt [--budget-execs N] [--budget-secs S] [--seed S]
//!      [--bug-zoo] [--expect-bug] [--out DIR]
//! ```
//!
//! `--bug-zoo` enables the reintroduced historical protocol bugs (build
//! with `--features bug-zoo`; the knob is inert otherwise). `--expect-bug`
//! inverts the exit status for CI smoke jobs: success means a bug was
//! found, minimized, and written. Without it the hunt is a conformance
//! gate: finding a violation is a failure.

use std::path::PathBuf;
use std::process::ExitCode;

use regular_gryff::prelude::BugZoo;
use regular_hunt::{failure_artifact, hunt, shrink, HuntConfig};

struct Args {
    config: HuntConfig,
    expect_bug: bool,
    out: PathBuf,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: hunt [--budget-execs N] [--budget-secs S] [--seed S] [--bug-zoo] \
         [--expect-bug] [--out DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut config = HuntConfig { max_execs: 512, ..HuntConfig::default() };
    let mut expect_bug = false;
    let mut out = PathBuf::from("hunt-artifacts");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value =
            |flag: &str| args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match arg.as_str() {
            "--budget-execs" => {
                config.max_execs =
                    value("--budget-execs").parse().unwrap_or_else(|_| usage("bad --budget-execs"))
            }
            "--budget-secs" => {
                let secs: u64 =
                    value("--budget-secs").parse().unwrap_or_else(|_| usage("bad --budget-secs"));
                config.max_millis = Some(secs * 1_000);
            }
            "--seed" => {
                config.seed = value("--seed").parse().unwrap_or_else(|_| usage("bad --seed"))
            }
            "--bug-zoo" => config.bug_zoo = BugZoo { two_component_carstamps: true },
            "--expect-bug" => expect_bug = true,
            "--out" => out = PathBuf::from(value("--out")),
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    Args { config, expect_bug, out }
}

fn main() -> ExitCode {
    let Args { config, expect_bug, out } = parse_args();
    if config.bug_zoo.any() && !cfg!(any(test, feature = "bug-zoo")) {
        eprintln!(
            "warning: --bug-zoo requested but the mutants are compiled out; \
             rebuild with `--features bug-zoo` for them to take effect"
        );
    }
    println!(
        "== hunt: budget {} execs{}, explorer seed {}, bug zoo {} ==",
        config.max_execs,
        config.max_millis.map(|ms| format!(" / {} s", ms / 1_000)).unwrap_or_default(),
        config.seed,
        if config.bug_zoo.any() { "ON" } else { "off" },
    );

    let outcome = hunt(&config);
    println!(
        "explored {} execution(s): corpus {}, {} distinct coverage feature(s)",
        outcome.executions, outcome.corpus_size, outcome.features_seen,
    );

    let Some(found) = outcome.found else {
        println!("no certification failure found within budget");
        return if expect_bug {
            eprintln!("--expect-bug: FAILED (the hunt was expected to find a violation)");
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    };

    println!(
        "violation found by the {} stage after {} execution(s): {}",
        found.stage,
        found.execs_to_find,
        found.failure().violation,
    );
    println!(
        "trigger: {} scripted op(s), {} fault event(s), {} nudge(s), {} history op(s)",
        found.input.scripted_ops(),
        found.input.faults.len(),
        found.input.nudges.len(),
        found.verdict.history_ops,
    );

    let minimized = shrink(&found.input, config.bug_zoo);
    println!(
        "minimized in {} execution(s): {} scripted op(s), {} fault event(s), \
         {} nudge(s), {} history op(s), stop at {} ms",
        minimized.executions,
        minimized.input.scripted_ops(),
        minimized.input.faults.len(),
        minimized.input.nudges.len(),
        minimized.verdict.history_ops,
        minimized.input.stop_ms,
    );
    let failure = minimized.verdict.failure.as_ref().expect("shrink preserves the failure");
    println!("minimized violation: {}", failure.violation);
    println!("coverage: {}", minimized.verdict.coverage.describe());

    let artifact = failure_artifact(&minimized.input, failure, &minimized.verdict.coverage);
    match artifact.save(&out) {
        Ok(path) => {
            println!("artifact written: {}", path.display());
            println!("replay with: regular-bench replay {}", path.display());
        }
        Err(e) => {
            eprintln!("failed to write artifact to {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }

    if expect_bug {
        println!("--expect-bug: OK (violation found and minimized)");
        ExitCode::SUCCESS
    } else {
        eprintln!("certification FAILED under hunt; see the artifact above");
        ExitCode::FAILURE
    }
}
