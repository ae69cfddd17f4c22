//! `hunt`: a coverage-guided bug hunt over the simulated Gryff-RSC
//! deployment.
//!
//! Runs the evaluator cascade (smoke → random → guided mutation) under an
//! execution and wall-clock budget; on the first certification failure,
//! minimizes the triggering input with the ddmin shrinker and writes a
//! replayable artifact that `regular-bench replay` reproduces without
//! re-simulating.
//!
//! `--bug-zoo` enables the reintroduced historical protocol bugs (build
//! with `--features bug-zoo`; the knob is inert otherwise). `--expect-bug`
//! inverts the exit status for CI smoke jobs: success means a bug was
//! found, minimized, and written. Without it the hunt is a conformance
//! gate: finding a violation is exit 1.

use std::path::PathBuf;
use std::process::ExitCode;

use regular_gryff::prelude::BugZoo;
use regular_hunt::{hunt as run_hunt, shrink, HuntConfig, HUNT_SCENARIO};

use crate::cli::Args;

/// The `hunt` subcommand.
pub fn hunt(mut args: Args) -> Result<ExitCode, String> {
    let config = HuntConfig {
        max_execs: args.value("--budget-execs")?.unwrap_or(512),
        max_millis: args.value::<u64>("--budget-secs")?.map(|secs| secs * 1_000),
        seed: args.value("--seed")?.unwrap_or(HuntConfig::default().seed),
        bug_zoo: BugZoo { two_component_carstamps: args.flag("--bug-zoo") },
    };
    let expect_bug = args.flag("--expect-bug");
    let out: PathBuf = args.value("--out")?.unwrap_or_else(|| PathBuf::from("hunt-artifacts"));
    args.finish()?;

    if config.bug_zoo.any() && !cfg!(feature = "bug-zoo") {
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

    let outcome = run_hunt(&config);
    println!(
        "explored {} execution(s): corpus {}, {} distinct coverage feature(s)",
        outcome.executions, outcome.corpus_size, outcome.features_seen,
    );

    let Some(found) = outcome.found else {
        println!("no certification failure found within budget");
        if expect_bug {
            eprintln!("--expect-bug: FAILED (the hunt was expected to find a violation)");
            return Ok(ExitCode::FAILURE);
        }
        return Ok(ExitCode::SUCCESS);
    };

    println!(
        "violation found by the {} stage after {} execution(s): {}",
        found.stage,
        found.execs_to_find,
        found.verdict.violation.as_deref().unwrap_or_default(),
    );
    println!(
        "trigger: {} scripted op(s), {} fault event(s), {} nudge(s), {} history op(s)",
        found.input.scripted_ops(),
        found.input.faults.len(),
        found.input.nudges.len(),
        found.verdict.history_ops(),
    );

    let minimized = shrink(&found.input, config.bug_zoo);
    println!(
        "minimized in {} execution(s): {} scripted op(s), {} fault event(s), \
         {} nudge(s), {} history op(s), stop at {} ms",
        minimized.executions,
        minimized.input.scripted_ops(),
        minimized.input.faults.len(),
        minimized.input.nudges.len(),
        minimized.verdict.history_ops(),
        minimized.input.stop_ms,
    );
    let artifact = minimized
        .verdict
        .into_artifact(HUNT_SCENARIO, &minimized.input)
        .expect("shrink preserves the failure");
    println!("minimized violation: {}", artifact.violation);
    if let Some(coverage) = &artifact.coverage {
        println!("coverage: {}", coverage.describe());
    }

    let path = artifact
        .save(&out)
        .map_err(|e| format!("failed to write artifact to {}: {e}", out.display()))?;
    println!("artifact written: {}", path.display());
    println!("replay with: regular-bench replay {}", path.display());

    if expect_bug {
        println!("--expect-bug: OK (violation found and minimized)");
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("certification FAILED under hunt; see the artifact above");
        Ok(ExitCode::FAILURE)
    }
}
