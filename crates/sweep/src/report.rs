//! Sweep orchestration.
//!
//! [`run_sweep`] fans `scenarios × seeds` certified simulator runs across
//! scoped worker threads that claim jobs from one shared cursor, collects
//! per-seed reports, and writes failing runs as replayable artifacts.
//! `regular-bench sweep` aggregates the result into the report behind
//! `BENCH_sweep.json` (documented in `BENCHMARKS.md`).

use std::path::PathBuf;

use crate::pool::run_jobs;
use crate::scenario::{run_seed, Scenario, SeedReport, SeedRun};

/// What to sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Scenarios to run (each over the full seed corpus).
    pub scenarios: Vec<Scenario>,
    /// Number of seeds per scenario.
    pub seeds: u64,
    /// First seed; the corpus is `base_seed..base_seed + seeds`.
    pub base_seed: u64,
    /// Worker threads fanning the runs.
    pub threads: usize,
    /// Directory failing runs are dumped into.
    pub artifact_dir: PathBuf,
    /// Target operations per run: scales each scenario's simulated duration
    /// toward roughly this many history operations. `None` keeps the
    /// scenario defaults.
    pub ops: Option<u64>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            scenarios: Scenario::ALL.to_vec(),
            seeds: 32,
            base_seed: 1,
            threads: 1,
            artifact_dir: PathBuf::from("sweep-artifacts"),
            ops: None,
        }
    }
}

/// The outcome of one sweep.
pub struct SweepResult {
    /// Per-seed reports, in job order (scenarios interleaved).
    pub reports: Vec<SeedReport>,
    /// Paths of the failure artifacts written.
    pub artifact_paths: Vec<PathBuf>,
    /// Wall-clock milliseconds for the whole sweep.
    pub wall_ms: f64,
    /// Worker threads used.
    pub threads: usize,
}

impl SweepResult {
    /// Number of runs that failed certification.
    pub fn failures(&self) -> usize {
        self.reports.iter().filter(|r| !r.certified).count()
    }
}

/// Runs the sweep described by `opts`.
///
/// Jobs are laid out scenario-interleaved (`s0 seed0, s1 seed0, …`), so
/// workers claiming them in order mix dissimilar scenario costs; the report
/// order matches the job order.
pub fn run_sweep(opts: &SweepOptions) -> SweepResult {
    let started = std::time::Instant::now();
    let scenarios = &opts.scenarios;
    let jobs = scenarios.len() * opts.seeds as usize;
    let runs: Vec<SeedRun> = run_jobs(jobs, opts.threads, |i| {
        let scenario = scenarios[i % scenarios.len()];
        let seed = opts.base_seed + (i / scenarios.len()) as u64;
        run_seed(scenario, seed, opts.ops)
    });
    let mut reports = Vec::with_capacity(runs.len());
    let mut artifact_paths = Vec::new();
    for run in runs {
        if let Some(artifact) = &run.artifact {
            match artifact.save(&opts.artifact_dir) {
                Ok(path) => artifact_paths.push(path),
                Err(e) => eprintln!(
                    "warning: failed to write artifact for {} seed {}: {e}",
                    run.report.scenario, run.report.seed
                ),
            }
        }
        reports.push(run.report);
    }
    SweepResult {
        reports,
        artifact_paths,
        wall_ms: started.elapsed().as_secs_f64() * 1_000.0,
        threads: opts.threads.max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_certifies_in_job_order() {
        // One seed of the two store scenarios on two threads; the composed
        // scenario has its own test in `scenario`.
        let opts = SweepOptions {
            scenarios: vec![Scenario::SpannerRss, Scenario::GryffRsc],
            seeds: 1,
            base_seed: 7,
            threads: 2,
            artifact_dir: std::env::temp_dir().join("regular-sweep-report-test"),
            ..SweepOptions::default()
        };
        let result = run_sweep(&opts);
        let scenarios: Vec<&str> = result.reports.iter().map(|r| r.scenario).collect();
        assert_eq!(scenarios, ["spanner-rss", "gryff-rsc"]);
        assert_eq!(result.failures(), 0, "seed 7 certifies: {:?}", result.reports);
        assert!(result.artifact_paths.is_empty());
    }
}
