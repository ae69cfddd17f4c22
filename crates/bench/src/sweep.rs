//! `sweep` and `replay`: certify fleets of seeded runs, and re-check one
//! failing run from its artifact.
//!
//! `sweep` fans seeded runs of every selected scenario (Spanner-RSS,
//! Gryff-RSC and the composed two-store deployment, plain, under fault
//! scripts and on write-ahead logs) across worker threads that each claim
//! the next seed from one shared cursor, certifies each recorded history
//! against its RSS/RSC witness model after the run
//! (`regular_sweep::certify_streaming`, whose `peak_window` is the reorder
//! window an online certifier would have needed), and reports one row per
//! scenario. Seeds that fail certification are dumped as replayable
//! artifacts and fail the run — the CI gate.
//!
//! `--threads T1,T2,…` re-runs the whole sweep once per thread count and
//! records the wall-clock of each in the report's `scaling` parameter
//! (`scaling_speedup` is `wall(T1) / wall(Tlast)`). `--ops N` scales each
//! scenario's simulated duration toward roughly `N` operations per run.
//!
//! `--scenarios live` sweeps the live execution plane instead
//! (`live-spanner-rss,live-gryff-rsc,live-composed,live-spanner-faults`):
//! every node an OS thread on scaled wall-clock time, over the in-process
//! mpsc transport (the `net` subcommand exercises the socket backends; see
//! `OPERATIONS.md`), certified the same way once the run has stopped.
//! Live runs occupy real cores, so pair them with `--threads 1`.

use std::path::Path;
use std::process::ExitCode;

use regular_sweep::input::workload_name;
use regular_sweep::{
    run_sweep, FailureArtifact, Json, Scenario, SeedReport, SweepOptions, SweepResult,
};

use crate::cli::Args;
use crate::report::{emit, round2, Report, Rule};

/// The arithmetic mean; 0 of nothing.
fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(sum, n), v| (sum + v, n + 1));
    sum / n.max(1) as f64
}

/// Aggregates a sweep (plus optional thread-scaling measurements from
/// repeated sweeps) into the `sweep` report: one row per scenario, every
/// simulated observable `exact`, every wall-clock figure informational.
pub fn sweep_report(result: &SweepResult, opts: &SweepOptions, scaling: &[(usize, f64)]) -> Report {
    use Rule::{Exact, Info};
    let host_threads = std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1);
    let failures = result.reports.iter().filter(|r| !r.certified).map(|r| {
        Json::obj(vec![
            ("scenario", Json::str(r.scenario)),
            ("seed", Json::u64(r.seed)),
            ("violation", Json::str(r.violation.clone().unwrap_or_else(|| "unknown".to_string()))),
        ])
    });
    let params = vec![
        ("seeds", Json::u64(opts.seeds)),
        ("base_seed", Json::u64(opts.base_seed)),
        ("threads", Json::u64(result.threads as u64)),
        // Scaling numbers are only meaningful relative to the cores the
        // generating host actually had (a 1-core dev container cannot show
        // parallel speedup).
        ("host_threads", Json::u64(host_threads)),
        ("ops_target", opts.ops.map(Json::u64).unwrap_or(Json::Null)),
        ("total_runs", Json::u64(result.reports.len() as u64)),
        ("total_failures", Json::u64(result.failures() as u64)),
        ("wall_clock_ms", Json::f64(round2(result.wall_ms))),
        ("failures", Json::Arr(failures.collect())),
    ];
    let mut report = Report::new("sweep", params);
    if let (Some((_, base)), Some((_, best))) = (scaling.first(), scaling.last()) {
        let entries = scaling.iter().map(|(threads, wall_ms)| {
            Json::obj(vec![
                ("threads", Json::u64(*threads as u64)),
                ("wall_clock_ms", Json::f64(round2(*wall_ms))),
            ])
        });
        let speedup = if *best > 0.0 { round2(base / best) } else { 0.0 };
        report.param("scaling", Json::Arr(entries.collect()));
        report.param("scaling_speedup", Json::f64(speedup));
    }
    for s in &opts.scenarios {
        let rs: Vec<&SeedReport> =
            result.reports.iter().filter(|r| r.scenario == s.name()).collect();
        let passed = rs.iter().filter(|r| r.certified).count() as u64;
        let sum = |f: fn(&SeedReport) -> u64| Json::u64(rs.iter().map(|r| f(r)).sum());
        let avg = |f: fn(&SeedReport) -> f64| Json::f64(round2(mean(rs.iter().map(|r| f(r)))));
        let ops_min = rs.iter().map(|r| r.history_ops as u64).min().unwrap_or(0);
        let certify_rate = mean(
            rs.iter()
                .filter(|r| r.cert_ms > 0.0)
                .map(|r| r.history_ops as f64 / (r.cert_ms / 1_000.0)),
        );
        let components = rs.iter().map(|r| r.components as u64).max().unwrap_or(0);
        let peak_window = rs.iter().map(|r| r.peak_window as u64).max().unwrap_or(0);
        let checkpoints: u64 = rs.iter().map(|r| r.storage.checkpoints).sum();
        let snapshot_bytes: u64 = rs.iter().map(|r| r.storage.snapshot_bytes).sum();
        report.push(
            s.name(),
            vec![
                ("runs", Exact, Json::u64(rs.len() as u64)),
                ("certified", Exact, Json::u64(passed)),
                ("failed", Exact, Json::u64(rs.len() as u64 - passed)),
                ("history_ops_total", Exact, sum(|r| r.history_ops as u64)),
                ("history_ops_min", Exact, Json::u64(ops_min)),
                ("messages_dropped_total", Exact, sum(|r| r.dropped)),
                ("messages_duplicated_total", Exact, sum(|r| r.duplicated)),
                ("messages_expired_total", Exact, sum(|r| r.expired)),
                ("latency_p50_ms_mean", Exact, avg(|r| r.p50_ms)),
                ("latency_p99_ms_mean", Exact, avg(|r| r.p99_ms)),
                ("run_wall_ms_mean", Info, avg(|r| r.wall_ms)),
                ("certify_wall_ms_mean", Info, avg(|r| r.cert_ms)),
                ("certify_ops_per_sec_mean", Info, Json::f64(round2(certify_rate))),
                ("wall_ops_per_sec_mean", Info, avg(|r| r.wall_ops_per_sec)),
                ("components_max", Exact, Json::u64(components)),
                ("peak_window_max", Exact, Json::u64(peak_window)),
                ("wal_records_total", Exact, sum(|r| r.storage.records)),
                ("wal_syncs_total", Exact, sum(|r| r.storage.syncs)),
                ("wal_recoveries_total", Exact, sum(|r| r.storage.recoveries)),
                ("wal_replayed_total", Exact, sum(|r| r.storage.replayed)),
                (
                    "wal_snapshot_bytes_per_checkpoint",
                    Info,
                    Json::u64(snapshot_bytes.checked_div(checkpoints).unwrap_or(0)),
                ),
            ],
        );
    }
    report
}

/// Parses `--scenarios`: `all`, `live`, or a comma-separated list of names.
fn scenarios(list: &str) -> Result<Vec<Scenario>, String> {
    match list.trim().to_ascii_lowercase().as_str() {
        "all" => Ok(Scenario::ALL.to_vec()),
        "live" => Ok(Scenario::LIVE.to_vec()),
        _ => list.split(',').map(|name| Scenario::parse(name).ok_or(name)).collect(),
    }
    .map_err(|name| {
        let valid: Vec<&str> =
            Scenario::ALL.iter().chain(Scenario::LIVE.iter()).map(|v| v.name()).collect();
        format!("unknown scenario '{name}' (valid: {}, or 'all'/'live')", valid.join(", "))
    })
}

/// The `sweep` subcommand.
pub fn sweep(mut args: Args) -> Result<ExitCode, String> {
    let mut opts = SweepOptions::default();
    opts.seeds = args.value("--seeds")?.unwrap_or(opts.seeds);
    if let Some(list) = args.value::<String>("--scenarios")? {
        opts.scenarios = scenarios(&list)?;
    }
    opts.ops = args.value("--ops")?;
    if opts.ops.is_some_and(|ops| !(100..=1_000_000).contains(&ops)) {
        return Err("bad --ops (a target operation count in 100..=1000000)".to_string());
    }
    opts.artifact_dir = args.value("--artifact-dir")?.unwrap_or(opts.artifact_dir);
    let threads = match args.value::<String>("--threads")? {
        None => vec![std::thread::available_parallelism().map_or(1, |n| n.get())],
        Some(list) => {
            let counts = list.split(',').map(|t| t.trim().parse().ok().filter(|t| *t > 0));
            counts.collect::<Option<Vec<usize>>>().ok_or(format!("bad --threads '{list}'"))?
        }
    };
    let out = args.out()?;
    args.finish()?;

    // One full sweep per requested thread count (identical seeds, so
    // identical work), recording each wall clock; the last sweep provides
    // the per-seed reports.
    let mut measured: Vec<(usize, f64)> = Vec::new();
    let mut last = None;
    for &count in &threads {
        opts.threads = count;
        let result = run_sweep(&opts);
        println!(
            "threads={count}: {} runs in {:.0} ms ({} failures)",
            result.reports.len(),
            result.wall_ms,
            result.failures(),
        );
        measured.push((count, result.wall_ms));
        last = Some(result);
    }
    let result = last.expect("--threads names at least one count");
    let scaling = if measured.len() > 1 { measured.as_slice() } else { &[] };
    let written = emit(&sweep_report(&result, &opts, scaling), out.as_deref())?;

    let failures = result.failures();
    println!("certified {}/{} seeded runs", result.reports.len() - failures, result.reports.len());
    if failures > 0 {
        for path in &result.artifact_paths {
            eprintln!("violation artifact: {}", path.display());
        }
        eprintln!("{failures} run(s) FAILED certification; replay with: regular-bench replay FILE");
        return Ok(ExitCode::FAILURE);
    }
    Ok(written)
}

/// The `replay` subcommand: re-checks a failure artifact's recorded witness
/// against its recorded history, without re-simulating. Exit 1 means the
/// violation reproduced.
pub fn replay(mut args: Args) -> Result<ExitCode, String> {
    let path = args.positional("ARTIFACT.json")?;
    args.finish()?;
    let artifact = FailureArtifact::load(Path::new(&path))
        .map_err(|e| format!("failed to load artifact: {e}"))?;
    println!(
        "replaying {} seed {} ({} ops, model {:?})",
        artifact.scenario,
        artifact.seed,
        artifact.history.len(),
        artifact.model,
    );
    println!("recorded violation: {}", artifact.violation);
    println!("storage mode: {}", artifact.durability.as_deref().unwrap_or("in-memory"));
    if !artifact.deliveries.is_empty() {
        println!(
            "live delivery schedule: {} recorded deliveries (wall-clock run)",
            artifact.deliveries.len()
        );
    }
    if let Some(coverage) = &artifact.coverage {
        println!("coverage signature: {}", coverage.describe());
    }
    if let Some(input) = &artifact.schedule {
        println!(
            "recorded input: {} on seed {}, {} fault event(s), {} nudge(s), stop at {} ms \
             (re-simulate it with regular_sweep::run_input; this replay checks the evidence only)",
            input.workload.map_or("scripted gryff sessions", workload_name),
            input.seed,
            input.faults.len(),
            input.nudges.len(),
            input.stop_ms,
        );
    }
    Ok(match artifact.replay() {
        Ok(()) => {
            println!("replay verdict: CERTIFIED — the recorded witness now passes");
            ExitCode::SUCCESS
        }
        Err(violation) => {
            println!("replay verdict: VIOLATION REPRODUCED — {violation:?}");
            ExitCode::FAILURE
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_aggregates_into_a_report() {
        // One seed of the two store scenarios on two threads; the composed
        // scenario has its own test in `scenario`.
        let opts = SweepOptions {
            scenarios: vec![Scenario::SpannerRss, Scenario::GryffRsc],
            seeds: 1,
            base_seed: 7,
            threads: 2,
            artifact_dir: std::env::temp_dir().join("regular-bench-sweep-test"),
            ops: None,
        };
        let result = run_sweep(&opts);
        assert_eq!(result.reports.len(), 2);
        assert_eq!(result.failures(), 0, "seed 7 certifies: {:?}", result.reports);
        assert!(result.artifact_paths.is_empty());
        let report = sweep_report(&result, &opts, &[(1, 100.0), (4, 40.0)]);
        let text = report.to_json().to_pretty();
        let parsed = Report::from_json(&Json::parse(&text).expect("report parses"));
        assert_eq!(parsed.as_ref(), Ok(&report), "the JSON form round-trips");
        let param = |key: &str| report.params.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        assert_eq!(param("total_runs").and_then(Json::as_u64), Some(2));
        assert_eq!(param("total_failures").and_then(Json::as_u64), Some(0));
        assert_eq!(param("scaling_speedup").and_then(Json::as_f64), Some(2.5));
        let (name, spanner) = &report.rows[0];
        assert_eq!(name, "spanner-rss");
        let cell = |column: &str| {
            report.cells(spanner).find(|(c, _, _)| *c == column).map(|(_, rule, v)| (rule, v))
        };
        assert_eq!(cell("certified"), Some((Rule::Exact, &Json::u64(1))));
        let (rule, ops) = cell("history_ops_min").expect("every scenario reports its ops");
        assert!(rule == Rule::Exact && ops.as_u64().unwrap() > 128);
        assert!(cell("components_max").unwrap().1.as_u64().unwrap() >= 1);
        let (rule, rate) = cell("certify_ops_per_sec_mean").expect("certification was timed");
        assert!(rule == Rule::Info && rate.as_f64().unwrap() > 0.0, "wall-clock never gates");
        assert!(report.table().lines().count() == 3 && report.broken().is_empty());
    }
}
