//! Checker-scale profile: certification cost on 100k-op histories.
//!
//! Measures the three certification paths on a synthetic history with known
//! component structure (see `regular_sweep::synthetic_history`):
//!
//! * `witness_full_100k` — the sequential batch certificate checker over the
//!   whole history, the baseline every other row is a ratio of.
//! * `witness_decomposed_100k` — component-decomposed witness checking
//!   (single-threaded, so the ratio measures the decomposition itself, not
//!   host parallelism).
//! * `streaming_100k` — the windowed streaming checker fed in
//!   completion-time order through a reorder buffer.
//! * `streaming_100k_10k_sessions` — the same path on a session-shaped
//!   history (`regular_sweep::synthetic_session_history`: ten ops per
//!   process, so 10k processes where the rows above have `2 × groups`), as a
//!   ratio of `witness_full_100k_10k_sessions`, the batch checker on it.
//!   Per-process work in front of the checker shows here and nowhere else.
//! * `saturated_search_2k` — the full search-side cascade (saturation
//!   prefilter + component decomposition + guided search) *finding* a
//!   witness for a 2k-op history, far past the old 128-op exact frontier.
//!
//! The decomposed and streaming rows carry a `speedup` ratio against the
//! `witness_full` row of the same history, measured in the same process,
//! which transfers across hosts the way absolute milliseconds do not;
//! `bench_gate --checker` gates those ratios against
//! `ci/checker_scale_reference.json`.
//!
//! Usage:
//!
//! ```text
//! checker_scale [--ops 100000] [--groups 8] [--search-ops 2000] \
//!               [--out BENCH_checker_scale.json]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use regular_core::checker::certificate::WitnessModel;
use regular_core::{check, check_witness, check_witness_decomposed, Model};
use regular_sweep::{
    certify_streaming, synthetic_history, synthetic_session_history, write_json, Json,
};

/// Wall-clock milliseconds, median of `ROUNDS` interleaved runs per path.
///
/// The paths are measured round-robin (one run of each per round) rather
/// than back to back, so slow host phases (frequency scaling, a noisy
/// neighbour) hit every path about equally, and the median resists
/// outlier-fast and outlier-slow samples alike — the *ratios* the gate
/// consumes stay stable even when absolute times wobble.
fn time_all(names: &[&str], paths: &mut [&mut dyn FnMut() -> bool]) -> Vec<f64> {
    const ROUNDS: usize = 15;
    for (name, f) in names.iter().zip(paths.iter_mut()) {
        assert!(f(), "{name} failed during warmup");
    }
    let mut samples = vec![Vec::with_capacity(ROUNDS); paths.len()];
    for _ in 0..ROUNDS {
        for (i, (name, f)) in names.iter().zip(paths.iter_mut()).enumerate() {
            let started = Instant::now();
            assert!(f(), "{name} failed");
            samples[i].push(started.elapsed().as_secs_f64() * 1_000.0);
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        })
        .collect()
}

fn entry(name: &str, ops: usize, components: usize, millis: f64, speedup: Option<f64>) -> Json {
    let round2 = |v: f64| (v * 100.0).round() / 100.0;
    let ops_per_sec = if millis > 0.0 { (ops as f64 / (millis / 1_000.0)).round() } else { 0.0 };
    let mut pairs = vec![
        ("name".to_string(), Json::str(name)),
        ("ops".to_string(), Json::u64(ops as u64)),
        ("components".to_string(), Json::u64(components as u64)),
        ("millis".to_string(), Json::f64(round2(millis))),
        ("ops_per_sec".to_string(), Json::f64(ops_per_sec)),
    ];
    if let Some(s) = speedup {
        pairs.push(("speedup".to_string(), Json::f64(round2(s))));
    }
    Json::Obj(pairs)
}

fn main() -> ExitCode {
    let mut ops = 100_000usize;
    let mut groups = 8usize;
    let mut search_ops = 2_000usize;
    let mut out = PathBuf::from("BENCH_checker_scale.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().expect("flag needs a value");
        match arg.as_str() {
            "--ops" => ops = value().parse().expect("bad --ops"),
            "--groups" => groups = value().parse().expect("bad --groups"),
            "--search-ops" => search_ops = value().parse().expect("bad --search-ops"),
            "--out" => out = PathBuf::from(value()),
            other => {
                eprintln!("checker_scale: unknown argument '{other}'");
                eprintln!(
                    "usage: checker_scale [--ops N] [--groups G] [--search-ops N] [--out PATH]"
                );
                return ExitCode::from(2);
            }
        }
    }

    println!("== checker scale: {ops} ops in {groups} groups, search at {search_ops} ops ==");
    let (history, witness) = synthetic_history(ops, groups);
    let model = WitnessModel::Regular;

    const SESSION_GROUPS: usize = 16;
    let (session_history, session_witness) = synthetic_session_history(ops, SESSION_GROUPS, 10);

    let (search_history, _) = synthetic_history(search_ops, groups.min(4));

    let mut peak_window = 0usize;
    let mut full = || check_witness(&history, &witness, model).is_ok();
    let mut decomposed = || check_witness_decomposed(&history, &witness, model, 1).is_ok();
    let mut streaming = || match certify_streaming(&history, &witness, model) {
        Ok(stats) => {
            peak_window = stats.peak_window;
            true
        }
        Err(_) => false,
    };
    let mut full_sessions = || check_witness(&session_history, &session_witness, model).is_ok();
    let mut streaming_sessions =
        || certify_streaming(&session_history, &session_witness, model).is_ok();
    let mut search = || {
        check(&search_history, Model::RegularSequentialConsistency)
            .map(|o| o.satisfied)
            .unwrap_or(false)
    };
    // Per path: name, ops, components, the row its `speedup` is a ratio of.
    let rows = [
        ("witness_full_100k", ops, groups, None),
        ("witness_decomposed_100k", ops, groups, Some(0)),
        ("streaming_100k", ops, groups, Some(0)),
        ("witness_full_100k_10k_sessions", ops, SESSION_GROUPS, None),
        ("streaming_100k_10k_sessions", ops, SESSION_GROUPS, Some(3)),
        ("saturated_search_2k", search_ops, groups.min(4), None),
    ];
    let mut paths: [&mut dyn FnMut() -> bool; 6] = [
        &mut full,
        &mut decomposed,
        &mut streaming,
        &mut full_sessions,
        &mut streaming_sessions,
        &mut search,
    ];
    let times = time_all(&rows.map(|row| row.0), &mut paths);
    let mut entries = Vec::new();
    for (&(name, ops, components, baseline), &millis) in rows.iter().zip(&times) {
        let speedup = baseline.map(|row: usize| times[row] / millis);
        let ratio = speedup.map(|s| format!(" ({s:.2}x)")).unwrap_or_default();
        println!("   {name:<31} {millis:>9.2} ms{ratio}");
        entries.push(entry(name, ops, components, millis, speedup));
    }

    let report = Json::Obj(
        vec![
            ("schema".to_string(), Json::str("regular-seq/checker-scale/v1")),
            ("peak_window".to_string(), Json::u64(peak_window as u64)),
            ("entries".to_string(), Json::Arr(entries)),
        ]
        .into_iter()
        .collect(),
    );
    if let Err(e) = write_json(&out, &report) {
        eprintln!("checker_scale: failed to write {}: {e}", out.display());
        return ExitCode::from(2);
    }
    println!("checker-scale profile written to {}", out.display());
    ExitCode::SUCCESS
}
