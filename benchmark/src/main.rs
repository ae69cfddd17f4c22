//! The repo benchmark's command line.
//!
//! ```text
//! benchmark --workload NAME --seed S --seconds N --trace 0|1   one run (the contract)
//! benchmark --smoke                                            all workloads, tiny, < 30 s
//! benchmark manifest                                           print BENCHMARK.json
//! benchmark check-repeat A.jsonl B.jsonl                       do two result sets agree?
//! ```
//!
//! A run prints every metric by name with its unit and sample count, then —
//! as the last line of standard output — one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

use rss_benchmark::alloc::Counting;
use rss_benchmark::manifest::{self, END_TO_END, PER_LAYER, RUN_SECONDS};
use rss_benchmark::repeat;
use rss_benchmark::run::{run, Config, Metric, Outcome};
use rss_benchmark::trace::{self, Tracer};
use rss_benchmark::workloads::{Workload, ALL};

#[global_allocator]
static HEAP: Counting = Counting;

fn main() -> ExitCode {
    // Created first: set-up is timed from process entry.
    let tracer = Tracer::new(false);
    rss_benchmark::alloc::keep_freed_memory();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verdict = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest::benchmark_json());
            Ok(())
        }
        Some("check-repeat") => check_repeat(&args[1..]),
        Some("--smoke") => smoke(),
        _ => one_run(&args, tracer),
    };
    match verdict {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}

/// Flag values from `--flag value` pairs; rejects anything else.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Vec<(&'a str, &'a str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument '{flag}' (known: {})", known.join(" ")));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        out.push((flag.as_str(), value.as_str()));
    }
    Ok(out)
}

fn parse_workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload '{name}' (one of: {})", names.join(", "))
    })
}

fn one_run(args: &[String], mut tracer: Tracer) -> Result<(), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    for (flag, value) in flags(args, &["--workload", "--seed", "--seconds", "--trace"])? {
        match flag {
            "--workload" => workload = Some(parse_workload(value)?),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed '{value}'"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(1.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is outside 1..=600"));
                }
            }
            _ => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
        }
    }
    let workload = workload.ok_or("--workload NAME is required (or --smoke, manifest, …)")?;
    let cfg = Config { workload, seed, seconds, trace, smoke: false };
    let outcome = run(&cfg, &mut tracer)?;
    if trace {
        write_trace(workload, seed, &tracer);
    }
    print_human(workload, &cfg, &outcome);
    println!("{}", result_line(&outcome, trace));
    Ok(())
}

fn write_trace(workload: Workload, seed: u64, tracer: &Tracer) {
    let dir = std::path::Path::new(rss_benchmark::OUT_DIR);
    let path = dir.join(format!("{}.trace.json", workload.name()));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        std::fs::write(&path, trace::to_json(workload.name(), seed, tracer.spans()))
    });
    match written {
        Ok(()) => eprintln!("trace: {} spans written to {}", tracer.spans().len(), path.display()),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}

fn print_metric(m: &Metric) {
    println!("{:<44} {:>18.6} {:<6} n={}", m.name, m.value, m.unit, m.n);
}

fn print_human(workload: Workload, cfg: &Config, outcome: &Outcome) {
    println!(
        "# {} seed {} seconds {} trace {}",
        workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    // A traced run's end-to-end numbers are shown for orientation only; the
    // ones that count come from `--trace 0`.
    for m in &outcome.end_to_end {
        print_metric(m);
    }
    // Per-layer metrics come in manifest order, grouped under the prediction
    // written down for them before anything was measured.
    let mut moves = "";
    for (m, layer) in outcome.per_layer.iter().zip(&PER_LAYER) {
        if layer.moves != moves {
            moves = layer.moves;
            println!("# should move: {moves}");
        }
        print_metric(m);
    }
    println!(
        "# correct {} attempted {} failed {}",
        outcome.correct, outcome.attempted, outcome.failed
    );
}

/// The run's last line: `--trace 0` carries every end-to-end metric,
/// `--trace 1` every per-layer one. Values print with all their digits.
fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics = if trace { &outcome.per_layer } else { &outcome.end_to_end };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

/// All four workloads at a tiny fixed size, traced, asserting that every
/// metric `BENCHMARK.json` names is emitted with its unit, and with samples
/// behind it: on every workload for an end-to-end metric, on at least one for
/// a per-layer metric (a Gryff counter has none on a Spanner workload).
fn smoke() -> Result<(), String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if on_disk != manifest::benchmark_json() {
        return Err("BENCHMARK.json differs from `benchmark manifest`; regenerate it".into());
    }
    let mut sampled = std::collections::BTreeSet::new();
    for workload in ALL {
        let mut tracer = Tracer::new(false);
        let cfg = Config { workload, seed: 1, seconds: 1.0, trace: true, smoke: true };
        let outcome = run(&cfg, &mut tracer)?;
        let named = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, &outcome.end_to_end, true))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, &outcome.per_layer, false)));
        for (name, unit, emitted, everywhere) in named {
            let bad = |what: &str| format!("{}: metric {name} {what}", workload.name());
            let m =
                emitted.iter().find(|m| m.name == name).ok_or_else(|| bad("was not emitted"))?;
            if m.unit != unit || unit.is_empty() {
                return Err(bad(&format!("has unit '{}'", m.unit)));
            }
            if m.n > 0 {
                sampled.insert(name);
            } else if everywhere {
                return Err(bad("has no samples behind it"));
            }
        }
        if !outcome.correct {
            return Err(format!("{}: not correct: {:?}", workload.name(), outcome.notes));
        }
        println!(
            "smoke {:<24} ok: {} end-to-end + {} per-layer metrics, {} ops, {} failed",
            workload.name(),
            outcome.end_to_end.len(),
            outcome.per_layer.len(),
            outcome.attempted,
            outcome.failed
        );
    }
    match PER_LAYER.iter().find(|m| !sampled.contains(m.name)) {
        Some(m) => Err(format!("metric {} has no samples behind it on any workload", m.name)),
        None => Ok(()),
    }
}

fn check_repeat(args: &[String]) -> Result<(), String> {
    let [a, b] = args else {
        return Err("usage: benchmark check-repeat A.jsonl B.jsonl".into());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        repeat::parse_set(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = repeat::compare(&load(a)?, &load(b)?);
    print!("{}", repeat::render(&rows));
    let misses = rows.iter().filter(|r| !r.verdict.ok()).count();
    if misses > 0 {
        return Err(format!("{misses} metric × workload pairs do not repeat"));
    }
    println!("every metric repeats: {} pairs compared", rows.len());
    Ok(())
}
