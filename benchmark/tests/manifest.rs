//! `BENCHMARK.json` on disk is the generated one, and the generated one
//! stays inside the driver's limits.

use std::collections::BTreeSet;

use regular_sweep::Json;
use rss_benchmark::manifest::{benchmark_json, why, END_TO_END, PER_LAYER, RUN_SECONDS};
use rss_benchmark::workloads::ALL;

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().unwrap().is_ascii_alphanumeric()
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

#[test]
fn the_file_on_disk_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(on_disk, benchmark_json(), "regenerate with `benchmark manifest > BENCHMARK.json`");
}

#[test]
fn the_manifest_stays_inside_the_drivers_limits() {
    let text = benchmark_json();
    assert!(text.len() <= 64 * 1024);
    let json = Json::parse(&text).expect("valid JSON");
    let Json::Obj(keys) = &json else { panic!("an object") };
    let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    let command = json.get("command").and_then(Json::as_arr).unwrap();
    assert!(command.len() <= 32);
    for part in command {
        let part = part.as_str().unwrap();
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
    assert!((1..=60).contains(&RUN_SECONDS));
    assert!((2..=8).contains(&ALL.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));

    let mut names = BTreeSet::new();
    for w in ALL {
        assert!(is_name(w.name()), "{}", w.name());
        assert!(names.insert(w.name()), "{} is used twice", w.name());
        let why = why(w);
        assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'), "{why}");
    }
    for m in &END_TO_END {
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
        assert!(names.insert(m.name), "{} is used twice", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    for m in &PER_LAYER {
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
        assert!(names.insert(m.name), "{} is used twice", m.name);
        assert!(!m.moves.is_empty());
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
    assert_eq!(setup.unit, "s");
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
}
