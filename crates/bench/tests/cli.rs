//! The binary's contract: every subcommand refuses an argument it does not
//! know with its usage line and exit 2, before doing any work; and `gate`
//! exits 0 on an untouched reference, 1 on every kind of mutation a rule
//! exists to catch, 2 on input that is not a comparable report.

use std::path::{Path, PathBuf};
use std::process::Command;

use regular_sweep::Json;

fn bench(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_regular-bench"))
        .args(args)
        .output()
        .expect("run regular-bench");
    (output.status.code(), String::from_utf8_lossy(&output.stderr).into_owned())
}

#[test]
fn every_subcommand_refuses_an_unknown_flag_with_usage_and_exit_2() {
    let subcommands = [
        "sweep",
        "replay",
        "hunt",
        "baseline",
        "engine",
        "checker",
        "storage",
        "live",
        "net",
        "net-worker",
        "paper",
        "gate",
    ];
    for subcommand in subcommands {
        let (code, stderr) = bench(&[subcommand, "--bogus"]);
        assert_eq!(code, Some(2), "{subcommand} --bogus: {stderr}");
        assert!(
            stderr.contains(&format!("usage: regular-bench {subcommand}")),
            "{subcommand} --bogus prints its usage: {stderr}"
        );
    }
    // A flag that is known but malformed is refused the same way, not by a
    // panic; so are a missing subcommand, a name that is not one, and
    // `sweep --stream` (there is one certifier, so nothing to select).
    for args in [
        &["engine", "--iters", "many"][..],
        &["sweep", "--seeds"],
        &["sweep", "--stream", "--seeds", "1"],
        &["paper", "fig99"],
        &[],
    ] {
        let (code, stderr) = bench(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: regular-bench"), "{args:?}: {stderr}");
    }
}

fn reference(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci").join(name)
}

/// Writes a copy of `reference` with `mutate` applied to its rows.
fn mutated(reference: &Path, tag: &str, mutate: impl FnOnce(&mut Vec<Json>)) -> PathBuf {
    let text = std::fs::read_to_string(reference).expect("the committed reference exists");
    let Json::Obj(mut document) = Json::parse(&text).expect("the reference is JSON") else {
        panic!("the reference is an object");
    };
    let rows = document.iter_mut().find(|(key, _)| key == "rows").expect("it has rows");
    let Json::Arr(rows) = &mut rows.1 else { panic!("rows is an array") };
    mutate(rows);
    let path =
        std::env::temp_dir().join(format!("regular_bench_gate_{}_{tag}.json", std::process::id()));
    std::fs::write(&path, Json::Obj(document).to_pretty()).expect("write the mutated copy");
    path
}

/// Replaces cell `column` of row `name` with `change(old value)`.
fn set(rows: &mut [Json], name: &str, column: &str, change: impl Fn(f64) -> Json) {
    let row = rows.iter_mut().find(|row| row.get("name").and_then(Json::as_str) == Some(name));
    let Some(Json::Obj(cells)) = row else { panic!("no row {name}") };
    let cell = cells.iter_mut().find(|(key, _)| key == column).expect("the row has the column");
    cell.1 = change(cell.1.as_f64().unwrap_or(0.0));
}

#[test]
fn gate_holds_every_rule_on_mutated_copies_of_the_committed_references() {
    let (checker, storage) =
        (reference("checker_reference.json"), reference("storage_reference.json"));
    let gate = |current: &Path, reference: &Path| {
        let (code, stderr) =
            bench(&["gate", &current.to_string_lossy(), &reference.to_string_lossy()]);
        (code.expect("gate exits"), stderr)
    };
    // Untouched copies pass.
    for reference in [&checker, &storage] {
        let copy = mutated(reference, "copy", |_| {});
        assert_eq!(gate(&copy, reference).0, 0, "{} gates itself", reference.display());
        let _ = std::fs::remove_file(copy);
    }
    // Each rule fails on the mutation it exists for.
    let failing = [
        (
            "floor",
            &checker,
            mutated(&checker, "floor", |rows| {
                set(rows, "streaming_100k", "speedup", |v| Json::f64(v * 0.5))
            }),
        ),
        (
            "exact",
            &checker,
            mutated(&checker, "exact", |rows| {
                set(rows, "witness_full_100k", "ops", |v| Json::f64(v + 1.0))
            }),
        ),
        (
            "row removed",
            &checker,
            mutated(&checker, "row", |rows| {
                rows.remove(0);
            }),
        ),
        (
            "true",
            &storage,
            mutated(&storage, "true", |rows| {
                set(rows, "dir-gc100", "recovery_verified", |_| Json::Bool(false))
            }),
        ),
        (
            "ceiling",
            &storage,
            mutated(&storage, "ceiling", |rows| {
                set(rows, "ckpt-mem-64k", "device_bytes_per_snapshot_byte", |_| Json::f64(1.26))
            }),
        ),
    ];
    for (rule, reference, current) in &failing {
        let (code, stderr) = gate(current, reference);
        assert_eq!(code, 1, "a broken '{rule}' fails the gate: {stderr}");
    }
    // Informational drift and an extra row never fail.
    let drifted = mutated(&checker, "info", |rows| {
        set(rows, "streaming_100k", "millis", |v| Json::f64(v * 10.0));
        let mut extra = rows[0].clone();
        set(std::slice::from_mut(&mut extra), "witness_full_100k", "ops", |v| Json::f64(v + 1.0));
        let Json::Obj(cells) = &mut extra else { unreachable!() };
        cells[0].1 = Json::str("not_in_the_reference");
        rows.push(extra);
    });
    assert_eq!(gate(&drifted, &checker).0, 0);
    // What is not a comparable report is a usage error.
    let malformed =
        std::env::temp_dir().join(format!("regular_bench_gate_{}_bad.json", std::process::id()));
    std::fs::write(&malformed, "{\"schema\": \"regular-seq/bench/v2\", \"rows\": [")
        .expect("write");
    assert_eq!(gate(&malformed, &checker).0, 2, "malformed JSON");
    assert_eq!(gate(&storage, &checker).0, 2, "a storage report cannot gate a checker one");
    assert_eq!(gate(&reference("no_such_file.json"), &checker).0, 2, "a missing file");
    for (_, _, path) in failing {
        let _ = std::fs::remove_file(path);
    }
    let _ = std::fs::remove_file(malformed);
    let _ = std::fs::remove_file(drifted);
}
