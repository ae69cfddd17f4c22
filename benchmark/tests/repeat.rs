//! The `check-repeat` comparator: identical where the simulator makes the
//! number a pure function of the seed, within the bound elsewhere.

use rss_benchmark::repeat::{compare, parse_set, render, ResultSet, Verdict};

fn line(workload: &str, seed: u64, metrics: &[(&str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| format!("\"{name}\": {{\"value\": {value}, \"unit\": \"x\"}}"))
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"result\": {{\"correct\": true, \
         \"attempted\": 10, \"failed\": 0, \"metrics\": {{{}}}}}}}\n",
        body.join(", ")
    )
}

fn set(lines: &[String]) -> ResultSet {
    parse_set(&lines.concat()).expect("well-formed set")
}

fn verdict_of<'a>(
    rows: &'a [rss_benchmark::repeat::Row],
    workload: &str,
    metric: &str,
) -> &'a Verdict {
    &rows.iter().find(|r| r.workload == workload && r.metric == metric).expect("row").verdict
}

#[test]
fn medians_over_runs_are_what_is_compared() {
    // Medians 2.0 and 2.1: 5 % apart, inside ops_per_wall_s's bound.
    let a = set(&[
        line("sim_gryff_wan", 1, &[("ops_per_wall_s", 1.0)]),
        line("sim_gryff_wan", 2, &[("ops_per_wall_s", 2.0)]),
        line("sim_gryff_wan", 3, &[("ops_per_wall_s", 9.0)]),
    ]);
    let b = set(&[
        line("sim_gryff_wan", 1, &[("ops_per_wall_s", 2.1)]),
        line("sim_gryff_wan", 2, &[("ops_per_wall_s", 0.1)]),
        line("sim_gryff_wan", 3, &[("ops_per_wall_s", 50.0)]),
    ]);
    let rows = compare(&a, &b);
    match verdict_of(&rows, "sim_gryff_wan", "ops_per_wall_s") {
        Verdict::WithinBound(d) => assert!((d - 0.05).abs() < 1e-9, "diff {d}"),
        other => panic!("expected within bound, got {other:?}"),
    }
}

#[test]
fn sim_time_metrics_on_sim_workloads_must_be_identical() {
    let a = set(&[line("sim_spanner_wan", 1, &[("ro_tail_ms", 206.309)])]);
    let same = set(&[line("sim_spanner_wan", 1, &[("ro_tail_ms", 206.309)])]);
    let off = set(&[line("sim_spanner_wan", 1, &[("ro_tail_ms", 206.310)])]);
    assert_eq!(
        verdict_of(&compare(&a, &same), "sim_spanner_wan", "ro_tail_ms"),
        &Verdict::Identical
    );
    // One microsecond off is far inside the bound and still a miss.
    let rows = compare(&a, &off);
    let v = verdict_of(&rows, "sim_spanner_wan", "ro_tail_ms");
    assert!(matches!(v, Verdict::NotIdentical(_)), "got {v:?}");
    assert!(!v.ok());
}

#[test]
fn the_live_workload_gets_the_bound_even_on_sim_time_metrics() {
    let a = set(&[line("live_spanner_wan", 1, &[("ro_p50_ms", 0.700)])]);
    let near = set(&[line("live_spanner_wan", 1, &[("ro_p50_ms", 0.735)])]);
    let far = set(&[line("live_spanner_wan", 1, &[("ro_p50_ms", 1.400)])]);
    assert!(verdict_of(&compare(&a, &near), "live_spanner_wan", "ro_p50_ms").ok());
    let rows = compare(&a, &far);
    let v = verdict_of(&rows, "live_spanner_wan", "ro_p50_ms");
    assert!(matches!(v, Verdict::PastBound(d) if (d - 1.0).abs() < 1e-9), "got {v:?}");
}

#[test]
fn wall_clock_metrics_get_the_bound_on_sim_workloads_too() {
    let a = set(&[line("sim_gryff_wan", 1, &[("setup_s", 0.40)])]);
    let b = set(&[line("sim_gryff_wan", 1, &[("setup_s", 0.44)])]);
    assert!(matches!(
        verdict_of(&compare(&a, &b), "sim_gryff_wan", "setup_s"),
        Verdict::WithinBound(_)
    ));
}

#[test]
fn a_metric_missing_from_one_set_is_a_miss() {
    let a = set(&[line("sim_gryff_wan", 1, &[("setup_s", 0.40), ("peak_heap_mb", 10.0)])]);
    let b = set(&[line("sim_gryff_wan", 1, &[("setup_s", 0.40)])]);
    let rows = compare(&a, &b);
    assert_eq!(verdict_of(&rows, "sim_gryff_wan", "peak_heap_mb"), &Verdict::Missing);
    assert!(render(&rows).contains("MISSING"));
    // A workload present in only one set is reported, not skipped.
    let rows = compare(&a, &ResultSet::new());
    assert!(rows.iter().all(|r| r.verdict == Verdict::Missing));
    assert!(!rows.is_empty());
}

#[test]
fn malformed_and_incorrect_runs_are_rejected() {
    assert!(parse_set("not json\n").is_err());
    assert!(parse_set("{\"seed\": 1}\n").is_err());
    let incorrect = "{\"workload\": \"sim_gryff_wan\", \"seed\": 1, \"result\": \
                     {\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}}\n";
    assert!(parse_set(incorrect).unwrap_err().contains("not correct"));
    assert!(parse_set("\n\n").expect("blank lines are skipped").is_empty());
}
