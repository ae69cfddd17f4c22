//! Span bookkeeping: nesting, the disabled tracer, and self time = a span's
//! duration minus the part its children cover.

use rss_benchmark::trace::{self_times, to_json, Span, Tracer};

fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
    Span { name, start, end, parent, unit: None }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    // unit [0, 10] ⊃ run [1, 7] ⊃ inner [2, 3]; unit ⊃ certify.stream [7, 9].
    let spans = [
        span("unit", 0.0, 10.0, None),
        span("run", 1.0, 7.0, Some(0)),
        span("inner", 2.0, 3.0, Some(1)),
        span("certify.stream", 7.0, 9.0, Some(0)),
    ];
    let own = self_times(&spans);
    assert_eq!(own["unit"], 2.0);
    assert_eq!(own["run"], 5.0);
    assert_eq!(own["inner"], 1.0);
    assert_eq!(own["certify.stream"], 2.0);
    // Self times partition the root: nothing is counted twice or lost.
    assert_eq!(own.values().sum::<f64>(), 10.0);
}

#[test]
fn self_time_sums_over_spans_of_one_name() {
    let spans = [
        span("unit", 0.0, 4.0, None),
        span("run", 0.0, 3.0, Some(0)),
        span("unit", 4.0, 10.0, None),
        span("run", 4.0, 9.0, Some(2)),
    ];
    let own = self_times(&spans);
    assert_eq!(own["unit"], 2.0);
    assert_eq!(own["run"], 8.0);
}

#[test]
fn tracer_records_parents_and_units() {
    let mut t = Tracer::new(true);
    t.set_unit(Some(3));
    let unit = t.enter("unit");
    let run = t.enter("run");
    t.exit(run);
    t.exit(unit);
    t.set_unit(None);
    let probe = t.enter("probe.sim");
    t.exit(probe);
    let spans = t.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!((spans[0].name, spans[0].parent, spans[0].unit), ("unit", None, Some(3)));
    assert_eq!((spans[1].name, spans[1].parent, spans[1].unit), ("run", Some(0), Some(3)));
    assert_eq!((spans[2].name, spans[2].parent, spans[2].unit), ("probe.sim", None, None));
    assert!(spans.iter().all(|s| s.end >= s.start));
    assert!(spans[1].start >= spans[0].start && spans[1].end <= spans[0].end);
}

#[test]
fn a_disabled_tracer_records_nothing() {
    let mut t = Tracer::new(false);
    let a = t.enter("unit");
    let b = t.enter("run");
    t.exit(b);
    t.exit(a);
    assert!(t.spans().is_empty());
    t.set_enabled(true);
    let c = t.enter("unit");
    t.exit(c);
    assert_eq!(t.spans().len(), 1);
}

#[test]
#[should_panic(expected = "innermost-first")]
fn spans_must_close_innermost_first() {
    let mut t = Tracer::new(true);
    let outer = t.enter("unit");
    let _inner = t.enter("run");
    t.exit(outer);
}

#[test]
fn the_trace_file_lists_every_span() {
    let spans = [span("unit", 0.0, 1.5, None), span("run", 0.25, 1.0, Some(0))];
    let json = to_json("sim_gryff_wan", 7, &spans);
    let parsed = regular_sweep::Json::parse(&json).expect("the trace file is valid JSON");
    assert_eq!(parsed.get("workload").and_then(|w| w.as_str()), Some("sim_gryff_wan"));
    assert_eq!(parsed.get("seed").and_then(|s| s.as_u64()), Some(7));
    let listed = parsed.get("spans").and_then(|s| s.as_arr()).expect("spans array");
    assert_eq!(listed.len(), 2);
    assert_eq!(listed[1].get("name").and_then(|n| n.as_str()), Some("run"));
    assert_eq!(listed[1].get("parent").and_then(|p| p.as_u64()), Some(0));
    assert_eq!(listed[1].get("end").and_then(|e| e.as_f64()), Some(1.0));
}
