//! Integration tests for Table 1 (the photo-sharing application) and the
//! libRSS composition protocol of Section 4.

use regular_seq::core::checker::models::{satisfies, satisfies_composed, Model};
use regular_seq::core::history::History;
use regular_seq::core::invariants::{
    check_i1, check_i2, detect_a1, detect_a2_a3, scenarios, PhotoAppKeys,
};
use regular_seq::core::op::{OpKind, OpResult};
use regular_seq::core::types::{Key, ProcessId, ServiceId, Timestamp, Value};
use regular_seq::librss::{CausalContext, LibRss};

#[test]
fn table_1_verdicts_match_the_paper() {
    let keys = PhotoAppKeys::default();

    // Scenario sanity: each one really exhibits its violation/anomaly.
    assert!(check_i1(&scenarios::i1_violation(&keys), &keys).is_err());
    assert!(check_i2(&scenarios::i2_violation(&keys), &keys).is_err());
    assert!(detect_a1(&scenarios::a1_anomaly(&keys), &keys).is_some());
    assert!(detect_a2_a3(&scenarios::a2_anomaly(&keys), &keys).is_some());
    assert!(detect_a2_a3(&scenarios::a3_anomaly(&keys), &keys).is_some());

    // Table 1, cell by cell: does the model admit the execution that exhibits
    // the violation / anomaly ("possible") or reject it ("never")? PO
    // serializability is not composable, so it only guarantees each service
    // independently. (A4 — a request that never receives a response — is
    // outside any consistency model's scope: "possible" under all three.)
    let table = [
        (
            "I1 violation (album references missing photo)",
            scenarios::i1_violation(&keys),
            [false; 3],
        ),
        (
            "I2 violation (worker reads null after dequeue)",
            scenarios::i2_violation(&keys),
            [false, false, true],
        ),
        ("A1 (lost photo)", scenarios::a1_anomaly(&keys), [false; 3]),
        (
            "A2 (Alice adds, calls Bob, Bob misses it)",
            scenarios::a2_anomaly(&keys),
            [false, false, true],
        ),
        (
            "A3 (Alice sees Charlie's in-flight photo, Bob misses it)",
            scenarios::a3_anomaly(&keys),
            [false, true, true],
        ),
    ];
    println!("{:<58} | {:>11} | {:>8} | {:>8}", "scenario", "strict ser.", "RSS", "PO ser.");
    for (name, history, paper) in &table {
        let admitted = [
            satisfies(history, Model::StrictSerializability),
            satisfies(history, Model::RegularSequentialSerializability),
            satisfies_composed(history, Model::ProcessOrderedSerializability),
        ];
        let [strict, rss, po] = admitted.map(|a| if a { "possible" } else { "never" });
        println!("{name:<58} | {strict:>11} | {rss:>8} | {po:>8}");
        assert_eq!(admitted, *paper, "{name}: [strict ser., RSS, PO ser.] admit it");
    }

    // The correct execution passes every invariant and anomaly detector.
    let good = scenarios::correct_execution(&keys);
    assert!(check_i1(&good, &keys).is_ok());
    assert!(check_i2(&good, &keys).is_ok());
    assert!(detect_a1(&good, &keys).is_none());
    assert!(detect_a2_a3(&good, &keys).is_none());
    assert!(satisfies(&good, Model::RegularSequentialSerializability));
}

#[test]
fn librss_fences_exactly_on_service_switches() {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    let kv_fences = Arc::new(AtomicU32::new(0));
    let mq_fences = Arc::new(AtomicU32::new(0));
    let mut lib = LibRss::new();
    let k = kv_fences.clone();
    lib.register_service("kv", move || {
        k.fetch_add(1, Ordering::SeqCst);
    });
    let m = mq_fences.clone();
    lib.register_service("mq", move || {
        m.fetch_add(1, Ordering::SeqCst);
    });

    // The photo-sharing web server's pattern: add-photo (kv), enqueue (mq),
    // then the next request's add-photo (kv) again.
    for _ in 0..10 {
        lib.start_transaction("kv").unwrap();
        lib.start_transaction("mq").unwrap();
    }
    assert_eq!(kv_fences.load(Ordering::SeqCst), 10);
    assert_eq!(mq_fences.load(Ordering::SeqCst), 9);
    let stats = lib.stats();
    assert_eq!(stats.executed, 19);
    assert_eq!(stats.elided, 1);
}

#[test]
fn causal_context_propagates_between_processes() {
    let mut web_server_1 = LibRss::new();
    web_server_1.register_service("kv", || {});
    web_server_1.register_service("mq", || {});
    web_server_1.start_transaction("kv").unwrap();

    // The response to the browser carries the causal context; a different web
    // server handling the browser's next request imports it.
    let ctx: CausalContext = web_server_1.export_context(1234);
    assert_eq!(ctx.min_timestamp, 1234);

    let mut web_server_2 = LibRss::new();
    let fenced = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
    let f = fenced.clone();
    web_server_2.register_service("kv", move || {
        f.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    });
    web_server_2.register_service("mq", || {});
    web_server_2.import_context(&ctx);
    // First transaction at a *different* service: the imported kv context
    // forces a kv fence so the browser's causal past is ordered first.
    web_server_2.start_transaction("mq").unwrap();
    assert_eq!(fenced.load(std::sync::atomic::Ordering::SeqCst), 1);
}

/// Section 4.1's cross-service reads (the histories of
/// `examples/composition.rs`): writes of `x` at service A and `y` at service
/// B are still in flight while P3 reads `x` at A then `y` at B, and P4 reads
/// `y` at B then `x` at A. Unfenced, the second reads return the old values;
/// with the fence `libRSS` issues at each switch, they return the new ones.
fn cross_service_reads(fenced: bool) -> History {
    let (a, b, x, y) = (ServiceId(0), ServiceId(1), Key(1), Key(2));
    let second = u64::from(fenced);
    let mut h = History::new();
    for (p, svc, key) in [(1, a, x), (2, b, y)] {
        let write = OpKind::Write { key, value: Value(1) };
        h.add_incomplete(ProcessId(p), svc, write, Timestamp(0));
    }
    let reads = [
        (3, a, x, 1, (10, 20)),
        (3, b, y, second, (30, 40)),
        (4, b, y, 1, (10, 20)),
        (4, a, x, second, (30, 40)),
    ];
    for (p, svc, key, value, (start, end)) in reads {
        let (read, result) = (OpKind::Read { key }, OpResult::Value(Value(value)));
        h.add_complete(ProcessId(p), svc, read, Timestamp(start), Timestamp(end), result);
    }
    h
}

#[test]
fn fences_make_the_composed_rss_check_coincide_with_the_composite_one() {
    let rss = Model::RegularSequentialSerializability;
    let unfenced = cross_service_reads(false);
    for svc in [ServiceId(0), ServiceId(1)] {
        assert!(satisfies(&unfenced.project_service(svc), rss), "{svc:?} alone is RSS");
    }
    assert!(!satisfies(&unfenced, rss), "without fences the composition is not RSS");
    assert!(satisfies_composed(&unfenced, rss), "the per-service check cannot see the cycle");

    let fenced = cross_service_reads(true);
    assert!(satisfies(&fenced, rss), "with fences the composition is RSS");
    assert!(satisfies_composed(&fenced, rss));

    // Strict serializability composes with or without fences.
    for h in [&unfenced, &fenced] {
        let strict = Model::StrictSerializability;
        assert_eq!(satisfies_composed(h, strict), satisfies(h, strict));
    }
}
