//! Composing RSS services with `libRSS` (Section 4.1).
//!
//! Two services can each be RSS on their own and still expose a *cycle* to
//! clients that hop between them, because RSS lets causally-unrelated reads
//! run "behind" real time while a write is still in flight. The fix is a
//! real-time fence at the previous service before the first transaction at a
//! different service — inserted automatically by `libRSS`.
//!
//! This example builds the cross-service execution from Section 4.1:
//!
//! * process P3 reads `x = 1` at service A and then `y = 0` at service B,
//! * process P4 reads `y = 1` at service B and then `x = 0` at service A,
//!
//! while the writes of `x` and `y` are still in flight. Each service's
//! projection satisfies RSS, but the composition does not (the observed states
//! form a cycle). With the fence `libRSS` issues when P3 and P4 switch
//! services, the second reads are forced to observe the first service's state,
//! the cycle disappears, and the composition satisfies RSS.
//!
//! Run with: `cargo run --example composition`

use regular_seq::core::checker::models::{satisfies, Model};
use regular_seq::core::history::History;
use regular_seq::core::op::{OpKind, OpResult};
use regular_seq::core::types::{Key, ProcessId, ServiceId, Timestamp, Value};
use regular_seq::librss::LibRss;

const SVC_A: ServiceId = ServiceId(0);
const SVC_B: ServiceId = ServiceId(1);
const X: Key = Key(1);
const Y: Key = Key(2);

fn read(h: &mut History, p: u32, svc: ServiceId, key: Key, value: u64, at: (u64, u64)) {
    h.add_complete(
        ProcessId(p),
        svc,
        OpKind::Read { key },
        Timestamp(at.0),
        Timestamp(at.1),
        OpResult::Value(Value(value)),
    );
}

fn in_flight_write(h: &mut History, p: u32, svc: ServiceId, key: Key, value: u64, start: u64) {
    // The writer has not received its acknowledgement yet: the operation is
    // incomplete, so RSS does not (yet) force every later read to observe it.
    h.add_incomplete(
        ProcessId(p),
        svc,
        OpKind::Write { key, value: Value(value) },
        Timestamp(start),
    );
}

/// The unfenced execution of Section 4.1: the two service-hopping readers
/// observe states that cannot be reconciled into one global order.
fn without_fences() -> History {
    let mut h = History::new();
    in_flight_write(&mut h, 1, SVC_A, X, 1, 0);
    in_flight_write(&mut h, 2, SVC_B, Y, 1, 0);
    // P3: x = 1 at A, then y = 0 at B.
    read(&mut h, 3, SVC_A, X, 1, (10, 20));
    read(&mut h, 3, SVC_B, Y, 0, (30, 40));
    // P4: y = 1 at B, then x = 0 at A.
    read(&mut h, 4, SVC_B, Y, 1, (10, 20));
    read(&mut h, 4, SVC_A, X, 0, (30, 40));
    h
}

/// The same client behaviour when `libRSS` fences the previous service before
/// each cross-service hop: the fence at A (issued by P3 before touching B)
/// forces every later read at A — including P4's — to observe `x = 1`, and
/// symmetrically for B, so the second reads return the new values.
fn with_fences() -> History {
    let mut h = History::new();
    in_flight_write(&mut h, 1, SVC_A, X, 1, 0);
    in_flight_write(&mut h, 2, SVC_B, Y, 1, 0);
    read(&mut h, 3, SVC_A, X, 1, (10, 20));
    // P3's fence at A completes at time 25 (not an operation on the store's
    // data, so it is not recorded as a read/write).
    read(&mut h, 3, SVC_B, Y, 1, (30, 40));
    read(&mut h, 4, SVC_B, Y, 1, (10, 20));
    read(&mut h, 4, SVC_A, X, 1, (30, 40));
    h
}

fn report(name: &str, h: &History) {
    let composite = satisfies(h, Model::RegularSequentialSerializability);
    let service_a = satisfies(&h.project_service(SVC_A), Model::RegularSequentialSerializability);
    let service_b = satisfies(&h.project_service(SVC_B), Model::RegularSequentialSerializability);
    println!("{name}:");
    println!("  service A alone satisfies RSS: {service_a}");
    println!("  service B alone satisfies RSS: {service_b}");
    println!("  composition satisfies RSS:     {composite}\n");
}

fn main() {
    println!("Composing two RSS services (Section 4.1)\n");

    let unfenced = without_fences();
    let fenced = with_fences();
    report("Without real-time fences", &unfenced);
    report("With libRSS-inserted fences", &fenced);

    assert!(satisfies(&unfenced.project_service(SVC_A), Model::RegularSequentialSerializability));
    assert!(satisfies(&unfenced.project_service(SVC_B), Model::RegularSequentialSerializability));
    assert!(!satisfies(&unfenced, Model::RegularSequentialSerializability));
    assert!(satisfies(&fenced, Model::RegularSequentialSerializability));

    // libRSS decides *where* the fences go: one per service switch, none for
    // repeated transactions at the same service. Each process keeps its own
    // registry: P3 goes A then B, P4 goes B then A, and each switch invokes
    // the previous service's fence callback.
    let mut p3 = LibRss::new();
    let mut p4 = LibRss::new();
    for librss in [&mut p3, &mut p4] {
        librss.register_service("service-a", || {});
        librss.register_service("service-b", || {});
    }
    p3.start_transaction("service-a").unwrap();
    p3.start_transaction("service-b").unwrap();
    p4.start_transaction("service-b").unwrap();
    p4.start_transaction("service-a").unwrap();
    let (s3, s4) = (p3.stats(), p4.stats());
    assert_eq!((s3.executed, s4.executed), (1, 1));
    println!(
        "libRSS inserted {} fences across {} transaction starts;",
        s3.executed + s4.executed,
        s3.executed + s3.elided + s4.executed + s4.elided
    );
    println!("applications never call the fence themselves (Figure 3's interface).");
    // The simulated deployments ask the same FencePlanner per session lane
    // and execute each fence as a real protocol operation (see the
    // multi_service integration test, which runs Spanner-RSS and Gryff-RSC
    // side by side).

    // Section 4.2: when the application hops *across processes* (a Web server
    // answering a browser that then talks to another server), the causal
    // context travels out of band and the receiving registry keeps fencing.
    let ctx = p3.export_context(42);
    let mut receiver = LibRss::new();
    receiver.register_service("service-a", || {});
    receiver.register_service("service-b", || {});
    receiver.import_context(&ctx);
    receiver.start_transaction("service-a").unwrap();
    assert_eq!(receiver.stats().executed, 1);
    println!("CausalContext propagation fenced service-b in the receiving process.");
}
