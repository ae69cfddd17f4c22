//! Criterion benchmark of the discrete-event engine hot path: the identical
//! 10-simulated-second protocol runs executed on the indexed
//! (arena + calendar wheel) event queue versus the retained reference heap,
//! plus a queue-only churn microbenchmark.
//!
//! Both queue kinds pop in identical `(time, seq)` order — the runs produce
//! byte-identical histories (pinned in `tests/queue_determinism.rs` and
//! `tests/indexed_engine_equivalence.rs`) — so the delta between the paired
//! rows is purely the event-storage cost the PR 5 tentpole removed.
//! `regular-bench engine` reports the same comparison as wall-clock numbers
//! and feeds the engine gate (`ci/engine_reference.json`).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use regular_bench::runs::{engine_profile_gryff, engine_profile_spanner};
use regular_sim::queue::{QueueKind, SimQueue};
use regular_sim::time::SimTime;

/// A payload shaped like a protocol message: a small enum-sized header plus
/// a heap allocation, so heap sifts pay the realistic move cost.
#[derive(Clone)]
struct FakeMsg {
    _header: [u64; 6],
    _writes: Vec<(u64, u64)>,
}

fn fake_msg(rng: &mut SmallRng) -> FakeMsg {
    FakeMsg { _header: [rng.gen(); 6], _writes: vec![(rng.gen(), rng.gen()); 2] }
}

/// Pure queue churn: steady-state push/pop with the near/far time mix of a
/// WAN simulation (most events within tens of ms, a few far timers).
fn queue_churn(kind: QueueKind, events: usize) -> usize {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut queue = SimQueue::new(kind);
    let mut now = 0u64;
    let mut popped = 0usize;
    for _ in 0..events {
        let pushes = rng.gen_range(1..=2);
        for _ in 0..pushes {
            let delta: u64 = if rng.gen_bool(0.97) {
                rng.gen_range(0..40_000) // within ~40 ms
            } else {
                rng.gen_range(0..2_000_000) // a far timer
            };
            let msg = fake_msg(&mut rng);
            let id = queue.alloc(msg);
            queue.schedule(SimTime::from_micros(now + delta), id, 0, false);
        }
        let (t, _) = queue.pop().expect("queue is non-empty");
        now = t.as_micros();
        popped += 1;
    }
    popped
}

fn bench_engine_hotpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_hotpath");
    group.sample_size(10);
    group.bench_function("simulate_10s_spanner_rss_indexed", |b| {
        b.iter(|| engine_profile_spanner(10, 1, QueueKind::Indexed))
    });
    group.bench_function("simulate_10s_spanner_rss_reference_heap", |b| {
        b.iter(|| engine_profile_spanner(10, 1, QueueKind::ReferenceHeap))
    });
    group.bench_function("simulate_10s_gryff_rsc_indexed", |b| {
        b.iter(|| engine_profile_gryff(10, 1, QueueKind::Indexed))
    });
    group.bench_function("simulate_10s_gryff_rsc_reference_heap", |b| {
        b.iter(|| engine_profile_gryff(10, 1, QueueKind::ReferenceHeap))
    });
    group.bench_function("queue_churn_50k_indexed", |b| {
        b.iter(|| queue_churn(QueueKind::Indexed, 50_000))
    });
    group.bench_function("queue_churn_50k_reference_heap", |b| {
        b.iter(|| queue_churn(QueueKind::ReferenceHeap, 50_000))
    });
    group.finish();
}

criterion_group!(benches, bench_engine_hotpath);
criterion_main!(benches);
