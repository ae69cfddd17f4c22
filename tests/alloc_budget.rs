//! Allocation and heap budgets for certified Spanner-RSS and Gryff-RSC runs.
//!
//! A transaction may allocate what it sends (message payloads) and what it
//! records (its `CompletedRecord`); its bookkeeping in the client, the shards
//! and the session layer may not. Pushing an op through the streaming
//! certifier may allocate nothing of its own. This binary counts heap
//! allocations on the test's thread with a counting global allocator, over
//! one fixed-seed Spanner-RSS run on the three-region WAN with Retwis, and
//! one fixed-seed Gryff-RSC run on the five-region WAN with YCSB:
//!
//! | measured (12 483 transactions, seed 7)               | before | now   | ceiling |
//! |-------------------------------------------------------|-------:|------:|--------:|
//! | allocations per completed transaction, `run_cluster`  | 30.04  | 11.43 | 12.0    |
//! | allocations per pushed op, `certify_streaming`        |  4.013 | 0.013 | 0.02    |
//!
//! | measured (26 318 operations, seed 11)                 | before | now   | ceiling |
//! |-------------------------------------------------------|-------:|------:|--------:|
//! | allocations per completed operation, `run_gryff`      | 1.196  | 0.193 | 0.20    |
//! | allocations per pushed op, `certify_streaming`        | 0.004  | 0.004 | 0.02    |
//!
//! In the Gryff table, "before" is the tree that still counted every
//! quorum in a hash set allocated per operation (client) and per rmw round
//! (coordinator); what is left is almost all one-off set-up (the event
//! queue, the replicas' register tables) amortised over the run. In the
//! Spanner table, "before" is this test on the tree before a transaction
//! stopped allocating its bookkeeping: per-key version maps, shard sets
//! and cloned requests in the client, cloned write sets and participant
//! sets at the coordinator, `Vec`-returning session wakes, and a `Vec` per
//! key visitor plus a replayed result in every certifier push. What is left per
//! transaction is its messages' payloads, its record, and the shards' store
//! and lock state. The counts are the same in debug and release builds.
//!
//! The same allocator keeps live bytes per thread, and a third leg holds
//! the durable single-data-center run to a heap ceiling: the most heap live
//! at once over `run_cluster`, then over `build_history_from` and
//! `certify_streaming` with the run's result still held, whichever is
//! higher:
//!
//! | measured (18 382 ops, seed 3)                         | before | now   | ceiling |
//! |-------------------------------------------------------|-------:|------:|--------:|
//! | peak live heap, MiB, `run_cluster`                    | 15.83  | 12.63 |         |
//! | peak live heap, MiB, history and certification        | 11.36  | 10.86 |         |
//! | peak live heap, MiB, the higher of the two            | 15.83  | 12.63 | 12.7    |
//!
//! "Before" there is the tree whose session runner kept its completions in
//! one doubling `Vec`, whose shard stores interned keys into dense slots,
//! whose clients kept the timeout action of every finished transaction and
//! whose store dump grew by doubling.
//!
//! The ceilings sit just above what the tree measures now, and they only
//! ever move down: a change that needs one raised has added an allocation
//! to every transaction or every push, or live state to the durable run,
//! and that is the finding.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use regular_seq::core::checker::assemble::assemble_witness;
use regular_seq::core::checker::certificate::WitnessModel;
use regular_seq::gryff::prelude as gryff;
use regular_seq::session::{SessionConfig, SessionWorkload};
use regular_seq::sim::fault::FaultSchedule;
use regular_seq::sim::net::LatencyMatrix;
use regular_seq::sim::time::{SimDuration, SimTime};
use regular_seq::spanner::prelude as spanner;
use regular_seq::storage::{Durability, StorageRegistry, WalOptions};
use regular_seq::sweep::certify_streaming;
use regular_seq::workloads::Retwis;

/// Allocations per completed transaction inside `run_cluster`.
const RUN_CEILING: f64 = 12.0;
/// Allocations per op pushed through `certify_streaming`.
const CERTIFY_CEILING: f64 = 0.02;
/// Allocations per completed operation inside `run_gryff`.
const GRYFF_RUN_CEILING: f64 = 0.20;
/// Peak live heap of the durable run and its certification, in MiB.
const DURABLE_PEAK_CEILING_MIB: f64 = 12.7;

thread_local! {
    /// Allocations made on this thread (`const`-initialised, no destructor:
    /// safe to touch from inside the allocator).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since the last [`peak_live`] began.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting `alloc`, `alloc_zeroed` and `realloc`
/// calls and live bytes per thread.
struct Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Adds `by` (negative for a free) to this thread's live bytes.
fn live(by: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + by);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches a thread-local
// `Cell` and never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        live(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        live(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`, plus the caller's guarantee on `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the allocations it made.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// Starts a new peak at what is live on this thread now, and returns that.
fn reset_peak() -> i64 {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

/// The most heap live at once on this thread since the last [`reset_peak`],
/// over `base`, in MiB.
fn peak_mib_over(base: i64) -> f64 {
    (PEAK.with(Cell::get) - base) as f64 / (1024.0 * 1024.0)
}

/// The benchmark's `sim_spanner_wan` deployment, shortened: one client node
/// per region, partly-open sessions at 2 arrivals/s, Retwis over 400k keys at
/// Zipf 0.9.
fn spec(retwis: &Retwis) -> spanner::ClusterSpec {
    let clients = (0..3)
        .map(|region| spanner::ClientSpec {
            region,
            sessions: SessionConfig::partly_open(2.0, 0.9, SimDuration::ZERO)
                .with_workload_seed(7_000_003 + region as u64),
            workload: Box::new(retwis.clone()) as Box<dyn SessionWorkload>,
        })
        .collect();
    spanner::ClusterSpec {
        config: spanner::SpannerConfig::wan(spanner::Mode::SpannerRss),
        net: LatencyMatrix::spanner_wan(),
        seed: 7,
        clients,
        stop_issuing_at: SimTime::from_secs(200),
        drain: SimDuration::from_secs(20),
        measure_from: SimTime::from_secs(5),
    }
}

#[test]
fn a_spanner_transaction_and_a_certifier_push_stay_within_their_allocation_budgets() {
    let retwis = Retwis::new(400_000, 0.9);
    let spec = spec(&retwis);
    let (run, run_allocations) = allocations(|| spanner::run_cluster(spec));
    let transactions = run.client_stats.ro_completed + run.client_stats.rw_completed;
    assert!(transactions > 5_000, "the run completes enough transactions to amortise set-up");
    let per_transaction = run_allocations as f64 / transactions as f64;

    let (history, witness) = spanner::build_history_from(&run.completed);
    let (stats, certify_allocations) =
        allocations(|| certify_streaming(&history, &witness, WitnessModel::Regular));
    let stats = stats.expect("the run certifies under RSS");
    let per_op = certify_allocations as f64 / stats.ops as f64;

    println!(
        "{transactions} transactions: {per_transaction:.2} allocations each in run_cluster; \
         {} ops: {per_op:.3} allocations per push in certify_streaming",
        stats.ops
    );
    assert!(
        per_transaction <= RUN_CEILING,
        "{per_transaction:.2} allocations per transaction, over the ceiling of {RUN_CEILING}"
    );
    assert!(
        per_op <= CERTIFY_CEILING,
        "{per_op:.3} allocations per pushed op, over the ceiling of {CERTIFY_CEILING}"
    );
}

/// The benchmark's `sim_gryff_wan` deployment, shortened: 16 closed-loop
/// clients over the five-region WAN, YCSB at 50 % writes and 10 % conflicts
/// with 2 % read-modify-writes, so the coordinators count quorums too.
fn gryff_spec() -> gryff::GryffClusterSpec {
    let clients = (0..16)
        .map(|i| gryff::GryffClientSpec {
            region: i % 5,
            sessions: SessionConfig::closed_loop(1, SimDuration::ZERO)
                .with_workload_seed(9_000_011 + i as u64),
            workload: Box::new(gryff::ConflictWorkload {
                rmw_ratio: 0.02,
                ..gryff::ConflictWorkload::ycsb(0.5, 0.10, i as u64)
            }) as Box<dyn SessionWorkload>,
        })
        .collect();
    gryff::GryffClusterSpec {
        config: gryff::GryffConfig::wan(gryff::Mode::GryffRsc),
        net: LatencyMatrix::gryff_wan(),
        seed: 11,
        clients,
        stop_issuing_at: SimTime::from_secs(240),
        drain: SimDuration::from_secs(10),
        measure_from: SimTime::from_secs(1),
    }
}

#[test]
fn a_gryff_operation_and_a_certifier_push_stay_within_their_allocation_budgets() {
    let spec = gryff_spec();
    let (run, run_allocations) = allocations(|| gryff::run_gryff(spec));
    let ops: usize = run.completed.iter().map(|(_, recs)| recs.len()).sum();
    assert!(ops > 5_000, "the run completes enough operations to amortise set-up");
    let per_op_run = run_allocations as f64 / ops as f64;

    let (history, edges) = gryff::build_history_from(&run.completed);
    let witness = assemble_witness(&history, &edges, WitnessModel::Regular)
        .expect("the carstamp and process-order constraints are acyclic");
    let (stats, certify_allocations) =
        allocations(|| certify_streaming(&history, &witness, WitnessModel::Regular));
    let stats = stats.expect("the run certifies under RSC");
    let per_push = certify_allocations as f64 / stats.ops as f64;

    println!(
        "{ops} operations: {per_op_run:.3} allocations each in run_gryff; \
         {} ops: {per_push:.3} allocations per push in certify_streaming",
        stats.ops
    );
    assert!(
        per_op_run <= GRYFF_RUN_CEILING,
        "{per_op_run:.3} allocations per operation, over the ceiling of {GRYFF_RUN_CEILING}"
    );
    assert!(
        per_push <= CERTIFY_CEILING,
        "{per_push:.3} allocations per pushed op, over the ceiling of {CERTIFY_CEILING}"
    );
}

/// The benchmark's `sim_spanner_dc_durable` deployment, shortened: one data
/// center, 8 shards on a `MemDisk` WAL with 200 µs group commit and
/// checkpoints, one shard down twice for 400 ms, 500 ms operation and commit
/// timeouts, and 4 client nodes of 8 closed-loop sessions each.
fn durable_spec() -> spanner::ClusterSpec {
    let shards = 8;
    let wal = WalOptions::mem(StorageRegistry::new())
        .with_group_commit_us(200)
        .with_segment_bytes(16 * 1024)
        .with_checkpoint_every(1_024)
        .with_torn_tail_seed(3);
    let faults = [100, 700].into_iter().fold(FaultSchedule::new(), |f, at| {
        f.crash(3, SimTime::from_millis(at), SimTime::from_millis(at + 400))
    });
    let timeout = SimDuration::from_millis(500);
    let mut config = spanner::SpannerConfig::single_dc(spanner::Mode::SpannerRss, shards)
        .with_faults(faults, timeout)
        .with_durability(Durability::Wal(wal));
    config.commit_timeout = timeout;
    let clients = (0..4)
        .map(|i| spanner::ClientSpec {
            region: 0,
            sessions: SessionConfig::closed_loop(8, SimDuration::ZERO)
                .with_workload_seed(3_000_009 + i),
            workload: Box::new(spanner::UniformWorkload {
                num_keys: 1_000_000,
                ro_fraction: 0.2,
                keys_per_txn: 3,
            }) as Box<dyn SessionWorkload>,
        })
        .collect();
    spanner::ClusterSpec {
        config,
        net: LatencyMatrix::single_dc(),
        seed: 3,
        clients,
        stop_issuing_at: SimTime::from_millis(2_200),
        drain: SimDuration::from_secs(1),
        measure_from: SimTime::from_millis(1_400),
    }
}

#[test]
fn the_durable_run_and_its_certification_stay_within_their_heap_ceiling() {
    let spec = durable_spec();
    let base = reset_peak();
    let run = spanner::run_cluster(spec);
    let run_peak = peak_mib_over(base);
    assert!(run.storage.recoveries >= 2, "both crashes recover from the log");

    reset_peak();
    let (history, witness) = spanner::build_history_from(&run.completed);
    let stats = certify_streaming(&history, &witness, WitnessModel::Regular)
        .expect("the run certifies under RSS");
    let certify_peak = peak_mib_over(base);
    assert!(stats.ops > 5_000, "the run completes enough operations to fill the stores");

    let peak = run_peak.max(certify_peak);
    println!(
        "{} ops: peak live heap {peak:.2} MiB (run_cluster {run_peak:.2}, \
         build_history_from and certify_streaming {certify_peak:.2})",
        stats.ops
    );
    assert!(
        peak <= DURABLE_PEAK_CEILING_MIB,
        "{peak:.2} MiB peak live heap, over the ceiling of {DURABLE_PEAK_CEILING_MIB} MiB"
    );
}
