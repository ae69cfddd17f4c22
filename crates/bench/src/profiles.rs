//! Wall-clock profiles whose *ratios* are gated: the engine hot path and
//! certification at scale, beside the exact search on small histories.
//!
//! Both measure two ways of doing the same work in one process on one host
//! and report the quotient, which transfers across machines the way absolute
//! milliseconds do not. What the work *is* (message and operation counts) is
//! simulated and gated `exact`; milliseconds are informational.

use std::process::ExitCode;
use std::time::Instant;

use regular_core::checker::assemble::assemble_witness;
use regular_core::checker::certificate::WitnessModel;
use regular_core::checker::models::constraints_for;
use regular_core::checker::search::{find_sequence, find_sequence_reference};
use regular_core::history::ByProcess;
use regular_core::spec::SpecState;
use regular_core::{check, check_witness, History, HistoryBuilder, Model};
use regular_sim::metrics::EngineStats;
use regular_sim::queue::QueueKind;
use regular_sweep::{certify_streaming, synthetic_history, synthetic_session_history, Json};

use crate::cli::Args;
use crate::report::{emit, round2, Cell, Report, Rule};
use crate::runs::{engine_profile_gryff, engine_profile_spanner};

/// Simulated seconds and seed of both engine profiles.
const ENGINE_SECONDS: u64 = 10;
const ENGINE_SEED: u64 = 1;

/// Gryff iterations per Spanner iteration. The Gryff profile runs in ~17 ms,
/// a thousandth of the Spanner one; at three iterations its ratio read
/// anywhere in 1.02–1.38 on one tree on one host (a gate's whole floor), so it
/// gets more of them — two more seconds in all.
const GRYFF_REPEATS: usize = 25;

/// How many ref moves an event may cost the indexed queue
/// (`SimQueue::queue_ops`). A served event is three: an append to its
/// bucket's list, a move into the cursor run when the cursor reaches the
/// bucket, and a pop. One that waited out a busy node adds a proxy's three
/// when it parks or is re-keyed and again when it is served; a ref inserted
/// into the loaded bucket ahead of later ones adds every ref it shifts
/// aside. Deferring through the wheel itself, one re-insert per busy service
/// slot, put the saturated profile above 100.
const QUEUE_OPS_CEILING: f64 = 10.0;

/// The median of `samples`.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One engine row: `run` on the indexed queue and on the reference heap,
/// alternately, `iters` times each, so a slow host phase hits both about
/// equally; the speedup is the median over iterations of that iteration's
/// quotient. The two queues pop in identical order, so the executions are
/// event-for-event the same, deferral for deferral — asserted before
/// reporting. Only what ordering the events cost the queue differs, so
/// `queue_ops` is compared apart from the rest and reported for the indexed
/// run.
fn engine_row(iters: usize, run: impl Fn(QueueKind) -> (u64, u64, EngineStats)) -> Vec<Cell> {
    let time = |queue: QueueKind| {
        let started = Instant::now();
        let (messages, sim_ops, engine) = run(queue);
        let observed = (messages, sim_ops, engine.events, engine.deferrals);
        (started.elapsed().as_secs_f64() * 1_000.0, observed, engine.queue_ops)
    };
    let (mut indexed_ms, mut heap_ms) = (Vec::new(), Vec::new());
    let (mut observed, mut queue_ops) = ((0, 0, 0, 0), 0);
    for _ in 0..iters {
        let (indexed, heap) = (time(QueueKind::Indexed), time(QueueKind::ReferenceHeap));
        assert_eq!(indexed.1, heap.1, "the two queue kinds must replay the identical execution");
        indexed_ms.push(indexed.0);
        heap_ms.push(heap.0);
        (observed, queue_ops) = (indexed.1, indexed.2);
    }
    let speedup = median(indexed_ms.iter().zip(&heap_ms).map(|(i, h)| h / i).collect());
    let (messages, sim_ops, events, deferrals) = observed;
    let per_event = |count: u64| Json::f64(round2(count as f64 / events as f64));
    vec![
        ("messages", Rule::Exact, Json::u64(messages)),
        ("sim_ops", Rule::Exact, Json::u64(sim_ops)),
        ("deferrals_per_event", Rule::Exact, per_event(deferrals)),
        ("queue_ops_per_event", Rule::Ceiling(QUEUE_OPS_CEILING), per_event(queue_ops)),
        ("indexed_wall_ms", Rule::Info, Json::f64(round2(median(indexed_ms)))),
        ("heap_wall_ms", Rule::Info, Json::f64(round2(median(heap_ms)))),
        ("speedup", Rule::Floor(0.25), Json::f64(round2(speedup))),
    ]
}

/// The `engine` subcommand: the fixed engine hot-path configurations (a
/// saturated single-DC Spanner-RSS run and a pipelined Gryff-RSC WAN run) on
/// both event-queue implementations, median wall-clock of `--iters` runs
/// each, and the indexed queue's speedup over the reference heap.
pub fn engine(mut args: Args) -> Result<ExitCode, String> {
    let (iters, out) = (args.value("--iters")?.unwrap_or(3usize).max(1), args.out()?);
    args.finish()?;
    let params = [("seconds", ENGINE_SECONDS), ("seed", ENGINE_SEED), ("iters", iters as u64)];
    let mut report = Report::new("engine", params.map(|(k, v)| (k, Json::u64(v))).to_vec());
    let spanner = |queue| {
        let run = engine_profile_spanner(ENGINE_SECONDS, ENGINE_SEED, queue);
        let ops = run.client_stats.rw_completed + run.client_stats.ro_completed;
        (run.net_stats.delivered, ops, run.engine)
    };
    let gryff = |queue| {
        let run = engine_profile_gryff(ENGINE_SECONDS, ENGINE_SEED, queue);
        (run.net_stats.delivered, run.client_stats.reads + run.client_stats.writes, run.engine)
    };
    report.push("spanner_rss_saturated", engine_row(iters, spanner));
    report.push("gryff_rsc_wan", engine_row(iters * GRYFF_REPEATS, gryff));
    emit(&report, out.as_deref())
}

/// Sizes of the checker profile's histories; the row names carry them.
const CHECKER_OPS: usize = 100_000;
const CHECKER_GROUPS: usize = 8;
const SESSION_GROUPS: usize = 16;
const SEARCH_OPS: usize = 2_000;
const SEARCH_GROUPS: usize = 4;

/// Interleaved timing rounds per path.
const ROUNDS: usize = 15;

/// Calls per round of each small exact-search path. One call takes one to
/// twenty microseconds; this many make a round of the fastest take over a
/// millisecond, far above the clock's resolution.
const SMALL_SEARCH_REPEATS: usize = 1_000;

/// The Figure 2 history plus a write and two reads on a second key: RSC but
/// not linearizable. Every process touches key 1, so it is one component.
/// Left unbuilt so that `pending_writes_history` can extend it.
fn figure_2_history() -> HistoryBuilder {
    let mut b = HistoryBuilder::new();
    b.write(1, 1, 1, 0, 100);
    b.read(2, 1, 1, 10, 20);
    b.read(3, 1, 0, 30, 40);
    b.write(2, 2, 2, 50, 60);
    b.read(1, 2, 2, 70, 80);
    b.read(3, 2, 2, 90, 95);
    b
}

/// A denser exact-search input: `figure_2_history` grown to 12 operations
/// with two pending writes, one read and one unread, so the optional-subset
/// loop and the memoized backtracking both do real work. One component.
fn pending_writes_history() -> History {
    let mut b = figure_2_history();
    b.pending_write(1, 3, 3, 96);
    b.read(2, 3, 3, 100, 110);
    b.pending_write(3, 4, 4, 111);
    b.read(2, 4, 0, 120, 130);
    b.write(1, 5, 5, 140, 150);
    b.read(3, 5, 5, 160, 170);
    b.build()
}

/// How far a gated checker ratio may fall below its reference: three times
/// the widest quartile spread any gated ratio showed over ten profiles of one
/// tree on one host (the `rows` table below records each; BENCHMARKS.md
/// "PR 17"), so an unchanged tree passes — over two such sets the lowest
/// reading sat 19% under its median — and a path that became half again as
/// slow does not.
const CHECKER_FLOOR: f64 = 0.30;

/// The `checker` subcommand: certification cost on 100k-op histories.
///
/// * `witness_full_100k` — the reference batch certificate checker over the
///   whole history, the baseline the next row is a ratio of.
/// * `streaming_100k` — the windowed streaming checker fed in
///   completion-time order through a reorder buffer.
/// * `streaming_100k_10k_sessions` — the same path on a session-shaped
///   history (ten ops per process, so 10k processes where the rows above
///   have 16), as a ratio of `witness_full_100k_10k_sessions`. Per-process
///   work in front of the checker shows here and nowhere else.
/// * `search_2k` — `models::check` *finding* an RSC witness for a 2k-op
///   history: one call of the exact searcher over the whole history.
/// * `assemble_regular_100k`, `assemble_realtime_100k` — `assemble_witness`
///   on the first row's history from what Gryff hands it: each key's accesses
///   chained in order, then process order.
/// * `spec_replay_100k` — the first row's witness replayed through
///   `SpecState::apply_expecting` alone: the sequential-specification layer
///   the streaming checker replays every pushed op through.
/// * `exact_search_rsc_6_ops`, `exact_search_linearizability_6_ops` —
///   `models::check` on `figure_2_history`: it finds an RSC witness and
///   proves that no linearizable one exists.
/// * `exact_search_rsc_12_ops_pending_writes`,
///   `exact_search_reference_rsc_12_ops_pending_writes` — `find_sequence`
///   and its clone-per-step oracle `find_sequence_reference` finding an RSC
///   witness for `pending_writes_history` under the same constraints.
///
/// The paths are timed round-robin (one run of each per round; a small
/// search runs `SMALL_SEARCH_REPEATS` times), so slow host phases hit every
/// path about equally, and each ratio is the median over rounds of that
/// round's quotient. `millis` is the median time of one call.
pub fn checker(mut args: Args) -> Result<ExitCode, String> {
    let out = args.out()?;
    args.finish()?;
    let model = WitnessModel::Regular;
    let (history, witness) = synthetic_history(CHECKER_OPS, CHECKER_GROUPS);
    let (sessions, sessions_witness) = synthetic_session_history(CHECKER_OPS, SESSION_GROUPS, 10);
    let (search_history, _) = synthetic_history(SEARCH_OPS, SEARCH_GROUPS);
    let mut by_key: Vec<_> =
        witness.iter().map(|&id| (history.op(id).kind.accessed_keys_iter().next(), id)).collect();
    by_key.sort_unstable();
    let chains = by_key.windows(2).filter(|w| w[0].0 == w[1].0).map(|w| (w[0].1, w[1].1));
    let edges: Vec<_> = chains.chain(ByProcess::new(&history).pairs()).collect();
    let assembles = |model| assemble_witness(&history, &edges, model).is_ok_and(|w| w == witness);
    let figure_2 = figure_2_history().build();
    let finds = |model| check(&figure_2, model).is_ok_and(|outcome| outcome.satisfied);
    let pending = pending_writes_history();
    let (required, optional) = (pending.complete_ids(), pending.pending_mutations());
    let constraints = constraints_for(&pending, Model::RegularSequentialConsistency);

    // Per path: name, ops, components, calls per round and, for a gated
    // path, the row its `speedup` is a ratio of with that ratio's quartile
    // spread (Q3 − Q1 over the median) across ten profiles of the PR 17 tree
    // on one host.
    let small = SMALL_SEARCH_REPEATS;
    let rows = [
        ("witness_full_100k", CHECKER_OPS, CHECKER_GROUPS, 1, None),
        ("streaming_100k", CHECKER_OPS, CHECKER_GROUPS, 1, Some((0, 0.067))),
        ("witness_full_100k_10k_sessions", CHECKER_OPS, SESSION_GROUPS, 1, None),
        ("streaming_100k_10k_sessions", CHECKER_OPS, SESSION_GROUPS, 1, Some((2, 0.046))),
        ("search_2k", SEARCH_OPS, SEARCH_GROUPS, 1, None),
        ("assemble_regular_100k", CHECKER_OPS, CHECKER_GROUPS, 1, None),
        ("assemble_realtime_100k", CHECKER_OPS, CHECKER_GROUPS, 1, None),
        ("spec_replay_100k", CHECKER_OPS, CHECKER_GROUPS, 1, None),
        ("exact_search_rsc_6_ops", figure_2.len(), 1, small, None),
        ("exact_search_linearizability_6_ops", figure_2.len(), 1, small, None),
        ("exact_search_rsc_12_ops_pending_writes", pending.len(), 1, small, None),
        ("exact_search_reference_rsc_12_ops_pending_writes", pending.len(), 1, small, None),
    ];
    let mut peak_window = 0;
    let mut paths: [&mut dyn FnMut() -> bool; 12] = [
        &mut || check_witness(&history, &witness, model).is_ok(),
        &mut || {
            let stats = certify_streaming(&history, &witness, model);
            stats.map(|stats| peak_window = stats.peak_window).is_ok()
        },
        &mut || check_witness(&sessions, &sessions_witness, model).is_ok(),
        &mut || certify_streaming(&sessions, &sessions_witness, model).is_ok(),
        &mut || {
            let outcome = check(&search_history, Model::RegularSequentialConsistency);
            outcome.is_ok_and(|outcome| outcome.satisfied)
        },
        &mut || assembles(WitnessModel::Regular),
        &mut || assembles(WitnessModel::RealTime),
        &mut || {
            let mut state = SpecState::new();
            witness
                .iter()
                .map(|&id| history.op(id))
                .all(|op| state.apply_expecting(op.service, &op.kind, op.result()).is_ok())
        },
        &mut || finds(Model::RegularSequentialConsistency),
        &mut || !finds(Model::Linearizability),
        &mut || {
            find_sequence(&pending, &required, &optional, &constraints).is_ok_and(|w| w.is_some())
        },
        &mut || {
            let found = find_sequence_reference(&pending, &required, &optional, &constraints);
            found.is_ok_and(|w| w.is_some())
        },
    ];
    // One warm-up round, then the timed ones: `rounds[r][path]` milliseconds
    // per call.
    let mut round = || -> Vec<f64> {
        let time = |(run, row): (&mut &mut dyn FnMut() -> bool, &(&str, _, _, usize, _))| {
            let started = Instant::now();
            for _ in 0..row.3 {
                assert!(run(), "{} did not reach its verdict", row.0);
            }
            started.elapsed().as_secs_f64() * 1_000.0 / row.3 as f64
        };
        paths.iter_mut().zip(&rows).map(time).collect()
    };
    round();
    let rounds: Vec<Vec<f64>> = (0..ROUNDS).map(|_| round()).collect();

    let mut report = Report::new("checker", vec![("rounds", Json::u64(ROUNDS as u64))]);
    let mut spreads = Vec::new();
    for (i, (name, ops, components, repeats, ratio)) in rows.iter().enumerate() {
        let millis = median(rounds.iter().map(|round| round[i]).collect());
        // A small search's call takes microseconds: keep two decimals of those.
        let shown = if *repeats > 1 { (millis * 1e5).round() / 1e5 } else { round2(millis) };
        let mut cells = vec![
            ("ops", Rule::Exact, Json::u64(*ops as u64)),
            ("components", Rule::Exact, Json::u64(*components as u64)),
            ("millis", Rule::Info, Json::f64(shown)),
            ("ops_per_sec", Rule::Info, Json::f64((*ops as f64 / (millis / 1_000.0)).round())),
        ];
        if let Some((base, spread)) = *ratio {
            let speedup = median(rounds.iter().map(|round| round[base] / round[i]).collect());
            cells.push(("speedup", Rule::Floor(CHECKER_FLOOR), Json::f64(round2(speedup))));
            spreads.push((name.to_string(), Json::f64(spread)));
        }
        report.push(*name, cells);
    }
    report.param("speedup_quartile_spread", Json::Obj(spreads));
    report.param("peak_window", Json::u64(peak_window as u64));
    emit(&report, out.as_deref())
}
