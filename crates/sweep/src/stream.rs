//! Streaming certification: feed a run's witness through the windowed
//! [`StreamingChecker`] in arrival (completion-time) order. Every sweep
//! verdict, `regular-bench replay`/`live` and `benchmark/` certify here.
//!
//! The reference checker ([`regular_core::check_witness`]) sorts and sweeps
//! the whole history. This path runs after the run too, over the recorded
//! history, but replays it as it would unfold at an online certifier:
//! records arrive as they *complete* (response time, invoke time for pending
//! ops), a [`WindowBuffer`] reorders them into witness order, and each
//! contiguous window is pushed through the checker as it is released —
//! O(n log n) in operations whatever the number of processes. `peak_window`
//! is therefore the window an online certifier *would* have needed.
//!
//! Memory above the history is a few words per op plus the deepest window,
//! and that depth is the arrival skew of the *witness*, not the concurrency
//! of the run: one record whose witness position lies far before its arrival
//! holds back every record that arrived ahead of it. A strict Spanner run
//! stamps every transaction inside its real-time interval and peaks at tens;
//! Spanner-RSS stamps a fresh session's read-only transaction on
//! never-written keys at timestamp 0, and a few hundred of those keep the
//! window as deep as the run (ROADMAP item 5).

use regular_core::{
    count_components, order::message_edges, ByProcess, History, HistoryBuilder, OpId,
    StreamingChecker, WindowBuffer, WitnessModel, WitnessViolation,
};

/// What the streaming pass observed while certifying a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Operations pushed through the checker.
    pub ops: usize,
    /// Contiguous windows released by the reorder buffer.
    pub windows: usize,
    /// High-water mark of the reorder buffer: the largest number of
    /// arrived-but-unreleasable records held at once.
    pub peak_window: usize,
    /// Connected components of the history (shared keys, processes,
    /// messages), as counted by [`count_components`].
    pub components: usize,
}

/// Certifies `witness` for `history` under `model` by streaming records in
/// arrival order through a [`StreamingChecker`].
///
/// The verdict is equivalent to [`regular_core::check_witness`]: `Ok` exactly
/// when the batch checker accepts, `Err` exactly when it rejects (which
/// violation is reported first may differ: the batch checker finishes the
/// replay before any order rule, this one interleaves them).
pub fn certify_streaming(
    history: &History,
    witness: &[OpId],
    model: WitnessModel,
) -> Result<StreamStats, WitnessViolation> {
    // The components first, so that their union-find is gone before
    // anything else is allocated.
    let components = count_components(history);

    // Witness membership, mirrored from the batch checker's validation.
    let mut seen = vec![false; history.len()];
    for &id in witness {
        match seen.get_mut(id.index()) {
            None => return Err(WitnessViolation::UnknownOp(id)),
            Some(seen) if *seen => return Err(WitnessViolation::DuplicateOp(id)),
            Some(seen) => *seen = true,
        }
    }
    drop(seen);

    // Arrival order, as witness positions: a record becomes available once
    // it completes (or, for pending ops, once it is invoked), and ties
    // release in witness order. The witness is nearly in arrival order, so
    // the stable (run-adaptive) sort does little work, and its keys are
    // read from a dense array in witness order rather than from the ops.
    let arrival: Vec<u64> = witness
        .iter()
        .map(|&id| {
            let op = history.op(id);
            op.response().unwrap_or(op.invoke).as_micros()
        })
        .collect();
    let mut arrivals: Vec<u32> = (0..witness.len() as u32).collect();
    arrivals.sort_by_key(|&pos| arrival[pos as usize]);
    drop(arrival);

    // Every op's process-order predecessor (the checker enforces process
    // order incrementally) and the message edges, from one grouping, which
    // is dropped before the window fills to keep peak heap down.
    let by_process = ByProcess::new(history);
    let (prev, edges) = (by_process.predecessors(), message_edges(history, &by_process));
    drop(by_process);

    let mut checker = StreamingChecker::with_message_edges(model, &edges);
    // Sized once: its last doubling was this pass's heap peak.
    checker.reserve_readers(history.ops());
    let mut buffer: WindowBuffer<OpId> = WindowBuffer::default();
    let mut windows = 0usize;
    for pos in arrivals {
        buffer.push(pos, witness[pos as usize]);
        let mut released = false;
        while let Some(id) = buffer.pop_next() {
            checker.push(history.op(id), prev[id.index()])?;
            released = true;
        }
        windows += usize::from(released);
    }
    let ops = checker.ops_pushed();
    checker.finish(&history.complete_ids())?;
    Ok(StreamStats { ops, windows, peak_window: buffer.peak_buffered(), components })
}

/// A synthetic key-value history of `ops` non-overlapping operations spread
/// over `groups` disjoint process/key groups, with its (identity) witness.
///
/// Each group alternates rounds of writes and reads over its own eight keys;
/// every read observes the latest write to its key, every written value is
/// globally unique, and operations never overlap in real time. The identity
/// witness is therefore valid under every [`WitnessModel`], and the history
/// decomposes into exactly `groups` components. Used by `regular-bench
/// checker` and the `large_history_certify` example to get arbitrarily long
/// histories with known structure.
pub fn synthetic_history(ops: usize, groups: usize) -> (History, Vec<OpId>) {
    synthetic(ops, groups, |g, round| (1 + g as u32 * 2 + (round % 2) as u32, 5))
}

/// [`synthetic_history`] in the shape of a partly-open run: every process is
/// a session that issues `session_len` operations and leaves, so there are
/// `ops / session_len` processes instead of `2 × groups`. Operations take up
/// to 35 time units: neighbours overlap and complete out of invocation order
/// while (with `groups ≥ 4`) each session stays sequential, and the identity
/// witness — invocation order — is still valid under every model.
pub fn synthetic_session_history(
    ops: usize,
    groups: usize,
    session_len: usize,
) -> (History, Vec<OpId>) {
    assert!(groups >= 4 && session_len >= 1, "sessions need ≥ 4 groups to stay sequential");
    synthetic(ops, groups, |g, round| {
        let session = round / session_len;
        ((1 + g + groups * session) as u32, 5 + 10 * ((g + round) % 4) as u64)
    })
}

/// Op `t` belongs to group `t % groups` and is invoked at `10 t`;
/// `shape(group, round)` names its process and how long it takes.
fn synthetic(
    ops: usize,
    groups: usize,
    shape: impl Fn(usize, usize) -> (u32, u64),
) -> (History, Vec<OpId>) {
    assert!(groups >= 1, "synthetic_history needs at least one group");
    const KEYS_PER_GROUP: u64 = 8;
    let mut builder = HistoryBuilder::new();
    let mut last_value: Vec<u64> = vec![0; groups * KEYS_PER_GROUP as usize];
    let mut witness = Vec::with_capacity(ops);
    for t in 0..ops {
        let g = t % groups;
        let round = t / groups;
        let slot = (round / 2) as u64 % KEYS_PER_GROUP;
        let key = 1 + g as u64 * KEYS_PER_GROUP + slot;
        let (process, duration) = shape(g, round);
        let invoke = t as u64 * 10;
        let response = invoke + duration;
        let id = if round.is_multiple_of(2) {
            let value = t as u64 + 1;
            last_value[g * KEYS_PER_GROUP as usize + slot as usize] = value;
            builder.write(process, key, value, invoke, response)
        } else {
            let value = last_value[g * KEYS_PER_GROUP as usize + slot as usize];
            builder.read(process, key, value, invoke, response)
        };
        witness.push(id);
    }
    (builder.build(), witness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use regular_core::check_witness;

    #[test]
    fn synthetic_history_streams_clean_under_every_model() {
        let (history, witness) = synthetic_history(2_000, 4);
        for model in [WitnessModel::ProcessOrder, WitnessModel::Regular, WitnessModel::RealTime] {
            assert!(check_witness(&history, &witness, model).is_ok());
            let stats = certify_streaming(&history, &witness, model)
                .unwrap_or_else(|v| panic!("streaming rejected under {model:?}: {v:?}"));
            assert_eq!(stats.ops, 2_000);
            assert_eq!(stats.components, 4);
            assert!(stats.windows >= 1);
            assert!(stats.peak_window >= 1);
        }
    }

    #[test]
    fn streaming_agrees_with_batch_on_a_corrupted_witness() {
        let (history, mut witness) = synthetic_history(400, 2);
        // Move a read before the write it observes: the replay produces a
        // different value than recorded, so every model rejects.
        witness.swap(0, 2);
        for model in [WitnessModel::ProcessOrder, WitnessModel::Regular, WitnessModel::RealTime] {
            let batch = check_witness(&history, &witness, model);
            let streamed = certify_streaming(&history, &witness, model);
            assert_eq!(batch.is_ok(), streamed.is_ok(), "disagreement under {model:?}");
            assert!(streamed.is_err(), "corrupted witness accepted under {model:?}");
        }
    }

    /// Certification must cost what the operations cost, not operations ×
    /// sessions: a partly-open run makes every session a process, and the
    /// path in front of the checker used to rescan the history once per
    /// process (8× the history took 170× the time). Stats are pinned to what
    /// that quadratic implementation returned for the same inputs.
    #[test]
    fn session_shaped_history_certifies_in_near_linear_time() {
        let certify_min_of_3 = |ops: usize, expected: StreamStats| {
            let (history, witness) = synthetic_session_history(ops, 16, 10);
            assert!(history.validate().is_ok());
            (0..3)
                .map(|_| {
                    let started = std::time::Instant::now();
                    let stats = certify_streaming(&history, &witness, WitnessModel::Regular);
                    let elapsed = started.elapsed();
                    assert_eq!(stats, Ok(expected));
                    elapsed
                })
                .min()
                .expect("three runs")
        };
        let small = certify_min_of_3(
            5_000,
            StreamStats { ops: 5_000, windows: 3_673, peak_window: 2, components: 16 },
        );
        let large = certify_min_of_3(
            40_000,
            StreamStats { ops: 40_000, windows: 29_376, peak_window: 2, components: 16 },
        );
        assert!(
            large < small * 24,
            "8x the sessions took {large:?} against {small:?}: more than 24x (quadratic is 64x)"
        );
    }

    /// The sweep's verdicts rest on this certifier alone, so it is attacked
    /// with real runs: ≥ 200 seeded single-element moves of a certified
    /// protocol witness, each judged by the reference checker too. The
    /// mutants must not all die by the same clause — some in the replay,
    /// some only on an order rule (a reads-from inversion always fails the
    /// replay first, so `Causal` is not demanded).
    #[test]
    fn streaming_agrees_with_batch_on_mutated_protocol_witnesses() {
        use crate::input::{run_input, HuntInput, Workload};
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        use regular_core::checker::certificate::OrderKind;
        use regular_gryff::prelude::BugZoo;

        let model = WitnessModel::Regular;
        let runs = [
            ("spanner-rss", Workload::SpannerUniform, 12_000),
            ("gryff-rsc", Workload::GryffYcsb, 8_000),
        ];
        for (name, workload, stop_ms) in runs {
            let input =
                HuntInput { seed: 11, stop_ms, workload: Some(workload), ..HuntInput::default() };
            let run = run_input(&input, None, BugZoo::none());
            let (history, witness) = (run.history, run.witness);
            assert!(witness.len() > 300, "{name}: a real run ({} ops)", witness.len());
            assert_eq!(check_witness(&history, &witness, model), Ok(()), "{name}");
            assert!(certify_streaming(&history, &witness, model).is_ok(), "{name}");
            let mut rng = SmallRng::seed_from_u64(0x5EED);
            let (mut accepted, mut replay, mut order, mut other) = (0, 0, 0, 0);
            for mutant in 0..240 {
                // Half the moves are short hops (neighbours rarely conflict,
                // so they survive the replay), half land anywhere.
                let from = rng.gen_range(0..witness.len());
                let to = if mutant % 2 == 0 {
                    (from + rng.gen_range(1..=6usize)).min(witness.len() - 1)
                } else {
                    rng.gen_range(0..witness.len())
                };
                let mut moved = witness.clone();
                let id = moved.remove(from);
                moved.insert(to, id);
                let batch = check_witness(&history, &moved, model);
                let streamed = certify_streaming(&history, &moved, model);
                assert_eq!(
                    batch.is_ok(),
                    streamed.is_ok(),
                    "{name} mutant {mutant} ({from} -> {to}): batch={batch:?} streamed={streamed:?}"
                );
                match batch {
                    Ok(()) => accepted += 1,
                    Err(WitnessViolation::Spec(_)) => replay += 1,
                    Err(WitnessViolation::OrderViolation {
                        kind: OrderKind::ProcessOrder | OrderKind::RegularWrite,
                        ..
                    }) => order += 1,
                    Err(_) => other += 1,
                }
            }
            assert!(
                replay >= 1 && order >= 1,
                "{name}: mutants must die by different clauses \
                 (accepted {accepted}, replay {replay}, order {order}, other {other})"
            );
        }
    }

    #[test]
    fn streaming_validates_witness_membership() {
        let (history, mut witness) = synthetic_history(64, 1);
        let dup = witness[0];
        witness[1] = dup;
        assert!(matches!(
            certify_streaming(&history, &witness, WitnessModel::Regular),
            Err(WitnessViolation::DuplicateOp(d)) if d == dup
        ));

        let (history, mut witness) = synthetic_history(64, 1);
        let dropped = witness.pop().unwrap();
        assert!(matches!(
            certify_streaming(&history, &witness, WitnessModel::Regular),
            Err(WitnessViolation::MissingCompleteOp(d)) if d == dropped
        ));
    }
}
