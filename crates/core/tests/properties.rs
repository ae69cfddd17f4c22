//! Property-based tests of the consistency-model core: checker soundness,
//! witness/search agreement, spec replay determinism, and the witness
//! assembler.

use proptest::prelude::*;
use regular_core::checker::assemble::assemble_witness;
use regular_core::checker::certificate::{check_witness, WitnessModel};
use regular_core::checker::models::{check, constraints_for, Model};
use regular_core::checker::proximal::{
    check_proximal, crdb_constraints, osc_u_constraints, vv_constraints, ProximalModel,
};
use regular_core::checker::search::{find_sequence, find_sequence_reference};
use regular_core::checker::window::{StreamingChecker, WindowBuffer};
use regular_core::history::{ByProcess, History, HistoryIndex, OpRecord};
use regular_core::op::{OpKind, OpResult};
use regular_core::order::{message_edges, reads_from_edges, CausalOrder};
use regular_core::spec::{check_sequence, SpecState};
use regular_core::types::{Key, OpId, ProcessId, ServiceId, Timestamp, Value};

/// Operation description used by the generators.
#[derive(Debug, Clone)]
struct GenOp {
    process: u8,
    key: u8,
    is_write: bool,
    duration: u8,
    pick: u8,
}

fn gen_ops(max: usize) -> impl Strategy<Value = Vec<GenOp>> {
    prop::collection::vec(
        (0u8..3, 0u8..3, any::<bool>(), 0u8..3, any::<u8>()).prop_map(
            |(process, key, is_write, duration, pick)| GenOp {
                process,
                key,
                is_write,
                duration,
                pick,
            },
        ),
        1..max,
    )
}

/// Builds a well-formed history where reads return either null or a value some
/// write (anywhere in the history) wrote to the same key. Not necessarily
/// satisfiable under any model.
fn build_history(ops: &[GenOp]) -> History {
    let mut history = History::new();
    let mut writes: Vec<(Key, Value)> = Vec::new();
    // Pre-assign write values so reads can "read from the future" too — the
    // checkers must handle that (it is simply unsatisfiable in most models).
    for (i, op) in ops.iter().enumerate() {
        if op.is_write {
            writes.push((Key((op.key % 3) as u64 + 1), Value(1_000 + i as u64)));
        }
    }
    let mut now = 0u64;
    let mut free_at = [0u64; 4];
    for (i, op) in ops.iter().enumerate() {
        let pidx = (op.process % 3) as usize + 1;
        let key = Key((op.key % 3) as u64 + 1);
        now += 7;
        let invoke = now.max(free_at[pidx] + 1);
        let response = invoke + 3 + (op.duration as u64 % 3) * 15;
        free_at[pidx] = response;
        if op.is_write {
            history.add_complete(
                ProcessId(pidx as u32),
                ServiceId::KV,
                OpKind::Write { key, value: Value(1_000 + i as u64) },
                Timestamp(invoke),
                Timestamp(response),
                OpResult::Ack,
            );
        } else {
            let candidates: Vec<Value> =
                writes.iter().filter(|(k, _)| *k == key).map(|(_, v)| *v).collect();
            let value = if candidates.is_empty()
                || (op.pick as usize).is_multiple_of(candidates.len() + 1)
            {
                Value::NULL
            } else {
                candidates[(op.pick as usize) % candidates.len()]
            };
            history.add_complete(
                ProcessId(pidx as u32),
                ServiceId::KV,
                OpKind::Read { key },
                Timestamp(invoke),
                Timestamp(response),
                OpResult::Value(value),
            );
        }
    }
    history
}

/// `complete` with the operations `pending` picks recorded as incomplete.
fn pending_where(complete: &History, pending: impl Fn(&OpRecord) -> bool) -> History {
    let mut history = History::new();
    for op in complete.ops() {
        if pending(op) {
            history.add_incomplete(op.process, op.service, op.kind.clone(), op.invoke);
        } else {
            history.add_complete(
                op.process,
                op.service,
                op.kind.clone(),
                op.invoke,
                op.response().expect("build_history records complete ops"),
                op.result().cloned().expect("build_history records results"),
            );
        }
    }
    history
}

/// Builds `groups` disjoint copies of the generated history — distinct
/// processes, keys, and write values per group, but overlapping real-time
/// intervals — so the history has `groups` communication components and the
/// real-time edges between them have pairs to look at.
fn build_grouped_history(ops: &[GenOp], groups: usize) -> History {
    let mut history = History::new();
    for g in 0..groups as u64 {
        let value_of = |i: usize| Value(1_000 + g * 10_000 + i as u64);
        let key_of = |k: u8| Key((k % 3) as u64 + 1 + g * 3);
        let writes: Vec<(Key, Value)> = ops
            .iter()
            .enumerate()
            .filter(|(_, op)| op.is_write)
            .map(|(i, op)| (key_of(op.key), value_of(i)))
            .collect();
        let mut now = 0u64;
        let mut free_at = [0u64; 4];
        for (i, op) in ops.iter().enumerate() {
            let pslot = (op.process % 3) as usize + 1;
            let process = ProcessId(g as u32 * 3 + pslot as u32);
            let key = key_of(op.key);
            now += 7;
            let invoke = now.max(free_at[pslot] + 1);
            let response = invoke + 3 + (op.duration as u64 % 3) * 15;
            free_at[pslot] = response;
            if op.is_write {
                history.add_complete(
                    process,
                    ServiceId::KV,
                    OpKind::Write { key, value: value_of(i) },
                    Timestamp(invoke),
                    Timestamp(response),
                    OpResult::Ack,
                );
            } else {
                let candidates: Vec<Value> =
                    writes.iter().filter(|(k, _)| *k == key).map(|(_, v)| *v).collect();
                let value = if candidates.is_empty()
                    || (op.pick as usize).is_multiple_of(candidates.len() + 1)
                {
                    Value::NULL
                } else {
                    candidates[(op.pick as usize) % candidates.len()]
                };
                history.add_complete(
                    process,
                    ServiceId::KV,
                    OpKind::Read { key },
                    Timestamp(invoke),
                    Timestamp(response),
                    OpResult::Value(value),
                );
            }
        }
    }
    history
}

/// Like [`build_grouped_history`], but writes with `duration == 2` among the
/// first six ops of each group are recorded as incomplete (pending), so the
/// optional-subset enumeration of the search is exercised as well. Two
/// groups then stay within the searchers' cap of 12 pending ops.
fn build_grouped_history_with_pending(ops: &[GenOp], groups: usize) -> History {
    pending_where(&build_grouped_history(ops, groups), |op| {
        let i = op.id.index() % ops.len();
        ops[i].is_write && ops[i].duration == 2 && i < 6
    })
}

/// A history in the shape that stresses process grouping: `extra.len() + 200`
/// reads over at least 200 processes, inserted in an order unrelated to
/// their invocation times, which are drawn from so small a range that many
/// ops of one process tie on `invoke` (ties break by id); `pending` ops never
/// respond. `messages` are `(from, sent_at, to, delay)`.
fn build_scattered_history(
    seeds: &[(u8, u8)],
    extra: &[(u16, u8, u8)],
    messages: &[(u16, u8, u16, u8)],
) -> History {
    let mut history = History::new();
    let every_process = (0..200u16).zip(seeds).map(|(p, &(invoke, len))| (p, invoke, len));
    for (process, invoke, len) in every_process.chain(extra.iter().copied()) {
        let (process, invoke) = (ProcessId(process as u32), Timestamp(invoke as u64));
        let kind = OpKind::Read { key: Key(1) };
        if len.is_multiple_of(4) {
            history.add_incomplete(process, ServiceId::KV, kind, invoke);
        } else {
            let response = Timestamp(invoke.0 + len as u64 % 7);
            history.add_complete(
                process,
                ServiceId::KV,
                kind,
                invoke,
                response,
                OpResult::Value(Value::NULL),
            );
        }
    }
    for &(from, sent_at, to, delay) in messages {
        history.add_message(
            ProcessId(from as u32),
            Timestamp(sent_at as u64),
            ProcessId(to as u32),
            Timestamp(sent_at as u64 + delay as u64),
        );
    }
    history
}

/// `order::message_edges` as it stood before the shared grouping: one
/// `ops_of_process` scan per process, the sender's and receiver's lists
/// cloned and scanned linearly per message. Kept as the differential oracle.
fn message_edges_reference(history: &History) -> Vec<(OpId, OpId)> {
    let mut per_process: std::collections::HashMap<ProcessId, Vec<OpId>> = Default::default();
    for p in history.processes() {
        per_process.insert(p, history.ops_of_process(p));
    }
    let mut edges = Vec::new();
    for m in history.messages() {
        let sender_ops = per_process.get(&m.from).cloned().unwrap_or_default();
        let receiver_ops = per_process.get(&m.to).cloned().unwrap_or_default();
        let last_before = sender_ops
            .iter()
            .rev()
            .find(|id| history.op(**id).response().map(|r| r <= m.sent_at).unwrap_or(false));
        let first_after = receiver_ops.iter().find(|id| history.op(**id).invoke >= m.received_at);
        if let (Some(a), Some(b)) = (last_before, first_after) {
            if a != b {
                edges.push((*a, *b));
            }
        }
    }
    edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Whenever the exact search finds a witness for a model, the certificate
    /// checker accepts that witness for the corresponding witness model (the
    /// two characterizations of the definitions agree).
    #[test]
    fn search_witnesses_pass_the_certificate_checker(ops in gen_ops(8)) {
        let h = build_history(&ops);
        for (model, witness_model) in [
            (Model::Linearizability, WitnessModel::RealTime),
            (Model::RegularSequentialConsistency, WitnessModel::Regular),
            (Model::SequentialConsistency, WitnessModel::ProcessOrder),
        ] {
            let outcome = check(&h, model).unwrap();
            if let (true, Some(witness)) = (outcome.satisfied, outcome.witness) {
                prop_assert!(
                    check_witness(&h, &witness, witness_model).is_ok(),
                    "{} witness rejected by the certificate checker",
                    model.name()
                );
            }
        }
    }

    /// The witness found by the search is always a legal sequence per the spec
    /// and respects the model's constraint edges.
    #[test]
    fn witnesses_respect_spec_and_constraints(ops in gen_ops(8)) {
        let h = build_history(&ops);
        let model = Model::RegularSequentialSerializability;
        let outcome = check(&h, model).unwrap();
        if let (true, Some(witness)) = (outcome.satisfied, outcome.witness) {
            prop_assert!(check_sequence(&h, &witness).is_ok());
            let constraints = constraints_for(&h, model);
            let pos = |id| witness.iter().position(|x| *x == id);
            for (a, b) in constraints.edges() {
                if let (Some(pa), Some(pb)) = (pos(*a), pos(*b)) {
                    prop_assert!(pa < pb, "constraint {a} -> {b} violated");
                }
            }
        }
    }

    /// The two reachability implementations of the causal order (per-query DFS
    /// and the all-pairs closure) agree, and reads-from edges always point
    /// from a write to a read of the same key. (Acyclicity is only guaranteed
    /// for histories recorded from real executions; this generator can create
    /// impossible "read from the future" histories, which the model checkers
    /// simply reject.)
    #[test]
    fn causal_order_reachability_and_reads_from_are_well_typed(ops in gen_ops(10)) {
        let h = build_history(&ops);
        let causal = CausalOrder::new(&h);
        let closure = causal.closure();
        for a in h.complete_ids() {
            for b in h.complete_ids() {
                if a != b {
                    prop_assert_eq!(
                        causal.precedes(a, b),
                        closure[a.index()][b.index()],
                        "reachability implementations disagree for {} -> {}",
                        a,
                        b
                    );
                }
            }
        }
        for (w, r) in reads_from_edges(&h) {
            prop_assert!(h.op(w).kind.is_mutating());
            prop_assert!(!h.op(r).kind.is_mutating());
            let written = |k| h.op(w).kind.written_keys_iter().any(|key| key == k);
            prop_assert!(h.op(r).kind.read_keys_iter().any(written));
        }
    }

    /// A sequence accepted by the spec replay yields exactly the same final
    /// state regardless of how many times it is replayed (replay determinism).
    #[test]
    fn spec_replay_is_deterministic(ops in gen_ops(10)) {
        let h = build_history(&ops);
        let order = h.complete_ids();
        let mut s1 = SpecState::new();
        let mut s2 = SpecState::new();
        for id in &order {
            let op = h.op(*id);
            s1.apply(op.service, &op.kind);
        }
        for id in &order {
            let op = h.op(*id);
            s2.apply(op.service, &op.kind);
        }
        prop_assert_eq!(s1.fingerprint(), s2.fingerprint());
        prop_assert_eq!(s1, s2);
    }

    /// If the search says a history is linearizable, the assembler — given the
    /// per-key order implied by the search witness — also produces a witness
    /// the certificate checker accepts.
    #[test]
    fn assembler_reconstructs_linearizable_witnesses(ops in gen_ops(7)) {
        let h = build_history(&ops);
        let outcome = check(&h, Model::Linearizability).unwrap();
        if let (true, Some(witness)) = (outcome.satisfied, outcome.witness) {
            // Derive per-key chains from the search witness (what a protocol
            // would provide via its per-key metadata).
            let mut edges = Vec::new();
            for key in 1..=3u64 {
                let chain: Vec<_> = witness
                    .iter()
                    .copied()
                    .filter(|id| h.op(*id).kind.accessed_keys_iter().any(|k| k == Key(key)))
                    .collect();
                for w in chain.windows(2) {
                    edges.push((w[0], w[1]));
                }
            }
            let assembled = assemble_witness(&h, &edges, WitnessModel::RealTime);
            prop_assert!(assembled.is_ok(), "assembler failed on a linearizable history");
            prop_assert!(check_witness(&h, &assembled.unwrap(), WitnessModel::RealTime).is_ok());
        }
    }

    /// The assembler under all three witness models, fed what a protocol
    /// provides (per-key chains and process order, here read off a search
    /// witness that kept some pending writes): the order is every complete
    /// operation once plus exactly the incomplete ones an edge names, extends
    /// every edge, and certifies; a planted 2-cycle is refused.
    #[test]
    fn assembler_extends_its_edges_under_every_model(ops in gen_ops(7)) {
        // Well-formed: a process stops at its pending write.
        let complete = build_history(&ops);
        let by_process = ByProcess::new(&complete);
        let h = pending_where(&complete, |op| {
            op.kind.is_mutating() && by_process.ops_of(op.process).last() == Some(&op.id)
        });
        prop_assert!(h.validate().is_ok());
        for (model, witness_model) in [
            (Model::Linearizability, WitnessModel::RealTime),
            (Model::RegularSequentialConsistency, WitnessModel::Regular),
            (Model::SequentialConsistency, WitnessModel::ProcessOrder),
        ] {
            let outcome = check(&h, model).unwrap();
            let (true, Some(found)) = (outcome.satisfied, outcome.witness) else { continue };
            let chain = |keep: &dyn Fn(OpId) -> bool| -> Vec<(OpId, OpId)> {
                let kept: Vec<OpId> = found.iter().copied().filter(|id| keep(*id)).collect();
                kept.windows(2).map(|w| (w[0], w[1])).collect()
            };
            let mut edges = Vec::new();
            for n in 1..=3 {
                edges.extend(chain(&|id| h.op(id).kind.accessed_keys_iter().any(|k| k == Key(n))));
                edges.extend(chain(&|id| h.op(id).process == ProcessId(n as u32)));
            }
            let order = assemble_witness(&h, &edges, witness_model);
            prop_assert!(order.is_ok(), "{witness_model:?}: {order:?} on edges {edges:?}");
            let order = order.unwrap();
            let mut expected = h.complete_ids();
            expected.extend(
                edges.iter().flat_map(|&(a, b)| [a, b]).filter(|id| !h.op(*id).is_complete()),
            );
            expected.sort_unstable();
            expected.dedup();
            let mut emitted = order.clone();
            emitted.sort_unstable();
            prop_assert_eq!(&emitted, &expected, "{:?}", witness_model);
            let pos = |id| order.iter().position(|x| *x == id).unwrap();
            for &(a, b) in &edges {
                prop_assert!(pos(a) < pos(b), "{witness_model:?}: edge {a} -> {b} not respected");
            }
            let checked = check_witness(&h, &order, witness_model);
            prop_assert!(checked.is_ok(), "{witness_model:?}: {checked:?} on {order:?} for {h:?}");
            if let [a, b, ..] = order[..] {
                edges.extend([(a, b), (b, a)]);
                let err = assemble_witness(&h, &edges, witness_model).unwrap_err();
                prop_assert!(err.unordered >= 2);
            }
        }
    }

    /// The index-based search (compiled constraint graph, mutable spec state
    /// with undo, bitmask cycle checks) agrees exactly with the retained
    /// naive reference implementation — same satisfiability verdict under
    /// every model's constraint set, both called directly and through
    /// `models::check` — and any witness it produces passes the spec replay
    /// and the constraints. With two groups the history has two
    /// communication components, so the real-time edges between them are
    /// searched like any other.
    #[test]
    fn optimized_search_agrees_with_reference(ops in gen_ops(8), groups in 1usize..3) {
        let h = build_grouped_history_with_pending(&ops, groups);
        let required = h.complete_ids();
        let optional = h.pending_mutations();
        for model in [
            Model::StrictSerializability,
            Model::Linearizability,
            Model::RegularSequentialSerializability,
            Model::RegularSequentialConsistency,
            Model::ProcessOrderedSerializability,
            Model::SequentialConsistency,
        ] {
            let constraints = constraints_for(&h, model);
            let fast = find_sequence(&h, &required, &optional, &constraints).unwrap();
            let slow = find_sequence_reference(&h, &required, &optional, &constraints).unwrap();
            prop_assert_eq!(
                fast.is_some(),
                slow.is_some(),
                "{} verdicts diverge: optimized={:?} reference={:?}",
                model.name(),
                &fast,
                &slow
            );
            let checked = check(&h, model).unwrap();
            prop_assert_eq!(
                checked.satisfied,
                slow.is_some(),
                "{} verdicts diverge: check={:?} reference={:?}",
                model.name(),
                &checked,
                &slow
            );
            for witness in [&fast, &checked.witness].into_iter().flatten() {
                prop_assert!(check_sequence(&h, witness).is_ok());
                let pos = |id| witness.iter().position(|x| *x == id);
                for (a, b) in constraints.edges() {
                    if let (Some(pa), Some(pb)) = (pos(*a), pos(*b)) {
                        prop_assert!(pa < pb, "constraint {a} -> {b} violated under {}", model.name());
                    }
                }
            }
        }
    }

    /// The certification path — `models::check`'s search, then the
    /// certificate checker on the witness it returns — reaches exactly the
    /// naive reference search's verdict under every model, on histories of
    /// up to two disjoint groups (so up to two communication components).
    /// Every witness it produces passes the certificate checker under the
    /// model's witness model and respects the model's constraint edges.
    #[test]
    fn certification_cascade_agrees_with_reference_search(
        ops in gen_ops(7),
        groups in 1usize..3,
    ) {
        let h = build_grouped_history(&ops, groups);
        let required = h.complete_ids();
        let optional = h.pending_mutations();
        for (model, witness_model) in [
            (Model::StrictSerializability, WitnessModel::RealTime),
            (Model::Linearizability, WitnessModel::RealTime),
            (Model::RegularSequentialSerializability, WitnessModel::Regular),
            (Model::RegularSequentialConsistency, WitnessModel::Regular),
            (Model::ProcessOrderedSerializability, WitnessModel::ProcessOrder),
            (Model::SequentialConsistency, WitnessModel::ProcessOrder),
        ] {
            let constraints = constraints_for(&h, model);
            let reference =
                find_sequence_reference(&h, &required, &optional, &constraints).unwrap();
            let checked = check(&h, model).unwrap();
            prop_assert_eq!(
                checked.satisfied,
                reference.is_some(),
                "{} verdicts diverge: check={:?} reference={:?}",
                model.name(),
                &checked,
                &reference
            );
            if let Some(witness) = &checked.witness {
                let certified = check_witness(&h, witness, witness_model);
                prop_assert!(
                    certified.is_ok(),
                    "{} witness rejected by the certificate checker: {:?}",
                    model.name(),
                    certified
                );
                let pos = |id| witness.iter().position(|x| *x == id);
                for (a, b) in constraints.edges() {
                    if let (Some(pa), Some(pb)) = (pos(*a), pos(*b)) {
                        prop_assert!(pa < pb, "constraint {a} -> {b} violated under {}", model.name());
                    }
                }
            }
        }
    }

    /// The total-order models of Appendix A (CRDB, OSC(U), VV regularity)
    /// reach the reference search's verdict over the same constraint sets,
    /// on the same grouped histories with pending writes.
    #[test]
    fn proximal_total_orders_agree_with_reference(ops in gen_ops(8), groups in 1usize..3) {
        let h = build_grouped_history_with_pending(&ops, groups);
        let index = HistoryIndex::new(&h);
        let required = h.complete_ids();
        let optional = h.pending_mutations();
        for (model, constraints) in [
            (ProximalModel::Crdb, crdb_constraints(&index)),
            (ProximalModel::OscU, osc_u_constraints(&index)),
            (ProximalModel::VvRegularity, vv_constraints(&index)),
        ] {
            let slow = find_sequence_reference(&h, &required, &optional, &constraints).unwrap();
            let allowed = check_proximal(&h, model).unwrap();
            prop_assert_eq!(
                allowed,
                slow.is_some(),
                "{} verdicts diverge: check_proximal={} reference={:?}",
                model.name(),
                allowed,
                &slow
            );
        }
    }

    /// The windowed streaming checker reaches exactly the batch checker's
    /// verdict under every witness model, on valid and deliberately perturbed
    /// witnesses alike — fed the witness one operation at a time, and fed
    /// through a [`WindowBuffer`] under a shuffled arrival order. Histories
    /// range to ~2 000 ops over up to three disjoint groups, so the
    /// cross-group write-write sweep has pairs to look at. (The two checkers
    /// interleave replay and order rules differently — only the verdict is
    /// compared.)
    #[test]
    fn streaming_checker_agrees_with_batch(
        ops in gen_ops(700),
        groups in 1usize..4,
        flip in any::<bool>(),
        shuffle in any::<u64>(),
    ) {
        let h = build_grouped_history(&ops, groups);
        // A plausibly-valid candidate: global invocation order interleaves
        // the groups; the flip perturbation usually trips a constraint.
        let mut witness = h.complete_ids();
        witness.sort_by_key(|&id| (h.op(id).invoke.as_micros(), id));
        if flip && witness.len() >= 2 {
            let n = witness.len();
            witness.swap(0, n - 1);
        }
        // Arrival orders: witness order, and a seeded Fisher–Yates shuffle.
        let in_order: Vec<u32> = (0..witness.len() as u32).collect();
        let mut shuffled = in_order.clone();
        let mut state = shuffle | 1;
        for i in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let by_process = ByProcess::new(&h);
        let edges = message_edges(&h, &by_process);
        let prev = by_process.predecessors();
        let complete = h.complete_ids();
        for model in [WitnessModel::RealTime, WitnessModel::Regular, WitnessModel::ProcessOrder] {
            let batch = check_witness(&h, &witness, model);
            for arrivals in [&in_order, &shuffled] {
                let mut checker = StreamingChecker::with_message_edges(model, &edges);
                let mut buffer: WindowBuffer<OpId> = WindowBuffer::default();
                let mut streamed = Ok(());
                'arrivals: for &pos in arrivals {
                    buffer.push(pos, witness[pos as usize]);
                    while let Some(id) = buffer.pop_next() {
                        if let Err(v) = checker.push(h.op(id), prev[id.index()]) {
                            streamed = Err(v);
                            break 'arrivals;
                        }
                    }
                }
                let streamed = streamed.and_then(|()| checker.finish(&complete));
                prop_assert_eq!(
                    batch.is_ok(),
                    streamed.is_ok(),
                    "verdicts diverge ({} ops, {} groups, {:?}): batch={:?} streamed={:?}",
                    h.len(),
                    groups,
                    model,
                    &batch,
                    &streamed
                );
            }
        }
    }

    /// The one-pass grouping is `ops_of_process` for every process at once:
    /// same processes, same lists, same consecutive pairs and predecessors —
    /// over ≥ 200 processes, out-of-order insertion, invocation ties broken
    /// by id, and pending ops.
    #[test]
    fn shared_grouping_equals_ops_of_process(
        seeds in prop::collection::vec((0u8..24, any::<u8>()), 200),
        extra in prop::collection::vec((0u16..320, 0u8..24, any::<u8>()), 0..600),
    ) {
        let h = build_scattered_history(&seeds, &extra, &[]);
        let grouped = ByProcess::new(&h);
        let processes = h.processes();
        prop_assert!(processes.len() >= 200);
        prop_assert_eq!(grouped.iter().count(), processes.len());
        let mut pairs = Vec::new();
        let mut prev = vec![None; h.len()];
        for (&p, (q, ids)) in processes.iter().zip(grouped.iter()) {
            let expected = h.ops_of_process(p);
            prop_assert_eq!(p, q);
            prop_assert_eq!(ids, &expected[..]);
            prop_assert_eq!(grouped.ops_of(p), &expected[..]);
            for w in expected.windows(2) {
                pairs.push((w[0], w[1]));
                prev[w[1].index()] = Some(w[0]);
            }
        }
        prop_assert!(grouped.ops_of(ProcessId(u32::MAX)).is_empty());
        prop_assert_eq!(grouped.pairs().collect::<Vec<_>>(), pairs);
        let got: Vec<Option<OpId>> = grouped.predecessors().iter().map(|p| p.get()).collect();
        prop_assert_eq!(got, prev);
        let index = HistoryIndex::new(&h);
        prop_assert_eq!(
            index.ops_by_process().iter().collect::<Vec<_>>(),
            grouped.iter().collect::<Vec<_>>()
        );
    }

    /// Binary-searching the borrowed per-process lists finds exactly the
    /// edges the old clone-and-scan did, message by message — including a
    /// sender that never completed an operation, a receiver that never
    /// invokes again, a process that issued nothing, and a self-message.
    #[test]
    fn message_edges_equal_the_scanning_reference(
        seeds in prop::collection::vec((0u8..24, any::<u8>()), 200),
        extra in prop::collection::vec((0u16..12, 0u8..24, any::<u8>()), 0..120),
        random in prop::collection::vec((0u16..14, 0u8..32, 0u16..14, 0u8..6), 1..40),
    ) {
        let mut messages = random;
        // Process 300 has only a pending op: as a sender it has completed
        // nothing. Nobody invokes at or after t = 250. Process 999 is absent.
        messages.extend([(300, 30, 3, 1), (2, 5, 4, 245), (999, 3, 1, 1), (1, 3, 999, 1), (5, 9, 5, 2)]);
        let mut h = build_scattered_history(&seeds, &extra, &messages);
        h.add_incomplete(ProcessId(300), ServiceId::KV, OpKind::Read { key: Key(1) }, Timestamp(2));
        prop_assert_eq!(message_edges(&h, &ByProcess::new(&h)), message_edges_reference(&h));
    }

    /// The exact search and the constraint structure agree on monotonicity:
    /// adding the pending-writes subsets can only help, never hurt — if a
    /// history is satisfiable using only complete operations it stays
    /// satisfiable when the same call may also include pending ones.
    #[test]
    fn find_sequence_is_monotone_in_optional_ops(ops in gen_ops(7)) {
        let h = build_history(&ops);
        let constraints = constraints_for(&h, Model::RegularSequentialConsistency);
        let required = h.complete_ids();
        let without = find_sequence(&h, &required, &[], &constraints).unwrap();
        let with = find_sequence(&h, &required, &h.pending_mutations(), &constraints).unwrap();
        if without.is_some() {
            prop_assert!(with.is_some());
        }
    }
}
