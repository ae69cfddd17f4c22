//! Replayable failure artifacts.
//!
//! When a sweep seed or a hunted input fails certification, the offending run
//! is dumped as a self-contained JSON artifact: the scenario, the seed, the
//! witness model, the full recorded history, the witness that was rejected,
//! and the input that produced it. CI uploads the file; `regular-bench
//! replay <file>` (or [`FailureArtifact::replay`]) re-runs the certifier
//! every verdict came from on the exact same history without re-simulating,
//! so a violation found on a 32-core runner reproduces on a laptop
//! byte-for-byte — and [`crate::run_input`] re-simulates the input.
//!
//! The format is stable, pinned by `tests/artifact_compat.rs`; each type in
//! it is declared once, with [`json_layout!`] where it is a plain layout.

use std::path::{Path, PathBuf};

use regular_core::checker::certificate::{WitnessModel, WitnessViolation};
use regular_core::coverage::CoverageSignature;
use regular_core::history::{History, MessageEdge, OpRecord};
use regular_core::op::{OpKind, OpResult};
use regular_core::types::{Key, OpId, ProcessId, ServiceId, Timestamp, Value};
use regular_live::DeliveryRecord;

use crate::input::HuntInput;
use crate::json::{field, Json, JsonLayout};
use crate::json_layout;
use crate::stream::certify_streaming;

/// A certification failure with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct FailureArtifact {
    /// Scenario name (e.g. `spanner-rss`).
    pub scenario: String,
    /// The failing seed.
    pub seed: u64,
    /// The witness model the history was checked against.
    pub model: WitnessModel,
    /// Human-readable description of the violation.
    pub violation: String,
    /// The witness that was rejected.
    pub witness: Vec<OpId>,
    /// The full recorded history.
    pub history: History,
    /// The live transport's delivery log, when a live run recorded one (live
    /// runs do not re-simulate from the seed; this is the schedule evidence).
    /// Empty for simulator runs, and then omitted from the JSON.
    pub deliveries: Vec<DeliveryRecord>,
    /// Storage mode of the failing run (`"wal"` for the durable scenarios).
    /// `None` means in-memory and is omitted from the JSON.
    pub durability: Option<String>,
    /// The input that produced this failure, so it can be re-simulated and
    /// shrunk ([`crate::run_input`]). `None` (artifacts written before
    /// every failure carried its input) is omitted from the JSON.
    pub schedule: Option<HuntInput>,
    /// Behaviour-coverage signature of the failing run, when recorded.
    /// `None` is omitted from the JSON.
    pub coverage: Option<CoverageSignature>,
}

json_layout! {
    struct FailureArtifact as "kind": "conformance-failure-artifact" {
        scenario, seed, model, violation, witness, history;
        omit durability, deliveries, schedule, coverage
    }
}

impl FailureArtifact {
    /// Re-runs the sweep's certifier on the recorded history and witness.
    pub fn replay(&self) -> Result<(), WitnessViolation> {
        certify_streaming(&self.history, &self.witness, self.model).map(|_| ())
    }

    /// Writes the artifact to `dir/<scenario>-seed<seed>.json`, creating the
    /// directory if needed. Returns the path written.
    pub fn save(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}-seed{}.json", self.scenario, self.seed));
        std::fs::write(&path, self.to_json().to_pretty())?;
        Ok(path)
    }

    /// Loads an artifact from disk.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&Json::parse(&text)?)
    }
}

/// Stable string name of a witness model.
pub fn model_name(model: WitnessModel) -> &'static str {
    match model {
        WitnessModel::RealTime => "real-time",
        WitnessModel::Regular => "regular",
        WitnessModel::ProcessOrder => "process-order",
    }
}

json_layout! { enum WitnessModel by model_name { RealTime, Regular, ProcessOrder } }

json_layout! {
    struct Key(_); struct Value(_); struct OpId(_);
    struct ProcessId(_); struct ServiceId(_); struct Timestamp(_)
}

json_layout! { struct MessageEdge [from, sent_at, to, received_at] }

json_layout! { struct DeliveryRecord [seq, at_us, from, to] }

json_layout! {
    enum OpKind on "op" {
        "read" => Read { key }, "write" => Write { key, value }, "rmw" => Rmw { key, value },
        "ro_txn" => RoTxn { keys }, "rw_txn" => RwTxn { read_keys, writes },
        "enqueue" => Enqueue { queue as "key", value }, "dequeue" => Dequeue { queue as "key" },
        "fence" => Fence,
    }
}

json_layout! { enum OpResult on "r" { "ack" => Ack, "value" => Value(v), "values" => Values(kv) } }

/// One operation as a history writes it: its id is its position.
struct OpRow {
    process: ProcessId,
    service: ServiceId,
    kind: OpKind,
    invoke: Timestamp,
    response: Option<Timestamp>,
    result: Option<OpResult>,
}

json_layout! { struct OpRow { process, service, kind, invoke; omit response, result } }

/// Ops in id order, then message edges. Not a plain layout: an op's id is its
/// position, and its `response` and `result` are present together or not at all.
impl JsonLayout for History {
    fn to_json(&self) -> Json {
        let row = |op: &OpRecord| {
            let OpRecord { process, service, ref kind, invoke, .. } = *op;
            let (response, result) = (op.response(), op.result().cloned());
            OpRow { process, service, kind: kind.clone(), invoke, response, result }.to_json()
        };
        Json::obj(vec![
            ("ops", Json::Arr(self.ops().iter().map(row).collect())),
            ("messages", self.messages().to_vec().to_json()),
            ("external", self.external_communications().to_vec().to_json()),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let ops: Vec<OpRow> = field(json, "ops")?;
        let mut history = History::with_capacity(ops.len());
        for (i, op) in ops.into_iter().enumerate() {
            let OpRow { process, service, kind, invoke, response, result } = op;
            match (response, result) {
                (Some(response), Some(result)) => {
                    history.add_complete(process, service, kind, invoke, response, result)
                }
                (None, None) => history.add_incomplete(process, service, kind, invoke),
                _ => return Err(format!("ops[{i}]: response and result must be present together")),
            };
        }
        for m in field::<Vec<MessageEdge>>(json, "messages")? {
            history.add_message(m.from, m.sent_at, m.to, m.received_at);
        }
        for m in field::<Vec<MessageEdge>>(json, "external")? {
            history.add_external_communication(m.from, m.sent_at, m.to, m.received_at);
        }
        Ok(history)
    }
}

/// Serializes a [`History`] (ops in id order, message edges).
pub fn history_to_json(history: &History) -> Json {
    history.to_json()
}

/// A coverage signature is its feature ids; not a layout because the list is
/// private and kept sorted.
impl JsonLayout for CoverageSignature {
    fn to_json(&self) -> Json {
        self.features().to_vec().to_json()
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        Vec::from_json(json).map(CoverageSignature::from_features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regular_core::history::HistoryBuilder;

    fn sample_history() -> (History, Vec<OpId>) {
        let mut b = HistoryBuilder::new();
        let w = b.write(1, 1, 5, 0, 10);
        let r = b.read(2, 1, 5, 20, 30);
        let t = b.rw_txn(3, &[(1, 5)], &[(2, 7)], 40, 50);
        let q = b.ro_txn(1, &[(2, 7)], 60, 70);
        let p = b.pending_write(4, 3, 9, 80);
        b.message(1, 11, 2, 12);
        (b.build(), vec![w, r, t, q, p])
    }

    #[test]
    fn histories_round_trip_through_json() {
        let (h, _) = sample_history();
        let json = history_to_json(&h);
        let parsed = History::from_json(&json).expect("round trip parses");
        assert_eq!(parsed, h, "history round trip is exact");
        // And through the textual form too.
        let reparsed = History::from_json(&Json::parse(&json.to_pretty()).unwrap()).unwrap();
        assert_eq!(reparsed, h);
    }

    #[test]
    fn artifacts_replay_the_same_verdict() {
        let (h, witness) = sample_history();
        let artifact = FailureArtifact {
            scenario: "unit-test".to_string(),
            seed: 42,
            model: WitnessModel::Regular,
            violation: "none (valid witness)".to_string(),
            witness,
            history: h,
            deliveries: vec![
                DeliveryRecord { seq: 0, at_us: 11, from: 1, to: 2 },
                DeliveryRecord { seq: 1, at_us: 30, from: 2, to: 0 },
            ],
            durability: Some("wal".to_string()),
            schedule: None,
            coverage: None,
        };
        assert_eq!(artifact.replay(), Ok(()));
        let round =
            FailureArtifact::from_json(&Json::parse(&artifact.to_json().to_pretty()).unwrap())
                .expect("artifact parses");
        assert_eq!(round.seed, 42);
        assert_eq!(round.model, WitnessModel::Regular);
        assert_eq!(round.deliveries, artifact.deliveries, "delivery log round-trips");
        assert_eq!(round.durability.as_deref(), Some("wal"), "durability tag round-trips");
        assert_eq!(round.replay(), Ok(()));
        // An actually-invalid witness replays to the same rejection.
        let mut bad = round.clone();
        bad.witness.swap(0, 1);
        assert_eq!(bad.replay(), artifact_with_witness(&bad).replay());
    }

    fn artifact_with_witness(a: &FailureArtifact) -> FailureArtifact {
        FailureArtifact::from_json(&Json::parse(&a.to_json().to_pretty()).unwrap()).unwrap()
    }

    #[test]
    fn save_and_load_round_trip() {
        let (h, witness) = sample_history();
        let artifact = FailureArtifact {
            scenario: "io-test".to_string(),
            seed: 7,
            model: WitnessModel::ProcessOrder,
            violation: "demo".to_string(),
            witness,
            history: h,
            deliveries: Vec::new(),
            durability: None,
            schedule: None,
            coverage: None,
        };
        let pretty = artifact.to_json().to_pretty();
        for absent in ["durability", "schedule", "coverage"] {
            assert!(
                !pretty.contains(absent),
                "artifacts omit the '{absent}' field when unset for schema byte-compatibility"
            );
        }
        let dir = std::env::temp_dir().join("regular-sweep-artifact-test");
        let path = artifact.save(&dir).expect("artifact saves");
        let loaded = FailureArtifact::load(&path).expect("artifact loads");
        assert_eq!(loaded.scenario, "io-test");
        assert_eq!(loaded.history, artifact.history);
        assert_eq!(loaded.durability, None);
        let _ = std::fs::remove_file(path);
    }
}
