//! Replayable failure artifacts.
//!
//! When a sweep seed fails certification, the offending run is dumped as a
//! self-contained JSON artifact: the scenario, the seed, the witness model,
//! the full recorded history, and the witness that was rejected. CI uploads
//! the file; `regular-bench replay <file>` (or
//! [`FailureArtifact::replay`]) re-runs the certifier every sweep verdict
//! came from on the exact same history without re-simulating, so a violation
//! found on a 32-core runner reproduces on a laptop byte-for-byte.

use std::path::{Path, PathBuf};

use regular_core::checker::certificate::{WitnessModel, WitnessViolation};
use regular_core::coverage::CoverageSignature;
use regular_core::history::History;
use regular_core::op::{OpKind, OpResult};
use regular_core::types::{Key, OpId, ProcessId, ServiceId, Timestamp, Value};
use regular_live::DeliveryRecord;

use crate::json::Json;
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
    /// The live transport's delivery log, when the failing run came from the
    /// live plane with recording enabled (live runs are not re-simulable
    /// from the seed alone; this is the schedule evidence). Empty for
    /// simulator runs.
    pub deliveries: Vec<DeliveryRecord>,
    /// Storage mode of the failing run (`"wal"` for the durable scenarios).
    /// `None` means in-memory and is omitted from the JSON, so artifacts
    /// from volatile runs are byte-identical to the pre-storage schema.
    pub durability: Option<String>,
    /// The exact input that produced this failure, when the artifact came
    /// from the coverage-guided hunter (`regular-hunt`): the serialized
    /// hunt input (seed, scripted sessions, fault events, delivery nudges).
    /// Kept opaque here — the hunter owns the encoding; the sweep only
    /// round-trips it. `None` is omitted from the JSON, so sweep artifacts
    /// are byte-identical to the pre-hunt schema.
    pub schedule: Option<Json>,
    /// Behaviour-coverage signature of the failing run, when recorded.
    /// `None` is omitted from the JSON.
    pub coverage: Option<CoverageSignature>,
}

impl FailureArtifact {
    /// Re-runs the sweep's certifier on the recorded history and witness.
    pub fn replay(&self) -> Result<(), WitnessViolation> {
        certify_streaming(&self.history, &self.witness, self.model).map(|_| ())
    }

    /// Serializes the artifact. The delivery log is only emitted when
    /// non-empty, so simulator artifacts are byte-identical to the pre-live
    /// schema.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("kind", Json::str("conformance-failure-artifact")),
            ("scenario", Json::str(&self.scenario)),
            ("seed", Json::u64(self.seed)),
            ("model", Json::str(model_name(self.model))),
            ("violation", Json::str(&self.violation)),
            ("witness", Json::Arr(self.witness.iter().map(|id| Json::u64(id.0 as u64)).collect())),
            ("history", history_to_json(&self.history)),
        ];
        if let Some(durability) = &self.durability {
            pairs.push(("durability", Json::str(durability)));
        }
        if !self.deliveries.is_empty() {
            let rec = |d: &DeliveryRecord| {
                Json::Arr(vec![
                    Json::u64(d.seq),
                    Json::u64(d.at_us),
                    Json::u64(d.from as u64),
                    Json::u64(d.to as u64),
                ])
            };
            pairs.push(("deliveries", Json::Arr(self.deliveries.iter().map(rec).collect())));
        }
        if let Some(schedule) = &self.schedule {
            pairs.push(("schedule", schedule.clone()));
        }
        if let Some(coverage) = &self.coverage {
            pairs.push((
                "coverage",
                Json::Arr(coverage.features().iter().map(|&f| Json::u64(f as u64)).collect()),
            ));
        }
        Json::obj(pairs)
    }

    /// Deserializes an artifact produced by [`FailureArtifact::to_json`].
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let field = |k: &str| json.get(k).ok_or_else(|| format!("missing field '{k}'"));
        let scenario = field("scenario")?.as_str().ok_or("scenario must be a string")?.to_string();
        let seed = field("seed")?.as_u64().ok_or("seed must be an integer")?;
        let model = parse_model(field("model")?.as_str().ok_or("model must be a string")?)?;
        let violation =
            field("violation")?.as_str().ok_or("violation must be a string")?.to_string();
        let witness = field("witness")?
            .as_arr()
            .ok_or("witness must be an array")?
            .iter()
            .map(|v| v.as_u64().map(|n| OpId(n as u32)).ok_or("witness entries are op ids"))
            .collect::<Result<Vec<_>, _>>()?;
        let history = history_from_json(field("history")?)?;
        let deliveries = match json.get("deliveries") {
            None => Vec::new(),
            Some(list) => list
                .as_arr()
                .ok_or("deliveries must be an array")?
                .iter()
                .map(|d| {
                    let d = d.as_arr().filter(|d| d.len() == 4).ok_or("delivery record shape")?;
                    Ok(DeliveryRecord {
                        seq: d[0].as_u64().ok_or("delivery field")?,
                        at_us: d[1].as_u64().ok_or("delivery field")?,
                        from: d[2].as_u64().ok_or("delivery field")? as usize,
                        to: d[3].as_u64().ok_or("delivery field")? as usize,
                    })
                })
                .collect::<Result<Vec<_>, &str>>()?,
        };
        let durability = json.get("durability").and_then(Json::as_str).map(str::to_string);
        let schedule = json.get("schedule").cloned();
        let coverage = match json.get("coverage") {
            None => None,
            Some(list) => Some(CoverageSignature::from_features(
                list.as_arr()
                    .ok_or("coverage must be an array")?
                    .iter()
                    .map(|f| f.as_u64().map(|n| n as u32).ok_or("coverage entries are integers"))
                    .collect::<Result<Vec<_>, _>>()?,
            )),
        };
        Ok(FailureArtifact {
            scenario,
            seed,
            model,
            violation,
            witness,
            history,
            deliveries,
            durability,
            schedule,
            coverage,
        })
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

fn parse_model(name: &str) -> Result<WitnessModel, String> {
    match name {
        "real-time" => Ok(WitnessModel::RealTime),
        "regular" => Ok(WitnessModel::Regular),
        "process-order" => Ok(WitnessModel::ProcessOrder),
        other => Err(format!("unknown witness model '{other}'")),
    }
}

fn kv_pairs(pairs: &[(Key, Value)]) -> Json {
    Json::Arr(pairs.iter().map(|(k, v)| Json::Arr(vec![Json::u64(k.0), Json::u64(v.0)])).collect())
}

fn parse_kv_pairs(json: &Json) -> Result<Vec<(Key, Value)>, String> {
    json.as_arr()
        .ok_or("expected an array of [key, value] pairs")?
        .iter()
        .map(|pair| {
            let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or("expected [key, value]")?;
            let k = pair[0].as_u64().ok_or("key must be an integer")?;
            let v = pair[1].as_u64().ok_or("value must be an integer")?;
            Ok((Key(k), Value(v)))
        })
        .collect()
}

fn keys(keys: &[Key]) -> Json {
    Json::Arr(keys.iter().map(|k| Json::u64(k.0)).collect())
}

fn parse_keys(json: &Json) -> Result<Vec<Key>, String> {
    json.as_arr()
        .ok_or("expected an array of keys")?
        .iter()
        .map(|k| k.as_u64().map(Key).ok_or_else(|| "keys must be integers".to_string()))
        .collect()
}

fn kind_to_json(kind: &OpKind) -> Json {
    match kind {
        OpKind::Read { key } => {
            Json::obj(vec![("op", Json::str("read")), ("key", Json::u64(key.0))])
        }
        OpKind::Write { key, value } => Json::obj(vec![
            ("op", Json::str("write")),
            ("key", Json::u64(key.0)),
            ("value", Json::u64(value.0)),
        ]),
        OpKind::Rmw { key, value } => Json::obj(vec![
            ("op", Json::str("rmw")),
            ("key", Json::u64(key.0)),
            ("value", Json::u64(value.0)),
        ]),
        OpKind::RoTxn { keys: ks } => {
            Json::obj(vec![("op", Json::str("ro_txn")), ("keys", keys(ks))])
        }
        OpKind::RwTxn { read_keys, writes } => Json::obj(vec![
            ("op", Json::str("rw_txn")),
            ("read_keys", keys(read_keys)),
            ("writes", kv_pairs(writes)),
        ]),
        OpKind::Enqueue { queue, value } => Json::obj(vec![
            ("op", Json::str("enqueue")),
            ("key", Json::u64(queue.0)),
            ("value", Json::u64(value.0)),
        ]),
        OpKind::Dequeue { queue } => {
            Json::obj(vec![("op", Json::str("dequeue")), ("key", Json::u64(queue.0))])
        }
        OpKind::Fence => Json::obj(vec![("op", Json::str("fence"))]),
    }
}

fn kind_from_json(json: &Json) -> Result<OpKind, String> {
    let op = json.get("op").and_then(Json::as_str).ok_or("op kind missing 'op' tag")?;
    let key = || {
        json.get("key")
            .and_then(Json::as_u64)
            .map(Key)
            .ok_or_else(|| format!("'{op}' needs an integer 'key'"))
    };
    let value = || {
        json.get("value")
            .and_then(Json::as_u64)
            .map(Value)
            .ok_or_else(|| format!("'{op}' needs an integer 'value'"))
    };
    match op {
        "read" => Ok(OpKind::Read { key: key()? }),
        "write" => Ok(OpKind::Write { key: key()?, value: value()? }),
        "rmw" => Ok(OpKind::Rmw { key: key()?, value: value()? }),
        "ro_txn" => {
            Ok(OpKind::RoTxn { keys: parse_keys(json.get("keys").ok_or("missing keys")?)? })
        }
        "rw_txn" => Ok(OpKind::RwTxn {
            read_keys: parse_keys(json.get("read_keys").ok_or("missing read_keys")?)?,
            writes: parse_kv_pairs(json.get("writes").ok_or("missing writes")?)?,
        }),
        "enqueue" => Ok(OpKind::Enqueue { queue: key()?, value: value()? }),
        "dequeue" => Ok(OpKind::Dequeue { queue: key()? }),
        "fence" => Ok(OpKind::Fence),
        other => Err(format!("unknown op kind '{other}'")),
    }
}

fn result_to_json(result: &OpResult) -> Json {
    match result {
        OpResult::Ack => Json::obj(vec![("r", Json::str("ack"))]),
        OpResult::Value(v) => Json::obj(vec![("r", Json::str("value")), ("v", Json::u64(v.0))]),
        OpResult::Values(kvs) => Json::obj(vec![("r", Json::str("values")), ("kv", kv_pairs(kvs))]),
    }
}

fn result_from_json(json: &Json) -> Result<OpResult, String> {
    match json.get("r").and_then(Json::as_str) {
        Some("ack") => Ok(OpResult::Ack),
        Some("value") => Ok(OpResult::Value(Value(
            json.get("v").and_then(Json::as_u64).ok_or("'value' result needs 'v'")?,
        ))),
        Some("values") => {
            Ok(OpResult::Values(parse_kv_pairs(json.get("kv").ok_or("missing kv")?)?))
        }
        other => Err(format!("unknown result tag {other:?}")),
    }
}

/// Serializes a [`History`] (ops in id order, message edges).
pub fn history_to_json(history: &History) -> Json {
    let ops = history
        .ops()
        .iter()
        .map(|op| {
            let mut pairs = vec![
                ("process", Json::u64(op.process.0 as u64)),
                ("service", Json::u64(op.service.0 as u64)),
                ("kind", kind_to_json(&op.kind)),
                ("invoke", Json::u64(op.invoke.as_micros())),
            ];
            if let Some(resp) = op.response {
                pairs.push(("response", Json::u64(resp.as_micros())));
            }
            if let Some(result) = &op.result {
                pairs.push(("result", result_to_json(result)));
            }
            Json::obj(pairs)
        })
        .collect();
    let edge = |m: &regular_core::history::MessageEdge| {
        Json::Arr(vec![
            Json::u64(m.from.0 as u64),
            Json::u64(m.sent_at.as_micros()),
            Json::u64(m.to.0 as u64),
            Json::u64(m.received_at.as_micros()),
        ])
    };
    Json::obj(vec![
        ("ops", Json::Arr(ops)),
        ("messages", Json::Arr(history.messages().iter().map(edge).collect())),
        ("external", Json::Arr(history.external_communications().iter().map(edge).collect())),
    ])
}

/// Deserializes a [`History`] written by [`history_to_json`]. Op ids are
/// positional, so they survive the round trip unchanged.
pub fn history_from_json(json: &Json) -> Result<History, String> {
    let mut history = History::new();
    for (i, op) in json.get("ops").and_then(Json::as_arr).ok_or("missing ops")?.iter().enumerate() {
        let u = |k: &str| {
            op.get(k).and_then(Json::as_u64).ok_or_else(|| format!("op {i}: missing '{k}'"))
        };
        let process = ProcessId(u("process")? as u32);
        let service = ServiceId(u("service")? as u32);
        let kind = kind_from_json(op.get("kind").ok_or_else(|| format!("op {i}: missing kind"))?)
            .map_err(|e| format!("op {i}: {e}"))?;
        let invoke = Timestamp(u("invoke")?);
        match (op.get("response"), op.get("result")) {
            (Some(resp), Some(result)) => {
                let resp = Timestamp(resp.as_u64().ok_or_else(|| format!("op {i}: response"))?);
                let result = result_from_json(result).map_err(|e| format!("op {i}: {e}"))?;
                history.add_complete(process, service, kind, invoke, resp, result);
            }
            (None, None) => {
                history.add_incomplete(process, service, kind, invoke);
            }
            _ => return Err(format!("op {i}: response and result must be present together")),
        }
    }
    let edges = |field: &str| -> Result<Vec<[u64; 4]>, String> {
        json.get(field)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing {field}"))?
            .iter()
            .map(|m| {
                let m = m.as_arr().filter(|m| m.len() == 4).ok_or("message edge shape")?;
                Ok([
                    m[0].as_u64().ok_or("edge field")?,
                    m[1].as_u64().ok_or("edge field")?,
                    m[2].as_u64().ok_or("edge field")?,
                    m[3].as_u64().ok_or("edge field")?,
                ])
            })
            .collect()
    };
    for [from, sent, to, recv] in edges("messages")? {
        history.add_message(
            ProcessId(from as u32),
            Timestamp(sent),
            ProcessId(to as u32),
            Timestamp(recv),
        );
    }
    for [from, sent, to, recv] in edges("external")? {
        history.add_external_communication(
            ProcessId(from as u32),
            Timestamp(sent),
            ProcessId(to as u32),
            Timestamp(recv),
        );
    }
    Ok(history)
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
        let parsed = history_from_json(&json).expect("round trip parses");
        assert_eq!(parsed, h, "history round trip is exact");
        // And through the textual form too.
        let reparsed = history_from_json(&Json::parse(&json.to_pretty()).unwrap()).unwrap();
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
