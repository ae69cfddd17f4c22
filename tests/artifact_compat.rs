//! Failure-artifact schema compatibility. Artifacts are a stable format: the
//! texts below were recorded before the JSON layouts were declared with
//! `json_layout!` (PR 25), and every build must write them byte for byte and
//! read them back to the same text. The hunter's optional `schedule` and
//! `coverage` fields (and `durability`, `deliveries`) never perturb artifacts
//! that do not use them: artifacts written without them serialize
//! byte-identically to the older schema, and older artifact files parse
//! unchanged with those fields reading as absent.

use proptest::prelude::*;
use regular_seq::core::checker::certificate::WitnessModel;
use regular_seq::core::coverage::CoverageSignature;
use regular_seq::core::history::{History, HistoryBuilder};
use regular_seq::core::op::{OpKind, OpResult};
use regular_seq::core::types::{Key, OpId, ProcessId, ServiceId, Timestamp, Value};
use regular_seq::hunt::{FaultEvent, HuntInput, HuntOp};
use regular_seq::live::DeliveryRecord;
use regular_seq::sweep::artifact::FailureArtifact;
use regular_seq::sweep::{Json, JsonLayout};

/// Builds a small but varied artifact: `n` write/read pairs over `keys`
/// keys, optionally carrying the new hunter fields.
fn build_artifact(seed: u64, n: u64, keys: u64, with_hunt_fields: bool) -> FailureArtifact {
    let mut b = HistoryBuilder::new();
    let mut witness: Vec<OpId> = Vec::new();
    for i in 0..n {
        let key = i % keys;
        let at = i * 40;
        witness.push(b.write(1 + (i % 3) as u32, key, i + 1, at, at + 10));
        witness.push(b.read(1 + ((i + 1) % 3) as u32, key, i + 1, at + 20, at + 30));
    }
    FailureArtifact {
        scenario: "compat-test".to_string(),
        seed,
        model: WitnessModel::Regular,
        violation: "none (valid witness)".to_string(),
        witness,
        history: b.build(),
        deliveries: Vec::new(),
        durability: None,
        schedule: with_hunt_fields.then(|| HuntInput { seed, ..golden_hunt_input() }),
        coverage: with_hunt_fields
            .then(|| CoverageSignature::from_features(vec![0x0001_0000 | (seed as u32 & 0xff)])),
    }
}

/// A hunt input with every scripted op kind and every fault variant.
fn golden_hunt_input() -> HuntInput {
    HuntInput {
        seed: 4_242,
        sessions: vec![
            vec![HuntOp::Write(0), HuntOp::Rmw(0), HuntOp::Read(3)],
            vec![],
            vec![HuntOp::Read(7)],
        ],
        faults: vec![
            FaultEvent::Crash { node: 1, at_ms: 500, dur_ms: 800 },
            FaultEvent::Partition { region: 4, at_ms: 20, dur_ms: 0 },
            FaultEvent::CutOneWay { from: 0, to: 2, at_ms: 50, dur_ms: 200 },
            FaultEvent::Drop { at_ms: 100, dur_ms: 300, permille: 1_000 },
        ],
        nudges: vec![(7, 90_000), (12, 0)],
        stop_ms: 4_000,
        workload: None,
        durable: false,
    }
}

/// A history with every op kind and result, an incomplete op, a message
/// edge and an external edge, at realistic magnitudes (values are
/// `(node + 1) << 40 | counter`, timestamps in µs).
fn golden_history() -> History {
    let (p, s, t) = (ProcessId, ServiceId, Timestamp);
    let v = |node: u64, n: u64| Value((node + 1) << 40 | n);
    let mut h = History::new();
    let base = 1_700_000_000_000_000;
    h.add_complete(
        p(1),
        s(0),
        OpKind::Write { key: Key(3), value: v(0, 1) },
        t(base),
        t(base + 10),
        OpResult::Ack,
    );
    h.add_complete(
        p(2),
        s(0),
        OpKind::Read { key: Key(3) },
        t(base + 20),
        t(base + 30),
        OpResult::Value(v(0, 1)),
    );
    h.add_complete(
        p(1),
        s(0),
        OpKind::Rmw { key: Key(3), value: v(0, 2) },
        t(base + 40),
        t(base + 50),
        OpResult::Value(v(0, 1)),
    );
    h.add_complete(
        p(3),
        s(1),
        OpKind::RoTxn { keys: vec![Key(3), Key(4)] },
        t(base + 60),
        t(base + 70),
        OpResult::Values(vec![(Key(3), v(0, 2)), (Key(4), Value(0))]),
    );
    h.add_complete(
        p(3),
        s(1),
        OpKind::RwTxn {
            read_keys: Box::new([Key(4)]),
            writes: vec![(Key(4), v(2, 1)), (Key(5), v(2, 2))],
        },
        t(base + 80),
        t(base + 90),
        OpResult::Values(vec![(Key(4), Value(0))]),
    );
    h.add_complete(
        p(4),
        s(2),
        OpKind::Enqueue { queue: Key(9), value: v(3, 1) },
        t(base + 100),
        t(base + 110),
        OpResult::Ack,
    );
    h.add_complete(
        p(5),
        s(2),
        OpKind::Dequeue { queue: Key(9) },
        t(base + 120),
        t(base + 130),
        OpResult::Value(v(3, 1)),
    );
    h.add_complete(p(4), s(2), OpKind::Fence, t(base + 140), t(base + 150), OpResult::Ack);
    h.add_incomplete(p(2), s(0), OpKind::Write { key: Key(6), value: v(1, 1) }, t(base + 160));
    h.add_message(p(1), t(base + 11), p(2), t(base + 19));
    h.add_external_communication(p(4), t(base + 151), p(5), t(base + 152));
    h
}

/// The fully loaded artifact: every optional field present, a hostile
/// violation string, a real hunt input as the schedule.
fn golden_loaded_artifact() -> FailureArtifact {
    FailureArtifact {
        scenario: "golden-loaded".to_string(),
        seed: 9_007_199_254_740_991,
        model: WitnessModel::RealTime,
        violation: "quote \" backslash \\ newline \n tab \t ctrl \u{1} non-ascii ε≤".to_string(),
        witness: vec![OpId(0), OpId(1), OpId(2), OpId(3), OpId(4), OpId(5), OpId(6), OpId(7)],
        history: golden_history(),
        deliveries: vec![
            DeliveryRecord { seq: 0, at_us: 11, from: 1, to: 2 },
            DeliveryRecord { seq: 1, at_us: 30, from: 2, to: 0 },
        ],
        durability: Some("wal".to_string()),
        schedule: Some(golden_hunt_input()),
        coverage: Some(CoverageSignature::from_features(vec![0x0003_0001, 0x0001_0002, 7])),
    }
}

/// The minimal artifact (every optional field absent) under `model`.
fn golden_minimal_artifact(model: WitnessModel) -> FailureArtifact {
    FailureArtifact { model, ..build_artifact(7, 2, 2, false) }
}

#[test]
fn the_loaded_artifact_text_is_pinned() {
    let artifact = golden_loaded_artifact();
    assert_eq!(artifact.to_json().to_pretty(), LOADED_ARTIFACT, "the artifact bytes changed");
    let parsed = FailureArtifact::from_json(&Json::parse(LOADED_ARTIFACT).unwrap()).unwrap();
    assert_eq!(parsed.to_json().to_pretty(), LOADED_ARTIFACT, "decode then encode is the identity");
    assert_eq!(parsed.scenario, artifact.scenario);
    assert_eq!(parsed.seed, artifact.seed);
    assert_eq!(parsed.model, artifact.model);
    assert_eq!(parsed.violation, artifact.violation);
    assert_eq!(parsed.witness, artifact.witness);
    assert_eq!(parsed.history, artifact.history);
    assert_eq!(parsed.deliveries, artifact.deliveries);
    assert_eq!(parsed.durability, artifact.durability);
    assert_eq!(parsed.schedule, artifact.schedule);
    assert_eq!(parsed.coverage, artifact.coverage);
    assert_eq!(parsed.schedule, Some(golden_hunt_input()), "the schedule is the hunt input");
}

#[test]
fn the_minimal_artifact_text_is_pinned_for_every_model() {
    let models = [
        (WitnessModel::ProcessOrder, "process-order"),
        (WitnessModel::Regular, "regular"),
        (WitnessModel::RealTime, "real-time"),
    ];
    for (model, name) in models {
        let golden = MINIMAL_ARTIFACT.replace("\"process-order\"", &format!("\"{name}\""));
        assert_eq!(golden_minimal_artifact(model).to_json().to_pretty(), golden, "{name}");
        let parsed = FailureArtifact::from_json(&Json::parse(&golden).unwrap()).unwrap();
        assert_eq!(parsed.model, model);
        assert_eq!(parsed.to_json().to_pretty(), golden, "decode then encode is the identity");
    }
}

#[test]
fn the_hunt_input_text_is_pinned() {
    assert_eq!(golden_hunt_input().to_json().to_pretty(), HUNT_INPUT, "the input bytes changed");
    let parsed = HuntInput::from_json(&Json::parse(HUNT_INPUT).unwrap()).unwrap();
    assert_eq!(parsed, golden_hunt_input());
    assert_eq!(parsed.to_json().to_pretty(), HUNT_INPUT, "decode then encode is the identity");
}

/// A pre-hunt artifact file — the exact text an older build wrote — parses
/// with the optional fields absent and replays to the same verdict.
#[test]
fn old_artifact_files_still_parse() {
    let parsed = FailureArtifact::from_json(&Json::parse(MINIMAL_ARTIFACT).unwrap())
        .expect("legacy artifacts parse under the new schema");
    assert!(parsed.schedule.is_none());
    assert!(parsed.coverage.is_none());
    assert!(parsed.durability.is_none());
    assert!(parsed.deliveries.is_empty());
    assert_eq!(parsed.replay(), Ok(()), "legacy artifacts still replay");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Artifacts that do not use the hunter fields are byte-identical to the
    /// pre-hunt schema: the serialized text never mentions the new keys, and
    /// a serialize→parse→serialize cycle is a fixed point.
    #[test]
    fn plain_artifacts_stay_byte_identical(seed in 0u64..1_000, n in 1u64..12, keys in 1u64..4) {
        let artifact = build_artifact(seed, n, keys, false);
        let text = artifact.to_json().to_pretty();
        prop_assert!(!text.contains("schedule"), "unset schedule must be omitted");
        prop_assert!(!text.contains("coverage"), "unset coverage must be omitted");

        let parsed = FailureArtifact::from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert!(parsed.schedule.is_none());
        prop_assert!(parsed.coverage.is_none());
        prop_assert_eq!(
            parsed.to_json().to_pretty(),
            text,
            "serialize→parse→serialize must be a fixed point"
        );
    }

    /// Artifacts that do carry the hunter fields round-trip them exactly and
    /// leave everything else intact.
    #[test]
    fn hunt_fields_round_trip_exactly(seed in 0u64..1_000, n in 1u64..12, keys in 1u64..4) {
        let artifact = build_artifact(seed, n, keys, true);
        let text = artifact.to_json().to_pretty();
        let parsed = FailureArtifact::from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(&parsed.schedule, &artifact.schedule, "schedule round-trips");
        prop_assert_eq!(&parsed.coverage, &artifact.coverage, "coverage round-trips");
        prop_assert_eq!(&parsed.history, &artifact.history);
        prop_assert_eq!(&parsed.witness, &artifact.witness);
        prop_assert_eq!(parsed.replay(), artifact.replay(), "the replay verdict is unchanged");
    }
}

/// Loads an artifact text, or says why not.
fn load(text: &str) -> Result<FailureArtifact, String> {
    FailureArtifact::from_json(&Json::parse(text)?)
}

/// The golden artifact with the first `from` replaced by `to`.
fn edited(from: &str, to: &str) -> String {
    assert!(LOADED_ARTIFACT.contains(from), "the golden text has no {from:?}");
    LOADED_ARTIFACT.replacen(from, to, 1)
}

#[test]
fn every_strict_prefix_of_an_artifact_is_refused() {
    let text = LOADED_ARTIFACT.trim_end();
    for cut in (0..text.len()).filter(|&cut| text.is_char_boundary(cut)) {
        assert!(load(&text[..cut]).is_err(), "a prefix of {cut} bytes loaded");
    }
}

/// A hand-edited or truncated artifact is an error naming the field or tag
/// at fault, never a panic and never a silently cut number.
#[test]
fn hostile_artifacts_are_refused_by_path() {
    let cases = [
        ("  \"scenario\": \"golden-loaded\",\n", "", "missing field 'scenario'"),
        (
            "conformance-failure-artifact",
            "hunt-input",
            "kind: expected 'conformance-failure-artifact', found 'hunt-input'",
        ),
        (
            "\"seed\": 9007199254740991",
            "\"seed\": \"1\"",
            "seed: expected an unsigned integer, found a string",
        ),
        ("\"real-time\"", "\"eventual\"", "model: unknown WitnessModel 'eventual'"),
        // Used to load as op 1.
        (
            "\"witness\": [\n    0,\n    1,",
            "\"witness\": [\n    0,\n    4294967297,",
            "witness[1]: 4294967297 is out of range for u32",
        ),
        ("\"op\": \"fence\"", "\"op\": \"cas\"", "history: ops[7]: kind: unknown \"op\" tag 'cas'"),
        (
            "\"r\": \"values\"",
            "\"r\": \"maybe\"",
            "history: ops[3]: result: unknown \"r\" tag 'maybe'",
        ),
        (
            "        \"response\": 1700000000000010,\n",
            "",
            "history: ops[0]: response and result must be present together",
        ),
        ("\"messages\": [", "\"messagez\": [", "history: missing field 'messages'"),
        ("\"durability\": \"wal\"", "\"durability\": 1", "durability: expected a string, found 1"),
        (
            "      0,\n      11,\n",
            "      0,\n",
            "deliveries[0]: expected [seq, at_us, from, to], found an array of 3",
        ),
        (
            "\"coverage\": [\n    7,",
            "\"coverage\": [\n    -7,",
            "coverage[0]: expected an unsigned integer, found -7",
        ),
    ];
    for (from, to, error) in cases {
        assert_eq!(
            load(&edited(from, to)).map(|_| ()),
            Err(error.to_string()),
            "{from:?} -> {to:?}"
        );
    }
    // The schedule is the hunt input, read with the artifact.
    let schedule = |from: &str, to: &str| load(&edited(from, to)).map(|_| ());
    let cases = [
        ("\"f\": \"crash\"", "\"f\": \"meteor\"", "faults[0]: unknown \"f\" tag 'meteor'"),
        (
            "\"node\": 1",
            "\"node\": 1.5",
            "faults[0]: node: expected an unsigned integer, found 1.5",
        ),
        (
            "[\n          1,\n          0\n",
            "[\n          3,\n          0\n",
            "sessions[0][0]: unknown hunt op kind 3",
        ),
        ("\"stop_ms\": 4000,\n", "", "missing field 'stop_ms'"),
    ];
    for (from, to, error) in cases {
        assert_eq!(schedule(from, to), Err(format!("schedule: {error}")), "{from:?} -> {to:?}");
    }
}

/// Members this build does not know, as a newer build may write them, are
/// ignored at every level.
#[test]
fn unknown_members_are_ignored() {
    let newer = edited("{\n", "{\n  \"spans\": [[1, 2]],\n")
        .replacen("\"process\": 1,", "\"process\": 1,\n        \"trace\": {\"at\": 3},", 1)
        .replacen("\"op\": \"fence\"", "\"op\": \"fence\", \"why\": \"later\"", 1);
    let parsed = load(&newer).expect("a newer artifact loads");
    assert_eq!(parsed.to_json().to_pretty(), LOADED_ARTIFACT);
    let newer = HUNT_INPUT.replacen("\"f\": \"drop\",", "\"f\": \"drop\", \"links\": \"all\",", 1);
    assert_eq!(HuntInput::from_json(&Json::parse(&newer).unwrap()), Ok(golden_hunt_input()));
}

/// `golden_loaded_artifact()` as the parent of PR 25 wrote it.
const LOADED_ARTIFACT: &str = r##"{
  "kind": "conformance-failure-artifact",
  "scenario": "golden-loaded",
  "seed": 9007199254740991,
  "model": "real-time",
  "violation": "quote \" backslash \\ newline \n tab \t ctrl \u0001 non-ascii ε≤",
  "witness": [
    0,
    1,
    2,
    3,
    4,
    5,
    6,
    7
  ],
  "history": {
    "ops": [
      {
        "process": 1,
        "service": 0,
        "kind": {
          "op": "write",
          "key": 3,
          "value": 1099511627777
        },
        "invoke": 1700000000000000,
        "response": 1700000000000010,
        "result": {
          "r": "ack"
        }
      },
      {
        "process": 2,
        "service": 0,
        "kind": {
          "op": "read",
          "key": 3
        },
        "invoke": 1700000000000020,
        "response": 1700000000000030,
        "result": {
          "r": "value",
          "v": 1099511627777
        }
      },
      {
        "process": 1,
        "service": 0,
        "kind": {
          "op": "rmw",
          "key": 3,
          "value": 1099511627778
        },
        "invoke": 1700000000000040,
        "response": 1700000000000050,
        "result": {
          "r": "value",
          "v": 1099511627777
        }
      },
      {
        "process": 3,
        "service": 1,
        "kind": {
          "op": "ro_txn",
          "keys": [
            3,
            4
          ]
        },
        "invoke": 1700000000000060,
        "response": 1700000000000070,
        "result": {
          "r": "values",
          "kv": [
            [
              3,
              1099511627778
            ],
            [
              4,
              0
            ]
          ]
        }
      },
      {
        "process": 3,
        "service": 1,
        "kind": {
          "op": "rw_txn",
          "read_keys": [
            4
          ],
          "writes": [
            [
              4,
              3298534883329
            ],
            [
              5,
              3298534883330
            ]
          ]
        },
        "invoke": 1700000000000080,
        "response": 1700000000000090,
        "result": {
          "r": "values",
          "kv": [
            [
              4,
              0
            ]
          ]
        }
      },
      {
        "process": 4,
        "service": 2,
        "kind": {
          "op": "enqueue",
          "key": 9,
          "value": 4398046511105
        },
        "invoke": 1700000000000100,
        "response": 1700000000000110,
        "result": {
          "r": "ack"
        }
      },
      {
        "process": 5,
        "service": 2,
        "kind": {
          "op": "dequeue",
          "key": 9
        },
        "invoke": 1700000000000120,
        "response": 1700000000000130,
        "result": {
          "r": "value",
          "v": 4398046511105
        }
      },
      {
        "process": 4,
        "service": 2,
        "kind": {
          "op": "fence"
        },
        "invoke": 1700000000000140,
        "response": 1700000000000150,
        "result": {
          "r": "ack"
        }
      },
      {
        "process": 2,
        "service": 0,
        "kind": {
          "op": "write",
          "key": 6,
          "value": 2199023255553
        },
        "invoke": 1700000000000160
      }
    ],
    "messages": [
      [
        1,
        1700000000000011,
        2,
        1700000000000019
      ]
    ],
    "external": [
      [
        4,
        1700000000000151,
        5,
        1700000000000152
      ]
    ]
  },
  "durability": "wal",
  "deliveries": [
    [
      0,
      11,
      1,
      2
    ],
    [
      1,
      30,
      2,
      0
    ]
  ],
  "schedule": {
    "kind": "hunt-input",
    "seed": 4242,
    "stop_ms": 4000,
    "sessions": [
      [
        [
          1,
          0
        ],
        [
          2,
          0
        ],
        [
          0,
          3
        ]
      ],
      [],
      [
        [
          0,
          7
        ]
      ]
    ],
    "faults": [
      {
        "f": "crash",
        "node": 1,
        "at_ms": 500,
        "dur_ms": 800
      },
      {
        "f": "partition",
        "region": 4,
        "at_ms": 20,
        "dur_ms": 0
      },
      {
        "f": "cut_oneway",
        "from": 0,
        "to": 2,
        "at_ms": 50,
        "dur_ms": 200
      },
      {
        "f": "drop",
        "at_ms": 100,
        "dur_ms": 300,
        "permille": 1000
      }
    ],
    "nudges": [
      [
        7,
        90000
      ],
      [
        12,
        0
      ]
    ]
  },
  "coverage": [
    7,
    65538,
    196609
  ]
}
"##;

/// `golden_minimal_artifact(ProcessOrder)` as the parent of PR 25 wrote it.
const MINIMAL_ARTIFACT: &str = r##"{
  "kind": "conformance-failure-artifact",
  "scenario": "compat-test",
  "seed": 7,
  "model": "process-order",
  "violation": "none (valid witness)",
  "witness": [
    0,
    1,
    2,
    3
  ],
  "history": {
    "ops": [
      {
        "process": 1,
        "service": 0,
        "kind": {
          "op": "write",
          "key": 0,
          "value": 1
        },
        "invoke": 0,
        "response": 10,
        "result": {
          "r": "ack"
        }
      },
      {
        "process": 2,
        "service": 0,
        "kind": {
          "op": "read",
          "key": 0
        },
        "invoke": 20,
        "response": 30,
        "result": {
          "r": "value",
          "v": 1
        }
      },
      {
        "process": 2,
        "service": 0,
        "kind": {
          "op": "write",
          "key": 1,
          "value": 2
        },
        "invoke": 40,
        "response": 50,
        "result": {
          "r": "ack"
        }
      },
      {
        "process": 3,
        "service": 0,
        "kind": {
          "op": "read",
          "key": 1
        },
        "invoke": 60,
        "response": 70,
        "result": {
          "r": "value",
          "v": 2
        }
      }
    ],
    "messages": [],
    "external": []
  }
}
"##;

/// `golden_hunt_input()` as the parent of PR 25 wrote it.
const HUNT_INPUT: &str = r##"{
  "kind": "hunt-input",
  "seed": 4242,
  "stop_ms": 4000,
  "sessions": [
    [
      [
        1,
        0
      ],
      [
        2,
        0
      ],
      [
        0,
        3
      ]
    ],
    [],
    [
      [
        0,
        7
      ]
    ]
  ],
  "faults": [
    {
      "f": "crash",
      "node": 1,
      "at_ms": 500,
      "dur_ms": 800
    },
    {
      "f": "partition",
      "region": 4,
      "at_ms": 20,
      "dur_ms": 0
    },
    {
      "f": "cut_oneway",
      "from": 0,
      "to": 2,
      "at_ms": 50,
      "dur_ms": 200
    },
    {
      "f": "drop",
      "at_ms": 100,
      "dur_ms": 300,
      "permille": 1000
    }
  ],
  "nudges": [
    [
      7,
      90000
    ],
    [
      12,
      0
    ]
  ]
}
"##;
