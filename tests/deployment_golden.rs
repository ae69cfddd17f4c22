//! Byte-identity pins for the three deployments' simulator runs.
//!
//! Every number below was recorded on the commit *before* the
//! deployment/plane refactor (PR 15) through the sim entry points
//! `run_cluster`, `run_gryff` and `run_composed`, and the file has not
//! changed since: a harness refactor that reorders `add_node`, re-derives a
//! per-node RNG stream, renumbers a node or touches a `SessionConfig` seed
//! changes some completion record, and with it a digest. The digest is the
//! FNV-1a of `benchmark/src/workloads.rs::digest` — who, when, how many
//! attempts, and the serialization point of every completion — extended with
//! the run's message counters.
//!
//! Spanner-RSS, Gryff-RSC and the composed deployment × {healthy, faults,
//! faults on a WAL} × two seeds.
//!
//! The `WITNESS` column pins what `assemble_witness` makes of the Gryff-RSC
//! and composed runs above (their only certifier input that is not a sort):
//! the FNV-1a of the assembled serialization, op ids in order, recorded on
//! the parent of PR 23 from the per-node `Vec<Vec<usize>>` graph that PR
//! replaced.

use regular_seq::core::checker::certificate::WitnessModel;
use regular_seq::core::types::OpId;
use regular_seq::gryff::prelude as gryff;
use regular_seq::session::{CompletedRecord, SessionConfig, SessionWorkload, WitnessHint};
use regular_seq::sim::fault::{FaultSchedule, LinkScope};
use regular_seq::sim::net::{LatencyMatrix, Region};
use regular_seq::sim::time::{SimDuration, SimTime};
use regular_seq::sim::MessageStats;
use regular_seq::spanner::prelude as spanner;
use regular_seq::storage::{Durability, StorageRegistry, WalOptions};
use regular_seq::sweep::composed::{
    certify_composed, run_composed, ComposedOutcome, ComposedRunConfig, ComposedWorkload,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Healthy,
    Faults,
    FaultsDurable,
}

const VARIANTS: [Variant; 3] = [Variant::Healthy, Variant::Faults, Variant::FaultsDurable];
const SEEDS: [u64; 2] = [3, 10];
const OP_TIMEOUT: SimDuration = SimDuration::from_millis(1_500);

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn mix(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn record(&mut self, r: &CompletedRecord) {
        self.mix(r.session);
        self.mix(u64::from(r.slot));
        self.mix(r.invoke.as_micros());
        self.mix(r.finish.as_micros());
        self.mix(u64::from(r.attempts));
        self.mix(u64::from(r.orphan));
        match r.witness {
            WitnessHint::None => self.mix(0),
            WitnessHint::Timestamp { ts } => self.mix(ts),
            WitnessHint::Carstamp { count, writer, rmwc } => {
                self.mix(count);
                self.mix(writer);
                self.mix(rmwc);
            }
        }
    }
    fn net(&mut self, s: MessageStats) {
        self.mix(s.delivered);
        self.mix(s.dropped);
        self.mix(s.duplicated);
        self.mix(s.expired);
    }
}

fn digest_clients(completed: &[(usize, Vec<CompletedRecord>)], net: MessageStats) -> u64 {
    let mut h = Fnv::new();
    for (node, recs) in completed {
        h.mix(*node as u64);
        h.mix(recs.len() as u64);
        for r in recs {
            h.record(r);
        }
    }
    h.net(net);
    h.0
}

/// One crash of `victim`, one region partition, one drop + duplicate window,
/// all inside a 12-simulated-second run.
fn faults(victim: usize, cut: usize) -> FaultSchedule {
    FaultSchedule::new()
        .crash(victim, SimTime::from_secs(3), SimTime::from_secs(5))
        .partition_region(Region(cut), SimTime::from_secs(6), SimTime::from_secs(7))
        .drop_window(LinkScope::All, SimTime::from_secs(8), SimTime::from_secs(10), 0.03)
        .duplicate_window(LinkScope::All, SimTime::from_secs(8), SimTime::from_secs(10), 0.03)
}

fn durability(variant: Variant, seed: u64) -> Durability {
    match variant {
        Variant::FaultsDurable => Durability::Wal(
            WalOptions::mem(StorageRegistry::new())
                .with_group_commit_us(200)
                .with_segment_bytes(16 * 1024)
                .with_checkpoint_every(128)
                .with_torn_tail_seed(seed),
        ),
        _ => Durability::InMemory,
    }
}

fn spanner_digest(seed: u64, variant: Variant) -> u64 {
    let mut config = spanner::SpannerConfig::wan(spanner::Mode::SpannerRss)
        .with_durability(durability(variant, seed));
    if variant != Variant::Healthy {
        config =
            config.with_faults(faults((seed % 3) as usize, ((seed + 1) % 3) as usize), OP_TIMEOUT);
    }
    let clients = (0..3)
        .map(|i| spanner::ClientSpec {
            region: i % 3,
            sessions: SessionConfig::closed_loop(3, SimDuration::ZERO)
                .with_batch(2)
                .with_workload_seed(seed.wrapping_mul(1_000_003).wrapping_add(i as u64)),
            workload: Box::new(spanner::UniformWorkload {
                num_keys: 150,
                ro_fraction: 0.5,
                keys_per_txn: 2,
            }) as Box<dyn SessionWorkload>,
        })
        .collect();
    let r = spanner::run_cluster(spanner::ClusterSpec {
        config,
        net: LatencyMatrix::spanner_wan(),
        seed,
        clients,
        stop_issuing_at: SimTime::from_secs(12),
        drain: SimDuration::from_secs(6),
        measure_from: SimTime::from_secs(1),
    });
    digest_clients(&r.completed, r.net_stats)
}

fn gryff_run(seed: u64, variant: Variant, mode: gryff::Mode) -> gryff::GryffRunResult {
    let mut config = gryff::GryffConfig::wan(mode).with_durability(durability(variant, seed));
    if variant != Variant::Healthy {
        config =
            config.with_faults(faults((seed % 5) as usize, ((seed + 2) % 5) as usize), OP_TIMEOUT);
    }
    let clients = (0..5)
        .map(|i| gryff::GryffClientSpec {
            region: i % 5,
            sessions: SessionConfig::closed_loop(2, SimDuration::ZERO)
                .with_workload_seed(seed.wrapping_mul(999_983).wrapping_add(i as u64)),
            workload: Box::new(gryff::ConflictWorkload {
                rmw_ratio: 0.1,
                ..gryff::ConflictWorkload::ycsb(0.5, 0.25, seed.wrapping_add(i as u64))
            }) as Box<dyn SessionWorkload>,
        })
        .collect();
    gryff::run_gryff(gryff::GryffClusterSpec {
        config,
        net: LatencyMatrix::gryff_wan(),
        seed,
        clients,
        stop_issuing_at: SimTime::from_secs(12),
        drain: SimDuration::from_secs(6),
        measure_from: SimTime::from_secs(1),
    })
}

fn gryff_digest(seed: u64, variant: Variant) -> u64 {
    let r = gryff_run(seed, variant, gryff::Mode::GryffRsc);
    digest_clients(&r.completed, r.net_stats)
}

fn composed_run(seed: u64, variant: Variant) -> ComposedOutcome {
    let mut config = ComposedRunConfig {
        num_apps: 2,
        ops_per_service: 2,
        batch: 2,
        duration_secs: 12,
        drain_secs: 8,
        durability: durability(variant, seed),
        ..ComposedRunConfig::default()
    };
    if variant != Variant::Healthy {
        // Shards are nodes 0..3, replicas 3..8: crash one of each.
        config.workload = ComposedWorkload::PhotoApp;
        config.faults = faults((seed % 3) as usize, ((seed + 1) % 5) as usize).crash(
            3 + (seed % 5) as usize,
            SimTime::from_secs(4),
            SimTime::from_secs(6),
        );
        config.op_timeout = Some(OP_TIMEOUT);
        config.handoff_every = Some(6);
    }
    run_composed(seed, &config)
}

fn composed_digest(seed: u64, variant: Variant) -> u64 {
    let outcome = composed_run(seed, variant);
    let mut h = Fnv::new();
    for app in &outcome.apps {
        h.mix(app.node as u64);
        h.mix(app.completed.len() as u64);
        for (svc, rec) in &app.completed {
            h.mix(*svc as u64);
            h.record(rec);
        }
        h.mix(app.auto_fences);
        h.mix(app.handoffs.len() as u64);
    }
    h.net(outcome.net_stats);
    h.0
}

/// `[deployment][variant][seed]`, recorded on the parent of PR 15. PR 18 moved
/// the six Spanner digests and `composed` Faults seed 3, on purpose: a shard's
/// termination checks share one engine timer per queue, so the tens of
/// thousands of timers that fired for closed transactions no longer take a
/// service time each, and shards are busy at other instants. The per-node
/// run queues of the same PR moved nothing, and Gryff's six did not move.
const GOLDEN: [[[u64; 2]; 3]; 3] = [
    [
        [0x5646_9676_a728_5e83, 0xc3ff_c84f_6dba_879e],
        [0xe58b_b167_6f3f_e751, 0x662f_90b9_3ca9_2bf4],
        [0x7c84_a64b_5b4e_e9ca, 0x3e70_a515_f09b_a147],
    ],
    [
        [0x0ed3_d331_82a5_3809, 0xc612_cce1_50dc_a48a],
        [0x8c14_a3c3_6d9f_b760, 0x8008_23c3_22c9_2795],
        [0x300d_3912_8b6d_3ce6, 0x72b4_553d_01de_ca57],
    ],
    [
        [0x0f71_a57a_fe98_f9a0, 0xaeef_de40_27d8_f286],
        [0x8bb2_613a_d323_e199, 0xbf5e_d4a4_3d64_c1cb],
        [0x0c05_dc9f_54f5_7bd1, 0x57fe_5333_bd93_3140],
    ],
];

fn digest_witness(witness: &[OpId]) -> u64 {
    let mut h = Fnv::new();
    h.mix(witness.len() as u64);
    for id in witness {
        h.mix(u64::from(id.0));
    }
    h.0
}

fn gryff_witness(seed: u64, variant: Variant, mode: gryff::Mode, model: WitnessModel) -> u64 {
    let r = gryff_run(seed, variant, mode);
    let (_, witness) = gryff::history_and_witness(&r.completed, model);
    digest_witness(&witness.expect("the run's constraints are acyclic"))
}

/// `[gryff, composed][variant][seed]`: the serialization assembled under
/// `WitnessModel::Regular`, recorded on the parent of PR 23.
const WITNESS: [[[u64; 2]; 3]; 2] = [
    [
        [0xea39_2a87_cb72_5404, 0x99a4_2f32_e44c_4418],
        [0x6278_8570_a86f_5154, 0x1d98_a5e3_e91f_f1cf],
        [0x193d_d886_cdfd_78fc, 0x8971_1be4_6779_a551],
    ],
    [
        [0x3f22_20f8_64ae_a183, 0xde18_837d_a7bf_e2df],
        [0xba6a_9115_cb38_e1dd, 0x2576_a37e_536c_dd7d],
        [0xfd13_c38e_26fd_4129, 0x085a_6fbc_bf45_c564],
    ],
];

/// The healthy Gryff spec of seed 3 run as `Mode::Gryff` and assembled under
/// `WitnessModel::RealTime`: the strict model's all-pairs barrier chain.
const WITNESS_STRICT: u64 = 0x1e55_39fe_e4bd_e684;

#[test]
fn assembled_witnesses_keep_their_digests() {
    let mut actual = [[[0u64; 2]; 3]; 2];
    for (v, &variant) in VARIANTS.iter().enumerate() {
        for (s, &seed) in SEEDS.iter().enumerate() {
            actual[0][v][s] =
                gryff_witness(seed, variant, gryff::Mode::GryffRsc, WitnessModel::Regular);
            let certified = certify_composed(&composed_run(seed, variant));
            actual[1][v][s] =
                digest_witness(&certified.unwrap_or_else(|v| panic!("{}", v.reason)).witness);
        }
    }
    let strict =
        gryff_witness(SEEDS[0], Variant::Healthy, gryff::Mode::Gryff, WitnessModel::RealTime);
    assert!(
        actual == WITNESS && strict == WITNESS_STRICT,
        "assembled witnesses moved (rows: gryff, composed; columns: {VARIANTS:?} x seeds \
         {SEEDS:?})\nactual: {actual:#018x?}\nstrict: {strict:#018x}",
    );
}

#[test]
fn sim_runs_of_all_three_deployments_keep_their_digests() {
    type Deployment = (&'static str, fn(u64, Variant) -> u64);
    let deployments: [Deployment; 3] =
        [("spanner", spanner_digest), ("gryff", gryff_digest), ("composed", composed_digest)];
    let mut actual = [[[0u64; 2]; 3]; 3];
    for (d, (_, run)) in deployments.iter().enumerate() {
        for (v, &variant) in VARIANTS.iter().enumerate() {
            for (s, &seed) in SEEDS.iter().enumerate() {
                actual[d][v][s] = run(seed, variant);
            }
        }
    }
    let render = |t: &[[[u64; 2]; 3]; 3]| {
        t.iter()
            .map(|d| {
                let rows: Vec<String> =
                    d.iter().map(|v| format!("[{:#018x}, {:#018x}]", v[0], v[1])).collect();
                format!("    [{}],", rows.join(", "))
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(
        actual == GOLDEN,
        "completion digests moved (rows: {}; columns: {VARIANTS:?} x seeds {SEEDS:?})\n\
         actual:\n{}\nexpected:\n{}",
        deployments.map(|(name, _)| name).join(", "),
        render(&actual),
        render(&GOLDEN),
    );
}

/// The pins are not vacuous: the fault variants differ from the healthy run,
/// and the seeds differ from each other.
#[test]
fn digests_tell_variants_and_seeds_apart() {
    for d in GOLDEN {
        let mut flat: Vec<u64> = d.iter().flatten().copied().collect();
        flat.sort_unstable();
        flat.dedup();
        assert_eq!(flat.len(), 6, "a deployment's digests collapse: {d:?}");
    }
}
