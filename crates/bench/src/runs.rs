//! The deployments the subcommands measure, each described once.
//!
//! Every experiment of the `paper` table, the session baselines, the engine
//! profile and the live benches build their cluster here, so the exact
//! workload parameters live in one place and match the paper's evaluation
//! setup (scaled to simulation: the key space is smaller than the paper's
//! ten million keys, and load levels are scaled accordingly; see
//! ARCHITECTURE.md, "Substitutions and simplifications").

use regular_gryff::prelude as gryff;
use regular_session::{SessionConfig, SessionWorkload, SimPlane};
use regular_sim::net::LatencyMatrix;
use regular_sim::time::{SimDuration, SimTime};
use regular_spanner::prelude as spanner;
use regular_workloads::Retwis;

/// Parameters of a Figure 5 style run (Retwis over the wide-area topology).
#[derive(Debug, Clone)]
pub struct RetwisRunParams {
    /// Zipf skew (0.5, 0.7, or 0.9 in the paper).
    pub skew: f64,
    /// Key-space size (the paper uses 10 M; scaled down for simulation).
    pub num_keys: u64,
    /// Session arrival rate per client node (partly-open model).
    pub arrival_rate: f64,
    /// Session continuation probability (0.9 in the paper).
    pub stay_probability: f64,
    /// Simulated seconds of load generation.
    pub duration_secs: u64,
    /// Random seed.
    pub seed: u64,
    /// Ablation: disable the `t_ee` fast path in Spanner-RSS.
    pub disable_tee_skip: bool,
    /// TrueTime uncertainty (10 ms in the paper's wide-area experiments).
    pub truetime_epsilon: SimDuration,
}

impl Default for RetwisRunParams {
    fn default() -> Self {
        RetwisRunParams {
            skew: 0.7,
            num_keys: 400_000,
            arrival_rate: 4.0,
            stay_probability: 0.9,
            duration_secs: 120,
            seed: 42,
            disable_tee_skip: false,
            truetime_epsilon: SimDuration::from_millis(10),
        }
    }
}

/// Runs the Figure 5 configuration: three shards with leaders in CA/VA/IR,
/// partly-open Retwis clients in every region.
pub fn run_spanner_retwis(mode: spanner::Mode, params: &RetwisRunParams) -> spanner::RunResult {
    let mut config = spanner::SpannerConfig::wan(mode);
    config.disable_tee_skip = params.disable_tee_skip;
    config.truetime_epsilon = params.truetime_epsilon;
    let net = LatencyMatrix::spanner_wan();
    let clients = (0..3)
        .map(|region| spanner::ClientSpec {
            region,
            sessions: SessionConfig::partly_open(
                params.arrival_rate,
                params.stay_probability,
                SimDuration::ZERO,
            ),
            workload: Box::new(Retwis::new(params.num_keys, params.skew))
                as Box<dyn SessionWorkload>,
        })
        .collect();
    spanner::run_cluster(spanner::ClusterSpec {
        config,
        net,
        seed: params.seed,
        clients,
        stop_issuing_at: SimTime::from_secs(params.duration_secs),
        drain: SimDuration::from_secs(20),
        measure_from: SimTime::from_secs(5),
    })
}

/// Runs the Figure 4 micro-experiment: one writer keeps a two-shard
/// read-write transaction in its prepared window on two hot keys while two
/// readers issue read-only transactions on them.
pub fn run_spanner_blocked_reader(mode: spanner::Mode, secs: u64, seed: u64) -> spanner::RunResult {
    let client = |region, think_ms, ro_fraction, keys_per_txn| spanner::ClientSpec {
        region,
        sessions: SessionConfig::closed_loop(1, SimDuration::from_millis(think_ms)),
        workload: Box::new(spanner::UniformWorkload { num_keys: 2, ro_fraction, keys_per_txn })
            as Box<dyn SessionWorkload>,
    };
    spanner::run_cluster(spanner::ClusterSpec {
        config: spanner::SpannerConfig::wan(mode),
        net: LatencyMatrix::spanner_wan(),
        seed,
        // The writer (C_W) spans shards 0 and 1; the reader (C_R2) is remote;
        // a second reader (C_R1) sits beside the coordinator shard, observes
        // the write early and (under strict serializability) forces others to.
        clients: vec![client(0, 0, 0.0, 2), client(1, 20, 1.0, 1), client(0, 15, 1.0, 1)],
        stop_issuing_at: SimTime::from_secs(secs),
        drain: SimDuration::from_secs(10),
        measure_from: SimTime::from_secs(5),
    })
}

/// Runs one point of the Figure 6 configuration: eight shards in one data
/// center, uniform workload, `total_sessions` closed-loop sessions of
/// pipelining depth `batch`.
pub fn run_spanner_overhead(
    mode: spanner::Mode,
    total_sessions: usize,
    batch: usize,
    secs: u64,
    seed: u64,
) -> spanner::RunResult {
    let config = spanner::SpannerConfig::single_dc(mode, 8);
    let net = LatencyMatrix::single_dc();
    let nodes = 4;
    let clients = (0..nodes)
        .map(|_| spanner::ClientSpec {
            region: 0,
            sessions: SessionConfig::closed_loop(
                (total_sessions / nodes).max(1),
                SimDuration::ZERO,
            )
            .with_batch(batch),
            workload: Box::new(spanner::UniformWorkload {
                num_keys: 1_000_000,
                ro_fraction: 0.5,
                keys_per_txn: 3,
            }) as Box<dyn SessionWorkload>,
        })
        .collect();
    spanner::run_cluster(spanner::ClusterSpec {
        config,
        net,
        seed,
        clients,
        stop_issuing_at: SimTime::from_secs(secs),
        drain: SimDuration::from_secs(5),
        measure_from: SimTime::from_secs(2),
    })
}

/// Parameters of a Figure 7 style run (YCSB over the five-region topology).
#[derive(Debug, Clone)]
pub struct GryffRunParams {
    /// Fraction of operations that are writes.
    pub write_ratio: f64,
    /// Conflict rate (0.02, 0.10, 0.25 in the paper).
    pub conflict_rate: f64,
    /// Total closed-loop clients (16 in the paper), spread over the regions.
    pub clients: usize,
    /// Use the wide-area topology (Table 2); false = single data center.
    pub wan: bool,
    /// Simulated seconds of load generation.
    pub duration_secs: u64,
    /// Random seed.
    pub seed: u64,
}

impl Default for GryffRunParams {
    fn default() -> Self {
        GryffRunParams {
            write_ratio: 0.5,
            conflict_rate: 0.10,
            clients: 16,
            wan: true,
            duration_secs: 120,
            seed: 42,
        }
    }
}

/// Runs the Figure 7 / §7.4 configuration with sessions of pipelining depth
/// `batch`.
pub fn run_gryff_ycsb(
    mode: gryff::Mode,
    params: &GryffRunParams,
    batch: usize,
) -> gryff::GryffRunResult {
    let (config, net, regions) = if params.wan {
        (gryff::GryffConfig::wan(mode), LatencyMatrix::gryff_wan(), 5)
    } else {
        (gryff::GryffConfig::single_dc(mode), LatencyMatrix::single_dc(), 1)
    };
    let clients = (0..params.clients)
        .map(|i| gryff::GryffClientSpec {
            region: i % regions,
            sessions: SessionConfig::closed_loop(1, SimDuration::ZERO).with_batch(batch),
            workload: Box::new(gryff::ConflictWorkload::ycsb(
                params.write_ratio,
                params.conflict_rate,
                i as u64,
            )) as Box<dyn SessionWorkload>,
        })
        .collect();
    gryff::run_gryff(gryff::GryffClusterSpec {
        config,
        net,
        seed: params.seed,
        clients,
        stop_issuing_at: SimTime::from_secs(params.duration_secs),
        drain: SimDuration::from_secs(10),
        measure_from: SimTime::from_secs(5),
    })
}

/// The fixed Spanner-RSS configuration of the engine hot-path profile — the
/// "10 s Spanner run" of the ROADMAP's engine-hot-path item: the throughput
/// experiment's single-DC eight-shard cluster (§6.2) under saturating load
/// (4 client nodes × 32 sessions × batch 8 = 1024 lanes), where the
/// simulator pushes millions of messages through the event queue and every
/// event waits out dozens of busy deferrals in its shard's run queue.
/// `queue` selects the event-queue implementation so the `engine` subcommand
/// can A/B the indexed queue against the retained reference heap on an
/// otherwise identical execution.
pub fn engine_profile_spanner(
    seconds: u64,
    seed: u64,
    queue: regular_sim::queue::QueueKind,
) -> spanner::RunResult {
    let config = spanner::SpannerConfig::single_dc(spanner::Mode::SpannerRss, 8);
    let clients = (0..4)
        .map(|_| spanner::ClientSpec {
            region: 0,
            sessions: SessionConfig::closed_loop(32, SimDuration::ZERO).with_batch(8),
            workload: Box::new(spanner::UniformWorkload {
                num_keys: 1_000_000,
                ro_fraction: 0.5,
                keys_per_txn: 3,
            }) as Box<dyn SessionWorkload>,
        })
        .collect();
    spanner::run_cluster_on(
        &SimPlane { queue, ..SimPlane::default() },
        spanner::ClusterSpec {
            config,
            net: LatencyMatrix::single_dc(),
            seed,
            clients,
            stop_issuing_at: SimTime::from_secs(seconds),
            drain: SimDuration::from_secs(5),
            measure_from: SimTime::from_secs(1),
        },
    )
}

/// The Gryff-RSC counterpart of [`engine_profile_spanner`]: five-region WAN,
/// batch-8 pipelined sessions (the message-heavy configuration — every op is
/// two quorum rounds across the WAN).
pub fn engine_profile_gryff(
    seconds: u64,
    seed: u64,
    queue: regular_sim::queue::QueueKind,
) -> gryff::GryffRunResult {
    let config = gryff::GryffConfig::wan(gryff::Mode::GryffRsc);
    let clients = (0..5)
        .map(|region| gryff::GryffClientSpec {
            region,
            sessions: SessionConfig::closed_loop(2, SimDuration::ZERO).with_batch(8),
            workload: Box::new(gryff::ConflictWorkload::ycsb(0.5, 0.10, region as u64))
                as Box<dyn SessionWorkload>,
        })
        .collect();
    gryff::run_gryff_on(
        &SimPlane { queue, ..SimPlane::default() },
        gryff::GryffClusterSpec {
            config,
            net: LatencyMatrix::gryff_wan(),
            seed,
            clients,
            stop_issuing_at: SimTime::from_secs(seconds),
            drain: SimDuration::from_secs(5),
            measure_from: SimTime::from_secs(1),
        },
    )
}

/// How the live benches drive the Spanner clients: the fixed closed-loop
/// fleet of the standard rows, or open-loop Poisson arrivals for the knee
/// ladder.
#[derive(Clone, Copy)]
pub enum Drive {
    /// `sessions_per_client` closed-loop sessions on every client node.
    Closed {
        /// Sessions per client node.
        sessions_per_client: usize,
    },
    /// Poisson arrivals, shed past `max_in_flight`.
    Open {
        /// Arrivals per second per client node.
        rate_per_client: f64,
        /// In-flight cap per client node.
        max_in_flight: usize,
    },
}

/// Client nodes of the live Spanner-RSS deployment.
pub const LIVE_SPANNER_CLIENTS: usize = 8;

/// The closed-loop drive shared by the standard live Spanner row and the
/// multi-process run (hub and workers must agree on it byte for byte).
pub const LIVE_DRIVE: Drive = Drive::Closed { sessions_per_client: 4 };

/// The live benches' Spanner-RSS WAN deployment, deterministic in
/// `(seed, stop_secs, drive)`: the single-process rows, the multi-process
/// hub and every worker build their deployment from this one spec, so node
/// ids, the hard stop, ε and the fault schedule line up across processes.
pub fn live_spanner_spec(seed: u64, stop_secs: u64, drive: Drive) -> spanner::ClusterSpec {
    let clients = (0..LIVE_SPANNER_CLIENTS)
        .map(|i| {
            let sessions = match drive {
                Drive::Closed { sessions_per_client } => {
                    SessionConfig::closed_loop(sessions_per_client, SimDuration::ZERO)
                }
                Drive::Open { rate_per_client, max_in_flight } => {
                    SessionConfig::open_loop(rate_per_client, max_in_flight)
                }
            };
            spanner::ClientSpec {
                region: i % 3,
                sessions: sessions
                    .with_workload_seed(seed.wrapping_mul(1_000_003).wrapping_add(i as u64)),
                workload: Box::new(spanner::UniformWorkload {
                    num_keys: 500,
                    ro_fraction: 0.5,
                    keys_per_txn: 2,
                }) as Box<dyn SessionWorkload>,
            }
        })
        .collect();
    spanner::ClusterSpec {
        config: spanner::SpannerConfig::wan(spanner::Mode::SpannerRss),
        net: LatencyMatrix::spanner_wan(),
        seed,
        clients,
        stop_issuing_at: SimTime::from_secs(stop_secs),
        drain: SimDuration::from_secs(8),
        measure_from: SimTime::from_secs(1),
    }
}

/// The live benches' five-region Gryff-RSC deployment: one client node per
/// region, three closed-loop sessions each, YCSB 50 % writes / 25 % conflicts.
pub fn live_gryff_spec(seed: u64, stop_secs: u64) -> gryff::GryffClusterSpec {
    let clients = (0..5)
        .map(|i| gryff::GryffClientSpec {
            region: i,
            sessions: SessionConfig::closed_loop(3, SimDuration::ZERO)
                .with_workload_seed(seed.wrapping_mul(999_983).wrapping_add(i as u64)),
            workload: Box::new(gryff::ConflictWorkload::ycsb(
                0.5,
                0.25,
                seed.wrapping_add(i as u64),
            )) as Box<dyn SessionWorkload>,
        })
        .collect();
    gryff::GryffClusterSpec {
        config: gryff::GryffConfig::wan(gryff::Mode::GryffRsc),
        net: LatencyMatrix::gryff_wan(),
        seed,
        clients,
        stop_issuing_at: SimTime::from_secs(stop_secs),
        drain: SimDuration::from_secs(8),
        measure_from: SimTime::from_secs(1),
    }
}

/// The percentile improvement of `new` over `old` (positive = reduction).
pub fn reduction_pct(old: Option<SimDuration>, new: Option<SimDuration>) -> f64 {
    match (old, new) {
        (Some(o), Some(n)) if o.as_micros() > 0 => {
            (o.as_micros() as f64 - n.as_micros() as f64) / o.as_micros() as f64 * 100.0
        }
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_percentage() {
        let old = Some(SimDuration::from_millis(200));
        let new = Some(SimDuration::from_millis(100));
        assert!((reduction_pct(old, new) - 50.0).abs() < 1e-9);
        assert_eq!(reduction_pct(None, new), 0.0);
    }
}
