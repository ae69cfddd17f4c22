//! Shared experiment configurations for the figure/table harnesses.
//!
//! Every binary in `src/bin/` builds on these helpers so that the exact
//! workload parameters of each experiment live in one place and match the
//! paper's evaluation setup (scaled to simulation: the key space is smaller
//! than the paper's ten million keys, and load levels are scaled accordingly;
//! see DESIGN.md for the substitution rationale).

use rand::rngs::SmallRng;
use regular_gryff::prelude as gryff;
use regular_session::{SessionConfig, SessionOp, SessionWorkload, SimPlane};
use regular_sim::metrics::LatencyRecorder;
use regular_sim::net::LatencyMatrix;
use regular_sim::time::{SimDuration, SimTime};
use regular_spanner::prelude as spanner;
use regular_workloads::Retwis;

/// Adapts the Retwis generator to the protocol-agnostic session interface.
pub struct RetwisAdapter {
    retwis: Retwis,
}

impl RetwisAdapter {
    /// Creates an adapter over `num_keys` keys with the given Zipf skew.
    pub fn new(num_keys: u64, skew: f64) -> Self {
        RetwisAdapter { retwis: Retwis::new(num_keys, skew) }
    }
}

impl SessionWorkload for RetwisAdapter {
    fn next_op(&mut self, rng: &mut SmallRng) -> SessionOp {
        let txn = self.retwis.next_txn(rng);
        let keys = txn.keys.iter().map(|&k| regular_core::types::Key(k)).collect();
        if txn.read_only {
            SessionOp::RoTxn { keys }
        } else {
            SessionOp::RwTxn { keys }
        }
    }
}

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
            workload: Box::new(RetwisAdapter::new(params.num_keys, params.skew))
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

/// Runs one point of the Figure 6 configuration: eight shards in one data
/// center, uniform workload, a given number of closed-loop sessions.
pub fn run_spanner_overhead(
    mode: spanner::Mode,
    total_sessions: usize,
    seed: u64,
) -> spanner::RunResult {
    run_spanner_overhead_batched(mode, total_sessions, 1, seed)
}

/// [`run_spanner_overhead`] with an explicit per-session pipelining depth.
pub fn run_spanner_overhead_batched(
    mode: spanner::Mode,
    total_sessions: usize,
    batch: usize,
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
        stop_issuing_at: SimTime::from_secs(10),
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

/// Runs the Figure 7 / §7.4 configuration.
pub fn run_gryff_ycsb(mode: gryff::Mode, params: &GryffRunParams) -> gryff::GryffRunResult {
    run_gryff_ycsb_batched(mode, params, 1)
}

/// [`run_gryff_ycsb`] with an explicit per-session pipelining depth.
pub fn run_gryff_ycsb_batched(
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

/// The fixed Spanner-RSS configuration of the `engine_hotpath` profile — the
/// "10 s Spanner run" of the ROADMAP's engine-hot-path item: the throughput
/// experiment's single-DC eight-shard cluster (§6.2) under saturating load
/// (4 client nodes × 32 sessions × batch 8 = 1024 lanes), where the
/// simulator pushes millions of messages through the event queue and the
/// shards' busy-deferral churn makes event storage dominate wall-clock.
/// `queue` selects the event-queue implementation so the bench and
/// `sim_profile` can A/B the indexed queue against the retained reference
/// heap on an otherwise identical execution.
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

/// Formats a latency value in milliseconds with two decimals.
pub fn fmt_ms(d: Option<SimDuration>) -> String {
    match d {
        Some(d) => format!("{:.2}", d.as_millis_f64()),
        None => "-".to_string(),
    }
}

/// Prints a tail-latency row (p50/p90/p99/p99.5/p99.9/max) for a recorder.
pub fn print_tail_row(label: &str, recorder: &LatencyRecorder) {
    let mut r = recorder.clone();
    println!(
        "{:<28} n={:<7} p50={:>8} p90={:>8} p99={:>8} p99.5={:>8} p99.9={:>8} max={:>8}  (ms)",
        label,
        r.len(),
        fmt_ms(r.percentile(50.0)),
        fmt_ms(r.percentile(90.0)),
        fmt_ms(r.percentile(99.0)),
        fmt_ms(r.percentile(99.5)),
        fmt_ms(r.percentile(99.9)),
        fmt_ms(r.max()),
    );
}

/// Prints a CDF (fraction, latency ms) table for plotting, one row per named
/// fraction — the format of Figures 5 and 7's axes.
pub fn print_cdf(label: &str, recorder: &LatencyRecorder, fractions: &[f64]) {
    let mut r = recorder.clone();
    println!("# CDF {label}");
    println!("{:>10}  {:>12}", "fraction", "latency_ms");
    for p in r.cdf(fractions) {
        println!("{:>10.4}  {:>12.2}", p.fraction, p.latency.as_millis_f64());
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
    fn retwis_adapter_produces_valid_requests() {
        use rand::SeedableRng;
        let mut adapter = RetwisAdapter::new(1_000, 0.7);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ro = 0;
        for _ in 0..200 {
            let (keys, read_only) = match adapter.next_op(&mut rng) {
                SessionOp::RoTxn { keys } => (keys, true),
                SessionOp::RwTxn { keys } => (keys, false),
                other => panic!("unexpected op {other:?}"),
            };
            assert!(!keys.is_empty());
            if read_only {
                ro += 1;
            }
        }
        assert!(ro > 50, "about half the Retwis mix is read-only");
    }

    #[test]
    fn reduction_percentage() {
        let old = Some(SimDuration::from_millis(200));
        let new = Some(SimDuration::from_millis(100));
        assert!((reduction_pct(old, new) - 50.0).abs() < 1e-9);
        assert_eq!(reduction_pct(None, new), 0.0);
    }
}
