//! Cross-crate integration tests: full Spanner / Spanner-RSS simulations whose
//! recorded histories are verified with the `regular-core` checkers.

use regular_seq::core::checker::certificate::{check_witness, WitnessModel};
use regular_seq::sim::{LatencyMatrix, SimDuration, SimTime};
use regular_seq::spanner::prelude::*;
use regular_seq::sweep::certify_streaming;
use regular_seq::workloads::Retwis;

fn retwis_cluster(mode: Mode, skew: f64, seed: u64, keys: u64) -> RunResult {
    let clients = (0..3)
        .map(|region| ClientSpec {
            region,
            sessions: SessionConfig::partly_open(4.0, 0.9, SimDuration::ZERO),
            workload: Box::new(Retwis::new(keys, skew)) as Box<dyn SessionWorkload>,
        })
        .collect();
    run_cluster(ClusterSpec {
        config: SpannerConfig::wan(mode),
        net: LatencyMatrix::spanner_wan(),
        seed,
        clients,
        stop_issuing_at: SimTime::from_secs(30),
        drain: SimDuration::from_secs(20),
        measure_from: SimTime::from_secs(3),
    })
}

#[test]
fn spanner_retwis_is_strictly_serializable() {
    let result = retwis_cluster(Mode::Spanner, 0.7, 21, 10_000);
    assert!(result.client_stats.ro_completed > 200);
    assert!(result.client_stats.rw_completed > 200);
    verify_run(&result).expect("Spanner run must be strictly serializable");
}

#[test]
fn spanner_rss_retwis_satisfies_rss() {
    let result = retwis_cluster(Mode::SpannerRss, 0.7, 21, 10_000);
    assert!(result.client_stats.ro_completed > 200);
    verify_run(&result).expect("Spanner-RSS run must satisfy RSS");
}

#[test]
fn spanner_rss_high_contention_satisfies_rss_but_not_strict_serializability_witness() {
    // Under heavy contention the RSS run both exercises the skip path and
    // (almost always) contains at least one real-time inversion that a
    // strictly serializable system would forbid — demonstrating that the
    // consistency relaxation is observable, not just theoretical.
    let result = retwis_cluster(Mode::SpannerRss, 0.9, 5, 200);
    verify_run(&result).expect("Spanner-RSS run must satisfy RSS");
    let skipped: u64 = result.shard_stats.iter().map(|s| s.ro_skipped_prepared).sum();
    assert!(skipped > 0, "high contention should exercise the RSS skip path");
}

#[test]
fn spanner_rss_ro_tail_latency_not_worse_than_spanner() {
    let baseline = retwis_cluster(Mode::Spanner, 0.9, 9, 2_000);
    let rss = retwis_cluster(Mode::SpannerRss, 0.9, 9, 2_000);
    let mut b = baseline.ro_latencies.clone();
    let mut r = rss.ro_latencies.clone();
    let pb = b.percentile(99.0).unwrap();
    let pr = r.percentile(99.0).unwrap();
    // Allow a little noise but the RSS variant must not be meaningfully worse.
    assert!(
        pr.as_micros() <= pb.as_micros() + 20_000,
        "Spanner-RSS p99 RO latency ({pr}) must not exceed Spanner's ({pb}) by more than 20 ms"
    );
}

#[test]
fn spanner_rw_latency_identical_between_variants() {
    // The RW protocol is byte-for-byte identical in the two variants; compare
    // mean latency (the RW latency distribution is multi-modal — it depends on
    // how many shards a transaction spans — so the median is a fragile
    // statistic when the two runs sample slightly different transaction mixes).
    let baseline = retwis_cluster(Mode::Spanner, 0.5, 13, 50_000);
    let rss = retwis_cluster(Mode::SpannerRss, 0.5, 13, 50_000);
    let pb = baseline.rw_latencies.mean().unwrap().as_micros() as f64;
    let pr = rss.rw_latencies.mean().unwrap().as_micros() as f64;
    let diff = (pb - pr).abs() / pb;
    assert!(diff < 0.15, "mean RW latency should be nearly identical (diff {diff:.3})");
}

#[test]
fn witness_model_mismatch_is_detected() {
    // Sanity-check the testing methodology itself: a Spanner-RSS history from
    // a contended run generally does NOT pass the strict-serializability
    // (real-time) witness check with the RSS witness order, while it does pass
    // the RSS check. (If no inversion happened in this run the check may pass;
    // the seed below is known to produce inversions.)
    let result = retwis_cluster(Mode::SpannerRss, 0.9, 5, 200);
    let (history, witness) = build_history(&result);
    check_witness(&history, &witness, WitnessModel::Regular).expect("RSS witness is valid");
    assert!(
        check_witness(&history, &witness, WitnessModel::RealTime).is_err(),
        "the contended RSS run should visibly relax real-time ordering"
    );
    // The sweep's certifier draws the same line on the same history.
    certify_streaming(&history, &witness, WitnessModel::Regular).expect("RSS witness streams");
    assert!(
        certify_streaming(&history, &witness, WitnessModel::RealTime).is_err(),
        "the streaming certifier must reject the RSS order under real time too"
    );
}

#[test]
fn clock_uncertainty_spike_preserves_rss() {
    // Failure injection: a large TrueTime uncertainty (100 ms) lengthens
    // commit wait dramatically but must not violate RSS.
    let mut config = SpannerConfig::wan(Mode::SpannerRss);
    config.truetime_epsilon = SimDuration::from_millis(100);
    let clients = (0..3)
        .map(|region| ClientSpec {
            region,
            sessions: SessionConfig::closed_loop(3, SimDuration::ZERO),
            workload: Box::new(UniformWorkload { num_keys: 100, ro_fraction: 0.5, keys_per_txn: 2 })
                as Box<dyn SessionWorkload>,
        })
        .collect();
    let result = run_cluster(ClusterSpec {
        config,
        net: LatencyMatrix::spanner_wan(),
        seed: 77,
        clients,
        stop_issuing_at: SimTime::from_secs(20),
        drain: SimDuration::from_secs(20),
        measure_from: SimTime::from_secs(2),
    });
    assert!(result.client_stats.rw_completed > 20);
    verify_run(&result).expect("RSS must hold regardless of clock uncertainty");
}

/// One 300 s part of the benchmark's `sim_spanner_wan` workload, built as
/// `benchmark/src/workloads.rs` builds it: Spanner-RSS on the CA/VA/IR WAN,
/// Retwis at Zipf 0.9 over 400 000 keys, 2 partly-open session arrivals per
/// second per region after a 5 s lead-in, 20 s of drain.
fn wan_part(seed: u64) -> RunResult {
    let lead_in = SimTime::from_secs(5);
    let clients = (0..3)
        .map(|region| ClientSpec {
            region,
            sessions: SessionConfig::partly_open(2.0, 0.9, SimDuration::ZERO)
                .with_workload_seed(seed.wrapping_mul(1_000_003).wrapping_add(region as u64)),
            workload: Box::new(Retwis::new(400_000, 0.9)) as Box<dyn SessionWorkload>,
        })
        .collect();
    run_cluster(ClusterSpec {
        config: SpannerConfig::wan(Mode::SpannerRss),
        net: LatencyMatrix::spanner_wan(),
        seed,
        clients,
        stop_issuing_at: lead_in + SimDuration::from_secs(300),
        drain: SimDuration::from_secs(20),
        measure_from: lead_in,
    })
}

/// Part seeds 6015 and 560 returned fractured reads while the client
/// resolved a skipped transaction by its id alone: one shard's slow reply
/// let the read finish without the other shard's writes of the same
/// transaction. They certify with skipped transactions resolved per shard.
#[test]
fn sim_spanner_wan_part_seeds_6015_and_560_certify() {
    for seed in [6015, 560] {
        let (history, witness) = build_history(&wan_part(seed));
        if let Err(v) = certify_streaming(&history, &witness, WitnessModel::Regular) {
            panic!("part seed {seed} is not RSS: {v:?}");
        }
    }
}
