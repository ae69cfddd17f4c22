//! Cross-crate integration tests: Gryff / Gryff-RSC simulations verified with
//! the `regular-core` checkers (linearizability and RSC respectively).

use regular_seq::gryff::prelude::*;
use regular_seq::sim::{LatencyMatrix, SimDuration, SimTime};

fn ycsb_cluster(mode: Mode, write_ratio: f64, conflict: f64, seed: u64) -> GryffRunResult {
    let clients = (0..10)
        .map(|i| GryffClientSpec {
            region: i % 5,
            sessions: SessionConfig::closed_loop(2, SimDuration::ZERO),
            workload: Box::new(ConflictWorkload::ycsb(write_ratio, conflict, i as u64))
                as Box<dyn SessionWorkload>,
        })
        .collect();
    run_gryff(GryffClusterSpec {
        config: GryffConfig::wan(mode),
        net: LatencyMatrix::gryff_wan(),
        seed,
        clients,
        stop_issuing_at: SimTime::from_secs(40),
        drain: SimDuration::from_secs(15),
        measure_from: SimTime::from_secs(4),
    })
}

#[test]
fn gryff_is_linearizable_under_high_conflict() {
    let result = ycsb_cluster(Mode::Gryff, 0.5, 0.5, 31);
    assert!(result.client_stats.reads > 500);
    assert!(result.client_stats.slow_reads > 0, "the write-back path should be exercised");
    verify_run(&result).expect("Gryff must be linearizable");
}

#[test]
fn gryff_rsc_satisfies_rsc_under_high_conflict() {
    let result = ycsb_cluster(Mode::GryffRsc, 0.5, 0.5, 31);
    assert!(result.client_stats.reads > 500);
    assert_eq!(result.client_stats.slow_reads, 0, "Gryff-RSC reads are always one round");
    assert!(result.client_stats.deps_piggybacked > 0);
    verify_run(&result).expect("Gryff-RSC must satisfy RSC");
}

#[test]
fn gryff_rsc_p99_read_latency_improves_with_conflicts() {
    let baseline = ycsb_cluster(Mode::Gryff, 0.5, 0.25, 17);
    let rsc = ycsb_cluster(Mode::GryffRsc, 0.5, 0.25, 17);
    let mut b = baseline.read_latencies.clone();
    let mut r = rsc.read_latencies.clone();
    let pb = b.percentile(99.0).unwrap();
    let pr = r.percentile(99.0).unwrap();
    assert!(pr < pb, "Gryff-RSC p99 read latency ({pr}) should beat Gryff's ({pb})");
    // The write protocol is identical between the variants. The pooled median
    // can still shift a little because faster reads let far-region closed-loop
    // clients contribute more (higher-latency) write samples, so compare with
    // a tolerance that absorbs that sampling-composition effect.
    let mut bw = baseline.write_latencies.clone();
    let mut rw = rsc.write_latencies.clone();
    let wb = bw.percentile(50.0).unwrap().as_micros() as f64;
    let wr = rw.percentile(50.0).unwrap().as_micros() as f64;
    assert!(
        (wb - wr).abs() / wb < 0.20,
        "median write latency should be essentially unchanged (baseline {wb} vs rsc {wr})"
    );
}

#[test]
fn lagging_replica_does_not_break_consistency() {
    // Failure injection: one replica is an order of magnitude slower at
    // processing messages. Quorums route around it; consistency must hold.
    let mut config = GryffConfig::wan(Mode::GryffRsc);
    config.replica_service_time = SimDuration::from_micros(20);
    let net = LatencyMatrix::gryff_wan();
    let mut clients: Vec<GryffClientSpec> = (0..8)
        .map(|i| GryffClientSpec {
            region: i % 5,
            sessions: SessionConfig::closed_loop(2, SimDuration::ZERO),
            workload: Box::new(ConflictWorkload::ycsb(0.5, 0.4, i as u64))
                as Box<dyn SessionWorkload>,
        })
        .collect();
    // Make one client hammer the shared key to maximize disagreement windows.
    clients.push(GryffClientSpec {
        region: 0,
        sessions: SessionConfig::closed_loop(1, SimDuration::ZERO),
        workload: Box::new(ConflictWorkload::ycsb(1.0, 1.0, 99)) as Box<dyn SessionWorkload>,
    });
    let result = run_gryff(GryffClusterSpec {
        config,
        net,
        seed: 8,
        clients,
        stop_issuing_at: SimTime::from_secs(30),
        drain: SimDuration::from_secs(15),
        measure_from: SimTime::from_secs(3),
    });
    assert!(result.client_stats.reads > 200);
    verify_run(&result).expect("Gryff-RSC must satisfy RSC with a lagging replica");
}

#[test]
fn rmw_workload_is_consistent() {
    let clients = (0..4)
        .map(|i| GryffClientSpec {
            region: i % 5,
            sessions: SessionConfig::closed_loop(2, SimDuration::ZERO),
            workload: Box::new(ConflictWorkload {
                rmw_ratio: 0.3,
                ..ConflictWorkload::ycsb(0.4, 0.2, i as u64)
            }) as Box<dyn SessionWorkload>,
        })
        .collect();
    let result = run_gryff(GryffClusterSpec {
        config: GryffConfig::wan(Mode::GryffRsc),
        net: LatencyMatrix::gryff_wan(),
        seed: 12,
        clients,
        stop_issuing_at: SimTime::from_secs(30),
        drain: SimDuration::from_secs(15),
        measure_from: SimTime::from_secs(3),
    });
    assert!(result.client_stats.rmws > 50);
    verify_run(&result).expect("mixed read/write/rmw workload must satisfy RSC");
}

#[test]
fn deterministic_runs_for_fixed_seed() {
    let a = ycsb_cluster(Mode::Gryff, 0.3, 0.1, 55);
    let b = ycsb_cluster(Mode::Gryff, 0.3, 0.1, 55);
    assert_eq!(a.client_stats.reads, b.client_stats.reads);
    assert_eq!(a.client_stats.writes, b.client_stats.writes);
    assert_eq!(a.net_stats.delivered, b.net_stats.delivered);
}
