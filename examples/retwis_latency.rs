//! A scaled-down Figure 5: Retwis over the wide-area topology, comparing
//! Spanner and Spanner-RSS read-only transaction tail latency.
//!
//! Run with: `cargo run --release --example retwis_latency`
//! (Use `--release`; the simulation covers ~40 simulated seconds per variant.)

use regular_seq::sim::{LatencyMatrix, SimDuration, SimTime};
use regular_seq::spanner::prelude::*;
use regular_seq::workloads::Retwis;

fn run(mode: Mode) -> RunResult {
    let clients = (0..3)
        .map(|region| ClientSpec {
            region,
            sessions: SessionConfig::partly_open(4.0, 0.9, SimDuration::ZERO),
            workload: Box::new(Retwis::new(200_000, 0.7)) as Box<dyn SessionWorkload>,
        })
        .collect();
    run_cluster(ClusterSpec {
        config: SpannerConfig::wan(mode),
        net: LatencyMatrix::spanner_wan(),
        seed: 7,
        clients,
        stop_issuing_at: SimTime::from_secs(40),
        drain: SimDuration::from_secs(10),
        measure_from: SimTime::from_secs(5),
    })
}

fn main() {
    println!("Retwis (skew 0.7) over CA/VA/IR — read-only transaction latency\n");
    for mode in [Mode::Spanner, Mode::SpannerRss] {
        let result = run(mode);
        let name = match mode {
            Mode::Spanner => "Spanner",
            Mode::SpannerRss => "Spanner-RSS",
        };
        let mut ro = result.ro_latencies.clone();
        let mut rw = result.rw_latencies.clone();
        println!("{name}:");
        println!(
            "  RO  p50 = {:>8}  p99 = {:>8}  p99.9 = {:>8}",
            ro.percentile(50.0).unwrap(),
            ro.percentile(99.0).unwrap(),
            ro.percentile(99.9).unwrap()
        );
        println!(
            "  RW  p50 = {:>8}  p99 = {:>8}",
            rw.percentile(50.0).unwrap(),
            rw.percentile(99.0).unwrap()
        );
        println!("  throughput = {:.0} txn/s", result.throughput);
        verify_run(&result).expect("run satisfies its consistency model");
        println!("  conformance check passed ✓\n");
    }
    println!("The RSS variant trims the read-only tail (blocking on conflicting prepared");
    println!("read-write transactions) without changing read-write latency — Figure 5's shape.");
}
