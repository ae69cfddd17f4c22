//! Partition Virginia away mid-run over the composed Spanner-RSS +
//! Gryff-RSC deployment, heal it, and certify the combined history as RSS.
//!
//! Virginia hosts Spanner shard 1's leader and Gryff replica 1, so for two
//! simulated seconds every cross-region message to or from them is dropped
//! at send time. Clients observe timeouts and retry; after the heal the
//! protocols re-drive their stalled coordination from durable state — and
//! the conformance checker proves no client ever observed an inconsistency.
//!
//! Run with: `cargo run --release --example partition_recovery`

use regular_seq::sim::fault::FaultSchedule;
use regular_seq::sim::net::regions;
use regular_seq::sim::time::{SimDuration, SimTime};
use regular_seq::sweep::composed::{
    certify_composed, run_composed, ComposedRunConfig, ComposedWorkload,
};

fn main() {
    let partition_from = SimTime::from_secs(6);
    let partition_until = SimTime::from_secs(8);
    let faults =
        FaultSchedule::new().partition_region(regions::VIRGINIA, partition_from, partition_until);
    let config = ComposedRunConfig {
        num_apps: 2,
        ops_per_service: 1,
        batch: 2,
        duration_secs: 16,
        drain_secs: 8,
        workload: ComposedWorkload::PhotoApp,
        faults,
        op_timeout: Some(SimDuration::from_millis(1_500)),
        handoff_every: Some(8),
        ..ComposedRunConfig::default()
    };

    println!("Composed Spanner-RSS + Gryff-RSC deployment, photo-sharing app");
    println!(
        "  fault script: Virginia partitioned away {partition_from} -> {partition_until} \
         (shard 1 and replica 1 unreachable from other regions)\n"
    );

    let outcome = run_composed(7, &config);
    let net = outcome.net_stats;
    println!("simulated 16 s of load (+8 s drain):");
    println!("  spanner ops completed : {}", outcome.spanner_ops());
    println!("  gryff ops completed   : {}", outcome.gryff_ops());
    println!("  libRSS auto-fences    : {}", outcome.auto_fences());
    println!("  causal handoffs       : {}", outcome.handoffs());
    println!("  messages delivered    : {}", net.delivered);
    println!("  messages dropped      : {} (partition cut links)", net.dropped);
    println!("  messages expired      : {}", net.expired);

    match certify_composed(&outcome) {
        Ok(certified) => {
            println!(
                "\nverdict: CERTIFIED — the combined {}-op history satisfies RSS \
                 through the partition and recovery",
                certified.history.len()
            );
        }
        Err(violation) => {
            println!("\nverdict: VIOLATION — {}", violation.reason);
            std::process::exit(1);
        }
    }
    assert!(net.dropped > 0, "the partition must actually drop traffic");
}
