//! Smoke tests for the live execution plane: small clusters on real
//! threads must make progress, stop on time, and survive scripted faults.

use rand::rngs::SmallRng;
use rand::Rng;
use regular_gryff::prelude::{
    run_gryff_on, ConflictWorkload, GryffClientSpec, GryffClusterSpec, GryffConfig,
    Mode as GryffMode,
};
use regular_live::prelude::*;
use regular_session::{SessionConfig, SessionOp, SessionWorkload};
use regular_sim::{LatencyMatrix, SimDuration, SimTime};
use regular_spanner::prelude::{
    run_cluster_on, ClientSpec, ClusterSpec, Mode, SpannerConfig, UniformWorkload,
};

/// Wraps a workload so a fixed fraction of operations are libRSS fences.
struct WithFences<W>(W, f64);

impl<W: SessionWorkload> SessionWorkload for WithFences<W> {
    fn next_op(&mut self, rng: &mut SmallRng) -> SessionOp {
        if rng.gen_bool(self.1) {
            SessionOp::Fence
        } else {
            self.0.next_op(rng)
        }
    }
}

fn live(time_scale: u64, record_deliveries: bool) -> LivePlane {
    LivePlane { time_scale, record_deliveries, transport: TransportKind::Mpsc }
}

fn spanner_spec(seed: u64) -> ClusterSpec {
    let clients = (0..3)
        .map(|region| ClientSpec {
            region,
            sessions: SessionConfig::partly_open(4.0, 0.9, SimDuration::ZERO),
            workload: Box::new(UniformWorkload { num_keys: 500, ro_fraction: 0.5, keys_per_txn: 2 })
                as Box<dyn SessionWorkload>,
        })
        .collect();
    ClusterSpec {
        config: SpannerConfig::wan(Mode::SpannerRss),
        net: LatencyMatrix::spanner_wan(),
        seed,
        clients,
        stop_issuing_at: SimTime::from_secs(10),
        drain: SimDuration::from_secs(5),
        measure_from: SimTime::from_secs(1),
    }
}

#[test]
fn live_spanner_makes_progress_and_stops() {
    let r = run_cluster_on(&live(40, true), spanner_spec(7));
    let total: usize = r.completed.iter().map(|(_, v)| v.len()).sum();
    assert!(total > 50, "live cluster barely progressed: {} completions", total);
    assert!(r.net_stats.delivered > 0);
    assert!(!r.deliveries.is_empty(), "delivery log should be recorded");
    // Delivery log is ordered by simulated delivery time.
    assert!(r.deliveries.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    // 15 simulated seconds at 40x must not take anywhere near real time.
    assert!(r.wall.as_secs() < 10, "run took {:?} wall", r.wall);
}

#[test]
fn live_gryff_makes_progress_under_crash() {
    let config = GryffConfig {
        faults: regular_sim::FaultSchedule::new().crash(
            1,
            SimTime::from_secs(3),
            SimTime::from_secs(6),
        ),
        ..GryffConfig::wan(GryffMode::GryffRsc)
    };
    let clients = (0..3)
        .map(|region| GryffClientSpec {
            region,
            sessions: SessionConfig::partly_open(4.0, 0.9, SimDuration::ZERO),
            workload: Box::new(ConflictWorkload {
                rmw_ratio: 0.2,
                ..ConflictWorkload::ycsb(0.5, 0.2, region as u64)
            }) as Box<dyn SessionWorkload>,
        })
        .collect();
    let r = run_gryff_on(
        &live(40, false),
        GryffClusterSpec {
            config,
            net: LatencyMatrix::gryff_wan(),
            seed: 3,
            clients,
            stop_issuing_at: SimTime::from_secs(10),
            drain: SimDuration::from_secs(5),
            measure_from: SimTime::ZERO,
        },
    );
    let total: usize = r.completed.iter().map(|(_, v)| v.len()).sum();
    assert!(total > 50, "live gryff barely progressed: {} completions", total);
    assert!(r.net_stats.expired > 0, "crashed replica should have expired deliveries");
}

#[test]
fn fence_ops_flow_through_live_plane() {
    let mut spec = spanner_spec(11);
    for c in &mut spec.clients {
        c.workload = Box::new(WithFences(
            UniformWorkload { num_keys: 500, ro_fraction: 0.5, keys_per_txn: 2 },
            0.1,
        ));
    }
    let r = run_cluster_on(&live(50, true), spec);
    assert!(r.client_stats.fences > 0, "fence workload should issue fences");
}
