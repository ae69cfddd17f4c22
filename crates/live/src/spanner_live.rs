//! `run_cluster_live`: an argument-forwarding shim, kept for one caller.
//!
//! The repo benchmark (`benchmark/src/workloads.rs`) constructs
//! [`SpannerLiveSpec`] literally and calls [`run_cluster_live`], and the PR
//! that made the plane an argument may not touch `benchmark/`. Everything
//! else calls `regular_spanner::run_cluster_on(&LivePlane { .. }, spec)`
//! directly; a later `benchmark` PR should do the same and delete this file.
//! No node graph is assembled and no result is folded here.

use regular_sim::{LatencyMatrix, SimDuration, SimTime};
use regular_spanner::prelude::{run_cluster_on, ClientSpec, ClusterSpec, RunResult, SpannerConfig};

use crate::exec::LivePlane;
use crate::transport::TransportKind;

/// A [`ClusterSpec`] and a [`LivePlane`] flattened into one struct.
pub struct SpannerLiveSpec {
    /// See [`ClusterSpec::config`].
    pub config: SpannerConfig,
    /// See [`ClusterSpec::net`].
    pub net: LatencyMatrix,
    /// See [`ClusterSpec::seed`].
    pub seed: u64,
    /// See [`ClusterSpec::clients`].
    pub clients: Vec<ClientSpec>,
    /// See [`ClusterSpec::stop_issuing_at`].
    pub stop_issuing_at: SimTime,
    /// See [`ClusterSpec::drain`].
    pub drain: SimDuration,
    /// See [`ClusterSpec::measure_from`].
    pub measure_from: SimTime,
    /// See [`LivePlane::time_scale`].
    pub time_scale: u64,
    /// See [`LivePlane::record_deliveries`].
    pub record_deliveries: bool,
    /// See [`LivePlane::transport`].
    pub transport: TransportKind,
}

/// `run_cluster_on(&LivePlane { .. }, ClusterSpec { .. })`.
pub fn run_cluster_live(spec: SpannerLiveSpec) -> RunResult {
    let SpannerLiveSpec {
        config,
        net,
        seed,
        clients,
        stop_issuing_at,
        drain,
        measure_from,
        time_scale,
        record_deliveries,
        transport,
    } = spec;
    run_cluster_on(
        &LivePlane { time_scale, record_deliveries, transport },
        ClusterSpec { config, net, seed, clients, stop_issuing_at, drain, measure_from },
    )
}
