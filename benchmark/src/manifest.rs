//! The benchmark's contract: every workload and every metric, by name.
//!
//! This table is the single source of truth. `/BENCHMARK.json` is generated
//! from it (`benchmark manifest`), the runner may only emit metrics named
//! here, `check-repeat` takes its bounds from here, and `--smoke` asserts the
//! file on disk and the emitted metrics both match it.

use crate::workloads::{Workload, ALL};

/// Default `--seconds`: how long one run measures. The first set-up (one
/// discarded warm-up unit, 0.7–5.0 s) comes on top, so an untraced run ends
/// inside 32 s, a traced one inside 24 s (42 s on the live plane, whose two
/// twins run at the clock's pace), and the driver's 4 + 22 × 4 runs and two
/// builds take about 2 900 s of its 3 420 s cap.
pub const RUN_SECONDS: u64 = 30;

/// Which way a metric gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees. Measured with
/// `--trace 0`, on every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen before a change
    /// counts as a regression. One bound serves all four workloads.
    pub bound: f64,
    /// True for protocol-time metrics: on the `sim_*` workloads they are a
    /// pure function of the seed and two runs must agree exactly.
    pub sim_time: bool,
}

/// The end-to-end metrics.
///
/// `BENCHMARK.json` carries one bound per metric, and the driver holds every
/// workload's run-to-run spread to it (every run on another seed), so a bound
/// is set by the workload on which the metric is least steady, at about three
/// times the widest quartile spread seen over six sets of ten runs:
///
/// * The protocol-time metrics are exact for a seed on the `sim_*` workloads,
///   and `check-repeat` holds them to that; on `live_spanner_wan` they repeat
///   within 3 %. What spreads them is the seed: 4.0 % (`ro_p50_ms`), 5.4 %
///   (`ro_tail_ms`), 5.8 % (`rw_p50_ms`), 6.6 % (`rw_tail_ms`) and 2.9 %
///   (`ops_per_sim_s`) at the widest. 15 %, 20 %, 20 %, 20 %, 10 %.
/// * `peak_heap_mb` is exact for a seed on the `sim_*` workloads too and
///   spreads by up to 3.6 % across seeds (`sim_spanner_wan`). 10 %, not the
///   issue's 5 %.
/// * `setup_s` and `ops_per_wall_s` are the host's speed on the `sim_*`
///   workloads: the fastest of thirty identical units moves by 9 % between
///   back-to-back runs in a loud stretch and by 15 % between a loud and a
///   quiet one. 25 %, the most the contract allows.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("ro_p50_ms", "ms", Better::Lower, 0.15, true),
    e2e("ro_tail_ms", "ms", Better::Lower, 0.20, true),
    e2e("rw_p50_ms", "ms", Better::Lower, 0.20, true),
    e2e("rw_tail_ms", "ms", Better::Lower, 0.20, true),
    e2e("ops_per_sim_s", "1/s", Better::Higher, 0.10, true),
    e2e("ops_per_wall_s", "1/s", Better::Higher, 0.25, false),
    e2e("peak_heap_mb", "MB", Better::Lower, 0.10, false),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    sim_time: bool,
) -> EndToEnd {
    EndToEnd { name, unit, better, bound, sim_time }
}

/// A per-layer metric: measured by the traced run (`--trace 1`), no bound.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name, `<layer>.<component>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The end-to-end metric and workload it should move, written down
    /// before anything was measured.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer { name, unit, better, moves }
}

use Better::{Higher, Lower};

const SIM_WALL: &str = "ops_per_wall_s on sim_* (most on sim_spanner_dc_durable)";
const SESSION: &str = "ops_per_sim_s everywhere";
const RO_TAIL_WAN: &str = "ro_tail_ms on sim_spanner_wan";
const RW_TAIL: &str = "rw_tail_ms on sim_spanner_wan / sim_spanner_dc_durable";
const RO_TAIL_GRYFF: &str = "ro_tail_ms on sim_gryff_wan";
const STORAGE: &str = "rw_p50_ms and ops_per_wall_s on sim_spanner_dc_durable, nothing elsewhere";
const LIVE: &str = "the plane's 0.3 ms of ro_p50_ms on live_spanner_wan, nothing on sim_*";
const CERT: &str = "ops_per_wall_s (small share unless certification is on the critical path)";
const SETUP: &str = "setup_s on sim_spanner_wan";
const PAPER: &str = "context for ro_tail_ms (sim workloads; 0 on live_spanner_wan)";
const SELF: &str = "where the run's wall time went";

/// The per-layer metrics. A metric that does not apply to a workload (Gryff
/// counters on a Spanner workload, storage counters off the durable one,
/// strict-twin ratios on the live plane) reads 0 there.
pub const PER_LAYER: [Layer; 75] = [
    layer("sim.engine.msgs_per_op", "count", Lower, SIM_WALL),
    layer("sim.engine.events_per_wall_s", "1/s", Higher, SIM_WALL),
    layer("sim.engine.run_wall_frac", "ratio", Lower, SIM_WALL),
    layer("sim.queue.churn_ns_per_event", "ns", Lower, SIM_WALL),
    layer("sim.net.dropped_per_kop", "count", Lower, SIM_WALL),
    layer("sim.net.expired_per_kop", "count", Lower, SIM_WALL),
    layer("session.runner.ops_per_batch", "count", Higher, SESSION),
    layer("session.scheduler.arrivals_per_sim_s", "1/s", Higher, SESSION),
    layer("session.scheduler.shed_frac", "ratio", Lower, SESSION),
    layer("spanner.shard.ro_blocked_frac", "ratio", Lower, RO_TAIL_WAN),
    layer("spanner.shard.ro_skipped_prepared_per_ro", "count", Higher, RO_TAIL_WAN),
    layer("spanner.client.ro_slow_wait_frac", "ratio", Lower, RO_TAIL_WAN),
    layer("spanner.shard.abort_frac", "ratio", Lower, RW_TAIL),
    layer("spanner.shard.prepares_per_rw", "count", Lower, RW_TAIL),
    layer("spanner.client.retry_frac", "ratio", Lower, RW_TAIL),
    layer(
        "spanner.locks.acquire_release_ns",
        "ns",
        Lower,
        "ops_per_wall_s on sim_spanner_dc_durable",
    ),
    layer("gryff.client.slow_read_frac", "ratio", Lower, RO_TAIL_GRYFF),
    layer("gryff.client.deps_piggybacked_per_op", "count", Lower, RO_TAIL_GRYFF),
    layer("gryff.replica.deps_applied_per_op", "count", Lower, RO_TAIL_GRYFF),
    layer("gryff.client.retry_frac", "ratio", Lower, "rw_tail_ms on sim_gryff_wan"),
    layer("storage.wal.records_per_op", "count", Lower, STORAGE),
    layer("storage.wal.bytes_per_op", "B", Lower, STORAGE),
    layer("storage.wal.records_per_sync", "count", Higher, STORAGE),
    layer("storage.wal.syncs_per_op", "count", Lower, STORAGE),
    layer("storage.wal.checkpoints_per_kop", "count", Lower, STORAGE),
    layer("storage.wal.replayed_per_recovery", "count", Lower, STORAGE),
    layer("storage.wal.wall_cost_ratio", "ratio", Lower, STORAGE),
    layer("storage.wal.append_ns_per_record.mem", "ns", Lower, STORAGE),
    layer("storage.wal.append_ns_per_record.dir", "ns", Lower, STORAGE),
    layer("storage.wal.sync_us.dir", "us", Lower, STORAGE),
    layer("storage.wal.recover_ms_per_10k", "ms", Lower, STORAGE),
    layer("storage.pool.checkpoint_us_per_kb", "us", Lower, STORAGE),
    layer("storage.codec.enc_ns_per_record", "ns", Lower, STORAGE),
    layer("storage.codec.dec_ns_per_record", "ns", Lower, STORAGE),
    layer("live.net.frames_per_op", "count", Lower, LIVE),
    layer("live.net.bytes_per_op", "B", Lower, LIVE),
    layer("live.transport.uds_vs_mpsc_ops_ratio", "ratio", Higher, LIVE),
    layer("live.exec.plane_overhead_p50_ms", "ms", Lower, LIVE),
    layer("live.exec.plane_overhead_p99_ms", "ms", Lower, LIVE),
    layer("live.exec.cpu_s_per_kop", "s", Lower, LIVE),
    layer("live.wire.encode_ns_per_frame.spanner", "ns", Lower, LIVE),
    layer("live.wire.decode_ns_per_frame.spanner", "ns", Lower, LIVE),
    layer("live.wire.bytes_per_frame.spanner", "B", Lower, LIVE),
    layer("live.wire.encode_ns_per_frame.gryff", "ns", Lower, LIVE),
    layer("live.wire.decode_ns_per_frame.gryff", "ns", Lower, LIVE),
    layer("live.wire.bytes_per_frame.gryff", "B", Lower, LIVE),
    layer("core.history.build_ns_per_op", "ns", Lower, CERT),
    layer("sweep.stream.certify_ops_per_s", "1/s", Higher, CERT),
    layer("sweep.stream.certify_wall_frac", "ratio", Lower, CERT),
    layer(
        "sweep.stream.peak_window",
        "count",
        Lower,
        "peak_heap_mb (bounded-memory certification)",
    ),
    layer("workloads.zipf.build_ms", "ms", Lower, SETUP),
    layer("workloads.retwis.gen_ns_per_txn", "ns", Lower, SETUP),
    layer("paper.strict_ro_tail_ms", "ms", Lower, PAPER),
    layer("paper.ro_tail_vs_strict", "ratio", Lower, PAPER),
    layer("paper.ro_p99_vs_strict", "ratio", Lower, PAPER),
    layer("paper.ro_p999_vs_strict", "ratio", Lower, PAPER),
    layer("benchmark.trace_overhead_frac", "ratio", Lower, "traced vs untraced unit wall"),
    layer("benchmark.unit_wall_iqr_frac", "ratio", Lower, "how disturbed the host was"),
    layer("benchmark.peak_rss_mb", "MB", Lower, "peak_heap_mb, seen from the kernel"),
    layer(
        "benchmark.part_seeds_passed_over",
        "count",
        Lower,
        "nothing: inputs on which the program's history is not RSS (sim_spanner_wan)",
    ),
    layer("self_s.setup", "s", Lower, SELF),
    layer("self_s.unit", "s", Lower, SELF),
    layer("self_s.run", "s", Lower, SELF),
    layer("self_s.history.build", "s", Lower, SELF),
    layer("self_s.certify.stream", "s", Lower, SELF),
    layer("self_s.check.replay", "s", Lower, SELF),
    layer("self_s.twin.strict", "s", Lower, SELF),
    layer("self_s.twin.in_memory", "s", Lower, SELF),
    layer("self_s.twin.mpsc", "s", Lower, SELF),
    layer("self_s.twin.sim", "s", Lower, SELF),
    layer("self_s.probe.sim", "s", Lower, SELF),
    layer("self_s.probe.spanner", "s", Lower, SELF),
    layer("self_s.probe.storage", "s", Lower, SELF),
    layer("self_s.probe.live", "s", Lower, SELF),
    layer("self_s.probe.workloads", "s", Lower, SELF),
];

/// Why each workload exists, one line each (the `why` of `BENCHMARK.json`).
pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::SimSpannerWan => {
            "Fig. 5 Spanner-RSS on the CA/VA/IR WAN, Retwis Zipf 0.9: the RSS read-only \
             mechanism does the work; storage, wire and live do none"
        }
        Workload::SimGryffWan => {
            "Fig. 7 Gryff-RSC on the 5-region WAN, YCSB 50% writes 10% conflicts: same sim and \
             session layers, the RSC mechanism owns the read tail; Spanner-only changes show nothing"
        }
        Workload::SimSpannerDcDurable => {
            "Single-DC write-heavy Spanner-RSS on a WAL with two shard crashes: storage and the \
             sim engine do the work; the RSS mechanism is bypassed"
        }
        Workload::LiveSpannerWan => {
            "The Fig. 5 WAN deployment on real threads at time-scale 1 over UDS, certified as it \
             runs: exec, router hub, net and the wire codec carry every message; a sim-only \
             speedup shows nothing"
        }
    }
}

/// The contents of `/BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--bin\", \"benchmark\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in ALL.into_iter().enumerate() {
        let comma = if i + 1 == ALL.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name(),
            why(w)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.name(),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.name()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
