//! The live-plane benches: wall-clock throughput and latency of the protocol
//! crates on real OS threads, each recorded history certified after its run.
//!
//! `live` runs two deployments on the `regular-live` plane — the 3-shard
//! Spanner-RSS cluster with 8 client nodes (12 OS threads including the
//! router), driven long enough to complete well over 30k operations, and the
//! five-region Gryff-RSC deployment — and streaming-certifies both.
//!
//! `net` answers three questions about the socket transports (see
//! `OPERATIONS.md` for the operator's view): *serialization cost* — the same
//! seeded Spanner-RSS run over mpsc, Unix-domain sockets and TCP loopback,
//! with wire-frame counters; the *saturation knee* (`--open-loop`) — an
//! open-loop Poisson arrival ladder, the knee being the first rate whose
//! achieved throughput falls below 85% of the offered load; and
//! *multi-process* (`--processes N`) — the cluster split across N worker OS
//! processes plus the hub over a Unix-domain socket, the workers being
//! re-executions of this binary (`net-worker`).
//!
//! Latency percentiles are *simulated* milliseconds (comparable across time
//! scales and to the simulator's numbers); throughput is reported per
//! simulated and per wall-clock second. Wall-clock numbers depend on the
//! host, so the only gated column is `certified`.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode};
use std::time::Duration;

use regular_core::checker::certificate::WitnessModel;
use regular_core::{History, OpId};
use regular_gryff::prelude as gryff;
use regular_live::{
    run_hub_multiproc, run_worker_multiproc, ListenAddr, Listener, LivePlane, TransportKind,
};
use regular_session::{per_wall_second, untagged};
use regular_sim::{LatencyRecorder, WireStats};
use regular_spanner::prelude as spanner;
use regular_sweep::{certify_streaming, Json};

use crate::cli::Args;
use crate::report::{emit, ms, round2, Cell, Report, Rule};
use crate::runs::{live_gryff_spec, live_spanner_spec, Drive, LIVE_DRIVE, LIVE_SPANNER_CLIENTS};

/// In-flight cap per client of the open-loop ladder.
const OPEN_LOOP_CAP: usize = 16;

/// Simulated seconds of the `net` runs: full, `--quick`.
fn net_secs(quick: bool) -> u64 {
    if quick {
        20
    } else {
        90
    }
}

/// One live run, measured and certified.
struct LiveRun {
    /// Node threads plus the router (the main thread only collects); worker
    /// processes plus the hub for a multi-process run.
    threads: usize,
    history_ops: usize,
    /// The streaming checker's peak window, or why the run is not certified.
    verdict: Result<usize, String>,
    sim_ops_per_sec: f64,
    wall_ops_per_sec: f64,
    wall: Duration,
    /// Every measured latency, all operation kinds merged.
    latency: LatencyRecorder,
    wire: WireStats,
    /// Session arrivals and how many were shed (open-loop drives).
    arrivals: (u64, u64),
}

/// Streaming-certifies `history` against `witness` under the Regular model.
fn certify(history: &History, witness: Result<Vec<OpId>, String>) -> Result<usize, String> {
    certify_streaming(history, &witness?, WitnessModel::Regular)
        .map(|stats| stats.peak_window)
        .map_err(|violation| format!("violation (streaming): {violation:?}"))
}

impl LiveRun {
    fn spanner(plane: &LivePlane, spec: spanner::ClusterSpec) -> LiveRun {
        let threads = spec.config.num_shards + spec.clients.len() + 1;
        let run = spanner::run_cluster_on(plane, spec);
        let (history, witness) = spanner::build_history_from(&run.completed);
        let mut latency = run.rw_latencies;
        latency.merge(&run.ro_latencies);
        LiveRun {
            threads,
            history_ops: history.len(),
            verdict: certify(&history, Ok(witness)),
            sim_ops_per_sec: run.throughput,
            wall_ops_per_sec: run.wall_throughput,
            wall: run.wall,
            latency,
            wire: run.wire,
            arrivals: (run.session_stats.arrivals, run.session_stats.shed),
        }
    }

    fn gryff(plane: &LivePlane, spec: gryff::GryffClusterSpec) -> LiveRun {
        let threads = spec.config.num_replicas + spec.clients.len() + 1;
        let run = gryff::run_gryff_on(plane, spec);
        let (history, witness) = gryff::history_and_witness(&run.completed, WitnessModel::Regular);
        let mut latency = run.read_latencies;
        latency.merge(&run.write_latencies);
        latency.merge(&run.rmw_latencies);
        LiveRun {
            threads,
            history_ops: history.len(),
            verdict: certify(&history, witness),
            sim_ops_per_sec: run.throughput,
            wall_ops_per_sec: run.wall_throughput,
            wall: run.wall,
            latency,
            wire: run.wire,
            arrivals: (run.session_stats.arrivals, run.session_stats.shed),
        }
    }

    /// A run of `threads` that never produced a history.
    fn failed(threads: usize, why: String) -> LiveRun {
        LiveRun {
            threads,
            history_ops: 0,
            verdict: Err(why),
            sim_ops_per_sec: 0.0,
            wall_ops_per_sec: 0.0,
            wall: Duration::ZERO,
            latency: LatencyRecorder::new(),
            wire: WireStats::default(),
            arrivals: (0, 0),
        }
    }

    /// The row of this run.
    fn cells(mut self, transport: &str) -> Vec<Cell> {
        use Rule::Info;
        vec![
            ("transport", Info, Json::str(transport)),
            ("threads", Info, Json::u64(self.threads as u64)),
            ("history_ops", Info, Json::u64(self.history_ops as u64)),
            ("sim_ops_per_sec", Info, Json::f64(round2(self.sim_ops_per_sec))),
            ("wall_ops_per_sec", Info, Json::f64(round2(self.wall_ops_per_sec))),
            ("wall_ms", Info, Json::f64(round2(self.wall.as_secs_f64() * 1_000.0))),
            ("latency_p50_ms", Info, ms(self.latency.percentile(50.0))),
            ("latency_p99_ms", Info, ms(self.latency.percentile(99.0))),
            ("peak_window", Info, Json::u64(*self.verdict.as_ref().unwrap_or(&0) as u64)),
            ("frames_tx", Info, Json::u64(self.wire.frames_tx)),
            ("bytes_tx", Info, Json::u64(self.wire.bytes_tx)),
            ("frames_rx", Info, Json::u64(self.wire.frames_rx)),
            ("bytes_rx", Info, Json::u64(self.wire.bytes_rx)),
            ("arrivals", Info, Json::u64(self.arrivals.0)),
            ("shed", Info, Json::u64(self.arrivals.1)),
            ("certified", Rule::True, Json::Bool(self.verdict.is_ok())),
            ("violation", Info, self.verdict.err().map_or(Json::Null, Json::str)),
        ]
    }
}

/// `--quick`, `--seed`, `--scale`: what `live` and `net` share, and the
/// report of `kind` that records them.
fn common(args: &mut Args, kind: &str) -> Result<(bool, u64, u64, Report), String> {
    let quick = args.flag("--quick");
    let seed = args.value("--seed")?.unwrap_or(1);
    let scale = args.value("--scale")?.unwrap_or(60);
    let params = vec![
        ("seed", Json::u64(seed)),
        ("time_scale", Json::u64(scale)),
        ("quick", Json::Bool(quick)),
    ];
    Ok((quick, seed, scale, Report::new(kind, params)))
}

/// The `live` subcommand. `--scale` is simulated microseconds per wall
/// microsecond; `--quick` shrinks the runs for smoke jobs (a few seconds in
/// total, no 30k-op guarantee).
pub fn live(mut args: Args) -> Result<ExitCode, String> {
    let (quick, seed, scale, mut report) = common(&mut args, "live")?;
    let transport = args.value::<String>("--transport")?;
    let transport = transport.map_or(Ok(TransportKind::Mpsc), |name| {
        TransportKind::parse(&name).ok_or(format!("bad --transport '{name}' (mpsc, uds or tcp)"))
    })?;
    let out = args.out()?;
    args.finish()?;
    let (spanner_secs, gryff_secs) = if quick { (25, 25) } else { (240, 120) };
    let plane = LivePlane { time_scale: scale, record_deliveries: false, transport };
    let run = LiveRun::spanner(&plane, live_spanner_spec(seed, spanner_secs, LIVE_DRIVE));
    report.push("live-spanner-rss", run.cells(transport.name()));
    let run = LiveRun::gryff(&plane, live_gryff_spec(seed, gryff_secs));
    report.push("live-gryff-rsc", run.cells(transport.name()));
    emit(&report, out.as_deref())
}

/// The `net` subcommand.
pub fn net(mut args: Args) -> Result<ExitCode, String> {
    use Rule::Info;
    let (quick, seed, scale, mut report) = common(&mut args, "net")?;
    let open_loop = args.flag("--open-loop");
    let processes = args.value("--processes")?.unwrap_or(0usize);
    let out = args.out()?;
    args.finish()?;
    let stop_secs = net_secs(quick);
    let plane = |transport| LivePlane { time_scale: scale, record_deliveries: false, transport };

    // Serialization cost: the same seeded run over every transport.
    for transport in [TransportKind::Mpsc, TransportKind::Uds, TransportKind::Tcp] {
        let spec = live_spanner_spec(seed, stop_secs, LIVE_DRIVE);
        let run = LiveRun::spanner(&plane(transport), spec);
        report.push(format!("live-spanner-rss/{}", transport.name()), run.cells(transport.name()));
    }

    // Saturation knee: open-loop Poisson arrivals over mpsc, a rate ladder
    // per client that starts well below the cluster's capacity so the flat
    // region shows before the knee (the WAN deployment saturates around a
    // few hundred sim-ops/s; see BENCHMARKS.md).
    if open_loop {
        let rates: &[f64] =
            if quick { &[25.0, 100.0] } else { &[10.0, 25.0, 50.0, 100.0, 200.0, 400.0] };
        let mut knee = None;
        for &rate in rates {
            let drive = Drive::Open { rate_per_client: rate, max_in_flight: OPEN_LOOP_CAP };
            let spec = live_spanner_spec(seed, if quick { 15 } else { 40 }, drive);
            let run = LiveRun::spanner(&plane(TransportKind::Mpsc), spec);
            let offered = rate * LIVE_SPANNER_CLIENTS as f64;
            if run.sim_ops_per_sec < 0.85 * offered {
                knee.get_or_insert(rate);
            }
            let mut cells = run.cells("mpsc");
            cells.push(("rate_per_client", Info, Json::f64(rate)));
            cells.push(("offered_ops_per_sec", Info, Json::f64(offered)));
            report.push(format!("open-loop/rate={rate}"), cells);
        }
        report.param("max_in_flight_per_client", Json::u64(OPEN_LOOP_CAP as u64));
        report.param("knee_rate_per_client", knee.map_or(Json::Null, Json::f64));
    }

    // Multi-process: split the cluster across worker processes over UDS.
    if processes > 0 {
        let run = multiproc(seed, scale, quick, processes)
            .unwrap_or_else(|why| LiveRun::failed(processes + 1, why));
        report.push("multiproc", run.cells("uds"));
    }
    emit(&report, out.as_deref())
}

/// Owns the worker processes and the hub's socket path of a multi-process
/// run. Dropping it kills and reaps every worker still running and removes
/// the socket, so no exit path — a hub error, a worker's failure, a panic —
/// leaves a process or a file behind.
pub struct Workers {
    children: Vec<Child>,
    socket: PathBuf,
}

impl Workers {
    /// Spawns `count` `net-worker` re-executions of `exe` that dial `addr`;
    /// `socket` is the file to remove once they are gone.
    pub fn spawn(
        exe: &Path,
        socket: PathBuf,
        addr: &ListenAddr,
        count: usize,
        seed: u64,
        quick: bool,
    ) -> io::Result<Workers> {
        let mut workers = Workers { children: Vec::with_capacity(count), socket };
        for index in 0..count {
            let mut worker = Command::new(exe);
            worker.arg("net-worker").args(["--worker-addr", &addr.to_string()]);
            worker.args(["--worker-index", &index.to_string()]);
            worker.args(["--worker-count", &count.to_string()]);
            worker.args(["--seed", &seed.to_string()]).args(quick.then_some("--quick"));
            workers.children.push(worker.spawn()?);
        }
        Ok(workers)
    }

    /// Process ids of the workers.
    pub fn ids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }

    /// Waits for every worker to exit; `Err` if one did not exit cleanly.
    pub fn wait(&mut self) -> Result<(), String> {
        for (index, child) in self.children.iter_mut().enumerate() {
            let status = child.wait().map_err(|e| format!("waiting for worker {index}: {e}"))?;
            if !status.success() {
                return Err(format!("worker {index} exited with {status}"));
            }
        }
        Ok(())
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        for child in &mut self.children {
            // Both fail harmlessly on a worker that already exited.
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Runs the standard Spanner deployment split across `workers` worker
/// processes plus the hub (this process), over a Unix-domain socket. The
/// deployment is the standard row's, so the numbers are directly comparable
/// to the single-process transports. `Err` says what went wrong before a
/// history existed; the workers and the socket are gone either way.
fn multiproc(seed: u64, scale: u64, quick: bool, workers: usize) -> Result<LiveRun, String> {
    let spec = live_spanner_spec(seed, net_secs(quick), LIVE_DRIVE);
    let shard_count = spec.config.num_shards;
    let (measure_from, stop_issuing_at) = (spec.measure_from, spec.stop_issuing_at);

    let socket = std::env::temp_dir().join(format!("regular_bench_{}.sock", std::process::id()));
    let addr = ListenAddr::Uds(socket.clone());
    let listener = Listener::bind(&addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut guard = Workers::spawn(&exe, socket, &addr, workers, seed, quick)
        .map_err(|e| format!("spawning a worker: {e}"))?;

    // The hub hosts no nodes; it routes for the same deployment the workers
    // build.
    let plane =
        LivePlane { time_scale: scale, record_deliveries: false, transport: TransportKind::Uds };
    let deployment = spanner::build(spec);
    let outcome =
        run_hub_multiproc::<spanner::SpannerMsg, _>(&plane, deployment, listener, workers)
            .map_err(|e| format!("the hub failed: {e}"))?;
    guard.wait()?;
    drop(guard);

    // No nodes come back to a hub: the records-only half of collection.
    let per_client: Vec<_> = outcome
        .completed
        .into_iter()
        .enumerate()
        .skip(shard_count)
        .map(|(id, stream)| (id, untagged(stream)))
        .collect();
    let (history, witness) = spanner::build_history_from(&per_client);
    let measured = spanner::measure(&per_client, measure_from, stop_issuing_at);
    let mut latency = measured.rw_latencies;
    latency.merge(&measured.ro_latencies);
    Ok(LiveRun {
        threads: workers + 1,
        history_ops: history.len(),
        verdict: certify(&history, Ok(witness)),
        sim_ops_per_sec: measured.throughput,
        wall_ops_per_sec: per_wall_second(measured.measured, outcome.wall),
        wall: outcome.wall,
        latency,
        wire: outcome.wire,
        arrivals: (0, 0),
    })
}

/// The hidden `net-worker` subcommand: build the shared deployment and host
/// one partition of it. Spawned by [`Workers::spawn`], not by people.
pub fn worker(mut args: Args) -> Result<ExitCode, String> {
    let addr = args.value::<String>("--worker-addr")?.ok_or("missing --worker-addr")?;
    let addr = ListenAddr::parse(&addr).ok_or(format!("bad --worker-addr '{addr}'"))?;
    let index = args.value("--worker-index")?.unwrap_or(0usize);
    let count = args.value("--worker-count")?.unwrap_or(1usize);
    let (quick, seed) = (args.flag("--quick"), args.value("--seed")?.unwrap_or(1));
    args.finish()?;
    let deployment = spanner::build(live_spanner_spec(seed, net_secs(quick), LIVE_DRIVE));
    match run_worker_multiproc::<spanner::SpannerMsg, _>(&addr, index, count, deployment) {
        Ok(()) => Ok(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("worker {index}/{count} failed: {e}");
            Ok(ExitCode::FAILURE)
        }
    }
}
