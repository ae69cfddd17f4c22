//! Live-plane benchmark: wall-clock throughput and latency percentiles of
//! the protocol crates running on real OS threads, certified online.
//!
//! Two deployments run on the `regular-live` execution plane:
//!
//! * `live-spanner-rss`: a 3-shard Spanner-RSS cluster with 8 client nodes
//!   (12 OS threads including the router) driven long enough to complete
//!   well over 30k operations, streaming-certified RSS — the acceptance
//!   configuration of the live plane.
//! * `live-gryff-rsc`: the five-region Gryff-RSC deployment,
//!   streaming-certified RSC.
//!
//! Latency percentiles are reported in *simulated* milliseconds (they are
//! comparable across time scales and to the simulator's numbers); throughput
//! is reported both per simulated second and per wall-clock second. The
//! report is written to `BENCH_live.json`
//! (schema `regular-seq/live-bench/v1`); `bench_gate --live` compares it
//! warn-only against `ci/live_reference.json` — wall-clock numbers are
//! host-dependent — and fails only when a run stops certifying.
//!
//! # Network mode
//!
//! `--net` switches to the transport report (`BENCH_net.json`, schema
//! `regular-seq/live-net/v1`), which answers three questions about the
//! socket transports (see `OPERATIONS.md` for the operator's view):
//!
//! * **Serialization cost** — the same seeded Spanner-RSS run over mpsc,
//!   Unix-domain sockets, and TCP loopback, with wire-frame counters.
//! * **Saturation knee** (`--open-loop`) — an open-loop Poisson arrival
//!   ladder; the knee is the first arrival rate whose achieved throughput
//!   falls below 85% of the offered load.
//! * **Multi-process** (`--processes N`) — the cluster split across N
//!   worker OS processes plus the hub, over a Unix-domain socket, still
//!   streaming-certified online. Workers are re-executions of this binary
//!   (hidden `--worker-*` flags).
//!
//! Usage:
//!
//! ```text
//! live_bench [--out PATH] [--seed S] [--scale N] [--quick]
//!            [--transport mpsc|uds|tcp]
//!            [--net [--open-loop] [--processes N]]
//! ```
//!
//! `--scale` sets simulated microseconds per wall microsecond (default 60).
//! `--quick` shrinks the runs for smoke jobs (a few seconds total, no 30k-op
//! guarantee). `--transport` selects the wire for the standard entries (and
//! the open-loop ladder in `--net` mode).

use std::path::PathBuf;
use std::process::ExitCode;

use regular_core::checker::certificate::WitnessModel;
use regular_gryff::prelude as gryff;
use regular_live::{
    run_hub_multiproc, run_worker_multiproc, ListenAddr, Listener, LivePlane, TransportKind,
};
use regular_session::{per_wall_second, untagged, SessionConfig, SessionWorkload};
use regular_sim::{LatencyMatrix, LatencyRecorder, SimDuration, SimTime, WireStats};
use regular_spanner::prelude as spanner;
use regular_sweep::{certify_streaming, Json};

struct LiveEntry {
    name: &'static str,
    transport: TransportKind,
    threads: usize,
    history_ops: usize,
    certified: bool,
    violation: Option<String>,
    sim_ops_per_sec: f64,
    wall_ops_per_sec: f64,
    wall_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    peak_window: usize,
    wire: WireStats,
    arrivals: u64,
    shed: u64,
}

fn ms(d: Option<SimDuration>) -> f64 {
    d.map(|d| d.as_micros() as f64 / 1_000.0).unwrap_or(0.0)
}

/// How the bench drives the Spanner clients: the fixed closed-loop fleet of
/// the standard entries, or open-loop Poisson arrivals for the knee sweep.
#[derive(Clone, Copy)]
enum Drive {
    Closed { sessions_per_client: usize },
    Open { rate_per_client: f64, max_in_flight: usize },
}

const SPANNER_CLIENTS: usize = 8;

/// The closed-loop drive shared by the standard spanner entry and the
/// multi-process run (hub and workers must agree on it byte for byte).
const BENCH_DRIVE: Drive = Drive::Closed { sessions_per_client: 4 };

const OPEN_LOOP_CAP: usize = 16;

/// The bench's Spanner-RSS WAN deployment, deterministic in
/// `(seed, stop_secs, drive)`: the single-process entries, the multi-process
/// hub and every worker build their deployment from this one spec, so node
/// ids, the hard stop, ε and the fault schedule line up across processes.
fn spanner_spec(seed: u64, stop_secs: u64, drive: Drive) -> spanner::ClusterSpec {
    let clients = (0..SPANNER_CLIENTS)
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

fn spanner_entry(
    name: &'static str,
    seed: u64,
    scale: u64,
    stop_secs: u64,
    transport: TransportKind,
    drive: Drive,
) -> LiveEntry {
    let spec = spanner_spec(seed, stop_secs, drive);
    let num_shards = spec.config.num_shards;
    let plane = LivePlane { time_scale: scale, record_deliveries: false, transport };
    let result = spanner::run_cluster_on(&plane, spec);
    let (history, witness) = spanner::build_history_from(&result.completed);
    let (certified, violation, peak_window) =
        match certify_streaming(&history, &witness, WitnessModel::Regular) {
            Ok(stats) => (true, None, stats.peak_window),
            Err(v) => (false, Some(format!("RSS violation (streaming): {v:?}")), 0),
        };
    let mut all = LatencyRecorder::new();
    all.merge(&result.rw_latencies);
    all.merge(&result.ro_latencies);
    LiveEntry {
        name,
        transport,
        // Node threads plus the router (the main thread only collects).
        threads: num_shards + SPANNER_CLIENTS + 1,
        history_ops: history.len(),
        certified,
        violation,
        sim_ops_per_sec: result.throughput,
        wall_ops_per_sec: result.wall_throughput,
        wall_ms: result.wall.as_secs_f64() * 1_000.0,
        p50_ms: ms(all.percentile(50.0)),
        p99_ms: ms(all.percentile(99.0)),
        peak_window,
        wire: result.wire,
        arrivals: result.session_stats.arrivals,
        shed: result.session_stats.shed,
    }
}

fn gryff_entry(seed: u64, scale: u64, stop_secs: u64, transport: TransportKind) -> LiveEntry {
    let num_clients = 5;
    let clients = (0..num_clients)
        .map(|i| gryff::GryffClientSpec {
            region: i % 5,
            sessions: SessionConfig::closed_loop(3, SimDuration::ZERO)
                .with_workload_seed(seed.wrapping_mul(999_983).wrapping_add(i as u64)),
            workload: Box::new(gryff::ConflictWorkload::ycsb(
                0.5,
                0.25,
                seed.wrapping_add(i as u64),
            )) as Box<dyn SessionWorkload>,
        })
        .collect();
    let config = gryff::GryffConfig::wan(gryff::Mode::GryffRsc);
    let num_replicas = config.num_replicas;
    let plane = LivePlane { time_scale: scale, record_deliveries: false, transport };
    let result = gryff::run_gryff_on(
        &plane,
        gryff::GryffClusterSpec {
            config,
            net: LatencyMatrix::gryff_wan(),
            seed,
            clients,
            stop_issuing_at: SimTime::from_secs(stop_secs),
            drain: SimDuration::from_secs(8),
            measure_from: SimTime::from_secs(1),
        },
    );
    let (history, witness) = gryff::history_and_witness(&result.completed, WitnessModel::Regular);
    let (certified, violation, peak_window) = match witness {
        Ok(witness) => match certify_streaming(&history, &witness, WitnessModel::Regular) {
            Ok(stats) => (true, None, stats.peak_window),
            Err(v) => (false, Some(format!("RSC violation (streaming): {v:?}")), 0),
        },
        Err(reason) => (false, Some(reason), 0),
    };
    let mut all = LatencyRecorder::new();
    all.merge(&result.read_latencies);
    all.merge(&result.write_latencies);
    all.merge(&result.rmw_latencies);
    LiveEntry {
        name: "live-gryff-rsc",
        transport,
        threads: num_replicas + num_clients + 1,
        history_ops: history.len(),
        certified,
        violation,
        sim_ops_per_sec: result.throughput,
        wall_ops_per_sec: result.wall_throughput,
        wall_ms: result.wall.as_secs_f64() * 1_000.0,
        p50_ms: ms(all.percentile(50.0)),
        p99_ms: ms(all.percentile(99.0)),
        peak_window,
        wire: result.wire,
        arrivals: result.session_stats.arrivals,
        shed: result.session_stats.shed,
    }
}

// ----- open-loop ladder and multi-process mode -----

/// One rung of the open-loop arrival ladder.
struct LadderRung {
    rate_per_client: f64,
    offered_ops_per_sec: f64,
    achieved_ops_per_sec: f64,
    arrivals: u64,
    shed: u64,
    certified: bool,
    p50_ms: f64,
    p99_ms: f64,
}

/// Outcome of the multi-process section.
struct MultiprocEntry {
    processes: usize,
    history_ops: usize,
    certified: bool,
    violation: Option<String>,
    sim_ops_per_sec: f64,
    wall_ops_per_sec: f64,
    wall_ms: f64,
    wire: WireStats,
}

/// Runs the standard spanner deployment split across `workers` worker
/// processes plus the hub (this process), over a Unix-domain socket. The
/// deployment is the standard entry's, so the numbers are directly
/// comparable to the single-process transports.
fn multiproc_entry(seed: u64, scale: u64, stop_secs: u64, workers: usize) -> MultiprocEntry {
    let spec = spanner_spec(seed, stop_secs, BENCH_DRIVE);
    let shard_count = spec.config.num_shards;
    let (measure_from, stop_issuing_at) = (spec.measure_from, spec.stop_issuing_at);

    let sock = std::env::temp_dir().join(format!("live_bench_{}.sock", std::process::id()));
    let addr = ListenAddr::Uds(sock.clone());
    let listener = Listener::bind(&addr).expect("bind multiproc socket");

    let exe = std::env::current_exe().expect("locate own executable");
    let mut children = Vec::with_capacity(workers);
    for w in 0..workers {
        let child = std::process::Command::new(&exe)
            .arg("--worker-addr")
            .arg(addr.to_string())
            .arg("--worker-index")
            .arg(w.to_string())
            .arg("--worker-count")
            .arg(workers.to_string())
            .arg("--seed")
            .arg(seed.to_string())
            .arg("--worker-stop-secs")
            .arg(stop_secs.to_string())
            .spawn()
            .expect("spawn worker process");
        children.push(child);
    }

    // The hub hosts no nodes; it routes for the same deployment the workers
    // build.
    let plane =
        LivePlane { time_scale: scale, record_deliveries: false, transport: TransportKind::Uds };
    let outcome = run_hub_multiproc::<spanner::SpannerMsg, _>(
        &plane,
        spanner::build(spec),
        listener,
        workers,
    )
    .expect("multiproc hub failed");
    for mut child in children {
        let status = child.wait().expect("wait for worker");
        assert!(status.success(), "worker process exited with {status}");
    }
    let _ = std::fs::remove_file(&sock);

    // No nodes come back to a hub: the records-only half of collection.
    let per_client: Vec<_> = outcome
        .completed
        .into_iter()
        .enumerate()
        .skip(shard_count)
        .map(|(id, stream)| (id, untagged(stream)))
        .collect();
    let (history, witness) = spanner::build_history_from(&per_client);
    let (certified, violation) = match certify_streaming(&history, &witness, WitnessModel::Regular)
    {
        Ok(_) => (true, None),
        Err(v) => (false, Some(format!("RSS violation (streaming): {v:?}"))),
    };
    let measured = spanner::measure(&per_client, measure_from, stop_issuing_at);
    MultiprocEntry {
        processes: workers + 1,
        history_ops: history.len(),
        certified,
        violation,
        sim_ops_per_sec: measured.throughput,
        wall_ops_per_sec: per_wall_second(measured.measured, outcome.wall),
        wall_ms: outcome.wall.as_secs_f64() * 1_000.0,
        wire: outcome.wire,
    }
}

/// Hidden worker mode: build the shared deployment and host one partition.
/// Spawned by `multiproc_entry` (and CI's socket-smoke job) — not part of
/// the public CLI surface.
fn run_worker(addr: &str, index: usize, count: usize, seed: u64, stop_secs: u64) -> ExitCode {
    let addr = match ListenAddr::parse(addr) {
        Some(a) => a,
        None => {
            eprintln!("bad --worker-addr '{addr}'");
            return ExitCode::from(2);
        }
    };
    let deployment = spanner::build(spanner_spec(seed, stop_secs, BENCH_DRIVE));
    match run_worker_multiproc::<spanner::SpannerMsg, _>(&addr, index, count, deployment) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("worker {index}/{count} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

fn wire_fields(w: &WireStats) -> Vec<(&'static str, Json)> {
    vec![
        ("frames_tx", Json::u64(w.frames_tx)),
        ("bytes_tx", Json::u64(w.bytes_tx)),
        ("frames_rx", Json::u64(w.frames_rx)),
        ("bytes_rx", Json::u64(w.bytes_rx)),
    ]
}

fn entry_json(e: &LiveEntry) -> Json {
    let mut fields = vec![
        ("name", Json::str(e.name)),
        ("transport", Json::str(e.transport.name())),
        ("threads", Json::u64(e.threads as u64)),
        ("history_ops", Json::u64(e.history_ops as u64)),
        ("certified", Json::Bool(e.certified)),
        ("violation", e.violation.as_deref().map(Json::str).unwrap_or(Json::Null)),
        ("sim_ops_per_sec", Json::f64(round2(e.sim_ops_per_sec))),
        ("wall_ops_per_sec", Json::f64(round2(e.wall_ops_per_sec))),
        ("wall_ms", Json::f64(round2(e.wall_ms))),
        ("latency_p50_ms", Json::f64(round2(e.p50_ms))),
        ("latency_p99_ms", Json::f64(round2(e.p99_ms))),
        ("peak_window", Json::u64(e.peak_window as u64)),
    ];
    fields.extend(wire_fields(&e.wire));
    Json::obj(fields)
}

fn print_entry(e: &LiveEntry) {
    println!(
        "{} [{}]  {} threads, {} ops in {:.0} ms wall: {:.0} op/s wall ({:.0} op/sim-s), \
         p50 {:.1} ms p99 {:.1} ms (simulated), peak window {} — {}",
        e.name,
        e.transport.name(),
        e.threads,
        e.history_ops,
        e.wall_ms,
        e.wall_ops_per_sec,
        e.sim_ops_per_sec,
        e.p50_ms,
        e.p99_ms,
        e.peak_window,
        if e.certified { "CERTIFIED" } else { "VIOLATION" },
    );
    if e.wire.frames_tx > 0 {
        println!(
            "   wire: {} frames / {} bytes hub->workers, {} frames / {} bytes back",
            e.wire.frames_tx, e.wire.bytes_tx, e.wire.frames_rx, e.wire.bytes_rx
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn net_mode(
    out: PathBuf,
    seed: u64,
    scale: u64,
    quick: bool,
    transport: TransportKind,
    open_loop: bool,
    processes: usize,
) -> ExitCode {
    let stop_secs = if quick { 20 } else { 90 };
    let mut failed = false;

    // Serialization cost: the same seeded run over every transport.
    println!("== net bench: transport comparison (stop {stop_secs}s sim, scale {scale}x) ==");
    let transports: Vec<LiveEntry> = [TransportKind::Mpsc, TransportKind::Uds, TransportKind::Tcp]
        .into_iter()
        .map(|t| {
            let e = spanner_entry("live-spanner-rss", seed, scale, stop_secs, t, BENCH_DRIVE);
            print_entry(&e);
            e
        })
        .collect();
    failed |= transports.iter().any(|e| !e.certified);

    // Saturation knee: open-loop Poisson arrivals, rate ladder per client.
    // Start well below the cluster's capacity so the ladder shows the flat
    // region before the knee (the WAN deployment saturates around a few
    // hundred sim-ops/s; see BENCHMARKS.md).
    let ladder_rates: &[f64] =
        if quick { &[25.0, 100.0] } else { &[10.0, 25.0, 50.0, 100.0, 200.0, 400.0] };
    let ladder_secs = if quick { 15 } else { 40 };
    let mut ladder: Vec<LadderRung> = Vec::new();
    let mut knee: Option<f64> = None;
    if open_loop {
        println!(
            "== net bench: open-loop ladder over {} ({}s sim per rung, cap {}/client) ==",
            transport.name(),
            ladder_secs,
            OPEN_LOOP_CAP
        );
        for &rate in ladder_rates {
            let e = spanner_entry(
                "live-spanner-rss-open",
                seed,
                scale,
                ladder_secs,
                transport,
                Drive::Open { rate_per_client: rate, max_in_flight: OPEN_LOOP_CAP },
            );
            failed |= !e.certified;
            let offered = rate * SPANNER_CLIENTS as f64;
            let achieved = e.sim_ops_per_sec;
            let saturated = achieved < 0.85 * offered;
            if saturated && knee.is_none() {
                knee = Some(rate);
            }
            println!(
                "rate {rate:>5}/client: offered {offered:.0} op/s, achieved {achieved:.0} op/s, \
                 {} arrivals ({} shed), p99 {:.1} ms — {}{}",
                e.arrivals,
                e.shed,
                e.p99_ms,
                if e.certified { "CERTIFIED" } else { "VIOLATION" },
                if saturated { " [past the knee]" } else { "" },
            );
            ladder.push(LadderRung {
                rate_per_client: rate,
                offered_ops_per_sec: offered,
                achieved_ops_per_sec: achieved,
                arrivals: e.arrivals,
                shed: e.shed,
                certified: e.certified,
                p50_ms: e.p50_ms,
                p99_ms: e.p99_ms,
            });
        }
        match knee {
            Some(k) => println!("saturation knee: {k} arrivals/s per client"),
            None => println!("no knee within the ladder (achieved ≥ 85% of offered throughout)"),
        }
    }

    // Multi-process: split the cluster across worker processes over UDS.
    let multiproc = if processes > 0 {
        println!("== net bench: {processes} worker process(es) + hub over UDS ==");
        let m = multiproc_entry(seed, scale, stop_secs, processes);
        println!(
            "multiproc [{} procs]  {} ops in {:.0} ms wall: {:.0} op/s wall ({:.0} op/sim-s), \
             {} frames / {} bytes hub->workers — {}",
            m.processes,
            m.history_ops,
            m.wall_ms,
            m.wall_ops_per_sec,
            m.sim_ops_per_sec,
            m.wire.frames_tx,
            m.wire.bytes_tx,
            if m.certified { "CERTIFIED" } else { "VIOLATION" },
        );
        if let Some(v) = &m.violation {
            eprintln!("   {v}");
        }
        failed |= !m.certified;
        Some(m)
    } else {
        None
    };

    let json = Json::obj(vec![
        ("schema", Json::str("regular-seq/live-net/v1")),
        ("seed", Json::u64(seed)),
        ("time_scale", Json::u64(scale)),
        ("quick", Json::Bool(quick)),
        ("transports", Json::Arr(transports.iter().map(entry_json).collect())),
        (
            "open_loop",
            if open_loop {
                Json::obj(vec![
                    ("transport", Json::str(transport.name())),
                    ("max_in_flight_per_client", Json::u64(OPEN_LOOP_CAP as u64)),
                    ("rung_secs", Json::u64(ladder_secs)),
                    (
                        "ladder",
                        Json::Arr(
                            ladder
                                .iter()
                                .map(|r| {
                                    Json::obj(vec![
                                        ("rate_per_client", Json::f64(r.rate_per_client)),
                                        (
                                            "offered_ops_per_sec",
                                            Json::f64(round2(r.offered_ops_per_sec)),
                                        ),
                                        (
                                            "achieved_ops_per_sec",
                                            Json::f64(round2(r.achieved_ops_per_sec)),
                                        ),
                                        ("arrivals", Json::u64(r.arrivals)),
                                        ("shed", Json::u64(r.shed)),
                                        ("certified", Json::Bool(r.certified)),
                                        ("latency_p50_ms", Json::f64(round2(r.p50_ms))),
                                        ("latency_p99_ms", Json::f64(round2(r.p99_ms))),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                    ("knee_rate_per_client", knee.map(Json::f64).unwrap_or(Json::Null)),
                ])
            } else {
                Json::Null
            },
        ),
        (
            "multiproc",
            match &multiproc {
                Some(m) => {
                    let mut fields = vec![
                        ("processes", Json::u64(m.processes as u64)),
                        ("transport", Json::str("uds")),
                        ("history_ops", Json::u64(m.history_ops as u64)),
                        ("certified", Json::Bool(m.certified)),
                        ("violation", m.violation.as_deref().map(Json::str).unwrap_or(Json::Null)),
                        ("sim_ops_per_sec", Json::f64(round2(m.sim_ops_per_sec))),
                        ("wall_ops_per_sec", Json::f64(round2(m.wall_ops_per_sec))),
                        ("wall_ms", Json::f64(round2(m.wall_ms))),
                    ];
                    fields.extend(wire_fields(&m.wire));
                    Json::obj(fields)
                }
                None => Json::Null,
            },
        ),
    ]);
    if let Err(e) = regular_sweep::write_json(&out, &json) {
        eprintln!("failed to write {}: {e}", out.display());
        return ExitCode::from(2);
    }
    println!("report written to {}", out.display());
    if failed {
        eprintln!("net bench FAILED: a live run did not certify");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut out: Option<PathBuf> = None;
    let mut seed = 1u64;
    let mut scale = 60u64;
    let mut quick = false;
    let mut transport = TransportKind::Mpsc;
    let mut net = false;
    let mut open_loop = false;
    let mut processes = 0usize;
    let mut worker_addr: Option<String> = None;
    let mut worker_index = 0usize;
    let mut worker_count = 1usize;
    let mut worker_stop_secs = 60u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().expect("flag needs a value");
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(value())),
            "--seed" => seed = value().parse().expect("bad --seed"),
            "--scale" => scale = value().parse().expect("bad --scale"),
            "--quick" => quick = true,
            "--transport" => {
                let v = value();
                transport = TransportKind::parse(&v).unwrap_or_else(|| {
                    panic!("bad --transport '{v}' (expected mpsc, uds, or tcp)")
                });
            }
            "--net" => net = true,
            "--open-loop" => open_loop = true,
            "--processes" => processes = value().parse().expect("bad --processes"),
            "--worker-addr" => worker_addr = Some(value()),
            "--worker-index" => worker_index = value().parse().expect("bad --worker-index"),
            "--worker-count" => worker_count = value().parse().expect("bad --worker-count"),
            "--worker-stop-secs" => {
                worker_stop_secs = value().parse().expect("bad --worker-stop-secs")
            }
            other => {
                eprintln!(
                    "unknown argument '{other}' (usage: live_bench [--out PATH] [--seed S] \
                     [--scale N] [--quick] [--transport mpsc|uds|tcp] \
                     [--net [--open-loop] [--processes N]])"
                );
                return ExitCode::from(2);
            }
        }
    }

    if let Some(addr) = worker_addr {
        return run_worker(&addr, worker_index, worker_count, seed, worker_stop_secs);
    }
    if net {
        let out = out.unwrap_or_else(|| PathBuf::from("BENCH_net.json"));
        return net_mode(out, seed, scale, quick, transport, open_loop, processes);
    }
    let out = out.unwrap_or_else(|| PathBuf::from("BENCH_live.json"));
    let (spanner_secs, gryff_secs) = if quick { (25, 25) } else { (240, 120) };

    println!(
        "== live bench: scale {scale}x, seed {seed}, transport {}{} ==",
        transport.name(),
        if quick { ", quick" } else { "" }
    );
    let entries = vec![
        spanner_entry("live-spanner-rss", seed, scale, spanner_secs, transport, BENCH_DRIVE),
        gryff_entry(seed, scale, gryff_secs, transport),
    ];
    let mut failed = false;
    for e in &entries {
        print_entry(e);
        if let Some(v) = &e.violation {
            eprintln!("   {v}");
            failed = true;
        }
    }

    let json = Json::obj(vec![
        ("schema", Json::str("regular-seq/live-bench/v1")),
        ("seed", Json::u64(seed)),
        ("time_scale", Json::u64(scale)),
        ("quick", Json::Bool(quick)),
        ("transport", Json::str(transport.name())),
        ("entries", Json::Arr(entries.iter().map(entry_json).collect())),
    ]);
    if let Err(e) = regular_sweep::write_json(&out, &json) {
        eprintln!("failed to write {}: {e}", out.display());
        return ExitCode::from(2);
    }
    println!("report written to {}", out.display());
    if failed {
        eprintln!("live bench FAILED: a live run did not certify");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
