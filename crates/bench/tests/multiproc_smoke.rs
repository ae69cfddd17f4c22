//! End-to-end multi-process smoke test: `regular-bench net --processes 2`
//! actually forks worker OS processes, runs the Spanner-RSS cluster over a
//! Unix-domain socket, streaming-certifies the result, and writes a
//! well-formed report. This drives the same binary CI's socket-smoke job
//! uses, via `CARGO_BIN_EXE`. And the cleanup path of that run, directly:
//! the guard that owns the workers and the socket leaves neither behind.

use std::path::Path;
use std::process::Command;

use regular_bench::live::Workers;
use regular_bench::report::Report;
use regular_live::ListenAddr;
use regular_sweep::Json;

#[test]
fn live_bench_net_mode_runs_two_worker_processes_over_uds() {
    let out = std::env::temp_dir().join(format!("bench_net_test_{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_regular-bench"))
        .args(["net", "--quick", "--processes", "2", "--seed", "5", "--out"])
        .arg(&out)
        .status()
        .expect("run regular-bench net");
    assert!(status.success(), "net --processes 2 failed: {status}");

    let report = Report::load(&out).expect("the report loads");
    let _ = std::fs::remove_file(&out);
    assert_eq!(report.kind, "net");
    let cell = |row: &str, column: &str| report.cell(row, column).cloned().unwrap_or(Json::Null);

    // The transport comparison covered all three backends, every run
    // certified, and the socket runs moved real frames.
    for transport in ["mpsc", "uds", "tcp"] {
        let row = format!("live-spanner-rss/{transport}");
        assert_eq!(cell(&row, "transport"), Json::str(transport));
        assert_eq!(cell(&row, "certified"), Json::Bool(true), "{transport} failed to certify");
        let frames = cell(&row, "frames_tx").as_f64().expect("a frame count");
        match transport {
            "mpsc" => assert_eq!(frames, 0.0, "mpsc moves no wire frames"),
            _ => assert!(frames > 0.0, "the {transport} run moved no frames"),
        }
    }

    // The multi-process run (3 = hub + 2 workers) certified and progressed.
    let multiproc = |column: &str| cell("multiproc", column);
    assert_eq!(multiproc("threads"), Json::u64(3));
    assert_eq!(multiproc("certified"), Json::Bool(true), "multiproc did not certify");
    assert!(multiproc("history_ops").as_f64().unwrap_or(0.0) > 100.0, "it barely progressed");
    assert!(multiproc("frames_tx").as_f64().unwrap_or(0.0) > 0.0, "it moved no frames");
    assert!(report.broken().is_empty());
}

#[test]
fn dropping_the_worker_guard_leaves_no_process_and_no_socket() {
    // Workers pointed at an address nobody listens on retry their connect
    // for ten seconds, so they are alive when the guard goes.
    let socket = std::env::temp_dir().join(format!("bench_orphans_{}.sock", std::process::id()));
    std::fs::write(&socket, b"").expect("stand in for the hub's socket");
    let addr = ListenAddr::Uds(socket.with_extension("nobody"));
    let exe = Path::new(env!("CARGO_BIN_EXE_regular-bench"));
    let workers = Workers::spawn(exe, socket.clone(), &addr, 2, 1, true).expect("spawn workers");
    let ids = workers.ids();
    let alive = |id: &u32| Path::new(&format!("/proc/{id}")).exists();
    assert!(ids.len() == 2 && ids.iter().all(alive), "both workers are running");
    drop(workers);
    assert!(!ids.iter().any(alive), "a worker outlived its guard");
    assert!(!socket.exists(), "the socket outlived its guard");
}
