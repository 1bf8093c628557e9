//! The daemon's thread budget, counted from `/proc/self/task`: an
//! in-process daemon with its workers as threads of this test process
//! (as in `gateway_e2e.rs`). Once a first job has warmed the connection
//! loops up, later jobs reuse their threads and spawn no `pmserve-*`
//! thread; and clients that connect to the cluster port and say nothing
//! hold at most the loop's cap of threads.
//!
//! The tests run one at a time: both count this process's threads.

#![cfg(target_os = "linux")]

use std::collections::BTreeSet;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use patternlets::harness::{Mode, RunConfig};
use patternlets::registry::find;
use patternlets_core::capture::Output;
use patternlets_metrics::{MetricsHub, MetricsSnapshot};
use patternlets_serve::client::{self, SubmitSpec};
use patternlets_serve::conns::Limits;
use patternlets_serve::daemon::{self, Daemon, DaemonConfig};
use patternlets_serve::worker::{run_worker, Assignment, JobLineSink};

const DEADLINE: Duration = Duration::from_secs(60);

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The ids of this process's live threads whose name starts `prefix`.
fn threads_named(prefix: &str) -> BTreeSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .filter_map(|task| {
            let task = task.ok()?;
            let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
            comm.starts_with(prefix)
                .then(|| task.file_name().to_str()?.parse().ok())?
        })
        .collect()
}

/// The runner `patternlets worker` wires in, without the banner.
fn registry_runner(assign: &Assignment, lines: &JobLineSink) -> Result<MetricsSnapshot, String> {
    let p = find(&assign.patternlet).ok_or("unknown patternlet")?;
    let mode = if assign.on { Mode::On } else { Mode::Off };
    let hub = MetricsHub::new();
    let mut cfg = RunConfig::new(assign.np, mode).with_metrics(hub.clone());
    cfg.output = Output::echoing_to(lines.clone().into_line_writer());
    (p.run)(&cfg);
    Ok(hub.snapshot())
}

/// A daemon within `limits`, and `n` workers that have joined it.
fn start(n: usize, limits: Limits) -> (Daemon, Vec<std::thread::JoinHandle<std::io::Result<()>>>) {
    let config = DaemonConfig {
        quiet: true,
        ..DaemonConfig::default()
    };
    let daemon = daemon::start_with(config, limits).expect("daemon starts on ephemeral ports");
    let addr = daemon.cluster_addr.to_string();
    let workers = (0..n)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || run_worker(&addr, registry_runner))
        })
        .collect();
    let deadline = Instant::now() + DEADLINE;
    while daemon.pool.live() < n {
        assert!(Instant::now() < deadline, "workers never joined the pool");
        std::thread::sleep(Duration::from_millis(5));
    }
    (daemon, workers)
}

fn stop(daemon: Daemon, workers: Vec<std::thread::JoinHandle<std::io::Result<()>>>) {
    daemon.drain();
    daemon.wait();
    for w in workers {
        w.join()
            .expect("worker thread")
            .expect("worker exits clean");
    }
}

/// One job the way `patternlets submit` and pbench's `jobs` client run
/// it: submit, stream the output to the end, read the status.
fn run_job(http: &str, patternlet: &str, np: usize) {
    let spec = SubmitSpec {
        patternlet: patternlet.to_string(),
        np,
        on: false,
        chaos: String::new(),
        retries: None,
        trace: false,
    };
    let job = client::submit(http, &spec).expect("submission accepted");
    client::stream_output(http, job, &mut std::io::sink()).expect("output streams");
    let status = client::status(http, job).expect("status");
    assert_eq!(status.status, "completed", "job {job}: {:?}", status.error);
}

#[test]
fn steady_state_jobs_spawn_no_daemon_thread() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (daemon, workers) = start(4, Limits::default());
    let http = daemon.http_addr.to_string();
    run_job(&http, "mpi/broadcast", 4);
    let warm = threads_named("pmserve-");
    // A connection thread lives as long as its connection, so the
    // sampler, polling every millisecond, sees any thread a job spawns:
    // at least the one streaming the job's output.
    let seen = Mutex::new(BTreeSet::new());
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                let live = threads_named("pmserve-");
                seen.lock().expect("sampler lock").extend(live);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        for i in 0..20 {
            let patternlet = ["mpi/broadcast", "mpi/reduction"][i % 2];
            run_job(&http, patternlet, [4, 2][i % 3 / 2]);
        }
        done.store(true, Ordering::Relaxed);
    });
    let seen = seen.into_inner().expect("sampler lock");
    let spawned: Vec<&u64> = seen.difference(&warm).collect();
    assert!(
        spawned.is_empty(),
        "20 jobs after the first spawned daemon threads {spawned:?}"
    );
    stop(daemon, workers);
}

#[test]
fn silent_cluster_connections_hold_at_most_the_cap() {
    const CAP: usize = 2;
    const FIRST_READ: Duration = Duration::from_millis(300);
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let earlier = threads_named("pmserve-");
    let new_threads = |prefix| threads_named(prefix).difference(&earlier).count();
    let limits = Limits {
        threads: CAP,
        first_read: FIRST_READ,
    };
    let (daemon, mut workers) = start(0, limits);
    let silent: Vec<TcpStream> = (0..CAP + 8)
        .map(|_| TcpStream::connect(daemon.cluster_addr).unwrap())
        .collect();
    // Two workers join behind the silent connections, once those have
    // timed out a cap's worth at a time.
    let start = Instant::now();
    let addr = daemon.cluster_addr.to_string();
    workers.extend((0..2).map(|_| {
        let addr = addr.clone();
        std::thread::spawn(move || run_worker(&addr, registry_runner))
    }));
    while daemon.pool.live() < 2 {
        assert!(start.elapsed() < DEADLINE, "workers never joined the pool");
        std::thread::sleep(Duration::from_millis(5));
    }
    let rounds = ((CAP + 8) / CAP) as u32;
    assert!(start.elapsed() >= FIRST_READ * rounds - FIRST_READ / 2);
    // Jobs rendezvous through the same capped loop, on the same threads.
    let http = daemon.http_addr.to_string();
    for _ in 0..5 {
        run_job(&http, "mpi/broadcast", 2);
    }
    // Pool threads live as long as the process, so counting them once
    // at the end counts every one the loop ever spawned. But a thread
    // carries its spawner's name until it sets its own, and each joining
    // worker's `pmserve-worker` reader is spawned from a pool thread: it
    // is counted only once both readers have named themselves.
    while new_threads("pmserve-worker") < 2 {
        assert!(
            start.elapsed() < DEADLINE,
            "worker readers never named themselves"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let most = new_threads("pmserve-cl-conn");
    assert!(
        most <= CAP,
        "{most} cluster connection threads for a cap of {CAP}"
    );
    drop(silent);
    stop(daemon, workers);
}
