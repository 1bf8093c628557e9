//! End-to-end tests of the `pmrun` launcher: real worker processes, real
//! sockets, real SIGKILL. Everything here shells out to the compiled
//! `pmrun`/`patternlets` binaries (Cargo points `CARGO_BIN_EXE_*` at
//! them), so these tests exercise exactly what a student types.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const PMRUN: &str = env!("CARGO_BIN_EXE_pmrun");
const PATTERNLETS: &str = env!("CARGO_BIN_EXE_patternlets");

struct Job {
    stdout: String,
    stderr: String,
    success: bool,
}

fn pmrun_with(args: &[&str], worker_args: &[&str]) -> Job {
    let out = Command::new(PMRUN)
        .args(args)
        .arg(PATTERNLETS)
        .args(worker_args)
        .output()
        .expect("pmrun spawns");
    Job {
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        success: out.status.success(),
    }
}

#[test]
fn broadcast_runs_as_four_real_processes() {
    let job = pmrun_with(&["-np", "4", "--timeout", "120"], &["mpi/broadcast"]);
    assert!(
        job.success,
        "stdout: {}\nstderr: {}",
        job.stdout, job.stderr
    );
    // Every rank's result came back through the aggregated stream, and the
    // banner printed once (rank 0 only), not once per process.
    for rank in 0..4 {
        assert_eq!(
            job.stdout
                .matches(&format!("Process {rank} AFTER  broadcast"))
                .count(),
            1,
            "stdout: {}",
            job.stdout
        );
    }
    assert_eq!(job.stdout.matches("=== mpi/broadcast").count(), 1);
}

#[test]
fn collectives_and_recovery_work_across_processes() {
    for patternlet in ["mpi/reduction", "resilience/shrink"] {
        let job = pmrun_with(&["-np", "4", "--timeout", "120"], &[patternlet]);
        assert!(
            job.success,
            "{patternlet} stdout: {}\nstderr: {}",
            job.stdout, job.stderr
        );
    }
}

#[test]
fn killed_worker_surfaces_rank_failed_and_survivors_shrink() {
    // Rank 1 stalls inside an established world; pmrun SIGKILLs it while
    // ranks 0, 2, 3 block on a receive from it.
    let job = pmrun_with(
        &["-np", "4", "--timeout", "120", "--kill-worker", "1:400"],
        &["__net-stall", "4", "1"],
    );
    assert!(!job.success, "a killed worker must fail the job");
    for survivor in [0, 2, 3] {
        assert!(
            job.stdout.contains(&format!(
                "rank {survivor}: death of rank 1 surfaced as RankFailed"
            )),
            "stdout: {}\nstderr: {}",
            job.stdout,
            job.stderr
        );
    }
    assert!(
        job.stdout.contains("shrink: 3 of 4 ranks survive"),
        "survivors agree and shrink: {}",
        job.stdout
    );
    // The report is readable: it names the victim and how it died.
    assert!(job.stderr.contains("pmrun: job failed"), "{}", job.stderr);
    assert!(
        job.stderr.contains("rank 1: killed by signal"),
        "{}",
        job.stderr
    );
    assert!(job.stderr.contains("rank 0: exit 0"), "{}", job.stderr);
}

#[test]
fn killed_worker_is_respawned_and_the_job_heals_to_full_size() {
    // Rank 1 is SIGKILLed mid-computation; with a respawn budget the
    // supervisor restarts it, the restarted process rejoins the retry
    // world at the survivors' epoch, restores from the shared checkpoint
    // directory, and the job completes at the ORIGINAL world size with
    // exit 0 — contrast with the shrink test above, where the job ends
    // smaller and failed.
    let job = pmrun_with(
        &[
            "-np",
            "4",
            "--timeout",
            "120",
            "--kill-worker",
            "1:600",
            "--respawn",
            "2",
        ],
        &["resilience/respawn", "-n", "4"],
    );
    assert!(
        job.success,
        "stdout: {}\nstderr: {}",
        job.stdout, job.stderr
    );
    assert!(
        job.stderr.contains("respawning"),
        "the supervisor reported the restart: {}",
        job.stderr
    );
    assert!(
        job.stdout.contains("restart: resuming from step"),
        "the retry world restored mid-run state: {}\nstderr: {}",
        job.stdout,
        job.stderr
    );
    assert!(
        job.stdout
            .contains("done: 8 steps at full size 4, state 32 (expected 32)"),
        "the job finished at full world size: {}\nstderr: {}",
        job.stdout,
        job.stderr
    );
}

#[test]
fn chaotic_wire_job_self_heals_and_delivers_exactly_once() {
    // A seeded chaos plan cuts, truncates, and corrupts the TCP links
    // while a traffic-heavy soak runs on top. The job must still finish
    // with the exact expected checksum (exactly-once delivery through
    // every fault), and the metrics summary must show the self-healing
    // actually happened: nonzero reconnects with replayed frames.
    //
    // Reconnects race a wall-clock budget, so on an oversubscribed test
    // host (the full suite saturates this 1-CPU box) a starved redial
    // can genuinely exhaust it. That is the environment failing, not the
    // protocol; allow a couple of fresh attempts before believing a
    // failure.
    let mut job = None;
    for (attempt, port) in ["9377", "9378", "9379"].iter().enumerate() {
        let run = pmrun_with(
            &[
                "-np",
                "4",
                "--timeout",
                "120",
                "--net-chaos",
                "7",
                "--metrics-port",
                port,
            ],
            &["__net-soak", "4", "200"],
        );
        let done = run.success;
        job = Some(run);
        if done {
            break;
        }
        eprintln!("chaos soak attempt {attempt} failed (load?), retrying");
    }
    let job = job.expect("at least one attempt ran");
    assert!(
        job.success,
        "stdout: {}\nstderr: {}",
        job.stdout, job.stderr
    );
    assert!(
        job.stdout.contains("net soak: 200 rounds x 4 ranks ok"),
        "the checksum survived the chaos: {}\nstderr: {}",
        job.stdout,
        job.stderr
    );
    let net_line = job
        .stdout
        .lines()
        .find(|l| l.trim_start().starts_with("net: "))
        .unwrap_or_else(|| panic!("metrics summary has a net line: {}", job.stdout));
    let count = |key: &str| -> u64 {
        let at = net_line
            .find(key)
            .unwrap_or_else(|| panic!("{key} in {net_line}"));
        net_line[at + key.len()..]
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("numeric {key} in {net_line}"))
    };
    assert!(
        count("reconnects=") > 0,
        "chaos forced reconnects: {net_line}"
    );
    assert!(count("replayed=") > 0, "resume replayed frames: {net_line}");
    assert_eq!(
        count("failures="),
        0,
        "no rank was declared dead: {net_line}"
    );
}

#[test]
fn stream_farm_runs_under_the_launcher() {
    // The stream family is thread-parallel, not rank-parallel: under
    // pmrun every rank runs its own farm (like an MPI+threads hybrid).
    // Each of the 4 ranks farms 16 items over 4 worker threads, and the
    // ordered collector must make every rank's output identical — so the
    // aggregated stream shows each line exactly 4 times, in order.
    let job = pmrun_with(
        &["-np", "4", "--timeout", "120"],
        &["stream/farm", "--on", "-n", "4"],
    );
    assert!(
        job.success,
        "stdout: {}\nstderr: {}",
        job.stdout, job.stderr
    );
    for (n, tri) in [(0, 0), (10, 55), (15, 120)] {
        assert_eq!(
            job.stdout
                .matches(&format!("triangle({n:>2}) = {tri}"))
                .count(),
            4,
            "every rank's ordered collector emitted the line: {}",
            job.stdout
        );
    }
    // Rank 0 alone prints the banner.
    assert_eq!(job.stdout.matches("=== stream/farm").count(), 1);
}

#[test]
fn merged_trace_has_one_process_lane_per_rank() {
    let trace = std::env::temp_dir().join(format!("pmrun-test-trace-{}.json", std::process::id()));
    let trace_str = trace.to_string_lossy().into_owned();
    let job = pmrun_with(
        &["-np", "3", "--timeout", "120", "--trace", &trace_str],
        &["mpi/reduction", "-n", "3"],
    );
    assert!(
        job.success,
        "stdout: {}\nstderr: {}",
        job.stdout, job.stderr
    );
    let merged = std::fs::read_to_string(&trace).expect("merged trace written");
    let _ = std::fs::remove_file(&trace);
    assert!(merged.starts_with("{\"traceEvents\":["));
    for rank in 0..3 {
        assert!(
            merged.contains(&format!("\"name\":\"rank {rank}\"")),
            "every rank gets a named process lane"
        );
        assert!(merged.contains(&format!("\"pid\":{rank},")));
    }
    // Structurally valid JSON (the exporter never emits quotes in values).
    assert_eq!(merged.matches('{').count(), merged.matches('}').count());
    assert_eq!(merged.matches('[').count(), merged.matches(']').count());
}

/// The `--counters` table under pmrun is the world's, merged from every
/// rank's report: broadcast at np 4 makes 3 sends, 3 receives and 4
/// bcast phases, and the table is printed once.
#[test]
fn counters_under_pmrun_count_every_rank() {
    let job = pmrun_with(
        &["-np", "4", "--timeout", "120"],
        &["mpi/broadcast", "--counters"],
    );
    assert!(
        job.success,
        "stdout: {}\nstderr: {}",
        job.stdout, job.stderr
    );
    let rows: Vec<Vec<&str>> = job
        .stdout
        .lines()
        .map(|l| l.split_whitespace().collect())
        .filter(|cols: &Vec<&str>| cols.first() == Some(&"all"))
        .collect();
    assert_eq!(rows.len(), 1, "one table: {}", job.stdout);
    assert_eq!(
        (rows[0][1], rows[0][2], rows[0][5]),
        ("3", "3", "4"),
        "{}",
        job.stdout
    );
    for rank in 0..4 {
        let row = format!("{rank:>4} ");
        assert!(
            job.stdout.lines().any(|l| l.starts_with(&row)),
            "{}",
            job.stdout
        );
    }
    assert!(!job.stdout.contains("metrics summary"), "{}", job.stdout);
}

/// pmrun judges a job only after every rank's last report: each launch
/// counts all four ranks and broadcast's three messages.
#[test]
fn the_metrics_summary_counts_every_rank_of_every_launch() {
    for launch in 0..10 {
        let job = pmrun_with(
            &["-np", "4", "--timeout", "120", "--metrics-port", "0"],
            &["mpi/broadcast"],
        );
        assert!(
            job.success,
            "launch {launch} stdout: {}\nstderr: {}",
            job.stdout, job.stderr
        );
        assert!(
            job.stdout
                .contains("pmrun: metrics summary (4 of 4 ranks reported)"),
            "launch {launch}: {}",
            job.stdout
        );
        let all: Vec<&str> = job
            .stdout
            .lines()
            .map(str::split_whitespace)
            .map(Iterator::collect)
            .find(|cols: &Vec<&str>| cols.first() == Some(&"all"))
            .unwrap_or_else(|| panic!("launch {launch}: no `all` row in {}", job.stdout));
        assert_eq!(
            (all[1], all[3]),
            ("3", "3"),
            "launch {launch}: sent and received of {all:?}"
        );
    }
}

#[test]
fn status_draws_live_metrics_before_the_job_ends() {
    // Rank 1 stalls until it is killed, so the job runs long enough for
    // the status view to draw.
    let job = pmrun_with(
        &[
            "-np",
            "4",
            "--timeout",
            "120",
            "--status",
            "--kill-worker",
            "1:2500",
        ],
        &["__net-stall", "4", "1"],
    );
    let live = job.stderr.find("-- pmrun live metrics (");
    let end = job.stderr.find("pmrun: job failed");
    assert!(
        matches!((live, end), (Some(live), Some(end)) if live < end),
        "stderr: {}",
        job.stderr
    );
}

#[test]
fn a_job_past_its_timeout_is_killed_whole() {
    // Rank 1 stalls for 30 s inside an established world; the 2 s
    // deadline must end the job long before that.
    let start = Instant::now();
    let job = pmrun_with(&["-np", "2", "--timeout", "2"], &["__net-stall", "2", "1"]);
    let took = start.elapsed();
    assert!(!job.success, "a timed-out job fails");
    assert!(took < Duration::from_secs(10), "took {took:?}");
    assert!(
        job.stderr.contains("pmrun: job exceeded --timeout 2s"),
        "stderr: {}",
        job.stderr
    );
}

#[test]
fn a_respawn_due_after_the_timeout_is_not_started() {
    // The worker fails at once in its first five incarnations and would
    // sleep 30 s in the sixth. Rank 0's fifth respawn backoff is seeded:
    // it waits from ~1.2 s to ~2.4 s, across the 2 s deadline, so the
    // sixth incarnation must never start.
    let start = Instant::now();
    let out = Command::new(PMRUN)
        .args(["-np", "1", "--timeout", "2", "--respawn", "10", "sh", "-c"])
        .arg("test \"$PMRUN_EPOCH_BASE\" -lt 5 && exit 1; exec sleep 30")
        .output()
        .expect("pmrun spawns");
    let took = start.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "stderr: {stderr}");
    assert!(took < Duration::from_secs(10), "took {took:?}: {stderr}");
    assert!(
        stderr.contains("rank 0: exit 1 (after 4 respawns)"),
        "stderr: {stderr}"
    );
}

#[test]
fn a_second_signal_ends_a_respawning_job() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGINT: i32 = 2;
    // Rank 1 stalls for 30 s, so the first SIGINT's drain cannot finish;
    // the second must kill the job for good, with respawns left.
    let pmrun = Command::new(PMRUN)
        .args(["-np", "2", "--respawn", "3", "--timeout", "20", PATTERNLETS])
        .args(["__net-stall", "2", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("pmrun spawns");
    let pid = pmrun.id() as i32;
    std::thread::sleep(Duration::from_millis(1000));
    assert_eq!(unsafe { kill(pid, SIGINT) }, 0);
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(unsafe { kill(pid, SIGINT) }, 0);
    let second = Instant::now();
    let out = pmrun.wait_with_output().expect("pmrun runs");
    let took = second.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a killed job fails: {stderr}");
    assert!(took < Duration::from_secs(10), "took {took:?}: {stderr}");
    assert_eq!(
        stderr.matches("second signal").count(),
        1,
        "stderr: {stderr}"
    );
    let after = &stderr[stderr.find("second signal").unwrap_or(0)..];
    assert!(!after.contains("respawning"), "stderr: {stderr}");
}

#[test]
fn a_signal_drains_a_respawning_job_without_respawning() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGINT: i32 = 2;
    // The worker fails 0.5 s in, 0.3 s after the SIGINT that asks pmrun
    // to drain: its failure must end the job, with respawns left.
    let start = Instant::now();
    let pmrun = Command::new(PMRUN)
        .args(["-np", "1", "--respawn", "10", "--timeout", "20"])
        .args(["sh", "-c", "sleep 0.5; exit 1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("pmrun spawns");
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(unsafe { kill(pmrun.id() as i32, SIGINT) }, 0);
    let out = pmrun.wait_with_output().expect("pmrun runs");
    let took = start.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "a drain exits 0: {stderr}");
    assert!(took < Duration::from_secs(10), "took {took:?}: {stderr}");
    assert!(
        stdout.contains("pmrun: drained after termination request"),
        "stdout: {stdout}"
    );
    assert!(stderr.contains("rank 0: exit 1"), "stderr: {stderr}");
    let drain = stderr.find("termination requested");
    let after = &stderr[drain.expect("the drain is announced")..];
    assert!(!after.contains("respawning"), "stderr: {stderr}");
}

#[test]
fn oversized_world_is_refused_with_np_guidance() {
    // A 4-rank world under a 2-process job cannot run; the worker must say
    // exactly how to fix the invocation rather than duplicate output.
    let job = pmrun_with(
        &["-np", "2", "--timeout", "120"],
        &["mpi/broadcast", "-n", "4"],
    );
    assert!(!job.success);
    assert!(
        job.stderr.contains("-np 4"),
        "the fix is spelled out: {}",
        job.stderr
    );
}

#[test]
fn usage_errors_do_not_hang() {
    let out = Command::new(PMRUN).output().expect("pmrun spawns");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
