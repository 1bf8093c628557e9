//! Real-binary end-to-end tests for `pmserve`: the daemon, its workers,
//! and the `patternlets` CLI all run as separate processes, signals are
//! real signals, and worker death is a real SIGKILL.
//!
//! Deterministic mid-job death is staged with a *fake worker*: a raw TCP
//! connection that speaks just enough of the cluster protocol
//! (`WorkerHello`) to be claimed for a job but never runs its rank, so
//! the job's real ranks park in rendezvous for as long as the test
//! wants before it pulls a trigger. No sleeps-and-hope timing.

#![cfg(unix)]

use std::io::BufRead;
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use patternlets_metrics::{wire, CounterId, MetricsHub};
use patternlets_net::frame::{read_frame, write_frame, Frame};
use patternlets_serve::client::{self, SubmitSpec};
use patternlets_serve::http::http_exchange;
use patternlets_serve::json::Json;

const PATTERNLETS: &str = env!("CARGO_BIN_EXE_patternlets");
const PMRUN: &str = env!("CARGO_BIN_EXE_pmrun");
const DEADLINE: Duration = Duration::from_secs(120);

/// The pmserve binary lives next to the collection's own binaries in the
/// workspace target dir. `cargo test` at the workspace root has already
/// built it; a package-scoped `cargo test -p patternlets` has not, so
/// build it on demand (the target-dir lock serializes this safely).
fn pmserve_bin() -> PathBuf {
    let sibling = PathBuf::from(PATTERNLETS).with_file_name("pmserve");
    if !sibling.exists() {
        let mut cmd = Command::new(env!("CARGO"));
        cmd.args(["build", "-p", "patternlets-serve", "--bin", "pmserve"]);
        if PATTERNLETS.contains("/release/") {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("cargo runs");
        assert!(status.success(), "building pmserve failed");
        assert!(sibling.exists(), "pmserve not at {}", sibling.display());
    }
    sibling
}

fn signal_pid(pid: u32, sig: &str) {
    let status = Command::new("kill")
        .args([sig, &pid.to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "kill {sig} {pid}");
}

struct DaemonProc {
    child: Child,
    cluster: String,
    http: String,
    stdout: Arc<Mutex<String>>,
}

impl DaemonProc {
    fn start(extra: &[&str]) -> DaemonProc {
        let mut child = Command::new(pmserve_bin())
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("pmserve spawns");
        let out = child.stdout.take().expect("stdout piped");
        let stdout = Arc::new(Mutex::new(String::new()));
        let sink = stdout.clone();
        std::thread::spawn(move || {
            for line in std::io::BufReader::new(out).lines() {
                let Ok(line) = line else { break };
                let mut text = sink.lock().unwrap();
                text.push_str(&line);
                text.push('\n');
            }
        });
        let deadline = Instant::now() + DEADLINE;
        let (cluster, http) = loop {
            {
                let text = stdout.lock().unwrap();
                let find = |prefix: &str| {
                    text.lines()
                        .find_map(|l| l.strip_prefix(prefix))
                        .map(str::to_string)
                };
                if let (Some(c), Some(h)) = (
                    find("pmserve: cluster on "),
                    find("pmserve: gateway on http://"),
                ) {
                    break (c, h);
                }
            }
            assert!(
                Instant::now() < deadline,
                "pmserve never printed its addresses"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        DaemonProc {
            child,
            cluster,
            http,
            stdout,
        }
    }

    fn stdout_text(&self) -> String {
        self.stdout.lock().unwrap().clone()
    }

    fn live(&self) -> usize {
        let (code, body) =
            http_exchange(&self.http, "GET", "/workers", None).expect("GET /workers");
        assert_eq!(code, 200, "{body}");
        Json::parse(&body)
            .and_then(|j| j.get("live").and_then(Json::as_u64))
            .expect("workers doc has live") as usize
    }

    fn wait_live(&self, n: usize) {
        let deadline = Instant::now() + DEADLINE;
        while self.live() != n {
            assert!(
                Instant::now() < deadline,
                "pool never reached {n} live workers; stdout:\n{}",
                self.stdout_text()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// SIGTERM the daemon and return its exit code (graceful-drain path).
    fn sigterm_and_wait(mut self) -> i32 {
        signal_pid(self.child.id(), "-TERM");
        let deadline = Instant::now() + DEADLINE;
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status.code().unwrap_or(-1);
            }
            assert!(
                Instant::now() < deadline,
                "pmserve did not exit after SIGTERM; stdout:\n{}",
                self.stdout_text()
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_worker(cluster: &str) -> Child {
    Command::new(PATTERNLETS)
        .args(["worker", cluster])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("worker spawns")
}

/// A claimable pool member that will never run a rank: `WorkerHello`,
/// then silence. Dropping the stream is a worker death.
fn fake_worker(cluster: &str) -> TcpStream {
    let mut conn = TcpStream::connect(cluster).expect("fake worker connects");
    write_frame(
        &mut conn,
        &Frame::WorkerHello {
            pid: 424_242,
            host: "ghost-host".into(),
        },
    )
    .expect("hello");
    conn
}

fn spec(patternlet: &str, np: usize, retries: Option<u32>) -> SubmitSpec {
    SubmitSpec {
        patternlet: patternlet.to_string(),
        np,
        on: false,
        chaos: String::new(),
        retries,
        trace: false,
    }
}

fn wait_terminal(http: &str, job: u64) -> client::JobStatus {
    let deadline = Instant::now() + DEADLINE;
    loop {
        let status = client::status(http, job).expect("status poll");
        if status.is_terminal() {
            return status;
        }
        assert!(Instant::now() < deadline, "job {job} never finished");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn wait_running(http: &str, job: u64) {
    let deadline = Instant::now() + DEADLINE;
    loop {
        let status = client::status(http, job).expect("status poll");
        if status.status == "running" {
            return;
        }
        assert!(
            !status.is_terminal() && Instant::now() < deadline,
            "job {job} is {} instead of running",
            status.status
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn sorted_output(http: &str, job: u64) -> Vec<String> {
    let mut buf = Vec::new();
    client::stream_output(http, job, &mut buf).expect("output streams");
    let text = String::from_utf8(buf).expect("utf-8 output");
    let mut lines: Vec<String> = text
        .trim_end_matches('\n')
        .lines()
        .map(str::to_string)
        .collect();
    lines.sort();
    lines
}

fn prom_total(body: &str, metric: &str) -> u64 {
    body.lines()
        .filter(|l| {
            l.strip_prefix(metric)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap_or(0))
        .sum()
}

/// Satellite: the elastic-membership lifecycle in one sitting — workers
/// join, a full-width job runs, two members leave and a smaller job
/// still schedules, an oversize job is refused synchronously, a worker
/// SIGKILLed *mid-job* fails only that job (naming the dead rank), and
/// the daemon — never restarted — keeps serving submissions after all
/// of it, then drains to exit 0 on SIGTERM.
#[test]
fn elastic_membership_and_mid_job_death() {
    let daemon = DaemonProc::start(&["--workers", "0", "--quiet"]);
    let daemon_pid = daemon.child.id();
    let mut workers: Vec<Child> = (0..4).map(|_| spawn_worker(&daemon.cluster)).collect();
    daemon.wait_live(4);

    // Full-width job on the fresh pool.
    let job = client::submit(&daemon.http, &spec("mpi/broadcast", 4, None)).unwrap();
    assert_eq!(wait_terminal(&daemon.http, job).status, "completed");

    // Two members leave (idle SIGKILL); a smaller job still schedules.
    for w in workers.drain(2..) {
        let mut w = w;
        w.kill().expect("kill worker");
        let _ = w.wait();
    }
    daemon.wait_live(2);
    let job = client::submit(&daemon.http, &spec("mpi/broadcast", 2, None)).unwrap();
    assert_eq!(wait_terminal(&daemon.http, job).status, "completed");

    // A job wider than the shrunken membership is refused synchronously.
    let err = client::submit(&daemon.http, &spec("mpi/broadcast", 4, None)).unwrap_err();
    assert!(err.contains("503"), "expected 503, got: {err}");

    // Mid-job SIGKILL: a fake pool member keeps the job's real ranks
    // parked in rendezvous while we kill one of them.
    let fake = fake_worker(&daemon.cluster);
    daemon.wait_live(3);
    let doomed = client::submit(&daemon.http, &spec("mpi/broadcast", 3, None)).unwrap();
    wait_running(&daemon.http, doomed);
    let mut victim = workers.remove(0);
    victim.kill().expect("SIGKILL mid-job");
    let _ = victim.wait();
    // Give the daemon a moment to attribute the death, then remove the
    // fake so the job's last pending rank resolves too.
    std::thread::sleep(Duration::from_millis(200));
    drop(fake);
    let status = wait_terminal(&daemon.http, doomed);
    assert_eq!(status.status, "failed");
    let error = status.error.unwrap_or_default();
    assert!(
        error.contains("died (worker"),
        "failure should name the dead rank: {error}"
    );

    // Only that job failed; the daemon (same process) accepts and runs
    // the next submission on the surviving member.
    daemon.wait_live(1);
    let job = client::submit(&daemon.http, &spec("mpi/broadcast", 1, None)).unwrap();
    assert_eq!(wait_terminal(&daemon.http, job).status, "completed");
    assert_eq!(daemon.child.id(), daemon_pid);

    for mut w in workers {
        let _ = w.kill();
        let _ = w.wait();
    }
    let exit = daemon.sigterm_and_wait();
    assert_eq!(exit, 0, "graceful drain exits 0");
}

/// A worker death mid-job with a retry budget: the attempt fails, the
/// job requeues into a fresh epoch block, and — with a replacement
/// member having joined — the retry completes with *clean* output (the
/// first attempt's partial lines were discarded by the reset).
#[test]
fn worker_death_retry_recovers_on_replacement_member() {
    let daemon = DaemonProc::start(&["--workers", "0", "--quiet"]);
    let mut workers: Vec<Child> = (0..2).map(|_| spawn_worker(&daemon.cluster)).collect();
    daemon.wait_live(2);
    let fake = fake_worker(&daemon.cluster);
    daemon.wait_live(3);

    let job = client::submit(&daemon.http, &spec("mpi/broadcast", 3, Some(1))).unwrap();
    wait_running(&daemon.http, job);
    // The replacement joins first, so the retry finds a full-width pool.
    workers.push(spawn_worker(&daemon.cluster));
    daemon.wait_live(4);
    drop(fake);

    let status = wait_terminal(&daemon.http, job);
    assert_eq!(status.status, "completed", "{:?}", status.error);
    let lines = sorted_output(&daemon.http, job);
    let banner = "=== mpi/broadcast (3 tasks, directive OFF (initial)) ===";
    assert_eq!(
        lines.iter().filter(|l| l.as_str() == banner).count(),
        1,
        "retry must not duplicate attempt 1's lines: {lines:?}"
    );
    assert_eq!(
        lines.iter().filter(|l| l.contains("AFTER")).count(),
        3,
        "{lines:?}"
    );

    let (_, body) = http_exchange(&daemon.http, "GET", "/metrics", None).unwrap();
    assert_eq!(prom_total(&body, "pmserve_jobs_retried_total"), 1);
    assert_eq!(prom_total(&body, "pmserve_jobs_completed_total"), 1);

    for mut w in workers {
        let _ = w.kill();
        let _ = w.wait();
    }
    assert_eq!(daemon.sigterm_and_wait(), 0);
}

/// `msgs_sent` of a job's `GET /jobs/:id` document.
fn msgs_sent(http: &str, job: u64) -> u64 {
    let (code, body) = http_exchange(http, "GET", &format!("/jobs/{job}"), None).unwrap();
    assert_eq!(code, 200, "{body}");
    Json::parse(&body)
        .and_then(|j| j.get("msgs_sent").and_then(Json::as_u64))
        .unwrap_or_else(|| panic!("no msgs_sent in {body}"))
}

/// A retried job's metrics come from its final attempt, like its output:
/// a pool member that reports sends for its rank and then dies must not
/// add them to the counts of the attempt that completes.
#[test]
fn a_retried_jobs_metrics_count_its_final_attempt_only() {
    let daemon = DaemonProc::start(&["--workers", "0", "--quiet"]);
    let mut workers: Vec<Child> = (0..2).map(|_| spawn_worker(&daemon.cluster)).collect();
    daemon.wait_live(2);
    let mut fake = fake_worker(&daemon.cluster);
    daemon.wait_live(3);

    let retried = client::submit(&daemon.http, &spec("mpi/broadcast", 3, Some(1))).unwrap();
    fake.set_read_timeout(Some(DEADLINE)).unwrap();
    let Some(Frame::JobAssign { job, rank, .. }) = read_frame(&mut fake).unwrap() else {
        panic!("the fake member was not assigned a rank");
    };
    assert_eq!(job, retried);
    let hub = MetricsHub::new();
    hub.add(rank as usize, CounterId::MsgsSentEncoded, 5);
    write_frame(
        &mut fake,
        &Frame::JobMetrics {
            job,
            rank,
            payload: wire::encode(&hub.snapshot()),
        },
    )
    .expect("metrics sent");
    // The replacement joins first, so the retry finds a full-width pool.
    workers.push(spawn_worker(&daemon.cluster));
    daemon.wait_live(4);
    drop(fake);
    let status = wait_terminal(&daemon.http, retried);
    assert_eq!(status.status, "completed", "{:?}", status.error);

    let clean = client::submit(&daemon.http, &spec("mpi/broadcast", 3, None)).unwrap();
    assert_eq!(wait_terminal(&daemon.http, clean).status, "completed");
    assert_eq!(
        msgs_sent(&daemon.http, retried),
        msgs_sent(&daemon.http, clean),
        "the failed attempt's report must not count"
    );

    for mut w in workers {
        let _ = w.kill();
        let _ = w.wait();
    }
    assert_eq!(daemon.sigterm_and_wait(), 0);
}

/// The acceptance soak: 8 client threads × 10 jobs against a
/// self-managed 4-worker pool under wire chaos, with one worker
/// SIGKILLed mid-run. Every job must reach a definite terminal status;
/// completed jobs' outputs must match a single-shot `pmrun` transcript
/// line-for-line (as a multiset — interleaving is free); failed jobs
/// must name the dead rank; the daemon must never restart; and SIGTERM
/// afterwards must drain to exit 0.
#[test]
fn soak_survives_chaos_and_a_mid_run_worker_kill() {
    // Reference transcript: the same patternlet, single-shot, np=2.
    let reference = {
        let out = Command::new(PMRUN)
            .args(["-np", "2", "--timeout", "120", PATTERNLETS, "mpi/broadcast"])
            .stderr(Stdio::null())
            .output()
            .expect("pmrun runs");
        assert!(out.status.success(), "reference pmrun failed");
        let text = String::from_utf8(out.stdout).expect("utf-8");
        // Blank lines are dropped on both sides of the comparison: a
        // rank's trailing blank either survives or is swallowed by the
        // trailing-newline trim depending on which rank's output happens
        // to land last — scheduling noise, not job semantics.
        let mut lines: Vec<String> = text
            .trim_end_matches('\n')
            .lines()
            .filter(|l| !l.starts_with("pmrun:") && !l.is_empty())
            .map(str::to_string)
            .collect();
        lines.sort();
        lines
    };

    let daemon = DaemonProc::start(&["--workers", "4", "--net-chaos", "7"]);
    let daemon_pid = daemon.child.id();
    daemon.wait_live(4);
    // The daemon's own children, from its startup narration.
    let worker_pids: Vec<u32> = daemon
        .stdout_text()
        .lines()
        .filter_map(|l| l.strip_prefix("pmserve: spawned worker pid "))
        .filter_map(|p| p.parse().ok())
        .collect();
    assert_eq!(worker_pids.len(), 4, "stdout:\n{}", daemon.stdout_text());

    let done = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let http = daemon.http.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                let mut verdicts = Vec::new();
                for _ in 0..10 {
                    // A submission can catch the pool mid-respawn (live
                    // dips below np); re-offer until admitted.
                    let deadline = Instant::now() + DEADLINE;
                    let job = loop {
                        match client::submit(&http, &spec("mpi/broadcast", 2, None)) {
                            Ok(job) => break job,
                            Err(e) => {
                                assert!(
                                    Instant::now() < deadline,
                                    "submissions never re-admitted: {e}"
                                );
                                std::thread::sleep(Duration::from_millis(50));
                            }
                        }
                    };
                    let status = wait_terminal(&http, job);
                    let output = (status.status == "completed").then(|| sorted_output(&http, job));
                    verdicts.push((job, status, output));
                    done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                verdicts
            })
        })
        .collect();

    // Mid-run (a quarter of the jobs done, pool saturated), SIGKILL one
    // of the daemon's own workers.
    let deadline = Instant::now() + DEADLINE;
    while done.load(std::sync::atomic::Ordering::Relaxed) < 20 {
        assert!(Instant::now() < deadline, "soak stalled before the kill");
        std::thread::sleep(Duration::from_millis(10));
    }
    signal_pid(worker_pids[0], "-KILL");

    let mut completed = 0usize;
    let mut failed = 0usize;
    for handle in clients {
        for (job, status, output) in handle.join().expect("client thread") {
            match status.status.as_str() {
                "completed" => {
                    completed += 1;
                    let lines: Vec<String> = output
                        .expect("completed jobs carry output")
                        .into_iter()
                        .filter(|l| !l.is_empty())
                        .collect();
                    assert_eq!(
                        lines, reference,
                        "job {job} output differs from single-shot pmrun"
                    );
                }
                "failed" => {
                    failed += 1;
                    let error = status.error.unwrap_or_default();
                    assert!(
                        error.contains("died (worker"),
                        "job {job} failed for a reason other than the kill: {error}"
                    );
                }
                other => panic!("job {job} ended in indefinite status {other:?}"),
            }
        }
    }
    assert_eq!(
        completed + failed,
        80,
        "every job reached a definite status"
    );
    assert!(
        completed >= 70,
        "chaos alone must not fail jobs ({failed} failures)"
    );

    // One daemon, start to finish: same pid, and the startup banner
    // appears exactly once in its narration.
    assert_eq!(daemon.child.id(), daemon_pid);
    let text = daemon.stdout_text();
    assert_eq!(
        text.matches("pmserve: cluster on ").count(),
        1,
        "daemon restarted?\n{text}"
    );

    let exit = daemon.sigterm_and_wait();
    assert_eq!(exit, 0, "graceful drain exits 0");
}

/// A launched rank is a launched rank, whichever launcher started it:
/// `resilience/respawn` under a self-managed daemon must not take the
/// in-process kill-and-restart path, so its job output equals a
/// single-shot `pmrun -np 3` transcript (as a line multiset, with the
/// soak's blank-line and `pmrun:` filtering).
#[test]
fn respawn_under_pmserve_prints_the_pmrun_transcript() {
    let reference = {
        let out = Command::new(PMRUN)
            .args([
                "-np",
                "3",
                "--timeout",
                "120",
                PATTERNLETS,
                "resilience/respawn",
            ])
            .stderr(Stdio::null())
            .output()
            .expect("pmrun runs");
        assert!(out.status.success(), "reference pmrun failed");
        let text = String::from_utf8(out.stdout).expect("utf-8");
        let mut lines: Vec<String> = text
            .trim_end_matches('\n')
            .lines()
            .filter(|l| !l.starts_with("pmrun:") && !l.is_empty())
            .map(str::to_string)
            .collect();
        lines.sort();
        lines
    };

    let daemon = DaemonProc::start(&["--workers", "3", "--quiet"]);
    daemon.wait_live(3);
    let job = client::submit(&daemon.http, &spec("resilience/respawn", 3, None)).unwrap();
    let status = wait_terminal(&daemon.http, job);
    assert_eq!(status.status, "completed", "{:?}", status.error);
    let lines: Vec<String> = sorted_output(&daemon.http, job)
        .into_iter()
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(
        lines, reference,
        "resilience/respawn under pmserve differs from single-shot pmrun"
    );
    assert_eq!(daemon.sigterm_and_wait(), 0, "graceful drain exits 0");
}
