//! `pmrun` — the multi-process launcher, this repo's `mpirun`.
//!
//! ```text
//! pmrun -np 4 patternlets mpi/broadcast
//! pmrun -np 4 --trace merged.json patternlets mpi/reduction
//! pmrun -np 4 --kill-worker 2:150 patternlets resilience/shrink
//! ```
//!
//! `pmrun` starts a rendezvous server, spawns `-np` copies of the worker
//! program with `PMRUN_RANK`/`PMRUN_NP`/`PMRUN_RENDEZVOUS` set, and
//! aggregates their output. Workers (the `patternlets` binary) install
//! the TCP fabric from that environment, so every world the program
//! builds runs as real OS processes over loopback sockets — the same
//! patternlet source, recompiled by nobody.
//!
//! Each worker's stdout is forwarded line-wise through the repo's
//! capture layer, so concurrent ranks can interleave *lines* but never
//! tear one mid-text — the honest cross-process analogue of the paper's
//! "run it again, the order changed" demos. `--trace FILE` has every
//! rank send its own Chrome-trace JSON back, then merges them into one
//! timeline with a process lane per rank.
//!
//! `--kill-worker RANK:MS` SIGKILLs one worker mid-run: the survivors
//! see the death as `Error::RankFailed` and — for the `resilience/`
//! family — agree/shrink around it, while `pmrun` exits non-zero with a
//! per-rank report. `--timeout SECS` bounds the whole job for CI.
//!
//! The workers are run by `patternlets_serve::supervise::Supervisor`,
//! the one supervisor `pmserve` runs its local workers with: it owns
//! every worker's `Child`, and each 10 ms tick reaps the workers that
//! exited, starts the respawns that are due and applies the signal
//! policy. `--timeout` is its deadline. pmrun checks its own due times,
//! the `--kill-worker` time and the next `--status` draw, on the same
//! tick. The first SIGINT/SIGTERM drains: no respawn starts, the job
//! runs out, and pmrun exits 0. A second one kills the job, as the
//! deadline does, and the job fails.
//!
//! `--net-chaos SEED` arms the wire-level fault injector in every
//! worker: outgoing socket batches are deterministically cut, truncated
//! and bit-flipped (see `patternlets_net::chaos`), exercising the
//! fabric's reconnect/resume machinery while the job still must produce
//! its normal output.
//!
//! `--respawn N` is the supervisor's budget: up to N times per job, a
//! worker that dies (crash, SIGKILL) is restarted in place, after a
//! backoff that doubles with each restart of its rank. The respawned
//! process gets `PMRUN_EPOCH_BASE` set to the respawn ordinal,
//! so its first world rendezvouses at the same epoch as the retry world
//! the survivors build after the failure, and `PMRUN_CKPT_DIR` points at
//! a per-job checkpoint directory so the restarted rank can resume from
//! its last completed step instead of from scratch.
//!
//! `--metrics-port P` turns every worker's metrics hub on and serves the
//! merged counters as Prometheus text on `http://127.0.0.1:P/metrics`
//! (`P = 0` picks an ephemeral port and prints it); workers send
//! cumulative snapshots while the job runs, so a scrape mid-run sees
//! live numbers. Reports reach the rendezvous listener as pmserve's
//! `JobMetrics`/`JobTrace` frames, and every last one is read before the
//! job is judged. `--metrics-linger MS` keeps the
//! endpoint up that long after the job ends (for post-run scrapes);
//! `--status` redraws a live per-rank metrics table on stderr instead
//! of (or alongside) the HTTP endpoint. When the program's own arguments
//! ask for `--counters` or `--metrics`, the ranks report too and `pmrun`
//! prints that table once, from every rank's merged reports, after the
//! last report connection closes.

use std::io::{BufRead, BufReader, IsTerminal, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use patternlets_core::capture::Output;
use patternlets_metrics::{render_counters, render_prometheus, render_summary};
use patternlets_net::chaos::NetChaosPlan;
use patternlets_net::frame::{read_frame, write_frame, Frame};
use patternlets_net::shm::FabricMode;
use patternlets_net::{rendezvous, JobCtx};
use patternlets_serve::http;
use patternlets_serve::job::Reports;
use patternlets_serve::supervise::{sibling_program, Event, Kill, Supervisor};
use patternlets_trace::chrome;

struct Opts {
    np: usize,
    /// `--kill-worker RANK:MS`: SIGKILL worker RANK after MS milliseconds.
    kill_worker: Option<(usize, u64)>,
    /// `--trace FILE`: merge per-rank Chrome traces into FILE.
    trace: Option<String>,
    /// `--timeout SECS`: kill the whole job if it runs longer than this.
    timeout: Option<u64>,
    /// `--metrics-port P`: serve merged Prometheus text on this port
    /// (0 = ephemeral; the bound address is printed either way).
    metrics_port: Option<u16>,
    /// `--metrics-linger MS`: keep the metrics endpoint up this long
    /// after the workers exit.
    metrics_linger: u64,
    /// `--status`: redraw a live per-rank metrics table on stderr.
    status: bool,
    /// `--net-chaos SEED`: arm the workers' wire-level fault injector.
    net_chaos: Option<u64>,
    /// `--respawn N`: restart up to N dead workers (job-wide budget).
    respawn: usize,
    /// `--fabric auto|tcp|shm`: worker transport (default auto — mmap
    /// rings when every rank is co-located, TCP otherwise).
    fabric: FabricMode,
    program: String,
    program_args: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: pmrun -np N [--kill-worker RANK:MS] [--trace FILE] [--timeout SECS] \
         [--metrics-port P] [--metrics-linger MS] [--status] \
         [--net-chaos SEED] [--respawn N] [--fabric auto|tcp|shm] \
         <program> [args...]\n\n\
         example: pmrun -np 4 patternlets mpi/broadcast"
    );
    ExitCode::FAILURE
}

fn parse(args: &[String]) -> Option<Opts> {
    let mut np = None;
    let mut kill_worker = None;
    let mut trace = None;
    let mut timeout = None;
    let mut metrics_port = None;
    let mut metrics_linger = 0;
    let mut status = false;
    let mut net_chaos = None;
    let mut respawn = 0;
    let mut fabric = FabricMode::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-np" | "-n" | "--np" => {
                np = args.get(i + 1)?.parse().ok();
                i += 2;
            }
            "--kill-worker" => {
                let (rank, ms) = args.get(i + 1)?.split_once(':')?;
                kill_worker = Some((rank.parse().ok()?, ms.parse().ok()?));
                i += 2;
            }
            "--trace" => {
                trace = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            "--timeout" => {
                timeout = Some(args.get(i + 1)?.parse().ok()?);
                i += 2;
            }
            "--metrics-port" => {
                metrics_port = Some(args.get(i + 1)?.parse().ok()?);
                i += 2;
            }
            "--metrics-linger" => {
                metrics_linger = args.get(i + 1)?.parse().ok()?;
                i += 2;
            }
            "--status" => {
                status = true;
                i += 1;
            }
            "--net-chaos" => {
                net_chaos = Some(args.get(i + 1)?.parse().ok()?);
                i += 2;
            }
            "--respawn" => {
                respawn = args.get(i + 1)?.parse().ok()?;
                i += 2;
            }
            "--fabric" => {
                fabric = FabricMode::parse(args.get(i + 1)?)?;
                i += 2;
            }
            _ => break,
        }
    }
    let program = args.get(i)?.clone();
    Some(Opts {
        np: np?,
        kill_worker,
        trace,
        timeout,
        metrics_port,
        metrics_linger,
        status,
        net_chaos,
        respawn,
        fabric,
        program,
        program_args: args[i + 1..].to_vec(),
    })
}

/// Keep the reports of a rank's report connection, whose first frame the
/// rendezvous listener read, until the rank exits: on a thread in `readers`.
fn take_reports(
    reports: &Arc<Reports>,
    readers: &Mutex<Vec<std::thread::JoinHandle<()>>>,
    first: Frame,
    mut conn: TcpStream,
) {
    if !reports.store(first) {
        return;
    }
    let reports = Arc::clone(reports);
    readers.lock().push(std::thread::spawn(move || {
        // A rank reports until it exits, and its exit is the EOF.
        let _ = conn.set_read_timeout(None);
        while let Ok(Some(frame)) = read_frame(&mut conn) {
            reports.store(frame);
        }
    }));
}

/// Serve `GET /metrics` (any path, really) with Prometheus text
/// exposition format 0.0.4, on `serve::http`'s server loop. Returns the
/// actually-bound port.
fn serve_http(reports: Arc<Reports>, port: u16) -> std::io::Result<u16> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let bound = listener.local_addr()?.port();
    http::serve(listener, "pmrun-metrics", move |stream, _| {
        let body = render_prometheus(&reports.metrics().1);
        http::respond(
            stream,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            body.as_bytes(),
        )
    })?;
    Ok(bound)
}

/// Draw `--status`'s live per-rank metrics table on stderr, `last` being
/// the frame drawn before. On a TTY the previous frame is erased first;
/// elsewhere a frame is printed only when the numbers changed.
fn draw_status(reports: &Reports, last: &mut String) {
    let (reporting, merged) = reports.metrics();
    if merged.lanes.is_empty() {
        return;
    }
    let text = format!(
        "-- pmrun live metrics ({reporting} ranks reporting) --\n{}",
        render_summary(&merged)
    );
    if text == *last {
        return;
    }
    let mut err = std::io::stderr().lock();
    if !last.is_empty() && err.is_terminal() {
        // Cursor up over the previous frame, then erase below.
        let _ = write!(err, "\x1b[{}A\x1b[J", last.lines().count() + 1);
    }
    let _ = writeln!(err, "{text}");
    *last = text;
}

/// Everything needed to (re)spawn one worker process — shared by the
/// initial launch and `--respawn` restarts so both build the identical
/// environment.
struct SpawnCtx {
    program: String,
    args: Vec<String>,
    /// Every rank's job; `spawn` fills in the rank and epoch base.
    job: JobCtx,
    stdout_log: Output,
    stderr_log: Output,
}

impl SpawnCtx {
    /// Spawn rank `rank` with `epoch_base` (0 for the initial launch, the
    /// job-wide respawn ordinal for restarts) and hook its output streams
    /// into the capture layer.
    fn spawn(
        &self,
        rank: usize,
        epoch_base: u64,
        forwarders: &mut Vec<std::thread::JoinHandle<()>>,
    ) -> std::io::Result<Child> {
        let mut job = self.job.clone();
        (job.rank, job.epoch_base) = (rank, epoch_base);
        let mut cmd = Command::new(&self.program);
        cmd.args(&self.args)
            .envs(job.env_vars())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let mut child = cmd.spawn()?;
        // Forward each worker stream line-wise through the capture layer:
        // one locked write per line, so ranks interleave but never tear.
        if let Some(stdout) = child.stdout.take() {
            let sink = self.stdout_log.sink(rank);
            forwarders.push(std::thread::spawn(move || {
                forward_lines(stdout, |line| sink.println(line));
            }));
        }
        if let Some(stderr) = child.stderr.take() {
            let sink = self.stderr_log.sink(rank);
            forwarders.push(std::thread::spawn(move || {
                forward_lines(stderr, |line| sink.println(format!("[rank {rank}] {line}")));
            }));
        }
        Ok(child)
    }
}

fn main() -> ExitCode {
    // SIGINT/SIGTERM only count; the supervisor applies the policy.
    patternlets_core::signals::install_termination_handler();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(opts) = parse(&args) else {
        return usage();
    };
    if opts.np == 0 {
        eprintln!("pmrun: -np must be at least 1");
        return ExitCode::FAILURE;
    }

    // Ranks report to the listener they rendezvous at. pmrun's own
    // `Shutdown`, sent once every rank has exited, is the last connection
    // it takes reports from.
    let reports = Arc::new(Reports::new(0, opts.np));
    let readers = Arc::new(Mutex::new(Vec::new()));
    let (closed, reports_closed) = std::sync::mpsc::channel();
    let rendezvous = {
        let (reports, readers) = (Arc::clone(&reports), Arc::clone(&readers));
        match rendezvous::serve_with(move |first, conn| match first {
            Frame::Shutdown => {
                let _ = closed.send(());
            }
            first => take_reports(&reports, &readers, first, conn),
        }) {
            Ok(addr) => addr.to_string(),
            Err(e) => {
                eprintln!("pmrun: cannot start rendezvous server: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if let Some(port) = opts.metrics_port {
        match serve_http(Arc::clone(&reports), port) {
            Ok(bound) => {
                println!("pmrun: serving metrics on http://127.0.0.1:{bound}/metrics");
            }
            Err(e) => {
                eprintln!("pmrun: cannot bind metrics port {port}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let chaos = opts.net_chaos.map(NetChaosPlan::seeded);
    let mut job = JobCtx::new(0, opts.np, rendezvous, 0, chaos);
    job.fabric = opts.fabric;
    job.report_trace = opts.trace.is_some();
    // A table the program is asked for is the world's, so pmrun prints
    // it from the reports.
    let program_flag = |flag: &str| opts.program_args.iter().any(|a| a == flag);
    let (want_counters, want_summary) = (
        program_flag("--counters"),
        program_flag("--metrics") || opts.metrics_port.is_some() || opts.status,
    );
    job.report_metrics = want_counters || want_summary;

    // `--respawn` needs somewhere for restarted ranks to find their last
    // checkpoint; one per-job scratch directory, removed after the run.
    job.ckpt_dir = (opts.respawn > 0)
        .then(|| std::env::temp_dir().join(format!("pmrun-ckpt-{}", std::process::id())));
    if let Some(dir) = &job.ckpt_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!(
                "pmrun: cannot create checkpoint directory {}: {e}",
                dir.display()
            );
            return ExitCode::FAILURE;
        }
    }

    // Where workers put their mmap ring segments under `--fabric
    // auto|shm`. Per-job and launcher-owned: removing it at exit is the
    // backstop that reclaims segments a SIGKILL'd worker never got to
    // hand over (segments are normally unlinked moments after establish).
    job.shm_dir = std::env::temp_dir().join(format!("pmrun-shm-{}", std::process::id()));
    let ctx = SpawnCtx {
        program: sibling_program(&opts.program),
        args: opts.program_args.clone(),
        job,
        stdout_log: Output::echoing(),
        stderr_log: Output::echoing_to(std::io::stderr()),
    };
    if let Some((victim, _)) = opts.kill_worker.filter(|&(victim, _)| victim >= opts.np) {
        eprintln!(
            "pmrun: --kill-worker rank {victim} out of range for -np {}",
            opts.np
        );
        return ExitCode::FAILURE;
    }
    // Supervise EVERY worker — deliberately including jobs where one was
    // killed: the survivors must get to finish their recovery (shrink,
    // reformed collectives) before the job is judged. The `--timeout`
    // kill is there for cross-process deadlocks, which no one process can
    // detect (DESIGN.md §7). With `--respawn`, the job is judged by each
    // rank's final incarnation.
    let mut forwarders = Vec::new();
    let spawn = |rank, epoch_base| ctx.spawn(rank, epoch_base, &mut forwarders);
    let mut workers = match Supervisor::launch(opts.np, opts.respawn, spawn) {
        Ok(workers) => workers,
        Err((rank, e)) => {
            eprintln!("pmrun: cannot spawn {} for rank {rank}: {e}", ctx.program);
            return ExitCode::FAILURE;
        }
    };
    let start = Instant::now();
    workers.deadline = opts.timeout.map(|secs| start + Duration::from_secs(secs));
    let mut kill_at = opts
        .kill_worker
        .map(|(victim, ms)| (victim, start + Duration::from_millis(ms)));
    let mut status = opts.status.then(|| (String::new(), start));
    let (mut drained, mut killed) = (false, None);
    while !workers.settled() {
        for event in workers.tick() {
            match event {
                Event::Ended(rank, how, Some((epoch_base, left))) => eprintln!(
                    "pmrun: rank {rank} {how} — respawning \
                     (epoch base {epoch_base}, {left} respawns left)"
                ),
                Event::Ended(..) => {}
                Event::Draining => {
                    drained = true;
                    eprintln!(
                        "pmrun: termination requested; draining the in-flight job \
                         (signal again to kill it)"
                    );
                }
                Event::Killed(kill) => {
                    if kill == Kill::Signal {
                        eprintln!("pmrun: second signal; killing the job");
                    }
                    killed = Some(kill);
                }
            }
        }
        let now = Instant::now();
        if let Some((victim, _)) = kill_at.filter(|&(_, at)| now >= at) {
            workers.kill(victim);
            kill_at = None;
        }
        if let Some((last, next)) = status.as_mut().filter(|(_, next)| now >= *next) {
            draw_status(&reports, last);
            *next = now + Duration::from_millis(400);
        }
    }
    let outcomes = workers.outcomes();
    for handle in forwarders {
        let _ = handle.join();
    }

    // Judge the job on every rank's last report. The listener accepts in
    // arrival order, so once it has taken this frame it has taken every
    // report connection, and those of exited ranks all end.
    let closing = TcpStream::connect(&ctx.job.rendezvous)
        .and_then(|mut conn| write_frame(&mut conn, &Frame::Shutdown));
    if closing.is_ok() {
        let _ = reports_closed.recv();
    }
    for reader in std::mem::take(&mut *readers.lock()) {
        let _ = reader.join();
    }

    if let Some(merged_path) = &opts.trace {
        // Every rank gets its lane, even when none sent a trace.
        let merged = reports
            .merged_trace()
            .unwrap_or_else(|| chrome::merge_chrome_json((0..opts.np).map(|rank| (rank, ""))));
        if let Err(e) = std::fs::write(merged_path, merged) {
            eprintln!("pmrun: cannot write merged trace to {merged_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "pmrun: wrote merged trace for {} ranks to {merged_path} \
             (open in chrome://tracing or Perfetto)",
            opts.np
        );
    }

    if ctx.job.report_metrics {
        let (reporting, merged) = reports.metrics();
        if want_counters {
            print!("{}", render_counters(&merged));
        }
        if want_summary && !merged.lanes.is_empty() {
            println!(
                "pmrun: metrics summary ({reporting} of {} ranks reported)\n{}",
                opts.np,
                render_summary(&merged)
            );
            let total_respawns: usize = outcomes.iter().map(|o| o.respawns).sum();
            if total_respawns > 0 {
                let per_rank: Vec<String> = (outcomes.iter().enumerate())
                    .filter(|(_, o)| o.respawns > 0)
                    .map(|(rank, o)| format!("rank {rank}: {}", o.respawns))
                    .collect();
                let per_rank = per_rank.join(", ");
                println!("  respawns: total={total_respawns} ({per_rank})");
            }
        }
        // Post-run scrapes (CI, the walkthrough's curl) need the endpoint
        // to outlive the workers for a moment.
        if opts.metrics_port.is_some() && opts.metrics_linger > 0 {
            println!(
                "pmrun: metrics endpoint lingering for {}ms",
                opts.metrics_linger
            );
            std::thread::sleep(Duration::from_millis(opts.metrics_linger));
        }
    }

    if let Some(dir) = &ctx.job.ckpt_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_dir_all(&ctx.job.shm_dir);

    if killed == Some(Kill::Deadline) {
        eprintln!(
            "pmrun: job exceeded --timeout {}s and was killed",
            opts.timeout.unwrap_or(0)
        );
    }
    // An operator-initiated drain is a clean shutdown, not a job
    // failure: whatever the workers' outcomes, the contract is "drain,
    // summarize, exit 0", with the ranks that failed listed. (A kill —
    // past the timeout, or on a second signal — still fails.)
    let failed = outcomes.iter().filter(|o| !o.ok).count();
    let drained = drained && killed.is_none();
    if drained {
        println!("pmrun: drained after termination request");
    } else if failed > 0 || killed.is_some() {
        eprintln!(
            "pmrun: job failed ({failed} of {} workers unsuccessful)",
            opts.np
        );
    }
    if failed > 0 || killed.is_some() {
        for (rank, outcome) in outcomes.iter().enumerate() {
            let mark = if outcome.ok { "" } else { "  <-- failed" };
            eprintln!("  rank {rank}: {}{mark}", outcome.how);
        }
    }
    if drained || failed == 0 && killed.is_none() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Forward one child stream line-by-line until EOF (the child exited).
fn forward_lines(stream: impl Read, mut emit: impl FnMut(String)) {
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        match line {
            Ok(line) => emit(line),
            Err(_) => return,
        }
    }
}
