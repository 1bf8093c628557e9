//! The `patternlets` CLI — the classroom driver.
//!
//! ```text
//! patternlets list [--tech omp|mpi|threads|hetero|resilience|stream]
//! patternlets show <name>
//! patternlets run <name> [-n TASKS] [--on|--off] [--kill RANK]
//!                        [--trace FILE] [--timeline] [--counters]
//!                        [--metrics]
//! patternlets analyze <TRACE.json> [--json]
//! patternlets coverage
//! ```
//!
//! `run` echoes the live interleaving, exactly like watching the paper's
//! live-coding demos; `--on` flips the patternlet's directive (the
//! "uncomment and recompile" move, without the recompile); `--kill`
//! picks the victim rank for the `resilience/` family. `--trace FILE`
//! writes the run's event stream as Chrome-trace JSON (open in
//! `chrome://tracing` or Perfetto), `--timeline` prints a per-rank text
//! timeline, and `--counters` prints per-rank message/worksharing totals
//! from the run's metrics hub. `--metrics` records quantitative
//! counters/histograms and prints the end-of-run summary table; under
//! `pmrun --metrics-port`, the job context turns metrics on automatically
//! and streams snapshots to the launcher.
//!
//! `analyze` rebuilds the happened-before DAG from a trace file (a
//! single rank's export or a `pmrun --trace` merge) and reports the
//! critical path, per-rank compute/blocked/barrier breakdown, and the
//! run's causal message depth.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use patternlets::harness::{Mode, Patternlet, RunConfig, Technology};
use patternlets::registry::{by_technology, census, find, registry};
use patternlets_core::capture::Output;
use patternlets_metrics::{render_counters, render_summary, MetricsHub, MetricsSnapshot};
use patternlets_mp::Comm;
use patternlets_net::JobCtx;
use patternlets_serve::{Assignment, JobLineSink};
use patternlets_trace::{chrome, timeline, Trace, Tracer};

fn main() -> ExitCode {
    // Under `pmrun` this process is one rank of a multi-process world:
    // install the fabric provider before any patternlet builds a world.
    let job = match patternlets_net::install_from_env() {
        Ok(job) => job,
        Err(e) => {
            eprintln!("pmrun environment rejected: {e}");
            return ExitCode::FAILURE;
        }
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A hidden harness's positional numbers.
    let arg = |i: usize, default| args.get(i).and_then(|v| v.parse().ok()).unwrap_or(default);
    match args.first().map(String::as_str) {
        Some("list") => {
            let tech = args.iter().position(|a| a == "--tech").and_then(|i| {
                args.get(i + 1).and_then(|t| match t.as_str() {
                    "omp" => Some(Technology::Omp),
                    "mpi" => Some(Technology::Mpi),
                    "threads" => Some(Technology::Threads),
                    "hetero" => Some(Technology::Hetero),
                    "resilience" => Some(Technology::Resilience),
                    "stream" => Some(Technology::Stream),
                    _ => None,
                })
            });
            list(tech);
            ExitCode::SUCCESS
        }
        Some("show") => match args.get(1).and_then(|n| find(n)) {
            Some(p) => {
                show(p);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown patternlet; try `patternlets list`");
                ExitCode::FAILURE
            }
        },
        Some("run") => match args.get(1).and_then(|n| find(n)) {
            Some(p) => run_patternlet(p, &args, job.as_ref()),
            None => {
                eprintln!("unknown patternlet; try `patternlets list`");
                ExitCode::FAILURE
            }
        },
        Some("coverage") => {
            coverage();
            ExitCode::SUCCESS
        }
        // Critical-path analysis of a trace file written by `run --trace`
        // or `pmrun --trace`.
        Some("analyze") => match args.get(1) {
            Some(path) => analyze_cmd(path, args.iter().any(|a| a == "--json")),
            None => {
                eprintln!("usage: patternlets analyze <TRACE.json> [--json]");
                ExitCode::FAILURE
            }
        },
        // Elastic-cluster mode: join a pmserve daemon's worker pool and
        // run assigned patternlets until the daemon shuts us down.
        Some("worker") => match args.get(1) {
            Some(addr) => worker_mode(addr),
            None => {
                eprintln!("usage: patternlets worker <cluster-addr>  (printed by pmserve)");
                ExitCode::FAILURE
            }
        },
        // Thin client for the pmserve HTTP gateway.
        Some("submit") => submit_cmd(&args[1..]),
        Some("figures") => {
            figures();
            ExitCode::SUCCESS
        }
        // Hidden harness for pmrun's failure-path tests: rank `victim`
        // stalls inside an established world (a sitting duck for
        // `--kill-worker`) while the survivors block on a receive from
        // it, then recover: the death surfaces as RankFailed, and the
        // survivors agree and shrink around the hole.
        Some("__net-stall") => net_stall(arg(1, 4), arg(2, 0), arg(3, 30_000) as u64, job.as_ref()),
        // Hidden harness for the wire-chaos soak: sustained ring traffic
        // so a `--net-chaos` plan gets past its grace period and actually
        // cuts/corrupts connections, while the checksum proves the
        // reconnect/resume machinery delivered everything exactly once.
        Some("__net-soak") => net_soak(arg(1, 4), arg(2, 200) as u64, job.as_ref()),
        // A bare patternlet name is an implicit `run`, so launcher lines
        // read like real mpirun: `pmrun -np 4 patternlets mpi/broadcast`.
        Some(name) if find(name).is_some() => {
            run_patternlet(find(name).expect("just found"), &args, job.as_ref())
        }
        _ => {
            eprintln!(
                "usage: patternlets <list|show|run|analyze|coverage|figures|worker|submit> [name] \
                 [-n TASKS] [--on] [--kill RANK] [--trace FILE] [--timeline] [--counters] \
                 [--metrics]\n\
                 \x20      analyze <TRACE.json>    critical-path report for a captured trace\n\
                 \x20      worker <cluster-addr>   join a pmserve daemon's worker pool\n\
                 \x20      submit <name> [...]     submit a job to a pmserve HTTP gateway"
            );
            ExitCode::FAILURE
        }
    }
}

/// Body of `patternlets analyze`: load a Chrome-trace export and print
/// the critical-path report (text by default, the JSON document with
/// `--json`).
fn analyze_cmd(path: &str, json: bool) -> ExitCode {
    let contents = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("patternlets analyze: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match patternlets_trace::analyze::from_chrome_json(&contents) {
        Ok(analysis) => {
            if json {
                println!("{}", analysis.to_json());
            } else {
                print!("{}", analysis.render_text());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("patternlets analyze: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One rank's run of a patternlet: the body the CLI, `pmrun` and
/// `pmserve` share. It prints the rank-0 banner, builds the
/// [`RunConfig`] with the caller's output and hub (and a tracer when
/// asked), runs the patternlet, and makes the clock-anchored Chrome
/// export. Only the sinks differ by launcher: stdout, a trace file and
/// the [`LauncherMetrics`] report connection for `run_patternlet`; the
/// worker's control connection and the returned snapshot for
/// `worker_mode`. Either way the trace goes out as `sink.trace(json)`.
struct RankRun<'a> {
    p: &'a Patternlet,
    tasks: usize,
    mode: Mode,
    kill: Option<usize>,
    /// Whether this rank prints the per-run chrome (banner, trailing
    /// blank line): rank 0 of a launched job, or an unlaunched run.
    chatty: bool,
    output: Output,
    hub: Option<MetricsHub>,
    traced: bool,
}

impl RankRun<'_> {
    /// Run the patternlet, printing the per-run chrome through `say`.
    /// Returns the drained trace and its Chrome export, when traced.
    fn run(self, say: impl Fn(&str)) -> Option<(Trace, String)> {
        if self.chatty {
            let directive = if self.mode.is_on() {
                "ON"
            } else {
                "OFF (initial)"
            };
            let (name, tasks) = (self.p.name, self.tasks);
            say(&format!(
                "=== {name} ({tasks} tasks, directive {directive}) ==="
            ));
            say("");
        }
        let mut cfg = RunConfig::new(self.tasks, self.mode).with_kill(self.kill);
        cfg.output = self.output;
        cfg.metrics = self.hub;
        let tracer = self.traced.then(Tracer::new);
        if let Some(t) = &tracer {
            cfg = cfg.with_tracer(t.clone());
        }
        (self.p.run)(&cfg);
        if self.chatty {
            say("");
        }
        let tracer = tracer?;
        let trace = tracer.drain();
        // The tracer origin as a wall-clock anchor, corrected by this
        // rank's estimated clock offset to rank 0, so a multi-process
        // merge can align independently started processes.
        let base = tracer
            .origin_unix_ns()
            .saturating_add_signed(patternlets_net::clock_offset_ns());
        let json = chrome::to_chrome_json_with_base(&trace, base);
        Some((trace, json))
    }
}

/// The registry-backed job runner for `patternlets worker`: each
/// assignment is a [`RankRun`], like the CLI's `run`, with metrics always
/// on so the daemon's fleet totals are complete. Output goes line-wise
/// to the daemon instead of stdout; a traced assignment ships its export
/// back, and the daemon merges all ranks at `/jobs/:id/trace`.
fn worker_mode(addr: &str) -> ExitCode {
    let runner = |assign: &Assignment, lines: &JobLineSink| -> Result<MetricsSnapshot, String> {
        let Some(p) = find(&assign.patternlet) else {
            return Err(format!(
                "unknown patternlet {:?}; try `patternlets list`",
                assign.patternlet
            ));
        };
        let hub = MetricsHub::new();
        let rank = RankRun {
            p,
            tasks: assign.np,
            mode: if assign.on { Mode::On } else { Mode::Off },
            kill: None,
            chatty: assign.rank == 0,
            output: Output::echoing_to(lines.clone().into_line_writer()),
            hub: Some(hub.clone()),
            traced: assign.trace,
        };
        if let Some((_, json)) = rank.run(|line| lines.line(line)) {
            lines.trace(&json);
        }
        Ok(hub.snapshot())
    };
    match patternlets_serve::run_worker(addr, runner) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("patternlets worker: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `patternlets submit NAME [--addr HOST:PORT] [-n NP] [--on]
/// [--chaos SPEC] [--retries N] [--traced] [--detach]` — submit to a
/// pmserve gateway and (unless detached) stream the job's output back
/// live. `--traced` asks the daemon to capture an execution trace
/// (fetch it from `/jobs/:id/trace`, the report from
/// `/jobs/:id/analysis`).
fn submit_cmd(args: &[String]) -> ExitCode {
    let Some(name) = args.first().filter(|a| !a.starts_with('-')) else {
        eprintln!(
            "usage: patternlets submit <name> [--addr HOST:PORT] [-n NP] [--on] \
             [--chaos SPEC] [--retries N] [--traced] [--detach]\n\
             (the gateway address may also come from ${})",
            patternlets_serve::client::ENV_GATEWAY
        );
        return ExitCode::FAILURE;
    };
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let Some(addr) = flag_value("--addr")
        .cloned()
        .or_else(|| std::env::var(patternlets_serve::client::ENV_GATEWAY).ok())
    else {
        eprintln!(
            "patternlets submit: no gateway address (pass --addr HOST:PORT or set ${})",
            patternlets_serve::client::ENV_GATEWAY
        );
        return ExitCode::FAILURE;
    };
    let spec = patternlets_serve::SubmitSpec {
        patternlet: name.clone(),
        np: flag_value("-n")
            .or_else(|| flag_value("--tasks"))
            .and_then(|v| v.parse().ok())
            .unwrap_or(4),
        on: args.iter().any(|a| a == "--on"),
        chaos: flag_value("--chaos").cloned().unwrap_or_default(),
        retries: flag_value("--retries").and_then(|v| v.parse().ok()),
        trace: args.iter().any(|a| a == "--traced"),
    };
    let job = match patternlets_serve::client::submit(&addr, &spec) {
        Ok(job) => job,
        Err(e) => {
            eprintln!("patternlets submit: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "submitted job {job} ({} np={}) to {addr}",
        spec.patternlet, spec.np
    );
    if args.iter().any(|a| a == "--detach") {
        println!("{job}");
        return ExitCode::SUCCESS;
    }
    let mut stdout = std::io::stdout();
    if let Err(e) = patternlets_serve::client::stream_output(&addr, job, &mut stdout) {
        eprintln!("patternlets submit: {e}");
        return ExitCode::FAILURE;
    }
    match patternlets_serve::client::wait(&addr, job, std::time::Duration::from_millis(50)) {
        Ok(status) if status.status == "completed" => {
            eprintln!("job {job} completed");
            ExitCode::SUCCESS
        }
        Ok(status) => {
            eprintln!(
                "job {job} {}: {}",
                status.status,
                status.error.unwrap_or_else(|| "(no detail)".into())
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("patternlets submit: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_patternlet(p: &Patternlet, args: &[String], job: Option<&JobCtx>) -> ExitCode {
    let value = |flags: &[&str]| {
        let i = args.iter().position(|a| flags.contains(&a.as_str()))?;
        args.get(i + 1)
    };
    let flag = |name: &str| args.iter().any(|a| a == name);
    let trace_file = value(&["--trace"]);
    let report_trace = job.filter(|j| j.report_trace);
    // `--counters` and `--metrics` each ask for an end-of-run table.
    let (want_timeline, want_counters, want_metrics) =
        (flag("--timeline"), flag("--counters"), flag("--metrics"));
    // Under pmrun every rank runs this same code; per-run chrome (the
    // banner, trailing blank line, trace summaries) comes from rank 0
    // alone so the launcher's aggregate output stays readable.
    let chatty = job.is_none_or(|j| j.rank == 0);
    let metrics = LauncherMetrics::start(want_counters || want_metrics, job);
    let run = RankRun {
        p,
        tasks: value(&["-n", "--tasks"])
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| job.map_or(4, |j| j.np)),
        mode: if flag("--on") { Mode::On } else { Mode::Off },
        kill: value(&["--kill"]).and_then(|v| v.parse().ok()),
        chatty,
        output: Output::echoing(),
        hub: metrics.hub.clone(),
        traced: trace_file.is_some() || report_trace.is_some() || want_timeline,
    };
    if let Some((trace, json)) = run.run(|line| println!("{line}")) {
        // The launcher merges every rank's export into one aligned
        // timeline.
        if let Some(sink) = report_trace.and_then(|j| metrics.sink.clone().or_else(|| report_to(j)))
        {
            sink.trace(&json);
        }
        if let Some(path) = trace_file {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("failed to write trace to {path}: {e}");
                return ExitCode::FAILURE;
            }
            if chatty {
                println!(
                    "wrote {} trace events to {path} (open in chrome://tracing or Perfetto)",
                    trace.events.len()
                );
            }
        }
        if want_timeline && chatty {
            // Under a launcher each lane is a world rank of a
            // multi-process run, not an anonymous local lane — label it
            // with that identity.
            match job {
                Some(_) => println!(
                    "{}",
                    timeline::render_with_labels(&trace, |lane| format!("rank {lane}"))
                ),
                None => println!("{}", timeline::render(&trace)),
            }
        }
    }
    // A launched rank's hub holds its own lanes only: pmrun prints the
    // tables from every rank's merged reports.
    if let Some(hub) = metrics.finish().filter(|_| job.is_none()) {
        let snap = hub.snapshot();
        if want_counters {
            print!("{}", render_counters(&snap));
        }
        if want_metrics {
            println!("{}", render_summary(&snap));
        }
    }
    ExitCode::SUCCESS
}

/// This rank's report connection to its launcher's rendezvous listener
/// (job 0: a `pmrun` job is its launcher's only one).
fn report_to(job: &JobCtx) -> Option<JobLineSink> {
    JobLineSink::connect(&job.rendezvous, 0, job.rank)
        .map_err(|e| eprintln!("rank {}: cannot report to the launcher: {e}", job.rank))
        .ok()
}

/// The launcher-metrics hookup every run body shares. A hub is on when
/// the caller wants the end-of-run table or when the job asks for metrics
/// (`pmrun --metrics-port`/`--status`). Then the rank opens its report
/// connection, sends a first snapshot at once, and a thread sends
/// cumulative snapshots on a cadence, then once more at
/// [`LauncherMetrics::finish`], so the launcher ends with the final
/// totals.
struct LauncherMetrics {
    hub: Option<MetricsHub>,
    /// The report connection, when the job asks for metrics.
    sink: Option<JobLineSink>,
    /// The pusher's stop flag and thread.
    pusher: Option<(Arc<AtomicBool>, std::thread::JoinHandle<()>)>,
}

impl LauncherMetrics {
    const TICK: Duration = Duration::from_millis(25);
    const TICKS_PER_PUSH: u32 = 8; // ~200ms between pushes

    fn start(want: bool, job: Option<&JobCtx>) -> Self {
        let job = job.filter(|j| j.report_metrics);
        let hub = (want || job.is_some()).then(MetricsHub::new);
        let sink = job.and_then(report_to);
        let pusher = sink.clone().zip(hub.clone()).map(|(sink, hub)| {
            // The listener reads a new connection's first frame before it
            // accepts the next one, so the first report goes now.
            sink.metrics(&hub.snapshot());
            let stop = Arc::new(AtomicBool::new(false));
            let stopped = Arc::clone(&stop);
            let thread = std::thread::spawn(move || {
                let mut ticks = 0;
                while !stopped.load(Ordering::SeqCst) {
                    std::thread::sleep(Self::TICK);
                    ticks += 1;
                    if ticks % Self::TICKS_PER_PUSH == 0 {
                        sink.metrics(&hub.snapshot());
                    }
                }
                sink.metrics(&hub.snapshot());
            });
            (stop, thread)
        });
        LauncherMetrics { hub, sink, pusher }
    }

    /// Send the final snapshot, when pushing; returns the hub.
    fn finish(self) -> Option<MetricsHub> {
        if let Some((stop, thread)) = self.pusher {
            stop.store(true, Ordering::SeqCst);
            let _ = thread.join();
        }
        self.hub
    }
}

/// The world of a hidden harness: `np` ranks re-checking liveness every
/// 2 ms, recording into the launcher's metrics collector like a real
/// patternlet.
fn harness_world(np: usize, job: Option<&JobCtx>, body: impl Fn(&RunConfig, Comm) + Sync) {
    let metrics = LauncherMetrics::start(false, job);
    let mut cfg = RunConfig::echoing(np, Mode::Off);
    cfg.metrics = metrics.hub.clone();
    cfg.world(np)
        .poll_interval(Duration::from_millis(2))
        .run(|comm| body(&cfg, comm))
        .expect("world config is valid");
    metrics.finish();
}

/// Body of the hidden `__net-stall` subcommand (see `main`). Survivor
/// output is asserted by `tests/pmrun.rs`; exit is clean so any non-zero
/// job status is attributable to the killed worker alone.
fn net_stall(np: usize, victim: usize, stall_ms: u64, job: Option<&JobCtx>) -> ExitCode {
    use patternlets_core::Error;
    // This harness is the one deliberately long-lived job, so it's what
    // `pmrun --status` tests watch live.
    harness_world(np, job, |cfg, comm| {
        let sink = cfg.sink(comm.rank());
        if comm.rank() == victim {
            sink.println(format!("rank {victim}: stalling, ready to be killed"));
            std::thread::sleep(Duration::from_millis(stall_ms));
            let _ = comm.send_one(1u64, (victim + 1) % np, 7);
        } else {
            match comm.recv_one::<u64>(victim, 7) {
                Err(Error::RankFailed { rank, .. }) => sink.println(format!(
                    "rank {}: death of rank {rank} surfaced as RankFailed",
                    comm.rank()
                )),
                Ok(_) => sink.println(format!("rank {}: victim outlived the stall", comm.rank())),
                Err(e) => sink.println(format!("rank {}: unexpected error: {e}", comm.rank())),
            }
            match comm.shrink() {
                Ok(sub) => {
                    if sub.is_master() {
                        sink.println(format!("shrink: {} of {np} ranks survive", sub.size()));
                    }
                }
                Err(_) => {
                    sink.println(format!("rank {}: excluded from shrink", comm.rank()));
                }
            }
        }
    });
    ExitCode::SUCCESS
}

/// Body of the hidden `__net-soak` subcommand (see `main`): `rounds`
/// laps of a message ring (every rank sends to its right neighbour and
/// receives from its left) punctuated by an occasional allreduce. The
/// point is volume — enough sequenced frames per connection that a
/// seeded `--net-chaos` plan fires repeatedly — and the final checksum
/// is computed twice (once from what arrived, once from first
/// principles), so the "ok" line certifies exactly-once delivery through
/// every cut, truncation, and corruption along the way.
fn net_soak(np: usize, rounds: u64, job: Option<&JobCtx>) -> ExitCode {
    use patternlets_core::reduce::ops;
    const ELEMS: u64 = 16;
    harness_world(np, job, |cfg, comm| {
        let sink = cfg.sink(comm.rank());
        let np = comm.size() as u64;
        let rank = comm.rank() as u64;
        let next = ((rank + 1) % np) as usize;
        let prev = ((rank + np - 1) % np) as usize;
        let mut sum: u64 = 0;
        for round in 0..rounds {
            let payload: Vec<u64> = (0..ELEMS).map(|i| round * 31 + rank * 7 + i).collect();
            comm.send(&payload, next, 11).expect("soak send");
            let (data, _) = comm.recv::<u64>(prev, 11).expect("soak recv");
            sum += data.iter().sum::<u64>();
            if round % 64 == 63 {
                sum = comm.allreduce(&[sum], &ops::Max).expect("soak allreduce")[0];
            }
        }
        let total = comm.allreduce(&[sum], &ops::Sum).expect("soak total")[0];
        if comm.is_master() {
            // What rank r received is rank r-1's stream; summed over
            // all ranks that is every rank's own stream once, so the
            // expected grand total needs no knowledge of routing —
            // modulo the periodic Max folds, which replace each
            // rank's partial sum with the round's maximum. Replaying
            // the same folds over per-rank reference sums gives the
            // exact expectation.
            let mut expect: Vec<u64> = vec![0; np as usize];
            for round in 0..rounds {
                for (r, e) in expect.iter_mut().enumerate() {
                    let from = (r as u64 + np - 1) % np;
                    *e += (0..ELEMS).map(|i| round * 31 + from * 7 + i).sum::<u64>();
                }
                if round % 64 == 63 {
                    let max = *expect.iter().max().expect("np >= 1");
                    expect.iter_mut().for_each(|e| *e = max);
                }
            }
            let expect: u64 = expect.iter().sum();
            let verdict = if total == expect { "ok" } else { "MISMATCH" };
            sink.println(format!(
                "net soak: {rounds} rounds x {np} ranks {verdict} (sum {total}, expected {expect})"
            ));
        }
    });
    ExitCode::SUCCESS
}

fn list(tech: Option<Technology>) {
    let items = match tech {
        Some(t) => by_technology(t),
        None => registry().to_vec(),
    };
    for p in &items {
        println!("{:32} [{}] {}", p.name, p.patterns.join(", "), p.summary);
    }
    let c = census();
    println!(
        "\n{} patternlets: {} MPI, {} OpenMP, {} threads, {} heterogeneous, {} resilience, \
         {} stream",
        registry().len(),
        c.get(&Technology::Mpi).unwrap_or(&0),
        c.get(&Technology::Omp).unwrap_or(&0),
        c.get(&Technology::Threads).unwrap_or(&0),
        c.get(&Technology::Hetero).unwrap_or(&0),
        c.get(&Technology::Resilience).unwrap_or(&0),
        c.get(&Technology::Stream).unwrap_or(&0),
    );
}

fn show(p: &patternlets::harness::Patternlet) {
    println!("name:      {}", p.name);
    println!("tech:      {}", p.technology.label());
    println!("patterns:  {}", p.patterns.join(", "));
    if !p.figures.is_empty() {
        println!("figures:   {}", p.figures.join(", "));
    }
    println!("summary:   {}", p.summary);
    println!("\nexercise:\n  {}", p.exercise);
}

fn figures() {
    println!("paper figure -> patternlet (run both modes to see the figure pair):\n");
    for p in registry() {
        if !p.figures.is_empty() {
            println!("{:14} {}", p.figures.join(", "), p.name);
        }
    }
}

fn coverage() {
    for cat in patternlets_catalog::catalogs() {
        let demos: Vec<(&str, &[&str])> = registry().iter().map(|p| (p.name, p.patterns)).collect();
        let report = patternlets_catalog::coverage_report(&cat, &demos);
        println!(
            "{}: {}/{} patterns covered ({:.0}%)",
            report.catalog,
            report.covered_count(),
            report.total_patterns,
            report.fraction() * 100.0
        );
        for (pattern, lets) in &report.covered {
            println!("  {:36} {}", pattern, lets.join(", "));
        }
        println!();
    }
}
