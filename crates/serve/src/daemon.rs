//! The `pmserve` daemon: two listeners and a scheduler.
//!
//! ```text
//!                    ┌──────────────────────────────────────────┐
//!   curl / submit ──▶│ HTTP gateway (pooled connection threads) │
//!                    │   POST /jobs   GET /jobs/:id[/output]    │
//!                    │   GET /metrics GET /workers POST /shutdown│
//!                    └───────┬──────────────────────────────────┘
//!                            │ Event::Submitted / Drain
//!                            ▼
//!                    ┌──────────────────┐   JobAssign    ┌─────────┐
//!                    │ scheduler thread │───────────────▶│ workers │
//!                    └──────────────────┘◀───────────────└─────────┘
//!                            ▲   RankDone / WorkerDead / lines
//!                            │
//!                    ┌───────┴──────────────────────────────────┐
//!   workers ────────▶│ cluster listener (pooled connection      │
//!   rank worlds ────▶│ threads, first-frame dispatch):          │
//!                    │   WorkerHello → pool + its reader thread │
//!                    │   Register    → RendezvousCore::admit    │
//!                    └──────────────────────────────────────────┘
//! ```
//!
//! Both listeners run the shared connection loop of [`crate::conns`]:
//! its threads outlive their connections and are capped at
//! [`crate::conns::CONN_THREADS`] per listener. A connection holds a
//! pool thread only for one request or first frame: a joining worker's
//! lifelong control stream gets a reader thread of its own, spawned
//! once per join, and a registration parks its connection in the core.
//! So in steady state a job spawns no daemon thread.
//!
//! The cluster port doubles as the job worlds' rendezvous server: the
//! same [`RendezvousCore`] that backs `pmrun` is embedded here, and
//! because each job attempt registers inside its own epoch block,
//! concurrent jobs share the core without interference.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;

use patternlets_metrics::render_prometheus;
use patternlets_net::frame::{read_frame, Frame};
use patternlets_net::rendezvous::RendezvousCore;

use crate::conns::{self, Limits};
use crate::http::{respond, respond_json, ChunkedWriter, Request};
use crate::job::{JobPhase, JobSpec, JobTable};
use crate::json::{escape, Json};
use crate::pool::{WorkerId, WorkerPool};
use crate::scheduler::{run_scheduler, Event, GatewayStats, Scheduler};

/// Daemon construction parameters.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Cluster (worker + rendezvous) bind address. Port 0 = ephemeral.
    pub cluster_addr: String,
    /// HTTP gateway bind address. Port 0 = ephemeral.
    pub http_addr: String,
    /// Suppress the scheduler's narration.
    pub quiet: bool,
    /// Wire-chaos spec applied to jobs that don't carry their own
    /// (`PMRUN_NET_CHAOS` value form; empty = off).
    pub default_chaos: String,
    /// Retry budget for jobs that don't specify one.
    pub default_retries: u32,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            cluster_addr: "127.0.0.1:0".to_string(),
            http_addr: "127.0.0.1:0".to_string(),
            quiet: false,
            default_chaos: String::new(),
            default_retries: 0,
        }
    }
}

/// A started daemon. Dropping the handle does **not** stop the daemon;
/// call [`drain`](Daemon::drain) then [`wait`](Daemon::wait).
pub struct Daemon {
    /// Where workers connect (and job worlds rendezvous).
    pub cluster_addr: SocketAddr,
    /// Where the HTTP gateway listens.
    pub http_addr: SocketAddr,
    /// The job registry (exposed for in-process tests).
    pub table: Arc<JobTable>,
    /// The worker census.
    pub pool: Arc<WorkerPool>,
    /// Gateway counters.
    pub stats: Arc<GatewayStats>,
    draining: Arc<AtomicBool>,
    events: Sender<Event>,
    scheduler: std::thread::JoinHandle<()>,
}

impl Daemon {
    /// Begin graceful shutdown: stop admitting, fail the queue, drain
    /// running jobs. Idempotent.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let _ = self.events.send(Event::Drain);
    }

    /// Has the scheduler finished draining?
    pub fn finished(&self) -> bool {
        self.scheduler.is_finished()
    }

    /// Block until the scheduler exits (after [`drain`](Self::drain)).
    pub fn wait(self) {
        let _ = self.scheduler.join();
    }
}

/// Bind both listeners, start the scheduler, and return the handle.
pub fn start(config: DaemonConfig) -> std::io::Result<Daemon> {
    start_with(config, Limits::default())
}

/// [`start`] with both listeners' connection loops held to `limits`
/// (the tests' small cap and short first read).
pub fn start_with(config: DaemonConfig, limits: Limits) -> std::io::Result<Daemon> {
    let cluster = TcpListener::bind(&config.cluster_addr)?;
    let http = TcpListener::bind(&config.http_addr)?;
    let cluster_addr = cluster.local_addr()?;
    let http_addr = http.local_addr()?;

    let table = Arc::new(JobTable::new());
    let pool = Arc::new(WorkerPool::new());
    let stats = Arc::new(GatewayStats::default());
    let core = Arc::new(RendezvousCore::new());
    let draining = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel();

    let scheduler = {
        let sched = Scheduler::new(
            table.clone(),
            pool.clone(),
            stats.clone(),
            core.clone(),
            config.quiet,
        );
        std::thread::Builder::new()
            .name("pmserve-scheduler".into())
            .spawn(move || run_scheduler(sched, rx))?
    };

    {
        let (table, pool, core, tx) = (table.clone(), pool.clone(), core.clone(), tx.clone());
        conns::serve(cluster, "pmserve-cl", limits, move |conn| {
            cluster_conn(conn, &table, &pool, &core, &tx)
        })?;
    }

    {
        let shared = HttpShared {
            table: table.clone(),
            pool: pool.clone(),
            stats: stats.clone(),
            draining: draining.clone(),
            events: tx.clone(),
            default_chaos: config.default_chaos.clone(),
            default_retries: config.default_retries,
        };
        crate::http::serve_with(http, "pmserve-gw", limits, move |conn, req| {
            handle_http(conn, req, &shared)
        })?;
    }

    Ok(Daemon {
        cluster_addr,
        http_addr,
        table,
        pool,
        stats,
        draining,
        events: tx,
        scheduler,
    })
}

/// First-frame dispatch on a cluster connection. Whoever connects speaks
/// first, within the loop's first-read timeout; a silent peer is dropped.
fn cluster_conn(
    mut conn: TcpStream,
    table: &Arc<JobTable>,
    pool: &WorkerPool,
    core: &RendezvousCore,
    tx: &Sender<Event>,
) {
    match read_frame(&mut conn) {
        Ok(Some(Frame::Register {
            epoch,
            rank,
            np,
            addr,
        })) => {
            // A job world registering: the connection parks inside the
            // core until its epoch completes.
            core.admit(epoch, rank as usize, np as usize, addr, conn);
        }
        Ok(Some(Frame::WorkerHello { pid, host })) => {
            // A worker joining the pool: its control stream lasts the
            // worker's life, so it gets a reader thread of its own and
            // this one goes back to the loop.
            let _ = conn.set_read_timeout(None);
            conn.set_nodelay(true).ok();
            let Ok(write_half) = conn.try_clone() else {
                return;
            };
            let id = pool.join(pid, host, write_half);
            let _ = tx.send(Event::WorkerJoined(id));
            let (table, reader_tx) = (Arc::clone(table), tx.clone());
            let reader = std::thread::Builder::new()
                .name("pmserve-worker".into())
                .spawn(move || worker_reader(conn, id, &table, &reader_tx));
            // Without a reader the worker is as good as gone.
            if reader.is_err() {
                let _ = tx.send(Event::WorkerDead(id));
            }
        }
        _ => {}
    }
}

/// A worker's control stream, read for the worker's whole life: output
/// lines and reports go to their job, verdicts to the scheduler, and EOF
/// means the worker is gone.
fn worker_reader(mut conn: TcpStream, id: WorkerId, table: &JobTable, tx: &Sender<Event>) {
    loop {
        match read_frame(&mut conn) {
            Ok(Some(Frame::JobLine { job, rank: _, line })) => {
                if let Some(job) = table.get(job) {
                    job.output.push(line);
                }
            }
            Ok(Some(report @ (Frame::JobMetrics { job, .. } | Frame::JobTrace { job, .. }))) => {
                if let Some(job) = table.get(job) {
                    job.reports.store(report);
                }
            }
            Ok(Some(Frame::JobDone {
                job,
                rank,
                ok,
                error,
            })) => {
                let _ = tx.send(Event::RankDone {
                    worker: id,
                    job,
                    rank,
                    ok,
                    error,
                });
            }
            Ok(Some(_)) => {}
            // EOF or a mangled stream: the worker is gone.
            Ok(None) | Err(_) => {
                let _ = tx.send(Event::WorkerDead(id));
                return;
            }
        }
    }
}

struct HttpShared {
    table: Arc<JobTable>,
    pool: Arc<WorkerPool>,
    stats: Arc<GatewayStats>,
    draining: Arc<AtomicBool>,
    events: Sender<Event>,
    default_chaos: String,
    default_retries: u32,
}

fn err_doc(msg: &str) -> String {
    format!("{{\"error\": \"{}\"}}", escape(msg))
}

/// The gateway's router: one request, one response.
fn handle_http(conn: &mut TcpStream, req: &Request, shared: &HttpShared) -> std::io::Result<()> {
    let path = req.path.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => submit(conn, req, shared),
        ("GET", ["jobs"]) => list_jobs(conn, shared),
        ("GET", ["jobs", id]) => job_status(conn, id, shared),
        ("GET", ["jobs", id, "output"]) => job_output(conn, id, shared),
        ("GET", ["jobs", id, "trace"]) => job_trace(conn, id, shared),
        ("GET", ["jobs", id, "analysis"]) => job_analysis(conn, id, shared),
        ("GET", ["metrics"]) => metrics(conn, shared),
        ("GET", ["workers"]) => workers(conn, shared),
        ("POST", ["shutdown"]) => {
            shared.draining.store(true, Ordering::SeqCst);
            let _ = shared.events.send(Event::Drain);
            respond_json(conn, 200, "{\"status\": \"draining\"}")
        }
        ("GET", []) => respond(
            conn,
            200,
            "text/plain",
            b"pmserve: POST /jobs, GET /jobs, GET /jobs/:id, GET /jobs/:id/output, \
              GET /jobs/:id/trace, GET /jobs/:id/analysis, \
              GET /metrics, GET /workers, POST /shutdown\n",
        ),
        (method, _) if method != "GET" && method != "POST" => {
            respond_json(conn, 405, &err_doc("use GET or POST"))
        }
        _ => respond_json(conn, 404, &err_doc("no such endpoint")),
    }
}

fn submit(conn: &mut TcpStream, req: &Request, shared: &HttpShared) -> std::io::Result<()> {
    if shared.draining.load(Ordering::SeqCst) {
        shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
        return respond_json(conn, 503, &err_doc("daemon is draining"));
    }
    let Some(body) = Json::parse(req.body_str()) else {
        return respond_json(conn, 400, &err_doc("body must be a JSON object"));
    };
    let Some(patternlet) = body.get("patternlet").and_then(Json::as_str) else {
        return respond_json(conn, 400, &err_doc("missing \"patternlet\" (string)"));
    };
    let Some(np) = body.get("np").and_then(Json::as_u64).filter(|&n| n >= 1) else {
        return respond_json(conn, 400, &err_doc("missing \"np\" (integer >= 1)"));
    };
    let on = body.get("on").and_then(Json::as_bool).unwrap_or(false);
    let chaos = body
        .get("chaos")
        .and_then(Json::as_str)
        .unwrap_or(&shared.default_chaos)
        .to_string();
    let retries = body
        .get("retries")
        .and_then(Json::as_u64)
        .map(|r| r.min(8) as u32)
        .unwrap_or(shared.default_retries);
    let trace = body.get("trace").and_then(Json::as_bool).unwrap_or(false);
    let live = shared.pool.live();
    if np as usize > live {
        // Admission control: a job that cannot run on today's membership
        // is refused synchronously rather than parked forever.
        shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
        return respond_json(
            conn,
            503,
            &err_doc(&format!("job needs {np} workers, only {live} alive")),
        );
    }
    let job = shared.table.create(JobSpec {
        patternlet: patternlet.to_string(),
        np: np as usize,
        on,
        chaos,
        retries,
        trace,
    });
    shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
    let _ = shared.events.send(Event::Submitted(job.id));
    respond_json(
        conn,
        202,
        &format!("{{\"job\": {}, \"status\": \"queued\"}}", job.id),
    )
}

fn job_doc(job: &crate::job::Job) -> String {
    let phase = job.phase();
    let error = match &phase {
        JobPhase::Failed(e) => format!(", \"error\": \"{}\"", escape(e)),
        _ => String::new(),
    };
    let metrics = match job.reports.metrics() {
        (0, _) => String::new(),
        (_, snap) => format!(
            ", \"msgs_sent\": {}, \"msgs_recv\": {}",
            snap.msgs_sent(),
            snap.total(patternlets_metrics::CounterId::MsgsRecv)
        ),
    };
    format!(
        "{{\"job\": {}, \"patternlet\": \"{}\", \"np\": {}, \"status\": \"{}\", \"lines\": {}{error}{metrics}}}",
        job.id,
        escape(&job.spec.patternlet),
        job.spec.np,
        phase.name(),
        job.output.len(),
    )
}

fn job_status(conn: &mut TcpStream, id: &str, shared: &HttpShared) -> std::io::Result<()> {
    let job = id.parse::<u64>().ok().and_then(|id| shared.table.get(id));
    match job {
        Some(job) => respond_json(conn, 200, &job_doc(&job)),
        None => respond_json(conn, 404, &err_doc("no such job")),
    }
}

fn list_jobs(conn: &mut TcpStream, shared: &HttpShared) -> std::io::Result<()> {
    let docs: Vec<String> = shared.table.all().iter().map(|j| job_doc(j)).collect();
    respond_json(conn, 200, &format!("{{\"jobs\": [{}]}}", docs.join(", ")))
}

/// Stream a job's output as chunked text, one chunk per burst of lines,
/// live until the job reaches a terminal phase.
fn job_output(conn: &mut TcpStream, id: &str, shared: &HttpShared) -> std::io::Result<()> {
    let Some(job) = id.parse::<u64>().ok().and_then(|id| shared.table.get(id)) else {
        return respond_json(conn, 404, &err_doc("no such job"));
    };
    // Streaming can outlive the request-read timeout; writes govern now.
    let _ = conn.set_read_timeout(None);
    let mut writer = ChunkedWriter::start(conn, 200, "text/plain; charset=utf-8")?;
    let mut cursor = (0, 0);
    while let Some((lines, next)) = job.output.wait_past(cursor) {
        cursor = next;
        let mut burst = String::new();
        for line in &lines {
            burst.push_str(line);
            burst.push('\n');
        }
        writer.chunk(burst.as_bytes())?;
    }
    writer.finish()
}

/// Serve a traced job's merged Chrome trace (all ranks, timelines
/// aligned) — load it straight into Perfetto / `chrome://tracing`.
fn job_trace(conn: &mut TcpStream, id: &str, shared: &HttpShared) -> std::io::Result<()> {
    let Some(job) = id.parse::<u64>().ok().and_then(|id| shared.table.get(id)) else {
        return respond_json(conn, 404, &err_doc("no such job"));
    };
    if !job.spec.trace {
        return respond_json(
            conn,
            404,
            &err_doc("job was not submitted with \"trace\": true"),
        );
    }
    match job.reports.merged_trace() {
        Some(json) => respond_json(conn, 200, &json),
        None => respond_json(conn, 404, &err_doc("no trace captured yet")),
    }
}

/// Run the critical-path analyzer over a traced job's merged trace and
/// serve the JSON report.
fn job_analysis(conn: &mut TcpStream, id: &str, shared: &HttpShared) -> std::io::Result<()> {
    let Some(job) = id.parse::<u64>().ok().and_then(|id| shared.table.get(id)) else {
        return respond_json(conn, 404, &err_doc("no such job"));
    };
    if !job.spec.trace {
        return respond_json(
            conn,
            404,
            &err_doc("job was not submitted with \"trace\": true"),
        );
    }
    let Some(json) = job.reports.merged_trace() else {
        return respond_json(conn, 404, &err_doc("no trace captured yet"));
    };
    match patternlets_trace::analyze::from_chrome_json(&json) {
        Ok(analysis) => respond_json(conn, 200, &analysis.to_json()),
        Err(e) => respond_json(conn, 500, &err_doc(&format!("analysis failed: {e}"))),
    }
}

fn metrics(conn: &mut TcpStream, shared: &HttpShared) -> std::io::Result<()> {
    let mut page = render_prometheus(&shared.table.metrics());
    let (mut queued, mut running) = (0usize, 0usize);
    for job in shared.table.all() {
        match job.phase() {
            JobPhase::Queued => queued += 1,
            JobPhase::Running => running += 1,
            _ => {}
        }
    }
    let s = &shared.stats;
    page.push_str(&format!(
        "# TYPE pmserve_workers_live gauge\npmserve_workers_live {}\n\
         # TYPE pmserve_jobs_queued gauge\npmserve_jobs_queued {queued}\n\
         # TYPE pmserve_jobs_running gauge\npmserve_jobs_running {running}\n\
         # TYPE pmserve_jobs_submitted_total counter\npmserve_jobs_submitted_total {}\n\
         # TYPE pmserve_jobs_completed_total counter\npmserve_jobs_completed_total {}\n\
         # TYPE pmserve_jobs_failed_total counter\npmserve_jobs_failed_total {}\n\
         # TYPE pmserve_jobs_retried_total counter\npmserve_jobs_retried_total {}\n\
         # TYPE pmserve_jobs_rejected_total counter\npmserve_jobs_rejected_total {}\n",
        shared.pool.live(),
        s.submitted.load(Ordering::Relaxed),
        s.completed.load(Ordering::Relaxed),
        s.failed.load(Ordering::Relaxed),
        s.retried.load(Ordering::Relaxed),
        s.rejected.load(Ordering::Relaxed),
    ));
    respond(conn, 200, "text/plain; version=0.0.4", page.as_bytes())
}

fn workers(conn: &mut TcpStream, shared: &HttpShared) -> std::io::Result<()> {
    let rows: Vec<String> = shared
        .pool
        .view()
        .iter()
        .map(|w| match w.busy_on {
            Some(job) => format!(
                "{{\"id\": {}, \"pid\": {}, \"host\": \"{}\", \"state\": \"busy\", \"job\": {job}}}",
                w.id,
                w.pid,
                escape(&w.host)
            ),
            None => format!(
                "{{\"id\": {}, \"pid\": {}, \"host\": \"{}\", \"state\": \"idle\"}}",
                w.id,
                w.pid,
                escape(&w.host)
            ),
        })
        .collect();
    respond_json(
        conn,
        200,
        &format!(
            "{{\"live\": {}, \"workers\": [{}]}}",
            shared.pool.live(),
            rows.join(", ")
        ),
    )
}
