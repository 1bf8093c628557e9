//! Job objects and their lifecycle state machine.
//!
//! A job moves through exactly one path of:
//!
//! ```text
//! Queued ──▶ Running ──▶ Completed
//!    │          │
//!    │          ├──▶ Failed        (a rank errored / a worker died,
//!    │          │                    no retry budget left)
//!    │          └──▶ Queued        (worker died, retry budget left:
//!    │                               fresh attempt, fresh epoch block)
//!    └──▶ Failed                   (daemon draining / workers gone)
//! ```
//!
//! The transitions are driven solely by the scheduler thread; everything
//! here is just thread-safe state that the HTTP handlers read (status,
//! output) while the scheduler writes.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use patternlets_metrics::{wire, MetricsSnapshot};
use patternlets_net::frame::Frame;

/// What a client asked for in `POST /jobs`.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Catalog name of the patternlet to run.
    pub patternlet: String,
    /// World size: how many workers the job occupies.
    pub np: usize,
    /// The "directive toggle" flag (`--on` in the CLI runner).
    pub on: bool,
    /// Wire-chaos spec in `PMRUN_NET_CHAOS` value form; empty = off.
    pub chaos: String,
    /// How many times a worker-death failure may be retried.
    pub retries: u32,
    /// Capture an execution trace: workers run the patternlet under a
    /// tracer and ship per-rank Chrome exports back; the merged trace is
    /// served at `GET /jobs/:id/trace` and analyzed at
    /// `GET /jobs/:id/analysis`.
    pub trace: bool,
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting for enough idle workers.
    Queued,
    /// Assigned; ranks are executing.
    Running,
    /// Every rank finished cleanly.
    Completed,
    /// Terminal failure, with the reason (which names the dead rank when
    /// a worker was killed mid-job).
    Failed(String),
}

impl JobPhase {
    /// The wire name used in JSON status documents.
    pub fn name(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Completed => "completed",
            JobPhase::Failed(_) => "failed",
        }
    }

    /// Has the job reached a terminal state?
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobPhase::Completed | JobPhase::Failed(_))
    }
}

/// The job's captured output: lines arrive from workers (in stream
/// order per rank, interleaved across ranks) and readers block for more
/// until the job closes the buffer.
#[derive(Default)]
pub struct OutputBuf {
    state: Mutex<OutputState>,
    cv: Condvar,
}

#[derive(Default)]
struct OutputState {
    lines: Vec<String>,
    /// Bumped every time the buffer is cleared for a retry, so streaming
    /// readers can tell "fewer lines than my cursor" apart from a race.
    generation: u64,
    closed: bool,
}

impl OutputBuf {
    /// Append one line (no trailing newline).
    pub fn push(&self, line: String) {
        let mut s = self.state.lock().expect("output lock");
        s.lines.push(line);
        self.cv.notify_all();
    }

    /// No more lines will ever arrive.
    pub fn close(&self) {
        let mut s = self.state.lock().expect("output lock");
        s.closed = true;
        self.cv.notify_all();
    }

    /// Drop accumulated lines for a retry attempt and reopen the buffer.
    pub fn reset(&self) {
        let mut s = self.state.lock().expect("output lock");
        s.lines.clear();
        s.generation += 1;
        s.closed = false;
        self.cv.notify_all();
    }

    /// Every line so far.
    pub fn lines(&self) -> Vec<String> {
        self.state.lock().expect("output lock").lines.clone()
    }

    /// Number of lines so far.
    pub fn len(&self) -> usize {
        self.state.lock().expect("output lock").lines.len()
    }

    /// True when no line has arrived.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Streaming read: block until there are lines past `cursor` (or the
    /// buffer closes), then return them plus the new cursor. `None` means
    /// the stream is over. A reset (retry) rewinds the cursor to zero so
    /// the reader restarts from the fresh attempt's output.
    pub fn wait_past(&self, cursor: (u64, usize)) -> Option<(Vec<String>, (u64, usize))> {
        let (gen, mut idx) = cursor;
        let mut s = self.state.lock().expect("output lock");
        loop {
            if s.generation != gen || idx > s.lines.len() {
                idx = 0;
            }
            if s.lines.len() > idx {
                let fresh = s.lines[idx..].to_vec();
                let next = (s.generation, s.lines.len());
                return Some((fresh, next));
            }
            if s.closed {
                return None;
            }
            // Timed wait so a reader on a job that is reset-while-empty
            // still observes the generation bump promptly.
            let (guard, _) = self
                .cv
                .wait_timeout(s, Duration::from_millis(500))
                .expect("output lock");
            s = guard;
        }
    }
}

/// One job's reports from its ranks, under either launcher: per rank, the
/// latest (cumulative) metrics snapshot and one Chrome-trace export.
/// `pmserve` keeps one per [`Job`]; `pmrun` one for its job 0.
pub struct Reports {
    job: u64,
    /// Per rank: its latest snapshot and its trace export.
    ranks: Mutex<Vec<(Option<MetricsSnapshot>, Option<String>)>>,
}

impl Reports {
    /// No reports yet from the `np` ranks of job `job`.
    pub fn new(job: u64, np: usize) -> Self {
        Reports {
            job,
            ranks: Mutex::new(vec![(None, None); np]),
        }
    }

    /// Keep a [`Frame::JobMetrics`] snapshot or a [`Frame::JobTrace`]
    /// export. Drops anything else, returning `false`: another frame kind
    /// or job, a rank outside the job, a payload `wire::decode` rejects.
    pub fn store(&self, frame: Frame) -> bool {
        let (job, rank, snapshot, trace) = match frame {
            Frame::JobMetrics { job, rank, payload } => match wire::decode(&payload) {
                Ok(snapshot) => (job, rank, Some(snapshot), None),
                Err(_) => return false,
            },
            Frame::JobTrace { job, rank, json } => (job, rank, None, Some(json)),
            _ => return false,
        };
        let mut ranks = self.ranks.lock().expect("reports lock");
        let slot = usize::try_from(rank)
            .ok()
            .and_then(|rank| ranks.get_mut(rank))
            .filter(|_| job == self.job);
        let Some(slot) = slot else {
            return false;
        };
        slot.0 = snapshot.or(slot.0.take());
        slot.1 = trace.or(slot.1.take());
        true
    }

    /// How many ranks have reported metrics, and their snapshots merged
    /// into one (a lane per rank).
    pub fn metrics(&self) -> (usize, MetricsSnapshot) {
        let ranks = self.ranks.lock().expect("reports lock");
        let mut merged = MetricsSnapshot::default();
        let mut reporting = 0;
        for snapshot in ranks.iter().filter_map(|(snapshot, _)| snapshot.as_ref()) {
            merged.merge(snapshot);
            reporting += 1;
        }
        (reporting, merged)
    }

    /// The ranks' trace exports merged into one Chrome trace, with a
    /// named lane for every rank. `None` when no rank has sent one.
    pub fn merged_trace(&self) -> Option<String> {
        let ranks = self.ranks.lock().expect("reports lock");
        ranks.iter().any(|(_, trace)| trace.is_some()).then(|| {
            patternlets_trace::chrome::merge_chrome_json(
                ranks
                    .iter()
                    .enumerate()
                    .map(|(rank, (_, trace))| (rank, trace.as_deref().unwrap_or_default())),
            )
        })
    }

    /// Drop every report, for a retry attempt.
    pub fn reset(&self) {
        let mut ranks = self.ranks.lock().expect("reports lock");
        ranks.iter_mut().for_each(|slot| *slot = (None, None));
    }
}

/// One job: spec, phase, output and reports. Shared between the
/// scheduler (writer) and HTTP handlers (readers) behind an `Arc`.
pub struct Job {
    /// Gateway-assigned id (1-based, dense).
    pub id: u64,
    /// The submitted spec.
    pub spec: JobSpec,
    phase: Mutex<JobPhase>,
    /// Captured output lines.
    pub output: OutputBuf,
    /// The ranks' metrics snapshots and trace exports.
    pub reports: Reports,
}

impl Job {
    /// A freshly submitted job.
    pub fn new(id: u64, spec: JobSpec) -> Self {
        Job {
            id,
            phase: Mutex::new(JobPhase::Queued),
            output: OutputBuf::default(),
            reports: Reports::new(id, spec.np),
            spec,
        }
    }

    /// Current phase (cloned).
    pub fn phase(&self) -> JobPhase {
        self.phase.lock().expect("phase lock").clone()
    }

    /// Move to a new phase. Closes the output on terminal transitions.
    pub fn set_phase(&self, phase: JobPhase) {
        let terminal = phase.is_terminal();
        *self.phase.lock().expect("phase lock") = phase;
        if terminal {
            self.output.close();
        }
    }
}

/// The daemon's job registry: id allocation plus lookup for the HTTP
/// handlers.
#[derive(Default)]
pub struct JobTable {
    inner: Mutex<TableState>,
}

#[derive(Default)]
struct TableState {
    next_id: u64,
    jobs: HashMap<u64, std::sync::Arc<Job>>,
    order: Vec<u64>,
}

impl JobTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new job, allocating its id.
    pub fn create(&self, spec: JobSpec) -> std::sync::Arc<Job> {
        let mut t = self.inner.lock().expect("job table lock");
        t.next_id += 1;
        let id = t.next_id;
        let job = std::sync::Arc::new(Job::new(id, spec));
        t.jobs.insert(id, job.clone());
        t.order.push(id);
        job
    }

    /// Look a job up by id.
    pub fn get(&self, id: u64) -> Option<std::sync::Arc<Job>> {
        self.inner
            .lock()
            .expect("job table lock")
            .jobs
            .get(&id)
            .cloned()
    }

    /// Every job, in submission order.
    pub fn all(&self) -> Vec<std::sync::Arc<Job>> {
        let t = self.inner.lock().expect("job table lock");
        t.order
            .iter()
            .filter_map(|id| t.jobs.get(id).cloned())
            .collect()
    }

    /// Every job's metrics merged into one fleet-wide snapshot: rank r of
    /// every job adds into lane r.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut fleet = MetricsSnapshot::default();
        for job in self.all() {
            fleet.merge(&job.reports.metrics().1);
        }
        fleet
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patternlets_metrics::CounterId;
    use std::sync::Arc;

    #[test]
    fn phases_report_terminality() {
        assert!(!JobPhase::Queued.is_terminal());
        assert!(!JobPhase::Running.is_terminal());
        assert!(JobPhase::Completed.is_terminal());
        assert!(JobPhase::Failed("x".into()).is_terminal());
        assert_eq!(JobPhase::Failed("x".into()).name(), "failed");
    }

    #[test]
    fn output_streams_to_a_blocked_reader() {
        let buf = Arc::new(OutputBuf::default());
        let reader = {
            let buf = buf.clone();
            std::thread::spawn(move || {
                let mut cursor = (0, 0);
                let mut seen = Vec::new();
                while let Some((lines, next)) = buf.wait_past(cursor) {
                    seen.extend(lines);
                    cursor = next;
                }
                seen
            })
        };
        buf.push("a".into());
        buf.push("b".into());
        std::thread::sleep(Duration::from_millis(20));
        buf.push("c".into());
        buf.close();
        assert_eq!(reader.join().unwrap(), vec!["a", "b", "c"]);
    }

    #[test]
    fn reset_rewinds_streaming_readers() {
        let buf = OutputBuf::default();
        buf.push("old".into());
        let (lines, cursor) = buf.wait_past((0, 0)).unwrap();
        assert_eq!(lines, vec!["old"]);
        buf.reset();
        buf.push("new".into());
        let (lines, _) = buf.wait_past(cursor).unwrap();
        assert_eq!(lines, vec!["new"], "cursor rewound across the reset");
    }

    #[test]
    fn table_allocates_dense_ids_in_order() {
        let table = JobTable::new();
        let spec = JobSpec {
            patternlet: "broadcast".into(),
            np: 2,
            on: false,
            chaos: String::new(),
            retries: 0,
            trace: false,
        };
        let a = table.create(spec.clone());
        let b = table.create(spec);
        assert_eq!((a.id, b.id), (1, 2));
        assert_eq!(table.all().len(), 2);
        assert!(table.get(1).is_some());
        assert!(table.get(99).is_none());
    }

    #[test]
    fn terminal_phase_closes_output() {
        let job = Job::new(
            1,
            JobSpec {
                patternlet: "x".into(),
                np: 1,
                on: false,
                chaos: String::new(),
                retries: 0,
                trace: false,
            },
        );
        job.output.push("hello".into());
        job.set_phase(JobPhase::Completed);
        // A reader starting after completion drains and ends.
        let (lines, cursor) = job.output.wait_past((0, 0)).unwrap();
        assert_eq!(lines, vec!["hello"]);
        assert!(job.output.wait_past(cursor).is_none());
    }

    fn spec(np: usize) -> JobSpec {
        JobSpec {
            patternlet: "mpi/broadcast".into(),
            np,
            on: false,
            chaos: String::new(),
            retries: 0,
            trace: false,
        }
    }

    fn sent(lane: usize, msgs: u64) -> MetricsSnapshot {
        let mut l = patternlets_metrics::LaneMetrics::empty(lane);
        l.counters[CounterId::MsgsSentEncoded.index()] = msgs;
        MetricsSnapshot { lanes: vec![l] }
    }

    fn metrics_frame(job: u64, rank: u64, snapshot: &MetricsSnapshot) -> Frame {
        Frame::JobMetrics {
            job,
            rank,
            payload: wire::encode(snapshot),
        }
    }

    fn trace_frame(job: u64, rank: u64) -> Frame {
        Frame::JobTrace {
            job,
            rank,
            json: "{\"traceEvents\":[]}".into(),
        }
    }

    #[test]
    fn the_latest_snapshot_per_rank_wins_and_ranks_merge_per_job() {
        let reports = Reports::new(4, 3);
        assert!(reports.store(metrics_frame(4, 0, &sent(0, 1))));
        // Cumulative: rank 0's second snapshot replaces its first.
        assert!(reports.store(metrics_frame(4, 0, &sent(0, 3))));
        assert!(reports.store(metrics_frame(4, 1, &sent(1, 4))));
        let (reporting, merged) = reports.metrics();
        assert_eq!(reporting, 2);
        assert_eq!(merged.msgs_sent(), 7);
        assert_eq!(merged.lanes.len(), 2, "one lane per rank");
    }

    #[test]
    fn the_fleet_merges_every_jobs_reports_lane_by_lane() {
        let table = JobTable::new();
        let a = table.create(spec(2));
        let b = table.create(spec(1));
        a.reports.store(metrics_frame(a.id, 0, &sent(0, 3)));
        a.reports.store(metrics_frame(a.id, 1, &sent(1, 4)));
        b.reports.store(metrics_frame(b.id, 0, &sent(0, 10)));
        assert_eq!(a.reports.metrics().1.msgs_sent(), 7);
        assert_eq!(b.reports.metrics().1.msgs_sent(), 10);
        let fleet = table.metrics();
        assert_eq!(fleet.msgs_sent(), 17);
        // Rank 0 of both jobs is one fleet lane.
        assert_eq!(fleet.lanes.len(), 2);
    }

    #[test]
    fn hostile_reports_are_dropped_without_growing_the_store() {
        let reports = Reports::new(1, 2);
        let hostile = [
            metrics_frame(1, 2, &sent(2, 5)),
            trace_frame(1, u64::MAX),
            metrics_frame(9, 0, &sent(0, 5)),
            trace_frame(9, 0),
            Frame::JobMetrics {
                job: 1,
                rank: 0,
                payload: vec![0xFF; 7],
            },
            Frame::Ping { seen: 0 },
        ];
        for frame in hostile {
            assert!(!reports.store(frame.clone()), "{frame:?} was kept");
        }
        assert_eq!(reports.ranks.lock().unwrap().len(), 2);
        assert_eq!(reports.metrics().0, 0);
        assert!(reports.merged_trace().is_none());
    }

    #[test]
    fn the_merged_trace_names_every_rank_and_reset_drops_all() {
        let reports = Reports::new(0, 3);
        assert!(reports.merged_trace().is_none());
        assert!(reports.store(trace_frame(0, 1)));
        assert!(reports.store(metrics_frame(0, 2, &sent(2, 1))));
        let merged = reports.merged_trace().expect("rank 1 sent a trace");
        for rank in 0..3 {
            assert!(
                merged.contains(&format!("\"name\":\"rank {rank}\"")),
                "{merged}"
            );
        }
        reports.reset();
        assert!(reports.merged_trace().is_none());
        assert_eq!(reports.metrics().0, 0);
    }
}
