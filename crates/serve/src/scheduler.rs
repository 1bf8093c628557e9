//! The FIFO-with-admission-control job scheduler.
//!
//! One thread owns every lifecycle transition (the event loop in
//! [`run_scheduler`]); everyone else — HTTP handlers, worker-connection
//! readers — communicates with it through [`Event`]s. Single-threaded
//! transitions make the state machine in `job.rs` trivially race-free:
//! a job cannot be finalized twice, a worker cannot be claimed by two
//! jobs, because only one thread ever does either.
//!
//! Scheduling policy, in one sentence: jobs *start* strictly in
//! submission order, but any prefix of the queue whose demands fit the
//! idle workers runs concurrently on disjoint worker subsets. A job
//! wanting more ranks than are currently *idle* waits at the head (no
//! overtaking — later small jobs queue behind it); a job wanting more
//! ranks than are *alive* can never run and fails immediately. The
//! gateway applies the same test at submission time, answering 503, so
//! clients learn about hopeless jobs synchronously.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;

use patternlets_net::frame::Frame;
use patternlets_net::rendezvous::RendezvousCore;

use crate::job::{JobPhase, JobTable};
use crate::pool::{WorkerId, WorkerPool};

/// Everything that can change the scheduler's mind.
#[derive(Debug)]
pub enum Event {
    /// A job entered the table in `Queued` phase.
    Submitted(u64),
    /// A worker joined the pool (try scheduling: queued jobs may fit now).
    WorkerJoined(WorkerId),
    /// A worker's control connection died.
    WorkerDead(WorkerId),
    /// One rank of a job reached its terminal state.
    RankDone {
        /// The worker that ran the rank.
        worker: WorkerId,
        /// The job.
        job: u64,
        /// The rank within the job.
        rank: u64,
        /// Clean finish?
        ok: bool,
        /// Error text when not ok.
        error: String,
    },
    /// Begin graceful shutdown: fail the queue, drain running jobs,
    /// then stop.
    Drain,
}

/// Monotonic gateway counters, shared with the HTTP layer for
/// `GET /metrics`.
#[derive(Default)]
pub struct GatewayStats {
    /// Jobs accepted by `POST /jobs`.
    pub submitted: AtomicU64,
    /// Jobs that reached `Completed`.
    pub completed: AtomicU64,
    /// Jobs that reached `Failed`.
    pub failed: AtomicU64,
    /// Worker-death retries performed.
    pub retried: AtomicU64,
    /// Submissions rejected with 503.
    pub rejected: AtomicU64,
}

/// How far a job's epoch blocks are spaced: each attempt of each job
/// registers worlds in its own `1 << EPOCH_BLOCK_BITS`-wide range.
/// 2^20 worlds per attempt is beyond any patternlet's appetite.
pub const EPOCH_BLOCK_BITS: u32 = 20;

/// Retry attempts are sub-numbered inside the job's epoch space.
const MAX_ATTEMPTS: u64 = 64;

/// The epoch block for one attempt of one job.
pub fn epoch_base(job: u64, attempt: u32) -> u64 {
    (job * MAX_ATTEMPTS + attempt as u64) << EPOCH_BLOCK_BITS
}

struct RunningJob {
    /// Worker per rank (index = rank).
    workers: Vec<WorkerId>,
    /// Ranks still awaiting a terminal report.
    pending: Vec<bool>,
    /// First rank-level error, if any.
    rank_error: Option<String>,
    /// Set when a worker died mid-job (retryable failure class).
    death: Option<String>,
    attempt: u32,
}

pub(crate) struct Scheduler {
    pub table: Arc<JobTable>,
    pub pool: Arc<WorkerPool>,
    pub stats: Arc<GatewayStats>,
    pub core: Arc<RendezvousCore>,
    pub quiet: bool,
    queue: VecDeque<(u64, u32)>,
    running: HashMap<u64, RunningJob>,
    draining: bool,
}

impl Scheduler {
    pub fn new(
        table: Arc<JobTable>,
        pool: Arc<WorkerPool>,
        stats: Arc<GatewayStats>,
        core: Arc<RendezvousCore>,
        quiet: bool,
    ) -> Self {
        Scheduler {
            table,
            pool,
            stats,
            core,
            quiet,
            queue: VecDeque::new(),
            running: HashMap::new(),
            draining: false,
        }
    }

    /// A job attempt is doomed (a member died or a rank errored): abort
    /// its rendezvous epoch block so sibling ranks parked there — or
    /// about to park there — fail immediately instead of waiting out the
    /// register timeout on a world that can never assemble.
    fn abort_attempt(&self, job: u64, attempt: u32) {
        let lo = epoch_base(job, attempt);
        self.core.abort_block(lo, lo + (1 << EPOCH_BLOCK_BITS));
    }

    fn log(&self, msg: std::fmt::Arguments<'_>) {
        if !self.quiet {
            println!("pmserve: {msg}");
        }
    }

    /// True when the loop should stop: draining and nothing in flight.
    fn drained(&self) -> bool {
        self.draining && self.running.is_empty()
    }

    fn handle(&mut self, event: Event) {
        match event {
            Event::Submitted(id) => {
                if self.draining {
                    self.fail_job(id, "daemon is draining".to_string());
                } else {
                    self.queue.push_back((id, 0));
                    self.try_schedule();
                }
            }
            Event::WorkerJoined(id) => {
                self.log(format_args!(
                    "worker {id} joined ({} live)",
                    self.pool.live()
                ));
                self.try_schedule();
            }
            Event::WorkerDead(id) => self.worker_dead(id),
            Event::RankDone {
                worker,
                job,
                rank,
                ok,
                error,
            } => self.rank_done(worker, job, rank, ok, error),
            Event::Drain => {
                self.draining = true;
                self.log(format_args!(
                    "draining ({} running, {} queued)",
                    self.running.len(),
                    self.queue.len()
                ));
                while let Some((id, _)) = self.queue.pop_front() {
                    self.fail_job(id, "daemon is draining".to_string());
                }
            }
        }
    }

    fn fail_job(&mut self, id: u64, error: String) {
        if let Some(job) = self.table.get(id) {
            self.log(format_args!("job {id} failed: {error}"));
            job.set_phase(JobPhase::Failed(error));
            self.stats.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Launch queue entries in FIFO order while they fit the idle set.
    fn try_schedule(&mut self) {
        while let Some(&(id, attempt)) = self.queue.front() {
            let Some(job) = self.table.get(id) else {
                self.queue.pop_front();
                continue;
            };
            let np = job.spec.np;
            if np > self.pool.live() {
                // Hopeless: the membership shrank below the job's needs.
                self.queue.pop_front();
                self.fail_job(
                    id,
                    format!("needs {np} workers, only {} alive", self.pool.live()),
                );
                continue;
            }
            let Some(workers) = self.pool.claim(np, id) else {
                // Not enough idle workers *yet*; FIFO means nobody
                // overtakes the head.
                return;
            };
            self.queue.pop_front();
            self.launch(id, attempt, workers);
        }
    }

    fn launch(&mut self, id: u64, attempt: u32, workers: Vec<WorkerId>) {
        let job = self.table.get(id).expect("launched job exists");
        let np = workers.len();
        self.log(format_args!(
            "job {id} ({}, np={np}) starting on workers {workers:?}{}",
            job.spec.patternlet,
            if attempt > 0 {
                format!(" [attempt {}]", attempt + 1)
            } else {
                String::new()
            }
        ));
        job.set_phase(JobPhase::Running);
        let mut record = RunningJob {
            workers: workers.clone(),
            pending: vec![true; np],
            rank_error: None,
            death: None,
            attempt,
        };
        for (rank, &worker) in workers.iter().enumerate() {
            let assign = Frame::JobAssign {
                job: id,
                patternlet: job.spec.patternlet.clone(),
                np: np as u64,
                rank: rank as u64,
                epoch_base: epoch_base(id, attempt),
                on: job.spec.on,
                chaos: job.spec.chaos.clone(),
                trace: job.spec.trace,
            };
            if self.pool.send(worker, &assign).is_err() {
                // The worker died between claim and send; mark its rank
                // dead now — the reader thread's WorkerDead event will
                // find the pool entry already gone and do nothing.
                self.pool.leave(worker);
                record.pending[rank] = false;
                record.death = Some(format!("rank {rank} died (worker {worker})"));
            }
        }
        if record.death.is_some() {
            self.abort_attempt(id, attempt);
        }
        self.running.insert(id, record);
        self.maybe_finalize(id);
    }

    fn worker_dead(&mut self, id: WorkerId) {
        let orphaned = self.pool.leave(id);
        let Some(job) = orphaned else {
            // Idle (or already-removed) worker: membership shrinks,
            // nothing else changes.
            self.log(format_args!("worker {id} left ({} live)", self.pool.live()));
            self.try_schedule();
            return;
        };
        self.log(format_args!(
            "worker {id} died while running job {job} ({} live)",
            self.pool.live()
        ));
        if let Some(record) = self.running.get_mut(&job) {
            let attempt = record.attempt;
            if let Some(rank) = record.workers.iter().position(|&w| w == id) {
                if record.pending[rank] {
                    record.pending[rank] = false;
                    // First death wins: the verdict names the rank whose
                    // loss doomed the attempt.
                    if record.death.is_none() {
                        record.death = Some(format!("rank {rank} died (worker {id})"));
                    }
                }
            }
            self.abort_attempt(job, attempt);
            self.maybe_finalize(job);
        }
        self.try_schedule();
    }

    fn rank_done(&mut self, worker: WorkerId, job: u64, rank: u64, ok: bool, error: String) {
        self.pool.release(worker);
        if let Some(record) = self.running.get_mut(&job) {
            let attempt = record.attempt;
            let rank = rank as usize;
            if rank < record.pending.len() && record.pending[rank] {
                record.pending[rank] = false;
                if !ok && record.rank_error.is_none() {
                    record.rank_error = Some(format!("rank {rank}: {error}"));
                }
            }
            if !ok {
                // One rank failing dooms the attempt; unstick any
                // siblings parked in its rendezvous block.
                self.abort_attempt(job, attempt);
            }
            self.maybe_finalize(job);
        }
        self.try_schedule();
    }

    fn maybe_finalize(&mut self, id: u64) {
        let done = self
            .running
            .get(&id)
            .is_some_and(|r| r.pending.iter().all(|&p| !p));
        if !done {
            return;
        }
        let record = self.running.remove(&id).expect("checked above");
        let Some(job) = self.table.get(id) else {
            return;
        };
        if let Some(death) = record.death {
            // Worker death is the retryable failure class: the job
            // itself may be fine, the machine under it wasn't.
            if record.attempt < job.spec.retries
                && ((record.attempt + 1) as u64) < MAX_ATTEMPTS
                && !self.draining
            {
                self.log(format_args!(
                    "job {id} lost a worker ({death}); retrying (attempt {}/{})",
                    record.attempt + 2,
                    job.spec.retries + 1
                ));
                self.stats.retried.fetch_add(1, Ordering::Relaxed);
                // The job's output and reports come from its final
                // attempt alone.
                job.output.reset();
                job.reports.reset();
                job.set_phase(JobPhase::Queued);
                self.queue.push_front((id, record.attempt + 1));
            } else {
                self.fail_job(id, death);
            }
        } else if let Some(error) = record.rank_error {
            self.fail_job(id, error);
        } else {
            self.log(format_args!("job {id} completed"));
            job.set_phase(JobPhase::Completed);
            self.stats.completed.fetch_add(1, Ordering::Relaxed);
        }
        self.try_schedule();
    }
}

/// Run the scheduler until drain completes (or every event sender is
/// gone). On exit, broadcasts [`Frame::Shutdown`] to the pool and prints
/// the final fleet metrics summary.
pub(crate) fn run_scheduler(mut sched: Scheduler, events: Receiver<Event>) {
    while !sched.drained() {
        match events.recv() {
            Ok(event) => sched.handle(event),
            Err(_) => break,
        }
    }
    sched.pool.broadcast_shutdown();
    if !sched.quiet {
        let fleet = sched.table.metrics();
        println!(
            "pmserve: drained; {} jobs completed, {} failed, {} retried",
            sched.stats.completed.load(Ordering::Relaxed),
            sched.stats.failed.load(Ordering::Relaxed),
            sched.stats.retried.load(Ordering::Relaxed),
        );
        if !fleet.is_empty() {
            print!("{}", patternlets_metrics::render_summary(&fleet));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_blocks_never_overlap() {
        let mut seen = std::collections::HashSet::new();
        for job in 1..=8u64 {
            for attempt in 0..4u32 {
                let base = epoch_base(job, attempt);
                assert!(seen.insert(base));
                // Blocks are at least a full block apart.
                assert_eq!(base % (1 << EPOCH_BLOCK_BITS), 0);
            }
        }
    }
}
