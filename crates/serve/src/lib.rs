#![warn(missing_docs)]
//! # patternlets-serve
//!
//! Patternlets-as-a-service: the `pmserve` elastic cluster daemon and
//! its HTTP job gateway.
//!
//! Where `pmrun` is a one-shot launcher — spawn `np` workers, run one
//! patternlet, exit — `pmserve` is the long-lived form of the same
//! machinery. A persistent daemon owns:
//!
//! * the **membership core** ([`patternlets_net::rendezvous::RendezvousCore`]),
//!   shared with `pmrun`, embedded in the daemon's cluster listener so
//!   every job's worlds rendezvous through the daemon itself;
//! * an **elastic worker pool** ([`pool::WorkerPool`]): worker processes
//!   join and leave between jobs; membership is "whoever is connected";
//! * a **FIFO scheduler with admission control** ([`scheduler`]): jobs
//!   start in submission order, small jobs run concurrently on disjoint
//!   idle worker subsets, and jobs that can't fit today's membership are
//!   refused with 503 at the gateway;
//! * a **hand-rolled HTTP/1.1 gateway** ([`http`], [`daemon`]):
//!   `POST /jobs`, `GET /jobs/:id`, chunked-streaming
//!   `GET /jobs/:id/output`, fleet-wide Prometheus `GET /metrics`
//!   (every job's [`job::Reports`] merged), and `GET /workers`;
//! * **one connection loop** ([`conns`]) under both listeners: pooled
//!   threads that outlive their connections, capped at
//!   [`conns::CONN_THREADS`], so a job in steady state spawns no daemon
//!   thread;
//! * **workers** ([`worker::run_worker`]) that run each assigned rank
//!   inside [`patternlets_net::with_job_ctx`]: the same
//!   [`patternlets_net::JobCtx`] and fabric provider a `pmrun` worker
//!   process gets from its environment, with the same epoch rule, so a
//!   patternlet cannot tell the launchers apart and a job's output is a
//!   single-shot `pmrun` transcript;
//! * **one report path** for both launchers: a rank sends its metrics
//!   and trace as `JobMetrics`/`JobTrace` frames through a
//!   [`JobLineSink`], and the launcher keeps them in a [`job::Reports`]
//!   (one per job here; `pmrun` keeps one for its one job).
//!
//! Fault behavior inherits the net crate's machinery: a worker SIGKILLed
//! mid-job takes down exactly that job (its peers observe the rank
//! failure; the daemon observes the control-connection EOF) and the
//! daemon keeps serving — optionally retrying the job on the surviving
//! membership.

pub mod client;
pub mod conns;
pub mod daemon;
pub mod http;
pub mod job;
pub mod json;
pub mod pool;
pub mod scheduler;
pub mod worker;

pub use client::{JobStatus, SubmitSpec};
pub use daemon::{start, Daemon, DaemonConfig};
pub use job::{JobPhase, JobSpec};
pub use worker::{run_worker, Assignment, JobLineSink, JobRunner};
