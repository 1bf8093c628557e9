#![warn(missing_docs)]
//! # patternlets-vtime
//!
//! A deterministic discrete-event, virtual-time simulator for reasoning
//! about the *scalability* of parallel patterns independently of the host
//! machine.
//!
//! ## Why this crate exists
//!
//! The paper's patternlets are *scalable*: students vary the number of
//! tasks and watch behaviour and timing change. This reproduction runs in a
//! container with a **single CPU core**, so wall-clock time cannot show a
//! 4-thread speedup, and the paper's Figure 19 — the reduction tree
//! finishing in `O(lg t)` parallel steps versus `O(t)` sequential — cannot
//! be demonstrated with `Instant::now()`. Per the reproduction's
//! substitution rule, this simulator stands in for the multi-core testbed:
//! task costs are counted in abstract ticks, virtual processors execute a
//! task DAG under greedy list scheduling, and the makespan is exact and
//! reproducible on any host.
//!
//! * [`dag::TaskGraph`] — dependency graphs of unit-cost (or weighted)
//!   tasks, acyclic by construction.
//! * [`engine::simulate`] — greedy list scheduling of a DAG onto `p`
//!   virtual processors; returns makespan, per-processor busy time, and
//!   the full schedule.
//! * [`models`] — pre-built graphs: the Figure 19 reduction tree, the
//!   sequential combining chain, independent parallel loops, fork-join
//!   regions, and analytic Amdahl/Gustafson curves.
//! * [`metrics`] — speedup, efficiency, Karp–Flatt experimental serial
//!   fraction.

pub mod comm_model;
pub mod dag;
pub mod engine;
pub mod metrics;
pub mod models;

pub use comm_model::CommModel;
pub use dag::{TaskGraph, TaskIdx};
pub use engine::{simulate, SimResult};
