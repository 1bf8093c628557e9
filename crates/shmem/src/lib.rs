#![warn(missing_docs)]
//! # patternlets-shmem
//!
//! An OpenMP-like shared-memory runtime built from scratch on OS threads,
//! providing every construct the paper's 17 OpenMP patternlets rely on:
//!
//! | OpenMP construct | This crate |
//! |---|---|
//! | `#pragma omp parallel` (+ `omp_set_num_threads`) | [`Team::parallel`] |
//! | `omp_get_thread_num` / `omp_get_num_threads` | [`TeamCtx::thread_num`] / [`TeamCtx::num_threads`] |
//! | `#pragma omp barrier` | [`TeamCtx::barrier`] (four algorithms in [`barrier`]) |
//! | `#pragma omp for schedule(...)` | [`TeamCtx::for_each`] with a [`sched::Schedule`] |
//! | `reduction(op:var)` | [`TeamCtx::reduce`] with a [`reduce::ReduceOp`] |
//! | `#pragma omp critical [(name)]` | [`TeamCtx::critical`] / [`TeamCtx::critical_named`] |
//! | `#pragma omp atomic` | [`sync::atomic`] wrappers (incl. CAS-loop `AtomicF64`) |
//! | `#pragma omp master` / `single` / `sections` | [`TeamCtx::master`] / [`TeamCtx::single`] / [`TeamCtx::sections`] |
//! | `omp_get_wtime` | [`wtime`](fn@wtime) |
//!
//! The API is data-race free in the Rayon tradition: a parallel region's
//! body is a `Fn(&TeamCtx) + Sync` closure; anything mutable it touches must
//! be synchronized. The one deliberately unsafe escape hatch used to
//! *demonstrate* a data race (paper Fig. 22) lives in
//! [`sync::racy::RacyCell`] and is clearly documented as a teaching device.

pub mod barrier;
pub mod constructs;
pub mod ordered;
pub mod parallel_for;
pub mod sched;
pub use patternlets_core::reduce;
pub mod sync;
pub mod team;
pub mod wtime;

pub use barrier::{AbortableBarrier, Barrier, BarrierKind};
pub use reduce::{ops, ReduceOp};
pub use sched::Schedule;
pub use team::{Team, TeamCtx};
pub use wtime::wtime;
