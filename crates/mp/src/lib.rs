#![warn(missing_docs)]
//! # patternlets-mp
//!
//! An MPI-like message-passing runtime built from scratch, providing every
//! operation the paper's 16 MPI patternlets use:
//!
//! | MPI | This crate |
//! |---|---|
//! | `MPI_Init` … `MPI_Finalize` | [`World::run`] (ranks are isolated threads) |
//! | `MPI_Comm_rank` / `MPI_Comm_size` | [`Comm::rank`] / [`Comm::size`] |
//! | `MPI_Get_processor_name` | [`Comm::processor_name`] (simulated nodes) |
//! | `MPI_Send` / `MPI_Recv` (+ `MPI_ANY_SOURCE`, `MPI_ANY_TAG`) | [`Comm::send`] / [`Comm::recv`] |
//! | `MPI_Isend` / `MPI_Irecv` / `MPI_Wait` | [`Comm::isend`] / [`Comm::irecv`] / `Request::wait` |
//! | `MPI_Comm_split` / `MPI_Comm_dup` | [`Comm::split`] / [`Comm::dup`] |
//! | `MPI_Barrier` | [`Comm::barrier`] (message-based dissemination) |
//! | `MPI_Bcast` | [`Comm::bcast`] (binomial tree) |
//! | `MPI_Scatter` / `MPI_Gather` / `MPI_Allgather` | [`Comm::scatter`] / [`Comm::gather`] / [`Comm::allgather`] |
//! | `MPI_Reduce` / `MPI_Allreduce` / `MPI_Scan` | [`Comm::reduce`] / [`Comm::allreduce`] / [`Comm::scan`] |
//! | `MPI_Op` (incl. user-defined) | [`patternlets_core::reduce::ReduceOp`] |
//!
//! ## Why this counts as distributed memory
//!
//! Each rank is an OS thread whose closure receives a [`Comm`] by
//! reference and must be `Sync`-pure: the API offers no shared mutable
//! state, and payloads cross rank boundaries only by value — as encoded
//! bytes (see [`datatype::Datatype`]), or as an immutable shared buffer
//! on the in-process fast path (see [`envelope::Payload`]) that the
//! receiver copies out of before anyone can mutate — so a rank can never
//! alias another rank's data. That reproduces the observable semantics
//! the paper's MPI
//! patternlets teach: private address spaces, explicit messages, and
//! unordered stdout across ranks (paper Figures 6, 11, 17).
//!
//! ## Guarantees
//!
//! * **Non-overtaking**: two messages from the same sender to the same
//!   receiver that both match a receive are delivered in send order
//!   (matching MPI §3.5 semantics).
//! * **Typed envelopes**: a receive that matches an envelope of the wrong
//!   element type fails with [`patternlets_core::Error::TypeMismatch`]
//!   instead of reinterpreting bytes.
//! * **Deadlock detection**: a receive that can provably never be satisfied
//!   (all possible senders have finished and nothing is queued) returns
//!   [`patternlets_core::Error::Deadlock`] rather than hanging the test
//!   suite.

pub mod checkpoint;
pub mod coll;
pub mod comm;
pub mod datatype;
mod deadlock;
pub mod envelope;
pub mod fabric;
pub mod fault;
pub mod mailbox;
pub mod request;
pub mod status;
pub mod world;

pub use checkpoint::CheckpointStore;
pub use comm::Comm;
pub use datatype::Datatype;
pub use envelope::{Envelope, Outgoing, Payload, SharedPayload, INLINE_MAX};
pub use fabric::{install_fabric_provider, Fabric, FabricProvider, ProvidedWorld, WorldSpec};
pub use fault::FaultPlan;
pub use request::{RecvRequest, SendRequest};
pub use status::{SourceSel, Status, TagSel, ANY_SOURCE, ANY_TAG};
pub use world::{World, WorldBuilder, DEFAULT_POLL_INTERVAL};

/// The conventional root/master rank, mirroring the paper's `#define MASTER 0`.
pub const MASTER: usize = 0;
