//! Streaming dataflow executor for the `stream/` patternlet family.
//!
//! Where the `shmem` runtime parallelises *loops* (a fixed iteration space
//! split across a team) and the `mp` runtime parallelises *ranks* (SPMD
//! processes exchanging messages), this crate parallelises *streams*: an
//! unbounded sequence of items flowing through a graph of stages connected
//! by bounded queues — the FastFlow/TBB-flow-graph model, in safe Rust.
//!
//! Three layers, and one queue kind under them:
//!
//! * [`spsc_edge`](mod@spsc_edge) — a bounded lock-free 1:1 ring: a full
//!   edge blocks the producer, end-of-stream is sticky (when the sender
//!   drops, `recv` drains and then returns `None`), and non-blocking ends
//!   serve a thread that tends several edges. Every queue below is one.
//! * [`pipeline`] — a linear stage graph: `source → stage → … → sink`,
//!   one thread per stage, order-preserving, EOS propagating stage to
//!   stage by sender drop.
//! * [`farm`] — the emitter/worker/collector shape: one input stream
//!   dealt round-robin to N workers, each on its own edges, results in
//!   emission order; plus [`farm::farm_feedback`], whose workers inject
//!   new work back to the emitter, the edge that turns a farm into a
//!   dynamic task pool (divide-and-conquer, wavefronts).
//!
//! [`channel`], a bounded MPMC queue no executor uses, stays only as the
//! fixture of a benchmark probe that times it against the edge.
//!
//! Every queue carries an id that doubles as its *metrics lane*:
//! [`CounterId::StreamItemsIn`]/[`CounterId::StreamItemsOut`] count the
//! traffic and [`GaugeId::StreamQueueDepth`] records the high-water depth
//! per queue, so `--metrics` shows exactly where a pipeline backs up. The
//! tracer sees every push/pop/EOS as [`EventKind::StagePush`]-family
//! events, lane = the calling stage.
//!
//! [`CounterId::StreamItemsIn`]: patternlets_metrics::CounterId::StreamItemsIn
//! [`CounterId::StreamItemsOut`]: patternlets_metrics::CounterId::StreamItemsOut
//! [`GaugeId::StreamQueueDepth`]: patternlets_metrics::GaugeId::StreamQueueDepth
//! [`EventKind::StagePush`]: patternlets_trace::EventKind::StagePush

pub mod channel;
pub mod farm;
pub mod pipeline;
pub mod spsc_edge;

pub use channel::{bounded, Receiver, Sender};
pub use farm::{farm_feedback, run_farm, FarmConfig, Feedback};
pub use pipeline::Pipeline;
pub use spsc_edge::{spsc_edge, SpscReceiver, SpscSender};

/// Observability hooks threaded through every queue: the tracer's stage
/// lane is the pushing or popping stage's id, the hub's lane the queue id.
pub use patternlets_metrics::Obs;
