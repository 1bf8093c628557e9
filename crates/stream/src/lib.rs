//! Streaming dataflow executor for the `stream/` patternlet family.
//!
//! Where the `shmem` runtime parallelises *loops* (a fixed iteration space
//! split across a team) and the `mp` runtime parallelises *ranks* (SPMD
//! processes exchanging messages), this crate parallelises *streams*: an
//! unbounded sequence of items flowing through a graph of stages connected
//! by bounded queues — the FastFlow/TBB-flow-graph model, in safe Rust.
//!
//! Four layers:
//!
//! * [`channel`] — a bounded MPMC [`channel::Sender`]/[`channel::Receiver`]
//!   pair with **blocking backpressure** (a full queue blocks the
//!   producer — the queue depth never exceeds its capacity) and a
//!   counted-sender **end-of-stream protocol** (when every `Sender` is
//!   dropped or the channel is closed, `recv` drains what is queued and
//!   then returns `None` to every consumer, exactly once each).
//! * [`spsc_edge`] — the same contract on a lock-free 1:1 ring: the edge
//!   every pipeline and farm queue is built from.
//! * [`pipeline`] — a linear stage graph: `source → stage → … → sink`,
//!   one thread per stage, order-preserving, EOS propagating stage to
//!   stage by `Sender` drop.
//! * [`farm`] — the emitter/worker/collector shape: one input stream
//!   dealt round-robin to N replicated workers, each with its own work
//!   and result edge, results collected in emission order; plus
//!   [`farm::farm_feedback`], a farm whose workers can inject new work
//!   items back into their own input over the MPMC channel — the
//!   feedback edge that turns a farm into a dynamic task pool
//!   (divide-and-conquer, wavefronts).
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

pub use channel::{bounded, unbounded, Receiver, Sender};
pub use farm::{farm_feedback, run_farm, FarmConfig, Feedback};
pub use pipeline::Pipeline;
pub use spsc_edge::{spsc_edge, SpscReceiver, SpscSender};

/// Observability hooks threaded through every queue: the tracer's stage
/// lane is the pushing or popping stage's id, the hub's lane the queue id.
pub use patternlets_metrics::Obs;
