#![warn(missing_docs)]
//! # patternlets-trace
//!
//! A structured execution-event layer for the patternlet runtimes. The
//! paper teaches parallelism by making interleavings *visible*; this crate
//! makes them *inspectable*: both runtimes emit typed events (message
//! sends/receives, collective phases, parallel regions, barrier
//! waits/releases, loop-chunk claims, chaos-transport retransmissions)
//! into per-lane ring buffers, and the collected stream renders as either
//! a Chrome-trace (`chrome://tracing` / Perfetto) JSON file or a plain
//! text timeline.
//!
//! Tracing is always compiled but zero-cost when off: the runtimes hold
//! the tracer as an `Option` inside `patternlets_metrics::Obs`, and every
//! tap is a single `is_none` check on the disabled path — no locks, no
//! allocation, no clock reads.
//!
//! ```
//! use patternlets_trace::{EventKind, Tracer};
//!
//! let tracer = Tracer::new();
//! tracer.emit(0, EventKind::MsgSend { to: 1, tag: 7, bytes: 8, seq: 0 });
//! tracer.emit(1, EventKind::MsgRecv { from: 0, tag: 7, bytes: 8, seq: 0 });
//! let trace = tracer.drain();
//! assert_eq!(trace.events.len(), 2);
//! assert!(patternlets_trace::chrome::to_chrome_json(&trace).starts_with("{\"traceEvents\":"));
//! ```

pub mod analyze;
pub mod chrome;
pub mod collector;
pub mod event;
pub mod timeline;

pub use collector::{Span, Trace, Tracer, DEFAULT_LANES, DEFAULT_LANE_CAPACITY};
pub use event::{EventKind, TraceEvent};
