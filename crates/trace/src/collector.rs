//! The collector: per-lane ring buffers behind a cloneable handle.
//!
//! One [`Tracer`] serves a whole run. Each emitting lane (world rank or
//! thread id) appends to its own fixed-capacity ring under its own lock,
//! so lanes never contend with one another; a global atomic sequence
//! number totally orders events across lanes. When a ring fills, the
//! oldest events are overwritten and counted, never blocking the runtime.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::event::{EventKind, TraceEvent};

/// How many lanes a default tracer preallocates — comfortably above any
/// classroom-scale rank or thread count.
pub const DEFAULT_LANES: usize = 128;

/// Default per-lane ring capacity, in events.
pub const DEFAULT_LANE_CAPACITY: usize = 1 << 16;

struct Lane {
    events: VecDeque<TraceEvent>,
    /// Events overwritten because the ring was full.
    dropped: u64,
}

struct Inner {
    origin: Instant,
    /// The origin expressed as wall-clock Unix nanoseconds, captured at
    /// creation — the anchor multi-process trace merging aligns on.
    origin_unix_ns: u64,
    seq: AtomicU64,
    capacity: usize,
    lanes: Vec<Mutex<Lane>>,
    /// Events whose lane index exceeded the preallocated lane count.
    overflow: AtomicU64,
}

/// A cloneable handle on one run's event collector. All clones feed the
/// same buffers; pass clones into [`WorldBuilder`]s and [`Team`]s freely.
///
/// [`WorldBuilder`]: https://docs.rs/patternlets-mp
/// [`Team`]: https://docs.rs/patternlets-shmem
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("lanes", &self.inner.lanes.len())
            .field("capacity", &self.inner.capacity)
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with [`DEFAULT_LANES`] lanes of [`DEFAULT_LANE_CAPACITY`]
    /// events each.
    pub fn new() -> Self {
        Tracer::with_shape(DEFAULT_LANES, DEFAULT_LANE_CAPACITY)
    }

    /// A tracer with explicit lane count and per-lane ring capacity.
    pub fn with_shape(lanes: usize, capacity: usize) -> Self {
        assert!(lanes > 0, "tracer needs at least one lane");
        assert!(capacity > 0, "lane capacity must be positive");
        Tracer {
            inner: Arc::new(Inner {
                origin: Instant::now(),
                origin_unix_ns: std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.as_nanos() as u64),
                seq: AtomicU64::new(0),
                capacity,
                lanes: (0..lanes)
                    .map(|_| {
                        Mutex::new(Lane {
                            events: VecDeque::new(),
                            dropped: 0,
                        })
                    })
                    .collect(),
                overflow: AtomicU64::new(0),
            }),
        }
    }

    /// The tracer's origin as wall-clock Unix nanoseconds: every event's
    /// `t_ns` is relative to this instant. Exporters combine it with a
    /// rank's estimated clock offset into the `traceBaseNs` anchor that
    /// [`crate::chrome::merge_chrome_json`] aligns timelines on.
    pub fn origin_unix_ns(&self) -> u64 {
        self.inner.origin_unix_ns
    }

    /// Record one event on `lane`. Events on lanes beyond the tracer's
    /// preallocated count are counted as dropped rather than recorded.
    pub fn emit(&self, lane: usize, kind: EventKind) {
        let Some(slot) = self.inner.lanes.get(lane) else {
            self.inner.overflow.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let t_ns = self.inner.origin.elapsed().as_nanos() as u64;
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let mut ring = slot.lock();
        if ring.events.len() == self.inner.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(TraceEvent {
            lane,
            seq,
            t_ns,
            kind,
        });
    }

    /// Open a span on `lane`: emits `begin` now and `end` when the
    /// returned guard drops — so a phase closes even on an error path.
    pub fn span(&self, lane: usize, begin: EventKind, end: EventKind) -> Span {
        self.emit(lane, begin);
        Span {
            tracer: self.clone(),
            lane,
            end,
        }
    }

    /// Open a collective-phase span on `lane`: [`EventKind::CollBegin`]
    /// now and [`EventKind::CollEnd`] when the returned guard drops.
    pub fn coll_span(&self, lane: usize, op: &'static str) -> Span {
        self.span(lane, EventKind::CollBegin { op }, EventKind::CollEnd { op })
    }

    /// Drain every lane into one [`Trace`], merged in global emission
    /// order. The buffers are emptied; drop counters are carried over so
    /// repeated drains keep accumulating losses.
    pub fn drain(&self) -> Trace {
        let mut events = Vec::new();
        let mut dropped = self.inner.overflow.load(Ordering::Relaxed);
        for slot in &self.inner.lanes {
            let mut ring = slot.lock();
            events.extend(ring.events.drain(..));
            dropped += ring.dropped;
        }
        events.sort_by_key(|e| e.seq);
        Trace { events, dropped }
    }
}

/// Drop guard for one phase — see [`Tracer::span`].
pub struct Span {
    tracer: Tracer,
    lane: usize,
    end: EventKind,
}

impl Drop for Span {
    fn drop(&mut self) {
        self.tracer.emit(self.lane, self.end.clone());
    }
}

/// A drained, globally ordered event stream.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events in global emission order (strictly increasing `seq`).
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overwrites or out-of-range lanes.
    pub dropped: u64,
}

impl Trace {
    /// Count events matching `pred`.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    /// Number of [`EventKind::MsgSend`] events (all traffic).
    pub fn sends(&self) -> usize {
        self.count(|e| matches!(e.kind, EventKind::MsgSend { .. }))
    }

    /// Number of [`EventKind::MsgSend`] events with a non-negative tag.
    pub fn user_sends(&self) -> usize {
        self.count(|e| matches!(e.kind, EventKind::MsgSend { tag, .. } if tag >= 0))
    }

    /// Number of [`EventKind::MsgSend`] events with a negative (runtime)
    /// tag: collective algorithms and synchronous-send acks.
    pub fn runtime_sends(&self) -> usize {
        self.sends() - self.user_sends()
    }

    /// Number of [`EventKind::MsgRecv`] events.
    pub fn recvs(&self) -> usize {
        self.count(|e| matches!(e.kind, EventKind::MsgRecv { .. }))
    }

    /// The highest lane index that emitted anything, plus one (0 if empty).
    pub fn lane_count(&self) -> usize {
        self.events.iter().map(|e| e.lane + 1).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_merge_in_global_order() {
        let tracer = Tracer::new();
        tracer.emit(1, EventKind::BarrierWait);
        tracer.emit(0, EventKind::BarrierWait);
        tracer.emit(1, EventKind::BarrierRelease);
        let trace = tracer.drain();
        let seqs: Vec<u64> = trace.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(
            trace.events.iter().map(|e| e.lane).collect::<Vec<_>>(),
            vec![1, 0, 1]
        );
        assert_eq!(trace.lane_count(), 2);
    }

    #[test]
    fn drain_empties_the_buffers() {
        let tracer = Tracer::new();
        tracer.emit(0, EventKind::RegionEnd);
        assert_eq!(tracer.drain().events.len(), 1);
        assert_eq!(tracer.drain().events.len(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let tracer = Tracer::with_shape(1, 4);
        for i in 0..10usize {
            tracer.emit(0, EventKind::ChunkClaim { start: i, len: 1 });
        }
        let trace = tracer.drain();
        assert_eq!(trace.events.len(), 4);
        assert_eq!(trace.dropped, 6);
        // The survivors are the newest four.
        assert!(
            matches!(trace.events[0].kind, EventKind::ChunkClaim { start: 6, .. }),
            "{:?}",
            trace.events[0]
        );
    }

    #[test]
    fn out_of_range_lane_is_counted_not_lost_silently() {
        let tracer = Tracer::with_shape(2, 8);
        tracer.emit(7, EventKind::BarrierWait);
        let trace = tracer.drain();
        assert!(trace.events.is_empty());
        assert_eq!(trace.dropped, 1);
    }

    #[test]
    fn coll_span_closes_on_drop() {
        let tracer = Tracer::new();
        {
            let _span = tracer.coll_span(3, "bcast");
            tracer.emit(
                3,
                EventKind::MsgSend {
                    to: 0,
                    tag: -1,
                    bytes: 8,
                    seq: 0,
                },
            );
        }
        let trace = tracer.drain();
        assert!(matches!(
            trace.events[0].kind,
            EventKind::CollBegin { op: "bcast" }
        ));
        assert!(matches!(
            trace.events[2].kind,
            EventKind::CollEnd { op: "bcast" }
        ));
    }

    #[test]
    fn concurrent_emission_is_safe_and_totally_ordered() {
        let tracer = Tracer::new();
        std::thread::scope(|scope| {
            for lane in 0..8usize {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    for i in 0..200usize {
                        tracer.emit(lane, EventKind::ChunkClaim { start: i, len: 1 });
                    }
                });
            }
        });
        let trace = tracer.drain();
        assert_eq!(trace.events.len(), 1600);
        assert_eq!(trace.dropped, 0);
        // seq is strictly increasing after the merge.
        assert!(trace.events.windows(2).all(|w| w[0].seq < w[1].seq));
        // Per-lane time order is preserved.
        for lane in 0..8 {
            let times: Vec<u64> = trace
                .events
                .iter()
                .filter(|e| e.lane == lane)
                .map(|e| e.t_ns)
                .collect();
            assert_eq!(times.len(), 200);
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn counting_helpers() {
        let tracer = Tracer::new();
        tracer.emit(
            0,
            EventKind::MsgSend {
                to: 1,
                tag: 5,
                bytes: 8,
                seq: 0,
            },
        );
        tracer.emit(
            0,
            EventKind::MsgSend {
                to: 1,
                tag: -9,
                bytes: 0,
                seq: 1,
            },
        );
        tracer.emit(
            1,
            EventKind::MsgRecv {
                from: 0,
                tag: 5,
                bytes: 8,
                seq: 0,
            },
        );
        let trace = tracer.drain();
        assert_eq!(trace.sends(), 2);
        assert_eq!(trace.user_sends(), 1);
        assert_eq!(trace.runtime_sends(), 1);
        assert_eq!(trace.recvs(), 1);
    }
}
