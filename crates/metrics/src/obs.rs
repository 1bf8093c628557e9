//! [`Obs`]: the one handle every runtime records through.
//!
//! An instrumentation point usually has two halves: an event for the
//! tracer (*what happened, when, on which lane*) and an update to the
//! hub's counters, gauges and histograms (*how much, how long*). Each
//! point is one method here that does both, so the trace and the metrics
//! agree by construction: a `DupDropped` event is emitted exactly where
//! `DupDrops` is counted, a `StagePop` exactly where `StreamItemsOut` is.
//!
//! Both handles are optional. With neither attached, a method costs one
//! `is_none` check per handle, and a [`Phase`] reads no clock.

use patternlets_trace::{EventKind, Span, Tracer};

use crate::{CounterId, GaugeId, HistId, MetricsHub, TimerGuard};

/// The observability handles one runtime component holds: an event
/// tracer and a metrics hub, each optional and each an `Arc` bump to
/// clone. Every method takes the `lane` to record on — a world rank (mp,
/// net), a team thread (shmem) or a stream stage.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    /// Event tracer.
    pub tracer: Option<Tracer>,
    /// Metrics hub.
    pub metrics: Option<MetricsHub>,
}

impl Obs {
    /// No observability: the zero-cost default.
    pub fn none() -> Self {
        Self::default()
    }

    /// A message left `lane`'s rank: one `MsgSend` event, and the
    /// representation counter `repr` (`MsgsSentInproc`, `MsgsSentEncoded`
    /// or `MsgsSentInline`), `BytesSent` and the `SEND_BYTES` histogram.
    #[inline]
    pub fn send(&self, lane: usize, to: usize, tag: i32, bytes: usize, seq: u64, repr: CounterId) {
        if let Some(t) = &self.tracer {
            t.emit(
                lane,
                EventKind::MsgSend {
                    to,
                    tag,
                    bytes,
                    seq,
                },
            );
        }
        if let Some(hub) = &self.metrics {
            hub.incr(lane, repr);
            hub.add(lane, CounterId::BytesSent, bytes as u64);
            hub.observe(lane, HistId::SEND_BYTES, bytes as u64);
        }
    }

    /// A receive on `lane`'s rank matched a message: one `MsgRecv` event,
    /// `MsgsRecv` and `BytesRecv`.
    #[inline]
    pub fn recv(&self, lane: usize, from: usize, tag: i32, bytes: usize, seq: u64) {
        if let Some(t) = &self.tracer {
            t.emit(
                lane,
                EventKind::MsgRecv {
                    from,
                    tag,
                    bytes,
                    seq,
                },
            );
        }
        if let Some(hub) = &self.metrics {
            hub.incr(lane, CounterId::MsgsRecv);
            hub.add(lane, CounterId::BytesRecv, bytes as u64);
        }
    }

    /// One extra transmission by `lane`'s rank after a lost one: a
    /// `Retransmit` event and one `Retransmits`.
    #[inline]
    pub fn retransmit(&self, lane: usize, attempt: u32) {
        if let Some(t) = &self.tracer {
            t.emit(lane, EventKind::Retransmit { attempt });
        }
        if let Some(hub) = &self.metrics {
            hub.incr(lane, CounterId::Retransmits);
        }
    }

    /// `lane`'s link to a peer came back and replayed `replayed`
    /// unacknowledged frames. A resume is one retransmission — a
    /// `Retransmit` event and one `Retransmits`, as [`Obs::retransmit`] —
    /// plus one `NetReconnects` and `replayed` `NetFramesReplayed`.
    #[inline]
    pub fn link_resume(&self, lane: usize, attempt: u32, replayed: u64) {
        self.retransmit(lane, attempt);
        if let Some(hub) = &self.metrics {
            hub.incr(lane, CounterId::NetReconnects);
            hub.add(lane, CounterId::NetFramesReplayed, replayed);
        }
    }

    /// `lane`'s mailbox swallowed a duplicate transmission: a
    /// `DupDropped` event and one `DupDrops`, both on the receiver.
    #[inline]
    pub fn dup_dropped(&self, lane: usize) {
        if let Some(t) = &self.tracer {
            t.emit(lane, EventKind::DupDropped);
        }
        if let Some(hub) = &self.metrics {
            hub.incr(lane, CounterId::DupDrops);
        }
    }

    /// A collective phase on `lane`: `CollBegin` now, and when the guard
    /// drops the phase's latency into [`HistId::coll`]`(op)` and
    /// `CollEnd` — so a phase closes even on an error path.
    #[inline]
    pub fn coll(&self, lane: usize, op: &'static str) -> Phase<'_> {
        self.phase(
            lane,
            EventKind::CollBegin { op },
            EventKind::CollEnd { op },
            Some(HistId::coll(op)),
        )
    }

    /// A team-barrier episode on `lane`: `BarrierWait` now, and when the
    /// guard drops the wait into [`HistId::BARRIER_WAIT_NS`] and
    /// `BarrierRelease`.
    #[inline]
    pub fn barrier(&self, lane: usize) -> Phase<'_> {
        self.phase(
            lane,
            EventKind::BarrierWait,
            EventKind::BarrierRelease,
            Some(HistId::BARRIER_WAIT_NS),
        )
    }

    /// A parallel region of `team` threads on `lane`: `RegionBegin` now,
    /// `RegionEnd` when the guard drops.
    #[inline]
    pub fn region(&self, lane: usize, team: usize) -> Phase<'_> {
        self.phase(
            lane,
            EventKind::RegionBegin { team },
            EventKind::RegionEnd,
            None,
        )
    }

    #[inline]
    fn phase(
        &self,
        lane: usize,
        begin: EventKind,
        end: EventKind,
        hist: Option<HistId>,
    ) -> Phase<'_> {
        let span = self.tracer.as_ref().map(|t| t.span(lane, begin, end));
        let timer = hist.and_then(|id| self.metrics.as_ref().map(|hub| hub.timer(lane, id)));
        Phase {
            _timer: timer,
            _span: span,
        }
    }

    /// `lane` claimed `len` loop iterations from `start`: a `ChunkClaim`
    /// event, one `chunks` and `len` `iters` (the schedule's pair).
    #[inline]
    pub fn chunk_claim(
        &self,
        lane: usize,
        start: usize,
        len: usize,
        chunks: CounterId,
        iters: CounterId,
    ) {
        if let Some(t) = &self.tracer {
            t.emit(lane, EventKind::ChunkClaim { start, len });
        }
        if let Some(hub) = &self.metrics {
            hub.incr(lane, chunks);
            hub.add(lane, iters, len as u64);
        }
    }

    /// Stage `lane` pushed items into stream queue `queue`, taking its
    /// depth from `before` to `after`: one `StagePush` per item at the
    /// depth it was queued at, and `StreamItemsIn` and the
    /// `StreamQueueDepth` gauge on the queue's lane.
    #[inline]
    pub fn stage_push(&self, lane: usize, queue: usize, before: usize, after: usize) {
        if let Some(t) = &self.tracer {
            for depth in before + 1..=after {
                t.emit(lane, EventKind::StagePush { queue, depth });
            }
        }
        if let Some(hub) = &self.metrics {
            hub.add(queue, CounterId::StreamItemsIn, (after - before) as u64);
            hub.gauge_max(queue, GaugeId::StreamQueueDepth, after as u64);
        }
    }

    /// Stage `lane` popped `taken` items from stream queue `queue`, which
    /// held `before`: one `StagePop` per item at the depth it left
    /// behind, and `StreamItemsOut` on the queue's lane.
    #[inline]
    pub fn stage_pop(&self, lane: usize, queue: usize, before: usize, taken: usize) {
        if let Some(t) = &self.tracer {
            for popped in 1..=taken {
                t.emit(
                    lane,
                    EventKind::StagePop {
                        queue,
                        depth: before - popped,
                    },
                );
            }
        }
        if let Some(hub) = &self.metrics {
            hub.add(queue, CounterId::StreamItemsOut, taken as u64);
        }
    }

    /// Stream queue `queue` reached end-of-stream, seen by stage `lane`.
    #[inline]
    pub fn stage_eos(&self, lane: usize, queue: usize) {
        if let Some(t) = &self.tracer {
            t.emit(lane, EventKind::StageEos { queue });
        }
    }
}

/// An open phase from [`Obs::coll`], [`Obs::barrier`] or
/// [`Obs::region`]. Dropping it records the phase's latency, when it has
/// a histogram and a hub is attached, and then emits its end event.
#[must_use = "the phase ends when the guard drops"]
pub struct Phase<'a> {
    // Fields drop in declaration order: the latency is recorded before
    // the end event is emitted.
    _timer: Option<TimerGuard<'a>>,
    _span: Option<Span>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> Obs {
        Obs {
            tracer: Some(Tracer::new()),
            metrics: Some(MetricsHub::new()),
        }
    }

    fn events(obs: &Obs) -> Vec<EventKind> {
        let trace = obs.tracer.as_ref().expect("tracer attached").drain();
        trace.events.into_iter().map(|e| e.kind).collect()
    }

    #[test]
    fn a_phase_times_into_its_histogram_and_closes_on_drop() {
        let obs = both();
        {
            let _phase = obs.coll(2, "bcast");
        }
        {
            let _phase = obs.barrier(2);
        }
        assert_eq!(
            events(&obs),
            vec![
                EventKind::CollBegin { op: "bcast" },
                EventKind::CollEnd { op: "bcast" },
                EventKind::BarrierWait,
                EventKind::BarrierRelease,
            ]
        );
        let snap = obs.metrics.as_ref().expect("hub attached").snapshot();
        assert_eq!(snap.hist_total(HistId::coll("bcast")).count(), 1);
        assert_eq!(snap.hist_total(HistId::BARRIER_WAIT_NS).count(), 1);
    }

    #[test]
    fn stage_points_emit_one_event_per_item_and_count_the_batch() {
        let obs = both();
        obs.stage_push(1, 7, 2, 5);
        obs.stage_pop(3, 7, 5, 2);
        let depths: Vec<_> = events(&obs)
            .into_iter()
            .map(|k| match k {
                EventKind::StagePush { depth, .. } => (true, depth),
                EventKind::StagePop { depth, .. } => (false, depth),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            depths,
            vec![(true, 3), (true, 4), (true, 5), (false, 4), (false, 3)]
        );
        let snap = obs.metrics.as_ref().expect("hub attached").snapshot();
        assert_eq!(snap.total(CounterId::StreamItemsIn), 3);
        assert_eq!(snap.total(CounterId::StreamItemsOut), 2);
        assert_eq!(snap.total_max(GaugeId::StreamQueueDepth), 5);
    }

    #[test]
    fn a_link_resume_is_one_retransmission() {
        let obs = both();
        obs.link_resume(0, 0, 4);
        obs.retransmit(0, 1);
        assert_eq!(
            events(&obs),
            vec![
                EventKind::Retransmit { attempt: 0 },
                EventKind::Retransmit { attempt: 1 },
            ]
        );
        let snap = obs.metrics.as_ref().expect("hub attached").snapshot();
        assert_eq!(snap.total(CounterId::Retransmits), 2);
        assert_eq!(snap.total(CounterId::NetReconnects), 1);
        assert_eq!(snap.total(CounterId::NetFramesReplayed), 4);
    }
}
