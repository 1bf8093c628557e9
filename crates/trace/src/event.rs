//! The event vocabulary: everything the two runtimes know how to report.

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The lane (world rank or thread id) that emitted the event.
    pub lane: usize,
    /// Global emission order across all lanes: strictly increasing over a
    /// whole [`crate::Trace`], so the cross-lane interleaving is total.
    pub seq: u64,
    /// Nanoseconds since the tracer was created.
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The kinds of events the runtimes emit.
///
/// Message events come from the `mp` transport, carrying the envelope's
/// per-sender sequence number and payload size; `Retransmit`/`DupDropped`
/// surface the chaos transport's behaviour. Region, barrier, and chunk
/// events come from the `shmem` runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A message left this lane's rank.
    MsgSend {
        /// Destination world rank.
        to: usize,
        /// Message tag (negative = runtime-internal collective/ack traffic).
        tag: i32,
        /// Payload size in bytes.
        bytes: usize,
        /// The envelope's per-sender sequence number.
        seq: u64,
    },
    /// A message was matched by a receive on this lane's rank.
    MsgRecv {
        /// Source world rank.
        from: usize,
        /// Message tag.
        tag: i32,
        /// Payload size in bytes.
        bytes: usize,
        /// The sender's per-stream sequence number, copied from the
        /// envelope — pairs this receive with exactly one
        /// [`EventKind::MsgSend`] `(from, seq)` for causal stitching.
        seq: u64,
    },
    /// This rank entered a collective operation.
    CollBegin {
        /// Collective name (`"bcast"`, `"barrier"`, …).
        op: &'static str,
    },
    /// This rank left a collective operation.
    CollEnd {
        /// Collective name, matching the begin.
        op: &'static str,
    },
    /// A retransmission: the chaos transport lost a transmission and the
    /// sender retransmitted after a backoff, or a TCP link resumed and
    /// replayed its unacknowledged frames.
    Retransmit {
        /// Zero-based retry attempt number.
        attempt: u32,
    },
    /// The chaos transport duplicated a message and the receiving mailbox
    /// swallowed the copy.
    DupDropped,
    /// A thread entered a parallel region.
    RegionBegin {
        /// Team size of the region.
        team: usize,
    },
    /// A thread left a parallel region (normally or by panic).
    RegionEnd,
    /// A thread arrived at a team barrier and started waiting.
    BarrierWait,
    /// A thread was released from a team barrier.
    BarrierRelease,
    /// A thread claimed a chunk of loop iterations from a schedule.
    ChunkClaim {
        /// First iteration index of the chunk.
        start: usize,
        /// Number of iterations in the chunk.
        len: usize,
    },
    /// A stream stage pushed an item into a bounded channel.
    StagePush {
        /// Queue id of the channel (also its metrics lane).
        queue: usize,
        /// Queue depth right after the push.
        depth: usize,
    },
    /// A stream stage popped an item from a bounded channel.
    StagePop {
        /// Queue id of the channel.
        queue: usize,
        /// Queue depth right after the pop.
        depth: usize,
    },
    /// A stream channel reached end-of-stream: closed and fully drained.
    StageEos {
        /// Queue id of the channel.
        queue: usize,
    },
}

impl EventKind {
    /// Short label for renderers and counters.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::MsgSend { .. } => "send",
            EventKind::MsgRecv { .. } => "recv",
            EventKind::CollBegin { .. } => "coll-begin",
            EventKind::CollEnd { .. } => "coll-end",
            EventKind::Retransmit { .. } => "retransmit",
            EventKind::DupDropped => "dup-dropped",
            EventKind::RegionBegin { .. } => "region-begin",
            EventKind::RegionEnd => "region-end",
            EventKind::BarrierWait => "barrier-wait",
            EventKind::BarrierRelease => "barrier-release",
            EventKind::ChunkClaim { .. } => "chunk-claim",
            EventKind::StagePush { .. } => "stage-push",
            EventKind::StagePop { .. } => "stage-pop",
            EventKind::StageEos { .. } => "stage-eos",
        }
    }

    /// Is this a user-level message event (non-negative tag), as opposed
    /// to runtime (collective/ack) traffic or a non-message event?
    pub fn is_user_msg(&self) -> bool {
        matches!(
            self,
            EventKind::MsgSend { tag, .. } | EventKind::MsgRecv { tag, .. } if *tag >= 0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            EventKind::MsgSend {
                to: 1,
                tag: 0,
                bytes: 8,
                seq: 0
            }
            .label(),
            "send"
        );
        assert_eq!(EventKind::BarrierWait.label(), "barrier-wait");
        assert_eq!(EventKind::DupDropped.label(), "dup-dropped");
        assert_eq!(
            EventKind::StagePush { queue: 0, depth: 1 }.label(),
            "stage-push"
        );
        assert_eq!(EventKind::StageEos { queue: 0 }.label(), "stage-eos");
    }

    #[test]
    fn user_traffic_is_distinguished_by_tag_sign() {
        let user = EventKind::MsgSend {
            to: 0,
            tag: 3,
            bytes: 1,
            seq: 0,
        };
        let runtime = EventKind::MsgRecv {
            from: 0,
            tag: -5,
            bytes: 1,
            seq: 0,
        };
        assert!(user.is_user_msg());
        assert!(!runtime.is_user_msg());
        assert!(!EventKind::BarrierWait.is_user_msg());
    }
}
