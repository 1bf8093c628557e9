//! Replayable send ring — the sender half of the resume protocol.
//!
//! Every *sequenced* frame (see [`Frame::is_sequenced`]) written to a peer
//! is retained here, already encoded, until the peer acknowledges having
//! received it. Acknowledgements ride on the heartbeat: each `Ping { seen }`
//! carries the receiver's count of sequenced frames delivered so far, and
//! [`SendRing::ack`] drops everything below that count. When a connection
//! is re-established, the `Resume` handshake exchanges those same counts
//! and [`SendRing::resume`] rewinds the replay cursor so the unacknowledged
//! tail is transmitted again — no loss, no duplication, because the counts
//! are exact.
//!
//! Sequence numbers are *absolute* (0-based, monotonically increasing for
//! the lifetime of the peer link), so a resume after several reconnects
//! still lines up. The ring never renumbers.
//!
//! [`Frame::is_sequenced`]: crate::frame::Frame::is_sequenced

use std::collections::VecDeque;

use bytes::Bytes;
use patternlets_core::{Error, Result};

/// One encoded record as a TCP link keeps it: the record's head, and the
/// payload bytes that follow it, each a shared buffer. The payload is the
/// sending envelope's own buffer, so retaining a record, batching it and
/// replaying it are refcount bumps, not copies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharedRecord {
    /// The record's first bytes: an `Env` head, or a whole record.
    pub head: Bytes,
    /// The bytes after the head; empty for a record that is all head.
    pub payload: Bytes,
}

impl SharedRecord {
    /// Bytes on the wire.
    pub fn len(&self) -> usize {
        self.head.len() + self.payload.len()
    }

    /// True for a record of no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The head, then the payload.
    pub fn pieces(&self) -> [&[u8]; 2] {
        [&self.head, &self.payload]
    }
}

/// A whole record, adopted as the head.
impl From<Vec<u8>> for SharedRecord {
    fn from(record: Vec<u8>) -> Self {
        SharedRecord {
            head: Bytes::from(record),
            payload: Bytes::new(),
        }
    }
}

/// The wire bytes of `batch`, joined into one buffer: a copy, for the
/// chaos plan to damage.
pub fn flatten(batch: &[SharedRecord]) -> Vec<u8> {
    batch
        .iter()
        .flat_map(SharedRecord::pieces)
        .flatten()
        .copied()
        .collect()
}

/// Retained encoded frames awaiting acknowledgement, plus the replay
/// cursor for the current connection incarnation.
#[derive(Debug, Default)]
pub struct SendRing {
    /// Encoded records, `frames[0]` having absolute sequence `base`.
    frames: VecDeque<SharedRecord>,
    /// Absolute sequence number of the oldest retained frame.
    base: u64,
    /// Absolute sequence number of the next frame to hand to the wire.
    /// Invariant: `base <= cursor <= next()`.
    cursor: u64,
}

impl SendRing {
    /// An empty ring starting at sequence 0.
    pub fn new() -> Self {
        SendRing::default()
    }

    /// Absolute sequence number the *next* pushed frame will get — equal
    /// to the count of sequenced frames ever pushed.
    pub fn next(&self) -> u64 {
        self.base + self.frames.len() as u64
    }

    /// Number of retained (unacknowledged) frames.
    pub fn retained(&self) -> usize {
        self.frames.len()
    }

    /// Number of frames at or past the cursor, i.e. not yet written on the
    /// current connection.
    pub fn unsent(&self) -> usize {
        (self.next() - self.cursor) as usize
    }

    /// Retain one encoded record; returns its absolute sequence number.
    /// A `Vec` is adopted, not copied.
    pub fn push(&mut self, record: impl Into<SharedRecord>) -> u64 {
        let seq = self.next();
        self.frames.push_back(record.into());
        seq
    }

    /// Drop every frame with sequence `< seen` — the peer has confirmed
    /// delivery. A stale `seen` (below `base`) is a no-op; a `seen` above
    /// `next()` is clamped (the peer cannot have seen frames we never
    /// sent, but a clamp is safer than a panic on a byzantine ack).
    pub fn ack(&mut self, seen: u64) {
        let seen = seen.min(self.next());
        while self.base < seen {
            self.frames.pop_front();
            self.base += 1;
        }
        if self.cursor < self.base {
            self.cursor = self.base;
        }
    }

    /// Rewind the replay cursor to `peer_recv` — the count of sequenced
    /// frames the peer reports having delivered — after a reconnect.
    /// Everything at or past that count is retransmitted by subsequent
    /// [`next_batch`](Self::next_batch) calls. Returns the number of
    /// frames that will be replayed.
    ///
    /// Errs when the count is incoherent: below `base` means the peer
    /// missed frames we already discarded (an ack we acted on was wrong),
    /// above `next()` means the peer claims frames we never sent. Either
    /// way the link state is corrupt and the peer must be failed.
    pub fn resume(&mut self, peer_recv: u64) -> Result<u64> {
        if peer_recv < self.base || peer_recv > self.next() {
            return Err(Error::Codec(format!(
                "resume count {peer_recv} outside retained window [{}, {}]",
                self.base,
                self.next()
            )));
        }
        // Frames below peer_recv are implicitly acknowledged.
        self.ack(peer_recv);
        self.cursor = peer_recv;
        Ok(self.next() - peer_recv)
    }

    /// Append shares of up to `max` records starting at the cursor to
    /// `out`, and advance the cursor past them. The shares are what goes
    /// on the wire; the ring keeps its own until acknowledged.
    pub fn next_batch(&mut self, max: usize, out: &mut Vec<SharedRecord>) {
        let start = (self.cursor - self.base) as usize;
        let take = self.frames.len().saturating_sub(start).min(max);
        out.extend(self.frames.range(start..start + take).cloned());
        self.cursor += take as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(n: u8) -> SharedRecord {
        SharedRecord::from(vec![n; 4])
    }

    fn next_batch(r: &mut SendRing, max: usize) -> Vec<SharedRecord> {
        let mut out = Vec::new();
        r.next_batch(max, &mut out);
        out
    }

    #[test]
    fn sequences_are_absolute_and_monotone() {
        let mut r = SendRing::new();
        assert_eq!(r.push(rec(0)), 0);
        assert_eq!(r.push(rec(1)), 1);
        assert_eq!(r.next(), 2);
        assert_eq!(r.retained(), 2);
        r.ack(2);
        assert_eq!(r.retained(), 0);
        // Numbering continues after a full drain.
        assert_eq!(r.push(rec(2)), 2);
    }

    #[test]
    fn batches_advance_without_dropping() {
        let mut r = SendRing::new();
        for i in 0..5 {
            r.push(rec(i));
        }
        let a = next_batch(&mut r, 2);
        let b = next_batch(&mut r, 10);
        assert_eq!(a, vec![rec(0), rec(1)]);
        assert_eq!(b, vec![rec(2), rec(3), rec(4)]);
        assert!(next_batch(&mut r, 10).is_empty());
        // Nothing acknowledged yet: all five are still retained.
        assert_eq!(r.retained(), 5);
        r.ack(3);
        assert_eq!(r.retained(), 2);
    }

    #[test]
    fn retaining_and_batching_copy_no_record() {
        let mut r = SendRing::new();
        let record = vec![9u8; 64];
        let at = record.as_ptr();
        r.push(record);
        let payload = Bytes::from(vec![3u8; 4096]);
        let payload_at = payload.as_ptr();
        r.push(SharedRecord {
            head: Bytes::from(vec![1u8; 8]),
            payload,
        });
        let first = next_batch(&mut r, 2);
        r.resume(0).unwrap();
        let replay = next_batch(&mut r, 2);
        assert_eq!(
            first[0].head.as_ptr(),
            at,
            "the pushed Vec is adopted and shared"
        );
        assert_eq!(replay[0].head.as_ptr(), at, "a replay shares it too");
        assert_eq!(first[1].payload.as_ptr(), payload_at, "so is a payload");
        assert_eq!(replay[1].payload.as_ptr(), payload_at);
        assert_eq!(replay[1].len(), 8 + 4096);
    }

    #[test]
    fn resume_replays_the_unacknowledged_tail() {
        let mut r = SendRing::new();
        for i in 0..6 {
            r.push(rec(i));
        }
        assert_eq!(next_batch(&mut r, 6).len(), 6); // all "written" once
        r.ack(2); // peer confirmed 0 and 1
        let replayed = r.resume(4).unwrap(); // peer actually delivered 4
        assert_eq!(replayed, 2);
        assert_eq!(next_batch(&mut r, 10), vec![rec(4), rec(5)]);
    }

    #[test]
    fn resume_count_implies_acknowledgement() {
        let mut r = SendRing::new();
        for i in 0..4 {
            r.push(rec(i));
        }
        r.resume(3).unwrap();
        // Frames 0..3 were delivered, so only frame 3 remains retained.
        assert_eq!(r.retained(), 1);
        assert_eq!(r.unsent(), 1);
    }

    #[test]
    fn incoherent_resume_counts_are_rejected() {
        let mut r = SendRing::new();
        for i in 0..4 {
            r.push(rec(i));
        }
        r.ack(2);
        assert!(r.resume(1).is_err(), "below retained window");
        assert!(r.resume(5).is_err(), "claims unsent frames");
        assert!(r.resume(2).is_ok());
        assert!(r.resume(4).is_ok());
    }

    #[test]
    fn stale_and_byzantine_acks_are_harmless() {
        let mut r = SendRing::new();
        r.push(rec(0));
        r.push(rec(1));
        r.ack(1);
        r.ack(0); // stale: no-op
        assert_eq!(r.retained(), 1);
        r.ack(99); // byzantine: clamped to next()
        assert_eq!(r.retained(), 0);
        assert_eq!(r.next(), 2);
    }
}
