//! Byte codec for shipping a [`MetricsSnapshot`] between processes.
//!
//! Launched ranks, under `pmrun` or `pmserve`, send snapshots to their
//! launcher inside a `JobMetrics` wire frame; the payload of that frame is
//! exactly this encoding. The format
//! is self-describing in its vector lengths, so a launcher and a worker
//! built with slightly different instrument vocabularies still interop
//! (missing trailing instruments read as zero — see
//! [`MetricsSnapshot::merge`]).
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! u8  version (=1)
//! u32 lane count
//! per lane:
//!   u32 lane index
//!   u32 n  |  n × u64 counters
//!   u32 n  |  n × u64 gauges
//!   u32 n  |  per histogram: u32 b | b × u64 buckets | u64 sum
//! ```

use crate::{HistData, LaneMetrics, MetricsSnapshot, BUCKETS};

/// Codec version written by [`encode`].
pub const VERSION: u8 = 1;

/// Hard caps: a decoder refuses anything past these rather than
/// allocating attacker-controlled sizes.
const MAX_LANES: usize = 4096;
const MAX_SLOTS: usize = 1024;

/// Decode failure: the reason and the byte offset where it was noticed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What went wrong.
    pub reason: &'static str,
    /// Byte offset of the failure.
    pub at: usize,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "metrics wire decode: {} at byte {}",
            self.reason, self.at
        )
    }
}

impl std::error::Error for WireError {}

/// Serialise a snapshot.
pub fn encode(snap: &MetricsSnapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + snap.lanes.len() * 128);
    out.push(VERSION);
    put_u32(&mut out, snap.lanes.len() as u32);
    for lane in &snap.lanes {
        put_u32(&mut out, lane.lane as u32);
        put_u32(&mut out, lane.counters.len() as u32);
        for &c in &lane.counters {
            put_u64(&mut out, c);
        }
        put_u32(&mut out, lane.maxes.len() as u32);
        for &m in &lane.maxes {
            put_u64(&mut out, m);
        }
        put_u32(&mut out, lane.hists.len() as u32);
        for h in &lane.hists {
            put_u32(&mut out, h.buckets.len() as u32);
            for &b in &h.buckets {
                put_u64(&mut out, b);
            }
            put_u64(&mut out, h.sum);
        }
    }
    out
}

/// Parse an [`encode`]d snapshot. Rejects trailing bytes, truncation, and
/// absurd lengths.
pub fn decode(bytes: &[u8]) -> Result<MetricsSnapshot, WireError> {
    let mut r = Reader { bytes, pos: 0 };
    let version = r.u8()?;
    if version != VERSION {
        return r.fail("unsupported version");
    }
    let n_lanes = r.len(MAX_LANES, "lane count")?;
    let mut lanes = Vec::with_capacity(n_lanes.min(64));
    for _ in 0..n_lanes {
        let lane = r.u32()? as usize;
        let n = r.len(MAX_SLOTS, "counter count")?;
        let counters = (0..n).map(|_| r.u64()).collect::<Result<Vec<_>, _>>()?;
        let n = r.len(MAX_SLOTS, "gauge count")?;
        let maxes = (0..n).map(|_| r.u64()).collect::<Result<Vec<_>, _>>()?;
        let n = r.len(MAX_SLOTS, "histogram count")?;
        let mut hists = Vec::with_capacity(n);
        for _ in 0..n {
            let b = r.len(BUCKETS, "bucket count")?;
            let buckets = (0..b).map(|_| r.u64()).collect::<Result<Vec<_>, _>>()?;
            let sum = r.u64()?;
            hists.push(HistData { buckets, sum });
        }
        lanes.push(LaneMetrics {
            lane,
            counters,
            maxes,
            hists,
        });
    }
    if r.pos != bytes.len() {
        return r.fail("trailing bytes");
    }
    // Re-establish the sorted/deduped invariant regardless of what the
    // peer sent: merge into an empty snapshot.
    let mut out = MetricsSnapshot::default();
    out.merge(&MetricsSnapshot { lanes });
    Ok(out)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn fail<T>(&self, reason: &'static str) -> Result<T, WireError> {
        Err(WireError {
            reason,
            at: self.pos,
        })
    }

    fn take(&mut self, n: usize) -> Result<&[u8], WireError> {
        if self.bytes.len() - self.pos < n {
            return self.fail("truncated");
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn len(&mut self, max: usize, what: &'static str) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > max {
            let _ = what;
            return self.fail("length over cap");
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterId, GaugeId, HistId, MetricsHub};

    fn busy_snapshot() -> MetricsSnapshot {
        let hub = MetricsHub::with_lanes(8);
        hub.add(0, CounterId::BytesSent, 1234);
        hub.incr(0, CounterId::MsgsSentInproc);
        hub.incr(3, CounterId::MsgsRecv);
        hub.gauge_max(3, GaugeId::MailboxDepth, 17);
        hub.observe(1, HistId::coll("bcast"), 4096);
        hub.observe(1, HistId::SEND_BYTES, 8);
        hub.snapshot()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let snap = busy_snapshot();
        let decoded = decode(&encode(&snap)).expect("decodes");
        assert_eq!(decoded, snap);
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = MetricsSnapshot::default();
        assert_eq!(decode(&encode(&snap)).expect("decodes"), snap);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode(&busy_snapshot());
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode(&busy_snapshot());
        bytes.push(0);
        assert_eq!(decode(&bytes).unwrap_err().reason, "trailing bytes");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = encode(&MetricsSnapshot::default());
        bytes[0] = 99;
        assert_eq!(decode(&bytes).unwrap_err().reason, "unsupported version");
    }

    #[test]
    fn absurd_lengths_are_capped() {
        let mut bytes = vec![VERSION];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&bytes).unwrap_err().reason, "length over cap");
    }
}
