//! Runtime metrics for the patternlets runtimes.
//!
//! The [`MetricsHub`] is the quantitative sibling of the event tracer in
//! `patternlets-trace`: where the tracer records *what happened* as an
//! ordered event stream, the hub accumulates *how much / how long* as a
//! fixed vocabulary of instruments:
//!
//! * **counters** — monotonically increasing `u64`s ([`CounterId`]),
//! * **max-gauges** — high-water marks ([`GaugeId`]), and
//! * **histograms** — log2-bucketed latency/size distributions
//!   ([`HistId`]).
//!
//! Every instrument is *sharded by lane*: a lane is a world rank (mp/net)
//! or a team-thread index (shmem), exactly the lane convention the tracer
//! uses. Each lane owns a private shard of plain atomics, so recording is
//! a relaxed `fetch_add` with no locks, no allocation, and no cross-lane
//! cache-line traffic on the hot path. A shard is allocated the first
//! time its lane is touched, so a hub costs what its world uses: a
//! launched rank touches one or two of the 64 lanes, and a fresh hub
//! holds none. Lanes beyond the shard count wrap (`lane % shards`); the
//! per-lane attribution degrades but no sample is ever dropped.
//!
//! Runtimes hold the hub next to the tracer in one [`Obs`], whose methods
//! are the instrumentation points: each records the point's trace event
//! and its instruments together. When the hub is absent a point costs one
//! `is_none` check (see the `metrics_overhead` bench). Cloning a hub is an
//! `Arc` bump — all clones feed the same shards, which is how one hub
//! spans every rank thread of an in-process world.
//!
//! A [`MetricsSnapshot`] is a point-in-time copy that merges: snapshots
//! from N ranks (or N processes, via the wire codec in [`wire`]) combine
//! lane-by-lane in any order to the same totals — counters and histogram
//! buckets add, gauges take the max. `tests` and the repo-level proptest
//! pin this order-independence. Both launchers keep each rank's latest
//! snapshot per job and merge on demand (`patternlets_serve::job::Reports`);
//! a fleet total is the merge of every job's merge.

mod export;
mod obs;
mod snapshot;
pub mod wire;

pub use export::{render_counters, render_prometheus, render_summary};
pub use obs::{Obs, Phase};
pub use snapshot::{HistData, LaneMetrics, MetricsSnapshot};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Default number of lane shards (covers any classroom-sized world; larger
/// lanes wrap).
pub const DEFAULT_LANES: usize = 64;

/// Number of log2 buckets per histogram. Bucket `i` (for `i ≥ 1`) counts
/// values `v` with `2^(i-1) ≤ v < 2^i`; bucket 0 counts `v == 0`; the last
/// bucket also absorbs everything `≥ 2^(BUCKETS-2)` (≈ 9 minutes in ns).
pub const BUCKETS: usize = 40;

// ---------------------------------------------------------------------------
// Instrument vocabulary
// ---------------------------------------------------------------------------

/// Monotonic counters. The discriminant is the shard-array index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CounterId {
    /// Messages sent whose payload took the zero-copy `InProc` representation.
    MsgsSentInproc = 0,
    /// Messages sent whose payload was encoded to bytes.
    MsgsSentEncoded,
    /// Payload bytes sent (either representation).
    BytesSent,
    /// Messages matched by a receive (post-dedup: each logical message once).
    MsgsRecv,
    /// Payload bytes received.
    BytesRecv,
    /// Receives satisfied during the spin phase (no park).
    RecvSpin,
    /// Receives that parked on the mailbox condvar at least once.
    RecvPark,
    /// Retransmissions (extra transmissions, not messages): chaos-lost
    /// sends repeated by the sender, and TCP link resumes.
    Retransmits,
    /// Duplicate envelopes swallowed by mailbox dedup.
    DupDrops,
    /// Loop chunks claimed, by schedule kind.
    ChunksStaticBlock,
    ChunksStaticCyclic,
    ChunksStaticChunked,
    ChunksDynamic,
    ChunksGuided,
    /// Loop iterations executed, by schedule kind.
    ItersStaticBlock,
    ItersStaticCyclic,
    ItersStaticChunked,
    ItersDynamic,
    ItersGuided,
    /// Wire frames written by the TCP fabric.
    NetFramesSent,
    /// Wire bytes sent, attributed to the *destination* peer's lane.
    NetBytesToPeer,
    /// Peer connections (re-)established after the initial mesh.
    NetReconnects,
    /// Ranks declared failed by the liveness layer.
    NetRankFailures,
    /// Heartbeat pings sent.
    NetHeartbeats,
    /// Messages sent whose payload was stored inline in the envelope
    /// (small encoded payloads, no heap allocation).
    MsgsSentInline,
    /// Wire frames replayed from a send ring after a reconnect.
    NetFramesReplayed,
    /// Wire frames rejected for a CRC mismatch (each tears the connection
    /// down and triggers a resume).
    NetCrcRejects,
    /// Checkpoints written by `Comm::checkpoint`.
    CheckpointsTaken,
    /// Bytes written to checkpoint files.
    CheckpointBytes,
    /// Items pushed into a stream channel, attributed to the queue's lane.
    StreamItemsIn,
    /// Items popped from a stream channel, attributed to the queue's lane.
    StreamItemsOut,
    /// Frames pushed into a shared-memory ring, attributed to the
    /// *destination* peer's lane (the shm analogue of `NetFramesSent`).
    ShmSends,
    /// Spin-loop iterations burnt waiting on a full or empty shm ring.
    ShmFullSpins,
    /// Doorbell parks (futex sleeps) taken on a full or empty shm ring.
    ShmDoorbellParks,
    /// SPSC-ring waits (byte ring or typed stream edge) that resolved
    /// during the spin/yield phase, without parking — the SPSC analogue
    /// of the mailbox's `RecvSpin`.
    SpscSpinWaits,
    /// SPSC-ring waits that parked on a doorbell at least once before
    /// resolving — the SPSC analogue of `RecvPark`.
    SpscParkWaits,
}

/// Number of counters in each lane shard.
pub const COUNTER_COUNT: usize = 36;

impl CounterId {
    /// Every counter, in shard order.
    pub const ALL: [CounterId; COUNTER_COUNT] = [
        CounterId::MsgsSentInproc,
        CounterId::MsgsSentEncoded,
        CounterId::BytesSent,
        CounterId::MsgsRecv,
        CounterId::BytesRecv,
        CounterId::RecvSpin,
        CounterId::RecvPark,
        CounterId::Retransmits,
        CounterId::DupDrops,
        CounterId::ChunksStaticBlock,
        CounterId::ChunksStaticCyclic,
        CounterId::ChunksStaticChunked,
        CounterId::ChunksDynamic,
        CounterId::ChunksGuided,
        CounterId::ItersStaticBlock,
        CounterId::ItersStaticCyclic,
        CounterId::ItersStaticChunked,
        CounterId::ItersDynamic,
        CounterId::ItersGuided,
        CounterId::NetFramesSent,
        CounterId::NetBytesToPeer,
        CounterId::NetReconnects,
        CounterId::NetRankFailures,
        CounterId::NetHeartbeats,
        CounterId::MsgsSentInline,
        CounterId::NetFramesReplayed,
        CounterId::NetCrcRejects,
        CounterId::CheckpointsTaken,
        CounterId::CheckpointBytes,
        CounterId::StreamItemsIn,
        CounterId::StreamItemsOut,
        CounterId::ShmSends,
        CounterId::ShmFullSpins,
        CounterId::ShmDoorbellParks,
        CounterId::SpscSpinWaits,
        CounterId::SpscParkWaits,
    ];

    /// Shard-array index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// High-water-mark gauges (merged by `max`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum GaugeId {
    /// Deepest a rank's mailbox ever got (queued envelopes).
    MailboxDepth = 0,
    /// Deepest a stream channel's bounded queue ever got (queued items),
    /// attributed to the queue's lane. Always ≤ the queue's capacity —
    /// the backpressure proptest pins this.
    StreamQueueDepth,
}

/// Number of gauges in each lane shard.
pub const GAUGE_COUNT: usize = 2;

impl GaugeId {
    /// Every gauge, in shard order.
    pub const ALL: [GaugeId; GAUGE_COUNT] = [GaugeId::MailboxDepth, GaugeId::StreamQueueDepth];

    /// Shard-array index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Collective-operation names with dedicated latency histograms; anything
/// else lands in the trailing `"other"` slot.
pub const COLL_OPS: [&str; 11] = [
    "allreduce",
    "alltoall",
    "barrier",
    "bcast",
    "exscan",
    "gather",
    "reduce",
    "scan",
    "scatter",
    "scatterv",
    "other",
];

/// Histogram identifier: a flat index into each lane's histogram array.
///
/// The first slots are fixed instruments; the remainder is one latency
/// histogram per entry of [`COLL_OPS`], reachable via [`HistId::coll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(pub usize);

/// Number of fixed (non-collective) histograms.
const FIXED_HISTS: usize = 5;

/// Number of histograms in each lane shard.
pub const HIST_COUNT: usize = FIXED_HISTS + COLL_OPS.len();

impl HistId {
    /// Nanoseconds a shmem thread waited inside a team barrier.
    pub const BARRIER_WAIT_NS: HistId = HistId(0);
    /// Frames coalesced into one vectored write by the TCP peer writer.
    pub const WRITEV_BATCH_FRAMES: HistId = HistId(1);
    /// Heartbeat round-trip time in nanoseconds.
    pub const HEARTBEAT_RTT_NS: HistId = HistId(2);
    /// Per-message payload size in bytes, at the sender.
    pub const SEND_BYTES: HistId = HistId(3);
    /// Nanoseconds spent writing one checkpoint (serialize + fsync-free
    /// file write + atomic rename).
    pub const CHECKPOINT_NS: HistId = HistId(4);

    /// The latency histogram for a collective op (unknown ops share
    /// `"other"`).
    #[inline]
    pub fn coll(op: &str) -> HistId {
        let i = COLL_OPS
            .iter()
            .position(|&o| o == op)
            .unwrap_or(COLL_OPS.len() - 1);
        HistId(FIXED_HISTS + i)
    }

    /// If this is a collective-latency histogram, the op name.
    pub fn coll_op(self) -> Option<&'static str> {
        self.0.checked_sub(FIXED_HISTS).map(|i| COLL_OPS[i])
    }
}

/// The log2 bucket a value falls into.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of a bucket (`u64::MAX` for the overflow bucket).
pub fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

// ---------------------------------------------------------------------------
// The hub
// ---------------------------------------------------------------------------

/// One lane's shard: plain atomics in an allocation of its own. All
/// updates are `Relaxed` — cross-lane ordering is meaningless for totals,
/// and snapshots are read after the world joins (or tolerate being
/// mid-flight, for the live status view).
struct LaneShard {
    counters: [AtomicU64; COUNTER_COUNT],
    gauges: [AtomicU64; GAUGE_COUNT],
    hist_buckets: Vec<[AtomicU64; BUCKETS]>,
    hist_sums: [AtomicU64; HIST_COUNT],
    /// Pad to keep adjacent shards off one cache line for the small arrays.
    _pad: [u64; 8],
}

impl LaneShard {
    fn new() -> Self {
        LaneShard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            hist_buckets: (0..HIST_COUNT)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            hist_sums: std::array::from_fn(|_| AtomicU64::new(0)),
            _pad: [0; 8],
        }
    }

    fn is_empty(&self) -> bool {
        self.counters.iter().all(|c| c.load(Ordering::Relaxed) == 0)
            && self.gauges.iter().all(|g| g.load(Ordering::Relaxed) == 0)
            && self
                .hist_buckets
                .iter()
                .flatten()
                .all(|b| b.load(Ordering::Relaxed) == 0)
    }
}

struct Inner {
    /// One slot per lane, filled on the lane's first touch. An empty slot
    /// reads as an all-zero shard, which a snapshot leaves out anyway.
    lanes: Box<[OnceLock<Box<LaneShard>>]>,
}

/// Cloneable handle to the sharded instrument store. See the crate docs.
#[derive(Clone)]
pub struct MetricsHub {
    inner: Arc<Inner>,
}

impl Default for MetricsHub {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsHub")
            .field("lanes", &self.inner.lanes.len())
            .finish_non_exhaustive()
    }
}

impl MetricsHub {
    /// A hub with [`DEFAULT_LANES`] shards.
    pub fn new() -> Self {
        Self::with_lanes(DEFAULT_LANES)
    }

    /// A hub with a custom shard count (minimum 1). No shard is allocated
    /// until its lane is first touched.
    pub fn with_lanes(lanes: usize) -> Self {
        MetricsHub {
            inner: Arc::new(Inner {
                lanes: (0..lanes.max(1)).map(|_| OnceLock::new()).collect(),
            }),
        }
    }

    #[inline]
    fn shard(&self, lane: usize) -> &LaneShard {
        let slot = &self.inner.lanes[lane % self.inner.lanes.len()];
        match slot.get() {
            Some(shard) => shard,
            None => first_touch(slot),
        }
    }

    /// Add `n` to a counter on `lane`.
    #[inline]
    pub fn add(&self, lane: usize, id: CounterId, n: u64) {
        self.shard(lane).counters[id.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Increment a counter on `lane`.
    #[inline]
    pub fn incr(&self, lane: usize, id: CounterId) {
        self.add(lane, id, 1);
    }

    /// Raise a high-water gauge on `lane` to at least `v`.
    #[inline]
    pub fn gauge_max(&self, lane: usize, id: GaugeId, v: u64) {
        self.shard(lane).gauges[id.index()].fetch_max(v, Ordering::Relaxed);
    }

    /// Record one observation into a histogram on `lane`.
    #[inline]
    pub fn observe(&self, lane: usize, id: HistId, v: u64) {
        let shard = self.shard(lane);
        shard.hist_buckets[id.0][bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        shard.hist_sums[id.0].fetch_add(v, Ordering::Relaxed);
    }

    /// A drop guard that records elapsed nanoseconds into `id` on `lane`.
    pub fn timer(&self, lane: usize, id: HistId) -> TimerGuard<'_> {
        TimerGuard {
            hub: self,
            lane,
            id,
            start: Instant::now(),
        }
    }

    /// Point-in-time copy of every non-empty lane.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let lanes = self
            .inner
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(lane, s)| Some((lane, s.get()?)))
            .filter(|(_, s)| !s.is_empty())
            .map(|(lane, s)| LaneMetrics {
                lane,
                counters: s
                    .counters
                    .iter()
                    .map(|c| c.load(Ordering::Relaxed))
                    .collect(),
                maxes: s.gauges.iter().map(|g| g.load(Ordering::Relaxed)).collect(),
                hists: s
                    .hist_buckets
                    .iter()
                    .zip(s.hist_sums.iter())
                    .map(|(buckets, sum)| {
                        let mut b: Vec<u64> =
                            buckets.iter().map(|x| x.load(Ordering::Relaxed)).collect();
                        while b.last() == Some(&0) {
                            b.pop();
                        }
                        HistData {
                            buckets: b,
                            sum: sum.load(Ordering::Relaxed),
                        }
                    })
                    .collect(),
            })
            .collect();
        MetricsSnapshot { lanes }
    }
}

/// Allocate a lane's shard, or take the one a racing thread allocated.
/// Out of line, so that every inlined recording site keeps only the
/// load and branch of [`MetricsHub::shard`].
#[cold]
#[inline(never)]
fn first_touch(slot: &OnceLock<Box<LaneShard>>) -> &LaneShard {
    slot.get_or_init(|| Box::new(LaneShard::new()))
}

/// Records elapsed wall time into a histogram when dropped.
/// Created by [`MetricsHub::timer`].
pub struct TimerGuard<'a> {
    hub: &'a MetricsHub,
    lane: usize,
    id: HistId,
    start: Instant,
}

impl Drop for TimerGuard<'_> {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.hub.observe(self.lane, self.id, ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_ids_match_shard_order() {
        for (i, id) in CounterId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
        assert_eq!(CounterId::ALL.len(), COUNTER_COUNT);
    }

    #[test]
    fn buckets_partition_the_u64_line() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every value's bucket bound is ≥ the value (up to the overflow
        // bucket's saturation).
        for v in [0u64, 1, 5, 1000, 1 << 20, 1 << 39] {
            assert!(bucket_bound(bucket_of(v)) >= v, "v={v}");
        }
    }

    #[test]
    fn lanes_wrap_instead_of_dropping() {
        let hub = MetricsHub::with_lanes(2);
        hub.incr(0, CounterId::MsgsRecv);
        hub.incr(5, CounterId::MsgsRecv); // wraps to lane 1
        let snap = hub.snapshot();
        assert_eq!(snap.total(CounterId::MsgsRecv), 2);
        assert_eq!(snap.lanes.len(), 2);
    }

    #[test]
    fn snapshot_skips_untouched_lanes() {
        let hub = MetricsHub::new();
        hub.add(3, CounterId::BytesSent, 10);
        let snap = hub.snapshot();
        assert_eq!(snap.lanes.len(), 1);
        assert_eq!(snap.lanes[0].lane, 3);
    }

    #[test]
    fn coll_histograms_have_stable_slots() {
        assert_eq!(HistId::coll("bcast"), HistId::coll("bcast"));
        assert_ne!(HistId::coll("bcast"), HistId::coll("reduce"));
        assert_eq!(HistId::coll("no-such-op"), HistId::coll("other"));
        assert_eq!(HistId::coll("barrier").coll_op(), Some("barrier"));
        assert_eq!(HistId::BARRIER_WAIT_NS.coll_op(), None);
    }

    /// How many of `hub`'s lanes have a shard.
    fn allocated_lanes(hub: &MetricsHub) -> usize {
        hub.inner.lanes.iter().filter(|l| l.get().is_some()).count()
    }

    #[test]
    fn a_fresh_hub_allocates_no_shard() {
        let hub = MetricsHub::new();
        assert_eq!(allocated_lanes(&hub), 0);
        assert!(hub.snapshot().lanes.is_empty());
        hub.incr(DEFAULT_LANES + 3, CounterId::MsgsRecv);
        hub.observe(3, HistId::SEND_BYTES, 8);
        assert_eq!(
            allocated_lanes(&hub),
            1,
            "lane 3 and its wrap share a shard"
        );
    }

    #[test]
    fn racing_first_touches_lose_no_count() {
        const THREADS: usize = 8;
        const ADDS: u64 = 1000;
        let hub = MetricsHub::new();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..ADDS {
                        hub.incr(5, CounterId::MsgsRecv);
                    }
                    hub.gauge_max(5, GaugeId::MailboxDepth, 7);
                    hub.observe(5, HistId::SEND_BYTES, 64);
                });
            }
        });
        assert_eq!(allocated_lanes(&hub), 1);
        let snap = hub.snapshot();
        assert_eq!(snap.total(CounterId::MsgsRecv), THREADS as u64 * ADDS);
        assert_eq!(snap.total_max(GaugeId::MailboxDepth), 7);
        assert_eq!(snap.hist_total(HistId::SEND_BYTES).count(), THREADS as u64);
    }

    #[test]
    fn timer_records_into_the_histogram() {
        let hub = MetricsHub::new();
        {
            let _t = hub.timer(0, HistId::coll("bcast"));
        }
        let snap = hub.snapshot();
        assert_eq!(snap.hist_total(HistId::coll("bcast")).count(), 1);
    }

    /// Every lane's instruments as plain numbers, all allocated up front:
    /// the hub as it was before lanes were allocated on first touch.
    #[derive(Clone)]
    struct EagerLane {
        counters: [u64; COUNTER_COUNT],
        gauges: [u64; GAUGE_COUNT],
        buckets: [[u64; BUCKETS]; HIST_COUNT],
        sums: [u64; HIST_COUNT],
    }

    /// One generated update: `(lane, kind, value)`. Kinds index counters,
    /// then gauges, then histograms.
    type Op = (usize, usize, u64);

    const KINDS: usize = COUNTER_COUNT + GAUGE_COUNT + HIST_COUNT;

    fn apply(hub: &MetricsHub, model: &mut [EagerLane], &(lane, kind, value): &Op) {
        let m = &mut model[lane % DEFAULT_LANES];
        if kind < COUNTER_COUNT {
            hub.add(lane, CounterId::ALL[kind], value);
            m.counters[kind] = m.counters[kind].wrapping_add(value);
        } else if kind < COUNTER_COUNT + GAUGE_COUNT {
            let g = kind - COUNTER_COUNT;
            hub.gauge_max(lane, GaugeId::ALL[g], value);
            m.gauges[g] = m.gauges[g].max(value);
        } else {
            let h = kind - COUNTER_COUNT - GAUGE_COUNT;
            hub.observe(lane, HistId(h), value);
            m.buckets[h][bucket_of(value)] += 1;
            m.sums[h] = m.sums[h].wrapping_add(value);
        }
    }

    fn eager_snapshot(model: &[EagerLane]) -> MetricsSnapshot {
        let lanes = model
            .iter()
            .enumerate()
            .filter(|(_, m)| {
                m.counters
                    .iter()
                    .chain(&m.gauges)
                    .chain(m.buckets.iter().flatten())
                    .any(|&v| v > 0)
            })
            .map(|(lane, m)| LaneMetrics {
                lane,
                counters: m.counters.to_vec(),
                maxes: m.gauges.to_vec(),
                hists: m
                    .buckets
                    .iter()
                    .zip(m.sums)
                    .map(|(b, sum)| {
                        let used = b.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
                        HistData {
                            buckets: b[..used].to_vec(),
                            sum,
                        }
                    })
                    .collect(),
            })
            .collect();
        MetricsSnapshot { lanes }
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn lazy_lanes_snapshot_like_eager_ones(
            ops in proptest::collection::vec(
                ((0usize..2 * DEFAULT_LANES + 8, 0usize..KINDS), (0u64..4, 0u64..(1u64 << 45))),
                0..200,
            ),
        ) {
            let ops: Vec<Op> = ops
                .into_iter()
                // A quarter of the values are 0: touched lanes that stay empty.
                .map(|((lane, kind), (zero, v))| (lane, kind, if zero == 0 { 0 } else { v }))
                .collect();
            let hub = MetricsHub::new();
            let mut model = vec![
                EagerLane {
                    counters: [0; COUNTER_COUNT],
                    gauges: [0; GAUGE_COUNT],
                    buckets: [[0; BUCKETS]; HIST_COUNT],
                    sums: [0; HIST_COUNT],
                };
                DEFAULT_LANES
            ];
            for op in &ops {
                apply(&hub, &mut model, op);
            }
            let (lazy, eager) = (hub.snapshot(), eager_snapshot(&model));
            prop_assert_eq!(wire::encode(&lazy), wire::encode(&eager));
            prop_assert_eq!(lazy, eager);
        }
    }
}
