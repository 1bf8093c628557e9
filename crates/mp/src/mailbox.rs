//! Per-rank mailboxes with MPI matching semantics.
//!
//! A mailbox holds the envelopes addressed to one rank, indexed two
//! levels deep: `(comm_id, src)` names a *stream*, and each stream is a
//! FIFO of envelopes in arrival order. A receive with an exact source
//! looks up one stream and scans it for the first tag match — O(stream
//! depth), independent of how much unrelated traffic is queued. An
//! `ANY_SOURCE` receive consults every stream of its communicator and
//! takes the earliest match by a global arrival stamp, reproducing the
//! first-match-in-arrival-order semantics a single scanned queue gives.
//! Combined with per-stream FIFO insertion this yields MPI's
//! non-overtaking guarantee. A receive with no matching envelope blocks;
//! if the runtime can prove no match can ever arrive (every possible
//! sender has finished), it reports deadlock instead of hanging.
//!
//! A blocked receive climbs the one wait ladder in the tree,
//! [`patternlets_core::spsc::wait_for`]: spin, yield, then park on the
//! mailbox's doorbell, which every delivery rings. Its re-checks read a
//! count of deliveries and take the lock only once it moved, so a
//! spinning receive does not contend with the threads delivering to it.
//! A transport that is
//! drained by the receiving rank itself rather than by threads of its own
//! (both process fabrics) installs a progress hook with
//! [`Mailbox::drive`]: the hook runs with the mailbox lock released before
//! every re-check, and the transport's [`Park`] says how the wait sleeps
//! between re-checks — the ladder on a doorbell every producer into the
//! rank rings (shared-memory rings), or `poll(2)` on the rank's sockets
//! with no spin or yield first (TCP) — so a parked receive wakes for any
//! peer.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use parking_lot::Mutex;
use patternlets_core::spsc::{self, Doorbell, Park, Wait};
use patternlets_core::{Error, Result};
use patternlets_metrics::{CounterId, GaugeId, Obs};

use crate::envelope::Envelope;
use crate::status::{SourceSel, TagSel};

/// Gap between consecutive arrival stamps. Displaced (chaos-reordered)
/// deliveries take the midpoint of the gap they land in; the sparse
/// numbering makes a full renumber vanishingly rare.
const STAMP_STEP: u64 = 1 << 16;

/// One queued envelope with its global arrival stamp.
struct Stamped {
    stamp: u64,
    env: Envelope,
}

#[derive(Default)]
struct Inner {
    /// Two-level index: `(comm_id, src)` → that stream's envelopes in
    /// arrival order. Per-stream stamps are strictly increasing (chaos
    /// displacement never overtakes the newcomer's own stream), so FIFO
    /// position order *is* stamp order within a stream. Emptied streams
    /// keep their entry (bounded by live (comm, sender) pairs, released
    /// by [`Mailbox::prune_comm`], exactly like `seen`).
    streams: HashMap<(u64, usize), VecDeque<Stamped>>,
    /// Highest sequence number seen per `(comm_id, sender)` stream.
    /// Sequence numbers are per-sender monotone, and chaos reordering
    /// never perturbs a single stream's order, so any envelope at or
    /// below the high-water mark is a duplicate transmission (a lost-ack
    /// retransmit under a fault plan) and is dropped here — the
    /// application sees each message exactly once.
    seen: HashMap<(u64, usize), u64>,
    /// Total queued envelopes across all streams.
    queued: usize,
    /// Last stamp handed out on the fast (non-displaced) path.
    next_stamp: u64,
}

impl Inner {
    /// The one matching routine behind `recv_match`, `probe`, and
    /// `try_probe`: the position of the first (earliest-arrival) envelope
    /// matching the selectors, as `(stream key, index within stream)`.
    fn find_match(
        &self,
        comm_id: u64,
        src: SourceSel,
        tag: TagSel,
    ) -> Option<((u64, usize), usize)> {
        match src {
            SourceSel::Rank(r) => {
                let key = (comm_id, r);
                let stream = self.streams.get(&key)?;
                stream
                    .iter()
                    .position(|s| tag.matches(s.env.tag))
                    .map(|idx| (key, idx))
            }
            SourceSel::Any => {
                // Earliest match across the communicator's streams, by
                // arrival stamp (the ANY_SOURCE tiebreak).
                let mut best: Option<(u64, (u64, usize), usize)> = None;
                for (&key, stream) in &self.streams {
                    if key.0 != comm_id {
                        continue;
                    }
                    if let Some(idx) = stream.iter().position(|s| tag.matches(s.env.tag)) {
                        let stamp = stream[idx].stamp;
                        if best.is_none_or(|(b, _, _)| stamp < b) {
                            best = Some((stamp, key, idx));
                        }
                    }
                }
                best.map(|(_, key, idx)| (key, idx))
            }
        }
    }

    /// Reference to the match found by [`Inner::find_match`].
    fn peek(&self, at: ((u64, usize), usize)) -> &Envelope {
        &self.streams[&at.0][at.1].env
    }

    /// Remove and return the match found by [`Inner::find_match`].
    fn take(&mut self, at: ((u64, usize), usize)) -> Envelope {
        let stamped = self
            .streams
            .get_mut(&at.0)
            .expect("stream exists: find_match returned it")
            .remove(at.1)
            .expect("index valid: find_match returned it");
        self.queued -= 1;
        stamped.env
    }

    /// Arrival stamp for a new envelope on `key`, displaced past up to
    /// `overtake` queued envelopes from other streams. The fast path
    /// (no displacement) is a counter bump; the chaos path orders the
    /// newcomer before the overtaken envelopes by taking a midpoint
    /// stamp, renumbering everything only when a gap is exhausted.
    fn place_stamp(&mut self, key: (u64, usize), overtake: usize) -> u64 {
        if overtake == 0 || self.queued == 0 {
            self.next_stamp += STAMP_STEP;
            return self.next_stamp;
        }
        // Global arrival order, newest first (chaos-only path: cost is
        // irrelevant next to the injected delays that trigger it).
        let mut stamps: Vec<(u64, (u64, usize))> = self
            .streams
            .iter()
            .flat_map(|(&k, stream)| stream.iter().map(move |s| (s.stamp, k)))
            .collect();
        stamps.sort_unstable_by_key(|&(stamp, _)| std::cmp::Reverse(stamp));
        // Walk back over at most `overtake` envelopes, stopping at the
        // first from the newcomer's own stream (non-overtaking).
        let mut ceil = None;
        for &(stamp, k) in stamps.iter().take(overtake) {
            if k == key {
                break;
            }
            ceil = Some(stamp);
        }
        let Some(ceil) = ceil else {
            self.next_stamp += STAMP_STEP;
            return self.next_stamp;
        };
        let floor = stamps
            .iter()
            .map(|&(s, _)| s)
            .filter(|&s| s < ceil)
            .max()
            .unwrap_or(0);
        if ceil - floor > 1 {
            return floor + (ceil - floor) / 2;
        }
        // Gap exhausted: renumber every queued envelope sparsely (stamp
        // order preserved), then place in the now-wide gap.
        self.renumber();
        self.place_stamp(key, overtake)
    }

    /// Re-space all stamps to `STAMP_STEP` apart, preserving order.
    fn renumber(&mut self) {
        let mut all: Vec<(u64, (u64, usize), usize)> = self
            .streams
            .iter()
            .flat_map(|(&k, stream)| {
                stream
                    .iter()
                    .enumerate()
                    .map(move |(idx, s)| (s.stamp, k, idx))
            })
            .collect();
        all.sort_unstable_by_key(|&(stamp, _, _)| stamp);
        let mut next = 0;
        for (_, key, idx) in all {
            next += STAMP_STEP;
            self.streams.get_mut(&key).expect("stream exists")[idx].stamp = next;
        }
        self.next_stamp = next.max(self.next_stamp);
    }
}

/// A transport the receiving rank drains itself (see [`Mailbox::drive`]).
struct Driver {
    /// How a blocked receive sleeps between drains.
    park: Park,
    /// Moves whatever the transport has ready into the mailbox.
    drain: Box<dyn Fn() + Send + Sync>,
}

/// A single rank's incoming message queue.
#[derive(Default)]
pub struct Mailbox {
    inner: Mutex<Inner>,
    /// Envelopes ever queued, bumped under the lock: a blocked receive
    /// re-takes the lock only once this moved.
    delivered: AtomicU64,
    /// Rung by every delivery; blocked receives park on it unless a
    /// driver brings its own way to park.
    bell: Doorbell,
    driver: OnceLock<Driver>,
    /// Tracer and metrics hub. The mailbox is where dedup and blocking
    /// happen, so duplicate drops, queue depth, and spin-vs-park
    /// resolution are recorded here — uniformly for the in-process and
    /// network backends, on the owning rank's lane.
    obs: Obs,
    lane: usize,
}

impl Mailbox {
    /// Create an empty mailbox.
    pub fn new() -> Self {
        Mailbox::default()
    }

    /// Create an empty mailbox that records through `obs` on `lane` (the
    /// owning rank's world rank).
    pub fn observed(obs: Obs, lane: usize) -> Self {
        Mailbox {
            obs,
            lane,
            ..Mailbox::default()
        }
    }

    /// Let blocked receives and probes drive the transport themselves:
    /// `drain` moves whatever has arrived into this mailbox and is called
    /// with the mailbox lock released, and `park` is how a blocked receive
    /// sleeps until the transport may have more — on a doorbell the
    /// transport rings whenever something arrives, instead of the
    /// mailbox's own, or in the transport's own poll. Installed once,
    /// before the first receive; later calls are ignored.
    pub fn drive(&self, park: Park, drain: impl Fn() + Send + Sync + 'static) {
        let _ = self.driver.set(Driver {
            park,
            drain: Box::new(drain),
        });
    }

    /// The doorbell to ring after a state change a blocked wait on this
    /// mailbox reads. A driver that parks in a poll wakes on its own
    /// transport instead, so such a change reaches its waiters within the
    /// driver's park interval.
    pub fn bell(&self) -> &Doorbell {
        match self.park() {
            Some(Park::Bell(bell)) => bell,
            _ => &self.bell,
        }
    }

    /// How the driver, if any, parks.
    fn park(&self) -> Option<&Park> {
        self.driver.get().map(|driver| &driver.park)
    }

    /// Block until `ready()` holds, or — with a `timeout` — until the wait
    /// has been parked that long, parking the way the driver does (see
    /// [`drive`](Mailbox::drive)), or on this mailbox's doorbell without
    /// one. Call it only once `ready()` has been seen false; `ready` does
    /// its own draining.
    pub fn wait_until(&self, ready: impl Fn() -> bool, timeout: Option<Duration>) -> Wait {
        match (self.park(), timeout) {
            (Some(park), _) => park.wait(ready, timeout),
            (None, Some(timeout)) => spsc::wait_for(&self.bell, ready, timeout),
            (None, None) => spsc::wait(&self.bell, ready),
        }
    }

    /// Run the progress hook, if one is installed. The caller must not
    /// hold this mailbox's lock.
    pub fn progress(&self) {
        if let Some(driver) = self.driver.get() {
            (driver.drain)();
        }
    }

    /// Deliver an envelope (called by the sender's thread).
    pub fn deliver(&self, env: Envelope) {
        self.deliver_displaced(env, 0);
    }

    /// Deliver `env` displaced past up to `overtake` queued envelopes
    /// and, when `duplicate`, a second copy for the dedup to swallow: a
    /// chaos transmission as seen by a fabric that hands envelopes
    /// straight to the destination's mailbox.
    pub(crate) fn deliver_copies(&self, env: Envelope, overtake: usize, duplicate: bool) {
        if duplicate {
            self.deliver_displaced(env.clone(), overtake);
            self.deliver_displaced(env, 0);
        } else {
            self.deliver_displaced(env, overtake);
        }
    }

    /// Deliver an envelope ahead of up to `overtake` already-queued
    /// envelopes — but never ahead of an earlier envelope from the same
    /// `(comm_id, sender)` stream, preserving MPI's non-overtaking
    /// guarantee under chaos reordering. Returns `false` if the envelope
    /// was a duplicate and was swallowed instead of enqueued.
    pub fn deliver_displaced(&self, env: Envelope, overtake: usize) -> bool {
        let mut inner = self.inner.lock();
        let key = (env.comm_id, env.src);
        if let Some(&max) = inner.seen.get(&key) {
            if env.seq <= max {
                self.obs.dup_dropped(self.lane);
                return false; // duplicate transmission
            }
        }
        inner.seen.insert(key, env.seq);
        let stamp = inner.place_stamp(key, overtake);
        inner
            .streams
            .entry(key)
            .or_default()
            .push_back(Stamped { stamp, env });
        inner.queued += 1;
        // Only lock holders write the count: no read-modify-write needed.
        let delivered = self.delivered.load(Ordering::Relaxed);
        self.delivered.store(delivered + 1, Ordering::Release);
        if let Some(hub) = &self.obs.metrics {
            hub.gauge_max(self.lane, GaugeId::MailboxDepth, inner.queued as u64);
        }
        drop(inner);
        self.bell().ring();
        true
    }

    /// Envelopes ever queued here. The count moves in the critical section
    /// that makes an envelope matchable, which the deadlock detector's
    /// verdict check relies on.
    pub(crate) fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Acquire)
    }

    /// Number of queued envelopes (diagnostics).
    pub fn len(&self) -> usize {
        self.inner.lock().queued
    }

    /// True when no envelopes are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocking matched receive.
    ///
    /// Only envelopes belonging to `comm_id` are considered — messages on
    /// one communicator are invisible to receives on another.
    ///
    /// `senders_alive` is consulted, with the mailbox lock held, every
    /// `poll` while the queue holds no match: it returns `None` while a
    /// matching send could still arrive, and `Some(error)` when it
    /// provably cannot — [`Error::RankFailed`] when a required peer died,
    /// [`Error::Deadlock`] when all senders finished or a waits-for cycle
    /// was proven.
    pub fn recv_match(
        &self,
        comm_id: u64,
        src: SourceSel,
        tag: TagSel,
        poll: Duration,
        senders_alive: impl Fn() -> Option<Error>,
        on_match: impl FnOnce(),
    ) -> Result<Envelope> {
        // Take the first match, retiring the caller's wait record while
        // still holding the queue lock: the deadlock detector must never
        // observe "wait posted" + "queue already drained" for a rank that
        // in fact matched (it would look stuck).
        let on_match = Cell::new(Some(on_match));
        let taken = Cell::new(None);
        let take = |inner: &mut Inner| match inner.find_match(comm_id, src, tag) {
            Some(at) => {
                if let Some(on_match) = on_match.take() {
                    on_match();
                }
                taken.set(Some(inner.take(at)));
                true
            }
            None => false,
        };
        // A driver that parks in a poll returns from it at once for bytes
        // already waiting, and drains after every park: draining before
        // the first would cost a syscall that finds nothing in the common
        // case, where the match is still in flight.
        let polls = matches!(self.park(), Some(Park::Poll(_)));
        let mut cost = Wait::default();
        let env = loop {
            if !polls {
                self.progress();
            }
            let mut inner = self.inner.lock();
            if take(&mut inner) {
                break taken.take();
            }
            // A wait that returned without a match was parked for `poll`:
            // a sender may have finished (or failed) without ever
            // touching this mailbox.
            if cost.parked() {
                if let Some(err) = senders_alive() {
                    return Err(err);
                }
            }
            // Only an envelope queued after this check can match.
            let seen = Cell::new(self.delivered.load(Ordering::Relaxed));
            drop(inner);
            let ready = || {
                self.progress();
                let delivered = self.delivered.load(Ordering::Acquire);
                delivered != seen.replace(delivered) && take(&mut self.inner.lock())
            };
            cost += self.wait_until(ready, Some(poll));
            if let Some(env) = taken.take() {
                break Some(env);
            }
        };
        self.record_wait(cost);
        Ok(env.expect("a match was taken"))
    }

    /// Count how one receive resolved: `RecvSpin` or `RecvPark`, and on a
    /// mailbox driven by rings — where the rank itself waited on them — the
    /// same wait as a ring wait on the `Spsc*`/`Shm*` counters.
    fn record_wait(&self, cost: Wait) {
        let Some(hub) = &self.obs.metrics else {
            return;
        };
        let parked = cost.parked();
        hub.incr(
            self.lane,
            if parked {
                CounterId::RecvPark
            } else {
                CounterId::RecvSpin
            },
        );
        if !matches!(self.park(), Some(Park::Bell(_))) || cost == Wait::default() {
            return;
        }
        for (id, n) in [
            (CounterId::ShmFullSpins, cost.spins),
            (CounterId::ShmDoorbellParks, cost.parks),
            (CounterId::SpscSpinWaits, u64::from(!parked)),
            (CounterId::SpscParkWaits, u64::from(parked)),
        ] {
            if n > 0 {
                hub.add(self.lane, id, n);
            }
        }
    }

    /// Lock-avoiding probe for the deadlock detector: `Some(true)` if a
    /// matching envelope is queued, `Some(false)` if provably none is,
    /// `None` if the mailbox is busy (its owner holds the lock) and the
    /// check must be retried later. Never blocks, so a detector holding
    /// its own mailbox lock cannot participate in a lock-order cycle.
    pub fn try_probe(&self, comm_id: u64, src: SourceSel, tag: TagSel) -> Option<bool> {
        let inner = self.inner.try_lock()?;
        Some(inner.find_match(comm_id, src, tag).is_some())
    }

    /// Non-blocking probe: metadata of the first matching envelope, if any.
    pub fn probe(&self, comm_id: u64, src: SourceSel, tag: TagSel) -> Option<(usize, i32, usize)> {
        self.progress();
        let inner = self.inner.lock();
        inner.find_match(comm_id, src, tag).map(|at| {
            let env = inner.peek(at);
            (env.src, env.tag, env.count)
        })
    }

    /// Drop all state belonging to `comm_id`: the per-sender dedup
    /// high-water marks, the stream index, and any still-queued envelopes.
    /// Called when the owning rank frees a communicator — without this,
    /// the maps grow by one entry per `(communicator, sender)` pair for
    /// the life of the world, a real leak for programs that split/shrink
    /// in a loop.
    pub fn prune_comm(&self, comm_id: u64) {
        let mut inner = self.inner.lock();
        inner.seen.retain(|&(cid, _), _| cid != comm_id);
        let mut dropped = 0;
        inner.streams.retain(|&(cid, _), stream| {
            if cid == comm_id {
                dropped += stream.len();
                false
            } else {
                true
            }
        });
        inner.queued -= dropped;
    }

    /// Number of dedup high-water-mark entries currently held
    /// (diagnostics; exercised by the leak-regression tests).
    pub fn seen_entries(&self) -> usize {
        self.inner.lock().seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::encode;
    use crate::envelope::{Payload, SharedPayload};
    use crate::status::{ANY_SOURCE, ANY_TAG};

    const POLL: Duration = Duration::from_millis(20);

    fn env(src: usize, tag: i32, seq: u64) -> Envelope {
        Envelope {
            comm_id: 0,
            src,
            tag,
            type_name: "i32",
            count: 1,
            payload: Payload::Bytes(encode(&[seq as i32])),
            seq,
            needs_ack: false,
        }
    }

    #[test]
    fn matches_first_in_fifo_order() {
        let mb = Mailbox::new();
        mb.deliver(env(0, 1, 0));
        mb.deliver(env(0, 1, 1));
        let e = mb
            .recv_match(0, 0.into(), 1.into(), POLL, || None, || {})
            .unwrap();
        assert_eq!(e.seq, 0, "non-overtaking: earliest matching message first");
        let e = mb
            .recv_match(0, 0.into(), 1.into(), POLL, || None, || {})
            .unwrap();
        assert_eq!(e.seq, 1);
    }

    #[test]
    fn selector_skips_nonmatching() {
        let mb = Mailbox::new();
        mb.deliver(env(0, 1, 0));
        mb.deliver(env(1, 2, 1));
        // Ask for src=1 first even though src=0 arrived earlier.
        let e = mb
            .recv_match(0, 1.into(), ANY_TAG, POLL, || None, || {})
            .unwrap();
        assert_eq!(e.src, 1);
        let e = mb
            .recv_match(0, ANY_SOURCE, ANY_TAG, POLL, || None, || {})
            .unwrap();
        assert_eq!(e.src, 0);
    }

    #[test]
    fn any_tag_ignores_reserved_traffic() {
        let mb = Mailbox::new();
        mb.deliver(env(0, -7, 0)); // collective-internal
        mb.deliver(env(0, 3, 1)); // user message
        let e = mb
            .recv_match(0, ANY_SOURCE, ANY_TAG, POLL, || None, || {})
            .unwrap();
        assert_eq!(
            e.tag, 3,
            "wildcard receive must not steal collective traffic"
        );
        // The reserved envelope is still there for an explicit receive.
        let e = mb
            .recv_match(0, ANY_SOURCE, (-7).into(), POLL, || None, || {})
            .unwrap();
        assert_eq!(e.tag, -7);
    }

    #[test]
    fn dead_senders_produce_deadlock_error() {
        let mb = Mailbox::new();
        let err = mb
            .recv_match(
                0,
                0.into(),
                1.into(),
                POLL,
                || Some(Error::Deadlock("all senders finished".into())),
                || {},
            )
            .unwrap_err();
        assert!(matches!(err, Error::Deadlock(_)));
    }

    #[test]
    fn blocking_recv_wakes_on_delivery() {
        let mb = Mailbox::new();
        std::thread::scope(|scope| {
            let h = scope.spawn(|| mb.recv_match(0, ANY_SOURCE, ANY_TAG, POLL, || None, || {}));
            std::thread::sleep(Duration::from_millis(10));
            mb.deliver(env(2, 5, 9));
            let e = h.join().unwrap().unwrap();
            assert_eq!((e.src, e.tag, e.seq), (2, 5, 9));
        });
    }

    #[test]
    fn targeted_wakeup_only_rouses_matching_waiters() {
        // Two blocked receives with disjoint selectors; a delivery for one
        // must wake exactly that one (the other eventually errors out via
        // its liveness check, proving it was never satisfied).
        let mb = Mailbox::new();
        std::thread::scope(|scope| {
            let want_five =
                scope.spawn(|| mb.recv_match(0, ANY_SOURCE, 5.into(), POLL, || None, || {}));
            let want_six = scope.spawn(|| {
                mb.recv_match(
                    0,
                    ANY_SOURCE,
                    6.into(),
                    Duration::from_millis(1),
                    || Some(Error::Deadlock("nobody sends tag 6".into())),
                    || {},
                )
            });
            std::thread::sleep(Duration::from_millis(10));
            mb.deliver(env(1, 5, 0));
            let e = want_five.join().unwrap().unwrap();
            assert_eq!(e.tag, 5);
            assert!(matches!(
                want_six.join().unwrap().unwrap_err(),
                Error::Deadlock(_)
            ));
        });
    }

    #[test]
    fn different_communicators_never_cross_match() {
        let mb = Mailbox::new();
        let mut e = env(0, 1, 0);
        e.comm_id = 42;
        mb.deliver(e);
        mb.deliver(env(0, 1, 1)); // comm 0
        let got = mb
            .recv_match(0, ANY_SOURCE, ANY_TAG, POLL, || None, || {})
            .unwrap();
        assert_eq!(got.seq, 1, "comm 0 receive must skip comm 42 traffic");
        let got = mb
            .recv_match(42, ANY_SOURCE, ANY_TAG, POLL, || None, || {})
            .unwrap();
        assert_eq!(got.seq, 0);
        assert!(mb.probe(7, ANY_SOURCE, ANY_TAG).is_none());
    }

    #[test]
    fn duplicate_transmissions_are_swallowed() {
        let mb = Mailbox::new();
        assert!(mb.deliver_displaced(env(0, 1, 0), 0));
        assert!(
            !mb.deliver_displaced(env(0, 1, 0), 0),
            "same seq again = duplicate"
        );
        assert!(mb.deliver_displaced(env(0, 1, 1), 0));
        assert!(!mb.deliver_displaced(env(0, 1, 1), 0));
        assert_eq!(mb.len(), 2, "exactly-once: duplicates never enqueue");
        // A different sender's seq 0 is not a duplicate.
        assert!(mb.deliver_displaced(env(1, 1, 0), 0));
    }

    #[test]
    fn duplicate_transmissions_are_swallowed_for_inproc_payloads() {
        // Dedup keys on (comm, sender, seq) only — the payload
        // representation must not matter. A retransmitted shared payload
        // (InProc) is swallowed exactly like a wire one, and the survivor
        // still decodes to the original data.
        let mb = Mailbox::new();
        let shared = || Payload::InProc(SharedPayload::for_slice(&[7i32]));
        let inproc = |seq: u64| Envelope {
            payload: shared(),
            seq,
            ..env(0, 1, seq)
        };
        assert!(mb.deliver_displaced(inproc(0), 0));
        assert!(
            !mb.deliver_displaced(inproc(0), 0),
            "InProc duplicate must be swallowed"
        );
        // Mixed representations of the same transmission dedup too (a
        // retransmit may fall back to the wire form).
        assert!(mb.deliver_displaced(inproc(1), 0));
        assert!(!mb.deliver_displaced(env(0, 1, 1), 0));
        assert_eq!(mb.len(), 2);
        let e = mb
            .recv_match(0, 0.into(), 1.into(), POLL, || None, || {})
            .unwrap();
        let data = crate::datatype::decode_payload::<i32>(e.payload, 1).unwrap();
        assert_eq!(data, vec![7]);
    }

    #[test]
    fn displaced_delivery_overtakes_other_senders_only() {
        let mb = Mailbox::new();
        mb.deliver(env(1, 1, 0));
        mb.deliver(env(2, 1, 0));
        // Overtake 5 queued envelopes — but only 2 are present, both from
        // other senders, so the newcomer lands at the front.
        mb.deliver_displaced(env(3, 1, 0), 5);
        let e = mb
            .recv_match(0, ANY_SOURCE, ANY_TAG, POLL, || None, || {})
            .unwrap();
        assert_eq!(e.src, 3);
    }

    #[test]
    fn displaced_delivery_never_overtakes_same_stream() {
        let mb = Mailbox::new();
        mb.deliver(env(0, 1, 0));
        mb.deliver(env(1, 1, 0));
        // Reorder from sender 0 must stop behind its own earlier message.
        mb.deliver_displaced(env(0, 1, 1), 5);
        let first = mb
            .recv_match(0, 0.into(), ANY_TAG, POLL, || None, || {})
            .unwrap();
        let second = mb
            .recv_match(0, 0.into(), ANY_TAG, POLL, || None, || {})
            .unwrap();
        assert_eq!(
            (first.seq, second.seq),
            (0, 1),
            "non-overtaking survives reorder"
        );
    }

    #[test]
    fn displaced_delivery_midpoint_stamps_stay_ordered() {
        // Repeated displacement into the same gap exercises the midpoint
        // logic (and the renumber fallback once a gap is exhausted).
        let mb = Mailbox::new();
        mb.deliver(env(1, 1, 0));
        mb.deliver(env(2, 1, 0));
        for (i, src) in (3..20).enumerate() {
            // Each newcomer overtakes exactly the previous two arrivals.
            mb.deliver_displaced(env(src, 1, 0), 2);
            let _ = i;
        }
        // The last displaced arrival is now ahead of the two originals
        // but behind the earlier displaced ones... verify total drain
        // order is consistent: every envelope comes out exactly once.
        let mut seen = Vec::new();
        for _ in 0..19 {
            let e = mb
                .recv_match(0, ANY_SOURCE, ANY_TAG, POLL, || None, || {})
                .unwrap();
            seen.push(e.src);
        }
        assert_eq!(mb.len(), 0);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..20).collect::<Vec<_>>());
    }

    #[test]
    fn prune_comm_drops_seen_marks_and_stray_envelopes() {
        let mb = Mailbox::new();
        mb.deliver(env(0, 1, 0)); // comm 0
        let mut other = env(1, 1, 0);
        other.comm_id = 42;
        mb.deliver(other);
        assert_eq!(mb.seen_entries(), 2);
        assert_eq!(mb.len(), 2);
        mb.prune_comm(42);
        assert_eq!(mb.seen_entries(), 1, "comm 42 high-water mark released");
        assert_eq!(mb.len(), 1, "comm 42 stray envelope released");
        // Comm 0 traffic is untouched and still receivable.
        let e = mb
            .recv_match(0, ANY_SOURCE, ANY_TAG, POLL, || None, || {})
            .unwrap();
        assert_eq!(e.comm_id, 0);
    }

    #[test]
    fn probe_reports_without_consuming() {
        let mb = Mailbox::new();
        assert!(mb.probe(0, ANY_SOURCE, ANY_TAG).is_none());
        mb.deliver(env(1, 4, 0));
        assert_eq!(mb.probe(0, ANY_SOURCE, ANY_TAG), Some((1, 4, 1)));
        assert_eq!(mb.len(), 1, "probe must not consume");
    }
}
