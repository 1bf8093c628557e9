//! The waits-for deadlock detector of a thread world (DESIGN.md §5).
//!
//! A receive whose match is not queued polls its senders' liveness once
//! per poll interval. The first time such a poll times out while a sender
//! is still running, the receive publishes a [`WaitRecord`] here, and it
//! clears the record when it matches (still holding its mailbox lock) or
//! returns an error. A receive that does not outlast one poll interval
//! never touches the detector. Each timed-out poll then asks
//! [`Detector::deadlocked`] whether the receive can provably never be
//! satisfied.
//!
//! Only a world whose ranks are threads of one process has a [`Detector`]:
//! it reads every rank's mailbox and liveness through the world's
//! [`Fabric`]. A provider-built world, where each process hosts one rank,
//! has none, and its answer is always "not provably deadlocked".

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::envelope::is_collective_tag;
use crate::fabric::Fabric;
use crate::status::{SourceSel, TagSel};

/// A blocked receive, as the liveness check and the detector see it.
#[derive(Clone)]
pub(crate) struct WaitRecord {
    /// Communicator the receive is posted on.
    pub(crate) comm_id: u64,
    /// The receive's source selector (communicator-local numbering).
    pub(crate) src: SourceSel,
    /// The receive's tag selector.
    pub(crate) tag: TagSel,
    /// World rank of the receiving rank.
    pub(crate) world_rank: usize,
    /// World ranks of the whole communicator the receive is posted on
    /// (the failure model fails collective receives when *any* member is
    /// dead, not just the awaited peer).
    pub(crate) world_group: Arc<Vec<usize>>,
}

impl WaitRecord {
    /// World ranks whose future sends could satisfy this receive: the
    /// awaited member, or every member but the receiver.
    pub(crate) fn world_sources(&self) -> impl Iterator<Item = usize> + '_ {
        let wanted = move |(local, world): &(usize, usize)| match self.src {
            SourceSel::Rank(r) => *local == r,
            SourceSel::Any => *world != self.world_rank,
        };
        self.world_group
            .iter()
            .copied()
            .enumerate()
            .filter(wanted)
            .map(|(_, world)| world)
    }

    /// The failed rank this wait resolves to `RankFailed` on, if any: the
    /// one rule both the receiver's liveness check and the deadlock
    /// detector apply, so the detector never calls `Deadlock` where the
    /// receiver's next poll would report `RankFailed`.
    ///
    /// A collective-internal receive fails when *any* member of its group
    /// has died: the collective can no longer complete for anyone (ULFM
    /// semantics). A receive from one rank fails when that rank has; a
    /// receive from any rank, once a sender has failed and no live one is
    /// left. A receive from itself never fails: its owner is alive by
    /// definition.
    pub(crate) fn failed_sender(&self, fabric: &dyn Fabric) -> Option<usize> {
        if matches!(self.tag, TagSel::Tag(t) if is_collective_tag(t)) {
            if let Some(&dead) = self.world_group.iter().find(|&&w| fabric.rank_failed(w)) {
                return Some(dead);
            }
        }
        match self.src {
            SourceSel::Rank(r) if self.world_group[r] == self.world_rank => None,
            SourceSel::Rank(_) => self.world_sources().find(|&w| fabric.rank_failed(w)),
            SourceSel::Any => {
                let dead = self.world_sources().find(|&w| fabric.rank_failed(w))?;
                self.world_sources()
                    .all(|w| fabric.rank_failed(w) || !fabric.rank_alive(w))
                    .then_some(dead)
            }
        }
    }
}

/// Per-rank wait slots and the fixpoint over them.
pub(crate) struct Detector {
    /// What each world rank's receive waits for, once it has outlasted a
    /// poll interval; `None` while the rank runs.
    waits: Vec<Mutex<Option<WaitRecord>>>,
    /// Bumped after every publish and clear of the rank's slot, so a
    /// verdict can tell that no slot changed while it was computed.
    epochs: Vec<AtomicU64>,
}

impl Detector {
    /// A detector for a world of `np` ranks, none of them blocked.
    pub(crate) fn new(np: usize) -> Self {
        Detector {
            waits: (0..np).map(|_| Mutex::new(None)).collect(),
            epochs: (0..np).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Record that `me` is blocked on `record`. Called with `me`'s
    /// mailbox lock held, right after its queue showed no match.
    pub(crate) fn publish(&self, me: usize, record: WaitRecord) {
        self.set(me, Some(record));
    }

    /// Record that `me` is no longer blocked.
    pub(crate) fn clear(&self, me: usize) {
        self.set(me, None);
    }

    fn set(&self, me: usize, record: Option<WaitRecord>) {
        *self.waits[me].lock() = record;
        self.epochs[me].fetch_add(1, Ordering::SeqCst);
    }

    /// Is `me` part of a set of ranks none of which can ever make
    /// progress? A rendered stuck set when it provably is, else `None`.
    /// `me` calls this with its own mailbox lock held, after publishing
    /// its record.
    ///
    /// A rank is *stuck* if it has finished, or if it is blocked in a
    /// receive that (a) has no matching envelope queued and (b) can only
    /// be satisfied by stuck ranks. A rank without a record counts as
    /// running, whatever it is doing. The fixpoint starts from "every
    /// finished or blocked-with-empty-queue rank is stuck" and repeatedly
    /// un-sticks ranks with a non-stuck potential sender. If `me` remains
    /// stuck, no future delivery can wake it.
    ///
    /// Three things keep a racing delivery or match from faking a verdict:
    ///
    /// 1. Other mailboxes are only try-probed: a busy one means its owner
    ///    is active, so the verdict is abandoned (this also rules out lock
    ///    cycles between two detecting ranks).
    /// 2. A receive clears its record inside the critical section in which
    ///    it matches, so "record present, queue drained" never describes a
    ///    rank that in fact matched.
    /// 3. The verdict stands only if every rank's epoch and every
    ///    mailbox's delivered count read the same before the snapshot and
    ///    after the fixpoint. A match clears a record, which moves its
    ///    rank's epoch. A mailbox's count moves in the critical section
    ///    that makes an envelope matchable, so a delivery either precedes
    ///    the probe of its mailbox (and the probe sees the envelope) or
    ///    moves the count after it. The second case matters when the
    ///    sender finishes during the computation: the fixpoint reads its
    ///    `finished` flag, which the sender raises after its last
    ///    delivery, so once the flag is seen the final read of the count
    ///    sees that delivery too, and the verdict is dropped.
    pub(crate) fn deadlocked(&self, fabric: &dyn Fabric, me: usize) -> Option<String> {
        let np = self.waits.len();
        let quiescent = || {
            let epochs = self.epochs.iter().map(|e| e.load(Ordering::SeqCst));
            let delivered = (0..np).map(|r| fabric.mailbox(r).delivered());
            epochs.chain(delivered).collect::<Vec<u64>>()
        };
        let before = quiescent();
        let records: Vec<Option<WaitRecord>> =
            self.waits.iter().map(|w| w.lock().clone()).collect();

        // Initial stuck set: finished, or blocked with no queued match.
        let mut stuck: Vec<bool> = Vec::with_capacity(np);
        for (r, record) in records.iter().enumerate() {
            let s = if !fabric.rank_alive(r) {
                true
            } else if r == me {
                // The caller just scanned its queue and found no match.
                record.is_some()
            } else {
                match record {
                    None => false, // running
                    // A wait that fails fast is an escape, not a block: its owner
                    // reports `RankFailed` on its next poll.
                    Some(rec) if rec.failed_sender(fabric).is_some() => false,
                    Some(rec) => match fabric.mailbox(r).try_probe(rec.comm_id, rec.src, rec.tag) {
                        Some(has_match) => !has_match,
                        None => return None, // busy: verdict unavailable
                    },
                }
            };
            stuck.push(s);
        }

        // Un-stick any blocked rank with a live, non-stuck potential
        // sender (finished ranks stay stuck: they will never send again).
        loop {
            let mut changed = false;
            for r in 0..np {
                if !stuck[r] || !fabric.rank_alive(r) {
                    continue;
                }
                if let Some(rec) = &records[r] {
                    if rec.world_sources().any(|s| !stuck[s]) {
                        stuck[r] = false;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // A failure that landed after the caller's own liveness check
        // resolves its wait on the next poll. Ranks raise `failed` before
        // `finished`, so a peer seen finished above shows its failure here.
        if !stuck[me]
            || records[me]
                .as_ref()
                .is_some_and(|rec| rec.failed_sender(fabric).is_some())
            || quiescent() != before
        {
            return None;
        }
        // Render the stuck set for the diagnostic.
        let mut graph = String::new();
        for r in (0..np).filter(|&r| stuck[r]) {
            if !fabric.rank_alive(r) {
                graph.push_str(&format!("[world {r}: finished] "));
            } else if let Some(rec) = &records[r] {
                graph.push_str(&format!(
                    "[world {r}: blocked on {:?} from world {:?} (comm {:#x}, tag {:?})] ",
                    rec.src,
                    rec.world_sources().collect::<Vec<_>>(),
                    rec.comm_id,
                    rec.tag
                ));
            }
        }
        Some(graph.trim_end().to_string())
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::comm::Comm;
    use crate::world::{Transport, WorldBuilder, WorldCtx};

    /// A thread world's context and transport, with ranks driven by hand.
    fn world(np: usize, poll: Duration) -> (Arc<WorldCtx>, Arc<Transport>) {
        let spec = WorldBuilder::new(np).poll_interval(poll).spec(0);
        let ctx = Arc::new(WorldCtx::new(&spec, Some(Detector::new(np))));
        let transport = Arc::new(Transport::new(np, &ctx, false));
        (ctx, transport)
    }

    fn wait_for(world_rank: usize, src: usize, group: &[usize]) -> WaitRecord {
        WaitRecord {
            comm_id: 0,
            src: SourceSel::Rank(src),
            tag: TagSel::Tag(0),
            world_rank,
            world_group: Arc::new(group.to_vec()),
        }
    }

    fn slot(detector: &Detector, rank: usize) -> (bool, u64) {
        (
            detector.waits[rank].lock().is_some(),
            detector.epochs[rank].load(Ordering::SeqCst),
        )
    }

    #[test]
    fn a_failure_racing_the_liveness_check_is_not_a_deadlock() {
        // What a lost race leaves behind: rank 0's own liveness check saw
        // rank 1 alive, then rank 1 was killed and finished before rank 0
        // ran the detector. Its next poll reports RankFailed instead.
        let (_, transport) = world(2, Duration::from_millis(20));
        let detector = Detector::new(2);
        detector.publish(0, wait_for(0, 1, &[0, 1]));
        transport.mark_failed(1);
        transport.finish(1);
        assert_eq!(detector.deadlocked(&*transport, 0), None);
    }

    #[test]
    fn a_rank_blocked_without_a_published_record_counts_as_running() {
        // Rank 1 may be blocked in a receive that has not yet outlasted a
        // poll: without a record it is running, so rank 0 is not stuck.
        let (_, transport) = world(2, Duration::from_millis(20));
        let detector = Detector::new(2);
        detector.publish(0, wait_for(0, 1, &[0, 1]));
        assert_eq!(detector.deadlocked(&*transport, 0), None);
        // Once it publishes, the cycle is provable.
        detector.publish(1, wait_for(1, 0, &[0, 1]));
        let graph = detector.deadlocked(&*transport, 0).expect("a cycle");
        assert!(graph.contains("[world 1: blocked"), "{graph}");
    }

    /// A receive that never outlasts a poll interval — its match already
    /// queued, or sent while it waits — leaves its rank's slot empty and
    /// the slot's epoch where it was.
    #[test]
    fn a_receive_that_does_not_outlast_a_poll_never_touches_the_detector() {
        let (ctx, transport) = world(2, Duration::from_secs(30));
        let comm = |rank| Comm::over_fabric(rank, Arc::clone(&transport) as _, Arc::clone(&ctx));
        let (sender, receiver) = (comm(0), comm(1));
        let detector = ctx
            .detector
            .as_ref()
            .expect("a thread world has a detector");

        sender.send_one(7u32, 1, 0).unwrap();
        assert_eq!(receiver.recv_one::<u32>(0, 0).unwrap().0, 7);
        assert_eq!(slot(detector, 1), (false, 0), "match already queued");

        std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                sender.send_one(8u32, 1, 0).unwrap();
            });
            assert_eq!(receiver.recv_one::<u32>(0, 0).unwrap().0, 8);
        });
        assert_eq!(slot(detector, 1), (false, 0), "woken within the poll");
    }

    /// A receive that does outlast a poll publishes once and clears on
    /// its match: two epoch bumps, slot empty again.
    #[test]
    fn a_receive_that_outlasts_a_poll_publishes_once_and_clears_on_match() {
        let (ctx, transport) = world(2, Duration::from_millis(5));
        let comm = |rank| Comm::over_fabric(rank, Arc::clone(&transport) as _, Arc::clone(&ctx));
        let (sender, receiver) = (comm(0), comm(1));
        let detector = ctx
            .detector
            .as_ref()
            .expect("a thread world has a detector");
        std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(100));
                sender.send_one(9u32, 1, 0).unwrap();
            });
            assert_eq!(receiver.recv_one::<u32>(0, 0).unwrap().0, 9);
        });
        assert_eq!(slot(detector, 1), (false, 2));
    }
}
