//! The communicator: a rank's handle on its world — `MPI_COMM_WORLD`.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use patternlets_core::rng::{Rng, SplitMix64};
use patternlets_core::{Error, OpContext, Result};
use patternlets_metrics::{CounterId, HistId, Phase};

use crate::checkpoint::CheckpointStore;
use crate::datatype::{decode_payload, encode, Datatype};
use crate::deadlock::{Detector, WaitRecord};
use crate::envelope::{collective_tag, Envelope, Outgoing, Payload, INLINE_MAX};
use crate::fabric::{AgreeKey, AgreeSlot, Fabric};
use crate::fault::retry_backoff;
use crate::status::{SourceSel, Status, TagSel};
use crate::world::WorldCtx;

/// Agreement kinds for the message-free `agree`/`shrink` protocol.
const AGREE_KIND: u8 = 0;
const SHRINK_KIND: u8 = 1;

/// A rank's communicator: `MPI_COMM_WORLD` as created by
/// [`crate::World::run`], or a sub-communicator created by [`Comm::split`].
/// One per rank, not shareable across ranks (it is deliberately `!Sync`).
///
/// All ranks, tags, and collective roots are *communicator-local*: in a
/// split communicator, rank 0 is the first member, whatever its world
/// rank. Messages sent on one communicator can never be received on
/// another (envelopes carry the communicator id).
pub struct Comm {
    /// My rank within this communicator.
    local_rank: usize,
    /// World ranks of the members, indexed by communicator-local rank.
    group: Arc<Vec<usize>>,
    /// Communicator identity, for envelope matching.
    comm_id: u64,
    /// The transport backend carrying this communicator's traffic — the
    /// in-process thread fabric, or a network backend under `pmrun`.
    fabric: Arc<dyn Fabric>,
    /// What the world's ranks share above the transport: hostnames, poll
    /// interval, tracer, metrics and the fault plan.
    ctx: Arc<WorldCtx>,
    /// Count of collective operations this rank has started; used to build
    /// reserved tags that line up across ranks.
    coll_seq: Cell<u64>,
    /// Count of agreement rounds (`agree`/`shrink`) this rank has started.
    /// Deliberately separate from `coll_seq`: a failed collective can
    /// abort at different internal stages on different ranks (the root of
    /// an allreduce dies in the reduce phase, leaves in the bcast phase),
    /// desynchronising `coll_seq` — but agreement must still line up,
    /// because it is exactly the post-failure rendezvous.
    agree_seq: Cell<u64>,
}

/// The world communicator's id.
const WORLD_COMM_ID: u64 = 0;

impl Comm {
    /// A rank's world communicator over any [`Fabric`] — the constructor
    /// both the thread backend and provider-built worlds use.
    pub(crate) fn over_fabric(rank: usize, fabric: Arc<dyn Fabric>, ctx: Arc<WorldCtx>) -> Self {
        let np = fabric.np();
        Comm {
            local_rank: rank,
            group: Arc::new((0..np).collect()),
            comm_id: WORLD_COMM_ID,
            fabric,
            ctx,
            coll_seq: Cell::new(0),
            agree_seq: Cell::new(0),
        }
    }

    /// A communicator over `group` (world ranks) on the same world, with
    /// a fresh message space `comm_id`.
    fn derived(&self, local_rank: usize, group: Vec<usize>, comm_id: u64) -> Comm {
        Comm {
            local_rank,
            group: Arc::new(group),
            comm_id,
            fabric: Arc::clone(&self.fabric),
            ctx: Arc::clone(&self.ctx),
            coll_seq: Cell::new(0),
            agree_seq: Cell::new(0),
        }
    }

    /// Count one message operation against the fault plan (see
    /// [`WorldCtx::fault_op`]).
    fn fault_op(&self, op: &'static str) -> Result<()> {
        self.ctx.fault_op(&*self.fabric, self.world_rank(), op)
    }

    /// This rank's id in this communicator — `MPI_Comm_rank`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.local_rank
    }

    /// This communicator's size — `MPI_Comm_size`.
    #[inline]
    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// My rank in the world (useful after [`Comm::split`]).
    #[inline]
    pub fn world_rank(&self) -> usize {
        self.group[self.local_rank]
    }

    /// True for rank 0 of this communicator, the conventional master.
    #[inline]
    pub fn is_master(&self) -> bool {
        self.local_rank == 0
    }

    /// Simulated hostname — `MPI_Get_processor_name`.
    pub fn processor_name(&self) -> &str {
        self.ctx.rank_name(self.world_rank())
    }

    /// Open a collective phase on this rank's world lane: traced as
    /// `CollBegin`/`CollEnd` and timed into the op's latency histogram,
    /// closed when the guard drops, even on an error path.
    pub(crate) fn coll_phase(&self, op: &'static str) -> Phase<'_> {
        self.ctx.obs.coll(self.world_rank(), op)
    }

    /// Split this communicator — `MPI_Comm_split`: members calling with the
    /// same `color` form a new communicator, ordered by `(key, rank)`.
    /// Every member of this communicator must call (it is collective).
    pub fn split(&self, color: i32, key: i32) -> Result<Comm> {
        // Exchange (color, key) with every member.
        let colors = self.allgather(&[color as i64])?;
        let keys = self.allgather(&[key as i64])?;
        // Members of my color, ordered by (key, parent rank).
        let mut members: Vec<usize> = (0..self.size())
            .filter(|&r| colors[r] == color as i64)
            .collect();
        members.sort_by_key(|&r| (keys[r], r));
        let local_rank = members
            .iter()
            .position(|&r| r == self.local_rank)
            .expect("caller is in its own color class");
        // A new comm id every member derives identically: hash of the
        // parent id, the split sequence number, and the color.
        let seq = self.coll_seq.get(); // advanced identically by the two allgathers
        let mut h = SplitMix64::new(
            self.comm_id ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (color as u64) << 17,
        );
        let comm_id = h.next_u64() | 1; // never collides with WORLD_COMM_ID
        let group: Vec<usize> = members.iter().map(|&r| self.group[r]).collect();
        Ok(self.derived(local_rank, group, comm_id))
    }

    /// Duplicate this communicator — `MPI_Comm_dup`: same group, isolated
    /// message space.
    pub fn dup(&self) -> Result<Comm> {
        self.split(0, self.local_rank as i32)
    }

    // -- point to point ----------------------------------------------------

    /// Buffered (eager) send of a typed slice — `MPI_Send`. User tags must
    /// be non-negative; negative tags are reserved for collectives.
    pub fn send<T: Datatype>(&self, data: &[T], dest: usize, tag: i32) -> Result<()> {
        if tag < 0 {
            return Err(Error::InvalidConfig(format!(
                "user tag {tag} is negative (reserved for collectives)"
            )));
        }
        self.send_internal(data, dest, tag)
    }

    pub(crate) fn send_internal<T: Datatype>(
        &self,
        data: &[T],
        dest: usize,
        tag: i32,
    ) -> Result<()> {
        self.send_flagged(data, dest, tag, false).map(|_| ())
    }

    /// The payload's form for a send of `data` to `dest` — the one place
    /// it is chosen: inline when the encoding fits [`INLINE_MAX`]; the
    /// shared in-process form when the fabric says the two ranks share an
    /// address space (and the element type supports sharing); the
    /// sender's own slice when the elements are their wire form; the
    /// encoded wire form otherwise. Collectives call this once at the
    /// root and forward the same owned payload to every child.
    pub(crate) fn prepare_payload<'a, T: Datatype>(
        &self,
        data: &'a [T],
        dest: usize,
    ) -> Outgoing<'a> {
        if T::encoded_len(data) <= INLINE_MAX {
            return Outgoing::Owned(Payload::inline(data));
        }
        if self
            .fabric
            .shares_address_space(self.world_rank(), self.group[dest])
        {
            if let Some(shared) = T::to_shared(data) {
                return Outgoing::Owned(Payload::InProc(shared));
            }
        }
        match T::wire_bytes(data) {
            Some(wire) => Outgoing::Wire(wire),
            None => Outgoing::Owned(Payload::Bytes(encode(data))),
        }
    }

    /// Deliver an envelope, optionally demanding a receive-side ack.
    /// Returns the sender-side sequence number (used to match the ack).
    fn send_flagged<T: Datatype>(
        &self,
        data: &[T],
        dest: usize,
        tag: i32,
        needs_ack: bool,
    ) -> Result<u64> {
        if dest >= self.size() {
            return Err(Error::RankOutOfRange {
                rank: dest,
                size: self.size(),
            });
        }
        let payload = self.prepare_payload(data, dest);
        self.send_prepared(payload, T::TYPE_NAME, data.len(), dest, tag, needs_ack)
    }

    /// Deliver an already-prepared payload to `dest`. All the transmission
    /// machinery lives here — fault accounting, sequence numbers, tracing,
    /// chaos injection — for every payload form, so collectives that
    /// forward one payload to many children pay the payload preparation
    /// exactly once.
    pub(crate) fn send_prepared(
        &self,
        payload: Outgoing<'_>,
        type_name: &'static str,
        count: usize,
        dest: usize,
        tag: i32,
        needs_ack: bool,
    ) -> Result<u64> {
        if dest >= self.size() {
            return Err(Error::RankOutOfRange {
                rank: dest,
                size: self.size(),
            });
        }
        let me = self.world_rank();
        self.fault_op("send")?;
        if self.fabric.rank_failed(self.group[dest]) {
            return Err(Error::RankFailed {
                rank: self.group[dest],
                op: OpContext::new("send").peer(dest).tag(tag),
            });
        }
        let seq = self.fabric.next_send_seq(me);
        let repr = match &payload {
            Outgoing::Owned(Payload::InProc(_)) => CounterId::MsgsSentInproc,
            Outgoing::Owned(Payload::Inline { .. }) => CounterId::MsgsSentInline,
            Outgoing::Owned(Payload::Bytes(_)) | Outgoing::Wire(_) => CounterId::MsgsSentEncoded,
        };
        self.ctx
            .obs
            .send(me, self.group[dest], tag, payload.len(), seq, repr);
        let env = Envelope {
            comm_id: self.comm_id,
            src: self.local_rank,
            tag,
            type_name,
            count,
            payload,
            seq,
            needs_ack,
        };
        // Chaos, when a fault plan is installed: sleep out the injected
        // delay and the retransmission backoffs in *this* (the sender's)
        // thread so per-sender program order is never perturbed, then
        // deliver — possibly displaced past other senders' queued traffic,
        // possibly twice (the receiving mailbox deduplicates).
        let mut overtake = 0;
        let mut duplicate = false;
        if let Some(decision) = self.ctx.chaos_decision(me) {
            if !decision.delay.is_zero() {
                std::thread::sleep(decision.delay);
            }
            // Retransmissions are *extra transmissions* of the one logical
            // message recorded above, never additional sends.
            for attempt in 0..decision.lost_transmissions {
                self.ctx.obs.retransmit(me, attempt);
                std::thread::sleep(retry_backoff(attempt));
            }
            overtake = decision.overtake;
            duplicate = decision.duplicate;
        }
        let dest = self.group[dest];
        if dest == me {
            // Self-send shortcut: the destination mailbox is this rank's
            // own, so deliver straight into it instead of dispatching
            // through the fabric. Everything observable — fault ops,
            // sequence numbers, chaos draws, traces — already happened
            // above, and the mailbox dedups exactly as on the fabric
            // path.
            let env = env.map_payload(Outgoing::into_owned);
            self.fabric
                .mailbox(me)
                .deliver_copies(env, overtake, duplicate);
        } else {
            self.fabric.transmit(me, dest, env, overtake, duplicate);
        }
        Ok(seq)
    }

    /// Synchronous send — `MPI_Ssend`: blocks until the receiver has
    /// *matched* this message, the unbuffered semantics whose head-to-head
    /// use is the classic send-send deadlock. (The runtime's deadlock
    /// detector reports that case instead of hanging — see the tests.)
    pub fn ssend<T: Datatype>(&self, data: &[T], dest: usize, tag: i32) -> Result<()> {
        if tag < 0 {
            return Err(Error::InvalidConfig(format!(
                "user tag {tag} is negative (reserved for collectives)"
            )));
        }
        let seq = self.send_flagged(data, dest, tag, true)?;
        // Wait for the receiver's ack.
        let (_, _) = self.recv_internal::<u8>(
            SourceSel::Rank(dest),
            TagSel::Tag(crate::envelope::ack_tag(seq)),
        )?;
        Ok(())
    }

    /// Send a single value.
    pub fn send_one<T: Datatype>(&self, value: T, dest: usize, tag: i32) -> Result<()> {
        self.send(std::slice::from_ref(&value), dest, tag)
    }

    /// Blocking matched receive — `MPI_Recv`. Accepts a rank or
    /// [`crate::ANY_SOURCE`], a tag or [`crate::ANY_TAG`]. Fails with
    /// [`Error::TypeMismatch`] if the matched envelope holds a different
    /// element type, and with [`Error::Deadlock`] if no matching send can
    /// ever arrive.
    pub fn recv<T: Datatype>(
        &self,
        src: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> Result<(Vec<T>, Status)> {
        self.recv_internal(src.into(), tag.into())
    }

    pub(crate) fn recv_internal<T: Datatype>(
        &self,
        src: SourceSel,
        tag: TagSel,
    ) -> Result<(Vec<T>, Status)> {
        let env = self.recv_envelope::<T>(src, tag)?;
        let status = Status {
            source: env.src,
            tag: env.tag,
            count: env.count,
        };
        let data = decode_payload::<T>(env.payload, env.count)?;
        Ok((data, status))
    }

    /// The matching half of a receive: block until an envelope matching
    /// the selectors arrives (with full failure/deadlock handling), run
    /// the ack handshake and the type check, and return the raw envelope
    /// — payload still in whichever representation the sender chose.
    /// Collectives that forward a payload down a tree receive here, clone
    /// the payload for their children, and only then decode.
    pub(crate) fn recv_envelope<T: Datatype>(
        &self,
        src: SourceSel,
        tag: TagSel,
    ) -> Result<Envelope> {
        if let SourceSel::Rank(r) = src {
            if r >= self.size() {
                return Err(Error::RankOutOfRange {
                    rank: r,
                    size: self.size(),
                });
            }
        }
        let fabric = &*self.fabric;
        let my_world = self.world_rank();
        self.fault_op("recv")?;

        // The detector this receive published its wait record to, at its
        // first timed-out poll; only then is the record cleared, on the
        // match or an error return (see `crate::deadlock`).
        let published: Cell<Option<&Detector>> = Cell::new(None);
        let retire = || {
            if let Some(detector) = published.get() {
                detector.clear(my_world);
            }
        };
        let ctx = || {
            OpContext::new("recv")
                .peer(format!("{src:?}"))
                .tag(format!("{tag:?}"))
        };
        // Receiving from myself: alive by definition (but a queued match
        // was already checked, so self-recv without a prior self-send
        // correctly deadlocks).
        let from_self = matches!(src, SourceSel::Rank(r) if r == self.local_rank);
        let env = fabric.mailbox(my_world).recv_match(
            self.comm_id,
            src,
            tag,
            self.ctx.poll_interval,
            || {
                let wait = WaitRecord {
                    comm_id: self.comm_id,
                    src,
                    tag,
                    world_rank: my_world,
                    world_group: Arc::clone(&self.group),
                };
                let err = if let Some(rank) = wait.failed_sender(fabric) {
                    Error::RankFailed { rank, op: ctx() }
                } else if !from_self && wait.world_sources().any(|w| fabric.rank_alive(w)) {
                    // A sender still runs: only the detector can prove
                    // that it never sends.
                    let detector = self.ctx.detector.as_ref()?;
                    if published.get().is_none() {
                        detector.publish(my_world, wait);
                        published.set(Some(detector));
                    }
                    let graph = detector.deadlocked(fabric, my_world)?;
                    Error::Deadlock(
                        ctx().detail(format!("waits-for cycle with no live escape: {graph}")),
                    )
                } else {
                    Error::Deadlock(ctx().detail("every possible sender has finished"))
                };
                retire();
                Some(err)
            },
            retire,
        )?;
        self.ctx.obs.recv(
            my_world,
            self.group[env.src],
            env.tag,
            env.payload.len(),
            env.seq,
        );
        if env.needs_ack {
            // Complete the synchronous-send handshake: tell the sender its
            // message has been matched.
            self.send_internal::<u8>(&[], env.src, crate::envelope::ack_tag(env.seq))?;
        }
        if env.type_name != T::TYPE_NAME {
            return Err(Error::TypeMismatch {
                expected: T::TYPE_NAME,
                found: env.type_name.to_string(),
            });
        }
        Ok(env)
    }

    /// Receive exactly one value; fails on count mismatch.
    pub fn recv_one<T: Datatype>(
        &self,
        src: impl Into<SourceSel>,
        tag: impl Into<TagSel>,
    ) -> Result<(T, Status)> {
        let (mut data, status) = self.recv::<T>(src, tag)?;
        if data.len() != 1 {
            return Err(Error::CountMismatch {
                expected: 1,
                found: data.len(),
            });
        }
        Ok((data.pop().expect("length checked"), status))
    }

    /// Combined send-then-receive — `MPI_Sendrecv`. The send is buffered,
    /// so exchanging with a partner who does the same cannot deadlock.
    pub fn sendrecv<T: Datatype, U: Datatype>(
        &self,
        send_data: &[T],
        dest: usize,
        send_tag: i32,
        src: impl Into<SourceSel>,
        recv_tag: impl Into<TagSel>,
    ) -> Result<(Vec<U>, Status)> {
        self.send(send_data, dest, send_tag)?;
        self.recv(src, recv_tag)
    }

    /// Non-blocking probe for a matching message — `MPI_Iprobe`.
    pub fn iprobe(&self, src: impl Into<SourceSel>, tag: impl Into<TagSel>) -> Option<Status> {
        self.fabric
            .mailbox(self.world_rank())
            .probe(self.comm_id, src.into(), tag.into())
            .map(|(source, tag, count)| Status { source, tag, count })
    }

    // -- collective plumbing -----------------------------------------------

    /// Enter a collective: reserve its tag family and check the group is
    /// intact. Returns a function from round number to tag; all ranks call
    /// collectives in the same order, so the families line up.
    ///
    /// The entry check makes collectives fail fast with
    /// [`Error::RankFailed`] on *every* survivor when a member has died —
    /// the sequence number still advances on error, so survivors stay
    /// aligned for subsequent calls.
    pub(crate) fn start_collective(
        &self,
        opcode: u8,
        op: &'static str,
    ) -> Result<impl Fn(u32) -> i32> {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        self.fault_op(op)?;
        if let Some(&dead) = self.group.iter().find(|&&w| self.fabric.rank_failed(w)) {
            return Err(Error::RankFailed {
                rank: dead,
                op: OpContext::new(op),
            });
        }
        Ok(move |round| collective_tag(seq, opcode, round))
    }

    // -- fault tolerance ---------------------------------------------------

    /// One round of the message-free agreement protocol behind
    /// [`Comm::agree`] and [`Comm::shrink`]. Members synchronise through
    /// shared transport state rather than messages, because these
    /// operations must complete even when some peers are dead.
    ///
    /// Returns the final contribution map (world rank → value). The round
    /// completes once every member has contributed, failed, or finished;
    /// failed and finished ranks can never contribute afterwards, so every
    /// caller observes the same final map.
    fn agreement_round(&self, kind: u8, value: u64, op: &'static str) -> Result<AgreeSlot> {
        let seq = self.agree_seq.get();
        self.agree_seq.set(seq + 1);
        self.fault_op(op)?;
        let key: AgreeKey = (self.comm_id, kind, seq);
        Ok(self
            .fabric
            .agreement(key, self.world_rank(), value, &self.group))
    }

    /// Fault-tolerant agreement — ULFM's `MPI_Comm_agree`: returns the
    /// logical AND of every live member's `flag`. Completes even when
    /// members have failed (their contribution is simply absent); fails
    /// with [`Error::RankFailed`] only if the *caller* has been killed.
    ///
    /// Survivors use this to reach a consistent post-failure decision
    /// ("did everyone finish their work?") before continuing.
    pub fn agree(&self, flag: bool) -> Result<bool> {
        let slot = self.agreement_round(AGREE_KIND, flag as u64, "agree")?;
        Ok(self
            .group
            .iter()
            .filter_map(|w| slot.get(w))
            .all(|&v| v != 0))
    }

    /// Build a new communicator from the surviving members — ULFM's
    /// `MPI_Comm_shrink`. Survivors keep their relative order; the new
    /// communicator has a fresh message space and working collectives.
    /// Members that fail *after* contributing are excluded by the next
    /// shrink, not this one (every caller must build the same group).
    pub fn shrink(&self) -> Result<Comm> {
        let slot = self.agreement_round(SHRINK_KIND, self.local_rank as u64, "shrink")?;
        let seq = self.agree_seq.get(); // advanced by the agreement round
        let mut members: Vec<(u64, usize)> =
            slot.iter().map(|(&world, &local)| (local, world)).collect();
        members.sort_unstable();
        let group: Vec<usize> = members.into_iter().map(|(_, world)| world).collect();
        let local_rank = group
            .iter()
            .position(|&w| w == self.world_rank())
            .expect("caller contributed to the shrink round");
        // Every survivor derives the same fresh id from the parent id and
        // the round's sequence number.
        let mut h =
            SplitMix64::new(self.comm_id ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xFA17);
        let comm_id = h.next_u64() | 1;
        Ok(self.derived(local_rank, group, comm_id))
    }

    /// Persist `data` as this rank's checkpoint for `step` — the metered
    /// front door to [`CheckpointStore::save`]. Counts the checkpoint and
    /// its bytes, and records the save latency, against this rank's
    /// metrics lane.
    pub fn checkpoint<T: Datatype>(
        &self,
        store: &CheckpointStore,
        step: u64,
        data: &[T],
    ) -> Result<()> {
        let started = Instant::now();
        let bytes = store.save(step, data)?;
        if let Some(hub) = &self.ctx.obs.metrics {
            let lane = self.world_rank();
            hub.incr(lane, CounterId::CheckpointsTaken);
            hub.add(lane, CounterId::CheckpointBytes, bytes);
            hub.observe(
                lane,
                HistId::CHECKPOINT_NS,
                started.elapsed().as_nanos() as u64,
            );
        }
        Ok(())
    }

    /// Load this rank's latest checkpoint, if one exists — the front door
    /// to [`CheckpointStore::load`]. `Ok(None)` is a fresh start; a
    /// respawned rank uses `Some((step, data))` to resume from the last
    /// completed step.
    pub fn restore<T: Datatype>(&self, store: &CheckpointStore) -> Result<Option<(u64, Vec<T>)>> {
        store.load()
    }
}

impl Drop for Comm {
    fn drop(&mut self) {
        // Release this communicator's receive-side state (the mailbox's
        // per-(comm, sender) dedup high-water marks and any stray queued
        // envelopes), so worlds that split/dup/shrink in a loop don't
        // accumulate entries for communicators that no longer exist.
        self.fabric.prune_comm(self.world_rank(), self.comm_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::{ANY_SOURCE, ANY_TAG};
    use crate::world::World;

    #[test]
    fn ping_pong_one_pair() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[41i64], 1, 0).unwrap();
                let (v, st) = comm.recv_one::<i64>(1, 0).unwrap();
                assert_eq!(st.source, 1);
                v
            } else {
                let (v, _) = comm.recv_one::<i64>(0, 0).unwrap();
                comm.send(&[v + 1], 0, 0).unwrap();
                v
            }
        });
        assert_eq!(out, vec![42, 41]);
    }

    #[test]
    fn messages_do_not_overtake() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..100i32 {
                    comm.send_one(i, 1, 7).unwrap();
                }
                Vec::new()
            } else {
                (0..100)
                    .map(|_| comm.recv_one::<i32>(0, 7).unwrap().0)
                    .collect::<Vec<_>>()
            }
        });
        assert_eq!(out[1], (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn any_source_any_tag_receive_all() {
        let out = World::run(4, |comm| {
            if comm.rank() == 0 {
                let mut got = Vec::new();
                for _ in 0..3 {
                    let (v, st) = comm.recv_one::<u64>(ANY_SOURCE, ANY_TAG).unwrap();
                    assert_eq!(v, st.source as u64 * 10);
                    assert_eq!(st.tag, st.source as i32);
                    got.push(st.source);
                }
                got.sort_unstable();
                got
            } else {
                comm.send_one(comm.rank() as u64 * 10, 0, comm.rank() as i32)
                    .unwrap();
                Vec::new()
            }
        });
        assert_eq!(out[0], vec![1, 2, 3]);
    }

    #[test]
    fn type_mismatch_is_detected() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[1i32, 2], 1, 0).unwrap();
                Ok(())
            } else {
                comm.recv::<f64>(0, 0).map(|_| ())
            }
        });
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(Error::TypeMismatch { .. })));
    }

    #[test]
    fn recv_from_finished_rank_reports_deadlock() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                Ok(Vec::new())
            } else {
                // Rank 0 sends nothing and exits; this must not hang.
                comm.recv::<i32>(0, 0).map(|(v, _)| v)
            }
        });
        assert!(matches!(&out[1], Err(Error::Deadlock(_))));
    }

    #[test]
    fn send_to_invalid_rank_errors() {
        let out = World::run(1, |comm| comm.send(&[1i32], 5, 0));
        assert!(matches!(
            out[0],
            Err(Error::RankOutOfRange { rank: 5, size: 1 })
        ));
    }

    #[test]
    fn negative_user_tag_rejected() {
        let out = World::run(1, |comm| comm.send(&[1i32], 0, -3));
        assert!(matches!(out[0], Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn self_send_and_recv_works() {
        let out = World::run(1, |comm| {
            comm.send_one(99i32, 0, 4).unwrap();
            comm.recv_one::<i32>(0, 4).unwrap().0
        });
        assert_eq!(out, vec![99]);
    }

    #[test]
    fn sendrecv_exchanges_between_neighbours() {
        let out = World::run(4, |comm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            let (got, _) = comm
                .sendrecv::<u64, u64>(&[comm.rank() as u64], right, 1, left, 1)
                .unwrap();
            got[0]
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn iprobe_sees_pending_message() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[5i32, 6, 7], 1, 9).unwrap();
                0
            } else {
                // Wait for it to arrive.
                loop {
                    if let Some(st) = comm.iprobe(0, 9) {
                        assert_eq!(st.count, 3);
                        break;
                    }
                    std::thread::yield_now();
                }
                let (v, _) = comm.recv::<i32>(0, 9).unwrap();
                v.iter().sum::<i32>()
            }
        });
        assert_eq!(out[1], 18);
    }

    #[test]
    fn ssend_completes_once_matched() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.ssend(&[42i64], 1, 5).unwrap();
                "sent"
            } else {
                std::thread::sleep(std::time::Duration::from_millis(30));
                let (v, _) = comm.recv_one::<i64>(0, 5).unwrap();
                assert_eq!(v, 42);
                "received"
            }
        });
        assert_eq!(out, vec!["sent", "received"]);
    }

    #[test]
    fn head_to_head_ssends_deadlock_like_real_mpi() {
        // The classic unsafe pattern: both ranks Ssend before receiving.
        // With synchronous sends this deadlocks; the detector reports it.
        let out = World::run(2, |comm| {
            let peer = 1 - comm.rank();
            let send = comm.ssend(&[comm.rank() as i64], peer, 1);
            match send {
                Err(e) => Err(e),
                Ok(()) => comm.recv_one::<i64>(peer, 1).map(|_| ()),
            }
        });
        assert!(
            out.iter().any(|r| matches!(r, Err(Error::Deadlock(_)))),
            "head-to-head ssend must be diagnosed: {out:?}"
        );
    }

    #[test]
    fn ssend_then_recv_ordering_is_safe_when_one_side_receives_first() {
        // The safe ordering: odd ranks receive first, even ranks ssend
        // first — the fix students learn.
        let out = World::run(4, |comm| {
            let peer = comm.rank() ^ 1;
            if comm.rank() % 2 == 0 {
                comm.ssend(&[comm.rank() as i64], peer, 2).unwrap();
                comm.recv_one::<i64>(peer, 2).unwrap().0
            } else {
                let v = comm.recv_one::<i64>(peer, 2).unwrap().0;
                comm.ssend(&[comm.rank() as i64], peer, 2).unwrap();
                v
            }
        });
        assert_eq!(out, vec![1, 0, 3, 2]);
    }

    #[test]
    fn split_groups_by_color_and_orders_by_key() {
        // 6 ranks split into even/odd colors; key reverses the order.
        let out = World::run(6, |comm| {
            let color = (comm.rank() % 2) as i32;
            let key = -(comm.rank() as i32); // descending world rank
            let sub = comm.split(color, key).unwrap();
            (sub.rank(), sub.size(), sub.world_rank(), comm.rank())
        });
        // Evens: world ranks 4, 2, 0 in sub-rank order (key descending).
        assert_eq!(out[4].0, 0);
        assert_eq!(out[2].0, 1);
        assert_eq!(out[0].0, 2);
        // Odds: 5, 3, 1.
        assert_eq!(out[5].0, 0);
        assert_eq!(out[3].0, 1);
        assert_eq!(out[1].0, 2);
        assert!(out.iter().all(|&(_, size, _, _)| size == 3));
        assert!(out.iter().all(|&(_, _, w, r)| w == r));
    }

    #[test]
    fn collectives_work_on_sub_communicators() {
        use patternlets_core::reduce::ops;
        let out = World::run(6, |comm| {
            let color = (comm.rank() / 3) as i32; // {0,1,2} and {3,4,5}
            let sub = comm.split(color, comm.rank() as i32).unwrap();
            // Sum world ranks within each half.
            let sum = sub.allreduce(&[comm.rank() as i64], &ops::Sum).unwrap()[0];
            sub.barrier().unwrap();
            sum
        });
        assert_eq!(&out[..3], &[3, 3, 3], "0+1+2");
        assert_eq!(&out[3..], &[12, 12, 12], "3+4+5");
    }

    #[test]
    fn sub_communicator_point_to_point_uses_local_ranks() {
        let out = World::run(4, |comm| {
            let color = (comm.rank() % 2) as i32;
            let sub = comm.split(color, 0).unwrap();
            // Local rank 0 of each sub-comm sends to local rank 1.
            if sub.rank() == 0 {
                sub.send_one(comm.rank() as u64, 1, 5).unwrap();
                None
            } else {
                let (v, st) = sub.recv_one::<u64>(0, 5).unwrap();
                assert_eq!(st.source, 0, "status reports the LOCAL source rank");
                Some(v)
            }
        });
        // World rank 2 receives from world rank 0; 3 from 1.
        assert_eq!(out, vec![None, None, Some(0), Some(1)]);
    }

    #[test]
    fn messages_do_not_leak_across_communicators() {
        let out = World::run(2, |comm| {
            let dup = comm.dup().unwrap();
            if comm.rank() == 0 {
                comm.send_one(1i64, 1, 3).unwrap(); // on world
                dup.send_one(2i64, 1, 3).unwrap(); // on dup
                0
            } else {
                // Receive on dup FIRST: must get the dup message even
                // though the world message arrived earlier.
                let (v_dup, _) = dup.recv_one::<i64>(0, 3).unwrap();
                let (v_world, _) = comm.recv_one::<i64>(0, 3).unwrap();
                assert_eq!(v_dup, 2);
                assert_eq!(v_world, 1);
                v_dup + v_world
            }
        });
        assert_eq!(out[1], 3);
    }

    #[test]
    fn nested_splits() {
        let out = World::run(8, |comm| {
            let half = comm.split((comm.rank() / 4) as i32, 0).unwrap();
            let quarter = half.split((half.rank() / 2) as i32, 0).unwrap();
            (half.size(), quarter.size(), quarter.rank())
        });
        assert!(out.iter().all(|&(h, q, _)| h == 4 && q == 2));
        let zeros = out.iter().filter(|&&(_, _, r)| r == 0).count();
        assert_eq!(zeros, 4, "four quarter-comms, each with a rank 0");
    }

    /// The sender overwrites its 64 KiB buffer as soon as each `send`
    /// returns; the receiver gets the bytes the buffer held at the call,
    /// on the shared in-process path and on the encoded baseline, where a
    /// `u8` send reaches the fabric as the caller's slice.
    #[test]
    fn a_sender_may_reuse_its_buffer_as_soon_as_send_returns() {
        const LEN: usize = 64 << 10;
        let pattern = |round: usize| (0..LEN).map(move |i| (i * 31 + round) as u8);
        for encoded in [false, true] {
            let out = World::builder(2)
                .encoded_payloads(encoded)
                .run(|comm| {
                    let mut buf = vec![0u8; LEN];
                    for round in 0..4 {
                        if comm.rank() == 0 {
                            buf.iter_mut().zip(pattern(round)).for_each(|(b, v)| *b = v);
                            comm.send(&buf, 1, round as i32).unwrap();
                            buf.fill(0xEE);
                        } else {
                            let (got, _) = comm.recv::<u8>(0, round as i32).unwrap();
                            assert!(got.iter().copied().eq(pattern(round)), "round {round}");
                        }
                    }
                })
                .unwrap();
            assert_eq!(out.len(), 2, "encoded baseline: {encoded}");
        }
    }

    /// On the encoded baseline no two ranks share an address space, a
    /// rank and itself included, so a large `u8` self-send leaves `send`
    /// as the caller's slice; the self-send shortcut copies it into the
    /// rank's own mailbox.
    #[test]
    fn a_large_u8_self_send_arrives_on_the_encoded_baseline() {
        let data: Vec<u8> = (0..=255).collect();
        let out = World::builder(1)
            .encoded_payloads(true)
            .run(|comm| {
                comm.send(&data, 0, 3).unwrap();
                comm.recv::<u8>(0, 3).unwrap().0
            })
            .unwrap();
        assert_eq!(out[0], data);
    }

    #[test]
    fn recv_count_mismatch_via_recv_one() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[1i32, 2, 3], 1, 0).unwrap();
                Ok(0)
            } else {
                comm.recv_one::<i32>(0, 0).map(|(v, _)| v)
            }
        });
        assert!(matches!(
            out[1],
            Err(Error::CountMismatch {
                expected: 1,
                found: 3
            })
        ));
    }
}
