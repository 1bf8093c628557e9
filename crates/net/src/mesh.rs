//! The peer mesh: one process's rank of a world, over any [`Link`].
//!
//! Both process fabrics run the same protocol above their bytes.
//! [`PeerMesh`] implements it once, for the rank this process hosts:
//! frame dispatch (`Env` into the mailbox; `Finish`, `Failed`, `Agree`
//! into the membership state; `Hello`, `Ping` and clock probes on to the
//! link), the finished/failed verdicts and the wake-ups they owe blocked
//! agreements, the announcement of this rank's own failure, `finish`,
//! `transmit`, agreement, and the heartbeat loop. `transmit` has one
//! path from an envelope to a record (`Mesh::write_env`), whatever form
//! its payload came in. A [`Link`] moves encoded records to peers, each
//! handed over as a head and a payload still where the sender left it
//! ([`Pieces`]): in the envelope's buffer, which the link may share, or
//! in the caller's own slice for a `u8` send. The shared-memory link
//! copies both pieces straight into its ring; the TCP link keeps a share
//! of the envelope's buffer for replay, or copies the caller's slice
//! once. The rank drains the link itself: no thread stands between a
//! link and the dispatch. Whenever one of the rank's threads waits — in a
//! receive, a probe, an agreement, `finish`'s wait for acks, or on a full
//! outbound ring or socket — it drains every inbound ring or socket, and
//! the heartbeat tick drains them as a backstop. Between drains the wait
//! parks the link's way ([`Link::park`]): on the futex doorbell every
//! producer rings, for the shared-memory link ([`crate::shm`]); in
//! `poll(2)` on the peer sockets, for the TCP link ([`crate::fabric`]),
//! which also brings the reconnect machinery.
//!
//! ## Failure detection
//!
//! Ranks announce a normal exit with a `Finish` frame before closing
//! their side of every link, so end-of-stream after `Finish` reads as a
//! clean exit. A link that dies without one is the link's to judge: TCP
//! tries to reconnect first, a ring has nothing to reconnect. Either way
//! the verdict surfaces as the same `RankFailed` the fault-injection
//! layer produces, so the ULFM-style `agree`/`shrink` recovery path works
//! unchanged across processes. Own failures (fault-plan kill, panic) are
//! broadcast as `Failed` so peers converge without waiting; verdicts
//! *about* peers stay local — each process judges each peer through its
//! own link.
//!
//! The heartbeat pings every live peer each [`HEARTBEAT_EVERY`],
//! carrying this side's count of sequenced frames delivered as the ack.
//! The link kind picks the liveness rule: a peer silent past
//! [`Link::PEER_TIMEOUT`] — or, before its first frame, past
//! [`Link::ESTABLISH_GRACE`] from this rank's establish — gets one
//! [`probe`](Link::probe) if the link can reconnect, and is declared
//! failed if it cannot or stays silent.
//!
//! ## What the thread backend has that this one doesn't
//!
//! The waits-for deadlock *detector* needs a global view of every rank's
//! blocked receive; a process only sees its own, so the mesh keeps the
//! [`Fabric`] defaults that never report a deadlock — a genuinely cyclic
//! deadlock hangs under `pmrun` just as it would under real MPI, while
//! the common classroom case (receiving from a rank that exited) still
//! resolves, because `Finish` frames feed the same every-sender-finished
//! check the thread backend uses.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use patternlets_core::spsc::{Park, Pieces, Wait};
use patternlets_core::{Error, Result};
use patternlets_metrics::{CounterId, HistId, Obs};
use patternlets_mp::envelope::{Envelope, Outgoing, Payload, INLINE_MAX};
use patternlets_mp::fabric::{AgreeKey, AgreeSlot, Fabric, WorldSpec};
use patternlets_mp::mailbox::Mailbox;

use crate::frame::{encode_frame, EnvHeader, Frame};

/// How often the heartbeat thread pings every live peer.
pub const HEARTBEAT_EVERY: Duration = Duration::from_millis(100);

/// On `finish`, how long to wait for peers to acknowledge the frames
/// still in flight (the Finish itself included) before closing. Acks ride
/// the peers' heartbeats, so the common case drains in one or two
/// heartbeat intervals; a link that never loses a written frame has
/// nothing to wait for.
pub(crate) const FINISH_DRAIN: Duration = Duration::from_secs(1);

/// `last_heard` sentinel: no frame from this peer yet.
const NEVER_HEARD: u64 = u64::MAX;

/// The unknown (user-defined `Datatype`) type names this process has
/// received, each leaked once so an envelope can hold it as a
/// `&'static str` and repeated traffic of the same type allocates
/// nothing. Peers choose the names, so the table is bounded.
pub(crate) struct TypeNames(Mutex<Vec<&'static str>>);

impl TypeNames {
    /// Most distinct unknown names one table keeps.
    pub(crate) const CAP: usize = 256;

    pub(crate) const fn new() -> TypeNames {
        TypeNames(Mutex::new(Vec::new()))
    }

    /// An unknown type name as a `&'static str`, from the table, leaked
    /// the first time it is seen. A new name once the table holds
    /// [`CAP`] is a codec error.
    ///
    /// [`CAP`]: TypeNames::CAP
    pub(crate) fn intern(&self, name: &str) -> Result<&'static str> {
        let mut names = self.0.lock();
        if let Some(&cached) = names.iter().find(|&&k| k == name) {
            return Ok(cached);
        }
        if names.len() == Self::CAP {
            return Err(Error::Codec(format!(
                "a {}-byte type name past the {} distinct unknown ones this process keeps",
                name.len(),
                Self::CAP
            )));
        }
        let leaked: &'static str = Box::leak(name.into());
        names.push(leaked);
        Ok(leaked)
    }
}

/// This process's table of received type names.
static TYPE_NAMES: TypeNames = TypeNames::new();

/// The byte transport under a [`PeerMesh`]: how encoded frames reach each
/// peer, how the rank's threads drain inbound frames into the mesh's
/// dispatch ([`drain`](Link::drain)) and sleep between drains
/// ([`park`](Link::park)), and how silence from a peer is judged. A link
/// reports dead links as failure verdicts.
pub trait Link: Sized + Send + Sync + 'static {
    /// Silence after which a peer that has spoken is probed or failed.
    const PEER_TIMEOUT: Duration;

    /// Silence, counted from this rank's establish, allowed before a
    /// peer's first frame.
    const ESTABLISH_GRACE: Duration;

    /// Write one encoded record to `peer`, draining this rank's inbound
    /// side while the way to `peer` is full. The record is a head and a
    /// payload still where the sender left it; `share` is the buffer the
    /// payload is, when an envelope owns one, for a link that keeps
    /// records for replay (`None` for a payload borrowed from the caller,
    /// or for none). A sequenced record must reach the peer exactly once
    /// even across a reconnect; an unsequenced one may be dropped. `false`
    /// once the link to `peer` is terminal.
    fn write(
        &self,
        mesh: &Mesh<Self>,
        peer: usize,
        record: Pieces,
        share: Option<&Bytes>,
        sequenced: bool,
    ) -> bool;

    /// Write a `Ping`, an unsequenced record — the heartbeat's, or the
    /// ack of a peer's `Finish` — and say whether it went out. A plain
    /// [`write`](Link::write) unless the link drops pings rather than
    /// wait.
    fn ping(&self, mesh: &Mesh<Self>, peer: usize, record: &[u8]) -> bool {
        self.write(mesh, peer, record.into(), None, false)
    }

    /// Sequenced records written to `peer` and not yet acknowledged.
    fn unacked(&self, peer: usize) -> usize;

    /// Tear the link down after this rank's `Finish` went out.
    fn close(&self, mesh: &Mesh<Self>);

    /// Stop writing to `peer` for good: a failure verdict, or `sever`.
    fn cut(&self, peer: usize);

    /// Push a silent `peer`'s link through a reconnect round-trip before
    /// the verdict; `false` when the link has no reconnect.
    fn probe(&self, peer: usize) -> bool;

    /// A frame the mesh does not interpret (`Hello`, `Ping`, clock
    /// probes, strays).
    fn control(&self, mesh: &Mesh<Self>, peer: usize, frame: Frame);

    /// How the rank's waits sleep between drains: on a doorbell every
    /// peer rings after writing to this rank, or in a poll of the link's
    /// inbound side.
    fn park(&self, mesh: &Mesh<Self>) -> Park;

    /// Hand every inbound frame that has fully arrived to the mesh's
    /// dispatch, without blocking. Called by whichever of the rank's
    /// threads is waiting, and on every heartbeat tick.
    fn drain(&self, mesh: &Mesh<Self>);
}

/// The protocol state of one process's rank, shared by the application
/// thread, the heartbeat, and the link's background threads.
pub struct Mesh<L> {
    /// The `Arc` this mesh lives in, for threads the mesh starts and
    /// hooks it installs.
    pub(crate) this: Weak<Mesh<L>>,
    pub(crate) me: usize,
    pub(crate) np: usize,
    pub(crate) epoch: u64,
    /// Tracer and metrics hub; this rank's points record on lane `me`.
    pub(crate) obs: Obs,
    /// This process's rank's mailbox — the only one a `Comm` here reads.
    /// Agreement waits park on its doorbell too.
    mailbox: Mailbox,
    send_seq: AtomicU64,
    pub(crate) finished: Vec<AtomicBool>,
    pub(crate) failed: Vec<AtomicBool>,
    /// Count of *sequenced* frames delivered from each peer — the number
    /// this side reports in `Ping { seen }` acks (and TCP's `Resume`).
    pub(crate) recv_seq: Vec<AtomicU64>,
    /// Per-peer: a probe is outstanding (set on the first silence
    /// timeout, cleared on any frame heard).
    pub(crate) probed: Vec<AtomicBool>,
    /// Milliseconds (since `start`) each peer was last heard from, or
    /// [`NEVER_HEARD`].
    pub(crate) last_heard: Vec<AtomicU64>,
    /// Nanoseconds (since `start`, 0 = none pending) of the oldest
    /// unanswered heartbeat ping per peer; the next frame heard from the
    /// peer closes it into the RTT histogram. There is no dedicated pong
    /// frame — peers talk at least every heartbeat interval, so this
    /// measures ping-to-next-frame time.
    pending_ping_ns: Vec<AtomicU64>,
    start: Instant,
    agreements: Mutex<HashMap<AgreeKey, AgreeSlot>>,
    /// Raised by `finish`/`sever`: background threads wind down, no
    /// reconnect is attempted or served, and links are no longer drained.
    pub(crate) closing: AtomicBool,
    pub(crate) link: L,
}

impl<L: Link> Mesh<L> {
    pub(crate) fn elapsed_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Has `peer` finished or failed?
    pub(crate) fn gone(&self, peer: usize) -> bool {
        self.finished[peer].load(Ordering::SeqCst) || self.failed[peer].load(Ordering::SeqCst)
    }

    /// Wake this rank's waiters: membership changed. A waiter parked in
    /// a poll sees it within the link's park interval.
    fn wake(&self) {
        self.mailbox.bell().ring();
    }

    /// Block until `ready()` holds (`ready` drains the link itself), or —
    /// with a `timeout` — until the wait has been parked that long,
    /// parking the link's way. Call it only once `ready()` was false.
    pub(crate) fn wait_until(&self, ready: impl Fn() -> bool, timeout: Option<Duration>) -> Wait {
        self.mailbox.wait_until(ready, timeout)
    }

    /// Run `body` on a named background thread over the mesh state.
    pub(crate) fn spawn(
        &self,
        name: String,
        body: impl FnOnce(&Mesh<L>) + Send + 'static,
    ) -> Result<()> {
        let mesh = self
            .this
            .upgrade()
            .ok_or_else(|| Error::Codec(format!("spawn {name}: the mesh is gone")))?;
        std::thread::Builder::new()
            .name(name.clone())
            .spawn(move || body(&mesh))
            .map(drop)
            .map_err(|e| Error::Codec(format!("spawn {name}: {e}")))
    }

    /// Send `frame` to every peer; peers whose link is terminal and who
    /// never announced Finish are marked failed.
    pub(crate) fn broadcast(&self, frame: &Frame) {
        let record = encode_frame(frame);
        let sequenced = frame.is_sequenced();
        for peer in (0..self.np).filter(|&p| p != self.me) {
            if !self
                .link
                .write(self, peer, (&record).into(), None, sequenced)
                && !self.finished[peer].load(Ordering::SeqCst)
            {
                self.note_failed(peer);
            }
        }
    }

    /// Record a failure verdict about `rank` locally, cut its link, and
    /// wake everything that must re-examine membership. Does not gossip.
    pub(crate) fn note_failed(&self, rank: usize) {
        if self.failed[rank].swap(true, Ordering::SeqCst) {
            return;
        }
        self.link.cut(rank);
        if let Some(hub) = &self.obs.metrics {
            hub.incr(rank, CounterId::NetRankFailures);
        }
        self.wake();
    }

    /// Dispatch one frame read from `peer`'s link. An error — an `Env`
    /// naming a new type once [`TypeNames`] is full — means the link's
    /// stream cannot go on, as for a frame that does not decode; the frame
    /// is not counted as delivered.
    pub(crate) fn handle_frame(&self, peer: usize, frame: Frame) -> Result<()> {
        let type_name = match &frame {
            Frame::Env {
                type_name: Cow::Borrowed(built_in),
                ..
            } => built_in,
            Frame::Env {
                type_name: Cow::Owned(unknown),
                ..
            } => TYPE_NAMES.intern(unknown)?,
            _ => "",
        };
        self.last_heard[peer].store(self.elapsed_ms(), Ordering::Relaxed);
        self.probed[peer].store(false, Ordering::Relaxed);
        if let Some(hub) = &self.obs.metrics {
            // Any frame from a peer with a ping outstanding closes the
            // RTT sample (ping-to-next-frame; see `pending_ping_ns`).
            let sent = self.pending_ping_ns[peer].swap(0, Ordering::Relaxed);
            if sent != 0 {
                let now = self.start.elapsed().as_nanos() as u64;
                hub.observe(self.me, HistId::HEARTBEAT_RTT_NS, now.saturating_sub(sent));
            }
        }
        if frame.is_sequenced() {
            self.recv_seq[peer].fetch_add(1, Ordering::SeqCst);
        }
        match frame {
            Frame::Env {
                comm_id,
                src,
                tag,
                type_name: _,
                count,
                seq,
                needs_ack,
                overtake,
                payload,
            } => {
                let env = Envelope {
                    comm_id,
                    src: src as usize,
                    tag,
                    type_name,
                    count: count as usize,
                    payload: Payload::from(payload),
                    seq,
                    needs_ack,
                };
                self.mailbox.deliver_displaced(env, overtake as usize);
            }
            Frame::Finish { rank } if (rank as usize) < self.np => {
                // The link is deliberately NOT cut here: our own Finish
                // may not have gone out yet (both sides announce
                // concurrently), and muting the writer would leave the
                // peer draining against its full FINISH_DRAIN budget
                // waiting for it. The `finished` flag alone keeps the
                // heartbeat and reconnects away from this peer; `close`
                // ends the link at teardown.
                self.finished[rank as usize].store(true, Ordering::SeqCst);
                self.wake();
                // Acknowledge at once: the peer's `finish` waits for its
                // frames, this Finish included, to be acked, and the
                // heartbeat no longer pings a peer that is gone.
                let ack = encode_frame(&Frame::Ping {
                    seen: self.recv_seq[peer].load(Ordering::SeqCst),
                });
                self.link.ping(self, peer, &ack);
            }
            Frame::Failed { rank } if (rank as usize) < self.np => self.note_failed(rank as usize),
            Frame::Agree {
                comm_id,
                kind,
                seq,
                rank,
                value,
            } => {
                self.agreements
                    .lock()
                    .entry((comm_id, kind, seq))
                    .or_default()
                    .insert(rank as usize, value);
                self.wake();
            }
            other => self.link.control(self, peer, other),
        }
        Ok(())
    }

    /// Write `env`'s record to `dest` — twice with `duplicate`; the
    /// receiving mailbox dedups the second copy and records the drop on
    /// its own side. A payload of at most [`INLINE_MAX`] bytes is copied
    /// into the head's buffer, so its record is one allocation; a larger
    /// one stays where it is — the sender's slice, or the envelope's
    /// buffer, which the link may share — and the CRC reads it there.
    fn write_env(&self, dest: usize, env: &Envelope<Outgoing>, overtake: usize, duplicate: bool) {
        let encoded;
        let (payload, share) = match &env.payload {
            Outgoing::Wire(wire) => (*wire, None),
            Outgoing::Owned(Payload::Inline { buf, len }) => (&buf[..*len as usize], None),
            Outgoing::Owned(owned) => {
                encoded = owned.to_wire();
                (&encoded[..], Some(&encoded))
            }
        };
        let header = EnvHeader {
            comm_id: env.comm_id,
            src: env.src as u64,
            tag: env.tag,
            type_name: env.type_name,
            count: env.count as u64,
            seq: env.seq,
            needs_ack: env.needs_ack,
            overtake: overtake as u32,
        };
        let (head, payload, share) = if payload.len() <= INLINE_MAX {
            (header.record(payload), &[][..], None)
        } else {
            (header.head(payload, 0), payload, share)
        };
        let record = Pieces::new(&head, payload);
        let ok = (!duplicate || self.link.write(self, dest, record, share, true))
            && self.link.write(self, dest, record, share, true);
        if !ok && !self.finished[dest].load(Ordering::SeqCst) {
            self.note_failed(dest);
        }
    }

    /// Ping every live peer on a cadence and apply the link's liveness
    /// rule to the silent ones (see the module docs). Each tick first
    /// drains the link, so a rank that is computing still sees its peers'
    /// pings, `Finish` and `Failed` before judging their silence.
    fn heartbeat_loop(&self) {
        loop {
            std::thread::sleep(HEARTBEAT_EVERY);
            if self.closing.load(Ordering::SeqCst) {
                return;
            }
            self.link.drain(self);
            let now = self.elapsed_ms();
            let mut dead = Vec::new();
            for peer in (0..self.np).filter(|&p| p != self.me && !self.gone(p)) {
                let ping = encode_frame(&Frame::Ping {
                    seen: self.recv_seq[peer].load(Ordering::SeqCst),
                });
                if self.link.ping(self, peer, &ping) {
                    if let Some(hub) = &self.obs.metrics {
                        hub.incr(self.me, CounterId::NetHeartbeats);
                        let now_ns = (self.start.elapsed().as_nanos() as u64).max(1);
                        // Only arm a new RTT sample if none is outstanding,
                        // so a slow round isn't shortened by a later ping.
                        let _ = self.pending_ping_ns[peer].compare_exchange(
                            0,
                            now_ns,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        );
                    }
                }
                let heard = self.last_heard[peer].load(Ordering::Relaxed);
                let (since, limit) = match heard {
                    NEVER_HEARD => (0, L::ESTABLISH_GRACE),
                    heard => (heard, L::PEER_TIMEOUT),
                };
                if now.saturating_sub(since) > limit.as_millis() as u64 {
                    if !self.probed[peer].swap(true, Ordering::Relaxed) && self.link.probe(peer) {
                        // Restart the silence clock for the probe's verdict.
                        self.last_heard[peer].store(now, Ordering::Relaxed);
                    } else {
                        dead.push(peer);
                    }
                }
            }
            for peer in dead {
                if !self.closing.load(Ordering::SeqCst) {
                    self.note_failed(peer);
                }
            }
        }
    }
}

/// One process's handle on a multi-process world: implements [`Fabric`]
/// for the single rank this process hosts, over links of kind `L`.
pub struct PeerMesh<L: Link> {
    pub(crate) inner: Arc<Mesh<L>>,
}

impl<L: Link> PeerMesh<L> {
    /// The mesh for rank `me` of `spec` over `link`, with its heartbeat
    /// running and the link's drain and park hooked into the mailbox's
    /// waits.
    pub(crate) fn new(me: usize, spec: &WorldSpec, link: L) -> Result<Self> {
        let np = spec.np;
        let mesh = PeerMesh {
            inner: Arc::new_cyclic(|this| Mesh {
                this: this.clone(),
                me,
                np,
                epoch: spec.epoch,
                obs: spec.obs(),
                mailbox: Mailbox::observed(spec.obs(), me),
                send_seq: AtomicU64::new(0),
                finished: (0..np).map(|_| AtomicBool::new(false)).collect(),
                failed: (0..np).map(|_| AtomicBool::new(false)).collect(),
                recv_seq: (0..np).map(|_| AtomicU64::new(0)).collect(),
                probed: (0..np).map(|_| AtomicBool::new(false)).collect(),
                last_heard: (0..np).map(|_| AtomicU64::new(NEVER_HEARD)).collect(),
                pending_ping_ns: (0..np).map(|_| AtomicU64::new(0)).collect(),
                start: Instant::now(),
                agreements: Mutex::new(HashMap::new()),
                closing: AtomicBool::new(false),
                link,
            }),
        };
        let inner = &mesh.inner;
        // Weak: the hook lives in the mesh's own mailbox.
        let this = inner.this.clone();
        inner.mailbox.drive(inner.link.park(inner), move || {
            if let Some(mesh) = this.upgrade() {
                mesh.link.drain(&mesh);
            }
        });
        inner.spawn("mesh-heartbeat".into(), |mesh| mesh.heartbeat_loop())?;
        Ok(mesh)
    }

    /// Line every rank up at a start gate before a traced world's body
    /// runs: one agreement round on a reserved key (no comm ever uses
    /// `comm_id == u64::MAX`), then a wait until a common wall-clock
    /// deadline. Each rank contributes its arrival time on rank 0's clock
    /// plus a margin and everyone waits out the max, so release skew is
    /// bounded by clock-offset error rather than frame-propagation and
    /// condvar-wakeup latency. Without it, launch-order stagger would put
    /// milliseconds of lane offset in the merged timeline — late arrival,
    /// not message latency, would gate the analyzer's critical path. The
    /// round is sequenced on the wire (chaos-safe) and a dead rank can't
    /// hang it; a rank arriving after the deadline simply doesn't wait.
    pub(crate) fn start_gate(&self, spec: &WorldSpec) {
        if spec.tracer.is_none() || spec.np < 2 {
            return;
        }
        let wall = || {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as i128)
                .unwrap_or(0)
        };
        // Covers the last arriver's Agree frame reaching every peer.
        const GATE_MARGIN_NS: i128 = 2_000_000;
        let offset = i128::from(crate::clock_offset_ns());
        let group: Vec<usize> = (0..spec.np).collect();
        let value = (wall() + offset + GATE_MARGIN_NS).max(0) as u64;
        let slot = self.agreement((u64::MAX, 0, spec.epoch), self.inner.me, value, &group);
        let deadline = slot.values().copied().max().unwrap_or(0) as i128;
        loop {
            let left = deadline - (wall() + offset);
            if left <= 0 {
                break;
            }
            if left > 500_000 {
                std::thread::sleep(Duration::from_nanos((left - 300_000) as u64));
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Abruptly stop talking without announcing Finish — what a killed
    /// process looks like from the outside: peers must reach their own
    /// failure verdict about this rank. Test/diagnostic aid.
    pub fn sever(&self) {
        self.inner.closing.store(true, Ordering::SeqCst);
        for peer in (0..self.inner.np).filter(|&p| p != self.inner.me) {
            self.inner.link.cut(peer);
        }
    }
}

impl<L: Link> Fabric for PeerMesh<L> {
    fn np(&self) -> usize {
        self.inner.np
    }

    fn next_send_seq(&self, _me: usize) -> u64 {
        self.inner.send_seq.fetch_add(1, Ordering::Relaxed)
    }

    fn transmit(
        &self,
        _me: usize,
        dest: usize,
        env: Envelope<Outgoing>,
        overtake: usize,
        duplicate: bool,
    ) {
        self.inner.write_env(dest, &env, overtake, duplicate);
    }

    fn mailbox(&self, world_rank: usize) -> &Mailbox {
        assert_eq!(
            world_rank, self.inner.me,
            "a peer mesh only hosts its own rank's mailbox"
        );
        &self.inner.mailbox
    }

    fn rank_alive(&self, world_rank: usize) -> bool {
        !self.inner.gone(world_rank)
    }

    fn rank_failed(&self, world_rank: usize) -> bool {
        self.inner.failed[world_rank].load(Ordering::SeqCst)
    }

    fn mark_failed(&self, world_rank: usize) {
        let first_verdict = !self.inner.failed[world_rank].swap(true, Ordering::SeqCst);
        self.inner.wake();
        // Own failures (fault-plan kill, panic) are announced so every
        // peer converges without waiting for a timeout.
        if world_rank == self.inner.me && first_verdict {
            self.inner.broadcast(&Frame::Failed {
                rank: world_rank as u64,
            });
        }
    }

    fn finish(&self, me: usize) {
        let mesh = &*self.inner;
        mesh.finished[me].store(true, Ordering::SeqCst);
        mesh.wake();
        mesh.broadcast(&Frame::Finish { rank: me as u64 });
        // Bounded drain: give peers a chance to acknowledge the frames
        // still in flight (this Finish included) and let a reconnect
        // serve a cut that ate the tail. Without this, a cut at the finish
        // line would turn a clean exit into a spurious failure verdict.
        // The acks arrive on the link, so the wait drains it. A rank that
        // failed itself skips it: its survivors cut its links, and no ack
        // will ever come.
        let settled = || {
            mesh.link.drain(mesh);
            (0..mesh.np).all(|p| mesh.gone(p) || mesh.link.unacked(p) == 0)
        };
        if !mesh.failed[me].load(Ordering::SeqCst) && !settled() {
            mesh.wait_until(settled, Some(FINISH_DRAIN));
        }
        mesh.closing.store(true, Ordering::SeqCst);
        mesh.link.close(mesh);
    }

    fn agreement(&self, key: AgreeKey, me: usize, value: u64, group: &[usize]) -> AgreeSlot {
        let mesh = &*self.inner;
        mesh.agreements
            .lock()
            .entry(key)
            .or_default()
            .insert(me, value);
        mesh.broadcast(&Frame::Agree {
            comm_id: key.0,
            kind: key.1,
            seq: key.2,
            rank: me as u64,
            value,
        });
        // Contributions arrive on the link, which is drained here;
        // verdicts reached elsewhere ring the mailbox's doorbell (`wake`).
        let complete = || {
            mesh.link.drain(mesh);
            let slots = mesh.agreements.lock();
            group
                .iter()
                .all(|&w| slots[&key].contains_key(&w) || mesh.gone(w))
        };
        if !complete() {
            mesh.wait_until(complete, None);
        }
        let slots = mesh.agreements.lock();
        slots[&key].clone()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::chaos::NetChaosPlan;
    use crate::fabric::TcpFabric;
    use crate::rendezvous;
    use crate::shm::tests::shm_rank;
    use crate::shm::ShmFabric;
    use patternlets_metrics::MetricsHub;
    use patternlets_mp::status::{SourceSel, TagSel};
    use std::path::{Path, PathBuf};

    pub(crate) fn spec(np: usize, epoch: u64) -> WorldSpec {
        WorldSpec {
            np,
            ranks_per_node: 1,
            fault: None,
            poll_interval: Duration::from_millis(5),
            tracer: None,
            metrics: None,
            epoch,
        }
    }

    pub(crate) fn env(comm_id: u64, src: usize, tag: i32, seq: u64) -> Envelope {
        Envelope {
            comm_id,
            src,
            tag,
            type_name: "i64",
            count: 1,
            payload: Payload::Bytes(bytes::Bytes::from(vec![7, 0, 0, 0, 0, 0, 0, 0])),
            seq,
            needs_ack: false,
        }
    }

    pub(crate) fn recv_one(fabric: &dyn Fabric, rank: usize, src: usize, tag: i32) -> Envelope {
        fabric
            .mailbox(rank)
            .recv_match(
                0,
                SourceSel::Rank(src),
                TagSel::Tag(tag),
                Duration::from_millis(5),
                || None,
                || {},
            )
            .unwrap()
    }

    /// A fresh directory for one test's ring segments.
    pub(crate) fn scratch_dir() -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("shm-mesh-test-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Establish all `np` ranks of a world inside this test process, each
    /// on its own thread, exactly as `np` processes would.
    fn each_rank<T: Send>(np: usize, rank: impl Fn(usize) -> T + Sync) -> Vec<T> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..np)
                .map(|me| {
                    let rank = &rank;
                    scope.spawn(move || rank(me))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// A TCP mesh, optionally armed with a chaos plan and a per-rank
    /// metrics hub.
    pub(crate) fn tcp_mesh_with(
        np: usize,
        chaos: Option<NetChaosPlan>,
        metrics: bool,
    ) -> Vec<Arc<TcpFabric>> {
        let server = rendezvous::serve().unwrap().to_string();
        each_rank(np, |me| {
            let mut spec = spec(np, 0);
            if metrics {
                spec.metrics = Some(MetricsHub::with_lanes(np));
            }
            let (listener, table) =
                rendezvous::bind_and_register(&server, me, &spec, None).unwrap();
            Arc::new(TcpFabric::from_table(listener, table, me, &spec, chaos).unwrap())
        })
    }

    /// A shm mesh whose segments live in `dir` (file-backed, so the
    /// mappings are genuinely shared, not just shared Arcs).
    pub(crate) fn shm_mesh_in(np: usize, dir: &Path) -> Vec<Arc<ShmFabric>> {
        let server = rendezvous::serve().unwrap().to_string();
        each_rank(np, |me| Arc::new(shm_rank(&server, me, &spec(np, 0), dir)))
    }

    fn tcp_mesh(np: usize) -> Vec<Arc<TcpFabric>> {
        tcp_mesh_with(np, None, false)
    }

    fn shm_mesh(np: usize) -> Vec<Arc<ShmFabric>> {
        let dir = scratch_dir();
        let fabrics = shm_mesh_in(np, &dir);
        // Every producer has mapped its ring by now; the files can go.
        let _ = std::fs::remove_dir_all(dir);
        fabrics
    }

    fn finish_all<L: Link>(fabrics: &[Arc<PeerMesh<L>>]) {
        for (me, f) in fabrics.iter().enumerate() {
            f.finish(me);
        }
    }

    fn wait_for(what: &str, within: Duration, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + within;
        while !cond() {
            assert!(Instant::now() < deadline, "{what} within {within:?}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn envelope_crosses_and_matches<L: Link>(fabrics: Vec<Arc<PeerMesh<L>>>) {
        fabrics[0].deliver(0, 1, env(0, 0, 5, 0), 0, false);
        let got = recv_one(&*fabrics[1], 1, 0, 5);
        assert_eq!(got.tag, 5);
        assert_eq!(got.type_name, "i64");
        assert_eq!(got.payload.len(), 8);
        finish_all(&fabrics);
    }

    fn duplicate_transmissions_dedup_on_the_receiver<L: Link>(fabrics: Vec<Arc<PeerMesh<L>>>) {
        fabrics[0].deliver(0, 1, env(0, 0, 9, 0), 0, true);
        fabrics[0].deliver(0, 1, env(0, 0, 9, 1), 0, false);
        // Both messages arrive exactly once, in order.
        for want_seq in [0, 1] {
            assert_eq!(recv_one(&*fabrics[1], 1, 0, 9).seq, want_seq);
        }
        assert!(fabrics[1].mailbox(1).is_empty(), "duplicate was swallowed");
        finish_all(&fabrics);
    }

    fn finish_reads_as_clean_exit_not_failure<L: Link>(fabrics: Vec<Arc<PeerMesh<L>>>) {
        fabrics[0].finish(0);
        wait_for("Finish frame arrives", Duration::from_secs(5), || {
            !fabrics[1].rank_alive(0)
        });
        assert!(!fabrics[1].rank_failed(0), "clean exit must not be failure");
        fabrics[1].finish(1);
    }

    fn agreement_completes_across_the_mesh<L: Link>(fabrics: Vec<Arc<PeerMesh<L>>>) {
        let slots = each_rank(3, |me| {
            fabrics[me].agreement((0, 0, 0), me, me as u64 + 10, &[0, 1, 2])
        });
        for (me, slot) in slots.iter().enumerate() {
            assert_eq!(slot.len(), 3, "rank {me} saw all contributions");
            assert_eq!(slot[&2], 12);
        }
        finish_all(&fabrics);
    }

    fn agreement_excludes_a_dead_member<L: Link>(fabrics: Vec<Arc<PeerMesh<L>>>) {
        fabrics[1].sever(); // rank 1 "dies" without contributing
        let slot = fabrics[0].agreement((0, 1, 0), 0, 42, &[0, 1]);
        assert_eq!(slot.len(), 1, "only the survivor contributed");
        assert_eq!(slot[&0], 42);
        fabrics[0].finish(0);
    }

    /// Peers learn of a rank's own failure from its `Failed` frame, well
    /// inside either link's silence timeout — nothing else could explain
    /// a verdict this fast.
    fn own_failure_reaches_peers_within_a_second<L: Link>(fabrics: Vec<Arc<PeerMesh<L>>>) {
        let within = Duration::from_secs(1);
        assert!(L::PEER_TIMEOUT > within && L::ESTABLISH_GRACE > within);
        fabrics[0].mark_failed(0);
        for peer in [1, 2] {
            wait_for("the Failed frame lands", within, || {
                fabrics[peer].rank_failed(0)
            });
        }
        assert!(!fabrics[1].rank_failed(2), "survivors stay unfailed");
        finish_all(&fabrics);
    }

    /// Each mesh behaviour, written once, runs over both links.
    macro_rules! over_both_links {
        ($($behaviour:ident($np:expr);)*) => {
            mod over_tcp {
                $(#[test]
                fn $behaviour() {
                    super::$behaviour(super::tcp_mesh($np));
                })*
            }
            mod over_shm {
                $(#[test]
                fn $behaviour() {
                    super::$behaviour(super::shm_mesh($np));
                })*
            }
        };
    }

    over_both_links! {
        envelope_crosses_and_matches(2);
        duplicate_transmissions_dedup_on_the_receiver(2);
        finish_reads_as_clean_exit_not_failure(2);
        agreement_completes_across_the_mesh(3);
        agreement_excludes_a_dead_member(2);
        own_failure_reaches_peers_within_a_second(3);
    }

    impl TypeNames {
        /// Names held.
        fn len(&self) -> usize {
            self.0.lock().len()
        }
    }

    #[test]
    fn unknown_type_names_leak_once() {
        let names = TypeNames::new();
        let a = names.intern("custom::Type").unwrap();
        let b = names.intern("custom::Type").unwrap();
        assert!(std::ptr::eq(a, b), "unknown names leak exactly once");
        assert_eq!(names.len(), 1);
    }

    #[test]
    fn type_name_interning_stops_at_its_cap() {
        let names = TypeNames::new();
        let name = |i: usize| format!("custom::T{i}");
        let over = TypeNames::CAP + 16;
        let interned = (0..over)
            .filter(|&i| names.intern(&name(i)).is_ok())
            .count();
        assert_eq!(interned, TypeNames::CAP);
        assert_eq!(names.len(), TypeNames::CAP, "the table stops growing");
        // Names it holds still resolve; new ones fail.
        assert!(names.intern(&name(0)).is_ok());
        assert!(matches!(names.intern(&name(over)), Err(Error::Codec(_))));
        assert_eq!(names.len(), TypeNames::CAP);
    }
}
