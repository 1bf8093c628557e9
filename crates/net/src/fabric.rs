//! The TCP link: one process's slice of a world, over a socket mesh.
//!
//! Every participating rank binds a loopback listener, registers it with
//! the job's rendezvous server, and — once the full address table is back
//! — establishes one TCP connection per peer (the higher rank dials the
//! lower rank's listener, so each pair gets exactly one socket). All
//! traffic to a peer travels on that connection as [`Frame`]s; TCP's
//! per-stream ordering carries MPI's non-overtaking guarantee across the
//! process boundary exactly as the in-process queue order does.
//!
//! ## Self-healing connections
//!
//! A lost connection is not a lost peer. Every *sequenced* frame (see
//! [`Frame::is_sequenced`]) is retained in a per-peer [`SendRing`] until
//! the peer acknowledges it — acks piggyback on the heartbeat as
//! `Ping { seen }` — and each end counts the sequenced frames it has
//! delivered. When a socket dies (EOF, write error, or a frame whose CRC
//! doesn't check out), the higher-ranked side redials the lower side's
//! listener with exponential backoff and exchanges `Resume` frames
//! carrying those delivery counts; both send rings rewind to the peer's
//! count and replay the unacknowledged tail. The counts are exact, so
//! resumption is exactly-once by construction — no frame is lost (the
//! ring still holds it) and none is duplicated (nothing below the peer's
//! count is resent); the mailbox's sequence dedup stands behind it as a
//! second line of defense. Only when the reconnect budget
//! ([`RECONNECT_BUDGET`]) is exhausted does the verdict escalate to
//! [`Error::RankFailed`](patternlets_core::Error::RankFailed).
//!
//! ## Liveness
//!
//! EOF without a `Finish` enters the reconnect cycle above. The
//! [`PeerMesh`] heartbeat backstops half-open connections: a peer silent
//! past [`PEER_TIMEOUT`] gets a *probe* — its connection is cut, forcing
//! a reconnect round-trip — and is declared failed only if still silent
//! after that.
//!
//! ## Wire chaos
//!
//! With a [`NetChaosPlan`] armed (`pmrun --net-chaos SEED`), every
//! outgoing batch passes a seeded per-connection chaos stream that may
//! cut the connection before the write, truncate the write mid-frame, or
//! flip one bit (which the frame CRC catches on the far side). All three
//! funnel into the same reconnect/resume machinery, so a chaos soak
//! exercises exactly the code paths a flaky network would.

use std::collections::VecDeque;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use patternlets_core::rng::{Rng, SplitMix64};
use patternlets_core::{Error, Result};
use patternlets_metrics::{CounterId, HistId, MetricsHub};
use patternlets_mp::fabric::WorldSpec;

use crate::chaos::{ChaosAction, NetChaosConn, NetChaosPlan};
use crate::frame::{encode_frame, is_timeout, read_frame, Frame, CRC_MISMATCH, IDLE_TIMEOUT};
use crate::mesh::{Link, Mesh, PeerMesh};
use crate::rendezvous::{self, REGISTER_TIMEOUT};
use crate::ring::SendRing;

/// A peer silent this long (no frame, no ping) while not finished gets a
/// reconnect probe; still silent after the probe, it is declared failed.
/// EOF detection fires far earlier for killed processes; this backstop
/// only matters for half-open connections.
pub const PEER_TIMEOUT: Duration = Duration::from_secs(10);

/// Total time one reconnect cycle may spend redialing (or waiting for
/// the peer to redial) before the peer is declared failed. Short enough
/// that genuine deaths are detected promptly; long enough for several
/// backed-off dial attempts against a peer that is merely mid-hiccup.
pub const RECONNECT_BUDGET: Duration = Duration::from_secs(2);

/// How long each side of a `Resume` handshake waits for the other's
/// frame before abandoning that attempt (the budget may allow retries).
const RESUME_REPLY_TIMEOUT: Duration = Duration::from_millis(500);

/// Read timeout armed on every established peer connection. A peer that
/// goes silent *inside* a frame for this long has stalled: the reader
/// gets a [`MID_FRAME_STALL`](crate::frame::MID_FRAME_STALL) error and
/// enters the ordinary teardown→reconnect path instead of blocking in
/// `read` past the reconnect budget. Timeouts *between* frames are
/// ignored by the reader (an idle link is the heartbeat layer's problem),
/// so this must merely be comfortably above one heartbeat interval,
/// and below [`RECONNECT_BUDGET`] so a stall still leaves dial time.
const MID_FRAME_TIMEOUT: Duration = Duration::from_millis(1000);

/// Poll cadence of the (non-blocking) accept thread that fields
/// reconnect dials.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Most frames one flush pass will hand to a single vectored write.
/// Bounds both the `IoSlice` array and how long one sender can be stuck
/// flushing other senders' traffic.
const MAX_COALESCED: usize = 64;

/// The write side's connection lifecycle. `Down` is transient — a
/// reconnect may bring the link back; `Terminal` is forever (the peer
/// finished or failed, or this fabric is tearing down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    Connected,
    Down,
    Terminal,
}

/// Everything a flusher needs under one lock: the replayable ring of
/// sequenced frames, the fire-and-forget queue of unsequenced ones
/// (heartbeats — regenerated, never replayed), and the flush/connection
/// state.
struct Ring {
    seq: SendRing,
    unseq: VecDeque<Vec<u8>>,
    flushing: bool,
    state: ConnState,
}

/// One peer connection's write side: a combining writer over a
/// *replaceable* socket. A sender enqueues its record and, if nobody is
/// flushing, becomes the flusher — draining the queue in batches of up
/// to [`MAX_COALESCED`] records per vectored write. Records enqueued
/// while a flush is in progress ride along in the flusher's next batch,
/// so under contention many small frames (heartbeats, acks, collective
/// rounds) coalesce into one syscall; an uncontended sender writes
/// immediately, so nothing ever waits on a timer. `set_nodelay(true)`
/// stays on — batching happens here, above the socket, not in Nagle's
/// algorithm.
///
/// Sequenced records outlive the socket: they stay in the [`SendRing`]
/// until acked, and [`PeerWriter::resume`] swaps in a fresh socket and
/// rewinds the ring to the peer's delivery count. While `Down`,
/// sequenced sends accumulate (to be replayed) and unsequenced sends are
/// dropped.
///
/// Lock order: `stream` → `ring` → `breaker`. `breaker` holds a clone of
/// the socket used only for `shutdown`, so a blocked writer can be
/// kicked loose without waiting for its write to return.
struct PeerWriter {
    stream: Mutex<Option<TcpStream>>,
    breaker: Mutex<Option<TcpStream>>,
    ring: Mutex<Ring>,
    /// Seeded per-connection chaos stream, when `--net-chaos` is armed.
    chaos: Option<Mutex<NetChaosConn>>,
    /// `(hub, my lane, peer lane)` when metrics are on: batch sizes and
    /// frame counts go to my lane, bytes to the destination peer's lane.
    metrics: Option<(MetricsHub, usize, usize)>,
}

impl PeerWriter {
    fn new(
        stream: TcpStream,
        metrics: Option<(MetricsHub, usize, usize)>,
        chaos: Option<NetChaosConn>,
    ) -> Self {
        let breaker = stream.try_clone().ok();
        PeerWriter {
            stream: Mutex::new(Some(stream)),
            breaker: Mutex::new(breaker),
            ring: Mutex::new(Ring {
                seq: SendRing::new(),
                unseq: VecDeque::new(),
                flushing: false,
                state: ConnState::Connected,
            }),
            chaos: chaos.map(Mutex::new),
            metrics,
        }
    }

    /// Enqueue one encoded record and make sure it gets flushed. Returns
    /// `false` only when the link is terminal (peer finished/failed or
    /// fabric closing) — a transiently-down link accepts sequenced
    /// records for replay and silently drops unsequenced ones.
    fn send(&self, record: &[u8], sequenced: bool) -> bool {
        {
            let mut ring = self.ring.lock();
            match ring.state {
                ConnState::Terminal => return false,
                ConnState::Down => {
                    if sequenced {
                        ring.seq.push(record.to_vec());
                    }
                    return sequenced;
                }
                ConnState::Connected => {}
            }
            if sequenced {
                ring.seq.push(record.to_vec());
            } else {
                ring.unseq.push_back(record.to_vec());
            }
            if ring.flushing {
                // The active flusher will pick this record up before it
                // retires; nothing more to do here.
                return true;
            }
            ring.flushing = true;
        }
        self.flush_loop();
        true
    }

    /// Drain the ring in batches until empty or the link drops. Caller
    /// must have set `flushing`; this clears it on exit.
    fn flush_loop(&self) {
        loop {
            // Hold the stream from taking a batch until it is written: a
            // resume swaps the socket and rewinds the ring under this same
            // lock, so a batch taken for one connection can never go out on
            // the next one ahead of the replay (the peer would count it as
            // the frames it expects, then drop the real ones as duplicates).
            let mut stream = self.stream.lock();
            let batch: Vec<Vec<u8>> = {
                let mut ring = self.ring.lock();
                if ring.state != ConnState::Connected
                    || (ring.unseq.is_empty() && ring.seq.unsent() == 0)
                {
                    ring.flushing = false;
                    return;
                }
                let mut batch: Vec<Vec<u8>> = Vec::new();
                while batch.len() < MAX_COALESCED {
                    match ring.unseq.pop_front() {
                        Some(r) => batch.push(r),
                        None => break,
                    }
                }
                let room = MAX_COALESCED - batch.len();
                batch.extend(ring.seq.next_batch(room));
                batch
            };
            if !self.write_batch(stream.as_mut(), &batch) {
                drop(stream);
                self.disconnect();
                // Loop back: the state check above clears `flushing`.
            }
        }
    }

    /// Write a batch of records — through the chaos plan when armed —
    /// with vectored writes, advancing across short writes manually
    /// (`write_all_vectored` is not yet stable). `false` drops the
    /// connection (sequenced frames in the batch stay in the ring and
    /// are replayed after resume).
    fn write_batch(&self, stream: Option<&mut TcpStream>, batch: &[Vec<u8>]) -> bool {
        use std::io::Write;
        let Some(stream) = stream else {
            return false;
        };
        if let Some(chaos) = &self.chaos {
            let total: usize = batch.iter().map(|r| r.len()).sum();
            let decision = chaos.lock().decide(total, batch.len());
            if decision.delay_ms > 0 {
                std::thread::sleep(Duration::from_millis(decision.delay_ms));
            }
            match decision.action {
                ChaosAction::Pass => {}
                ChaosAction::Cut => return false,
                ChaosAction::Truncate { bytes } => {
                    let flat: Vec<u8> = batch.concat();
                    let cut = bytes.min(flat.len());
                    let _ = stream.write_all(&flat[..cut]);
                    return false;
                }
                ChaosAction::Corrupt { byte, bit } => {
                    // Damage a copy; the ring keeps the clean original
                    // for the post-CRC-reject replay.
                    let mut flat: Vec<u8> = batch.concat();
                    if let Some(b) = flat.get_mut(byte) {
                        *b ^= 1 << bit;
                    }
                    let ok = stream.write_all(&flat).is_ok();
                    if ok {
                        self.record_batch(batch);
                    }
                    return ok;
                }
            }
        }
        if !Self::write_batch_vectored(stream, batch) {
            return false;
        }
        self.record_batch(batch);
        true
    }

    fn write_batch_vectored(stream: &mut TcpStream, batch: &[Vec<u8>]) -> bool {
        use std::io::{ErrorKind, IoSlice, Write};
        let mut idx = 0; // first record not fully written
        let mut off = 0; // bytes of batch[idx] already written
        while idx < batch.len() {
            let mut slices = Vec::with_capacity(batch.len() - idx);
            slices.push(IoSlice::new(&batch[idx][off..]));
            for record in &batch[idx + 1..] {
                slices.push(IoSlice::new(record));
            }
            let mut n = match stream.write_vectored(&slices) {
                Ok(0) => return false,
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            };
            while n > 0 {
                let remaining = batch[idx].len() - off;
                if n >= remaining {
                    n -= remaining;
                    idx += 1;
                    off = 0;
                } else {
                    off += n;
                    n = 0;
                }
            }
        }
        true
    }

    fn record_batch(&self, batch: &[Vec<u8>]) {
        if let Some((hub, me, peer)) = &self.metrics {
            hub.observe(*me, HistId::WRITEV_BATCH_FRAMES, batch.len() as u64);
            hub.add(*me, CounterId::NetFramesSent, batch.len() as u64);
            let bytes: u64 = batch.iter().map(|r| r.len() as u64).sum();
            hub.add(*peer, CounterId::NetBytesToPeer, bytes);
        }
    }

    /// Acknowledge delivery: drop retained frames below `seen` (carried
    /// by the peer's `Ping`).
    fn ack(&self, seen: u64) {
        self.ring.lock().seq.ack(seen);
    }

    /// Unacknowledged sequenced frames still retained.
    fn retained(&self) -> usize {
        self.ring.lock().seq.retained()
    }

    /// Drop the current socket and mark the link down (unless already
    /// terminal). Safe from any thread: the breaker clone shuts the
    /// socket down without waiting for an in-flight write, which then
    /// errors out and releases the stream lock.
    fn disconnect(&self) {
        {
            let mut ring = self.ring.lock();
            if ring.state == ConnState::Connected {
                ring.state = ConnState::Down;
            }
            ring.unseq.clear();
        }
        if let Some(s) = self.breaker.lock().take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        *self.stream.lock() = None;
    }

    /// Install a fresh socket and rewind the ring to the peer's delivery
    /// count; returns how many retained frames will be replayed. The
    /// frames go out with the next flush (a heartbeat at the latest), so
    /// the calling reader thread never blocks on a socket write here.
    fn resume(&self, stream: TcpStream, peer_recv: u64) -> Result<u64> {
        let mut current = self.stream.lock();
        let mut ring = self.ring.lock();
        if ring.state == ConnState::Terminal {
            return Err(Error::Codec("peer link already terminal".into()));
        }
        let replayed = ring.seq.resume(peer_recv)?;
        *self.breaker.lock() = stream.try_clone().ok();
        *current = Some(stream);
        ring.state = ConnState::Connected;
        Ok(replayed)
    }

    /// Permanently stop writing (peer finished/failed, or `sever`). With
    /// `cut`, the socket is shut down both ways; without, it is left for
    /// `half_close` to handle.
    fn terminal(&self, cut: bool) {
        {
            let mut ring = self.ring.lock();
            ring.state = ConnState::Terminal;
            ring.unseq.clear();
        }
        if cut {
            if let Some(s) = self.breaker.lock().take() {
                let _ = s.shutdown(Shutdown::Both);
            }
            *self.stream.lock() = None;
        }
    }

    /// Half-close for teardown: peers read our `Finish`, then a clean
    /// EOF. No further writes.
    fn half_close(&self) {
        {
            let mut ring = self.ring.lock();
            ring.state = ConnState::Terminal;
            ring.unseq.clear();
        }
        if let Some(s) = &*self.breaker.lock() {
            let _ = s.shutdown(Shutdown::Write);
        }
    }
}

/// A redial fielded by the accept thread, parked until the peer's reader
/// thread adopts it: the fresh socket plus the recv count the dialer
/// reported in its `Resume`.
struct PendingResume {
    stream: TcpStream,
    their_recv: u64,
}

/// The TCP side of a [`PeerMesh`]: one combining writer per peer over a
/// replaceable socket, the listener that fields redials, and the
/// clock-probe reply slot.
pub struct TcpLink {
    /// Rendezvous address table, kept for redials.
    addrs: Vec<String>,
    /// This rank's listener, kept open for redials (serviced by the
    /// accept thread).
    listener: TcpListener,
    /// Write sides, indexed by peer world rank (`None` at `me`).
    writers: Vec<Option<PeerWriter>>,
    /// Per-peer handoff slot for redialed connections (accept thread
    /// produces, the peer's reader thread consumes).
    pending: Mutex<Vec<Option<PendingResume>>>,
    pending_cv: Condvar,
    /// Clock-probe replies from rank 0 land here (a reader thread
    /// produces, the establish-time offset estimator consumes; see
    /// [`Mesh::estimate_clock_offset`]).
    clock_reply: Mutex<Option<(u64, u64)>>,
    clock_cv: Condvar,
}

impl Link for TcpLink {
    const PEER_TIMEOUT: Duration = PEER_TIMEOUT;
    const ESTABLISH_GRACE: Duration = PEER_TIMEOUT;

    fn write(&self, _mesh: &Mesh<Self>, peer: usize, record: &[u8], sequenced: bool) -> bool {
        match &self.writers[peer] {
            Some(writer) => writer.send(record, sequenced),
            None => true,
        }
    }

    fn unacked(&self, peer: usize) -> usize {
        self.writers[peer].as_ref().map_or(0, PeerWriter::retained)
    }

    fn close(&self, _mesh: &Mesh<Self>) {
        // Half-close every connection: peers read our Finish, then a
        // clean EOF, and their reader threads wind down; ours exit when
        // the peers do the same. No sockets or threads outlive the world.
        for writer in self.writers.iter().flatten() {
            writer.half_close();
        }
    }

    fn cut(&self, peer: usize) {
        if let Some(writer) = &self.writers[peer] {
            writer.terminal(true);
        }
    }

    fn probe(&self, peer: usize) -> bool {
        // Cut the (possibly half-open) connection so the reader runs a
        // reconnect round-trip.
        if let Some(writer) = &self.writers[peer] {
            writer.disconnect();
        }
        true
    }

    fn control(&self, mesh: &Mesh<Self>, peer: usize, frame: Frame) {
        match frame {
            Frame::Ping { seen } => {
                // The peer's delivery count: prune the send ring.
                if let Some(writer) = &self.writers[peer] {
                    writer.ack(seen);
                }
            }
            Frame::ClockProbe { t0 } => {
                // Answer with our wall clock; the prober turns the echo
                // into an RTT-midpoint offset estimate.
                let reply = encode_frame(&Frame::ClockReply {
                    t0,
                    server_ns: unix_now_ns(),
                });
                self.write(mesh, peer, &reply, false);
            }
            Frame::ClockReply { t0, server_ns } => {
                *self.clock_reply.lock() = Some((t0, server_ns));
                self.clock_cv.notify_all();
            }
            // Hello and Resume are consumed by the handshakes themselves;
            // anything else has no business on a peer connection.
            _ => {}
        }
    }
}

impl Mesh<TcpLink> {
    /// Estimate this process's wall-clock offset to rank 0 — rank 0's
    /// clock minus ours, in nanoseconds — by RTT-midpoint probing over
    /// the freshly established peer link. Each probe yields
    /// `offset = s − (t0+t1)/2`; the sample with the smallest round trip
    /// wins, since its midpoint error is bounded by that round trip's
    /// asymmetry. Returns 0 when no probe completes (rank 0's reply is
    /// then just absent and the traces fall back to unaligned merging).
    fn estimate_clock_offset(&self) -> i64 {
        const PROBES: usize = 8;
        const REPLY_TIMEOUT: Duration = Duration::from_millis(100);
        let mut best: Option<(u64, i64)> = None; // (rtt_ns, offset_ns)
        for _ in 0..PROBES {
            let t0 = unix_now_ns();
            let probe = encode_frame(&Frame::ClockProbe { t0 });
            if !self.link.write(self, 0, &probe, false) {
                break;
            }
            let deadline = Instant::now() + REPLY_TIMEOUT;
            let mut slot = self.link.clock_reply.lock();
            let reply = loop {
                match slot.take() {
                    Some((echo, s)) if echo == t0 => break Some(s),
                    // A stale reply to an expired probe: discard, keep
                    // waiting for ours.
                    Some(_) => continue,
                    None => {}
                }
                let timeout = deadline.saturating_duration_since(Instant::now());
                if timeout.is_zero() {
                    break None;
                }
                self.link.clock_cv.wait_for(&mut slot, timeout);
            };
            drop(slot);
            let Some(s) = reply else { continue };
            let t1 = unix_now_ns();
            let rtt = t1.saturating_sub(t0);
            let offset = s as i64 - t0.midpoint(t1) as i64;
            if best.is_none_or(|(r, _)| rtt < r) {
                best = Some((rtt, offset));
            }
        }
        best.map_or(0, |(_, o)| o)
    }

    /// One peer link's read side, across reconnects: drain frames until
    /// the stream dies, then try to re-establish it; only when that
    /// fails (budget exhausted, or teardown) does the loop end, with a
    /// failure verdict iff the peer neither finished nor are we closing.
    fn reader_cycle(&self, peer: usize, mut stream: TcpStream) {
        loop {
            loop {
                match read_frame(&mut stream) {
                    Ok(Some(frame)) => self.handle_frame(peer, frame),
                    Ok(None) => break,
                    Err(e) => {
                        let msg = e.to_string();
                        // A timeout with no frame underway is just an idle
                        // link; keep reading (heartbeats own liveness). A
                        // mid-frame stall or CRC reject falls through to
                        // the teardown→reconnect path below.
                        if msg.contains(IDLE_TIMEOUT) {
                            if self.closing.load(Ordering::SeqCst) {
                                break;
                            }
                            continue;
                        }
                        if msg.contains(CRC_MISMATCH) {
                            if let Some(hub) = &self.obs.metrics {
                                hub.incr(self.me, CounterId::NetCrcRejects);
                            }
                        }
                        break;
                    }
                }
            }
            // The stream is dead (EOF, read error, or corrupt frame).
            // Sync the write side before deciding what comes next.
            if let Some(writer) = &self.link.writers[peer] {
                writer.disconnect();
            }
            if self.closing.load(Ordering::SeqCst)
                || self.finished[peer].load(Ordering::SeqCst)
                || self.failed[peer].load(Ordering::SeqCst)
            {
                return;
            }
            let next = if self.me > peer {
                self.reconnect_dial(peer)
            } else {
                self.reconnect_accept(peer)
            };
            match next {
                Some(fresh) => stream = fresh,
                None => {
                    if !self.finished[peer].load(Ordering::SeqCst)
                        && !self.closing.load(Ordering::SeqCst)
                    {
                        self.note_failed(peer);
                    }
                    return;
                }
            }
        }
    }

    /// Dial side of a reconnect (this rank outranks the peer): redial
    /// the peer's listener with exponential backoff + deterministic
    /// jitter until the handshake lands or the budget runs out.
    fn reconnect_dial(&self, peer: usize) -> Option<TcpStream> {
        let deadline = Instant::now() + RECONNECT_BUDGET;
        let mut jitter = SplitMix64::new((self.me as u64) << 32 ^ (peer as u64) << 16 ^ self.epoch);
        let mut attempt = 0u32;
        loop {
            if self.closing.load(Ordering::SeqCst)
                || self.failed[peer].load(Ordering::SeqCst)
                || self.finished[peer].load(Ordering::SeqCst)
            {
                return None;
            }
            if let Some(stream) = self.try_dial(peer, attempt) {
                return Some(stream);
            }
            let backoff = Duration::from_millis(5u64 << attempt.min(6));
            let spread = backoff.as_micros().max(2) as u64 / 2;
            let sleep = backoff + Duration::from_micros(jitter.gen_range(spread));
            if Instant::now() + sleep >= deadline {
                return None;
            }
            std::thread::sleep(sleep);
            attempt += 1;
        }
    }

    fn try_dial(&self, peer: usize, attempt: u32) -> Option<TcpStream> {
        let mut stream = TcpStream::connect(crate::shm::tcp_part(&self.link.addrs[peer])).ok()?;
        stream.set_read_timeout(Some(RESUME_REPLY_TIMEOUT)).ok()?;
        crate::frame::write_frame(
            &mut stream,
            &Frame::Resume {
                epoch: self.epoch,
                rank: self.me as u64,
                recv_seq: self.recv_seq[peer].load(Ordering::SeqCst),
            },
        )
        .ok()?;
        match read_frame(&mut stream) {
            Ok(Some(Frame::Resume {
                epoch,
                rank,
                recv_seq: theirs,
            })) if epoch == self.epoch && rank as usize == peer => {
                stream.set_read_timeout(Some(MID_FRAME_TIMEOUT)).ok()?;
                let _ = stream.set_nodelay(true);
                self.adopt(peer, stream, theirs, attempt)
            }
            _ => None,
        }
    }

    /// Accept side of a reconnect (the peer outranks this rank): wait
    /// for the accept thread to hand over a redialed connection.
    fn reconnect_accept(&self, peer: usize) -> Option<TcpStream> {
        let deadline = Instant::now() + RECONNECT_BUDGET;
        loop {
            if self.closing.load(Ordering::SeqCst)
                || self.failed[peer].load(Ordering::SeqCst)
                || self.finished[peer].load(Ordering::SeqCst)
            {
                return None;
            }
            let slot = self.link.pending.lock()[peer].take();
            if let Some(PendingResume {
                mut stream,
                their_recv,
            }) = slot
            {
                // Reply with our count *before* installing the write
                // side, so our Resume is the first frame on the wire and
                // the dialer's handshake read sees exactly it.
                let replied = crate::frame::write_frame(
                    &mut stream,
                    &Frame::Resume {
                        epoch: self.epoch,
                        rank: self.me as u64,
                        recv_seq: self.recv_seq[peer].load(Ordering::SeqCst),
                    },
                )
                .is_ok();
                if replied {
                    let _ = stream.set_nodelay(true);
                    if let Some(adopted) = self.adopt(peer, stream, their_recv, 0) {
                        return Some(adopted);
                    }
                }
                // Stale or broken redial; keep waiting for another.
            } else {
                let now = Instant::now();
                if now >= deadline {
                    return None;
                }
                let wait = (deadline - now).min(Duration::from_millis(50));
                let mut pending = self.link.pending.lock();
                if pending[peer].is_none() {
                    self.link.pending_cv.wait_for(&mut pending, wait);
                }
            }
            if Instant::now() >= deadline {
                return None;
            }
        }
    }

    /// Common tail of both reconnect sides: rewind the send ring to the
    /// peer's count, install the fresh socket, and meter the recovery.
    fn adopt(
        &self,
        peer: usize,
        stream: TcpStream,
        their_recv: u64,
        attempt: u32,
    ) -> Option<TcpStream> {
        let writer = self.link.writers[peer].as_ref()?;
        let write_half = stream.try_clone().ok()?;
        let replayed = writer.resume(write_half, their_recv).ok()?;
        self.probed[peer].store(false, Ordering::Relaxed);
        self.last_heard[peer].store(self.elapsed_ms(), Ordering::Relaxed);
        self.obs.link_resume(self.me, attempt, replayed);
        Some(stream)
    }

    /// Field redials: accept, read the dialer's `Resume`, and park the
    /// connection for the matching reader thread to adopt. Non-blocking
    /// accept with a poll keeps teardown prompt.
    fn accept_loop(&self) {
        let _ = self.link.listener.set_nonblocking(true);
        loop {
            if self.closing.load(Ordering::SeqCst) {
                return;
            }
            match self.link.listener.accept() {
                Ok((mut stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_read_timeout(Some(RESUME_REPLY_TIMEOUT));
                    match read_frame(&mut stream) {
                        Ok(Some(Frame::Resume {
                            epoch,
                            rank,
                            recv_seq,
                        })) if epoch == self.epoch
                            && (rank as usize) > self.me
                            && (rank as usize) < self.np =>
                        {
                            let _ = stream.set_read_timeout(Some(MID_FRAME_TIMEOUT));
                            let peer = rank as usize;
                            let mut pending = self.link.pending.lock();
                            // A newer redial supersedes a stale one.
                            pending[peer] = Some(PendingResume {
                                stream,
                                their_recv: recv_seq,
                            });
                            self.link.pending_cv.notify_all();
                        }
                        // Anything else (wrong epoch, garbage, a timed-out
                        // probe) is dropped on the floor.
                        _ => {}
                    }
                }
                Err(_) => std::thread::sleep(ACCEPT_POLL),
            }
        }
    }
}

/// Accept one connection, and its `Hello`, from every rank above `me`.
/// Each `accept` and each `Hello` read gives up after `timeout`: a
/// registered peer that died before dialing (or right after) is an
/// `Err`, not a hang. The bound costs no poll: it is the listener's
/// `SO_RCVTIMEO` and the accepted stream's read timeout (which the
/// caller replaces once the mesh is up).
fn accept_higher_ranks(
    listener: &TcpListener,
    me: usize,
    epoch: u64,
    timeout: Duration,
    streams: &mut [Option<TcpStream>],
) -> Result<()> {
    let np = streams.len();
    if me + 1 < np {
        set_accept_timeout(listener, timeout)
            .map_err(|e| Error::Codec(format!("arm accept timeout: {e}")))?;
    }
    for _ in me + 1..np {
        let (mut stream, _) = listener.accept().map_err(|e| {
            Error::Codec(if is_timeout(&e) {
                format!("accept peer: no peer dialed within {timeout:?}")
            } else {
                format!("accept peer: {e}")
            })
        })?;
        // A connection queued before the listener was armed did not
        // inherit its timeout: arm the stream itself.
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| Error::Codec(format!("arm Hello timeout: {e}")))?;
        match read_frame(&mut stream)? {
            Some(Frame::Hello { epoch: e, rank }) if e == epoch => {
                let rank = rank as usize;
                if rank <= me || rank >= np || streams[rank].is_some() {
                    return Err(Error::Codec(format!("bad handshake from rank {rank}")));
                }
                streams[rank] = Some(stream);
            }
            other => {
                return Err(Error::Codec(format!(
                    "expected Hello for epoch {epoch}, got {other:?}"
                )));
            }
        }
    }
    Ok(())
}

/// Set `SO_RCVTIMEO` on a listening socket, which bounds a blocking
/// `accept` (it then fails with `WouldBlock`). The standard library has
/// no setter for listeners, so this declares `setsockopt(2)` directly
/// (std already links libc), as `patternlets_core::signals` does for
/// `signal(2)`.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn set_accept_timeout(listener: &TcpListener, timeout: Duration) -> std::io::Result<()> {
    use std::ffi::{c_int, c_long, c_void};
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct Timeval {
        tv_sec: c_long,
        tv_usec: c_long,
    }
    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
    }
    const SOL_SOCKET: c_int = 1;
    const SO_RCVTIMEO: c_int = 20;

    // A zero timeval means "no timeout": round up to a microsecond.
    let micros = timeout.as_micros().max(1);
    let tv = Timeval {
        tv_sec: (micros / 1_000_000) as c_long,
        tv_usec: (micros % 1_000_000) as c_long,
    };
    // SAFETY: `setsockopt` reads `len` bytes from `value`, which points
    // at a live, properly laid out `timeval` on this stack frame; the fd
    // is open for as long as `listener` is borrowed.
    let rc = unsafe {
        setsockopt(
            listener.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVTIMEO,
            (&tv as *const Timeval).cast(),
            std::mem::size_of::<Timeval>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Elsewhere `accept` stays unbounded.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn set_accept_timeout(_listener: &TcpListener, _timeout: Duration) -> std::io::Result<()> {
    Ok(())
}

/// Wall clock as Unix nanoseconds (0 on a pre-epoch clock).
fn unix_now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// One process's handle on a TCP-meshed world: the [`PeerMesh`] over
/// [`TcpLink`]s.
pub type TcpFabric = PeerMesh<TcpLink>;

impl PeerMesh<TcpLink> {
    /// Join world `spec` as rank `me`: bind a listener, rendezvous through
    /// `server`, and establish the peer mesh. Blocks until every
    /// participating rank is connected.
    pub fn establish(server: &str, me: usize, spec: &WorldSpec) -> Result<TcpFabric> {
        Self::establish_with_chaos(server, me, spec, None)
    }

    /// [`establish`](Self::establish), with an optional wire-chaos plan
    /// whose per-connection streams damage this rank's outgoing batches.
    pub fn establish_with_chaos(
        server: &str,
        me: usize,
        spec: &WorldSpec,
        chaos: Option<NetChaosPlan>,
    ) -> Result<TcpFabric> {
        let sock_err = |what: &str| {
            let what = what.to_string();
            move |e: std::io::Error| Error::Codec(format!("{what}: {e}"))
        };
        let listener = TcpListener::bind("127.0.0.1:0").map_err(sock_err("bind listener"))?;
        let my_addr = listener
            .local_addr()
            .map_err(sock_err("listener address"))?
            .to_string();
        let table = rendezvous::register(server, spec.epoch, me, spec.np, &my_addr)?;
        Self::from_table(listener, table, me, spec, chaos)
    }

    /// Build the peer mesh from an already-released rendezvous table (the
    /// shm provider registers once — with a `#shm:` advertisement — and
    /// hands the table here when the world turns out not to be
    /// co-located; the suffix is stripped before dialing).
    pub fn from_table(
        listener: TcpListener,
        table: Vec<String>,
        me: usize,
        spec: &WorldSpec,
        chaos: Option<NetChaosPlan>,
    ) -> Result<TcpFabric> {
        let np = spec.np;
        let sock_err = |what: &str| {
            let what = what.to_string();
            move |e: std::io::Error| Error::Codec(format!("{what}: {e}"))
        };

        // One connection per peer: dial every lower rank, accept every
        // higher one. Dials can't race the listeners — every rank bound
        // its listener before registering, and the table only exists once
        // everyone registered.
        let mut streams: Vec<Option<TcpStream>> = (0..np).map(|_| None).collect();
        for (peer, addr) in table.iter().enumerate().take(me) {
            let addr = crate::shm::tcp_part(addr);
            let mut stream = TcpStream::connect(addr)
                .map_err(sock_err(&format!("dial rank {peer} at {addr}")))?;
            crate::frame::write_frame(
                &mut stream,
                &Frame::Hello {
                    epoch: spec.epoch,
                    rank: me as u64,
                },
            )
            .map_err(sock_err(&format!("handshake with rank {peer}")))?;
            streams[peer] = Some(stream);
        }
        accept_higher_ranks(&listener, me, spec.epoch, REGISTER_TIMEOUT, &mut streams)?;
        for stream in streams.iter().flatten() {
            let _ = stream.set_nodelay(true);
            // Bound mid-frame reads: a peer that stalls inside a record
            // must hand the reader back to the reconnect machinery, not
            // pin it in `read` forever.
            let _ = stream.set_read_timeout(Some(MID_FRAME_TIMEOUT));
        }

        let read_halves: Vec<Option<TcpStream>> = streams
            .iter()
            .map(|s| {
                s.as_ref()
                    .map(|s| s.try_clone().expect("clone established stream"))
            })
            .collect();
        let link = TcpLink {
            addrs: table,
            listener,
            writers: streams
                .into_iter()
                .enumerate()
                .map(|(peer, s)| {
                    s.map(|s| {
                        PeerWriter::new(
                            s,
                            spec.metrics.clone().map(|hub| (hub, me, peer)),
                            chaos.map(|plan| plan.connection(me as u64, peer as u64)),
                        )
                    })
                })
                .collect(),
            pending: Mutex::new((0..np).map(|_| None).collect()),
            pending_cv: Condvar::new(),
            clock_reply: Mutex::new(None),
            clock_cv: Condvar::new(),
        };
        let mesh = PeerMesh::new(me, spec, link)?;
        for (peer, stream) in read_halves.into_iter().enumerate() {
            let Some(stream) = stream else { continue };
            mesh.spawn(format!("net-reader-{peer}"), move |mesh| {
                mesh.reader_cycle(peer, stream)
            })?;
        }
        mesh.spawn("net-accept".into(), |mesh| mesh.accept_loop())?;
        // With tracing on, non-zero ranks estimate their wall-clock
        // offset to rank 0 over the fresh mesh (rank 0's reader answers
        // probes), so per-rank trace exports can carry an aligned
        // timebase anchor. Untraced worlds skip the probe round trips.
        if spec.tracer.is_some() && me != 0 && np > 1 {
            crate::set_clock_offset_ns(mesh.inner.estimate_clock_offset());
        }
        mesh.start_gate(spec);
        Ok(mesh)
    }

    /// Cut the connection to one peer *without* giving up on it — a
    /// transient network fault. Both sides' readers see the socket die
    /// and run the reconnect/resume protocol; queued sequenced frames
    /// are replayed. Test/diagnostic aid.
    pub fn disrupt(&self, peer: usize) {
        if let Some(writer) = &self.inner.link.writers[peer] {
            writer.disconnect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::tests::{env, recv_one, tcp_mesh_with};
    use patternlets_mp::Fabric;
    use std::sync::Arc;

    /// Run `accept_higher_ranks` as rank 0 of a two-rank world on its
    /// own thread; `None` if it is still blocked after ten seconds.
    fn accept_rank_1(listener: TcpListener, bound: Duration) -> Option<Result<()>> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut streams = vec![None, None];
            let _ = tx.send(accept_higher_ranks(&listener, 0, 0, bound, &mut streams));
        });
        rx.recv_timeout(Duration::from_secs(10)).ok()
    }

    /// A registered peer that is killed before it dials, or after it
    /// dialed but before its `Hello`, fails establishment within the
    /// bound instead of blocking it forever.
    #[test]
    #[cfg_attr(
        not(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )),
        ignore = "accept is bounded only where set_accept_timeout is implemented"
    )]
    fn establishment_gives_up_on_a_peer_that_never_dials_or_greets() {
        let bound = Duration::from_millis(300);
        let never_dials = TcpListener::bind("127.0.0.1:0").unwrap();
        let err = accept_rank_1(never_dials, bound)
            .expect("accept returned")
            .unwrap_err();
        assert!(err.to_string().contains("no peer dialed"), "{err}");

        let never_greets = TcpListener::bind("127.0.0.1:0").unwrap();
        let _silent = TcpStream::connect(never_greets.local_addr().unwrap()).unwrap();
        let err = accept_rank_1(never_greets, bound)
            .expect("Hello read returned")
            .unwrap_err();
        assert!(err.to_string().contains(IDLE_TIMEOUT), "{err}");
    }

    #[test]
    fn establishment_accepts_a_peer_that_greets() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        crate::frame::write_frame(&mut peer, &Frame::Hello { epoch: 0, rank: 1 }).unwrap();
        let got = accept_rank_1(listener, Duration::from_secs(5)).expect("accept returned");
        assert!(got.is_ok(), "{got:?}");
    }

    #[test]
    fn abrupt_disconnect_marks_the_peer_failed() {
        let fabrics = tcp_mesh_with(3, None, false);
        fabrics[0].sever();
        // Reconnect attempts run their budget out first, then the
        // verdict lands; the deadline leaves room for both.
        let deadline = Instant::now() + Duration::from_secs(8);
        for survivor in [1, 2] {
            while !fabrics[survivor].rank_failed(0) {
                assert!(Instant::now() < deadline, "EOF verdict never arrived");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        assert!(!fabrics[1].rank_failed(2), "survivors stay unfailed");
        for me in [1, 2] {
            fabrics[me].finish(me);
        }
    }

    /// A transient connection cut is invisible to the application: the
    /// frames queued across the cut are replayed on resume, in order,
    /// exactly once, and the reconnect shows up in the metrics.
    #[test]
    fn connection_cut_resumes_without_loss_or_duplication() {
        let fabrics = tcp_mesh_with(2, None, true);
        for seq in 0..5u64 {
            fabrics[0].deliver(0, 1, env(0, 0, 7, seq), 0, false);
        }
        // Cut the 0↔1 socket out from under both sides.
        fabrics[0].disrupt(1);
        for seq in 5..10u64 {
            fabrics[0].deliver(0, 1, env(0, 0, 7, seq), 0, false);
        }
        // Every message arrives, in order, exactly once.
        for want_seq in 0..10u64 {
            let got = recv_one(&*fabrics[1], 1, 0, 7);
            assert_eq!(got.seq, want_seq, "sequence intact across the cut");
        }
        assert!(fabrics[1].mailbox(1).is_empty(), "no duplicates surfaced");
        // At least one side metered the reconnect.
        let reconnects: u64 = fabrics
            .iter()
            .map(|f| {
                f.inner
                    .obs
                    .metrics
                    .as_ref()
                    .unwrap()
                    .snapshot()
                    .total(CounterId::NetReconnects)
            })
            .sum();
        assert!(reconnects >= 1, "the cut produced a metered reconnect");
        assert!(!fabrics[0].rank_failed(1), "a resumed cut is not a failure");
        assert!(!fabrics[1].rank_failed(0), "a resumed cut is not a failure");
        for (me, f) in fabrics.iter().enumerate() {
            f.finish(me);
        }
    }

    /// Regression: a batch the flusher took for one connection must never
    /// go out on the next. A resume landing while the flusher slept in a
    /// chaos delay let the stale batch reach the fresh socket ahead of the
    /// replay; the peer counted it as the frames it was owed, its resume
    /// counts drifted, and the wire chaos soak lost a message for good.
    #[test]
    fn a_batch_taken_before_a_resume_never_reaches_the_new_socket() {
        let pair = || {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            (near, listener.accept().unwrap().0)
        };
        // Delays only, the first one long enough to resume inside it.
        let plan = (0..)
            .map(|seed| NetChaosPlan {
                cut_after: u64::MAX,
                delay_up_to_ms: 200,
                ..NetChaosPlan::seeded(seed)
            })
            .find(|plan| plan.connection(0, 1).decide(0, 1).delay_ms >= 100)
            .unwrap();
        let (old_near, _old_far) = pair();
        let (new_near, mut new_far) = pair();
        let writer = Arc::new(PeerWriter::new(old_near, None, Some(plan.connection(0, 1))));
        let flusher = {
            let writer = Arc::clone(&writer);
            std::thread::spawn(move || writer.send(&encode_frame(&Frame::Finish { rank: 7 }), true))
        };
        std::thread::sleep(Duration::from_millis(50));
        // The peer redials having delivered nothing: frame 0 is owed once.
        writer.disconnect();
        writer.resume(new_near, 0).unwrap();
        assert!(flusher.join().unwrap());
        writer.send(&encode_frame(&Frame::Finish { rank: 8 }), true);
        new_far
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut ranks = Vec::new();
        while ranks.last() != Some(&8) {
            match read_frame(&mut new_far).unwrap() {
                Some(Frame::Finish { rank }) => ranks.push(rank),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(ranks, [7, 8], "replayed once, in order");
    }

    /// Regression: a peer that stalls *mid-frame* (header written, body
    /// never arrives, socket held open) must hand the reader back within
    /// the mid-frame timeout — not pin it in `read` past the reconnect
    /// budget, which is what an unbounded `read_exact` did.
    #[test]
    fn stalled_mid_frame_peer_frees_the_reader_within_budget() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let record = encode_frame(&Frame::Ping { seen: 1 });
            // Header plus two body bytes, then silence with the socket
            // open — the shape of a wedged peer, not a dead one.
            use std::io::Write;
            stream.write_all(&record[..10]).unwrap();
            std::thread::sleep(MID_FRAME_TIMEOUT + Duration::from_millis(500));
            stream
        });
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(MID_FRAME_TIMEOUT)).unwrap();
        let started = Instant::now();
        let err = read_frame(&mut stream).unwrap_err();
        let waited = started.elapsed();
        assert!(
            err.to_string().contains(crate::frame::MID_FRAME_STALL),
            "stall verdict, got: {err}"
        );
        assert!(
            waited < RECONNECT_BUDGET,
            "reader freed within the reconnect budget, took {waited:?}"
        );
        drop(writer.join().unwrap());
    }

    /// Under a seeded chaos plan that cuts, truncates and corrupts
    /// batches, a message stream still arrives complete and ordered —
    /// the CRC catches damage and the resume protocol replays losses.
    #[test]
    fn chaotic_wire_still_delivers_everything_in_order() {
        let mut plan = NetChaosPlan::seeded(0xC0FFEE);
        plan.cut_after = 3;
        plan.cut_prob = 0.25;
        plan.truncate_prob = 0.1;
        plan.corrupt_prob = 0.1;
        plan.delay_up_to_ms = 1;
        let fabrics = tcp_mesh_with(2, Some(plan), true);
        const N: u64 = 60;
        let sender = {
            let f = Arc::clone(&fabrics[0]);
            std::thread::spawn(move || {
                for seq in 0..N {
                    f.deliver(0, 1, env(0, 0, 11, seq), 0, false);
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };
        for want_seq in 0..N {
            let got = recv_one(&*fabrics[1], 1, 0, 11);
            assert_eq!(got.seq, want_seq, "chaos must not reorder or drop");
        }
        sender.join().unwrap();
        let total = |id: CounterId| -> u64 {
            fabrics
                .iter()
                .map(|f| f.inner.obs.metrics.as_ref().unwrap().snapshot().total(id))
                .sum()
        };
        assert!(
            total(CounterId::NetReconnects) >= 1,
            "the chaos plan produced at least one reconnect"
        );
        assert!(
            total(CounterId::NetFramesReplayed) >= 1,
            "cut batches were replayed from the ring"
        );
        assert!(
            !fabrics[1].rank_failed(0),
            "chaos never escalated to failure"
        );
        for (me, f) in fabrics.iter().enumerate() {
            f.finish(me);
        }
    }
}
