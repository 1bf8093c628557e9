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
//! ## Receiver-driven progress
//!
//! No thread stands between a socket and its rank. The sockets are
//! non-blocking, and the rank drains them itself, as it drains its rings
//! on shared memory: whichever of its threads would otherwise wait — a
//! blocked receive or a probe (the mailbox's progress hook), an
//! agreement, `finish`'s wait for acks, the traced clock-offset probe, a
//! write into a full socket — reads what each peer's socket holds into
//! that peer's [`StreamFrames`] buffer and dispatches every complete
//! record, decoded in place. Each peer's read side sits behind a try-lock,
//! so one thread reads it at a time and a busy one is skipped. Between
//! drains a waiter parks in `poll(2)` on the peer sockets for at most
//! `POLL_PARK`, with no spin or yield first, since every drain is a
//! syscall; a write that hits `WouldBlock` drains and then polls for
//! `POLLOUT` too, so two ranks writing into each other's full buffers both
//! progress. The heartbeat tick drains as the backstop while the rank
//! computes. A rank runs two threads, as a shm rank does: its own and
//! `mesh-heartbeat`. Nothing waits on the listener between redials.
//!
//! ## Self-healing connections
//!
//! A lost connection is not a lost peer. Every *sequenced* frame (see
//! [`Frame::is_sequenced`]) is retained in a per-peer [`SendRing`] until
//! the peer acknowledges it — acks piggyback on the heartbeat as
//! `Ping { seen }` — and each end counts the sequenced frames it has
//! delivered. When a drain finds a socket dead (EOF, read error, a frame
//! whose CRC doesn't check out, or a record stalled mid-way for
//! `MID_FRAME_TIMEOUT`), a short-lived `net-redial-{peer}` thread (at
//! most one per peer) re-establishes it: the higher-ranked side redials
//! the lower side's listener with exponential backoff, the lower side's
//! redial thread accepts on it for itself, and both exchange `Resume`
//! frames carrying those delivery counts; both send rings rewind
//! to the peer's count and replay the unacknowledged tail. The counts are
//! exact, so resumption is exactly-once by construction — no frame is lost
//! (the ring still holds it) and none is duplicated (nothing below the
//! peer's count is resent); the mailbox's sequence dedup stands behind it
//! as a second line of defense. Only when the reconnect budget
//! ([`RECONNECT_BUDGET`]) is exhausted does the verdict escalate to
//! [`Error::RankFailed`]. A record
//! that arrives intact and is refused — a body that does not decode, or a
//! frame the mesh will not take — is no lost connection: a resume would
//! replay it, so it fails the peer at once, as it does on a ring.
//!
//! ## Liveness
//!
//! EOF without a `Finish` enters the reconnect cycle above. The
//! [`PeerMesh`] heartbeat backstops half-open connections: a peer silent
//! past [`PEER_TIMEOUT`] gets a *probe* — its connection is cut, forcing
//! a reconnect round-trip — and is declared failed only if still silent
//! after that. A verdict reached by another thread reaches a waiter
//! parked in `poll` within one `POLL_PARK`: no bytes announce it.
//!
//! ## Wire chaos
//!
//! With a [`NetChaosPlan`] armed (`pmrun --net-chaos SEED`), every
//! outgoing batch passes a seeded per-connection chaos stream that may
//! cut the connection before the write, truncate the write mid-frame, or
//! flip one bit (which the frame CRC catches on the far side). All three
//! funnel into the same reconnect/resume machinery, so a chaos soak
//! exercises exactly the code paths a flaky network would.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use patternlets_core::rng::{Rng, SplitMix64};
use patternlets_core::spsc::{Park, Pieces};
use patternlets_core::{Error, Result};
use patternlets_metrics::{CounterId, HistId, MetricsHub};
use patternlets_mp::fabric::WorldSpec;

use crate::chaos::{ChaosAction, NetChaosConn, NetChaosPlan};
use crate::frame::{decode_body, encode_frame, read_frame, Frame, StreamFrames, MID_FRAME_STALL};
use crate::mesh::{Link, Mesh, PeerMesh};
use crate::rendezvous::{self, REGISTER_TIMEOUT};
use crate::ring::{flatten, SendRing, SharedRecord};

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

/// A record that stops arriving part-way for this long has stalled: the
/// drain that sees it (the heartbeat tick, at the latest) treats the
/// socket as dead and the ordinary teardown→reconnect path takes over,
/// rather than waiting past the reconnect budget for bytes that may never
/// come. Silence *between* records is the heartbeat's business, not this
/// rule's, so this must merely be comfortably above one heartbeat
/// interval, and below [`RECONNECT_BUDGET`] so a stall still leaves dial
/// time.
const MID_FRAME_TIMEOUT: Duration = Duration::from_millis(1000);

/// Most frames one flush pass will hand to a single vectored write.
/// Bounds both the `IoSlice` array (two slices a record) and how long one
/// sender can be stuck flushing other senders' traffic.
const MAX_COALESCED: usize = 64;

/// Longest one wait parks in `poll(2)` before it re-checks what no bytes
/// announce: a verdict reached by another thread, or a frame another
/// thread drained for it. Bytes on a peer socket end the park at once, so
/// this bounds only those. Shorter parks cost CPU on every wait, not only
/// on the ones that time out: on a 2-CPU VM with every rank pinned to one
/// CPU, a 1 ms park put ~8 µs on a pbench `msg_tcp` operation that a
/// 10 ms one does not.
const POLL_PARK: Duration = Duration::from_millis(10);

/// Most `read` calls one drain makes on one socket, so a peer that keeps
/// writing cannot hold the draining thread. A short read ends the drain
/// earlier: the socket had no more.
const MAX_READS_PER_DRAIN: usize = 8;

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
    unseq: VecDeque<SharedRecord>,
    flushing: bool,
    state: ConnState,
}

/// One peer connection's write side: a combining writer over a
/// *replaceable* socket. A sender enqueues its record and, if nobody is
/// flushing, becomes the flusher — draining the queue in batches of up
/// to [`MAX_COALESCED`] records per vectored write. Records enqueued
/// while a flush is in progress ride along in the flusher's next batch;
/// a rank has one sending thread and its sends flush synchronously, so
/// in practice only a concurrent heartbeat ping ever joins a batch. An
/// uncontended sender writes immediately, so nothing ever waits on a
/// timer. `set_nodelay(true)` stays on — batching happens here, above the
/// socket, not in Nagle's algorithm.
///
/// Sequenced records outlive the socket: they stay in the [`SendRing`]
/// until acked, and [`PeerWriter::resume`] swaps in a fresh socket and
/// rewinds the ring to the peer's delivery count. While `Down`,
/// sequenced sends accumulate (to be replayed) and unsequenced sends are
/// dropped.
///
/// Lock order: `stream` → `ring` → `breaker`. `breaker` holds a clone of
/// the socket used only for `shutdown`, so a writer waiting on a full
/// socket can be kicked loose without its lock. Nothing but a flush and a
/// resume takes `stream`: a flusher waiting on a full socket drains, and a
/// drain may cut this very link.
struct PeerWriter {
    stream: Mutex<Flush>,
    breaker: Mutex<Option<TcpStream>>,
    ring: Mutex<Ring>,
    /// Seeded per-connection chaos stream, when `--net-chaos` is armed.
    chaos: Option<Mutex<NetChaosConn>>,
    /// `(hub, my lane, peer lane)` when metrics are on: batch sizes and
    /// frame counts go to my lane, bytes to the destination peer's lane.
    metrics: Option<(MetricsHub, usize, usize)>,
}

/// What the flusher holds: the socket, and the batch it takes from the
/// ring, reused from one flush to the next.
struct Flush {
    stream: TcpStream,
    batch: Vec<SharedRecord>,
}

/// What a writer does while its socket is full: the link drains the
/// rank's inbound sockets and polls until this one can take more.
type WaitWritable<'a> = &'a dyn Fn(&TcpStream);

impl PeerWriter {
    fn new(
        stream: TcpStream,
        metrics: Option<(MetricsHub, usize, usize)>,
        chaos: Option<NetChaosConn>,
    ) -> Self {
        let breaker = stream.try_clone().ok();
        PeerWriter {
            stream: Mutex::new(Flush {
                stream,
                batch: Vec::with_capacity(MAX_COALESCED),
            }),
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

    /// Enqueue one encoded record and make sure it gets flushed, calling
    /// `wait` whenever the socket is full. Returns `false` only when the
    /// link is terminal (peer finished/failed or fabric closing) — a
    /// transiently-down link accepts sequenced records for replay and
    /// silently drops unsequenced ones.
    fn push(&self, record: SharedRecord, sequenced: bool, wait: WaitWritable) -> bool {
        {
            let mut ring = self.ring.lock();
            match ring.state {
                ConnState::Terminal => return false,
                ConnState::Down => {
                    if sequenced {
                        ring.seq.push(record);
                    }
                    return sequenced;
                }
                ConnState::Connected => {}
            }
            if sequenced {
                ring.seq.push(record);
            } else {
                ring.unseq.push_back(record);
            }
            if ring.flushing {
                // The active flusher will pick this record up before it
                // retires; nothing more to do here.
                return true;
            }
            ring.flushing = true;
        }
        self.flush_loop(wait);
        true
    }

    /// Drain the ring in batches until empty or the link drops. Caller
    /// must have set `flushing`; this clears it on exit.
    fn flush_loop(&self, wait: WaitWritable) {
        loop {
            // Hold the stream from taking a batch until it is written: a
            // resume swaps the socket and rewinds the ring under this same
            // lock, so a batch taken for one connection can never go out on
            // the next one ahead of the replay (the peer would count it as
            // the frames it expects, then drop the real ones as duplicates).
            let mut flush = self.stream.lock();
            let Flush { stream, batch } = &mut *flush;
            {
                let mut ring = self.ring.lock();
                if ring.state != ConnState::Connected
                    || (ring.unseq.is_empty() && ring.seq.unsent() == 0)
                {
                    ring.flushing = false;
                    return;
                }
                let unseq = ring.unseq.len().min(MAX_COALESCED);
                batch.extend(ring.unseq.drain(..unseq));
                ring.seq.next_batch(MAX_COALESCED - unseq, batch);
            }
            let written = self.write_batch(stream, batch, wait);
            batch.clear();
            if !written {
                drop(flush);
                self.disconnect();
                // Loop back: the state check above clears `flushing`.
            }
        }
    }

    /// Write a batch of records — through the chaos plan when armed.
    /// `false` drops the connection (sequenced frames in the batch stay in
    /// the ring and are replayed after resume).
    fn write_batch(
        &self,
        stream: &mut TcpStream,
        batch: &[SharedRecord],
        wait: WaitWritable,
    ) -> bool {
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
                    let mut flat = flatten(batch);
                    flat.truncate(bytes);
                    write_all(stream, &[SharedRecord::from(flat)], wait);
                    return false;
                }
                ChaosAction::Corrupt { byte, bit } => {
                    // Damage a copy; the ring keeps the clean original
                    // for the post-CRC-reject replay.
                    let mut flat = flatten(batch);
                    if let Some(b) = flat.get_mut(byte) {
                        *b ^= 1 << bit;
                    }
                    let ok = write_all(stream, &[SharedRecord::from(flat)], wait);
                    if ok {
                        self.record_batch(batch);
                    }
                    return ok;
                }
            }
        }
        if !write_all(stream, batch, wait) {
            return false;
        }
        self.record_batch(batch);
        true
    }

    fn record_batch(&self, batch: &[SharedRecord]) {
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

    /// Mark the link down (unless already terminal) and shut the socket
    /// down. Safe from any thread, a flusher's own included: the breaker
    /// clone shuts the socket without the stream lock, and a flusher
    /// waiting on it errors out and retires.
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
    }

    /// Install a fresh socket and rewind the ring to the peer's delivery
    /// count; returns how many retained frames will be replayed. The
    /// frames go out with the next flush (a heartbeat at the latest), so
    /// the calling redial thread never blocks on a socket write here.
    fn resume(&self, stream: TcpStream, peer_recv: u64) -> Result<u64> {
        let mut flush = self.stream.lock();
        let mut ring = self.ring.lock();
        if ring.state == ConnState::Terminal {
            return Err(Error::Codec("peer link already terminal".into()));
        }
        let replayed = ring.seq.resume(peer_recv)?;
        *self.breaker.lock() = stream.try_clone().ok();
        flush.stream = stream;
        ring.state = ConnState::Connected;
        Ok(replayed)
    }

    /// Permanently stop writing and shut the socket down `how`: both ways
    /// for a peer that finished or failed, or for `sever`; the write side
    /// only at teardown, so peers read our `Finish`, then a clean EOF.
    fn terminal(&self, how: Shutdown) {
        {
            let mut ring = self.ring.lock();
            ring.state = ConnState::Terminal;
            ring.unseq.clear();
        }
        if let Some(s) = &*self.breaker.lock() {
            let _ = s.shutdown(how);
        }
    }
}

/// Write every byte of a batch of at most [`MAX_COALESCED`] records, each
/// head and payload a slice of one vectored write, advancing across short
/// writes (`write_all_vectored` is not yet stable) and calling `wait`
/// whenever the socket is full. `false` on a write error or a socket that
/// accepts nothing.
fn write_all(stream: &mut TcpStream, batch: &[SharedRecord], wait: WaitWritable) -> bool {
    use std::io::{IoSlice, Write};
    let mut slices = [IoSlice::new(&[]); 2 * MAX_COALESCED];
    let mut filled = 0;
    for piece in batch.iter().flat_map(SharedRecord::pieces) {
        if !piece.is_empty() {
            slices[filled] = IoSlice::new(piece);
            filled += 1;
        }
    }
    let mut unwritten = &mut slices[..filled];
    while !unwritten.is_empty() {
        match stream.write_vectored(unwritten) {
            Ok(0) => return false,
            Ok(n) => IoSlice::advance_slices(&mut unwritten, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => wait(stream),
            Err(_) => return false,
        }
    }
    true
}

/// One peer connection's read side, drained by whichever of the rank's
/// threads gets its lock.
struct PeerReader {
    /// The socket's descriptor for `poll`, or -1 while there is none.
    fd: AtomicI32,
    /// A `net-redial-{peer}` thread is re-establishing the connection.
    redialing: AtomicBool,
    side: Mutex<ReadSide>,
}

/// What the draining thread holds.
struct ReadSide {
    /// The non-blocking socket; `None` once it died, until a redial
    /// installs the next.
    stream: Option<TcpStream>,
    /// Bytes read and not yet decoded.
    frames: StreamFrames,
    /// Since when part of a record has waited for the rest, as of the
    /// last drain that read some of it.
    stalled_since: Option<Instant>,
}

impl PeerReader {
    fn new(stream: TcpStream) -> PeerReader {
        let reader = PeerReader {
            fd: AtomicI32::new(-1),
            redialing: AtomicBool::new(false),
            side: Mutex::new(ReadSide {
                stream: None,
                frames: StreamFrames::new(),
                stalled_since: None,
            }),
        };
        reader.install(&mut reader.side.lock(), stream);
        reader
    }

    /// Make `stream` the socket this side drains, from a clean buffer.
    fn install(&self, side: &mut ReadSide, stream: TcpStream) {
        self.fd.store(raw_fd(&stream), Ordering::Relaxed);
        side.stream = Some(stream);
        side.frames = StreamFrames::new();
        side.stalled_since = None;
    }

    /// Forget a dead socket.
    fn remove(&self, side: &mut ReadSide) {
        self.fd.store(-1, Ordering::Relaxed);
        side.stream = None;
    }
}

/// How a peer's stream ended.
enum StreamEnd {
    /// The bytes ended, broke, or arrived damaged, torn or stalled; the
    /// error says which, `None` an end between records. A reconnect may
    /// heal it.
    Broken(Option<Error>),
    /// A record arrived intact and this rank could not take it: a body
    /// that does not decode, or a frame the mesh refused. The peer would
    /// replay the same record after any reconnect, so the peer fails.
    Refused,
}

impl ReadSide {
    /// Read what the socket holds, up to [`MAX_READS_PER_DRAIN`] reads,
    /// and hand each complete frame to `deliver`. `None` while the stream
    /// lives; `Some` once it ended.
    fn pump(&mut self, mut deliver: impl FnMut(Frame) -> Result<()>) -> Option<StreamEnd> {
        let stream = self.stream.as_mut()?;
        let mut progressed = false;
        let mut reads = 0;
        loop {
            loop {
                let body = match self.frames.next_body() {
                    Ok(Some(body)) => body,
                    Ok(None) => break,
                    Err(e) => return Some(StreamEnd::Broken(Some(e))),
                };
                if decode_body(body).and_then(&mut deliver).is_err() {
                    return Some(StreamEnd::Refused);
                }
            }
            if reads == MAX_READS_PER_DRAIN {
                break;
            }
            reads += 1;
            match self.frames.fill(stream) {
                Ok(0) => return Some(StreamEnd::Broken(self.frames.at_eof().err())),
                Ok(_) => progressed = true,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    let e = Error::Codec(format!("read error: {e}"));
                    return Some(StreamEnd::Broken(Some(e)));
                }
            }
            if self.frames.room() > 0 {
                // A short read: the socket had no more. Decode, then stop.
                reads = MAX_READS_PER_DRAIN;
            }
        }
        if self.frames.buffered() == 0 {
            self.stalled_since = None;
        } else if progressed || self.stalled_since.is_none() {
            self.stalled_since = Some(Instant::now());
        } else if self
            .stalled_since
            .is_some_and(|since| since.elapsed() > MID_FRAME_TIMEOUT)
        {
            return Some(StreamEnd::Broken(Some(Error::Codec(format!(
                "{MID_FRAME_STALL}: {} bytes of a record, then {MID_FRAME_TIMEOUT:?} of silence",
                self.frames.buffered()
            )))));
        }
        None
    }
}

/// The TCP side of a [`PeerMesh`]: per peer a combining writer and a
/// drained read side over a replaceable socket, the listener that fields
/// redials, and the clock-probe reply slot.
pub struct TcpLink {
    /// Rendezvous address table, kept for redials.
    addrs: Vec<String>,
    /// This rank's listener, kept open for redials: non-blocking, and
    /// accepted on only by the redial threads of peers above this rank.
    listener: TcpListener,
    /// Write sides, indexed by peer world rank (`None` at `me`).
    writers: Vec<Option<PeerWriter>>,
    /// Read sides, indexed by peer world rank (`None` at `me`).
    readers: Vec<Option<PeerReader>>,
    /// Per-peer slot for a redial whose `Resume` named that peer but was
    /// accepted by another peer's redial thread: the fresh socket and the
    /// recv count the dialer reported. The named peer's redial thread
    /// looks here between its waits on the listener.
    pending: Mutex<Vec<Option<(TcpStream, u64)>>>,
    /// Clock-probe replies from rank 0 land here (a drain produces, the
    /// establish-time offset estimator consumes; see
    /// [`Mesh::estimate_clock_offset`]).
    clock_reply: Mutex<Option<(u64, u64)>>,
}

impl TcpLink {
    /// Sleep until a peer socket has bytes (or, with `out`, until `out`
    /// can take more), or for `POLL_PARK` at most. The descriptor list
    /// is the parking thread's own, reused from one park to the next.
    fn poll(&self, out: Option<&TcpStream>) {
        thread_local! {
            static FDS: RefCell<Vec<PollFd>> = const { RefCell::new(Vec::new()) };
        }
        FDS.with_borrow_mut(|fds| {
            fds.clear();
            fds.extend(
                self.readers
                    .iter()
                    .flatten()
                    .map(|reader| reader.fd.load(Ordering::Relaxed))
                    .filter(|&fd| fd >= 0)
                    .map(PollFd::readable),
            );
            fds.extend(out.map(PollFd::writable));
            poll_fds(fds, POLL_PARK);
        });
    }
}

impl Link for TcpLink {
    const PEER_TIMEOUT: Duration = PEER_TIMEOUT;
    const ESTABLISH_GRACE: Duration = PEER_TIMEOUT;

    /// Keep the record as a copy of its head and a share of its payload
    /// (one copy of it when the caller's slice is all there is), then
    /// enqueue and flush it, draining and polling while the socket is
    /// full.
    fn write(
        &self,
        mesh: &Mesh<Self>,
        peer: usize,
        record: Pieces,
        share: Option<&Bytes>,
        sequenced: bool,
    ) -> bool {
        let Some(writer) = &self.writers[peer] else {
            return true;
        };
        let record = SharedRecord {
            head: Bytes::copy_from_slice(record.head),
            payload: share.map_or_else(|| Bytes::copy_from_slice(record.payload), Bytes::clone),
        };
        writer.push(record, sequenced, &|stream| {
            self.drain(mesh);
            self.poll(Some(stream));
        })
    }

    fn unacked(&self, peer: usize) -> usize {
        self.writers[peer].as_ref().map_or(0, PeerWriter::retained)
    }

    fn close(&self, _mesh: &Mesh<Self>) {
        // Half-close every connection: peers read our Finish, then a
        // clean EOF. Nothing is drained once the mesh is closing, and the
        // sockets close with the mesh.
        for writer in self.writers.iter().flatten() {
            writer.terminal(Shutdown::Write);
        }
    }

    fn cut(&self, peer: usize) {
        if let Some(writer) = &self.writers[peer] {
            writer.terminal(Shutdown::Both);
        }
    }

    fn probe(&self, peer: usize) -> bool {
        // Cut the (possibly half-open) connection so the next drain sees
        // it dead and a reconnect round-trip runs.
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
                self.write(mesh, peer, (&reply).into(), None, false);
            }
            Frame::ClockReply { t0, server_ns } => {
                *self.clock_reply.lock() = Some((t0, server_ns));
            }
            // Hello and Resume are consumed by the handshakes themselves;
            // anything else has no business on a peer connection.
            _ => {}
        }
    }

    fn park(&self, mesh: &Mesh<Self>) -> Park {
        // Weak: the parking hook lives in the mesh's own mailbox.
        let mesh = mesh.this.clone();
        Park::Poll(Box::new(move || {
            if let Some(mesh) = mesh.upgrade() {
                mesh.link.poll(None);
            }
        }))
    }

    /// Decode and dispatch every frame that has fully arrived on each
    /// peer socket nobody else is draining. A socket found ended, broken,
    /// damaged or stalled mid-record is dropped and handed to the
    /// reconnect machinery (see the module docs); one that delivered an
    /// intact record this rank refuses fails the peer at once, as a ring
    /// does, since a resume would replay that record. Once the mesh is
    /// closing, nothing is drained.
    fn drain(&self, mesh: &Mesh<Self>) {
        for (peer, reader) in self.readers.iter().enumerate() {
            let Some(reader) = reader else { continue };
            if mesh.closing.load(Ordering::SeqCst) {
                return;
            }
            if reader.fd.load(Ordering::Relaxed) < 0 {
                continue;
            }
            let Some(mut side) = reader.side.try_lock() else {
                continue;
            };
            let Some(end) = side.pump(|frame| mesh.handle_frame(peer, frame)) else {
                continue;
            };
            reader.remove(&mut side);
            drop(side);
            match end {
                StreamEnd::Broken(error) => mesh.stream_died(peer, error),
                StreamEnd::Refused => mesh.note_failed(peer),
            }
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
            if !self.link.write(self, 0, (&probe).into(), None, false) {
                break;
            }
            let reply = Cell::new(None);
            let replied = || {
                self.link.drain(self);
                match self.link.clock_reply.lock().take() {
                    Some((echo, s)) if echo == t0 => {
                        reply.set(Some(s));
                        true
                    }
                    // None yet, or a stale reply to an expired probe:
                    // discard it and keep waiting for ours.
                    _ => false,
                }
            };
            if !replied() {
                self.wait_until(replied, Some(REPLY_TIMEOUT));
            }
            let Some(s) = reply.get() else { continue };
            let t1 = unix_now_ns();
            let rtt = t1.saturating_sub(t0);
            let offset = s as i64 - t0.midpoint(t1) as i64;
            if best.is_none_or(|(r, _)| rtt < r) {
                best = Some((rtt, offset));
            }
        }
        best.map_or(0, |(_, o)| o)
    }

    /// A drain found `peer`'s socket dead (`error` says why, `None` for a
    /// clean EOF). Sync the write side, then — unless the peer finished or
    /// failed or this rank is closing — start the one redial thread.
    fn stream_died(&self, peer: usize, error: Option<Error>) {
        self.count_crc_reject(error.as_ref());
        if let Some(writer) = &self.link.writers[peer] {
            writer.disconnect();
        }
        if self.closing.load(Ordering::SeqCst) || self.gone(peer) {
            return;
        }
        let Some(reader) = &self.link.readers[peer] else {
            return;
        };
        if reader.redialing.swap(true, Ordering::SeqCst) {
            return;
        }
        if self
            .spawn(format!("net-redial-{peer}"), move |mesh| mesh.redial(peer))
            .is_err()
        {
            reader.redialing.store(false, Ordering::SeqCst);
            self.note_failed(peer);
        }
    }

    /// Re-establish `peer`'s connection and install its read side; only
    /// when that fails (budget exhausted, or teardown) is the peer failed,
    /// and then only if it neither finished nor is this rank closing.
    fn redial(&self, peer: usize) {
        let fresh = if self.me > peer {
            self.reconnect_dial(peer)
        } else {
            self.reconnect_accept(peer)
        };
        let reader = self.link.readers[peer]
            .as_ref()
            .expect("a redialed peer has a read side");
        match fresh {
            Some(stream) => {
                let mut side = reader.side.lock();
                reader.install(&mut side, stream);
                // Cleared under the lock: a drain that finds the new socket
                // dead may start the next redial.
                reader.redialing.store(false, Ordering::SeqCst);
            }
            None => {
                reader.redialing.store(false, Ordering::SeqCst);
                if !self.finished[peer].load(Ordering::SeqCst)
                    && !self.closing.load(Ordering::SeqCst)
                {
                    self.note_failed(peer);
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
            if self.closing.load(Ordering::SeqCst) || self.gone(peer) {
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
                let _ = stream.set_nodelay(true);
                self.adopt(peer, stream, theirs, attempt)
            }
            _ => None,
        }
    }

    /// Accept side of a reconnect (the peer outranks this rank): accept
    /// redials and read each dialer's `Resume` until `peer`'s arrives, on
    /// this thread or parked by another peer's redial thread, then answer
    /// it. Each wait on the listener lasts `POLL_PARK` at most, so a
    /// `Resume` parked for `peer` is taken up within one.
    fn reconnect_accept(&self, peer: usize) -> Option<TcpStream> {
        let deadline = Instant::now() + RECONNECT_BUDGET;
        loop {
            if self.closing.load(Ordering::SeqCst) || self.gone(peer) {
                return None;
            }
            let slot = self.link.pending.lock()[peer].take();
            if let Some((mut stream, their_recv)) = slot {
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
                continue;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let accepted = accept_within(&self.link.listener, deadline.min(now + POLL_PARK));
            let Some(mut stream) = accepted.unwrap_or_else(|_| {
                // Out of descriptors, say: back off as an idle wait would.
                std::thread::sleep(POLL_PARK);
                None
            }) else {
                continue;
            };
            let _ = stream.set_read_timeout(Some(RESUME_REPLY_TIMEOUT));
            // Park it for the redial thread of the rank it names (a newer
            // redial supersedes a stale one). Anything else — a wrong
            // epoch, garbage, a timed-out probe — is dropped.
            if let Ok(Some(Frame::Resume {
                epoch,
                rank,
                recv_seq,
            })) = read_frame(&mut stream)
            {
                let rank = rank as usize;
                if epoch == self.epoch && rank > self.me && rank < self.np {
                    self.link.pending.lock()[rank] = Some((stream, recv_seq));
                }
            }
        }
    }

    /// Common tail of both reconnect sides: make the fresh socket
    /// non-blocking, rewind the send ring to the peer's count, install the
    /// socket's write side, and meter the recovery. Returns the read side.
    fn adopt(
        &self,
        peer: usize,
        stream: TcpStream,
        their_recv: u64,
        attempt: u32,
    ) -> Option<TcpStream> {
        let writer = self.link.writers[peer].as_ref()?;
        stream.set_nonblocking(true).ok()?;
        let write_half = stream.try_clone().ok()?;
        let replayed = writer.resume(write_half, their_recv).ok()?;
        self.probed[peer].store(false, Ordering::Relaxed);
        self.last_heard[peer].store(self.elapsed_ms(), Ordering::Relaxed);
        self.obs.link_resume(self.me, attempt, replayed);
        Some(stream)
    }
}

/// Accept one connection, and its `Hello`, from every rank above `me`.
/// Each accept ([`accept_within`]) and each `Hello` read gives up after
/// `timeout`: a registered peer that died before dialing (or right after)
/// is an `Err`, not a hang. The read is bounded by the accepted stream's
/// read timeout, which the caller replaces once the mesh is up.
fn accept_higher_ranks(
    listener: &TcpListener,
    me: usize,
    epoch: u64,
    timeout: Duration,
    streams: &mut [Option<TcpStream>],
) -> Result<()> {
    let np = streams.len();
    for _ in me + 1..np {
        let accepted =
            accept_within(listener, Instant::now() + timeout).map_err(sock_err("accept peer"))?;
        let Some(mut stream) = accepted else {
            return Err(Error::Codec(format!(
                "accept peer: no peer dialed within {timeout:?}"
            )));
        };
        stream
            .set_read_timeout(Some(timeout))
            .map_err(sock_err("arm Hello timeout"))?;
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

/// Accept one connection on `listener`, or `Ok(None)` once `deadline`
/// passes with none: the listener is made non-blocking and the wait parks
/// in `poll(2)` on its descriptor, so the bound holds on every platform.
/// The stream comes back blocking.
fn accept_within(listener: &TcpListener, deadline: Instant) -> std::io::Result<Option<TcpStream>> {
    listener.set_nonblocking(true)?;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                return Ok(Some(stream));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Ok(None);
        }
        poll_fds(&mut [PollFd::readable(raw_fd(listener))], left);
    }
}

/// A socket error, said of `what`.
fn sock_err(what: impl std::fmt::Display) -> impl FnOnce(std::io::Error) -> Error {
    move |e| Error::Codec(format!("{what}: {e}"))
}

/// One entry of a `poll(2)` set.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    const IN: i16 = 0x1;
    const OUT: i16 = 0x4;

    fn readable(fd: i32) -> PollFd {
        PollFd {
            fd,
            events: Self::IN,
            revents: 0,
        }
    }

    fn writable(stream: &TcpStream) -> PollFd {
        PollFd {
            fd: raw_fd(stream),
            events: Self::OUT,
            revents: 0,
        }
    }
}

/// Sleep until one of `fds` is ready (or in error), or for `timeout` at
/// most. `poll(2)` is declared directly (std already links libc), as
/// `patternlets_core::signals` does for `signal(2)`.
#[cfg(target_os = "linux")]
fn poll_fds(fds: &mut [PollFd], timeout: Duration) {
    use std::ffi::{c_int, c_ulong};
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
    let timeout_ms = timeout.as_millis().clamp(1, c_int::MAX as u128) as c_int;
    // SAFETY: `fds` is a live, exclusively borrowed array of `pollfd`-laid
    // out entries, and `nfds` is its length.
    unsafe {
        poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms);
    }
}

/// Elsewhere a wait sleeps briefly and the drains that follow find out.
#[cfg(not(target_os = "linux"))]
fn poll_fds(_fds: &mut [PollFd], timeout: Duration) {
    std::thread::sleep(timeout.min(Duration::from_micros(200)));
}

#[cfg(unix)]
fn raw_fd(socket: &impl std::os::fd::AsRawFd) -> i32 {
    socket.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_socket: &T) -> i32 {
    0
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
        let (listener, table) = rendezvous::bind_and_register(server, me, spec, None)?;
        Self::from_table(listener, table, me, spec, None)
    }

    /// Build the peer mesh from the listener this rank registered and the
    /// table the rendezvous released (a world that advertised shm but is
    /// not co-located lands here too; the `#shm:` suffixes are stripped
    /// before dialing).
    pub fn from_table(
        listener: TcpListener,
        table: Vec<String>,
        me: usize,
        spec: &WorldSpec,
        chaos: Option<NetChaosPlan>,
    ) -> Result<TcpFabric> {
        let np = spec.np;

        // One connection per peer: dial every lower rank, accept every
        // higher one. Dials can't race the listeners — every rank bound
        // its listener before registering, and the table only exists once
        // everyone registered.
        let mut streams: Vec<Option<TcpStream>> = (0..np).map(|_| None).collect();
        for (peer, addr) in table.iter().enumerate().take(me) {
            let addr = crate::shm::tcp_part(addr);
            let mut stream = TcpStream::connect(addr)
                .map_err(sock_err(format!("dial rank {peer} at {addr}")))?;
            crate::frame::write_frame(
                &mut stream,
                &Frame::Hello {
                    epoch: spec.epoch,
                    rank: me as u64,
                },
            )
            .map_err(sock_err(format!("handshake with rank {peer}")))?;
            streams[peer] = Some(stream);
        }
        accept_higher_ranks(&listener, me, spec.epoch, REGISTER_TIMEOUT, &mut streams)?;
        let mut readers = Vec::with_capacity(np);
        for stream in &streams {
            readers.push(match stream {
                Some(stream) => {
                    let _ = stream.set_nodelay(true);
                    // The rank drains its sockets itself and must never
                    // block in a read or a write (see the module docs).
                    stream
                        .set_nonblocking(true)
                        .map_err(sock_err("make a peer socket non-blocking"))?;
                    let read_half = stream
                        .try_clone()
                        .map_err(sock_err("clone a peer socket"))?;
                    Some(PeerReader::new(read_half))
                }
                None => None,
            });
        }
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
            readers,
            pending: Mutex::new((0..np).map(|_| None).collect()),
            clock_reply: Mutex::new(None),
        };
        let mesh = PeerMesh::new(me, spec, link)?;
        // With tracing on, non-zero ranks estimate their wall-clock
        // offset to rank 0 over the fresh mesh (rank 0 answers probes as
        // it drains, waiting at the start gate), so per-rank trace exports
        // can carry an aligned timebase anchor. Untraced worlds skip the
        // probe round trips.
        if spec.tracer.is_some() && me != 0 && np > 1 {
            crate::set_clock_offset_ns(mesh.inner.estimate_clock_offset());
        }
        mesh.start_gate(spec);
        Ok(mesh)
    }

    /// Cut the connection to one peer *without* giving up on it — a
    /// transient network fault. Both sides' drains see the socket die and
    /// run the reconnect/resume protocol; queued sequenced frames are
    /// replayed. Test/diagnostic aid.
    pub fn disrupt(&self, peer: usize) {
        if let Some(writer) = &self.inner.link.writers[peer] {
            writer.disconnect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::IDLE_TIMEOUT;
    use crate::mesh::tests::{env, recv_one, tcp_mesh_with};
    use crate::mesh::FINISH_DRAIN;
    use patternlets_mp::envelope::{Envelope, Payload};
    use patternlets_mp::Fabric;
    use std::sync::Arc;

    impl PeerWriter {
        /// [`push`](Self::push) a copy of `record`, with nothing to drain
        /// while the socket is full.
        fn send(&self, record: &[u8], sequenced: bool) -> bool {
            self.push(SharedRecord::from(record.to_vec()), sequenced, &|stream| {
                poll_fds(&mut [PollFd::writable(stream)], POLL_PARK)
            })
        }
    }

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

    /// A rank that failed itself — the fault-plan victim — does not wait
    /// for acks when it finishes: its survivors cut its links on reading
    /// its `Failed`, so none will come, and waiting held its teardown for
    /// all of `FINISH_DRAIN`.
    #[test]
    fn a_rank_that_failed_itself_finishes_without_waiting_for_acks() {
        let fabrics = tcp_mesh_with(3, None, false);
        fabrics[1].mark_failed(1);
        let deadline = Instant::now() + Duration::from_secs(5);
        for survivor in [0, 2] {
            while !fabrics[survivor].rank_failed(1) {
                assert!(Instant::now() < deadline, "the Failed frame never landed");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let started = Instant::now();
        fabrics[1].finish(1);
        let took = started.elapsed();
        assert!(
            took < FINISH_DRAIN / 4,
            "the victim's teardown took {took:?}"
        );
        for me in [0, 2] {
            fabrics[me].finish(me);
        }
    }

    /// Two peers redial one lower rank at once. Its two redial threads
    /// accept on one listener, so either may read the other's `Resume`,
    /// which it parks for the thread of the peer it names. Every message
    /// sent across both cuts still arrives exactly once, in order.
    #[test]
    fn two_peers_redialing_one_rank_at_once_both_resume() {
        let fabrics = tcp_mesh_with(3, None, true);
        let mut sent = [0u64; 3];
        let mut send_both = || {
            for src in [1, 2] {
                fabrics[src].deliver(src, 0, env(0, src, 7, sent[src]), 0, false);
                sent[src] += 1;
            }
        };
        let mut got = [0u64; 3];
        for _round in 0..4 {
            send_both();
            fabrics[1].disrupt(0);
            fabrics[2].disrupt(0);
            send_both();
            for src in [1, 2] {
                for _ in 0..2 {
                    let env = recv_one(&*fabrics[0], 0, src, 7);
                    assert_eq!(env.seq, got[src], "rank {src}'s messages in order");
                    got[src] += 1;
                }
            }
        }
        assert!(fabrics[0].mailbox(0).is_empty(), "no duplicates surfaced");
        for peer in [1, 2] {
            assert!(
                !fabrics[0].rank_failed(peer),
                "a resumed cut is not a failure"
            );
        }
        let reconnects = fabrics[0]
            .inner
            .obs
            .metrics
            .as_ref()
            .unwrap()
            .snapshot()
            .total(CounterId::NetReconnects);
        assert!(reconnects >= 8, "every cut was resumed, got {reconnects}");
        for (me, f) in fabrics.iter().enumerate() {
            f.finish(me);
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

    /// A `u8` send hands the link the caller's slice, and the link keeps
    /// its one copy for replay: the sender may overwrite its buffer as
    /// soon as the call returns, even when the connection is cut before
    /// the peer acknowledged the record, and the replay after the
    /// `Resume` carries the bytes the buffer held at the call.
    #[test]
    fn a_replay_after_a_resume_carries_the_bytes_the_buffer_held_at_the_send() {
        const LEN: usize = 64 << 10;
        let fabrics = tcp_mesh_with(2, None, true);
        let pattern = |seq: u64| (0..LEN as u64).map(move |i| (i * 31 + seq) as u8);
        let mut buf = vec![0u8; LEN];
        let mut send = |seq: u64| {
            buf.iter_mut().zip(pattern(seq)).for_each(|(b, v)| *b = v);
            let env = Envelope {
                comm_id: 0,
                src: 0,
                tag: 7,
                type_name: "u8",
                count: LEN,
                payload: &buf[..],
                seq,
                needs_ack: false,
            };
            fabrics[0].transmit(
                0,
                1,
                env.map_payload(patternlets_mp::Outgoing::Wire),
                0,
                false,
            );
            buf.fill(0xEE);
        };
        // The first record goes out just before the cut, long before the
        // peer's heartbeat could ack it; the second is sent while the
        // link is down, so only the replay carries it.
        send(0);
        fabrics[0].disrupt(1);
        send(1);
        for seq in 0..2 {
            let got = recv_one(&*fabrics[1], 1, 0, 7);
            assert_eq!(got.seq, seq);
            let wire = got.payload.to_wire();
            assert!(wire.iter().copied().eq(pattern(seq)), "record {seq}");
        }
        let replayed: u64 = fabrics
            .iter()
            .map(|f| {
                let hub = f.inner.obs.metrics.as_ref().unwrap();
                hub.snapshot().total(CounterId::NetFramesReplayed)
            })
            .sum();
        assert!(replayed >= 1, "the send ring replayed after the resume");
        for (me, f) in fabrics.iter().enumerate() {
            f.finish(me);
        }
    }

    /// Regression: an intact record the receiving rank cannot take — here
    /// an unknown kind byte under a valid CRC — fails the peer at once. A
    /// reconnect would only replay it: the link used to reconnect four or
    /// five times a second for ever, delivering nothing after it.
    #[test]
    fn an_intact_record_the_rank_refuses_fails_the_peer_at_once() {
        use patternlets_core::{crc32, crc32_extend};
        let fabrics = tcp_mesh_with(2, None, true);
        let mut record = encode_frame(&Frame::Ping { seen: 0 });
        record[8] = 0xFF; // no frame has this kind
        let crc = crc32_extend(crc32(&record[..4]), &record[8..]);
        record[4..8].copy_from_slice(&crc.to_le_bytes());
        let sent = Instant::now();
        let sender = &fabrics[0].inner;
        assert!(sender.link.write(sender, 1, (&record).into(), None, true));
        while !fabrics[1].rank_failed(0) {
            assert!(
                sent.elapsed() < RECONNECT_BUDGET,
                "no verdict within the reconnect budget"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let reconnects: u64 = fabrics
            .iter()
            .map(|f| {
                let hub = f.inner.obs.metrics.as_ref().unwrap();
                hub.snapshot().total(CounterId::NetReconnects)
            })
            .sum();
        assert!(
            reconnects <= 1,
            "{reconnects} reconnects replayed the record"
        );
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

    /// The link's own stall rule: a drain that finds part of a record
    /// waiting, with no byte of it arriving for `MID_FRAME_TIMEOUT`, ends
    /// the stream as stalled, so the reconnect path takes over.
    #[test]
    fn a_drain_ends_a_stream_stalled_mid_record() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut far = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let near = listener.accept().unwrap().0;
        near.set_nonblocking(true).unwrap();
        let reader = PeerReader::new(near);
        let record = encode_frame(&Frame::Ping { seen: 1 });
        use std::io::Write;
        far.write_all(&record).unwrap();
        far.write_all(&record[..10]).unwrap();
        let started = Instant::now();
        let mut delivered = 0;
        let ended = loop {
            if let Some(ended) = reader.side.lock().pump(|_| {
                delivered += 1;
                Ok(())
            }) {
                break ended;
            }
            assert!(
                started.elapsed() < RECONNECT_BUDGET,
                "the stall went unseen"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        assert_eq!(delivered, 1, "the whole record ahead of the stall");
        let StreamEnd::Broken(Some(err)) = ended else {
            panic!("a stall is a broken stream");
        };
        let err = err.to_string();
        assert!(err.contains(MID_FRAME_STALL), "{err}");
        assert!(started.elapsed() >= MID_FRAME_TIMEOUT);
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

    /// Two ranks each send the other 8 MiB before either receives: far
    /// more than the sockets buffer, so each send completes only because a
    /// writer blocked on a full socket drains its own rank's sockets
    /// meanwhile.
    #[test]
    fn crossing_sends_of_8_mib_both_complete() {
        const BIG: usize = 8 << 20;
        let fabrics = tcp_mesh_with(2, None, false);
        let (done, finished) = std::sync::mpsc::channel();
        for (me, fabric) in fabrics.iter().enumerate() {
            let (fabric, done) = (Arc::clone(fabric), done.clone());
            std::thread::spawn(move || {
                let bulk = Envelope {
                    comm_id: 0,
                    src: me,
                    tag: 21,
                    type_name: "u8",
                    count: BIG,
                    payload: Payload::Bytes(Bytes::from(vec![me as u8; BIG])),
                    seq: 0,
                    needs_ack: false,
                };
                fabric.deliver(me, 1 - me, bulk, 0, false);
                let got = recv_one(&*fabric, me, 1 - me, 21);
                let _ = done.send((me, got.payload.len()));
            });
        }
        for _ in 0..2 {
            let (me, len) = finished
                .recv_timeout(Duration::from_secs(30))
                .expect("both crossing sends complete");
            assert_eq!(len, BIG, "rank {me} got the whole payload");
        }
        for (me, f) in fabrics.iter().enumerate() {
            f.finish(me);
        }
    }

    /// A rank that makes no call for 500 ms while its peer finishes still
    /// sees the peer's `Finish` — its heartbeat tick drains — and neither
    /// teardown waits out `FINISH_DRAIN`. The finishing rank is done
    /// before the idle one even starts to finish: the drain that reads a
    /// `Finish` acks it at once, where the heartbeat, which pings only
    /// peers that have not finished, never would.
    #[test]
    fn an_idle_rank_sees_its_peers_finish_and_neither_teardown_stalls() {
        const IDLE: Duration = Duration::from_millis(500);
        let fabrics = tcp_mesh_with(2, None, false);
        let finisher = {
            let f = Arc::clone(&fabrics[1]);
            std::thread::spawn(move || {
                let started = Instant::now();
                f.finish(1);
                started.elapsed()
            })
        };
        std::thread::sleep(IDLE);
        assert!(!fabrics[0].rank_alive(1), "the Finish was drained");
        assert!(!fabrics[0].rank_failed(1), "a clean exit is not a failure");
        let finisher_took = finisher.join().unwrap();
        assert!(
            finisher_took < IDLE,
            "the finisher waited {finisher_took:?} for its ack"
        );
        let started = Instant::now();
        fabrics[0].finish(0);
        let idle_took = started.elapsed();
        assert!(
            idle_took < FINISH_DRAIN,
            "the idle rank's teardown took {idle_took:?}"
        );
    }
}
