//! The shared-memory link: same-host ranks over mmap'd SPSC rings.
//!
//! The second [`Link`] under the [`PeerMesh`] (after the TCP mesh):
//! every directed peer pair `i → j` gets one file-backed,
//! memory-mapped segment holding a lock-free single-producer /
//! single-consumer byte ring ([`patternlets_core::spsc`]). Whole wire
//! frames — the *same* `[len][crc][body]` records the TCP codec ships,
//! CRC included — stream through the ring and are checked by the same
//! CRC and body decoder, so a corrupted segment is caught exactly like a
//! corrupted socket. The hot path copies a record's head and then an
//! envelope's payload straight into the ring and publishes them with a
//! handful of atomic operations: no record buffer, no syscall, no kernel
//! round-trip, no frame re-encode, and no thread between the ring and
//! the mailbox.
//!
//! ## Receiver-driven progress
//!
//! The shm link brings no reader threads. Each rank drains its own inbound
//! rings, through [`RingFrames`], whenever one of its threads would
//! otherwise wait: a blocked receive or a probe (the mailbox's progress
//! hook), an agreement, a send into a full outbound ring, and — as the
//! backstop while the rank computes — every heartbeat tick. Each inbound
//! ring sits behind a try-lock, so exactly one thread reads it at a time
//! and a busy ring is simply skipped. Every producer rings one per-rank
//! **doorbell** word, mapped from its own small file, after publishing,
//! so a rank parked on it wakes for whichever peer writes first.
//!
//! ## Rendezvous and co-location
//!
//! Ranks cannot see each other's placement, so the rendezvous table
//! carries it: a shm-capable rank registers its TCP listener address
//! with a `#shm:<host>:<dir>` suffix advertising its host identity and
//! the directory where it created its **inbound** segments (one per
//! peer, created *before* registering — so when the table comes back,
//! every producer's target file already exists). A rank registers once
//! per world, whatever happens next. Each rank then makes the same
//! decision from the same table: if every rank advertised shm on the
//! same host, the world runs over rings; otherwise everyone falls back
//! to the TCP mesh built from the same listener and table (the suffix is
//! stripped before dialing). An `Auto` rank whose rings cannot be made
//! advertises plain TCP, so its world falls back with it.
//! `FabricMode::Shm` makes a fallback an error instead; `FabricMode::Tcp`
//! skips the advertisement entirely.
//!
//! ## Segment lifecycle
//!
//! The consumer creates, sizes, and initializes its inbound segments and
//! its doorbell file, then advertises the directory. The producer maps
//! both after the table arrives and immediately pushes a `Hello` frame;
//! when the consumer reads it, it **unlinks** the ring's file, and the
//! doorbell's with the last one — both mappings survive an unlink, so
//! from that point the ring is an anonymous shared page range that
//! vanishes with the last process. A SIGKILL'd producer never sends
//! `Hello`, so its files linger until the launcher sweeps the per-job
//! directory (`pmrun` removes it at exit).
//!
//! ## Liveness without EOF
//!
//! Shared memory has no connection to lose: a SIGKILL'd peer leaves its
//! rings exactly as they were. Liveness is therefore purely the mesh's
//! heartbeat: a peer silent for [`SHM_PEER_TIMEOUT`] is declared failed
//! with no probe — there is no reconnect machinery because there is
//! nothing to reconnect, and no resume protocol because ring bytes are
//! never lost in flight. Control traffic (`Hello`/`Finish`/`Failed`/
//! `Agree`) rides the same rings as envelopes, through the same mesh
//! protocol as TCP's. A clean exit closes the outbound rings after a
//! `Finish` frame; the data already written survives in the consumer's
//! mapping even if this process exits immediately after.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;
use patternlets_core::spsc::{self, Bell, Consumer, Park, Pieces, Producer, SpscRing, CACHE_LINE};
use patternlets_core::{Error, Result};
use patternlets_metrics::{CounterId, MetricsHub};
use patternlets_mp::fabric::{Fabric, WorldSpec};

use crate::chaos::NetChaosPlan;
use crate::fabric::TcpFabric;
use crate::frame::{body_len, decode_frame, decode_record, grow, Frame, CRC_MISMATCH};
use crate::mesh::{Link, Mesh, PeerMesh};
use crate::rendezvous;

/// Data bytes per directed ring. Big enough that a collective round of
/// small frames never blocks; records larger than this stream through
/// the ring in chunks, exactly like a socket buffer.
pub const SHM_RING_CAPACITY: usize = 1 << 20;

/// A peer silent this long is declared failed. Much tighter than the
/// TCP provider's timeout: there is no EOF to detect a death early and
/// no reconnect round to serve, so the heartbeat *is* the detector.
pub const SHM_PEER_TIMEOUT: Duration = Duration::from_secs(2);

/// A peer that has never delivered a frame gets this long (from this
/// rank's own establish) before its silence counts as failure: the
/// peer's establishment — mapping `np` segments, pushing its Hello —
/// can lag well past one [`SHM_PEER_TIMEOUT`] on a loaded host, and
/// declaring it dead before it ever speaks is a false verdict.
pub const SHM_ESTABLISH_GRACE: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------------
// Raw mmap (no libc in the vendored dependency set)
// ---------------------------------------------------------------------------

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use std::fs::File;
    use std::os::fd::AsRawFd;

    const SYS_MMAP: u64 = 9;
    const SYS_MUNMAP: u64 = 11;
    const PROT_READ: u64 = 1;
    const PROT_WRITE: u64 = 2;
    const MAP_SHARED: u64 = 1;

    /// Map `len` bytes of `file` shared read-write.
    pub fn mmap_shared(file: &File, len: usize) -> std::result::Result<*mut u8, String> {
        let fd = file.as_raw_fd() as u64;
        let ret: i64;
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_MMAP => ret,
                in("rdi") 0u64,
                in("rsi") len as u64,
                in("rdx") PROT_READ | PROT_WRITE,
                in("r10") MAP_SHARED,
                in("r8") fd,
                in("r9") 0u64,
                out("rcx") _,
                out("r11") _,
                options(nostack)
            );
        }
        // Errors come back as -errno in the page-aligned negative range.
        if (-4095..0).contains(&ret) {
            Err(format!("mmap failed: errno {}", -ret))
        } else {
            Ok(ret as *mut u8)
        }
    }

    pub fn munmap(ptr: *mut u8, len: usize) {
        unsafe {
            let mut _ret: i64;
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_MUNMAP => _ret,
                in("rdi") ptr as u64,
                in("rsi") len as u64,
                out("rcx") _,
                out("r11") _,
                options(nostack)
            );
        }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    use std::fs::File;

    pub fn mmap_shared(_file: &File, _len: usize) -> std::result::Result<*mut u8, String> {
        Err("shared-memory mappings are not supported on this platform".to_string())
    }

    pub fn munmap(_ptr: *mut u8, _len: usize) {}
}

/// Whether this build can even attempt the shm fast path.
pub fn shm_supported() -> bool {
    cfg!(all(target_os = "linux", target_arch = "x86_64"))
}

/// One file-backed shared mapping; unmapped on drop. The file descriptor
/// is closed as soon as the mapping exists (mappings outlive both their
/// fd and the directory entry).
struct Segment {
    ptr: *mut u8,
    len: usize,
}

unsafe impl Send for Segment {}
unsafe impl Sync for Segment {}

impl Segment {
    /// Create (or truncate) `path` at `len` bytes and map it.
    fn create(path: &Path, len: usize) -> Result<Segment> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| Error::Codec(format!("create segment {}: {e}", path.display())))?;
        file.set_len(len as u64)
            .map_err(|e| Error::Codec(format!("size segment {}: {e}", path.display())))?;
        let ptr = sys::mmap_shared(&file, len)
            .map_err(|e| Error::Codec(format!("map segment {}: {e}", path.display())))?;
        Ok(Segment { ptr, len })
    }

    /// Map an existing segment file whole.
    fn open(path: &Path) -> Result<Segment> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| Error::Codec(format!("open segment {}: {e}", path.display())))?;
        let len = file
            .metadata()
            .map_err(|e| Error::Codec(format!("stat segment {}: {e}", path.display())))?
            .len() as usize;
        let ptr = sys::mmap_shared(&file, len)
            .map_err(|e| Error::Codec(format!("map segment {}: {e}", path.display())))?;
        Ok(Segment { ptr, len })
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        sys::munmap(self.ptr, self.len);
    }
}

// ---------------------------------------------------------------------------
// Placement identity and address advertisement
// ---------------------------------------------------------------------------

/// This machine's identity for co-location decisions: the
/// `PMRUN_HOST_ID` override if set (tests and the CI fallback check use
/// it to simulate a second host), else the kernel hostname, else
/// `"localhost"`.
pub fn host_id() -> String {
    if let Ok(id) = std::env::var("PMRUN_HOST_ID") {
        if !id.is_empty() {
            return id;
        }
    }
    hostname()
}

/// Best-effort machine hostname (also the worker host label in
/// `pmserve`'s `GET /workers`).
pub fn hostname() -> String {
    if let Ok(h) = std::env::var("HOSTNAME") {
        if !h.is_empty() {
            return h;
        }
    }
    if let Ok(h) = std::fs::read_to_string("/proc/sys/kernel/hostname") {
        let h = h.trim();
        if !h.is_empty() {
            return h.to_string();
        }
    }
    "localhost".to_string()
}

/// A rank's shm advertisement, parsed out of its rendezvous address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShmAd<'a> {
    /// Host identity the rank registered from.
    pub host: &'a str,
    /// Directory holding the rank's inbound segments.
    pub dir: &'a str,
}

/// Split a rendezvous table address into its dialable TCP part and the
/// optional shm advertisement (`"<addr>#shm:<host>:<dir>"`).
pub fn split_addr(addr: &str) -> (&str, Option<ShmAd<'_>>) {
    match addr.split_once("#shm:") {
        None => (addr, None),
        Some((tcp, rest)) => match rest.split_once(':') {
            // The dir may itself contain ':'; only the host is split off.
            Some((host, dir)) if !host.is_empty() && !dir.is_empty() => {
                (tcp, Some(ShmAd { host, dir }))
            }
            _ => (tcp, None),
        },
    }
}

/// The dialable TCP part of a (possibly shm-suffixed) table address.
pub fn tcp_part(addr: &str) -> &str {
    split_addr(addr).0
}

/// The segment file for ring `from → to` of world `epoch`, under the
/// *consumer's* advertised directory.
fn segment_path(dir: &Path, epoch: u64, from: usize, to: usize) -> PathBuf {
    dir.join(format!("e{epoch}-r{from}-to-r{to}.ring"))
}

/// The file holding rank `rank`'s inbound doorbell in world `epoch`,
/// beside its inbound segments.
fn bell_path(dir: &Path, epoch: u64, rank: usize) -> PathBuf {
    dir.join(format!("e{epoch}-r{rank}.bell"))
}

/// The doorbell in a mapped doorbell file.
fn bell_at(segment: Segment) -> Result<Bell> {
    if segment.len < CACHE_LINE {
        return Err(Error::Codec(format!(
            "doorbell segment of {} bytes is too small",
            segment.len
        )));
    }
    let ptr = segment.ptr;
    // SAFETY: the mapping is page-aligned and at least `CACHE_LINE` bytes
    // long, lives as long as the `Segment` handed over as its keeper, and
    // is only ever used as a doorbell.
    Ok(unsafe { Bell::at(ptr, Box::new(segment)) })
}

/// Which transport `provide` should establish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FabricMode {
    /// Shared memory when every rank is co-located (and the wire-chaos
    /// injector is unarmed — chaos exercises TCP machinery shm does not
    /// have); TCP otherwise.
    #[default]
    Auto,
    /// Always the TCP mesh.
    Tcp,
    /// Shared memory or an error — never a silent fallback.
    Shm,
}

impl FabricMode {
    /// Parse a `--fabric` / `PMRUN_FABRIC` value.
    pub fn parse(s: &str) -> Option<FabricMode> {
        match s {
            "auto" => Some(FabricMode::Auto),
            "tcp" => Some(FabricMode::Tcp),
            "shm" => Some(FabricMode::Shm),
            _ => None,
        }
    }

    /// The canonical flag spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            FabricMode::Auto => "auto",
            FabricMode::Tcp => "tcp",
            FabricMode::Shm => "shm",
        }
    }
}

/// Decide from a full rendezvous table whether this world can run over
/// shared memory: every rank must have advertised shm from the same
/// host. Pure so the fallback logic is unit-testable; every rank feeds
/// it the same table, so every rank reaches the same verdict.
pub fn all_colocated(table: &[String]) -> bool {
    let mut host: Option<&str> = None;
    for addr in table {
        match split_addr(addr).1 {
            None => return false,
            Some(ad) => match host {
                None => host = Some(ad.host),
                Some(h) if h == ad.host => {}
                Some(_) => return false,
            },
        }
    }
    !table.is_empty()
}

/// The receive side of one ring: a non-blocking frame decoder over its
/// [`Consumer`]. A record that sits whole in the ring is checked and
/// decoded in place in the mapping, or from a scratch copy when it wraps
/// past the ring's end; a record larger than the ring is copied out piece
/// by piece as it arrives. The length prefix comes from another process,
/// so it is checked as every frame reader checks it, before anything is
/// sized by it, and a large record's buffer grows by the readers' one
/// rule: with the bytes that actually arrived, not with the length it
/// claims.
pub struct RingFrames {
    consumer: Consumer,
    /// Reused for records that wrap.
    scratch: Vec<u8>,
    /// A record larger than the ring, being assembled: its header, room
    /// for its body, and the body bytes that arrived.
    large: Option<([u8; 8], Vec<u8>, usize)>,
}

impl RingFrames {
    /// Decode the frames that arrive through `consumer`.
    pub fn new(consumer: Consumer) -> RingFrames {
        RingFrames {
            consumer,
            scratch: Vec::new(),
            large: None,
        }
    }

    /// Bytes queued in the ring.
    pub fn queued(&self) -> usize {
        self.consumer.available()
    }

    /// The next frame, if the whole of it has arrived; `Ok(None)` if not
    /// yet. An error means the ring cannot be trusted again: a checksum
    /// mismatch (prefixed [`CRC_MISMATCH`]), a length over
    /// [`MAX_FRAME_LEN`](crate::frame::MAX_FRAME_LEN), a body that does
    /// not decode, or a ring its producer closed in the middle of a record.
    pub fn try_next(&mut self) -> Result<Option<Frame>> {
        // A ring seen closed before looking holds every byte it ever will.
        let closed = self.consumer.ring().is_closed();
        if self.large.is_none() {
            let mut head = [0u8; 8];
            if !self.consumer.peek(&mut head) {
                return if closed && self.consumer.available() > 0 {
                    Err(Error::Codec("EOF inside frame header".into()))
                } else {
                    Ok(None)
                };
            }
            let len = body_len(&head)?;
            if 8 + len <= self.consumer.ring().capacity() {
                return match self
                    .consumer
                    .try_pop_record(8 + len, &mut self.scratch, decode_frame)
                {
                    Some(frame) => frame.map(Some),
                    None if closed => Err(Error::Codec("EOF inside frame body".into())),
                    None => Ok(None),
                };
            }
            // It can never sit whole in the ring: copy it out as it comes.
            self.consumer.try_pop(&mut head);
            self.large = Some((head, Vec::new(), 0));
        }
        let (head, body, at) = self.large.as_mut().expect("assembling a large record");
        let len = body_len(head)?;
        while *at < len && self.consumer.available() > 0 {
            grow(body, *at, self.consumer.available(), len);
            *at += self.consumer.try_pop(&mut body[*at..]);
        }
        if *at < len {
            return if closed {
                Err(Error::Codec(format!(
                    "EOF inside frame body: {at}/{len} bytes arrived"
                )))
            } else {
                Ok(None)
            };
        }
        let (head, body, _) = self.large.take().expect("assembling a large record");
        decode_record(&head, &body).map(Some)
    }

    /// Has the producer closed the ring, with every byte of it consumed?
    pub fn at_eof(&self) -> bool {
        self.large.is_none() && self.consumer.ring().is_closed() && self.consumer.available() == 0
    }
}

/// The shared-memory side of a [`PeerMesh`]: one outbound ring per peer,
/// the inbound rings this rank drains, and the files awaiting their
/// producer's `Hello`.
pub struct ShmLink {
    /// Outbound rings, indexed by peer world rank (`None` at `me`), each
    /// behind a mutex because both the application thread and the
    /// heartbeat push to it.
    rings: Vec<Option<Mutex<Producer>>>,
    /// The inbound ring from each peer.
    inbound: Vec<InboundRing>,
    /// This rank's inbound doorbell, rung by every producer into it.
    bell: Bell,
    /// Files to unlink once their producer's `Hello` confirms it mapped
    /// them: each peer's inbound segment, and at `me` the doorbell, which
    /// goes with the last of them.
    inbound_paths: Mutex<Vec<Option<PathBuf>>>,
}

/// One peer's inbound ring, as the rank that drains it holds it.
struct InboundRing {
    peer: usize,
    /// For a look at the fill level without taking the lock.
    ring: Arc<SpscRing>,
    /// Drained by whichever thread takes the lock; the others skip it.
    /// `None` once the ring reached its end or was condemned.
    frames: Mutex<Option<RingFrames>>,
}

impl ShmLink {
    /// Unlink peer `peer`'s inbound segment (its `Hello` confirmed the
    /// mapping exists on both sides; the directory entry is now noise),
    /// and the doorbell file once every peer has mapped it.
    fn unlink_inbound(&self, me: usize, peer: usize) {
        let mut paths = self.inbound_paths.lock();
        let mut unlink = vec![paths[peer].take()];
        if paths
            .iter()
            .enumerate()
            .all(|(p, path)| p == me || path.is_none())
        {
            unlink.push(paths[me].take());
        }
        drop(paths);
        for path in unlink.into_iter().flatten() {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Move a ring endpoint's blocking-wait counters into the hub.
fn record_ring_stats(hub: &MetricsHub, lane: usize, stats: [(u64, u64); 2]) {
    let [(spins, parks), (spin_waits, park_waits)] = stats;
    for (id, n) in [
        (CounterId::ShmFullSpins, spins),
        (CounterId::ShmDoorbellParks, parks),
        (CounterId::SpscSpinWaits, spin_waits),
        (CounterId::SpscParkWaits, park_waits),
    ] {
        if n > 0 {
            hub.add(lane, id, n);
        }
    }
}

/// Count one push into `peer`'s ring and the waits it took.
fn record_push(mesh: &Mesh<ShmLink>, peer: usize, producer: &mut Producer, ok: bool) {
    if let Some(hub) = &mesh.obs.metrics {
        if ok {
            hub.incr(peer, CounterId::ShmSends);
        }
        let stats = [producer.take_stats(), producer.take_wait_stats()];
        record_ring_stats(hub, mesh.me, stats);
    }
}

impl Link for ShmLink {
    const PEER_TIMEOUT: Duration = SHM_PEER_TIMEOUT;
    const ESTABLISH_GRACE: Duration = SHM_ESTABLISH_GRACE;

    /// Push one record into the peer's ring, its head and payload copied
    /// straight in under the one producer lock, blocking while the ring is
    /// full and draining this rank's own inbound rings meanwhile — two
    /// ranks sending into each other's full rings would otherwise wait on
    /// each other for ever. `false` when the peer is already
    /// failed/finished or became so while the ring was full — so a full
    /// ring to a SIGKILL'd peer cannot wedge a send.
    fn write(
        &self,
        mesh: &Mesh<Self>,
        peer: usize,
        record: Pieces,
        _share: Option<&Bytes>,
        _sequenced: bool,
    ) -> bool {
        let Some(ring) = &self.rings[peer] else {
            return true;
        };
        if mesh.gone(peer) {
            return false;
        }
        let mut producer = ring.lock();
        let ok = producer
            .push_all(record, || {
                self.drain(mesh);
                mesh.gone(peer)
            })
            .is_ok();
        record_push(mesh, peer, &mut producer, ok);
        ok
    }

    /// Dropped rather than wait on a ring that is busy (a rank thread
    /// blocked in a send holds it) or full: the heartbeat thread is the
    /// rank's drain of last resort and must keep ticking.
    fn ping(&self, mesh: &Mesh<Self>, peer: usize, record: &[u8]) -> bool {
        let Some(ring) = &self.rings[peer] else {
            return true;
        };
        if mesh.gone(peer) {
            return false;
        }
        let Some(mut producer) = ring.try_lock() else {
            return false;
        };
        // The record fits whole or not at all: the lock is held, so the
        // free space can only grow.
        let ok = producer.free() >= record.len() && producer.try_push(record) > 0;
        record_push(mesh, peer, &mut producer, ok);
        ok
    }

    fn unacked(&self, _peer: usize) -> usize {
        0
    }

    fn close(&self, mesh: &Mesh<Self>) {
        // No drain: a completed `push_all` *is* delivery — the bytes sit
        // in the consumer's own mapping, which survives this process
        // arbitrarily outliving or predeceasing it. Close the outbound
        // rings (peers read Finish, then EOF); this rank drains nothing
        // once the mesh is closing, and anything peers send after our
        // Finish is droppable.
        for ring in self.rings.iter().flatten() {
            ring.lock().close();
        }
        // Inbound segments whose producer never confirmed its mapping
        // (a peer that died before Hello) would leak; sweep them now.
        for peer in (0..mesh.np).filter(|&p| p != mesh.me) {
            if mesh.failed[peer].load(Ordering::SeqCst) {
                self.unlink_inbound(mesh.me, peer);
            }
        }
    }

    fn cut(&self, _peer: usize) {
        // A verdict needs no ring action: `write` refuses failed peers.
    }

    fn probe(&self, _peer: usize) -> bool {
        false
    }

    fn control(&self, mesh: &Mesh<Self>, peer: usize, frame: Frame) {
        // Pings carry liveness only (no send ring to prune: nothing is
        // ever replayed); everything but Hello has no business on a ring.
        if let Frame::Hello { .. } = frame {
            self.unlink_inbound(mesh.me, peer);
        }
    }

    fn park(&self, _mesh: &Mesh<Self>) -> Park {
        Park::Bell(self.bell.clone())
    }

    /// Decode and dispatch every frame that has fully arrived on each
    /// inbound ring nobody else is draining. End of stream without a
    /// `Finish` first means the producer closed its ring mid-protocol; a
    /// decode error means the segment itself is damaged, which — like a
    /// CRC reject on a socket — fails the peer, except there is no resume
    /// to heal it. Either ends the ring. Once the mesh is closing, nothing
    /// is drained.
    fn drain(&self, mesh: &Mesh<Self>) {
        for InboundRing { peer, ring, frames } in &self.inbound {
            if mesh.closing.load(Ordering::SeqCst) {
                return;
            }
            if ring.is_empty() && !ring.is_closed() {
                continue;
            }
            let peer = *peer;
            let Some(mut slot) = frames.try_lock() else {
                continue;
            };
            let Some(frames) = slot.as_mut() else {
                continue;
            };
            // Every frame is at least a header long: this bounds the
            // drain by what was queued when it began, so a producer that
            // keeps writing cannot hold this thread here.
            let mut budget = frames.queued() / 8 + 1;
            let ended = loop {
                match frames
                    .try_next()
                    .and_then(|frame| frame.map(|f| mesh.handle_frame(peer, f)).transpose())
                {
                    Ok(Some(())) => {}
                    Ok(None) if frames.at_eof() => break Some(None),
                    Ok(None) => break None,
                    Err(e) => break Some(Some(e)),
                }
                budget -= 1;
                if budget == 0 {
                    break None;
                }
            };
            let Some(error) = ended else {
                continue;
            };
            *slot = None;
            drop(slot);
            if let (Some(e), Some(hub)) = (&error, &mesh.obs.metrics) {
                if e.to_string().contains(CRC_MISMATCH) {
                    hub.incr(mesh.me, CounterId::NetCrcRejects);
                }
            }
            let excused = error.is_none() && mesh.gone(peer);
            if !excused && !mesh.closing.load(Ordering::SeqCst) {
                mesh.note_failed(peer);
            }
        }
    }
}

/// One process's handle on a shared-memory world: the [`PeerMesh`] over
/// [`ShmLink`]s.
pub type ShmFabric = PeerMesh<ShmLink>;

impl PeerMesh<ShmLink> {
    /// Join world `spec` as rank `me` over shared memory, using an
    /// already-released rendezvous `table` whose entries all carry shm
    /// advertisements, and the inbound files this rank created before
    /// registering: `inbound.rings[peer]` is the ring peer writes into,
    /// and `inbound.bell` the doorbell every peer rings, each paired with
    /// its file path for the post-`Hello` unlink.
    fn from_table(
        me: usize,
        spec: &WorldSpec,
        table: &[String],
        inbound: InboundFiles,
    ) -> Result<ShmFabric> {
        // Map every peer's inbound segment as our outbound ring, and its
        // doorbell for the ring to ring. The files exist: each rank
        // creates them before registering, and the table only exists
        // once everyone has.
        let mut rings = Vec::with_capacity(spec.np);
        for (peer, addr) in table.iter().enumerate() {
            if peer == me {
                rings.push(None);
                continue;
            }
            let (_, ad) = split_addr(addr);
            let ad = ad.ok_or_else(|| {
                Error::Codec(format!("rank {peer} has no shm advertisement in {addr}"))
            })?;
            let path = segment_path(Path::new(ad.dir), spec.epoch, me, peer);
            let segment = Segment::open(&path)?;
            let (ptr, len) = (segment.ptr, segment.len);
            let ring = unsafe { SpscRing::attach_at(ptr, len, Some(Box::new(segment))) }
                .map_err(|e| Error::Codec(format!("attach ring {}: {e}", path.display())))?;
            let mut producer = ring.producer();
            let bell = Segment::open(&bell_path(Path::new(ad.dir), spec.epoch, peer))?;
            producer.set_bell(bell_at(bell)?);
            rings.push(Some(Mutex::new(producer)));
        }
        let (bell, bell_file) = inbound.bell;
        let mut inbound_paths = vec![None; spec.np];
        inbound_paths[me] = Some(bell_file);
        let mut inbound_rings = Vec::with_capacity(spec.np);
        for (peer, slot) in inbound.rings.into_iter().enumerate() {
            if let Some((ring, path)) = slot {
                inbound_paths[peer] = Some(path);
                inbound_rings.push(InboundRing {
                    peer,
                    frames: Mutex::new(Some(RingFrames::new(ring.consumer()))),
                    ring,
                });
            }
        }
        let link = ShmLink {
            rings,
            inbound: inbound_rings,
            bell,
            inbound_paths: Mutex::new(inbound_paths),
        };
        let mesh = PeerMesh::new(me, spec, link)?;
        // Announce: the Hello confirms this producer's mapping, letting
        // each consumer unlink the segment file behind it.
        mesh.inner.broadcast(&Frame::Hello {
            epoch: spec.epoch,
            rank: me as u64,
        });
        // Co-located ranks share the host clock, so the traced start gate
        // needs no offset correction here.
        mesh.start_gate(spec);
        Ok(mesh)
    }
}

// ---------------------------------------------------------------------------
// Establishment: advertise, register once, decide, build
// ---------------------------------------------------------------------------

/// The inbound side a rank creates before registering: one ring per
/// peer (`None` at its own rank) and its doorbell, each with its file.
struct InboundFiles {
    rings: Vec<Option<(Arc<SpscRing>, PathBuf)>>,
    bell: (Bell, PathBuf),
}

impl InboundFiles {
    /// Remove every file this rank created.
    fn cleanup(&self) {
        for (_, path) in self.rings.iter().flatten() {
            let _ = std::fs::remove_file(path);
        }
        let _ = std::fs::remove_file(&self.bell.1);
    }
}

/// Create rank `me`'s doorbell and inbound rings under `shm_dir`. On an
/// error, every file already created is removed.
fn create_inbound(shm_dir: &Path, me: usize, spec: &WorldSpec) -> Result<InboundFiles> {
    std::fs::create_dir_all(shm_dir)
        .map_err(|e| Error::Codec(format!("create shm dir {}: {e}", shm_dir.display())))?;
    let bell_file = bell_path(shm_dir, spec.epoch, me);
    let mut inbound = InboundFiles {
        rings: Vec::with_capacity(spec.np),
        bell: (
            bell_at(Segment::create(&bell_file, CACHE_LINE)?)?,
            bell_file,
        ),
    };
    let seg_len = spsc::segment_len(SHM_RING_CAPACITY);
    for peer in 0..spec.np {
        if peer == me {
            inbound.rings.push(None);
            continue;
        }
        let path = segment_path(shm_dir, spec.epoch, peer, me);
        match Segment::create(&path, seg_len) {
            Ok(segment) => {
                let (ptr, len) = (segment.ptr, segment.len);
                let ring = unsafe { SpscRing::init_at(ptr, len, Some(Box::new(segment))) };
                inbound.rings.push(Some((ring, path)));
            }
            Err(e) => {
                inbound.cleanup();
                return Err(e);
            }
        }
    }
    Ok(inbound)
}

/// The suffix a rank with inbound rings under `shm_dir` appends to its
/// registered address.
fn advertisement(host: &str, shm_dir: &Path) -> String {
    format!("#shm:{host}:{}", shm_dir.display())
}

/// Join world `spec` as rank `me` through the mode's preferred
/// transport. This is the one entry point `provide` uses for every
/// launched world, and it registers with the rendezvous exactly once:
///
/// * [`FabricMode::Tcp`] — the TCP mesh, no advertisement;
/// * [`FabricMode::Shm`] — rings or an error;
/// * [`FabricMode::Auto`] — rings when every rank is co-located and no
///   wire chaos is armed (chaos exercises reconnect/resume machinery
///   that shared memory, having no wire, does not possess), else TCP. A
///   rank whose rings cannot be made advertises plain TCP, which turns
///   the whole world to TCP.
///
/// Any error after registering is returned as it is: the epoch is
/// spent, and a second registration for it would wait out
/// [`REGISTER_TIMEOUT`](rendezvous::REGISTER_TIMEOUT) a second time.
pub fn establish(
    server: &str,
    me: usize,
    spec: &WorldSpec,
    chaos: Option<NetChaosPlan>,
    mode: FabricMode,
    shm_dir: &Path,
    host: &str,
) -> Result<Arc<dyn Fabric>> {
    let want_shm = match mode {
        FabricMode::Tcp => false,
        FabricMode::Shm => true,
        FabricMode::Auto => chaos.is_none() && shm_supported(),
    };
    // Created before registering, so the table's existence implies every
    // producer's target file exists.
    let inbound = match want_shm.then(|| create_inbound(shm_dir, me, spec)) {
        Some(Err(e)) if mode == FabricMode::Shm => return Err(e),
        // An Auto rank whose rings cannot be made advertises plain TCP.
        made => made.and_then(Result::ok),
    };
    let ad = inbound.as_ref().map(|_| advertisement(host, shm_dir));
    let registered = rendezvous::bind_and_register(server, me, spec, ad.as_deref());
    match (registered, inbound) {
        (Ok((listener, table)), Some(inbound)) if all_colocated(&table) => {
            drop(listener); // rings won; nobody will dial
            Ok(Arc::new(ShmFabric::from_table(me, spec, &table, inbound)?))
        }
        (registered, inbound) => {
            // No rings for this world: remove the segments nobody will map.
            if let Some(inbound) = inbound {
                inbound.cleanup();
            }
            let (listener, table) = registered?;
            if mode == FabricMode::Shm {
                return Err(Error::InvalidConfig(
                    "--fabric shm but the world's ranks are not all co-located \
                     (use --fabric auto to fall back to TCP)"
                        .to_string(),
                ));
            }
            let fabric = TcpFabric::from_table(listener, table, me, spec, chaos)?;
            Ok(Arc::new(fabric))
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use crate::mesh::tests::{env, recv_one, scratch_dir, shm_mesh_in, spec};
    use patternlets_mp::envelope::{Envelope, Payload};
    use patternlets_mp::status::{SourceSel, TagSel};
    use proptest::prelude::*;
    use std::time::Instant;

    /// An `n`-byte envelope from `src`, tagged `tag`.
    fn bulk(src: usize, tag: i32, n: usize) -> Envelope {
        Envelope {
            comm_id: 0,
            src,
            tag,
            type_name: "u8",
            count: n,
            payload: Payload::Bytes(bytes::Bytes::from(vec![src as u8; n])),
            seq: 0,
            needs_ack: false,
        }
    }

    /// Rank `me` of a one-host shm world whose segments live in `dir`:
    /// the rings, one registration and the ring mesh, as `establish`
    /// builds them.
    pub(crate) fn shm_rank(server: &str, me: usize, spec: &WorldSpec, dir: &Path) -> ShmFabric {
        let inbound = create_inbound(dir, me, spec).unwrap();
        let ad = advertisement("testhost", dir);
        let (_, table) = rendezvous::bind_and_register(server, me, spec, Some(&ad)).unwrap();
        assert!(
            all_colocated(&table),
            "one-host mesh decided not co-located"
        );
        ShmFabric::from_table(me, spec, &table, inbound).unwrap()
    }

    fn finish_all(fabrics: &[Arc<ShmFabric>]) {
        for (me, f) in fabrics.iter().enumerate() {
            f.finish(me);
        }
    }

    /// The eager-send teaching point: both ranks send first and receive
    /// second. Each 4 MiB send overflows the 1 MiB ring it goes into, so
    /// it completes only because a producer blocked on a full ring drains
    /// its own inbound rings meanwhile.
    #[test]
    fn crossing_sends_larger_than_the_rings_both_complete() {
        let dir = scratch_dir();
        let fabrics = shm_mesh_in(2, &dir);
        let big = 4 << 20;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for (me, fabric) in fabrics.iter().enumerate() {
                scope.spawn(move || {
                    fabric.deliver(me, 1 - me, bulk(me, 21, big), 0, false);
                    let got = recv_one(&**fabric, me, 1 - me, 21);
                    assert_eq!(got.payload.len(), big);
                });
            }
        });
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "took {:?}",
            start.elapsed()
        );
        finish_all(&fabrics);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A rank that makes no call for longer than the silence timeout is
    /// not declared failed: the heartbeat tick drains its rings, so the
    /// peers' pings are still heard — and what was queued for it is
    /// still there afterwards.
    #[test]
    fn a_rank_that_computes_is_not_declared_failed() {
        let dir = scratch_dir();
        let fabrics = shm_mesh_in(2, &dir);
        fabrics[1].deliver(1, 0, env(0, 1, 11, 0), 0, false);
        std::thread::sleep(SHM_PEER_TIMEOUT + Duration::from_millis(500));
        assert!(!fabrics[0].rank_failed(1) && !fabrics[1].rank_failed(0));
        assert_eq!(recv_one(&*fabrics[0], 0, 1, 11).tag, 11);
        finish_all(&fabrics);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Two threads of one rank park on its one doorbell; each wakes for
    /// its own message, whichever of them drains it.
    #[test]
    fn two_blocked_receives_of_one_rank_both_wake() {
        let dir = scratch_dir();
        let fabrics = shm_mesh_in(3, &dir);
        let start = Instant::now();
        std::thread::scope(|scope| {
            let waiters: Vec<_> = [1, 2]
                .map(|src| {
                    let fabric = &fabrics[0];
                    scope.spawn(move || recv_one(&**fabric, 0, src, 30 + src as i32).src)
                })
                .into();
            std::thread::sleep(Duration::from_millis(50));
            for src in [1, 2] {
                fabrics[src].deliver(src, 0, env(0, src, 30 + src as i32, 0), 0, false);
            }
            let got: Vec<usize> = waiters.into_iter().map(|h| h.join().unwrap()).collect();
            assert_eq!(got, [1, 2]);
        });
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "took {:?}",
            start.elapsed()
        );
        finish_all(&fabrics);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A probe drains: an arrived message is visible to `Comm::iprobe`'s
    /// mailbox probe at once, not at the next heartbeat tick.
    #[test]
    fn a_probe_sees_an_arrived_message_without_blocking() {
        let dir = scratch_dir();
        let fabrics = shm_mesh_in(2, &dir);
        fabrics[0].deliver(0, 1, env(0, 0, 12, 0), 0, false);
        let start = Instant::now();
        while fabrics[1]
            .mailbox(1)
            .probe(0, SourceSel::Rank(0), TagSel::Tag(12))
            .is_none()
        {
            assert!(
                start.elapsed() < Duration::from_millis(50),
                "probe never saw it"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        finish_all(&fabrics);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// No thread stands between a ring and its rank.
    #[test]
    fn no_reader_threads_run_after_establish() {
        let dir = scratch_dir();
        let fabrics = shm_mesh_in(3, &dir);
        for task in std::fs::read_dir("/proc/self/task").unwrap() {
            let comm =
                std::fs::read_to_string(task.unwrap().path().join("comm")).unwrap_or_default();
            assert!(
                !comm.starts_with("shm-reader"),
                "a reader thread runs: {comm}"
            );
        }
        finish_all(&fabrics);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Rank 0 writes `bytes` into its ring to rank 1 and closes it, as a
    /// damaged or hostile producer would; rank 1 must condemn it. Returns
    /// rank 1's CRC-reject count.
    fn garbage_from_rank_0(bytes: &[u8]) -> u64 {
        let dir = scratch_dir();
        let server = rendezvous::serve().unwrap().to_string();
        let hub = patternlets_metrics::MetricsHub::with_lanes(2);
        let fabrics: Vec<ShmFabric> = std::thread::scope(|scope| {
            let ranks: Vec<_> = (0..2)
                .map(|me| {
                    let (server, dir, hub) = (&server, &dir, hub.clone());
                    scope.spawn(move || {
                        let mut spec = spec(2, 0);
                        spec.metrics = (me == 1).then_some(hub);
                        shm_rank(server, me, &spec, dir)
                    })
                })
                .collect();
            ranks.into_iter().map(|h| h.join().unwrap()).collect()
        });
        {
            let ring = fabrics[0].inner.link.rings[1].as_ref().unwrap();
            let mut producer = ring.lock();
            producer.push_all(bytes, || false).unwrap();
            producer.close();
        }
        let start = Instant::now();
        while !fabrics[1].rank_failed(0) {
            fabrics[1].mailbox(1).progress();
            assert!(
                start.elapsed() < Duration::from_secs(2),
                "garbage went unnoticed"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        fabrics[1].finish(1);
        fabrics[0].sever();
        let _ = std::fs::remove_dir_all(dir);
        hub.snapshot().total(CounterId::NetCrcRejects)
    }

    #[test]
    fn a_checksum_mismatch_condemns_the_peer_and_is_counted() {
        let mut record = encode_frame(&Frame::Ping { seen: 3 });
        record[4] ^= 0x40;
        assert_eq!(garbage_from_rank_0(&record), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Whatever a producer leaves in the ring — any bytes, cut off
        /// anywhere — the consumer condemns it and does not panic.
        #[test]
        fn arbitrary_ring_bytes_condemn_the_peer(
            bytes in proptest::collection::vec(any::<u8>(), 1..600),
        ) {
            garbage_from_rank_0(&bytes);
        }
    }

    #[test]
    fn addresses_split_and_rejoin() {
        let (tcp, ad) = split_addr("127.0.0.1:4000#shm:hostA:/tmp/x:y");
        assert_eq!(tcp, "127.0.0.1:4000");
        let ad = ad.unwrap();
        assert_eq!(ad.host, "hostA");
        assert_eq!(ad.dir, "/tmp/x:y"); // dirs may contain colons
        assert_eq!(split_addr("127.0.0.1:4000"), ("127.0.0.1:4000", None));
        assert_eq!(tcp_part("127.0.0.1:1#shm:h:/d"), "127.0.0.1:1");
    }

    #[test]
    fn colocation_requires_everyone_on_one_host() {
        let same = vec![
            "a:1#shm:h1:/d".to_string(),
            "a:2#shm:h1:/e".to_string(), // different dirs are fine
        ];
        assert!(all_colocated(&same));
        let split_hosts = vec!["a:1#shm:h1:/d".to_string(), "a:2#shm:h2:/d".to_string()];
        assert!(!all_colocated(&split_hosts));
        let one_plain = vec!["a:1#shm:h1:/d".to_string(), "a:2".to_string()];
        assert!(!all_colocated(&one_plain));
        assert!(!all_colocated(&[]));
    }

    #[test]
    fn segment_files_are_unlinked_once_the_mesh_is_up() {
        let dir = scratch_dir();
        let fabrics = shm_mesh_in(2, &dir);
        // Both sides exchange Hellos at establish; within a moment every
        // segment file should be gone while the rings keep working.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let left = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
            if left == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{left} segment files still linked"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // The unlinked rings still deliver.
        fabrics[0].deliver(0, 1, env(0, 0, 4, 0), 0, false);
        assert_eq!(recv_one(&*fabrics[1], 1, 0, 4).tag, 4);
        for (me, f) in fabrics.iter().enumerate() {
            f.finish(me);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn silent_peer_is_declared_failed_by_heartbeat() {
        let dir = scratch_dir();
        let fabrics = shm_mesh_in(3, &dir);
        // Rank 0 "dies": no Finish, no ring close — only heartbeat
        // silence, exactly the signature a SIGKILL leaves behind.
        fabrics[0].sever();
        let deadline = Instant::now() + SHM_PEER_TIMEOUT + Duration::from_secs(5);
        for survivor in [1, 2] {
            while !fabrics[survivor].rank_failed(0) {
                assert!(Instant::now() < deadline, "heartbeat verdict never arrived");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        assert!(!fabrics[1].rank_failed(2), "survivors stay unfailed");
        for me in [1, 2] {
            fabrics[me].finish(me);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn auto_falls_back_to_tcp_when_hosts_differ() {
        let server = rendezvous::serve().unwrap().to_string();
        let dir = scratch_dir();
        let handles: Vec<_> = (0..2)
            .map(|me| {
                let server = server.clone();
                let dir = dir.clone();
                std::thread::spawn(move || {
                    // Each rank claims a different host: auto must fall
                    // back to the TCP mesh on both sides.
                    establish(
                        &server,
                        me,
                        &spec(2, 6),
                        None,
                        FabricMode::Auto,
                        &dir,
                        &format!("host-{me}"),
                    )
                    .unwrap()
                })
            })
            .collect();
        let fabrics: Vec<Arc<dyn Fabric>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        // The fallback mesh still delivers (over sockets).
        fabrics[0].deliver(0, 1, env(0, 0, 8, 0), 0, false);
        assert_eq!(recv_one(fabrics[1].as_ref(), 1, 0, 8).tag, 8);
        // And the pre-created segments were cleaned up.
        let leftover = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        assert_eq!(leftover, 0, "fallback must remove its segment files");
        for (me, f) in fabrics.iter().enumerate() {
            f.finish(me);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn explicit_shm_mode_refuses_split_hosts() {
        let server = rendezvous::serve().unwrap().to_string();
        let dir = scratch_dir();
        let handles: Vec<_> = (0..2)
            .map(|me| {
                let server = server.clone();
                let dir = dir.clone();
                std::thread::spawn(move || {
                    establish(
                        &server,
                        me,
                        &spec(2, 7),
                        None,
                        FabricMode::Shm,
                        &dir,
                        &format!("island-{me}"),
                    )
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap().is_err(), "shm mode must not fall back");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn large_payloads_stream_through_a_smaller_ring() {
        let dir = scratch_dir();
        let fabrics = shm_mesh_in(2, &dir);
        // 4 MiB payload through 1 MiB rings: must stream, not wedge.
        let big = vec![0xABu8; 4 << 20];
        let payload = Payload::Bytes(bytes::Bytes::from(big.clone()));
        let sender = {
            let f = Arc::clone(&fabrics[0]);
            std::thread::spawn(move || {
                f.deliver(
                    0,
                    1,
                    Envelope {
                        comm_id: 0,
                        src: 0,
                        tag: 3,
                        type_name: "u8",
                        count: big.len(),
                        payload,
                        seq: 0,
                        needs_ack: false,
                    },
                    0,
                    false,
                );
            })
        };
        let got = recv_one(&*fabrics[1], 1, 0, 3);
        assert_eq!(got.payload.len(), 4 << 20);
        sender.join().unwrap();
        for (me, f) in fabrics.iter().enumerate() {
            f.finish(me);
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
