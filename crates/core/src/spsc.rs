//! Lock-free single-producer / single-consumer byte ring.
//!
//! This is the primitive under two fast paths (FastFlow builds its whole
//! pattern runtime on queues of exactly this shape):
//!
//! * the **shm fabric** (`patternlets-net`): one ring per directed peer
//!   pair lives in a memory-mapped file, and whole wire frames
//!   (`[len][crc][body]`, unchanged from the TCP codec) stream through
//!   it without a syscall on the hot path;
//! * the **stream executor** (`patternlets-stream`): 1:1 pipeline edges
//!   reuse the same head/tail/doorbell discipline with typed slots.
//!
//! The ring is a power-of-nothing byte queue: `head` and `tail` are
//! *monotonic* byte counts (they never wrap; positions are `idx % cap`),
//! so `tail - head` is the fill level with no full/empty ambiguity and
//! no reserved slot. The producer owns `tail` and reads `head` with
//! `Acquire`; the consumer owns `head` and reads `tail` with `Acquire`;
//! each publishes its own counter with `Release` *after* the byte copy.
//! That pair of edges is the entire correctness argument: bytes are
//! written before the tail that covers them is visible, and consumed
//! before the head that frees them is visible (DESIGN.md §13 spells it
//! out).
//!
//! Blocking is a three-phase spin → yield → park ladder, written once in
//! [`wait`] and climbed by both ring endpoints here and by the typed
//! pipeline edge in `patternlets-stream`. Phase one is a
//! short `spin_loop` burst — but only when more than one hardware thread
//! exists ([`spin_budget`] resolves to zero on a single-CPU host, where
//! the peer cannot make progress while we burn the core). Phase two is a
//! bounded run of `yield_now` calls: on one CPU a yield hands the core
//! straight to the peer (~0.7 µs round trip measured on the CI host)
//! where a futex park/wake costs ~5 µs, so a busy peer is almost always
//! caught here. Only then comes the **doorbell** — the waiter arms it,
//! re-checks the counters (closing the arm-check race), and sleeps on a
//! futex with a short timeout. The other side pays a wake syscall only
//! when it finds the bell armed, so the uncontended fast path stays
//! atomic loads, one store and one fence. Futexes work on shared
//! mappings, so the same doorbell parks ranks in different processes;
//! on platforms without the raw syscall the doorbell degrades to a
//! bounded sleep-poll with identical semantics.
//!
//! The timeout matters: a blocked side wakes every [`PARK_NS`] even
//! without a bell, which is what lets callers interleave liveness checks
//! (is the peer SIGKILLed?) into an otherwise indefinite wait — the
//! `abort` closure on [`Producer::push_all`] is evaluated at least at
//! that cadence.
//!
//! A consumer that serves many rings parks on one [`Bell`] instead of
//! each ring's own doorbell: every producer into it is pointed at the
//! shared word with [`Producer::set_bell`], and the consumer polls its
//! rings without blocking — [`Consumer::peek`] for a record's header,
//! [`Consumer::try_pop_record`] for the whole record, handed over in
//! place unless it wraps. [`Park`] names that choice for a waiter that
//! drains its transport itself: the ladder on such a shared [`Bell`], or,
//! for a transport whose every re-check is a syscall (sockets), a sleep in
//! the transport's own poll with no spin or yield first.

use std::io;
use std::mem::size_of;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cache line size the header is padded to (x86_64; a safe overestimate
/// elsewhere).
pub const CACHE_LINE: usize = 64;

/// First header word: identifies an initialized ring segment.
pub const RING_MAGIC: u64 = 0x5041_5452_4c52_494e; // "PATRLRIN"

/// Spins before parking. Deliberately small: on a single-CPU host (CI)
/// the peer cannot make progress while we spin, so long spins only burn
/// the quantum.
const SPIN: u32 = 64;

/// `yield_now` calls between spinning and parking. On one hardware
/// thread a yield hands the core straight to the peer (~0.7 µs round
/// trip measured on the CI host) where a futex park/wake costs ~5 µs —
/// so a busy peer is almost always caught in this phase, and the futex
/// doorbell is the backstop for genuinely idle rings, not the common
/// case. Bounded, so an idle wait still reaches the park (and with it
/// the liveness checks) in a handful of microseconds.
const YIELDS: u32 = 32;

/// The spin budget, resolved once per process: [`SPIN`] when another
/// hardware thread could be filling/draining the ring concurrently,
/// zero on a single-CPU host — there, the peer *cannot* run while we
/// spin, so every spin iteration only delays the yield that would hand
/// it the core.
pub fn spin_budget() -> u32 {
    static BUDGET: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *BUDGET.get_or_init(|| {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cpus > 1 {
            SPIN
        } else {
            0
        }
    })
}

/// Doorbell park timeout in nanoseconds. Bounds how stale a liveness
/// check (`abort` / stop flag) can be while blocked, and caps the lost-
/// wakeup window on fallback platforms.
pub const PARK_NS: u64 = 1_000_000;

/// What one [`wait`] cost.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Wait {
    /// Spin-loop and `yield_now` iterations taken.
    pub spins: u64,
    /// Doorbell parks taken.
    pub parks: u64,
}

impl Wait {
    /// Did the wait reach the doorbell? A wait that parked counts as a
    /// park wait; one that resolved while spinning or yielding, as a spin
    /// wait.
    pub fn parked(&self) -> bool {
        self.parks > 0
    }
}

impl std::ops::AddAssign for Wait {
    fn add_assign(&mut self, other: Wait) {
        self.spins += other.spins;
        self.parks += other.parks;
    }
}

/// Block until `ready()` holds, climbing the spin → yield → park ladder
/// (see the module docs). `ready` is re-checked after every spin and
/// yield, and between announcing a park on `bell` and taking it — which
/// closes the race with a waker that changed state just before the
/// announcement. The waking side must ring `bell` after every state
/// change `ready` reads. Call it only once `ready()` has been seen false:
/// the returned cost then always counts at least one spin or park.
pub fn wait(bell: &Doorbell, ready: impl Fn() -> bool) -> Wait {
    ladder(bell, ready, None)
}

/// [`wait`], but give up once the wait has been parked for `timeout`, so
/// the caller can re-check, at that cadence, what `ready` does not read
/// (has a peer died?). The caller tells the two outcomes apart by
/// checking `ready`'s state again.
pub fn wait_for(bell: &Doorbell, ready: impl Fn() -> bool, timeout: Duration) -> Wait {
    ladder(bell, ready, Some(timeout))
}

/// How a waiter that drains its transport itself sleeps between drains.
pub enum Park {
    /// Climb the spin → yield → park ladder on this doorbell, which every
    /// producer into the waiter rings (shared-memory rings: a re-check is
    /// a few loads).
    Bell(Bell),
    /// Sleep once in the transport's own poll, until it has something to
    /// drain or for the transport's park interval at most, with no spin or
    /// yield first: every re-check is a syscall (sockets, parked in
    /// `poll(2)`). Nothing but the transport wakes it early, so a state
    /// change that no bytes announce is seen within one park interval.
    Poll(Box<dyn Fn() + Send + Sync>),
}

impl Park {
    /// Block until `ready()` holds, or — with a `timeout` — until the wait
    /// has been parked that long. Call it only once `ready()` has been seen
    /// false, as with [`wait`].
    pub fn wait(&self, ready: impl Fn() -> bool, timeout: Option<Duration>) -> Wait {
        let sleep = match self {
            Park::Bell(bell) => return ladder(bell, ready, timeout),
            Park::Poll(sleep) => sleep,
        };
        let mut cost = Wait::default();
        let give_up = timeout.map(|t| Instant::now() + t);
        loop {
            cost.parks += 1;
            sleep();
            if ready() || give_up.is_some_and(|at| Instant::now() >= at) {
                return cost;
            }
        }
    }
}

fn ladder(bell: &Doorbell, ready: impl Fn() -> bool, timeout: Option<Duration>) -> Wait {
    let mut cost = Wait::default();
    let spin = spin_budget();
    for i in 0..spin + YIELDS {
        cost.spins += 1;
        if i < spin {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
        if ready() {
            return cost;
        }
    }
    // The clock is read only once the wait parks.
    let give_up = timeout.map(|t| Instant::now() + t);
    loop {
        let parking = bell.prepare_park();
        if ready() {
            return cost;
        }
        cost.parks += 1;
        bell.park(parking, PARK_NS);
        if give_up.is_some_and(|at| Instant::now() >= at) {
            return cost;
        }
    }
}

/// An endpoint's blocking-wait counters since its last `take_*` call.
#[derive(Default)]
struct WaitStats {
    /// Spin-loop and yield iterations.
    spins: u64,
    /// Doorbell parks.
    parks: u64,
    /// Blocked calls that resolved without parking.
    spin_waits: u64,
    /// Blocked calls that parked at least once.
    park_waits: u64,
}

impl WaitStats {
    /// Fold in the waits of one blocking call. With `episode`, the call
    /// also counts once as a spin or a park wait, by whether any of its
    /// waits parked — the mailbox's RecvSpin/RecvPark split.
    fn record(&mut self, cost: Wait, episode: bool) {
        self.spins += cost.spins;
        self.parks += cost.parks;
        if episode && cost.parked() {
            self.park_waits += 1;
        } else if episode && cost.spins > 0 {
            self.spin_waits += 1;
        }
    }

    fn take_stats(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.spins),
            std::mem::take(&mut self.parks),
        )
    }

    fn take_wait_stats(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.spin_waits),
            std::mem::take(&mut self.park_waits),
        )
    }
}

// ---------------------------------------------------------------------------
// Futex doorbell
// ---------------------------------------------------------------------------

/// Raw futex syscalls on Linux/x86_64 (the vendored dependency set has no
/// `libc`, so the two calls this module needs are inlined); a bounded
/// sleep elsewhere. No `FUTEX_PRIVATE_FLAG`: doorbells live in shared
/// mappings and must cross process boundaries.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    use std::sync::atomic::AtomicU32;

    const SYS_FUTEX: u64 = 202;
    const FUTEX_WAIT: u64 = 0;
    const FUTEX_WAKE: u64 = 1;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// Sleep until `word != expected`, a wake arrives, or `timeout_ns`
    /// elapses — whichever first. Spurious returns are fine; callers
    /// re-check state in a loop.
    pub fn futex_wait(word: &AtomicU32, expected: u32, timeout_ns: u64) {
        let ts = Timespec {
            tv_sec: (timeout_ns / 1_000_000_000) as i64,
            tv_nsec: (timeout_ns % 1_000_000_000) as i64,
        };
        unsafe {
            let mut _ret: i64;
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_FUTEX => _ret,
                in("rdi") word.as_ptr(),
                in("rsi") FUTEX_WAIT,
                in("rdx") expected as u64,
                in("r10") &ts as *const Timespec,
                in("r8") 0u64,
                in("r9") 0u64,
                out("rcx") _,
                out("r11") _,
                options(nostack)
            );
        }
    }

    /// Wake up to `n` waiters parked on `word`.
    pub fn futex_wake(word: &AtomicU32, n: u32) {
        unsafe {
            let mut _ret: i64;
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_FUTEX => _ret,
                in("rdi") word.as_ptr(),
                in("rsi") FUTEX_WAKE,
                in("rdx") n as u64,
                in("r10") 0u64,
                in("r8") 0u64,
                in("r9") 0u64,
                out("rcx") _,
                out("r11") _,
                options(nostack)
            );
        }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::time::Duration;

    /// Fallback: bounded sleep-poll. The doorbell protocol already
    /// re-checks state after every return, so a missed wake costs at
    /// most one short sleep, never a hang.
    pub fn futex_wait(word: &AtomicU32, expected: u32, timeout_ns: u64) {
        if word.load(Ordering::SeqCst) != expected {
            return;
        }
        std::thread::sleep(Duration::from_nanos(timeout_ns.min(200_000)));
    }

    pub fn futex_wake(_word: &AtomicU32, _n: u32) {}
}

/// One direction of the spin-then-park protocol, for any number of
/// waiters sharing it: a futex word holding a ring sequence and an
/// *armed* bit. A waiter arms the bell before its re-check and sleeps on
/// the word it saw; a ring clears the bit and bumps the sequence, so
/// every waiter armed before it wakes, and pays a futex syscall only when
/// the bit was set — once per wake-up, however many rings follow before
/// the waiter runs.
///
/// Wait side: [`prepare_park`](Doorbell::prepare_park) → re-check the
/// guarding condition → [`park`](Doorbell::park), or nothing if the
/// condition flipped. Wake side: [`ring`](Doorbell::ring) after every
/// state change a waiter could be blocked on.
///
/// No waiter ever disarms the bell, which is what keeps one waiter from
/// cancelling another's announcement: a waiter that stood down or timed
/// out (or died parked, on a shared mapping) leaves it armed, and the next
/// ring pays for one wake nobody needed.
#[repr(C)]
pub struct Doorbell {
    /// The ring sequence above [`ARMED`].
    word: AtomicU32,
}

/// The [`Doorbell`] word's low bit: a waiter is, or may be, asleep.
const ARMED: u32 = 1;

/// What a waiter armed with [`Doorbell::prepare_park`] sleeps on: the
/// word it saw.
pub struct Parking(u32);

impl Doorbell {
    /// A fresh, unarmed doorbell.
    pub const fn new() -> Doorbell {
        Doorbell {
            word: AtomicU32::new(0),
        }
    }

    /// Announce intent to sleep. Must be followed by a re-check of the
    /// condition being waited on, *then* [`park`](Doorbell::park): the
    /// arm-before-recheck order (a full fence on both sides) closes the
    /// race with a waker that changed state just before the announcement.
    #[inline]
    pub fn prepare_park(&self) -> Parking {
        Parking(self.word.fetch_or(ARMED, Ordering::SeqCst) | ARMED)
    }

    /// Sleep until rung or `timeout_ns` elapses — not at all if a ring
    /// came since [`prepare_park`](Doorbell::prepare_park). Spurious
    /// wakeups are expected.
    #[inline]
    pub fn park(&self, parking: Parking, timeout_ns: u64) {
        sys::futex_wait(&self.word, parking.0, timeout_ns);
    }

    /// Wake every waiter, if the bell is armed. Returns whether a wake
    /// syscall was issued.
    #[inline]
    pub fn ring(&self) -> bool {
        // Order the caller's state change before reading the word: the
        // other half of the waiter's arm-then-recheck.
        std::sync::atomic::fence(Ordering::SeqCst);
        let mut word = self.word.load(Ordering::Relaxed);
        while word & ARMED != 0 {
            // Adding one to an armed word clears the bit and carries into
            // the sequence.
            match self.word.compare_exchange_weak(
                word,
                word.wrapping_add(1),
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    sys::futex_wake(&self.word, i32::MAX as u32);
                    return true;
                }
                Err(now) => word = now,
            }
        }
        false
    }
}

impl Default for Doorbell {
    fn default() -> Self {
        Doorbell::new()
    }
}

/// A shared handle on a [`Doorbell`] that may live in memory this module
/// does not own — one word of a shared mapping, rung by producers in
/// other processes. Clones share the word.
#[derive(Clone)]
pub struct Bell {
    bell: *const Doorbell,
    /// Whatever owns the word (an mmap guard).
    _keep: Arc<dyn std::any::Any + Send + Sync>,
}

// SAFETY: `bell` points into memory that `_keep` (itself `Send + Sync`)
// keeps alive for as long as any clone exists, and the word is only ever
// accessed through the doorbell's atomics.
unsafe impl Send for Bell {}
unsafe impl Sync for Bell {}

impl Bell {
    /// The doorbell at the start of `mem`.
    ///
    /// # Safety
    /// `mem` must point to `size_of::<Doorbell>()` writable bytes, 4-aligned, that
    /// stay valid for as long as `keep` is alive and are only ever
    /// accessed as a doorbell.
    pub unsafe fn at(mem: *mut u8, keep: Box<dyn std::any::Any + Send + Sync>) -> Bell {
        assert_eq!(mem as usize % 4, 0, "doorbell must be 4-aligned");
        Bell {
            bell: mem as *const Doorbell,
            _keep: Arc::from(keep),
        }
    }
}

impl std::ops::Deref for Bell {
    type Target = Doorbell;

    fn deref(&self) -> &Doorbell {
        // SAFETY: `Bell::at`'s caller guaranteed a 4-aligned doorbell word
        // valid while `_keep` lives, and `self` holds `_keep`.
        unsafe { &*self.bell }
    }
}

// ---------------------------------------------------------------------------
// Ring header
// ---------------------------------------------------------------------------

/// The control block at the start of every ring segment. `#[repr(C)]`
/// with each mutable word on its own cache line, so producer and
/// consumer never false-share: the producer writes only `tail` and rings
/// `consumer_bell`; the consumer writes only `head` and rings
/// `producer_bell`.
#[repr(C)]
struct Header {
    /// [`RING_MAGIC`] once initialized — attachers refuse anything else.
    magic: AtomicU64,
    /// Data capacity in bytes (the segment is `HEADER_BYTES + capacity`).
    capacity: AtomicU64,
    /// Producer set this and will write no more bytes. Consumer-side EOF
    /// once drained.
    closed: AtomicU32,
    _pad0: [u8; CACHE_LINE - 20],
    /// Monotonic count of bytes ever written (producer-owned).
    tail: AtomicU64,
    _pad1: [u8; CACHE_LINE - 8],
    /// Monotonic count of bytes ever read (consumer-owned).
    head: AtomicU64,
    _pad2: [u8; CACHE_LINE - 8],
    /// Rung by the producer when the consumer parked on "ring empty".
    consumer_bell: Doorbell,
    _pad3: [u8; CACHE_LINE - size_of::<Doorbell>()],
    /// Rung by the consumer when the producer parked on "ring full".
    producer_bell: Doorbell,
    _pad4: [u8; CACHE_LINE - size_of::<Doorbell>()],
}

/// Bytes of segment space the header occupies before ring data starts.
pub const HEADER_BYTES: usize = 5 * CACHE_LINE;
const _: () = assert!(size_of::<Header>() == HEADER_BYTES);

/// Total segment length for a ring holding `capacity` data bytes.
pub fn segment_len(capacity: usize) -> usize {
    HEADER_BYTES + capacity
}

// ---------------------------------------------------------------------------
// The ring
// ---------------------------------------------------------------------------

/// A view of one SPSC ring over caller-provided memory (a shared mmap, or
/// a heap buffer from [`SpscRing::heap`]). Clone the `Arc` and split into
/// the two endpoint handles with [`producer`](SpscRing::producer) /
/// [`consumer`](SpscRing::consumer); the SPSC contract (at most one live
/// handle of each kind actively used at a time) is the caller's to keep.
pub struct SpscRing {
    base: *mut u8,
    capacity: usize,
    /// Whatever owns the memory (an mmap guard, a heap box) — dropped
    /// with the last ring handle.
    _keep: Option<Box<dyn std::any::Any + Send + Sync>>,
}

// The raw pointers are into memory owned (or co-owned) by `_keep`; all
// access goes through atomics and disjoint producer/consumer regions.
unsafe impl Send for SpscRing {}
unsafe impl Sync for SpscRing {}

impl SpscRing {
    /// Initialize a fresh ring in `mem`, whose length must be
    /// `segment_len(capacity)` for the desired capacity (any size ≥ 1;
    /// no power-of-two requirement — positions are full-width counters).
    ///
    /// # Safety
    /// `mem` must point to at least `len` writable bytes, 8-aligned,
    /// that stay valid for as long as `keep` is alive; no other ring may
    /// be initialized over the same memory while this one lives.
    pub unsafe fn init_at(
        mem: *mut u8,
        len: usize,
        keep: Option<Box<dyn std::any::Any + Send + Sync>>,
    ) -> Arc<SpscRing> {
        assert!(len > HEADER_BYTES, "segment too small for a ring header");
        assert_eq!(mem as usize % 8, 0, "ring segment must be 8-aligned");
        let capacity = len - HEADER_BYTES;
        // Zero the header region, then stamp capacity and (last, Release)
        // the magic — an attacher that sees the magic sees the rest.
        std::ptr::write_bytes(mem, 0, HEADER_BYTES);
        let hdr = &*(mem as *const Header);
        hdr.capacity.store(capacity as u64, Ordering::SeqCst);
        hdr.magic.store(RING_MAGIC, Ordering::SeqCst);
        Arc::new(SpscRing {
            base: mem,
            capacity,
            _keep: keep,
        })
    }

    /// Attach to a ring some other process (or handle) initialized in
    /// `mem`. Fails if the magic or capacity don't line up — an
    /// un-initialized or truncated segment, not a ring.
    ///
    /// # Safety
    /// Same aliasing/lifetime contract as [`init_at`](SpscRing::init_at).
    pub unsafe fn attach_at(
        mem: *mut u8,
        len: usize,
        keep: Option<Box<dyn std::any::Any + Send + Sync>>,
    ) -> Result<Arc<SpscRing>, String> {
        if len <= HEADER_BYTES {
            return Err(format!("segment of {len} bytes is too small for a ring"));
        }
        if !(mem as usize).is_multiple_of(8) {
            return Err("ring segment must be 8-aligned".to_string());
        }
        let hdr = &*(mem as *const Header);
        if hdr.magic.load(Ordering::SeqCst) != RING_MAGIC {
            return Err("segment is not an initialized ring (bad magic)".to_string());
        }
        let capacity = hdr.capacity.load(Ordering::SeqCst) as usize;
        if capacity != len - HEADER_BYTES {
            return Err(format!(
                "ring capacity {capacity} does not match segment length {len}"
            ));
        }
        Ok(Arc::new(SpscRing {
            base: mem,
            capacity,
            _keep: keep,
        }))
    }

    /// A heap-backed ring (tests, benches, and the in-process fast path).
    pub fn heap(capacity: usize) -> Arc<SpscRing> {
        assert!(capacity >= 1, "ring capacity must be at least 1");
        let len = segment_len(capacity);
        // 8-aligned backing store; Box<[u64]> keeps the allocation alive.
        let mut words = vec![0u64; len.div_ceil(8)].into_boxed_slice();
        let mem = words.as_mut_ptr() as *mut u8;
        unsafe { SpscRing::init_at(mem, len, Some(Box::new(words))) }
    }

    /// Ring data capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn hdr(&self) -> &Header {
        unsafe { &*(self.base as *const Header) }
    }

    #[inline]
    fn data(&self) -> *mut u8 {
        unsafe { self.base.add(HEADER_BYTES) }
    }

    /// Copy `src` into the data region from byte count `at` on, wrapping
    /// past the end. Only the producer calls it, for room it saw free.
    #[inline]
    fn copy_in(&self, at: u64, src: &[u8]) {
        let pos = (at % self.capacity as u64) as usize;
        let first = src.len().min(self.capacity - pos);
        // SAFETY: `pos + first <= capacity` and `src.len() - first <=
        // pos`, so both copies stay in the data region, and the caller
        // has seen `src.len()` bytes from `at` free: the consumer reads
        // none of them until a tail store covers them.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.data().add(pos), first);
            std::ptr::copy_nonoverlapping(src.as_ptr().add(first), self.data(), src.len() - first);
        }
    }

    /// Bytes currently queued (a racy snapshot; exact only from an
    /// endpoint's own thread).
    pub fn len(&self) -> usize {
        let hdr = self.hdr();
        (hdr.tail.load(Ordering::Acquire) - hdr.head.load(Ordering::Acquire)) as usize
    }

    /// Whether the ring is currently empty (same snapshot caveat).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the producer has closed the ring (bytes may remain).
    pub fn is_closed(&self) -> bool {
        self.hdr().closed.load(Ordering::SeqCst) != 0
    }

    /// The producer endpoint.
    pub fn producer(self: &Arc<Self>) -> Producer {
        Producer {
            ring: Arc::clone(self),
            bell: None,
            stats: WaitStats::default(),
        }
    }

    /// The consumer endpoint.
    pub fn consumer(self: &Arc<Self>) -> Consumer {
        Consumer {
            ring: Arc::clone(self),
            stats: WaitStats::default(),
        }
    }
}

/// One record as two pieces, written back to back: its head and its
/// payload, each still where its writer left it (a peer mesh hands its
/// links every record this way). [`Producer::push_all`] copies both into
/// the ring, so the record is never joined into one buffer on its way.
/// Any single byte slice converts to a head with an empty payload.
#[derive(Debug, Clone, Copy)]
pub struct Pieces<'a> {
    /// The record's first bytes.
    pub head: &'a [u8],
    /// The bytes after the head; empty for a record that is all head.
    pub payload: &'a [u8],
}

impl<'a> Pieces<'a> {
    /// `head`, then `payload`.
    pub fn new(head: &'a [u8], payload: &'a [u8]) -> Self {
        Pieces { head, payload }
    }

    /// Bytes in both pieces.
    fn len(&self) -> usize {
        self.head.len() + self.payload.len()
    }

    /// Drop the first `n` bytes, crossing from the head into the payload.
    fn advance(&mut self, n: usize) {
        let from_head = n.min(self.head.len());
        self.head = &self.head[from_head..];
        self.payload = &self.payload[n - from_head..];
    }
}

impl<'a, T: AsRef<[u8]> + ?Sized> From<&'a T> for Pieces<'a> {
    fn from(bytes: &'a T) -> Self {
        Pieces::new(bytes.as_ref(), &[])
    }
}

/// Why a blocking push gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The `abort` predicate returned true while the ring was full
    /// (typically: the peer was declared dead).
    Aborted,
}

/// The writing half. Owns `tail`; the only party that may
/// [`close`](Producer::close) the ring.
pub struct Producer {
    ring: Arc<SpscRing>,
    /// Rung after publishing instead of the ring's consumer doorbell.
    bell: Option<Bell>,
    /// Waits on a full ring.
    stats: WaitStats,
}

impl Producer {
    /// Ring `bell` after publishing, instead of the ring's own consumer
    /// doorbell: for a consumer that parks on one doorbell for all of its
    /// rings (the shm fabric's per-rank inbound doorbell).
    pub fn set_bell(&mut self, bell: Bell) {
        self.bell = Some(bell);
    }

    /// The doorbell the consumer waits on.
    fn consumer_bell(&self) -> &Doorbell {
        self.bell
            .as_deref()
            .unwrap_or(&self.ring.hdr().consumer_bell)
    }

    /// Bytes currently free.
    pub fn free(&self) -> usize {
        let hdr = self.ring.hdr();
        let head = hdr.head.load(Ordering::Acquire);
        let tail = hdr.tail.load(Ordering::Relaxed);
        self.ring.capacity - (tail - head) as usize
    }

    /// Write as much of `buf` as currently fits; returns bytes written.
    /// Publishes the new tail (Release) and rings the consumer doorbell
    /// once per call, so batch writers pay one bell per batch.
    pub fn try_push(&mut self, buf: &[u8]) -> usize {
        self.write_some(&mut Pieces::from(buf))
    }

    /// Write as much of `pieces` as currently fits, both pieces in one
    /// step, and drop what was written from them; returns bytes written.
    /// One tail store and one bell, whether the bytes came from one piece
    /// or two.
    fn write_some(&mut self, pieces: &mut Pieces) -> usize {
        let hdr = self.ring.hdr();
        let head = hdr.head.load(Ordering::Acquire);
        let tail = hdr.tail.load(Ordering::Relaxed);
        let free = self.ring.capacity - (tail - head) as usize;
        let n = free.min(pieces.len());
        if n == 0 {
            return 0;
        }
        let split = n.min(pieces.head.len());
        self.ring.copy_in(tail, &pieces.head[..split]);
        self.ring
            .copy_in(tail + split as u64, &pieces.payload[..n - split]);
        pieces.advance(n);
        hdr.tail.store(tail + n as u64, Ordering::Release);
        self.consumer_bell().ring();
        n
    }

    /// Write all of `pieces` — one slice, or a record's head and payload
    /// back to back — spin-then-parking whenever the ring is full. A
    /// record that fits is published with one tail store and one bell.
    /// `abort` is polled while waiting, at least once per park timeout
    /// (≈ every [`PARK_NS`]); a true return on a still-full ring abandons
    /// the write mid-record — only do that when the consumer is gone for
    /// good.
    pub fn push_all<'a>(
        &mut self,
        pieces: impl Into<Pieces<'a>>,
        abort: impl Fn() -> bool,
    ) -> Result<(), PushError> {
        let mut rest = pieces.into();
        let mut cost = Wait::default();
        let result = loop {
            self.write_some(&mut rest);
            if rest.len() == 0 {
                break Ok(());
            }
            cost += wait(&self.ring.hdr().producer_bell, || {
                self.free() > 0 || abort()
            });
            if self.free() == 0 && abort() {
                break Err(PushError::Aborted);
            }
        };
        // One blocked call = one wait episode.
        self.stats.record(cost, true);
        result
    }

    /// Close the ring: no more bytes will be written. Wakes the consumer
    /// so it can observe EOF.
    pub fn close(&self) {
        self.ring.hdr().closed.store(1, Ordering::SeqCst);
        self.consumer_bell().ring();
    }

    /// Drain and reset the (spins, parks) counters accumulated since the
    /// last call.
    pub fn take_stats(&mut self) -> (u64, u64) {
        self.stats.take_stats()
    }

    /// Drain and reset the (spin-resolved, parked) *wait episode*
    /// counters: each blocked `push_all` counts once, under whichever
    /// resolution it reached.
    pub fn take_wait_stats(&mut self) -> (u64, u64) {
        self.stats.take_wait_stats()
    }

    /// The underlying ring.
    pub fn ring(&self) -> &Arc<SpscRing> {
        &self.ring
    }
}

/// The reading half. Owns `head`. Reads either without blocking —
/// [`try_pop`](Consumer::try_pop), or a whole record with
/// [`peek`](Consumer::peek) and
/// [`try_pop_record`](Consumer::try_pop_record) — or through its
/// [`io::Read`] impl, which blocks (spin-then-park on empty) and reads
/// EOF (`Ok(0)`) once the producer closed and the ring is drained.
pub struct Consumer {
    ring: Arc<SpscRing>,
    /// Waits on an empty ring.
    stats: WaitStats,
}

impl Consumer {
    /// Bytes currently readable.
    pub fn available(&self) -> usize {
        let hdr = self.ring.hdr();
        let tail = hdr.tail.load(Ordering::Acquire);
        let head = hdr.head.load(Ordering::Relaxed);
        (tail - head) as usize
    }

    /// Copy the first `buf.len()` queued bytes into `buf` without
    /// consuming them (a record's header); `false` when fewer are queued.
    pub fn peek(&self, buf: &mut [u8]) -> bool {
        let hdr = self.ring.hdr();
        let tail = hdr.tail.load(Ordering::Acquire);
        let head = hdr.head.load(Ordering::Relaxed);
        let n = buf.len();
        if ((tail - head) as usize) < n {
            return false;
        }
        let cap = self.ring.capacity;
        let pos = (head % cap as u64) as usize;
        let first = n.min(cap - pos);
        unsafe {
            std::ptr::copy_nonoverlapping(self.ring.data().add(pos), buf.as_mut_ptr(), first);
            if n > first {
                std::ptr::copy_nonoverlapping(
                    self.ring.data(),
                    buf.as_mut_ptr().add(first),
                    n - first,
                );
            }
        }
        true
    }

    /// Free `n` consumed bytes: publish the new head (Release) and ring
    /// the producer doorbell.
    fn advance(&mut self, n: usize) {
        let hdr = self.ring.hdr();
        let head = hdr.head.load(Ordering::Relaxed);
        hdr.head.store(head + n as u64, Ordering::Release);
        hdr.producer_bell.ring();
    }

    /// Read up to `buf.len()` of whatever is queued; returns bytes read
    /// (0 when the ring is empty — *not* EOF). Publishes the new head
    /// (Release) and rings the producer doorbell once per call.
    pub fn try_pop(&mut self, buf: &mut [u8]) -> usize {
        let n = self.available().min(buf.len());
        if n == 0 || !self.peek(&mut buf[..n]) {
            return 0;
        }
        self.advance(n);
        n
    }

    /// Consume the next `n` bytes as one record, if that many are queued,
    /// and return what `f` makes of them. `f` reads the record in place
    /// in the ring when it is contiguous there, and from `scratch` (a
    /// buffer the caller keeps for reuse) when it wraps; the bytes are
    /// freed to the producer only after `f` returns. `None` — and `f`
    /// not called — while fewer than `n` bytes are queued.
    pub fn try_pop_record<R>(
        &mut self,
        n: usize,
        scratch: &mut Vec<u8>,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Option<R> {
        if self.available() < n {
            return None;
        }
        let cap = self.ring.capacity;
        let pos = (self.ring.hdr().head.load(Ordering::Relaxed) % cap as u64) as usize;
        let out = if pos + n <= cap {
            // SAFETY: `pos + n <= cap`, so the slice lies in the data
            // region; [head, head + n) is queued, so the producer will not
            // write it until `advance` below publishes the new head.
            f(unsafe { std::slice::from_raw_parts(self.ring.data().add(pos), n) })
        } else {
            scratch.resize(n, 0);
            self.peek(scratch);
            f(scratch)
        };
        self.advance(n);
        Some(out)
    }

    /// Drain and reset the (spins, parks) counters accumulated since the
    /// last call.
    pub fn take_stats(&mut self) -> (u64, u64) {
        self.stats.take_stats()
    }

    /// Drain and reset the (spin-resolved, parked) *wait episode*
    /// counters: each blocked read counts once, under whichever
    /// resolution it reached.
    pub fn take_wait_stats(&mut self) -> (u64, u64) {
        self.stats.take_wait_stats()
    }

    /// The underlying ring.
    pub fn ring(&self) -> &Arc<SpscRing> {
        &self.ring
    }
}

impl io::Read for Consumer {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut cost = Wait::default();
        loop {
            let n = self.try_pop(buf);
            // Empty. Closed-and-drained is EOF; the close flag is read
            // AFTER the pop attempt so a close racing the last bytes
            // can't truncate them (close happens-after the final push).
            let eof = n == 0 && self.ring.is_closed() && self.available() == 0;
            if n > 0 || eof {
                // One blocked read = one wait episode; EOF counts none.
                self.stats.record(cost, n > 0);
                return Ok(n);
            }
            cost += wait(&self.ring.hdr().consumer_bell, || {
                self.available() > 0 || self.ring.is_closed()
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn a_poll_park_sleeps_in_the_transport_between_checks() {
        let sleeps = Arc::new(AtomicU64::new(0));
        let park = {
            let sleeps = Arc::clone(&sleeps);
            Park::Poll(Box::new(move || {
                sleeps.fetch_add(1, Ordering::SeqCst);
            }))
        };
        // No spin or yield: one sleep per re-check.
        let cost = park.wait(|| sleeps.load(Ordering::SeqCst) == 3, None);
        assert_eq!(cost, Wait { spins: 0, parks: 3 });
        // A timeout ends a wait that never turns ready.
        let cost = park.wait(|| false, Some(Duration::from_millis(1)));
        assert!(cost.parked());
    }

    #[test]
    fn roundtrips_across_the_wrap_boundary() {
        let ring = SpscRing::heap(16);
        let mut p = ring.producer();
        let mut c = ring.consumer();
        // 5 pushes of 7 bytes through a 16-byte ring forces wraparound.
        for round in 0u8..5 {
            let msg = [round; 7];
            p.push_all(&msg, || false).unwrap();
            let mut got = [0u8; 7];
            c.read_exact(&mut got).unwrap();
            assert_eq!(got, msg);
        }
    }

    #[test]
    fn records_larger_than_the_ring_stream_through() {
        let ring = SpscRing::heap(8);
        let mut p = ring.producer();
        let mut c = ring.consumer();
        let msg: Vec<u8> = (0..=255).collect();
        let writer = std::thread::spawn({
            let msg = msg.clone();
            move || p.push_all(&msg, || false).unwrap()
        });
        let mut got = vec![0u8; msg.len()];
        c.read_exact(&mut got).unwrap();
        writer.join().unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn close_is_eof_only_after_drain() {
        let ring = SpscRing::heap(64);
        let mut p = ring.producer();
        let mut c = ring.consumer();
        p.push_all(b"tail bytes", || false).unwrap();
        p.close();
        let mut got = Vec::new();
        c.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"tail bytes");
    }

    #[test]
    fn aborted_push_reports_aborted() {
        let ring = SpscRing::heap(4);
        let mut p = ring.producer();
        let err = p.push_all(&[0u8; 32], || true).unwrap_err();
        assert_eq!(err, PushError::Aborted);
    }

    #[test]
    fn threaded_transfer_is_exact_and_ordered() {
        let ring = SpscRing::heap(256);
        let mut p = ring.producer();
        let mut c = ring.consumer();
        const TOTAL: usize = 1 << 20;
        let writer = std::thread::spawn(move || {
            let mut sent = 0usize;
            let mut chunk = 1usize;
            while sent < TOTAL {
                let n = chunk.min(TOTAL - sent);
                let bytes: Vec<u8> = (sent..sent + n).map(|i| (i % 251) as u8).collect();
                p.push_all(&bytes, || false).unwrap();
                sent += n;
                chunk = chunk % 97 + 1; // vary the record size
            }
            p.close();
        });
        let mut got = Vec::with_capacity(TOTAL);
        c.read_to_end(&mut got).unwrap();
        writer.join().unwrap();
        assert_eq!(got.len(), TOTAL);
        assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
    }

    #[test]
    fn attach_validates_magic_and_capacity() {
        let len = segment_len(64);
        let mut raw = vec![0u64; len.div_ceil(8)].into_boxed_slice();
        let mem = raw.as_mut_ptr() as *mut u8;
        // Un-initialized memory is refused...
        assert!(unsafe { SpscRing::attach_at(mem, len, None) }.is_err());
        // ...an initialized ring is accepted and shares state.
        let ring = unsafe { SpscRing::init_at(mem, len, None) };
        let attached = unsafe { SpscRing::attach_at(mem, len, None) }.unwrap();
        let mut p = ring.producer();
        let mut c = attached.consumer();
        p.push_all(b"hello", || false).unwrap();
        let mut got = [0u8; 5];
        c.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hello");
        drop((ring, attached));
        drop(raw);
    }

    #[test]
    fn park_stats_count_blocked_waits() {
        let ring = SpscRing::heap(4);
        let mut p = ring.producer();
        let mut c = ring.consumer();
        let writer = std::thread::spawn(move || {
            p.push_all(&[7u8; 64], || false).unwrap();
            (p.take_stats(), p.take_wait_stats())
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut got = vec![0u8; 64];
        c.read_exact(&mut got).unwrap();
        let ((spins, parks), (spin_waits, park_waits)) = writer.join().unwrap();
        // The producer had to wait for the slow consumer somehow, and the
        // blocked push must be classified as exactly one wait episode.
        assert!(spins > 0 || parks > 0);
        assert_eq!(spin_waits + park_waits, 1);
    }

    /// A head and a payload go in as one record: every head/payload split
    /// of 12 bytes, written across the end of a 16-byte ring, reads back
    /// as the 12 bytes in order, published whole by the one push.
    #[test]
    fn a_head_and_payload_wrap_as_one_record() {
        let record: Vec<u8> = (1..=12).collect();
        for split in 0..=record.len() {
            let ring = SpscRing::heap(16);
            let mut p = ring.producer();
            let mut c = ring.consumer();
            p.push_all(&[0u8; 10], || false).unwrap();
            c.read_exact(&mut [0u8; 10]).unwrap();
            let (head, payload) = record.split_at(split);
            p.push_all(Pieces::new(head, payload), || false).unwrap();
            assert_eq!(ring.len(), record.len(), "split {split}");
            let mut got = [0u8; 12];
            c.read_exact(&mut got).unwrap();
            assert_eq!(got[..], record[..], "split {split}");
        }
    }

    /// A two-piece record that outgrows the ring blocks as one wait
    /// episode, like a one-piece record.
    #[test]
    fn a_blocked_two_piece_push_is_one_wait_episode() {
        let ring = SpscRing::heap(4);
        let mut p = ring.producer();
        let mut c = ring.consumer();
        let writer = std::thread::spawn(move || {
            p.push_all(Pieces::new(&[1u8; 6], &[2u8; 58]), || false)
                .unwrap();
            p.take_wait_stats()
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        let mut got = vec![0u8; 64];
        c.read_exact(&mut got).unwrap();
        let (spin_waits, park_waits) = writer.join().unwrap();
        assert_eq!(spin_waits + park_waits, 1);
        assert_eq!(got[..6], [1u8; 6]);
        assert_eq!(got[6..], [2u8; 58]);
    }

    #[test]
    fn unblocked_transfers_record_no_wait_episodes() {
        let ring = SpscRing::heap(64);
        let mut p = ring.producer();
        let mut c = ring.consumer();
        p.push_all(b"fits easily", || false).unwrap();
        let mut got = [0u8; 11];
        c.read_exact(&mut got).unwrap();
        assert_eq!(p.take_wait_stats(), (0, 0));
        assert_eq!(c.take_wait_stats(), (0, 0));
    }

    /// A ring pays for a wake only when the bell is armed, once per
    /// arming however many rings follow, and a waiter armed before it
    /// does not sleep.
    #[test]
    fn a_doorbell_wakes_once_per_arming() {
        let bell = Doorbell::new();
        assert!(!bell.ring());
        let parking = bell.prepare_park();
        assert!(bell.ring());
        assert!(!bell.ring());
        let start = Instant::now();
        bell.park(parking, 10 * PARK_NS);
        assert!(start.elapsed() < Duration::from_nanos(5 * PARK_NS));
    }

    /// Two waiters share one doorbell. Each wakes for its own condition
    /// promptly, however the other's wake-ups and a third waiter's brief
    /// park interleave with its sleep: none of them may cancel its
    /// announcement, and a ring wakes every sleeper, not the first in line.
    /// The rings go to waiter 0 twice, then to waiter 1 twice, so one of
    /// each pair is for a waiter that is not first in line. The waiters
    /// park on the doorbell itself with a timeout far above `PARK_NS`, so
    /// one lost wake-up reads as that timeout, ten times the bound, and not
    /// as a ladder's next `PARK_NS` poll.
    #[test]
    fn waiters_sharing_a_doorbell_each_wake_promptly() {
        const RINGS: u64 = 160;
        const LOST_WAKE_NS: u64 = 1_000 * PARK_NS;
        let settle = std::time::Duration::from_micros(300);
        let bell = Doorbell::new();
        let go = [AtomicU64::new(0), AtomicU64::new(0)];
        let done = [AtomicU64::new(0), AtomicU64::new(0)];
        let until = |cond: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !cond() {
                assert!(Instant::now() < deadline, "a waiter never woke");
                std::thread::yield_now();
            }
        };
        let mut latencies = Vec::new();
        std::thread::scope(|scope| {
            for (go, done) in go.iter().zip(&done) {
                let bell = &bell;
                scope.spawn(move || {
                    for n in 1..=RINGS / 2 {
                        while go.load(Ordering::SeqCst) < n {
                            let parking = bell.prepare_park();
                            if go.load(Ordering::SeqCst) < n {
                                bell.park(parking, LOST_WAKE_NS);
                            }
                        }
                        done.store(n, Ordering::SeqCst);
                    }
                });
            }
            for ring in 0..RINGS {
                let waiter = (ring / 2 % 2) as usize;
                let n = ring / 4 * 2 + ring % 2 + 1;
                // Both parked; before every second ring a third waiter
                // comes and goes.
                std::thread::sleep(settle);
                if ring % 2 == 1 {
                    bell.park(bell.prepare_park(), 1);
                }
                let rung = Instant::now();
                go[waiter].store(n, Ordering::SeqCst);
                bell.ring();
                until(&|| done[waiter].load(Ordering::SeqCst) == n);
                latencies.push(rung.elapsed());
            }
        });
        let slowest = latencies.iter().max().expect("rings rang");
        assert!(
            *slowest < Duration::from_nanos(LOST_WAKE_NS / 10),
            "slowest of {} wake-ups {slowest:?}, park timeout {LOST_WAKE_NS} ns",
            latencies.len()
        );
    }
}
