//! Model-checking the SPSC byte ring against a linear-scan reference.
//!
//! The ring ([`patternlets_core::spsc`]) is the load-bearing primitive
//! under the shm fabric: every wire frame between co-located ranks
//! crosses exactly one of these. Its correctness claim is small —
//! exactly-once, in-order byte delivery with a hard capacity bound —
//! so it is checkable against the dumbest possible reference: a
//! `VecDeque<u8>` mutated by linear scans. Proptest drives randomized
//! op sequences (variable-length pushes and pops, decoded from plain
//! words by bit-shifting, the same idiom as the mailbox model tests)
//! through both and demands they never disagree: not on the bytes, not
//! on the counts, not on the full/empty boundary behaviour.
//!
//! A final round pushes *wire frames* through a deliberately tiny ring
//! from another thread — records larger than the ring, forced
//! wraparound on every frame — and decodes them with both the blocking
//! TCP frame reader and the shm fabric's non-blocking drain decoder
//! ([`RingFrames`]), whose in-place, wrapped and larger-than-the-ring
//! paths must all yield the frames `read_frame` does, whether each record
//! went in whole or as a head and a payload. Hostile bytes in a ring —
//! the length prefix comes from another process — must neither panic the
//! decoder nor make it allocate by the length they claim. And a shm send
//! writes its record into the ring from the payload's own buffer: the
//! sending thread allocates no second, record-sized one.

use patternlets_core::spsc::{Pieces, SpscRing};
use patternlets_mp::World;
use patternlets_net::frame::{encode_frame, read_frame, Frame, MAX_FRAME_LEN};
use patternlets_net::shm::{FabricMode, RingFrames};
use patternlets_net::{install_job_fabric, rendezvous, with_job_ctx, JobCtx};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::io::Read;

thread_local! {
    /// The largest single allocation this thread made since last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Allocations of at least `.0` bytes this thread made while `.0` was
    /// set, in `.1`.
    static AT_LEAST: Cell<(usize, usize)> = const { Cell::new((usize::MAX, 0)) };
}

/// The system allocator, noting each thread's largest allocation.
struct Measured;

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Measured {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    let _ = AT_LEAST.try_with(|a| {
        let (min, n) = a.get();
        a.set((min, n + usize::from(size >= min)));
    });
}

/// Run `f` and count the allocations of at least `min` bytes it made on
/// this thread.
fn allocations_of_at_least<R>(min: usize, f: impl FnOnce() -> R) -> (R, usize) {
    AT_LEAST.with(|a| a.set((min, 0)));
    let out = f();
    let (_, n) = AT_LEAST.with(|a| a.replace((usize::MAX, 0)));
    (out, n)
}

#[global_allocator]
static ALLOC: Measured = Measured;

/// `JobLine` frames with `line`s of the given lengths.
fn job_lines(sizes: &[usize]) -> Vec<Frame> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| Frame::JobLine {
            job: i as u64,
            rank: (i % 7) as u64,
            line: "x".repeat(n),
        })
        .collect()
}

/// Push `bytes` through `ring` on this thread, draining `frames` each
/// time the ring fills: every frame decoded, then the decoder's verdict
/// once the bytes ran out and the producer closed (`Ok` at a clean end).
fn feed(
    ring: &std::sync::Arc<SpscRing>,
    frames: &mut RingFrames,
    mut bytes: &[u8],
) -> (Vec<Frame>, Result<(), String>) {
    let mut p = ring.producer();
    let mut got = Vec::new();
    let mut closed = false;
    loop {
        let n = p.try_push(bytes);
        bytes = &bytes[n..];
        if bytes.is_empty() && !closed {
            p.close();
            closed = true;
        }
        loop {
            match frames.try_next() {
                Ok(Some(frame)) => got.push(frame),
                Ok(None) if closed && frames.at_eof() => return (got, Ok(())),
                Ok(None) => break,
                Err(e) => return (got, Err(e.to_string())),
            }
        }
        assert!(!closed, "a closed ring left the decoder waiting");
    }
}

/// One scripted step, decoded from a plain word so proptest shrinks to
/// readable scripts: low bit picks the side, the rest sizes the record.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Offer an `n`-byte record; whatever fits is pushed.
    Push(usize),
    /// Ask for up to `n` bytes; whatever is queued comes out.
    Pop(usize),
}

fn decode(word: u32, max_record: usize) -> Op {
    let n = ((word >> 1) as usize % max_record) + 1;
    if word & 1 == 0 {
        Op::Push(n)
    } else {
        Op::Pop(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Single-threaded op scripts: after every step the ring and the
    /// reference deque hold byte-identical contents, and neither side
    /// ever over-fills or under-drains.
    #[test]
    fn ring_matches_the_linear_scan_reference(
        capacity in 1usize..48,
        ops in proptest::collection::vec(any::<u32>(), 0..200),
    ) {
        let ring = SpscRing::heap(capacity);
        let mut p = ring.producer();
        let mut c = ring.consumer();
        let mut model: VecDeque<u8> = VecDeque::new();
        // Byte stream: a counter mod 251 (prime, so wraparound misplacing
        // a byte can't alias back onto the right value).
        let mut next_byte = 0u64;
        for word in ops {
            match decode(word, capacity + 8) {
                Op::Push(n) => {
                    let record: Vec<u8> =
                        (next_byte..next_byte + n as u64).map(|b| (b % 251) as u8).collect();
                    let wrote = p.try_push(&record);
                    // Partial writes are the contract: exactly the free
                    // space is taken, in order, nothing else.
                    prop_assert_eq!(wrote, n.min(capacity - model.len()));
                    model.extend(&record[..wrote]);
                    next_byte += wrote as u64;
                }
                Op::Pop(n) => {
                    let mut buf = vec![0u8; n];
                    let got = c.try_pop(&mut buf);
                    prop_assert_eq!(got, n.min(model.len()));
                    let expected: Vec<u8> = model.drain(..got).collect();
                    prop_assert_eq!(&buf[..got], &expected[..]);
                }
            }
            // The bound, restated through the ring's own accounting.
            prop_assert_eq!(ring.len(), model.len());
            prop_assert!(ring.len() <= capacity);
        }
        // Final drain: everything still queued comes out in order.
        let mut rest = vec![0u8; capacity];
        let got = c.try_pop(&mut rest);
        prop_assert_eq!(got, model.len());
        let expected: Vec<u8> = model.drain(..).collect();
        prop_assert_eq!(&rest[..got], &expected[..]);
        prop_assert!(ring.is_empty());
    }

    /// The full/empty boundaries, pinned explicitly: a full ring takes
    /// zero bytes, an empty ring yields zero bytes, and neither state
    /// wedges — one pop reopens the producer, one push the consumer.
    #[test]
    fn full_and_empty_boundaries_are_exact(capacity in 1usize..32) {
        let ring = SpscRing::heap(capacity);
        let mut p = ring.producer();
        let mut c = ring.consumer();
        let mut empty_buf = [0u8; 4];
        prop_assert_eq!(c.try_pop(&mut empty_buf), 0); // empty ring yields nothing
        let fill: Vec<u8> = (0..capacity as u8).collect();
        prop_assert_eq!(p.try_push(&fill), capacity);
        prop_assert_eq!(p.try_push(b"x"), 0); // full ring takes nothing
        let mut one = [0u8; 1];
        prop_assert_eq!(c.try_pop(&mut one), 1);
        prop_assert_eq!(one[0], 0);
        prop_assert_eq!(p.try_push(b"x"), 1); // one pop reopens one byte
        let mut drain = vec![0u8; capacity];
        prop_assert_eq!(c.try_pop(&mut drain), capacity);
        prop_assert_eq!(drain[capacity - 1], b'x');
    }

    /// Exactly-once, in-order delivery under a real reader/writer race:
    /// the producer thread pushes variable-length records (sizes from
    /// the proptest script, many larger than the ring), the consumer
    /// reads in differently-sized chunks, and the concatenation must be
    /// the identity.
    #[test]
    fn threaded_records_arrive_exactly_once_in_order(
        capacity in 1usize..24,
        record_sizes in proptest::collection::vec(1usize..80, 1..24),
        read_chunk in 1usize..64,
    ) {
        let ring = SpscRing::heap(capacity);
        let mut p = ring.producer();
        let mut c = ring.consumer();
        let total: usize = record_sizes.iter().sum();
        let writer = std::thread::spawn(move || {
            let mut sent = 0u64;
            for n in record_sizes {
                let record: Vec<u8> =
                    (sent..sent + n as u64).map(|b| (b % 251) as u8).collect();
                p.push_all(&record, || false).unwrap();
                sent += n as u64;
            }
            p.close();
        });
        let mut got = Vec::with_capacity(total);
        let mut buf = vec![0u8; read_chunk];
        loop {
            let n = c.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        writer.join().unwrap();
        prop_assert_eq!(got.len(), total);
        prop_assert!(got.iter().enumerate().all(|(i, &b)| b == (i as u64 % 251) as u8));
    }

    /// Whole wire frames through tiny rings, each fed by its own writer
    /// thread: one decoded by the unmodified TCP codec, the other by the
    /// shm drain decoder. Each record goes in whole or, cut at a scripted
    /// point, as a head and a payload in one push; in a 32-byte ring both
    /// pieces wrap its end. Every frame must come back intact and in
    /// order, ending in clean EOF, from both.
    #[test]
    fn wire_frames_survive_a_ring_smaller_than_one_record(
        payload_sizes in proptest::collection::vec(0usize..300, 1..12),
        cuts in proptest::collection::vec(any::<u32>(), 12),
    ) {
        let frames = job_lines(&payload_sizes);
        let writer = |ring: &std::sync::Arc<SpscRing>| {
            let mut p = ring.producer();
            let (frames, cuts) = (frames.clone(), cuts.clone());
            std::thread::spawn(move || {
                // A cut's low bit picks whole or two pieces, the rest
                // where the head ends.
                for (frame, cut) in frames.iter().zip(cuts) {
                    let record = encode_frame(frame);
                    if cut & 1 == 0 {
                        p.push_all(&record, || false).unwrap();
                    } else {
                        let at = (cut >> 1) as usize % (record.len() + 1);
                        let (head, payload) = record.split_at(at);
                        p.push_all(Pieces::new(head, payload), || false).unwrap();
                    }
                }
                p.close();
            })
        };
        let (read, drained) = (SpscRing::heap(32), SpscRing::heap(32));
        let writers = [writer(&read), writer(&drained)];
        let mut c = read.consumer();
        for expected in &frames {
            let got = read_frame(&mut c).unwrap().expect("a frame before EOF");
            prop_assert_eq!(&got, expected);
        }
        prop_assert!(read_frame(&mut c).unwrap().is_none(), "clean EOF after the last frame");
        // Every record is larger than the ring: the drain decoder's
        // copy-out path.
        let mut frames_in = RingFrames::new(drained.consumer());
        let mut got = Vec::new();
        while !frames_in.at_eof() {
            match frames_in.try_next().unwrap() {
                Some(frame) => got.push(frame),
                None => std::thread::yield_now(),
            }
        }
        prop_assert_eq!(&got, &frames);
        for writer in writers {
            writer.join().unwrap();
        }
    }

    /// Records that fit the ring, so each is decoded in place or — when
    /// it wraps past the ring's end — from a copy, mixed with records
    /// larger than the ring: the drain decoder yields exactly the frames
    /// `read_frame` reads from the same bytes.
    #[test]
    fn drain_decoder_matches_read_frame_in_place_wrapped_and_large(
        capacity in 64usize..512,
        payload_sizes in proptest::collection::vec(0usize..600, 1..24),
    ) {
        let frames = job_lines(&payload_sizes);
        let bytes: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        let mut reference = Vec::new();
        let mut cursor = &bytes[..];
        while let Some(frame) = read_frame(&mut cursor).unwrap() {
            reference.push(frame);
        }
        let ring = SpscRing::heap(capacity);
        let mut frames_in = RingFrames::new(ring.consumer());
        let (got, end) = feed(&ring, &mut frames_in, &bytes);
        prop_assert_eq!(end, Ok(()));
        prop_assert_eq!(&got, &reference);
        prop_assert_eq!(&got, &frames);
    }

    /// Hostile bytes: any content, cut off anywhere. The decoder never
    /// panics, reads no frame past the first bad one, ends in an error
    /// unless the bytes were whole frames, and never allocates beyond
    /// what arrived — a length prefix alone sizes nothing.
    #[test]
    fn hostile_ring_bytes_are_rejected_without_a_claimed_allocation(
        capacity in 16usize..256,
        mut bytes in proptest::collection::vec(any::<u8>(), 0..1024),
        claim in 0u8..3,
        small in 0usize..2048,
        large in 0usize..=MAX_FRAME_LEN + 9,
    ) {
        // Raw bytes, or a header claiming a small or a large body length
        // (up to just past the cap) followed by whatever comes.
        if let Some(len) = [None, Some(small), Some(large)][claim as usize] {
            bytes.splice(0..0, (len as u32).to_le_bytes().into_iter().chain([0; 4]));
        }
        let ring = SpscRing::heap(capacity);
        let mut frames_in = RingFrames::new(ring.consumer());
        LARGEST.with(|l| l.set(0));
        let (_, end) = feed(&ring, &mut frames_in, &bytes);
        let largest = LARGEST.with(|l| l.get());
        prop_assert!(largest <= MAX_FRAME_LEN);
        // The frames decoded, the error strings, the decoder's buffers:
        // all sized by the bytes that arrived.
        prop_assert!(largest <= 4 * (bytes.len() + capacity) + 4096, "allocated {largest}");
        if bytes.is_empty() {
            prop_assert_eq!(end, Ok(()));
        }
    }
}

/// A 64 KiB `Comm::send` over a two-rank shared-memory world whose ranks
/// are threads of this process. The sending thread allocates one
/// payload-sized buffer, the payload's encoding; the ring takes the
/// record from a small head and that buffer, with no record buffer
/// joining them.
#[test]
fn a_64_kib_shm_send_allocates_one_payload_sized_buffer() {
    const LEN: usize = 64 << 10;
    assert!(install_job_fabric(), "no other provider in this binary");
    let server = rendezvous::serve().unwrap().to_string();
    let dir = std::env::temp_dir().join(format!("spsc-model-send-{}", std::process::id()));
    let counts: Vec<usize> = std::thread::scope(|scope| {
        let ranks: Vec<_> = (0..2)
            .map(|rank| {
                let mut ctx = JobCtx::new(rank, 2, server.clone(), 0, None);
                ctx.fabric = FabricMode::Shm;
                ctx.shm_dir = dir.clone();
                scope.spawn(move || {
                    with_job_ctx(ctx, || {
                        let out = World::builder(2).run(|comm| {
                            let data = vec![7u8; LEN];
                            let mut counts = Vec::new();
                            // The first message of each rank warms up.
                            for round in 0..2 {
                                if comm.rank() == 0 {
                                    let ((), n) = allocations_of_at_least(LEN, || {
                                        comm.send(&data, 1, round).unwrap()
                                    });
                                    counts.push(n);
                                } else {
                                    let (got, _) = comm.recv::<u8>(0, round).unwrap();
                                    assert_eq!(got, data);
                                }
                            }
                            counts.last().copied().unwrap_or(0)
                        });
                        out.unwrap()[0]
                    })
                })
            })
            .collect();
        ranks.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(counts[0], 1, "allocations of at least {LEN} B in one send");
}
