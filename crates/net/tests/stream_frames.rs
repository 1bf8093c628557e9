//! Hostile input for the TCP link's read side: whatever bytes a peer
//! sends, cut into whatever pieces the socket hands over and ended
//! anywhere, [`StreamFrames`] yields exactly the frames [`read_frame`]
//! yields from the same bytes, then the same error or the same clean end;
//! it never panics, and it never holds buffer on the strength of a length
//! prefix: past its 64 KiB start, at most twice the bytes that arrived.
//! `read_frame` itself obeys the same bound: no allocation it makes for a
//! frame exceeds 64 KiB or twice the bytes it read, whatever the header
//! claims, so hostile bytes on a handshake socket buy nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{ErrorKind, Read};

use patternlets_net::frame::{encode_frame, read_frame, Frame, StreamFrames, MAX_FRAME_LEN};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// The buffer a parser starts with.
const BASE: usize = 64 << 10;

thread_local! {
    /// The largest single allocation this thread made since last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
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
}

#[global_allocator]
static ALLOC: Measured = Measured;

/// A blocking socket that hands `bytes` over in the given pieces, one per
/// read, cut shorter when the reader offers less room, then end of stream.
struct Trickle {
    bytes: Vec<u8>,
    cuts: Vec<usize>,
    at: usize,
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let piece = self.cuts.pop().unwrap_or(usize::MAX).max(1);
        let n = piece.min(buf.len()).min(self.bytes.len() - self.at);
        buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// What `read_frame` makes of `bytes` handed over in pieces — the same as
/// from one buffer — checking that no allocation a call made outgrew the
/// bound: 64 KiB, or twice the bytes that call read.
fn read_bounded(bytes: &[u8], cuts: Vec<usize>) -> (Vec<Frame>, Result<(), String>) {
    let mut src = Trickle {
        bytes: bytes.to_vec(),
        cuts,
        at: 0,
    };
    let mut frames = Vec::new();
    loop {
        let before = src.at;
        LARGEST.with(|l| l.set(0));
        let got = read_frame(&mut src);
        let largest = LARGEST.with(|l| l.get());
        let read = src.at - before;
        assert!(
            largest <= BASE.max(2 * read),
            "allocated {largest} bytes for a frame of {read} bytes read"
        );
        match got {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => return (frames, Ok(())),
            Err(e) => return (frames, Err(e.to_string())),
        }
    }
}

/// A socket that hands `bytes` over in the given pieces — one per read,
/// cut shorter when the reader offers less room — with an empty
/// non-blocking read between pieces, then end of stream.
struct Pieces {
    bytes: Vec<u8>,
    cuts: Vec<usize>,
    at: usize,
    /// The next read finds the socket empty.
    dry: bool,
}

impl Read for Pieces {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if std::mem::take(&mut self.dry) {
            return Err(ErrorKind::WouldBlock.into());
        }
        let piece = self.cuts.pop().unwrap_or(usize::MAX).max(1);
        let n = piece.min(buf.len()).min(self.bytes.len() - self.at);
        buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        self.dry = true;
        Ok(n)
    }
}

/// What `read_frame` makes of `bytes`: its frames, then `Ok` for a clean
/// end or the error it stopped at.
fn oracle(bytes: &[u8]) -> (Vec<Frame>, Result<(), String>) {
    let mut src = std::io::Cursor::new(bytes);
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut src) {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => return (frames, Ok(())),
            Err(e) => return (frames, Err(e.to_string())),
        }
    }
}

/// What the parser makes of `bytes` handed over in pieces, checking its
/// buffer after every read.
fn parse(bytes: &[u8], cuts: Vec<usize>) -> (Vec<Frame>, Result<(), String>) {
    let mut src = Pieces {
        bytes: bytes.to_vec(),
        cuts,
        at: 0,
        dry: false,
    };
    let mut parser = StreamFrames::new();
    let mut frames = Vec::new();
    loop {
        loop {
            match parser.next_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(e) => return (frames, Err(e.to_string())),
            }
        }
        match parser.fill(&mut src) {
            Ok(0) => return (frames, parser.at_eof().map_err(|e| e.to_string())),
            Ok(_) => assert!(
                parser.capacity() <= BASE.max(2 * src.at),
                "{} bytes of buffer after {} arrived",
                parser.capacity(),
                src.at
            ),
            Err(e) => assert_eq!(e.kind(), ErrorKind::WouldBlock),
        }
    }
}

/// Bytes a peer might send, and the pieces a socket hands them over in:
/// arbitrary bytes, or valid frames cut off anywhere, with at most one
/// flipped bit.
struct Wire {
    valid: bool,
}

impl Strategy for Wire {
    type Value = (Vec<u8>, Vec<usize>);

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let mut bytes: Vec<u8> = if self.valid {
            let count = 1 + rng.below(5);
            (0..count).flat_map(|_| encode_frame(&frame(rng))).collect()
        } else {
            (0..rng.below(2048)).map(|_| rng.next_u64() as u8).collect()
        };
        if self.valid {
            bytes.truncate((bytes.len() as f64 * rng.unit_f64()) as usize);
            if !bytes.is_empty() && rng.below(2) == 0 {
                let at = rng.below(bytes.len() as u64) as usize;
                bytes[at] ^= 1 << rng.below(8);
            }
        }
        // Small pieces split headers; large ones span records.
        let count = rng.below(64);
        let cuts = (0..count)
            .map(|_| {
                let most = if rng.below(2) == 0 { 16 } else { 80 << 10 };
                1 + rng.below(most) as usize
            })
            .collect();
        (bytes, cuts)
    }
}

/// A frame of a kind the mesh sends: pings, hellos, and envelopes up to
/// 100 KiB, past the parser's starting buffer.
fn frame(rng: &mut TestRng) -> Frame {
    match rng.below(3) {
        0 => Frame::Ping {
            seen: rng.next_u64(),
        },
        1 => Frame::Hello {
            epoch: rng.next_u64(),
            rank: rng.next_u64(),
        },
        _ => {
            let len = rng.below(100 << 10) as usize;
            Frame::Env {
                comm_id: 1,
                src: 0,
                tag: rng.next_u64() as i32,
                type_name: "u8".into(),
                count: len as u64,
                seq: rng.next_u64(),
                needs_ack: false,
                overtake: 0,
                payload: vec![rng.next_u64() as u8; len],
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any bytes at all.
    #[test]
    fn arbitrary_bytes_parse_as_read_frame_reads_them(wire in Wire { valid: false }) {
        let (bytes, cuts) = wire;
        prop_assert_eq!(parse(&bytes, cuts), oracle(&bytes));
    }

    /// Valid frames, cut into pieces anywhere and ended anywhere, some
    /// with a flipped bit.
    #[test]
    fn valid_streams_split_and_truncated_anywhere(wire in Wire { valid: true }) {
        let (bytes, cuts) = wire;
        prop_assert_eq!(parse(&bytes, cuts), oracle(&bytes));
    }

    /// `read_frame` over any bytes, valid or not, arriving in any pieces:
    /// the same answers, and no allocation past the bound.
    #[test]
    fn read_frame_allocates_only_by_the_bytes_it_read(
        wire in Wire { valid: false },
        valid in Wire { valid: true },
    ) {
        for (bytes, cuts) in [wire, valid] {
            prop_assert_eq!(read_bounded(&bytes, cuts), oracle(&bytes));
        }
    }
}

/// A header claiming the most a frame may hold, followed by 1,000 bytes,
/// costs `read_frame` no more than its first 64 KiB of body buffer.
#[test]
fn a_claimed_length_reserves_nothing_in_read_frame() {
    let mut bytes = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
    bytes.extend([0; 4]);
    bytes.extend([7; 1000]);
    let (frames, end) = read_bounded(&bytes, vec![]);
    assert!(frames.is_empty());
    assert_eq!(
        end,
        Err("codec error: EOF inside frame body: 1000/67108864 bytes arrived".into())
    );
}

/// A length prefix claiming the most a frame may hold reserves nothing
/// past the parser's start while the bytes trickle in, and one claiming
/// more is refused at once.
#[test]
fn a_claimed_length_reserves_nothing() {
    let mut header = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
    header.extend([0; 4]);
    let bytes: Vec<u8> = header.iter().copied().chain([7; 1000]).collect();
    let (frames, end) = parse(&bytes, vec![3; 400]);
    assert!(frames.is_empty());
    assert_eq!(
        end,
        Err("codec error: EOF inside frame body: 1000/67108864 bytes arrived".into())
    );

    let mut parser = StreamFrames::new();
    let mut over = (MAX_FRAME_LEN as u32 + 1).to_le_bytes().to_vec();
    over.extend([0; 4]);
    parser.fill(&mut over.as_slice()).unwrap();
    assert!(
        parser.next_frame().is_err(),
        "a length over the cap is refused"
    );
    assert_eq!(parser.capacity(), BASE);
}
