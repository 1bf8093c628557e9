//! Message envelopes: source, tag, type, count, payload.

use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};

use crate::datatype::Datatype;

/// Largest wire encoding stored inline in an envelope. Above this, the
/// byte-copy cost of the inline array exceeds what the `Arc`/`Bytes`
/// representations amortize; below it, a message's payload lives
/// entirely on the stack — no allocation, no refcount traffic.
pub const INLINE_MAX: usize = 64;

/// A message payload, in one of three representations.
///
/// `Bytes` is the wire form: the element slice run through
/// [`Datatype::encode_slice`], exactly what crosses a socket. `InProc` is
/// the same-process fast path: shared ownership of the sender's element
/// vector, so delivery between ranks that share an address space is one
/// `Arc` refcount bump instead of an encode/decode round trip. `Inline`
/// is the small-message fast path: wire encodings of at most
/// [`INLINE_MAX`] bytes ride in a fixed array inside the envelope
/// itself, skipping the per-message heap allocation that dominates tiny
/// sends in *either* other form. All three are interchangeable at the
/// transport seam — [`Payload::to_wire`] recovers the byte form on
/// demand, so a network backend never needs to know which representation
/// a sender chose.
///
/// One function picks a send's form, `Comm::prepare_payload`. A larger
/// `u8` send to a rank across the wire builds no `Payload` at all: its
/// elements already are its wire form, so the sender hands the fabric its
/// own slice ([`Outgoing::Wire`]), and the fabric makes the one copy it
/// needs.
#[derive(Clone)]
pub enum Payload {
    /// Encoded wire form (cheap to clone: `Bytes` is refcounted).
    Bytes(Bytes),
    /// Shared in-process form (cheap to clone: one `Arc` bump).
    InProc(SharedPayload),
    /// Small wire form stored inline (cheap to clone: a memcpy of at
    /// most [`INLINE_MAX`] bytes, no heap involvement at all).
    Inline {
        /// The encoding, in `buf[..len as usize]`.
        buf: [u8; INLINE_MAX],
        /// Valid prefix length (`<= INLINE_MAX`).
        len: u8,
    },
}

impl Payload {
    /// Encode `data` (whose wire form is known to fit [`INLINE_MAX`])
    /// into an inline payload. Encoding goes through a thread-local
    /// scratch buffer, so steady-state sends allocate nothing.
    pub fn inline<T: Datatype>(data: &[T]) -> Payload {
        thread_local! {
            static SCRATCH: RefCell<BytesMut> = RefCell::new(BytesMut::new());
        }
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            scratch.clear();
            T::encode_slice(data, &mut scratch);
            debug_assert!(scratch.len() <= INLINE_MAX, "caller checked encoded_len");
            let mut buf = [0u8; INLINE_MAX];
            buf[..scratch.len()].copy_from_slice(&scratch);
            Payload::Inline {
                buf,
                len: scratch.len() as u8,
            }
        })
    }

    /// Size of the wire encoding in bytes (without producing it for
    /// `InProc` payloads — the encoded length is precomputed at send).
    pub fn len(&self) -> usize {
        match self {
            Payload::Bytes(bytes) => bytes.len(),
            Payload::InProc(shared) => shared.wire_len,
            Payload::Inline { len, .. } => *len as usize,
        }
    }

    /// True when the wire encoding is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The wire (byte) form: a cheap clone for `Bytes`, an on-demand
    /// encode for `InProc`, a copy-out for `Inline`. This is the
    /// transparent fallback a network backend uses at the framing seam.
    pub fn to_wire(&self) -> Bytes {
        match self {
            Payload::Bytes(bytes) => bytes.clone(),
            Payload::InProc(shared) => shared.to_wire(),
            Payload::Inline { buf, len } => Bytes::copy_from_slice(&buf[..*len as usize]),
        }
    }
}

/// A received wire encoding: at most [`INLINE_MAX`] bytes move inline,
/// a larger vector is adopted without a copy.
impl From<Vec<u8>> for Payload {
    fn from(wire: Vec<u8>) -> Payload {
        if wire.len() > INLINE_MAX {
            return Payload::Bytes(Bytes::from(wire));
        }
        let mut buf = [0u8; INLINE_MAX];
        buf[..wire.len()].copy_from_slice(&wire);
        Payload::Inline {
            buf,
            len: wire.len() as u8,
        }
    }
}

/// A payload as a send hands it to a fabric
/// ([`Fabric::transmit`](crate::Fabric::transmit)): owned, or — for a
/// larger `u8` send to a rank across the wire — the sender's own slice,
/// borrowed for the call, so that the fabric's one copy of the bytes
/// (into a ring, or a buffer kept for replay) is the only one.
#[derive(Debug, Clone)]
pub enum Outgoing<'a> {
    /// A payload the envelope owns.
    Owned(Payload),
    /// The sender's slice, which is its own wire form.
    Wire(&'a [u8]),
}

impl Outgoing<'_> {
    /// Size of the wire encoding in bytes.
    pub fn len(&self) -> usize {
        match self {
            Outgoing::Owned(payload) => payload.len(),
            Outgoing::Wire(wire) => wire.len(),
        }
    }

    /// True when the wire encoding is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The owned payload; a slice is copied once, the copy an encode
    /// makes.
    pub fn into_owned(self) -> Payload {
        match self {
            Outgoing::Owned(payload) => payload,
            Outgoing::Wire(wire) => Payload::from(wire.to_vec()),
        }
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Bytes(bytes) => write!(f, "Bytes({} B)", bytes.len()),
            Payload::InProc(shared) => shared.fmt(f),
            Payload::Inline { len, .. } => write!(f, "Inline({len} B)"),
        }
    }
}

impl fmt::Debug for SharedPayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "InProc({} B encoded)", self.wire_len)
    }
}

/// Shared ownership of a sender's element vector, plus a monomorphised
/// encoder so the wire form can be recovered at the transport seam
/// without knowing the element type, and the precomputed wire length so
/// tracing and the message log report the same byte counts either way.
#[derive(Clone)]
pub struct SharedPayload {
    data: Arc<dyn Any + Send + Sync>,
    encode: fn(&(dyn Any + Send + Sync)) -> Bytes,
    wire_len: usize,
}

impl SharedPayload {
    /// Wrap a slice for in-process delivery. One copy happens here (into
    /// the `Arc`); every subsequent clone — per-child forwarding in a
    /// collective tree, duplicate transmissions — is a refcount bump.
    pub fn for_slice<T>(data: &[T]) -> SharedPayload
    where
        T: Datatype + Clone + Sync,
    {
        SharedPayload {
            data: Arc::new(data.to_vec()),
            encode: |any| {
                let vec = any
                    .downcast_ref::<Vec<T>>()
                    .expect("a shared payload holds the Vec it was built from");
                crate::datatype::encode(vec)
            },
            wire_len: T::encoded_len(data),
        }
    }

    /// Recover the element vector: zero-copy (`Arc::try_unwrap`) when
    /// this is the last clone, one `Vec` clone otherwise. `Err` returns
    /// the payload untouched when it holds a different element type, so
    /// the caller can fall back to the wire form.
    pub fn try_take<T>(self) -> std::result::Result<Vec<T>, SharedPayload>
    where
        T: Any + Send + Sync + Clone,
    {
        let SharedPayload {
            data,
            encode,
            wire_len,
        } = self;
        match data.downcast::<Vec<T>>() {
            Ok(vec) => Ok(Arc::try_unwrap(vec).unwrap_or_else(|shared| (*shared).clone())),
            Err(data) => Err(SharedPayload {
                data,
                encode,
                wire_len,
            }),
        }
    }

    /// Encode the held vector to its wire form.
    pub fn to_wire(&self) -> Bytes {
        (self.encode)(self.data.as_ref())
    }
}

/// One in-flight message. `P` is the payload's form: an owned
/// [`Payload`] for every envelope a mailbox holds, or an [`Outgoing`] on
/// its way into a fabric.
#[derive(Debug, Clone)]
pub struct Envelope<P = Payload> {
    /// Which communicator this message belongs to; receives only match
    /// envelopes from their own communicator.
    pub comm_id: u64,
    /// Sending rank, in the communicator's local numbering.
    pub src: usize,
    /// Message tag. Non-negative for user messages; negative tags are
    /// reserved for collectives.
    pub tag: i32,
    /// Element type name (from [`crate::Datatype::TYPE_NAME`]).
    pub type_name: &'static str,
    /// Element count.
    pub count: usize,
    /// The payload, in wire or shared in-process form.
    pub payload: P,
    /// Per-sender sequence number (diagnostics; also documents the
    /// non-overtaking order).
    pub seq: u64,
    /// Synchronous-send handshake: the receiver must acknowledge this
    /// envelope on the reserved ack tag when it matches it.
    pub needs_ack: bool,
}

impl<P> Envelope<P> {
    /// The same envelope with its payload turned into another form.
    pub fn map_payload<Q>(self, f: impl FnOnce(P) -> Q) -> Envelope<Q> {
        Envelope {
            comm_id: self.comm_id,
            src: self.src,
            tag: self.tag,
            type_name: self.type_name,
            count: self.count,
            payload: f(self.payload),
            seq: self.seq,
            needs_ack: self.needs_ack,
        }
    }
}

/// The reserved tag on which synchronous-send acknowledgements travel;
/// disambiguated by the sender's sequence number folded into the tag.
pub(crate) fn ack_tag(seq: u64) -> i32 {
    // A disjoint negative namespace from collective tags (which are
    // ≥ -(2^27)): acks live below -(2^28).
    -((1 << 28) + (seq % (1 << 27)) as i32)
}

/// Build the reserved tag for collective call number `coll_seq` of
/// operation `opcode`, optionally sub-tagged by `round`.
///
/// Every rank calls collectives in the same order, so `coll_seq` agrees
/// across ranks and successive collectives can never cross-match, even when
/// the same pair of ranks exchanges messages in both.
pub(crate) fn collective_tag(coll_seq: u64, opcode: u8, round: u32) -> i32 {
    // Pack (seq mod 2^16, opcode mod 2^4, round mod 2^6) below zero.
    let seq = (coll_seq % (1 << 16)) as i32;
    let op = (opcode % 16) as i32;
    let rnd = (round % 64) as i32;
    -(1 + (((seq << 4) | op) << 6 | rnd))
}

/// Is `tag` a collective-internal tag — as opposed to a user tag (≥ 0)
/// or a synchronous-send acknowledgement (below −2²⁸)? The failure model
/// treats collective receives specially: they fail fast when *any* group
/// member has died, while user and ack receives only depend on their
/// actual sender.
pub(crate) fn is_collective_tag(tag: i32) -> bool {
    (-(1 << 28)..0).contains(&tag)
}

/// Collective opcodes for tag construction.
pub(crate) mod opcodes {
    pub const BARRIER: u8 = 0;
    pub const BCAST: u8 = 1;
    pub const SCATTER: u8 = 2;
    pub const GATHER: u8 = 3;
    pub const REDUCE: u8 = 5;
    pub const ALLREDUCE: u8 = 6;
    pub const SCAN: u8 = 7;
    pub const ALLTOALL: u8 = 8;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_tags_do_not_collide_with_collective_tags() {
        for seq in [0u64, 1, 1000, (1 << 27) - 1] {
            let ack = ack_tag(seq);
            assert!(ack < 0);
            for cseq in [0u64, 65_535] {
                for op in 0..9u8 {
                    assert_ne!(ack, collective_tag(cseq, op, 0));
                }
            }
        }
    }

    #[test]
    fn collective_tags_are_negative() {
        for seq in [0u64, 1, 17, 65_535, 65_536] {
            for op in 0..9u8 {
                for round in [0u32, 5, 63] {
                    // All collective tags sit below 0, the reserved ceiling.
                    assert!(collective_tag(seq, op, round) < 0);
                }
            }
        }
    }

    #[test]
    fn collective_tags_distinguish_nearby_calls() {
        let mut tags = std::collections::HashSet::new();
        for seq in 0..64u64 {
            for op in 0..9u8 {
                for round in 0..8u32 {
                    assert!(
                        tags.insert(collective_tag(seq, op, round)),
                        "tag collision at seq={seq} op={op} round={round}"
                    );
                }
            }
        }
    }

    #[test]
    fn envelope_fields_round_trip() {
        let env = Envelope {
            comm_id: 0,
            src: 3,
            needs_ack: false,
            tag: 42,
            type_name: "i32",
            count: 2,
            payload: Payload::Bytes(Bytes::from_static(&[1, 0, 0, 0, 2, 0, 0, 0])),
            seq: 7,
        };
        assert_eq!(env.src, 3);
        assert_eq!(env.tag, 42);
        assert_eq!(env.count, 2);
        assert_eq!(env.payload.len(), 8);
    }

    #[test]
    fn shared_payload_encodes_to_the_same_wire_form() {
        let data = vec![1i32, 2, 3];
        let shared = SharedPayload::for_slice(&data);
        let direct = crate::datatype::encode(&data);
        assert_eq!(shared.wire_len, direct.len());
        assert_eq!(&shared.to_wire()[..], &direct[..]);
        let payload = Payload::InProc(shared);
        assert_eq!(payload.len(), direct.len());
        assert_eq!(&payload.to_wire()[..], &direct[..]);
    }

    #[test]
    fn inline_payload_matches_the_wire_form() {
        let data = vec![1i32, 2, 3];
        let direct = crate::datatype::encode(&data);
        let payload = Payload::inline(&data);
        assert_eq!(payload.len(), direct.len());
        assert_eq!(&payload.to_wire()[..], &direct[..]);
        let back = crate::datatype::decode_payload::<i32>(payload, 3).unwrap();
        assert_eq!(back, data);
        // The cutover bound itself fits.
        let full = vec![0xABu8; INLINE_MAX];
        let payload = Payload::inline(&full);
        assert_eq!(payload.len(), INLINE_MAX);
        assert_eq!(&payload.to_wire()[..], &full[..]);
    }

    #[test]
    fn shared_payload_take_is_zero_copy_when_sole_owner() {
        let shared = SharedPayload::for_slice(&[7i64, 8]);
        // Sole owner: try_take recovers the vector without cloning.
        assert_eq!(shared.try_take::<i64>().unwrap(), vec![7, 8]);
        // Wrong element type: the payload comes back for wire fallback.
        let shared = SharedPayload::for_slice(&[7i64, 8]);
        let back = shared.try_take::<i32>().unwrap_err();
        assert_eq!(back.to_wire().len(), 16);
    }
}
