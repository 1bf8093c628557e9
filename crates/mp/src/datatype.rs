//! Wire encoding — the `MPI_Datatype` analogue.
//!
//! Payloads cross rank boundaries as bytes, never as shared pointers, which
//! is what makes the runtime honestly "distributed memory": a received
//! value is a *copy*, decoded from the wire, exactly as it would be after a
//! real network hop.

use bytes::{BufMut, Bytes, BytesMut};
use patternlets_core::{Error, Result};

use crate::envelope::{Payload, SharedPayload};

/// A type that can be sent in a message. Mirrors the built-in
/// `MPI_Datatype`s (`MPI_INT`, `MPI_DOUBLE`, `MPI_CHAR`, ...), plus
/// `String` for convenience (hostnames in the SPMD patternlet).
pub trait Datatype: Sized + Send + 'static {
    /// Stable name used for envelope type checking.
    const TYPE_NAME: &'static str;

    /// Append the encoding of `data` to `out`.
    fn encode_slice(data: &[Self], out: &mut BytesMut);

    /// Decode a whole payload of `count` elements.
    fn decode_slice(bytes: &[u8], count: usize) -> Result<Vec<Self>>;

    /// Decode a whole payload of `count` elements from a buffer the
    /// receiver owns. The default decodes it in place; `u8`, whose
    /// elements are the bytes, takes the buffer itself when nothing else
    /// shares it.
    fn decode_owned(bytes: Bytes, count: usize) -> Result<Vec<Self>> {
        Self::decode_slice(&bytes, count)
    }

    /// The wire encoding of `data` where it lies, when the elements are
    /// their own encoding. Only `u8` returns `Some`: a send of bytes then
    /// hands a wire-crossing fabric the caller's slice, and the fabric's
    /// one copy (into a shared-memory ring, or a buffer kept for replay)
    /// replaces the encode.
    fn wire_bytes(data: &[Self]) -> Option<&[u8]> {
        let _ = data;
        None
    }

    /// Exact size of `data`'s wire encoding. The default produces the
    /// encoding into a scratch buffer and measures it; impls with a
    /// closed-form size override this so the in-process fast path never
    /// encodes at all.
    fn encoded_len(data: &[Self]) -> usize {
        let mut out = BytesMut::new();
        Self::encode_slice(data, &mut out);
        out.len()
    }

    /// Opt into the in-process zero-copy path: wrap `data` in a
    /// [`SharedPayload`] (one copy into an `Arc`, refcount bumps after).
    /// The default returns `None` — the sender falls back to byte
    /// encoding — because sharing requires `Clone + Sync`, which this
    /// trait deliberately does not demand of every implementor.
    fn to_shared(data: &[Self]) -> Option<SharedPayload> {
        let _ = data;
        None
    }

    /// Recover an element vector from a shared payload, zero-copy when
    /// the receiver holds the last clone. `Err` hands the payload back so
    /// the caller can decode its wire form instead; the default always
    /// does so, matching the default `to_shared`.
    fn from_shared(shared: SharedPayload) -> std::result::Result<Vec<Self>, SharedPayload> {
        Err(shared)
    }
}

/// Decode a received payload into elements: wire payloads run through
/// [`Datatype::decode_slice`]; shared in-process payloads are recovered
/// via [`Datatype::from_shared`] (zero-copy when this receiver holds the
/// last clone), falling back to the wire form if the type opted out.
pub(crate) fn decode_payload<T: Datatype>(payload: Payload, count: usize) -> Result<Vec<T>> {
    match payload {
        Payload::Bytes(bytes) => T::decode_owned(bytes, count),
        Payload::InProc(shared) => match T::from_shared(shared) {
            Ok(data) => {
                if data.len() != count {
                    return Err(Error::Codec(format!(
                        "{}: shared payload holds {} elements, envelope says {count}",
                        T::TYPE_NAME,
                        data.len()
                    )));
                }
                Ok(data)
            }
            Err(shared) => T::decode_owned(shared.to_wire(), count),
        },
        Payload::Inline { buf, len } => T::decode_slice(&buf[..len as usize], count),
    }
}

/// Check that a fixed-width payload holds exactly `count` elements of
/// `size` bytes.
fn check_len(name: &str, bytes: &[u8], count: usize, size: usize) -> Result<()> {
    if count.checked_mul(size) != Some(bytes.len()) {
        return Err(Error::Codec(format!(
            "{name}: payload is {} bytes, expected {count} x {size}",
            bytes.len()
        )));
    }
    Ok(())
}

/// Append `data` as `N`-byte little-endian elements: one resize of `out`,
/// then one pass filling its exactly sized new tail.
fn put_le<T: Copy, const N: usize>(data: &[T], out: &mut BytesMut, to_le: impl Fn(T) -> [u8; N]) {
    let start = out.len();
    out.resize(start + data.len() * N, 0);
    for (slot, &v) in out[start..].chunks_exact_mut(N).zip(data) {
        slot.copy_from_slice(&to_le(v));
    }
}

/// The `N`-byte little-endian elements of a payload that must hold
/// exactly `count` of them, read in one pass.
fn le_elements<'a, const N: usize>(
    name: &str,
    bytes: &'a [u8],
    count: usize,
) -> Result<impl Iterator<Item = [u8; N]> + 'a> {
    check_len(name, bytes, count, N)?;
    Ok(bytes
        .chunks_exact(N)
        .map(|c| c.try_into().expect("chunks_exact yields N bytes")))
}

/// Fixed-width types: a closed-form `encoded_len` and the in-process
/// zero-copy path; `$encode`/`$decode` are the bulk codec bodies, and
/// `$extra` any further methods a type overrides.
macro_rules! impl_fixed {
    ($($t:ty => $name:literal, $size:literal,
       |$data:ident, $out:ident| $encode:expr,
       |$bytes:ident, $count:ident| $decode:expr
       $(, $extra:item)*;)*) => {$(
        impl Datatype for $t {
            const TYPE_NAME: &'static str = $name;

            fn encode_slice($data: &[Self], $out: &mut BytesMut) {
                $encode
            }

            fn decode_slice($bytes: &[u8], $count: usize) -> Result<Vec<Self>> {
                $decode
            }

            $($extra)*

            fn encoded_len(data: &[Self]) -> usize {
                data.len() * $size
            }

            fn to_shared(data: &[Self]) -> Option<SharedPayload> {
                Some(SharedPayload::for_slice(data))
            }

            fn from_shared(shared: SharedPayload) -> std::result::Result<Vec<Self>, SharedPayload> {
                shared.try_take::<Self>()
            }
        }
    )*};
}

/// The wider numeric types: `to_le_bytes`/`from_le_bytes` per element
/// in one `chunks_exact` pass.
macro_rules! impl_le {
    ($($t:ty => $name:literal, $size:literal;)*) => {
        impl_fixed! {$(
            $t => $name, $size,
            |data, out| put_le(data, out, <$t>::to_le_bytes),
            |bytes, count| Ok(le_elements::<$size>($name, bytes, count)?
                .map(<$t>::from_le_bytes)
                .collect());
        )*}
    };
}

impl_le! {
    i32 => "i32", 4;
    i64 => "i64", 8;
    u32 => "u32", 4;
    u64 => "u64", 8;
    f32 => "f32", 4;
    f64 => "f64", 8;
}

impl_fixed! {
    u8 => "u8", 1,
    |data, out| out.put_slice(data),
    |bytes, count| {
        check_len("u8", bytes, count, 1)?;
        Ok(bytes.to_vec())
    },
    fn decode_owned(bytes: Bytes, count: usize) -> Result<Vec<Self>> {
        check_len("u8", &bytes, count, 1)?;
        Ok(Vec::from(bytes))
    },
    fn wire_bytes(data: &[Self]) -> Option<&[u8]> {
        Some(data)
    };
    bool => "bool", 1,
    |data, out| put_le(data, out, |v| [u8::from(v)]),
    |bytes, count| le_elements::<1>("bool", bytes, count)?
        .map(|[b]| match b {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(Error::Codec(format!("bool: invalid byte {other}"))),
        })
        .collect();
    usize => "usize", 8,
    |data, out| put_le(data, out, |v| (v as u64).to_le_bytes()),
    |bytes, count| le_elements::<8>("usize", bytes, count)?
        .map(|b| {
            let v = u64::from_le_bytes(b);
            usize::try_from(v).map_err(|_| Error::Codec(format!("usize: value {v} too large")))
        })
        .collect();
}

impl Datatype for String {
    const TYPE_NAME: &'static str = "String";

    fn encode_slice(data: &[Self], out: &mut BytesMut) {
        for s in data {
            out.put_u64_le(s.len() as u64);
            out.put_slice(s.as_bytes());
        }
    }

    fn decode_slice(bytes: &[u8], count: usize) -> Result<Vec<Self>> {
        let mut rest = bytes;
        let mut out = Vec::with_capacity(count.min(rest.len() / 8));
        for _ in 0..count {
            let Some((len, tail)) = rest.split_first_chunk::<8>() else {
                return Err(Error::Codec("String: truncated length".into()));
            };
            let len = u64::from_le_bytes(*len);
            let Some(body) = usize::try_from(len).ok().and_then(|len| tail.get(..len)) else {
                return Err(Error::Codec("String: truncated body".into()));
            };
            let text =
                std::str::from_utf8(body).map_err(|e| Error::Codec(format!("String: {e}")))?;
            out.push(text.to_owned());
            rest = &tail[body.len()..];
        }
        if !rest.is_empty() {
            return Err(Error::Codec("String: trailing bytes".into()));
        }
        Ok(out)
    }

    fn encoded_len(data: &[Self]) -> usize {
        data.iter().map(|s| 8 + s.len()).sum()
    }

    fn to_shared(data: &[Self]) -> Option<SharedPayload> {
        Some(SharedPayload::for_slice(data))
    }

    fn from_shared(shared: SharedPayload) -> std::result::Result<Vec<Self>, SharedPayload> {
        shared.try_take::<Self>()
    }
}

/// `(value, location)` pairs for `MPI_MINLOC`/`MPI_MAXLOC` reductions.
/// `T` carries no `Clone`/`Sync` bound here, so these pairs keep the
/// default `to_shared`/`from_shared` and always travel encoded.
impl<T: Datatype> Datatype for (T, usize) {
    const TYPE_NAME: &'static str = "(T, usize)";

    fn encode_slice(data: &[Self], out: &mut BytesMut) {
        for (v, loc) in data {
            // Encode the value in place behind its length slot, then
            // patch the slot with the length it turned out to have.
            let slot = out.len();
            out.put_u64_le(0);
            T::encode_slice(std::slice::from_ref(v), out);
            let vlen = (out.len() - slot - 8) as u64;
            out[slot..slot + 8].copy_from_slice(&vlen.to_le_bytes());
            out.put_u64_le(*loc as u64);
        }
    }

    fn decode_slice(bytes: &[u8], count: usize) -> Result<Vec<Self>> {
        let truncated = || Error::Codec("(T, usize): truncated".into());
        let mut rest = bytes;
        // Each pair takes its two 8-byte fields at least.
        let mut out = Vec::with_capacity(count.min(rest.len() / 16));
        for _ in 0..count {
            let (vlen, tail) = rest.split_first_chunk::<8>().ok_or_else(truncated)?;
            let (vbytes, tail) = usize::try_from(u64::from_le_bytes(*vlen))
                .ok()
                .and_then(|vlen| tail.split_at_checked(vlen))
                .ok_or_else(truncated)?;
            let (loc, tail) = tail.split_first_chunk::<8>().ok_or_else(truncated)?;
            let v = T::decode_slice(vbytes, 1)?
                .pop()
                .ok_or_else(|| Error::Codec("(T, usize): empty value".into()))?;
            out.push((v, u64::from_le_bytes(*loc) as usize));
            rest = tail;
        }
        Ok(out)
    }
}

/// Encode a slice into a standalone payload.
pub fn encode<T: Datatype>(data: &[T]) -> Bytes {
    let mut out = BytesMut::new();
    T::encode_slice(data, &mut out);
    out.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<T: Datatype + Clone + PartialEq + std::fmt::Debug>(data: &[T]) {
        let payload = encode(data);
        let back = T::decode_slice(&payload, data.len()).expect("decode");
        assert_eq!(back, data);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(&[1i32, -2, i32::MAX, i32::MIN]);
        roundtrip(&[1i64, -2, i64::MAX, i64::MIN]);
        roundtrip(&[0u32, u32::MAX]);
        roundtrip(&[0u64, u64::MAX]);
        roundtrip(&[0.5f32, -1.25, f32::INFINITY]);
        roundtrip(&[0.5f64, -1.25, f64::NEG_INFINITY]);
        roundtrip(&[0u8, 255]);
        roundtrip(&[true, false, true]);
        roundtrip(&[0usize, 42, usize::MAX]);
        roundtrip::<i32>(&[]);
    }

    #[test]
    fn string_roundtrips() {
        roundtrip(&["".to_string(), "node-01".to_string(), "héllo ☺".to_string()]);
    }

    #[test]
    fn loc_pairs_roundtrip() {
        roundtrip(&[(3i64, 0usize), (-5, 7), (i64::MAX, usize::MAX)]);
        roundtrip(&[(1.5f64, 2usize)]);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The wire encoding of every built-in type, byte for byte as the
    /// element-at-a-time codec produced it: the bulk codec must not move
    /// a single byte.
    #[test]
    fn golden_encodings_are_unchanged() {
        let golden = [
            (
                hex(&encode(&[1i32, -2, i32::MAX, i32::MIN])),
                "01000000feffffffffffff7f00000080",
            ),
            (
                hex(&encode(&[1i64, -2, i64::MAX, i64::MIN])),
                "0100000000000000feffffffffffffffffffffffffffff7f0000000000000080",
            ),
            (
                hex(&encode(&[0u32, 0x0102_0304, u32::MAX])),
                "0000000004030201ffffffff",
            ),
            (
                hex(&encode(&[0u64, 0x0102_0304_0506_0708, u64::MAX])),
                "00000000000000000807060504030201ffffffffffffffff",
            ),
            (
                hex(&encode(&[0.5f32, -1.25, f32::INFINITY])),
                "0000003f0000a0bf0000807f",
            ),
            (
                hex(&encode(&[0.5f64, -1.25, f64::NEG_INFINITY])),
                "000000000000e03f000000000000f4bf000000000000f0ff",
            ),
            (hex(&encode(&[0u8, 7, 255])), "0007ff"),
            (hex(&encode(&[true, false, true])), "010001"),
            (
                hex(&encode(&[0usize, 42, usize::MAX])),
                "00000000000000002a00000000000000ffffffffffffffff",
            ),
            (
                hex(&encode(&["".to_string(), "hé".to_string()])),
                "0000000000000000030000000000000068c3a9",
            ),
            (
                hex(&encode(&[(3i64, 0usize), (-5, 7)])),
                "0800000000000000030000000000000000000000000000000800000000000000\
                 fbffffffffffffff0700000000000000",
            ),
            (
                hex(&encode(&[("ab".to_string(), 1usize)])),
                "0a00000000000000020000000000000061620100000000000000",
            ),
        ];
        for (got, want) in golden {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn encode_keeps_the_encoding_buffer() {
        // `encode` freezes its builder: the payload is the buffer the
        // elements were written into, not a copy of it.
        let data = vec![3u8; 4096];
        let mut out = BytesMut::new();
        u8::encode_slice(&data, &mut out);
        let ptr = out.as_ptr();
        assert_eq!(out.freeze().as_ptr(), ptr);
    }

    #[test]
    fn encode_slice_appends_after_existing_bytes() {
        let mut out = BytesMut::new();
        out.put_u8(0xAA);
        i32::encode_slice(&[1, 2], &mut out);
        bool::encode_slice(&[true], &mut out);
        assert_eq!(hex(&out), "aa010000000200000001");
    }

    #[test]
    fn wrong_length_is_codec_error() {
        let payload = encode(&[1i32, 2, 3]);
        assert!(i32::decode_slice(&payload, 2).is_err());
        assert!(i32::decode_slice(&payload, 4).is_err());
        // Valid as 12 bytes of u8 though — type checking happens at the
        // envelope layer, not here.
        assert!(u8::decode_slice(&payload, 12).is_ok());
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        assert_eq!(i32::encoded_len(&[1, 2, 3]), encode(&[1i32, 2, 3]).len());
        assert_eq!(u8::encoded_len(&[9; 17]), 17);
        assert_eq!(bool::encoded_len(&[true, false]), 2);
        assert_eq!(usize::encoded_len(&[1, 2]), 16);
        let strings = ["".to_string(), "hé".to_string()];
        assert_eq!(String::encoded_len(&strings), encode(&strings).len());
        let pairs = [(3i64, 0usize), (-5, 7)];
        assert_eq!(<(i64, usize)>::encoded_len(&pairs), encode(&pairs).len());
    }

    #[test]
    fn shared_round_trip_through_payload() {
        use crate::envelope::Payload;
        let data = vec![10i64, 20, 30];
        let shared = i64::to_shared(&data).expect("i64 opts into sharing");
        let back = decode_payload::<i64>(Payload::InProc(shared), 3).unwrap();
        assert_eq!(back, data);
        // Pairs opt out: to_shared is None, and a foreign shared payload
        // falls back to wire decoding.
        assert!(<(i64, usize)>::to_shared(&[(1, 2)]).is_none());
    }

    #[test]
    fn only_u8_is_its_own_wire_form() {
        let bytes = [1u8, 2, 3];
        let wire = u8::wire_bytes(&bytes).expect("u8 elements are their encoding");
        assert_eq!(wire.as_ptr(), bytes.as_ptr(), "the slice where it lies");
        assert_eq!(wire, &encode(&bytes)[..]);
        assert!(bool::wire_bytes(&[true]).is_none());
        assert!(i32::wire_bytes(&[1]).is_none());
    }

    #[test]
    fn invalid_bool_byte_rejected() {
        let payload = encode(&[7u8]);
        assert!(bool::decode_slice(&payload, 1).is_err());
    }

    #[test]
    fn truncated_string_rejected() {
        let payload = encode(&["hello".to_string()]);
        let cut = payload.slice(0..payload.len() - 1);
        assert!(String::decode_slice(&cut, 1).is_err());
    }

    proptest! {
        #[test]
        fn i64_roundtrip_any(xs in proptest::collection::vec(any::<i64>(), 0..64)) {
            roundtrip(&xs);
        }

        #[test]
        fn f64_roundtrip_any(xs in proptest::collection::vec(any::<f64>(), 0..64)) {
            let payload = encode(&xs);
            let back = f64::decode_slice(&payload, xs.len()).unwrap();
            prop_assert_eq!(back.len(), xs.len());
            for (a, b) in back.iter().zip(&xs) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn string_roundtrip_any(xs in proptest::collection::vec(".{0,16}", 0..16)) {
            roundtrip(&xs);
        }
    }
}
