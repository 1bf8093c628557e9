//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! Two consumers share this one implementation: the wire frame codec in
//! `patternlets-net` (checksums every frame body so a flipped bit tears
//! the connection down instead of decoding garbage) and the checkpoint
//! files written by the `mp` runtime (so a torn or truncated checkpoint
//! is detected at restore instead of resuming from nonsense). Keeping it
//! here avoids a dependency edge between those crates.
//!
//! Two paths compute the same function:
//!
//! - **Carry-less-multiply fold** (x86-64): the method of Gopal et al.,
//!   "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//!   Instruction" (Intel, 2009). Four 128-bit lanes absorb 64 bytes per
//!   step, are folded into one lane that absorbs 16 bytes per step, and
//!   that lane is reduced 128 → 64 → 32 bits (the last step a Barrett
//!   reduction); the last `len % 16` bytes go through the tables.
//! - **Slice-by-16**: sixteen 256-entry tables, built at compile time,
//!   fold sixteen input bytes per step with independent lookups instead
//!   of one byte per dependent lookup; the last `len % 16` bytes go
//!   through the classic bytewise table (`TABLES[0]`).
//!
//! [`crc32_extend`] takes the fold for inputs of 128 bytes or more when
//! the CPU reports `pclmulqdq` and `sse4.1` at run time. Every other
//! input takes the tables: short ones (an 8-byte message's record, the
//! 4-byte length prefix every frame checksum starts with), and every
//! input on CPUs without those instructions or on other architectures.
//! The rule reads only the input length and the CPU, and no flag,
//! environment variable or feature overrides it: both paths produce the
//! same value for every input, so there is nothing for a user to
//! choose, and a knob would only add a configuration to test. The
//! tables remain the fallback and the oracle the fold is tested
//! against. Every value is that of the bytewise loop, so frames and
//! checkpoints written by older builds still verify.

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = build_tables();

/// CRC-32 of `data` (IEEE; matches zlib's `crc32(0, ...)`).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_extend(0, data)
}

/// Inputs at least this long take the carry-less-multiply fold when the
/// CPU has it. The fold needs one whole 64-byte block; the margin above
/// that keeps short records (an 8-byte message's `Env` record, every
/// control frame) on the tables, where they cost tens of nanoseconds.
const FOLD_MIN_LEN: usize = 128;

/// Continue a finished CRC-32 over more bytes, without concatenating
/// buffers: `crc32_extend(crc32(a), b) == crc32(a ++ b)`. The frame
/// codec uses this to checksum `length prefix ++ body` while the two
/// live in separate buffers on the read path.
pub fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= FOLD_MIN_LEN && clmul::available() {
        // SAFETY: `clmul::available()` has just checked at run time that
        // this CPU supports pclmulqdq and sse4.1 (sse2 is part of the
        // x86-64 baseline), the features `fold` is compiled for.
        return !unsafe { clmul::fold(!crc, data) };
    }
    !slice_by_16(!crc, data)
}

/// The table loop over the raw (pre-inverted) register.
fn slice_by_16(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        let a = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi64x, _mm_setr_epi32, _mm_srli_si128, _mm_xor_si128,
    };

    // Gopal et al.'s constants for the bit-reflected polynomial: each
    // `K` is `reflect32(x^n mod P) << 1`. Multiplying a lane's two
    // 64-bit halves by a pair of them carries the lane a fixed distance
    // forward.
    /// x^(4·128+32) and x^(4·128−32) mod P: carry a lane 512 bits.
    pub(super) const K1: i64 = 0x1_5444_2BD4;
    pub(super) const K2: i64 = 0x1_C6E4_1596;
    /// x^(128+32) and x^(128−32) mod P: carry a lane 128 bits.
    pub(super) const K3: i64 = 0x1_7519_97D0;
    pub(super) const K4: i64 = 0x0_CCAA_009E;
    /// x^64 mod P: carry 64 bits down to 32 (the 128 → 64 step).
    pub(super) const K5: i64 = 0x1_63CD_6124;
    /// The polynomial with its x^32 term, reflected over 33 bits.
    pub(super) const POLY: i64 = 0x1_DB71_0641;
    /// Barrett's μ = x^64 div P, reflected over 33 bits.
    pub(super) const MU: i64 = 0x1_F701_1641;

    #[cfg(test)]
    thread_local! {
        /// Calls of [`fold`] on this thread, so tests can see which path
        /// ran.
        pub(super) static FOLDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Does this CPU have every feature [`fold`] is compiled for?
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// The raw (pre-inverted) CRC register `crc` continued over `data`,
    /// any length: whole 16-byte blocks by carry-less multiplication,
    /// the rest (or all of an input under 64 bytes) by the tables. Call
    /// it only after [`available`] returned true.
    #[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
    pub(super) fn fold(crc: u32, data: &[u8]) -> u32 {
        #[cfg(test)]
        FOLDS.with(|n| n.set(n.get() + 1));
        let (blocks, tail) = data.as_chunks::<16>();
        let (quads, singles) = blocks.as_chunks::<4>();
        let Some((first, quads)) = quads.split_first() else {
            return super::slice_by_16(crc, data);
        };
        // `lane` carried 128 (or 512) bits forward by `k`, plus `next`.
        let carry = |lane, k, next| {
            let lo = _mm_clmulepi64_si128::<0x00>(lane, k);
            let hi = _mm_clmulepi64_si128::<0x11>(lane, k);
            _mm_xor_si128(_mm_xor_si128(lo, hi), next)
        };

        let mut lanes = first.each_ref().map(load);
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = carry(*lane, k1k2, load(block));
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = lanes[0];
        for &lane in &lanes[1..] {
            x = carry(x, k3k4, lane);
        }
        for block in singles {
            x = carry(x, k3k4, load(block));
        }

        // 128 → 64 bits: the low half carried 64 bits onto the high
        // half, then the low 32 bits of that carried 32 bits onward.
        let low32 = _mm_setr_epi32(-1, 0, -1, 0);
        x = _mm_xor_si128(
            _mm_srli_si128::<8>(x),
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
        );
        x = _mm_xor_si128(
            _mm_srli_si128::<4>(x),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
        );
        // 64 → 32 bits (Barrett): q = low32(x)·μ, then x ^= low32(q)·P.
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly_mu);
        let r = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), poly_mu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(x, r)) as u32;
        super::slice_by_16(crc, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise reference loop the slice-by-16 loop replaced, kept
    /// as the oracle.
    fn bytewise_extend(crc: u32, data: &[u8]) -> u32 {
        let mut crc = !crc;
        for &byte in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic, non-repeating-looking test bytes.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i.wrapping_mul(131) ^ (i >> 7)) as u8)
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Long enough to run the 16-byte blocks as well as the tail.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sixty_four_kib_pattern_has_its_known_value() {
        // zlib's `crc32` of the same 64 KiB, computed independently.
        const KNOWN: u32 = 0xCD4A_9BFD;
        let data = pattern(64 << 10);
        assert_eq!(bytewise_extend(0, &data), KNOWN);
        assert_eq!(crc32(&data), KNOWN);
    }

    /// Lengths 0..=1100 cross the fold's 128-byte threshold and cover
    /// up to sixteen 64-byte steps, every count of trailing 16-byte
    /// steps and every tail length.
    #[test]
    fn matches_the_bytewise_oracle_at_every_length_offset_and_seed() {
        const MAX: usize = 1100;
        let data = pattern(MAX + 16);
        #[cfg(target_arch = "x86_64")]
        let fold = clmul::available();
        for seed in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
            for start in 0..16 {
                for len in 0..=MAX {
                    let slice = &data[start..start + len];
                    let want = bytewise_extend(seed, slice);
                    assert_eq!(
                        crc32_extend(seed, slice),
                        want,
                        "seed {seed:#x}, start {start}, len {len}"
                    );
                    assert_eq!(
                        !slice_by_16(!seed, slice),
                        want,
                        "tables: seed {seed:#x}, start {start}, len {len}"
                    );
                    #[cfg(target_arch = "x86_64")]
                    if fold {
                        // SAFETY: `clmul::available()` reported pclmulqdq
                        // and sse4.1 on this CPU.
                        let got = !unsafe { clmul::fold(!seed, slice) };
                        assert_eq!(got, want, "fold: seed {seed:#x}, start {start}, len {len}");
                    }
                }
            }
        }
    }

    /// Without this, the fold tests above would pass vacuously on an
    /// x86-64 host whose fold path had been switched off.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn a_cpu_with_the_instructions_takes_the_fold_path() {
        let cpu_has_it = std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1");
        assert_eq!(clmul::available(), cpu_has_it);
        let folds = || clmul::FOLDS.with(|n| n.get());
        let data = pattern(64 << 10);
        for (len, takes_fold) in [
            (0, false),
            (8, false),
            (127, false),
            (128, true),
            (64 << 10, true),
        ] {
            let before = folds();
            crc32_extend(0, &data[..len]);
            assert_eq!(
                folds() - before,
                u64::from(cpu_has_it && takes_fold),
                "len {len}, cpu has pclmulqdq and sse4.1: {cpu_has_it}"
            );
        }
    }

    /// The fold's constants, derived from the polynomial: `K` for a
    /// distance `n` is `reflect32(x^n mod P) << 1`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_follow_from_the_polynomial() {
        const P: u64 = 0x1_04C1_1DB7; // 0xEDB88320 unreflected, with x^32
        let x_pow_mod_p = |n: u32| {
            let mut r: u64 = 1;
            for _ in 0..n {
                r <<= 1;
                if r & (1 << 32) != 0 {
                    r ^= P;
                }
            }
            r as u32
        };
        let k = |n| i64::from(x_pow_mod_p(n).reverse_bits()) << 1;
        let reflect33 = |v: u64| (v.reverse_bits() >> 31) as i64;
        // x^64 div P by long division.
        let mut rem: u128 = 1 << 64;
        let mut quotient: u64 = 0;
        for bit in (0..=32).rev() {
            if rem & (1u128 << (bit + 32)) != 0 {
                rem ^= u128::from(P) << bit;
                quotient |= 1 << bit;
            }
        }
        assert_eq!(clmul::K1, k(4 * 128 + 32));
        assert_eq!(clmul::K2, k(4 * 128 - 32));
        assert_eq!(clmul::K3, k(128 + 32));
        assert_eq!(clmul::K4, k(128 - 32));
        assert_eq!(clmul::K5, k(64));
        assert_eq!(clmul::POLY, reflect33(P));
        assert_eq!(clmul::MU, reflect33(quotient));
    }

    #[test]
    fn one_bit_flip_changes_the_checksum() {
        let data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn incremental_vs_whole_agree_on_concatenation() {
        let whole = crc32(b"hello world");
        assert_eq!(crc32_extend(crc32(b"hello"), b" world"), whole);
        assert_eq!(crc32_extend(whole, b""), whole);
        assert_eq!(crc32_extend(crc32(b""), b"hello world"), whole);
        let mut piecewise = 0;
        for chunk in b"hello world".chunks(3) {
            piecewise = crc32_extend(piecewise, chunk);
        }
        assert_eq!(piecewise, whole);
    }

    proptest! {
        /// Splitting an input anywhere, with either side shorter or longer
        /// than the fold threshold, gives the checksum of the whole.
        #[test]
        fn extend_over_a_split_equals_extend_over_the_whole(
            bytes in proptest::collection::vec(any::<u8>(), 0..700),
            seed in any::<u32>(),
            cut in 0usize..700,
        ) {
            let (a, b) = bytes.split_at(cut.min(bytes.len()));
            let whole = crc32_extend(seed, &bytes);
            prop_assert_eq!(crc32_extend(crc32_extend(seed, a), b), whole);
            prop_assert_eq!(whole, bytewise_extend(seed, &bytes));
        }
    }
}
