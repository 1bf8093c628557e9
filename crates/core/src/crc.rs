//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! Two consumers share this one implementation: the wire frame codec in
//! `patternlets-net` (checksums every frame body so a flipped bit tears
//! the connection down instead of decoding garbage) and the checkpoint
//! files written by the `mp` runtime (so a torn or truncated checkpoint
//! is detected at restore instead of resuming from nonsense). Keeping it
//! here avoids a dependency edge between those crates.
//!
//! The loop is slice-by-16: sixteen 256-entry tables, built at compile
//! time, fold sixteen input bytes per step with independent lookups
//! instead of one byte per dependent lookup; the last `len % 16` bytes
//! go through the classic bytewise table (`TABLES[0]`). It computes the
//! same function as the bytewise loop — every value is unchanged, so
//! frames and checkpoints written by older builds still verify.

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

/// Continue a finished CRC-32 over more bytes, without concatenating
/// buffers: `crc32_extend(crc32(a), b) == crc32(a ++ b)`. The frame
/// codec uses this to checksum `length prefix ++ body` while the two
/// live in separate buffers on the read path.
pub fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !crc;
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
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn matches_the_bytewise_oracle_at_every_length_offset_and_seed() {
        let data = pattern(300 + 16);
        for seed in [0u32, 1, 0xDEAD_BEEF, u32::MAX] {
            for start in 0..16 {
                for len in 0..=300 {
                    let slice = &data[start..start + len];
                    assert_eq!(
                        crc32_extend(seed, slice),
                        bytewise_extend(seed, slice),
                        "seed {seed:#x}, start {start}, len {len}"
                    );
                }
            }
        }
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
}
