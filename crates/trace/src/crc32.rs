//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
//!
//! The trace format v2 checksums every section so that a torn write,
//! a disk bit-flip, or a truncated copy is detected *before* the
//! decoder acts on the bytes — and so the salvage decoder can tell a
//! good record prefix from the first damaged one. Implemented here
//! (slicing-by-8: eight 256-entry tables, built at compile time, fold
//! eight bytes per step) to keep the trace crate dependency-free.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is
/// the CRC of byte `b` followed by `k` zero bytes, so eight table
/// lookups advance the register by eight bytes at once.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
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

static TABLES: [[u32; 256]; 8] = build_tables();

/// The CRC-32 of `data` (IEEE, as produced by zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time definition the sliced loop must reproduce.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check values for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        for data in [&b""[..], b"123456789", b"The quick brown fox jumps over the lazy dog"] {
            assert_eq!(bytewise(data), crc32(data));
        }
    }

    /// Every length 0..=64 at every start offset 0..8, so each split
    /// into whole 8-byte words and a tail, at every alignment, is
    /// checked against the bytewise reference.
    #[test]
    fn sliced_matches_bytewise_at_every_length_and_offset() {
        let mut rng = crate::SplitMix64::new(32);
        let buf: Vec<u8> = (0..72).map(|_| rng.next_u64() as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), bytewise(data), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn sensitive_to_any_bit() {
        let base = b"post-mortem trace".to_vec();
        let clean = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut hurt = base.clone();
                hurt[byte] ^= 1 << bit;
                assert_ne!(crc32(&hurt), clean, "flip {byte}.{bit} undetected");
            }
        }
    }
}
