//! In-tree CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) for the
//! durability layer's record checksums.
//!
//! The WAL and checkpoint formats (see `insta-serve`'s `wal` module) frame
//! every record as `len ‖ crc32(payload) ‖ payload`; a torn write or a
//! bit-flipped body is detected by the checksum before any byte of the
//! payload is decoded. The tables are built at first use via a lazy
//! `OnceLock` — no build scripts, no external crates.
//!
//! The digest is the RFC 1952 one; the loop is slice-by-8: eight table
//! lookups fold eight input bytes per step, so the dependency chain
//! through the state is one XOR tree per eight bytes instead of one
//! lookup per byte. Table 0 is the classic byte-at-a-time table (the
//! head and tail of every update still use it), table `j` is table 0
//! advanced by `j` zero bytes.

use std::sync::OnceLock;

fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        for j in 1..8 {
            for i in 0..256 {
                let prev = t[j - 1][i];
                t[j][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// Streaming CRC-32 state, for checksumming a record as it is encoded.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = tables();
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// The final digest.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{for_all, Config};
    use crate::prop_assert_eq;

    /// The byte-at-a-time loop the slice-by-8 one replaced: the oracle.
    fn bytewise(bytes: &[u8]) -> u32 {
        let t = &tables()[0];
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = t[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    /// Known-answer tests against the RFC 1952 / zlib reference values.
    #[test]
    fn known_answers() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let mut c = Crc32::new();
        for chunk in data.chunks(37) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(&data));
    }

    /// Differential property: over random lengths, start alignments and
    /// chunkings, the slice-by-8 digest is the bytewise loop's.
    #[test]
    fn slice_by_8_equals_the_bytewise_loop() {
        for_all(
            Config::cases(256).seed(0x000C_2C32),
            |rng| {
                let len = rng.bounded_u64(600) as usize;
                let skew = rng.bounded_u64(8) as usize;
                let data: Vec<u8> = (0..skew + len).map(|_| rng.next_u64() as u8).collect();
                let cuts: Vec<usize> = (0..rng.bounded_u64(6))
                    .map(|_| rng.bounded_u64(len as u64 + 1) as usize)
                    .collect();
                (skew, data, cuts)
            },
            |(skew, data, cuts)| {
                // `skew` moves the slice's start off the allocation's
                // alignment; the cuts split it into uneven updates.
                // (Clamped, because a shrunk case may shorten `data` alone.)
                let body = &data[(*skew).min(data.len())..];
                let want = bytewise(body);
                prop_assert_eq!(crc32(body), want);
                let mut cuts = cuts.clone();
                cuts.sort_unstable();
                let mut c = Crc32::new();
                let mut at = 0;
                for cut in cuts {
                    let cut = cut.clamp(at, body.len());
                    c.update(&body[at..cut]);
                    at = cut;
                }
                c.update(&body[at..]);
                prop_assert_eq!(c.finish(), want);
                Ok(())
            },
        );
    }

    /// Any single-bit flip changes the digest — the property the WAL's
    /// torn-record detection leans on.
    #[test]
    fn single_bit_flips_are_detected() {
        let base = b"wal record payload 0123456789".to_vec();
        let golden = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), golden, "flip at byte {i} bit {bit}");
            }
        }
    }
}
