//! The one CRC-32 of the workspace: IEEE 802.3, reflected, table-driven.
//!
//! Every checksummed format here — vector and subspace files, journal
//! frames, pool records, wire frames, span batches — uses this
//! polynomial. It lives in `esse-obs` because this crate sits at the
//! bottom of the dependency graph; `esse_core::durable` re-exports it
//! beside the atomic-write primitives.
//!
//! The update runs slice-by-8: eight bytes per step through eight
//! compile-time tables, where `TABLES[t][b]` is the CRC state after byte
//! `b` followed by `t` zero bytes. It computes exactly the bytewise
//! recurrence (kept in the tests as the reference).

/// The slice-by-8 lookup tables, built at compile time. `TABLES[0]` is
/// the classic bytewise table.
static TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
};

/// IEEE CRC-32 of `data` (the polynomial used by zip/PNG/Ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming form: fold `data` into a running (pre-inverted) state.
/// Start from `0xFFFF_FFFF` and finish by XOR-ing with `0xFFFF_FFFF`.
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = state ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = t[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise recurrence the slice-by-8 update must reproduce.
    fn crc32_update_bytewise(mut state: u32, data: &[u8]) -> u32 {
        for &b in data {
            state = TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
        }
        state
    }

    /// `len` bytes from a seeded xorshift stream.
    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_reference() {
        let lengths = (0..=64).chain([127, 128, 1000, 4093, 65_536 + 5]);
        for len in lengths {
            let buf = seeded_bytes(len as u64 + 1, len + 7);
            for offset in 0..8 {
                let data = &buf[offset..offset + len];
                let want = crc32_update_bytewise(0xFFFF_FFFF, data);
                assert_eq!(crc32_update(0xFFFF_FFFF, data), want, "len {len} offset {offset}");
                assert_eq!(crc32(data), want ^ 0xFFFF_FFFF);
                // Split-stream: the state carries across arbitrary cuts.
                for cut in [0, 1, 3, 7, 8, 9, data.len() / 2, data.len()] {
                    let cut = cut.min(data.len());
                    let (a, b) = data.split_at(cut);
                    let state = crc32_update(crc32_update(0xFFFF_FFFF, a), b);
                    assert_eq!(state, want, "len {len} offset {offset} cut {cut}");
                }
            }
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Reference values from the IEEE CRC-32 everywhere else.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_streaming_matches_oneshot() {
        let data = b"split into several pieces";
        let mut state = 0xFFFF_FFFF;
        for chunk in data.chunks(7) {
            state = crc32_update(state, chunk);
        }
        assert_eq!(state ^ 0xFFFF_FFFF, crc32(data));
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"esse journal record";
        let good = crc32(data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.to_vec();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), good, "flip at {byte}.{bit} undetected");
            }
        }
    }
}
