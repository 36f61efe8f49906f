//! The one CRC-32 of the workspace: IEEE 802.3, reflected, table-driven.
//!
//! Every checksummed format here — vector and subspace files, journal
//! frames, pool records, wire frames, span batches — uses this
//! polynomial. It lives in `esse-obs` because this crate sits at the
//! bottom of the dependency graph; `esse_core::durable` re-exports it
//! beside the atomic-write primitives.

/// The CRC-32 lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `data` (the polynomial used by zip/PNG/Ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming form: fold `data` into a running (pre-inverted) state.
/// Start from `0xFFFF_FFFF` and finish by XOR-ing with `0xFFFF_FFFF`.
pub fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state = CRC_TABLE[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

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
