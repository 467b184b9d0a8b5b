//! Seeded file contents: the oracle every byte read is checked against.

/// SplitMix64 finaliser.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Fill `buf` with bytes `[off, off + buf.len())` of the stream named `key`.
/// Byte `p` of a stream depends only on `(key, p)`, so any range can be
/// regenerated independently of how it was written or read.
pub fn fill(buf: &mut [u8], key: u64, off: u64) {
    let mut p = off;
    let mut i = 0;
    while i < buf.len() {
        let word = mix(key ^ (p >> 3).wrapping_mul(0xD6E8_FEB8_6659_FD93)).to_le_bytes();
        let lo = (p & 7) as usize;
        let n = (8 - lo).min(buf.len() - i);
        buf[i..i + n].copy_from_slice(&word[lo..lo + n]);
        i += n;
        p += n as u64;
    }
}

/// `len` bytes of stream `key` from offset 0.
pub fn generate(key: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    fill(&mut v, key, 0);
    v
}

/// A small seeded generator for drawing workload parameters.
pub struct Rng(u64);

impl Rng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = mix(self.0);
        self.0 % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_is_position_addressed() {
        let whole = generate(42, 100);
        for off in [0usize, 1, 7, 8, 13, 63] {
            let mut part = vec![0u8; 100 - off];
            fill(&mut part, 42, off as u64);
            assert_eq!(part, whole[off..]);
        }
        assert_ne!(generate(43, 100), whole);
    }
}
