//! 64-bit FNV-1a, byte at a time: the workspace's one content digest
//! (result fingerprints, hash-table checksums, serve reports, test pins).
//! Two places keep their own loop on purpose: `gpl-core`'s per-tile
//! `chunk_checksum` is word-wise, and the copies with prime
//! `0x1000_0000_01b3` (the property-test seeds, the TPC-H generator's
//! stream seeds, the root tests' result fingerprints) seed pinned data.

/// A running FNV-1a digest: [`Fnv1a::write`] folds bytes in, and
/// [`Fnv1a::finish`] reads the digest of everything written so far.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// FNV's 64-bit offset basis.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV's 64-bit prime.
    const PRIME: u64 = 0x100_0000_01b3;

    pub const fn new() -> Self {
        Self(Self::OFFSET)
    }

    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// [`Fnv1a::write`] of `v`'s little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a of `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_vectors() {
        // FNV-1a 64 test vectors from the reference implementation.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write_u64(7);
        let mut whole = b"foo".to_vec();
        whole.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(h.finish(), fnv1a(&whole));
    }
}
