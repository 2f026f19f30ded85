//! The workspace's one non-cryptographic content hash.

/// FNV-1a, 64 bit: journal frame checksums, WAR digests, report
/// fingerprints and retry-jitter seeds all go through this one function,
/// so a digest written by one crate can be recomputed by any other.
/// Stable across platforms and runs; collision-resistant enough for
/// change tracking, not for anything adversarial.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
