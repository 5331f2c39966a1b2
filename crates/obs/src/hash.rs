//! The workspace's deterministic hash and seed-stepping primitives.
//! Journal checksums, shard-ring placement, trace-id site bits, RIS
//! session tokens, mesh secrets, seeded op storms, redial jitter and the
//! facades' transport seeds are all built from these, so their outputs
//! are part of on-disk and replay formats: never change them.

/// FNV-1a 64-bit: dependency-free and stable across processes and
/// platforms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The SplitMix64 finalizer: every input bit avalanches into every
/// output bit. A SplitMix64 *stream* is `mix64(state += GOLDEN_GAMMA)`;
/// stateful callers add the gamma themselves.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The SplitMix64 stream increment (2^64 / φ).
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One step of Knuth's MMIX linear congruential generator. The facades
/// and the shard federation step their seed chains with it; those seeds
/// feed the in-memory transports' impairment RNGs.
pub fn lcg64(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005).wrapping_add(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_known_answers() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64(b"pc-1"), 0xf23f_940d_e1dc_4d8e);
        assert_eq!(fnv1a64(b"shard-0/vnode-0"), 0x1cd5_968e_4fc8_9b6a);
    }

    #[test]
    fn mix64_known_answers() {
        assert_eq!(mix64(0), 0);
        assert_eq!(mix64(1), 0x5692_161d_100b_05e5);
        assert_eq!(mix64(0xdead_beef), 0x4e06_2702_ec92_9eea);
        assert_eq!(mix64(u64::MAX), 0xb4d0_55fc_f2cb_bd7b);
        // The first draw of a SplitMix64 stream seeded with 0.
        assert_eq!(mix64(GOLDEN_GAMMA), 0xe220_a839_7b1d_cdaf);
    }

    #[test]
    fn lcg64_known_answers() {
        assert_eq!(lcg64(0), 1);
        assert_eq!(lcg64(1), 0x5851_f42d_4c95_7f2e);
        // The facades' seed chains start here.
        assert_eq!(lcg64(0x5eed), 0xdb87_b00e_cb19_42aa);
        assert_eq!(lcg64(0x5eed_5eed), 0x8b96_7b28_0dc2_42aa);
        assert_eq!(lcg64(u64::MAX), 0xa7ae_0bd2_b36a_80d4);
    }
}
