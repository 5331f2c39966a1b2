//! Consistent-hash ring over route-server shards.
//!
//! The paper's §4 scalability argument — "the routing matrices between
//! different users do not overlap, so we can have one route server per
//! user" — generalizes to N shards: every session and wire is owned by
//! the shard its *principal* (the RIS `pc_name`, or a design/user name
//! on the web surface) hashes to. Membership is fixed when the ring is
//! built; placement is a pure function of `(n, principal)`.
//!
//! Everything here is deterministic and dependency-free: FNV-1a over
//! `shard-<k>/vnode-<v>` and the principal bytes, no RandomState, no
//! wall clock — the same ring on the front tier and the federation
//! always agrees on ownership.

use rnl_obs::{fnv1a64, mix64};

/// A key's position on the ring. FNV-1a alone leaves the *high* bits of
/// short, shared-prefix keys ("pc-1", "pc-2"…) strongly correlated —
/// the last byte's entropy only passes through one multiply — which
/// would pile whole key families onto one arc. The SplitMix64
/// finalizer on top makes the bits avalanche.
fn ring_point(bytes: &[u8]) -> u64 {
    mix64(fnv1a64(bytes))
}

/// Virtual nodes per shard. Enough that a 4-shard ring splits keys
/// within a few percent of even.
pub const VNODES_PER_SHARD: usize = 64;

/// A consistent-hash ring mapping principals to shard indices `0..n`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    /// `(vnode_hash, shard)` sorted by hash — the ring, flattened.
    vnodes: Vec<(u64, usize)>,
}

impl HashRing {
    /// A ring over shards `0..n`. `n = 0` yields an empty ring on which
    /// [`HashRing::shard_of`] returns `None`.
    pub fn new(n: usize) -> HashRing {
        let mut vnodes = Vec::with_capacity(n * VNODES_PER_SHARD);
        for shard in 0..n {
            for v in 0..VNODES_PER_SHARD {
                let key = format!("shard-{shard}/vnode-{v}");
                vnodes.push((ring_point(key.as_bytes()), shard));
            }
        }
        // Sort by hash; break the (astronomically unlikely) hash tie by
        // shard index so the ring is a pure function of membership.
        vnodes.sort_unstable();
        HashRing { vnodes }
    }

    /// The shard owning `principal`, or `None` on an empty ring.
    pub fn shard_of(&self, principal: &str) -> Option<usize> {
        if self.vnodes.is_empty() {
            return None;
        }
        let h = ring_point(principal.as_bytes());
        // First vnode clockwise from the key's point, wrapping.
        let idx = match self.vnodes.binary_search(&(h, usize::MAX)) {
            Ok(i) | Err(i) => i % self.vnodes.len(),
        };
        self.vnodes.get(idx).map(|&(_, shard)| shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_is_deterministic_and_total() {
        let ring = HashRing::new(4);
        for i in 0..1000 {
            let key = format!("principal-{i}");
            let a = ring.shard_of(&key);
            let b = HashRing::new(4).shard_of(&key);
            assert_eq!(a, b);
            assert!(a.is_some_and(|s| s < 4));
        }
    }

    #[test]
    fn distribution_is_roughly_even() {
        let ring = HashRing::new(4);
        let mut counts = [0usize; 4];
        for i in 0..4000 {
            let key = format!("pc-{i}");
            if let Some(s) = ring.shard_of(&key) {
                counts[s] += 1;
            }
        }
        for &c in &counts {
            // 4000 keys over 4 shards: each within [500, 2000] is ample
            // proof the vnodes spread load; exact balance is not the goal.
            assert!((500..2000).contains(&c), "skewed ring: {counts:?}");
        }
    }

    #[test]
    fn placement_is_pinned() {
        // Owners of pc-0..pc-15 and of the design "span": E23 and the
        // shard_scaling bench pick their principals by these, so any
        // change here is a placement change, not a refactor.
        let owners = |n: usize| -> Vec<usize> {
            let ring = HashRing::new(n);
            (0..16)
                .map(|i| ring.shard_of(&format!("pc-{i}")).unwrap_or(usize::MAX))
                .chain(ring.shard_of("span"))
                .collect()
        };
        assert_eq!(
            owners(2),
            [0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 0]
        );
        assert_eq!(
            owners(4),
            [0, 2, 0, 1, 0, 2, 1, 1, 3, 2, 2, 3, 0, 0, 0, 0, 3]
        );
    }

    #[test]
    fn empty_ring_owns_nothing() {
        assert_eq!(HashRing::new(0).shard_of("anyone"), None);
    }
}
