//! Property tests for the streaming quantile sketch: on seeded streams
//! of several shapes (uniform, bimodal, adversarial sorted), reported
//! quantiles stay within the sketch's own documented rank-error bound
//! of the exact quantiles, and merging two sketches is equivalent (also
//! within bound) to sketching the concatenated stream.

use proptest::prelude::*;
use rnl_obs::{mix64, QuantileSketch, GOLDEN_GAMMA, QUANTILE_LADDER};

/// Deterministic stream generator: a splitmix64 stream over a
/// proptest-chosen seed, shaped by `shape`.
fn stream(seed: u64, shape: u8, len: usize) -> Vec<u64> {
    let mut x = seed | 1;
    let mut next = move || {
        x = x.wrapping_add(GOLDEN_GAMMA);
        mix64(x)
    };
    match shape % 3 {
        // Uniform over [0, 1e6).
        0 => (0..len).map(|_| next() % 1_000_000).collect(),
        // Bimodal: a fast mode near 100 and a slow mode near 1e6.
        1 => (0..len)
            .map(|_| {
                let r = next();
                if r % 10 < 9 {
                    100 + r % 50
                } else {
                    1_000_000 + r % 100_000
                }
            })
            .collect(),
        // Adversarial: fully sorted ascending.
        _ => (0..len as u64).collect(),
    }
}

/// Assert every ladder quantile of `sketch` is within its documented
/// rank-error bound of the exact quantile of `values`.
fn check_within_bound(sketch: &QuantileSketch, values: &[u64]) -> Result<(), TestCaseError> {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    let slack = sketch.rank_error_bound() * n + 1.0;
    for &q in &QUANTILE_LADDER {
        let v = sketch.query(q);
        let lo = sorted.partition_point(|&x| x < v) as f64;
        let hi = sorted.partition_point(|&x| x <= v) as f64;
        let target = q * n;
        prop_assert!(
            lo - slack <= target && target <= hi + slack,
            "q={} value={} rank band [{},{}] target {} slack {}",
            q,
            v,
            lo,
            hi,
            target,
            slack
        );
    }
    Ok(())
}

proptest! {
    /// Reported quantiles are within the documented rank-error bound of
    /// exact quantiles, for all three stream shapes.
    #[test]
    fn quantiles_within_documented_bound(
        seed in any::<u64>(),
        shape in 0u8..3,
        len in 1usize..20_000,
    ) {
        let values = stream(seed, shape, len);
        let mut sketch = QuantileSketch::new(256);
        for &v in &values {
            sketch.observe(v);
        }
        prop_assert_eq!(sketch.count(), values.len() as u64);
        check_within_bound(&sketch, &values)?;
    }

    /// merge(a, b) answers like a sketch of the concatenated stream:
    /// within the rank-error bound of the exact concatenated quantiles.
    #[test]
    fn merge_matches_concatenated_stream(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        shape_a in 0u8..3,
        shape_b in 0u8..3,
        len_a in 0usize..8_000,
        len_b in 0usize..8_000,
    ) {
        let a_vals = stream(seed_a, shape_a, len_a);
        let b_vals = stream(seed_b, shape_b, len_b);
        let mut a = QuantileSketch::new(256);
        for &v in &a_vals {
            a.observe(v);
        }
        let mut b = QuantileSketch::new(256);
        for &v in &b_vals {
            b.observe(v);
        }
        a.merge_from(&b);
        let mut all = a_vals;
        all.extend_from_slice(&b_vals);
        prop_assert_eq!(a.count(), all.len() as u64);
        if !all.is_empty() {
            check_within_bound(&a, &all)?;
            prop_assert_eq!(a.min(), *all.iter().min().unwrap());
            prop_assert_eq!(a.max(), *all.iter().max().unwrap());
        }
    }

    /// The sketch is deterministic: two sketches fed the same stream
    /// are structurally identical, and replaying yields identical
    /// snapshots.
    #[test]
    fn sketch_is_deterministic(seed in any::<u64>(), shape in 0u8..3, len in 0usize..5_000) {
        let values = stream(seed, shape, len);
        let mut a = QuantileSketch::new(128);
        let mut b = QuantileSketch::new(128);
        for &v in &values {
            a.observe(v);
            b.observe(v);
        }
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.snapshot(), b.snapshot());
    }
}
