//! Order statistics over per-window samples.
//!
//! Every timed phase is cut into equal windows and a metric is computed
//! inside each window; one 50–250 ms preemption stall on this shared
//! host then spoils one window instead of the run's tail percentile.
//! [`typical`] turns the per-window values into the reported one.

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample.
/// `None` on an empty sample.
pub fn percentile<T: Copy + Ord>(samples: &mut [T], p: f64) -> Option<T> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// Median of a list of floats (mean of the two middle values when the
/// count is even). `None` on an empty list.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The value reported for a metric from its per-window values: the
/// decile on the metric's *good* side (10th percentile of a cost, 90th
/// of a throughput), linearly interpolated.
///
/// Interference on a shared host is one-sided — a neighbour's burst or
/// a preemption stall only ever makes a window worse — and on this host
/// it comes in stretches of seconds (a fixed arithmetic loop runs
/// anywhere between 1× and 1.5× its best time for seconds on end), so
/// the median of a run's windows flips between "quiet" and "disturbed"
/// from run to run. The good-side decile stays on the quiet level as
/// long as a tenth of the windows were quiet, and with 30–40 windows a
/// run it is the third or fourth best, so one lucky window cannot set
/// it. Over eight runs of each workload it repeated two to five times
/// better than the median of windows did. A change in the program moves
/// every window, and the decile with them.
pub fn typical(values: &[f64], better: Better) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = match better {
        Better::Lower => 0.10,
        Better::Higher => 0.90,
    };
    let pos = q * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    let hi = (lo + 1).min(v.len() - 1);
    Some(v[lo] + (v[hi] - v[lo]) * frac)
}

/// Mean of the lowest three quarters of `values`: an average that a
/// stall hitting a few of them cannot move.
pub fn trimmed_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate((v.len() * 3).div_ceil(4));
    Some(v.iter().sum::<f64>() / v.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 50.0), Some(50));
        assert_eq!(percentile(&mut s, 99.0), Some(99));
        assert_eq!(percentile(&mut s, 100.0), Some(100));
        assert_eq!(percentile(&mut [7u32], 1.0), Some(7));
        assert_eq!(percentile::<u32>(&mut [], 50.0), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn typical_is_the_good_side_decile() {
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(typical(&v, Better::Lower), Some(1.0));
        assert_eq!(typical(&v, Better::Higher), Some(9.0));
        assert_eq!(typical(&[1.0, 2.0], Better::Lower), Some(1.1));
        assert_eq!(typical(&[5.0], Better::Higher), Some(5.0));
        assert_eq!(typical(&[], Better::Lower), None);
        // Most windows disturbed: the quiet level still shows.
        let mut windows = vec![150.0; 24];
        windows.extend([100.0, 101.0, 99.0, 100.0, 102.0, 100.5]);
        assert!(typical(&windows, Better::Lower).unwrap() < 103.0);
    }

    #[test]
    fn trimmed_mean_drops_the_worst_quarter() {
        let v = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 9.0, 20.0];
        assert_eq!(trimmed_mean(&v), Some(1.0));
        assert_eq!(trimmed_mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(trimmed_mean(&[]), None);
    }
}
