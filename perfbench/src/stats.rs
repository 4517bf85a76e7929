//! Order statistics over per-op latencies.

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer and one outlier moves it.
pub const MIN_BEYOND: usize = 10;

/// Median of unsorted samples (mean of the two middle ones for an even
/// count). `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `q` (in `(0, 1)`) of unsorted samples, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie strictly beyond
/// its rank.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// The fewest samples for which [`percentile`] reports `q`.
pub fn min_samples_for(q: f64) -> usize {
    (1..).find(|&n| percentile(&vec![0.0; n], q).is_some()).expect("some n supports any q < 1")
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 99 samples: rank ceil(89.1) = 90 leaves 9 beyond — refused.
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 0.9), None);
        // 100 samples: rank 90 leaves exactly 10 beyond.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(min_samples_for(0.9), 100);
        assert_eq!(min_samples_for(0.5), 20);
        assert_eq!(min_samples_for(0.99), 1000);
    }

    #[test]
    fn percentile_of_empty_is_none() {
        assert_eq!(percentile(&[], 0.5), None);
    }
}
