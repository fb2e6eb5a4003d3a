//! Order statistics over latency samples.

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0 for
/// an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    sorted_percentile(&s, q)
}

/// Nearest-rank percentile of already sorted samples.
pub fn sorted_percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Samples strictly above the nearest-rank percentile `q`: the support a
/// tail percentile rests on.
pub fn beyond(len: usize, q: f64) -> usize {
    len - ((q * len as f64).ceil() as usize).min(len)
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 500.0);
        assert_eq!(percentile(&s, 0.99), 990.0);
        assert_eq!(beyond(s.len(), 0.99), 10);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
