//! Order statistics with an honest tail: a percentile is reported only
//! when enough samples lie beyond it to make it more than one outlier.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1)`) of ascending `sorted`
/// samples, or `None` when fewer than [`MIN_TAIL`] samples rank above it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Smallest sample count for which [`percentile`] reports `q`.
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| percentile(&vec![0.0; n], q).is_some())
        .unwrap_or(usize::MAX)
}

/// Percentile `q` of time-ordered `samples`, robust to a burst of host
/// noise: the samples are cut into up to `max_segments` consecutive
/// segments, each large enough for [`percentile`] to report `q`, and the
/// median of the segments' percentiles is returned with the segment count.
/// `None` when even one segment is too small.
pub fn segmented_percentile(samples: &[f64], q: f64, max_segments: usize) -> Option<(f64, usize)> {
    let k = (samples.len() / min_samples_for(q)).clamp(1, max_segments.max(1));
    let per = samples.len() / k;
    let mut values = Vec::with_capacity(k);
    for seg in samples.chunks(per).take(k) {
        let mut sorted = seg.to_vec();
        sorted.sort_by(f64::total_cmp);
        values.push(percentile(&sorted, q)?);
    }
    Some((median(&values), k))
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly ten above — reportable.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // 999 samples: rank ceil(989.01) = 990, only nine above.
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(min_samples_for(0.99), 1000);
    }

    #[test]
    fn p50_is_nearest_rank() {
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(11.0));
        assert_eq!(min_samples_for(0.5), 20);
        assert_eq!(percentile(&v[..19], 0.5), None);
    }

    #[test]
    fn degenerate_inputs_report_nothing() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0; 100], 1.0), None);
    }

    #[test]
    fn segmented_p99_shrugs_off_one_noisy_segment() {
        // Five segments of 1000 samples; one has a 10% tail of 100× stalls.
        let mut v: Vec<f64> = Vec::new();
        for seg in 0..5 {
            for i in 0..1000 {
                v.push(if seg == 2 && i % 10 == 0 {
                    100.0
                } else {
                    1.0 + i as f64 / 1000.0
                });
            }
        }
        let (p, k) = segmented_percentile(&v, 0.99, 5).unwrap();
        assert_eq!(k, 5);
        assert!((p - 1.989).abs() < 1e-9, "{p}");
        let mut sorted = v.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(
            percentile(&sorted, 0.99),
            Some(100.0),
            "the plain p99 is the stall"
        );
        // Too few samples for a single segment: nothing to report.
        assert_eq!(segmented_percentile(&v[..999], 0.99, 5), None);
        // Fewer samples than five segments need: fewer, larger segments.
        assert_eq!(segmented_percentile(&v[..2500], 0.99, 5).unwrap().1, 2);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
