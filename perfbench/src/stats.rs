//! Medians, quartiles and the tail-percentile rule.

/// Median, quartiles and sample count of one series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Third quartile.
    pub p75: f64,
}

/// Quantile `q` (in `[0, 1]`) of an ascending, non-empty slice, linearly
/// interpolated between neighbouring ranks.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty series");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median and quartiles of `xs`, or `None` for an empty series.
#[must_use]
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    Some(Summary {
        n: s.len(),
        p25: quantile(&s, 0.25),
        p50: quantile(&s, 0.5),
        p75: quantile(&s, 0.75),
    })
}

/// Percentiles the tail rule may report, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must rank above a percentile before it counts as measured.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The tail of a latency series: the highest percentile of the ladder that
/// has at least [`TAIL_MIN_BEYOND`] samples ranked above it, as
/// `(percentile, value)`.  A series too short for even the median to
/// qualify (under 20 samples) reports the median, tagged as percentile 50.
#[must_use]
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    let pct = TAIL_LADDER
        .into_iter()
        .find(|pct| {
            // Integer arithmetic in tenths of a percent: no float rounding.
            let at_or_below = ((pct * 10.0).round() as usize * n).div_ceil(1000);
            n - at_or_below.min(n) >= TAIL_MIN_BEYOND
        })
        .unwrap_or(50.0);
    Some((pct, quantile(&s, pct / 100.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the rule must not depend on input order.
        (0..n).map(|i| ((i * 7919) % n) as f64).collect()
    }

    #[test]
    fn quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.n, s.p25, s.p50, s.p75), (5, 2.0, 3.0, 4.0));
        let s = summarize(&[1.0, 2.0]).unwrap();
        assert_eq!(s.p50, 1.5);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail(&ramp(1000)).unwrap().0, 99.0);
        assert_eq!(tail(&ramp(999)).unwrap().0, 98.0);
        assert_eq!(tail(&ramp(200)).unwrap().0, 95.0);
        assert_eq!(tail(&ramp(199)).unwrap().0, 90.0);
        assert_eq!(tail(&ramp(100)).unwrap().0, 90.0);
        assert_eq!(tail(&ramp(40)).unwrap().0, 75.0);
        assert_eq!(tail(&ramp(20)).unwrap().0, 50.0);
        assert_eq!(tail(&ramp(10_000)).unwrap().0, 99.9);
    }

    #[test]
    fn tail_value_is_the_interpolated_percentile() {
        let (pct, v) = tail(&ramp(101)).unwrap();
        assert_eq!(pct, 90.0);
        assert!((v - 90.0).abs() < 1e-9);
    }

    #[test]
    fn short_series_fall_back_to_the_median() {
        assert_eq!(tail(&[3.0, 1.0, 2.0]), Some((50.0, 2.0)));
        assert_eq!(tail(&[]), None);
    }
}
