//! Sample summaries: medians, and a tail reported only where the sample
//! can carry one.
//!
//! The tail rule: report the highest percentile of [`TAIL_LADDER`] that
//! leaves at least ten samples beyond it, and no tail at all under forty
//! samples (the best available percentile would then be no tail).

/// Percentiles a tail may be reported at, highest first, in tenths of
/// a percent (integers keep the rank arithmetic exact).
const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 750];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: usize = 10;

/// Below this many samples only the median is reported.
const TAIL_MIN_SAMPLES: usize = 40;

/// Median of a sample (mean of the middle two for an even count).
/// Panics on an empty sample: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank position (1-based) of the percentile `permille / 10`
/// in `n` samples.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The tail of `n` samples, if any: `(permille, nearest rank)`.
fn tail_rank(n: usize) -> Option<(usize, usize)> {
    if n < TAIL_MIN_SAMPLES {
        return None;
    }
    TAIL_LADDER
        .into_iter()
        .map(|p| (p, rank(n, p)))
        .find(|&(_, r)| n - r >= TAIL_MIN_BEYOND)
}

/// Median, count, and the tail where [`tail_percentile`] allows one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// `(percentile, value)` of the reported tail.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize a sample. An empty one has a NaN median, which fails
    /// the run if it is reported.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                n: 0,
                p50: f64::NAN,
                tail: None,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = tail_rank(n).map(|(p, r)| (p as f64 / 10.0, sorted[r - 1]));
        Summary {
            n,
            p50: median(&sorted),
            tail,
        }
    }

    /// One human-readable line, e.g. `p50 0.081 (n=4012, p99 0.190)`.
    pub fn describe(&self, unit: &str) -> String {
        match self.tail {
            Some((p, v)) => format!(
                "p50 {:.4} {unit} (n={}, p{p} {:.4} {unit})",
                self.p50, self.n, v
            ),
            None => format!(
                "p50 {:.4} {unit} (n={}, no tail under 40)",
                self.p50, self.n
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tail percentile of `n` samples, in tenths of a percent.
    fn tail_permille(n: usize) -> Option<usize> {
        tail_rank(n).map(|(p, _)| p)
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn no_tail_under_forty_samples() {
        assert_eq!(tail_permille(0), None);
        assert_eq!(tail_permille(39), None);
        let s = Summary::of(&(1..=39).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail, None);
        assert_eq!(s.p50, 20.0);
        let empty = Summary::of(&[]);
        assert_eq!((empty.n, empty.tail), (0, None));
        assert!(empty.p50.is_nan());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 40 samples: p75 leaves exactly 10 beyond, p90 only 4.
        assert_eq!(tail_permille(40), Some(750));
        assert_eq!(tail_permille(99), Some(750));
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(199), Some(900));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(9999), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
    }

    #[test]
    fn tail_value_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&samples);
        assert_eq!(s.n, 100);
        // p90 of 1..=100 by nearest rank is the 90th value; 10 lie beyond.
        assert_eq!(s.tail, Some((90.0, 90.0)));
        assert_eq!(s.p50, 50.5);
    }
}
