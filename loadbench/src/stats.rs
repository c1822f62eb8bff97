//! The benchmark's own statistics: percentiles with their sample
//! counts, quartiles as Python's `statistics.quantiles(n=4)` computes
//! them, ratios that carry their base, and quantiles read back from the
//! engine's fixed-bucket latency histograms.

use std::fmt;

/// Distribution summary of one sample set. Every figure the benchmark
/// reports comes with the `n` it was computed from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p95: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarises `values` (any order). An empty set summarises to
    /// zeros with `n == 0`, so callers can report "no samples" plainly.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let [q1, _, q3] = quartiles(&v);
        Summary {
            n: v.len(),
            p50: percentile(&v, 0.50),
            p95: percentile(&v, 0.95),
            q1,
            q3,
        }
    }

    /// Interquartile range as a share of the median (0 for an empty or
    /// zero-median set).
    pub fn iqr_ratio(&self) -> f64 {
        if self.p50 == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.p50
        }
    }
}

/// Percentile `q` in `[0, 1]` of an ascending `sorted` slice, linearly
/// interpolated between the closest ranks (the "type 7" estimator).
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// First, second and third quartile of an ascending `sorted` slice,
/// with the same "exclusive" method as Python's
/// `statistics.quantiles(data, n=4)`, so the spread the benchmark
/// prints matches the one computed over whole runs. A single value is
/// its own quartiles; an empty slice gives zeros.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [sorted[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// A ratio that always prints with its base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub base: f64,
}

impl Ratio {
    pub fn new(num: f64, base: f64) -> Ratio {
        Ratio { num, base }
    }

    /// `num / base`, or 0 when the base is 0 (nothing was attempted).
    pub fn value(&self) -> f64 {
        if self.base == 0.0 {
            0.0
        } else {
            self.num / self.base
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6} ({} / base {})", self.value(), self.num, self.base)
    }
}

/// Quantile `q` of the observations between two snapshots of a
/// fixed-bucket histogram's cumulative counts (`(upper_bound, count)`
/// pairs, as `telemetry::Histogram::cumulative_buckets` returns them),
/// interpolated linearly inside the bucket that holds the rank. Returns
/// the observation count with the estimate; 0 when nothing was
/// observed. The overflow bucket reports its lower bound.
pub fn bucket_quantile(before: &[(u64, u64)], after: &[(u64, u64)], q: f64) -> (u64, f64) {
    let counts: Vec<(u64, u64)> = after
        .iter()
        .enumerate()
        .map(|(i, &(bound, cum))| (bound, cum - before.get(i).map_or(0, |b| b.1)))
        .collect();
    let total = counts.last().map_or(0, |c| c.1);
    if total == 0 {
        return (0, 0.0);
    }
    let rank = q.clamp(0.0, 1.0) * total as f64;
    let mut lower = 0u64;
    let mut seen = 0u64;
    for &(bound, cum) in &counts {
        if cum as f64 >= rank && cum > seen {
            if bound == u64::MAX {
                return (total, lower as f64);
            }
            let frac = (rank - seen as f64) / (cum - seen) as f64;
            return (total, lower as f64 + (bound - lower) as f64 * frac);
        }
        seen = cum;
        lower = bound;
    }
    (total, lower as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert!((percentile(&v, 0.5) - 5.5).abs() < 1e-12);
        assert!((percentile(&v, 0.95) - 9.55).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn summary_carries_its_sample_count() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.p50, 2.0);
        let empty = Summary::of(&[]);
        assert_eq!(empty.n, 0);
        assert_eq!(empty.p50, 0.0);
        assert_eq!(empty.iqr_ratio(), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0]), [1.25, 3.0, 7.0]);
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]: the
        // exclusive method extrapolates past the extremes.
        assert_eq!(quartiles(&[5.0, 9.0]), [4.0, 7.0, 10.0]);
    }

    #[test]
    fn iqr_ratio_is_spread_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert!((s.iqr_ratio() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn ratio_keeps_and_prints_its_base() {
        let r = Ratio::new(3.0, 12.0);
        assert_eq!(r.value(), 0.25);
        assert_eq!(r.to_string(), "0.250000 (3 / base 12)");
        assert_eq!(Ratio::new(0.0, 0.0).value(), 0.0);
    }

    #[test]
    fn bucket_quantile_interpolates_inside_the_bucket() {
        // Bounds 10, 20, overflow; 4 observations in (10, 20].
        let before = [(10, 0), (20, 0), (u64::MAX, 0)];
        let after = [(10, 0), (20, 4), (u64::MAX, 4)];
        assert_eq!(bucket_quantile(&before, &after, 0.5), (4, 15.0));
        // Only the delta between snapshots counts.
        let later = [(10, 2), (20, 6), (u64::MAX, 6)];
        assert_eq!(bucket_quantile(&after, &later, 0.5), (2, 5.0));
        assert_eq!(bucket_quantile(&after, &after, 0.5), (0, 0.0));
        // Overflow observations report the last finite bound.
        let over = [(10, 0), (20, 0), (u64::MAX, 3)];
        assert_eq!(bucket_quantile(&before, &over, 0.5), (3, 20.0));
    }
}
