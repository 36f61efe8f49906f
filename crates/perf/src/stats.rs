//! Order statistics for the ledger: medians, the quartiles the
//! acceptance rule is stated in, and the "highest percentile with ten
//! samples beyond it" tail rule.

/// Ascending copy of `v` (NaNs are a harness bug and panic).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    s
}

/// Median of a non-empty sample (mean of the middle two for even n).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    assert!(!s.is_empty(), "median of an empty sample");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(v, n=4)` computes them (the "exclusive"
/// method) — the rule the benchmark's steadiness is judged by. Needs
/// at least two samples.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v);
    assert!(s.len() >= 2, "quartiles need two samples");
    let m = s.len() + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance rule bounds.
pub fn iqr_frac(v: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(v);
    (q3 - q1) / q2
}

/// The highest of p90/p95/p99/p99.9 that still has at least ten of `n`
/// samples beyond it; `None` below 100 samples.
pub fn eligible_tail(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.90].into_iter().find(|p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile `p` in `[0, 1]` of a non-empty sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    assert!(!s.is_empty(), "percentile of an empty sample");
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// What is printed for one metric's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// The reported value.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// `(p, value)` of the eligible tail percentile, if any.
    pub tail: Option<(f64, f64)>,
    /// Interquartile distance over the median (two or more samples).
    pub iqr_frac: Option<f64>,
}

impl Summary {
    /// Summarise a non-empty sample.
    pub fn of(v: &[f64]) -> Summary {
        let s = sorted(v);
        Summary {
            n: s.len(),
            median: median(&s),
            min: s[0],
            max: s[s.len() - 1],
            tail: eligible_tail(s.len()).map(|p| (p, percentile(&s, p))),
            iqr_frac: (s.len() >= 2).then(|| iqr_frac(&s)),
        }
    }

    /// A single measured value (counts, ratios computed once).
    pub fn single(x: f64) -> Summary {
        Summary { n: 1, median: x, min: x, max: x, tail: None, iqr_frac: None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), [10.0, 20.0, 30.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(eligible_tail(99), None);
        assert_eq!(eligible_tail(100), Some(0.90));
        assert_eq!(eligible_tail(200), Some(0.95));
        assert_eq!(eligible_tail(999), Some(0.95));
        assert_eq!(eligible_tail(1000), Some(0.99));
        assert_eq!(eligible_tail(10_000), Some(0.999));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 0.5), 100.0);
        let s = Summary::of(&v);
        assert_eq!((s.n, s.min, s.max, s.tail), (200, 1.0, 200.0, Some((0.95, 190.0))));
        assert_eq!(Summary::single(3.0).iqr_frac, None);
        assert!((Summary::of(&[1.0, 2.0]).iqr_frac.unwrap() - 1.0).abs() < 1e-12);
    }
}
