//! Order statistics used for every reported number: median, quartiles
//! (Python's `statistics.quantiles(v, n=4)`, so spreads computed here
//! match the ones the acceptance driver computes) and the tail rule.

/// Sort ascending; NaNs cannot occur in timings but sort last if they do.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `v`; 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First, second and third quartile by the exclusive method; `None` for
/// fewer than two samples (Python raises there).
pub fn quartiles(v: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median; 0 when undefined.
pub fn iqr_frac(v: &[f64]) -> f64 {
    match quartiles(v) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// Percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// The tail rule: the highest percentile of [`TAIL_LADDER`] that still
/// has at least ten samples beyond it, and its value (nearest rank).
/// With fewer than twenty samples nothing above the median is
/// supported, so the median is returned as the 50th percentile.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n == 0 {
        return (50.0, 0.0);
    }
    let mut pct = TAIL_LADDER[0];
    for p in TAIL_LADDER {
        let rank = ((n as f64) * p / 100.0).ceil() as usize;
        if n - rank.min(n) >= 10 {
            pct = p;
        }
    }
    if pct == TAIL_LADDER[0] {
        return (pct, median(&s));
    }
    let rank = ((n as f64) * pct / 100.0).ceil() as usize;
    (pct, s[rank.clamp(1, n) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some([1.0, 2.0, 4.0]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((iqr_frac(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: not even p90 leaves ten beyond it.
        assert_eq!(tail(&ramp(19)), (50.0, 10.0));
        // 100 samples: p90 leaves exactly ten, p95 only five.
        assert_eq!(tail(&ramp(100)), (90.0, 90.0));
        // 200 samples: p95 leaves ten.
        assert_eq!(tail(&ramp(200)), (95.0, 190.0));
        // 1000 samples: p99 leaves ten, p99.9 one.
        assert_eq!(tail(&ramp(1000)), (99.0, 990.0));
        assert_eq!(tail(&ramp(10_000)), (99.9, 9990.0));
    }
}
