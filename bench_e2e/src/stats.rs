//! Robust summaries of per-pass timings.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it: the eleventh-largest value, with its percentile `100·(n−10)/n`.
/// `None` with fewer than eleven samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    (n >= 11).then(|| (v[n - 11], 100.0 * (n - 10) as f64 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p) = tail(&xs).unwrap();
        assert_eq!(v, 90.0);
        assert_eq!(p, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!(tail(&xs[..10]).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
