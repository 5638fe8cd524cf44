//! Order statistics over op latencies.

use std::time::Duration;

/// The median (mean of the two middle values for an even count).
pub fn median(v: &[Duration]) -> Duration {
    let mut s = v.to_vec();
    s.sort_unstable();
    match s.len() {
        0 => Duration::ZERO,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2,
    }
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest value. Returns it with its percentile and the number
/// of samples beyond it (fewer than ten only when there are fewer than
/// eleven samples, in which case it is the minimum).
pub fn tail(v: &[Duration]) -> (Duration, f64, usize) {
    let mut s = v.to_vec();
    s.sort_unstable();
    if s.is_empty() {
        return (Duration::ZERO, 0.0, 0);
    }
    let beyond = 10.min(s.len() - 1);
    let idx = s.len() - 1 - beyond;
    let pct = 100.0 * (s.len() - beyond) as f64 / s.len() as f64;
    (s[idx], pct, beyond)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: &[u64]) -> Vec<Duration> {
        v.iter().map(|&x| Duration::from_millis(x)).collect()
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&ms(&[3, 1, 2])), Duration::from_millis(2));
        assert_eq!(median(&ms(&[4, 1, 2, 3])), Duration::from_micros(2500));
    }

    #[test]
    fn tail_leaves_ten_beyond() {
        let v: Vec<u64> = (1..=100).collect();
        let (t, pct, beyond) = tail(&ms(&v));
        assert_eq!(t, Duration::from_millis(90));
        assert_eq!(beyond, 10);
        assert!((pct - 90.0).abs() < 1e-9);
    }
}
