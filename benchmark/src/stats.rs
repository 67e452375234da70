//! Order statistics and window slicing shared by the measured windows, the
//! replay drivers and `compare`.

use ano_sim::time::{SimDuration, SimTime};

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

/// Nearest-rank percentile (`p` in 0..=100); 0.0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * (v.len() as f64 - 1.0)).round() as usize;
    v[rank]
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the "exclusive" method) computes them — the rule the acceptance check
/// for this benchmark is written against. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, linearly interpolated and
        // clamped to the sample range.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// `compare` holds against a metric's bound. 0.0 with fewer than two
/// values or a zero median.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    ((q3 - q1) / m).abs()
}

/// End times of `n` equal slices of `[start, start + window)`. The last
/// boundary is exactly `start + window`, so integer rounding never
/// shortens the measured window.
pub fn slice_ends(start: SimTime, window: SimDuration, n: usize) -> Vec<SimTime> {
    assert!(n > 0, "at least one slice");
    let total = window.as_nanos();
    (1..=n as u64)
        .map(|i| start + SimDuration::from_nanos(total * i / n as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }

    #[test]
    fn slices_cover_the_window_exactly() {
        let start = SimTime::from_micros(7);
        let ends = slice_ends(start, SimDuration::from_nanos(1_000_003), 20);
        assert_eq!(ends.len(), 20);
        assert_eq!(
            *ends.last().unwrap(),
            start + SimDuration::from_nanos(1_000_003)
        );
        assert!(ends.windows(2).all(|w| w[0] < w[1]));
        let widths: Vec<u64> = std::iter::once(start)
            .chain(ends.iter().copied())
            .collect::<Vec<_>>()
            .windows(2)
            .map(|w| w[1].since(w[0]).as_nanos())
            .collect();
        let (lo, hi) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
        assert!(hi - lo <= 1, "slices are equal to the nanosecond");
    }
}
