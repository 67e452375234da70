//! Sample collection shared by experiments.

use crate::time::SimDuration;

/// Collects samples and reports mean/percentiles (request latencies, Table 4).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    /// Lazily sorted copy of `values`; emptied by `add`, rebuilt by the
    /// first percentile query after a mutation. Keeps repeated percentile
    /// calls (p50/p99/p999 on the same window) O(1) after one sort instead
    /// of cloning and re-sorting per call.
    sorted: std::cell::RefCell<Vec<f64>>,
}

impl Samples {
    /// Creates an empty collection.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Adds one sample.
    pub fn add(&mut self, v: f64) {
        self.values.push(v);
        self.sorted.get_mut().clear();
    }

    /// Adds a duration sample in microseconds.
    pub fn add_duration_us(&mut self, d: SimDuration) {
        self.add(d.as_micros_f64());
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean; zero for an empty collection.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Sample standard deviation; zero with fewer than two samples.
    pub fn stddev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>()
            / (self.values.len() - 1) as f64;
        var.sqrt()
    }

    /// The `p`-th percentile (0–100) by nearest-rank; zero when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.sorted.borrow_mut();
        if sorted.len() != self.values.len() {
            sorted.clone_from(&self.values);
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        }
        let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
        sorted[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_stats() {
        let mut s = Samples::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.add(v);
        }
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(50.0), 3.0);
        assert_eq!(s.percentile(100.0), 5.0);
        assert!((s.stddev() - 1.5811).abs() < 1e-3);
    }

    #[test]
    fn percentile_cache_invalidated_by_add() {
        let mut s = Samples::new();
        s.add(5.0);
        s.add(1.0);
        assert_eq!(s.percentile(100.0), 5.0); // populates the sorted cache
        s.add(9.0);
        assert_eq!(s.percentile(100.0), 9.0, "new max visible after add");
        assert_eq!(s.percentile(0.0), 1.0);
        let c = s.clone();
        assert_eq!(c.percentile(50.0), 5.0, "clone carries a consistent cache");
    }

    #[test]
    fn empty_samples_are_safe() {
        let s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
        assert_eq!(s.stddev(), 0.0);
    }
}
