//! Latency recording.
//!
//! Every figure in the paper reports either latency percentiles (median boxes
//! with 99th-percentile whiskers) or throughput over time / versus offered
//! load. [`LatencyRecorder`] collects per-request latencies and computes the
//! percentiles.

use std::time::Duration;

/// A simple exact latency recorder (stores every sample).
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples_us: Vec<u64>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyRecorder::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        self.samples_us.push(latency.as_micros() as u64);
    }

    /// Merges another recorder's samples into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples_us.extend_from_slice(&other.samples_us);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples_us.len()
    }

    /// Returns true if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_us.is_empty()
    }

    /// Computes summary statistics over the recorded samples.
    pub fn stats(&self) -> LatencyStats {
        if self.samples_us.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted = self.samples_us.clone();
        sorted.sort_unstable();
        let percentile = |p: f64| -> Duration {
            let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
            Duration::from_micros(sorted[rank])
        };
        let sum: u64 = sorted.iter().sum();
        LatencyStats {
            count: sorted.len(),
            mean: Duration::from_micros(sum / sorted.len() as u64),
            median: percentile(0.5),
            p95: percentile(0.95),
            p99: percentile(0.99),
            min: Duration::from_micros(sorted[0]),
            max: Duration::from_micros(sorted[sorted.len() - 1]),
        }
    }
}

/// Summary statistics of a latency distribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: Duration,
    /// 50th percentile.
    pub median: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Smallest sample.
    pub min: Duration,
    /// Largest sample.
    pub max: Duration,
}

impl LatencyStats {
    /// Median latency in (fractional) milliseconds, as the figures report it.
    pub fn median_ms(&self) -> f64 {
        self.median.as_secs_f64() * 1e3
    }

    /// 99th-percentile latency in milliseconds.
    pub fn p99_ms(&self) -> f64 {
        self.p99.as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_reports_zeroes() {
        let recorder = LatencyRecorder::new();
        assert!(recorder.is_empty());
        let stats = recorder.stats();
        assert_eq!(stats.count, 0);
        assert_eq!(stats.median, Duration::ZERO);
    }

    #[test]
    fn percentiles_are_computed_over_sorted_samples() {
        let mut recorder = LatencyRecorder::new();
        // 1ms..=100ms inserted in reverse order.
        for ms in (1..=100u64).rev() {
            recorder.record(Duration::from_millis(ms));
        }
        let stats = recorder.stats();
        assert_eq!(stats.count, 100);
        assert_eq!(stats.min, Duration::from_millis(1));
        assert_eq!(stats.max, Duration::from_millis(100));
        assert!((stats.median_ms() - 50.0).abs() <= 1.0);
        assert!((stats.p99_ms() - 99.0).abs() <= 1.0);
        assert!(stats.mean >= Duration::from_millis(50));
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::new();
        a.record(Duration::from_millis(10));
        b.record(Duration::from_millis(30));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.stats().max, Duration::from_millis(30));
    }
}
