//! Counters describing the simulated FaaS platform's activity.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Thread-safe platform counters.
#[derive(Debug, Default)]
pub struct PlatformStats {
    invocations: AtomicU64,
    injected_failures: AtomicU64,
    request_attempts: AtomicU64,
    requests_completed: AtomicU64,
    requests_failed: AtomicU64,
    peak_concurrency: AtomicU64,
}

impl PlatformStats {
    /// Creates a zeroed counter set behind an [`Arc`].
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records one function invocation (cold or warm).
    pub(crate) fn record_invocation(&self) {
        self.invocations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one injected function failure.
    pub(crate) fn record_injected_failure(&self) {
        self.injected_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one attempt at executing a logical request.
    pub(crate) fn record_request_attempt(&self) {
        self.request_attempts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a logical request that eventually completed.
    pub(crate) fn record_request_completed(&self) {
        self.requests_completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a logical request that exhausted its retries.
    pub(crate) fn record_request_failed(&self) {
        self.requests_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Updates the peak concurrency watermark.
    pub(crate) fn observe_concurrency(&self, current: u64) {
        self.peak_concurrency.fetch_max(current, Ordering::Relaxed);
    }

    /// Total function invocations.
    pub fn invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    /// Failures injected so far.
    pub fn injected_failures(&self) -> u64 {
        self.injected_failures.load(Ordering::Relaxed)
    }

    /// Takes a point-in-time snapshot.
    pub fn snapshot(&self) -> PlatformStatsSnapshot {
        PlatformStatsSnapshot {
            invocations: self.invocations.load(Ordering::Relaxed),
            injected_failures: self.injected_failures.load(Ordering::Relaxed),
            request_attempts: self.request_attempts.load(Ordering::Relaxed),
            requests_completed: self.requests_completed.load(Ordering::Relaxed),
            requests_failed: self.requests_failed.load(Ordering::Relaxed),
            peak_concurrency: self.peak_concurrency.load(Ordering::Relaxed),
        }
    }
}

/// An immutable snapshot of [`PlatformStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlatformStatsSnapshot {
    /// Function invocations performed.
    pub invocations: u64,
    /// Function failures injected by the failure plan.
    pub injected_failures: u64,
    /// Logical request attempts (first try plus retries).
    pub request_attempts: u64,
    /// Logical requests that completed successfully.
    pub requests_completed: u64,
    /// Logical requests that exhausted their retry budget.
    pub requests_failed: u64,
    /// Highest number of concurrently executing functions observed.
    pub peak_concurrency: u64,
}

impl PlatformStatsSnapshot {
    /// Average attempts needed per completed request.
    pub fn attempts_per_request(&self) -> f64 {
        if self.requests_completed == 0 {
            0.0
        } else {
            self.request_attempts as f64 / self.requests_completed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let stats = PlatformStats::default();
        stats.record_invocation();
        stats.record_invocation();
        stats.record_injected_failure();
        stats.record_request_attempt();
        stats.record_request_attempt();
        stats.record_request_completed();
        stats.observe_concurrency(3);
        stats.observe_concurrency(1);

        let snap = stats.snapshot();
        assert_eq!(snap.invocations, 2);
        assert_eq!(snap.injected_failures, 1);
        assert_eq!(snap.peak_concurrency, 3);
        assert!((snap.attempts_per_request() - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn attempts_per_request_with_no_completions() {
        assert_eq!(PlatformStatsSnapshot::default().attempts_per_request(), 0.0);
    }
}
