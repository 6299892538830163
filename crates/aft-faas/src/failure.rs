//! Failure injection — the platform-layer adapter of the unified
//! [`aft_chaos`] fault schedule.
//!
//! The motivating example of §1 is a function that writes key `k`, fails, and
//! never writes key `l` — exposing a fractional update to concurrent readers
//! unless something guarantees atomic visibility. The failure injector
//! recreates exactly that situation: functions can be killed before they run,
//! after they run (work done, acknowledgement lost — the idempotence case),
//! or *mid-body* via an explicit crash point that workload functions consult
//! between their writes.
//!
//! Decisions come from the faas layer of an [`aft_chaos::ChaosSpec`]
//! schedule — the same pure, seeded, order-independent machinery as the
//! storage and net layers — so one seed replays a whole cross-layer trial,
//! platform failures included. The mapping from the unified [`FaultKind`]s:
//!
//! * `TransientError { applied: false }` → [`FailurePoint::BeforeBody`]
//!   (the invocation dies with no side effects);
//! * `TransientError { applied: true }` → [`FailurePoint::AfterBody`]
//!   (side effects applied, acknowledgement lost);
//! * `MidCrash` → [`FailurePoint::MidBody`] (the body crashes between two
//!   writes — the fractional-update hazard itself).

use std::sync::atomic::{AtomicU64, Ordering};

use aft_chaos::{ChaosSpec, FaasChaos, FaultKind, Layer, LayerSchedule};

/// Where, relative to the function body, an injected failure strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailurePoint {
    /// The invocation fails before the body runs (no side effects).
    BeforeBody,
    /// The body runs to completion but the invocation is reported as failed
    /// (side effects applied, acknowledgement lost) — retries must be
    /// idempotent to survive this.
    AfterBody,
    /// The body is asked to crash at its next mid-body crash point (between
    /// two writes); only functions that poll
    /// [`FailureInjector::should_crash_midway`] observe this.
    MidBody,
}

/// A seeded failure injector shared by all invocations of a platform.
#[derive(Debug)]
pub struct FailureInjector {
    layer: LayerSchedule,
    /// Number of outstanding mid-body crash requests; workload functions
    /// consume them at their crash points.
    pending_mid_body: AtomicU64,
    injected: AtomicU64,
}

impl FailureInjector {
    /// Builds the injector over the faas layer of `spec`'s schedule.
    pub fn from_spec(spec: &ChaosSpec) -> Self {
        FailureInjector {
            layer: spec.layer(Layer::Faas),
            pending_mid_body: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// An injector that never fails anything.
    pub fn disabled() -> Self {
        Self::from_spec(&ChaosSpec::new(0))
    }

    /// Decides whether (and where) this invocation fails.
    pub fn decide(&self) -> Option<FailurePoint> {
        let point = match self.layer.decide_next("invoke") {
            FaultKind::None | FaultKind::Timeout => None,
            FaultKind::TransientError { applied: false } => Some(FailurePoint::BeforeBody),
            FaultKind::TransientError { applied: true } => Some(FailurePoint::AfterBody),
            FaultKind::MidCrash => Some(FailurePoint::MidBody),
        };
        if point == Some(FailurePoint::MidBody) {
            self.pending_mid_body.fetch_add(1, Ordering::Relaxed);
        }
        if point.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        point
    }

    /// Called by workload functions at their mid-body crash points (between
    /// two writes). Returns true if the function should crash now, consuming
    /// one pending mid-body failure.
    pub fn should_crash_midway(&self) -> bool {
        self.pending_mid_body
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Total failures injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// The injector's faas-layer tuning.
    pub fn chaos(&self) -> FaasChaos {
        self.layer.schedule().faas_chaos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(seed: u64, p: f64) -> ChaosSpec {
        ChaosSpec::new(seed).faas(FaasChaos::uniform(p))
    }

    #[test]
    fn disabled_injector_never_fires() {
        let injector = FailureInjector::disabled();
        for _ in 0..100 {
            assert_eq!(injector.decide(), None);
        }
        assert!(!injector.should_crash_midway());
        assert_eq!(injector.injected(), 0);
    }

    #[test]
    fn always_fail_plan_fires_every_time() {
        let injector = FailureInjector::from_spec(&ChaosSpec::new(1).faas(FaasChaos {
            before_body: 1.0,
            after_body: 0.0,
            mid_body: 0.0,
        }));
        for _ in 0..50 {
            assert_eq!(injector.decide(), Some(FailurePoint::BeforeBody));
        }
        assert_eq!(injector.injected(), 50);
        assert_eq!(injector.layer.ops_seen(), 50);
    }

    #[test]
    fn uniform_plan_hits_roughly_the_requested_rate() {
        let injector = FailureInjector::from_spec(&uniform(42, 0.3));
        let fired = (0..10_000).filter(|_| injector.decide().is_some()).count();
        assert!(
            (2_400..3_600).contains(&fired),
            "expected ~3000 failures, got {fired}"
        );
    }

    #[test]
    fn mid_body_requests_are_consumed_once() {
        let injector = FailureInjector::from_spec(&ChaosSpec::new(7).faas(FaasChaos {
            before_body: 0.0,
            after_body: 0.0,
            mid_body: 1.0,
        }));
        assert_eq!(injector.decide(), Some(FailurePoint::MidBody));
        assert!(injector.should_crash_midway());
        assert!(!injector.should_crash_midway(), "each request crashes once");
    }
}
