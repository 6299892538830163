//! Failure injection at the platform: a seeded fate for each invocation.
//!
//! The motivating example of §1 is a function that writes key `k`, fails, and
//! never writes key `l` — exposing a fractional update to concurrent readers
//! unless something guarantees atomic visibility. The failure injector
//! recreates exactly that situation: functions can be killed before they run,
//! after they run (work done, acknowledgement lost — the idempotence case),
//! or *mid-body* via an explicit crash point that workload functions consult
//! between their writes.
//!
//! Invocation `n`'s fate is drawn from its own stream of the injector's seed
//! ([`seeded_stream`]), against the rates of a [`FaasChaos`]: a function of the
//! seed and `n` alone, so a seed replays the platform's failures whatever
//! else the run asks. `aft_workload::sim::Seeded` draws its storage, network
//! and partition answers from the same streams, each leg under a salt of its
//! own, and takes its fates from an injector.

use std::sync::atomic::{AtomicU64, Ordering};

use aft_types::seeded_stream;
use rand::Rng;

/// The faas leg's salt: decorrelates its stream from the other legs drawn
/// from the same seed.
const FAAS_SALT: u64 = 0xFAA5_0000_F417_0001;

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

/// Platform fault pressure (independent probabilities per invocation).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaasChaos {
    /// Probability of failing before the body runs (no side effects).
    pub before_body: f64,
    /// Probability of failing after the body runs (side effects applied,
    /// acknowledgement lost — retries must be idempotent).
    pub after_body: f64,
    /// Probability of a mid-body crash request (between two writes;
    /// functions consume it at their crash points).
    pub mid_body: f64,
}

impl FaasChaos {
    /// No platform faults.
    pub fn quiet() -> Self {
        FaasChaos::default()
    }

    /// Fails each invocation with probability `p`, split evenly across the
    /// three failure points.
    pub fn uniform(p: f64) -> Self {
        FaasChaos {
            before_body: p / 3.0,
            after_body: p / 3.0,
            mid_body: p / 3.0,
        }
    }

    /// True if this pressure can never fail anything.
    pub fn is_quiet(&self) -> bool {
        self.before_body <= 0.0 && self.after_body <= 0.0 && self.mid_body <= 0.0
    }
}

/// A seeded failure injector shared by all invocations of a platform.
#[derive(Debug)]
pub struct FailureInjector {
    seed: u64,
    chaos: FaasChaos,
    /// Invocations decided so far: the next one's stream index.
    invocations: AtomicU64,
    /// Number of outstanding mid-body crash requests; workload functions
    /// consume them at their crash points.
    pending_mid_body: AtomicU64,
}

impl FailureInjector {
    /// Fails invocations at `chaos`'s rates, drawn from `seed`.
    pub fn new(seed: u64, chaos: FaasChaos) -> Self {
        FailureInjector {
            seed,
            chaos,
            invocations: AtomicU64::new(0),
            pending_mid_body: AtomicU64::new(0),
        }
    }

    /// An injector that never fails anything.
    pub fn disabled() -> Self {
        Self::new(0, FaasChaos::quiet())
    }

    /// Decides whether (and where) this invocation fails.
    pub fn decide(&self) -> Option<FailurePoint> {
        let index = self.invocations.fetch_add(1, Ordering::Relaxed);
        let c = &self.chaos;
        if c.is_quiet() {
            return None;
        }
        let draw: f64 = seeded_stream(self.seed, FAAS_SALT, index).gen_range(0.0..1.0);
        let point = if draw < c.before_body {
            FailurePoint::BeforeBody
        } else if draw < c.before_body + c.after_body {
            FailurePoint::AfterBody
        } else if draw < c.before_body + c.after_body + c.mid_body {
            FailurePoint::MidBody
        } else {
            return None;
        };
        if point == FailurePoint::MidBody {
            self.pending_mid_body.fetch_add(1, Ordering::Relaxed);
        }
        Some(point)
    }

    /// Called by workload functions at their mid-body crash points (between
    /// two writes). Returns true if the function should crash now, consuming
    /// one pending mid-body failure.
    pub fn should_crash_midway(&self) -> bool {
        self.pending_mid_body
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fired(injector: &FailureInjector, n: usize) -> Vec<FailurePoint> {
        (0..n).filter_map(|_| injector.decide()).collect()
    }

    #[test]
    fn disabled_injector_never_fires() {
        let injector = FailureInjector::disabled();
        assert_eq!(fired(&injector, 100), []);
        assert!(!injector.should_crash_midway());
    }

    #[test]
    fn always_fail_plan_fires_every_time() {
        let injector = FailureInjector::new(
            1,
            FaasChaos {
                before_body: 1.0,
                ..FaasChaos::quiet()
            },
        );
        assert_eq!(fired(&injector, 50), [FailurePoint::BeforeBody; 50]);
        assert_eq!(injector.invocations.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn uniform_plan_hits_roughly_the_requested_rate() {
        let injector = FailureInjector::new(42, FaasChaos::uniform(0.3));
        let fired = fired(&injector, 10_000).len();
        assert!(
            (2_400..3_600).contains(&fired),
            "expected ~3000 failures, got {fired}"
        );
    }

    #[test]
    fn faas_rates_map_to_the_right_fault_kinds() {
        let injector = FailureInjector::new(3, FaasChaos::uniform(0.9));
        let fates: Vec<_> = (0..600).map(|_| injector.decide()).collect();
        for fate in [
            Some(FailurePoint::BeforeBody),
            Some(FailurePoint::AfterBody),
            Some(FailurePoint::MidBody),
            None,
        ] {
            assert!(fates.contains(&fate), "{fate:?}");
        }
    }

    #[test]
    fn mid_body_requests_are_consumed_once() {
        let injector = FailureInjector::new(
            7,
            FaasChaos {
                mid_body: 1.0,
                ..FaasChaos::quiet()
            },
        );
        assert_eq!(injector.decide(), Some(FailurePoint::MidBody));
        assert!(injector.should_crash_midway());
        assert!(!injector.should_crash_midway(), "each request crashes once");
    }
}
