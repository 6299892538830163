//! Retry policies and request outcomes.
//!
//! The paper's fault-tolerance model is deliberately simple: failed functions
//! are retried (at-least-once execution), and AFT's atomicity + idempotence
//! turn that into exactly-once *semantics* (§1, §3.3.1, §7). Clients also
//! retry whole logical requests when AFT reports that no valid key version
//! exists for a read (§3.6). [`RetryPolicy`] captures the retry budget used
//! by the simulated clients; the next attempt starts at once.

use aft_types::AftError;

/// How a logical request (a composition of functions) is retried. Every
/// attempt starts a fresh transaction, the paper's model.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum number of attempts for the whole request, including the first
    /// one. Zero is treated as one.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 5 }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    pub fn no_retries() -> Self {
        RetryPolicy { max_attempts: 1 }
    }

    /// A policy with the given attempt budget.
    pub fn with_attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
        }
    }

    /// The effective number of attempts (at least one).
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// Whether an error from an attempt warrants another try.
    pub(crate) fn should_retry(&self, error: &AftError, attempt: u32) -> bool {
        attempt + 1 < self.attempts() && error.is_retryable()
    }
}

/// The result of executing one logical request through the platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestOutcome {
    /// Attempts consumed (1 = no retries needed).
    pub attempts: u32,
    /// Function invocations performed across all attempts.
    pub invocations: u32,
    /// The error that aborted the final attempt, if the request ultimately
    /// failed.
    pub error: Option<AftError>,
}

impl RequestOutcome {
    /// Returns true if the request eventually succeeded.
    pub fn succeeded(&self) -> bool {
        self.error.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_types::{Key, TransactionId};

    #[test]
    fn default_policy_retries_retryable_errors() {
        let policy = RetryPolicy::default();
        let retryable = AftError::NoValidVersion {
            key: Key::new("k"),
            txn: TransactionId::NULL,
        };
        assert!(policy.should_retry(&retryable, 0));
        assert!(policy.should_retry(&retryable, 3));
        assert!(!policy.should_retry(&retryable, 4), "budget exhausted");
        assert!(!policy.should_retry(&AftError::Codec("bad".into()), 0));
    }

    #[test]
    fn no_retries_policy_never_retries() {
        let policy = RetryPolicy::no_retries();
        let err = AftError::Unavailable("down".into());
        assert!(!policy.should_retry(&err, 0));
        assert_eq!(policy.attempts(), 1);
    }

    #[test]
    fn zero_attempts_is_clamped_to_one() {
        let policy = RetryPolicy { max_attempts: 0 };
        assert_eq!(policy.attempts(), 1);
        assert_eq!(RetryPolicy::with_attempts(0).attempts(), 1);
    }

    #[test]
    fn outcome_success_flag() {
        assert!(RequestOutcome {
            attempts: 1,
            invocations: 2,
            error: None
        }
        .succeeded());
        assert!(!RequestOutcome {
            attempts: 3,
            invocations: 6,
            error: Some(AftError::FunctionFailed("boom".into()))
        }
        .succeeded());
    }
}
