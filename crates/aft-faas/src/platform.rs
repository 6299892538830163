//! The FaaS platform simulator.
//!
//! [`FaasPlatform::run_request`] executes a [`Composition`] for one logical
//! request: each step is invoked with the platform's per-invocation overhead
//! (and occasional cold start), subject to the platform-wide concurrency
//! limit (a [`Permits`]: a seated invocation waits for a slot in virtual
//! time), with failures injected at the configured [`FaasChaos`] rates by
//! the platform's [`FailureInjector`]. Failed requests are retried per the client's
//! [`RetryPolicy`], restarting the composition from the first function with a
//! fresh context — the retry-from-scratch model of existing serverless
//! platforms that AFT is designed around (§7).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aft_storage::latency::{LatencyMode, LatencyModel, LatencyProfile, Permit, Permits};
use aft_types::{seeded_stream, AftError, AftResult};
use rand::Rng;

use crate::composition::{Composition, InvocationInfo};
use crate::failure::{FaasChaos, FailureInjector, FailurePoint};
use crate::retry::{RequestOutcome, RetryPolicy};
use crate::stats::PlatformStats;

/// Configuration of the simulated FaaS platform.
#[derive(Debug, Clone, Copy)]
pub struct PlatformConfig {
    /// Latency of a warm invocation (queueing + dispatch + runtime overhead).
    pub warm_invocation: LatencyProfile,
    /// Latency of a cold start (container provisioning), paid *in addition*
    /// to the warm overhead.
    pub cold_start: LatencyProfile,
    /// Probability that an invocation is a cold start.
    pub cold_start_probability: f64,
    /// Maximum concurrently executing functions; 0 means unlimited. AWS
    /// Lambda's account-level cap is what limited the paper's Figure 8 run.
    pub concurrency_limit: usize,
    /// Fault pressure applied to every invocation, drawn from `seed`.
    pub chaos: FaasChaos,
    /// Seed of the failure injector's fates and, on a stream of their own,
    /// of each invocation's cold-start coin and latency draws.
    pub seed: u64,
}

impl PlatformConfig {
    /// A zero-latency, failure-free, unlimited-concurrency platform for unit
    /// tests.
    pub fn test() -> Self {
        PlatformConfig {
            warm_invocation: LatencyProfile::ZERO,
            cold_start: LatencyProfile::ZERO,
            cold_start_probability: 0.0,
            concurrency_limit: 0,
            chaos: FaasChaos::quiet(),
            seed: 0xFAA5,
        }
    }

    /// An AWS-Lambda-like platform: ~14 ms warm invocation overhead, rare
    /// ~150 ms cold starts, charged on the virtual clock.
    pub fn aws_like() -> Self {
        PlatformConfig {
            warm_invocation: LatencyProfile::new(14_000.0, 45_000.0),
            cold_start: LatencyProfile::new(150_000.0, 400_000.0),
            cold_start_probability: 0.002,
            concurrency_limit: 1_000,
            chaos: FaasChaos::quiet(),
            seed: 0xFAA5,
        }
    }

    /// Sets the platform's fault pressure.
    pub fn with_chaos(mut self, chaos: FaasChaos) -> Self {
        self.chaos = chaos;
        self
    }

    /// Sets the seed of the fates and the latency draws.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The latency leg's salt: decorrelates invocation `n`'s latency stream
/// from its fate, which the injector draws from the same seed.
const LATENCY_SALT: u64 = 0xFAA5_0000_1A7E_0001;

/// The simulated FaaS platform.
pub struct FaasPlatform {
    config: PlatformConfig,
    latency: Arc<LatencyModel>,
    /// Invocations so far: the next one's index on the latency stream.
    invocations: AtomicU64,
    injector: FailureInjector,
    stats: Arc<PlatformStats>,
    active: AtomicU64,
    /// The concurrency limit's slots.
    slots: Permits,
}

impl FaasPlatform {
    /// Creates a platform.
    pub fn new(config: PlatformConfig) -> Arc<Self> {
        Arc::new(FaasPlatform {
            latency: LatencyModel::new(LatencyMode::Virtual, 1.0),
            invocations: AtomicU64::new(0),
            injector: FailureInjector::new(config.seed, config.chaos),
            stats: PlatformStats::new_shared(),
            active: AtomicU64::new(0),
            slots: Permits::new(config.concurrency_limit),
            config,
        })
    }

    /// The platform's counters.
    pub fn stats(&self) -> &Arc<PlatformStats> {
        &self.stats
    }

    /// The platform's failure injector. Workload functions that model crashes
    /// between two writes poll [`FailureInjector::should_crash_midway`] on it.
    pub fn injector(&self) -> &FailureInjector {
        &self.injector
    }

    fn acquire_slot(&self) -> SlotGuard<'_> {
        let (_permit, _) = self.slots.acquire();
        let now_active = self.active.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.observe_concurrency(now_active);
        SlotGuard {
            platform: self,
            _permit,
        }
    }

    /// Invokes a single function body with platform overhead, concurrency
    /// accounting, and failure injection.
    pub fn invoke<T>(&self, body: impl FnOnce() -> AftResult<T>) -> AftResult<T> {
        let _slot = self.acquire_slot();

        // Invocation `n`'s cold-start coin and overheads come from its own
        // stream, so a cold start moves no later invocation's draws.
        let n = self.invocations.fetch_add(1, Ordering::Relaxed);
        let mut rng = seeded_stream(self.config.seed, LATENCY_SALT, n);
        let cold = self.config.cold_start_probability > 0.0
            && rng.gen::<f64>() < self.config.cold_start_probability;
        let failure = self.injector.decide();
        self.stats.record_invocation();

        if cold {
            let cold_start = self.latency.draw(&self.config.cold_start, &mut rng, 0);
            self.latency.finish(cold_start);
        }
        let warm = self.latency.draw(&self.config.warm_invocation, &mut rng, 0);
        self.latency.finish(warm);

        if failure == Some(FailurePoint::BeforeBody) {
            self.stats.record_injected_failure();
            return Err(AftError::FunctionFailed(
                "injected failure before function body".to_owned(),
            ));
        }

        let result = body();

        if failure == Some(FailurePoint::AfterBody) {
            // The body ran (its side effects are durable) but the platform
            // reports a failure — the retry must be idempotent.
            self.stats.record_injected_failure();
            return Err(AftError::FunctionFailed(
                "injected failure after function body".to_owned(),
            ));
        }
        result
    }

    /// Executes one logical request: the composition's functions in order,
    /// restarted from scratch (with a fresh context from `make_ctx`) on
    /// retryable failures, up to the policy's attempt budget.
    ///
    /// Returns the final context (if any attempt succeeded) along with the
    /// outcome. `make_ctx` receives the attempt number and may also be used
    /// to clean up state left by the previous attempt (e.g. aborting a
    /// dangling AFT transaction).
    pub fn run_request<C>(
        &self,
        composition: &Composition<C>,
        mut make_ctx: impl FnMut(u32) -> C,
        policy: &RetryPolicy,
    ) -> (Option<C>, RequestOutcome) {
        let mut total_invocations = 0u32;
        let attempts = policy.attempts();
        let mut last_error = None;
        let mut attempts_used = 0u32;

        for attempt in 0..attempts {
            attempts_used = attempt + 1;
            self.stats.record_request_attempt();
            let mut ctx = make_ctx(attempt);
            let mut step_error = None;

            for index in 0..composition.len() {
                let info = InvocationInfo {
                    step_index: index,
                    total_steps: composition.len(),
                    attempt,
                };
                total_invocations += 1;
                let step = composition
                    .step(index)
                    .expect("index is within composition length");
                if let Err(error) = self.invoke(|| step(&mut ctx, &info)) {
                    step_error = Some(error);
                    break;
                }
            }

            match step_error {
                None => {
                    self.stats.record_request_completed();
                    return (
                        Some(ctx),
                        RequestOutcome {
                            attempts: attempt + 1,
                            invocations: total_invocations,
                            error: None,
                        },
                    );
                }
                Some(error) => {
                    let retry = policy.should_retry(&error, attempt);
                    last_error = Some(error);
                    if !retry {
                        break;
                    }
                }
            }
        }

        self.stats.record_request_failed();
        (
            None,
            RequestOutcome {
                attempts: attempts_used,
                invocations: total_invocations,
                error: last_error,
            },
        )
    }
}

/// RAII guard for one concurrency slot: the invocation stops counting as
/// active before its permit frees.
struct SlotGuard<'a> {
    platform: &'a FaasPlatform,
    _permit: Permit<'a>,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.platform.active.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn invoke_runs_the_body_and_counts() {
        let platform = FaasPlatform::new(PlatformConfig::test());
        let out = platform.invoke(|| Ok(21 * 2)).unwrap();
        assert_eq!(out, 42);
        assert_eq!(platform.stats().invocations(), 1);
        assert_eq!(platform.active.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn run_request_executes_every_step_in_order() {
        let platform = FaasPlatform::new(PlatformConfig::test());
        let composition: Composition<Vec<usize>> = Composition::new("req")
            .then(|ctx: &mut Vec<usize>, info| {
                ctx.push(info.step_index);
                Ok(())
            })
            .then(|ctx: &mut Vec<usize>, info| {
                ctx.push(info.step_index);
                Ok(())
            })
            .then(|ctx: &mut Vec<usize>, info| {
                ctx.push(info.step_index);
                Ok(())
            });
        let (ctx, outcome) =
            platform.run_request(&composition, |_| Vec::new(), &RetryPolicy::default());
        assert_eq!(ctx.unwrap(), vec![0, 1, 2]);
        assert!(outcome.succeeded());
        assert_eq!(outcome.attempts, 1);
        assert_eq!(outcome.invocations, 3);
    }

    #[test]
    fn retryable_failures_are_retried_with_fresh_context() {
        let platform = FaasPlatform::new(PlatformConfig::test());
        let failures_left = AtomicUsize::new(2);
        let composition: Composition<u32> = Composition::new("flaky").then(move |ctx, _| {
            *ctx += 1;
            if failures_left
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                Err(AftError::Unavailable("transient".into()))
            } else {
                Ok(())
            }
        });
        let contexts_made = AtomicUsize::new(0);
        let (ctx, outcome) = platform.run_request(
            &composition,
            |_| {
                contexts_made.fetch_add(1, Ordering::SeqCst);
                0u32
            },
            &RetryPolicy::with_attempts(5),
        );
        assert_eq!(outcome.attempts, 3);
        assert_eq!(contexts_made.load(Ordering::SeqCst), 3);
        assert_eq!(ctx.unwrap(), 1, "fresh context per attempt");
        assert_eq!(platform.stats().snapshot().requests_completed, 1);
    }

    #[test]
    fn non_retryable_failures_stop_immediately() {
        let platform = FaasPlatform::new(PlatformConfig::test());
        let composition: Composition<()> =
            Composition::new("broken").then(|_, _| Err(AftError::Codec("corrupt".into())));
        let (ctx, outcome) =
            platform.run_request(&composition, |_| (), &RetryPolicy::with_attempts(10));
        assert!(ctx.is_none());
        assert!(!outcome.succeeded());
        assert_eq!(outcome.invocations, 1);
        assert_eq!(platform.stats().snapshot().requests_failed, 1);
    }

    #[test]
    fn exhausted_retries_report_the_last_error() {
        let platform = FaasPlatform::new(PlatformConfig::test());
        let composition: Composition<()> =
            Composition::new("always-down").then(|_, _| Err(AftError::Unavailable("down".into())));
        let (ctx, outcome) =
            platform.run_request(&composition, |_| (), &RetryPolicy::with_attempts(3));
        assert!(ctx.is_none());
        assert_eq!(outcome.invocations, 3);
        assert!(matches!(outcome.error, Some(AftError::Unavailable(_))));
    }

    #[test]
    fn injected_before_body_failures_are_retried_transparently() {
        let config = PlatformConfig::test().with_chaos(FaasChaos {
            before_body: 0.4,
            after_body: 0.0,
            mid_body: 0.0,
        });
        let platform = FaasPlatform::new(config);
        let composition: Composition<u32> = Composition::new("ok").then(|ctx, _| {
            *ctx += 1;
            Ok(())
        });
        let mut completed = 0;
        for _ in 0..200 {
            let (ctx, outcome) =
                platform.run_request(&composition, |_| 0u32, &RetryPolicy::with_attempts(20));
            if outcome.succeeded() {
                completed += 1;
                assert_eq!(ctx.unwrap(), 1);
            }
        }
        assert_eq!(
            completed, 200,
            "with a generous budget every request completes"
        );
        assert!(platform.stats().snapshot().injected_failures > 0);
    }

    #[test]
    fn concurrency_limit_bounds_parallel_invocations() {
        let platform = FaasPlatform::new(PlatformConfig {
            concurrency_limit: 2,
            ..PlatformConfig::test()
        });
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let max_seen = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let platform = Arc::clone(&platform);
                let barrier = Arc::clone(&barrier);
                let max_seen = Arc::clone(&max_seen);
                scope.spawn(move || {
                    barrier.wait();
                    platform
                        .invoke(|| {
                            let now = platform.active.load(Ordering::Relaxed);
                            max_seen.fetch_max(now, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok(())
                        })
                        .unwrap();
                });
            }
        });
        assert!(max_seen.load(Ordering::SeqCst) <= 2);
        assert_eq!(platform.stats().snapshot().invocations, 4);
        assert!(platform.stats().snapshot().peak_concurrency <= 2);
    }

    #[test]
    fn after_body_failures_keep_side_effects() {
        let config = PlatformConfig::test().with_chaos(FaasChaos {
            before_body: 0.0,
            after_body: 1.0,
            mid_body: 0.0,
        });
        let platform = FaasPlatform::new(config);
        let executed = AtomicUsize::new(0);
        let result: AftResult<()> = platform.invoke(|| {
            executed.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        assert!(matches!(result, Err(AftError::FunctionFailed(_))));
        assert_eq!(
            executed.load(Ordering::SeqCst),
            1,
            "body ran before the failure"
        );
    }
}
