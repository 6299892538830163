//! The "Plain" baseline driver: functions write directly to cloud storage.
//!
//! This is what a serverless application looks like without AFT: every
//! function reads and writes the shared store in place, so a failure between
//! two writes exposes a fractional update, retries can double-expose partial
//! state, and concurrent requests freely interleave. The resulting
//! anomalies are counted the way [`tagged`](super::tagged) describes.

use std::sync::Arc;

use aft_faas::{FaasPlatform, RetryPolicy};
use aft_storage::SharedStorage;
use aft_types::{AftError, AftResult, Key, SharedClock, SystemClock};

use crate::anomaly::AnomalyFlags;
use crate::drivers::tagged::{preload_items, TaggedBaseline};
use crate::drivers::RequestDriver;
use crate::generator::TransactionPlan;

/// Executes logical requests directly against a storage engine, without AFT.
pub struct PlainDriver {
    requests: TaggedBaseline,
    storage: SharedStorage,
    label: String,
}

impl PlainDriver {
    /// Creates a plain driver over `storage`.
    pub fn new(storage: SharedStorage, platform: Arc<FaasPlatform>, retry: RetryPolicy) -> Self {
        Self::with_clock(storage, platform, retry, SystemClock::shared())
    }

    /// Creates a plain driver with an explicit clock for request tags.
    pub fn with_clock(
        storage: SharedStorage,
        platform: Arc<FaasPlatform>,
        retry: RetryPolicy,
        clock: SharedClock,
    ) -> Self {
        PlainDriver {
            requests: TaggedBaseline::new(platform, retry, &clock, 0x71A1),
            label: format!("Plain ({})", storage.name()),
            storage,
        }
    }
}

impl RequestDriver for PlainDriver {
    fn name(&self) -> &str {
        &self.label
    }

    fn execute(&self, plan: &TransactionPlan) -> AftResult<AnomalyFlags> {
        let storage = self.storage.clone();
        let platform = Arc::clone(self.requests.platform());
        self.requests.execute("plain-request", plan, move |step| {
            let function = step.function;
            for key in &function.reads {
                step.observe(key, storage.get(key.as_str())?)?;
            }
            for key in &function.writes {
                storage.put(key.as_str(), step.blob())?;
                step.wrote(key);
                // Without AFT, a crash here leaves the previous writes
                // visible to everyone — the §1 fractional-update hazard.
                if platform.injector().should_crash_midway() {
                    return Err(AftError::FunctionFailed(
                        "injected crash between writes".to_owned(),
                    ));
                }
            }
            Ok(())
        })
    }

    fn preload(&self, keys: &[Key], value_size: usize) -> AftResult<()> {
        self.storage.put_batch(preload_items(keys, value_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{WorkloadConfig, WorkloadGenerator};
    use aft_chaos::FaasChaos;
    use aft_faas::PlatformConfig;
    use aft_storage::{BackendConfig, BackendKind};
    use aft_types::codec::decode_tagged_value;
    use aft_types::{TransactionId, Uuid};

    fn make_driver(kind: BackendKind) -> PlainDriver {
        let storage = aft_storage::make_backend(BackendConfig::test(kind));
        let platform = FaasPlatform::new(PlatformConfig::test());
        PlainDriver::new(storage, platform, RetryPolicy::with_attempts(3))
    }

    #[test]
    fn single_client_requests_are_anomaly_free() {
        // Without concurrency or failures there is nobody to interleave with,
        // so even the plain driver observes no anomalies.
        let driver = make_driver(BackendKind::DynamoDb);
        let mut generator = WorkloadGenerator::new(
            WorkloadConfig::standard()
                .with_keys(40)
                .with_value_size(128),
            9,
        );
        driver.preload(&generator.preload_plan(), 128).unwrap();
        for _ in 0..30 {
            let flags = driver.execute(&generator.next_plan()).unwrap();
            assert_eq!(flags, AnomalyFlags::CLEAN);
        }
    }

    #[test]
    fn partial_writes_from_crashed_functions_are_visible() {
        // A mid-body crash in the plain driver leaves some of the request's
        // writes in storage even though the request failed — the motivating
        // anomaly of §1. With no retries the request errors out, and the
        // partially written key retains the crashed request's tag.
        let storage = aft_storage::make_backend(BackendConfig::test(BackendKind::DynamoDb));
        let platform = FaasPlatform::new(PlatformConfig::test().with_chaos(FaasChaos {
            before_body: 0.0,
            after_body: 0.0,
            mid_body: 1.0,
        }));
        let driver = PlainDriver::new(storage.clone(), platform, RetryPolicy::no_retries());
        let mut generator = WorkloadGenerator::new(
            WorkloadConfig::standard().with_keys(10).with_value_size(64),
            2,
        );
        driver.preload(&generator.preload_plan(), 64).unwrap();

        let plan = generator.next_plan();
        let result = driver.execute(&plan);
        assert!(result.is_err(), "the crashed request fails");

        // The first written key of the plan now holds data from the failed
        // request (a fractional update).
        let first_write = &plan.functions[0].writes[0];
        let blob = storage.get(first_write.as_str()).unwrap().unwrap();
        let tagged = decode_tagged_value(&blob).unwrap();
        assert_ne!(tagged.tid, TransactionId::new(0, Uuid::from_u128(0x9E10AD)));
    }

    #[test]
    fn preload_then_read_round_trips_over_every_backend() {
        for kind in [BackendKind::S3, BackendKind::DynamoDb, BackendKind::Redis] {
            let driver = make_driver(kind);
            let keys: Vec<Key> = (0..5).map(|i| Key::new(format!("k{i}"))).collect();
            driver.preload(&keys, 32).unwrap();
            let plan = TransactionPlan {
                functions: vec![crate::generator::FunctionPlan {
                    reads: keys.clone(),
                    writes: vec![],
                }],
                value_size: 32,
            };
            let flags = driver.execute(&plan).unwrap();
            assert_eq!(flags, AnomalyFlags::CLEAN, "backend {kind:?}");
        }
    }
}
