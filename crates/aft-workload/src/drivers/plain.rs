//! The "Plain" baseline driver: functions write directly to cloud storage.
//!
//! This is what a serverless application looks like without AFT: every
//! function reads and writes the shared store in place, so a failure between
//! two writes exposes a fractional update, retries can double-expose partial
//! state, and concurrent requests freely interleave. Every attempt is
//! recorded in the driver's [`History`], the way [`baseline`](super::baseline)
//! describes: one that finished is acked, one that failed is aborted, so a
//! read of its landed writes is an anomaly.

use std::sync::Arc;

use aft_faas::{FaasPlatform, RetryPolicy};
use aft_storage::SharedStorage;
use aft_types::{AftError, AftResult, Key};

use crate::anomaly::AnomalyFlags;
use crate::drivers::baseline::Baseline;
use crate::drivers::RequestDriver;
use crate::generator::TransactionPlan;
use crate::history::History;

/// Executes logical requests directly against a storage engine, without AFT.
pub struct PlainDriver {
    requests: Baseline,
    storage: SharedStorage,
    label: String,
}

impl PlainDriver {
    /// Creates a plain driver over `storage`.
    pub fn new(storage: SharedStorage, platform: Arc<FaasPlatform>, retry: RetryPolicy) -> Self {
        PlainDriver {
            requests: Baseline::new(platform, retry, 0x71A1),
            label: format!("Plain ({})", storage.name()),
            storage,
        }
    }

    /// Every attempt this driver ran, the preload included.
    pub fn history(&self) -> &Arc<History> {
        self.requests.history()
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
                storage.put(key.as_str(), step.value.clone())?;
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
        let write = |items| self.storage.put_batch(items);
        self.requests.preload(keys, value_size, write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{FunctionPlan, WorkloadConfig, WorkloadGenerator};
    use crate::history::{check, FinalRead, MicroOp, Outcome, Verdict};
    use aft_faas::FaasChaos;
    use aft_faas::PlatformConfig;
    use aft_storage::{BackendConfig, BackendKind};

    fn make_driver(kind: BackendKind) -> PlainDriver {
        let storage = aft_storage::make_backend(BackendConfig::test(kind));
        let platform = FaasPlatform::new(PlatformConfig::test());
        PlainDriver::new(storage, platform, RetryPolicy::with_attempts(3))
    }

    fn verdict(driver: &PlainDriver) -> Verdict {
        check(&driver.history().attempts(), &FinalRead::new())
    }

    #[test]
    fn single_client_requests_are_anomaly_free() {
        // Without concurrency or failures there is nobody to interleave with,
        // so even the plain driver's history grades clean: an unknown
        // writer, wrong bytes or a version mismatch here is a recording bug.
        let driver = make_driver(BackendKind::DynamoDb);
        let mut generator = WorkloadGenerator::new(
            WorkloadConfig::standard()
                .with_keys(40)
                .with_value_size(128),
            9,
        );
        driver.preload(&generator.preload_plan(), 128).unwrap();
        for _ in 0..30 {
            driver.execute(&generator.next_plan()).unwrap();
        }
        assert_eq!(driver.history().attempts().len(), 31);
        assert_eq!(verdict(&driver), Verdict::default());
    }

    #[test]
    fn partial_writes_from_crashed_functions_are_visible() {
        // A mid-body crash in the plain driver leaves some of the request's
        // writes in storage even though the request failed — the motivating
        // anomaly of §1. With no retries the request errors out as an
        // aborted attempt, and a later reader of its landed write offends.
        let storage = aft_storage::make_backend(BackendConfig::test(BackendKind::DynamoDb));
        let platform = FaasPlatform::new(PlatformConfig::test().with_chaos(FaasChaos {
            before_body: 0.0,
            after_body: 0.0,
            mid_body: 1.0,
        }));
        let driver = PlainDriver::new(storage, platform, RetryPolicy::no_retries());
        let mut generator = WorkloadGenerator::new(
            WorkloadConfig::standard().with_keys(10).with_value_size(64),
            2,
        );
        driver.preload(&generator.preload_plan(), 64).unwrap();

        let plan = generator.next_plan();
        assert!(driver.execute(&plan).is_err(), "the crashed request fails");
        let first_write = &plan.functions[0].writes[0];
        let reader = TransactionPlan {
            functions: vec![FunctionPlan {
                reads: vec![first_write.clone()],
                writes: vec![],
            }],
            value_size: 64,
        };
        driver.execute(&reader).unwrap();

        let attempts = driver.history().attempts();
        let crashed = &attempts[1];
        assert_eq!(crashed.outcome, Outcome::Aborted);
        let writes: Vec<&MicroOp> = crashed
            .ops
            .iter()
            .filter(|op| matches!(op, MicroOp::Write(..)))
            .collect();
        assert!(matches!(&writes[..], [MicroOp::Write(key, _)] if key == first_write));
        assert_eq!(verdict(&driver).offenders, vec![2]);
    }

    #[test]
    fn preload_then_read_round_trips_over_every_backend() {
        for kind in [BackendKind::S3, BackendKind::DynamoDb, BackendKind::Redis] {
            let driver = make_driver(kind);
            let keys: Vec<Key> = (0..5).map(|i| Key::new(format!("k{i}"))).collect();
            driver.preload(&keys, 32).unwrap();
            let plan = TransactionPlan {
                functions: vec![FunctionPlan {
                    reads: keys.clone(),
                    writes: vec![],
                }],
                value_size: 32,
            };
            driver.execute(&plan).unwrap();
            let attempts = driver.history().attempts();
            let read = |op: &MicroOp| matches!(op, MicroOp::Read(_, Some(_)));
            assert!(attempts[1].ops.iter().all(read), "backend {kind:?}");
            assert_eq!(verdict(&driver), Verdict::default(), "backend {kind:?}");
        }
    }
}
