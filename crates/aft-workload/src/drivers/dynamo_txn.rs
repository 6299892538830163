//! The DynamoDB transaction-mode baseline driver.
//!
//! DynamoDB's transaction mode offers stronger guarantees than plain
//! DynamoDB, but each transaction is a single API call that must be read-only
//! or write-only, and nothing ties together the calls made by different
//! functions of one request. The paper adapts the workload to be as
//! favourable as possible to this model (§6.1.2): each function's reads
//! become one `TransactGetItems` call, and *all* of the request's writes are
//! grouped into a single `TransactWriteItems` call issued by the last
//! function. This removes read-your-writes anomalies by construction, but
//! reads still span two separate transactions, so fractured reads remain —
//! and under contention the conflict-abort retries become expensive
//! (Figure 4). Every attempt is recorded in the driver's [`History`]; the
//! `TransactWriteItems` call is its commit.

use std::sync::Arc;

use aft_faas::{FaasPlatform, RetryPolicy};
use aft_storage::{DynamoTransactionMode, StorageEngine};
use aft_types::{AftResult, Key};

use crate::anomaly::AnomalyFlags;
use crate::drivers::baseline::Baseline;
use crate::drivers::RequestDriver;
use crate::generator::TransactionPlan;
use crate::history::History;

/// Executes logical requests using DynamoDB's transaction mode.
pub struct DynamoTxnDriver {
    requests: Baseline,
    table: DynamoTransactionMode,
}

impl DynamoTxnDriver {
    /// Creates a driver over a simulated DynamoDB table's transactional API.
    pub fn new(
        table: DynamoTransactionMode,
        platform: Arc<FaasPlatform>,
        retry: RetryPolicy,
    ) -> Self {
        DynamoTxnDriver {
            requests: Baseline::new(platform, retry, 0xD7A0),
            table,
        }
    }

    /// Every attempt this driver ran, the preload included.
    pub fn history(&self) -> &Arc<History> {
        self.requests.history()
    }
}

impl RequestDriver for DynamoTxnDriver {
    fn name(&self) -> &str {
        "DynamoDB Txns"
    }

    fn execute(&self, plan: &TransactionPlan) -> AftResult<AnomalyFlags> {
        let table = self.table.clone();
        self.requests
            .execute("dynamo-txn-request", plan, move |step| {
                // One read-only transaction per function.
                let reads = &step.function.reads;
                let keys: Vec<String> = reads.iter().map(|k| k.as_str().to_owned()).collect();
                for (key, blob) in reads.iter().zip(table.read(&keys)?) {
                    step.observe(key, blob)?;
                }
                // All of the request's writes go into a single write-only
                // transaction issued by the last function. They are recorded
                // first, as a commit's writes are: an errored call leaves
                // them unknown, not absent.
                if step.last {
                    let write_set = step.write_set;
                    let items = write_set
                        .iter()
                        .map(|key| (key.as_str().to_owned(), step.value.clone()))
                        .collect();
                    write_set.iter().for_each(|key| step.wrote(key));
                    let written = table.write(items);
                    step.committed(&written);
                    written?;
                }
                Ok(())
            })
    }

    fn preload(&self, keys: &[Key], value_size: usize) -> AftResult<()> {
        // The transactional API caps items per call; preload through the
        // table's regular batch path instead.
        let write = |items| self.table.table().put_batch(items);
        self.requests.preload(keys, value_size, write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{WorkloadConfig, WorkloadGenerator};
    use aft_faas::PlatformConfig;
    use aft_storage::{LatencyModel, SimDynamo};

    fn make_driver() -> (DynamoTxnDriver, Arc<SimDynamo>) {
        let table = SimDynamo::new(LatencyModel::disabled(), 5);
        let platform = FaasPlatform::new(PlatformConfig::test());
        let driver = DynamoTxnDriver::new(
            table.transaction_mode(),
            platform,
            RetryPolicy::with_attempts(5),
        );
        (driver, table)
    }

    #[test]
    fn requests_read_and_write_through_the_transactional_api() {
        let (driver, table) = make_driver();
        let mut generator = WorkloadGenerator::new(
            WorkloadConfig::standard().with_keys(30).with_value_size(64),
            4,
        );
        driver.preload(&generator.preload_plan(), 64).unwrap();

        for _ in 0..20 {
            let flags = driver.execute(&generator.next_plan()).unwrap();
            // A single client cannot interleave with anyone.
            assert_eq!(flags, AnomalyFlags::CLEAN);
        }
        let stats = table.stats().snapshot();
        assert!(stats.calls(aft_storage::OpKind::TransactRead) >= 40);
        assert!(stats.calls(aft_storage::OpKind::TransactWrite) >= 20);
    }

    #[test]
    fn a_single_client_history_grades_clean() {
        // An unknown writer, wrong bytes or a version mismatch here is a
        // recording bug: one client cannot interleave with anyone.
        let (driver, _) = make_driver();
        let mut generator = WorkloadGenerator::new(
            WorkloadConfig::standard().with_keys(30).with_value_size(64),
            4,
        );
        driver.preload(&generator.preload_plan(), 64).unwrap();
        for _ in 0..20 {
            driver.execute(&generator.next_plan()).unwrap();
        }
        let attempts = driver.history().attempts();
        assert_eq!(attempts.iter().filter(|a| a.acked().is_some()).count(), 21);
        let verdict = crate::history::check(&attempts, &Default::default());
        assert_eq!(verdict, crate::history::Verdict::default());
    }

    #[test]
    fn writes_are_grouped_into_one_transaction_per_request() {
        let (driver, table) = make_driver();
        let mut generator = WorkloadGenerator::new(
            WorkloadConfig::standard().with_keys(30).with_value_size(64),
            8,
        );
        driver.preload(&generator.preload_plan(), 64).unwrap();
        let before = table.stats().snapshot();
        driver.execute(&generator.next_plan()).unwrap();
        let delta = table.stats().snapshot().delta_since(&before);
        assert_eq!(
            delta.calls(aft_storage::OpKind::TransactWrite),
            1,
            "all writes in one TransactWriteItems call"
        );
        assert_eq!(
            delta.calls(aft_storage::OpKind::TransactRead),
            2,
            "one per function"
        );
    }
}
