//! Request drivers: the three ways a logical request executes in the
//! evaluation.
//!
//! * [`AftDriver`] — through the AFT shim (single node or a cluster's
//!   round-robin router), committing all writes atomically.
//! * [`PlainDriver`] — functions write directly to the storage engine, as a
//!   developer would without AFT ("Plain" in Figure 3 / Table 2).
//! * [`DynamoTxnDriver`] — DynamoDB's transaction mode: each function's reads
//!   become one `TransactGetItems` call and all of the request's writes are
//!   grouped into one `TransactWriteItems` call at the end (§6.1.2's adapted
//!   workload), with conflict-abort retries included in the latency.
//!
//! All drivers run their functions through the simulated FaaS platform, so
//! invocation overhead, concurrency limits, retries and injected failures
//! apply uniformly. The two baselines record every attempt in a client
//! [`History`](crate::history::History) that each exposes, and Table 2 grades
//! it with [`crate::history::check`], as it grades AFT behind a
//! [`Recorder`](crate::history::Recorder).

mod aft;
mod baseline;
mod dynamo_txn;
mod plain;

pub use aft::AftDriver;
pub use dynamo_txn::DynamoTxnDriver;
pub use plain::PlainDriver;

use aft_types::{AftResult, Key};

use crate::anomaly::AnomalyFlags;
use crate::generator::TransactionPlan;

/// A way of executing logical requests against some storage architecture.
pub trait RequestDriver: Send + Sync {
    /// Short name used in benchmark output ("AFT", "Plain", "DynamoDB Txns").
    fn name(&self) -> &str;

    /// Executes one logical request end-to-end — including FaaS invocation
    /// overhead and any retries — and reports the anomalies the request
    /// observed; the baselines, graded after the run from their history,
    /// report none here. Returns an error only if the request ultimately
    /// failed (retry budget exhausted).
    fn execute(&self, plan: &TransactionPlan) -> AftResult<AnomalyFlags>;

    /// Writes an initial version of every key so that measured reads never
    /// miss. Not measured; called once before an experiment.
    fn preload(&self, keys: &[Key], value_size: usize) -> AftResult<()>;
}
