//! The baseline request, written once, and the client history it records.
//!
//! [`PlainDriver`](super::PlainDriver) and
//! [`DynamoTxnDriver`](super::DynamoTxnDriver) record every attempt in a
//! [`History`], as [`Recorder`](crate::history::Recorder) records AFT, so one
//! checker grades every row of Table 2. A stored value is its writer's
//! [`TransactionId::storage_suffix`], then the payload: its 53 bytes stand in
//! for the ~70 tag bytes per object §6.1.2 charges the baselines. A driver
//! supplies only how one function's reads and writes reach its store.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aft_faas::{Composition, FaasPlatform, RetryPolicy};
use aft_types::{payload_of_size, AftError, AftResult, Key, TransactionId, Uuid, Value};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::anomaly::AnomalyFlags;
use crate::generator::{FunctionPlan, TransactionPlan};
use crate::history::{History, MicroOp, Outcome};

/// The length of a [`TransactionId::storage_suffix`], which opens a value.
const WRITER_LEN: usize = 53;

/// Runs logical requests as function compositions, recording each attempt.
pub(super) struct Baseline {
    platform: Arc<FaasPlatform>,
    retry: RetryPolicy,
    history: Arc<History>,
    rng: Mutex<StdRng>,
    /// Strictly increasing attempt timestamps: at simulation speed many
    /// attempts share a millisecond, so a per-driver counter keeps id order
    /// the begin order.
    clock: AtomicU64,
    requests: AtomicU64,
}

/// One function of one attempt, as a driver's step sees it.
pub(super) struct Step<'a> {
    history: &'a History,
    txid: TransactionId,
    /// The value this attempt writes: its id, then the plan's payload.
    pub(super) value: &'a Value,
    /// The function's planned reads and writes.
    pub(super) function: &'a FunctionPlan,
    /// Every key the request writes, across all functions.
    pub(super) write_set: &'a [Key],
    /// Whether this is the request's last function.
    pub(super) last: bool,
}

impl Step<'_> {
    /// Records what a read of `key` returned, at the writer its bytes name.
    pub(super) fn observe(&self, key: &Key, value: Option<Value>) -> AftResult<()> {
        let read = value.map(|v| writer(&v).map(|id| (v, Some(id))));
        self.record(MicroOp::Read(key.clone(), read.transpose()?));
        Ok(())
    }

    /// Records a write of `key`.
    pub(super) fn wrote(&self, key: &Key) {
        self.record(MicroOp::Write(key.clone(), self.value.clone()));
    }

    /// Records what a commit call returned: acked under the attempt's id, or
    /// an error, after which its writes may or may not have landed.
    pub(super) fn committed(&self, result: &AftResult<()>) {
        let outcome = result
            .as_ref()
            .map_or(Outcome::Unknown, |()| Outcome::Acked(self.txid));
        self.history
            .update(&self.txid, None, |a| a.outcome = outcome);
    }

    fn record(&self, op: MicroOp) {
        self.history.update(&self.txid, None, |a| a.ops.push(op));
    }
}

/// The writer a stored value names; an error if it names none.
fn writer(value: &[u8]) -> AftResult<TransactionId> {
    let suffix = value.get(..WRITER_LEN).map(std::str::from_utf8);
    TransactionId::from_storage_suffix(suffix.and_then(Result::ok).unwrap_or_default())
}

impl Baseline {
    /// A baseline on `platform` whose ids draw their UUIDs from `seed`.
    pub(super) fn new(platform: Arc<FaasPlatform>, retry: RetryPolicy, seed: u64) -> Self {
        Baseline {
            platform,
            retry,
            history: History::new(),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            clock: AtomicU64::new(1),
            requests: AtomicU64::new(0),
        }
    }

    /// The platform requests run on.
    pub(super) fn platform(&self) -> &Arc<FaasPlatform> {
        &self.platform
    }

    /// Every attempt so far, the preload included.
    pub(super) fn history(&self) -> &Arc<History> {
        &self.history
    }

    /// Opens an attempt of `request` under a fresh id, and returns the id
    /// and the value its writes store.
    fn begin(&self, request: Option<u64>, value_size: usize) -> (TransactionId, Value) {
        let uuid = Uuid::from_rng(&mut *self.rng.lock());
        let txid = TransactionId::new(self.clock.fetch_add(1, Ordering::Relaxed), uuid);
        self.history.update(&txid, request, |_| {});
        let mut value = txid.storage_suffix().into_bytes();
        value.extend_from_slice(&payload_of_size(value_size));
        (txid, value.into())
    }

    /// Runs `plan` as a composition named `name`, one `step` per function.
    /// An attempt that finishes is acked; one that fails stays aborted
    /// unless its step recorded a commit.
    pub(super) fn execute(
        &self,
        name: &str,
        plan: &TransactionPlan,
        step: impl Fn(&Step<'_>) -> AftResult<()> + Send + Sync + 'static,
    ) -> AftResult<AnomalyFlags> {
        let (functions, value_size) = (plan.functions.clone(), plan.value_size);
        let write_set = plan.write_set();
        let history = Arc::clone(&self.history);
        let composition = Composition::repeated(
            name,
            functions.len(),
            move |(txid, value): &mut (TransactionId, Value), info| {
                step(&Step {
                    history: &history,
                    txid: *txid,
                    value,
                    function: &functions[info.step_index],
                    write_set: &write_set,
                    last: info.step_index + 1 == info.total_steps,
                })
            },
        );
        let request = self.requests.fetch_add(1, Ordering::Relaxed);
        let (finished, outcome) = self.platform.run_request(
            &composition,
            |_| self.begin(Some(request), value_size),
            &self.retry,
        );
        let (txid, _) = finished.ok_or_else(|| {
            outcome
                .error
                .unwrap_or_else(|| AftError::FunctionFailed("request failed".to_owned()))
        })?;
        self.history
            .update(&txid, None, |a| a.outcome = Outcome::Acked(txid));
        // The history is graded after the run, by the checker.
        Ok(AnomalyFlags::CLEAN)
    }

    /// Writes one version of every key through `write`, as one acked
    /// attempt.
    pub(super) fn preload(
        &self,
        keys: &[Key],
        value_size: usize,
        write: impl FnOnce(Vec<(String, Value)>) -> AftResult<()>,
    ) -> AftResult<()> {
        let (txid, value) = self.begin(None, value_size);
        let items = keys.iter().map(|k| (k.as_str().to_owned(), value.clone()));
        write(items.collect())?;
        self.history.update(&txid, None, |a| {
            let writes = keys
                .iter()
                .map(|k| MicroOp::Write(k.clone(), value.clone()));
            a.ops = writes.collect();
            a.outcome = Outcome::Acked(txid);
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use aft_faas::FaasChaos;
    use aft_faas::PlatformConfig;
    use aft_storage::{BackendConfig, BackendKind};

    use super::*;
    use crate::drivers::{PlainDriver, RequestDriver};
    use crate::generator::{WorkloadConfig, WorkloadGenerator};

    #[test]
    fn every_attempt_draws_a_fresh_id_in_begin_order() {
        // Up to twenty attempts per request: however many retries came
        // first, each attempt's id follows the one begun before it.
        let storage = aft_storage::make_backend(BackendConfig::test(BackendKind::DynamoDb));
        let chaos = PlatformConfig::test().with_chaos(FaasChaos::uniform(0.5));
        let driver = PlainDriver::new(
            storage,
            FaasPlatform::new(chaos),
            RetryPolicy::with_attempts(20),
        );
        let mut generator = WorkloadGenerator::new(
            WorkloadConfig::standard().with_keys(20).with_value_size(32),
            6,
        );
        driver.preload(&generator.preload_plan(), 32).unwrap();
        for _ in 0..40 {
            let _ = driver.execute(&generator.next_plan());
        }
        let attempts = driver.history().attempts();
        assert!(attempts.len() > 41, "some attempts were retried");
        assert!(attempts.windows(2).all(|w| w[0].txid < w[1].txid));
        assert!(attempts[1..]
            .windows(2)
            .all(|w| w[0].request <= w[1].request));
        assert_eq!(attempts.last().unwrap().request, Some(39));
        let uuids: HashSet<Uuid> = attempts.iter().map(|a| a.txid.uuid).collect();
        assert_eq!(uuids.len(), attempts.len());
    }
}
