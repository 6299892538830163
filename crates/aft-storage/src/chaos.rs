//! Deterministic storage fault injection — the storage-layer adapter of the
//! unified [`aft_chaos`] fault schedule.
//!
//! The paper's guarantees are only interesting *through* failures: §4.2's
//! fault manager exists because a node can die between acknowledging a commit
//! and broadcasting it, and §3.1's only storage assumption (durable once
//! acknowledged) leaves the store free to drop any individual request. The
//! schedule itself — pure, seeded, order-independent — lives in
//! [`aft_chaos`], where one [`ChaosSpec`] drives this layer together with
//! net and platform injection; this module adapts it to the
//! [`StorageEngine`] trait.
//!
//! [`FaultyBackend`] wraps any engine and consults the spec's storage layer
//! on every operation, injecting **transient errors**
//! ([`AftError::StorageTransient`]): the request is dropped. Half of the
//! injected errors are *applied-but-unacknowledged* — the write lands and
//! then the acknowledgement is lost — which is the duplicate-on-retry
//! interleaving AFT's idempotent storage keys (§3.1) are designed to absorb.
//! The I/O engine retries them; the state one leaves once the retries run
//! out is a walked schedule's failed call ([`crate::cut`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use aft_chaos::{ChaosSpec, FaultSchedule, Layer, LayerSchedule};
use aft_types::{AftError, AftResult, Value};

use crate::counters::StorageStats;
use crate::engine::{SharedStorage, StorageEngine};
use crate::profiles::MultiKeyCall;

pub use aft_chaos::FaultKind;

/// Point-in-time counters of a [`FaultyBackend`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStatsSnapshot {
    /// Operations that executed cleanly.
    pub passed: u64,
    /// Injected transient errors (dropped requests).
    pub errors_dropped: u64,
    /// Injected transient errors where the operation applied before the ack
    /// was lost.
    pub errors_applied: u64,
}

impl ChaosStatsSnapshot {
    /// Every fault injected, of any kind.
    pub fn total_faults(&self) -> u64 {
        self.errors_dropped + self.errors_applied
    }
}

#[derive(Debug, Default)]
struct ChaosCounters {
    passed: AtomicU64,
    errors_dropped: AtomicU64,
    errors_applied: AtomicU64,
}

/// A [`StorageEngine`] wrapper injecting the storage layer of a
/// [`ChaosSpec`]'s fault schedule.
///
/// The wrapper is transparent when no fault fires: every operation, counter,
/// and capability of the inner backend passes through, including deferred
/// latency, so a chaos leg measures the same system as the clean leg plus
/// the injected faults.
pub struct FaultyBackend {
    inner: SharedStorage,
    layer: LayerSchedule,
    /// While false, every operation passes straight through without
    /// consuming a schedule index — verification phases read ground truth
    /// without racing the injector, and re-enabling resumes the schedule
    /// where it left off.
    enabled: AtomicBool,
    counters: ChaosCounters,
}

impl FaultyBackend {
    /// Wraps `inner`, injecting the storage layer of `spec`'s schedule.
    pub fn from_spec(inner: SharedStorage, spec: &ChaosSpec) -> Arc<Self> {
        Arc::new(FaultyBackend {
            inner,
            layer: spec.layer(Layer::Storage),
            enabled: AtomicBool::new(true),
            counters: ChaosCounters::default(),
        })
    }

    /// Pauses (`false`) or resumes (`true`) fault injection. Paused
    /// operations bypass the schedule entirely.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Release);
    }

    /// The unified fault schedule this backend consumes (storage layer).
    pub fn schedule(&self) -> &FaultSchedule {
        self.layer.schedule()
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &SharedStorage {
        &self.inner
    }

    /// Injection counters so far.
    pub fn chaos_stats(&self) -> ChaosStatsSnapshot {
        ChaosStatsSnapshot {
            passed: self.counters.passed.load(Ordering::Relaxed),
            errors_dropped: self.counters.errors_dropped.load(Ordering::Relaxed),
            errors_applied: self.counters.errors_applied.load(Ordering::Relaxed),
        }
    }

    /// Operations that have passed through the wrapper (fault or not).
    pub fn ops_seen(&self) -> u64 {
        self.layer.ops_seen()
    }

    /// Runs one operation under the schedule. `op` names the operation for
    /// the error message; `apply` performs it against the inner backend.
    fn run<T>(&self, op: &str, key: &str, apply: impl FnOnce() -> AftResult<T>) -> AftResult<T> {
        if !self.enabled.load(Ordering::Acquire) {
            return apply();
        }
        let (index, fault) = self.layer.decide_next_indexed(key);
        match fault {
            // Timeout and MidCrash are net- and platform-layer vocabulary;
            // the storage layer of a schedule never emits them, but the
            // unified FaultKind makes them representable — pass through
            // defensively.
            FaultKind::None | FaultKind::Timeout | FaultKind::MidCrash => {
                self.counters.passed.fetch_add(1, Ordering::Relaxed);
                apply()
            }
            FaultKind::TransientError { applied } => {
                if applied {
                    // The store applied the write and the ack was lost: the
                    // caller will retry and duplicate the request.
                    self.counters.errors_applied.fetch_add(1, Ordering::Relaxed);
                    apply()?;
                } else {
                    self.counters.errors_dropped.fetch_add(1, Ordering::Relaxed);
                }
                Err(AftError::StorageTransient(format!(
                    "chaos: {op} of {key:?} failed transiently (op #{index}, applied={applied})"
                )))
            }
        }
    }
}

impl StorageEngine for FaultyBackend {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn get(&self, key: &str) -> AftResult<Option<Value>> {
        self.run("get", key, || self.inner.get(key))
    }

    fn get_batch(&self, keys: &[String]) -> AftResult<Vec<Option<Value>>> {
        // One decision per batch, keyed by its first key, like put_batch.
        let key = keys.first().map_or("", String::as_str);
        self.run("get_batch", key, || self.inner.get_batch(keys))
    }

    fn put(&self, key: &str, value: Value) -> AftResult<()> {
        self.run("put", key, || self.inner.put(key, value))
    }

    fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()> {
        // One decision per batch, keyed by its first item: a batch API call
        // fails or lands as a unit.
        let key = items.first().map(|(k, _)| k.clone()).unwrap_or_default();
        self.run("put_batch", &key, || self.inner.put_batch(items))
    }

    fn delete(&self, key: &str) -> AftResult<()> {
        self.run("delete", key, || self.inner.delete(key))
    }

    fn delete_batch(&self, keys: &[String]) -> AftResult<()> {
        let key = keys.first().cloned().unwrap_or_default();
        self.run("delete_batch", &key, || self.inner.delete_batch(keys))
    }

    /// Forwarded: a batch is one fault decision, whatever calls the inner
    /// backend cuts it into.
    fn delete_call(&self) -> MultiKeyCall {
        self.inner.delete_call()
    }

    fn list_prefix(&self, prefix: &str) -> AftResult<Vec<String>> {
        self.run("list", prefix, || self.inner.list_prefix(prefix))
    }

    /// Forwarded, with the fault decision keyed by the prefix as for a full
    /// listing: where a list starts does not change which fault it draws.
    fn list_prefix_after(&self, prefix: &str, after: &str) -> AftResult<Vec<String>> {
        self.run("list", prefix, || {
            self.inner.list_prefix_after(prefix, after)
        })
    }

    fn supports_batch_get(&self) -> bool {
        self.inner.supports_batch_get()
    }

    fn supports_batch_put(&self) -> bool {
        self.inner.supports_batch_put()
    }

    /// Forwarded: a batch is one fault decision, so an injected fault drops
    /// or applies the inner backend's one call whole.
    fn writes_atomically(&self, keys: &[&str]) -> bool {
        self.inner.writes_atomically(keys)
    }

    fn stats(&self) -> Arc<StorageStats> {
        self.inner.stats()
    }
}

impl std::fmt::Debug for FaultyBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyBackend")
            .field("schedule", self.layer.schedule())
            .field("ops_seen", &self.ops_seen())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryStore;
    use aft_chaos::StorageChaos;
    use bytes::Bytes;

    fn val(s: &str) -> Value {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn spec(seed: u64, storage: StorageChaos) -> ChaosSpec {
        ChaosSpec::new(seed).storage(storage)
    }

    fn faulty(spec: &ChaosSpec) -> Arc<FaultyBackend> {
        FaultyBackend::from_spec(InMemoryStore::shared(), spec)
    }

    #[test]
    fn identical_seeds_produce_identical_schedules() {
        let mk = || spec(42, StorageChaos::transient_errors(0.2)).schedule();
        let (a, b) = (mk(), mk());
        assert_eq!(
            a.materialize(Layer::Storage, 500, "k"),
            b.materialize(Layer::Storage, 500, "k")
        );
        // And the schedule is not degenerate: both faults and passes occur.
        let schedule = a.materialize(Layer::Storage, 500, "k");
        assert!(schedule.contains(&FaultKind::None));
        assert!(schedule
            .iter()
            .any(|f| matches!(f, FaultKind::TransientError { .. })));
    }

    #[test]
    fn transient_errors_surface_typed_not_panic() {
        // error_rate 1.0: every operation fails with the typed error.
        let backend = faulty(&spec(3, StorageChaos::transient_errors(1.0)));
        match backend.put("k", val("v")) {
            Err(AftError::StorageTransient(msg)) => {
                assert!(msg.contains("chaos"), "message names the injector: {msg}")
            }
            other => panic!("expected StorageTransient, got {other:?}"),
        }
        assert!(backend.get("k").is_err());
        let stats = backend.chaos_stats();
        assert_eq!(stats.total_faults(), 2);
        assert_eq!(stats.passed, 0);
        assert_eq!(backend.layer.ops_seen(), 2);
    }

    #[test]
    fn applied_but_unacked_writes_land_before_the_error() {
        // With error_rate 1.0 roughly half the failures apply first; find
        // one and verify the write is durable despite the error.
        let backend = faulty(&spec(9, StorageChaos::transient_errors(1.0)));
        let mut applied_seen = false;
        for i in 0..64 {
            let key = format!("k{i}");
            let _ = backend.put(&key, val("v"));
            if backend.inner().get(&key).unwrap().is_some() {
                applied_seen = true;
                break;
            }
        }
        assert!(applied_seen, "some injected errors must apply first");
        assert!(backend.chaos_stats().errors_applied >= 1);
    }

    #[test]
    fn disabling_pauses_injection_without_consuming_the_schedule() {
        let backend = faulty(&spec(3, StorageChaos::transient_errors(1.0)));
        backend.set_enabled(false);
        for i in 0..8 {
            backend.put(&format!("k{i}"), val("v")).unwrap();
        }
        assert_eq!(backend.ops_seen(), 0, "paused ops consume no indices");
        assert_eq!(backend.chaos_stats().total_faults(), 0);
        backend.set_enabled(true);
        assert!(backend.put("k", val("v")).is_err(), "schedule resumes");
        assert_eq!(backend.ops_seen(), 1);
    }

    #[test]
    fn quiet_plan_is_fully_transparent() {
        let backend = faulty(&ChaosSpec::new(1));
        backend.put("k", val("v")).unwrap();
        assert_eq!(backend.get("k").unwrap().unwrap(), val("v"));
        backend
            .put_batch(vec![("a".into(), val("1")), ("b".into(), val("2"))])
            .unwrap();
        assert_eq!(backend.list_prefix("").unwrap().len(), 3);
        backend.delete("a").unwrap();
        backend.delete_batch(&["b".into()]).unwrap();
        assert_eq!(backend.list_prefix("").unwrap(), vec!["k"]);
        let stats = backend.chaos_stats();
        assert_eq!(stats.total_faults(), 0);
        assert_eq!(stats.passed, 7);
        // Capabilities pass through the wrapper untouched.
        assert_eq!(
            backend.supports_batch_put(),
            backend.inner().supports_batch_put()
        );
        assert_eq!(
            backend.supports_batch_get(),
            backend.inner().supports_batch_get()
        );
    }

    #[test]
    fn a_one_call_commit_faults_whole_and_its_retry_lands_one_record() {
        use crate::backend::{make_backend, BackendConfig, BackendKind};
        use crate::counters::OpKind;
        use crate::io::{IoConfig, IoEngine};
        use aft_types::{Key, KeyVersion, TransactionId, TransactionRecord, Uuid};
        // A Redis commit's data and record in one MSET, as the flush sends
        // them.
        let id = TransactionId::new(7, Uuid::from_u128(0xC0FFEE));
        let record = TransactionRecord::storage_key_for(&id);
        let mut items: Vec<(String, Value)> = (0..4)
            .map(|i| {
                (
                    KeyVersion::new(Key::new(format!("k{i}")), id).storage_key(),
                    val("v"),
                )
            })
            .collect();
        items.push((record.clone(), val("r")));
        for applied in [false, true] {
            // A seed whose first decision is this fault and whose second
            // passes.
            let seed = (0..256u64)
                .find(|&seed| {
                    let schedule = spec(seed, StorageChaos::transient_errors(0.5)).schedule();
                    let decisions = schedule.materialize(Layer::Storage, 2, &items[0].0);
                    decisions == [FaultKind::TransientError { applied }, FaultKind::None]
                })
                .expect("some seed faults once this way, then passes");
            let backend = || {
                FaultyBackend::from_spec(
                    make_backend(BackendConfig::test(BackendKind::Redis)),
                    &spec(seed, StorageChaos::transient_errors(0.5)),
                )
            };
            let keys: Vec<&str> = items.iter().map(|(k, _)| k.as_str()).collect();
            assert!(backend().writes_atomically(&keys), "forwarded");

            // The faulted call lands whole or not at all.
            let once = backend();
            assert!(once.put_batch(items.clone()).is_err());
            let landed = once.inner().list_prefix("").unwrap().len();
            assert_eq!(landed, if applied { items.len() } else { 0 });

            // The engine retries it whole, and the record is one key.
            let retried = backend();
            let engine = IoEngine::new(retried.clone(), IoConfig::pipelined());
            engine.put_all(items.clone()).unwrap();
            assert_eq!(engine.stats().retries, 1);
            let records = retried.inner().list_prefix("commit/").unwrap();
            assert_eq!(records, std::slice::from_ref(&record));
            assert_eq!(retried.inner().list_prefix("").unwrap().len(), items.len());
            let mset = retried.stats().calls(OpKind::BatchPut);
            assert_eq!(mset, 1 + u64::from(applied), "calls that reached the store");
        }
    }

    #[test]
    fn a_get_batch_is_one_decision_and_the_engine_retries_it_whole() {
        use crate::counters::OpKind;
        use crate::io::{IoConfig, IoEngine};
        let keys: Vec<String> = (0..8).map(|i| format!("k{i}")).collect();
        // A seed whose first storage decision is a transient fault and whose
        // second is not: the batch fails once, as a unit, and its retry lands.
        let seed = (0..64u64)
            .find(|&seed| {
                let schedule = spec(seed, StorageChaos::transient_errors(0.5)).schedule();
                let decisions = schedule.materialize(Layer::Storage, 2, &keys[0]);
                matches!(decisions[0], FaultKind::TransientError { .. })
                    && decisions[1] == FaultKind::None
            })
            .expect("some seed faults once then passes");
        let backend = faulty(&spec(seed, StorageChaos::transient_errors(0.5)));
        for key in &keys[..6] {
            backend.inner().put(key, val(key)).unwrap();
        }
        let engine = IoEngine::new(backend.clone(), IoConfig::pipelined());
        let (values, _) = engine.get_all(keys.clone()).unwrap();
        let expected: Vec<Option<Value>> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (i < 6).then(|| val(k)))
            .collect();
        assert_eq!(values, expected);
        assert_eq!(
            backend.ops_seen(),
            2,
            "one decision per attempt, not per key"
        );
        assert_eq!(backend.chaos_stats().total_faults(), 1);
        assert_eq!(engine.stats().retries, 1, "the whole batch was retried");
        let calls = backend.stats();
        assert_eq!(calls.calls(OpKind::Get), 0);
        let attempts_that_reached_the_store = 1 + backend.chaos_stats().errors_applied;
        assert_eq!(
            calls.calls(OpKind::BatchGet),
            attempts_that_reached_the_store
        );
    }
}
