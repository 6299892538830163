//! Storage cuts: how each call ends, with as much of a write applied as
//! the service allows.
//!
//! §3.1 lets the store drop any request, and §3.3's write ordering and
//! §4.2's fault manager exist so that a crash or a failed call at *any*
//! storage write leaves a store from which every acknowledged commit is
//! recovered and no read set fractures. [`CutStore`] reaches those states
//! live: it wraps any engine and asks its [`CutHook`] how every call ends,
//! reads and listings included. The hook is told the call's key — a
//! single-key call's key, a batch's first key, a listing's prefix: the key
//! the simulated store draws the call's latency at — and how many *units*
//! the call has, the parts the service applies independently:
//!
//! * a read or a listing has none: it lands nothing;
//! * a write the service applies all-or-nothing (a Redis `MSET` or `DEL`
//!   within one slot, [`MultiKeyCall::atomic`]) is one unit;
//! * a per-item write (the memory row's [`MultiKeyCall::FREE`], DynamoDB's
//!   `BatchWriteItem`) has one unit per key, and so does a write batch the
//!   service does not apply in one atomic call;
//! * a single-key write is one unit.
//!
//! The answer is a [`Cut`]. A *transient* drops the call, or runs it whole
//! and loses its acknowledgement, and fails it with
//! [`AftError::StorageTransient`], which the I/O engine retries: a retry of
//! an applied write duplicates it, which AFT's idempotent storage keys
//! absorb. A write's other answers land a subset of its units with a kind.
//! A *crash* fails this call and every later one, reads included, until
//! [`CutStore::restart`]; a *fail* fails this call alone, the state a
//! transient leaves once the I/O engine's retries run out. Both surface as
//! [`AftError::Unavailable`], which is retryable and which the I/O engine
//! does not absorb. A read is never crashed or failed. A `CutStore` keeps
//! no counts: what its hook answered is the hook's to keep
//! (`aft_workload::sim::Shared` logs it).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use aft_types::{AftError, AftResult, Value};

use crate::counters::StorageStats;
use crate::engine::{SharedStorage, StorageEngine};
use crate::profiles::MultiKeyCall;
use crate::store::calls_of;

/// How one call ends. A unit set is a bit mask: bit `i` is unit `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cut {
    /// The call lands whole and succeeds.
    Pass,
    /// The call fails with [`AftError::StorageTransient`]; `applied`, it
    /// runs whole first and its acknowledgement is lost.
    Transient {
        /// Whether the call ran before it failed.
        applied: bool,
    },
    /// These units land, the call fails, and so does every later call until
    /// the store restarts.
    Crash(u64),
    /// These units land and the call fails; later calls run.
    Fail(u64),
}

/// Where a [`CutStore`] takes its cuts.
pub trait CutHook: Send + Sync {
    /// How a call on `key` of `units` ends: 0 for a read or a listing,
    /// which only a transient cuts.
    fn cut(&self, key: &str, units: usize) -> Cut;
}

impl<F: Fn(&str, usize) -> Cut + Send + Sync> CutHook for F {
    fn cut(&self, key: &str, units: usize) -> Cut {
        self(key, units)
    }
}

/// A [`StorageEngine`] that cuts calls where its hook says. Every other
/// method, capabilities included, is the wrapped store's.
pub struct CutStore {
    inner: SharedStorage,
    hook: Arc<dyn CutHook>,
    crashed: AtomicBool,
}

impl CutStore {
    /// Wraps `inner`, cutting its calls where `hook` says.
    pub fn new(inner: SharedStorage, hook: Arc<dyn CutHook>) -> Arc<Self> {
        Arc::new(CutStore {
            inner,
            hook,
            crashed: AtomicBool::new(false),
        })
    }

    /// The wrapped store, which a crash does not stop.
    pub fn inner(&self) -> &SharedStorage {
        &self.inner
    }

    /// Whether a crash cut has failed every call since the last restart.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// Serves calls again after a crash.
    pub fn restart(&self) {
        self.crashed.store(false, Ordering::Release);
    }

    fn live(&self) -> AftResult<()> {
        if self.crashed() {
            return Err(AftError::Unavailable("storage cut: crashed".into()));
        }
        Ok(())
    }

    /// Fails a call transiently, once `run` has run it if it was `applied`.
    fn transient<T>(&self, applied: bool, run: impl FnOnce() -> AftResult<T>) -> AftResult<T> {
        if applied {
            run()?;
        }
        Err(AftError::StorageTransient(format!(
            "storage cut: transient, applied: {applied}"
        )))
    }

    /// Runs one read or listing on `key` through the hook.
    fn read<T>(&self, key: &str, run: impl FnOnce() -> AftResult<T>) -> AftResult<T> {
        self.live()?;
        match self.hook.cut(key, 0) {
            Cut::Transient { applied } => self.transient(applied, run),
            Cut::Pass | Cut::Crash(_) | Cut::Fail(_) => run(),
        }
    }

    /// Runs one write call on `key` of `units` through the hook: `land`
    /// applies the items of the units that land. Units are ordered by their
    /// first item, so a cut names the same items however the caller ordered
    /// them.
    fn write<T: Ord>(
        &self,
        key: &str,
        mut units: Vec<Vec<T>>,
        land: impl FnOnce(Vec<T>) -> AftResult<()>,
    ) -> AftResult<()> {
        self.live()?;
        if units.is_empty() {
            return land(Vec::new());
        }
        units.sort();
        let (applied, crash) = match self.hook.cut(key, units.len()) {
            Cut::Pass => return land(units.into_iter().flatten().collect()),
            Cut::Transient { applied } => {
                return self.transient(applied, || land(units.into_iter().flatten().collect()))
            }
            Cut::Crash(applied) => (applied, true),
            Cut::Fail(applied) => (applied, false),
        };
        let count = units.len();
        let landed: Vec<T> = units
            .into_iter()
            .enumerate()
            .filter(|(i, _)| applied >> i & 1 == 1)
            .flat_map(|(_, unit)| unit)
            .collect();
        if !landed.is_empty() {
            land(landed)?;
        }
        self.crashed.fetch_or(crash, Ordering::AcqRel);
        let kind = if crash { "crash" } else { "fail" };
        Err(AftError::Unavailable(format!(
            "storage cut: {kind} with units {applied:#b} of {count} applied"
        )))
    }
}

/// A batch call's key: its first, as the simulated store draws it.
fn first(keys: &[String]) -> &str {
    keys.first().map_or("", String::as_str)
}

impl StorageEngine for CutStore {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn get(&self, key: &str) -> AftResult<Option<Value>> {
        self.read(key, || self.inner.get(key))
    }

    fn get_batch(&self, keys: &[String]) -> AftResult<Vec<Option<Value>>> {
        self.read(first(keys), || self.inner.get_batch(keys))
    }

    fn put(&self, key: &str, value: Value) -> AftResult<()> {
        let land = |_| self.inner.put(key, value);
        self.write(key, vec![vec![key]], land)
    }

    fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()> {
        let key = items
            .first()
            .map(|(key, _)| key.clone())
            .unwrap_or_default();
        let keys: Vec<&str> = items.iter().map(|(key, _)| key.as_str()).collect();
        let units = if self.inner.writes_atomically(&keys) {
            vec![items]
        } else {
            items.into_iter().map(|item| vec![item]).collect()
        };
        self.write(&key, units, |items| self.inner.put_batch(items))
    }

    fn delete(&self, key: &str) -> AftResult<()> {
        self.write(key, vec![vec![key]], |_| self.inner.delete(key))
    }

    fn delete_batch(&self, keys: &[String]) -> AftResult<()> {
        let call = self.inner.delete_call();
        let units: Vec<Vec<String>> = if call.atomic {
            let unit = |call: Vec<usize>| call.into_iter().map(|i| keys[i].clone()).collect();
            calls_of(&call, keys.iter().map(String::as_str))
                .into_iter()
                .map(unit)
                .collect()
        } else {
            keys.iter().map(|key| vec![key.clone()]).collect()
        };
        self.write(first(keys), units, |keys| self.inner.delete_batch(&keys))
    }

    fn delete_call(&self) -> MultiKeyCall {
        self.inner.delete_call()
    }

    fn list_prefix(&self, prefix: &str) -> AftResult<Vec<String>> {
        self.read(prefix, || self.inner.list_prefix(prefix))
    }

    fn list_prefix_after(&self, prefix: &str, after: &str) -> AftResult<Vec<String>> {
        self.read(prefix, || self.inner.list_prefix_after(prefix, after))
    }

    fn supports_batch_get(&self) -> bool {
        self.inner.supports_batch_get()
    }

    fn supports_batch_put(&self) -> bool {
        self.inner.supports_batch_put()
    }

    fn writes_atomically(&self, keys: &[&str]) -> bool {
        self.inner.writes_atomically(keys)
    }

    fn supports_deferred_latency(&self) -> bool {
        self.inner.supports_deferred_latency()
    }

    fn stats(&self) -> Arc<StorageStats> {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{make_backend, BackendConfig, BackendKind};
    use crate::counters::OpKind;
    use crate::io::{IoConfig, IoEngine};
    use aft_types::{Key, KeyVersion, TransactionId, TransactionRecord, Uuid};
    use parking_lot::Mutex;

    /// Answers each call with the next cut of a list, then passes, and
    /// keeps the unit counts it was asked with.
    #[derive(Default)]
    struct Cuts(Mutex<(Vec<Cut>, Vec<usize>)>);

    impl CutHook for Cuts {
        fn cut(&self, _: &str, units: usize) -> Cut {
            let (cuts, asked) = &mut *self.0.lock();
            asked.push(units);
            if cuts.is_empty() {
                Cut::Pass
            } else {
                cuts.remove(0)
            }
        }
    }

    fn over(kind: BackendKind, cuts: Vec<Cut>) -> (Arc<CutStore>, Arc<Cuts>) {
        let hook = Arc::new(Cuts(Mutex::new((cuts, Vec::new()))));
        let store = CutStore::new(make_backend(BackendConfig::test(kind)), hook.clone());
        (store, hook)
    }

    /// One transaction's data keys and record key: they share a slot.
    fn commit_keys(uuid: u128, keys: usize) -> Vec<String> {
        let id = TransactionId::new(7, Uuid::from_u128(uuid));
        let data = (0..keys).map(|i| KeyVersion::new(Key::new(format!("k{i}")), id));
        let record = TransactionRecord::storage_key_for(&id);
        data.map(|v| v.storage_key()).chain([record]).collect()
    }

    #[test]
    fn every_capability_is_the_wrapped_stores_on_every_row() {
        let one_slot = commit_keys(0xA1, 3);
        let mut cross_slot = commit_keys(0xA1, 1);
        cross_slot.extend(commit_keys(0xB2, 1));
        for kind in [BackendKind::Memory]
            .into_iter()
            .chain(BackendKind::EVALUATED)
        {
            let (store, _) = over(kind, Vec::new());
            let inner = make_backend(BackendConfig::test(kind));
            assert_eq!(store.name(), inner.name());
            assert_eq!(store.supports_batch_get(), inner.supports_batch_get());
            assert_eq!(store.supports_batch_put(), inner.supports_batch_put());
            assert_eq!(store.delete_call(), inner.delete_call(), "{kind}");
            let one_call: Vec<&str> = one_slot.iter().map(String::as_str).collect();
            assert_eq!(
                store.writes_atomically(&one_call),
                kind == BackendKind::Redis
            );
            for keys in [&one_slot, &cross_slot] {
                let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
                assert_eq!(
                    store.writes_atomically(&keys),
                    inner.writes_atomically(&keys),
                    "{kind}: {keys:?}"
                );
            }
        }
    }

    #[test]
    fn a_call_has_the_units_its_row_applies_independently() {
        let keys = commit_keys(0xA1, 2);
        let items: Vec<(String, Value)> = keys.iter().map(|k| (k.clone(), Value::new())).collect();
        // The memory row applies per item; Redis's one-slot MSET and DEL
        // whole; a single-key call is one unit anywhere.
        for (kind, units) in [(BackendKind::Memory, 3), (BackendKind::Redis, 1)] {
            let (store, hook) = over(kind, Vec::new());
            store.put_batch(items.clone()).unwrap();
            store.delete_batch(&keys).unwrap();
            store.put("lone", Value::new()).unwrap();
            store.delete("lone").unwrap();
            assert_eq!(hook.0.lock().1, [units, units, 1, 1], "{kind}");
        }
    }

    #[test]
    fn each_call_names_the_key_the_store_draws_its_latency_at() {
        // A single-key call its key, a batch its first key (as the caller
        // ordered it), a listing its prefix.
        let asked = Arc::new(Mutex::new(Vec::new()));
        let hook = {
            let asked = Arc::clone(&asked);
            move |key: &str, _| {
                asked.lock().push(key.to_owned());
                Cut::Pass
            }
        };
        let store = CutStore::new(
            make_backend(BackendConfig::test(BackendKind::Memory)),
            Arc::new(hook),
        );
        let keys = ["b".to_owned(), "a".to_owned()];
        store.put("p", Value::new()).unwrap();
        store.put_batch(abc().into_iter().rev().collect()).unwrap();
        store.get("g").unwrap();
        store.get_batch(&keys).unwrap();
        store.list_prefix("l/").unwrap();
        store.list_prefix_after("m/", "m/0").unwrap();
        store.delete("d").unwrap();
        store.delete_batch(&keys).unwrap();
        assert_eq!(*asked.lock(), ["p", "c", "g", "b", "l/", "m/", "d", "b"]);
    }

    fn abc() -> Vec<(String, Value)> {
        ["a", "b", "c"]
            .map(|k| (k.to_owned(), Value::from_static(k.as_bytes())))
            .to_vec()
    }

    #[test]
    fn transient_errors_surface_typed_not_panic() {
        // Any call may fail transiently, reads and listings included (they
        // are asked with no units); a dropped one applies nothing.
        let dropped = Cut::Transient { applied: false };
        let (store, hook) = over(BackendKind::Memory, vec![dropped; 4]);
        for call in [
            store.put("k", Value::new()),
            store.get("k").map(drop),
            store.list_prefix("").map(drop),
            store.put_batch(abc()),
        ] {
            assert!(matches!(call, Err(AftError::StorageTransient(_))));
        }
        assert_eq!(hook.0.lock().1, [1, 0, 0, 3]);
        assert!(hook.0.lock().0.is_empty(), "every scripted cut was taken");
        assert!(store.list_prefix("").unwrap().is_empty());
    }

    #[test]
    fn applied_but_unacked_writes_land_before_the_error() {
        // An applied transient lands the whole call, then answers the
        // same typed error as a dropped one.
        let applied = Cut::Transient { applied: true };
        let (store, hook) = over(BackendKind::Memory, vec![applied; 3]);
        for call in [
            store.put("k", Value::from_static(b"v")),
            store.put_batch(abc()),
            store.delete("a"),
        ] {
            assert!(matches!(call, Err(AftError::StorageTransient(_))));
        }
        assert_eq!(hook.0.lock().1, [1, 3, 1]);
        assert!(hook.0.lock().0.is_empty(), "every scripted cut was taken");
        assert_eq!(store.list_prefix("").unwrap(), ["b", "c", "k"]);
        assert_eq!(store.get("k").unwrap(), Some(Value::from_static(b"v")));
    }

    #[test]
    fn a_one_call_commit_faults_whole_and_its_retry_lands_one_record() {
        // A Redis commit's data and record in one MSET, as the flush sends
        // them.
        let items: Vec<(String, Value)> = commit_keys(0xC0FFEE, 4)
            .into_iter()
            .map(|key| (key, Value::from_static(b"v")))
            .collect();
        let record = items.last().unwrap().0.clone();
        for applied in [false, true] {
            // The faulted call reaches the store whole or not at all, the
            // engine retries it whole, and the record is one key.
            let (store, hook) = over(BackendKind::Redis, vec![Cut::Transient { applied }]);
            let engine = IoEngine::new(store.clone(), IoConfig::pipelined());
            engine.put_all(items.clone()).unwrap();
            assert_eq!(engine.stats().retries, 1);
            assert_eq!(hook.0.lock().1, [1, 1], "one unit an attempt");
            let records = store.list_prefix("commit/").unwrap();
            assert_eq!(records, std::slice::from_ref(&record));
            assert_eq!(store.list_prefix("").unwrap().len(), items.len());
            let mset = store.stats().calls(OpKind::BatchPut);
            assert_eq!(mset, 1 + u64::from(applied), "calls that reached the store");
        }
    }

    #[test]
    fn a_get_batch_is_one_decision_and_the_engine_retries_it_whole() {
        let keys: Vec<String> = (0..8).map(|i| format!("k{i}")).collect();
        for applied in [false, true] {
            let (store, hook) = over(BackendKind::Memory, vec![Cut::Transient { applied }]);
            store.inner().put("k0", Value::from_static(b"v")).unwrap();
            let engine = IoEngine::new(store.clone(), IoConfig::pipelined());
            let values = engine.get_all(keys.clone()).unwrap();
            assert_eq!(
                values.iter().flatten().collect::<Vec<_>>(),
                [&Value::from_static(b"v")]
            );
            assert_eq!(
                hook.0.lock().1,
                [0, 0],
                "one decision an attempt, not a key"
            );
            assert_eq!(engine.stats().retries, 1, "the whole batch was retried");
            let calls = |op| store.stats().calls(op);
            let reached = 1 + u64::from(applied);
            assert_eq!((calls(OpKind::Get), calls(OpKind::BatchGet)), (0, reached));
        }
    }

    #[test]
    fn a_fail_lands_its_subset_and_a_crash_holds_until_restart() {
        let items = abc();
        let cuts = vec![Cut::Fail(0b101), Cut::Pass, Cut::Crash(0)];
        let (store, _) = over(BackendKind::Memory, cuts);
        // Units are ordered by key: bits 0 and 2 are `a` and `c`; the
        // listing is asked too.
        let failed = store.put_batch(items);
        assert!(matches!(failed, Err(AftError::Unavailable(_))));
        assert_eq!(store.list_prefix("").unwrap(), ["a", "c"]);
        assert!(!store.crashed(), "a fail fails one call");

        assert!(store.delete("a").is_err());
        assert!(store.crashed());
        for read in [store.get("a").map(drop), store.list_prefix("").map(drop)] {
            assert!(matches!(read, Err(AftError::Unavailable(_))));
        }
        store.restart();
        assert_eq!(store.list_prefix("").unwrap(), ["a", "c"], "none applied");
        store.delete("a").unwrap();
        assert_eq!(store.list_prefix("").unwrap(), ["c"]);
    }
}
