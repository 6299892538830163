//! The DynamoDB row, [`Service::DYNAMODB`], and what a table has beyond it.
//!
//! The evaluation relies on three DynamoDB behaviours:
//!
//! * moderate single-digit-millisecond per-item latency with a visible tail,
//! * a batched write API (`BatchWriteItem`, 25 items per call) that AFT's
//!   commit protocol exploits (§6.1.1), and
//! * a transaction mode (`TransactWriteItems` / `TransactGetItems`) that
//!   serializes conflicting transactions and proactively aborts on conflict,
//!   used as the "DynamoDB Txns" baseline in Figures 3, 4 and Table 2.
//!
//! The first two are facts of the row; [`SimDynamo`] adds the third over the
//! shared [`SimStore`].

use std::collections::HashSet;
use std::ops::Deref;
use std::sync::Arc;

use aft_types::{AftError, AftResult, Value};
use parking_lot::Mutex;

use crate::counters::OpKind;
use crate::engine::StorageEngine;
use crate::latency::{LatencyModel, LatencyProfile};
use crate::profiles::Service;
use crate::store::SimStore;

/// The real service's limit on items per transactional call.
pub const DYNAMO_TRANSACT_LIMIT: usize = 100;

/// One `TransactWriteItems` / `TransactGetItems` round trip.
const TRANSACT: LatencyProfile = LatencyProfile::new(6_500.0, 22_000.0).with_per_kb(20.0);

/// A simulated DynamoDB table: the [`Service::DYNAMODB`] store (which it
/// derefs to) plus the transactional calls.
pub struct SimDynamo {
    store: SimStore,
    /// Item keys currently locked by an in-flight transactional call; a
    /// concurrent transactional call touching any of them aborts with a
    /// conflict, mimicking DynamoDB's optimistic conflict detection.
    txn_locks: Mutex<HashSet<String>>,
}

impl Deref for SimDynamo {
    type Target = SimStore;

    fn deref(&self) -> &SimStore {
        &self.store
    }
}

impl SimDynamo {
    /// Creates an empty table.
    pub fn new(latency: Arc<LatencyModel>, seed: u64) -> Arc<Self> {
        Arc::new(SimDynamo {
            store: SimStore::of(Service::DYNAMODB, latency, seed, Service::DYNAMODB.stripes),
            txn_locks: Mutex::new(HashSet::new()),
        })
    }

    /// A handle exposing only the transactional API, used by the
    /// "DynamoDB Txns" baseline.
    pub fn transaction_mode(self: &Arc<Self>) -> DynamoTransactionMode {
        DynamoTransactionMode {
            table: Arc::clone(self),
        }
    }

    /// `TransactWriteItems`: writes all items atomically, aborting with a
    /// conflict error if any item is part of another in-flight transactional
    /// call.
    pub fn transact_write(&self, items: Vec<(String, Value)>) -> AftResult<()> {
        let keys: Vec<String> = items.iter().map(|(k, _)| k.clone()).collect();
        let payload = items.iter().map(|(_, v)| v.len()).sum();
        self.transact(OpKind::TransactWrite, &keys, payload, || {
            for (k, v) in items {
                self.store.write(&k, v);
            }
        })
    }

    /// `TransactGetItems`: reads all keys atomically, aborting with a
    /// conflict error if any key is part of another in-flight transactional
    /// call.
    pub fn transact_read(&self, keys: &[String]) -> AftResult<Vec<Option<Value>>> {
        self.transact(OpKind::TransactRead, keys, 0, || {
            keys.iter().map(|k| self.store.read(k)).collect()
        })
    }

    /// One transactional call over `keys` (none: a no-op), billed as `kind`
    /// and run while holding the keys' conflict locks.
    fn transact<T: Default>(
        &self,
        kind: OpKind,
        keys: &[String],
        payload: usize,
        body: impl FnOnce() -> T,
    ) -> AftResult<T> {
        if keys.is_empty() {
            return Ok(T::default());
        }
        if keys.len() > DYNAMO_TRANSACT_LIMIT {
            return Err(AftError::InvalidRequest(format!(
                "{} supports at most {DYNAMO_TRANSACT_LIMIT} items, got {}",
                kind.name(),
                keys.len()
            )));
        }
        self.stats().record_call(kind);
        self.acquire_txn_locks(keys)?;
        self.store.charge(&TRANSACT, &keys[0], payload);
        let out = body();
        self.release_txn_locks(keys);
        Ok(out)
    }

    fn acquire_txn_locks(&self, keys: &[String]) -> AftResult<()> {
        let mut locks = self.txn_locks.lock();
        if keys.iter().any(|k| locks.contains(k)) {
            self.stats().record_conflict();
            return Err(AftError::StorageConflict(
                "item is part of another in-flight transaction".to_owned(),
            ));
        }
        locks.extend(keys.iter().cloned());
        Ok(())
    }

    fn release_txn_locks(&self, keys: &[String]) {
        let mut locks = self.txn_locks.lock();
        for k in keys {
            locks.remove(k);
        }
    }
}

/// A handle that exposes only the transactional API of a [`SimDynamo`] table.
///
/// The paper's "DynamoDB Txns" baseline groups each function's reads into one
/// `TransactGetItems` call and each request's writes into one
/// `TransactWriteItems` call (§6.1.2); this type is what that baseline client
/// holds.
#[derive(Clone)]
pub struct DynamoTransactionMode {
    table: Arc<SimDynamo>,
}

impl DynamoTransactionMode {
    /// Writes all items atomically or aborts with a conflict.
    pub fn write(&self, items: Vec<(String, Value)>) -> AftResult<()> {
        self.table.transact_write(items)
    }

    /// Reads all keys atomically or aborts with a conflict.
    pub fn read(&self, keys: &[String]) -> AftResult<Vec<Option<Value>>> {
        self.table.transact_read(keys)
    }

    /// The underlying simulated table.
    pub fn table(&self) -> &Arc<SimDynamo> {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::DYNAMO_BATCH_LIMIT;
    use bytes::Bytes;

    fn store() -> Arc<SimDynamo> {
        SimDynamo::new(LatencyModel::disabled(), 7)
    }

    fn val(s: &str) -> Value {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn basic_engine_operations() {
        let d = store();
        d.put("k", val("v")).unwrap();
        assert_eq!(d.get("k").unwrap().unwrap(), val("v"));
        d.delete("k").unwrap();
        assert!(d.get("k").unwrap().is_none());
        assert!(d.supports_batch_put());
        assert_eq!(d.name(), "dynamodb");
    }

    #[test]
    fn batch_put_splits_into_25_item_chunks() {
        let d = store();
        let items: Vec<(String, Value)> = (0..60).map(|i| (format!("k{i}"), val("v"))).collect();
        d.put_batch(items).unwrap();
        assert_eq!(d.len(), 60);
        // 60 items -> 3 BatchWriteItem calls (25 + 25 + 10).
        assert_eq!(d.stats().calls(OpKind::BatchPut), 3);
    }

    fn virtual_table() -> Arc<SimDynamo> {
        SimDynamo::new(LatencyModel::new(crate::LatencyMode::Virtual, 1.0), 7)
    }

    #[test]
    fn batch_put_overlaps_its_chunks() {
        use crate::latency::measure_cost;
        use std::time::Duration;
        let items: Vec<(String, Value)> = (0..60).map(|i| (format!("k{i}"), val("v"))).collect();

        // The same three BatchWriteItem calls one after another, on a twin
        // with the same seed: the samples the batch will draw.
        let twin = virtual_table();
        let alone: Vec<Duration> = items
            .chunks(DYNAMO_BATCH_LIMIT)
            .map(|chunk| measure_cost(|| twin.put_batch(chunk.to_vec()).unwrap()).1)
            .collect();

        let d = virtual_table();
        let ((), cost) = measure_cost(|| d.put_batch(items).unwrap());
        assert_eq!(d.stats().calls(OpKind::BatchPut), 3);
        // Issued together, the batch costs its slowest chunk, not the sum.
        assert_eq!(Some(cost), alone.iter().copied().max());
        assert!(cost < alone.iter().sum::<Duration>());
    }

    #[test]
    fn batch_delete_overlaps_its_chunks() {
        use crate::latency::measure_cost;
        use std::time::Duration;
        let table = virtual_table;
        let keys: Vec<String> = (0..100).map(|i| format!("k{i}")).collect();

        // The same four BatchWriteItem calls one after another, on a twin
        // with the same seed: the samples the batch will draw.
        let twin = table();
        let alone: Vec<Duration> = keys
            .chunks(DYNAMO_BATCH_LIMIT)
            .map(|chunk| measure_cost(|| twin.delete_batch(chunk).unwrap()).1)
            .collect();

        let d = table();
        let ((), cost) = measure_cost(|| d.delete_batch(&keys).unwrap());
        assert_eq!(d.stats().calls(OpKind::BatchDelete), 4);
        // Issued together, the batch costs its slowest chunk, not the sum.
        assert_eq!(Some(cost), alone.iter().copied().max());
        assert!(cost < alone.iter().sum::<Duration>());
    }

    #[test]
    fn transact_write_then_read_round_trips() {
        let d = store();
        d.transact_write(vec![("a".into(), val("1")), ("b".into(), val("2"))])
            .unwrap();
        let out = d
            .transact_read(&["a".into(), "b".into(), "c".into()])
            .unwrap();
        assert_eq!(out[0].as_ref().unwrap(), &val("1"));
        assert_eq!(out[1].as_ref().unwrap(), &val("2"));
        assert!(out[2].is_none());
    }

    #[test]
    fn transact_conflict_is_detected() {
        let d = store();
        // Simulate another in-flight transaction holding a lock on "a".
        d.acquire_txn_locks(&["a".to_owned()]).unwrap();
        let err = d.transact_write(vec![("a".into(), val("x"))]).unwrap_err();
        assert!(matches!(err, AftError::StorageConflict(_)));
        assert_eq!(d.stats().snapshot().conflicts, 1);
        d.release_txn_locks(&["a".to_owned()]);
        // After release the write succeeds.
        d.transact_write(vec![("a".into(), val("x"))]).unwrap();
    }

    #[test]
    fn transact_limits_are_enforced() {
        let d = store();
        let too_many: Vec<(String, Value)> = (0..=DYNAMO_TRANSACT_LIMIT)
            .map(|i| (format!("k{i}"), val("v")))
            .collect();
        assert!(matches!(
            d.transact_write(too_many),
            Err(AftError::InvalidRequest(_))
        ));
        let too_many_keys: Vec<String> = (0..=DYNAMO_TRANSACT_LIMIT)
            .map(|i| format!("k{i}"))
            .collect();
        assert!(d.transact_read(&too_many_keys).is_err());
    }

    #[test]
    fn transaction_mode_handle_works() {
        let d = store();
        let txn = d.transaction_mode();
        txn.write(vec![("x".into(), val("9"))]).unwrap();
        assert_eq!(
            txn.read(&["x".into()]).unwrap()[0].as_ref().unwrap(),
            &val("9")
        );
        assert_eq!(txn.table().len(), 1);
    }

    #[test]
    fn empty_transactions_are_noops() {
        let d = store();
        d.transact_write(Vec::new()).unwrap();
        assert!(d.transact_read(&[]).unwrap().is_empty());
        assert_eq!(d.stats().calls(OpKind::TransactWrite), 0);
    }

    #[test]
    fn list_prefix_sees_batch_writes() {
        let d = store();
        d.put_batch(vec![
            ("commit/1".into(), val("a")),
            ("commit/2".into(), val("b")),
            ("data/x".into(), val("c")),
        ])
        .unwrap();
        assert_eq!(d.list_prefix("commit/").unwrap().len(), 2);
    }
}
