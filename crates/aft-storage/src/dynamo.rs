//! A simulated AWS DynamoDB.
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
//! `SimDynamo` reproduces all three over an in-memory map plus the calibrated
//! latency profiles in [`profiles`](crate::profiles).

use std::collections::HashSet;
use std::sync::Arc;

use aft_types::{AftError, AftResult, Value};
use parking_lot::Mutex;

use crate::counters::{OpKind, StorageStats};
use crate::engine::StorageEngine;
use crate::latency::{LatencyModel, StripedSampler};
use crate::memory::MemoryMap;
use crate::profiles::ServiceProfile;
use crate::sharded::{stripe_of, DEFAULT_STRIPES};

/// The real service's `BatchWriteItem` limit.
pub const DYNAMO_BATCH_LIMIT: usize = 25;

/// The real service's limit on items per transactional call.
pub const DYNAMO_TRANSACT_LIMIT: usize = 100;

/// A simulated DynamoDB table.
pub struct SimDynamo {
    map: MemoryMap,
    profile: ServiceProfile,
    sampler: StripedSampler,
    stats: Arc<StorageStats>,
    /// Item keys currently locked by an in-flight transactional call; a
    /// concurrent transactional call touching any of them aborts with a
    /// conflict, mimicking DynamoDB's optimistic conflict detection.
    txn_locks: Mutex<HashSet<String>>,
}

impl SimDynamo {
    /// Creates a simulated DynamoDB with the default calibrated profile.
    pub fn new(latency: Arc<LatencyModel>) -> Arc<Self> {
        Self::with_profile(ServiceProfile::dynamodb(), latency, 0x00D1_DB00)
    }

    /// Creates a simulated DynamoDB with a custom profile and RNG seed.
    pub fn with_profile(
        profile: ServiceProfile,
        latency: Arc<LatencyModel>,
        seed: u64,
    ) -> Arc<Self> {
        Self::with_stripes(profile, latency, seed, DEFAULT_STRIPES)
    }

    /// Creates a simulated DynamoDB with an explicit lock-stripe count for
    /// the data plane and the latency sampler.
    pub fn with_stripes(
        profile: ServiceProfile,
        latency: Arc<LatencyModel>,
        seed: u64,
        stripes: usize,
    ) -> Arc<Self> {
        let map = MemoryMap::with_stripes(stripes);
        let stats = StorageStats::new_shared();
        stats.attach_stripes(map.stripe_counters());
        Arc::new(SimDynamo {
            sampler: StripedSampler::new(latency, seed, stripes),
            map,
            profile,
            stats,
            txn_locks: Mutex::new(HashSet::new()),
        })
    }

    fn inject(&self, profile: &crate::latency::LatencyProfile, key: &str, payload_bytes: usize) {
        // Sample on the stripe's RNG (held only for the sample), sleep outside
        // it: concurrent requests to different stripes never serialise.
        let stripe = stripe_of(key, self.sampler.stripes());
        self.sampler.apply(profile, stripe, payload_bytes);
    }

    /// Number of items currently stored; used by GC tests.
    pub fn item_count(&self) -> usize {
        self.map.len()
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
        if items.is_empty() {
            return Ok(());
        }
        if items.len() > DYNAMO_TRANSACT_LIMIT {
            return Err(AftError::InvalidRequest(format!(
                "transact_write supports at most {DYNAMO_TRANSACT_LIMIT} items, got {}",
                items.len()
            )));
        }
        self.stats.record_call(OpKind::TransactWrite);
        let keys: Vec<String> = items.iter().map(|(k, _)| k.clone()).collect();
        self.acquire_txn_locks(&keys)?;
        let payload: usize = items.iter().map(|(_, v)| v.len()).sum();
        self.inject(&self.profile.transact, &keys[0], payload);
        for (k, v) in items {
            self.stats.record_written_bytes(v.len());
            self.map.put(&k, v);
        }
        self.release_txn_locks(&keys);
        Ok(())
    }

    /// `TransactGetItems`: reads all keys atomically, aborting with a
    /// conflict error if any key is part of another in-flight transactional
    /// call.
    pub fn transact_read(&self, keys: &[String]) -> AftResult<Vec<Option<Value>>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        if keys.len() > DYNAMO_TRANSACT_LIMIT {
            return Err(AftError::InvalidRequest(format!(
                "transact_read supports at most {DYNAMO_TRANSACT_LIMIT} items, got {}",
                keys.len()
            )));
        }
        self.stats.record_call(OpKind::TransactRead);
        self.acquire_txn_locks(keys)?;
        self.inject(&self.profile.transact, &keys[0], 0);
        let values: Vec<Option<Value>> = keys.iter().map(|k| self.map.get(k)).collect();
        for v in values.iter().flatten() {
            self.stats.record_read_bytes(v.len());
        }
        self.release_txn_locks(keys);
        Ok(values)
    }

    fn acquire_txn_locks(&self, keys: &[String]) -> AftResult<()> {
        let mut locks = self.txn_locks.lock();
        if keys.iter().any(|k| locks.contains(k)) {
            self.stats.record_conflict();
            return Err(AftError::StorageConflict(
                "item is part of another in-flight transaction".to_owned(),
            ));
        }
        for k in keys {
            locks.insert(k.clone());
        }
        Ok(())
    }

    fn release_txn_locks(&self, keys: &[String]) {
        let mut locks = self.txn_locks.lock();
        for k in keys {
            locks.remove(k);
        }
    }
}

impl StorageEngine for SimDynamo {
    fn name(&self) -> &'static str {
        "dynamodb"
    }

    fn get(&self, key: &str) -> AftResult<Option<Value>> {
        self.stats.record_call(OpKind::Get);
        let value = self.map.get(key);
        let bytes = value.as_ref().map_or(0, |v| v.len());
        self.inject(&self.profile.read, key, bytes);
        if let Some(v) = &value {
            self.stats.record_read_bytes(v.len());
        }
        Ok(value)
    }

    fn put(&self, key: &str, value: Value) -> AftResult<()> {
        self.stats.record_call(OpKind::Put);
        self.stats.record_written_bytes(value.len());
        self.inject(&self.profile.write, key, value.len());
        self.map.put(key, value);
        Ok(())
    }

    fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()> {
        // Each chunk of up to 25 items is one BatchWriteItem API call whose
        // cost grows mildly with the number of items in it.
        for chunk in items.chunks(DYNAMO_BATCH_LIMIT) {
            self.stats.record_call(OpKind::BatchPut);
            let payload: usize = chunk.iter().map(|(_, v)| v.len()).sum();
            let per_item = self.profile.batch_write_per_item_us * chunk.len() as f64;
            let mut profile = self.profile.batch_write_base;
            profile.median_us += per_item;
            profile.p99_us += per_item;
            self.inject(&profile, &chunk[0].0, payload);
            for (k, v) in chunk {
                self.stats.record_written_bytes(v.len());
                self.map.put(k, v.clone());
            }
        }
        Ok(())
    }

    fn delete(&self, key: &str) -> AftResult<()> {
        self.stats.record_call(OpKind::Delete);
        self.inject(&self.profile.delete, key, 0);
        self.map.remove(key);
        Ok(())
    }

    fn delete_batch(&self, keys: &[String]) -> AftResult<()> {
        // One BatchWriteItem call per 25 keys. A pipelined client issues the
        // chunks concurrently and waits for the slowest, so the charged
        // latency is the max of the samples, not their sum — a GC round's
        // batch is dozens of chunks.
        let mut durations = Vec::with_capacity(keys.len().div_ceil(DYNAMO_BATCH_LIMIT));
        for chunk in keys.chunks(DYNAMO_BATCH_LIMIT) {
            self.stats.record_call(OpKind::BatchDelete);
            let stripe = stripe_of(&chunk[0], self.sampler.stripes());
            durations.push(
                self.sampler
                    .sample(&self.profile.batch_write_base, stripe, 0),
            );
            for k in chunk {
                self.map.remove(k);
            }
        }
        self.sampler.model().finish_batch(&durations);
        Ok(())
    }

    fn list_prefix(&self, prefix: &str) -> AftResult<Vec<String>> {
        self.stats.record_call(OpKind::List);
        self.inject(&self.profile.list, prefix, 0);
        Ok(self.map.keys_with_prefix(prefix))
    }

    fn supports_batch_put(&self) -> bool {
        true
    }

    fn supports_deferred_latency(&self) -> bool {
        // Client-observed network latency; safe to defer to a completion.
        true
    }

    fn stats(&self) -> Arc<StorageStats> {
        Arc::clone(&self.stats)
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
    use bytes::Bytes;

    fn store() -> Arc<SimDynamo> {
        SimDynamo::with_profile(ServiceProfile::zero(), LatencyModel::disabled(), 7)
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
        assert_eq!(d.item_count(), 60);
        // 60 items -> 3 BatchWriteItem calls (25 + 25 + 10).
        assert_eq!(d.stats().calls(OpKind::BatchPut), 3);
    }

    #[test]
    fn batch_delete_overlaps_its_chunks() {
        use crate::latency::{measure_cost, LatencyMode};
        use std::time::Duration;
        let table = || {
            let model = LatencyModel::new(LatencyMode::Virtual, 1.0);
            SimDynamo::with_profile(ServiceProfile::dynamodb(), model, 7)
        };
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
        assert_eq!(txn.table().item_count(), 1);
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
