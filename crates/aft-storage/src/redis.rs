//! The Redis row, [`Service::REDIS`], and a cluster's `MSET`.
//!
//! The evaluation uses Redis in cluster mode with two shards (§6). The
//! properties the figures depend on are:
//!
//! * memory-speed, sub-millisecond operations,
//! * hash-slot sharding: every key maps to exactly one shard,
//! * per-shard linearizability but **no guarantees across shards** (which is
//!   why "Redis Shard / Linearizable" still shows anomalies in Table 2), and
//! * `MSET` can only write keys that live in a single shard, so AFT cannot
//!   batch its commit writes over Redis (§6.1.2, §6.3): the row has no
//!   multi-key call, and a pipelined cluster client flushes one SET (or DEL)
//!   per key together.
//!
//! A shard is a placement stripe of the shared [`SimStore`] — one lock, one
//! latency RNG — and [`SimRedis`] adds `MSET` with its CROSSSLOT rule.

use std::ops::Deref;
use std::sync::Arc;

use aft_types::{AftError, AftResult, Value};

use crate::counters::OpKind;
use crate::engine::StorageEngine;
use crate::latency::LatencyModel;
use crate::profiles::{Service, MSET};
use crate::sharded::stripe_of;
use crate::store::SimStore;

/// A simulated Redis cluster: the [`Service::REDIS`] store (which it derefs
/// to) plus `MSET`.
pub struct SimRedis {
    store: SimStore,
}

impl Deref for SimRedis {
    type Target = SimStore;

    fn deref(&self) -> &SimStore {
        &self.store
    }
}

impl SimRedis {
    /// Creates an empty cluster of `num_shards` shards.
    pub fn with_shards(num_shards: usize, latency: Arc<LatencyModel>, seed: u64) -> Arc<Self> {
        assert!(num_shards > 0, "a Redis cluster needs at least one shard");
        Arc::new(SimRedis {
            store: SimStore::of(Service::REDIS, latency, seed, num_shards),
        })
    }

    /// The shard a key hashes to (the cluster's hash-slot mapping).
    pub fn shard_of(&self, key: &str) -> usize {
        stripe_of(key, self.store.stripe_count())
    }

    /// `MSET`: writes several keys in one API call, but only if they all live
    /// in the same shard — the real cluster rejects cross-slot multi-key
    /// commands.
    pub fn mset(&self, items: Vec<(String, Value)>) -> AftResult<()> {
        let Some((first, _)) = items.first() else {
            return Ok(());
        };
        let shard = self.shard_of(first);
        if items.iter().any(|(k, _)| self.shard_of(k) != shard) {
            return Err(AftError::Storage(
                "CROSSSLOT keys in request don't hash to the same slot".to_owned(),
            ));
        }
        self.stats().record_call(OpKind::BatchPut);
        let payload = items.iter().map(|(_, v)| v.len()).sum();
        self.store.charge(&MSET.cost(items.len()), first, payload);
        for (k, v) in items {
            self.store.write(&k, v);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn cluster(shards: usize) -> Arc<SimRedis> {
        SimRedis::with_shards(shards, LatencyModel::disabled(), 1)
    }

    fn val(s: &str) -> Value {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn basic_operations_round_trip() {
        let r = cluster(2);
        r.put("k", val("v")).unwrap();
        assert_eq!(r.get("k").unwrap().unwrap(), val("v"));
        r.delete("k").unwrap();
        assert!(r.get("k").unwrap().is_none());
        assert_eq!(r.name(), "redis");
        assert!(!r.supports_batch_put());
    }

    #[test]
    fn sharding_is_stable_and_covers_all_shards() {
        let r = cluster(4);
        for key in ["a", "b", "k1", "k2"] {
            assert_eq!(
                r.shard_of(key),
                r.shard_of(key),
                "shard mapping must be stable"
            );
            assert!(r.shard_of(key) < 4);
        }
        // With enough keys every shard should receive something.
        let mut seen = std::collections::HashSet::new();
        for i in 0..200 {
            seen.insert(r.shard_of(&format!("key-{i}")));
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn put_batch_issues_one_call_per_key() {
        let r = cluster(2);
        r.put_batch(vec![
            ("a".into(), val("1")),
            ("b".into(), val("2")),
            ("c".into(), val("3")),
        ])
        .unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.stats().calls(OpKind::Put), 3);
        assert_eq!(r.stats().calls(OpKind::BatchPut), 0);
    }

    #[test]
    fn mset_rejects_cross_slot_keys() {
        let r = cluster(8);
        // Find two keys on different shards.
        let k1 = "key-0".to_owned();
        let mut k2 = None;
        for i in 1..100 {
            let candidate = format!("key-{i}");
            if r.shard_of(&candidate) != r.shard_of(&k1) {
                k2 = Some(candidate);
                break;
            }
        }
        let k2 = k2.expect("some key must land on a different shard");
        let err = r
            .mset(vec![(k1.clone(), val("1")), (k2, val("2"))])
            .unwrap_err();
        assert!(matches!(err, AftError::Storage(_)));
        // Same-slot MSET succeeds.
        r.mset(vec![(k1.clone(), val("1")), (k1, val("1b"))])
            .unwrap();
    }

    #[test]
    fn list_prefix_merges_all_shards_sorted() {
        let r = cluster(3);
        for i in 0..20 {
            r.put(&format!("data/k/{i:03}"), val("x")).unwrap();
        }
        r.put("other", val("y")).unwrap();
        let listed = r.list_prefix("data/").unwrap();
        assert_eq!(listed.len(), 20);
        let mut sorted = listed.clone();
        sorted.sort();
        assert_eq!(listed, sorted);
    }

    #[test]
    fn single_shard_cluster_is_allowed() {
        let r = cluster(1);
        r.mset(vec![("a".into(), val("1")), ("b".into(), val("2"))])
            .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = cluster(0);
    }
}
