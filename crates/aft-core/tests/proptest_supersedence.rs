//! The metadata cache's superseded set against Algorithm 2 as the paper
//! writes it.
//!
//! [`MetadataCache`] decides supersedence when a record is inserted or
//! removed instead of re-running [`is_superseded`] over every cached record
//! on every garbage-collection sweep. The function stays the definition: after
//! any sequence of inserts and removes the set must equal
//! `{r cached : is_superseded(r)}`, oldest first. The deterministic test below
//! pins what the set buys — a sweep examines the superseded records, not the
//! cache.

use std::sync::Arc;

use aft_core::{is_superseded, AftNode, LocalGcConfig, MetadataCache, NodeConfig};
use aft_storage::{InMemoryStore, SharedStorage};
use aft_types::clock::TickingClock;
use aft_types::{Key, TransactionId, TransactionRecord, Uuid};
use proptest::prelude::*;

/// One step of a randomly generated history of the cache.
#[derive(Debug, Clone)]
enum Step {
    /// Insert the record with this timestamp and these keys. Timestamps come
    /// from a small space, so ids arrive out of order and known ids are
    /// re-inserted (with whatever write set this draw carries — a no-op); the
    /// key list may be empty or repeat a key.
    Insert(u64, Vec<u8>),
    /// Remove the record with this timestamp, superseded or not.
    Remove(u64),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => (0..48u64, proptest::collection::vec(0..6u8, 0..5))
            .prop_map(|(ts, keys)| Step::Insert(ts, keys)),
        1 => (0..48u64).prop_map(Step::Remove),
    ]
}

fn tid(ts: u64) -> TransactionId {
    TransactionId::new(ts, Uuid::from_u128(u128::from(ts)))
}

fn record(ts: u64, keys: impl IntoIterator<Item = Key>) -> Arc<TransactionRecord> {
    Arc::new(TransactionRecord::new(tid(ts), keys))
}

/// Algorithm 2 recomputed over the whole cache.
fn reference(cache: &MetadataCache) -> Vec<TransactionId> {
    let mut ids: Vec<TransactionId> = cache
        .all_records()
        .iter()
        .filter(|r| is_superseded(r, cache))
        .map(|r| r.id)
        .collect();
    ids.sort();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn superseded_set_equals_algorithm_2(steps in proptest::collection::vec(arb_step(), 1..160)) {
        let cache = MetadataCache::new();
        for step in steps {
            match &step {
                Step::Insert(ts, keys) => {
                    let known = cache.is_committed(&tid(*ts));
                    let inserted = cache.insert(record(
                        *ts,
                        keys.iter().map(|k| Key::new(format!("key-{k}"))),
                    ));
                    prop_assert_eq!(inserted, !known);
                }
                Step::Remove(ts) => {
                    cache.remove(&tid(*ts));
                }
            }
            let set: Vec<TransactionId> = cache
                .superseded_oldest_first()
                .iter()
                .map(|r| r.id)
                .collect();
            prop_assert_eq!(set, reference(&cache), "after {:?}", step);
        }
    }
}

#[test]
fn local_gc_examines_the_superseded_records_not_the_cache() {
    let storage: SharedStorage = InMemoryStore::shared();
    let node =
        AftNode::with_clock(NodeConfig::test(), storage, TickingClock::shared(1, 1)).unwrap();
    let key = |i: u64| Key::new(format!("k/{i:05}"));
    // Ten old versions, then the 10 000 versions that are each the newest of
    // their key — ten of them superseding the old ones.
    for i in 0..10 {
        node.metadata().insert(record(1 + i, [key(i)]));
    }
    for i in 0..10_000 {
        node.metadata().insert(record(100 + i, [key(i)]));
    }

    let outcome = node.run_local_gc(&LocalGcConfig::default());
    assert_eq!(outcome.examined, 10);
    assert_eq!(outcome.deleted, 10);
    assert_eq!(node.metadata().len(), 10_000);
    assert_eq!(
        node.run_local_gc(&LocalGcConfig::default()).examined,
        0,
        "nothing was superseded since the last sweep"
    );
}
