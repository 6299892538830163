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
//!
//! The key version index is held to its definition in the same loop: each
//! key's versions are a hand-kept list, not an ordered set, so ascending order
//! and one entry per id are checked against a `BTreeSet` rebuilt from the
//! cached records after every step. So is the debited set: the overwritten
//! versions of records that are not superseded. A second history interleaves
//! what the collectors do — retire debited versions, remove superseded
//! records — and holds all three to their definitions minus what it retired.
//! Both draw ids whose timestamps repeat, as a node's do when it commits
//! more than once in a millisecond, with UUIDs drawn apart from them: ties
//! on the timestamp order by UUID (§3.1).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use aft_core::{is_superseded, AftNode, MetadataCache, NodeConfig};
use aft_storage::{InMemoryStore, SharedStorage};
use aft_types::clock::TickingClock;
use aft_types::{Key, KeyVersion, TransactionId, TransactionRecord, Uuid};
use proptest::prelude::*;

/// One step of a randomly generated history of the cache.
#[derive(Debug, Clone)]
enum Step {
    /// Insert the record with this id and these keys. Ids come from a small
    /// space ([`arb_id`]), so they arrive out of order and known ids are
    /// re-inserted (with whatever write set this draw carries — a no-op); the
    /// key list may be empty or repeat a key.
    Insert(TransactionId, Vec<u8>),
    /// Remove the record with this id, superseded or not.
    Remove(TransactionId),
}

/// One of 48 ids: 16 timestamps, each with any of 3 UUIDs.
fn arb_id() -> impl Strategy<Value = TransactionId> {
    (0..16u64, 0..3u128).prop_map(|(ts, uuid)| TransactionId::new(ts, Uuid::from_u128(uuid)))
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => (arb_id(), proptest::collection::vec(0..6u8, 0..5))
            .prop_map(|(id, keys)| Step::Insert(id, keys)),
        1 => arb_id().prop_map(Step::Remove),
    ]
}

fn tid(ts: u64) -> TransactionId {
    TransactionId::new(ts, Uuid::from_u128(u128::from(ts)))
}

fn record(ts: u64, keys: impl IntoIterator<Item = Key>) -> Arc<TransactionRecord> {
    record_of(tid(ts), keys)
}

fn record_of(id: TransactionId, keys: impl IntoIterator<Item = Key>) -> Arc<TransactionRecord> {
    Arc::new(TransactionRecord::new(id, keys))
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

/// Versions a history has retired, as `(writer, key)`.
type Retired = BTreeSet<(TransactionId, Key)>;

/// The key version index by definition: every cached record under each key
/// it wrote, ordered and deduplicated by the set, less the `retired` versions.
fn reference_index(
    cache: &MetadataCache,
    retired: &Retired,
) -> BTreeMap<Key, BTreeSet<TransactionId>> {
    let mut index: BTreeMap<Key, BTreeSet<TransactionId>> = BTreeMap::new();
    for record in cache.all_records() {
        for key in &record.write_set {
            if !retired.contains(&(record.id, key.clone())) {
                index.entry(key.clone()).or_default().insert(record.id);
            }
        }
    }
    index
}

/// The debited set by definition: each version, not retired, of a record
/// that is not superseded, on a key that has a newer version.
fn reference_debited(cache: &MetadataCache, retired: &Retired) -> Vec<(TransactionId, Key)> {
    let mut pairs: Vec<(TransactionId, Key)> = cache
        .all_records()
        .iter()
        .filter(|r| !is_superseded(r, cache))
        .flat_map(|r| r.write_set.iter().map(|key| (r.id, key.clone())))
        .filter(|(id, key)| {
            !retired.contains(&(*id, key.clone()))
                && cache
                    .latest_version_of(key)
                    .is_some_and(|newest| newest > *id)
        })
        .collect();
    pairs.sort();
    pairs
}

fn debited(cache: &MetadataCache) -> Vec<(TransactionId, Key)> {
    cache
        .debited_oldest_first()
        .into_iter()
        .map(|v| (v.tid, v.key))
        .collect()
}

/// Asserts the cache's index equals [`reference_index`] on every key in
/// `keys` (which must include every key the cache was ever given).
fn assert_index_matches_definition(cache: &MetadataCache, keys: impl IntoIterator<Item = Key>) {
    assert_index_matches(cache, &Retired::new(), keys);
}

fn assert_index_matches(
    cache: &MetadataCache,
    retired: &Retired,
    keys: impl IntoIterator<Item = Key>,
) {
    let expected = reference_index(cache, retired);
    assert_eq!(cache.indexed_keys(), expected.len());
    for key in keys {
        let versions: Vec<TransactionId> = cache.view().versions_newest_first(&key).collect();
        let set = expected.get(&key).cloned().unwrap_or_default();
        assert_eq!(
            versions,
            set.iter().rev().copied().collect::<Vec<_>>(),
            "{key}"
        );
        assert_eq!(cache.latest_version_of(&key), set.last().copied(), "{key}");
    }
}

fn small_key(k: u8) -> Key {
    Key::new(format!("key-{k}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn superseded_set_equals_algorithm_2(steps in proptest::collection::vec(arb_step(), 1..160)) {
        let cache = MetadataCache::new();
        for step in steps {
            match &step {
                Step::Insert(id, keys) => {
                    let known = cache.is_committed(id);
                    let inserted = cache.insert(record_of(
                        *id,
                        keys.iter().copied().map(small_key),
                    ));
                    prop_assert_eq!(inserted, !known);
                }
                Step::Remove(id) => {
                    cache.remove(id);
                }
            }
            let set: Vec<TransactionId> = cache
                .superseded_oldest_first()
                .iter()
                .map(|r| r.id)
                .collect();
            prop_assert_eq!(set, reference(&cache), "after {:?}", step);
            prop_assert_eq!(debited(&cache), reference_debited(&cache, &Retired::new()), "after {:?}", step);
            // Every key `arb_step` can draw.
            assert_index_matches_definition(&cache, (0..6).map(small_key));
        }
    }

    #[test]
    fn retiring_keeps_the_index_and_both_sets_at_their_definitions(
        steps in proptest::collection::vec(arb_collector_step(), 1..160),
    ) {
        let cache = MetadataCache::new();
        let mut retired = Retired::new();
        for step in steps {
            match &step {
                CollectorStep::Insert(id, keys) => {
                    cache.insert(record_of(*id, keys.iter().copied().map(small_key)));
                }
                CollectorStep::Retire(up_to) => {
                    let due: Vec<KeyVersion> = cache
                        .debited_oldest_first()
                        .into_iter()
                        .filter(|v| v.tid.timestamp <= *up_to)
                        .collect();
                    prop_assert_eq!(cache.retire(&due), due.len());
                    retired.extend(due.into_iter().map(|v| (v.tid, v.key)));
                }
                CollectorStep::Collect(up_to) => {
                    for record in cache.superseded_oldest_first() {
                        if record.id.timestamp <= *up_to {
                            cache.remove(&record.id);
                            retired.retain(|(id, _)| *id != record.id);
                        }
                    }
                }
            }
            prop_assert_eq!(superseded_ids(&cache), reference(&cache), "after {:?}", step);
            prop_assert_eq!(debited(&cache), reference_debited(&cache, &retired), "after {:?}", step);
            assert_index_matches(&cache, &retired, (0..6).map(small_key));
        }
    }
}

/// One step of a history the way the collectors drive the cache: records
/// arrive in any order, and only what a sweep may drop is dropped.
#[derive(Debug, Clone)]
enum CollectorStep {
    /// As [`Step::Insert`].
    Insert(TransactionId, Vec<u8>),
    /// Retire the debited versions of transactions up to this timestamp.
    Retire(u64),
    /// Remove the superseded records up to this timestamp.
    Collect(u64),
}

fn arb_collector_step() -> impl Strategy<Value = CollectorStep> {
    prop_oneof![
        4 => (arb_id(), proptest::collection::vec(0..6u8, 0..5))
            .prop_map(|(id, keys)| CollectorStep::Insert(id, keys)),
        1 => (0..16u64).prop_map(CollectorStep::Retire),
        1 => (0..16u64).prop_map(CollectorStep::Collect),
    ]
}

fn superseded_ids(cache: &MetadataCache) -> Vec<TransactionId> {
    cache
        .superseded_oldest_first()
        .iter()
        .map(|r| r.id)
        .collect()
}

fn versions_of(cache: &MetadataCache, key: &Key) -> Vec<u64> {
    cache
        .view()
        .versions_newest_first(key)
        .map(|id| id.timestamp)
        .collect()
}

#[test]
fn a_known_id_is_indexed_once() {
    let cache = MetadataCache::new();
    let k = Key::new("k");
    // Into a key with one version...
    assert!(cache.insert(record(5, [k.clone()])));
    assert!(!cache.insert(record(5, [k.clone()])));
    assert_eq!(versions_of(&cache, &k), [5]);
    // ...and, newest, oldest and in the middle, into a key with several.
    for ts in [3, 9, 7] {
        assert!(cache.insert(record(ts, [k.clone()])));
    }
    for ts in [3, 5, 7, 9] {
        assert!(!cache.insert(record(ts, [k.clone()])));
    }
    assert_eq!(versions_of(&cache, &k), [9, 7, 5, 3]);
    assert_index_matches_definition(&cache, [k]);
}

#[test]
fn an_id_older_than_every_cached_one_goes_last() {
    let cache = MetadataCache::new();
    let k = Key::new("k");
    for ts in [20, 30, 40, 10] {
        cache.insert(record(ts, [k.clone()]));
    }
    assert_eq!(versions_of(&cache, &k), [40, 30, 20, 10]);
    assert_eq!(cache.latest_version_of(&k), Some(tid(40)));
    // Late and oldest: superseded on arrival, and nobody else's verdict moved.
    assert_eq!(reference(&cache), [tid(10), tid(20), tid(30)]);
    assert_index_matches_definition(&cache, [k]);
}

#[test]
fn removing_versions_walks_the_list_back_to_nothing() {
    let cache = MetadataCache::new();
    let (k, other) = (Key::new("k"), Key::new("other"));
    cache.insert(record(1, [k.clone(), other.clone()]));
    cache.insert(record(2, [k.clone()]));
    cache.insert(record(3, [k.clone()]));

    // Three to one, from the middle then from the top: the survivor is the
    // newest again and serves reads as a one-version key does.
    cache.remove(&tid(2));
    assert_eq!(versions_of(&cache, &k), [3, 1]);
    cache.remove(&tid(3));
    assert_eq!(versions_of(&cache, &k), [1]);
    assert_eq!(cache.latest_version_of(&k), Some(tid(1)));
    assert!(reference(&cache).is_empty());
    assert_index_matches_definition(&cache, [k.clone(), other.clone()]);
    // A one-version key takes a second version again.
    cache.insert(record(4, [k.clone()]));
    assert_eq!(versions_of(&cache, &k), [4, 1]);
    cache.remove(&tid(4));

    // The only version: the key leaves the index.
    cache.remove(&tid(1));
    assert_eq!(cache.indexed_keys(), 0);
    assert_eq!(cache.latest_version_of(&k), None);
    assert!(versions_of(&cache, &k).is_empty());
    assert_index_matches_definition(&cache, [k, other]);
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

    let outcome = node.run_local_gc();
    assert_eq!(outcome.examined, 10);
    assert_eq!(outcome.deleted, 10);
    assert_eq!(node.metadata().len(), 10_000);
    assert_eq!(
        node.run_local_gc().examined,
        0,
        "nothing was superseded since the last sweep"
    );
}
