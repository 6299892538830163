//! Property-based tests of the read path (§3.2).
//!
//! These tests drive an [`AftNode`] with randomly generated transaction
//! histories. Whole-history read atomicity, read-your-writes and aborted
//! data are the history checker's, over every schedule of a small scope
//! (`aft_workload::sim::walk`); what stays here is per node:
//!
//! * visible data always has a durable commit record, and local GC never
//!   hides a key's latest version;
//! * `select_version` and `is_atomic_readset` walk whichever of {read set,
//!   cowritten set} is smaller, and must answer exactly what the
//!   definitional loops — which walk the whole cowritten set — answer;
//! * `get` and `get_all` must read the same values into the same read set.
//!
//! Timestamps repeat throughout, as a node's do when it commits more than
//! once in a millisecond, and the UUIDs that break the ties (§3.1) are drawn
//! apart from them.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aft_core::read::{is_atomic_readset, select_version, ReadSet, VersionChoice};
use aft_core::{AftNode, MetadataCache, NodeConfig};
use aft_storage::{InMemoryStore, SharedStorage};
use aft_types::clock::Clock;
use aft_types::{Key, Timestamp, TransactionId, TransactionRecord, Uuid, Value};
use bytes::Bytes;
use proptest::prelude::*;

fn key_name(k: u8) -> Key {
    Key::new(format!("key-{k}"))
}

/// The value every committed transaction writes: its slot plus a counter, so
/// each value is unique and identifies the writing transaction.
fn value_for(counter: u64) -> Value {
    Bytes::from(format!("value-{counter}"))
}

/// A clock that gives each timestamp to `repeat` reads in a row. A
/// transaction reads it at its start and at its commit, so up to about
/// `repeat / 2` commits in a row tie.
struct Repeating {
    reads: AtomicU64,
    repeat: u64,
}

impl Clock for Repeating {
    fn now(&self) -> Timestamp {
        1 + self.reads.fetch_add(1, Ordering::Relaxed) / self.repeat
    }
}

fn node(repeat: u64) -> Arc<AftNode> {
    let storage: SharedStorage = InMemoryStore::shared();
    let clock = Arc::new(Repeating {
        reads: AtomicU64::new(0),
        repeat,
    });
    AftNode::with_clock(NodeConfig::test(), storage, clock).unwrap()
}

/// Commits one transaction writing every key in `keys`.
fn commit_keys(node: &AftNode, keys: &[Key], counter: &mut u64) {
    let t = node.start_transaction();
    for key in keys {
        *counter += 1;
        node.put(&t, key.clone(), value_for(*counter)).unwrap();
    }
    node.commit(&t).unwrap();
}

/// What one read told the caller: the value and version, or the key that had
/// no valid version (the error's transaction id differs between readers).
type ReadOutcome = Result<Option<(Value, Option<TransactionId>)>, Key>;

fn read_outcome(node: &AftNode, txid: &TransactionId, key: &Key) -> ReadOutcome {
    match node.get_versioned(txid, key) {
        Ok(found) => Ok(found),
        Err(aft_types::AftError::NoValidVersion { key, .. }) => Err(key),
        Err(other) => panic!("unexpected error: {other}"),
    }
}

/// An image of a transaction's read set taken through the public API, after
/// the caller has committed `{k, probe-k}` for every key `k` of the universe.
/// `probe-k` has that one version, and it is valid for a transaction exactly
/// when `k` is not in its read set (buffered or not); `k` itself re-reads at
/// exactly the version the read set holds, and at the newest one otherwise.
fn read_set_image(node: &AftNode, txid: &TransactionId) -> Vec<(ReadOutcome, ReadOutcome)> {
    (0..6u8)
        .map(|k| {
            (
                read_outcome(node, txid, &Key::new(format!("probe-{k}"))),
                read_outcome(node, txid, &key_name(k)),
            )
        })
        .collect()
}

/// The commit records a reference function consults, by id.
type Records = BTreeMap<TransactionId, TransactionRecord>;

/// Algorithm 1 as the paper writes it: every candidate's validity is decided
/// by walking its whole cowritten set.
fn definitional_select_version(key: &Key, read_set: &ReadSet, records: &Records) -> VersionChoice {
    let mut lower = TransactionId::NULL;
    for (read_key, read_tid) in read_set.iter() {
        let bounds = read_key == key || records.get(read_tid).is_some_and(|r| r.wrote(key));
        if bounds && *read_tid > lower {
            lower = *read_tid;
        }
    }
    let versions: Vec<TransactionId> = records
        .values()
        .filter(|r| r.wrote(key))
        .map(|r| r.id)
        .collect();
    if versions.is_empty() {
        return if lower.is_null() {
            VersionChoice::NotFound
        } else {
            VersionChoice::NoValidVersion
        };
    }
    for candidate in versions.iter().rev() {
        if *candidate < lower {
            break;
        }
        let valid = records[candidate].write_set.iter().all(|cowritten| {
            match read_set.version_of(cowritten) {
                Some(j) => j >= *candidate,
                None => true,
            }
        });
        if valid {
            return VersionChoice::Version(*candidate);
        }
    }
    VersionChoice::NoValidVersion
}

/// Definition 1 as the paper writes it.
fn definitional_is_atomic_readset(reads: &[(Key, TransactionId)], records: &Records) -> bool {
    let by_key: HashMap<&Key, TransactionId> = reads.iter().map(|(k, t)| (k, *t)).collect();
    for (_, tid) in reads {
        let Some(record) = records.get(tid) else {
            continue;
        };
        for cowritten in &record.write_set {
            if by_key.get(cowritten).is_some_and(|read| read < tid) {
                return false;
            }
        }
    }
    true
}

/// Keys 0..16 are ordinary; 16..20 fall inside the padding that only a wide
/// record (a preload-sized write set) writes.
fn universe_key(k: u8) -> Key {
    if k < 16 {
        Key::new(format!("k-{k:02}"))
    } else {
        Key::new(format!("pad-{:03}", (k as usize - 16) * 100))
    }
}

/// Write `n`'s id: one of five timestamps, and a UUID whose high bits are
/// drawn and whose low bits are `n`, so ids are distinct and a tie orders by
/// the draw, not by `n`.
fn record_id(n: u64, ts: u64, draw: u8) -> TransactionId {
    TransactionId::new(ts, Uuid::from_u128(u128::from(draw) << 64 | u128::from(n)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The read path walks the smaller of {read set, cowritten set}; whatever
    /// the sizes — a 500-key write set against three reads, twenty reads
    /// against a one-key write set, records missing — it must decide what the
    /// definitional loops decide.
    #[test]
    fn read_path_checks_agree_with_the_definitional_loops(
        writes in proptest::collection::vec(
            (
                proptest::collection::vec(0..16u8, 0..4),
                prop_oneof![3 => Just(false), 1 => Just(true)],
                1..6u64,
                0..4u8,
            ),
            1..24,
        ),
        reads in proptest::collection::vec((0..20u8, 0..26u64), 0..24),
        collected in proptest::collection::vec(1..25u64, 0..4),
        target in 0..20u8,
    ) {
        let metadata = MetadataCache::new();
        let mut records = Records::new();
        for (n, (keys, wide, ts, draw)) in writes.iter().enumerate() {
            let padding = (0..if *wide { 500 } else { 0 }).map(|i| Key::new(format!("pad-{i:03}")));
            let record = TransactionRecord::new(
                record_id(n as u64 + 1, *ts, *draw),
                keys.iter().map(|k| universe_key(*k)).chain(padding),
            );
            metadata.insert(Arc::new(record.clone()));
            records.insert(record.id, record);
        }
        // Version `n` is write `n`'s id, NULL for 0, and one never committed
        // past the writes.
        let version = |n: u64| match n {
            0 => TransactionId::NULL,
            n => writes.get(n as usize - 1).map_or_else(
                || record_id(n, n % 5 + 1, 4),
                |(_, _, ts, draw)| record_id(n, *ts, *draw),
            ),
        };
        // Some records are gone again (GC), so reads can name a version whose
        // record is unknown.
        for n in collected {
            metadata.remove(&version(n));
            records.remove(&version(n));
        }

        let observed: Vec<(Key, TransactionId)> = reads
            .iter()
            .map(|(k, n)| (universe_key(*k), version(*n)))
            .collect();
        prop_assert_eq!(
            is_atomic_readset(&observed, &metadata),
            definitional_is_atomic_readset(&observed, &records),
            "is_atomic_readset on {:?}", observed
        );

        let mut read_set = ReadSet::new();
        for (key, tid) in &observed {
            if !tid.is_null() {
                read_set.record(key.clone(), *tid);
            }
        }
        for key in [universe_key(target), Key::new("pad-001"), Key::new("never-written")] {
            prop_assert_eq!(
                select_version(&key, &read_set, &metadata),
                definitional_select_version(&key, &read_set, &records),
                "select_version({}) after {:?}", key, read_set
            );
        }
    }

    /// `get` and `get_all` are one read protocol behind two entry points: a
    /// transaction reading k₁…kₙ by n `get`s and another reading them by one
    /// `get_all`, over the same node state, return the same values and end
    /// with the same read set — buffered writes included — and when the k-th
    /// key has no valid version both fail on it holding the read set of the
    /// first k−1.
    #[test]
    fn n_gets_and_one_get_all_read_the_same(
        history in proptest::collection::vec(proptest::collection::vec(0..4u8, 1..4), 0..12),
        buffered in proptest::collection::vec(0..6u8, 0..3),
        earlier in proptest::collection::vec(0..4u8, 0..4),
        concurrent in proptest::collection::vec(proptest::collection::vec(0..6u8, 2..5), 0..6),
        keys in proptest::collection::vec(0..6u8, 1..8),
        repeat in 1..8u64,
    ) {
        let node = node(repeat);
        let named = |ks: &[u8]| ks.iter().map(|k| key_name(*k)).collect::<Vec<Key>>();
        let mut counter = 0u64;
        for write_set in &history {
            commit_keys(&node, &named(write_set), &mut counter);
        }

        // Both readers buffer the same writes and make the same earlier
        // reads; then writers commit while the two are in flight. Keys 4 and
        // 5 have no version but theirs, so one cowritten with an earlier read
        // is a key without a valid version (§3.6).
        let by_gets = node.start_transaction();
        let by_get_all = node.start_transaction();
        for txid in [&by_gets, &by_get_all] {
            for k in &buffered {
                node.put(txid, key_name(*k), Bytes::from(format!("own-{k}"))).unwrap();
            }
            for k in &earlier {
                let _ = read_outcome(&node, txid, &key_name(*k));
            }
        }
        for write_set in &concurrent {
            commit_keys(&node, &named(write_set), &mut counter);
        }

        let keys = named(&keys);
        let mut values = Vec::new();
        let mut failed_on = None;
        for key in &keys {
            match read_outcome(&node, &by_gets, key) {
                Ok(found) => values.push(found.map(|(value, _)| value)),
                Err(key) => {
                    failed_on = Some(key);
                    break;
                }
            }
        }
        match node.get_all(&by_get_all, &keys) {
            Ok(all) => {
                prop_assert_eq!(&failed_on, &None, "get_all read what a get could not");
                prop_assert_eq!(all, values);
            }
            Err(aft_types::AftError::NoValidVersion { key, .. }) => {
                prop_assert_eq!(Some(key), failed_on, "after reading {:?}", values);
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error: {other}"))),
        }

        for k in 0..6u8 {
            commit_keys(&node, &[key_name(k), Key::new(format!("probe-{k}"))], &mut counter);
        }
        prop_assert_eq!(
            read_set_image(&node, &by_gets),
            read_set_image(&node, &by_get_all)
        );
    }

    /// The write-ordering protocol: every version readable by a fresh
    /// transaction belongs to a transaction whose commit record exists in
    /// storage.
    #[test]
    fn visible_data_always_has_a_durable_commit_record(
        writes in proptest::collection::vec((0..6u8, any::<bool>()), 1..40),
        repeat in 1..8u64,
    ) {
        let node = node(repeat);
        let mut committed_values = Vec::new();
        let mut aborted_values = Vec::new();
        let mut counter = 0u64;

        for (k, commit) in writes {
            let t = node.start_transaction();
            counter += 1;
            let value = value_for(counter);
            node.put(&t, key_name(k), value.clone()).unwrap();
            if commit {
                node.commit(&t).unwrap();
                committed_values.push(value);
            } else {
                node.abort(&t).unwrap();
                aborted_values.push(value);
            }
        }

        let reader = node.start_transaction();
        for k in 0..6u8 {
            if let Ok(Some(value)) = node.get(&reader, &key_name(k)) {
                prop_assert!(committed_values.contains(&value));
                prop_assert!(!aborted_values.contains(&value));
            }
        }
    }

    /// Local GC plus supersedence never loses the *latest* committed version
    /// of any key: a fresh transaction always reads the newest value, the
    /// one with the largest id (of two commits in one millisecond, the
    /// larger UUID's, whichever committed last).
    #[test]
    fn gc_never_hides_the_latest_version(
        writes in proptest::collection::vec(0..4u8, 1..60),
        gc_every in 1usize..8,
        repeat in 1..8u64,
    ) {
        let node = node(repeat);
        let mut latest: HashMap<Key, (TransactionId, Value)> = HashMap::new();
        let mut counter = 0u64;

        for (i, k) in writes.iter().enumerate() {
            let t = node.start_transaction();
            counter += 1;
            let value = value_for(counter);
            node.put(&t, key_name(*k), value.clone()).unwrap();
            let id = node.commit(&t).unwrap();
            let newest = latest.entry(key_name(*k)).or_insert((id, value.clone()));
            if id > newest.0 {
                *newest = (id, value);
            }
            if i % gc_every == 0 {
                node.run_local_gc();
            }
        }
        node.run_local_gc();

        let reader = node.start_transaction();
        for (key, (_, expected)) in &latest {
            let got = node.get(&reader, key).unwrap();
            prop_assert_eq!(got.as_ref(), Some(expected), "key {} lost its latest version", key);
        }
    }
}
