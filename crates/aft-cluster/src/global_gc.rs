//! Global data garbage collection (§5.2).
//!
//! Local metadata GC (§5.1) lets each node forget superseded transactions and
//! retire overwritten versions, but no single node may delete *data* from
//! shared storage — a transaction running on another node might still read
//! it. The global GC, combined with the fault manager because it already
//! receives every node's commit stream, closes the loop. One round:
//!
//! 1. walks the superseded set of the fault manager's commit view —
//!    Algorithm 2, decided when each record was inserted — oldest first, and
//!    takes every record that no active node's metadata still holds;
//! 2. walks the view's debited versions — a key's version overwritten while
//!    its transaction is still the newest writer of another key — and takes
//!    every one that no active node's metadata still holds (a node that has
//!    not yet learned the newer version holds it as its newest);
//! 3. plans their deletes with the store's own packer
//!    ([`aft_storage::calls_of`] over
//!    [`StorageEngine::delete_call`](aft_storage::StorageEngine::delete_call))
//!    and sends them as one batched call: the agreed records' data keys
//!    first, their commit records after them, and then every agreed version.
//!    The store packs the batch by its own call limits: one call on memory,
//!    25-key `BatchWriteItem`s on DynamoDB, 1 000-key `DeleteObjects` on S3,
//!    and on Redis 16-key `DEL`s per slot group, the 256th of the
//!    transactions whose UUIDs end in one byte ([`aft_types::slot_tag`]).
//!    Every full call goes out. A partial call (a group's last) goes out
//!    only if it carries more than half its limit or a key an earlier round
//!    passed over. Otherwise its units — a transaction's data keys and
//!    record together, or one version — wait exactly one round, provided
//!    they hold at most half a call's keys. So a slot group owes at most
//!    half a call's keys, for at most one extra round, and a `DEL` that would
//!    carry a few keys carries the next round's as well. An unlimited call
//!    (the memory row's, and the default of a wrapper that does not forward
//!    the method) counts as full, so there nothing waits;
//! 4. forgets, once storage has acknowledged, exactly what it deleted: the
//!    records leave the view in one batch, under one lock of it, and the
//!    versions are retired from it in another, so the later deletion of
//!    their records never sends them again. What waits stays in the view,
//!    so the next round selects it again; the GC remembers only which units
//!    it passed over.
//!
//! A round deletes at most 10 000 transactions and versions together:
//! transactions first, then versions, each oldest first, so a round after a
//! long partition sends a bounded batch and the next round takes the rest.
//! Like the rest of the maintenance round, a GC round costs what changed
//! since the last one: the walks cover the superseded and debited sets.
//! Records and versions pass the same agreement check, no active node's
//! view holding them, so nodes keep no tombstones, and every row holds, a
//! round later, only the versions some node still holds.
//!
//! The paper collects whole transactions only (§5.2); deleting versions keeps
//! one cold key from pinning every dead version its transaction wrote.
//! §5.2.1's caveat applies to both: because running transactions' read sets
//! are not globally known, deleting old data can force a long-running
//! transaction into a retry (never into a fractured read). Oldest-first
//! deletion makes the oldest data, the least likely to be read, go first;
//! no grace period holds back a superseded transaction nobody holds.

use std::collections::HashSet;
use std::sync::Arc;

use aft_core::AftNode;
use aft_storage::io::{IoEngine, StorageRequest};
use aft_storage::{calls_of, MultiKeyCall};
use aft_types::{AftResult, KeyVersion, TransactionRecord};
use parking_lot::Mutex;

use crate::fault_manager::FaultManager;

/// Most transactions and overwritten versions to delete per round, counted
/// together: transactions first, then versions, each oldest first. It bounds
/// storage delete traffic (the paper dedicates separate cores to deletion).
const MAX_DELETIONS_PER_ROUND: usize = 10_000;

/// The outcome of one global GC round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlobalGcOutcome {
    /// Transactions the GC considered superseded this round.
    pub candidates: usize,
    /// Candidates skipped because some node still held them.
    pub awaiting_nodes: usize,
    /// Transactions whose data and commit record were deleted from storage.
    pub deleted: usize,
    /// Overwritten versions deleted from storage while their transactions'
    /// records live on.
    pub versions: usize,
    /// Individual storage keys deleted (data blobs, commit records and
    /// overwritten versions).
    pub storage_keys_deleted: usize,
    /// Storage keys agreed this round but passed over: their partial delete
    /// call was at most half full, so they wait for the next round.
    pub carried: usize,
    /// The partial delete calls those keys would have cost this round.
    pub carried_calls: usize,
}

/// The global garbage collector.
pub struct GlobalGc {
    /// [`MAX_DELETIONS_PER_ROUND`], or a test's smaller budget.
    budget: usize,
    /// The units the last round passed over, each by its last storage key (a
    /// transaction's record, or a version's data key): at most half a call's
    /// keys per slot group. The next round sends them whatever call they land
    /// in.
    passed_over: Mutex<HashSet<String>>,
}

impl Default for GlobalGc {
    fn default() -> Self {
        GlobalGc {
            budget: MAX_DELETIONS_PER_ROUND,
            passed_over: Mutex::new(HashSet::new()),
        }
    }
}

impl GlobalGc {
    /// A collector that deletes at most `budget` units per round.
    #[cfg(test)]
    fn with_budget(budget: usize) -> Self {
        GlobalGc {
            budget,
            ..GlobalGc::default()
        }
    }

    /// Runs one GC round against the fault manager's commit view.
    ///
    /// Selection (the view's superseded and debited sets plus the check that
    /// no node holds a candidate) runs first, in memory; then the round's
    /// keys, less those carried to the next round (step 3 of the module
    /// docs), go to storage as one batched delete, which each backend bills
    /// by its own API shape. Key versions come before commit records so that
    /// a delete that stops part-way never leaves data whose record — the
    /// only thing that names it — is gone. If the delete fails nothing is
    /// forgotten: the view keeps every candidate, the passed-over set is
    /// unchanged, and the next round sends the same keys again (deletes are
    /// idempotent).
    pub fn run_round(
        &self,
        fault_manager: &FaultManager,
        nodes: &[Arc<AftNode>],
        io: &IoEngine,
    ) -> AftResult<GlobalGcOutcome> {
        let mut outcome = GlobalGcOutcome::default();
        let metadata = fault_manager.metadata();

        // One view per node for the whole selection; all are dropped before
        // any storage call. A node that never learned a record — pruned
        // multicasts mean a superseded commit may never reach some peers
        // (§4.1) — holds none of it, and neither does one that collected it.
        let node_views: Vec<_> = nodes.iter().map(|node| node.metadata().view()).collect();
        // Oldest first (§5.2.1): the oldest superseded data is the least
        // likely to still be needed by a running transaction.
        let mut deletable: Vec<Arc<TransactionRecord>> = Vec::new();
        for record in metadata.superseded_oldest_first() {
            if deletable.len() >= self.budget {
                break;
            }
            outcome.candidates += 1;
            if node_views.iter().any(|view| view.is_committed(&record.id)) {
                outcome.awaiting_nodes += 1;
                continue;
            }
            deletable.push(record);
        }

        // A record's unit is its data keys, then its record key. Its data
        // keys are the versions the view still holds: the rest were retired,
        // so their data went in an earlier round.
        let view = metadata.view();
        let mut units: Vec<Vec<String>> = deletable
            .iter()
            .map(|record| {
                let mut keys: Vec<String> = record
                    .key_versions()
                    .filter(|kv| view.holds(&kv.key, &kv.tid))
                    .map(|kv| kv.storage_key())
                    .collect();
                keys.push(record.storage_key());
                keys
            })
            .collect();
        // What the transactions leave of the budget goes to the agreed
        // versions, oldest first, one unit each.
        let versions: Vec<KeyVersion> = view
            .debited()
            .filter(|v| !node_views.iter().any(|node| node.holds(&v.key, &v.tid)))
            .take(self.budget - deletable.len())
            .collect();
        units.extend(versions.iter().map(|v| vec![v.storage_key()]));
        drop(view);
        drop(node_views);

        let mut passed_over = self.passed_over.lock();
        let (waits, carried_calls) = carried(&io.storage().delete_call(), &units, &passed_over);
        // What goes: data keys first, then commit records, then versions.
        let (mut keys, mut records, mut version_keys) = (Vec::new(), Vec::new(), Vec::new());
        let (mut gone, mut sent_versions, mut waiting) = (Vec::new(), Vec::new(), HashSet::new());
        for (u, (mut unit, wait)) in units.into_iter().zip(waits).enumerate() {
            let last = unit.pop().expect("a unit has a key");
            if wait {
                outcome.carried += unit.len() + 1;
                waiting.insert(last);
            } else if let Some(record) = deletable.get(u) {
                keys.append(&mut unit);
                records.push(last);
                gone.push(&record.id);
            } else {
                version_keys.push(last);
                sent_versions.push(versions[u - deletable.len()].clone());
            }
        }
        keys.append(&mut records);
        keys.append(&mut version_keys);
        if !keys.is_empty() {
            outcome.storage_keys_deleted = keys.len();
            io.execute(StorageRequest::DeleteBatch(keys))?;
        }

        // Acknowledged: forget what went, remember what waits.
        *passed_over = waiting;
        drop(passed_over);
        outcome.carried_calls = carried_calls;
        outcome.deleted = gone.len();
        metadata.remove_all(gone);
        outcome.versions = metadata.retire(&sent_versions);
        Ok(outcome)
    }
}

/// Which of a round's `units` wait for the next round, and how many partial
/// calls of `call` they would have cost. The units are laid out as the store
/// would pack them — those passed over last round first, so they fill a slot
/// group's first calls — and cut by [`calls_of`]. A call waits if it carries
/// at most half its limit, no key of a unit in `passed_over`, and no more
/// than half its limit counted over every key of the units it touches (a
/// unit whose keys straddle the group's last full call waits whole). An
/// unlimited call counts as full.
fn carried(
    call: &MultiKeyCall,
    units: &[Vec<String>],
    passed_over: &HashSet<String>,
) -> (Vec<bool>, usize) {
    let mut waits = vec![false; units.len()];
    if call.limit == usize::MAX {
        return (waits, 0);
    }
    let was_passed = |u: usize| passed_over.contains(units[u].last().expect("a unit has a key"));
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by_key(|&u| !was_passed(u));
    let owner: Vec<usize> = order
        .iter()
        .flat_map(|&u| std::iter::repeat_n(u, units[u].len()))
        .collect();
    let keys = order
        .iter()
        .flat_map(|&u| units[u].iter().map(String::as_str));
    let mut calls = 0;
    for chunk in calls_of(call, keys) {
        if chunk.len() * 2 > call.limit {
            continue;
        }
        let mut touched: Vec<usize> = chunk.iter().map(|&i| owner[i]).collect();
        touched.sort_unstable();
        touched.dedup();
        let held: usize = touched.iter().map(|&u| units[u].len()).sum();
        if held * 2 <= call.limit && !touched.iter().any(|&u| was_passed(u)) {
            calls += 1;
            for u in touched {
                waits[u] = true;
            }
        }
    }
    (waits, calls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dissemination::broadcast_round;
    use aft_core::NodeConfig;
    use aft_storage::io::IoConfig;
    use aft_storage::{
        make_backend, BackendConfig, BackendKind, InMemoryStore, OpKind, SharedStorage,
        StorageEngine, StorageStats,
    };
    use aft_types::clock::TickingClock;
    use aft_types::{slot_tag, AftError, Key, TransactionId, Uuid, Value};
    use bytes::Bytes;
    use parking_lot::Mutex;

    fn nodes_over(storage: &SharedStorage, n: usize) -> Vec<Arc<AftNode>> {
        let clock = TickingClock::shared(1, 1);
        (0..n)
            .map(|i| {
                AftNode::with_clock(
                    NodeConfig::test()
                        .with_node_id(format!("node-{i}"))
                        .with_seed(i as u64),
                    storage.clone(),
                    clock.clone(),
                )
                .unwrap()
            })
            .collect()
    }

    fn cluster_of(n: usize) -> (Vec<Arc<AftNode>>, Arc<InMemoryStore>, SharedStorage) {
        let raw = InMemoryStore::shared();
        let storage: SharedStorage = raw.clone();
        (nodes_over(&storage, n), raw, storage)
    }

    /// A store that records the keys of every `delete_batch` it is sent and
    /// fails the first `failures` of them without deleting; it forwards the
    /// inner store's delete call, so the GC plans by the inner row's limits.
    struct DeleteSpy {
        inner: SharedStorage,
        failures: Mutex<usize>,
        batches: Mutex<Vec<Vec<String>>>,
    }

    impl DeleteSpy {
        fn over(inner: SharedStorage, failures: usize) -> Arc<Self> {
            Arc::new(DeleteSpy {
                inner,
                failures: Mutex::new(failures),
                batches: Mutex::new(Vec::new()),
            })
        }

        fn failing_first(failures: usize) -> Arc<Self> {
            Self::over(InMemoryStore::shared(), failures)
        }

        fn over_row(kind: BackendKind, failures: usize) -> Arc<Self> {
            Self::over(make_backend(BackendConfig::test(kind)), failures)
        }
    }

    impl StorageEngine for DeleteSpy {
        fn name(&self) -> &'static str {
            "delete-spy"
        }
        fn get(&self, key: &str) -> AftResult<Option<Value>> {
            self.inner.get(key)
        }
        fn put(&self, key: &str, value: Value) -> AftResult<()> {
            self.inner.put(key, value)
        }
        fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()> {
            self.inner.put_batch(items)
        }
        fn delete(&self, key: &str) -> AftResult<()> {
            self.inner.delete(key)
        }
        fn delete_batch(&self, keys: &[String]) -> AftResult<()> {
            self.batches.lock().push(keys.to_vec());
            let mut failures = self.failures.lock();
            if *failures > 0 {
                *failures -= 1;
                return Err(AftError::Storage("delete refused".to_owned()));
            }
            self.inner.delete_batch(keys)
        }
        fn delete_call(&self) -> MultiKeyCall {
            self.inner.delete_call()
        }
        fn list_prefix(&self, prefix: &str) -> AftResult<Vec<String>> {
            self.inner.list_prefix(prefix)
        }
        fn supports_batch_put(&self) -> bool {
            self.inner.supports_batch_put()
        }
        fn stats(&self) -> Arc<StorageStats> {
            self.inner.stats()
        }
    }

    /// Commits five versions of each of two keys on node 0 of a two-node
    /// cluster over `storage`, then `{c, d}` and a newer `c`, disseminates
    /// them and runs local GC everywhere: eight transactions and one
    /// overwritten version (`{c, d}`'s `c`) are ready for the global GC.
    fn eight_collectable(storage: &SharedStorage) -> (Vec<Arc<AftNode>>, FaultManager) {
        let nodes = nodes_over(storage, 2);
        let fm = FaultManager::new();
        for i in 0..5 {
            commit_on(&nodes[0], "a", &format!("a{i}"));
            commit_on(&nodes[0], "b", &format!("b{i}"));
        }
        commit_writes(&nodes[0], &[("c", "c0"), ("d", "d0")]);
        commit_on(&nodes[0], "c", "c1");
        broadcast_round(&nodes, Some(&fm));
        for node in &nodes {
            node.run_local_gc();
        }
        (nodes, fm)
    }

    fn engine_over(storage: &SharedStorage) -> IoEngine {
        IoEngine::new(storage.clone(), IoConfig::pipelined())
    }

    fn commit_on(node: &Arc<AftNode>, key: &str, value: &str) -> TransactionId {
        commit_writes(node, &[(key, value)])
    }

    fn commit_writes(node: &Arc<AftNode>, writes: &[(&str, &str)]) -> TransactionId {
        let t = node.start_transaction();
        for (key, value) in writes {
            node.put(&t, Key::new(*key), Bytes::copy_from_slice(value.as_bytes()))
                .unwrap();
        }
        node.commit(&t).unwrap()
    }

    #[test]
    fn superseded_data_is_deleted_once_all_nodes_agree() {
        let (nodes, raw, storage) = cluster_of(2);
        let io = engine_over(&storage);
        let fm = FaultManager::new();
        let gc = GlobalGc::default();

        // Node 0 writes three versions of the same key.
        let old = commit_on(&nodes[0], "hot", "v1");
        commit_on(&nodes[0], "hot", "v2");
        let newest = commit_on(&nodes[0], "hot", "v3");

        // Broadcast so peers and the fault manager know about the commits
        // (unpruned stream goes to the fault manager).
        broadcast_round(&nodes, Some(&fm));
        assert!(fm.metadata().is_committed(&old));

        // Before local GC on all nodes, the global GC must not delete.
        let outcome = gc.run_round(&fm, &nodes, &io).unwrap();
        assert_eq!(outcome.deleted, 0);
        assert!(outcome.awaiting_nodes >= 1);
        assert_eq!(raw.list_prefix("data/hot/").unwrap().len(), 3);

        // After every node locally collects, the data can be deleted.
        for node in &nodes {
            node.run_local_gc();
        }
        let outcome = gc.run_round(&fm, &nodes, &io).unwrap();
        assert_eq!(outcome.deleted, 2, "two superseded versions removed");
        assert!(
            outcome.storage_keys_deleted >= 4,
            "2 data blobs + 2 commit records"
        );
        assert_eq!(raw.list_prefix("data/hot/").unwrap().len(), 1);
        assert_eq!(raw.list_prefix("commit/").unwrap().len(), 1);

        // The newest version survives and remains readable everywhere.
        for node in &nodes {
            let t = node.start_transaction();
            assert_eq!(
                node.get(&t, &Key::new("hot")).unwrap().unwrap(),
                Bytes::from_static(b"v3")
            );
        }
        assert!(fm.metadata().is_committed(&newest));

        // The view forgot what was deleted, so a second round does nothing.
        let outcome = gc.run_round(&fm, &nodes, &io).unwrap();
        assert_eq!(outcome.deleted, 0);
    }

    #[test]
    fn non_superseded_transactions_are_never_candidates() {
        let (nodes, raw, storage) = cluster_of(2);
        let io = engine_over(&storage);
        let fm = FaultManager::new();
        let gc = GlobalGc::default();

        commit_on(&nodes[0], "a", "only-version");
        broadcast_round(&nodes, Some(&fm));
        for node in &nodes {
            node.run_local_gc();
        }
        let outcome = gc.run_round(&fm, &nodes, &io).unwrap();
        assert_eq!(outcome.candidates, 0);
        assert_eq!(outcome.deleted, 0);
        assert_eq!(raw.list_prefix("data/").unwrap().len(), 1);
    }

    #[test]
    fn deletion_budget_is_respected() {
        let (nodes, _raw, storage) = cluster_of(1);
        let io = engine_over(&storage);
        let fm = FaultManager::new();
        let gc = GlobalGc::with_budget(2);

        for i in 0..6 {
            commit_on(&nodes[0], "hot", &format!("v{i}"));
        }
        broadcast_round(&nodes, Some(&fm));
        nodes[0].run_local_gc();

        let outcome = gc.run_round(&fm, &nodes, &io).unwrap();
        assert_eq!(outcome.deleted, 2);
        let outcome = gc.run_round(&fm, &nodes, &io).unwrap();
        assert_eq!(outcome.deleted, 2);
        let outcome = gc.run_round(&fm, &nodes, &io).unwrap();
        assert_eq!(outcome.deleted, 1, "five superseded versions in total");

        // Versions count against the same budget: one more superseded
        // transaction goes first, then the oldest of three overwritten
        // versions, and the next round takes the other two.
        let mut overwritten = Vec::new();
        for i in 0..3 {
            let (x, y) = (format!("x{i}"), format!("y{i}"));
            let t = commit_writes(&nodes[0], &[(&x, "old"), (&y, "y")]);
            commit_on(&nodes[0], &x, "new");
            overwritten.push(KeyVersion::new(x, t));
        }
        commit_on(&nodes[0], "hot", "v6");
        broadcast_round(&nodes, Some(&fm));
        nodes[0].run_local_gc();
        assert_eq!(fm.metadata().debited_oldest_first(), overwritten);

        let outcome = gc.run_round(&fm, &nodes, &io).unwrap();
        assert_eq!((outcome.deleted, outcome.versions), (1, 1));
        assert_eq!(fm.metadata().debited_oldest_first(), overwritten[1..]);
        let outcome = gc.run_round(&fm, &nodes, &io).unwrap();
        assert_eq!((outcome.deleted, outcome.versions), (0, 2));
        assert_eq!(
            gc.run_round(&fm, &nodes, &io).unwrap(),
            GlobalGcOutcome::default()
        );
    }

    #[test]
    fn a_round_is_one_batched_delete() {
        let raw = InMemoryStore::shared();
        let storage: SharedStorage = raw.clone();
        let (nodes, fm) = eight_collectable(&storage);
        let io = engine_over(&storage);

        let before = raw.stats().calls(OpKind::BatchDelete);
        let outcome = GlobalGc::default().run_round(&fm, &nodes, &io).unwrap();
        assert_eq!((outcome.deleted, outcome.versions), (8, 1));
        assert_eq!(
            outcome.storage_keys_deleted,
            8 + 8 + 1,
            "one data key and one commit record per transaction, and the version"
        );
        assert_eq!(raw.stats().calls(OpKind::BatchDelete) - before, 1);
        assert_eq!(raw.stats().calls(OpKind::Delete), 0);
        // a, b, d and the newest c; a, b, {c, d} and c.
        assert_eq!(raw.list_prefix("data/").unwrap().len(), 4);
        assert_eq!(raw.list_prefix("commit/").unwrap().len(), 4);

        // Nothing left to collect: the next round makes no storage call.
        let outcome = GlobalGc::default().run_round(&fm, &nodes, &io).unwrap();
        assert_eq!(outcome, GlobalGcOutcome::default());
        assert_eq!(raw.stats().calls(OpKind::BatchDelete) - before, 1);
    }

    #[test]
    fn every_agreed_version_leaves_storage_by_the_next_round_on_every_row() {
        for kind in [BackendKind::Memory]
            .into_iter()
            .chain(BackendKind::EVALUATED)
        {
            let storage = make_backend(BackendConfig::test(kind));
            let nodes = nodes_over(&storage, 2);
            let fm = FaultManager::new();
            // Forty versions overwritten while their transactions still
            // write the newest b: more than one DynamoDB call's worth, and
            // spread over many Redis slot groups. Plus two superseded hot
            // transactions.
            let mut overwritten = Vec::new();
            for i in 0..40 {
                let (a, b) = (format!("a{i}"), format!("b{i}"));
                let t = commit_writes(&nodes[0], &[(&a, "old"), (&b, "b")]);
                commit_on(&nodes[1], &a, "new");
                overwritten.push(KeyVersion::new(a, t));
            }
            for i in 0..3 {
                commit_on(&nodes[0], "hot", &format!("h{i}"));
            }
            broadcast_round(&nodes, Some(&fm));
            for node in &nodes {
                node.run_local_gc();
            }

            let (gc, io) = (GlobalGc::default(), engine_over(&storage));
            let first = gc.run_round(&fm, &nodes, &io).unwrap();
            let left = |storage: &SharedStorage| {
                overwritten
                    .iter()
                    .filter(|v| storage.get(&v.storage_key()).unwrap().is_some())
                    .count()
            };
            if kind == BackendKind::Memory {
                // An unlimited call is full: every version goes in its round.
                assert_eq!(first.carried, 0);
                assert_eq!((first.deleted, first.versions), (2, 40));
                assert_eq!(left(&storage), 0);
            } else {
                // What waits is what a partial call at most half full held.
                assert_eq!(left(&storage), first.carried - 2 * (2 - first.deleted));
                let half = storage.delete_call().limit / 2;
                assert!(first.carried <= first.carried_calls * half, "{kind}");
                let second = gc.run_round(&fm, &nodes, &io).unwrap();
                assert_eq!(second.carried, 0, "{kind}: nothing waits twice");
                assert_eq!(
                    (
                        first.deleted + second.deleted,
                        first.versions + second.versions
                    ),
                    (2, 40),
                    "{kind}"
                );
                assert_eq!(left(&storage), 0, "{kind}");
            }
            // The new a's, the b's and the newest hot.
            assert_eq!(storage.list_prefix("data/").unwrap().len(), 81, "{kind}");
            assert!(fm.metadata().debited_oldest_first().is_empty(), "{kind}");
        }
    }

    /// Puts into `fm`'s view, and into `storage`, `units` transactions of
    /// slot group `group` (the UUID's last byte) of `size` keys each: `size -
    /// 1` data keys and the record. A newer transaction of group `ff`
    /// overwrites every key they wrote, so all of them are superseded and,
    /// with no node to hold them, agreed. Returns each unit's keys, data
    /// first.
    fn superseded_group(
        fm: &FaultManager,
        storage: &SharedStorage,
        group: u8,
        units: usize,
        size: usize,
    ) -> Vec<Vec<String>> {
        let next = || fm.metadata().len() as u64 + 1;
        let id = |serial: u64, group: u8| {
            TransactionId::new(
                serial,
                Uuid::from_u128(u128::from(serial) << 8 | u128::from(group)),
            )
        };
        let mut written = Vec::new();
        let mut keys = Vec::new();
        for _ in 0..units {
            let serial = next();
            let wrote: Vec<Key> = (1..size)
                .map(|j| Key::new(format!("g{group:02x}/t{serial}/k{j}")))
                .collect();
            let record = TransactionRecord::new(id(serial, group), wrote.iter().cloned());
            let mut unit: Vec<String> = record.key_versions().map(|kv| kv.storage_key()).collect();
            unit.push(record.storage_key());
            for key in &unit {
                storage.put(key, Value::from_static(b"v")).unwrap();
            }
            fm.metadata().insert(Arc::new(record));
            written.extend(wrote);
            keys.push(unit);
        }
        let newer = TransactionRecord::new(id(next(), 0xff), written);
        fm.metadata().insert(Arc::new(newer));
        for unit in &keys {
            assert!(unit
                .iter()
                .all(|key| slot_tag(key) == format!("{group:02x}")));
        }
        keys
    }

    /// How many of `unit`'s keys `storage` still holds.
    fn held(storage: &SharedStorage, unit: &[String]) -> usize {
        unit.iter()
            .filter(|key| storage.get(key).unwrap().is_some())
            .count()
    }

    #[test]
    fn a_full_call_or_one_more_than_half_full_goes_out_in_its_round() {
        // A full 16-key DEL and a full 25-key BatchWriteItem; nine keys of a
        // DEL and thirteen of a BatchWriteItem.
        for (kind, units, size) in [
            (BackendKind::Redis, 4, 4),
            (BackendKind::DynamoDb, 5, 5),
            (BackendKind::Redis, 3, 3),
            (BackendKind::DynamoDb, 1, 13),
        ] {
            let spy = DeleteSpy::over_row(kind, 0);
            let storage: SharedStorage = spy.clone();
            let fm = FaultManager::new();
            let keys = superseded_group(&fm, &storage, 0x01, units, size);
            let outcome = GlobalGc::default()
                .run_round(&fm, &[], &engine_over(&storage))
                .unwrap();
            assert_eq!((outcome.deleted, outcome.carried), (units, 0), "{kind}");
            assert_eq!(outcome.storage_keys_deleted, units * size, "{kind}");
            assert!(keys.iter().all(|unit| held(&storage, unit) == 0), "{kind}");
            assert_eq!(spy.inner.stats().calls(OpKind::BatchDelete), 1, "{kind}");
        }
    }

    #[test]
    fn a_partial_call_at_most_half_full_waits_exactly_one_round() {
        // Eight keys of a 16-key DEL; twelve of a 25-key BatchWriteItem.
        for (kind, units, size) in [(BackendKind::Redis, 2, 4), (BackendKind::DynamoDb, 3, 4)] {
            let spy = DeleteSpy::over_row(kind, 0);
            let storage: SharedStorage = spy.clone();
            let fm = FaultManager::new();
            let keys = superseded_group(&fm, &storage, 0x03, units, size);
            let (gc, io) = (GlobalGc::default(), engine_over(&storage));

            let first = gc.run_round(&fm, &[], &io).unwrap();
            assert_eq!((first.deleted, first.carried), (0, units * size), "{kind}");
            assert_eq!((first.storage_keys_deleted, first.carried_calls), (0, 1));
            assert!(spy.batches.lock().is_empty(), "{kind}: no call at all");
            assert!(keys.iter().all(|unit| held(&storage, unit) == unit.len()));
            assert_eq!(fm.metadata().superseded_oldest_first().len(), units);

            // Still at most half full, but it carries what was passed over.
            let second = gc.run_round(&fm, &[], &io).unwrap();
            assert_eq!((second.deleted, second.carried), (units, 0), "{kind}");
            assert!(keys.iter().all(|unit| held(&storage, unit) == 0), "{kind}");
            assert_eq!(spy.batches.lock().len(), 1, "{kind}");
            assert!(fm.metadata().superseded_oldest_first().is_empty());
        }
    }

    #[test]
    fn a_transaction_is_never_split_between_sent_and_carried() {
        // Every shape of group up to two DELs: each transaction's keys are all
        // sent or all carried, what is carried fits half a call, and the next
        // round sends it.
        for units in 1..=6 {
            for size in 2..=9 {
                let spy = DeleteSpy::over_row(BackendKind::Redis, 0);
                let storage: SharedStorage = spy.clone();
                let fm = FaultManager::new();
                let keys = superseded_group(&fm, &storage, 0x04, units, size);
                let (gc, io) = (GlobalGc::default(), engine_over(&storage));
                let shape = format!("{units} transactions of {size} keys");

                let first = gc.run_round(&fm, &[], &io).unwrap();
                let sent: Vec<String> = spy.batches.lock().concat();
                for unit in &keys {
                    let gone = unit.iter().filter(|key| sent.contains(key)).count();
                    assert!(gone == 0 || gone == unit.len(), "{shape}: split");
                    assert_eq!(held(&storage, unit), unit.len() - gone, "{shape}");
                    // Data first: the record is the unit's last key to go.
                    if gone > 0 {
                        let at = |key: &String| sent.iter().position(|k| k == key);
                        let record = at(unit.last().unwrap());
                        assert!(unit.iter().all(|key| at(key) <= record), "{shape}");
                    }
                }
                assert!(
                    first.carried * 2 <= 16,
                    "{shape}: carried {}",
                    first.carried
                );
                assert_eq!(first.carried + sent.len(), units * size, "{shape}");

                let second = gc.run_round(&fm, &[], &io).unwrap();
                assert_eq!(first.deleted + second.deleted, units, "{shape}");
                assert!(keys.iter().all(|unit| held(&storage, unit) == 0), "{shape}");
            }
        }
    }

    #[test]
    fn a_failed_delete_forgets_nothing_and_keeps_the_passed_over_set() {
        let spy = DeleteSpy::over_row(BackendKind::Redis, 1);
        let storage: SharedStorage = spy.clone();
        let fm = FaultManager::new();
        let keys = superseded_group(&fm, &storage, 0x05, 2, 3);
        let (gc, io) = (GlobalGc::default(), engine_over(&storage));

        assert_eq!(gc.run_round(&fm, &[], &io).unwrap().carried, 6);
        // The round that must send them fails: the view and the passed-over
        // set are as they were, so the retry sends them and does not wait.
        assert!(gc.run_round(&fm, &[], &io).is_err());
        assert_eq!(fm.metadata().superseded_oldest_first().len(), 2);
        assert!(keys.iter().all(|unit| held(&storage, unit) == unit.len()));
        let retry = gc.run_round(&fm, &[], &io).unwrap();
        assert_eq!((retry.deleted, retry.carried), (2, 0));
        assert!(keys.iter().all(|unit| held(&storage, unit) == 0));
        let batches = spy.batches.lock();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0], batches[1], "the retry sends the same keys");
    }

    #[test]
    fn the_memory_row_never_carries() {
        let storage = make_backend(BackendConfig::test(BackendKind::Memory));
        let fm = FaultManager::new();
        let keys: Vec<Vec<String>> = (0..8)
            .flat_map(|group| superseded_group(&fm, &storage, group, 1, 2))
            .collect();
        let outcome = GlobalGc::default()
            .run_round(&fm, &[], &engine_over(&storage))
            .unwrap();
        assert_eq!((outcome.deleted, outcome.carried), (8, 0));
        assert_eq!(outcome.carried_calls, 0);
        assert!(keys.iter().all(|unit| held(&storage, unit) == 0));
    }

    #[test]
    fn commit_records_are_deleted_after_every_data_key() {
        let spy = DeleteSpy::failing_first(0);
        let storage: SharedStorage = spy.clone();
        let (nodes, fm) = eight_collectable(&storage);

        GlobalGc::default()
            .run_round(&fm, &nodes, &engine_over(&storage))
            .unwrap();
        let batches = spy.batches.lock();
        assert_eq!(batches.len(), 1);
        let (data, rest) = batches[0].split_at(8);
        assert!(data.iter().all(|k| k.starts_with("data/")));
        let (records, versions) = rest.split_at(8);
        assert!(records.iter().all(|k| k.starts_with("commit/")));
        // The version's record lives on, so it may come last.
        assert_eq!(versions.len(), 1);
        assert!(versions[0].starts_with("data/c/"));
    }

    #[test]
    fn a_failed_delete_forgets_nothing_and_the_next_round_retries() {
        let spy = DeleteSpy::failing_first(1);
        let storage: SharedStorage = spy.clone();
        let (nodes, fm) = eight_collectable(&storage);
        let io = engine_over(&storage);
        let gc = GlobalGc::default();
        let debited = fm.metadata().debited_oldest_first();
        assert_eq!(debited.len(), 1);

        assert!(gc.run_round(&fm, &nodes, &io).is_err());
        assert_eq!(fm.metadata().len(), 12, "the view keeps every candidate");
        assert_eq!(fm.metadata().superseded_oldest_first().len(), 8);
        assert_eq!(
            fm.metadata().debited_oldest_first(),
            debited,
            "and the version"
        );
        assert_eq!(spy.inner.list_prefix("commit/").unwrap().len(), 12);
        assert_eq!(spy.inner.list_prefix("data/").unwrap().len(), 13);

        let outcome = gc.run_round(&fm, &nodes, &io).unwrap();
        assert_eq!((outcome.deleted, outcome.versions), (8, 1));
        assert_eq!(spy.inner.list_prefix("data/").unwrap().len(), 4);
        assert_eq!(spy.inner.list_prefix("commit/").unwrap().len(), 4);
        assert_eq!(fm.metadata().len(), 4);
        assert!(fm.metadata().debited_oldest_first().is_empty());
        assert!(!fm.metadata().view().holds(&debited[0].key, &debited[0].tid));
        assert_eq!(
            gc.run_round(&fm, &nodes, &io).unwrap(),
            GlobalGcOutcome::default()
        );
        let batches = spy.batches.lock();
        assert_eq!(batches.len(), 2, "the third round had nothing to send");
        assert_eq!(batches[0], batches[1], "the retry sends the same keys");
    }

    #[test]
    fn a_node_that_has_not_learned_the_newer_version_blocks_its_delete() {
        let (nodes, raw, storage) = cluster_of(2);
        let io = engine_over(&storage);
        let fm = FaultManager::new();
        let gc = GlobalGc::default();
        let t1 = commit_writes(&nodes[0], &[("a", "a1"), ("b", "b1")]);
        broadcast_round(&nodes, Some(&fm));

        // T2 overwrites a; only node 0 and the fault manager learn of it.
        commit_on(&nodes[0], "a", "a2");
        let late = fm.drain_node(&nodes[0]);
        for node in &nodes {
            node.run_local_gc();
        }
        let a1 = KeyVersion::new("a", t1);
        assert!(!nodes[0].metadata().view().holds(&a1.key, &t1));
        assert!(
            nodes[1].metadata().view().holds(&a1.key, &t1),
            "its newest a"
        );

        let outcome = gc.run_round(&fm, &nodes, &io).unwrap();
        assert_eq!(outcome, GlobalGcOutcome::default());
        assert!(raw.get(&a1.storage_key()).unwrap().is_some());
        assert_eq!(
            fm.metadata().debited_oldest_first(),
            std::slice::from_ref(&a1)
        );

        // Once node 1 learns T2 and sweeps, the next round takes it.
        nodes[1].receive_peer_commits(&late);
        assert_eq!(nodes[1].run_local_gc().retired, 1);
        let outcome = gc.run_round(&fm, &nodes, &io).unwrap();
        assert_eq!((outcome.deleted, outcome.versions), (0, 1));
        assert!(raw.get(&a1.storage_key()).unwrap().is_none());
        assert_eq!(raw.list_prefix("data/a/").unwrap().len(), 1);
    }

    #[test]
    fn a_replacement_retires_what_was_deleted_before_it_bootstrapped() {
        let spy = DeleteSpy::failing_first(0);
        let storage: SharedStorage = spy.clone();
        let clock = TickingClock::shared(1, 1);
        let node = |id: &str| {
            AftNode::with_clock(
                NodeConfig::test().with_node_id(id),
                storage.clone(),
                clock.clone(),
            )
            .unwrap()
        };
        let original = node("original");
        let fm = FaultManager::new();
        let gc = GlobalGc::default();
        let io = engine_over(&storage);
        let sweep_and_collect = |nodes: &[Arc<AftNode>]| {
            broadcast_round(nodes, Some(&fm));
            for node in nodes {
                node.run_local_gc();
            }
            gc.run_round(&fm, nodes, &io).unwrap()
        };

        // T1 and T2 commit, then the versions that overwrite their a and c.
        let t1 = commit_writes(&original, &[("a", "a1"), ("b", "b1")]);
        let t2 = commit_writes(&original, &[("c", "c2"), ("d", "d2")]);
        commit_on(&original, "a", "a3");
        commit_on(&original, "c", "c4");
        let overwritten = [KeyVersion::new("a", t1), KeyVersion::new("c", t2)];
        let outcome = sweep_and_collect(&[Arc::clone(&original)]);
        assert_eq!(outcome.versions, 2);
        for version in &overwritten {
            assert!(spy.inner.get(&version.storage_key()).unwrap().is_none());
        }

        // The replacement loads T1 and T2 whole from the commit set, learns
        // of a3 and c4 there too, and retires the two versions on its first
        // sweep.
        let replacement = node("replacement");
        assert_eq!(replacement.metadata().debited_oldest_first(), overwritten);
        assert_eq!(replacement.run_local_gc().retired, 2);
        let t = replacement.start_transaction();
        assert_eq!(replacement.get(&t, &Key::new("a")).unwrap().unwrap(), "a3");
        replacement.commit(&t).unwrap();

        // The fault manager never sends them again — not even with T1's own
        // record once b is overwritten too.
        let sent = spy.batches.lock().len();
        commit_on(&original, "b", "b5");
        let outcome = sweep_and_collect(&[Arc::clone(&original), replacement]);
        assert_eq!(outcome.deleted, 2, "T1 and the reader's record");
        let batches = spy.batches.lock();
        let later: Vec<&String> = batches[sent..].iter().flatten().collect();
        assert!(later.contains(&&KeyVersion::new("b", t1).storage_key()));
        for version in &overwritten {
            assert!(!later.contains(&&version.storage_key()), "{version:?}");
        }
    }

    #[test]
    fn candidates_count_the_superseded_set_not_the_view() {
        let (nodes, _raw, storage) = cluster_of(1);
        let io = engine_over(&storage);
        let fm = FaultManager::new();
        // 200 keys written once stay live; one key written four times leaves
        // three superseded versions.
        for i in 0..200 {
            commit_on(&nodes[0], &format!("live/{i}"), "v");
        }
        for i in 0..4 {
            commit_on(&nodes[0], "hot", &format!("v{i}"));
        }
        broadcast_round(&nodes, Some(&fm));
        assert_eq!(fm.metadata().len(), 204);

        // Not yet collected locally: all three wait for the node.
        let outcome = GlobalGc::default().run_round(&fm, &nodes, &io).unwrap();
        assert_eq!(outcome.candidates, 3);
        assert_eq!(outcome.awaiting_nodes, 3);
        assert_eq!(outcome.deleted, 0);
    }
}
