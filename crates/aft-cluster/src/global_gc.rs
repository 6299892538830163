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
//! 3. deletes them with one batched call: the agreed records' data keys
//!    first, their commit records after them, and then every agreed
//!    version. The store packs the batch by its own call limits, so a
//!    version costs nothing on memory and S3, fills the last 25-key call on
//!    DynamoDB (and bills another where it overflows it), and rides on
//!    Redis in the `DEL` of its slot group, which carries every collected
//!    key of the 256th of the transactions whose UUIDs end in its byte
//!    ([`aft_types::slot_tag`]);
//! 4. forgets, once storage has acknowledged, exactly what it deleted: the
//!    records leave the view in one batch, under one lock of it, and the
//!    versions are retired from it in another, so the later deletion of
//!    their records never sends them again.
//!
//! A round deletes at most [`GlobalGcConfig::max_deletions_per_round`]
//! transactions and versions together: transactions first, then versions,
//! each oldest first, so a round after a long partition sends a bounded
//! batch and the next round takes the rest. Like the rest of the
//! maintenance round, a GC round costs what changed since the last one: the
//! walks cover the superseded and debited sets.
//!
//! The paper collects whole transactions only (§5.2); deleting versions keeps
//! one cold key from pinning every dead version its transaction wrote.
//! §5.2.1's caveat applies to both: because running transactions' read sets
//! are not globally known, deleting old data can force a long-running
//! transaction into a retry (never into a fractured read). The `min_age` knob
//! and oldest-first deletion order mitigate this in practice.

use std::sync::Arc;

use aft_core::AftNode;
use aft_storage::io::{IoEngine, StorageRequest};
use aft_types::{AftResult, KeyVersion, TransactionRecord};

use crate::fault_manager::FaultManager;

/// Configuration of the global garbage collector.
#[derive(Debug, Clone, Copy)]
pub struct GlobalGcConfig {
    /// Maximum transactions and overwritten versions to delete per round,
    /// counted together: transactions first, then versions, each oldest
    /// first. It bounds storage delete traffic (the paper dedicates separate
    /// cores to deletion).
    pub max_deletions_per_round: usize,
}

impl Default for GlobalGcConfig {
    fn default() -> Self {
        GlobalGcConfig {
            max_deletions_per_round: 10_000,
        }
    }
}

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
}

/// The global garbage collector.
pub struct GlobalGc {
    config: GlobalGcConfig,
}

impl Default for GlobalGc {
    fn default() -> Self {
        Self::new(GlobalGcConfig::default())
    }
}

impl GlobalGc {
    /// Creates a global GC with the given configuration.
    pub fn new(config: GlobalGcConfig) -> Self {
        GlobalGc { config }
    }

    /// Runs one GC round against the fault manager's commit view.
    ///
    /// Selection (the view's superseded and debited sets plus the check that
    /// no node holds a candidate) runs first, in memory; then the round's
    /// keys go to storage as one batched delete, which each backend bills by
    /// its own API shape. Key versions come before commit records so that a
    /// delete that stops part-way never leaves data whose record — the only
    /// thing that names it — is gone. If the delete fails nothing is
    /// forgotten: the view keeps every candidate and the next round sends the
    /// same keys again (deletes are idempotent).
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
            if deletable.len() >= self.config.max_deletions_per_round {
                break;
            }
            outcome.candidates += 1;
            if node_views.iter().any(|view| view.is_committed(&record.id)) {
                outcome.awaiting_nodes += 1;
                continue;
            }
            deletable.push(record);
        }

        // A record's data keys are the versions the view still holds: the
        // rest were retired, so their data went in an earlier round.
        let view = metadata.view();
        let mut keys: Vec<String> = deletable
            .iter()
            .flat_map(|record| record.key_versions())
            .filter(|kv| view.holds(&kv.key, &kv.tid))
            .map(|kv| kv.storage_key())
            .collect();
        keys.extend(deletable.iter().map(|record| record.storage_key()));
        // What the transactions leave of the budget goes to the agreed
        // versions, oldest first.
        let versions: Vec<KeyVersion> = view
            .debited()
            .filter(|v| !node_views.iter().any(|node| node.holds(&v.key, &v.tid)))
            .take(self.config.max_deletions_per_round - deletable.len())
            .collect();
        keys.extend(versions.iter().map(KeyVersion::storage_key));
        drop(view);
        drop(node_views);
        if keys.is_empty() {
            return Ok(outcome);
        }
        outcome.storage_keys_deleted = keys.len();
        io.execute(StorageRequest::DeleteBatch(keys)).result?;

        metadata.remove_all(deletable.iter().map(|record| &record.id));
        outcome.deleted = deletable.len();
        outcome.versions = metadata.retire(&versions);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dissemination::broadcast_round;
    use aft_core::{LocalGcConfig, NodeConfig};
    use aft_storage::io::IoConfig;
    use aft_storage::{InMemoryStore, OpKind, SharedStorage, StorageEngine, StorageStats};
    use aft_types::clock::TickingClock;
    use aft_types::{AftError, Key, TransactionId, Value};
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

    /// A memory store that records the keys of every `delete_batch` it is
    /// sent and fails the first `failures` of them without deleting.
    struct DeleteSpy {
        inner: Arc<InMemoryStore>,
        failures: Mutex<usize>,
        batches: Mutex<Vec<Vec<String>>>,
    }

    impl DeleteSpy {
        fn failing_first(failures: usize) -> Arc<Self> {
            Arc::new(DeleteSpy {
                inner: InMemoryStore::shared(),
                failures: Mutex::new(failures),
                batches: Mutex::new(Vec::new()),
            })
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
            node.run_local_gc(&LocalGcConfig::aggressive());
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
            node.run_local_gc(&LocalGcConfig::aggressive());
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
            node.run_local_gc(&LocalGcConfig::aggressive());
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
        let gc = GlobalGc::new(GlobalGcConfig {
            max_deletions_per_round: 2,
        });

        for i in 0..6 {
            commit_on(&nodes[0], "hot", &format!("v{i}"));
        }
        broadcast_round(&nodes, Some(&fm));
        nodes[0].run_local_gc(&LocalGcConfig::aggressive());

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
        nodes[0].run_local_gc(&LocalGcConfig::aggressive());
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
    fn every_agreed_version_leaves_storage_in_its_round_on_every_row() {
        use aft_storage::{make_backend, BackendConfig, BackendKind};
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
                node.run_local_gc(&LocalGcConfig::aggressive());
            }

            let outcome = GlobalGc::default()
                .run_round(&fm, &nodes, &engine_over(&storage))
                .unwrap();
            assert_eq!((outcome.deleted, outcome.versions), (2, 40), "{kind}");
            for version in &overwritten {
                let key = version.storage_key();
                assert!(storage.get(&key).unwrap().is_none(), "{kind}: {key}");
            }
            // The new a's, the b's and the newest hot.
            assert_eq!(storage.list_prefix("data/").unwrap().len(), 81, "{kind}");
            assert!(fm.metadata().debited_oldest_first().is_empty(), "{kind}");
        }
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
            node.run_local_gc(&LocalGcConfig::aggressive());
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
        assert_eq!(
            nodes[1].run_local_gc(&LocalGcConfig::aggressive()).retired,
            1
        );
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
                node.run_local_gc(&LocalGcConfig::aggressive());
            }
            gc.run_round(&fm, nodes, &io).unwrap()
        };

        // T1 and T2 are in a checkpoint; the versions that overwrite their a
        // and c are in the tail behind it.
        let t1 = commit_writes(&original, &[("a", "a1"), ("b", "b1")]);
        let t2 = commit_writes(&original, &[("c", "c2"), ("d", "d2")]);
        original.checkpoint_now(false).unwrap();
        commit_on(&original, "a", "a3");
        commit_on(&original, "c", "c4");
        let overwritten = [KeyVersion::new("a", t1), KeyVersion::new("c", t2)];
        let outcome = sweep_and_collect(&[Arc::clone(&original)]);
        assert_eq!(outcome.versions, 2);
        for version in &overwritten {
            assert!(spy.inner.get(&version.storage_key()).unwrap().is_none());
        }

        // The replacement loads T1 and T2 whole, learns of a3 and c4 from the
        // tail, and retires the two versions on its first sweep.
        let replacement = node("replacement");
        assert_eq!(replacement.metadata().debited_oldest_first(), overwritten);
        assert_eq!(
            replacement.run_local_gc(&LocalGcConfig::default()).retired,
            2
        );
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
