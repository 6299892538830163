//! Global data garbage collection (§5.2).
//!
//! Local metadata GC (§5.1) lets each node forget superseded transactions,
//! but no single node may delete a transaction's *data* from shared storage —
//! a transaction running on another node might still read it. The global GC,
//! combined with the fault manager because it already receives every node's
//! commit stream, closes the loop:
//!
//! 1. It walks the superseded set of the fault manager's commit view —
//!    Algorithm 2, decided when each record was inserted — oldest first.
//! 2. It asks every node whether it has locally deleted those transactions'
//!    metadata.
//! 3. Only when *all* nodes agree does it delete the transaction's key
//!    versions and its commit record from storage, and tell the nodes to
//!    forget their tombstones. The whole round is one batched delete: every
//!    agreed transaction's key versions first, all their commit records last.
//!
//! §5.2.1's caveat applies: because running transactions' read sets are not
//! globally known, deleting old versions can force a long-running transaction
//! into a retry (never into a fractured read). The `min_age` knob and
//! oldest-first deletion order mitigate this in practice.

use std::sync::Arc;

use aft_core::AftNode;
use aft_storage::io::{IoEngine, StorageRequest};
use aft_types::{AftResult, TransactionId, TransactionRecord};

use crate::fault_manager::FaultManager;

/// Configuration of the global garbage collector.
#[derive(Debug, Clone, Copy)]
pub struct GlobalGcConfig {
    /// Maximum transactions to delete per round (bounds storage delete
    /// traffic; the paper dedicates separate cores to deletion).
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
    /// Candidates skipped because some node had not yet deleted them locally.
    pub awaiting_nodes: usize,
    /// Transactions whose data and commit record were deleted from storage.
    pub deleted: usize,
    /// Individual storage keys deleted (data blobs plus commit records).
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
    /// Candidate selection (the view's superseded set plus the
    /// all-nodes-agree check) runs first, in memory; then the round's keys go
    /// to storage as one batched delete, which each backend bills by its own
    /// API shape. Key versions come before commit records so that a delete
    /// that stops part-way never leaves data whose record — the only thing
    /// that names it — is gone. If the delete fails nothing is forgotten:
    /// tombstones and the view keep every candidate and the next round sends
    /// the same keys again (deletes are idempotent).
    pub fn run_round(
        &self,
        fault_manager: &FaultManager,
        nodes: &[Arc<AftNode>],
        io: &IoEngine,
    ) -> AftResult<GlobalGcOutcome> {
        let mut outcome = GlobalGcOutcome::default();
        let metadata = fault_manager.metadata();

        // Oldest first (§5.2.1): the oldest superseded data is the least
        // likely to still be needed by a running transaction.
        let mut deletable: Vec<Arc<TransactionRecord>> = Vec::new();
        // One view per node for the whole candidate loop; all are dropped
        // before any storage call.
        let node_views: Vec<_> = nodes.iter().map(|node| node.metadata().view()).collect();
        for record in metadata.superseded_oldest_first() {
            if deletable.len() >= self.config.max_deletions_per_round {
                break;
            }
            outcome.candidates += 1;

            // Every node must have dropped the transaction from its metadata
            // cache: either it garbage collected it locally (and holds a
            // tombstone) or it never learned of it in the first place —
            // pruned multicasts mean a superseded commit may never reach some
            // peers (§4.1), and such peers can never serve reads from it.
            let all_deleted = nodes.iter().zip(&node_views).all(|(node, view)| {
                node.has_locally_deleted(&record.id) || !view.is_committed(&record.id)
            });
            if !all_deleted {
                outcome.awaiting_nodes += 1;
                continue;
            }
            deletable.push(record);
        }
        drop(node_views);
        if deletable.is_empty() {
            return Ok(outcome);
        }

        let mut keys: Vec<String> = deletable
            .iter()
            .flat_map(|record| record.key_versions().map(|kv| kv.storage_key()))
            .collect();
        keys.extend(deletable.iter().map(|record| record.storage_key()));
        outcome.storage_keys_deleted = keys.len();
        io.execute(StorageRequest::DeleteBatch(keys)).result?;

        let ids: Vec<TransactionId> = deletable.iter().map(|record| record.id).collect();
        for id in &ids {
            metadata.remove(id);
        }
        for node in nodes {
            node.forget_deleted(&ids);
        }
        outcome.deleted = ids.len();
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
    use aft_types::{AftError, Key, Value};
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
    /// cluster over `storage`, disseminates them and runs local GC
    /// everywhere: eight transactions are ready for the global GC.
    fn eight_collectable(storage: &SharedStorage) -> (Vec<Arc<AftNode>>, FaultManager) {
        let nodes = nodes_over(storage, 2);
        let fm = FaultManager::new();
        for i in 0..5 {
            commit_on(&nodes[0], "a", &format!("a{i}"));
            commit_on(&nodes[0], "b", &format!("b{i}"));
        }
        broadcast_round(&nodes, Some(&fm));
        for node in &nodes {
            node.run_local_gc(&LocalGcConfig::aggressive());
        }
        (nodes, fm)
    }

    fn engine_over(storage: &SharedStorage) -> IoEngine {
        IoEngine::new(storage.clone(), IoConfig::pipelined())
    }

    fn commit_on(node: &Arc<AftNode>, key: &str, value: &str) -> aft_types::TransactionId {
        let t = node.start_transaction();
        node.put(&t, Key::new(key), Bytes::copy_from_slice(value.as_bytes()))
            .unwrap();
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

        // Tombstones were cleared, so a second round does nothing.
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
    }

    #[test]
    fn a_round_is_one_batched_delete() {
        let raw = InMemoryStore::shared();
        let storage: SharedStorage = raw.clone();
        let (nodes, fm) = eight_collectable(&storage);
        let io = engine_over(&storage);

        let before = raw.stats().calls(OpKind::BatchDelete);
        let outcome = GlobalGc::default().run_round(&fm, &nodes, &io).unwrap();
        assert_eq!(outcome.deleted, 8);
        assert_eq!(
            outcome.storage_keys_deleted,
            8 + 8,
            "one data key and one commit record per transaction"
        );
        assert_eq!(raw.stats().calls(OpKind::BatchDelete) - before, 1);
        assert_eq!(raw.stats().calls(OpKind::Delete), 0);
        assert_eq!(raw.list_prefix("data/").unwrap().len(), 2);
        assert_eq!(raw.list_prefix("commit/").unwrap().len(), 2);

        // Nothing left to collect: the next round makes no storage call.
        let outcome = GlobalGc::default().run_round(&fm, &nodes, &io).unwrap();
        assert_eq!(outcome, GlobalGcOutcome::default());
        assert_eq!(raw.stats().calls(OpKind::BatchDelete) - before, 1);
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
        let (data, records) = batches[0].split_at(8);
        assert!(data.iter().all(|k| k.starts_with("data/")));
        assert_eq!(records.len(), 8);
        assert!(records.iter().all(|k| k.starts_with("commit/")));
    }

    #[test]
    fn a_failed_delete_forgets_nothing_and_the_next_round_retries() {
        let spy = DeleteSpy::failing_first(1);
        let storage: SharedStorage = spy.clone();
        let (nodes, fm) = eight_collectable(&storage);
        let io = engine_over(&storage);
        let gc = GlobalGc::default();
        let tombstones: Vec<_> = nodes.iter().map(|n| n.locally_deleted()).collect();
        // The committing node holds all eight; its peer never learned of the
        // superseded commits (pruned multicast) and holds none.
        assert_eq!(tombstones[0].len(), 8);

        assert!(gc.run_round(&fm, &nodes, &io).is_err());
        assert_eq!(fm.metadata().len(), 10, "the view keeps every candidate");
        assert_eq!(fm.metadata().superseded_oldest_first().len(), 8);
        for (node, before) in nodes.iter().zip(&tombstones) {
            assert_eq!(&node.locally_deleted(), before);
        }
        assert_eq!(spy.inner.list_prefix("commit/").unwrap().len(), 10);

        let outcome = gc.run_round(&fm, &nodes, &io).unwrap();
        assert_eq!(outcome.deleted, 8);
        assert_eq!(spy.inner.list_prefix("data/").unwrap().len(), 2);
        assert_eq!(spy.inner.list_prefix("commit/").unwrap().len(), 2);
        assert_eq!(fm.metadata().len(), 2);
        assert!(nodes.iter().all(|n| n.locally_deleted().is_empty()));
        let batches = spy.batches.lock();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0], batches[1], "the retry sends the same keys");
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
