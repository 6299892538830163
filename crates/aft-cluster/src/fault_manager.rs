//! The fault manager (§4.2, §6.7).
//!
//! The fault manager lives outside the request critical path and provides two
//! guarantees:
//!
//! * **Liveness of committed data.** It receives every node's commit stream
//!   *without* the pruning optimisation and periodically scans the
//!   Transaction Commit Set in storage for commit records it has not seen via
//!   broadcast — which happens exactly when a node acknowledged a commit and
//!   failed before multicasting it. Any such record is pushed to all nodes so
//!   the data becomes visible.
//! * **Failure detection and replacement.** It notices failed nodes and
//!   configures replacements (standby nodes with a container-download /
//!   cache-warm delay, §6.7). The mechanics of replacement live in
//!   [`crate::cluster`]; the detection hook lives here.
//!
//! The fault manager is stateless in the sense of §4.2: everything it tracks
//! can be rebuilt by re-scanning the commit set, so its own failure is
//! harmless.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aft_core::bootstrap::fetch_commit_records;
use aft_core::{AftNode, MetadataCache};
use aft_storage::io::{IoEngine, StorageRequest};
use aft_types::{AftResult, TransactionRecord};

/// The fault manager's view of the cluster's committed transactions.
pub struct FaultManager {
    /// Every commit record the manager has learned about (via the unpruned
    /// broadcast stream or by scanning storage). Also serves as the metadata
    /// view the global GC runs Algorithm 2 against (§5.2).
    metadata: MetadataCache,
    /// Commit records discovered only by scanning storage — i.e. commits
    /// whose broadcast was lost to a node failure.
    recovered_commits: AtomicU64,
}

impl Default for FaultManager {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultManager {
    /// Creates a fault manager with an empty view.
    pub fn new() -> Self {
        FaultManager {
            metadata: MetadataCache::new(),
            recovered_commits: AtomicU64::new(0),
        }
    }

    /// The manager's commit metadata view (used by the global GC).
    pub fn metadata(&self) -> &MetadataCache {
        &self.metadata
    }

    /// Ingests commit records from the unpruned broadcast stream.
    pub fn observe_commits(&self, records: impl IntoIterator<Item = Arc<TransactionRecord>>) {
        for record in records {
            self.metadata.insert(record);
        }
    }

    /// Number of commits that had to be recovered from storage because their
    /// broadcast never arrived.
    pub fn recovered_commits(&self) -> u64 {
        self.recovered_commits.load(Ordering::Relaxed)
    }

    /// Scans the Transaction Commit Set for records the manager has not seen
    /// and notifies every active node of them (§4.2). Returns how many
    /// missing commits were found in this scan.
    ///
    /// The scan goes through the pipelined I/O engine: one list round trip,
    /// then the unseen records are fetched in waves, each one multi-key read
    /// ([`fetch_commit_records`]), instead of one storage round trip per
    /// record — the scan is off the critical path, but its wall-clock time
    /// bounds how stale a recovered commit can be.
    pub fn scan_commit_set(&self, io: &IoEngine, nodes: &[Arc<AftNode>]) -> AftResult<usize> {
        let keys = io
            .execute(StorageRequest::List(TransactionRecord::storage_prefix()))
            .result?
            .into_keys();
        // One view for the whole listing (it names every commit record in
        // storage), dropped before the inserts below.
        let missing: Vec<String> = {
            let seen = self.metadata.view();
            keys.into_iter()
                .filter(|key| match TransactionRecord::id_from_storage_key(key) {
                    Ok(id) => !seen.is_committed(&id),
                    Err(_) => false,
                })
                .collect()
        };
        let mut found = 0;
        fetch_commit_records(io, &missing, |record| {
            let record = Arc::new(record);
            self.metadata.insert(Arc::clone(&record));
            self.recovered_commits.fetch_add(1, Ordering::Relaxed);
            found += 1;
            for node in nodes {
                node.receive_peer_commits([Arc::clone(&record)]);
            }
        })?;
        Ok(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_core::NodeConfig;
    use aft_storage::io::IoConfig;
    use aft_storage::{InMemoryStore, SharedStorage};
    use aft_types::clock::TickingClock;
    use aft_types::Key;
    use bytes::Bytes;

    fn engine_over(storage: &SharedStorage) -> IoEngine {
        IoEngine::new(storage.clone(), IoConfig::pipelined())
    }

    fn cluster_of(n: usize) -> (Vec<Arc<AftNode>>, SharedStorage) {
        let storage: SharedStorage = InMemoryStore::shared();
        let clock = TickingClock::shared(1, 1);
        let nodes = (0..n)
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
            .collect();
        (nodes, storage)
    }

    #[test]
    fn observe_commits_populates_the_view() {
        let fm = FaultManager::new();
        let record = Arc::new(TransactionRecord::new(
            aft_types::TransactionId::new(5, aft_types::Uuid::from_u128(1)),
            vec![Key::new("k")],
        ));
        fm.observe_commits([Arc::clone(&record)]);
        assert!(fm.metadata().is_committed(&record.id));
        assert_eq!(fm.recovered_commits(), 0);
    }

    #[test]
    fn scan_recovers_commits_whose_broadcast_was_lost() {
        let (nodes, storage) = cluster_of(3);

        // Node 0 commits and then "fails" before broadcasting: we simply never
        // run a broadcast round that includes it.
        let t = nodes[0].start_transaction();
        nodes[0]
            .put(&t, Key::new("orphan"), Bytes::from_static(b"value"))
            .unwrap();
        let id = nodes[0].commit(&t).unwrap();
        assert!(!nodes[1].metadata().is_committed(&id));

        let fm = FaultManager::new();
        let io = engine_over(&storage);
        let survivors = vec![Arc::clone(&nodes[1]), Arc::clone(&nodes[2])];
        let found = fm.scan_commit_set(&io, &survivors).unwrap();
        assert_eq!(found, 1);
        assert_eq!(fm.recovered_commits(), 1);
        assert!(nodes[1].metadata().is_committed(&id));
        assert!(nodes[2].metadata().is_committed(&id));

        // The data committed by the failed node is now readable elsewhere.
        let t = nodes[1].start_transaction();
        assert_eq!(
            nodes[1].get(&t, &Key::new("orphan")).unwrap().unwrap(),
            Bytes::from_static(b"value")
        );

        // A second scan finds nothing new.
        assert_eq!(fm.scan_commit_set(&io, &survivors).unwrap(), 0);
    }

    #[test]
    fn scan_skips_commits_already_seen_via_broadcast() {
        let (nodes, storage) = cluster_of(2);
        let t = nodes[0].start_transaction();
        nodes[0]
            .put(&t, Key::new("k"), Bytes::from_static(b"v"))
            .unwrap();
        nodes[0].commit(&t).unwrap();

        let fm = FaultManager::new();
        // The broadcast reached the fault manager normally.
        fm.observe_commits(nodes[0].drain_recent_commits());
        assert_eq!(
            fm.scan_commit_set(&engine_over(&storage), &nodes).unwrap(),
            0
        );
        assert_eq!(fm.recovered_commits(), 0);
    }

    #[test]
    fn empty_storage_scan_is_harmless() {
        let (nodes, storage) = cluster_of(1);
        let fm = FaultManager::new();
        assert_eq!(
            fm.scan_commit_set(&engine_over(&storage), &nodes).unwrap(),
            0
        );
    }

    #[test]
    fn large_scan_recovers_every_orphan_across_waves() {
        // More orphaned commits than one 256-key wave: the scan must still
        // recover all of them.
        let (nodes, storage) = cluster_of(2);
        for i in 0..300 {
            let t = nodes[0].start_transaction();
            nodes[0]
                .put(
                    &t,
                    Key::new(format!("orphan/{i}")),
                    Bytes::from_static(b"v"),
                )
                .unwrap();
            nodes[0].commit(&t).unwrap();
        }
        // Node 0 "fails" before any broadcast; node 1 learns via the scan.
        let fm = FaultManager::new();
        let survivors = vec![Arc::clone(&nodes[1])];
        let found = fm
            .scan_commit_set(&engine_over(&storage), &survivors)
            .unwrap();
        assert_eq!(found, 300);
        assert_eq!(fm.recovered_commits(), 300);
        let t = nodes[1].start_transaction();
        assert!(nodes[1].get(&t, &Key::new("orphan/299")).unwrap().is_some());
    }
}
