//! The fault manager (§4.2, §6.7).
//!
//! The fault manager lives outside the request critical path and provides two
//! guarantees:
//!
//! * **Liveness of committed data.** It receives every node's commit stream
//!   *without* the pruning optimisation and periodically scans the
//!   Transaction Commit Set in storage for commit records that no live node
//!   will multicast — which happens exactly when a node acknowledged a commit
//!   and failed before multicasting it, or when a flush failed after sending
//!   its record. Any such record is handed to every active node so the data
//!   becomes visible. It has no origin (its node is gone or never sent it),
//!   so a read that misses one of its versions goes to storage.
//! * **Failure detection and replacement.** It notices failed nodes and
//!   configures replacements (standby nodes with a container-download /
//!   cache-warm delay, §6.7). The mechanics of replacement live in
//!   [`crate::cluster`]; the detection hook lives here.
//!
//! **What a scan recovers.** A listed record the manager has not seen is
//! recovered unless a node it trusts still holds it for a drain
//! ([`AftNode::holds_for_drain`]): the commit is under way there (its record
//! may already be durable), or it finished after the node's last drain. That
//! drain hands the record to the manager and multicasts it tagged with its
//! origin, the node whose data cache holds its payloads, so recovering it
//! would only fetch it again and hand it out with no origin: a peer's read
//! of it would then go to storage. The manager trusts a node only while it is active and a
//! round has drained it since the last scan began. Once a node is no longer
//! active, nothing it holds is trusted: the scan after that takes its report
//! ([`AftNode::undrained_floor`]) and recovers what it left. A commit under
//! way that fails after sending its record leaves the node's hold and is
//! reported instead. So a record is skipped only while a live node will
//! hand it out, and a run without failures recovers nothing.
//!
//! **What the floor bounds.** A scan costs what committed since the previous
//! one, not the commit set: it sends one `List`, ranged to start at the
//! manager's *floor*
//! ([`StorageEngine::list_prefix_after`](aft_storage::StorageEngine::list_prefix_after),
//! which a store with ordered keys ranges), and only the keys from there on
//! are parsed and probed; `MaintenanceStats::scan_listed` counts them. Each
//! node reports, by timestamp, every commit whose record may be in storage
//! with nobody left to multicast it if the node fails: one under way or one
//! whose flush failed after sending its record (in the drain that hands out
//! its records, [`AftNode::drain_recent_commits`]), and one that finished on
//! a node no round drains any more — failed, replaced, or not yet active —
//! which the manager asks at every scan ([`AftNode::undrained_floor`]) until
//! only the manager still holds it. The floor is the oldest timestamp
//! reported since the last scan that succeeded, and no later than the
//! *horizon*, just past the newest commit the manager had seen when that
//! scan began, so every scan also lists what committed since the one before,
//! as a full scan would. A report stays pending until a scan covers it; a
//! failed scan leaves it for the next.
//!
//! The fault manager is stateless in the sense of §4.2: everything it tracks
//! can be rebuilt by re-scanning the commit set, so its own failure is
//! harmless. A fresh manager's floor is 0 — its first scan lists the whole
//! commit set.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aft_core::bootstrap::fetch_commit_records;
use aft_core::{AftNode, MetadataCache};
use aft_storage::io::{IoEngine, StorageRequest};
use aft_types::{AftResult, Timestamp, TransactionRecord};
use parking_lot::Mutex;

/// The fault manager's view of the cluster's committed transactions.
pub struct FaultManager {
    /// Every commit record the manager has learned about (via the unpruned
    /// broadcast stream or by scanning storage). Also serves as the metadata
    /// view the global GC runs Algorithm 2 against (§5.2).
    metadata: MetadataCache,
    /// Commit records discovered only by scanning storage: commits that no
    /// live node could multicast.
    recovered_commits: AtomicU64,
    /// Where the next scan starts, and the nodes that report to it.
    floor: Mutex<Floor>,
}

/// What one [`FaultManager::scan_commit_set`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanOutcome {
    /// Commit-set keys the scan's one listing returned.
    pub listed: usize,
    /// Records the manager had not seen and no trusted node held for a
    /// drain — commits that no live node could multicast — found and pushed
    /// to every node.
    pub recovered: usize,
}

/// What [`FaultManager::begin_scan`] hands the scan.
struct ScanStart {
    /// The reports the scan took, handed back if it fails.
    reported: Option<Timestamp>,
    /// Where the listing starts.
    from: Timestamp,
    /// The horizon a successful scan sets.
    horizon: Timestamp,
    /// The active nodes a round drained since the last scan began. What one
    /// of them holds for its next drain is not lost.
    trusted: Vec<Arc<AftNode>>,
}

#[derive(Default)]
struct Floor {
    /// The oldest commit reported since the last scan that succeeded began.
    reported: Option<Timestamp>,
    /// The newest commit timestamp the manager has seen.
    newest: Option<Timestamp>,
    /// One past the newest timestamp seen when the last successful scan
    /// began; 0 before any. No scan starts later.
    horizon: Timestamp,
    /// Every node the manager drains or watches, and whether a round drained
    /// it since the last scan began.
    nodes: Vec<(Arc<AftNode>, bool)>,
}

impl Floor {
    fn report(&mut self, timestamp: Option<Timestamp>) {
        self.reported = self.reported.into_iter().chain(timestamp).min();
    }

    fn watch(&mut self, node: &Arc<AftNode>, drained: bool) {
        match self.nodes.iter_mut().find(|(n, _)| Arc::ptr_eq(n, node)) {
            Some((_, was)) => *was |= drained,
            None => self.nodes.push((Arc::clone(node), drained)),
        }
    }
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
            floor: Mutex::new(Floor::default()),
        }
    }

    /// The manager's commit metadata view (used by the global GC).
    pub fn metadata(&self) -> &MetadataCache {
        &self.metadata
    }

    /// Ingests commit records from the unpruned broadcast stream, under one
    /// lock of the view.
    pub(crate) fn observe_commits(
        &self,
        records: impl IntoIterator<Item = Arc<TransactionRecord>>,
    ) {
        let mut newest = None;
        self.metadata.insert_all(
            records
                .into_iter()
                .inspect(|record| newest = newest.max(Some(record.id.timestamp))),
        );
        if newest.is_some() {
            let mut floor = self.floor.lock();
            floor.newest = floor.newest.max(newest);
        }
    }

    /// Drains `node` for a dissemination round: observes its records, takes
    /// its commit floor, and returns the records, unpruned, for the multicast
    /// (§4.2). From here on the manager watches the node.
    pub(crate) fn drain_node(&self, node: &Arc<AftNode>) -> Vec<Arc<TransactionRecord>> {
        let drain = node.drain_recent_commits();
        self.observe_commits(drain.records.iter().cloned());
        let mut floor = self.floor.lock();
        floor.report(drain.floor);
        floor.watch(node, true);
        drain.records
    }

    /// Watches `node` from now on, drained or not: a scan asks a node no
    /// round drained since the last scan for its undrained commits. The
    /// cluster calls this for every node it builds, so one that dies before
    /// its first round is covered too.
    pub(crate) fn watch(&self, node: &Arc<AftNode>) {
        self.floor.lock().watch(node, false);
    }

    /// Number of commits recovered from storage because no live node could
    /// multicast them: their node failed before a drain took them, or their
    /// flush failed after sending the record. A run without failures reads 0.
    pub fn recovered_commits(&self) -> u64 {
        self.recovered_commits.load(Ordering::Relaxed)
    }

    /// Scans the Transaction Commit Set from the manager's floor for records
    /// it has not seen and that no trusted node holds for a drain, and
    /// notifies every active node (`nodes`) of them (§4.2); `nodes` are
    /// watched from here on. A node of `nodes` is trusted if a round drained
    /// it since the last scan began (see the module docs).
    ///
    /// The scan goes through the pipelined I/O engine: one list round trip,
    /// ranged to start at the floor (see the module docs), then the unseen
    /// records are fetched in waves, each one multi-key read
    /// ([`fetch_commit_records`]), instead of one storage round trip per
    /// record — the scan is off the critical path, but its wall-clock time
    /// bounds how stale a recovered commit can be.
    pub fn scan_commit_set(&self, io: &IoEngine, nodes: &[Arc<AftNode>]) -> AftResult<ScanOutcome> {
        let start = self.begin_scan(nodes);
        let scanned = self.scan_from(io, nodes, &start);
        let mut floor = self.floor.lock();
        match scanned {
            Ok(_) => floor.horizon = floor.horizon.max(start.horizon),
            Err(_) => floor.report(start.reported),
        }
        scanned
    }

    /// Takes the reports the scan must cover — pending ones, and those of
    /// the watched nodes no round drained since the last scan — and returns
    /// them with the floor to list from, the horizon a successful scan sets
    /// and the nodes it trusts. A watched node only the manager still holds
    /// can commit nothing more, so its report now is its last and the
    /// manager lets it go.
    fn begin_scan(&self, nodes: &[Arc<AftNode>]) -> ScanStart {
        let mut floor = self.floor.lock();
        for node in nodes {
            floor.watch(node, false);
        }
        let mut reported = floor.reported.take();
        let mut trusted = Vec::new();
        floor.nodes.retain_mut(|(node, drained)| {
            if std::mem::take(drained) {
                if nodes.iter().any(|active| Arc::ptr_eq(active, node)) {
                    trusted.push(Arc::clone(node));
                }
                return true;
            }
            reported = reported.into_iter().chain(node.undrained_floor()).min();
            Arc::strong_count(node) > 1
        });
        ScanStart {
            reported,
            from: reported.map_or(floor.horizon, |t| t.min(floor.horizon)),
            horizon: floor.newest.map_or(0, |t| t.saturating_add(1)),
            trusted,
        }
    }

    fn scan_from(
        &self,
        io: &IoEngine,
        nodes: &[Arc<AftNode>],
        start: &ScanStart,
    ) -> AftResult<ScanOutcome> {
        let keys = io
            .execute(StorageRequest::ListAfter(
                TransactionRecord::storage_prefix(),
                TransactionRecord::storage_floor_key(start.from),
            ))?
            .into_keys();
        // One view for the whole listing, dropped before the inserts below.
        // A record a trusted node will still drain reaches every node with
        // that drain, its payloads included: only the others are lost.
        let missing: Vec<String> = {
            let seen = self.metadata.view();
            keys.iter()
                .filter(|key| match TransactionRecord::id_from_storage_key(key) {
                    Ok(id) => {
                        !seen.is_committed(&id)
                            && !start.trusted.iter().any(|node| node.holds_for_drain(&id))
                    }
                    Err(_) => false,
                })
                .cloned()
                .collect()
        };
        let mut outcome = ScanOutcome {
            listed: keys.len(),
            recovered: 0,
        };
        fetch_commit_records(io, &missing, |record| {
            let record = Arc::new(record);
            self.observe_commits([Arc::clone(&record)]);
            self.recovered_commits.fetch_add(1, Ordering::Relaxed);
            outcome.recovered += 1;
            // Learned from storage: no origin, so a miss on it reads storage.
            let recovered = [(record, None)];
            for node in nodes {
                node.receive_peer_commits(&recovered);
            }
        })?;
        Ok(outcome)
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

    fn commit_on(node: &AftNode, key: &str) -> aft_types::TransactionId {
        let t = node.start_transaction();
        node.put(&t, Key::new(key), Bytes::from_static(b"v"))
            .unwrap();
        node.commit(&t).unwrap()
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
        let found = fm.scan_commit_set(&io, &survivors).unwrap().recovered;
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
        assert_eq!(fm.scan_commit_set(&io, &survivors).unwrap().recovered, 0);
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
        fm.drain_node(&nodes[0]);
        let outcome = fm.scan_commit_set(&engine_over(&storage), &nodes).unwrap();
        assert_eq!(
            outcome,
            ScanOutcome {
                listed: 1,
                recovered: 0
            }
        );
        assert_eq!(fm.recovered_commits(), 0);
    }

    #[test]
    fn a_record_is_left_to_a_live_nodes_drain_and_recovered_once_it_departs() {
        let (nodes, storage) = cluster_of(2);
        let io = engine_over(&storage);
        let fm = FaultManager::new();
        fm.drain_node(&nodes[0]);
        // Finished after the drain: durable, and held for node 0's next one.
        let id = commit_on(&nodes[0], "held");
        let outcome = fm.scan_commit_set(&io, &nodes).unwrap();
        assert_eq!(
            outcome,
            ScanOutcome {
                listed: 1,
                recovered: 0
            }
        );
        assert!(!nodes[1].metadata().is_committed(&id));

        // Node 0 is no longer active, and nothing it holds is trusted: the
        // scan after its departure recovers the record.
        let survivors = [Arc::clone(&nodes[1])];
        assert_eq!(fm.scan_commit_set(&io, &survivors).unwrap().recovered, 1);
        assert!(nodes[1].metadata().is_committed(&id));
        assert_eq!(fm.recovered_commits(), 1);
    }

    #[test]
    fn a_node_no_round_drained_is_not_trusted() {
        // Node 0 is active but was not drained since the last scan: the scan
        // takes its report instead, so it recovers what node 0 holds.
        let (nodes, storage) = cluster_of(2);
        let fm = FaultManager::new();
        let id = commit_on(&nodes[0], "polled");
        let outcome = fm.scan_commit_set(&engine_over(&storage), &nodes).unwrap();
        assert_eq!(outcome.recovered, 1);
        assert!(nodes[1].metadata().is_committed(&id));
    }

    #[test]
    fn empty_storage_scan_is_harmless() {
        let (nodes, storage) = cluster_of(1);
        let fm = FaultManager::new();
        assert_eq!(
            fm.scan_commit_set(&engine_over(&storage), &nodes).unwrap(),
            ScanOutcome::default()
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
            .unwrap()
            .recovered;
        assert_eq!(found, 300);
        assert_eq!(fm.recovered_commits(), 300);
        let t = nodes[1].start_transaction();
        assert!(nodes[1].get(&t, &Key::new("orphan/299")).unwrap().is_some());
    }

    #[test]
    fn a_scan_lists_what_committed_since_the_last_not_the_commit_set() {
        let (nodes, storage) = cluster_of(1);
        let io = engine_over(&storage);
        let fm = FaultManager::new();
        for i in 0..10_000 {
            commit_on(&nodes[0], &format!("old/{i}"));
        }
        fm.drain_node(&nodes[0]);
        assert_eq!(fm.scan_commit_set(&io, &nodes).unwrap().listed, 10_000);
        // The first scan after a fresh start is a full one; from then on a
        // scan reaches back only to what committed since the one before.
        for i in 0..10 {
            commit_on(&nodes[0], &format!("new/{i}"));
        }
        fm.drain_node(&nodes[0]);
        let outcome = fm.scan_commit_set(&io, &nodes).unwrap();
        assert_eq!(
            outcome,
            ScanOutcome {
                listed: 10,
                recovered: 0
            }
        );
    }

    #[test]
    fn a_fresh_manager_recovers_a_commit_made_before_it_existed() {
        let (nodes, storage) = cluster_of(2);
        let io = engine_over(&storage);
        // An earlier manager drained and scanned everything but the last
        // commit, then failed.
        let earlier = FaultManager::new();
        for i in 0..50 {
            commit_on(&nodes[0], &format!("k{i}"));
        }
        earlier.drain_node(&nodes[0]);
        earlier.scan_commit_set(&io, &nodes).unwrap();
        let lost = commit_on(&nodes[0], "lost");

        // Its replacement starts at floor 0 and knows nothing of node 0,
        // which is never drained again.
        let fresh = FaultManager::new();
        let survivors = [Arc::clone(&nodes[1])];
        let outcome = fresh.scan_commit_set(&io, &survivors).unwrap();
        assert_eq!(outcome.listed, 51, "floor 0: the whole commit set");
        assert_eq!(outcome.recovered, 51);
        assert!(nodes[1].metadata().is_committed(&lost));
    }
}
