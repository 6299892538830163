//! The cluster orchestrator.
//!
//! [`Cluster`] wires together the node registry, the round-robin router, the
//! commit-set multicast, the fault manager, and the global garbage collector,
//! and can drive them with background threads at the paper's cadence (the
//! multicast runs "every 1 second", §4). Benchmarks and tests can instead
//! drive everything manually through [`Cluster::run_maintenance_round`] for
//! determinism.
//!
//! Node failure and replacement follow §6.7: a killed node stops receiving
//! new requests immediately, the fault manager notices the failure, and a
//! replacement node joins after a configurable delay that models downloading
//! the container image and warming the metadata cache (the paper observes
//! roughly 50 seconds for this, mitigable with pre-pulled images and warm
//! standbys).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use aft_core::{AftNode, NodeConfig};
use aft_storage::io::{IoConfig, IoEngine};
use aft_storage::SharedStorage;
use aft_types::{AftResult, SharedClock, SystemClock};
use parking_lot::Mutex;

use crate::dissemination::{BroadcastStats, Disseminator};
use crate::fault_manager::FaultManager;
use crate::global_gc::{GlobalGc, GlobalGcOutcome};
use crate::membership::{NodeRegistry, NodeState};
use crate::router::RoundRobinRouter;

/// Configuration of a distributed AFT deployment.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of AFT nodes to start with.
    pub initial_nodes: usize,
    /// Template for every node's configuration (node ids are filled in).
    pub node_template: NodeConfig,
    /// How often the background loop runs a dissemination round (paper:
    /// 1 s). Slept on the *cluster clock*, so virtual-clock deployments run
    /// rounds at simulation speed.
    pub dissemination_interval: Duration,
    /// Whether the maintenance loop garbage collects: local metadata GC on
    /// every node (§5.1) and the global data GC (§5.2), which also gates
    /// checkpoint log compaction.
    pub gc_enabled: bool,
    /// How often the fault manager scans storage for lost commits and checks
    /// for failed nodes.
    pub fault_scan_interval: Duration,
    /// Delay before a replacement node becomes active (container download +
    /// metadata cache warm-up, §6.7).
    pub replacement_delay: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            initial_nodes: 1,
            node_template: NodeConfig::default(),
            dissemination_interval: Duration::from_secs(1),
            gc_enabled: true,
            fault_scan_interval: Duration::from_secs(5),
            replacement_delay: Duration::from_secs(50),
        }
    }
}

impl ClusterConfig {
    /// A configuration suitable for unit tests: zero latencies, instant
    /// replacement, manual maintenance.
    pub fn test(initial_nodes: usize) -> Self {
        ClusterConfig {
            initial_nodes,
            node_template: NodeConfig::test(),
            dissemination_interval: Duration::from_millis(5),
            fault_scan_interval: Duration::from_millis(5),
            replacement_delay: Duration::ZERO,
            ..ClusterConfig::default()
        }
    }

    /// Sets every node's checkpoint policy (via the node template).
    pub fn with_checkpoint_policy(mut self, policy: aft_core::CheckpointPolicy) -> Self {
        self.node_template.checkpoint = policy;
        self
    }
}

/// Statistics from one maintenance round.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaintenanceStats {
    /// Multicast statistics for the round.
    pub broadcast: BroadcastStats,
    /// Commits recovered from storage by the fault manager this round.
    pub recovered_commits: usize,
    /// Commit-set keys the fault manager's scan listed this round: what
    /// committed since the previous scan and what nodes reported, not the
    /// whole commit set.
    pub scan_listed: usize,
    /// Global GC outcome for the round (zero if disabled).
    pub global_gc: GlobalGcOutcome,
    /// Checkpoints published this round (nodes whose policy came due).
    pub checkpoints_written: usize,
    /// Commit records dropped by checkpoint-driven log compaction.
    pub compacted_records: u64,
}

/// A running AFT deployment: nodes, router, fault manager, and GC.
pub struct Cluster {
    config: ClusterConfig,
    storage: SharedStorage,
    /// Pipelined I/O engine for the cluster services (fault-manager scans,
    /// global GC deletes) — off the transaction critical path.
    io: IoEngine,
    clock: SharedClock,
    registry: Arc<NodeRegistry>,
    router: RoundRobinRouter,
    disseminator: Disseminator,
    fault_manager: Arc<FaultManager>,
    global_gc: GlobalGc,
    next_node_index: AtomicUsize,
    shutdown: Arc<AtomicBool>,
    background: Mutex<Vec<JoinHandle<()>>>,
}

impl Cluster {
    /// Creates a cluster over `storage` with the real system clock.
    pub fn new(config: ClusterConfig, storage: SharedStorage) -> AftResult<Arc<Self>> {
        Self::with_clock(config, storage, SystemClock::shared())
    }

    /// Creates a cluster with an explicit clock.
    pub fn with_clock(
        config: ClusterConfig,
        storage: SharedStorage,
        clock: SharedClock,
    ) -> AftResult<Arc<Self>> {
        let registry = NodeRegistry::new();
        let cluster = Arc::new(Cluster {
            router: RoundRobinRouter::new(Arc::clone(&registry)),
            disseminator: Disseminator::default(),
            fault_manager: Arc::new(FaultManager::new()),
            global_gc: GlobalGc::default(),
            next_node_index: AtomicUsize::new(0),
            shutdown: Arc::new(AtomicBool::new(false)),
            background: Mutex::new(Vec::new()),
            io: IoEngine::new(storage.clone(), IoConfig::pipelined()),
            registry,
            storage,
            clock,
            config,
        });
        for _ in 0..cluster.config.initial_nodes {
            cluster.add_node()?;
        }
        Ok(cluster)
    }

    fn make_node(&self) -> AftResult<Arc<AftNode>> {
        let index = self.next_node_index.fetch_add(1, Ordering::Relaxed);
        let node_config = NodeConfig {
            node_id: format!("aft-node-{index}"),
            rng_seed: self.config.node_template.rng_seed ^ (index as u64).wrapping_mul(0x9E37),
            ..self.config.node_template.clone()
        };
        let node = AftNode::with_clock(node_config, self.storage.clone(), self.clock.clone())?;
        self.fault_manager.watch(&node);
        Ok(node)
    }

    /// Creates a new node, registers it as active, and returns it.
    pub fn add_node(&self) -> AftResult<Arc<AftNode>> {
        let node = self.make_node()?;
        self.registry.register(Arc::clone(&node), NodeState::Active);
        Ok(node)
    }

    /// Routes the next logical request to an active node.
    pub fn route(&self) -> AftResult<Arc<AftNode>> {
        self.router.route()
    }

    /// The node registry.
    pub fn registry(&self) -> &Arc<NodeRegistry> {
        &self.registry
    }

    /// The fault manager.
    pub fn fault_manager(&self) -> &Arc<FaultManager> {
        &self.fault_manager
    }

    /// The commit-metadata dissemination engine.
    pub fn disseminator(&self) -> &Disseminator {
        &self.disseminator
    }

    /// The shared storage backend.
    pub fn storage(&self) -> &SharedStorage {
        &self.storage
    }

    /// The cluster services' pipelined I/O engine.
    pub fn io(&self) -> &IoEngine {
        &self.io
    }

    /// All currently active nodes.
    pub fn active_nodes(&self) -> Vec<Arc<AftNode>> {
        self.registry.active_nodes()
    }

    /// Marks a node as failed (the Figure 10 experiment terminates a node
    /// this way). Returns false if the node id is unknown.
    pub fn kill_node(&self, node_id: &str) -> bool {
        self.registry.set_state(node_id, NodeState::Failed)
    }

    /// Detects failed nodes and brings up replacements, blocking for the
    /// configured replacement delay (container download + cache warm-up).
    /// Returns the number of nodes replaced. Replacements are independent:
    /// one failed construction (a bootstrap killed at its phase) does not
    /// block the others, and the call only errors when *nothing* could be
    /// replaced — partial progress reports the true count so recovery
    /// statistics never undercount brought-up standbys.
    pub fn replace_failed_nodes(&self) -> AftResult<usize> {
        let failed = self.registry.failed_node_ids();
        let mut replaced = 0;
        let mut first_error = None;
        for node_id in failed {
            // Build the replacement *before* deregistering the failed entry:
            // node construction can fail transiently, and the failed node
            // must stay listed so the next detection round retries it.
            let replacement = match self.make_node() {
                Ok(node) => node,
                Err(e) => {
                    if first_error.is_none() {
                        first_error = Some(e);
                    }
                    continue;
                }
            };
            self.registry.deregister(&node_id);
            // The replacement starts out warming up; it only serves requests
            // once activation completes.
            self.registry
                .register(Arc::clone(&replacement), NodeState::Starting);
            if !self.config.replacement_delay.is_zero() {
                std::thread::sleep(self.config.replacement_delay);
            }
            self.registry
                .set_state(replacement.node_id(), NodeState::Active);
            replaced += 1;
        }
        match first_error {
            Some(e) if replaced == 0 => Err(e),
            _ => Ok(replaced),
        }
    }

    /// Sum of transactions committed across all currently registered nodes.
    pub fn total_committed(&self) -> u64 {
        self.registry
            .all_nodes()
            .iter()
            .map(|(node, _)| node.stats().committed())
            .sum()
    }

    /// Sum of transactions garbage collected (metadata) across all nodes.
    pub fn total_gc_deleted(&self) -> u64 {
        self.registry
            .all_nodes()
            .iter()
            .map(|(node, _)| node.stats().gc_deleted())
            .sum()
    }

    /// Runs one maintenance round synchronously: multicast (with pruning),
    /// fault-manager storage scan, local GC on every node, and a global GC
    /// round. Tests and benchmarks drive this manually; the background
    /// threads call it on their intervals.
    pub fn run_maintenance_round(&self) -> AftResult<MaintenanceStats> {
        let nodes = self.registry.active_nodes();
        let mut stats = MaintenanceStats {
            broadcast: self.disseminator.round(&nodes, Some(&self.fault_manager)),
            ..MaintenanceStats::default()
        };
        let scan = self.fault_manager.scan_commit_set(&self.io, &nodes)?;
        stats.recovered_commits = scan.recovered;
        stats.scan_listed = scan.listed;
        if self.config.gc_enabled {
            for node in &nodes {
                node.run_local_gc();
            }
            stats.global_gc = self
                .global_gc
                .run_round(&self.fault_manager, &nodes, &self.io)?;
        }
        // Checkpoint rounds last, so a checkpoint published this round
        // already reflects the round's dissemination and recovery work. Log
        // compaction piggybacks only when global GC is on *and* no recovery
        // is in flight: a failed or still-warming node may yet need commit
        // records the checkpoint covers, so compaction waits for a fully
        // active membership (the GlobalGc / drive_recovery coordination).
        if self.config.node_template.checkpoint.is_enabled() {
            let membership_stable = self
                .registry
                .all_nodes()
                .iter()
                .all(|(_, state)| *state == NodeState::Active);
            // Compaction leaves the records the GC's view holds to the GC,
            // which deletes them with their data.
            let compact = self.config.gc_enabled && membership_stable;
            let gc_view = compact.then(|| self.fault_manager.metadata());
            for node in &nodes {
                // A kill mid-checkpoint-write crashes the node, which the
                // registry then counts failed; the round itself keeps going
                // and the node's previous checkpoint stays live.
                if let Ok(Some(outcome)) = node.maybe_checkpoint(gc_view) {
                    stats.checkpoints_written += 1;
                    if let Some(compaction) = outcome.compaction {
                        stats.compacted_records +=
                            (compaction.deleted_covered + compaction.deleted_superseded) as u64;
                    }
                }
            }
        }
        Ok(stats)
    }

    /// Starts the background maintenance threads: one for the multicast /
    /// local-GC / global-GC loop and one for failure detection and
    /// replacement.
    pub fn start_background(self: &Arc<Self>) {
        let mut handles = self.background.lock();
        if !handles.is_empty() {
            return;
        }

        // Both loops pace themselves on the *cluster clock*: a wall clock
        // really sleeps, while virtual clocks advance simulated time and
        // yield, so dissemination benches run deterministic rounds at
        // simulation speed instead of stalling on wall-clock intervals.
        let maintenance = {
            let cluster = Arc::clone(self);
            std::thread::spawn(move || {
                while !cluster.shutdown.load(Ordering::Relaxed) {
                    let _ = cluster.run_maintenance_round();
                    cluster
                        .clock
                        .sleep_for(cluster.config.dissemination_interval);
                }
            })
        };
        let fault_detection = {
            let cluster = Arc::clone(self);
            std::thread::spawn(move || {
                while !cluster.shutdown.load(Ordering::Relaxed) {
                    let _ = cluster.replace_failed_nodes();
                    cluster.clock.sleep_for(cluster.config.fault_scan_interval);
                }
            })
        };
        handles.push(maintenance);
        handles.push(fault_detection);
    }

    /// Stops the background threads and waits for them to exit.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        let handles = std::mem::take(&mut *self.background.lock());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_storage::InMemoryStore;
    use aft_types::Key;
    use bytes::Bytes;

    fn test_cluster(nodes: usize) -> Arc<Cluster> {
        Cluster::with_clock(
            ClusterConfig::test(nodes),
            InMemoryStore::shared(),
            aft_types::clock::TickingClock::shared(1, 1),
        )
        .unwrap()
    }

    fn run_txn(node: &Arc<AftNode>, key: &str, value: &str) {
        let t = node.start_transaction();
        node.put(&t, Key::new(key), Bytes::copy_from_slice(value.as_bytes()))
            .unwrap();
        node.commit(&t).unwrap();
    }

    #[test]
    fn cluster_starts_the_requested_nodes() {
        let cluster = test_cluster(4);
        assert_eq!(cluster.active_nodes().len(), 4);
        assert_eq!(cluster.registry().active_count(), 4);
        let ids: Vec<String> = cluster
            .active_nodes()
            .iter()
            .map(|n| n.node_id().to_owned())
            .collect();
        assert_eq!(
            ids,
            vec!["aft-node-0", "aft-node-1", "aft-node-2", "aft-node-3"]
        );
    }

    #[test]
    fn commits_propagate_between_nodes_via_maintenance() {
        let cluster = test_cluster(3);
        let writer = cluster.route().unwrap();
        run_txn(&writer, "shared", "hello");

        cluster.run_maintenance_round().unwrap();

        for node in cluster.active_nodes() {
            let t = node.start_transaction();
            assert_eq!(
                node.get(&t, &Key::new("shared")).unwrap().unwrap(),
                Bytes::from_static(b"hello"),
                "node {} should see the commit",
                node.node_id()
            );
        }
        assert_eq!(cluster.total_committed(), 1);
    }

    #[test]
    fn three_nodes_disseminate_over_a_four_message_star() {
        let cluster = test_cluster(3);
        for (i, node) in cluster.active_nodes().iter().enumerate() {
            run_txn(node, &format!("k{i}"), "v");
        }
        let stats = cluster.run_maintenance_round().unwrap().broadcast;
        // Two leaves send up to the root and the root sends each leaf what
        // it lacks: 2·(n−1) = 4 messages where the flat exchange sends 6,
        // for the same six deliveries.
        assert_eq!(stats.fanout_messages, 4);
        assert_eq!(stats.multicast, 6);
    }

    #[test]
    fn killed_nodes_stop_receiving_requests_and_get_replaced() {
        let cluster = test_cluster(3);
        assert!(cluster.kill_node("aft-node-1"));
        assert!(!cluster.kill_node("no-such-node"));
        assert_eq!(cluster.registry().active_count(), 2);
        for _ in 0..10 {
            assert_ne!(cluster.route().unwrap().node_id(), "aft-node-1");
        }

        let replaced = cluster.replace_failed_nodes().unwrap();
        assert_eq!(replaced, 1);
        assert_eq!(cluster.registry().active_count(), 3);
        // The replacement has a fresh identity.
        assert!(cluster
            .active_nodes()
            .iter()
            .any(|n| n.node_id() == "aft-node-3"));
    }

    #[test]
    fn replacement_node_bootstraps_committed_state() {
        let cluster = test_cluster(2);
        let writer = cluster.route().unwrap();
        run_txn(&writer, "durable", "survives");
        cluster.run_maintenance_round().unwrap();

        // Kill the *other* node and also the writer, then replace both; the
        // replacements must learn the commit from storage (bootstrap).
        cluster.kill_node("aft-node-0");
        cluster.kill_node("aft-node-1");
        cluster.replace_failed_nodes().unwrap();
        assert_eq!(cluster.registry().active_count(), 2);

        for node in cluster.active_nodes() {
            let t = node.start_transaction();
            assert_eq!(
                node.get(&t, &Key::new("durable")).unwrap().unwrap(),
                Bytes::from_static(b"survives")
            );
        }
    }

    #[test]
    fn maintenance_round_garbage_collects_superseded_data() {
        let cluster = test_cluster(2);
        let node = cluster.route().unwrap();
        for i in 0..5 {
            run_txn(&node, "hot", &format!("v{i}"));
        }
        // One round broadcasts, collects locally and then globally, since no
        // node holds the superseded versions any more; a second finds nothing.
        cluster.run_maintenance_round().unwrap();
        let stats = cluster.run_maintenance_round().unwrap();
        let data_keys = cluster.storage().list_prefix("data/hot/").unwrap();
        assert_eq!(data_keys.len(), 1, "only the newest version survives");
        assert!(stats.global_gc.deleted >= 1 || cluster.total_gc_deleted() >= 4);
    }

    #[test]
    fn background_threads_start_and_shut_down() {
        let cluster = test_cluster(2);
        cluster.start_background();
        cluster.start_background(); // idempotent
        let node = cluster.route().unwrap();
        run_txn(&node, "k", "v");
        std::thread::sleep(Duration::from_millis(50));
        cluster.shutdown();
        // After shutdown the commit has propagated to every node.
        for node in cluster.active_nodes() {
            assert!(node.metadata().latest_version_of(&Key::new("k")).is_some());
        }
    }

    #[test]
    fn maintenance_checkpoints_and_compacts_only_with_stable_membership() {
        use aft_core::CheckpointPolicy;
        let cluster = Cluster::with_clock(
            ClusterConfig::test(2).with_checkpoint_policy(CheckpointPolicy::every_commits(1)),
            InMemoryStore::shared(),
            aft_types::clock::TickingClock::shared(1, 1),
        )
        .unwrap();
        let node = cluster.route().unwrap();
        // Distinct keys: §5.2 global GC never deletes a key's newest (only)
        // record, so any commit-log shrinkage below is checkpoint compaction.
        for i in 0..6 {
            run_txn(&node, &format!("k{i}"), "v");
        }

        // With a failed node in the registry, checkpoints are written but
        // compaction is held back: a recovery in flight may still need the
        // covered records.
        cluster.kill_node("aft-node-1");
        let stats = cluster.run_maintenance_round().unwrap();
        assert!(stats.checkpoints_written >= 1);
        assert_eq!(stats.compacted_records, 0, "no compaction mid-recovery");
        assert_eq!(cluster.storage().list_prefix("commit/").unwrap().len(), 6);

        // Once the membership is fully active again, the next due checkpoint
        // compacts the covered log.
        cluster.replace_failed_nodes().unwrap();
        run_txn(&node, "k6", "v");
        let stats = cluster.run_maintenance_round().unwrap();
        assert!(stats.checkpoints_written >= 1);
        assert!(stats.compacted_records > 0, "stable membership compacts");
        let remaining = cluster.storage().list_prefix("commit/").unwrap().len();
        assert!(remaining < 7, "covered records dropped, saw {remaining}");

        // A cold node bootstrapping from checkpoint + tail still serves the
        // compacted-away commits.
        let fresh = cluster.add_node().unwrap();
        let t = fresh.start_transaction();
        assert_eq!(
            fresh.get(&t, &Key::new("k0")).unwrap().unwrap(),
            Bytes::from_static(b"v")
        );
    }

    #[test]
    fn route_fails_when_every_node_is_dead() {
        let cluster = test_cluster(1);
        cluster.kill_node("aft-node-0");
        assert!(cluster.route().is_err());
    }
}
