//! The fault manager's floor scan, where no walked schedule reaches it.
//!
//! A scan lists the Transaction Commit Set from the manager's floor, not from
//! its start (§4.2). The walked `phases` scope of `aft-bench trajectory`
//! parks commits, runs rounds inside them and kills their nodes; these two
//! cases need what its schedules do not take: a node declared failed while a
//! commit of its is under way, whose commit then lands, and a scan whose
//! listing fails, which no storage cut can do (reads are never cut). The
//! clock is set back, so each record lands below what the manager has seen
//! and only its node's report can point the scan at it.

use std::sync::{Arc, Weak};

use aft_chaos::{ChaosSpec, StorageChaos};
use aft_cluster::{Cluster, ClusterConfig};
use aft_core::{AftNode, CommitPhase, PhaseHook};
use aft_storage::{FaultyBackend, InMemoryStore, SharedStorage};
use aft_types::clock::MockClock;
use aft_types::{AftError, AftResult, Key, TransactionId};
use bytes::Bytes;
use parking_lot::Mutex;

fn commit_on(node: &AftNode, key: &str) -> AftResult<TransactionId> {
    let t = node.start_transaction();
    node.put(&t, Key::new(key), Bytes::copy_from_slice(key.as_bytes()))?;
    node.commit(&t)
}

fn readable_everywhere(cluster: &Cluster, key: &str) {
    for node in cluster.active_nodes() {
        let t = node.start_transaction();
        assert!(
            node.get(&t, &Key::new(key)).unwrap().is_some(),
            "{} must serve {key}",
            node.node_id()
        );
        node.abort(&t).unwrap();
    }
}

/// What every node's hook does at a commit's phase, once armed on one node.
#[derive(Debug, Default)]
struct Twist {
    armed: Mutex<Option<(String, CommitPhase)>>,
    /// Set, the hook marks the node failed and runs a round there, recording
    /// what it recovered; unset, it crashes the node there.
    round: Mutex<Option<Weak<Cluster>>>,
    rounds: Mutex<Vec<usize>>,
}

impl Twist {
    /// A cluster of `nodes` over `storage` whose every node asks a twist.
    fn cluster(
        nodes: usize,
        storage: SharedStorage,
        clock: &MockClock,
    ) -> (Arc<Cluster>, Arc<Twist>) {
        let twist = Arc::new(Twist::default());
        let mut config = ClusterConfig::test(nodes);
        config.node_template.phase_hook = Some(twist.clone());
        (
            Cluster::with_clock(config, storage, clock.shared()).unwrap(),
            twist,
        )
    }

    fn arm(&self, node_id: &str, phase: CommitPhase) {
        *self.armed.lock() = Some((node_id.to_owned(), phase));
    }
}

impl PhaseHook for Twist {
    fn at(&self, node_id: &str, phase: CommitPhase) -> AftResult<()> {
        let mut armed = self.armed.lock();
        if armed.as_ref() != Some(&(node_id.to_owned(), phase)) {
            return Ok(());
        }
        *armed = None;
        drop(armed);
        let Some(cluster) = self.round.lock().clone() else {
            return Err(AftError::Unavailable(format!("{node_id} crashed")));
        };
        let cluster = cluster.upgrade().expect("the cluster outlives its commits");
        cluster.kill_node(node_id);
        let stats = cluster.run_maintenance_round()?;
        self.rounds.lock().push(stats.recovered_commits);
        Ok(())
    }
}

#[test]
fn a_failed_nodes_commit_that_lands_after_the_round_that_found_it_failed_is_recovered() {
    let clock = MockClock::starting_at(1_000);
    let (cluster, twist) = Twist::cluster(3, InMemoryStore::shared(), &clock);
    *twist.round.lock() = Some(Arc::downgrade(&cluster));
    for _ in 0..20 {
        clock.advance(10);
        commit_on(&cluster.route().unwrap(), "history").unwrap();
    }
    cluster.run_maintenance_round().unwrap();

    // Mid-commit, before its data is written, the node is declared failed
    // and a round runs without it; then the commit carries on and lands.
    clock.set(10);
    twist.arm("aft-node-2", CommitPhase::BeforeDataPut);
    let node = cluster.registry().get("aft-node-2").unwrap();
    let id = commit_on(&node, "late").unwrap();
    assert_eq!(
        twist.rounds.lock()[..],
        [0],
        "nothing to recover while the commit is in flight"
    );

    clock.set(2_000);
    let stats = cluster.run_maintenance_round().unwrap();
    assert_eq!(stats.recovered_commits, 1);
    assert!(cluster.fault_manager().metadata().is_committed(&id));
    readable_everywhere(&cluster, "late");
}

#[test]
fn a_failed_scan_leaves_the_reports_it_took_to_the_next() {
    let spec = ChaosSpec::new(7).storage(StorageChaos::transient_errors(1.0));
    let faulty = FaultyBackend::from_spec(InMemoryStore::shared(), &spec);
    faulty.set_enabled(false);
    let clock = MockClock::starting_at(1_000);
    let (cluster, twist) = Twist::cluster(2, faulty.clone(), &clock);
    for _ in 0..10 {
        clock.advance(10);
        commit_on(&cluster.route().unwrap(), "history").unwrap();
    }
    cluster.run_maintenance_round().unwrap();

    // A commit below the floor that only its node's report can point at...
    clock.set(10);
    twist.arm("aft-node-0", CommitPhase::BeforeBroadcast);
    let node = cluster.registry().get("aft-node-0").unwrap();
    assert!(commit_on(&node, "reported").is_err());

    // ...is taken by a round whose scan fails, and covered by the next.
    clock.set(2_000);
    faulty.set_enabled(true);
    assert!(cluster.run_maintenance_round().is_err());
    faulty.set_enabled(false);
    let stats = cluster.run_maintenance_round().unwrap();
    assert_eq!(stats.recovered_commits, 1);
    readable_everywhere(&cluster, "reported");
}
