//! Integration tests for fault recovery (§3.3.1, §4.2, §6.7) and garbage
//! collection (§5) across the whole stack.

use std::sync::Arc;

use aft::cluster::{broadcast_round, Cluster, ClusterConfig, FaultManager, GlobalGc};
use aft::core::{AftNode, NodeConfig};
use aft::storage::io::{IoConfig, IoEngine};
use aft::storage::{BackendConfig, BackendKind, InMemoryStore, SharedStorage};
use aft::types::clock::TickingClock;
use aft::types::{AftError, Key};
use aft::workload::sim::held_versions;
use bytes::Bytes;

fn node_over(storage: SharedStorage, id: &str) -> Arc<AftNode> {
    AftNode::with_clock(
        NodeConfig::default().with_node_id(id),
        storage,
        TickingClock::shared(1, 1),
    )
    .unwrap()
}

#[test]
fn committed_data_survives_total_node_loss() {
    let storage: SharedStorage = InMemoryStore::shared();
    {
        let node = node_over(storage.clone(), "original");
        for i in 0..20 {
            let t = node.start_transaction();
            node.put(
                &t,
                Key::new(format!("durable-{i}")),
                Bytes::from(format!("v{i}")),
            )
            .unwrap();
            node.commit(&t).unwrap();
        }
        // The node and every cache die here.
    }
    let replacement = node_over(storage, "replacement");
    let t = replacement.start_transaction();
    for i in 0..20 {
        assert_eq!(
            replacement
                .get(&t, &Key::new(format!("durable-{i}")))
                .unwrap()
                .unwrap(),
            Bytes::from(format!("v{i}"))
        );
    }
    replacement.commit(&t).unwrap();
}

#[test]
fn uncommitted_work_is_lost_on_node_failure_and_clients_retry() {
    let storage: SharedStorage = InMemoryStore::shared();
    let in_flight_txn;
    {
        let node = node_over(storage.clone(), "doomed");
        let t = node.start_transaction();
        node.put(&t, Key::new("half-done"), Bytes::from_static(b"x"))
            .unwrap();
        in_flight_txn = t;
        // Node fails before commit.
    }
    let replacement = node_over(storage, "replacement");
    // The replacement knows nothing about the in-flight transaction; the
    // client's retry gets UnknownTransaction and must redo the request.
    let err = replacement
        .put(
            &in_flight_txn,
            Key::new("half-done"),
            Bytes::from_static(b"y"),
        )
        .unwrap_err();
    assert!(matches!(err, AftError::UnknownTransaction(_)));
    // And nothing of the half-done work is visible.
    let t = replacement.start_transaction();
    assert!(replacement
        .get(&t, &Key::new("half-done"))
        .unwrap()
        .is_none());
}

#[test]
fn fault_manager_recovers_commits_lost_before_broadcast() {
    let storage: SharedStorage = InMemoryStore::shared();
    let clock = TickingClock::shared(1, 1);
    let make = |id: &str| {
        AftNode::with_clock(
            NodeConfig::default().with_node_id(id),
            storage.clone(),
            clock.clone(),
        )
        .unwrap()
    };
    let dying = make("dying");
    let survivor_a = make("survivor-a");
    let survivor_b = make("survivor-b");

    // The dying node commits and acknowledges but never broadcasts.
    let t = dying.start_transaction();
    dying
        .put(&t, Key::new("acked"), Bytes::from_static(b"important"))
        .unwrap();
    dying.commit(&t).unwrap();
    drop(dying);

    // Liveness (§4.2): the fault manager scans the commit set and tells the
    // survivors, so the acknowledged data becomes visible.
    let fm = FaultManager::new();
    let io = IoEngine::new(storage.clone(), IoConfig::pipelined());
    let survivors = vec![Arc::clone(&survivor_a), Arc::clone(&survivor_b)];
    let recovered = fm.scan_commit_set(&io, &survivors).unwrap().recovered;
    assert_eq!(recovered, 1);
    for node in &survivors {
        let t = node.start_transaction();
        assert_eq!(
            node.get(&t, &Key::new("acked")).unwrap().unwrap(),
            Bytes::from_static(b"important")
        );
        node.commit(&t).unwrap();
    }
}

#[test]
fn global_gc_reclaims_superseded_versions_without_losing_the_latest() {
    let storage: SharedStorage = InMemoryStore::shared();
    let clock = TickingClock::shared(1, 1);
    let nodes: Vec<Arc<AftNode>> = (0..2)
        .map(|i| {
            AftNode::with_clock(
                NodeConfig::default().with_node_id(format!("n{i}")),
                storage.clone(),
                clock.clone(),
            )
            .unwrap()
        })
        .collect();
    let fm = FaultManager::new();
    let gc = GlobalGc::default();

    // 50 versions of 5 hot keys, interleaved across both nodes.
    let mut committed = Vec::new();
    for i in 0..50u32 {
        let node = &nodes[(i % 2) as usize];
        let t = node.start_transaction();
        node.put(
            &t,
            Key::new(format!("hot-{}", i % 5)),
            Bytes::from(format!("v{i}")),
        )
        .unwrap();
        committed.push(node.commit(&t).unwrap());
    }
    broadcast_round(&nodes, Some(&fm));
    for node in &nodes {
        node.run_local_gc();
    }
    let io = IoEngine::new(storage.clone(), IoConfig::pipelined());
    let outcome = gc.run_round(&fm, &nodes, &io).unwrap();
    assert!(
        outcome.deleted >= 40,
        "most superseded versions deleted, got {outcome:?}"
    );

    // Exactly one live version per key remains in storage. These one-key
    // commits are inline, so storage holds each version in its record and
    // has no `data/` keys.
    let remaining = held_versions(&storage);
    assert_eq!(
        remaining.len(),
        5,
        "one surviving version per hot key: {remaining:?}"
    );
    assert!(storage.list_prefix("data/").unwrap().is_empty());

    // A node that bootstraps now replays only what the GC left: the five
    // newest writers, each one committed (§5.2 bounds recovery, and loses
    // and invents nothing).
    let fresh = node_over(storage.clone(), "fresh");
    let records = fresh.metadata().all_records();
    let mut loaded: Vec<_> = records.iter().map(|record| record.id).collect();
    loaded.sort_unstable();
    assert_eq!(loaded, committed[45..], "exactly the five survivors");

    // And every key still reads its newest value on every node, the fresh
    // one too.
    for node in nodes.iter().chain([&fresh]) {
        let t = node.start_transaction();
        for k in 0..5u32 {
            let value = node
                .get(&t, &Key::new(format!("hot-{k}")))
                .unwrap()
                .unwrap();
            let expected = format!("v{}", 45 + k); // last writer of hot-k
            assert_eq!(value, Bytes::from(expected));
        }
        node.commit(&t).unwrap();
    }
}

#[test]
fn cluster_failover_preserves_all_committed_data_under_load() {
    let storage = aft::storage::make_backend(BackendConfig::test(BackendKind::DynamoDb));
    let cluster = Cluster::with_clock(
        ClusterConfig {
            initial_nodes: 4,
            node_template: NodeConfig::default(),
            replacement_delay: std::time::Duration::ZERO,
            ..ClusterConfig::default()
        },
        storage,
        TickingClock::shared(1, 1),
    )
    .unwrap();

    // Commit 100 transactions spread over the cluster.
    for i in 0..100u32 {
        let node = cluster.route().unwrap();
        let t = node.start_transaction();
        node.put(
            &t,
            Key::new(format!("key-{}", i % 25)),
            Bytes::from(format!("v{i}")),
        )
        .unwrap();
        node.commit(&t).unwrap();
    }
    cluster.run_maintenance_round().unwrap();

    // Kill two nodes and replace them.
    cluster.kill_node("aft-node-0");
    cluster.kill_node("aft-node-2");
    assert_eq!(cluster.registry().active_count(), 2);
    assert_eq!(cluster.replace_failed_nodes().unwrap(), 2);
    assert_eq!(cluster.registry().active_count(), 4);
    cluster.run_maintenance_round().unwrap();

    // Every key is readable from every (old or replacement) node.
    for node in cluster.active_nodes() {
        let t = node.start_transaction();
        for k in 0..25u32 {
            assert!(
                node.get(&t, &Key::new(format!("key-{k}")))
                    .unwrap()
                    .is_some(),
                "key-{k} missing on {}",
                node.node_id()
            );
        }
        node.commit(&t).unwrap();
    }
}
