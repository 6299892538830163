//! Failure injection and recovery: the motivating scenario of §1 and the
//! recovery story of §3.3.1 / §6.7.
//!
//! Run with `cargo run --example failure_recovery`.
//!
//! Three demonstrations:
//!
//! 1. A function that crashes between two writes. Without AFT the partial
//!    update is immediately visible to everyone; with AFT nothing becomes
//!    visible. The client-side history checker grades both runs. A retry after
//!    the body re-runs an acknowledged request, so AFT alone makes delivery
//!    at-least-once, not exactly-once.
//! 2. An AFT node that "fails" after committing: a replacement node
//!    bootstraps from the Transaction Commit Set in storage and serves the
//!    committed data.
//! 3. A whole cluster losing a node under load: the fault manager detects the
//!    failure and a standby joins, while every committed transaction stays
//!    visible.

use std::sync::Arc;

use aft::cluster::{Cluster, ClusterConfig};
use aft::core::{AftNode, NodeConfig};
use aft::faas::FaasChaos;
use aft::faas::{FaasPlatform, PlatformConfig, RetryPolicy};
use aft::storage::{BackendConfig, BackendKind};
use aft::types::Key;
use aft::workload::history::{self, Attempt, FinalRead, History, Recorder};
use aft::workload::{run_closed_loop, AftDriver, PlainDriver, RunConfig, WorkloadConfig};
use bytes::Bytes;

fn main() {
    part1_crash_between_writes();
    part2_node_recovery();
    part3_cluster_failover();
}

/// Functions crash between their writes; compare Plain and AFT.
fn part1_crash_between_writes() {
    println!("== 1. Crashing between two writes of the same request ==");
    let workload = WorkloadConfig::standard()
        .with_keys(64)
        .with_value_size(256);
    // Every third invocation (roughly) is killed somewhere around its body.
    let failures = FaasChaos {
        before_body: 0.05,
        after_body: 0.05,
        mid_body: 0.25,
    };

    // Plain: direct writes, generous retries — anomalies still slip through.
    let storage = aft::storage::make_backend(BackendConfig::test(BackendKind::DynamoDb));
    let platform = FaasPlatform::new(PlatformConfig::test().with_chaos(failures));
    let plain = PlainDriver::new(storage, platform, RetryPolicy::with_attempts(6));
    let plain_result = run_closed_loop(
        &plain,
        &RunConfig::new(workload.clone())
            .with_clients(6)
            .with_requests(80),
    )
    .unwrap();

    // AFT: same workload, same failure plan, every call recorded for the
    // history checker.
    let storage = aft::storage::make_backend(BackendConfig::test(BackendKind::DynamoDb));
    let node = AftNode::new(NodeConfig::default(), storage).unwrap();
    let history = History::new();
    let api = Recorder::wrap(node.clone(), Arc::clone(&history), None);
    let platform = FaasPlatform::new(PlatformConfig::test().with_chaos(failures));
    let aft = AftDriver::from_api(api, platform, RetryPolicy::with_attempts(6));
    let aft_result = run_closed_loop(
        &aft,
        &RunConfig::new(workload).with_clients(6).with_requests(80),
    )
    .unwrap();
    let attempts = history.attempts();
    let final_read = history::read_back(&*node, history::written_keys(&attempts)).unwrap();
    let verdict = history::check(&attempts, &final_read);
    let acked = attempts.iter().filter_map(Attempt::acked).count();

    // The same classes for both runs. How many anomalies Plain shows depends
    // on the interleaving, so only AFT's are asserted.
    let plain_attempts = plain.history().attempts();
    let plain_verdict = history::check(&plain_attempts, &FinalRead::new());
    for (name, done, graded, verdict) in [
        (
            "Plain:",
            plain_result.completed,
            plain_attempts.len(),
            &plain_verdict,
        ),
        ("AFT:  ", aft_result.completed, attempts.len(), &verdict),
    ] {
        println!(
            "   {name} {done} requests completed; the history checker graded {graded} \
             attempts: {} read-your-writes, {} fractured, {} other read anomalies",
            verdict.read_your_writes,
            verdict.fractured_reads,
            verdict.anomalies() - verdict.read_your_writes - verdict.fractured_reads,
        );
    }
    println!("   AFT lost {} acked writes", verdict.lost_acked_writes);
    assert_eq!(verdict.anomalies(), 0);
    assert_eq!(verdict.lost_acked_writes, 0);
    println!("   No partial update became visible, and every acknowledged write survived.");
    println!(
        "   {acked} commits were acknowledged for {} requests and one preload: a retry \
         after the body re-runs an acknowledged request, so delivery is at-least-once.\n",
        aft_result.completed
    );
}

/// A node fails after committing; a replacement bootstraps from storage.
fn part2_node_recovery() {
    println!("== 2. AFT node failure and bootstrap recovery ==");
    let storage = aft::storage::make_backend(BackendConfig::test(BackendKind::DynamoDb));

    let committed_id = {
        let node = AftNode::new(NodeConfig::default(), storage.clone()).unwrap();
        let txn = node.start_transaction();
        node.put(
            &txn,
            Key::new("account:alice"),
            Bytes::from_static(b"balance=100"),
        )
        .unwrap();
        let id = node.commit(&txn).unwrap();
        println!("   node-0 committed {id} and then failed (dropped)");
        id
        // node dropped here: the "failure"
    };

    // The write-ordering protocol means the commit record is durable, so a
    // replacement node warms its metadata cache from storage and serves it.
    let replacement = AftNode::new(
        NodeConfig::default().with_node_id("replacement"),
        storage.clone(),
    )
    .unwrap();
    let txn = replacement.start_transaction();
    let value = replacement
        .get(&txn, &Key::new("account:alice"))
        .unwrap()
        .expect("committed data must survive the node failure");
    println!(
        "   replacement node read {:?} written by {committed_id}",
        String::from_utf8_lossy(&value)
    );
    let commits = storage.list_prefix("commit/").unwrap();
    println!("   commit records in storage: {}\n", commits.len());
}

/// A 3-node cluster loses a node under load and recovers.
fn part3_cluster_failover() {
    println!("== 3. Cluster failover under load ==");
    let storage = aft::storage::make_backend(BackendConfig::test(BackendKind::DynamoDb));
    let cluster = Cluster::new(
        ClusterConfig {
            initial_nodes: 3,
            node_template: NodeConfig::default(),
            replacement_delay: std::time::Duration::from_millis(50),
            ..ClusterConfig::default()
        },
        storage,
    )
    .unwrap();

    // Commit some data through every node, then broadcast.
    for i in 0..30 {
        let node = cluster.route().unwrap();
        let txn = node.start_transaction();
        node.put(
            &txn,
            Key::new(format!("key-{}", i % 10)),
            Bytes::from(format!("v{i}")),
        )
        .unwrap();
        node.commit(&txn).unwrap();
    }
    cluster.run_maintenance_round().unwrap();
    println!(
        "   committed 30 transactions across {} nodes",
        cluster.registry().active_count()
    );

    // Kill a node; the router immediately stops sending requests to it.
    cluster.kill_node("aft-node-1");
    println!(
        "   killed aft-node-1; active nodes: {}",
        cluster.registry().active_count()
    );

    // The fault manager replaces it (simulated container download + warm-up).
    let replaced = cluster.replace_failed_nodes().unwrap();
    println!(
        "   fault manager brought up {replaced} replacement; active nodes: {}",
        cluster.registry().active_count()
    );

    // Every committed value is still readable from every node.
    cluster.run_maintenance_round().unwrap();
    let mut verified = 0;
    for node in cluster.active_nodes() {
        let txn = node.start_transaction();
        for i in 0..10 {
            if node
                .get(&txn, &Key::new(format!("key-{i}")))
                .unwrap()
                .is_some()
            {
                verified += 1;
            }
        }
        node.commit(&txn).unwrap();
    }
    println!("   verified {verified}/30 key reads across the surviving and replacement nodes");
    println!("   no committed data was lost.");
}
