//! Property-based integration test: random multi-node histories with
//! interleaved maintenance (broadcast, local GC, global GC, node replacement)
//! preserve AFT's guarantees, as the history checker grades them.

use std::sync::Arc;

use aft::cluster::{Cluster, ClusterConfig};
use aft::core::NodeConfig;
use aft::storage::InMemoryStore;
use aft::types::clock::TickingClock;
use aft::types::Key;
use aft::workload::history::{self, History, Recorder, Verdict};
use bytes::Bytes;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// Commit a transaction writing `keys` (by index) through node `node % active`.
    Commit { node: usize, keys: Vec<u8> },
    /// Run one maintenance round (broadcast + GC).
    Maintain,
    /// Kill one node and immediately replace it.
    FailOver(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..4usize, proptest::collection::vec(0..6u8, 1..4))
            .prop_map(|(node, keys)| Op::Commit { node, keys }),
        2 => Just(Op::Maintain),
        1 => (0..4usize).prop_map(Op::FailOver),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_cluster_histories_never_lose_committed_data(ops in proptest::collection::vec(arb_op(), 1..60)) {
        let cluster = Cluster::with_clock(
            ClusterConfig {
                initial_nodes: 3,
                node_template: NodeConfig::default(),
                replacement_delay: std::time::Duration::ZERO,
                ..ClusterConfig::default()
            },
            InMemoryStore::shared(),
            TickingClock::shared(1, 1),
        )
        .unwrap();

        let history = History::new();
        let mut counter = 0u64;

        for op in ops {
            match op {
                Op::Commit { node, keys } => {
                    let active = cluster.active_nodes();
                    let node = Arc::clone(&active[node % active.len()]);
                    let node = Recorder::wrap(node, Arc::clone(&history), None);
                    let txn = node.begin().unwrap();
                    for k in keys {
                        counter += 1;
                        let value = Bytes::from(format!("value-{counter}"));
                        node.put(&txn, Key::new(format!("key-{k}")), value).unwrap();
                    }
                    node.commit(&txn, &[]).unwrap();
                }
                Op::Maintain => {
                    cluster.run_maintenance_round().unwrap();
                }
                Op::FailOver(index) => {
                    let active = cluster.active_nodes();
                    let victim = active[index % active.len()].node_id().to_owned();
                    cluster.kill_node(&victim);
                    cluster.replace_failed_nodes().unwrap();
                }
            }
        }

        // After a final maintenance round, every node serves the newest
        // acknowledged write of every key.
        cluster.run_maintenance_round().unwrap();
        let attempts = history.attempts();
        let keys = history::written_keys(&attempts);
        for node in cluster.active_nodes() {
            let final_read = history::read_back(node.as_ref(), keys.clone()).unwrap();
            let verdict = history::check(&attempts, &final_read);
            prop_assert_eq!(verdict, Verdict::default(), "on {}", node.node_id());
        }

        // Every key with a committed value still has at least one live data
        // version in storage (garbage collection may remove superseded
        // versions but never the newest one).
        for key in &keys {
            let versions = cluster
                .storage()
                .list_prefix(&format!("data/{key}/"))
                .unwrap();
            prop_assert!(!versions.is_empty(), "no surviving data version for {}", key);
        }
    }
}
