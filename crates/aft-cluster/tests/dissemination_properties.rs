//! Property tests for commit-metadata dissemination.
//!
//! The claim the spanning-tree sweep makes: it is a *pure transport* — for
//! any interleaving of commits and rounds, every node converges to the same
//! committed state the paper's flat exchange (`broadcast_round`) produces
//! (modulo §4.1 supersedence, which is a property of the metadata cache, not
//! the transport), and receiver-side dedup keeps re-deliveries idempotent.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use aft_cluster::{broadcast_round, Disseminator};
use aft_core::{AftNode, NodeConfig};
use aft_storage::{InMemoryStore, SharedStorage};
use aft_types::clock::TickingClock;
use aft_types::{Key, TransactionId};
use bytes::Bytes;
use proptest::prelude::*;

fn cluster_of(n: usize) -> Vec<Arc<AftNode>> {
    let storage: SharedStorage = InMemoryStore::shared();
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

fn commit_on(node: &Arc<AftNode>, key: &str) -> TransactionId {
    let t = node.start_transaction();
    node.put(&t, Key::new(key), Bytes::from_static(b"v"))
        .unwrap();
    node.commit(&t).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For an arbitrary script of commits interleaved with dissemination
    /// rounds, run once through the sweep and once through the flat
    /// reference on two clusters: every node resolves every key to the same
    /// script commit in both, and knows every commit — either directly
    /// committed, or legitimately superseded by a newer version of the same
    /// key (§4.1).
    #[test]
    fn sweep_converges_like_broadcast_round(
        n in 2usize..12,
        script in proptest::collection::vec(
            proptest::collection::vec((any::<usize>(), 0usize..6), 0..5),
            1..4,
        ),
    ) {
        let clusters = [cluster_of(n), cluster_of(n)];
        let d = Disseminator::default();
        // Per cluster, the ids in script order, and each id's key.
        let mut issued: [Vec<(TransactionId, usize)>; 2] = [Vec::new(), Vec::new()];
        for batch in &script {
            for &(node_pick, key_pick) in batch {
                for (nodes, ids) in clusters.iter().zip(&mut issued) {
                    ids.push((commit_on(&nodes[node_pick % n], &format!("k{key_pick}")), key_pick));
                }
            }
            d.round(&clusters[0], None);
            broadcast_round(&clusters[1], None);
        }
        let mut resolved: [Vec<Option<usize>>; 2] = [Vec::new(), Vec::new()];
        for ((nodes, ids), resolved) in clusters.iter().zip(&issued).zip(&mut resolved) {
            let position: HashMap<TransactionId, usize> =
                ids.iter().enumerate().map(|(i, &(id, _))| (id, i)).collect();
            // The winner of each key is its newest id.
            let mut winner: HashMap<usize, TransactionId> = HashMap::new();
            for &(id, key_pick) in ids {
                winner.entry(key_pick).and_modify(|w| *w = (*w).max(id)).or_insert(id);
            }
            for node in nodes {
                for key_pick in 0..6 {
                    let latest = node.metadata().latest_version_of(&Key::new(format!("k{key_pick}")));
                    prop_assert_eq!(latest, winner.get(&key_pick).copied(), "{}", node.node_id());
                    resolved.push(latest.map(|id| position[&id]));
                }
                for &(id, key_pick) in ids {
                    prop_assert!(
                        node.metadata().is_committed(&id) || winner[&key_pick] > id,
                        "{}: commit {:?} neither applied nor superseded",
                        node.node_id(), id
                    );
                }
            }
        }
        prop_assert_eq!(&resolved[0], &resolved[1], "the sweep must resolve keys like the flat reference");
    }

    /// Receiver-side dedup is idempotent: across an arbitrary sequence of
    /// (possibly repeated, possibly partial) deliveries of the same record
    /// set, each node fresh-applies a record exactly once — the fresh count
    /// equals the first-seen count, and everything else is absorbed. This
    /// is what lets retry floods over-deliver safely.
    #[test]
    fn repeated_deliveries_never_double_apply(
        n in 2usize..8,
        records_count in 1usize..10,
        deliveries in proptest::collection::vec(
            (any::<usize>(), any::<usize>(), any::<usize>()),
            1..40,
        ),
    ) {
        let nodes = cluster_of(n);
        for i in 0..records_count {
            commit_on(&nodes[0], &format!("k{i}"));
        }
        let records = nodes[0].drain_recent_commits().records;
        prop_assert_eq!(records.len(), records_count);

        // node 0 originated everything; it can never fresh-apply its own.
        let mut seen: Vec<HashSet<TransactionId>> = vec![HashSet::new(); n];
        seen[0] = records.iter().map(|r| r.id).collect();

        for (node_pick, start, len) in deliveries {
            let target = node_pick % n;
            let start = start % records.len();
            let slice = &records[start..records.len().min(start + 1 + len % records.len())];
            let expected_fresh = slice
                .iter()
                .filter(|r| seen[target].insert(r.id))
                .count();
            let fresh = nodes[target].receive_peer_commits(slice).len();
            prop_assert_eq!(fresh, expected_fresh);
        }
        // A full re-delivery to every node is now a pure no-op wherever the
        // set is already complete.
        for (i, node) in nodes.iter().enumerate() {
            let missing = records.len() - seen[i].len();
            prop_assert_eq!(
                node.receive_peer_commits(&records).len(),
                missing
            );
        }
    }
}
