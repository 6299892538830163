//! Distributed AFT deployments (§4 and §5.2 of the paper).
//!
//! A single AFT node already provides read atomic isolation for the
//! transactions it serves; scaling to many nodes requires nothing on the
//! transaction critical path, because every node may commit data for every
//! key and each transaction's writes land at unique storage keys. What the
//! cluster layer adds is everything *off* the critical path:
//!
//! * [`membership`] — the node registry (the role Kubernetes plays in the
//!   paper's deployment, §4.3): which nodes exist and which are alive.
//! * [`router`] — the stateless round-robin load balancer that assigns each
//!   logical request to one AFT node (§6).
//! * [`dissemination`] — the periodic commit-set multicast between nodes,
//!   with supersedence pruning (§4, §4.1), moved by one batched
//!   convergecast/broadcast sweep over a spanning tree so metadata traffic
//!   scales O(n) instead of the flat exchange's O(n²), with seeded edge-cut
//!   (partition) injection.
//! * [`fault_manager`] — the out-of-band process that receives the unpruned
//!   commit stream, scans the Transaction Commit Set for commits whose
//!   broadcast was lost (liveness, §4.2), detects failed nodes and brings up
//!   replacements (§6.7).
//! * [`global_gc`] — the global data garbage collector, combined with the
//!   fault manager as in §5.2: deletes a transaction's data and commit record,
//!   or one overwritten version of a transaction still live, only once no
//!   node's metadata holds it any more.
//! * [`cluster`] — the orchestrator that wires all of the above together and
//!   optionally drives it with background threads.
//!
//! Node kills are not this crate's: a node's phase hook crashes it at a
//! commit phase when a schedule of `aft_workload::sim` says so, and the
//! registry counts a crashed node failed until a standby replaces it.

pub mod cluster;
pub mod dissemination;
pub mod fault_manager;
pub mod global_gc;
pub mod membership;
pub mod router;

pub use cluster::{Cluster, ClusterConfig};
pub use dissemination::{broadcast_round, BroadcastStats, Disseminator};
pub use fault_manager::{FaultManager, ScanOutcome};
pub use global_gc::{GlobalGc, GlobalGcConfig, GlobalGcOutcome};
pub use membership::{NodeRegistry, NodeState};
pub use router::RoundRobinRouter;

/// Tests of [`broadcast_round`], under the `broadcast::tests` path they have
/// had since a module of that name held the function: the names the suite
/// records for them do not change.
#[cfg(test)]
mod broadcast {
    mod tests {
        use aft_types::Key;
        use bytes::Bytes;

        use crate::dissemination::tests::{cluster_of, commit_on};
        use crate::{broadcast_round, BroadcastStats};

        #[test]
        fn peers_learn_about_remote_commits() {
            let (nodes, _storage) = cluster_of(3);
            let id = commit_on(&nodes[0], "k", "from-node-0");

            // Before the broadcast, node 1 cannot see the commit.
            assert!(!nodes[1].metadata().is_committed(&id));
            let stats = broadcast_round(&nodes, None);
            assert_eq!(stats.drained, 1);
            // `multicast` counts deliveries: one record reaching two peers.
            assert_eq!(stats.multicast, 2);
            assert_eq!(stats.fanout_messages, 2);
            assert_eq!(stats.pruned, 0);
            assert_eq!(stats.duplicates, 0);
            assert!(stats.bytes > 0);
            assert!(nodes[1].metadata().is_committed(&id));
            assert!(nodes[2].metadata().is_committed(&id));

            // And node 1 can now read the data node 0 committed.
            let t = nodes[1].start_transaction();
            let value = nodes[1].get(&t, &Key::new("k")).unwrap().unwrap();
            assert_eq!(value, Bytes::from_static(b"from-node-0"));
        }

        #[test]
        fn superseded_commits_are_pruned_from_the_multicast() {
            let (nodes, _storage) = cluster_of(2);
            // Three successive versions of the same key on node 0, no broadcast in
            // between: the first two are locally superseded by the time the round
            // runs.
            let old1 = commit_on(&nodes[0], "hot", "v1");
            let old2 = commit_on(&nodes[0], "hot", "v2");
            let newest = commit_on(&nodes[0], "hot", "v3");

            let stats = broadcast_round(&nodes, None);
            assert_eq!(stats.drained, 3);
            assert_eq!(stats.pruned, 2);
            // One surviving record delivered to the single peer.
            assert_eq!(stats.multicast, 1);
            assert_eq!(stats.fanout_messages, 1);
            assert!(nodes[1].metadata().is_committed(&newest));
            assert!(!nodes[1].metadata().is_committed(&old1));
            assert!(!nodes[1].metadata().is_committed(&old2));
        }

        #[test]
        fn drained_commits_are_not_rebroadcast() {
            let (nodes, _storage) = cluster_of(2);
            commit_on(&nodes[0], "k", "v");
            let first = broadcast_round(&nodes, None);
            assert_eq!(first.drained, 1);
            let second = broadcast_round(&nodes, None);
            assert_eq!(second.drained, 0);
            assert_eq!(second.multicast, 0);
            assert_eq!(second.fanout_messages, 0);
        }

        #[test]
        fn all_to_all_messages_grow_quadratically() {
            // Every one of the n origins delivers its record to n−1 peers: the
            // flat exchange costs n·(n−1) messages per round — the quadratic
            // cost the spanning-tree sweep exists to remove.
            let (nodes, _storage) = cluster_of(6);
            for (i, node) in nodes.iter().enumerate() {
                commit_on(node, &format!("k{i}"), "v");
            }
            let stats = broadcast_round(&nodes, None);
            assert_eq!(stats.drained, 6);
            assert_eq!(stats.multicast, 6 * 5);
            assert_eq!(stats.fanout_messages, 6 * 5);
        }

        #[test]
        fn stats_merge() {
            let a = BroadcastStats {
                drained: 1,
                multicast: 1,
                pruned: 0,
                fanout_messages: 2,
                bytes: 100,
                duplicates: 1,
                link_drops: 0,
                retried: 0,
            };
            let b = BroadcastStats {
                drained: 4,
                multicast: 2,
                pruned: 2,
                fanout_messages: 3,
                bytes: 50,
                duplicates: 0,
                link_drops: 2,
                retried: 1,
            };
            assert_eq!(
                a.merge(b),
                BroadcastStats {
                    drained: 5,
                    multicast: 3,
                    pruned: 2,
                    fanout_messages: 5,
                    bytes: 150,
                    duplicates: 1,
                    link_drops: 2,
                    retried: 1,
                }
            );
        }
    }
}
