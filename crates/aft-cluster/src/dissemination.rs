//! Commit-set multicast between AFT nodes (§4, §4.1), moved by one
//! convergecast/broadcast sweep over a spanning tree.
//!
//! Nodes commit without coordinating, so each node must learn which
//! transactions its peers have committed before it can serve their data. A
//! background thread on every node periodically gathers the commits made
//! locally since the last round and disseminates them to the peers; the same
//! (unpruned) stream also goes to the fault manager, which provides the
//! liveness backstop if a node dies between acknowledging a commit and
//! broadcasting it (§4.2).
//!
//! The pruning optimisation of §4.1: a transaction that is already locally
//! superseded (Algorithm 2) is omitted from the multicast entirely — for
//! contended workloads this removes most of the metadata traffic.
//!
//! The paper's multicast hands every drained commit record to every peer —
//! origins·(n−1) messages per round, fine at the paper's 3 nodes and
//! quadratic at 100. It stays here only as [`broadcast_round`], the
//! reference the sweep is tested and benchmarked against. A [`Disseminator`]
//! instead places the active nodes, sorted by id, on a 3-ary tree (heap
//! indexing: the parent of position `p` is `(p−1)/3`) and runs one sweep per
//! round: every node batches its own commits with its children's
//! contributions into ONE upward message (leaves first), then the root's
//! aggregate flows back down, each child excluded from what it contributed.
//! A round costs at most 2·(n−1) messages however many nodes committed — at
//! 3 nodes the tree is a star that sends 4 where the flat exchange sends 6 —
//! and every record still reaches every node within the round, so
//! propagation lag stays one interval. Each edge-send counts one message per
//! started 16 KiB of encoded records.
//!
//! Relays forward only records that were *new* to them
//! ([`AftNode::receive_peer_commits`] leaves out duplicates and locally
//! superseded records), which drops stale versions mid-flight — safe
//! because the newest record of a key is never superseded anywhere and
//! therefore always reaches every node.
//!
//! A held batch delays metadata but never loses it. At every edge-send the
//! sending node's phase hook ([`AftNode::holds`]) says whether the batch
//! waits, as over a partitioned link: a schedule's answer, walked or drawn
//! from a seeded edge-cut. A held batch is parked on a retry queue, and the
//! hook is asked again at the start of each later round; once it lets the
//! batch go, the batch is delivered and the records new to its receiver
//! join that node's contribution to the round's sweep. A batch whose
//! receiver was replaced is delivered to every live node instead (dedup
//! absorbs the redundancy).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aft_core::{is_superseded, AftNode};
use aft_types::codec::encoded_commit_record_len;
use aft_types::{TransactionId, TransactionRecord};
use parking_lot::Mutex;

use crate::fault_manager::FaultManager;

/// Spanning-tree arity: every node relays to at most this many children.
const TREE_ARITY: usize = 3;

/// Maximum encoded bytes one message carries; a bigger edge-send counts as
/// one message per started batch.
const BATCH_BYTES: usize = 16 * 1024;

type Records = Vec<Arc<TransactionRecord>>;

/// Statistics from one dissemination round across all nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BroadcastStats {
    /// Commit records drained from the nodes this round.
    pub drained: usize,
    /// Record *deliveries* to peers (records × receivers that got them).
    pub multicast: usize,
    /// Records omitted because the sender already considered them superseded.
    pub pruned: usize,
    /// Node-to-node messages sent (one coalesced batch of at most 16 KiB of
    /// encoded records per message) — the quantity that limits cluster
    /// scale.
    pub fanout_messages: usize,
    /// Encoded commit-record bytes put on the wire.
    pub bytes: u64,
    /// Deliveries the receiver already knew or saw superseded, and
    /// deduplicated (healed retries, replaced-receiver floods).
    pub duplicates: usize,
    /// Deliveries held at their edge and parked for retry.
    pub link_drops: usize,
    /// Parked deliveries let go in a later round (or flooded to every node
    /// when the parked receiver had been replaced).
    pub retried: usize,
}

impl BroadcastStats {
    /// Merges two rounds' statistics.
    pub fn merge(self, other: BroadcastStats) -> BroadcastStats {
        BroadcastStats {
            drained: self.drained + other.drained,
            multicast: self.multicast + other.multicast,
            pruned: self.pruned + other.pruned,
            fanout_messages: self.fanout_messages + other.fanout_messages,
            bytes: self.bytes + other.bytes,
            duplicates: self.duplicates + other.duplicates,
            link_drops: self.link_drops + other.link_drops,
            retried: self.retried + other.retried,
        }
    }
}

/// A held batch, parked until its sender's hook lets it go.
struct RetryEntry {
    sender: Arc<AftNode>,
    receiver: String,
    records: Records,
}

/// The cluster's dissemination engine: drains every node's recent commits
/// each round and moves them through one spanning-tree sweep.
#[derive(Default)]
pub struct Disseminator {
    round: AtomicU64,
    retry: Mutex<Vec<RetryEntry>>,
}

impl Disseminator {
    /// Record deliveries currently held. A recovery loop polls this: a
    /// trial has not converged while metadata is still parked.
    pub fn pending_retries(&self) -> usize {
        self.retry.lock().iter().map(|e| e.records.len()).sum()
    }

    /// Runs one dissemination round over `nodes` — drain, healed retries,
    /// sweep — and returns its statistics.
    pub fn round(
        &self,
        nodes: &[Arc<AftNode>],
        fault_manager: Option<&FaultManager>,
    ) -> BroadcastStats {
        let round = self.round.fetch_add(1, Ordering::Relaxed);
        let mut stats = BroadcastStats::default();
        if nodes.is_empty() {
            return stats;
        }

        // Deterministic positions: sort by (length, id) so "aft-node-10"
        // follows "aft-node-9" and every node computes the same tree.
        let mut by_pos: Vec<&Arc<AftNode>> = nodes.iter().collect();
        by_pos.sort_by_key(|node| (node.node_id().len(), node.node_id()));

        // Drain first so commits arriving during the round go to the next
        // one; the fault manager sees the unpruned stream before anything
        // else touches it (§4.2).
        let mut contrib: Vec<Records> = by_pos
            .iter()
            .map(|node| drain(node, fault_manager, &mut stats))
            .collect();
        self.deliver_retries(round, &by_pos, &mut contrib, &mut stats);
        self.tree_sweep(round, &by_pos, contrib, &mut stats);
        stats
    }

    /// Re-attempts every parked batch ahead of the sweep. A batch its
    /// sender no longer holds is delivered to its receiver, and the records
    /// new there join that node's contribution (`contrib`) to this round's
    /// sweep. A batch whose receiver is gone (the node was replaced) is
    /// delivered to every live node instead — the same role the fault
    /// manager plays for §4.2 — so a hold can delay metadata but never lose
    /// it.
    fn deliver_retries(
        &self,
        round: u64,
        by_pos: &[&Arc<AftNode>],
        contrib: &mut [Records],
        stats: &mut BroadcastStats,
    ) {
        let parked = std::mem::take(&mut *self.retry.lock());
        let mut still_parked = Vec::new();
        for entry in parked {
            match by_pos.iter().position(|n| n.node_id() == entry.receiver) {
                Some(_) if entry.sender.holds(round, &entry.receiver) => {
                    still_parked.push(entry);
                }
                Some(pos) => {
                    stats.retried += entry.records.len();
                    let fresh = deliver(by_pos[pos], &entry.records, stats);
                    contrib[pos].extend(fresh);
                }
                None => {
                    stats.retried += entry.records.len();
                    for receiver in by_pos {
                        deliver(receiver, &entry.records, stats);
                    }
                }
            }
        }
        self.retry.lock().extend(still_parked);
    }

    /// One convergecast/broadcast sweep over the tree: ascending positions
    /// are a topological order (the parent `(p−1)/k` is always below `p`),
    /// so a reverse pass aggregates leaves-to-root — each node sends its own
    /// contribution plus its children's fresh records upward in ONE message
    /// — and a forward pass distributes the root's aggregate back down, each
    /// child excluded from exactly what it sent up. Every record reaches
    /// every node once; a held edge-send parks its whole batch on the retry
    /// queue.
    fn tree_sweep(
        &self,
        round: u64,
        by_pos: &[&Arc<AftNode>],
        mut contrib: Vec<Records>,
        stats: &mut BroadcastStats,
    ) {
        let n = by_pos.len();
        let k = TREE_ARITY;
        // Which transaction ids each child edge carried upward (attempted,
        // fresh or not) — excluded from that child's downcast payload.
        let mut from_child: Vec<HashMap<usize, HashSet<TransactionId>>> = vec![HashMap::new(); n];
        // What each node received from its parent on the way down.
        let mut received_down: Vec<Records> = vec![Vec::new(); n];

        // Upcast, leaves first.
        for p in (1..n).rev() {
            if contrib[p].is_empty() {
                continue;
            }
            let parent = (p - 1) / k;
            let batch = contrib[p].clone();
            let carried = batch.iter().map(|r| r.id).collect();
            if let Some(fresh) = self.send(round, by_pos[p], by_pos[parent], batch, stats) {
                from_child[parent].insert(p, carried);
                contrib[parent].extend(fresh);
            }
        }

        // Downcast, root first.
        for p in 0..n {
            let known: Records = contrib[p]
                .iter()
                .chain(received_down[p].iter())
                .cloned()
                .collect();
            if known.is_empty() {
                continue;
            }
            for child in (k * p + 1)..(k * p + k + 1).min(n) {
                let exclude = from_child[p].get(&child);
                let payload: Records = known
                    .iter()
                    .filter(|record| !exclude.is_some_and(|ids| ids.contains(&record.id)))
                    .cloned()
                    .collect();
                if payload.is_empty() {
                    continue;
                }
                if let Some(fresh) = self.send(round, by_pos[p], by_pos[child], payload, stats) {
                    received_down[child] = fresh;
                }
            }
        }
    }

    /// Sends `records` over the edge `sender → receiver`. A held send parks
    /// the whole batch on the retry queue (`None`); otherwise the batch is
    /// delivered and the records that were new to the receiver returned.
    fn send(
        &self,
        round: u64,
        sender: &Arc<AftNode>,
        receiver: &AftNode,
        records: Records,
        stats: &mut BroadcastStats,
    ) -> Option<Records> {
        if sender.holds(round, receiver.node_id()) {
            stats.link_drops += records.len();
            self.retry.lock().push(RetryEntry {
                sender: Arc::clone(sender),
                receiver: receiver.node_id().to_owned(),
                records,
            });
            return None;
        }
        Some(deliver(receiver, &records, stats))
    }
}

/// Drains `node`'s recent commits — through the fault manager, which sees
/// the unpruned stream and the node's commit floor (§4.2) — and returns the
/// records `node` does not already consider superseded (§4.1).
fn drain(
    node: &Arc<AftNode>,
    fault_manager: Option<&FaultManager>,
    stats: &mut BroadcastStats,
) -> Records {
    let drained = match fault_manager {
        Some(fm) => fm.drain_node(node),
        None => node.drain_recent_commits().records,
    };
    stats.drained += drained.len();
    if drained.is_empty() {
        return drained;
    }
    let count = drained.len();
    let outgoing: Records = drained
        .into_iter()
        .filter(|record| !is_superseded(record, node.metadata()))
        .collect();
    stats.pruned += count - outgoing.len();
    outgoing
}

/// Delivers one edge-send: counts its encoded bytes, one message per started
/// [`BATCH_BYTES`], hands the records to `receiver` in one merge, and returns
/// the ones it did not already know.
fn deliver(
    receiver: &AftNode,
    records: &[Arc<TransactionRecord>],
    stats: &mut BroadcastStats,
) -> Records {
    let bytes: usize = records
        .iter()
        .map(|record| encoded_commit_record_len(record))
        .sum();
    stats.bytes += bytes as u64;
    stats.fanout_messages += bytes.div_ceil(BATCH_BYTES).max(1);
    let fresh = receiver.receive_peer_commits(records);
    stats.multicast += records.len();
    stats.duplicates += records.len() - fresh.len();
    fresh
}

/// Runs one round of the paper's flat §4.2 exchange: every node drains its
/// recent commits, sends the unpruned stream to the fault manager, prunes
/// superseded records, and delivers the rest straight to every *other*
/// node — origins·(n−1) messages.
///
/// This is the reference the sweep is measured against (no holds, no
/// retries); clusters run a [`Disseminator`] instead.
pub fn broadcast_round(
    nodes: &[Arc<AftNode>],
    fault_manager: Option<&FaultManager>,
) -> BroadcastStats {
    let mut stats = BroadcastStats::default();
    let outgoing: Vec<Records> = nodes
        .iter()
        .map(|node| drain(node, fault_manager, &mut stats))
        .collect();
    for (origin, records) in outgoing.iter().enumerate() {
        if records.is_empty() {
            continue;
        }
        for (peer, receiver) in nodes.iter().enumerate() {
            if peer != origin {
                deliver(receiver, records, &mut stats);
            }
        }
    }
    stats
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use aft_core::{CommitPhase, NodeConfig, PhaseHook};
    use aft_storage::{InMemoryStore, SharedStorage};
    use aft_types::clock::TickingClock;
    use aft_types::{AftResult, Key};
    use bytes::Bytes;

    /// Holds the batches its function names by round, sender and receiver.
    #[derive(Debug)]
    struct Holds(fn(u64, &str, &str) -> bool);

    impl PhaseHook for Holds {
        fn at(&self, _: &str, _: CommitPhase) -> AftResult<()> {
            Ok(())
        }

        fn hold(&self, round: u64, sender: &str, receiver: &str) -> bool {
            (self.0)(round, sender, receiver)
        }
    }

    pub(crate) fn cluster_of(n: usize) -> (Vec<Arc<AftNode>>, SharedStorage) {
        holding(n, Holds(|_, _, _| false))
    }

    /// `n` nodes whose every batch `holds` answers.
    fn holding(n: usize, holds: Holds) -> (Vec<Arc<AftNode>>, SharedStorage) {
        let storage: SharedStorage = InMemoryStore::shared();
        let clock = TickingClock::shared(1, 1);
        let hook: Arc<dyn PhaseHook> = Arc::new(holds);
        let nodes = (0..n)
            .map(|i| {
                let config = NodeConfig {
                    phase_hook: Some(Arc::clone(&hook)),
                    ..NodeConfig::test()
                };
                AftNode::with_clock(
                    config.with_node_id(format!("node-{i}")).with_seed(i as u64),
                    storage.clone(),
                    clock.clone(),
                )
                .unwrap()
            })
            .collect();
        (nodes, storage)
    }

    pub(crate) fn commit_on(node: &Arc<AftNode>, key: &str, value: &str) -> TransactionId {
        let t = node.start_transaction();
        node.put(&t, Key::new(key), Bytes::copy_from_slice(value.as_bytes()))
            .unwrap();
        node.commit(&t).unwrap()
    }

    fn commit_everywhere(nodes: &[Arc<AftNode>]) -> Vec<TransactionId> {
        nodes
            .iter()
            .enumerate()
            .map(|(i, node)| commit_on(node, &format!("k{i}"), "v"))
            .collect()
    }

    fn everyone_knows(nodes: &[Arc<AftNode>], ids: &[TransactionId]) {
        for node in nodes {
            for id in ids {
                assert!(
                    node.metadata().is_committed(id),
                    "{} should know {id:?}",
                    node.node_id()
                );
            }
        }
    }

    #[test]
    fn tree_floods_every_node_in_one_round() {
        for n in [2usize, 3, 7, 16, 33] {
            let (nodes, _s) = cluster_of(n);
            let d = Disseminator::default();
            let ids = commit_everywhere(&nodes);
            let stats = d.round(&nodes, None);
            everyone_knows(&nodes, &ids);
            // Every record reaches each of the other n−1 nodes exactly
            // once...
            assert_eq!(stats.multicast, n * (n - 1), "n={n}");
            assert_eq!(stats.duplicates, 0, "the sweep has no redundancy");
            // ...and the convergecast/broadcast sweep spends exactly one
            // upcast per non-root node plus one downcast per edge: 2·(n−1)
            // messages for the whole all-origins round.
            assert_eq!(stats.fanout_messages, 2 * (n - 1), "n={n}");
        }
    }

    #[test]
    fn sweep_sends_fewer_messages_than_all_to_all() {
        let n = 24;
        let (flat_nodes, _s) = cluster_of(n);
        commit_everywhere(&flat_nodes);
        let flat = broadcast_round(&flat_nodes, None);
        let (nodes, _t) = cluster_of(n);
        commit_everywhere(&nodes);
        let sweep = Disseminator::default().round(&nodes, None);
        assert_eq!(flat.fanout_messages, n * (n - 1));
        assert_eq!(sweep.fanout_messages, 2 * (n - 1));
        // Same deliveries, far fewer messages.
        assert_eq!(sweep.multicast, flat.multicast);
    }

    #[test]
    fn batches_coalesce_records_into_few_messages() {
        let (nodes, _s) = cluster_of(2);
        for i in 0..20 {
            commit_on(&nodes[0], &format!("k{i}"), "v");
        }
        // All 20 small records fit one 16 KiB batch: one message.
        let coalesced = Disseminator::default().round(&nodes, None);
        assert_eq!(coalesced.multicast, 20);
        assert_eq!(coalesced.fanout_messages, 1);
        assert!(coalesced.bytes > 0);
    }

    #[test]
    fn partition_parks_deliveries_and_heals_with_zero_loss() {
        // Node-1 relays between the root and three leaves: hold every batch
        // to or from it for rounds [0, 3).
        let (nodes, _s) = holding(
            9,
            Holds(|round, a, b| round < 3 && [a, b].contains(&"node-1")),
        );
        let d = Disseminator::default();
        let ids = commit_everywhere(&nodes);
        let cut_round = d.round(&nodes, None);
        assert!(cut_round.link_drops > 0, "the hold must park something");
        assert!(d.pending_retries() > 0);

        // Rounds 1 and 2 stay held; round 3 is the first past the window.
        // Its parked batches are delivered first and ride that round's
        // sweep, so one healed round is enough.
        let mut healed = BroadcastStats::default();
        for _ in 1..=3 {
            healed = healed.merge(d.round(&nodes, None));
        }
        assert_eq!(d.pending_retries(), 0, "heal must drain the retry queues");
        assert!(healed.retried > 0);
        everyone_knows(&nodes, &ids);
    }

    #[test]
    fn parked_batches_for_a_replaced_node_flood_everyone() {
        // Four nodes are a star: node-0 → node-1, node-2, node-3. Hold
        // everything for one round so the root parks its downcasts.
        let (nodes, storage) = holding(4, Holds(|round, _, _| round < 1));
        let d = Disseminator::default();
        let id = commit_on(&nodes[0], "k", "v");
        d.round(&nodes, None);
        assert!(d.pending_retries() > 0);

        // Replace node-1 (a parked receiver) with a fresh identity before
        // the heal: the orphaned batch must flood the survivors instead.
        let clock = TickingClock::shared(1, 1);
        let replacement = AftNode::with_clock(
            NodeConfig::test().with_node_id("node-9"),
            storage.clone(),
            clock,
        )
        .unwrap();
        let mut survivors: Vec<Arc<AftNode>> = vec![
            Arc::clone(&nodes[0]),
            replacement,
            Arc::clone(&nodes[2]),
            Arc::clone(&nodes[3]),
        ];
        let stats = d.round(&survivors, None);
        assert!(stats.retried > 0);
        assert_eq!(d.pending_retries(), 0);
        survivors.remove(0); // origin knew it all along
        everyone_knows(&survivors, &[id]);
    }

    #[test]
    fn relays_prune_superseded_records_mid_flight() {
        let (nodes, _s) = cluster_of(8);
        let d = Disseminator::default();
        // Two versions of one key from different origins: after the flood,
        // every node agrees on the newer version, and the superseded one is
        // not re-flooded by relays that already saw the newer.
        let _old = commit_on(&nodes[0], "hot", "v1");
        let new = commit_on(&nodes[1], "hot", "v2");
        d.round(&nodes, None);
        for node in &nodes {
            assert!(node.metadata().is_committed(&new));
            assert_eq!(
                node.metadata().latest_version_of(&Key::new("hot")).unwrap(),
                new,
                "{} must resolve to the newest version",
                node.node_id()
            );
        }
    }
}
