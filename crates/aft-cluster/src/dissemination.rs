//! Commit-set multicast between AFT nodes (§4, §4.1) and its pluggable
//! topologies (§4.2 at scale).
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
//! O(n²) messages per round, fine at the paper's 3 nodes and quadratic death
//! at 100. This module generalises the broadcast into a [`Disseminator`]
//! with three interchangeable topologies behind one
//! [`DisseminationConfig`]:
//!
//! * **All-to-all** — the paper's §4.2 behaviour, kept as the baseline:
//!   every origin sends its batch directly to every peer (n·(n−1) messages
//!   per all-origins round).
//! * **Tree** — a k-ary spanning tree over the deterministically sorted
//!   active nodes (heap indexing: the parent of position `p` is `(p−1)/k`).
//!   Each round runs one convergecast/broadcast sweep: every node batches
//!   its own commits with its children's contributions into ONE upward
//!   message (leaves first), then the root's aggregate flows back down,
//!   each child excluded from what it contributed. The whole round costs
//!   at most 2·(n−1) messages *no matter how many nodes committed* — the
//!   flat baseline pays origins·(n−1).
//! * **Gossip** — seeded epidemic push: every node that learns a fresh
//!   record forwards it to its ring successor plus `fanout − 1` seeded
//!   random peers and then goes quiet for that record (infect-and-die).
//!   The ring edge makes coverage deterministic — the infected set is
//!   closed under ring succession, so one round always reaches every node —
//!   while the random edges keep path diversity under partitions.
//!
//! Relays forward inside the same maintenance round (store-and-forward is
//! microseconds against a 1 s dissemination interval), so propagation lag
//! stays ≈ one interval for every topology while the *message* count —
//! what actually limits cluster scale — drops from O(n²) to O(n). Each
//! node-to-node send coalesces its records into batches of at most
//! [`DisseminationConfig::batch_bytes`] encoded bytes, and each batch is
//! one counted message.
//!
//! Two invariants survive every topology:
//!
//! * The fault manager still observes the *unpruned* firehose at drain time
//!   (§4.2's liveness backstop), before any topology, pruning, or partition
//!   can thin the stream.
//! * A [partitioned](Disseminator::arm_partition) edge delays metadata but
//!   never loses it: cut deliveries park in per-edge retry queues and
//!   re-enter the cascade when the partition heals; queues whose receiver
//!   was replaced are drained by delivering to every live node (dedup
//!   absorbs the redundancy).
//!
//! Relay-side pruning is free: a relay only forwards records that were
//! *new* to it ([`AftNode::receive_peer_commit`] returns `false` for
//! duplicates and locally superseded records), which both terminates the
//! flood and drops stale versions mid-flight — safe because the newest
//! record of a key is never superseded anywhere and therefore always
//! floods the full graph.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aft_chaos::FaultSchedule;
use aft_core::{is_superseded, AftNode};
use aft_types::codec::encode_commit_record;
use aft_types::{TransactionId, TransactionRecord};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fault_manager::FaultManager;

/// Salt for the gossip target stream (decorrelates target selection from
/// every other consumer of the cluster seed).
const GOSSIP_SALT: u64 = 0x6055_1000_7A26_E75B;

/// How commit metadata moves between nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Every origin sends to every peer directly (§4.2 baseline).
    AllToAll,
    /// Flood along a k-ary spanning tree (k = `fanout`); n−1 edge
    /// crossings per record.
    Tree,
    /// Epidemic push to the ring successor plus `fanout − 1` seeded random
    /// peers; duplicates dedup at the receiver (infect-and-die).
    Gossip,
}

impl Topology {
    /// Every topology, in report order.
    pub const ALL: [Topology; 3] = [Topology::AllToAll, Topology::Tree, Topology::Gossip];

    /// A short label for reports and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            Topology::AllToAll => "all_to_all",
            Topology::Tree => "tree",
            Topology::Gossip => "gossip",
        }
    }

    /// Parses a [`Topology::label`].
    pub fn from_label(label: &str) -> Option<Topology> {
        Topology::ALL.into_iter().find(|t| t.label() == label)
    }
}

/// The one knob set for commit-metadata dissemination, selected from
/// `ClusterConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisseminationConfig {
    /// The dissemination topology.
    pub topology: Topology,
    /// Tree arity, or gossip push targets per fresh batch (ignored by
    /// all-to-all).
    pub fanout: usize,
    /// Maximum encoded bytes coalesced into one message; a bigger batch is
    /// split and each piece counted as its own message.
    pub batch_bytes: usize,
    /// How often the background loop runs a dissemination round (paper:
    /// 1 s). Slept on the *cluster clock*, so virtual-clock deployments run
    /// rounds at simulation speed.
    pub interval: Duration,
}

impl Default for DisseminationConfig {
    fn default() -> Self {
        DisseminationConfig {
            topology: Topology::AllToAll,
            fanout: 3,
            batch_bytes: 16 * 1024,
            interval: Duration::from_secs(1),
        }
    }
}

impl DisseminationConfig {
    /// The paper's flat broadcast (the default).
    pub fn all_to_all() -> Self {
        DisseminationConfig::default()
    }

    /// A k-ary spanning-tree relay.
    pub fn tree(fanout: usize) -> Self {
        DisseminationConfig {
            topology: Topology::Tree,
            fanout: fanout.max(1),
            ..DisseminationConfig::default()
        }
    }

    /// Epidemic gossip with `fanout` push targets.
    pub fn gossip(fanout: usize) -> Self {
        DisseminationConfig {
            topology: Topology::Gossip,
            fanout: fanout.max(1),
            ..DisseminationConfig::default()
        }
    }

    /// Sets the round interval.
    pub fn with_interval(mut self, interval: Duration) -> Self {
        self.interval = interval;
        self
    }

    /// Sets the per-message batch budget.
    pub fn with_batch_bytes(mut self, batch_bytes: usize) -> Self {
        self.batch_bytes = batch_bytes.max(1);
        self
    }
}

/// Statistics from one dissemination round across all nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BroadcastStats {
    /// Commit records drained from the nodes this round.
    pub drained: usize,
    /// Record *deliveries* to peers (records × receivers that got them).
    pub multicast: usize,
    /// Records omitted because the sender already considered them superseded.
    pub pruned: usize,
    /// Node-to-node messages sent (one coalesced batch of at most
    /// `batch_bytes` encoded bytes per message) — the quantity that limits
    /// cluster scale.
    pub fanout_messages: usize,
    /// Encoded commit-record bytes put on the wire.
    pub bytes: u64,
    /// Deliveries the receiver already knew and deduplicated (gossip
    /// redundancy, retry floods).
    pub duplicates: usize,
    /// Deliveries dropped on a partitioned edge and parked for retry.
    pub link_drops: usize,
    /// Parked deliveries drained after an edge healed (or flooded to every
    /// node when the parked receiver had been replaced).
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

/// A batch parked on a cut edge, waiting for the partition to heal.
#[derive(Debug)]
struct RetryEntry {
    sender: String,
    receiver: String,
    records: Vec<Arc<TransactionRecord>>,
}

/// An armed partition: the seeded edge-cut schedule plus the round at which
/// it was armed (cut windows are relative to arming, so a spec partitions
/// the *next* rounds regardless of how many rounds already ran).
#[derive(Debug)]
struct ArmedPartition {
    schedule: FaultSchedule,
    base_round: u64,
}

/// One batch mid-flood: `holder` has applied (or originated) `records` and
/// owes them to its topology neighbours; `from` is the tree edge the batch
/// arrived on (excluded when forwarding).
struct CascadeItem {
    holder: usize,
    from: Option<usize>,
    records: Vec<Arc<TransactionRecord>>,
}

/// The cluster's dissemination engine: drains every node's recent commits
/// each round and moves them through the configured [`Topology`].
#[derive(Debug)]
pub struct Disseminator {
    config: DisseminationConfig,
    seed: u64,
    round: AtomicU64,
    partition: Mutex<Option<ArmedPartition>>,
    retry: Mutex<Vec<RetryEntry>>,
    totals: Mutex<BroadcastStats>,
}

impl Disseminator {
    /// A disseminator over `config`; `seed` steers gossip target selection.
    pub fn new(config: DisseminationConfig, seed: u64) -> Self {
        Disseminator {
            config,
            seed,
            round: AtomicU64::new(0),
            partition: Mutex::new(None),
            retry: Mutex::new(Vec::new()),
            totals: Mutex::new(BroadcastStats::default()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> DisseminationConfig {
        self.config
    }

    /// Rounds run so far.
    pub fn rounds(&self) -> u64 {
        self.round.load(Ordering::Relaxed)
    }

    /// Statistics accumulated over every round since construction.
    pub fn totals(&self) -> BroadcastStats {
        *self.totals.lock()
    }

    /// Record deliveries currently parked on cut edges. Recovery drivers
    /// poll this: a trial has not converged while metadata is still parked.
    pub fn pending_retries(&self) -> usize {
        self.retry.lock().iter().map(|e| e.records.len()).sum()
    }

    /// Arms a seeded edge-cut schedule. Cut windows count rounds from *now*
    /// (the schedule's `[from_round, to_round)` is relative to arming).
    pub fn arm_partition(&self, schedule: FaultSchedule) {
        *self.partition.lock() = Some(ArmedPartition {
            schedule,
            base_round: self.round.load(Ordering::Relaxed),
        });
    }

    fn is_cut(&self, round: u64, a: &str, b: &str) -> bool {
        let guard = self.partition.lock();
        match guard.as_ref() {
            Some(p) => p
                .schedule
                .edge_cut(round.saturating_sub(p.base_round), a, b),
            None => false,
        }
    }

    /// Runs one dissemination round over `nodes` and returns its statistics
    /// (also folded into [`Disseminator::totals`]).
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
        // follows "aft-node-9" and every node computes the same tree/ring.
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        order.sort_by(|&a, &b| {
            let (ida, idb) = (nodes[a].node_id(), nodes[b].node_id());
            (ida.len(), ida).cmp(&(idb.len(), idb))
        });
        let by_pos: Vec<Arc<AftNode>> = order.into_iter().map(|i| Arc::clone(&nodes[i])).collect();
        let pos_of: HashMap<String, usize> = by_pos
            .iter()
            .enumerate()
            .map(|(pos, node)| (node.node_id().to_owned(), pos))
            .collect();

        let mut cascade: Vec<CascadeItem> = Vec::new();

        // Drain first so commits arriving during the round go to the next
        // one; the fault manager sees the unpruned stream before anything
        // else touches it (§4.2).
        for (pos, node) in by_pos.iter().enumerate() {
            let drained = node.drain_recent_commits();
            stats.drained += drained.len();
            if drained.is_empty() {
                continue;
            }
            if let Some(fm) = fault_manager {
                fm.observe_commits(drained.iter().cloned());
            }
            let outgoing: Vec<Arc<TransactionRecord>> = drained
                .into_iter()
                .filter(|record| {
                    let superseded = is_superseded(record, node.metadata());
                    if superseded {
                        stats.pruned += 1;
                    }
                    !superseded
                })
                .collect();
            if !outgoing.is_empty() {
                cascade.push(CascadeItem {
                    holder: pos,
                    from: None,
                    records: outgoing,
                });
            }
        }

        // The tree topology moves the drained seeds through one
        // convergecast/broadcast sweep — 2·(n−1) messages total. The seeds
        // are consumed here; what remains in `cascade` afterwards is only
        // healed retry re-injections, which take the generic flood below.
        if self.config.topology == Topology::Tree {
            let seeds = std::mem::take(&mut cascade);
            self.tree_sweep(round, &by_pos, seeds, &mut stats);
        }

        self.drain_retries(round, &by_pos, &pos_of, &mut cascade, &mut stats);

        // Cascade to quiescence in waves: each wave, every holder coalesces
        // all the batches it owes a given edge into ONE send, so a message
        // carries every record crossing that edge this wave (this is where
        // tree/gossip beat all-to-all on message count, not just on batch
        // size). Relays forward only records that were new to them, so each
        // record triggers at most one forward per node and the waves drain.
        let mut wave = cascade;
        while !wave.is_empty() {
            let mut sends: Vec<(usize, usize, Vec<Arc<TransactionRecord>>)> = Vec::new();
            let mut edge_slot: HashMap<(usize, usize), usize> = HashMap::new();
            for item in &wave {
                for target in self.targets(round, item.holder, item.from, by_pos.len()) {
                    let slot = *edge_slot.entry((item.holder, target)).or_insert_with(|| {
                        sends.push((item.holder, target, Vec::new()));
                        sends.len() - 1
                    });
                    sends[slot].2.extend(item.records.iter().cloned());
                }
            }
            let mut next = Vec::new();
            for (sender, target, records) in sends {
                let (from, to) = (&by_pos[sender], &by_pos[target]);
                if let Some(fresh) = self.send(round, from, to, records, &mut stats) {
                    self.relay(&mut next, target, Some(sender), fresh);
                }
            }
            wave = next;
        }

        let mut totals = self.totals.lock();
        *totals = totals.merge(stats);
        stats
    }

    /// One convergecast/broadcast sweep over the k-ary tree: ascending
    /// positions are a topological order (the parent `(p−1)/k` is always
    /// below `p`), so a reverse pass aggregates leaves-to-root — each node
    /// sends its own drains plus its children's fresh contributions upward
    /// in ONE message — and a forward pass distributes the root's aggregate
    /// back down, each child excluded from exactly what it sent up. Every
    /// record reaches every node once; cut edges park their whole batch on
    /// the retry queue.
    fn tree_sweep(
        &self,
        round: u64,
        by_pos: &[Arc<AftNode>],
        seeds: Vec<CascadeItem>,
        stats: &mut BroadcastStats,
    ) {
        let n = by_pos.len();
        if n <= 1 {
            return;
        }
        let k = self.config.fanout.max(1);
        // What each node announces upward: its own drains, then fresh
        // records its children pushed up.
        let mut contrib: Vec<Vec<Arc<TransactionRecord>>> = vec![Vec::new(); n];
        for seed in seeds {
            contrib[seed.holder].extend(seed.records);
        }
        // Which transaction ids each child edge carried upward (attempted,
        // fresh or not) — excluded from that child's downcast payload.
        let mut from_child: Vec<HashMap<usize, HashSet<TransactionId>>> = vec![HashMap::new(); n];
        // What each node received from its parent on the way down.
        let mut received_down: Vec<Vec<Arc<TransactionRecord>>> = vec![Vec::new(); n];

        // Upcast, leaves first.
        for p in (1..n).rev() {
            if contrib[p].is_empty() {
                continue;
            }
            let parent = (p - 1) / k;
            let batch = contrib[p].clone();
            let carried = batch.iter().map(|r| r.id).collect();
            if let Some(fresh) = self.send(round, &by_pos[p], &by_pos[parent], batch, stats) {
                from_child[parent].insert(p, carried);
                contrib[parent].extend(fresh);
            }
        }

        // Downcast, root first.
        for p in 0..n {
            let known: Vec<Arc<TransactionRecord>> = contrib[p]
                .iter()
                .chain(received_down[p].iter())
                .cloned()
                .collect();
            if known.is_empty() {
                continue;
            }
            for child in (k * p + 1)..=(k * p + k) {
                if child >= n {
                    break;
                }
                let exclude = from_child[p].get(&child);
                let payload: Vec<Arc<TransactionRecord>> = known
                    .iter()
                    .filter(|record| !exclude.is_some_and(|ids| ids.contains(&record.id)))
                    .cloned()
                    .collect();
                if payload.is_empty() {
                    continue;
                }
                if let Some(fresh) = self.send(round, &by_pos[p], &by_pos[child], payload, stats) {
                    received_down[child] = fresh;
                }
            }
        }
    }

    /// The positions `holder` owes a batch to this round.
    fn targets(&self, round: u64, holder: usize, from: Option<usize>, n: usize) -> Vec<usize> {
        if n <= 1 {
            return Vec::new();
        }
        match self.config.topology {
            Topology::AllToAll => (0..n).filter(|&p| p != holder).collect(),
            Topology::Tree => {
                let k = self.config.fanout.max(1);
                let mut neighbours = Vec::with_capacity(k + 1);
                if holder > 0 {
                    neighbours.push((holder - 1) / k);
                }
                for child in (k * holder + 1)..=(k * holder + k) {
                    if child < n {
                        neighbours.push(child);
                    }
                }
                neighbours.retain(|&p| Some(p) != from);
                neighbours
            }
            Topology::Gossip => {
                let fanout = self.config.fanout.max(1).min(n - 1);
                let mut targets = vec![(holder + 1) % n];
                let stream = (self.seed ^ GOSSIP_SALT)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(
                        (round ^ (holder as u64).rotate_left(32))
                            .wrapping_mul(0xBF58_476D_1CE4_E5B9),
                    );
                let mut rng = StdRng::seed_from_u64(stream);
                while targets.len() < fanout {
                    let pick = rng.gen_range(0..n);
                    if pick != holder && !targets.contains(&pick) {
                        targets.push(pick);
                    }
                }
                targets
            }
        }
    }

    /// Sends `records` over the edge `sender → receiver`. A cut edge parks
    /// the whole batch on the retry queue (`None`); otherwise the batch is
    /// delivered and the records that were new to the receiver returned.
    fn send(
        &self,
        round: u64,
        sender: &AftNode,
        receiver: &AftNode,
        records: Vec<Arc<TransactionRecord>>,
        stats: &mut BroadcastStats,
    ) -> Option<Vec<Arc<TransactionRecord>>> {
        if self.is_cut(round, sender.node_id(), receiver.node_id()) {
            stats.link_drops += records.len();
            self.retry.lock().push(RetryEntry {
                sender: sender.node_id().to_owned(),
                receiver: receiver.node_id().to_owned(),
                records,
            });
            return None;
        }
        Some(self.deliver(receiver, &records, stats))
    }

    /// Delivers one edge-send: counts its encoded bytes, split into messages
    /// of at most `batch_bytes` each, hands every record to `receiver`, and
    /// returns the ones it did not already know.
    fn deliver(
        &self,
        receiver: &AftNode,
        records: &[Arc<TransactionRecord>],
        stats: &mut BroadcastStats,
    ) -> Vec<Arc<TransactionRecord>> {
        let bytes: usize = records
            .iter()
            .map(|record| encode_commit_record(record).len())
            .sum();
        stats.bytes += bytes as u64;
        stats.fanout_messages += bytes.div_ceil(self.config.batch_bytes.max(1)).max(1);
        let fresh: Vec<Arc<TransactionRecord>> = records
            .iter()
            .filter(|record| receiver.receive_peer_commit(record))
            .cloned()
            .collect();
        stats.multicast += records.len();
        stats.duplicates += records.len() - fresh.len();
        fresh
    }

    /// Queues what `holder` freshly applied for forwarding to its own
    /// neighbours — relay topologies only; all-to-all senders reach everyone
    /// themselves.
    fn relay(
        &self,
        cascade: &mut Vec<CascadeItem>,
        holder: usize,
        from: Option<usize>,
        records: Vec<Arc<TransactionRecord>>,
    ) {
        if !records.is_empty() && self.config.topology != Topology::AllToAll {
            cascade.push(CascadeItem {
                holder,
                from,
                records,
            });
        }
    }

    /// Re-attempts every parked batch: healed edges re-enter the cascade at
    /// the receiver; batches whose receiver is gone (the node was replaced)
    /// fall back to delivering to every live node — the same role the fault
    /// manager plays for §4.2 — so a partition can delay metadata but never
    /// lose it.
    fn drain_retries(
        &self,
        round: u64,
        by_pos: &[Arc<AftNode>],
        pos_of: &HashMap<String, usize>,
        cascade: &mut Vec<CascadeItem>,
        stats: &mut BroadcastStats,
    ) {
        let parked = std::mem::take(&mut *self.retry.lock());
        let mut still_parked = Vec::new();
        for entry in parked {
            match pos_of.get(&entry.receiver) {
                Some(_) if self.is_cut(round, &entry.sender, &entry.receiver) => {
                    still_parked.push(entry);
                }
                Some(&target) => {
                    stats.retried += entry.records.len();
                    let fresh = self.deliver(&by_pos[target], &entry.records, stats);
                    let from = pos_of.get(&entry.sender).copied();
                    self.relay(cascade, target, from, fresh);
                }
                None => {
                    // The receiver died holding the only copy routed its
                    // way; flood every live node instead (dedup absorbs).
                    stats.retried += entry.records.len();
                    for receiver in by_pos {
                        self.deliver(receiver, &entry.records, stats);
                    }
                }
            }
        }
        self.retry.lock().extend(still_parked);
    }
}

/// Runs one flat all-to-all multicast round: every node drains its recent
/// commits, sends the unpruned stream to the fault manager, prunes
/// superseded records, and delivers the rest to every *other* node.
///
/// This is the paper's §4.2 exchange, kept as a standalone entry point for
/// tests and small deployments; clusters route through their configured
/// [`Disseminator`] instead.
pub fn broadcast_round(
    nodes: &[Arc<AftNode>],
    fault_manager: Option<&FaultManager>,
) -> BroadcastStats {
    Disseminator::new(DisseminationConfig::all_to_all(), 0).round(nodes, fault_manager)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use aft_chaos::{ChaosSpec, PartitionChaos};
    use aft_core::NodeConfig;
    use aft_storage::{InMemoryStore, SharedStorage};
    use aft_types::clock::TickingClock;
    use aft_types::{Key, TransactionId};
    use bytes::Bytes;

    pub(crate) fn cluster_of(n: usize) -> (Vec<Arc<AftNode>>, SharedStorage) {
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

    pub(crate) fn commit_on(node: &Arc<AftNode>, key: &str, value: &str) -> TransactionId {
        let t = node.start_transaction();
        node.put(&t, Key::new(key), Bytes::copy_from_slice(value.as_bytes()))
            .unwrap();
        node.commit(&t).unwrap()
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
            let d = Disseminator::new(DisseminationConfig::tree(3), 7);
            let mut ids = Vec::new();
            for (i, node) in nodes.iter().enumerate() {
                ids.push(commit_on(node, &format!("k{i}"), "v"));
            }
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
    fn gossip_covers_every_node_and_dedups() {
        for n in [2usize, 5, 16, 40] {
            let (nodes, _s) = cluster_of(n);
            let d = Disseminator::new(DisseminationConfig::gossip(3), 42);
            let mut ids = Vec::new();
            for (i, node) in nodes.iter().enumerate() {
                ids.push(commit_on(node, &format!("k{i}"), "v"));
            }
            let stats = d.round(&nodes, None);
            everyone_knows(&nodes, &ids);
            // Infect-and-die: every node pushes a record at most once, so
            // deliveries per record are at most n·fanout.
            assert!(
                stats.fanout_messages <= n * n * 3,
                "n={n}: {} messages",
                stats.fanout_messages
            );
            // Fresh applications are exactly n−1 per record; the rest dedup.
            assert_eq!(stats.multicast - stats.duplicates, n * (n - 1), "n={n}");
        }
    }

    #[test]
    fn tree_and_gossip_send_fewer_messages_than_all_to_all() {
        let n = 24;
        let mut per_topology = Vec::new();
        for config in [
            DisseminationConfig::all_to_all(),
            DisseminationConfig::tree(3),
            DisseminationConfig::gossip(2),
        ] {
            let (nodes, _s) = cluster_of(n);
            let d = Disseminator::new(config, 5);
            for (i, node) in nodes.iter().enumerate() {
                commit_on(node, &format!("k{i}"), "v");
            }
            let stats = d.round(&nodes, None);
            per_topology.push((config.topology, stats.fanout_messages));
        }
        let flat = per_topology[0].1;
        assert_eq!(flat, n * (n - 1));
        for &(topology, messages) in &per_topology[1..] {
            assert!(
                messages < flat,
                "{} sent {messages}, not below all-to-all's {flat}",
                topology.label()
            );
        }
    }

    #[test]
    fn batches_coalesce_records_into_few_messages() {
        let (nodes, _s) = cluster_of(2);
        for i in 0..20 {
            commit_on(&nodes[0], &format!("k{i}"), "v");
        }
        // A generous batch budget coalesces all 20 records into one message
        // per edge; a 1-byte budget degenerates to one message per record's
        // bytes.
        let coalesced =
            Disseminator::new(DisseminationConfig::tree(2).with_batch_bytes(1 << 20), 0)
                .round(&nodes, None);
        assert_eq!(coalesced.multicast, 20);
        assert_eq!(coalesced.fanout_messages, 1);
        assert!(coalesced.bytes > 0);
    }

    #[test]
    fn partition_parks_deliveries_and_heals_with_zero_loss() {
        let n = 9;
        let (nodes, _s) = cluster_of(n);
        let d = Disseminator::new(DisseminationConfig::tree(2), 3);
        // Cut 60% of edges for rounds [0, 3) relative to arming.
        let spec = ChaosSpec::new(0xBEEF).partition(PartitionChaos::cut(0.6, 0, 3));
        d.arm_partition(spec.schedule());

        let mut ids = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            ids.push(commit_on(node, &format!("k{i}"), "v"));
        }
        let cut_round = d.round(&nodes, None);
        assert!(cut_round.link_drops > 0, "a 60% cut must drop something");
        assert!(d.pending_retries() > 0);

        // Run past the heal; parked batches drain and re-flood.
        let mut healed = BroadcastStats::default();
        for _ in 0..6 {
            healed = healed.merge(d.round(&nodes, None));
        }
        assert_eq!(d.pending_retries(), 0, "heal must drain the retry queues");
        assert!(healed.retried > 0);
        everyone_knows(&nodes, &ids);
    }

    #[test]
    fn parked_batches_for_a_replaced_node_flood_everyone() {
        let (nodes, storage) = cluster_of(4);
        let d = Disseminator::new(DisseminationConfig::tree(1), 1);
        // Arity-1 tree is a chain: node-0 → node-1 → node-2 → node-3. Cut
        // everything for one round so the chain parks its deliveries.
        let spec = ChaosSpec::new(1).partition(PartitionChaos::cut(1.0, 0, 1));
        d.arm_partition(spec.schedule());
        let id = commit_on(&nodes[0], "k", "v");
        d.round(&nodes, None);
        assert!(d.pending_retries() > 0);

        // Replace node-1 (the parked receiver) with a fresh identity before
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
        let d = Disseminator::new(DisseminationConfig::tree(2), 0);
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

    #[test]
    fn topology_labels_round_trip() {
        for topology in Topology::ALL {
            assert_eq!(Topology::from_label(topology.label()), Some(topology));
        }
        assert_eq!(Topology::from_label("ring"), None);
    }

    #[test]
    fn totals_accumulate_across_rounds() {
        let (nodes, _s) = cluster_of(3);
        let d = Disseminator::new(DisseminationConfig::all_to_all(), 0);
        commit_on(&nodes[0], "a", "1");
        d.round(&nodes, None);
        commit_on(&nodes[1], "b", "2");
        d.round(&nodes, None);
        let totals = d.totals();
        assert_eq!(totals.drained, 2);
        assert_eq!(totals.multicast, 4);
        assert_eq!(d.rounds(), 2);
    }
}
