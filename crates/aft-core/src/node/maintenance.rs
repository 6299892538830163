//! Maintenance: what a cluster's maintenance round calls on a node. The
//! drain of its recent commits and its commit floor (§4, §4.2), the merge of
//! commit records learned from peers (§4.1), and local metadata garbage
//! collection (§5.1).
//!
//! Without garbage collection two things grow without bound: the commit
//! metadata cached (and stored) for every transaction ever committed, and the
//! key versions written to storage. Each node bounds the first locally: a
//! background sweep walks the metadata cache's superseded set (Algorithm 2,
//! kept up to date as records are inserted) oldest-first and drops every
//! transaction that no running transaction has read from. The same sweep then
//! walks the cache's debited versions — a key's version overwritten while its
//! transaction is still the newest writer of another key — and retires each
//! one under the same rule: it leaves the key's version list and the data
//! cache, so Algorithm 1 never chooses it again, while the record stays. The
//! paper collects whole transactions only; retiring versions keeps one cold
//! key from pinning every dead version its transaction wrote. A reader whose
//! read set still needed a retired version gets `NoValidVersion` and retries
//! (§5.2.1) — the record's write set still bounds what it may read, so it
//! never sees a fractured read. Data in *storage* is never deleted locally —
//! that requires the global protocol driven by the fault manager (§5.2),
//! which `aft-cluster` implements: it deletes what no node's metadata holds
//! any more.
//!
//! A sweep has no setting. It takes at most 10 000 records and versions,
//! oldest first, and leaves the rest to the next sweep. It grants no grace
//! period: a record or version is collectable once it is superseded and no
//! running transaction has read it.

use std::sync::Arc;

use aft_types::{Timestamp, TransactionId, TransactionRecord};

use super::{AftNode, CommitDrain};
use crate::metadata::Merged;

/// Most transactions to delete, and versions to retire, in one sweep; bounds
/// the time spent holding metadata locks. The rest wait for the next sweep.
const MAX_DELETIONS_PER_SWEEP: usize = 10_000;

/// The result of one local GC sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Superseded commit records and debited versions the sweep looked at —
    /// never more than those two sets hold, however large the cache.
    pub examined: usize,
    /// Records and versions that were collectable but kept because a running
    /// transaction had read from their transaction.
    pub retained_for_readers: usize,
    /// Records removed from the metadata cache in this sweep.
    pub deleted: usize,
    /// Overwritten versions retired from the key index and the data cache in
    /// this sweep; their records stay.
    pub retired: usize,
}

impl AftNode {
    /// Drains the commits made on this node since the last drain, with the
    /// node's commit floor (see [`CommitDrain`]). The cluster's multicast
    /// thread calls this every broadcast period (§4); supersedence pruning
    /// (§4.1) is applied by the caller so that the fault manager can still
    /// receive the unpruned stream, and the floor tells the fault manager
    /// where in the commit set a record nobody multicast can still be (§4.2).
    pub fn drain_recent_commits(&self) -> CommitDrain {
        self.undrained.lock().drain()
    }

    /// The commit floor of a node that is not being drained (failed,
    /// replaced, not yet active): a drain's floor, lowered to the oldest
    /// commit that finished since the node last reported — its record waits
    /// for a drain that may never come. A commit under way is in every report
    /// until it ends; a failed or finished one is reported once, by this or
    /// by [`drain_recent_commits`](AftNode::drain_recent_commits). The
    /// records stay for a drain.
    pub fn undrained_floor(&self) -> Option<Timestamp> {
        self.undrained.lock().poll()
    }

    /// Merges commit records learned from peers (a dissemination sweep, a
    /// healed partition retry) or from the fault manager into the local
    /// metadata cache, under one lock, and returns the ones that were *new*
    /// to this node.
    ///
    /// Records already superseded locally are skipped entirely (§4.1), and
    /// known ones dedup instead of re-applying, which is what makes
    /// redundant delivery paths (retry floods, the fault-manager firehose)
    /// idempotent. The returned records are the only account of a merge:
    /// the caller counts them, and whoever drives the rounds times their
    /// propagation lag (§4.2's RYW-staleness window).
    pub fn receive_peer_commits(
        &self,
        records: &[Arc<TransactionRecord>],
    ) -> Vec<Arc<TransactionRecord>> {
        records
            .iter()
            .zip(self.metadata.merge(records))
            .filter(|(_, merged)| *merged == Merged::New)
            .map(|(record, _)| Arc::clone(record))
            .collect()
    }

    /// Runs one local metadata GC sweep (§5.1): removes superseded
    /// transactions that no running transaction has read from and evicts
    /// their cached data, then retires, under the same rule, the overwritten
    /// versions of transactions that are still the newest of some other key.
    /// The sweep walks the metadata cache's superseded and debited sets, so
    /// it costs what was overwritten since the last sweep, not what is
    /// cached. What the sweep dropped is what the global GC finds no node
    /// holding (§5.2).
    ///
    /// The write buffer is asked once for every version a running
    /// transaction has read, right before the removals, and the records go
    /// in one locked batch, as do the versions.
    pub fn run_local_gc(&self) -> GcOutcome {
        let mut outcome = GcOutcome::default();
        let superseded = self.metadata.superseded_oldest_first();
        let debited = self.metadata.debited_oldest_first();
        if superseded.is_empty() && debited.is_empty() {
            return outcome;
        }
        let read = self.buffer.versions_read();
        let mut collectable = |id: &TransactionId, taken: usize| {
            if taken >= MAX_DELETIONS_PER_SWEEP {
                return None;
            }
            outcome.examined += 1;
            let free = !read.contains(id);
            outcome.retained_for_readers += usize::from(!free);
            Some(free)
        };

        let mut dropping: Vec<Arc<TransactionRecord>> = Vec::new();
        for record in superseded {
            match collectable(&record.id, dropping.len()) {
                Some(true) => dropping.push(record),
                Some(false) => {}
                None => break,
            }
        }
        let mut retiring = Vec::new();
        for version in debited {
            match collectable(&version.tid, retiring.len()) {
                Some(true) => retiring.push(version),
                Some(false) => {}
                None => break,
            }
        }

        outcome.deleted = self
            .metadata
            .remove_all(dropping.iter().map(|record| &record.id));
        for record in &dropping {
            for key in &record.write_set {
                self.data_cache.evict(key, &record.id);
            }
        }
        self.stats.record_gc_deleted(outcome.deleted);
        outcome.retired = self.metadata.retire(&retiring);
        for version in &retiring {
            self.data_cache.evict(&version.key, &version.tid);
        }
        outcome
    }
}
