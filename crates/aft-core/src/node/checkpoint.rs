//! The checkpoint driver: when a node snapshots its committed-version index
//! to storage, and the round that does it.
//!
//! A round publishes the metadata cache through
//! [`aft_storage::checkpoint`] (chunks, then the manifest) and may compact
//! the commit log behind it, so a replacement node bootstraps from
//! checkpoint + tail instead of replaying the whole Transaction Commit Set.

use std::sync::atomic::Ordering;

use aft_storage::checkpoint::{
    compact_log, publish_checkpoint, Checkpoint, CheckpointWriteOutcome, CompactionOutcome,
    CHECKPOINT_KEEP,
};
use aft_types::{fnv1a, AftResult, CommitPhase, TransactionId, TransactionRecord};

use super::AftNode;
use crate::metadata::MetadataCache;

/// When a node takes background checkpoints of its committed-version index.
///
/// A checkpoint round snapshots the metadata cache to storage (chunked,
/// CRC-sealed, published checkpoint-then-pointer — see
/// [`aft_storage::checkpoint`]) so a replacement node can bootstrap from
/// checkpoint + tail instead of replaying the whole Transaction Commit Set.
/// The default is disabled — checkpointing is a cluster-level duty, opted
/// into per deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint after this many commits on the node since the last round;
    /// `0` disables checkpointing.
    pub every_commits: u64,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

impl CheckpointPolicy {
    /// No checkpointing at all.
    pub const fn disabled() -> Self {
        CheckpointPolicy { every_commits: 0 }
    }

    /// Checkpoint every `n` commits (`n` clamped to ≥ 1).
    pub fn every_commits(n: u64) -> Self {
        CheckpointPolicy {
            every_commits: n.max(1),
        }
    }

    /// True if the commit-count trigger is armed.
    pub fn is_enabled(&self) -> bool {
        self.every_commits > 0
    }
}

/// What one node-level checkpoint round did.
#[derive(Debug, Clone, Copy)]
pub struct NodeCheckpointOutcome {
    /// The checkpoint publication itself.
    pub write: CheckpointWriteOutcome,
    /// The compaction behind it, when the caller enabled it.
    pub compaction: Option<CompactionOutcome>,
}

impl AftNode {
    /// Runs a checkpoint round if the configured [`CheckpointPolicy`] says
    /// one is due (called periodically by the maintenance driver). Returns
    /// `Ok(None)` when no round was due or the policy is disabled.
    ///
    /// Given `gc_view`, the metadata the global GC runs against, the round
    /// also compacts the commit log behind the new checkpoint and leaves the
    /// records that view holds to the GC, which deletes them with their
    /// data. The cluster layer passes it only when no recovery is in
    /// flight, so compaction never removes records a bootstrapping
    /// replacement still needs.
    pub fn maybe_checkpoint(
        &self,
        gc_view: Option<&MetadataCache>,
    ) -> AftResult<Option<NodeCheckpointOutcome>> {
        let policy = self.config.checkpoint;
        if !policy.is_enabled() || self.metadata.is_empty() {
            return Ok(None);
        }
        if self.checkpoint_commits.load(Ordering::Relaxed) < policy.every_commits {
            return Ok(None);
        }
        let gc_holds = |id: &TransactionId| gc_view.is_some_and(|view| view.is_committed(id));
        self.checkpoint(gc_view.is_some(), &gc_holds).map(Some)
    }

    /// Takes a checkpoint of the committed-version index right now,
    /// regardless of policy: snapshots the metadata cache and publishes it
    /// through the I/O engine (pipelined chunk writes, then the manifest).
    ///
    /// The phase hook is asked at [`CommitPhase::DuringCheckpointWrite`] —
    /// after the chunks are durable, before the manifest — so a kill there
    /// leaves a torn (and therefore invisible) checkpoint. `compact` compacts
    /// the log behind it, fetching every uncovered record to check it is
    /// superseded.
    pub fn checkpoint_now(&self, compact: bool) -> AftResult<NodeCheckpointOutcome> {
        self.checkpoint(compact, &|_| false)
    }

    /// A checkpoint, then, if `compact`, a compaction that leaves the
    /// records `gc_holds` to the global GC.
    fn checkpoint(
        &self,
        compact: bool,
        gc_holds: &dyn Fn(&TransactionId) -> bool,
    ) -> AftResult<NodeCheckpointOutcome> {
        let records: Vec<TransactionRecord> = self
            .metadata
            .all_records()
            .iter()
            .map(|r| (**r).clone())
            .collect();
        // Monotonic id: clock milliseconds disambiguated by a node hash in
        // the low bits, never reusing or going below a previous id.
        let id = {
            let last_id = self.checkpoint_last_id.lock();
            let candidate = (self.clock.now() << 10) | (fnv1a(self.node_id().bytes()) & 0x3FF);
            candidate.max(*last_id + 1)
        };
        let checkpoint = Checkpoint::new(id, records);
        let write = publish_checkpoint(&self.io, &checkpoint, || {
            self.at(CommitPhase::DuringCheckpointWrite)
        })?;
        *self.checkpoint_last_id.lock() = id;
        self.checkpoint_commits.store(0, Ordering::Relaxed);
        let compaction = if compact {
            Some(compact_log(
                &self.io,
                &checkpoint,
                CHECKPOINT_KEEP,
                gc_holds,
            )?)
        } else {
            None
        };
        Ok(NodeCheckpointOutcome { write, compaction })
    }
}
