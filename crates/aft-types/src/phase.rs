//! The commit-protocol phases a fault can target.
//!
//! This lives in `aft-types` (rather than the node implementation) because it
//! is shared vocabulary: the node's commit path announces each phase to its
//! crash probes, and the unified chaos layer plans node kills against the
//! same phases — both sides must agree on the enum without depending on each
//! other.

/// The points in the write-ordering commit protocol (§3.3) where a node can
/// crash with *observably different* consequences — each is a distinct
/// scenario of the paper's fault model:
///
/// * [`BeforeDataPut`](CommitPhase::BeforeDataPut): nothing reached storage.
///   The commit never happened; the client retries the whole request
///   (§3.3.1).
/// * [`BeforeRecordAppend`](CommitPhase::BeforeRecordAppend): the
///   transaction's key versions are durable but no commit record references
///   them. The data is permanently invisible (no dirty reads, §3.2) and the
///   commit never happened — orphaned versions are storage garbage, not an
///   anomaly. Where the store writes the data and the record in one
///   all-or-nothing call (Redis `MSET` within one slot), the phase fires just
///   before that call instead, and a crash here leaves storage untouched.
/// * [`BeforeBroadcast`](CommitPhase::BeforeBroadcast): the commit record is
///   durable — the transaction *is* committed — but the node dies before
///   acknowledging it or multicasting it to peers. This is exactly the §4.2
///   liveness hole the fault manager's commit-set scan exists to close.
///
/// Beyond the commit path, two *checkpoint* phases target the background
/// checkpointing subsystem. They never fire during a normal commit; they exist
/// so chaos plans can prove that a torn checkpoint is never read:
///
/// * [`DuringCheckpointWrite`](CommitPhase::DuringCheckpointWrite): after some
///   checkpoint chunks are durable but before the manifest (the atomic
///   pointer) is published. The previous checkpoint must stay live.
/// * [`DuringCheckpointBootstrap`](CommitPhase::DuringCheckpointBootstrap):
///   while a replacement node is bootstrapping from checkpoint + tail. The
///   next bootstrap attempt must still converge to the full-replay state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommitPhase {
    /// Before any of the transaction's data writes are issued.
    BeforeDataPut,
    /// After every data write is durable, before the commit record append;
    /// or, where data and record go out as one all-or-nothing call, just
    /// before that call.
    BeforeRecordAppend,
    /// After the commit record is durable, before local visibility and the
    /// commit-set multicast.
    BeforeBroadcast,
    /// Mid-checkpoint-write: chunks durable, manifest not yet published.
    DuringCheckpointWrite,
    /// Mid-bootstrap of a replacement node reading checkpoint + tail.
    DuringCheckpointBootstrap,
}

impl CommitPhase {
    /// Every commit-path phase, in protocol order. Checkpoint phases are
    /// deliberately excluded: they are background phases and never fire
    /// during a normal commit.
    pub const ALL: [CommitPhase; 3] = [
        CommitPhase::BeforeDataPut,
        CommitPhase::BeforeRecordAppend,
        CommitPhase::BeforeBroadcast,
    ];

    /// The background checkpoint phases a chaos plan can target.
    pub const CHECKPOINT: [CommitPhase; 2] = [
        CommitPhase::DuringCheckpointWrite,
        CommitPhase::DuringCheckpointBootstrap,
    ];

    /// A short label for reports ("before_data_put", ...).
    pub fn label(&self) -> &'static str {
        match self {
            CommitPhase::BeforeDataPut => "before_data_put",
            CommitPhase::BeforeRecordAppend => "before_record_append",
            CommitPhase::BeforeBroadcast => "before_broadcast",
            CommitPhase::DuringCheckpointWrite => "during_checkpoint_write",
            CommitPhase::DuringCheckpointBootstrap => "during_checkpoint_bootstrap",
        }
    }

    /// True for the background checkpoint phases, false for commit phases.
    pub fn is_checkpoint(&self) -> bool {
        matches!(
            self,
            CommitPhase::DuringCheckpointWrite | CommitPhase::DuringCheckpointBootstrap
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_ordered_and_labelled() {
        assert_eq!(CommitPhase::ALL.len(), 3);
        let labels: Vec<&str> = CommitPhase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            [
                "before_data_put",
                "before_record_append",
                "before_broadcast"
            ]
        );
    }

    #[test]
    fn checkpoint_phases_are_distinct_from_commit_phases() {
        assert_eq!(CommitPhase::CHECKPOINT.len(), 2);
        for phase in CommitPhase::CHECKPOINT {
            assert!(phase.is_checkpoint());
            assert!(!CommitPhase::ALL.contains(&phase));
        }
        for phase in CommitPhase::ALL {
            assert!(!phase.is_checkpoint());
        }
        let labels: Vec<&str> = CommitPhase::CHECKPOINT.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            ["during_checkpoint_write", "during_checkpoint_bootstrap"]
        );
    }
}
