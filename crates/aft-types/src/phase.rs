//! The commit-protocol phases a fault can target.
//!
//! A node announces each phase to its phase hook (`aft_core::PhaseHook`),
//! and a schedule of `aft_workload::sim` answers it: go on, park the commit
//! while other steps run, or kill the node there. A kill is one more
//! schedule answer, like an invocation's fate or a storage write's cut.

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
/// Beyond the commit path, one phase targets a node's start:
///
/// * [`DuringBootstrap`](CommitPhase::DuringBootstrap): as a node starts,
///   before it replays the Transaction Commit Set. It never fires during a
///   normal commit; it exists so a schedule can tear a replacement's
///   bootstrap and prove that the next attempt still converges.
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
    /// As a node starts, before it replays the commit set.
    DuringBootstrap,
}

impl CommitPhase {
    /// Every commit-path phase, in protocol order. The bootstrap phase is
    /// deliberately excluded: it never fires during a normal commit.
    pub const ALL: [CommitPhase; 3] = [
        CommitPhase::BeforeDataPut,
        CommitPhase::BeforeRecordAppend,
        CommitPhase::BeforeBroadcast,
    ];

    /// A short label for reports ("before_data_put", ...).
    pub fn label(&self) -> &'static str {
        match self {
            CommitPhase::BeforeDataPut => "before_data_put",
            CommitPhase::BeforeRecordAppend => "before_record_append",
            CommitPhase::BeforeBroadcast => "before_broadcast",
            CommitPhase::DuringBootstrap => "during_bootstrap",
        }
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
    fn the_bootstrap_phase_is_distinct_from_commit_phases() {
        assert!(!CommitPhase::ALL.contains(&CommitPhase::DuringBootstrap));
        assert_eq!(CommitPhase::DuringBootstrap.label(), "during_bootstrap");
    }
}
