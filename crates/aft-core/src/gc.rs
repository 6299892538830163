//! Local metadata garbage collection (§5.1).
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

/// Most transactions to delete, and versions to retire, in one sweep; bounds
/// the time spent holding metadata locks. The rest wait for the next sweep.
pub(crate) const MAX_DELETIONS_PER_SWEEP: usize = 10_000;

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

impl GcOutcome {
    /// Merges two sweep outcomes (used when a sweep is split into batches).
    pub fn merge(self, other: GcOutcome) -> GcOutcome {
        GcOutcome {
            examined: self.examined + other.examined,
            retained_for_readers: self.retained_for_readers + other.retained_for_readers,
            deleted: self.deleted + other.deleted,
            retired: self.retired + other.retired,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_merge_componentwise() {
        let a = GcOutcome {
            examined: 3,
            retained_for_readers: 1,
            deleted: 2,
            retired: 1,
        };
        let b = GcOutcome {
            examined: 5,
            retained_for_readers: 0,
            deleted: 4,
            retired: 2,
        };
        let merged = a.merge(b);
        assert_eq!(merged.examined, 8);
        assert_eq!(merged.retained_for_readers, 1);
        assert_eq!(merged.deleted, 6);
        assert_eq!(merged.retired, 3);
    }
}
