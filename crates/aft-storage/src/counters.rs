//! Per-backend operation statistics.
//!
//! Every simulated backend counts its API calls and payload bytes. The
//! evaluation harness uses these counters to explain latency differences the
//! same way the paper does (e.g. §6.3: "for all configurations, we make 11
//! API calls — 10 for the IOs and 1 for the final commit record").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The kinds of storage API calls the engines expose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A single-key read.
    Get,
    /// A batched multi-key read (one API call).
    BatchGet,
    /// A single-key write.
    Put,
    /// A batched multi-key write (one API call).
    BatchPut,
    /// A single-key delete.
    Delete,
    /// A batched multi-key delete (one API call).
    BatchDelete,
    /// A prefix scan / list operation.
    List,
    /// A storage-level transactional write (DynamoDB transaction mode).
    TransactWrite,
    /// A storage-level transactional read (DynamoDB transaction mode).
    TransactRead,
}

impl OpKind {
    /// All operation kinds, for iteration in reports.
    pub const ALL: [OpKind; 9] = [
        OpKind::Get,
        OpKind::BatchGet,
        OpKind::Put,
        OpKind::BatchPut,
        OpKind::Delete,
        OpKind::BatchDelete,
        OpKind::List,
        OpKind::TransactWrite,
        OpKind::TransactRead,
    ];

    fn index(self) -> usize {
        match self {
            OpKind::Get => 0,
            OpKind::Put => 1,
            OpKind::BatchPut => 2,
            OpKind::Delete => 3,
            OpKind::BatchDelete => 4,
            OpKind::List => 5,
            OpKind::TransactWrite => 6,
            OpKind::TransactRead => 7,
            OpKind::BatchGet => 8,
        }
    }

    /// Human-readable name used in benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Get => "get",
            OpKind::BatchGet => "batch_get",
            OpKind::Put => "put",
            OpKind::BatchPut => "batch_put",
            OpKind::Delete => "delete",
            OpKind::BatchDelete => "batch_delete",
            OpKind::List => "list",
            OpKind::TransactWrite => "transact_write",
            OpKind::TransactRead => "transact_read",
        }
    }
}

/// Number of [`OpKind`]s: one counter each.
const KINDS: usize = OpKind::ALL.len();

/// Thread-safe operation counters shared by a backend and its observers.
#[derive(Debug, Default)]
pub struct StorageStats {
    calls: [AtomicU64; KINDS],
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    conflicts: AtomicU64,
}

impl StorageStats {
    /// Creates a fresh, zeroed counter set behind an [`Arc`].
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records one API call of the given kind.
    pub fn record_call(&self, op: OpKind) {
        self.calls[op.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Records bytes returned to the caller.
    pub fn record_read_bytes(&self, n: usize) {
        self.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records bytes accepted from the caller.
    pub fn record_written_bytes(&self, n: usize) {
        self.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records a transactional conflict abort (DynamoDB transaction mode).
    pub fn record_conflict(&self) {
        self.conflicts.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of calls recorded for `op`.
    pub fn calls(&self, op: OpKind) -> u64 {
        self.calls[op.index()].load(Ordering::Relaxed)
    }

    /// Total API calls across all operation kinds.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Takes a point-in-time snapshot of all counters.
    pub fn snapshot(&self) -> StorageStatsSnapshot {
        let mut calls = [0u64; KINDS];
        for (i, c) in self.calls.iter().enumerate() {
            calls[i] = c.load(Ordering::Relaxed);
        }
        StorageStatsSnapshot {
            calls,
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for c in &self.calls {
            c.store(0, Ordering::Relaxed);
        }
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.conflicts.store(0, Ordering::Relaxed);
    }
}

/// An immutable snapshot of [`StorageStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStatsSnapshot {
    calls: [u64; KINDS],
    /// Bytes returned by reads.
    pub bytes_read: u64,
    /// Bytes accepted by writes.
    pub bytes_written: u64,
    /// Transactional conflict aborts observed.
    pub conflicts: u64,
}

impl StorageStatsSnapshot {
    /// Number of calls recorded for `op` at snapshot time.
    pub fn calls(&self, op: OpKind) -> u64 {
        self.calls[op.index()]
    }

    /// Total API calls at snapshot time.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// The per-kind difference between two snapshots (`self - earlier`).
    pub fn delta_since(&self, earlier: &StorageStatsSnapshot) -> StorageStatsSnapshot {
        let mut calls = [0u64; KINDS];
        for i in 0..calls.len() {
            calls[i] = self.calls[i].saturating_sub(earlier.calls[i]);
        }
        StorageStatsSnapshot {
            calls,
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = StorageStats::default();
        s.record_call(OpKind::Get);
        s.record_call(OpKind::Get);
        s.record_call(OpKind::BatchPut);
        s.record_read_bytes(100);
        s.record_written_bytes(50);
        s.record_conflict();

        assert_eq!(s.calls(OpKind::Get), 2);
        assert_eq!(s.calls(OpKind::BatchPut), 1);
        assert_eq!(s.calls(OpKind::Put), 0);
        assert_eq!(s.total_calls(), 3);

        let snap = s.snapshot();
        assert_eq!(snap.bytes_read, 100);
        assert_eq!(snap.bytes_written, 50);
        assert_eq!(snap.conflicts, 1);
    }

    #[test]
    fn snapshot_delta() {
        let s = StorageStats::default();
        s.record_call(OpKind::Put);
        let first = s.snapshot();
        s.record_call(OpKind::Put);
        s.record_call(OpKind::Get);
        let second = s.snapshot();
        let delta = second.delta_since(&first);
        assert_eq!(delta.calls(OpKind::Put), 1);
        assert_eq!(delta.calls(OpKind::Get), 1);
        assert_eq!(delta.total_calls(), 2);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = StorageStats::default();
        s.record_call(OpKind::List);
        s.record_written_bytes(10);
        s.reset();
        assert_eq!(s.total_calls(), 0);
        assert_eq!(s.snapshot().bytes_written, 0);
    }

    #[test]
    fn all_kinds_have_unique_indices() {
        let mut seen = std::collections::HashSet::new();
        for op in OpKind::ALL {
            assert!(seen.insert(op.index()), "duplicate index for {:?}", op);
            assert!(!op.name().is_empty());
        }
    }
}
