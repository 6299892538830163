//! Per-node operational counters.
//!
//! These counters are cheap (relaxed atomics) and are read by the cluster
//! and the benchmark harness to report throughput, cache effectiveness,
//! reads that found no valid version, and garbage-collection progress —
//! the quantities plotted in Figures 7–10. A node keeps no measurement its
//! callers already have: the peer records
//! [`AftNode::receive_peer_commits`] finds new are its return value, and
//! their propagation lag is timed by whoever drives the rounds (fig12).
//!
//! [`AftNode::receive_peer_commits`]: crate::AftNode::receive_peer_commits

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters describing one AFT node's activity.
#[derive(Debug, Default)]
pub struct NodeStats {
    transactions_committed: AtomicU64,
    reads: AtomicU64,
    reads_from_write_buffer: AtomicU64,
    reads_from_data_cache: AtomicU64,
    reads_from_storage: AtomicU64,
    reads_from_peers: AtomicU64,
    no_valid_version_aborts: AtomicU64,
    gc_transactions_deleted: AtomicU64,
}

macro_rules! counter_methods {
    ($($record:ident, $get:ident => $field:ident;)*) => {
        $(
            #[doc = concat!("Increments the `", stringify!($field), "` counter.")]
            pub fn $record(&self) {
                self.$field.fetch_add(1, Ordering::Relaxed);
            }

            #[doc = concat!("Current value of the `", stringify!($field), "` counter.")]
            pub fn $get(&self) -> u64 {
                self.$field.load(Ordering::Relaxed)
            }
        )*
    };
}

impl NodeStats {
    /// Creates a zeroed counter set behind an [`Arc`].
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    counter_methods! {
        record_committed, committed => transactions_committed;
        record_read, reads => reads;
        record_read_from_write_buffer, reads_from_write_buffer => reads_from_write_buffer;
        record_read_from_data_cache, reads_from_data_cache => reads_from_data_cache;
        record_read_from_storage, reads_from_storage => reads_from_storage;
        record_read_from_peer, reads_from_peers => reads_from_peers;
        record_no_valid_version, no_valid_version_aborts => no_valid_version_aborts;
    }

    /// Adds a local GC sweep's removed transactions to the
    /// `gc_transactions_deleted` counter.
    pub(crate) fn record_gc_deleted(&self, transactions: usize) {
        self.gc_transactions_deleted
            .fetch_add(transactions as u64, Ordering::Relaxed);
    }

    /// Current value of the `gc_transactions_deleted` counter, which
    /// `Cluster::total_gc_deleted` sums over the nodes.
    pub fn gc_deleted(&self) -> u64 {
        self.gc_transactions_deleted.load(Ordering::Relaxed)
    }

    /// Takes a point-in-time snapshot of every counter.
    pub fn snapshot(&self) -> NodeStatsSnapshot {
        NodeStatsSnapshot {
            transactions_committed: self.committed(),
            reads: self.reads(),
            reads_from_write_buffer: self.reads_from_write_buffer(),
            reads_from_data_cache: self.reads_from_data_cache(),
            reads_from_storage: self.reads_from_storage(),
            reads_from_peers: self.reads_from_peers(),
            no_valid_version_aborts: self.no_valid_version_aborts(),
        }
    }
}

/// An immutable snapshot of [`NodeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStatsSnapshot {
    /// Transactions committed on this node.
    pub transactions_committed: u64,
    /// Get operations served.
    pub reads: u64,
    /// Reads answered from the transaction's own write buffer.
    pub reads_from_write_buffer: u64,
    /// Reads answered from the data cache.
    pub reads_from_data_cache: u64,
    /// Reads that fetched the payload from storage.
    pub reads_from_storage: u64,
    /// Reads that missed the data cache and took the payload from the data
    /// cache of the node that committed the version.
    pub reads_from_peers: u64,
    /// Reads that found no valid version (client must retry, §3.6).
    pub no_valid_version_aborts: u64,
}

impl NodeStatsSnapshot {
    /// The data cache hit rate among reads that had to consult storage or the
    /// cache (write-buffer hits excluded), in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let denom = self.reads_from_data_cache + self.reads_from_storage;
        if denom == 0 {
            0.0
        } else {
            self.reads_from_data_cache as f64 / denom as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_snapshot_agree() {
        let stats = NodeStats::default();
        stats.record_committed();
        stats.record_committed();
        stats.record_read();
        stats.record_read_from_data_cache();
        stats.record_read_from_storage();

        assert_eq!(stats.committed(), 2);
        let snap = stats.snapshot();
        assert_eq!(snap.transactions_committed, 2);
        assert_eq!(snap.reads, 1);
        assert!((snap.cache_hit_rate() - 0.5).abs() < f64::EPSILON);
    }

    #[test]
    fn hit_rate_with_no_reads_is_zero() {
        assert_eq!(NodeStatsSnapshot::default().cache_hit_rate(), 0.0);
    }
}
