//! Per-node operational counters.
//!
//! These counters are cheap (relaxed atomics) and are read by the benchmark
//! harness to report throughput, abort rates, cache effectiveness, and
//! garbage-collection progress — the quantities plotted in Figures 7–10.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Upper bound on retained latency samples per recorder stripe. Beyond it a
/// stripe is a uniform reservoir of everything it was offered (Algorithm R),
/// so the percentiles describe the whole run, not its first samples.
const MAX_LATENCY_SAMPLES_PER_STRIPE: usize = 1 << 16;

/// Lock stripes per recorder: recording threads spread across stripes so the
/// hot path never funnels through one mutex (matching the striping of every
/// other per-node structure).
const LATENCY_RECORDER_STRIPES: usize = 16;

/// One stripe's reservoir: the retained samples, how many were offered, and
/// the RNG that picks which retained sample a late one replaces.
#[derive(Debug)]
struct Reservoir {
    samples: Vec<u64>,
    offered: u64,
    rng: StdRng,
}

/// A bounded, lock-striped reservoir of latency samples with percentile
/// queries: a node's commit-metadata propagation lag
/// ([`NodeStats::propagation_lag`]), which only the node can time because
/// only it sees a peer record's ingest.
/// Writers pick a stripe from their thread identity, so concurrent clients
/// record without contending; queries merge all stripes.
#[derive(Debug)]
pub struct LatencyRecorder {
    stripes: Box<[Mutex<Reservoir>]>,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        LatencyRecorder {
            stripes: (0..LATENCY_RECORDER_STRIPES as u64)
                .map(|stripe| {
                    Mutex::new(Reservoir {
                        samples: Vec::new(),
                        offered: 0,
                        rng: StdRng::seed_from_u64(stripe),
                    })
                })
                .collect(),
        }
    }
}

impl LatencyRecorder {
    fn stripe(&self) -> &Mutex<Reservoir> {
        use std::sync::atomic::AtomicUsize;
        // Each thread gets a stable stripe index once; round-robin assignment
        // spreads any set of recording threads evenly.
        static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static MY_STRIPE: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        }
        let index = MY_STRIPE.with(|s| *s);
        &self.stripes[index % self.stripes.len()]
    }

    /// Records one sample.
    pub fn record(&self, latency: Duration) {
        let sample = latency.as_nanos() as u64;
        let mut stripe = self.stripe().lock();
        stripe.offered += 1;
        if stripe.samples.len() < MAX_LATENCY_SAMPLES_PER_STRIPE {
            stripe.samples.push(sample);
            return;
        }
        // Algorithm R: the n-th sample offered replaces a retained one with
        // probability capacity / n, in a uniformly chosen slot.
        let offered = stripe.offered;
        let slot = stripe.rng.gen_range(0..offered) as usize;
        if let Some(retained) = stripe.samples.get_mut(slot) {
            *retained = sample;
        }
    }

    /// Number of samples retained.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().samples.len()).sum()
    }

    /// Returns true if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.stripes.iter().all(|s| s.lock().samples.is_empty())
    }

    fn merged(&self) -> Vec<u64> {
        let mut all = Vec::with_capacity(self.len());
        for stripe in &self.stripes {
            all.extend_from_slice(&stripe.lock().samples);
        }
        all
    }

    /// The `p`-th percentile (`0.0..=1.0`) in milliseconds, or `None` with no
    /// samples.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        let mut samples = self.merged();
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let rank = ((samples.len() as f64 - 1.0) * p.clamp(0.0, 1.0)).round() as usize;
        Some(samples[rank] as f64 / 1_000_000.0)
    }
}

/// Counters describing one AFT node's activity.
#[derive(Debug, Default)]
pub struct NodeStats {
    transactions_started: AtomicU64,
    transactions_committed: AtomicU64,
    transactions_aborted: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    reads_from_write_buffer: AtomicU64,
    reads_from_data_cache: AtomicU64,
    reads_from_storage: AtomicU64,
    no_valid_version_aborts: AtomicU64,
    gc_transactions_deleted: AtomicU64,
    commits_received_from_peers: AtomicU64,
    duplicate_peer_commits: AtomicU64,
    /// Commit-metadata propagation lag: for every commit record learned from
    /// a peer, commit-timestamp → local-ingest-time on this node's clock.
    /// This is the metadata half of the RYW staleness window (§4.2): a client
    /// re-routed to this node may read stale data for at most
    /// `propagation lag + one dissemination interval`.
    propagation_lag: LatencyRecorder,
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
        record_started, started => transactions_started;
        record_committed, committed => transactions_committed;
        record_aborted, aborted => transactions_aborted;
        record_read, reads => reads;
        record_write, writes => writes;
        record_read_from_write_buffer, reads_from_write_buffer => reads_from_write_buffer;
        record_read_from_data_cache, reads_from_data_cache => reads_from_data_cache;
        record_read_from_storage, reads_from_storage => reads_from_storage;
        record_no_valid_version, no_valid_version_aborts => no_valid_version_aborts;
        record_peer_commit, peer_commits => commits_received_from_peers;
        record_duplicate_peer_commit, duplicate_peer_commits => duplicate_peer_commits;
    }

    /// Adds a local GC sweep's removed transactions to the
    /// `gc_transactions_deleted` counter.
    pub fn record_gc_deleted(&self, transactions: usize) {
        self.gc_transactions_deleted
            .fetch_add(transactions as u64, Ordering::Relaxed);
    }

    /// Current value of the `gc_transactions_deleted` counter, which
    /// `Cluster::total_gc_deleted` sums over the nodes.
    pub fn gc_deleted(&self) -> u64 {
        self.gc_transactions_deleted.load(Ordering::Relaxed)
    }

    /// The commit-metadata propagation-lag recorder (peer-learned records
    /// only; locally committed records have zero lag by definition).
    pub fn propagation_lag(&self) -> &LatencyRecorder {
        &self.propagation_lag
    }

    /// Takes a point-in-time snapshot of every counter.
    pub fn snapshot(&self) -> NodeStatsSnapshot {
        NodeStatsSnapshot {
            transactions_started: self.started(),
            transactions_committed: self.committed(),
            transactions_aborted: self.aborted(),
            reads: self.reads(),
            writes: self.writes(),
            reads_from_write_buffer: self.reads_from_write_buffer(),
            reads_from_data_cache: self.reads_from_data_cache(),
            reads_from_storage: self.reads_from_storage(),
            no_valid_version_aborts: self.no_valid_version_aborts(),
            commits_received_from_peers: self.peer_commits(),
            duplicate_peer_commits: self.duplicate_peer_commits(),
        }
    }
}

/// An immutable snapshot of [`NodeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStatsSnapshot {
    /// Transactions begun on this node.
    pub transactions_started: u64,
    /// Transactions committed on this node.
    pub transactions_committed: u64,
    /// Transactions aborted on this node (explicitly or by timeout).
    pub transactions_aborted: u64,
    /// Get operations served.
    pub reads: u64,
    /// Put operations accepted.
    pub writes: u64,
    /// Reads answered from the transaction's own write buffer.
    pub reads_from_write_buffer: u64,
    /// Reads answered from the data cache.
    pub reads_from_data_cache: u64,
    /// Reads that fetched the payload from storage.
    pub reads_from_storage: u64,
    /// Reads that found no valid version (client must retry, §3.6).
    pub no_valid_version_aborts: u64,
    /// Commit records learned from peers (multicast or fault manager).
    pub commits_received_from_peers: u64,
    /// Peer deliveries that were already known locally and deduplicated
    /// (partition retry floods, fault-manager re-pushes) instead of
    /// re-applied.
    pub duplicate_peer_commits: u64,
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
        stats.record_started();
        stats.record_started();
        stats.record_committed();
        stats.record_read();
        stats.record_read_from_data_cache();
        stats.record_read_from_storage();

        assert_eq!(stats.started(), 2);
        let snap = stats.snapshot();
        assert_eq!(snap.transactions_started, 2);
        assert_eq!(snap.transactions_committed, 1);
        assert_eq!(snap.reads, 1);
        assert!((snap.cache_hit_rate() - 0.5).abs() < f64::EPSILON);
    }

    #[test]
    fn hit_rate_with_no_reads_is_zero() {
        assert_eq!(NodeStatsSnapshot::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn latency_recorder_percentiles() {
        let recorder = LatencyRecorder::default();
        assert!(recorder.is_empty());
        assert_eq!(recorder.percentile_ms(0.5), None);
        for ms in 1..=100u64 {
            recorder.record(Duration::from_millis(ms));
        }
        assert_eq!(recorder.len(), 100);
        let p50 = recorder.percentile_ms(0.5).unwrap();
        assert!((p50 - 50.0).abs() <= 1.0, "p50 = {p50}");
        let p99 = recorder.percentile_ms(0.99).unwrap();
        assert!((p99 - 99.0).abs() <= 1.0, "p99 = {p99}");
    }

    #[test]
    fn latency_recorder_keeps_describing_the_run_once_full() {
        // One thread, so one stripe: capacity samples at 1 ms, then twice as
        // many at 9 ms. Two thirds of what was offered is the later level; a
        // recorder that kept only its first samples would report 1 ms forever.
        let recorder = LatencyRecorder::default();
        for i in 0..3 * MAX_LATENCY_SAMPLES_PER_STRIPE {
            let ms = if i < MAX_LATENCY_SAMPLES_PER_STRIPE {
                1
            } else {
                9
            };
            recorder.record(Duration::from_millis(ms));
        }
        assert_eq!(recorder.len(), MAX_LATENCY_SAMPLES_PER_STRIPE, "bounded");
        assert_eq!(recorder.percentile_ms(0.99), Some(9.0));
        assert_eq!(recorder.percentile_ms(0.5), Some(9.0));
        assert_eq!(recorder.percentile_ms(0.1), Some(1.0));
    }
}
