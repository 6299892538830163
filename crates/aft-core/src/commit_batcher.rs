//! The commit flush, and group commit where it buys something.
//!
//! The paper's commit protocol issues, per transaction, one batched write for
//! the transaction's key versions and one write for its commit record (§3.3):
//! two storage round trips, and the shim must add none of its own. `flush`
//! is that sequence — the data items submitted concurrently through
//! [`aft_storage::io::IoEngine`], a **barrier** on their completions, then
//! the record — and every commit on a node goes through it, on the
//! committing thread.
//!
//! The paper also notes that batching writes to reduce storage API calls is
//! what makes AFT cheap over services that bill per request (§6.1.1).
//! [`CommitBatcher`] takes that one step further, the way transactional
//! workflow systems batch log appends: commits that *arrive concurrently* on
//! one node are coalesced into a single flush — one multi-put covering every
//! transaction's data items followed by one covering every commit record.
//! That only saves anything where the backend has a batch API. Where it has
//! none (Redis across shards, S3: `put_batch` is one call per key whoever
//! issues it) a shared flush shares no API call, so there a commit simply
//! flushes itself: no queue, no token, nothing to wait for but its own two
//! round trips. `max_batch == 1` selects the same path anywhere.
//!
//! Where commits do coalesce, one **flush token** elects a leader among the
//! queued committers. The leader holds it only until its data barrier has
//! fired: while flush N appends its records the leader of flush N+1 is
//! already writing its data, so a committer waits out at most the data half
//! of the flush ahead of it, never both round trips.
//!
//! The protocol's write ordering is preserved for every member of a batch:
//! all of a flush's data items are durable before any of its commit records
//! is written, and a transaction only becomes visible (in the caller, after
//! `submit` returns) once its own commit record is durable. Nothing orders
//! the records of *different* flushes, and nothing needs to: commit records
//! of concurrent transactions are independent (§3.3). Coalescing strictly
//! *adds* durable records between a member's data and its visibility, which
//! the protocol already tolerates (a commit record with unreadable siblings
//! is exactly the multicast-lag case of §4).
//!
//! Batching policy, tuned by [`BatchConfig`]:
//!
//! * With `max_delay == 0` (the default) a committer that finds the flush
//!   token free flushes whatever is queued at that instant — itself plus any
//!   commits that queued while the previous flush's data was in flight. This
//!   "natural" group commit adds **zero** latency for an uncontended client
//!   and grows batches automatically as storage latency and offered load
//!   rise.
//! * With `max_delay > 0` the flush leader waits up to that long for the
//!   queue to reach `max_batch`, trading commit latency for fewer storage
//!   API calls (the classic group-commit window).

use std::time::{Duration, Instant};

use aft_storage::io::IoEngine;
use aft_types::{AftResult, CommitPhase, Value};
use parking_lot::{Condvar, Mutex};

/// Tuning for the commit batcher. Only consulted over backends with a batch
/// write API; elsewhere every commit flushes alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum commits coalesced into one flush (≥ 1).
    pub max_batch: usize,
    /// How long a flush leader waits for the queue to fill before flushing.
    /// Zero flushes immediately with whatever has queued.
    pub max_delay: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 32,
            max_delay: Duration::ZERO,
        }
    }
}

impl BatchConfig {
    /// A configuration that disables coalescing: every commit flushes alone,
    /// reproducing the unbatched protocol exactly.
    pub fn disabled() -> Self {
        BatchConfig {
            max_batch: 1,
            max_delay: Duration::ZERO,
        }
    }

    /// Sets the maximum batch size (clamped to ≥ 1).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the group-commit window.
    pub fn with_max_delay(mut self, max_delay: Duration) -> Self {
        self.max_delay = max_delay;
        self
    }
}

/// Point-in-time counters of a [`CommitBatcher`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Commits submitted through the batcher.
    pub submitted: u64,
    /// Storage flushes performed (each is ≤ one data multi-put plus one
    /// metadata append).
    pub flushes: u64,
    /// Largest number of commits coalesced into one flush.
    pub largest_batch: u64,
}

impl BatchStats {
    /// Mean commits per flush; 1.0 means no coalescing happened.
    pub fn mean_batch(&self) -> f64 {
        if self.flushes == 0 {
            0.0
        } else {
            self.submitted as f64 / self.flushes as f64
        }
    }

    fn count_flush(&mut self, commits: usize) {
        self.flushes += 1;
        self.largest_batch = self.largest_batch.max(commits as u64);
    }
}

/// The §3.3 commit flush, for one transaction or a coalesced batch: every
/// data item is submitted concurrently, the flush **barriers** on all their
/// completions (all data durable first), and only then are the commit
/// records appended. `before` is called ahead of each [`CommitPhase`] and
/// its error abandons the flush at exactly that point, leaving in storage
/// what the protocol had reached — a chaos probe's "crash". Returns the
/// charged storage latency: the data barrier's overlapped cost plus the
/// record append's.
pub(crate) fn flush(
    io: &IoEngine,
    data: Vec<(String, Value)>,
    records: Vec<(String, Value)>,
    mut before: impl FnMut(CommitPhase) -> AftResult<()>,
) -> AftResult<Duration> {
    before(CommitPhase::BeforeDataPut)?;
    let mut cost = io.put_all(data)?;
    before(CommitPhase::BeforeRecordAppend)?;
    cost += io.put_all(records)?;
    before(CommitPhase::BeforeBroadcast)?;
    Ok(cost)
}

/// One queued commit: the transaction's data items and its commit record.
struct Entry {
    seq: u64,
    data: Vec<(String, Value)>,
    record: (String, Value),
}

#[derive(Default)]
struct State {
    /// Commits not yet taken by a flush, in `seq` order.
    queue: Vec<Entry>,
    /// Results of flushed entries, keyed by sequence number, awaiting pickup
    /// by their submitting threads. A successful flush reports the simulated
    /// storage latency it charged (data barrier + record append).
    completed: std::collections::HashMap<u64, AftResult<Duration>>,
    /// Whether some leader holds the flush token: it is collecting a batch
    /// or its data barrier has not fired yet.
    flushing: bool,
    /// Every entry with a smaller `seq` has been taken by some flush, whose
    /// leader will deliver its result.
    taken: u64,
    next_seq: u64,
    stats: BatchStats,
}

/// Coalesces concurrently submitted commits into shared storage flushes.
pub struct CommitBatcher {
    config: BatchConfig,
    state: Mutex<State>,
    wakeup: Condvar,
}

impl CommitBatcher {
    /// Creates a batcher with the given tuning.
    pub fn new(config: BatchConfig) -> Self {
        CommitBatcher {
            config: BatchConfig {
                max_batch: config.max_batch.max(1),
                max_delay: config.max_delay,
            },
            state: Mutex::new(State::default()),
            wakeup: Condvar::new(),
        }
    }

    /// The batcher's tuning.
    pub fn config(&self) -> BatchConfig {
        self.config
    }

    /// Counters since creation.
    pub fn stats(&self) -> BatchStats {
        self.state.lock().stats
    }

    fn release_token(&self) {
        self.state.lock().flushing = false;
        self.wakeup.notify_all();
    }

    /// Durably writes one transaction's `data` items and then its commit
    /// record, coalesced with concurrently submitted commits where the
    /// backend can share API calls between them. Returns the flush's charged
    /// storage latency once this transaction's commit record is durable; on
    /// a storage error every member of the failed flush gets the error.
    pub fn submit(
        &self,
        io: &IoEngine,
        data: Vec<(String, Value)>,
        record_key: String,
        record_value: Value,
    ) -> AftResult<Duration> {
        let record = (record_key, record_value);
        let mut state = self.state.lock();
        state.stats.submitted += 1;
        if self.config.max_batch == 1 || !io.storage().supports_batch_put() {
            state.stats.count_flush(1);
            drop(state);
            return flush(io, data, vec![record], |_| Ok(()));
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        state.queue.push(Entry { seq, data, record });
        // A leader may be sleeping in its group-commit window; let it see
        // the queue grow (and possibly reach max_batch).
        self.wakeup.notify_all();

        loop {
            if let Some(result) = state.completed.remove(&seq) {
                return result;
            }
            if state.flushing || seq < state.taken {
                // Some flush carries our entry, or a leader holds the token
                // and will either take it or hand the token back.
                self.wakeup.wait(&mut state);
                continue;
            }
            state.flushing = true;

            // Group-commit window: wait for more commits, bounded by
            // max_delay and max_batch. Our own entry is already queued.
            if !self.config.max_delay.is_zero() {
                let deadline = Instant::now() + self.config.max_delay;
                while state.queue.len() < self.config.max_batch {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    if self.wakeup.wait_for(&mut state, deadline - now).timed_out() {
                        break;
                    }
                }
            }

            let take = state.queue.len().min(self.config.max_batch);
            let mut seqs = Vec::with_capacity(take);
            let mut data = Vec::new();
            let mut records = Vec::with_capacity(take);
            for entry in state.queue.drain(..take) {
                seqs.push(entry.seq);
                data.extend(entry.data);
                records.push(entry.record);
            }
            state.taken = seqs.last().map_or(state.taken, |last| last + 1);
            state.stats.count_flush(take);
            drop(state);

            // The token goes back once the data barrier has fired, so the
            // next flush's data overlaps this one's record append.
            let mut holding = true;
            let result = flush(io, data, records, |phase| {
                if phase == CommitPhase::BeforeRecordAppend {
                    self.release_token();
                    holding = false;
                }
                Ok(())
            });

            state = self.state.lock();
            for seq in seqs {
                state.completed.insert(seq, result.clone());
            }
            if holding {
                // The data barrier failed before the hand-back.
                state.flushing = false;
            }
            // Wake waiters: batch members pick up results, queued entries
            // elect the next leader.
            self.wakeup.notify_all();
        }
    }
}

impl std::fmt::Debug for CommitBatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitBatcher")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_storage::io::IoConfig;
    use aft_storage::{InMemoryStore, OpKind, SharedStorage, StorageEngine};
    use bytes::Bytes;
    use std::sync::Arc;

    fn val(s: &str) -> Value {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn engine_over(store: &Arc<InMemoryStore>) -> IoEngine {
        IoEngine::new(store.clone() as SharedStorage, IoConfig::pipelined())
    }

    #[test]
    fn single_commit_flushes_immediately() {
        let store = InMemoryStore::shared();
        let io = engine_over(&store);
        let batcher = CommitBatcher::new(BatchConfig::default());
        batcher
            .submit(
                &io,
                vec![("data/k/1".into(), val("v"))],
                "commit/1".into(),
                val("r"),
            )
            .unwrap();
        assert!(store.get("data/k/1").unwrap().is_some());
        assert!(store.get("commit/1").unwrap().is_some());
        let stats = batcher.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.largest_batch, 1);
    }

    #[test]
    fn read_only_commits_write_only_the_record() {
        let store = InMemoryStore::shared();
        let io = engine_over(&store);
        let batcher = CommitBatcher::new(BatchConfig::default());
        batcher
            .submit(&io, Vec::new(), "commit/ro".into(), val("r"))
            .unwrap();
        assert_eq!(store.stats().calls(OpKind::BatchPut), 0);
        assert_eq!(store.stats().calls(OpKind::Put), 1);
    }

    #[test]
    fn window_coalesces_concurrent_commits() {
        let store = InMemoryStore::shared();
        let io = engine_over(&store);
        let batcher = Arc::new(CommitBatcher::new(
            BatchConfig::default()
                .with_max_batch(8)
                .with_max_delay(Duration::from_millis(100)),
        ));
        let threads = 8;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let batcher = Arc::clone(&batcher);
                let io = &io;
                scope.spawn(move || {
                    batcher
                        .submit(
                            io,
                            vec![(format!("data/k/{t}"), val("v"))],
                            format!("commit/{t}"),
                            val("r"),
                        )
                        .unwrap();
                });
            }
        });
        let stats = batcher.stats();
        assert_eq!(stats.submitted, 8);
        assert!(
            stats.flushes < 8,
            "a 100ms window must coalesce at least two of eight concurrent \
             commits (flushes: {})",
            stats.flushes
        );
        assert!(stats.largest_batch >= 2);
        // Every commit is durable regardless of which flush carried it.
        for t in 0..threads {
            assert!(store.get(&format!("commit/{t}")).unwrap().is_some());
        }
    }

    #[test]
    fn max_batch_one_never_coalesces() {
        let store = InMemoryStore::shared();
        let io = engine_over(&store);
        let batcher = Arc::new(CommitBatcher::new(BatchConfig::disabled()));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let batcher = Arc::clone(&batcher);
                let io = &io;
                scope.spawn(move || {
                    batcher
                        .submit(io, Vec::new(), format!("commit/{t}"), val("r"))
                        .unwrap();
                });
            }
        });
        let stats = batcher.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.flushes, 4);
        assert_eq!(stats.largest_batch, 1);
    }

    #[test]
    fn a_visible_commit_record_implies_its_data_under_concurrent_commits() {
        // §3.3's write ordering, observed from outside while 16 committers
        // race: whenever a commit record can be listed, the data it covers
        // can be read. Over Redis (no batch API: every commit flushes itself)
        // and over memory (coalesced flushes, token handed back mid-flush).
        use aft_storage::{BackendConfig, BackendKind};
        const COMMITTERS: usize = 16;
        for kind in [BackendKind::Redis, BackendKind::Memory] {
            let store: SharedStorage = aft_storage::make_backend(BackendConfig::test(kind));
            let io = IoEngine::new(store.clone(), IoConfig::pipelined());
            let batcher = CommitBatcher::new(BatchConfig::default().with_max_batch(4));
            let check_visible = || {
                let records = store.list_prefix("commit/").unwrap();
                for record in &records {
                    let t = record.strip_prefix("commit/").unwrap();
                    for half in ["a", "b"] {
                        assert!(
                            store.get(&format!("data/{half}/{t}")).unwrap().is_some(),
                            "{kind:?}: {record} is visible before data/{half}/{t}"
                        );
                    }
                }
                records.len()
            };
            std::thread::scope(|scope| {
                for t in 0..COMMITTERS {
                    let (batcher, io) = (&batcher, &io);
                    scope.spawn(move || {
                        let data = vec![
                            (format!("data/a/{t}"), val("v")),
                            (format!("data/b/{t}"), val("v")),
                        ];
                        batcher
                            .submit(io, data, format!("commit/{t}"), val("r"))
                            .unwrap();
                    });
                }
                while check_visible() < COMMITTERS {
                    std::thread::yield_now();
                }
            });
            let stats = batcher.stats();
            assert_eq!(stats.submitted, COMMITTERS as u64);
            if !store.supports_batch_put() {
                assert_eq!(stats.flushes, stats.submitted, "{kind:?}: nothing to share");
                assert_eq!(stats.largest_batch, 1);
            }
        }
    }

    /// A store whose put of `commit/A` blocks until `data/B` has been put:
    /// satisfiable only if B's flush can start while A's is between its two
    /// round trips. A watchdog turns the old behaviour — B queued behind the
    /// whole of A's flush — into an error instead of a hang.
    struct LatchStore {
        inner: Arc<InMemoryStore>,
        batches: bool,
        seen: Mutex<std::collections::HashSet<String>>,
        arrived: Condvar,
    }

    impl LatchStore {
        fn new(batches: bool) -> Arc<Self> {
            Arc::new(LatchStore {
                inner: InMemoryStore::shared(),
                batches,
                seen: Mutex::new(Default::default()),
                arrived: Condvar::new(),
            })
        }

        /// Blocks until `key` has been put; false if the watchdog fired.
        fn await_put(&self, key: &str) -> bool {
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut seen = self.seen.lock();
            while !seen.contains(key) {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return false;
                }
                let _ = self.arrived.wait_for(&mut seen, left);
            }
            true
        }

        fn observe(&self, key: &str) -> AftResult<()> {
            if key == "commit/A" && !self.await_put("data/B") {
                return Err(aft_types::AftError::Storage(
                    "commit/A never saw data/B: flushes do not overlap".into(),
                ));
            }
            self.seen.lock().insert(key.to_owned());
            self.arrived.notify_all();
            Ok(())
        }
    }

    impl StorageEngine for LatchStore {
        fn name(&self) -> &'static str {
            "latch"
        }

        fn get(&self, key: &str) -> AftResult<Option<Value>> {
            self.inner.get(key)
        }

        fn put(&self, key: &str, value: Value) -> AftResult<()> {
            self.observe(key)?;
            self.inner.put(key, value)
        }

        fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()> {
            for (key, _) in &items {
                self.observe(key)?;
            }
            self.inner.put_batch(items)
        }

        fn delete(&self, key: &str) -> AftResult<()> {
            self.inner.delete(key)
        }

        fn delete_batch(&self, keys: &[String]) -> AftResult<()> {
            self.inner.delete_batch(keys)
        }

        fn list_prefix(&self, prefix: &str) -> AftResult<Vec<String>> {
            self.inner.list_prefix(prefix)
        }

        fn supports_batch_put(&self) -> bool {
            self.batches
        }

        fn supports_deferred_latency(&self) -> bool {
            true
        }

        fn stats(&self) -> Arc<aft_storage::StorageStats> {
            self.inner.stats()
        }
    }

    #[test]
    fn a_second_flush_starts_while_the_first_appends_its_record() {
        for batches in [false, true] {
            let store = LatchStore::new(batches);
            let io = IoEngine::new(store.clone() as SharedStorage, IoConfig::pipelined());
            let batcher = CommitBatcher::new(BatchConfig::default());
            let commit = |t: &str| {
                let data = vec![(format!("data/{t}"), val("v"))];
                batcher.submit(&io, data, format!("commit/{t}"), val("r"))
            };
            std::thread::scope(|scope| {
                let a = scope.spawn(|| commit("A"));
                // B arrives only once A's flush is under way, so A always
                // holds whatever there is to hold.
                assert!(store.await_put("data/A"), "batches={batches}");
                commit("B").unwrap();
                a.join().unwrap().unwrap();
            });
            assert!(store.inner.get("commit/A").unwrap().is_some());
            assert!(store.inner.get("commit/B").unwrap().is_some());
            assert_eq!(batcher.stats().flushes, 2, "batches={batches}");
        }
    }

    #[test]
    fn flush_reports_its_charged_storage_latency() {
        use aft_storage::latency::LatencyProfile;
        use aft_storage::{
            LatencyMode, LatencyModel, Service, ServiceProfile, SimStore, DEFAULT_STRIPES,
        };
        // A fixed 20ms write latency (no variance) makes the accounting
        // exact: an 8-key commit charges one overlapped data round trip plus
        // the record append — 40ms — where sequential charging would be
        // 9 × 20ms.
        let profile = ServiceProfile {
            write: LatencyProfile::new(20_000.0, 20_000.0),
            ..ServiceProfile::zero()
        };
        let service = Service {
            profile,
            ..Service::S3
        };
        let latency = LatencyModel::new(LatencyMode::Virtual, 1.0);
        let storage: SharedStorage = Arc::new(SimStore::of(service, latency, 5, DEFAULT_STRIPES));
        let io = IoEngine::new(storage, IoConfig::pipelined());
        let batcher = CommitBatcher::new(BatchConfig::disabled());
        let data: Vec<(String, Value)> =
            (0..8).map(|i| (format!("data/k/{i}"), val("v"))).collect();
        let cost = batcher
            .submit(&io, data, "commit/1".into(), val("r"))
            .unwrap();
        assert!(
            cost >= Duration::from_millis(39) && cost <= Duration::from_millis(42),
            "barrier(max of 8 × 20ms) + record(20ms) ≈ 40ms, got {cost:?}"
        );
    }

    #[test]
    fn zero_max_batch_is_clamped() {
        let batcher = CommitBatcher::new(BatchConfig::default().with_max_batch(0));
        assert_eq!(batcher.config().max_batch, 1);
    }
}
