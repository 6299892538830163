//! The AFT node: Table 1's transactional key-value API, the write-ordering
//! commit protocol (§3.3), and the glue between the read protocol, the write
//! buffer, and the caches.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aft_storage::checkpoint::{
    compact_log, publish_checkpoint, Checkpoint, CheckpointWriteOutcome, CompactionOutcome,
    CHECKPOINT_KEEP,
};
use aft_storage::io::{IoConfig, IoEngine, StorageRequest};
use aft_storage::latency::{LatencyMode, LatencyModel, LatencyProfile};
use aft_storage::SharedStorage;
use aft_types::codec::encode_keyed_commit_record;
use aft_types::{
    AftError, AftResult, Clock, Key, KeyVersion, SharedClock, SystemClock, Timestamp,
    TransactionId, TransactionRecord, Uuid, Value,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::commit_batcher::{flush, BatchStats};
use crate::data_cache::DataCache;
use crate::gc::{GcOutcome, LocalGcConfig};
use crate::metadata::{Merged, MetadataCache};
use crate::read::{select_version, VersionChoice};
use crate::stats::NodeStats;
use crate::write_buffer::WriteBuffer;

// The commit-phase vocabulary moved to `aft-types` so the unified chaos
// layer can plan node kills against the same phases the node's commit path
// announces; re-exported here because this is where callers found it.
pub use aft_types::CommitPhase;

/// The one hook a node calls at every [`CommitPhase`] it reaches: each
/// phase of a commit, the checkpoint write and the bootstrap.
///
/// It survives because a fault *inside* a call is one no caller can inject
/// from outside: §4.2's lost broadcast needs the record durable and the node
/// gone before it acknowledges, and a maintenance round that runs between a
/// commit's timestamp and its record is what the fault manager's floor must
/// survive. `aft_workload::sim` implements it, so a schedule answers each
/// phase: go on, park the call while other steps run, or kill the node. It
/// is carried in [`NodeConfig`], so a replacement built from a cluster's
/// template carries it too, from its bootstrap on.
///
/// An error is the node's crash at that instant: the call fails with it,
/// whatever reached storage before the phase stays there, and the node
/// fails every later phase without asking again ([`AftNode::crashed`]).
///
/// The cluster's dissemination asks the sending node's hook too, at each
/// batch of commit records it sends a peer ([`AftNode::holds`]).
pub trait PhaseHook: Send + Sync + std::fmt::Debug {
    /// Called just before `phase` on `node_id`. `Ok(())` goes on, perhaps
    /// after blocking the calling thread a while.
    fn at(&self, node_id: &str, phase: CommitPhase) -> AftResult<()>;

    /// Whether the batch `sender` sends `receiver` in dissemination round
    /// `round` waits for a later round, as over a partitioned link. No batch
    /// waits by default.
    fn hold(&self, _round: u64, _sender: &str, _receiver: &str) -> bool {
        false
    }
}

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

/// Configuration of a single AFT node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Human-readable node identifier (used in cluster membership and logs).
    pub node_id: String,
    /// Capacity of the data cache in bytes; 0 disables data caching (§6.2
    /// evaluates both settings).
    pub data_cache_bytes: usize,
    /// Spill threshold of the Atomic Write Buffer: once a single
    /// transaction's buffered bytes exceed this, intermediary data is written
    /// to storage ahead of commit (§3.3).
    pub write_buffer_spill_bytes: usize,
    /// Whether to warm the metadata cache from the Transaction Commit Set at
    /// startup (§3.1); replacement nodes in a cluster always do.
    pub bootstrap: bool,
    /// Latency of one client→shim API call (the network hop that is part of
    /// AFT's overhead in Figure 2), charged on the virtual clock; zero for
    /// unit tests.
    pub rpc_profile: LatencyProfile,
    /// Seed for the node's RNG (transaction UUIDs, latency sampling).
    pub rng_seed: u64,
    /// Tuning of the node's storage I/O engine (in-flight window, retry
    /// policy). `IoConfig::sequential()` reproduces the historical
    /// one-round-trip-at-a-time behaviour.
    pub io: IoConfig,
    /// Background checkpoint policy; disabled by default. When enabled, the
    /// maintenance driver (cluster layer or the application) calls
    /// [`AftNode::maybe_checkpoint`] periodically and the policy decides
    /// whether a round is due.
    pub checkpoint: CheckpointPolicy,
    /// The hook asked at every [`CommitPhase`]; `None` runs every phase.
    pub phase_hook: Option<Arc<dyn PhaseHook>>,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            node_id: "aft-node-0".to_owned(),
            data_cache_bytes: 64 * 1024 * 1024,
            write_buffer_spill_bytes: 16 * 1024 * 1024,
            bootstrap: true,
            rpc_profile: LatencyProfile::ZERO,
            rng_seed: 0xAF71,
            io: IoConfig::pipelined(),
            checkpoint: CheckpointPolicy::disabled(),
            phase_hook: None,
        }
    }
}

impl NodeConfig {
    /// A zero-latency configuration for unit tests, with caching enabled.
    pub fn test() -> Self {
        NodeConfig::default()
    }

    /// A zero-latency test configuration without a data cache.
    pub fn test_without_cache() -> Self {
        NodeConfig {
            data_cache_bytes: 0,
            ..NodeConfig::default()
        }
    }

    /// Sets the node identifier.
    pub fn with_node_id(mut self, id: impl Into<String>) -> Self {
        self.node_id = id.into();
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }

    /// Sets the background checkpoint policy.
    pub fn with_checkpoint(mut self, checkpoint: CheckpointPolicy) -> Self {
        self.checkpoint = checkpoint;
        self
    }
}

/// What the select step of a read decided for one key.
enum Selected {
    /// The transaction's own buffered write.
    Buffered(Value),
    /// No visible version (the NULL version of §3.2).
    Null,
    /// The committed version Algorithm 1 chose.
    Version(TransactionId),
}

/// What one drain of a node hands the multicast and the fault manager (§4,
/// §4.2).
#[derive(Debug)]
pub struct CommitDrain {
    /// The commits finished on the node since the last drain.
    pub records: Vec<Arc<TransactionRecord>>,
    /// The node's commit floor: the smallest timestamp it gave a commit that
    /// is in no drain — one still under way, or one that failed after
    /// sending its record since the node last reported, so that the record
    /// may be durable with nobody to multicast it — or `None`. The fault
    /// manager's next scan reaches back to it. A commit takes its timestamp
    /// under the drain's lock, so a commit this floor misses starts after
    /// the drain and is in a later report.
    pub floor: Option<Timestamp>,
}

/// A node's finished commits that no drain has handed out yet, and what it
/// has to report to the fault manager.
#[derive(Debug, Default)]
struct Undrained {
    /// Finished commits, for the next multicast.
    records: Vec<Arc<TransactionRecord>>,
    /// The timestamps of the commits under way, repeats kept.
    committing: Vec<Timestamp>,
    /// The oldest commit that failed after sending its record since the last
    /// report.
    failed: Option<Timestamp>,
    /// The oldest commit that finished since the last report: what a report
    /// that leaves `records` to a drain must still point at.
    finished: Option<Timestamp>,
}

impl Undrained {
    /// Takes a timestamp from `clock` for a commit now under way.
    fn begin(&mut self, clock: &dyn Clock) -> Timestamp {
        let timestamp = clock.now();
        self.committing.push(timestamp);
        timestamp
    }

    /// The commit that took `timestamp` finished with `record`.
    fn finish(&mut self, timestamp: Timestamp, record: Arc<TransactionRecord>) {
        self.end(timestamp);
        self.records.push(record);
        lower(&mut self.finished, timestamp);
    }

    /// The commit that took `timestamp` failed, after sending its record or
    /// before.
    fn fail(&mut self, timestamp: Timestamp, record_sent: bool) {
        self.end(timestamp);
        if record_sent {
            lower(&mut self.failed, timestamp);
        }
    }

    fn end(&mut self, timestamp: Timestamp) {
        let at = self
            .committing
            .iter()
            .position(|&t| t == timestamp)
            .expect("an ending commit began under this lock");
        self.committing.swap_remove(at);
    }

    /// The floor of one report: the commits under way and the failures not
    /// yet reported, which are reported now.
    fn report(&mut self) -> Option<Timestamp> {
        self.committing
            .iter()
            .copied()
            .chain(self.failed.take())
            .min()
    }
}

fn lower(mark: &mut Option<Timestamp>, timestamp: Timestamp) {
    *mark = Some(mark.map_or(timestamp, |t| t.min(timestamp)));
}

/// A single AFT shim node.
///
/// All methods take `&self`; a node is shared across many client threads
/// (each FaaS function invocation issues its operations against one node).
pub struct AftNode {
    config: NodeConfig,
    storage: SharedStorage,
    /// The pipelined submission/completion engine every storage access on
    /// this node goes through (commit flushes, read fetches, spills).
    io: IoEngine,
    clock: SharedClock,
    buffer: WriteBuffer,
    /// Commits that reached the storage flush.
    commit_flushes: AtomicU64,
    metadata: MetadataCache,
    data_cache: DataCache,
    stats: Arc<NodeStats>,
    rpc_latency: Arc<LatencyModel>,
    rng: Mutex<StdRng>,
    /// Commits made on this node that no drain has handed out yet (§4, §4.2).
    undrained: Mutex<Undrained>,
    /// Set once the phase hook crashed the node.
    crashed: AtomicBool,
    /// Commits on this node since the last checkpoint round.
    checkpoint_commits: AtomicU64,
    /// The last checkpoint round's id.
    checkpoint_last_id: Mutex<u64>,
}

impl AftNode {
    /// Creates a node over `storage` using the real system clock.
    pub fn new(config: NodeConfig, storage: SharedStorage) -> AftResult<Arc<Self>> {
        Self::with_clock(config, storage, SystemClock::shared())
    }

    /// Creates a node with an explicit clock (tests use [`aft_types::MockClock`]).
    pub fn with_clock(
        config: NodeConfig,
        storage: SharedStorage,
        clock: SharedClock,
    ) -> AftResult<Arc<Self>> {
        let io = IoEngine::new(storage.clone(), config.io);
        let metadata = MetadataCache::new();
        if config.bootstrap {
            // Checkpoint-aware warm-up: latest valid checkpoint plus the
            // commit-set tail behind it; degenerates to full replay when no
            // checkpoint exists.
            crate::bootstrap::warm_metadata_cache_checkpointed(
                &io,
                &metadata,
                &config.node_id,
                config.phase_hook.as_ref(),
            )?;
        }
        let rpc_latency = LatencyModel::new(LatencyMode::Virtual, 1.0);
        Ok(Arc::new(AftNode {
            data_cache: DataCache::new(config.data_cache_bytes),
            buffer: WriteBuffer::new(),
            commit_flushes: AtomicU64::new(0),
            stats: NodeStats::new_shared(),
            rng: Mutex::new(StdRng::seed_from_u64(config.rng_seed)),
            undrained: Mutex::new(Undrained::default()),
            crashed: AtomicBool::new(false),
            checkpoint_commits: AtomicU64::new(0),
            checkpoint_last_id: Mutex::new(0),
            rpc_latency,
            metadata,
            io,
            storage,
            clock,
            config,
        }))
    }

    /// The node's identifier.
    pub fn node_id(&self) -> &str {
        &self.config.node_id
    }

    /// The node's operational counters.
    pub fn stats(&self) -> &Arc<NodeStats> {
        &self.stats
    }

    /// The storage engine this node commits to.
    pub fn storage(&self) -> &SharedStorage {
        &self.storage
    }

    /// The node's pipelined storage I/O engine.
    pub fn io(&self) -> &IoEngine {
        &self.io
    }

    /// The node's committed-transaction metadata cache.
    pub fn metadata(&self) -> &MetadataCache {
        &self.metadata
    }

    /// The node's data cache.
    pub fn data_cache(&self) -> &DataCache {
        &self.data_cache
    }

    /// Number of transactions currently in flight on this node.
    pub fn in_flight(&self) -> usize {
        self.buffer.len()
    }

    /// Commit-flush counters: every commit that reached storage is one
    /// flush of its own.
    pub fn commit_batch_stats(&self) -> BatchStats {
        BatchStats::of(self.commit_flushes.load(Ordering::Relaxed))
    }

    /// Whether the [`PhaseHook`] crashed the node. A crashed node fails
    /// every later phase, and a cluster's registry counts it failed.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// Whether the batch of commit records this node sends `receiver` in
    /// dissemination round `round` waits for a later round: its
    /// [`PhaseHook::hold`] answer.
    pub fn holds(&self, round: u64, receiver: &str) -> bool {
        let hook = self.config.phase_hook.as_ref();
        hook.is_some_and(|hook| hook.hold(round, self.node_id(), receiver))
    }

    /// Asks the phase hook at `phase`; its error crashes the node.
    fn at(&self, phase: CommitPhase) -> AftResult<()> {
        if self.crashed() {
            let id = self.node_id();
            return Err(AftError::Unavailable(format!("{id} crashed")));
        }
        let Some(hook) = &self.config.phase_hook else {
            return Ok(());
        };
        let answer = hook.at(self.node_id(), phase);
        if answer.is_err() {
            self.crashed.store(true, Ordering::Release);
        }
        answer
    }

    fn rpc(&self) {
        if self.config.rpc_profile.median_us > 0.0 {
            // Sample under the RNG lock, sleep outside it — concurrent client
            // requests to the same node must not serialise on the sampler.
            self.rpc_latency
                .apply_with(&self.config.rpc_profile, &self.rng, 0);
        }
    }

    // ------------------------------------------------------------------
    // Table 1 API
    // ------------------------------------------------------------------

    /// `StartTransaction()`: begins a new transaction and returns its ID.
    ///
    /// The ID carries the start timestamp and a fresh UUID; the *commit*
    /// timestamp is assigned later, in [`commit`](AftNode::commit) (§3.1).
    pub fn start_transaction(&self) -> TransactionId {
        self.rpc();
        let uuid = {
            let mut rng = self.rng.lock();
            Uuid::from_rng(&mut *rng)
        };
        let id = TransactionId::new(self.clock.now(), uuid);
        self.buffer.begin(id);
        self.stats.record_started();
        id
    }

    /// Re-registers a transaction ID on this node, used when a retried
    /// function continues a transaction whose state was lost (§3.3.1). If the
    /// transaction is still in flight this is a no-op.
    pub fn ensure_transaction(&self, id: TransactionId) {
        if !self.buffer.contains(&id) {
            self.buffer.begin(id);
            self.stats.record_started();
        }
    }

    /// `Get(txid, key)`: reads `key` in the context of transaction `txid`.
    ///
    /// Returns `Ok(None)` when the key has no visible version (the NULL
    /// version of §3.2) and `Err(AftError::NoValidVersion)` when versions
    /// exist but none is compatible with the transaction's read set (§3.6) —
    /// the caller should abort and retry the logical request.
    pub fn get(&self, txid: &TransactionId, key: &Key) -> AftResult<Option<Value>> {
        Ok(self.get_versioned(txid, key)?.map(|(value, _)| value))
    }

    /// Like [`get`](AftNode::get), but also reports which committed
    /// transaction wrote the returned version (`None` when the value came
    /// from the transaction's own write buffer).
    ///
    /// Key versions are normally hidden from clients (§3.2); this variant
    /// exists for the evaluation harness, which uses the true version IDs to
    /// verify that observed read sets really are Atomic Readsets.
    pub fn get_versioned(
        &self,
        txid: &TransactionId,
        key: &Key,
    ) -> AftResult<Option<(Value, Option<TransactionId>)>> {
        self.rpc();
        let target = match self.select(txid, key)? {
            Selected::Buffered(value) => return Ok(Some((value, None))),
            Selected::Null => return Ok(None),
            Selected::Version(tid) => tid,
        };

        // Fetch the payload: data cache first, then storage (through the I/O
        // engine, so the charged latency is observable in virtual mode).
        let value = match self.data_cache.get(key, &target) {
            Some(value) => {
                self.stats.record_read_from_data_cache();
                value
            }
            None => {
                let storage_key = KeyVersion::new(key.clone(), target).storage_key();
                let outcome = self.io.execute(StorageRequest::Get(storage_key));
                self.stats.read_storage_latency().record(outcome.cost);
                self.fetched(txid, key, target, outcome.result?.into_value())?
            }
        };

        // Extend the read set only after the read has definitely succeeded.
        self.buffer
            .with_txn(txid, |txn| txn.reads.record(key.clone(), target))?;
        Ok(Some((value, Some(target))))
    }

    /// Reads several keys in one request; its data-cache misses go to
    /// storage together, as one read.
    ///
    /// Algorithm 1 stays sequential: each key's version selection must see
    /// the versions already chosen for the keys before it, so the combined
    /// read set remains an Atomic Readset. Each choice is recorded in the
    /// read set as it is made, before any payload is fetched. Selection is
    /// in-memory work; the expensive part is fetching the chosen versions'
    /// payloads that the data cache does not hold. Those storage keys go out
    /// as one [`IoEngine::get_all`]. A service with a multi-key read call
    /// serves them in one call (memory) or one per 100 keys (DynamoDB's
    /// `BatchGetItem`). One without it (S3, Redis) gets one `Get` per miss,
    /// issued together. Either way the round trips overlap instead of
    /// summing.
    ///
    /// If a chosen version is gone by the time it is fetched (global GC
    /// racing a long transaction, §5.2.1), the whole call returns
    /// [`AftError::NoValidVersion`] and the client aborts. Until then, the
    /// extra read-set entries only make later selections *more*
    /// conservative, never unsound.
    pub fn get_all(&self, txid: &TransactionId, keys: &[Key]) -> AftResult<Vec<Option<Value>>> {
        self.rpc();
        let mut out: Vec<Option<Value>> = vec![None; keys.len()];
        // (output index, chosen version) pairs that need a storage fetch.
        let mut fetches: Vec<(usize, TransactionId)> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let target = match self.select(txid, key)? {
                Selected::Buffered(value) => {
                    out[i] = Some(value);
                    continue;
                }
                Selected::Null => continue,
                Selected::Version(tid) => tid,
            };
            // Record the choice now so the next key's selection sees it.
            self.buffer
                .with_txn(txid, |txn| txn.reads.record(key.clone(), target))?;

            if let Some(value) = self.data_cache.get(key, &target) {
                self.stats.record_read_from_data_cache();
                out[i] = Some(value);
            } else {
                fetches.push((i, target));
            }
        }

        if fetches.is_empty() {
            return Ok(out);
        }

        // One storage read for every cache miss.
        let storage_keys = fetches
            .iter()
            .map(|&(i, target)| KeyVersion::new(keys[i].clone(), target).storage_key())
            .collect();
        let (values, cost) = self.io.get_all(storage_keys)?;
        self.stats.read_storage_latency().record(cost);
        for ((i, target), value) in fetches.into_iter().zip(values) {
            out[i] = Some(self.fetched(txid, &keys[i], target, value)?);
        }
        Ok(out)
    }

    /// The *select* step of a read, under one lock of the transaction's
    /// state: read-your-writes (§3.5) — a buffered write wins and bypasses
    /// Algorithm 1 — then Algorithm 1 over the local committed-transaction
    /// metadata. Does not extend the read set; the caller decides when.
    fn select(&self, txid: &TransactionId, key: &Key) -> AftResult<Selected> {
        self.stats.record_read();
        self.buffer.with_txn(txid, |txn| {
            if let Some(value) = txn.buffered_value(key) {
                self.stats.record_read_from_write_buffer();
                return Ok(Selected::Buffered(value));
            }
            match select_version(key, &txn.reads, &self.metadata) {
                VersionChoice::NotFound => {
                    self.stats.record_null_read();
                    Ok(Selected::Null)
                }
                VersionChoice::NoValidVersion => Err(self.no_valid_version(txid, key)),
                VersionChoice::Version(tid) => Ok(Selected::Version(tid)),
            }
        })?
    }

    /// The *fetched* step of a read: the payload storage returned for the
    /// selected `version` enters the data cache, or — the version's data was
    /// deleted underneath us (global GC racing a long transaction, §5.2.1) —
    /// is treated like a missing valid version so the client retries.
    fn fetched(
        &self,
        txid: &TransactionId,
        key: &Key,
        version: TransactionId,
        fetched: Option<Value>,
    ) -> AftResult<Value> {
        let Some(value) = fetched else {
            return Err(self.no_valid_version(txid, key));
        };
        self.stats.record_read_from_storage();
        self.fill_data_cache(key, version, &value);
        Ok(value)
    }

    fn no_valid_version(&self, txid: &TransactionId, key: &Key) -> AftError {
        self.stats.record_no_valid_version();
        AftError::NoValidVersion {
            key: key.clone(),
            txn: *txid,
        }
    }

    /// Caches a payload a read just fetched from storage. Between version
    /// selection and this fill the read is not in any read set the local GC
    /// can see, so a sweep may have dropped the version (with its record, or
    /// retired alone) and evicted a cache entry that was not there yet; an
    /// entry inserted after that could never be selected again nor swept.
    /// Hence insert, then look: if the version is gone the entry goes too,
    /// and a sweep that drops the version after the look evicts the entry
    /// itself.
    fn fill_data_cache(&self, key: &Key, version: TransactionId, value: &Value) {
        self.data_cache.insert(key.clone(), version, value.clone());
        if !self.metadata.view().holds(key, &version) {
            self.data_cache.evict(key, &version);
        }
    }

    /// `Put(txid, key, value)`: buffers an update for transaction `txid`.
    pub fn put(&self, txid: &TransactionId, key: Key, value: Value) -> AftResult<()> {
        self.put_all(txid, [(key, value)])
    }

    /// Buffers several updates with a single client→shim request (the
    /// "AFT Batch" configuration of Figure 2).
    pub fn put_all(
        &self,
        txid: &TransactionId,
        items: impl IntoIterator<Item = (Key, Value)>,
    ) -> AftResult<()> {
        self.rpc();
        let spill = self.buffer.with_txn(txid, |txn| {
            for (key, value) in items {
                self.stats.record_write();
                txn.buffer_write(key, value);
            }
            (txn.buffered_bytes() >= self.config.write_buffer_spill_bytes)
                .then(|| txn.begin_spill())
        })?;
        // A saturated write buffer proactively writes intermediary data; the
        // data stays invisible because no commit record references it yet
        // (§3.3). Performed outside the buffer lock, with the round trips
        // overlapped by the I/O engine, and marked durable only once it is.
        if let Some(written) = spill {
            let items = written
                .iter()
                .map(|(key, value)| {
                    (
                        KeyVersion::new(key.clone(), *txid).storage_key(),
                        value.clone(),
                    )
                })
                .collect();
            self.io.put_all(items)?;
            self.buffer
                .with_txn(txid, |txn| txn.confirm_spill(&written))?;
        }
        Ok(())
    }

    /// `CommitTransaction(txid)`: persists the transaction's updates and its
    /// commit record, makes them visible, and returns the final transaction
    /// ID (with the commit timestamp).
    ///
    /// The ordering is the write-ordering protocol of §3.3: data first, then
    /// the commit record (or both in one all-or-nothing call, where the store
    /// has one), then (and only then) local visibility. The call returns only
    /// after both are durable in storage.
    pub fn commit(&self, txid: &TransactionId) -> AftResult<TransactionId> {
        self.rpc();
        let mut txn = self.buffer.take(txid)?;

        // Assign the commit timestamp from the local clock (§3.1), under the
        // lock a drain reports from: the report names every commit under way.
        let timestamp = self.undrained.lock().begin(self.clock.as_ref());
        let final_id = TransactionId::new(timestamp, txid.uuid);
        txn.id = final_id;

        // 1. Persist the transaction's key versions (one storage key per
        //    version, so concurrent committers never interfere) that no spill
        //    has made durable already.
        let items = txn.storage_items();

        // 2. Persist the data and then the commit record (§3.3's flush: data
        //    puts overlapped, a barrier, then the record; one call where the
        //    store applies it all-or-nothing), on this thread.
        //    Returns the charged storage latency once the record is durable.
        //    The phase hook is asked before every phase: its error is the
        //    node's crash, leaving exactly the storage state the protocol had
        //    reached by that point. A flush that fails after sending the
        //    record may have left it durable, so the node reports it to the
        //    fault manager (§4.2).
        let record = TransactionRecord::new(final_id, txn.writes.keys().cloned());
        let record_item = (record.storage_key(), encode_keyed_commit_record(&record));
        self.commit_flushes.fetch_add(1, Ordering::Relaxed);
        let mut record_sent = false;
        let flushed = flush(&self.io, items, record_item, |phase| {
            self.at(phase)?;
            record_sent |= phase == CommitPhase::BeforeRecordAppend;
            Ok(())
        });
        let flush_cost = match flushed {
            Ok(cost) => cost,
            Err(e) => {
                self.undrained.lock().fail(timestamp, record_sent);
                return Err(e);
            }
        };
        self.stats.commit_storage_latency().record(flush_cost);

        // 3. Only now make the transaction visible to other requests.
        let record = Arc::new(record);
        self.metadata.insert(Arc::clone(&record));
        for (key, value) in txn.writes {
            self.data_cache.insert(key, final_id, value);
        }
        self.undrained.lock().finish(timestamp, record);
        self.stats.record_committed();
        self.checkpoint_commits.fetch_add(1, Ordering::Relaxed);
        Ok(final_id)
    }

    /// `AbortTransaction(txid)`: discards the transaction's buffered updates.
    ///
    /// Spilled intermediary data (never visible) is deleted eagerly.
    pub fn abort(&self, txid: &TransactionId) -> AftResult<()> {
        self.rpc();
        let txn = self.buffer.take(txid)?;
        let spilled = txn.spilled_storage_keys();
        if !spilled.is_empty() {
            self.io
                .execute(StorageRequest::DeleteBatch(spilled))
                .result?;
        }
        self.stats.record_aborted();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Cluster hooks: multicast, fault manager, garbage collection
    // ------------------------------------------------------------------

    /// Drains the commits made on this node since the last drain, with the
    /// node's commit floor (see [`CommitDrain`]). The cluster's multicast
    /// thread calls this every broadcast period (§4); supersedence pruning
    /// (§4.1) is applied by the caller so that the fault manager can still
    /// receive the unpruned stream, and the floor tells the fault manager
    /// where in the commit set a record nobody multicast can still be (§4.2).
    pub fn drain_recent_commits(&self) -> CommitDrain {
        let mut undrained = self.undrained.lock();
        undrained.finished = None;
        CommitDrain {
            floor: undrained.report(),
            records: std::mem::take(&mut undrained.records),
        }
    }

    /// The commit floor of a node that is not being drained (failed,
    /// replaced, not yet active): a drain's floor, lowered to the oldest
    /// commit that finished since the node last reported — its record waits
    /// for a drain that may never come. A commit under way is in every report
    /// until it ends; a failed or finished one is reported once, by this or
    /// by [`drain_recent_commits`](AftNode::drain_recent_commits). The
    /// records stay for a drain.
    pub fn undrained_floor(&self) -> Option<Timestamp> {
        let mut undrained = self.undrained.lock();
        let finished = undrained.finished.take();
        undrained.report().into_iter().chain(finished).min()
    }

    /// Merges commit records learned from peers (a dissemination sweep, a
    /// healed partition retry) or from the fault manager into the local
    /// metadata cache, under one lock, and returns the ones that were *new*
    /// to this node.
    ///
    /// Records already superseded locally are skipped entirely (§4.1), and
    /// known ones dedup instead of re-applying; both count in
    /// `duplicate_peer_commits`, which is what makes redundant delivery paths
    /// (retry floods, the fault-manager firehose) idempotent. Fresh records
    /// charge the commit-timestamp → now gap to the `propagation_lag`
    /// recorder (§4.2 RYW-staleness window).
    pub fn receive_peer_commits(
        &self,
        records: &[Arc<TransactionRecord>],
    ) -> Vec<Arc<TransactionRecord>> {
        let mut fresh = Vec::new();
        for (record, merged) in records.iter().zip(self.metadata.merge(records)) {
            if merged == Merged::Superseded {
                self.stats.record_duplicate_peer_commit();
                continue;
            }
            let lag_ms = self.clock.now().saturating_sub(record.id.timestamp);
            if merged == Merged::New {
                self.stats.record_peer_commit();
                self.stats
                    .propagation_lag()
                    .record(Duration::from_millis(lag_ms));
                fresh.push(Arc::clone(record));
            } else {
                self.stats.record_duplicate_peer_commit();
            }
        }
        fresh
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
    pub fn run_local_gc(&self, config: &LocalGcConfig) -> GcOutcome {
        let mut outcome = GcOutcome::default();
        let now_ms = self.clock.now();
        let min_age_ms = config.min_age.as_millis() as u64;
        let superseded = self.metadata.superseded_oldest_first();
        let debited = self.metadata.debited_oldest_first();
        if superseded.is_empty() && debited.is_empty() {
            return outcome;
        }
        let read = self.buffer.versions_read();
        // Ids come oldest-first, so once one is too young every later one is
        // younger still.
        let mut collectable = |id: &TransactionId, taken: usize| {
            if taken >= config.max_deletions_per_sweep {
                return None;
            }
            outcome.examined += 1;
            if now_ms.saturating_sub(id.timestamp) < min_age_ms {
                return None;
            }
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
            let candidate = (self.clock.now() << 10) | (fnv1a(self.node_id().as_bytes()) & 0x3FF);
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

    /// Convenience wrapper binding a transaction to this node.
    pub fn transaction(self: &Arc<Self>) -> TransactionHandle {
        TransactionHandle::begin(Arc::clone(self))
    }
}

/// FNV-1a over `bytes`; disambiguates concurrent checkpointers' ids.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// A convenience handle pairing an [`AftNode`] with one transaction ID.
///
/// Examples and application code read more naturally with a handle; the
/// underlying node API is unchanged (and is what the FaaS layer uses, since a
/// transaction handle cannot cross function boundaries — only the ID can).
pub struct TransactionHandle {
    node: Arc<AftNode>,
    id: TransactionId,
    finished: bool,
}

impl TransactionHandle {
    /// Starts a new transaction on `node`.
    pub fn begin(node: Arc<AftNode>) -> Self {
        let id = node.start_transaction();
        TransactionHandle {
            node,
            id,
            finished: false,
        }
    }

    /// The transaction's ID (pass it to the next function in a composition).
    pub fn id(&self) -> TransactionId {
        self.id
    }

    /// Reads `key` within this transaction.
    pub fn get(&self, key: impl Into<Key>) -> AftResult<Option<Value>> {
        self.node.get(&self.id, &key.into())
    }

    /// Reads several keys within this transaction, its data-cache misses in
    /// one storage read (see [`AftNode::get_all`]).
    pub fn get_all(&self, keys: &[Key]) -> AftResult<Vec<Option<Value>>> {
        self.node.get_all(&self.id, keys)
    }

    /// Writes `key` within this transaction.
    pub fn put(&self, key: impl Into<Key>, value: impl Into<Value>) -> AftResult<()> {
        self.node.put(&self.id, key.into(), value.into())
    }

    /// Commits the transaction and returns its final ID.
    pub fn commit(mut self) -> AftResult<TransactionId> {
        self.finished = true;
        self.node.commit(&self.id)
    }

    /// Aborts the transaction.
    pub fn abort(mut self) -> AftResult<()> {
        self.finished = true;
        self.node.abort(&self.id)
    }
}

impl Drop for TransactionHandle {
    fn drop(&mut self) {
        if !self.finished {
            // Dropping an unfinished handle aborts the transaction, mirroring
            // the timeout-abort a crashed function would eventually get.
            let _ = self.node.abort(&self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_storage::{BackendConfig, BackendKind, InMemoryStore, StorageEngine};
    use aft_types::MockClock;
    use bytes::Bytes;

    fn val(s: &str) -> Value {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn test_node() -> Arc<AftNode> {
        let storage: SharedStorage = InMemoryStore::shared();
        // A strictly increasing clock keeps commit order equal to timestamp
        // order, which makes version-selection assertions deterministic.
        AftNode::with_clock(
            NodeConfig::test(),
            storage,
            aft_types::clock::TickingClock::shared(1_000, 1),
        )
        .unwrap()
    }

    #[test]
    fn write_then_read_within_transaction() {
        let node = test_node();
        let t = node.start_transaction();
        assert!(node.get(&t, &Key::new("k")).unwrap().is_none());
        node.put(&t, Key::new("k"), val("v")).unwrap();
        // Read-your-writes before commit.
        assert_eq!(node.get(&t, &Key::new("k")).unwrap().unwrap(), val("v"));
        let committed = node.commit(&t).unwrap();
        assert_eq!(committed.uuid, t.uuid);

        // A later transaction sees the committed value.
        let t2 = node.start_transaction();
        assert_eq!(node.get(&t2, &Key::new("k")).unwrap().unwrap(), val("v"));
        node.commit(&t2).unwrap();
    }

    #[test]
    fn uncommitted_data_is_invisible_to_others() {
        let node = test_node();
        let writer = node.start_transaction();
        node.put(&writer, Key::new("k"), val("dirty")).unwrap();

        let reader = node.start_transaction();
        assert!(
            node.get(&reader, &Key::new("k")).unwrap().is_none(),
            "no dirty reads"
        );
        node.abort(&writer).unwrap();
        assert!(node.get(&reader, &Key::new("k")).unwrap().is_none());
    }

    #[test]
    fn abort_discards_updates() {
        let node = test_node();
        let t = node.start_transaction();
        node.put(&t, Key::new("k"), val("v")).unwrap();
        node.abort(&t).unwrap();
        let t2 = node.start_transaction();
        assert!(node.get(&t2, &Key::new("k")).unwrap().is_none());
        // The aborted transaction is gone.
        assert!(matches!(
            node.get(&t, &Key::new("k")),
            Err(AftError::UnknownTransaction(_))
        ));
    }

    #[test]
    fn commit_writes_data_and_commit_record_to_storage() {
        let storage = InMemoryStore::shared();
        let shared: SharedStorage = storage.clone();
        let node = AftNode::with_clock(
            NodeConfig::test(),
            shared,
            MockClock::starting_at(5).shared(),
        )
        .unwrap();
        let t = node.start_transaction();
        node.put(&t, Key::new("a"), val("1")).unwrap();
        node.put(&t, Key::new("b"), val("2")).unwrap();
        let id = node.commit(&t).unwrap();

        let commits = node.storage().list_prefix("commit/").unwrap();
        assert_eq!(commits.len(), 1);
        assert!(commits[0].contains(&id.storage_suffix()));
        let data = node.storage().list_prefix("data/").unwrap();
        assert_eq!(data.len(), 2);
    }

    #[test]
    fn fractured_reads_are_prevented() {
        // T1 writes {l}; T2 writes {k, l}. A reader that saw k from T2 must
        // not see l from T1.
        let node = test_node();
        let t1 = node.start_transaction();
        node.put(&t1, Key::new("l"), val("l1")).unwrap();
        node.commit(&t1).unwrap();

        let t2 = node.start_transaction();
        node.put(&t2, Key::new("k"), val("k2")).unwrap();
        node.put(&t2, Key::new("l"), val("l2")).unwrap();
        node.commit(&t2).unwrap();

        let reader = node.start_transaction();
        assert_eq!(
            node.get(&reader, &Key::new("k")).unwrap().unwrap(),
            val("k2")
        );
        assert_eq!(
            node.get(&reader, &Key::new("l")).unwrap().unwrap(),
            val("l2"),
            "reading l1 would be a fractured read"
        );
    }

    #[test]
    fn repeatable_reads_across_concurrent_commits() {
        let node = test_node();
        let t1 = node.start_transaction();
        node.put(&t1, Key::new("k"), val("old")).unwrap();
        node.commit(&t1).unwrap();

        let reader = node.start_transaction();
        assert_eq!(
            node.get(&reader, &Key::new("k")).unwrap().unwrap(),
            val("old")
        );

        // Another transaction commits a newer version mid-flight.
        let t2 = node.start_transaction();
        node.put(&t2, Key::new("k"), val("new")).unwrap();
        node.commit(&t2).unwrap();

        assert_eq!(
            node.get(&reader, &Key::new("k")).unwrap().unwrap(),
            val("old"),
            "repeatable read"
        );
    }

    #[test]
    fn staleness_can_force_no_valid_version() {
        // §3.6: Tr reads l1, then T2:{k,l} commits, and k only has the version
        // cowritten with l2 — the read of k must fail rather than fracture.
        let node = test_node();
        let t1 = node.start_transaction();
        node.put(&t1, Key::new("l"), val("l1")).unwrap();
        node.commit(&t1).unwrap();

        let reader = node.start_transaction();
        assert_eq!(
            node.get(&reader, &Key::new("l")).unwrap().unwrap(),
            val("l1")
        );

        let t2 = node.start_transaction();
        node.put(&t2, Key::new("k"), val("k2")).unwrap();
        node.put(&t2, Key::new("l"), val("l2")).unwrap();
        node.commit(&t2).unwrap();

        match node.get(&reader, &Key::new("k")) {
            Err(AftError::NoValidVersion { key, .. }) => assert_eq!(key.as_str(), "k"),
            other => panic!("expected NoValidVersion, got {other:?}"),
        }
        assert_eq!(node.stats().no_valid_version_aborts(), 1);
    }

    #[test]
    fn write_buffer_spill_keeps_data_invisible_until_commit() {
        let storage = InMemoryStore::shared();
        let shared: SharedStorage = storage.clone();
        let config = NodeConfig {
            write_buffer_spill_bytes: 8, // spill after ~8 buffered bytes
            ..NodeConfig::test()
        };
        let node = AftNode::with_clock(config, shared, MockClock::starting_at(1).shared()).unwrap();

        let t = node.start_transaction();
        node.put(&t, Key::new("big"), val("0123456789abcdef"))
            .unwrap();
        // The intermediary data has been spilled to storage...
        assert_eq!(storage.list_prefix("data/").unwrap().len(), 1);
        // ...but no commit record exists and other transactions cannot see it.
        let reader = node.start_transaction();
        assert!(node.get(&reader, &Key::new("big")).unwrap().is_none());
        // The writer still reads its own write.
        assert_eq!(
            node.get(&t, &Key::new("big")).unwrap().unwrap(),
            val("0123456789abcdef")
        );
        node.commit(&t).unwrap();
        let reader2 = node.start_transaction();
        assert!(node.get(&reader2, &Key::new("big")).unwrap().is_some());
    }

    #[test]
    fn abort_cleans_up_spilled_data() {
        let storage = InMemoryStore::shared();
        let shared: SharedStorage = storage.clone();
        let config = NodeConfig {
            write_buffer_spill_bytes: 4,
            ..NodeConfig::test()
        };
        let node = AftNode::with_clock(config, shared, MockClock::starting_at(1).shared()).unwrap();
        let t = node.start_transaction();
        node.put(&t, Key::new("k"), val("spilled-data")).unwrap();
        assert_eq!(storage.list_prefix("data/").unwrap().len(), 1);
        node.abort(&t).unwrap();
        assert!(storage.list_prefix("data/").unwrap().is_empty());
    }

    #[test]
    fn a_spilling_transaction_writes_each_value_once() {
        let storage = InMemoryStore::shared();
        let shared: SharedStorage = storage.clone();
        let config = NodeConfig {
            write_buffer_spill_bytes: 8,
            ..NodeConfig::test()
        };
        let node = AftNode::with_clock(config, shared, MockClock::starting_at(1).shared()).unwrap();
        let t = node.start_transaction();
        // Every put spills: each spill carries the one value written since
        // the last, and the commit finds every value already durable.
        for i in 0..10 {
            let value = format!("sixteen-bytes-{i:02}");
            node.put(&t, Key::new(format!("k{i}")), val(&value[..16]))
                .unwrap();
        }
        let id = node.commit(&t).unwrap();
        let record = encode_keyed_commit_record(&node.metadata().record(&id).unwrap());
        assert_eq!(
            storage.stats().snapshot().bytes_written,
            10 * 16 + record.len() as u64,
            "ten values once each, and the record"
        );
        let reader = node.start_transaction();
        for i in 0..10 {
            let key = Key::new(format!("k{i}"));
            assert_eq!(node.get(&reader, &key).unwrap().unwrap().len(), 16);
        }
    }

    #[test]
    fn a_failed_spill_leaves_its_keys_to_the_commit() {
        use aft_storage::{Cut, CutStore};
        // While set, every attempt of every call is dropped.
        static DROPPING: AtomicBool = AtomicBool::new(false);
        let hook = |_| match DROPPING.load(Ordering::Relaxed) {
            true => Cut::Transient { applied: false },
            false => Cut::Pass,
        };
        let inner = InMemoryStore::shared();
        let storage = CutStore::new(inner.clone(), Arc::new(hook));
        let config = NodeConfig {
            write_buffer_spill_bytes: 8,
            ..NodeConfig::test()
        };
        let node =
            AftNode::with_clock(config, storage, MockClock::starting_at(1).shared()).unwrap();

        let t = node.start_transaction();
        DROPPING.store(true, Ordering::Relaxed);
        assert!(node
            .put(&t, Key::new("big"), val("0123456789abcdef"))
            .is_err());
        DROPPING.store(false, Ordering::Relaxed);
        assert!(inner.list_prefix("data/").unwrap().is_empty());
        node.commit(&t).unwrap();
        assert_eq!(inner.list_prefix("data/").unwrap().len(), 1);
        let reader = node.start_transaction();
        assert_eq!(
            node.get(&reader, &Key::new("big")).unwrap().unwrap(),
            val("0123456789abcdef")
        );
    }

    #[test]
    fn bootstrap_recovers_committed_state() {
        let storage: SharedStorage = InMemoryStore::shared();
        let clock = MockClock::starting_at(100);
        {
            let node =
                AftNode::with_clock(NodeConfig::test(), storage.clone(), clock.shared()).unwrap();
            let t = node.start_transaction();
            node.put(&t, Key::new("k"), val("durable")).unwrap();
            node.commit(&t).unwrap();
            // Node "fails" here (dropped).
        }
        // A replacement node bootstraps from the Transaction Commit Set.
        let node2 = AftNode::with_clock(NodeConfig::test(), storage, clock.shared()).unwrap();
        let t = node2.start_transaction();
        assert_eq!(
            node2.get(&t, &Key::new("k")).unwrap().unwrap(),
            val("durable")
        );
    }

    #[test]
    fn bootstrap_loads_every_commit_however_long_the_history() {
        // Every commit wrote its own key, so all of them are live: a node
        // that warmed only part of the commit set would answer `None` for a
        // committed key, and no peer or fault manager would ever correct it.
        const COMMITS: u64 = 100_001;
        let storage: SharedStorage = InMemoryStore::shared();
        let mut items = Vec::new();
        for ts in 1..=COMMITS {
            let id = TransactionId::new(ts, Uuid::from_u128(ts as u128));
            let key = Key::new(format!("k{ts}"));
            let record = TransactionRecord::new(id, [key.clone()]);
            items.push((KeyVersion::new(key, id).storage_key(), val("v")));
            items.push((record.storage_key(), encode_keyed_commit_record(&record)));
        }
        storage.put_batch(items).unwrap();

        let node = AftNode::new(NodeConfig::default(), storage).unwrap();
        assert_eq!(node.metadata().len(), COMMITS as usize);
        let t = node.start_transaction();
        for ts in [1, COMMITS] {
            let key = Key::new(format!("k{ts}"));
            assert_eq!(node.get(&t, &key).unwrap(), Some(val("v")), "{key}");
        }
    }

    #[test]
    fn commit_timestamps_come_from_the_clock() {
        let storage: SharedStorage = InMemoryStore::shared();
        let clock = MockClock::starting_at(1_000);
        let node = AftNode::with_clock(NodeConfig::test(), storage, clock.shared()).unwrap();
        let t = node.start_transaction();
        clock.advance(500);
        node.put(&t, Key::new("k"), val("v")).unwrap();
        let committed = node.commit(&t).unwrap();
        assert_eq!(committed.timestamp, 1_500);
        assert_eq!(committed.uuid, t.uuid);
    }

    #[test]
    fn read_only_transactions_commit_with_empty_write_set() {
        let node = test_node();
        let t = node.start_transaction();
        assert!(node.get(&t, &Key::new("missing")).unwrap().is_none());
        let id = node.commit(&t).unwrap();
        let record = node.metadata().record(&id).unwrap();
        assert!(record.write_set.is_empty());
    }

    #[test]
    fn peer_commits_become_visible_unless_superseded() {
        let node = test_node();
        // A peer committed k at t=9999.
        let peer_new = Arc::new(TransactionRecord::new(
            TransactionId::new(9_999, Uuid::from_u128(1)),
            vec![Key::new("peer-key")],
        ));
        let fresh = node.receive_peer_commits(std::slice::from_ref(&peer_new));
        assert_eq!(fresh, [Arc::clone(&peer_new)]);
        assert!(node.metadata().is_committed(&peer_new.id));

        // An older peer commit of the same key is superseded and ignored, and
        // a repeated one is known.
        let peer_old = Arc::new(TransactionRecord::new(
            TransactionId::new(10, Uuid::from_u128(2)),
            vec![Key::new("peer-key")],
        ));
        let fresh = node.receive_peer_commits(&[Arc::clone(&peer_old), peer_new]);
        assert!(fresh.is_empty());
        assert!(!node.metadata().is_committed(&peer_old.id));
        assert_eq!(node.stats().peer_commits(), 1);
        assert_eq!(node.stats().duplicate_peer_commits(), 2);
    }

    #[test]
    fn drain_recent_commits_hands_records_to_the_multicaster() {
        let node = test_node();
        let t = node.start_transaction();
        node.put(&t, Key::new("k"), val("v")).unwrap();
        let id = node.commit(&t).unwrap();
        let drained = node.drain_recent_commits();
        assert_eq!(drained.records.len(), 1);
        assert_eq!(drained.records[0].id, id);
        assert_eq!(drained.floor, None, "nothing failed");
        assert!(
            node.drain_recent_commits().records.is_empty(),
            "drain is destructive"
        );
    }

    #[test]
    fn a_commit_is_reported_once_by_a_drain_or_a_poll() {
        let node = test_node();
        let first = commit_writes(&node, &[("a", "1")]);
        let second = commit_writes(&node, &[("b", "2")]);
        // A node nobody drains points at its oldest unreported commit, once;
        // its records stay for a drain.
        assert_eq!(node.undrained_floor(), Some(first.timestamp));
        assert_eq!(node.undrained_floor(), None);
        assert_eq!(node.drain_recent_commits().records.len(), 2);
        // A drain reports what it hands out, so a poll after it has nothing.
        commit_writes(&node, &[("c", "3")]);
        node.drain_recent_commits();
        assert_eq!(node.undrained_floor(), None);
        assert!(second.timestamp > first.timestamp);
    }

    #[test]
    fn local_gc_removes_superseded_transactions_only() {
        let node = test_node();
        let ids: Vec<TransactionId> = (0..3)
            .map(|i| commit_writes(&node, &[("hot", &format!("v{i}"))]))
            .collect();
        assert_eq!(node.metadata().len(), 3);
        let outcome = node.run_local_gc(&LocalGcConfig::default());
        // The two older versions are superseded; the newest survives.
        assert_eq!(outcome.deleted, 2);
        assert_eq!(node.metadata().len(), 1);
        let view = node.metadata().view();
        assert!(!view.is_committed(&ids[0]) && !view.is_committed(&ids[1]));
        assert!(view.is_committed(&ids[2]));
        drop(view);
        assert_eq!(node.stats().gc_deleted(), 2);
    }

    /// Commits one transaction writing `writes` on `node`.
    fn commit_writes(node: &AftNode, writes: &[(&str, &str)]) -> TransactionId {
        let t = node.start_transaction();
        for (key, value) in writes {
            node.put(&t, Key::new(*key), val(value)).unwrap();
        }
        node.commit(&t).unwrap()
    }

    #[test]
    fn a_reader_pinned_to_a_retired_version_gets_no_valid_version_and_its_retry_commits() {
        let node = test_node();
        let (a, c) = (Key::new("a"), Key::new("c"));
        commit_writes(&node, &[("c", "c0")]);
        let t1 = commit_writes(&node, &[("a", "a1"), ("b", "b1")]);
        let reader = node.start_transaction();
        assert_eq!(node.get(&reader, &c).unwrap(), Some(val("c0")));
        // T2 overwrites a and c together; T1 is still b's newest writer.
        commit_writes(&node, &[("a", "a2"), ("c", "c2")]);

        // The reader read from T0, not from T1: T0 is kept, T1's a retired.
        let swept = node.run_local_gc(&LocalGcConfig::default());
        assert_eq!((swept.deleted, swept.retained_for_readers), (0, 1));
        assert_eq!(swept.retired, 1);
        assert!(node.metadata().is_committed(&t1), "T1 still names b1");
        assert!(!node.metadata().view().holds(&a, &t1));
        assert!(!node.data_cache().resident().contains(&(a.clone(), t1)));

        // a2 was cowritten with a newer c than the reader saw, and a1 — the
        // one version the read set allowed — is gone: retry, not fracture.
        match node.get(&reader, &a) {
            Err(AftError::NoValidVersion { key, .. }) => assert_eq!(key, a),
            other => panic!("expected NoValidVersion, got {other:?}"),
        }
        node.abort(&reader).unwrap();
        let retry = node.start_transaction();
        assert_eq!(node.get(&retry, &c).unwrap(), Some(val("c2")));
        assert_eq!(node.get(&retry, &a).unwrap(), Some(val("a2")));
        node.commit(&retry).unwrap();
    }

    #[test]
    fn an_overwritten_version_is_kept_while_its_transaction_has_a_reader() {
        let node = test_node();
        let a = Key::new("a");
        let t1 = commit_writes(&node, &[("a", "a1"), ("b", "b1")]);
        let reader = node.start_transaction();
        assert_eq!(node.get(&reader, &Key::new("b")).unwrap(), Some(val("b1")));
        commit_writes(&node, &[("a", "a2")]);

        let swept = node.run_local_gc(&LocalGcConfig::default());
        assert_eq!((swept.retired, swept.retained_for_readers), (0, 1));
        assert!(node.metadata().view().holds(&a, &t1));
        assert_eq!(node.get(&reader, &a).unwrap(), Some(val("a2")));

        node.commit(&reader).unwrap();
        let swept = node.run_local_gc(&LocalGcConfig::default());
        assert_eq!(
            (swept.retired, swept.deleted),
            (1, 1),
            "and the reader's record"
        );
        assert!(!node.metadata().view().holds(&a, &t1));
        assert!(!node.data_cache().resident().contains(&(a, t1)));
    }

    #[test]
    fn local_gc_spares_transactions_with_active_readers() {
        let node = test_node();
        let t1 = node.start_transaction();
        node.put(&t1, Key::new("k"), val("old")).unwrap();
        let committed_old = node.commit(&t1).unwrap();

        // A long-running reader depends on the old version.
        let reader = node.start_transaction();
        assert_eq!(
            node.get(&reader, &Key::new("k")).unwrap().unwrap(),
            val("old")
        );

        let t2 = node.start_transaction();
        node.put(&t2, Key::new("k"), val("new")).unwrap();
        node.commit(&t2).unwrap();

        let outcome = node.run_local_gc(&LocalGcConfig::default());
        assert_eq!(outcome.deleted, 0);
        assert_eq!(outcome.retained_for_readers, 1);
        assert!(node.metadata().is_committed(&committed_old));

        // Once the reader commits, the old version can go.
        node.commit(&reader).unwrap();
        let outcome = node.run_local_gc(&LocalGcConfig::default());
        assert_eq!(
            outcome.deleted, 2,
            "old k version and the reader's empty txn"
        );
    }

    #[test]
    fn transaction_handle_commits_and_aborts() {
        let node = test_node();
        let txn = node.transaction();
        txn.put("k", val("v")).unwrap();
        assert_eq!(txn.get("k").unwrap().unwrap(), val("v"));
        txn.commit().unwrap();

        let txn2 = node.transaction();
        txn2.put("k", val("doomed")).unwrap();
        txn2.abort().unwrap();

        let txn3 = node.transaction();
        assert_eq!(txn3.get("k").unwrap().unwrap(), val("v"));
        drop(txn3); // implicit abort of the read-only handle
        assert_eq!(node.in_flight(), 0);
    }

    #[test]
    fn works_over_every_simulated_backend() {
        for kind in [BackendKind::S3, BackendKind::DynamoDb, BackendKind::Redis] {
            let storage = aft_storage::make_backend(BackendConfig::test(kind));
            let node = AftNode::with_clock(
                NodeConfig::test(),
                storage,
                MockClock::starting_at(1).shared(),
            )
            .unwrap();
            let t = node.start_transaction();
            node.put(&t, Key::new("k"), val("v")).unwrap();
            node.commit(&t).unwrap();
            let t2 = node.start_transaction();
            assert_eq!(
                node.get(&t2, &Key::new("k")).unwrap().unwrap(),
                val("v"),
                "backend {kind}"
            );
        }
    }

    #[test]
    fn ensure_transaction_is_idempotent() {
        let node = test_node();
        let t = node.start_transaction();
        node.ensure_transaction(t);
        assert_eq!(node.in_flight(), 1);
        node.abort(&t).unwrap();
        // A retry can re-register the same ID after the state was lost.
        node.ensure_transaction(t);
        assert_eq!(node.in_flight(), 1);
        node.put(&t, Key::new("k"), val("v")).unwrap();
        node.commit(&t).unwrap();
    }

    #[test]
    fn get_all_overlaps_fetches_and_respects_buffered_writes() {
        let storage: SharedStorage = InMemoryStore::shared();
        // No data cache: every committed read must hit storage.
        let node = AftNode::with_clock(
            NodeConfig::test_without_cache(),
            storage,
            aft_types::clock::TickingClock::shared(1_000, 1),
        )
        .unwrap();
        let writer = node.start_transaction();
        for i in 0..6 {
            node.put(&writer, Key::new(format!("k{i}")), val(&format!("v{i}")))
                .unwrap();
        }
        node.commit(&writer).unwrap();

        let reader = node.start_transaction();
        node.put(&reader, Key::new("own"), val("mine")).unwrap();
        let keys: Vec<Key> = (0..6)
            .map(|i| Key::new(format!("k{i}")))
            .chain([Key::new("own"), Key::new("missing")])
            .collect();
        let values = node.get_all(&reader, &keys).unwrap();
        for i in 0..6 {
            assert_eq!(values[i].as_ref().unwrap(), &val(&format!("v{i}")));
        }
        assert_eq!(
            values[6].as_ref().unwrap(),
            &val("mine"),
            "read-your-writes"
        );
        assert!(values[7].is_none(), "missing key reads NULL");
        // The six committed keys were fetched from storage in one overlapped
        // barrier and recorded as one latency sample.
        assert_eq!(node.stats().reads_from_storage(), 6);
        assert_eq!(node.stats().read_storage_latency().len(), 1);
        // Every fetched version entered the read set.
        let repeat = node.get_all(&reader, &keys[..6]).unwrap();
        assert_eq!(repeat.len(), 6);
        node.commit(&reader).unwrap();
    }

    #[test]
    fn get_all_never_fractures_across_cowritten_keys() {
        // T1 writes {l}; T2 writes {k, l}. A get_all of [k, l] must return
        // the cowritten pair — the sequential version selection inside
        // get_all records k's choice before selecting l.
        let node = test_node();
        let t1 = node.start_transaction();
        node.put(&t1, Key::new("l"), val("l1")).unwrap();
        node.commit(&t1).unwrap();
        let t2 = node.start_transaction();
        node.put(&t2, Key::new("k"), val("k2")).unwrap();
        node.put(&t2, Key::new("l"), val("l2")).unwrap();
        node.commit(&t2).unwrap();

        let reader = node.start_transaction();
        let values = node
            .get_all(&reader, &[Key::new("k"), Key::new("l")])
            .unwrap();
        assert_eq!(values[0].as_ref().unwrap(), &val("k2"));
        assert_eq!(
            values[1].as_ref().unwrap(),
            &val("l2"),
            "returning l1 next to k2 would be a fractured read"
        );
    }

    /// A phase hook that crashes the node at one phase, if any, recording
    /// every phase it is asked at first.
    #[derive(Debug, Default)]
    struct CrashAt {
        phase: Option<CommitPhase>,
        seen: Mutex<Vec<CommitPhase>>,
    }

    impl PhaseHook for CrashAt {
        fn at(&self, node_id: &str, phase: CommitPhase) -> AftResult<()> {
            self.seen.lock().push(phase);
            if self.phase != Some(phase) {
                return Ok(());
            }
            let label = phase.label();
            Err(AftError::Unavailable(format!("{node_id} crashed {label}")))
        }
    }

    /// A node over `storage` whose phase hook crashes it at `phase`.
    fn crashing_at(
        phase: Option<CommitPhase>,
        storage: SharedStorage,
    ) -> (Arc<AftNode>, Arc<CrashAt>) {
        let hook = Arc::new(CrashAt {
            phase,
            ..CrashAt::default()
        });
        let config = NodeConfig {
            phase_hook: Some(hook.clone()),
            ..NodeConfig::test()
        };
        let clock = MockClock::starting_at(1).shared();
        (AftNode::with_clock(config, storage, clock).unwrap(), hook)
    }

    #[test]
    fn commit_probe_observes_every_phase_in_protocol_order() {
        let (node, hook) = crashing_at(None, InMemoryStore::shared());
        let t = node.start_transaction();
        node.put(&t, Key::new("k"), val("v")).unwrap();
        node.commit(&t).unwrap();
        let bootstrap = CommitPhase::DuringCheckpointBootstrap;
        let phases: Vec<CommitPhase> = [bootstrap].into_iter().chain(CommitPhase::ALL).collect();
        assert_eq!(hook.seen.lock().as_slice(), phases);
        // A hooked commit is durable, visible and counted like any other:
        // it ran the one flush there is.
        let t2 = node.start_transaction();
        assert_eq!(node.get(&t2, &Key::new("k")).unwrap().unwrap(), val("v"));
        let stats = node.commit_batch_stats();
        assert_eq!(
            (stats.submitted, stats.flushes, stats.largest_batch),
            (1, 1, 1)
        );
        assert!(!node.crashed());
    }

    #[test]
    fn crash_before_data_put_leaves_storage_untouched() {
        let storage = InMemoryStore::shared();
        let phase = Some(CommitPhase::BeforeDataPut);
        let (node, _) = crashing_at(phase, storage.clone() as SharedStorage);
        let t = node.start_transaction();
        node.put(&t, Key::new("k"), val("v")).unwrap();
        let err = node.commit(&t).unwrap_err();
        assert!(matches!(err, AftError::Unavailable(_)));
        assert!(storage.list_prefix("data/").unwrap().is_empty());
        assert!(storage.list_prefix("commit/").unwrap().is_empty());
        // The crash lost the in-memory transaction (write buffer gone), and
        // a crashed node fails every later commit.
        assert_eq!(node.in_flight(), 0);
        assert!(node.crashed());
        let t = node.start_transaction();
        node.put(&t, Key::new("k"), val("v")).unwrap();
        assert!(matches!(node.commit(&t), Err(AftError::Unavailable(_))));
    }

    #[test]
    fn crash_before_record_append_orphans_invisible_data() {
        use aft_storage::{make_backend, BackendConfig, BackendKind};
        // Where data and record are two calls, the crash falls between them
        // and orphans the data. Where they are one all-or-nothing call
        // (Redis), the crash falls before it and storage stays empty.
        for (kind, orphans) in [
            (BackendKind::Memory, 1),
            (BackendKind::S3, 1),
            (BackendKind::DynamoDb, 1),
            (BackendKind::Redis, 0),
        ] {
            let storage = make_backend(BackendConfig::test(kind));
            let phase = Some(CommitPhase::BeforeRecordAppend);
            let (node, _) = crashing_at(phase, storage.clone());
            let t = node.start_transaction();
            node.put(&t, Key::new("k"), val("v")).unwrap();
            assert!(node.commit(&t).is_err(), "{kind}");
            // No commit record, so no reader can ever observe orphaned data
            // (no dirty reads even across the crash).
            assert_eq!(
                storage.list_prefix("data/").unwrap().len(),
                orphans,
                "{kind}"
            );
            assert!(storage.list_prefix("commit/").unwrap().is_empty(), "{kind}");
            let reader = node.start_transaction();
            assert!(
                node.get(&reader, &Key::new("k")).unwrap().is_none(),
                "{kind}"
            );
        }
    }

    #[test]
    fn data_cache_serves_repeat_reads() {
        let node = test_node();
        let t = node.start_transaction();
        node.put(&t, Key::new("k"), val("v")).unwrap();
        node.commit(&t).unwrap();

        let r1 = node.start_transaction();
        node.get(&r1, &Key::new("k")).unwrap();
        let r2 = node.start_transaction();
        node.get(&r2, &Key::new("k")).unwrap();
        // The commit inserted the value into the cache, so no storage reads
        // were needed at all.
        assert_eq!(node.stats().reads_from_storage(), 0);
        assert!(node.stats().reads_from_data_cache() >= 2);
    }

    /// A store whose read of one armed key — alone or inside a batch —
    /// returns only once the test lets it: the reader is held between version
    /// selection and the cache fill, which is where a GC sweep has to land
    /// for the races below. A watchdog turns a lost wake-up into an error
    /// instead of a hang.
    #[derive(Default)]
    struct GatedGet {
        inner: Arc<InMemoryStore>,
        gate: Mutex<Gate>,
        changed: parking_lot::Condvar,
    }

    #[derive(Default)]
    struct Gate {
        armed: Option<String>,
        arrived: bool,
        released: bool,
    }

    impl GatedGet {
        fn update(&self, change: impl FnOnce(&mut Gate)) {
            change(&mut self.gate.lock());
            self.changed.notify_all();
        }

        /// Holds a read naming the armed key until the test releases it.
        fn hold<'k>(&self, mut keys: impl Iterator<Item = &'k str>) -> AftResult<()> {
            let armed = self.gate.lock().armed.clone();
            if armed.is_some_and(|armed| keys.any(|key| key == armed)) {
                self.update(|gate| gate.arrived = true);
                if !self.wait_until(|gate| gate.released) {
                    return Err(AftError::Storage("the gate was never released".into()));
                }
            }
            Ok(())
        }

        fn wait_until(&self, ready: impl Fn(&Gate) -> bool) -> bool {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            let mut gate = self.gate.lock();
            while !ready(&gate) {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                if left.is_zero() {
                    return false;
                }
                let _ = self.changed.wait_for(&mut gate, left);
            }
            true
        }
    }

    impl StorageEngine for GatedGet {
        fn name(&self) -> &'static str {
            "gated-get"
        }

        fn get(&self, key: &str) -> AftResult<Option<Value>> {
            self.hold(std::iter::once(key))?;
            self.inner.get(key)
        }

        fn get_batch(&self, keys: &[String]) -> AftResult<Vec<Option<Value>>> {
            self.hold(keys.iter().map(String::as_str))?;
            self.inner.get_batch(keys)
        }

        fn supports_batch_get(&self) -> bool {
            self.inner.supports_batch_get()
        }

        fn put(&self, key: &str, value: Value) -> AftResult<()> {
            self.inner.put(key, value)
        }

        fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()> {
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
            self.inner.supports_batch_put()
        }

        fn stats(&self) -> Arc<aft_storage::StorageStats> {
            self.inner.stats()
        }
    }

    #[test]
    fn a_fill_that_lost_a_race_with_local_gc_leaves_nothing_in_the_cache() {
        // The sweep removes `old`'s whole record, or — when `old` also wrote
        // a key nobody overwrites — retires just its version of `k`.
        for also in [None, Some(("other", "o"))] {
            a_fill_races_a_sweep(also);
        }
    }

    fn a_fill_races_a_sweep(also: Option<(&str, &str)>) {
        let key = Key::new("k");
        let store = Arc::new(GatedGet::default());
        let node = AftNode::with_clock(
            NodeConfig::test(),
            store.clone() as SharedStorage,
            aft_types::clock::TickingClock::shared(1_000, 1),
        )
        .unwrap();

        let old = commit_writes(
            &node,
            &[[("k", "old")].as_slice(), also.as_slice()].concat(),
        );
        // The payload has aged out of the cache, so the read must fetch it.
        node.data_cache().evict(&key, &old);
        store.update(|gate| gate.armed = Some(KeyVersion::new(key.clone(), old).storage_key()));

        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let t = node.start_transaction();
                node.get_versioned(&t, &key)
            });
            // The reader has selected `old` and is inside the storage fetch:
            // no read set names `old` yet.
            assert!(store.wait_until(|gate| gate.arrived), "reader arrived");
            let t2 = node.start_transaction();
            node.put(&t2, key.clone(), val("new")).unwrap();
            node.commit(&t2).unwrap();
            let swept = node.run_local_gc(&LocalGcConfig::aggressive());
            let dropped = if also.is_some() { (0, 1) } else { (1, 0) };
            assert_eq!(
                (swept.deleted, swept.retired),
                dropped,
                "no reader of `old`"
            );
            assert!(!node.metadata().view().holds(&key, &old));
            store.update(|gate| gate.released = true);

            let (value, version) = reader.join().unwrap().unwrap().unwrap();
            assert_eq!((value, version), (val("old"), Some(old)));
        });
        // No transaction can select `old` any more and no sweep will visit it
        // again, so the fill must not have left it behind.
        let resident = node.data_cache().resident();
        assert!(!resident.contains(&(key.clone(), old)), "{resident:?}");
        let live = 1 + usize::from(also.is_some());
        assert_eq!(resident.len(), live, "only live versions: {resident:?}");
    }

    #[test]
    fn get_all_fails_cleanly_when_global_gc_deletes_a_batched_version() {
        // The batched form of the race above: both versions are selected and
        // recorded, and the one multi-key read carrying them is in flight when
        // a global GC round deletes `l`'s version. The read must abort with
        // NoValidVersion, never return `k` beside a hole where `l` was.
        let (k, l) = (Key::new("k"), Key::new("l"));
        let store = Arc::new(GatedGet::default());
        let node = AftNode::with_clock(
            NodeConfig::test_without_cache(),
            store.clone() as SharedStorage,
            aft_types::clock::TickingClock::shared(1_000, 1),
        )
        .unwrap();
        let t1 = node.start_transaction();
        node.put(&t1, k.clone(), val("k1")).unwrap();
        node.put(&t1, l.clone(), val("l1")).unwrap();
        let written = node.commit(&t1).unwrap();
        store.update(|gate| gate.armed = Some(KeyVersion::new(k.clone(), written).storage_key()));

        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let t = node.start_transaction();
                node.get_all(&t, &[k.clone(), l.clone()])
            });
            assert!(store.wait_until(|gate| gate.arrived), "reader arrived");
            let l_version = KeyVersion::new(l.clone(), written).storage_key();
            store.inner.delete(&l_version).unwrap();
            store.update(|gate| gate.released = true);
            match reader.join().unwrap() {
                Err(AftError::NoValidVersion { key, .. }) => assert_eq!(key, l),
                other => panic!("expected NoValidVersion for l, got {other:?}"),
            }
        });
        assert_eq!(node.stats().no_valid_version_aborts(), 1);
        let calls = store.stats();
        assert_eq!(calls.calls(aft_storage::OpKind::BatchGet), 1, "one read");
        assert_eq!(calls.calls(aft_storage::OpKind::Get), 0);
    }

    fn commit_n(node: &Arc<AftNode>, n: usize, key: &str) {
        for i in 0..n {
            let t = node.start_transaction();
            node.put(&t, Key::new(key), val(&format!("v{i}"))).unwrap();
            node.commit(&t).unwrap();
        }
    }

    #[test]
    fn checkpoint_policy_knobs() {
        assert!(!CheckpointPolicy::disabled().is_enabled());
        assert!(!CheckpointPolicy::default().is_enabled());
        assert!(CheckpointPolicy::every_commits(10).is_enabled());
        // every_commits(0) clamps to 1: an enabled policy always fires.
        assert_eq!(CheckpointPolicy::every_commits(0).every_commits, 1);
    }

    #[test]
    fn maybe_checkpoint_fires_on_commit_count_and_rearms() {
        let storage: SharedStorage = InMemoryStore::shared();
        let node = AftNode::with_clock(
            NodeConfig::test().with_checkpoint(CheckpointPolicy::every_commits(3)),
            storage,
            aft_types::clock::TickingClock::shared(1_000, 1),
        )
        .unwrap();
        commit_n(&node, 2, "k");
        assert!(node.maybe_checkpoint(None).unwrap().is_none(), "not due");
        commit_n(&node, 1, "k");
        let outcome = node.maybe_checkpoint(None).unwrap().expect("due");
        assert_eq!(outcome.write.records, 3);
        assert!(outcome.compaction.is_none());
        // The counter was reset: not due again until 3 more commits.
        assert!(node.maybe_checkpoint(None).unwrap().is_none());
    }

    #[test]
    fn checkpoint_and_compaction_preserve_bootstrap_state() {
        let storage: SharedStorage = InMemoryStore::shared();
        let clock = aft_types::clock::TickingClock::shared(1_000, 1);
        let node = AftNode::with_clock(NodeConfig::test(), storage.clone(), clock.clone()).unwrap();
        for i in 0..8 {
            let t = node.start_transaction();
            node.put(&t, Key::new(format!("k{}", i % 4)), val("x"))
                .unwrap();
            node.commit(&t).unwrap();
        }
        let before = node.storage().list_prefix("commit/").unwrap().len();
        assert_eq!(before, 8);

        let outcome = node.checkpoint_now(true).unwrap();
        let compaction = outcome.compaction.expect("compaction requested");
        assert!(compaction.deleted_covered > 0 || compaction.deleted_superseded > 0);
        let after = node.storage().list_prefix("commit/").unwrap().len();
        assert!(after < before, "compaction must shrink the commit log");

        // A cold replacement on the same storage reaches the same state.
        let replacement = AftNode::with_clock(NodeConfig::test(), storage, clock).unwrap();
        for i in 0..4 {
            let key = Key::new(format!("k{i}"));
            assert_eq!(
                replacement.metadata().latest_version_of(&key),
                node.metadata().latest_version_of(&key),
                "checkpoint+tail bootstrap must match the live node for {key:?}"
            );
        }
    }

    #[test]
    fn crash_during_checkpoint_write_leaves_previous_checkpoint_live() {
        let storage: SharedStorage = InMemoryStore::shared();
        let node = AftNode::with_clock(
            NodeConfig::test(),
            storage.clone(),
            aft_types::clock::TickingClock::shared(1_000, 1),
        )
        .unwrap();
        commit_n(&node, 3, "k");
        let first = node.checkpoint_now(false).unwrap();

        let phase = Some(CommitPhase::DuringCheckpointWrite);
        let (crashing, _) = crashing_at(phase, storage);
        commit_n(&crashing, 3, "k");
        let err = crashing.checkpoint_now(false).unwrap_err();
        assert!(matches!(err, AftError::Unavailable(_)));

        // Chunks of the torn checkpoint may exist, but the manifest pointer
        // was never published: a loader still sees the first checkpoint.
        let load = aft_storage::load_latest_checkpoint(node.io()).unwrap();
        let live = load.checkpoint.expect("previous checkpoint live");
        assert_eq!(live.id, first.write.id);

        // A live node's next checkpoint succeeds and supersedes it.
        let second = node.checkpoint_now(false).unwrap();
        assert!(second.write.id > first.write.id);
        let load = aft_storage::load_latest_checkpoint(node.io()).unwrap();
        assert_eq!(load.checkpoint.unwrap().id, second.write.id);
    }

    #[test]
    fn checkpoint_ids_are_monotonic_per_node() {
        let node = test_node();
        commit_n(&node, 1, "k");
        let a = node.checkpoint_now(false).unwrap();
        let b = node.checkpoint_now(false).unwrap();
        let c = node.checkpoint_now(false).unwrap();
        assert!(a.write.id < b.write.id && b.write.id < c.write.id);
    }
}
