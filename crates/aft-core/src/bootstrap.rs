//! Node bootstrap and recovery.
//!
//! When an AFT node starts — including when a replacement node comes up after
//! a failure (§6.7) — it warms its metadata cache by reading the
//! Transaction Commit Set from storage (§3.1). Nothing else
//! needs to be recovered: the write-ordering protocol guarantees that any
//! transaction with a durable commit record also has durable data (§3.3.1),
//! and any transaction without one is simply not committed (clients retry).

use std::sync::Arc;
use std::time::Duration;

use aft_storage::checkpoint::load_latest_checkpoint;
use aft_storage::io::{IoEngine, StorageRequest};
use aft_types::codec::decode_keyed_commit_record;
use aft_types::{AftResult, CommitPhase, TransactionId, TransactionRecord, Uuid};

use crate::metadata::MetadataCache;
use crate::node::CommitProbe;

/// Wave size for commit-record fetches: one engine in-flight window per
/// wave bounds memory for huge commit sets while keeping every read in a
/// wave concurrent.
pub const COMMIT_FETCH_WAVE: usize = 256;

/// Fetches and decodes the commit records stored under `keys`, one
/// [`IoEngine::get_all`] per wave of [`COMMIT_FETCH_WAVE`] keys, and calls
/// `on_record` for each record found. Each blob is decoded with the key it
/// was read from, which names its transaction
/// ([`decode_keyed_commit_record`]). Keys deleted between listing and read
/// are skipped (a racing global GC); undecodable blobs are skipped (a
/// half-written record means the transaction never committed), and so is
/// an older build's blob whose id is not its key's. Returns the bytes read
/// and the charged latency.
///
/// The one commit-record fetch loop: node bootstrap and full replay (below)
/// and the cluster fault manager's commit-set scan all bulk-read the
/// Transaction Commit Set through it.
pub fn fetch_commit_records(
    io: &IoEngine,
    keys: &[String],
    mut on_record: impl FnMut(TransactionRecord),
) -> AftResult<(u64, Duration)> {
    let (mut bytes_read, mut cost) = (0, Duration::ZERO);
    for wave in keys.chunks(COMMIT_FETCH_WAVE) {
        let (blobs, wave_cost) = io.get_all(wave.to_vec())?;
        cost += wave_cost;
        for (key, blob) in wave.iter().zip(blobs) {
            let Some(blob) = blob else { continue };
            bytes_read += blob.len() as u64;
            if let Ok(record) = decode_keyed_commit_record(key, &blob) {
                on_record(record);
            }
        }
    }
    Ok((bytes_read, cost))
}

/// Full replay: reads every commit record in storage through the pipelined
/// I/O engine and inserts it into `metadata`. The listing is one round trip,
/// then the record reads go out in waves via [`fetch_commit_records`], so a
/// warm-up does not pay one round trip per record (§6.7's recovery-time
/// concern).
/// Nodes bootstrap through [`warm_metadata_cache_checkpointed`]; this is the
/// reference it is tested against.
///
/// Returns the number of records loaded.
pub fn warm_metadata_cache_pipelined(io: &IoEngine, metadata: &MetadataCache) -> AftResult<usize> {
    let keys = io
        .execute(StorageRequest::List(TransactionRecord::storage_prefix()))
        .result?
        .into_keys();
    let mut loaded = 0;
    fetch_commit_records(io, &keys, |record| {
        if metadata.insert(Arc::new(record)) {
            loaded += 1;
        }
    })?;
    Ok(loaded)
}

/// How a checkpoint-aware bootstrap warmed the cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BootstrapOutcome {
    /// Records loaded from the checkpoint.
    pub from_checkpoint: usize,
    /// Records loaded from the commit-set tail (or the whole set on full
    /// replay).
    pub from_tail: usize,
    /// Whether a valid checkpoint was found and used.
    pub used_checkpoint: bool,
    /// Checkpoints that were present but rejected (torn/corrupt) before a
    /// valid one was found.
    pub rejected_checkpoints: usize,
    /// Bytes fetched from storage (checkpoint blobs + commit records).
    pub bytes_read: u64,
    /// Simulated latency charged for the whole warm-up.
    pub cost: Duration,
}

impl BootstrapOutcome {
    /// Total records loaded.
    pub fn loaded(&self) -> usize {
        self.from_checkpoint + self.from_tail
    }
}

/// Like [`warm_metadata_cache_pipelined`], but bootstraps from **checkpoint +
/// tail**: the newest valid checkpoint (see
/// [`aft_storage::checkpoint::load_latest_checkpoint`] — torn checkpoints are
/// CRC-rejected with clean fallback) seeds the cache, then only commit
/// records *above* its high-water mark are replayed. With no usable
/// checkpoint this degenerates to full replay, so recovery cost tracks the
/// tail, not the history. Every uncovered record is loaded: after GC and log
/// compaction the commit set *is* the live set, and Algorithm 1 answers from
/// local metadata only, so a record left out is a committed key the node
/// cannot read.
///
/// `probe`, when present, is consulted at
/// [`CommitPhase::DuringCheckpointBootstrap`] — after the checkpoint is
/// applied, before the tail fetch — so chaos plans can kill a replacement
/// node mid-bootstrap and prove the *next* attempt still converges.
pub fn warm_metadata_cache_checkpointed(
    io: &IoEngine,
    metadata: &MetadataCache,
    node_id: &str,
    probe: Option<&Arc<dyn CommitProbe>>,
) -> AftResult<BootstrapOutcome> {
    let mut outcome = BootstrapOutcome::default();

    let load = load_latest_checkpoint(io)?;
    outcome.rejected_checkpoints = load.rejected;
    outcome.bytes_read += load.bytes_read;
    outcome.cost += load.cost;

    let mut sentinel = TransactionId::new(0, Uuid::NIL);
    let mut covered = std::collections::HashSet::new();
    if let Some(checkpoint) = load.checkpoint {
        outcome.used_checkpoint = true;
        sentinel = TransactionId::new(checkpoint.id, Uuid::NIL);
        for record in checkpoint.records {
            covered.insert(record.storage_key());
            if metadata.insert(Arc::new(record)) {
                outcome.from_checkpoint += 1;
            }
        }
    }
    // The kill point sits between applying the checkpoint and fetching the
    // tail — fired even on full replay, so chaos plans can tear a bootstrap
    // whether or not a checkpoint exists yet.
    if let Some(probe) = probe {
        probe.before_phase(node_id, &sentinel, CommitPhase::DuringCheckpointBootstrap)?;
    }

    // The tail is every commit record the checkpoint does not cover — not
    // merely keys above its high-water mark. A record below the mark that
    // the checkpointing node had not yet learned (a §4.2 lost broadcast, an
    // in-flight dissemination) must still be fetched, or the bootstrap
    // would silently shrink the commit set.
    let listed = io.execute(StorageRequest::List(TransactionRecord::storage_prefix()));
    outcome.cost += listed.cost;
    let mut keys = listed.result?.into_keys();
    if !covered.is_empty() {
        keys.retain(|key| !covered.contains(key));
    }
    let (bytes_read, cost) = fetch_commit_records(io, &keys, |record| {
        if metadata.insert(Arc::new(record)) {
            outcome.from_tail += 1;
        }
    })?;
    outcome.bytes_read += bytes_read;
    outcome.cost += cost;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_storage::{InMemoryStore, SharedStorage, StorageEngine};
    use aft_types::codec::encode_keyed_commit_record;
    use aft_types::{Key, Value};

    fn tid(ts: u64) -> TransactionId {
        TransactionId::new(ts, Uuid::from_u128(ts as u128))
    }

    fn put_record(storage: &SharedStorage, ts: u64, keys: &[&str]) -> TransactionRecord {
        let record = TransactionRecord::new(tid(ts), keys.iter().map(Key::new));
        storage
            .put(&record.storage_key(), encode_keyed_commit_record(&record))
            .unwrap();
        record
    }

    fn engine(storage: &SharedStorage) -> IoEngine {
        IoEngine::new(storage.clone(), IoConfig::pipelined())
    }

    #[test]
    fn warm_cache_loads_all_records() {
        let storage: SharedStorage = InMemoryStore::shared();
        for ts in 1..=5 {
            put_record(&storage, ts, &["k"]);
        }
        let metadata = MetadataCache::new();
        let outcome =
            warm_metadata_cache_checkpointed(&engine(&storage), &metadata, "n0", None).unwrap();
        assert_eq!(outcome.loaded(), 5);
        assert_eq!(metadata.len(), 5);
        assert_eq!(metadata.latest_version_of(&Key::new("k")), Some(tid(5)));
    }

    #[test]
    fn corrupt_records_are_skipped() {
        let storage: SharedStorage = InMemoryStore::shared();
        put_record(&storage, 1, &["k"]);
        storage
            .put("commit/garbage", bytes::Bytes::from_static(b"not a record"))
            .unwrap();
        let metadata = MetadataCache::new();
        let outcome =
            warm_metadata_cache_checkpointed(&engine(&storage), &metadata, "n0", None).unwrap();
        assert_eq!(outcome.loaded(), 1);
    }

    #[test]
    fn empty_storage_warms_nothing() {
        let storage: SharedStorage = InMemoryStore::shared();
        let metadata = MetadataCache::new();
        let outcome =
            warm_metadata_cache_checkpointed(&engine(&storage), &metadata, "n0", None).unwrap();
        assert_eq!(outcome.loaded(), 0);
        assert!(metadata.is_empty());
    }

    /// A store whose listing still names a key that is gone by the time it is
    /// read: `list_prefix` deletes `victim` after taking the listing, the way
    /// a global GC round racing the bootstrap would.
    struct VanishAfterList {
        inner: SharedStorage,
        victim: String,
    }

    impl StorageEngine for VanishAfterList {
        fn name(&self) -> &'static str {
            "vanish-after-list"
        }
        fn get(&self, key: &str) -> AftResult<Option<Value>> {
            self.inner.get(key)
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
            let keys = self.inner.list_prefix(prefix)?;
            self.inner.delete(&self.victim)?;
            Ok(keys)
        }
        fn supports_batch_put(&self) -> bool {
            self.inner.supports_batch_put()
        }
        fn stats(&self) -> Arc<aft_storage::StorageStats> {
            self.inner.stats()
        }
    }

    #[test]
    fn record_deleted_between_listing_and_read_is_skipped() {
        let inner: SharedStorage = InMemoryStore::shared();
        for ts in 1..=4 {
            put_record(&inner, ts, &["k"]);
        }
        let storage: SharedStorage = Arc::new(VanishAfterList {
            inner,
            victim: TransactionRecord::storage_key_for(&tid(2)),
        });
        let metadata = MetadataCache::new();
        let outcome =
            warm_metadata_cache_checkpointed(&engine(&storage), &metadata, "n0", None).unwrap();
        assert_eq!(outcome.loaded(), 3, "the vanished record is not an error");
        assert!(!metadata.is_committed(&tid(2)));
        assert!(metadata.is_committed(&tid(4)));
    }

    #[test]
    fn pipelined_warm_matches_sequential_warm() {
        let storage: SharedStorage = InMemoryStore::shared();
        for ts in 1..=300 {
            put_record(&storage, ts, &["k"]);
        }
        storage
            .put("commit/garbage", bytes::Bytes::from_static(b"junk"))
            .unwrap();

        let pipelined = MetadataCache::new();
        let loaded = warm_metadata_cache_pipelined(&engine(&storage), &pipelined).unwrap();

        assert_eq!(loaded, 300, "every record loaded, the junk key skipped");
        assert!((1..=300).all(|ts| pipelined.is_committed(&tid(ts))));
        assert_eq!(
            pipelined.latest_version_of(&Key::new("k")),
            Some(tid(300)),
            "multi-wave overlapped warm must load every record"
        );
    }

    use aft_storage::checkpoint::publish_checkpoint;
    use aft_storage::io::{IoConfig, IoEngine};
    use aft_storage::Checkpoint;
    use aft_types::AftError;
    use parking_lot::Mutex;

    /// A probe that records every phase it sees and optionally crashes on the
    /// first checkpoint-bootstrap call.
    struct RecordingProbe {
        seen: Mutex<Vec<CommitPhase>>,
        crash_once: Mutex<bool>,
    }

    impl RecordingProbe {
        fn new(crash_once: bool) -> Arc<Self> {
            Arc::new(Self {
                seen: Mutex::new(Vec::new()),
                crash_once: Mutex::new(crash_once),
            })
        }
    }

    impl CommitProbe for RecordingProbe {
        fn before_phase(
            &self,
            _node_id: &str,
            _txid: &TransactionId,
            phase: CommitPhase,
        ) -> AftResult<()> {
            self.seen.lock().push(phase);
            let mut crash = self.crash_once.lock();
            if *crash {
                *crash = false;
                return Err(AftError::Unavailable("killed during bootstrap".into()));
            }
            Ok(())
        }
    }

    fn seeded_engine(total: u64) -> (IoEngine, Vec<TransactionRecord>) {
        let storage: SharedStorage = InMemoryStore::shared();
        let mut records = Vec::new();
        for ts in 1..=total {
            records.push(put_record(&storage, ts, &[&format!("k{}", ts % 7)]));
        }
        (IoEngine::new(storage, IoConfig::pipelined()), records)
    }

    #[test]
    fn checkpointed_bootstrap_matches_full_replay() {
        let (io, records) = seeded_engine(40);
        // Checkpoint covers the first 25 commits.
        let checkpoint = Checkpoint::new(9_000, records[..25].to_vec());
        publish_checkpoint(&io, &checkpoint, || Ok(())).unwrap();

        let replayed = MetadataCache::new();
        warm_metadata_cache_pipelined(&io, &replayed).unwrap();

        let warmed = MetadataCache::new();
        let outcome = warm_metadata_cache_checkpointed(&io, &warmed, "n0", None).unwrap();
        assert!(outcome.used_checkpoint);
        assert_eq!(outcome.from_checkpoint, 25);
        assert_eq!(outcome.from_tail, 15);
        assert_eq!(outcome.loaded(), replayed.len());
        assert!(outcome.bytes_read > 0);
        for record in &records {
            assert!(warmed.is_committed(&record.id));
            assert_eq!(
                warmed.latest_version_of(&record.write_set.iter().next().unwrap().clone()),
                replayed.latest_version_of(&record.write_set.iter().next().unwrap().clone())
            );
        }
    }

    #[test]
    fn checkpointed_bootstrap_without_checkpoint_is_full_replay() {
        let (io, _) = seeded_engine(12);
        let warmed = MetadataCache::new();
        let outcome = warm_metadata_cache_checkpointed(&io, &warmed, "n0", None).unwrap();
        assert!(!outcome.used_checkpoint);
        assert_eq!(outcome.from_checkpoint, 0);
        assert_eq!(outcome.from_tail, 12);
        assert_eq!(warmed.len(), 12);
    }

    #[test]
    fn bootstrap_probe_fires_between_checkpoint_and_tail() {
        let (io, records) = seeded_engine(10);
        let checkpoint = Checkpoint::new(7, records[..6].to_vec());
        publish_checkpoint(&io, &checkpoint, || Ok(())).unwrap();

        // First attempt is killed mid-bootstrap; the retry must converge.
        let probe = RecordingProbe::new(true);
        let as_probe: Arc<dyn CommitProbe> = probe.clone();
        let warmed = MetadataCache::new();
        let err = warm_metadata_cache_checkpointed(&io, &warmed, "n0", Some(&as_probe));
        assert!(err.is_err(), "armed probe must abort the first bootstrap");

        let retry = MetadataCache::new();
        let outcome = warm_metadata_cache_checkpointed(&io, &retry, "n0", Some(&as_probe)).unwrap();
        assert_eq!(outcome.loaded(), 10);
        assert_eq!(
            probe.seen.lock().as_slice(),
            &[
                CommitPhase::DuringCheckpointBootstrap,
                CommitPhase::DuringCheckpointBootstrap
            ]
        );
    }

    #[test]
    fn torn_latest_checkpoint_falls_back_to_previous() {
        let (io, records) = seeded_engine(20);
        let older = Checkpoint::new(100, records[..10].to_vec());
        publish_checkpoint(&io, &older, || Ok(())).unwrap();
        let newer = Checkpoint::new(200, records[..18].to_vec());
        let outcome = publish_checkpoint(&io, &newer, || Ok(())).unwrap();

        // Tear the newest manifest: truncate its bytes.
        let manifest_key = aft_storage::checkpoint::manifest_key(outcome.id);
        let full = io.storage().get(&manifest_key).unwrap().unwrap();
        io.storage()
            .put(
                &manifest_key,
                bytes::Bytes::copy_from_slice(&full[..full.len() / 2]),
            )
            .unwrap();

        let warmed = MetadataCache::new();
        let outcome = warm_metadata_cache_checkpointed(&io, &warmed, "n0", None).unwrap();
        assert!(outcome.used_checkpoint);
        assert_eq!(outcome.rejected_checkpoints, 1);
        assert_eq!(outcome.from_checkpoint, 10);
        assert_eq!(outcome.from_tail, 10);
        assert_eq!(warmed.len(), 20);
    }
}
