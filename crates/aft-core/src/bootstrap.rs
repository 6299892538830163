//! Node bootstrap and recovery.
//!
//! When an AFT node starts — including when a replacement node comes up after
//! a failure (§6.7) — it warms its metadata cache by reading the
//! Transaction Commit Set from storage (§3.1). Nothing else
//! needs to be recovered: the write-ordering protocol guarantees that any
//! transaction with a durable commit record also has durable data (§3.3.1),
//! and any transaction without one is simply not committed (clients retry).
//!
//! A bootstrap is one full replay of the commit set, and the global GC
//! (§5.2) is what bounds it: a round deletes every superseded transaction's
//! record once no active node holds it, so a replacement reads the newest
//! writer of each live key plus what the last rounds have not yet
//! collected, however long the deployment has run. fig13 measures it: over
//! a 100× history sweep the replay's cost stays within 1.3×. Checkpoints of
//! the committed-version index once bounded it instead and were retired:
//! they bought a constant factor, off the request path, for a subsystem of
//! their own.

use std::sync::Arc;

use aft_storage::io::{IoEngine, StorageRequest};
use aft_types::codec::decode_keyed_commit_record;
use aft_types::{AftResult, TransactionRecord};

use crate::metadata::MetadataCache;

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
/// an older build's blob whose id is not its key's. Returns the bytes read;
/// the charged latency lands on the calling thread.
///
/// The one commit-record fetch loop: node bootstrap and full replay (below)
/// and the cluster fault manager's commit-set scan all bulk-read the
/// Transaction Commit Set through it.
pub fn fetch_commit_records(
    io: &IoEngine,
    keys: &[String],
    mut on_record: impl FnMut(TransactionRecord),
) -> AftResult<u64> {
    let mut bytes_read = 0;
    for wave in keys.chunks(COMMIT_FETCH_WAVE) {
        let blobs = io.get_all(wave.to_vec())?;
        for (key, blob) in wave.iter().zip(blobs) {
            let Some(blob) = blob else { continue };
            bytes_read += blob.len() as u64;
            if let Ok(record) = decode_keyed_commit_record(key, &blob) {
                on_record(record);
            }
        }
    }
    Ok(bytes_read)
}

/// Full replay: reads every commit record in storage through the pipelined
/// I/O engine and inserts it into `metadata`. The listing is one round trip,
/// then the record reads go out in waves via [`fetch_commit_records`], so a
/// warm-up does not pay one round trip per record (§6.7's recovery-time
/// concern). Every node bootstraps through it, and the simulator's storage
/// audit builds its view of storage with it.
///
/// Returns the number of records loaded.
pub fn warm_metadata_cache_pipelined(io: &IoEngine, metadata: &MetadataCache) -> AftResult<usize> {
    let keys = io
        .execute(StorageRequest::List(TransactionRecord::storage_prefix()))?
        .into_keys();
    let mut loaded = 0;
    fetch_commit_records(io, &keys, |record| {
        if metadata.insert(Arc::new(record)) {
            loaded += 1;
        }
    })?;
    Ok(loaded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_storage::io::IoConfig;
    use aft_storage::{InMemoryStore, SharedStorage, StorageEngine};
    use aft_types::codec::encode_keyed_commit_record;
    use aft_types::{Key, TransactionId, Uuid, Value};

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
        let loaded = warm_metadata_cache_pipelined(&engine(&storage), &metadata).unwrap();
        assert_eq!(loaded, 5);
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
        let loaded = warm_metadata_cache_pipelined(&engine(&storage), &metadata).unwrap();
        assert_eq!(loaded, 1);
    }

    #[test]
    fn empty_storage_warms_nothing() {
        let storage: SharedStorage = InMemoryStore::shared();
        let metadata = MetadataCache::new();
        let loaded = warm_metadata_cache_pipelined(&engine(&storage), &metadata).unwrap();
        assert_eq!(loaded, 0);
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
        let loaded = warm_metadata_cache_pipelined(&engine(&storage), &metadata).unwrap();
        assert_eq!(loaded, 3, "the vanished record is not an error");
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
}
