//! Checkpointed recovery: a versioned, atomically-published snapshot of the
//! committed-version index, plus log compaction behind it.
//!
//! Bootstrap cost in the base protocol is linear in history: a replacement
//! node replays the *entire* Transaction Commit Set (§3.1). A checkpoint
//! bounds that to the tail. The subsystem follows the replicated-log
//! offset/snapshot discipline:
//!
//! * A **checkpoint** is the set of commit records a node's metadata cache
//!   held (post-§4.1 supersedence pruning) plus a **high-water mark** — the
//!   greatest commit-set storage key the snapshot covers. Commit keys embed
//!   zero-padded timestamps, so "key ≤ high-water" is "committed at or before
//!   the snapshot".
//! * The record set is **chunked** under the wire frame discipline
//!   ([`aft_types::wire::MAX_FRAME_LEN`]): no single blob exceeds what the
//!   service protocol could carry. Every chunk and the manifest itself are
//!   **CRC-validated**, so a blob torn at any byte prefix is rejected.
//! * Publication is **checkpoint-then-pointer**: chunks are written first
//!   (pipelined through the [`IoEngine`]), then the manifest — a single-key
//!   put, the backend's atomicity unit — is published last. A crash mid-write
//!   leaves orphaned chunks and no manifest: the previous checkpoint stays
//!   live and [`load_latest_checkpoint`] falls back to it.
//! * **Compaction** rides §4.1 supersedence: a commit record at or below the
//!   high-water mark is deleted only if the checkpoint *contains* it or the
//!   checkpoint's index *supersedes* it (every key it wrote has a strictly
//!   newer version). Records the checkpoint cannot vouch for are retained —
//!   compaction never guesses.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use aft_types::codec::{
    decode_commit_record, decode_keyed_commit_record, encode_commit_record,
    encoded_commit_record_len, Reader, Writer,
};
use aft_types::wire::MAX_FRAME_LEN;
use aft_types::{AftError, AftResult, Key, TransactionId, TransactionRecord, Value};

use crate::io::{IoEngine, StorageRequest};

/// Storage prefix for checkpoint manifests (the atomic pointers).
pub const CHECKPOINT_META_PREFIX: &str = "ckptmeta";

/// Storage prefix for checkpoint data chunks.
pub const CHECKPOINT_CHUNK_PREFIX: &str = "ckptdata";

/// Checkpoints retained by compaction: the live one plus one fallback, so a
/// crash that tears the newest checkpoint still leaves a valid older one.
pub const CHECKPOINT_KEEP: usize = 2;

/// Format version of the checkpoint wire encoding.
const CHECKPOINT_VERSION: u8 = 1;
/// Tag byte of an encoded chunk.
const TAG_CHECKPOINT_CHUNK: u8 = 0x11;
/// Tag byte of an encoded manifest.
const TAG_CHECKPOINT_MANIFEST: u8 = 0x12;

/// Per-chunk payload budget: comfortably under the 16MB frame cap so a chunk
/// (payload + header + CRC) always fits one wire frame.
pub const CHUNK_BUDGET: usize = MAX_FRAME_LEN - 64 * 1024;

/// Commit records deleted per `DeleteBatch` request during compaction.
const COMPACTION_DELETE_BATCH: usize = 512;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected), table-driven. Hand-rolled: the container has
// no crc crate and the codec is deliberately dependency-free.
// ---------------------------------------------------------------------------

const CRC32_TABLE: [u32; 256] = build_crc32_table();

const fn build_crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// The IEEE CRC32 of `bytes` (the `cksum`/zlib polynomial, reflected).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// The manifest storage key of checkpoint `id`. Zero-padded so string order
/// equals numeric order and a prefix list returns checkpoints oldest-first.
pub fn manifest_key(id: u64) -> String {
    format!("{CHECKPOINT_META_PREFIX}/{id:020}")
}

/// The storage key of chunk `index` of checkpoint `id`.
pub fn chunk_key(id: u64, index: u32) -> String {
    format!("{CHECKPOINT_CHUNK_PREFIX}/{id:020}/{index:06}")
}

/// Parses a checkpoint id back out of a manifest storage key.
pub fn id_from_manifest_key(key: &str) -> Option<u64> {
    key.strip_prefix(CHECKPOINT_META_PREFIX)
        .and_then(|r| r.strip_prefix('/'))
        .and_then(|r| r.parse().ok())
}

// ---------------------------------------------------------------------------
// In-memory checkpoint
// ---------------------------------------------------------------------------

/// A decoded checkpoint: the committed-version index at the high-water mark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The checkpoint's monotonically increasing id.
    pub id: u64,
    /// The commit records the snapshot holds (post-supersedence survivors).
    pub records: Vec<TransactionRecord>,
    /// Greatest commit-set storage key the snapshot covers; `None` for an
    /// empty checkpoint (which covers nothing).
    pub high_water: Option<String>,
}

impl Checkpoint {
    /// Builds a checkpoint over `records`, deriving the high-water mark as
    /// the greatest member storage key. Under §4.1 pruning the newest record
    /// per key always survives, so every pruned (superseded) record sits at
    /// or below this mark.
    pub fn new(id: u64, records: Vec<TransactionRecord>) -> Self {
        let high_water = records.iter().map(|r| r.storage_key()).max();
        Checkpoint {
            id,
            records,
            high_water,
        }
    }

    /// True if `storage_key` is at or below the high-water mark.
    pub fn covers(&self, storage_key: &str) -> bool {
        self.high_water
            .as_deref()
            .is_some_and(|hw| storage_key <= hw)
    }

    /// The newest committed version of every key in the snapshot.
    pub fn newest_versions(&self) -> HashMap<Key, TransactionId> {
        let mut newest: HashMap<Key, TransactionId> = HashMap::new();
        for record in &self.records {
            for key in &record.write_set {
                let entry = newest.entry(key.clone()).or_insert(record.id);
                if record.id > *entry {
                    *entry = record.id;
                }
            }
        }
        newest
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Appends a CRC32 trailer over everything written so far.
fn seal(writer: Writer) -> Value {
    let body = writer.finish();
    let crc = crc32(&body);
    let mut sealed = body.to_vec();
    sealed.extend_from_slice(&crc.to_le_bytes());
    Value::from(sealed)
}

/// Splits a sealed blob into (body, expected crc), verifying the trailer.
fn unseal(bytes: &[u8], what: &str) -> AftResult<Vec<u8>> {
    if bytes.len() < 4 {
        return Err(AftError::Codec(format!(
            "{what} blob of {} bytes is shorter than its CRC trailer",
            bytes.len()
        )));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().expect("trailer is 4 bytes"));
    let actual = crc32(body);
    if stored != actual {
        return Err(AftError::Codec(format!(
            "{what} CRC mismatch: stored {stored:#010x}, computed {actual:#010x} — torn or corrupt"
        )));
    }
    Ok(body.to_vec())
}

/// Encodes one chunk of `records` (CRC-sealed).
pub fn encode_chunk(id: u64, index: u32, records: &[TransactionRecord]) -> Value {
    let mut w = Writer::with_capacity(64 + records.len() * 64);
    w.put_u8(CHECKPOINT_VERSION);
    w.put_u8(TAG_CHECKPOINT_CHUNK);
    w.put_u64(id);
    w.put_u32(index);
    w.put_u32(records.len() as u32);
    for record in records {
        w.put_bytes(&encode_commit_record(record));
    }
    seal(w)
}

/// Decodes a chunk, verifying CRC, format, and identity (id + index).
pub fn decode_chunk(
    bytes: &[u8],
    expect_id: u64,
    expect_index: u32,
) -> AftResult<Vec<TransactionRecord>> {
    let body = unseal(bytes, "checkpoint chunk")?;
    let mut r = Reader::new(&body);
    check_checkpoint_header(&mut r, TAG_CHECKPOINT_CHUNK)?;
    let id = r.get_u64()?;
    let index = r.get_u32()?;
    if id != expect_id || index != expect_index {
        return Err(AftError::Codec(format!(
            "checkpoint chunk identity mismatch: got {id}/{index}, expected {expect_id}/{expect_index}"
        )));
    }
    let n = r.get_u32()? as usize;
    // Untrusted length prefix — never pre-allocate from it directly.
    let mut records = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let raw = r.get_bytes()?;
        records.push(decode_commit_record(&raw)?);
    }
    r.expect_end()?;
    Ok(records)
}

/// A decoded checkpoint manifest: the atomic pointer published last.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointManifest {
    /// The checkpoint's id.
    pub id: u64,
    /// Total records across all chunks.
    pub record_count: u64,
    /// CRC32 of each sealed chunk blob, in index order.
    pub chunk_crcs: Vec<u32>,
    /// High-water mark ("" encoded as `None`).
    pub high_water: Option<String>,
}

/// Encodes a manifest (CRC-sealed).
pub fn encode_manifest(manifest: &CheckpointManifest) -> Value {
    let mut w = Writer::with_capacity(64 + manifest.chunk_crcs.len() * 4);
    w.put_u8(CHECKPOINT_VERSION);
    w.put_u8(TAG_CHECKPOINT_MANIFEST);
    w.put_u64(manifest.id);
    w.put_u64(manifest.record_count);
    w.put_u32(manifest.chunk_crcs.len() as u32);
    for crc in &manifest.chunk_crcs {
        w.put_u32(*crc);
    }
    w.put_str(manifest.high_water.as_deref().unwrap_or(""));
    seal(w)
}

/// Decodes a manifest, verifying CRC and format.
pub fn decode_manifest(bytes: &[u8]) -> AftResult<CheckpointManifest> {
    let body = unseal(bytes, "checkpoint manifest")?;
    let mut r = Reader::new(&body);
    check_checkpoint_header(&mut r, TAG_CHECKPOINT_MANIFEST)?;
    let id = r.get_u64()?;
    let record_count = r.get_u64()?;
    let n = r.get_u32()? as usize;
    let mut chunk_crcs = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        chunk_crcs.push(r.get_u32()?);
    }
    let high_water = match r.get_str()? {
        s if s.is_empty() => None,
        s => Some(s),
    };
    r.expect_end()?;
    Ok(CheckpointManifest {
        id,
        record_count,
        chunk_crcs,
        high_water,
    })
}

fn check_checkpoint_header(r: &mut Reader<'_>, expected_tag: u8) -> AftResult<()> {
    let version = r.get_u8()?;
    if version != CHECKPOINT_VERSION {
        return Err(AftError::Codec(format!(
            "unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )));
    }
    let tag = r.get_u8()?;
    if tag != expected_tag {
        return Err(AftError::Codec(format!(
            "unexpected checkpoint tag {tag:#04x}, expected {expected_tag:#04x}"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Publish
// ---------------------------------------------------------------------------

/// What a checkpoint publication did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointWriteOutcome {
    /// The published checkpoint's id.
    pub id: u64,
    /// Records snapshotted.
    pub records: usize,
    /// Chunks written.
    pub chunks: usize,
    /// Bytes written (chunks + manifest).
    pub bytes_written: u64,
    /// Simulated latency charged for the pipelined writes.
    pub cost: Duration,
}

/// Publishes `checkpoint` through `io`: all chunks first (pipelined), then
/// the manifest — the atomic pointer — last.
///
/// `before_manifest` runs after every chunk is durable and before the
/// manifest put; it is the kill point chaos plans target
/// ([`aft_types::CommitPhase::DuringCheckpointWrite`]). If it (or any chunk
/// write) fails, no manifest is published and the previous checkpoint stays
/// live — orphaned chunks are invisible garbage, not an anomaly.
pub fn publish_checkpoint<F>(
    io: &IoEngine,
    checkpoint: &Checkpoint,
    before_manifest: F,
) -> AftResult<CheckpointWriteOutcome>
where
    F: FnOnce() -> AftResult<()>,
{
    // Pack records into chunks under the frame budget: each chunk is a
    // range of the records, sized without encoding them.
    let records = &checkpoint.records;
    let mut chunks: Vec<Value> = Vec::new();
    let (mut start, mut current_bytes) = (0, 0);
    for (i, record) in records.iter().enumerate() {
        let encoded_len = 4 + encoded_commit_record_len(record);
        if i > start && current_bytes + encoded_len > CHUNK_BUDGET {
            chunks.push(encode_chunk(
                checkpoint.id,
                chunks.len() as u32,
                &records[start..i],
            ));
            (start, current_bytes) = (i, 0);
        }
        current_bytes += encoded_len;
    }
    if start < records.len() {
        chunks.push(encode_chunk(
            checkpoint.id,
            chunks.len() as u32,
            &records[start..],
        ));
    }

    let chunk_crcs: Vec<u32> = chunks.iter().map(|c| crc32(c)).collect();
    let mut bytes_written: u64 = chunks.iter().map(|c| c.len() as u64).sum();
    let chunk_count = chunks.len();

    let puts = chunks
        .into_iter()
        .enumerate()
        .map(|(i, blob)| StorageRequest::Put(chunk_key(checkpoint.id, i as u32), blob));
    let mut cost = io.submit_all(puts).wait_all().ok()?;

    // Chunks durable; the pointer is not. A crash here must leave the
    // previous checkpoint live — which it does, because the manifest below is
    // the only thing a loader looks at.
    before_manifest()?;

    let manifest = CheckpointManifest {
        id: checkpoint.id,
        record_count: checkpoint.records.len() as u64,
        chunk_crcs,
        high_water: checkpoint.high_water.clone(),
    };
    let blob = encode_manifest(&manifest);
    bytes_written += blob.len() as u64;
    let outcome = io.execute(StorageRequest::Put(manifest_key(checkpoint.id), blob));
    outcome.result?;
    cost += outcome.cost;

    Ok(CheckpointWriteOutcome {
        id: checkpoint.id,
        records: checkpoint.records.len(),
        chunks: chunk_count,
        bytes_written,
        cost,
    })
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

/// The result of a checkpoint load: the newest valid checkpoint, if any.
#[derive(Debug)]
pub struct CheckpointLoad {
    /// The newest checkpoint that validated end to end, or `None` if no
    /// usable checkpoint exists (fall back to full replay).
    pub checkpoint: Option<Checkpoint>,
    /// Manifests that were present but rejected (torn, corrupt, or with
    /// missing/corrupt chunks) before a valid one was found.
    pub rejected: usize,
    /// Bytes fetched while loading (including rejected attempts).
    pub bytes_read: u64,
    /// Simulated latency charged (including rejected attempts).
    pub cost: Duration,
}

/// Loads the newest valid checkpoint, walking manifests newest-first and
/// falling back past any checkpoint that fails validation — a torn
/// checkpoint is *never* returned.
pub fn load_latest_checkpoint(io: &IoEngine) -> AftResult<CheckpointLoad> {
    let listed = io.execute(StorageRequest::List(format!("{CHECKPOINT_META_PREFIX}/")));
    let mut cost = listed.cost;
    let keys = listed.result?.into_keys();

    let mut rejected = 0usize;
    let mut bytes_read = 0u64;
    for key in keys.iter().rev() {
        match try_load_checkpoint(io, key, &mut bytes_read, &mut cost) {
            Ok(checkpoint) => {
                return Ok(CheckpointLoad {
                    checkpoint: Some(checkpoint),
                    rejected,
                    bytes_read,
                    cost,
                })
            }
            Err(_) => rejected += 1,
        }
    }
    Ok(CheckpointLoad {
        checkpoint: None,
        rejected,
        bytes_read,
        cost,
    })
}

fn try_load_checkpoint(
    io: &IoEngine,
    manifest_storage_key: &str,
    bytes_read: &mut u64,
    cost: &mut Duration,
) -> AftResult<Checkpoint> {
    let outcome = io.execute(StorageRequest::Get(manifest_storage_key.to_string()));
    *cost += outcome.cost;
    let blob = outcome
        .result?
        .into_value()
        .ok_or_else(|| AftError::Codec("manifest vanished under the loader".into()))?;
    *bytes_read += blob.len() as u64;
    let manifest = decode_manifest(&blob)?;
    if manifest_key(manifest.id) != manifest_storage_key {
        return Err(AftError::Codec(format!(
            "manifest at {manifest_storage_key:?} claims checkpoint id {}",
            manifest.id
        )));
    }

    let chunk_keys = (0..manifest.chunk_crcs.len())
        .map(|i| chunk_key(manifest.id, i as u32))
        .collect();
    let (blobs, chunks_cost) = io.get_all(chunk_keys)?;
    *cost += chunks_cost;
    let mut records = Vec::new();
    for (index, blob) in blobs.into_iter().enumerate() {
        let blob =
            blob.ok_or_else(|| AftError::Codec(format!("checkpoint chunk {index} is missing")))?;
        *bytes_read += blob.len() as u64;
        if crc32(&blob) != manifest.chunk_crcs[index] {
            return Err(AftError::Codec(format!(
                "checkpoint chunk {index} does not match its manifest CRC"
            )));
        }
        records.extend(decode_chunk(&blob, manifest.id, index as u32)?);
    }
    if records.len() as u64 != manifest.record_count {
        return Err(AftError::Codec(format!(
            "checkpoint record count mismatch: chunks hold {}, manifest says {}",
            records.len(),
            manifest.record_count
        )));
    }
    Ok(Checkpoint {
        id: manifest.id,
        records,
        high_water: manifest.high_water,
    })
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

/// What a compaction round did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Commit records at or below the high-water mark that were examined.
    pub examined: usize,
    /// Records deleted because the checkpoint contains them.
    pub deleted_covered: usize,
    /// Records deleted because the checkpoint's index supersedes them (§4.1:
    /// every key they wrote has a strictly newer version in the checkpoint).
    pub deleted_superseded: usize,
    /// Records below the mark the checkpoint could not vouch for, or that
    /// the global GC holds — retained.
    pub retained: usize,
    /// Old checkpoints (manifest + chunks) pruned past the retention window.
    pub pruned_checkpoints: usize,
    /// Simulated latency charged.
    pub cost: Duration,
}

/// Compacts the commit log behind `checkpoint`: deletes commit records the
/// checkpoint wholly covers and prunes checkpoints past the retention
/// window (keeping `keep` of them — see [`CHECKPOINT_KEEP`]). A record below
/// the mark that the checkpoint does not hold is fetched and deleted if the
/// checkpoint supersedes it, unless `gc_holds` says the global GC holds it:
/// that GC deletes it with its data, so compaction leaves it alone.
///
/// Callers coordinate this with recovery: it must not run while a
/// replacement node may still be bootstrapping from the pre-checkpoint log
/// (the cluster layer only invokes it when no recovery is in flight).
pub fn compact_log(
    io: &IoEngine,
    checkpoint: &Checkpoint,
    keep: usize,
    gc_holds: &dyn Fn(&TransactionId) -> bool,
) -> AftResult<CompactionOutcome> {
    let mut outcome = CompactionOutcome::default();

    if let Some(high_water) = checkpoint.high_water.as_deref() {
        let listed = io.execute(StorageRequest::List(TransactionRecord::storage_prefix()));
        outcome.cost += listed.cost;
        let commit_keys = listed.result?.into_keys();

        let covered: HashSet<String> = checkpoint.records.iter().map(|r| r.storage_key()).collect();
        let newest = checkpoint.newest_versions();

        let mut deletable: Vec<String> = Vec::new();
        let mut unknown: Vec<String> = Vec::new();
        for key in commit_keys {
            if key.as_str() > high_water {
                continue;
            }
            outcome.examined += 1;
            if covered.contains(&key) {
                outcome.deleted_covered += 1;
                deletable.push(key);
            } else if TransactionRecord::id_from_storage_key(&key).is_ok_and(|id| gc_holds(&id)) {
                outcome.retained += 1;
            } else {
                unknown.push(key);
            }
        }

        // A record below the mark that the checkpoint does not contain is
        // only deletable if the checkpoint's index supersedes it; fetch and
        // check rather than guess. A failed read retains them all.
        if !unknown.is_empty() {
            let (blobs, read_cost) = io
                .get_all(unknown.clone())
                .unwrap_or_else(|_| (vec![None; unknown.len()], Duration::ZERO));
            outcome.cost += read_cost;
            for (key, blob) in unknown.into_iter().zip(blobs) {
                // A blob already gone (concurrent GC) leaves nothing to delete.
                let superseded = blob.is_some_and(|blob| {
                    decode_keyed_commit_record(&key, &blob).is_ok_and(|record| {
                        !record.write_set.is_empty()
                            && record
                                .write_set
                                .iter()
                                .all(|k| newest.get(k).is_some_and(|newer| *newer > record.id))
                    })
                });
                if superseded {
                    outcome.deleted_superseded += 1;
                    deletable.push(key);
                } else {
                    outcome.retained += 1;
                }
            }
        }

        for batch in deletable.chunks(COMPACTION_DELETE_BATCH) {
            let done = io.execute(StorageRequest::DeleteBatch(batch.to_vec()));
            done.result?;
            outcome.cost += done.cost;
        }
    }

    outcome.pruned_checkpoints = prune_checkpoints(io, keep, &mut outcome.cost)?;
    Ok(outcome)
}

/// Deletes checkpoints past the retention window, manifest first (so a crash
/// mid-prune can never leave a pointer to missing chunks). Returns the number
/// pruned.
fn prune_checkpoints(io: &IoEngine, keep: usize, cost: &mut Duration) -> AftResult<usize> {
    let listed = io.execute(StorageRequest::List(format!("{CHECKPOINT_META_PREFIX}/")));
    *cost += listed.cost;
    let keys = listed.result?.into_keys();
    if keys.len() <= keep.max(1) {
        return Ok(0);
    }
    let prune = &keys[..keys.len() - keep.max(1)];
    let mut pruned = 0usize;
    for key in prune {
        let Some(id) = id_from_manifest_key(key) else {
            continue;
        };
        let gone = io.execute(StorageRequest::Delete(key.clone()));
        gone.result?;
        *cost += gone.cost;
        let chunk_prefix = format!("{CHECKPOINT_CHUNK_PREFIX}/{id:020}/");
        let chunks = io.execute(StorageRequest::List(chunk_prefix));
        *cost += chunks.cost;
        let chunk_keys = chunks.result?.into_keys();
        if !chunk_keys.is_empty() {
            let done = io.execute(StorageRequest::DeleteBatch(chunk_keys));
            done.result?;
            *cost += done.cost;
        }
        pruned += 1;
    }
    Ok(pruned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::IoConfig;
    use crate::memory::InMemoryStore;
    use aft_types::codec::encode_keyed_commit_record;
    use aft_types::Uuid;

    fn engine() -> IoEngine {
        IoEngine::new(InMemoryStore::shared(), IoConfig::pipelined())
    }

    fn tid(ts: u64, id: u128) -> TransactionId {
        TransactionId::new(ts, Uuid::from_u128(id))
    }

    fn record(ts: u64, keys: &[&str]) -> TransactionRecord {
        TransactionRecord::new(tid(ts, ts as u128), keys.iter().map(Key::new))
    }

    fn records(n: u64) -> Vec<TransactionRecord> {
        (1..=n).map(|i| record(i, &["k"])).collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn checkpoint_round_trips_through_storage() {
        let io = engine();
        let ckpt = Checkpoint::new(7, records(100));
        let written = publish_checkpoint(&io, &ckpt, || Ok(())).unwrap();
        assert_eq!(written.records, 100);
        assert_eq!(written.chunks, 1);

        let load = load_latest_checkpoint(&io).unwrap();
        let loaded = load.checkpoint.expect("checkpoint must load");
        assert_eq!(loaded, ckpt);
        assert_eq!(load.rejected, 0);
        assert!(load.bytes_read > 0);
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let io = engine();
        let ckpt = Checkpoint::new(1, Vec::new());
        assert!(ckpt.high_water.is_none());
        publish_checkpoint(&io, &ckpt, || Ok(())).unwrap();
        let loaded = load_latest_checkpoint(&io).unwrap().checkpoint.unwrap();
        assert_eq!(loaded, ckpt);
    }

    #[test]
    fn records_spill_across_chunks_under_the_budget() {
        // Shrink is not possible (the budget is a const), so synthesise big
        // records instead: ~1600 keys of 32 bytes each ≈ 57KB per record,
        // 300 records ≈ 17MB > one chunk budget.
        let big: Vec<TransactionRecord> = (0..300u64)
            .map(|i| {
                let keys: Vec<Key> = (0..1600)
                    .map(|k| Key::from(format!("key/{i:06}/{k:04}{}", "x".repeat(16))))
                    .collect();
                TransactionRecord::new(tid(i + 1, i as u128), keys)
            })
            .collect();
        let io = engine();
        let ckpt = Checkpoint::new(3, big);
        let written = publish_checkpoint(&io, &ckpt, || Ok(())).unwrap();
        assert!(
            written.chunks >= 2,
            "expected a spill, got {}",
            written.chunks
        );
        let loaded = load_latest_checkpoint(&io).unwrap().checkpoint.unwrap();
        assert_eq!(loaded.records.len(), ckpt.records.len());
        assert_eq!(loaded, ckpt);
    }

    #[test]
    fn torn_manifest_falls_back_to_previous_checkpoint() {
        let io = engine();
        let old = Checkpoint::new(1, records(10));
        publish_checkpoint(&io, &old, || Ok(())).unwrap();
        let new = Checkpoint::new(2, records(20));
        publish_checkpoint(&io, &new, || Ok(())).unwrap();

        // Tear the newest manifest at every byte prefix; every tear must be
        // rejected and fall back to checkpoint 1.
        let key = manifest_key(2);
        let intact = io
            .execute(StorageRequest::Get(key.clone()))
            .result
            .unwrap()
            .into_value()
            .unwrap();
        for cut in 0..intact.len() {
            io.execute(StorageRequest::Put(
                key.clone(),
                Value::copy_from_slice(&intact[..cut]),
            ))
            .result
            .unwrap();
            let load = load_latest_checkpoint(&io).unwrap();
            let loaded = load.checkpoint.expect("fallback must succeed");
            assert_eq!(loaded.id, 1, "cut at {cut} must fall back");
            assert_eq!(load.rejected, 1);
        }
    }

    #[test]
    fn torn_chunk_falls_back_to_previous_checkpoint() {
        let io = engine();
        let old = Checkpoint::new(1, records(10));
        publish_checkpoint(&io, &old, || Ok(())).unwrap();
        let new = Checkpoint::new(2, records(20));
        publish_checkpoint(&io, &new, || Ok(())).unwrap();

        let key = chunk_key(2, 0);
        let intact = io
            .execute(StorageRequest::Get(key.clone()))
            .result
            .unwrap()
            .into_value()
            .unwrap();
        for cut in [0, 1, intact.len() / 2, intact.len() - 1] {
            io.execute(StorageRequest::Put(
                key.clone(),
                Value::copy_from_slice(&intact[..cut]),
            ))
            .result
            .unwrap();
            let load = load_latest_checkpoint(&io).unwrap();
            assert_eq!(
                load.checkpoint.unwrap().id,
                1,
                "cut at {cut} must fall back"
            );
        }
    }

    #[test]
    fn no_checkpoint_yields_none() {
        let io = engine();
        let load = load_latest_checkpoint(&io).unwrap();
        assert!(load.checkpoint.is_none());
        assert_eq!(load.rejected, 0);
    }

    #[test]
    fn compaction_deletes_covered_and_superseded_only() {
        let io = engine();
        // History: t1 writes k (superseded by t3), t2 writes a+b, t3 writes k,
        // t4 writes c but is NOT in the checkpoint (unknown, not superseded),
        // t5 is above the high-water mark.
        let r1 = record(1, &["k"]);
        let r2 = record(2, &["a", "b"]);
        let r3 = record(3, &["k"]);
        let r4 = record(4, &["c"]);
        let r5 = record(5, &["d"]);
        // r1 as an older build stored it: compaction reads both forms.
        io.execute(StorageRequest::Put(
            r1.storage_key(),
            encode_commit_record(&r1),
        ))
        .result
        .unwrap();
        for r in [&r2, &r3, &r4, &r5] {
            io.execute(StorageRequest::Put(
                r.storage_key(),
                encode_keyed_commit_record(r),
            ))
            .result
            .unwrap();
        }
        // Checkpoint holds r2 + r3 + r4's *older sibling view*: build it from
        // the §4.1 survivors as of t4: r2, r3, r4 — but leave r4 out to model
        // a record the checkpointing node never saw.
        let mut ckpt = Checkpoint::new(1, vec![r2.clone(), r3.clone()]);
        // Extend the mark past r4 (a checkpoint derived from a cache that saw
        // r4's *timestamp era* but lost its broadcast).
        ckpt.high_water = Some(r4.storage_key());

        let outcome = compact_log(&io, &ckpt, CHECKPOINT_KEEP, &|_| false).unwrap();
        assert_eq!(
            outcome.deleted_covered, 2,
            "r2 and r3 are in the checkpoint"
        );
        assert_eq!(outcome.deleted_superseded, 1, "r1 is superseded by r3");
        assert_eq!(outcome.retained, 1, "r4 is unknown and must survive");

        let left = io
            .execute(StorageRequest::List(TransactionRecord::storage_prefix()))
            .result
            .unwrap()
            .into_keys();
        assert_eq!(left, vec![r4.storage_key(), r5.storage_key()]);
    }

    #[test]
    fn compaction_prunes_old_checkpoints_keeping_the_window() {
        let io = engine();
        for id in 1..=4u64 {
            publish_checkpoint(&io, &Checkpoint::new(id, records(5)), || Ok(())).unwrap();
        }
        let newest = Checkpoint::new(4, records(5));
        let outcome = compact_log(&io, &newest, CHECKPOINT_KEEP, &|_| false).unwrap();
        assert_eq!(outcome.pruned_checkpoints, 2);
        let manifests = io
            .execute(StorageRequest::List(format!("{CHECKPOINT_META_PREFIX}/")))
            .result
            .unwrap()
            .into_keys();
        assert_eq!(manifests, vec![manifest_key(3), manifest_key(4)]);
        let chunks = io
            .execute(StorageRequest::List(format!("{CHECKPOINT_CHUNK_PREFIX}/")))
            .result
            .unwrap()
            .into_keys();
        assert_eq!(chunks, vec![chunk_key(3, 0), chunk_key(4, 0)]);
    }

    #[test]
    fn newest_versions_picks_the_max_per_key() {
        let ckpt = Checkpoint::new(
            1,
            vec![record(1, &["k", "l"]), record(3, &["k"]), record(2, &["l"])],
        );
        let newest = ckpt.newest_versions();
        assert_eq!(newest[&Key::new("k")], tid(3, 3));
        assert_eq!(newest[&Key::new("l")], tid(2, 2));
    }
}
