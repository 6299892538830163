//! The Atomic Write Buffer and per-transaction state.
//!
//! The write buffer sequesters every update made by an in-flight transaction
//! (§3.3). Nothing reaches storage until `CommitTransaction` — with one
//! exception: if a transaction's buffered updates exceed the configured spill
//! threshold, the buffer proactively writes the intermediary data to the
//! transaction's (still-invisible) storage keys. Because visibility is
//! controlled entirely by the commit record, spilled data stays invisible
//! until commit and simply becomes garbage if the transaction aborts or the
//! node fails (§3.3, cleaned up in §5). Each value is written once: a spill
//! carries only what was written since the last spill, and the commit only
//! what no spill made durable, since a spilled blob already sits at the
//! storage key its commit record will name.

use std::collections::{BTreeMap, HashMap, HashSet};

use aft_types::{AftError, AftResult, Key, KeyVersion, TransactionId, Uuid, Value};
use parking_lot::Mutex;

use crate::read::ReadSet;

/// Per-transaction in-flight state: buffered writes and the read set.
#[derive(Debug)]
pub(crate) struct ActiveTransaction {
    /// The transaction's ID as of `StartTransaction` (start timestamp + UUID);
    /// the final commit timestamp is assigned at commit time.
    pub(crate) id: TransactionId,
    /// Buffered writes: the most recent value written for each key.
    pub(crate) writes: BTreeMap<Key, Value>,
    /// Keys whose buffered value already sits at its storage key: a spill
    /// carrying it landed and the key was not written since. A spill or the
    /// commit writes every other key.
    durable: HashSet<Key>,
    /// Keys a spill has tried to write, so their storage keys may hold data
    /// that an abort must delete.
    spilled: HashSet<Key>,
    /// The versions read so far (Algorithm 1's `R`).
    pub(crate) reads: ReadSet,
    /// Total bytes of the writes not yet durable.
    buffered_bytes: usize,
}

impl ActiveTransaction {
    /// Creates the in-flight state for a new transaction.
    pub(crate) fn new(id: TransactionId) -> Self {
        ActiveTransaction {
            id,
            writes: BTreeMap::new(),
            durable: HashSet::new(),
            spilled: HashSet::new(),
            reads: ReadSet::new(),
            buffered_bytes: 0,
        }
    }

    /// Buffers a write, replacing any previous buffered value for the key
    /// (read-your-writes always sees the latest buffered value).
    pub(crate) fn buffer_write(&mut self, key: Key, value: Value) {
        let was_durable = !self.durable.is_empty() && self.durable.remove(&key);
        self.buffered_bytes += value.len();
        if let Some(old) = self.writes.insert(key, value) {
            if !was_durable {
                self.buffered_bytes -= old.len();
            }
        }
    }

    /// The buffered value for `key`, if the transaction has written it.
    pub(crate) fn buffered_value(&self, key: &Key) -> Option<Value> {
        self.writes.get(key).cloned()
    }

    /// Bytes of payload buffered and not yet durable (spilled data excluded).
    pub(crate) fn buffered_bytes(&self) -> usize {
        self.buffered_bytes
    }

    /// The buffered writes not yet durable at their storage keys.
    fn not_durable(&self) -> impl Iterator<Item = (&Key, &Value)> {
        self.writes
            .iter()
            .filter(|(key, _)| !self.durable.contains(*key))
    }

    /// The storage items, keyed by the transaction's version storage keys, of
    /// every buffered write not yet durable there: what the commit writes. A
    /// key whose spilled value is still its latest is already at the storage
    /// key its commit record will name (a data key carries only the UUID), so
    /// it is not written again.
    pub(crate) fn storage_items(&self) -> Vec<(String, Value)> {
        self.not_durable()
            .map(|(key, value)| {
                let storage_key = KeyVersion::new(key.clone(), self.id).storage_key();
                (storage_key, value.clone())
            })
            .collect()
    }

    /// Starts a spill of every write not yet durable: returns those writes
    /// and notes their keys as possibly in storage, so an abort deletes them.
    /// The commit still writes them until
    /// [`confirm_spill`](ActiveTransaction::confirm_spill) says the spill
    /// landed. The buffered values are retained so read-your-writes still
    /// sees them.
    pub(crate) fn begin_spill(&mut self) -> Vec<(Key, Value)> {
        let items: Vec<(Key, Value)> = self
            .not_durable()
            .map(|(key, value)| (key.clone(), value.clone()))
            .collect();
        self.spilled
            .extend(items.iter().map(|(key, _)| key.clone()));
        items
    }

    /// Records that a spill of `written` landed: each key whose buffered
    /// value is still the one spilled is durable, and its bytes no longer
    /// count as buffered.
    pub(crate) fn confirm_spill(&mut self, written: &[(Key, Value)]) {
        for (key, value) in written {
            if self.writes.get(key) == Some(value) && self.durable.insert(key.clone()) {
                self.buffered_bytes -= value.len();
            }
        }
    }

    /// Whether a spill has tried to write any of the transaction's versions
    /// to their storage keys.
    pub(crate) fn has_spilled(&self) -> bool {
        !self.spilled.is_empty()
    }

    /// The storage keys of every version this transaction has (or may have)
    /// written to storage — used to clean up after an abort.
    pub(crate) fn spilled_storage_keys(&self) -> Vec<String> {
        self.spilled
            .iter()
            .map(|k| KeyVersion::new(k.clone(), self.id).storage_key())
            .collect()
    }
}

/// Default shard count for the in-flight transaction table.
pub(crate) const DEFAULT_TXN_SHARDS: usize = 16;

/// The Atomic Write Buffer: all in-flight transactions on one AFT node,
/// keyed by their UUID so that a retried function can continue a transaction
/// it started earlier (§3.3.1).
///
/// The table is sharded by transaction UUID: every per-transaction operation
/// (`begin` / `with_txn` / `take`) locks only the owning shard, so concurrent
/// client threads driving different transactions never serialise on one
/// global mutex. Whole-buffer queries (`len`, `versions_read`) visit
/// every shard; they run off the hot path (GC sweeps, test assertions).
#[derive(Debug)]
pub(crate) struct WriteBuffer {
    shards: Box<[Mutex<HashMap<Uuid, ActiveTransaction>>]>,
}

impl Default for WriteBuffer {
    fn default() -> Self {
        WriteBuffer::with_shards(DEFAULT_TXN_SHARDS)
    }
}

impl WriteBuffer {
    /// Creates an empty write buffer with the default shard count.
    pub(crate) fn new() -> Self {
        WriteBuffer::default()
    }

    /// Creates an empty write buffer with an explicit shard count (≥ 1).
    pub(crate) fn with_shards(shards: usize) -> Self {
        WriteBuffer {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, uuid: &Uuid) -> &Mutex<HashMap<Uuid, ActiveTransaction>> {
        // The UUID is already uniformly random; fold it instead of re-hashing.
        let folded = uuid.as_u128() as u64 ^ (uuid.as_u128() >> 64) as u64;
        &self.shards[folded as usize % self.shards.len()]
    }

    /// Registers a new in-flight transaction.
    pub(crate) fn begin(&self, id: TransactionId) {
        self.shard(&id.uuid)
            .lock()
            .insert(id.uuid, ActiveTransaction::new(id));
    }

    /// Runs `f` with mutable access to the transaction's in-flight state.
    pub(crate) fn with_txn<T>(
        &self,
        id: &TransactionId,
        f: impl FnOnce(&mut ActiveTransaction) -> T,
    ) -> AftResult<T> {
        let mut active = self.shard(&id.uuid).lock();
        let txn = active
            .get_mut(&id.uuid)
            .ok_or(AftError::UnknownTransaction(*id))?;
        Ok(f(txn))
    }

    /// Removes and returns the transaction's in-flight state (commit or
    /// abort takes ownership of it).
    pub(crate) fn take(&self, id: &TransactionId) -> AftResult<ActiveTransaction> {
        self.shard(&id.uuid)
            .lock()
            .remove(&id.uuid)
            .ok_or(AftError::UnknownTransaction(*id))
    }

    /// Returns true if the transaction is currently in flight.
    pub(crate) fn contains(&self, id: &TransactionId) -> bool {
        self.shard(&id.uuid).lock().contains_key(&id.uuid)
    }

    /// Number of in-flight transactions.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Every transaction some in-flight transaction has read a version of —
    /// the local GC must not delete such metadata (§5.1). One pass over the
    /// shards answers a whole sweep, which asks right before its removals.
    ///
    /// Shards are visited one at a time, so a transaction beginning on an
    /// already-visited shard mid-pass may be missed; that race existed with
    /// the single-lock table too (a transaction could begin right after the
    /// pass) and is benign — the GC only needs a point-in-time answer.
    pub(crate) fn versions_read(&self) -> HashSet<TransactionId> {
        let mut read = HashSet::new();
        for shard in &self.shards {
            for txn in shard.lock().values() {
                read.extend(txn.reads.iter().map(|(_, tid)| *tid));
            }
        }
        read
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn tid(ts: u64, id: u128) -> TransactionId {
        TransactionId::new(ts, Uuid::from_u128(id))
    }

    fn val(s: &str) -> Value {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn buffered_writes_overwrite_and_track_bytes() {
        let mut txn = ActiveTransaction::new(tid(1, 1));
        txn.buffer_write(Key::new("k"), val("hello"));
        assert_eq!(txn.buffered_bytes(), 5);
        txn.buffer_write(Key::new("k"), val("hi"));
        assert_eq!(txn.buffered_bytes(), 2, "overwrites reclaim the old bytes");
        assert_eq!(txn.buffered_value(&Key::new("k")).unwrap(), val("hi"));
        assert!(txn.buffered_value(&Key::new("other")).is_none());
        assert_eq!(txn.writes.len(), 1);
    }

    #[test]
    fn storage_items_use_version_storage_keys() {
        let mut txn = ActiveTransaction::new(tid(1, 0xabc));
        txn.buffer_write(Key::new("k"), val("v"));
        let items = txn.storage_items();
        assert_eq!(items.len(), 1);
        assert!(items[0].0.starts_with("data/k/"));
        assert!(items[0].0.ends_with(&format!("{}", Uuid::from_u128(0xabc))));
    }

    #[test]
    fn spill_retains_values_for_read_your_writes() {
        let mut txn = ActiveTransaction::new(tid(1, 1));
        txn.buffer_write(Key::new("a"), val("1"));
        txn.buffer_write(Key::new("b"), val("2"));
        let spilled = txn.begin_spill();
        assert_eq!(spilled.len(), 2);
        // Until the spill is confirmed, both keys may be in storage and the
        // commit still writes both.
        assert_eq!(txn.spilled_storage_keys().len(), 2);
        assert_eq!(txn.storage_items().len(), 2);
        assert_eq!(txn.buffered_bytes(), 2);
        txn.confirm_spill(&spilled);
        assert_eq!(txn.buffered_bytes(), 0);
        assert!(txn.storage_items().is_empty(), "both are durable");
        // Values are still visible to the transaction itself.
        assert_eq!(txn.buffered_value(&Key::new("a")).unwrap(), val("1"));
        assert_eq!(txn.spilled_storage_keys().len(), 2);
    }

    #[test]
    fn a_spill_carries_only_what_was_written_since_the_last() {
        let mut txn = ActiveTransaction::new(tid(1, 1));
        txn.buffer_write(Key::new("a"), val("1"));
        let first = txn.begin_spill();
        txn.confirm_spill(&first);
        txn.buffer_write(Key::new("b"), val("22"));
        assert_eq!(txn.begin_spill(), [(Key::new("b"), val("22"))]);
        // `a` is rewritten while the spill of `b` is in flight, and then `b`
        // too: the confirmation makes neither durable.
        txn.buffer_write(Key::new("a"), val("333"));
        txn.buffer_write(Key::new("b"), val("4444"));
        txn.confirm_spill(&[(Key::new("b"), val("22"))]);
        assert_eq!(txn.buffered_bytes(), 7);
        let keys: Vec<String> = txn.storage_items().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys.len(), 2, "{keys:?}");
        assert_eq!(txn.spilled_storage_keys().len(), 2);
    }

    #[test]
    fn write_buffer_lifecycle() {
        let buffer = WriteBuffer::new();
        let id = tid(10, 99);
        assert_eq!(buffer.len(), 0);
        buffer.begin(id);
        assert!(buffer.contains(&id));
        assert_eq!(buffer.len(), 1);

        buffer
            .with_txn(&id, |txn| txn.buffer_write(Key::new("k"), val("v")))
            .unwrap();
        let taken = buffer.take(&id).unwrap();
        assert_eq!(taken.writes.len(), 1);
        assert!(!buffer.contains(&id));
        assert!(matches!(
            buffer.take(&id),
            Err(AftError::UnknownTransaction(_))
        ));
    }

    #[test]
    fn unknown_transactions_are_rejected() {
        let buffer = WriteBuffer::new();
        let id = tid(1, 1);
        assert!(matches!(
            buffer.with_txn(&id, |_| ()),
            Err(AftError::UnknownTransaction(_))
        ));
    }

    #[test]
    fn versions_read_tracks_read_dependencies() {
        let buffer = WriteBuffer::new();
        let reader = tid(5, 5);
        let writer = tid(3, 3);
        buffer.begin(reader);
        assert!(buffer.versions_read().is_empty());
        buffer
            .with_txn(&reader, |txn| txn.reads.record(Key::new("k"), writer))
            .unwrap();
        assert_eq!(buffer.versions_read(), HashSet::from([writer]));
        buffer.take(&reader).unwrap();
        assert!(
            buffer.versions_read().is_empty(),
            "a finished reader pins nothing"
        );
    }

    #[test]
    fn sharded_table_spreads_and_finds_transactions() {
        let buffer = WriteBuffer::with_shards(4);
        assert_eq!(buffer.shards.len(), 4);
        let ids: Vec<TransactionId> = (0..64).map(|i| tid(i, 0x1000 + i as u128)).collect();
        for id in &ids {
            buffer.begin(*id);
        }
        assert_eq!(buffer.len(), 64);
        for id in &ids {
            assert!(buffer.contains(id));
        }
        // Every shard should hold some of the 64 sequential UUIDs.
        let per_shard: Vec<usize> = (0..4)
            .map(|s| {
                ids.iter()
                    .filter(|id| {
                        let folded = id.uuid.as_u128() as u64 ^ (id.uuid.as_u128() >> 64) as u64;
                        folded as usize % 4 == s
                    })
                    .count()
            })
            .collect();
        assert!(per_shard.iter().all(|&n| n > 0), "shards: {per_shard:?}");
        for id in &ids {
            buffer.take(id).unwrap();
        }
        assert_eq!(buffer.len(), 0);
        // Zero shards clamps to one.
        assert_eq!(WriteBuffer::with_shards(0).shards.len(), 1);
    }

    #[test]
    fn retried_function_can_continue_by_uuid() {
        // A retry carries the same transaction ID; the buffer keys state by
        // UUID so the retried function sees the buffered writes.
        let buffer = WriteBuffer::new();
        let id = tid(7, 42);
        buffer.begin(id);
        buffer
            .with_txn(&id, |txn| txn.buffer_write(Key::new("k"), val("v")))
            .unwrap();
        // The retry presents the same UUID (possibly with the same start
        // timestamp, as IDs are immutable until commit).
        let retry_id = TransactionId::new(7, Uuid::from_u128(42));
        let seen = buffer
            .with_txn(&retry_id, |txn| txn.buffered_value(&Key::new("k")))
            .unwrap();
        assert_eq!(seen.unwrap(), val("v"));
    }
}
