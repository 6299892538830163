//! The read path: `Get` (Table 1) and its multi-key form, one path for both.
//!
//! Each key is read in two steps. *Select*, under one lock of the
//! transaction's state: the transaction's own buffered write wins
//! (read-your-writes, §3.5); otherwise Algorithm 1 ([`crate::read`]) picks
//! the committed version, and the choice joins the read set before the next
//! key is selected, so a multi-key read is an Atomic Readset (§3.4). Then
//! *fetch*: a data-cache hit costs no storage call, and every miss of one
//! request goes to storage together, as one [`IoEngine::get_all`]: a read
//! charges its caller that call's latency and nothing else. A fetched
//! payload fills the data cache (`crate::data_cache`, §6.2); a version
//! deleted under a long reader fails the read with
//! [`AftError::NoValidVersion`], and the client retries (§5.2.1).
//!
//! The data cache holds more than what this node committed or fetched: a
//! peer's write of at most 512 bytes arrives with its commit record in the
//! dissemination batch that makes it visible here
//! ([`AftNode::cache_pushed`]), so the first read of it is a cache hit, not
//! a storage `Get`.
//!
//! [`IoEngine::get_all`]: aft_storage::io::IoEngine::get_all

use aft_types::{AftError, AftResult, Key, KeyVersion, TransactionId, Value};

use super::AftNode;
use crate::read::{select_version, VersionChoice};

/// One key's answer: its value, with the committed version it came from
/// (`None` for the transaction's own write).
type Read = (Value, Option<TransactionId>);

/// What the select step of a read decided for one key.
enum Selected {
    /// The transaction's own buffered write.
    Buffered(Value),
    /// No visible version (the NULL version of §3.2).
    Null,
    /// The committed version Algorithm 1 chose.
    Version(TransactionId),
}

impl AftNode {
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
        let mut read = self.read(txid, std::slice::from_ref(key))?;
        Ok(read.pop().expect("one key, one answer"))
    }

    /// Reads several keys in one request; its data-cache misses go to
    /// storage together, as one read.
    pub fn get_all(&self, txid: &TransactionId, keys: &[Key]) -> AftResult<Vec<Option<Value>>> {
        self.rpc();
        let read = self.read(txid, keys)?;
        Ok(read
            .into_iter()
            .map(|got| got.map(|(value, _)| value))
            .collect())
    }

    /// The read path behind [`get`](AftNode::get),
    /// [`get_versioned`](AftNode::get_versioned) and
    /// [`get_all`](AftNode::get_all): each key's value with the committed
    /// version it came from (`None` for the transaction's own write).
    ///
    /// Algorithm 1 stays sequential: each key's version selection must see
    /// the versions already chosen for the keys before it, so the combined
    /// read set remains an Atomic Readset. Each choice is recorded in the
    /// read set as it is made, before any payload is fetched. Selection is
    /// in-memory work; the expensive part is fetching the chosen versions'
    /// payloads that the data cache does not hold. Those storage keys go out
    /// as one [`IoEngine::get_all`]: one `Get` for one key. A service with a
    /// multi-key read call serves several in one call (memory) or one per
    /// 100 keys (DynamoDB's `BatchGetItem`). One without it (S3, Redis) gets
    /// one `Get` per miss, issued together. Either way the round trips
    /// overlap instead of summing.
    ///
    /// If a chosen version is gone by the time it is fetched (global GC
    /// racing a long transaction, §5.2.1), the whole call returns
    /// [`AftError::NoValidVersion`] and the client aborts. Until then, the
    /// extra read-set entries only make later selections *more*
    /// conservative, never unsound.
    fn read(&self, txid: &TransactionId, keys: &[Key]) -> AftResult<Vec<Option<Read>>> {
        let mut out: Vec<Option<Read>> = vec![None; keys.len()];
        // (output index, chosen version) pairs that need a storage fetch.
        let mut fetches: Vec<(usize, TransactionId)> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let target = match self.select(txid, key)? {
                Selected::Buffered(value) => {
                    out[i] = Some((value, None));
                    continue;
                }
                Selected::Null => continue,
                Selected::Version(tid) => tid,
            };
            if let Some(value) = self.data_cache.get(key, &target) {
                self.stats.record_read_from_data_cache();
                out[i] = Some((value, Some(target)));
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
        let values = self.io.get_all(storage_keys)?;
        for ((i, target), value) in fetches.into_iter().zip(values) {
            out[i] = Some((self.fetched(txid, &keys[i], target, value)?, Some(target)));
        }
        Ok(out)
    }

    /// The *select* step of a read, under one lock of the transaction's
    /// state: read-your-writes (§3.5) — a buffered write wins and bypasses
    /// Algorithm 1 — then Algorithm 1 over the local committed-transaction
    /// metadata, whose choice joins the read set so the next key's selection
    /// sees it.
    fn select(&self, txid: &TransactionId, key: &Key) -> AftResult<Selected> {
        self.stats.record_read();
        self.buffer.with_txn(txid, |txn| {
            if let Some(value) = txn.buffered_value(key) {
                self.stats.record_read_from_write_buffer();
                return Ok(Selected::Buffered(value));
            }
            match select_version(key, &txn.reads, &self.metadata) {
                VersionChoice::NotFound => Ok(Selected::Null),
                VersionChoice::NoValidVersion => Err(self.no_valid_version(txid, key)),
                VersionChoice::Version(tid) => {
                    txn.reads.record(key.clone(), tid);
                    Ok(Selected::Version(tid))
                }
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

    /// Caches a payload a read just fetched from storage. The read set names
    /// the version from its selection on, but a local GC sweep whose
    /// snapshot of the read sets predates that record — or one that ran
    /// after the reading transaction ended — may have dropped the version
    /// (with its record, or retired alone) and evicted a cache entry that
    /// was not there yet; an entry inserted after that could never be
    /// selected again nor swept. Hence insert, then look: if the version is
    /// gone the entry goes too, and a sweep that drops the version after the
    /// look evicts the entry itself. A payload a peer pushed with its commit record
    /// ([`AftNode::cache_pushed`]) enters the same way.
    pub(super) fn fill_data_cache(&self, key: &Key, version: TransactionId, value: &Value) {
        self.data_cache.insert(key.clone(), version, value.clone());
        if !self.metadata.view().holds(key, &version) {
            self.data_cache.evict(key, &version);
        }
    }
}
