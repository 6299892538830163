//! The read path: `Get` (Table 1) and its multi-key form, one path for both.
//!
//! Each key is read in two steps. *Select*, under one lock of the
//! transaction's state: the transaction's own buffered write wins
//! (read-your-writes, §3.5); otherwise Algorithm 1 ([`crate::read`]) picks
//! the committed version, and the choice joins the read set before the next
//! key is selected, so a multi-key read is an Atomic Readset (§3.4). Then
//! *fetch*: a data-cache hit costs no storage call, and every miss of one
//! request goes to storage together, as one [`IoEngine::get_all`]: a read
//! charges its caller that call's latency and nothing else. A missed version
//! is under its own `data/` key, or, where its transaction committed with one
//! write, inside that transaction's commit record
//! ([`TransactionRecord::inline`](aft_types::TransactionRecord::inline)): the
//! read fetches the record once for all of its versions the request missed,
//! and each value is a slice of the fetched blob. A fetched
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

use std::collections::HashMap;

use aft_types::codec::inline_values;
use aft_types::{AftError, AftResult, Key, KeyVersion, TransactionId, TransactionRecord, Value};

use super::AftNode;
use crate::read::{select_version_in, VersionChoice};

/// One key's answer: its value, with the committed version it came from
/// (`None` for the transaction's own write).
type Read = (Value, Option<TransactionId>);

/// A selected version the data cache did not hold: the read fetches it.
pub(super) struct Miss {
    /// The key's index among the request's keys.
    at: usize,
    version: TransactionId,
    /// Whether the version's value is inside its commit record
    /// ([`TransactionRecord::inline`]) rather than under its own `data/` key.
    inline: bool,
}

/// What the select step of a read decided for one key.
enum Selected {
    /// The transaction's own buffered write.
    Buffered(Value),
    /// No visible version (the NULL version of §3.2).
    Null,
    /// The committed version Algorithm 1 chose, and whether its record
    /// carries its value, looked up in the metadata view that chose it: a
    /// sweep may drop the record before the fetch.
    Version {
        version: TransactionId,
        inline: bool,
    },
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
    /// as one [`IoEngine::get_all`]: one `Get` for one key. A version of an
    /// inline record has no `data/` key: its miss fetches the record, once
    /// for all of the record's keys the request missed, decodes it once and
    /// slices the value out of it. Which of the two a version is, the select
    /// step reads in the metadata view that chose the version: a local sweep
    /// may drop the record before the fetch, and a lookup then would send
    /// the read to a `data/` key the version never had. A service with a
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
        let (out, misses) = self.select_all(txid, keys)?;
        self.fetch(txid, keys, out, misses)
    }

    /// Selects a version for each of `keys` in turn and looks each chosen
    /// version up in the data cache: the answers so far, and the misses.
    pub(super) fn select_all(
        &self,
        txid: &TransactionId,
        keys: &[Key],
    ) -> AftResult<(Vec<Option<Read>>, Vec<Miss>)> {
        let mut out: Vec<Option<Read>> = vec![None; keys.len()];
        let mut misses = Vec::new();
        for (at, key) in keys.iter().enumerate() {
            let (version, inline) = match self.select(txid, key)? {
                Selected::Buffered(value) => {
                    out[at] = Some((value, None));
                    continue;
                }
                Selected::Null => continue,
                Selected::Version { version, inline } => (version, inline),
            };
            if let Some(value) = self.data_cache.get(key, &version) {
                self.stats.record_read_from_data_cache();
                out[at] = Some((value, Some(version)));
            } else {
                misses.push(Miss {
                    at,
                    version,
                    inline,
                });
            }
        }
        Ok((out, misses))
    }

    /// Fetches every miss of one read in one storage read and completes
    /// `out` with their values.
    pub(super) fn fetch(
        &self,
        txid: &TransactionId,
        keys: &[Key],
        mut out: Vec<Option<Read>>,
        misses: Vec<Miss>,
    ) -> AftResult<Vec<Option<Read>>> {
        if misses.is_empty() {
            return Ok(out);
        }
        // Each version's data key, or the inline record that carries its
        // value, once however many of its keys missed.
        let mut storage_keys: Vec<String> = Vec::with_capacity(misses.len());
        let mut records: HashMap<TransactionId, usize> = HashMap::new();
        let mut sources: Vec<usize> = Vec::with_capacity(misses.len());
        for miss in &misses {
            let source = if miss.inline {
                *records.entry(miss.version).or_insert_with(|| {
                    storage_keys.push(TransactionRecord::storage_key_for(&miss.version));
                    storage_keys.len() - 1
                })
            } else {
                let key = keys[miss.at].clone();
                storage_keys.push(KeyVersion::new(key, miss.version).storage_key());
                storage_keys.len() - 1
            };
            sources.push(source);
        }
        let fetched = self.io.get_all(storage_keys)?;
        // Each inline record fetched, decoded once: its values, slices of
        // its blob.
        let mut carried: HashMap<usize, Vec<(&str, Value)>> = HashMap::new();
        for &source in records.values() {
            if let Some(blob) = &fetched[source] {
                carried.insert(source, inline_values(blob)?.collect::<AftResult<_>>()?);
            }
        }
        for (miss, source) in misses.into_iter().zip(sources) {
            let key = &keys[miss.at];
            let value = if miss.inline {
                let values = carried.get(&source);
                let found =
                    values.and_then(|values| values.iter().find(|(k, _)| *k == key.as_str()));
                found.map(|(_, value)| value.clone())
            } else {
                fetched[source].clone()
            };
            let value = self.fetched(txid, key, miss.version, value)?;
            out[miss.at] = Some((value, Some(miss.version)));
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
            let view = self.metadata.view();
            match select_version_in(key, &txn.reads, &view) {
                VersionChoice::NotFound => Ok(Selected::Null),
                VersionChoice::NoValidVersion => Err(self.no_valid_version(txid, key)),
                VersionChoice::Version(version) => {
                    let inline = view.record(&version).is_some_and(|record| record.inline);
                    txn.reads.record(key.clone(), version);
                    Ok(Selected::Version { version, inline })
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
