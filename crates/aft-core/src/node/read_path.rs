//! The read path: `Get` (Table 1) and its multi-key form, one path for both.
//!
//! Each key is read in two steps. *Select*, under one lock of the
//! transaction's state: the transaction's own buffered write wins
//! (read-your-writes, §3.5); otherwise Algorithm 1 ([`crate::read`]) picks
//! the committed version, and the choice joins the read set before the next
//! key is selected, so a multi-key read is an Atomic Readset (§3.4). Then
//! *fetch*, from three places in turn:
//!
//! 1. The node's own data cache (`crate::data_cache`, §6.2). A hit costs
//!    nothing.
//! 2. The version's *origin*, the peer that committed it, whose data cache
//!    usually still holds it ([`Peers`]). The select step reads the origin
//!    in the metadata view that chose the version: a peer's dissemination
//!    batch names it with each record. The request asks each origin once,
//!    for all of its misses there, and pays one node-to-node hop
//!    (`rpc_profile`) if it asked any. The origin answers from its data
//!    cache without promoting the entries ([`AftNode::peek_cached`]). A
//!    record committed here or learned from storage (bootstrap, the fault
//!    manager's recovery) has no origin. An origin that is not active, a
//!    link that the phase hook holds this round, or a version the origin no
//!    longer caches answers as a miss. A pull never fails a read.
//! 3. Storage, for the misses left, together as one [`IoEngine::get_all`]:
//!    the request pays that call's latency after the hop. A missed version
//!    is under its own `data/` key, or, where its transaction committed with
//!    one write, inside that transaction's commit record
//!    ([`TransactionRecord::inline`](aft_types::TransactionRecord::inline)):
//!    the read fetches the record once for all of its versions the request
//!    missed, and each value is a slice of the fetched blob. A version
//!    deleted under a long reader fails the read with
//!    [`AftError::NoValidVersion`], and the client retries (§5.2.1).
//!
//! A pulled or fetched payload fills the data cache the same way, insert
//! then look (`fill_data_cache`). Versions are immutable, so a value pulled
//! from the origin is the one storage holds under that version, and nothing
//! needs invalidating. No lock of the transaction, the metadata or a cache
//! stripe is held while a peer is asked.
//!
//! [`IoEngine::get_all`]: aft_storage::io::IoEngine::get_all
//! [`Peers`]: super::Peers

use std::collections::HashMap;

use aft_types::codec::inline_values;
use aft_types::{AftError, AftResult, Key, KeyVersion, TransactionId, TransactionRecord, Value};

use super::{AftNode, Origin};
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
    /// The peer that committed the version, asked before storage.
    origin: Option<Origin>,
}

/// What the select step of a read decided for one key.
enum Selected {
    /// The transaction's own buffered write.
    Buffered(Value),
    /// No visible version (the NULL version of §3.2).
    Null,
    /// The committed version Algorithm 1 chose, whether its record carries
    /// its value and which peer committed it, looked up in the metadata view
    /// that chose it: a sweep may drop the record before the fetch.
    Version {
        version: TransactionId,
        inline: bool,
        origin: Option<Origin>,
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
    /// payloads that the data cache does not hold. Each version's origin is
    /// asked first ([`Peers`](super::Peers)), once per origin with all of its
    /// versions. The storage keys of the versions no origin answered go out
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
            let (version, inline, origin) = match self.select(txid, key)? {
                Selected::Buffered(value) => {
                    out[at] = Some((value, None));
                    continue;
                }
                Selected::Null => continue,
                Selected::Version {
                    version,
                    inline,
                    origin,
                } => (version, inline, origin),
            };
            if let Some(value) = self.data_cache.get(key, &version) {
                self.stats.record_read_from_data_cache();
                out[at] = Some((value, Some(version)));
            } else {
                misses.push(Miss {
                    at,
                    version,
                    inline,
                    origin,
                });
            }
        }
        Ok((out, misses))
    }

    /// Completes `out` with the values of every miss of one read: those the
    /// versions' origins answer, then the rest in one storage read.
    pub(super) fn fetch(
        &self,
        txid: &TransactionId,
        keys: &[Key],
        mut out: Vec<Option<Read>>,
        misses: Vec<Miss>,
    ) -> AftResult<Vec<Option<Read>>> {
        let misses = self.pull(keys, &mut out, misses);
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
                    let origin = view.origin(&version);
                    txn.reads.record(key.clone(), version);
                    Ok(Selected::Version {
                        version,
                        inline,
                        origin,
                    })
                }
            }
        })?
    }

    /// Asks each missed version's origin for it, once per origin with all of
    /// the request's versions there, and completes `out` with what the
    /// origins answer; returns the misses left for storage. A version with
    /// no origin, or committed here, is left; so is every version of an
    /// origin that cannot be asked or no longer caches it. The request pays
    /// one node-to-node hop if any origin was asked. No lock is held.
    fn pull(&self, keys: &[Key], out: &mut [Option<Read>], misses: Vec<Miss>) -> Vec<Miss> {
        // The origins in the order the request first misses on them, each
        // with the indices of its misses.
        let mut asks: Vec<(Origin, Vec<usize>)> = Vec::new();
        for (i, miss) in misses.iter().enumerate() {
            let Some(origin) = miss.origin.filter(|origin| *origin != self.origin) else {
                continue;
            };
            match asks.iter_mut().find(|(o, _)| *o == origin) {
                Some((_, at)) => at.push(i),
                None => asks.push((origin, vec![i])),
            }
        }
        let peers = match self.peers() {
            Some(peers) if !asks.is_empty() => peers,
            _ => return misses,
        };
        let mut pulled: Vec<Option<Value>> = vec![None; misses.len()];
        let mut asked = false;
        for (origin, at) in asks {
            let wanted: Vec<(Key, TransactionId)> = at
                .iter()
                .map(|&i| (keys[misses[i].at].clone(), misses[i].version))
                .collect();
            let Some(answers) = peers.pull(self, origin, &wanted) else {
                continue;
            };
            asked = true;
            for (i, answer) in at.into_iter().zip(answers) {
                pulled[i] = answer;
            }
        }
        if asked {
            self.rpc();
        }
        let mut left = Vec::new();
        for (miss, value) in misses.into_iter().zip(pulled) {
            let Some(value) = value else {
                left.push(miss);
                continue;
            };
            let key = &keys[miss.at];
            self.stats.record_read_from_peer();
            self.fill_data_cache(key, miss.version, &value);
            out[miss.at] = Some((value, Some(miss.version)));
        }
        left
    }

    /// The origin's side of a pull ([`Peers::pull`](super::Peers::pull)):
    /// the value this node's data cache holds for each key's version, in
    /// order, looked up without promoting the entries. A version it never
    /// cached, evicted or swept is `None`.
    pub fn peek_cached(&self, wanted: &[(Key, TransactionId)]) -> Vec<Option<Value>> {
        wanted
            .iter()
            .map(|(key, version)| self.data_cache.peek(key, version))
            .collect()
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

    /// Caches a payload a read just pulled from the version's origin or
    /// fetched from storage. The read set names the version from its
    /// selection on, but a local GC sweep whose snapshot of the read sets
    /// predates that record — or one that ran after the reading transaction
    /// ended — may have dropped the version (with its record, or retired
    /// alone) and evicted a cache entry that was not there yet; an entry
    /// inserted after that could never be selected again nor swept. Hence
    /// insert, then look: if the version is gone the entry goes too, and a
    /// sweep that drops the version after the look evicts the entry itself.
    pub(super) fn fill_data_cache(&self, key: &Key, version: TransactionId, value: &Value) {
        self.data_cache.insert(key.clone(), version, value.clone());
        if !self.metadata.view().holds(key, &version) {
            self.data_cache.evict(key, &version);
        }
    }
}
