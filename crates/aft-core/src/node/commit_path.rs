//! The commit path: a transaction's life on a node, `StartTransaction`,
//! `Put`, `CommitTransaction` and `AbortTransaction` (Table 1), and the
//! commit flush a commit ends in.
//!
//! A `Put` only buffers, but for the write buffer's spill
//! ([`crate::write_buffer`], §3.3).
//!
//! The paper's commit protocol issues, per transaction, one batched write for
//! the transaction's key versions and one write for its commit record (§3.3),
//! and the shim must add no round trip of its own. `flush` is that
//! sequence — the data items submitted concurrently through
//! [`aft_storage::io::IoEngine`], a **barrier** on their completions, then
//! the record — and every commit on a node goes through it, on the
//! committing thread, whether or not a phase hook is asked. Batching
//! (§6.1.1) is *within* one transaction's writes: `IoEngine::put_all` uses
//! the backend's batch API where it has one. The record is the keyed blob of
//! [`aft_types::codec::encode_keyed_commit_record`], stored under
//! `commit/{ts:020}_{uuid}`.
//!
//! §3.3 orders the two writes so that no record ever names missing data. A
//! store whose one call lands all-or-nothing gives that guarantee by itself,
//! so where the data and the record fit in one such call (a Redis `MSET`
//! within the transaction's hash slot), the record rides last in the data's
//! call and a commit is one round trip. A record that holds the data gives
//! it by construction: a transaction that spilled nothing and whose record,
//! with each key's value after it, encodes to at most [`INLINE_BYTES`]
//! commits with that one write
//! ([`aft_types::codec::encode_inline_commit_record`]) and has no `data/`
//! keys; the data cache holds slices of the record's one buffer. Both depart
//! from §3.3's two writes, where the data keys land first and the record
//! names them (from memory of the paper), as Beldi keeps a step's log entry
//! in the item that holds its data (also from memory). Every other commit
//! keeps the two round trips.
//!
//! Nothing coordinates the flushes of different transactions, and nothing
//! needs to: each key version lands at its own storage key and commit
//! records of concurrent transactions are independent (§3.3). A commit's
//! storage operations are therefore a function of the transaction alone,
//! a second commit's data write overlaps the first's record append, and a
//! transaction becomes visible (in [`AftNode::commit`], after `flush`
//! returns) only once its own commit record is durable. The flush has no
//! setting, and a commit charges its caller the flush's storage latency and
//! nothing else: the caller times it with
//! [`measure_cost`](aft_storage::latency::measure_cost).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use aft_storage::io::{IoEngine, StorageRequest};
use aft_types::codec::{
    encode_inline_commit_record, encode_keyed_commit_record, encoded_inline_commit_record_len,
    inline_values,
};
use aft_types::{
    AftResult, Clock, CommitPhase, Key, KeyVersion, Timestamp, TransactionId, TransactionRecord,
    Uuid, Value,
};

use super::AftNode;

/// The largest commit record that carries its transaction's values: a
/// transaction that spilled nothing and whose inline record encodes to at
/// most this many bytes commits with that one write, and has no `data/`
/// keys. Two 256 B writes fit; two 1 KiB writes do not.
///
/// Raising it is blocked on storage, not on the commit path. An inline
/// record stays stored while any of its versions is its key's newest, and
/// its overwritten values stay with it. At 256 KiB, with the data cache
/// charging a slice its own length, the benchmark's `svc-large` workload
/// went from 2.03 to 1.02 storage calls a transaction, but its store held
/// 107 MiB where it held 65.5 and its peak RSS rose a third, past the
/// benchmark's 10% bound. Rewriting a record once 3 of its 4 values are
/// dead would hold 75 MiB but write 16% more bytes, past the write
/// amplification bound. What would unblock it is a way to free an inline
/// record's dead values without rewriting its live ones.
pub const INLINE_BYTES: usize = 1024;

/// A node's commit-flush counters, in the shape `benchmark/` reads them.
/// Every commit is its own flush, so the three are one count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Commits that reached the flush.
    pub submitted: u64,
    /// Storage flushes performed: one per commit.
    pub flushes: u64,
    /// Most commits in one flush: 1 once anything has committed.
    pub largest_batch: u64,
}

impl BatchStats {
    /// The counters of a node that has flushed `commits` commits.
    pub(crate) fn of(commits: u64) -> Self {
        BatchStats {
            submitted: commits,
            flushes: commits,
            largest_batch: commits.min(1),
        }
    }
}

/// What one drain of a node hands the multicast and the fault manager (§4,
/// §4.2).
#[derive(Debug)]
pub struct CommitDrain {
    /// The commits finished on the node since the last drain.
    pub records: Vec<Arc<TransactionRecord>>,
    /// The node's commit floor: the smallest timestamp it gave a commit that
    /// is in no drain — one still under way, or one that failed after
    /// sending its record since the node last reported — or `None`. The
    /// fault manager's next scan reaches back to it. It recovers a failed
    /// one there, whose record may be durable with nobody to multicast it.
    /// A commit still under way is left to this node while it is active
    /// ([`AftNode::holds_for_drain`]); the floor bounds where its record is
    /// if the node fails before a drain takes it. A commit takes its
    /// timestamp under the drain's lock, so a commit this floor misses
    /// starts after the drain and is in a later report.
    pub floor: Option<Timestamp>,
}

/// A node's finished commits that no drain has handed out yet, and what it
/// has to report to the fault manager.
#[derive(Debug, Default)]
pub(super) struct Undrained {
    /// Finished commits, for the next multicast.
    records: Vec<Arc<TransactionRecord>>,
    /// The commits under way, each by the id it commits under.
    committing: Vec<TransactionId>,
    /// The oldest commit that failed after sending its record since the last
    /// report.
    failed: Option<Timestamp>,
    /// The oldest commit that finished since the last report: what a report
    /// that leaves `records` to a drain must still point at.
    finished: Option<Timestamp>,
}

impl Undrained {
    /// Takes a timestamp from `clock` for the commit of `uuid`, now under
    /// way, and returns the id it commits under.
    fn begin(&mut self, clock: &dyn Clock, uuid: Uuid) -> TransactionId {
        let id = TransactionId::new(clock.now(), uuid);
        self.committing.push(id);
        id
    }

    /// The commit `id` finished with `record`.
    fn finish(&mut self, id: TransactionId, record: Arc<TransactionRecord>) {
        self.end(id);
        self.records.push(record);
        lower(&mut self.finished, id.timestamp);
    }

    /// The commit `id` failed, after sending its record or before.
    fn fail(&mut self, id: TransactionId, record_sent: bool) {
        self.end(id);
        if record_sent {
            lower(&mut self.failed, id.timestamp);
        }
    }

    fn end(&mut self, id: TransactionId) {
        let at = self
            .committing
            .iter()
            .position(|&c| c == id)
            .expect("an ending commit began under this lock");
        self.committing.swap_remove(at);
    }

    /// Whether a drain will still hand out the commit `id`: it is under way,
    /// or it finished and waits in `records`.
    pub(super) fn holds(&self, id: &TransactionId) -> bool {
        self.committing.contains(id) || self.records.iter().any(|record| record.id == *id)
    }

    /// What a drain hands out: the finished commits, and a report that
    /// points at none of them.
    pub(super) fn drain(&mut self) -> CommitDrain {
        self.finished = None;
        CommitDrain {
            floor: self.report(),
            records: std::mem::take(&mut self.records),
        }
    }

    /// A report that leaves the records to a drain, so it points at the
    /// oldest commit that finished since the last report too.
    pub(super) fn poll(&mut self) -> Option<Timestamp> {
        let finished = self.finished.take();
        self.report().into_iter().chain(finished).min()
    }

    /// The floor of one report: the commits under way and the failures not
    /// yet reported, which are reported now.
    fn report(&mut self) -> Option<Timestamp> {
        self.committing
            .iter()
            .map(|id| id.timestamp)
            .chain(self.failed.take())
            .min()
    }
}

fn lower(mark: &mut Option<Timestamp>, timestamp: Timestamp) {
    *mark = Some(mark.map_or(timestamp, |t| t.min(timestamp)));
}

impl AftNode {
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
        id
    }

    /// Re-registers a transaction ID on this node, used when a retried
    /// function continues a transaction whose state was lost (§3.3.1). If the
    /// transaction is still in flight this is a no-op.
    pub fn ensure_transaction(&self, id: TransactionId) {
        if !self.buffer.contains(&id) {
            self.buffer.begin(id);
        }
    }

    /// Commit-flush counters: every commit that reached storage is one
    /// flush of its own.
    pub fn commit_batch_stats(&self) -> BatchStats {
        BatchStats::of(self.commit_flushes.load(Ordering::Relaxed))
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
        let final_id = self.undrained.lock().begin(self.clock.as_ref(), txid.uuid);
        txn.id = final_id;

        // 1. The record, and the key versions (one storage key per version,
        //    so concurrent committers never interfere) that no spill has
        //    made durable already. A small transaction that spilled nothing
        //    has none: its record carries its values.
        let keys = txn.writes.keys().cloned();
        let inline = !txn.has_spilled()
            && !txn.writes.is_empty()
            && encoded_inline_commit_record_len(&txn.writes) <= INLINE_BYTES;
        let (record, blob, items) = if inline {
            let record = TransactionRecord::new_inline(final_id, keys);
            (record, encode_inline_commit_record(&txn.writes), Vec::new())
        } else {
            let record = TransactionRecord::new(final_id, keys);
            let blob = encode_keyed_commit_record(&record);
            (record, blob, txn.storage_items())
        };

        // 2. Persist the data and then the commit record (§3.3's flush: data
        //    puts overlapped, a barrier, then the record; one call where the
        //    store applies it all-or-nothing), on this thread.
        //    The phase hook is asked before every phase: its error is the
        //    node's crash, leaving exactly the storage state the protocol had
        //    reached by that point. A flush that fails after sending the
        //    record may have left it durable, so the node reports it to the
        //    fault manager (§4.2).
        let record_item = (record.storage_key(), blob.clone());
        self.commit_flushes.fetch_add(1, Ordering::Relaxed);
        let mut record_sent = false;
        let flushed = flush(&self.io, items, record_item, |phase| {
            self.at(phase)?;
            record_sent |= phase == CommitPhase::BeforeRecordAppend;
            Ok(())
        });
        if let Err(e) = flushed {
            self.undrained.lock().fail(final_id, record_sent);
            return Err(e);
        }

        // 3. Only now make the transaction visible to other requests. An
        //    inline record's values are cached as slices of its blob, the
        //    buffer storage holds.
        let record = Arc::new(record);
        self.metadata.insert(Arc::clone(&record));
        if inline {
            let values = inline_values(&blob).expect("a record encoded here");
            for ((key, _), entry) in txn.writes.into_iter().zip(values) {
                let (_, value) = entry.expect("a record encoded here");
                self.data_cache.insert(key, final_id, value);
            }
        } else {
            for (key, value) in txn.writes {
                self.data_cache.insert(key, final_id, value);
            }
        }
        self.undrained.lock().finish(final_id, record);
        self.stats.record_committed();
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
            self.io.execute(StorageRequest::DeleteBatch(spilled))?;
        }
        Ok(())
    }
}

/// The §3.3 commit flush of one transaction: every data item is submitted
/// concurrently, the flush **barriers** on all their completions (all data
/// durable first), and only then is the commit record written. Where the
/// store writes the data and the record in one all-or-nothing call
/// ([`StorageEngine::writes_atomically`](aft_storage::StorageEngine::writes_atomically)),
/// the record goes last in the data's call instead: no reader can see it
/// without the data, and no failure can leave it behind alone. An inline
/// record has no data: the flush is its one write, after both data phases.
///
/// `before` is called ahead of each [`CommitPhase`] and its error abandons
/// the flush at exactly that point, leaving in storage what the protocol had
/// reached — the node's crash when its phase hook kills it there. On the
/// one-call path both data phases come before the call, so a crash at either
/// leaves storage untouched.
/// It charges the data barrier's overlapped latency plus the record write's,
/// or the one call's.
pub(crate) fn flush(
    io: &IoEngine,
    mut data: Vec<(String, Value)>,
    record: (String, Value),
    mut before: impl FnMut(CommitPhase) -> AftResult<()>,
) -> AftResult<()> {
    before(CommitPhase::BeforeDataPut)?;
    let one_call = !data.is_empty() && {
        let keys: Vec<&str> = data
            .iter()
            .chain([&record])
            .map(|(key, _)| key.as_str())
            .collect();
        io.storage().writes_atomically(&keys)
    };
    if one_call {
        before(CommitPhase::BeforeRecordAppend)?;
        data.push(record);
        io.put_all(data)?;
    } else {
        io.put_all(data)?;
        before(CommitPhase::BeforeRecordAppend)?;
        io.put_all(vec![record])?;
    }
    before(CommitPhase::BeforeBroadcast)
}
