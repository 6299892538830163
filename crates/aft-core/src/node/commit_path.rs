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
//! call and a commit is one round trip. This departs from the paper's
//! implementation on purpose, as the Redis row's one-slot batching already
//! does; every other row keeps the two round trips.
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
use aft_types::codec::encode_keyed_commit_record;
use aft_types::{
    AftResult, Clock, CommitPhase, Key, KeyVersion, Timestamp, TransactionId, TransactionRecord,
    Uuid, Value,
};

use super::AftNode;

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
pub(super) struct Undrained {
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
            .copied()
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
        if let Err(e) = flushed {
            self.undrained.lock().fail(timestamp, record_sent);
            return Err(e);
        }

        // 3. Only now make the transaction visible to other requests.
        let record = Arc::new(record);
        self.metadata.insert(Arc::clone(&record));
        for (key, value) in txn.writes {
            self.data_cache.insert(key, final_id, value);
        }
        self.undrained.lock().finish(timestamp, record);
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
/// without the data, and no failure can leave it behind alone.
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
    let keys: Vec<&str> = data
        .iter()
        .chain([&record])
        .map(|(key, _)| key.as_str())
        .collect();
    let one_call = !data.is_empty() && io.storage().writes_atomically(&keys);
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
