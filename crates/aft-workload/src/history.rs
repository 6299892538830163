//! A client-side history and its checker: the test oracle that grades AFT
//! from what its clients saw, never from AFT's own metadata.
//!
//! A [`History`] is a list of [`Attempt`]s in the shape of a Maelstrom
//! `txn`: `r k` reads with the bytes and version read, `w k v` writes, an
//! optional request id and an [`Outcome`]. A [`Recorder`] wraps any
//! [`AftApi`], forwards every call unchanged and appends what it returned,
//! so a run behind it makes exactly the calls it made before.
//!
//! [`check`] grades a history, plus a [`FinalRead`] of every written key
//! taken after a quiet maintenance round, into a [`Verdict`]. Write sets
//! come from the history, so a bug in the metadata AFT consults is one this
//! checker can see. Its classes:
//!
//! * **fractured read** (Definition 1): an attempt read `k` at writer `Ti`
//!   and `l` at a version older than `Ti`, where `Ti` wrote `l`. A read
//!   that found `l` missing holds no version: like AFT's Algorithm 1, which
//!   keeps no bound for it, Definition 1's read set leaves it out;
//! * **read-your-writes** (§3.5): a read of a key the attempt had written
//!   did not return its last written bytes;
//! * **unknown or aborted writer**: a read names a transaction the history
//!   does not hold, or one that never tried to commit;
//! * **wrong bytes**: the bytes read are not what the named writer wrote to
//!   that key;
//! * **version mismatch**: a read's version is not its writer's acked id;
//! * **lost acked write**: a key's final version is older than its newest
//!   acked write ([`model`]: SNIPPETS.md §2's `KV.apply` over the acked
//!   writes by final id), or names no acked or unknown-outcome writer of
//!   those bytes to the key;
//! * **duplicate request**: more than one attempt of one request id was
//!   acked — a platform ran the request twice (Jangda et al.).
//!
//! `get_all` reads carry no version, so they are graded by bytes alone:
//! against the attempt's own writes, else against what some writer that
//! tried to commit wrote to the key.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use aft_core::api::{AftApi, CommitOutcome};
use aft_types::{AftResult, Key, TransactionId, Uuid, Value};
use parking_lot::Mutex;

/// What a read returned: the bytes, and the committed writer, which is
/// `None` for the attempt's own writes and for `get_all`.
pub type Read = Option<(Value, Option<TransactionId>)>;

/// One micro-op of an attempt, in the order its call returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MicroOp {
    /// `r k`: what a read of the key returned.
    Read(Key, Read),
    /// `w k v`: a buffered write.
    Write(Key, Value),
}

/// How an attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The commit was acknowledged with this final id.
    Acked(TransactionId),
    /// No commit was tried: aborted or abandoned.
    Aborted,
    /// The commit returned an error: it may or may not have landed.
    Unknown,
}

/// One attempt: a transaction from its `begin` to its end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attempt {
    /// The id `begin` returned.
    pub txid: TransactionId,
    /// The logical request this attempt ran, when the caller names one.
    pub request: Option<u64>,
    /// Reads and writes, in order.
    pub ops: Vec<MicroOp>,
    /// How it ended.
    pub outcome: Outcome,
}

impl Attempt {
    /// The acked final id, if the commit was acknowledged.
    pub fn acked(&self) -> Option<TransactionId> {
        match self.outcome {
            Outcome::Acked(id) => Some(id),
            _ => None,
        }
    }

    /// Whether a commit was tried: its writes may be visible.
    fn tried(&self) -> bool {
        self.outcome != Outcome::Aborted
    }

    /// The (key, bytes) pairs written, in order.
    fn writes(&self) -> impl DoubleEndedIterator<Item = (&Key, &Value)> {
        self.ops.iter().filter_map(|op| match op {
            MicroOp::Write(key, value) => Some((key, value)),
            MicroOp::Read(..) => None,
        })
    }

    /// The last bytes this attempt wrote to `key`.
    fn wrote(&self, key: &Key) -> Option<&Value> {
        self.writes().rev().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// A history shared by any number of [`Recorder`]s, on any threads.
#[derive(Debug, Default)]
pub struct History(Mutex<Vec<Attempt>>);

impl History {
    /// An empty history, ready to share.
    pub fn new() -> Arc<Self> {
        Arc::default()
    }

    /// A copy of every attempt so far, in `begin` order.
    pub fn attempts(&self) -> Vec<Attempt> {
        self.0.lock().clone()
    }

    /// Applies `f` to `txid`'s attempt, opening one if `begin` was not seen.
    /// Open attempts sit near the end, so the search is short.
    pub(crate) fn update(
        &self,
        txid: &TransactionId,
        request: Option<u64>,
        f: impl FnOnce(&mut Attempt),
    ) {
        let mut attempts = self.0.lock();
        let at = attempts.iter().rposition(|a| a.txid == *txid);
        let at = at.unwrap_or_else(|| {
            attempts.push(Attempt {
                txid: *txid,
                request,
                ops: Vec::new(),
                outcome: Outcome::Aborted,
            });
            attempts.len() - 1
        });
        f(&mut attempts[at]);
    }
}

/// An [`AftApi`] decorator that records every call's result in a
/// [`History`], as attempts of one optional request id.
pub struct Recorder {
    inner: Arc<dyn AftApi>,
    history: Arc<History>,
    request: Option<u64>,
}

impl Recorder {
    /// Records `inner`'s calls into `history`, as attempts of `request`.
    pub fn wrap(
        inner: Arc<dyn AftApi>,
        history: Arc<History>,
        request: Option<u64>,
    ) -> Arc<dyn AftApi> {
        Arc::new(Recorder {
            inner,
            history,
            request,
        })
    }

    fn update(&self, txid: &TransactionId, f: impl FnOnce(&mut Attempt)) {
        self.history.update(txid, self.request, f);
    }
}

impl AftApi for Recorder {
    fn api_label(&self) -> &str {
        self.inner.api_label()
    }

    fn begin(&self) -> AftResult<TransactionId> {
        let txid = self.inner.begin()?;
        self.update(&txid, |_| {});
        Ok(txid)
    }

    fn get_versioned(&self, txid: &TransactionId, key: &Key) -> AftResult<Read> {
        let read = self.inner.get_versioned(txid, key)?;
        let op = MicroOp::Read(key.clone(), read.clone());
        self.update(txid, |attempt| attempt.ops.push(op));
        Ok(read)
    }

    fn get_all(&self, txid: &TransactionId, keys: &[Key]) -> AftResult<Vec<Option<Value>>> {
        let values = self.inner.get_all(txid, keys)?;
        let read = |(key, value): (&Key, &Option<Value>)| {
            MicroOp::Read(key.clone(), value.clone().map(|v| (v, None)))
        };
        let ops = keys.iter().zip(&values).map(read);
        self.update(txid, |attempt| attempt.ops.extend(ops));
        Ok(values)
    }

    fn put(&self, txid: &TransactionId, key: Key, value: Value) -> AftResult<()> {
        self.inner.put(txid, key.clone(), value.clone())?;
        self.update(txid, |attempt| attempt.ops.push(MicroOp::Write(key, value)));
        Ok(())
    }

    fn commit(
        &self,
        txid: &TransactionId,
        reads: &[(Key, TransactionId)],
    ) -> AftResult<CommitOutcome> {
        let committed = self.inner.commit(txid, reads);
        let outcome = match &committed {
            Ok(acked) => Outcome::Acked(acked.final_id),
            Err(_) => Outcome::Unknown,
        };
        self.update(txid, |attempt| attempt.outcome = outcome);
        committed
    }

    fn abort(&self, txid: &TransactionId) -> AftResult<()> {
        self.inner.abort(txid)
    }
}

/// Each written key's final (bytes, version), `None` when it is missing.
/// A key the map leaves out is not checked for lost writes.
pub type FinalRead = HashMap<Key, Option<(Value, TransactionId)>>;

/// Every key some attempt wrote, in key order.
pub fn written_keys(attempts: &[Attempt]) -> BTreeSet<Key> {
    let keys = attempts.iter().flat_map(|a| a.writes().map(|(k, _)| k));
    keys.cloned().collect()
}

/// Reads `keys` in one fresh transaction through `api`: the final read
/// [`check`] compares against the model. A fresh transaction has no writes
/// of its own, so a version-less value is graded as the NULL version.
pub fn read_back(api: &dyn AftApi, keys: impl IntoIterator<Item = Key>) -> AftResult<FinalRead> {
    let txid = api.begin()?;
    let mut out = FinalRead::new();
    for key in keys {
        let read = api.get_versioned(&txid, &key)?;
        out.insert(
            key,
            read.map(|(v, version)| (v, version.unwrap_or_default())),
        );
    }
    api.abort(&txid)?;
    Ok(out)
}

/// The reference store: SNIPPETS.md §2's `KV.apply` over every acked
/// write, keeping each key's newest (final id, bytes).
pub fn model(attempts: &[Attempt]) -> HashMap<Key, (TransactionId, Value)> {
    let mut kv: HashMap<Key, (TransactionId, Value)> = HashMap::new();
    for attempt in attempts {
        let Some(id) = attempt.acked() else { continue };
        for (key, value) in attempt.writes() {
            let held = kv.entry(key.clone()).or_insert((id, value.clone()));
            if id >= held.0 {
                *held = (id, value.clone());
            }
        }
    }
    kv
}

/// The checker's counts, one per class. A read class counts the attempts
/// that show it; lost writes count keys, duplicates count requests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Attempts with a fractured read (Definition 1).
    pub fractured_reads: u64,
    /// Attempts that missed one of their own writes.
    pub read_your_writes: u64,
    /// Attempts that read from a writer the history does not hold, or one
    /// that never tried to commit.
    pub unknown_writers: u64,
    /// Attempts that read bytes their named writer did not write.
    pub wrong_bytes: u64,
    /// Attempts that read a version other than its writer's acked id.
    pub version_mismatches: u64,
    /// Keys whose final version is older than their newest acked write, or
    /// names no acked or unknown-outcome writer of those bytes to the key.
    pub lost_acked_writes: u64,
    /// Requests with more than one acked attempt. Reported, not gated.
    pub duplicate_requests: u64,
    /// Places in the history of the attempts with any read anomaly.
    pub offenders: Vec<usize>,
}

impl Verdict {
    /// Every read anomaly: the five read classes summed.
    pub fn anomalies(&self) -> u64 {
        self.fractured_reads
            + self.read_your_writes
            + self.unknown_writers
            + self.wrong_bytes
            + self.version_mismatches
    }
}

/// Grades `attempts` and the `final_read` taken after them.
pub fn check(attempts: &[Attempt], final_read: &FinalRead) -> Verdict {
    let by_uuid: HashMap<Uuid, &Attempt> = attempts.iter().map(|a| (a.txid.uuid, a)).collect();
    // What the attempts that tried to commit wrote, for version-less reads.
    let mut committable: HashMap<&Key, Vec<&Value>> = HashMap::new();
    for (key, value) in attempts
        .iter()
        .filter(|a| a.tried())
        .flat_map(Attempt::writes)
    {
        committable.entry(key).or_default().push(value);
    }
    let mut verdict = Verdict::default();
    for (place, attempt) in attempts.iter().enumerate() {
        let flags = grade(attempt, &by_uuid, &committable);
        let counts = [
            &mut verdict.fractured_reads,
            &mut verdict.read_your_writes,
            &mut verdict.unknown_writers,
            &mut verdict.wrong_bytes,
            &mut verdict.version_mismatches,
        ];
        for (count, flag) in counts.into_iter().zip(flags) {
            *count += u64::from(flag);
        }
        if flags.contains(&true) {
            verdict.offenders.push(place);
        }
    }

    let newest = model(attempts);
    for (key, read) in final_read {
        let newest = newest.get(key).map(|(id, _)| *id);
        let lost = match read {
            None => newest.is_some(),
            Some((value, version)) => {
                let writer = by_uuid.get(&version.uuid).filter(|w| w.tried());
                newest.is_some_and(|newest| *version < newest)
                    || writer.is_none_or(|w| w.wrote(key) != Some(value))
            }
        };
        verdict.lost_acked_writes += u64::from(lost);
    }

    let mut acks: HashMap<u64, u64> = HashMap::new();
    for attempt in attempts.iter().filter(|a| a.acked().is_some()) {
        if let Some(request) = attempt.request {
            *acks.entry(request).or_default() += 1;
        }
    }
    verdict.duplicate_requests = acks.values().filter(|&&n| n > 1).count() as u64;
    verdict
}

/// One attempt's read classes, in [`Verdict`]'s field order.
fn grade(
    attempt: &Attempt,
    by_uuid: &HashMap<Uuid, &Attempt>,
    committable: &HashMap<&Key, Vec<&Value>>,
) -> [bool; 5] {
    let [mut fractured, mut ryw, mut unknown, mut bytes, mut mismatch] = [false; 5];
    let mut own: HashMap<&Key, &Value> = HashMap::new();
    // Versioned reads of others' writes, with the writer when it is known.
    let mut reads: Vec<(&Key, TransactionId, Option<&Attempt>)> = Vec::new();
    for op in &attempt.ops {
        let (key, read) = match op {
            MicroOp::Write(key, value) => {
                own.insert(key, value);
                continue;
            }
            MicroOp::Read(key, read) => (key, read),
        };
        if let Some(written) = own.get(key) {
            ryw |= read.as_ref().map(|(v, _)| v) != Some(*written);
            continue;
        }
        match read {
            None => {}
            Some((value, None)) => {
                let known = committable.get(key).is_some_and(|vs| vs.contains(&value));
                bytes |= !known;
            }
            Some((value, Some(version))) => {
                let writer = by_uuid.get(&version.uuid).copied().filter(|w| w.tried());
                if let Some(writer) = writer {
                    bytes |= writer.wrote(key) != Some(value);
                    mismatch |= writer.acked().is_some_and(|id| id != *version);
                }
                unknown |= writer.is_none();
                reads.push((key, *version, writer));
            }
        }
    }
    for &(_, at, writer) in &reads {
        let Some(writer) = writer else { continue };
        fractured |= reads
            .iter()
            .any(|&(key, read, _)| read < at && writer.wrote(key).is_some());
    }
    [fractured, ryw, unknown, bytes, mismatch]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The attempt begun at `ts`; it is acked at `ts + 1`, same UUID.
    fn tid(ts: u64) -> TransactionId {
        TransactionId::new(ts, Uuid::from_u128(ts as u128))
    }

    fn acked(ts: u64) -> TransactionId {
        TransactionId::new(ts + 1, tid(ts).uuid)
    }

    fn w(key: &str, value: &'static str) -> MicroOp {
        MicroOp::Write(Key::new(key), Value::from_static(value.as_bytes()))
    }

    /// A read of `value` at `version`; `None` for a version-less read.
    fn r(key: &str, value: &'static str, version: Option<TransactionId>) -> MicroOp {
        let value = Value::from_static(value.as_bytes());
        MicroOp::Read(Key::new(key), Some((value, version)))
    }

    fn missing(key: &str) -> MicroOp {
        MicroOp::Read(Key::new(key), None)
    }

    fn attempt(ts: u64, outcome: Outcome, ops: Vec<MicroOp>) -> Attempt {
        let (txid, request) = (tid(ts), None);
        Attempt {
            txid,
            request,
            ops,
            outcome,
        }
    }

    fn ok(ts: u64, ops: Vec<MicroOp>) -> Attempt {
        attempt(ts, Outcome::Acked(acked(ts)), ops)
    }

    /// T2 writes l, T10 writes {k, l}; T30 reads both at T10 and reads
    /// back its own write of m.
    fn clean(more: impl IntoIterator<Item = Attempt>) -> Vec<Attempt> {
        let k10 = r("k", "k10", Some(acked(10)));
        let l10 = r("l", "l10", Some(acked(10)));
        let t30 = vec![k10, l10, w("m", "m30"), r("m", "m30", None)];
        let mut history = vec![
            ok(2, vec![w("l", "l2")]),
            ok(10, vec![w("k", "k10"), w("l", "l10")]),
            ok(30, t30),
        ];
        history.extend(more);
        history
    }

    /// What a store that lost nothing serves: the model.
    fn served(attempts: &[Attempt]) -> FinalRead {
        let model = model(attempts);
        let read = |key: Key| {
            let served = model.get(&key).map(|(id, value)| (value.clone(), *id));
            (key, served)
        };
        written_keys(attempts).into_iter().map(read).collect()
    }

    fn verdict(history: &[Attempt]) -> Verdict {
        check(history, &served(history))
    }

    #[test]
    fn a_clean_history_passes() {
        assert_eq!(verdict(&clean([])), Verdict::default());
    }

    #[test]
    fn a_fractured_read_is_rejected_in_either_order() {
        let (k10, l2) = (r("k", "k10", Some(acked(10))), r("l", "l2", Some(acked(2))));
        for reads in [vec![k10.clone(), l2.clone()], vec![l2, k10.clone()]] {
            let verdict = verdict(&clean([ok(40, reads)]));
            assert_eq!(verdict.fractured_reads, 1, "{verdict:?}");
            assert_eq!((verdict.anomalies(), verdict.offenders), (1, vec![3]));
        }
        // A cowritten key read newer than the writer is not fractured, and
        // one read missing holds no version for Definition 1 to order.
        let newer = vec![k10.clone(), r("l", "l50", Some(acked(50)))];
        let history = clean([ok(50, vec![w("l", "l50")]), ok(60, newer)]);
        assert_eq!(verdict(&history), Verdict::default());
        let history = clean([ok(70, vec![missing("l"), k10])]);
        assert_eq!(verdict(&history), Verdict::default());
    }

    #[test]
    fn a_missed_own_write_is_rejected() {
        let reads = vec![w("k", "k40"), r("k", "k10", Some(acked(10)))];
        let verdict = verdict(&clean([ok(40, reads)]));
        assert_eq!((verdict.read_your_writes, verdict.anomalies()), (1, 1));
        let verdict = check(
            &clean([ok(40, vec![w("k", "k40"), missing("k")])]),
            &FinalRead::new(),
        );
        assert_eq!(verdict.read_your_writes, 1);
    }

    #[test]
    fn a_read_from_an_unknown_or_aborted_writer_is_rejected() {
        let aborted = attempt(40, Outcome::Aborted, vec![w("n", "n40")]);
        let from_aborted = ok(50, vec![r("n", "n40", Some(acked(40)))]);
        let from_nowhere = ok(60, vec![r("k", "k?", Some(tid(99)))]);
        let verdict = verdict(&clean([aborted, from_aborted, from_nowhere]));
        assert_eq!(verdict.unknown_writers, 2);
        assert_eq!(verdict.offenders, vec![4, 5]);
    }

    #[test]
    fn an_unknown_outcome_writer_may_be_read_at_any_stamp() {
        let unknown = attempt(40, Outcome::Unknown, vec![w("n", "n40")]);
        let landed = TransactionId::new(45, tid(40).uuid);
        let history = clean([unknown, ok(50, vec![r("n", "n40", Some(landed))])]);
        let mut final_read = served(&history);
        final_read.insert(Key::new("n"), Some((Value::from_static(b"n40"), landed)));
        assert_eq!(check(&history, &final_read), Verdict::default());
    }

    #[test]
    fn wrong_bytes_are_rejected() {
        let torn = ok(40, vec![r("k", "torn", Some(acked(10)))]);
        // A version-less read must match bytes some writer tried to commit.
        let fabricated = ok(50, vec![r("l", "fabricated", None)]);
        assert_eq!(verdict(&clean([torn, fabricated])).wrong_bytes, 2);
    }

    #[test]
    fn a_version_other_than_the_acked_one_is_rejected() {
        let stale = TransactionId::new(12, tid(10).uuid);
        let history = clean([ok(40, vec![r("k", "k10", Some(stale))])]);
        assert_eq!(verdict(&history).version_mismatches, 1);
    }

    #[test]
    fn a_lost_acked_write_is_rejected() {
        let history = clean([]);
        let lost = |key: &str, read: Option<(&'static str, TransactionId)>| {
            let mut final_read = served(&history);
            let read = read.map(|(value, id)| (Value::from_static(value.as_bytes()), id));
            final_read.insert(Key::new(key), read);
            check(&history, &final_read).lost_acked_writes
        };
        // l's newest acked write is T10's: T2's is older, and a missing key
        // lost its writes too. A final version must name a writer that tried
        // to commit those bytes to the key.
        assert_eq!(lost("l", Some(("l2", acked(2)))), 1);
        assert_eq!(lost("k", None), 1);
        assert_eq!(lost("m", Some(("m?", tid(99)))), 1);
        assert_eq!(lost("m", Some(("m?", acked(30)))), 1);
        assert_eq!(lost("m", Some(("m30", acked(30)))), 0);
    }

    #[test]
    fn a_request_applied_twice_is_a_duplicate() {
        let of = |request, ts, outcome| Attempt {
            request: Some(request),
            ..attempt(ts, outcome, vec![w("n", "n")])
        };
        // A retry after an unknown outcome is not a second application.
        let verdict = verdict(&clean([
            of(7, 40, Outcome::Acked(acked(40))),
            of(7, 50, Outcome::Acked(acked(50))),
            of(8, 60, Outcome::Unknown),
            of(8, 70, Outcome::Acked(acked(70))),
        ]));
        assert_eq!(verdict.duplicate_requests, 1);
        assert_eq!(verdict.anomalies() + verdict.lost_acked_writes, 0);
    }
}
