//! The client-facing transaction API surface, abstracted over transport.
//!
//! Table 1's API (`StartTransaction` / `Get` / `Put` / `Commit` / `Abort`)
//! was, until the aft-net subsystem, only reachable in-process through
//! [`AftNode`]'s inherent methods. [`AftApi`] lifts exactly the surface the
//! workload drivers use into a trait, so a driver is indifferent to whether
//! its calls land on a local node, a cluster's router, or a socket to a
//! served deployment — the evaluation harness runs unchanged against all
//! three.
//!
//! Two deliberate differences from the inherent [`AftNode`] methods:
//!
//! * [`AftApi::commit`] takes the read set the caller observed and returns a
//!   [`CommitOutcome`] that reports whether that read set was an Atomic
//!   Readset. The check needs the committing node's metadata cache, which a
//!   remote client does not have — so the check travels *to* the metadata
//!   instead of the metadata traveling to the client.
//! * [`AftApi::begin`] is fallible: a networked implementation may need to
//!   reach a server (or may choose, like the aft-net SDK, to mint the
//!   transaction id locally and never fail).

use std::sync::Arc;

use aft_types::{AftResult, Key, TransactionId, Value};

use crate::node::AftNode;
use crate::read::is_atomic_readset;

/// What a commit acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitOutcome {
    /// The transaction's final id (commit timestamp assigned by the node).
    pub final_id: TransactionId,
    /// Whether the read set reported at commit time was an Atomic Readset
    /// against the committing node's metadata (Theorem 1 — the evaluation's
    /// fractured-read detector).
    pub atomic: bool,
    /// True when this acknowledgement deduplicated a retried commit instead
    /// of applying a second time (§4.2's lost-ack window; always false for
    /// in-process commits, which cannot be retried by a transport).
    pub duplicate: bool,
}

/// The transactional API the workload drivers run against.
///
/// Implemented by [`AftNode`] (in-process) and by the aft-net client SDK
/// (over a socket). All methods are callable from many threads at once.
pub trait AftApi: Send + Sync {
    /// A short label naming the implementation, for reports.
    fn api_label(&self) -> &str;

    /// `StartTransaction()`: begins a transaction and returns its id.
    fn begin(&self) -> AftResult<TransactionId>;

    /// `Get(txid, key)` returning the committed writer of the value, or
    /// `None` as the version when the value came from the transaction's own
    /// write buffer (read-your-writes, §3.5).
    fn get_versioned(
        &self,
        txid: &TransactionId,
        key: &Key,
    ) -> AftResult<Option<(Value, Option<TransactionId>)>>;

    /// Reads several keys in one request, in key order.
    fn get_all(&self, txid: &TransactionId, keys: &[Key]) -> AftResult<Vec<Option<Value>>>;

    /// `Put(txid, key, value)`: buffers a write.
    fn put(&self, txid: &TransactionId, key: Key, value: Value) -> AftResult<()>;

    /// `CommitTransaction(txid)`: durably commits, reporting the outcome.
    /// `reads` is the (key, version) set the caller observed from committed
    /// data, used for the read-atomicity verdict in the outcome.
    fn commit(
        &self,
        txid: &TransactionId,
        reads: &[(Key, TransactionId)],
    ) -> AftResult<CommitOutcome>;

    /// `AbortTransaction(txid)`: discards the transaction.
    fn abort(&self, txid: &TransactionId) -> AftResult<()>;
}

impl AftApi for AftNode {
    fn api_label(&self) -> &str {
        "in-process"
    }

    fn begin(&self) -> AftResult<TransactionId> {
        Ok(self.start_transaction())
    }

    fn get_versioned(
        &self,
        txid: &TransactionId,
        key: &Key,
    ) -> AftResult<Option<(Value, Option<TransactionId>)>> {
        AftNode::get_versioned(self, txid, key)
    }

    fn get_all(&self, txid: &TransactionId, keys: &[Key]) -> AftResult<Vec<Option<Value>>> {
        AftNode::get_all(self, txid, keys)
    }

    fn put(&self, txid: &TransactionId, key: Key, value: Value) -> AftResult<()> {
        AftNode::put(self, txid, key, value)
    }

    fn commit(
        &self,
        txid: &TransactionId,
        reads: &[(Key, TransactionId)],
    ) -> AftResult<CommitOutcome> {
        let final_id = AftNode::commit(self, txid)?;
        Ok(CommitOutcome {
            final_id,
            atomic: is_atomic_readset(reads, self.metadata()),
            duplicate: false,
        })
    }

    fn abort(&self, txid: &TransactionId) -> AftResult<()> {
        AftNode::abort(self, txid)
    }
}

/// Keys one preload transaction writes at most.
const PRELOAD_MAX_KEYS: usize = 500;

/// Value bytes one preload transaction writes at most (a single larger
/// value goes alone): just above 500 of the paper's 4 KiB payloads, so a
/// preload of those keeps its 500-key transactions while one of 16 KiB
/// values never frames an 8 MiB commit, whose freed buffers would raise
/// the allocator's mmap and trim thresholds for the rest of the process.
const PRELOAD_MAX_BYTES: usize = 2 << 20;

/// Preloads an initial version of every key through any [`AftApi`], in
/// transactions of at most 500 keys and 2 MiB of values, so experiments
/// never measure cold reads. Shared by the drivers and the service
/// benchmarks.
pub fn preload_keys(
    api: &Arc<dyn AftApi>,
    keys: &[Key],
    make_value: impl Fn(&Key) -> Value,
) -> AftResult<()> {
    let mut open = None;
    let (mut count, mut bytes) = (0, 0);
    for key in keys {
        let value = make_value(key);
        if count == PRELOAD_MAX_KEYS || bytes + value.len() > PRELOAD_MAX_BYTES {
            if let Some(txid) = open.take() {
                api.commit(&txid, &[])?;
            }
            (count, bytes) = (0, 0);
        }
        let txid = match open {
            Some(txid) => txid,
            None => *open.insert(api.begin()?),
        };
        (count, bytes) = (count + 1, bytes + value.len());
        api.put(&txid, key.clone(), value)?;
    }
    if let Some(txid) = open {
        api.commit(&txid, &[])?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeConfig;
    use aft_storage::InMemoryStore;
    use aft_types::clock::TickingClock;
    use bytes::Bytes;

    fn node() -> Arc<AftNode> {
        AftNode::with_clock(
            NodeConfig::test(),
            InMemoryStore::shared(),
            TickingClock::shared(1, 1),
        )
        .unwrap()
    }

    #[test]
    fn node_implements_the_api_surface() {
        let api: Arc<dyn AftApi> = node();
        let txid = api.begin().unwrap();
        api.put(&txid, Key::new("k"), Bytes::from_static(b"v"))
            .unwrap();
        // Read-your-writes: buffered values come back with no version.
        let (value, version) = api.get_versioned(&txid, &Key::new("k")).unwrap().unwrap();
        assert_eq!(value, Bytes::from_static(b"v"));
        assert!(version.is_none());
        let outcome = api.commit(&txid, &[]).unwrap();
        assert!(outcome.atomic);
        assert!(!outcome.duplicate);
        assert_eq!(outcome.final_id.uuid, txid.uuid);

        // A later transaction observes the commit with its true version.
        let reader = api.begin().unwrap();
        let (value, version) = api.get_versioned(&reader, &Key::new("k")).unwrap().unwrap();
        assert_eq!(value, Bytes::from_static(b"v"));
        assert_eq!(version, Some(outcome.final_id));
        assert_eq!(
            api.get_all(&reader, &[Key::new("k"), Key::new("missing")])
                .unwrap(),
            vec![Some(Bytes::from_static(b"v")), None]
        );
        api.abort(&reader).unwrap();
    }

    #[test]
    fn commit_reports_the_read_atomicity_verdict() {
        let api: Arc<dyn AftApi> = node();
        // Commit {a, b} together, then a newer version of b alone.
        let t1 = api.begin().unwrap();
        api.put(&t1, Key::new("a"), Bytes::from_static(b"1"))
            .unwrap();
        api.put(&t1, Key::new("b"), Bytes::from_static(b"1"))
            .unwrap();
        let c1 = api.commit(&t1, &[]).unwrap();
        let t2 = api.begin().unwrap();
        api.put(&t2, Key::new("b"), Bytes::from_static(b"2"))
            .unwrap();
        let c2 = api.commit(&t2, &[]).unwrap();

        // c1 wrote {a, b} and c2 a newer `b` alone. Reading `a` at c1 and
        // `b` at c2 is atomic: `b` is newer than c1's. Reading `b` at c1
        // while `a` shows NULL is fractured: c1 cowrote `a`, at a newer
        // version than NULL.
        let t3 = api.begin().unwrap();
        let atomic_reads = vec![(Key::new("a"), c1.final_id), (Key::new("b"), c2.final_id)];
        let fractured_reads = vec![
            (Key::new("b"), c1.final_id),
            (Key::new("a"), TransactionId::NULL),
        ];
        // The verdicts come from the same metadata the node itself uses.
        assert!(
            api.commit(&t3, &atomic_reads).unwrap().atomic,
            "reading the newest versions of a and b is atomic"
        );
        // c1 cowrote {a, b}: reading b@c1 while a shows NULL fractures.
        let t4 = api.begin().unwrap();
        assert!(!api.commit(&t4, &fractured_reads).unwrap().atomic);
    }

    /// One recorded transaction: its writes as (key, value bytes), in
    /// order, and whether it committed.
    #[derive(Default)]
    struct Txn {
        writes: Vec<(Key, usize)>,
        committed: bool,
    }

    /// Records every transaction, the `n`-th begun under timestamp `n`.
    #[derive(Default)]
    struct Recorder(parking_lot::Mutex<Vec<Txn>>);

    impl AftApi for Recorder {
        fn api_label(&self) -> &str {
            "recorder"
        }

        fn begin(&self) -> AftResult<TransactionId> {
            let mut txns = self.0.lock();
            txns.push(Txn::default());
            let n = txns.len() as u64;
            Ok(TransactionId::new(n, aft_types::Uuid::from_u128(n.into())))
        }

        fn get_versioned(
            &self,
            _: &TransactionId,
            _: &Key,
        ) -> AftResult<Option<(Value, Option<TransactionId>)>> {
            Ok(None)
        }

        fn get_all(&self, _: &TransactionId, keys: &[Key]) -> AftResult<Vec<Option<Value>>> {
            Ok(vec![None; keys.len()])
        }

        fn put(&self, txid: &TransactionId, key: Key, value: Value) -> AftResult<()> {
            let mut txns = self.0.lock();
            let txn = &mut txns[txid.timestamp as usize - 1];
            assert!(!txn.committed, "a write after its commit");
            txn.writes.push((key, value.len()));
            Ok(())
        }

        fn commit(
            &self,
            txid: &TransactionId,
            _: &[(Key, TransactionId)],
        ) -> AftResult<CommitOutcome> {
            self.0.lock()[txid.timestamp as usize - 1].committed = true;
            Ok(CommitOutcome {
                final_id: *txid,
                atomic: true,
                duplicate: false,
            })
        }

        fn abort(&self, _: &TransactionId) -> AftResult<()> {
            unreachable!("a preload never aborts")
        }
    }

    /// Preloads `keys` keys of `value_size` bytes through a [`Recorder`]:
    /// each transaction's key count and value bytes, after checking that
    /// every transaction committed and wrote each key exactly once.
    fn preload_shape(keys: usize, value_size: usize) -> Vec<(usize, usize)> {
        let recorder = Arc::new(Recorder::default());
        let api: Arc<dyn AftApi> = recorder.clone();
        let keys: Vec<Key> = (0..keys).map(|i| Key::new(format!("k{i}"))).collect();
        preload_keys(&api, &keys, |_| Bytes::from(vec![7u8; value_size])).unwrap();
        let txns = std::mem::take(&mut *recorder.0.lock());
        assert!(txns.iter().all(|txn| txn.committed));
        let written: Vec<&Key> = txns
            .iter()
            .flat_map(|txn| txn.writes.iter().map(|(key, _)| key))
            .collect();
        assert!(
            written.into_iter().eq(&keys),
            "every key written once, in order"
        );
        txns.iter()
            .map(|txn| (txn.writes.len(), txn.writes.iter().map(|(_, n)| n).sum()))
            .collect()
    }

    #[test]
    fn preload_transactions_are_bounded_by_keys_and_bytes() {
        // 16 KiB values: at most 2 MiB of them a transaction, not 8 MiB.
        let large = preload_shape(2_000, 16 << 10);
        assert!(large.iter().all(|&(_, bytes)| bytes <= PRELOAD_MAX_BYTES));
        assert_eq!(large.len(), 16);
        assert_eq!(large[0], (128, 2 << 20));
        // The paper's 4 KiB values keep their 500-key transactions.
        let paper = preload_shape(1_200, 4 << 10);
        assert_eq!(
            paper.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            [500, 500, 200]
        );
        // A value above the byte bound still goes, alone.
        assert_eq!(preload_shape(2, 3 << 20), [(1, 3 << 20), (1, 3 << 20)]);
    }

    #[test]
    fn preload_writes_every_key() {
        let api: Arc<dyn AftApi> = node();
        let keys: Vec<Key> = (0..12).map(|i| Key::new(format!("k{i}"))).collect();
        preload_keys(&api, &keys, |_| Bytes::from_static(b"seed")).unwrap();
        let txid = api.begin().unwrap();
        for key in &keys {
            assert!(api.get_versioned(&txid, key).unwrap().is_some());
        }
    }
}
