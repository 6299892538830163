//! The Redis row, `Service::REDIS`.
//!
//! The evaluation uses Redis in cluster mode with two shards (§6). The
//! properties the figures depend on are:
//!
//! * memory-speed, sub-millisecond operations,
//! * hash-slot sharding: every key maps to exactly one shard,
//! * per-shard linearizability but **no guarantees across shards** (which is
//!   why "Redis Shard / Linearizable" still shows anomalies in Table 2), and
//! * multi-key commands only within one hash slot: the cluster rejects an
//!   `MSET` or `DEL` whose keys hash to different slots (§6.1.2).
//!
//! A key's slot is its [`slot_tag`](aft_types::slot_tag): the last byte, as
//! two hex digits, of the transaction UUID that ends every AFT data key
//! (`data/{key}/{uuid}`) and commit-record key (`commit/{ts}_{uuid}`), or
//! the whole key if it carries none. On a real cluster that is a hash tag,
//! the two digits written between braces. So a slot holds one of 256 groups
//! of transactions: every key of one transaction lands in one slot, as do
//! the keys of every transaction whose UUID ends in the same byte, and
//! AFT's data still spreads over any cluster of up to 256 primaries. The
//! row offers `MSET` and multi-key `DEL` ([`MSET`](crate::profiles::MSET),
//! [`DEL`](crate::profiles::DEL), at most
//! `REDIS_MULTI_KEY_LIMIT` keys a
//! call), and a batch goes out as one call per slot. Within one slot, Redis
//! applies an `MSET` or `DEL` all-or-nothing, so an AFT commit of up to 15
//! keys is one `MSET` carrying its data and, last, its record: §3.3's "no
//! record without its data" holds without a second round trip. A larger
//! commit writes its data first and its record with its own `SET`. A GC
//! round's batch is one `DEL` per slot group (more past the limit) carrying
//! the group's collected transactions, records included, and its
//! overwritten versions; a key alone in its group that round is a
//! single-key `DEL`. Keys without a UUID (a plain baseline's bare keys) are
//! each alone in their slot and keep one `SET` or `DEL` per key. Reads name
//! versions of different transactions, so the row has no multi-key read. The paper's implementation could not
//! batch its commit writes over Redis (§6.1.2, §6.3) and wrote each record
//! after its data; this row departs from it on purpose, and its Redis call
//! counts are not the paper's.
//!
//! A shard is a placement stripe of the shared [`SimStore`](crate::SimStore):
//! one lock on its keys. An atomic call holds the locks of every stripe
//! it touches while it lands.

#[cfg(test)]
mod tests {
    use crate::backend::{make_backend, BackendConfig, BackendKind};
    use crate::counters::OpKind;
    use crate::engine::{SharedStorage, StorageEngine};
    use crate::latency::LatencyModel;
    use crate::profiles::{Service, DEFAULT_REDIS_SHARDS, REDIS_MULTI_KEY_LIMIT};
    use crate::sharded::stripe_of;
    use crate::store::SimStore;
    use aft_types::{Key, KeyVersion, TransactionId, TransactionRecord, Uuid, Value};
    use bytes::Bytes;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn cluster() -> SharedStorage {
        make_backend(BackendConfig::test(BackendKind::Redis))
    }

    fn val(s: &str) -> Value {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// The data keys and record key of a transaction writing `keys` keys.
    fn transaction(uuid: u128, keys: usize) -> (Vec<String>, String) {
        let id = TransactionId::new(uuid as u64, Uuid::from_u128(uuid));
        let data = (0..keys)
            .map(|i| KeyVersion::new(Key::new(format!("k{i}")), id).storage_key())
            .collect();
        (data, TransactionRecord::storage_key_for(&id))
    }

    fn items(keys: &[String]) -> Vec<(String, Value)> {
        keys.iter().map(|k| (k.clone(), val("v"))).collect()
    }

    /// (Put, BatchPut, Delete, BatchDelete) calls billed so far.
    fn calls(r: &SharedStorage) -> [u64; 4] {
        let stats = r.stats();
        [
            OpKind::Put,
            OpKind::BatchPut,
            OpKind::Delete,
            OpKind::BatchDelete,
        ]
        .map(|op| stats.calls(op))
    }

    #[test]
    fn basic_operations_round_trip() {
        let r = cluster();
        r.put("k", val("v")).unwrap();
        assert_eq!(r.get("k").unwrap().unwrap(), val("v"));
        r.delete("k").unwrap();
        assert!(r.get("k").unwrap().is_none());
        assert_eq!(r.name(), "redis");
        assert!(r.supports_batch_put());
        assert!(!r.supports_batch_get());
    }

    #[test]
    fn sharding_is_stable_and_covers_all_shards() {
        let shards = Service::REDIS.stripes;
        assert_eq!(shards, DEFAULT_REDIS_SHARDS);
        for key in ["a", "b", "k1", "k2"] {
            assert_eq!(
                stripe_of(key, shards),
                stripe_of(key, shards),
                "shard mapping must be stable"
            );
            assert!(stripe_of(key, shards) < shards);
        }
        // With enough keys every shard should receive something.
        let seen: std::collections::HashSet<_> = (0..200)
            .map(|i| stripe_of(&format!("key-{i}"), shards))
            .collect();
        assert_eq!(seen.len(), shards);
    }

    #[test]
    fn put_batch_issues_one_call_per_key() {
        // Bare keys carry no slot tag: each is alone in its slot.
        let r = cluster();
        r.put_batch(items(&["a".into(), "b".into(), "c".into()]))
            .unwrap();
        r.delete_batch(&["a".into(), "b".into()]).unwrap();
        assert_eq!(calls(&r), [3, 0, 2, 0]);
        assert_eq!(r.get("c").unwrap(), Some(val("v")));
    }

    #[test]
    fn a_multi_key_call_never_spans_slots() {
        // Two transactions' keys interleaved in one batch, with a bare key:
        // their UUIDs end in different bytes, so one MSET per transaction
        // and one SET for the bare key.
        let r = cluster();
        let (a, a_record) = transaction(0xA, 3);
        let (b, b_record) = transaction(0xB, 2);
        let mixed = vec![
            a[0].clone(),
            b[0].clone(),
            "bare".into(),
            a[1].clone(),
            b[1].clone(),
            a[2].clone(),
        ];
        r.put_batch(items(&mixed)).unwrap();
        assert_eq!(calls(&r), [1, 2, 0, 0]);
        for key in &mixed {
            assert!(r.get(key).unwrap().is_some(), "{key}");
        }
        // Each record then joins its own transaction's slot: a GC-shaped
        // delete (every data key, then every record) is one DEL per
        // transaction plus the bare key's DEL.
        r.put_batch(items(&[a_record.clone(), b_record.clone()]))
            .unwrap();
        assert_eq!(calls(&r), [3, 2, 0, 0], "two lone keys are two SETs");
        let mut doomed = mixed.clone();
        doomed.extend([a_record, b_record]);
        r.delete_batch(&doomed).unwrap();
        assert_eq!(calls(&r), [3, 2, 1, 2]);
        assert!(r.list_prefix("").unwrap().is_empty());

        // Two transactions whose UUIDs end in the same byte share a slot
        // group: one MSET and one DEL carry both, records included.
        let (c, c_record) = transaction(0x1_0A, 2);
        let (d, d_record) = transaction(0x2_0A, 3);
        let group = [c, d, vec![c_record, d_record]].concat();
        r.put_batch(items(&group)).unwrap();
        r.delete_batch(&group).unwrap();
        assert_eq!(calls(&r), [3, 3, 1, 3]);
        assert!(r.list_prefix("").unwrap().is_empty());
    }

    #[test]
    fn a_one_slot_call_carries_at_most_the_limit() {
        // A transaction of 2 × limit + 1 keys: two full MSETs, then its last
        // key alone, which is a SET. Deleting it with its record: two full
        // DELs and one DEL of two keys.
        let r = cluster();
        let (data, record) = transaction(0xC, 2 * REDIS_MULTI_KEY_LIMIT + 1);
        r.put_batch(items(&data)).unwrap();
        assert_eq!(calls(&r), [1, 2, 0, 0]);
        let mut doomed = data;
        doomed.push(record);
        r.delete_batch(&doomed).unwrap();
        assert_eq!(calls(&r), [1, 2, 0, 3]);
    }

    #[test]
    fn a_reader_never_sees_part_of_a_one_slot_mset() {
        // Each MSET carries a transaction's data keys and, last, its record,
        // as a one-call commit does. Nothing is deleted, so a reader that
        // finds the first data key and then misses the record has seen part
        // of a call: the record was missing while the first key was there.
        const TRANSACTIONS: u64 = 300;
        let r = cluster();
        let calls_of_keys: Vec<Vec<String>> = (1..=TRANSACTIONS)
            .map(|uuid| {
                let (mut keys, record) = transaction(uuid.into(), REDIS_MULTI_KEY_LIMIT - 1);
                keys.push(record);
                keys
            })
            .collect();
        assert!(calls_of_keys.iter().all(|keys| {
            let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
            r.writes_atomically(&keys)
        }));
        let landing = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        let start = Barrier::new(2);
        let (mut seen, mut torn) = (0, 0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for (t, keys) in calls_of_keys.iter().enumerate() {
                    landing.store(t, Ordering::SeqCst);
                    r.put_batch(items(keys)).unwrap();
                }
                done.store(true, Ordering::SeqCst);
            });
            start.wait();
            while !done.load(Ordering::SeqCst) {
                let keys = &calls_of_keys[landing.load(Ordering::SeqCst)];
                if r.get(&keys[0]).unwrap().is_some() {
                    seen += 1;
                    torn += usize::from(r.get(&keys[keys.len() - 1]).unwrap().is_none());
                }
            }
        });
        assert_eq!(torn, 0, "{torn} of {seen} reads saw part of an MSET");
        assert_eq!(calls(&r), [0, TRANSACTIONS, 0, 0]);
    }

    #[test]
    fn list_prefix_merges_all_shards_sorted() {
        let r = cluster();
        for i in 0..20 {
            r.put(&format!("data/k/{i:03}"), val("x")).unwrap();
        }
        r.put("other", val("y")).unwrap();
        let listed = r.list_prefix("data/").unwrap();
        assert_eq!(listed.len(), 20);
        let mut sorted = listed.clone();
        sorted.sort();
        assert_eq!(listed, sorted);
    }

    #[test]
    fn single_shard_cluster_is_allowed() {
        let r = SimStore::of(Service::REDIS, LatencyModel::disabled(), 1, 1);
        assert_eq!(r.stripe_count(), 1);
        let (data, _) = transaction(0xD, 2);
        r.put_batch(items(&data)).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.stats().calls(OpKind::BatchPut), 1);
    }
}
