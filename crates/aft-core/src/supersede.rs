//! Transaction supersedence — Algorithm 2.
//!
//! A transaction `T_i` is *locally superseded* when, for every key `k` in its
//! write set, the node knows of a committed version of `k` newer than `i`
//! (§4.1). Superseded transactions:
//!
//! * are omitted from the commit-set multicast (they can never be the newest
//!   valid version anywhere the receiving node would need them for), and
//! * are candidates for local metadata garbage collection (§5.1) and, once
//!   every node agrees, for global data deletion (§5.2).
//!
//! Supersedence can be decided without coordination because key version sets
//! only grow monotonically: once every key has a newer committed version on
//! this node, that remains true forever.
//!
//! The same monotonicity means the verdict never has to be recomputed. For
//! the records a [`MetadataCache`] holds it is decided at insert: the cache
//! counts, per record, the keys it is still the newest version of, and keeps
//! the records that reached zero in
//! [`superseded_oldest_first`](MetadataCache::superseded_oldest_first), which
//! is what the garbage collectors sweep. [`is_superseded`] below is
//! Algorithm 2 as the paper writes it: the reference the tests compare that
//! set against, and the check for a record that is *not* in the cache — one
//! arriving from a peer, or one a sender is about to prune from a multicast.

use aft_types::TransactionRecord;

use crate::metadata::MetadataCache;

/// Algorithm 2: returns true if every key written by `record` has a committed
/// version newer than `record.id` in `metadata`. `record` itself need not be
/// cached.
///
/// A transaction with an empty write set (a read-only transaction) is
/// trivially superseded — it wrote nothing anyone could still need to read.
pub fn is_superseded(record: &TransactionRecord, metadata: &MetadataCache) -> bool {
    // One view for the whole write set: a bulk-load record asks about 500 keys.
    let metadata = metadata.view();
    record.write_set.iter().all(|key| {
        metadata
            .latest_version_of(key)
            .is_some_and(|latest| latest > record.id)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_types::{Key, TransactionId, Uuid};
    use std::sync::Arc;

    fn tid(ts: u64) -> TransactionId {
        TransactionId::new(ts, Uuid::from_u128(ts as u128))
    }

    fn record(ts: u64, keys: &[&str]) -> Arc<TransactionRecord> {
        Arc::new(TransactionRecord::new(tid(ts), keys.iter().map(Key::new)))
    }

    #[test]
    fn not_superseded_when_it_is_the_latest_writer_of_any_key() {
        let cache = MetadataCache::new();
        let t1 = record(1, &["a", "b"]);
        let t2 = record(2, &["a"]);
        cache.insert(t1.clone());
        cache.insert(t2.clone());

        // "b" has no newer version, so T1 is not superseded.
        assert!(!is_superseded(&t1, &cache));
        // T2 is the latest writer of "a".
        assert!(!is_superseded(&t2, &cache));
    }

    #[test]
    fn superseded_when_every_key_has_a_newer_version() {
        let cache = MetadataCache::new();
        let t1 = record(1, &["a", "b"]);
        cache.insert(t1.clone());
        cache.insert(record(2, &["a"]));
        assert!(!is_superseded(&t1, &cache), "b still current");
        cache.insert(record(3, &["b"]));
        assert!(is_superseded(&t1, &cache));
    }

    #[test]
    fn read_only_transactions_are_trivially_superseded() {
        let cache = MetadataCache::new();
        let read_only = record(5, &[]);
        cache.insert(read_only.clone());
        assert!(is_superseded(&read_only, &cache));
    }

    #[test]
    fn supersedence_ignores_unknown_records_write_sets() {
        // A record received via multicast may be checked before it is merged
        // into the local cache; the check must work without the record being
        // present.
        let cache = MetadataCache::new();
        cache.insert(record(10, &["x"]));
        let older_remote = record(4, &["x"]);
        assert!(is_superseded(&older_remote, &cache));
        let newer_remote = record(20, &["x"]);
        assert!(!is_superseded(&newer_remote, &cache));
    }

    #[test]
    fn supersedence_is_monotonic() {
        // Once superseded, inserting more commits can never un-supersede.
        let cache = MetadataCache::new();
        let t1 = record(1, &["a"]);
        cache.insert(t1.clone());
        cache.insert(record(2, &["a"]));
        assert!(is_superseded(&t1, &cache));
        cache.insert(record(3, &["a", "b"]));
        cache.insert(record(4, &["c"]));
        assert!(is_superseded(&t1, &cache));
    }
}
