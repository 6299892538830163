//! The storage-engine abstraction AFT builds on.
//!
//! AFT makes exactly one assumption about the storage layer: updates are
//! durable once acknowledged (§3.1). It does not require consistency
//! guarantees, visibility ordering, partitioning, or fixed membership. The
//! [`StorageEngine`] trait is therefore deliberately narrow: opaque blobs
//! keyed by strings, single and batched reads, writes and deletes, and a
//! prefix scan (used only by bootstrap, the fault manager, and garbage
//! collection — never on the transaction critical path).

use std::sync::Arc;

use aft_types::{AftResult, Value};

use crate::counters::StorageStats;
use crate::profiles::MultiKeyCall;

/// A durable key-value store for opaque blobs.
///
/// All methods are synchronous and may block for the backend's simulated
/// latency. Implementations must be safe to call from many threads at once —
/// every AFT node thread, background multicast thread, and GC thread shares
/// one handle per backend.
pub trait StorageEngine: Send + Sync {
    /// A short human-readable backend name ("dynamodb", "redis", "s3", ...).
    fn name(&self) -> &'static str;

    /// Reads the blob stored at `key`, or `None` if the key does not exist.
    fn get(&self, key: &str) -> AftResult<Option<Value>>;

    /// Reads the blobs stored at `keys`, in request order (`None` for a
    /// missing key).
    ///
    /// Backends with a multi-key read (DynamoDB's `BatchGetItem`) serve it in
    /// as few API calls as their limits allow and say so through
    /// [`supports_batch_get`](StorageEngine::supports_batch_get); the default
    /// reads key by key, one [`get`](StorageEngine::get) each.
    fn get_batch(&self, keys: &[String]) -> AftResult<Vec<Option<Value>>> {
        keys.iter().map(|key| self.get(key)).collect()
    }

    /// Durably writes `value` at `key`, overwriting any previous blob.
    fn put(&self, key: &str, value: Value) -> AftResult<()>;

    /// Durably writes a set of key/value pairs.
    ///
    /// Backends that support a batch API (DynamoDB's `BatchWriteItem`,
    /// Redis's one-slot `MSET`) perform this in as few API calls as their
    /// limits allow; backends that do not (S3) fall back to single writes.
    /// Either way the call returns only once every item is durable.
    fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()>;

    /// Deletes the blob at `key`. Deleting a missing key is not an error.
    fn delete(&self, key: &str) -> AftResult<()>;

    /// Deletes a set of keys, using a batch API where available.
    fn delete_batch(&self, keys: &[String]) -> AftResult<()>;

    /// The API call [`delete_batch`](StorageEngine::delete_batch) packs its
    /// keys into: how many one call carries, and whether they must share a
    /// hash slot. The global GC plans a round's deletes with it
    /// ([`calls_of`](crate::calls_of)). The default is an unlimited call,
    /// which the GC counts as full: a wrapper that does not forward the
    /// answer makes it send every round's garbage in that round.
    fn delete_call(&self) -> MultiKeyCall {
        MultiKeyCall::FREE
    }

    /// Returns all keys that start with `prefix`, in lexicographic order.
    ///
    /// Because AFT's storage keys embed zero-padded commit timestamps,
    /// lexicographic order is also commit-time order for the Transaction
    /// Commit Set.
    fn list_prefix(&self, prefix: &str) -> AftResult<Vec<String>>;

    /// The keys [`list_prefix`](StorageEngine::list_prefix) returns that sort
    /// strictly after `after`, in the same order: one call, like S3's
    /// `ListObjectsV2` with `StartAfter`. The fault manager lists the commit
    /// set from its floor this way (§4.2). The default filters a full
    /// listing; a store with ordered keys ranges them instead.
    fn list_prefix_after(&self, prefix: &str, after: &str) -> AftResult<Vec<String>> {
        let mut keys = self.list_prefix(prefix)?;
        keys.retain(|key| key.as_str() > after);
        Ok(keys)
    }

    /// Whether the backend can read several keys in one API call.
    fn supports_batch_get(&self) -> bool {
        false
    }

    /// Whether the backend can write several keys in one API call.
    fn supports_batch_put(&self) -> bool;

    /// Whether one [`put_batch`](StorageEngine::put_batch) of exactly `keys`
    /// lands all-or-nothing: it goes out as one API call that the service
    /// applies atomically, so no reader sees part of it and a failed call
    /// leaves none of it (a Redis `MSET` within one slot). The safe default
    /// is `false`: a wrapper that does not forward the answer makes its
    /// callers order their writes themselves.
    fn writes_atomically(&self, _keys: &[&str]) -> bool {
        false
    }

    /// Consulted by nothing: the I/O engine runs every backend's calls
    /// inside `latency::capture_deferred`, so a latency applied
    /// through [`crate::LatencyModel`] is always deferred to the waiter. The
    /// method is still declared because `benchmark/`'s storage wrapper
    /// overrides it; it goes with the next change to that workspace.
    fn supports_deferred_latency(&self) -> bool {
        false
    }

    /// Operation statistics for this backend instance.
    fn stats(&self) -> Arc<StorageStats>;
}

/// A shareable, dynamically dispatched storage engine handle.
pub type SharedStorage = Arc<dyn StorageEngine>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::InMemoryStore;
    use bytes::Bytes;

    /// Forwards everything but the ranged listing, so that uses the default.
    struct Unranged(InMemoryStore);

    impl StorageEngine for Unranged {
        fn name(&self) -> &'static str {
            "unranged"
        }
        fn get(&self, key: &str) -> AftResult<Option<Value>> {
            self.0.get(key)
        }
        fn put(&self, key: &str, value: Value) -> AftResult<()> {
            self.0.put(key, value)
        }
        fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()> {
            self.0.put_batch(items)
        }
        fn delete(&self, key: &str) -> AftResult<()> {
            self.0.delete(key)
        }
        fn delete_batch(&self, keys: &[String]) -> AftResult<()> {
            self.0.delete_batch(keys)
        }
        fn list_prefix(&self, prefix: &str) -> AftResult<Vec<String>> {
            self.0.list_prefix(prefix)
        }
        fn supports_batch_put(&self) -> bool {
            self.0.supports_batch_put()
        }
        fn stats(&self) -> Arc<StorageStats> {
            self.0.stats()
        }
    }

    #[test]
    fn a_ranged_listing_is_the_tail_of_the_full_one_ranged_or_filtered() {
        let ranged = InMemoryStore::new();
        for i in [3, 1, 4, 15, 9, 2, 6] {
            ranged.put(&format!("p/{i:02}"), Bytes::new()).unwrap();
        }
        ranged.put("q/00", Bytes::new()).unwrap();
        let filtered = Unranged(InMemoryStore::new());
        for key in ranged.list_prefix("").unwrap() {
            filtered.put(&key, Bytes::new()).unwrap();
        }
        for after in ["", "p", "p/", "p/03", "p/05", "p/15", "q"] {
            let tail: Vec<String> = ranged
                .list_prefix("p/")
                .unwrap()
                .into_iter()
                .filter(|key| key.as_str() > after)
                .collect();
            assert_eq!(ranged.list_prefix_after("p/", after).unwrap(), tail);
            assert_eq!(filtered.list_prefix_after("p/", after).unwrap(), tail);
        }
    }
}
