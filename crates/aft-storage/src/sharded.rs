//! Lock striping for the simulated backends' shared data plane.
//!
//! Every simulated backend used to funnel all key accesses through a single
//! `RwLock<BTreeMap>`, so multi-client experiments measured lock contention
//! instead of the protocol under test. [`ShardedMap`] replaces that single
//! lock with N-way lock striping: `hash(key) → stripe`, one `RwLock<BTreeMap>`
//! per stripe. Point operations (get/put/remove) touch exactly one stripe;
//! prefix scans and size queries visit all stripes and merge.
//!
//! Striping is invisible to callers — the map presents the exact same
//! observable behaviour as a single sorted map (a property the
//! `proptest_sharded` suite checks) — but commits from different clients that
//! hash to different stripes no longer serialise on one another. How many
//! stripes a store has is a fact of its service row
//! ([`Service::stripes`](crate::Service::stripes)).

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::Bound;

use aft_types::Value;
use parking_lot::RwLock;

/// Default stripe count of the storage layer's lock striping.
pub const DEFAULT_STRIPES: usize = 16;

/// The stripe a key hashes to, out of `stripes`: where a [`ShardedMap`]
/// places it, and where a data cache of the same stripe count does.
pub fn stripe_of(key: &str, stripes: usize) -> usize {
    debug_assert!(stripes > 0, "stripe count must be positive");
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() as usize) % stripes
}

/// A thread-safe sorted map of string keys to blobs, lock-striped N ways.
#[derive(Debug)]
pub struct ShardedMap {
    stripes: Box<[RwLock<BTreeMap<String, Value>>]>,
}

impl Default for ShardedMap {
    fn default() -> Self {
        ShardedMap::new(DEFAULT_STRIPES)
    }
}

impl ShardedMap {
    /// Creates an empty map with `stripes` lock stripes (at least one).
    pub fn new(stripes: usize) -> Self {
        ShardedMap {
            stripes: (0..stripes.max(1))
                .map(|_| RwLock::new(BTreeMap::new()))
                .collect(),
        }
    }

    /// Number of lock stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    fn stripe(&self, key: &str) -> &RwLock<BTreeMap<String, Value>> {
        &self.stripes[stripe_of(key, self.stripes.len())]
    }

    /// Returns the blob stored at `key`.
    pub fn get(&self, key: &str) -> Option<Value> {
        self.stripe(key).read().get(key).cloned()
    }

    /// Stores `value` at `key`, returning the previous blob if any.
    pub fn put(&self, key: &str, value: Value) -> Option<Value> {
        self.stripe(key).write().insert(key.to_owned(), value)
    }

    /// Removes `key`, returning the previous blob if any.
    pub fn remove(&self, key: &str) -> Option<Value> {
        self.stripe(key).write().remove(key)
    }

    /// Stores (`Some`) or removes (`None`) every key as one step: the write
    /// locks of the stripes the keys touch are taken in ascending stripe
    /// order and held until the last key lands, so no reader sees part of
    /// the step. Every other method holds at most one stripe lock at a time,
    /// so the ordered acquisition cannot deadlock.
    pub(crate) fn apply_all<'k>(&self, ops: impl IntoIterator<Item = (&'k str, Option<Value>)>) {
        let ops: Vec<(usize, &str, Option<Value>)> = ops
            .into_iter()
            .map(|(key, value)| (stripe_of(key, self.stripes.len()), key, value))
            .collect();
        let mut touched: Vec<usize> = ops.iter().map(|&(stripe, ..)| stripe).collect();
        touched.sort_unstable();
        touched.dedup();
        let mut guards: Vec<_> = touched.iter().map(|&s| self.stripes[s].write()).collect();
        for (stripe, key, value) in ops {
            let map = &mut guards[touched.binary_search(&stripe).expect("locked above")];
            match value {
                Some(value) => map.insert(key.to_owned(), value),
                None => map.remove(key),
            };
        }
    }

    /// Returns all keys starting with `prefix` in lexicographic order,
    /// merged across every stripe.
    pub fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        self.keys_in(prefix, Bound::Included(prefix))
    }

    /// Returns the keys starting with `prefix` that sort strictly after
    /// `after`, in lexicographic order; each stripe is ranged, not scanned.
    pub(crate) fn keys_with_prefix_after(&self, prefix: &str, after: &str) -> Vec<String> {
        let start = if after < prefix {
            Bound::Included(prefix)
        } else {
            Bound::Excluded(after)
        };
        self.keys_in(prefix, start)
    }

    fn keys_in(&self, prefix: &str, start: Bound<&str>) -> Vec<String> {
        let mut keys = Vec::new();
        for stripe in &self.stripes {
            let map = stripe.read();
            keys.extend(
                map.range::<str, _>((start, Bound::Unbounded))
                    .take_while(|(k, _)| k.starts_with(prefix))
                    .map(|(k, _)| k.clone()),
            );
        }
        keys.sort_unstable();
        keys
    }

    /// Number of keys stored across all stripes.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.read().len()).sum()
    }

    /// Returns true if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.stripes.iter().all(|s| s.read().is_empty())
    }

    /// Total bytes of stored payloads (keys excluded).
    pub fn payload_bytes(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.read().values().map(|v| v.len()).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn val(s: &str) -> Value {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn point_operations_round_trip_across_stripes() {
        let map = ShardedMap::new(8);
        for i in 0..100 {
            assert!(map.put(&format!("k{i}"), val(&format!("v{i}"))).is_none());
        }
        assert_eq!(map.len(), 100);
        for i in 0..100 {
            assert_eq!(map.get(&format!("k{i}")).unwrap(), val(&format!("v{i}")));
        }
        assert_eq!(map.remove("k0").unwrap(), val("v0"));
        assert!(map.get("k0").is_none());
        assert_eq!(map.len(), 99);
    }

    #[test]
    fn prefix_scan_merges_stripes_in_sorted_order() {
        let map = ShardedMap::new(4);
        for i in [7usize, 3, 11, 1, 9, 5] {
            map.put(&format!("commit/{i:03}"), val("x"));
        }
        map.put("data/other", val("y"));
        let listed = map.keys_with_prefix("commit/");
        let mut sorted = listed.clone();
        sorted.sort();
        assert_eq!(listed, sorted);
        assert_eq!(listed.len(), 6);
        assert!(map.keys_with_prefix("nope/").is_empty());

        // A ranged listing is the tail of the full one.
        for after in [
            "",
            "a",
            "commit/",
            "commit/005",
            "commit/007",
            "commit/011",
            "d",
        ] {
            let tail: Vec<String> = listed
                .iter()
                .filter(|k| k.as_str() > after)
                .cloned()
                .collect();
            assert_eq!(
                map.keys_with_prefix_after("commit/", after),
                tail,
                "{after}"
            );
        }
    }

    #[test]
    fn stripe_mapping_is_stable_and_covers_all_stripes() {
        let stripes = 8;
        let mut seen = std::collections::HashSet::new();
        for i in 0..500 {
            let key = format!("key-{i}");
            assert_eq!(stripe_of(&key, stripes), stripe_of(&key, stripes));
            seen.insert(stripe_of(&key, stripes));
        }
        assert_eq!(seen.len(), stripes, "500 keys must hit every stripe");
    }

    #[test]
    fn zero_stripes_clamps_to_one() {
        let map = ShardedMap::new(0);
        assert_eq!(map.stripe_count(), 1);
        map.put("k", val("v"));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn payload_bytes_sums_across_stripes() {
        let map = ShardedMap::new(8);
        for i in 0..10 {
            map.put(&format!("k{i}"), val("abcd"));
        }
        assert_eq!(map.payload_bytes(), 40);
        assert!(!map.is_empty());
    }
}
