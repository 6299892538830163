//! The memory row: [`Service::MEMORY`](crate::Service::MEMORY) — zero
//! latency, unlimited batches — for unit tests and protocol-only benchmarks.

use crate::store::SimStore;

/// A zero-latency [`SimStore`]: what `InMemoryStore::new()` and
/// `InMemoryStore::shared()` build.
pub type InMemoryStore = SimStore;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::OpKind;
    use crate::engine::StorageEngine;
    use crate::latency::LatencyModel;
    use crate::profiles::Service;
    use crate::sharded::ShardedMap;
    use aft_types::Value;
    use bytes::Bytes;

    fn val(s: &str) -> Value {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn put_get_delete_round_trip() {
        let store = InMemoryStore::new();
        assert!(store.get("k").unwrap().is_none());
        store.put("k", val("v1")).unwrap();
        assert_eq!(store.get("k").unwrap().unwrap(), val("v1"));
        store.put("k", val("v2")).unwrap();
        assert_eq!(store.get("k").unwrap().unwrap(), val("v2"));
        store.delete("k").unwrap();
        assert!(store.get("k").unwrap().is_none());
        // Deleting a missing key is not an error.
        store.delete("k").unwrap();
    }

    #[test]
    fn batch_put_stores_everything_in_one_call() {
        let store = InMemoryStore::new();
        store
            .put_batch(vec![
                ("a".into(), val("1")),
                ("b".into(), val("2")),
                ("c".into(), val("3")),
            ])
            .unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.stats().calls(OpKind::BatchPut), 1);
        assert_eq!(store.stats().calls(OpKind::Put), 0);
    }

    #[test]
    fn list_prefix_returns_sorted_matches_only() {
        let store = InMemoryStore::new();
        for k in ["commit/002", "commit/001", "data/k/001", "commit/010"] {
            store.put(k, val("x")).unwrap();
        }
        let listed = store.list_prefix("commit/").unwrap();
        assert_eq!(listed, vec!["commit/001", "commit/002", "commit/010"]);
        assert!(store.list_prefix("nothing/").unwrap().is_empty());
    }

    #[test]
    fn delete_batch_removes_all() {
        let store = InMemoryStore::new();
        store.put("a", val("1")).unwrap();
        store.put("b", val("2")).unwrap();
        store
            .delete_batch(&["a".to_owned(), "b".to_owned(), "missing".to_owned()])
            .unwrap();
        assert!(store.is_empty());
    }

    #[test]
    fn memory_map_prefix_scan_is_exact() {
        let map = ShardedMap::default();
        map.put("ab", val("1"));
        map.put("abc", val("2"));
        map.put("abd", val("3"));
        map.put("ac", val("4"));
        assert_eq!(map.keys_with_prefix("ab"), vec!["ab", "abc", "abd"]);
        assert_eq!(map.keys_with_prefix("abc"), vec!["abc"]);
        assert_eq!(map.payload_bytes(), 4);
    }

    #[test]
    fn striped_and_single_stripe_stores_behave_identically() {
        let memory = |stripes| SimStore::of(Service::MEMORY, LatencyModel::disabled(), 0, stripes);
        let (striped, single) = (memory(8), memory(1));
        assert_eq!(striped.stripe_count(), 8);
        assert_eq!(single.stripe_count(), 1);
        for store in [&striped, &single] {
            for i in 0..50 {
                store.put(&format!("data/k/{i:03}"), val("x")).unwrap();
            }
        }
        assert_eq!(
            striped.list_prefix("data/").unwrap(),
            single.list_prefix("data/").unwrap()
        );
        assert_eq!(striped.len(), single.len());
    }

    #[test]
    fn stats_track_bytes() {
        let store = InMemoryStore::new();
        store.put("k", val("hello")).unwrap();
        store.get("k").unwrap();
        let snap = store.stats().snapshot();
        assert_eq!(snap.bytes_written, 5);
        assert_eq!(snap.bytes_read, 5);
    }
}
