//! The S3 row: [`Service::S3`](crate::Service::S3).
//!
//! S3 is a throughput-oriented object store. For AFT's key-per-version
//! layout the properties that matter (§6.1.2) are:
//!
//! * high per-object latency — 4–10× slower than DynamoDB/Redis,
//! * very high write-latency variance for small objects (the p99 whiskers in
//!   Figure 3), and
//! * no batch read or write: every object GET or PUT is its own request (a
//!   pipelined client issues a write set's PUTs together and waits for the
//!   slowest), while `DeleteObjects` — which garbage collection uses —
//!   carries 1000 keys.
//!
//! The paper stops using S3 after §6.1.2 because the key-per-version layout
//! is a poor fit for it; the row intentionally preserves that poor fit.

#[cfg(test)]
mod tests {
    use crate::counters::OpKind;
    use crate::engine::StorageEngine;
    use crate::latency::LatencyModel;
    use crate::profiles::Service;
    use crate::sharded::DEFAULT_STRIPES;
    use crate::store::SimStore;
    use aft_types::Value;
    use bytes::Bytes;

    fn bucket() -> SimStore {
        SimStore::of(Service::S3, LatencyModel::disabled(), 3, DEFAULT_STRIPES)
    }

    fn val(s: &str) -> Value {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn object_round_trip() {
        let s3 = bucket();
        s3.put("data/k/001", val("payload")).unwrap();
        assert_eq!(s3.get("data/k/001").unwrap().unwrap(), val("payload"));
        assert_eq!(s3.len(), 1);
        s3.delete("data/k/001").unwrap();
        assert!(s3.get("data/k/001").unwrap().is_none());
    }

    #[test]
    fn batch_put_degenerates_to_sequential_puts() {
        let s3 = bucket();
        s3.put_batch(vec![("a".into(), val("1")), ("b".into(), val("2"))])
            .unwrap();
        assert_eq!(s3.stats().calls(OpKind::Put), 2);
        assert_eq!(s3.stats().calls(OpKind::BatchPut), 0);
        assert!(!s3.supports_batch_put());
    }

    #[test]
    fn batch_get_degenerates_to_one_get_per_key() {
        let s3 = bucket();
        s3.put("a", val("1")).unwrap();
        let keys = ["a".to_owned(), "b".to_owned(), "a".to_owned()];
        assert_eq!(
            s3.get_batch(&keys).unwrap(),
            vec![Some(val("1")), None, Some(val("1"))]
        );
        assert_eq!(s3.stats().calls(OpKind::Get), 3);
        assert_eq!(s3.stats().calls(OpKind::BatchGet), 0);
        assert!(!s3.supports_batch_get());
    }

    #[test]
    fn batch_put_charges_overlapped_latency_not_the_sum() {
        use crate::latency::{measure_cost, LatencyMode};
        use std::time::Duration;
        let model = LatencyModel::new(LatencyMode::Virtual, 1.0);
        let s3 = SimStore::of(Service::S3, model, 11, DEFAULT_STRIPES);
        let items: Vec<(String, Value)> = (0..8).map(|i| (format!("k{i}"), val("v"))).collect();
        let ((), batch_cost) = measure_cost(|| s3.put_batch(items).unwrap());
        // Per-key charging still counts eight PUT API calls...
        assert_eq!(s3.stats().calls(OpKind::Put), 8);
        // ...but a pipelined client pays the slowest sample, not the sum: the
        // batch must cost far less than eight median S3 writes.
        let sum_floor = Duration::from_micros((8.0 * 28_000.0 * 0.6) as u64);
        assert!(
            batch_cost < sum_floor,
            "batch cost {batch_cost:?} looks like sequential sum charging"
        );
        assert!(batch_cost >= Duration::from_millis(5), "one RTT at least");
    }

    #[test]
    fn delete_batch_is_one_call() {
        let s3 = bucket();
        s3.put("a", val("1")).unwrap();
        s3.put("b", val("2")).unwrap();
        s3.delete_batch(&["a".into(), "b".into()]).unwrap();
        assert_eq!(s3.len(), 0);
        assert_eq!(s3.stats().calls(OpKind::BatchDelete), 1);

        // DeleteObjects takes at most 1000 keys: 2500 are three calls.
        let keys: Vec<String> = (0..2_500).map(|i| format!("k{i}")).collect();
        s3.delete_batch(&keys).unwrap();
        assert_eq!(s3.stats().calls(OpKind::BatchDelete), 1 + 3);
    }

    #[test]
    fn list_prefix_is_sorted() {
        let s3 = bucket();
        for k in ["commit/3", "commit/1", "commit/2"] {
            s3.put(k, val("x")).unwrap();
        }
        assert_eq!(
            s3.list_prefix("commit/").unwrap(),
            vec!["commit/1", "commit/2", "commit/3"]
        );
    }
}
