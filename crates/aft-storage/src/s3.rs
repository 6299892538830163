//! A simulated AWS S3.
//!
//! S3 is a throughput-oriented object store. For AFT's key-per-version
//! layout the properties that matter (§6.1.2) are:
//!
//! * high per-object latency — 4–10× slower than DynamoDB/Redis,
//! * very high write-latency variance for small objects (the p99 whiskers in
//!   Figure 3), and
//! * no batch API: every object PUT is its own request.
//!
//! The paper stops using S3 after §6.1.2 because the key-per-version layout
//! is a poor fit for it; the simulator intentionally preserves that poor fit.

use std::sync::Arc;

use aft_types::{AftResult, Value};

use crate::counters::{OpKind, StorageStats};
use crate::engine::StorageEngine;
use crate::latency::{LatencyModel, StripedSampler};
use crate::memory::MemoryMap;
use crate::profiles::ServiceProfile;
use crate::sharded::{stripe_of, DEFAULT_STRIPES};

/// The real service's `DeleteObjects` limit.
pub const S3_DELETE_OBJECTS_LIMIT: usize = 1000;

/// A simulated S3 bucket.
pub struct SimS3 {
    map: MemoryMap,
    profile: ServiceProfile,
    sampler: StripedSampler,
    stats: Arc<StorageStats>,
}

impl SimS3 {
    /// Creates a simulated bucket with the default calibrated profile.
    pub fn new(latency: Arc<LatencyModel>) -> Arc<Self> {
        Self::with_profile(ServiceProfile::s3(), latency, 0x0000_5333)
    }

    /// Creates a simulated bucket with a custom profile and RNG seed.
    pub fn with_profile(
        profile: ServiceProfile,
        latency: Arc<LatencyModel>,
        seed: u64,
    ) -> Arc<Self> {
        Self::with_stripes(profile, latency, seed, DEFAULT_STRIPES)
    }

    /// Creates a simulated bucket with an explicit lock-stripe count for the
    /// data plane and the latency sampler.
    pub fn with_stripes(
        profile: ServiceProfile,
        latency: Arc<LatencyModel>,
        seed: u64,
        stripes: usize,
    ) -> Arc<Self> {
        let map = MemoryMap::with_stripes(stripes);
        let stats = StorageStats::new_shared();
        stats.attach_stripes(map.stripe_counters());
        Arc::new(SimS3 {
            sampler: StripedSampler::new(latency, seed, stripes),
            map,
            profile,
            stats,
        })
    }

    fn inject(&self, profile: &crate::latency::LatencyProfile, key: &str, payload_bytes: usize) {
        // Sample on the stripe's RNG (held only for the sample), sleep outside
        // it: concurrent requests to different stripes never serialise.
        let stripe = stripe_of(key, self.sampler.stripes());
        self.sampler.apply(profile, stripe, payload_bytes);
    }

    /// Number of objects currently stored.
    pub fn object_count(&self) -> usize {
        self.map.len()
    }
}

impl StorageEngine for SimS3 {
    fn name(&self) -> &'static str {
        "s3"
    }

    fn get(&self, key: &str) -> AftResult<Option<Value>> {
        self.stats.record_call(OpKind::Get);
        let value = self.map.get(key);
        let bytes = value.as_ref().map_or(0, |v| v.len());
        self.inject(&self.profile.read, key, bytes);
        if let Some(v) = &value {
            self.stats.record_read_bytes(v.len());
        }
        Ok(value)
    }

    fn put(&self, key: &str, value: Value) -> AftResult<()> {
        self.stats.record_call(OpKind::Put);
        self.stats.record_written_bytes(value.len());
        self.inject(&self.profile.write, key, value.len());
        self.map.put(key, value);
        Ok(())
    }

    fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()> {
        // No batch API: every object is still a separate PUT request (the
        // per-key call counts below are what S3 bills). But a pipelined
        // client issues those PUTs concurrently and waits for the slowest
        // one, so the charged latency is the max of the samples, not their
        // sum. Sequential full-RTT charging survives only in the
        // explicitly-sequential wrapper ([`crate::io::SequentialEngine`]).
        let mut durations = Vec::with_capacity(items.len());
        for (k, v) in items {
            self.stats.record_call(OpKind::Put);
            self.stats.record_written_bytes(v.len());
            let stripe = stripe_of(&k, self.sampler.stripes());
            durations.push(self.sampler.sample(&self.profile.write, stripe, v.len()));
            self.map.put(&k, v);
        }
        self.sampler.model().finish_batch(&durations);
        Ok(())
    }

    fn delete(&self, key: &str) -> AftResult<()> {
        self.stats.record_call(OpKind::Delete);
        self.inject(&self.profile.delete, key, 0);
        self.map.remove(key);
        Ok(())
    }

    fn delete_batch(&self, keys: &[String]) -> AftResult<()> {
        // S3 does offer DeleteObjects, up to 1000 keys per call; garbage
        // collection uses it. Like put_batch, the calls of one batch are
        // issued concurrently and charged as their slowest.
        let mut durations = Vec::with_capacity(keys.len().div_ceil(S3_DELETE_OBJECTS_LIMIT));
        for chunk in keys.chunks(S3_DELETE_OBJECTS_LIMIT) {
            self.stats.record_call(OpKind::BatchDelete);
            let stripe = stripe_of(&chunk[0], self.sampler.stripes());
            durations.push(self.sampler.sample(&self.profile.delete, stripe, 0));
            for k in chunk {
                self.map.remove(k);
            }
        }
        self.sampler.model().finish_batch(&durations);
        Ok(())
    }

    fn list_prefix(&self, prefix: &str) -> AftResult<Vec<String>> {
        self.stats.record_call(OpKind::List);
        self.inject(&self.profile.list, prefix, 0);
        Ok(self.map.keys_with_prefix(prefix))
    }

    fn supports_batch_put(&self) -> bool {
        false
    }

    fn supports_deferred_latency(&self) -> bool {
        // The sampled latency models the client-observed network round trip,
        // so an I/O engine may apply it as a deferred completion.
        true
    }

    fn stats(&self) -> Arc<StorageStats> {
        Arc::clone(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn bucket() -> Arc<SimS3> {
        SimS3::with_profile(ServiceProfile::zero(), LatencyModel::disabled(), 3)
    }

    fn val(s: &str) -> Value {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn object_round_trip() {
        let s3 = bucket();
        s3.put("data/k/001", val("payload")).unwrap();
        assert_eq!(s3.get("data/k/001").unwrap().unwrap(), val("payload"));
        assert_eq!(s3.object_count(), 1);
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
    fn batch_put_charges_overlapped_latency_not_the_sum() {
        use crate::latency::{measure_cost, LatencyMode};
        use std::time::Duration;
        let model = LatencyModel::new(LatencyMode::Virtual, 1.0);
        let s3 = SimS3::with_profile(ServiceProfile::s3(), Arc::clone(&model), 11);
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
        assert!(s3.supports_deferred_latency());
    }

    #[test]
    fn delete_batch_is_one_call() {
        let s3 = bucket();
        s3.put("a", val("1")).unwrap();
        s3.put("b", val("2")).unwrap();
        s3.delete_batch(&["a".into(), "b".into()]).unwrap();
        assert_eq!(s3.object_count(), 0);
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
