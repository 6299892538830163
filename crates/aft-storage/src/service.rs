//! A simulated sharded storage *service* with per-stripe request lanes.
//!
//! A [`SimStore`] models client-observed latency: it samples a delay and
//! waits it out *outside* any lock, so the simulated service has unbounded
//! internal parallelism. That is right for measuring request latency, but it
//! cannot answer the throughput question behind sharding: *what happens when
//! the storage service itself is the bottleneck?*
//!
//! [`SimShardedService`] models exactly that. It is the
//! [`Service::SHARDED_SERVICE`] store plus a single-threaded **request lane**
//! per stripe, like one Redis cluster shard's event loop: a request occupies
//! its stripe's lane for the whole sampled service time, so requests to the
//! same stripe queue while requests to different stripes proceed in
//! parallel. With one stripe the whole service serializes — the
//! single-global-lock baseline of the `fig7_throughput_scaling` experiment —
//! and with N stripes the service has N-way internal parallelism, which is
//! precisely what lock striping buys a storage backend.
//!
//! Because lane occupancy is simulated (sleeping) time, the throughput
//! effects of striping are observable even on a single-core host: the
//! experiment measures the architecture's parallelism, not the host's.

use std::sync::Arc;

use aft_types::{AftResult, Value};
use parking_lot::{Mutex, MutexGuard};

use crate::counters::StorageStats;
use crate::engine::StorageEngine;
use crate::latency::LatencyModel;
use crate::profiles::{Service, ServiceProfile};
use crate::sharded::stripe_of;
use crate::store::SimStore;

/// A simulated storage service with N single-threaded request lanes.
pub struct SimShardedService {
    store: SimStore,
    /// One lane per stripe, held while the store serves a request of that
    /// stripe — the store's wait for the service time included, which is why
    /// this engine never defers its latency.
    lanes: Box<[Mutex<()>]>,
}

impl SimShardedService {
    /// Creates a service with `stripes` lanes (clamped to ≥ 1).
    pub fn with_stripes(
        profile: ServiceProfile,
        latency: Arc<LatencyModel>,
        seed: u64,
        stripes: usize,
    ) -> Arc<Self> {
        let service = Service {
            profile,
            ..Service::SHARDED_SERVICE
        };
        let store = SimStore::of(service, latency, seed, stripes);
        Arc::new(SimShardedService {
            lanes: (0..store.stripe_count()).map(|_| Mutex::new(())).collect(),
            store,
        })
    }

    /// Occupies the lane of `key`'s stripe.
    fn lane(&self, key: &str) -> MutexGuard<'_, ()> {
        self.lanes[stripe_of(key, self.lanes.len())].lock()
    }
}

impl StorageEngine for SimShardedService {
    fn name(&self) -> &'static str {
        self.store.name()
    }

    fn get(&self, key: &str) -> AftResult<Option<Value>> {
        let _busy = self.lane(key);
        self.store.get(key)
    }

    fn put(&self, key: &str, value: Value) -> AftResult<()> {
        let _busy = self.lane(key);
        self.store.put(key, value)
    }

    fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()> {
        // One service visit per stripe the batch touches: the batch is split
        // by the cluster client, and each stripe's sub-batch is one `MSET`
        // (cheaper than one visit per key). Like a real cluster client,
        // sub-batches for different stripes are issued concurrently
        // (pipelined), so a batch occupies each lane once, not the caller for
        // the sum of all lanes.
        let mut groups = vec![Vec::new(); self.lanes.len()];
        for (k, v) in items {
            groups[stripe_of(&k, self.lanes.len())].push((k, v));
        }
        groups.retain(|group| !group.is_empty());
        let visit = |group: Vec<(String, Value)>| {
            let _busy = self.lane(&group[0].0);
            self.store.put_batch(group)
        };
        if groups.len() <= 1 {
            return groups.pop().map_or(Ok(()), visit);
        }
        std::thread::scope(|scope| {
            let visits: Vec<_> = groups
                .into_iter()
                .map(|group| scope.spawn(|| visit(group)))
                .collect();
            visits
                .into_iter()
                .try_for_each(|v| v.join().expect("a lane visit panicked"))
        })
    }

    fn delete(&self, key: &str) -> AftResult<()> {
        let _busy = self.lane(key);
        self.store.delete(key)
    }

    fn delete_batch(&self, keys: &[String]) -> AftResult<()> {
        keys.iter().try_for_each(|k| self.delete(k))
    }

    fn list_prefix(&self, prefix: &str) -> AftResult<Vec<String>> {
        // Scatter-gather scan; charged once, off the transaction hot path
        // (bootstrap, fault manager, GC only).
        let _busy = self.lane(prefix);
        self.store.list_prefix(prefix)
    }

    fn supports_batch_put(&self) -> bool {
        self.store.supports_batch_put()
    }

    // `supports_deferred_latency` stays at the trait's `false`: deferring the
    // sleep to the caller would free the lane early and erase the queueing
    // the scaling experiments measure.

    fn stats(&self) -> Arc<StorageStats> {
        self.store.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::OpKind;
    use crate::latency::{LatencyMode, LatencyProfile};
    use bytes::Bytes;
    use std::time::{Duration, Instant};

    fn val(s: &str) -> Value {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn quiet(stripes: usize) -> Arc<SimShardedService> {
        SimShardedService::with_stripes(
            ServiceProfile::zero(),
            LatencyModel::disabled(),
            1,
            stripes,
        )
    }

    #[test]
    fn round_trip_and_prefix_scan() {
        let svc = quiet(4);
        for i in 0..20 {
            svc.put(&format!("data/k/{i:02}"), val("v")).unwrap();
        }
        assert_eq!(svc.store.len(), 20);
        assert_eq!(svc.get("data/k/00").unwrap().unwrap(), val("v"));
        let listed = svc.list_prefix("data/").unwrap();
        assert_eq!(listed.len(), 20);
        let mut sorted = listed.clone();
        sorted.sort();
        assert_eq!(listed, sorted);
        svc.delete("data/k/00").unwrap();
        assert!(svc.get("data/k/00").unwrap().is_none());
    }

    #[test]
    fn batch_put_visits_each_stripe_once() {
        let svc = quiet(4);
        let items: Vec<(String, Value)> = (0..40).map(|i| (format!("k{i}"), val("v"))).collect();
        svc.put_batch(items).unwrap();
        assert_eq!(svc.store.len(), 40);
        // At most one BatchPut call per stripe.
        assert!(svc.stats().calls(OpKind::BatchPut) <= 4);
        assert_eq!(svc.stats().stripe_counts().iter().sum::<u64>(), 40);
    }

    #[test]
    fn lanes_serialize_same_stripe_and_parallelize_different_stripes() {
        // With one lane, two concurrent ops must take ~2x the service time;
        // with many lanes they overlap. Generous bounds keep this stable on
        // loaded CI hosts.
        let profile = ServiceProfile {
            read: LatencyProfile::new(20_000.0, 20_000.0),
            ..ServiceProfile::zero()
        };
        let serial = SimShardedService::with_stripes(
            profile,
            LatencyModel::new(LatencyMode::Sleep, 1.0),
            1,
            1,
        );
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..2 {
                let svc = Arc::clone(&serial);
                scope.spawn(move || svc.get(&format!("k{t}")).unwrap());
            }
        });
        let one_lane = start.elapsed();
        assert!(
            one_lane >= Duration::from_millis(36),
            "two 20ms requests on one lane must serialize, took {one_lane:?}"
        );

        let parallel = SimShardedService::with_stripes(
            profile,
            LatencyModel::new(LatencyMode::Sleep, 1.0),
            1,
            16,
        );
        // Pick two keys on different stripes.
        let k1 = "key-0".to_owned();
        let k2 = (1..100)
            .map(|i| format!("key-{i}"))
            .find(|k| stripe_of(k, 16) != stripe_of(&k1, 16))
            .expect("some key lands on another stripe");
        let start = Instant::now();
        std::thread::scope(|scope| {
            for key in [k1, k2] {
                let svc = Arc::clone(&parallel);
                scope.spawn(move || svc.get(&key).unwrap());
            }
        });
        let many_lanes = start.elapsed();
        assert!(
            many_lanes < Duration::from_millis(36),
            "requests to different lanes must overlap, took {many_lanes:?}"
        );
    }

    #[test]
    fn virtual_mode_is_fast_but_records() {
        let svc = SimShardedService::with_stripes(
            Service::REDIS.profile,
            LatencyModel::new(LatencyMode::Virtual, 1.0),
            1,
            8,
        );
        let start = Instant::now();
        for i in 0..100 {
            svc.put(&format!("k{i}"), val("v")).unwrap();
        }
        assert!(start.elapsed() < Duration::from_millis(500));
        assert!(svc.stats().stripe_counts().iter().sum::<u64>() == 100);
    }
}
