//! A simulated sharded storage *service* with per-stripe request lanes.
//!
//! The other simulators ([`SimS3`](crate::SimS3), [`SimDynamo`](crate::SimDynamo),
//! [`SimRedis`](crate::SimRedis)) model client-observed latency: they sample a
//! delay and sleep *outside* any data lock, so the simulated service has
//! unbounded internal parallelism. That is right for measuring request
//! latency, but it cannot answer the throughput question behind sharding:
//! *what happens when the storage service itself is the bottleneck?*
//!
//! [`SimShardedService`] models exactly that. It is the memory data plane
//! ([`ShardedMap`]-style striping) plus a single-threaded **request lane**
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

use std::collections::BTreeMap;
use std::sync::Arc;

use aft_types::{AftResult, Value};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::counters::{OpKind, StorageStats, StripeCounters};
use crate::engine::StorageEngine;
use crate::latency::{LatencyModel, LatencyProfile};
use crate::profiles::ServiceProfile;
use crate::sharded::stripe_of;

/// One service stripe: its keys, its RNG, and (implicitly) its request lane
/// — the mutex itself, held for the duration of each request's service time.
struct Lane {
    data: BTreeMap<String, Value>,
    rng: StdRng,
}

/// A simulated storage service with N single-threaded request lanes.
pub struct SimShardedService {
    lanes: Box<[Mutex<Lane>]>,
    profile: ServiceProfile,
    latency: Arc<LatencyModel>,
    stats: Arc<StorageStats>,
    counters: Arc<StripeCounters>,
}

impl SimShardedService {
    /// Creates a service with `stripes` lanes (clamped to ≥ 1).
    pub fn with_stripes(
        profile: ServiceProfile,
        latency: Arc<LatencyModel>,
        seed: u64,
        stripes: usize,
    ) -> Arc<Self> {
        let stripes = stripes.max(1);
        let stats = StorageStats::new_shared();
        let counters = StripeCounters::new(stripes);
        stats.attach_stripes(Arc::clone(&counters));
        Arc::new(SimShardedService {
            lanes: (0..stripes)
                .map(|i| {
                    Mutex::new(Lane {
                        data: BTreeMap::new(),
                        rng: StdRng::seed_from_u64(seed.wrapping_add(i as u64)),
                    })
                })
                .collect(),
            profile,
            latency,
            stats,
            counters,
        })
    }

    /// A default-profile service: Redis-like per-operation cost.
    pub fn redis_like(latency: Arc<LatencyModel>, stripes: usize) -> Arc<Self> {
        Self::with_stripes(ServiceProfile::redis(), latency, 0x5E4_71CE, stripes)
    }

    /// Number of request lanes.
    pub fn stripe_count(&self) -> usize {
        self.lanes.len()
    }

    /// Total keys stored across all lanes.
    pub fn item_count(&self) -> usize {
        self.lanes.iter().map(|l| l.lock().data.len()).sum()
    }

    /// Runs `op` on `key`'s lane after occupying the lane for the sampled
    /// service time of `profile` — the whole point of this simulator: the
    /// lane is busy (locked) while the request is being serviced.
    fn serve<T>(
        &self,
        key: &str,
        profile: &LatencyProfile,
        payload_bytes: usize,
        op: impl FnOnce(&mut BTreeMap<String, Value>) -> T,
    ) -> T {
        let stripe = stripe_of(key, self.lanes.len());
        self.counters.record(stripe);
        let mut lane = self.lanes[stripe].lock();
        let duration = self.latency.sample(profile, &mut lane.rng, payload_bytes);
        // Sleep (or record, in Virtual mode) while holding the lane: this
        // request occupies the stripe's single-threaded executor.
        self.latency.finish(duration);
        op(&mut lane.data)
    }
}

impl StorageEngine for SimShardedService {
    fn name(&self) -> &'static str {
        "sharded-service"
    }

    fn get(&self, key: &str) -> AftResult<Option<Value>> {
        self.stats.record_call(OpKind::Get);
        let value = self.serve(key, &self.profile.read, 0, |data| data.get(key).cloned());
        if let Some(v) = &value {
            self.stats.record_read_bytes(v.len());
        }
        Ok(value)
    }

    fn put(&self, key: &str, value: Value) -> AftResult<()> {
        self.stats.record_call(OpKind::Put);
        self.stats.record_written_bytes(value.len());
        let len = value.len();
        self.serve(key, &self.profile.write, len, |data| {
            data.insert(key.to_owned(), value)
        });
        Ok(())
    }

    fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()> {
        // One service visit per stripe the batch touches: the batch is split
        // by the cluster client, and each stripe's sub-batch costs the batch
        // base plus a per-item increment (cheaper than one visit per key).
        // Like a real cluster client, sub-batches for different stripes are
        // issued concurrently (pipelined), so a batch occupies each lane
        // once, not the caller for the sum of all lanes.
        let mut by_stripe: Vec<Vec<(String, Value)>> = Vec::new();
        by_stripe.resize_with(self.lanes.len(), Vec::new);
        for (k, v) in items {
            by_stripe[stripe_of(&k, self.lanes.len())].push((k, v));
        }
        let write_group = |group: Vec<(String, Value)>| {
            let Some((first_key, _)) = group.first() else {
                return;
            };
            self.stats.record_call(OpKind::BatchPut);
            let payload: usize = group.iter().map(|(_, v)| v.len()).sum();
            let per_item = self.profile.batch_write_per_item_us * group.len() as f64;
            let mut profile = self.profile.batch_write_base;
            profile.median_us += per_item;
            profile.p99_us += per_item;
            let first_key = first_key.clone();
            self.serve(&first_key, &profile, payload, |data| {
                for (k, v) in group {
                    self.stats.record_written_bytes(v.len());
                    data.insert(k, v);
                }
            });
        };
        let mut groups: Vec<Vec<(String, Value)>> =
            by_stripe.into_iter().filter(|g| !g.is_empty()).collect();
        if groups.len() <= 1 {
            if let Some(group) = groups.pop() {
                write_group(group);
            }
            return Ok(());
        }
        let write_group = &write_group;
        std::thread::scope(|scope| {
            for group in groups {
                scope.spawn(move || write_group(group));
            }
        });
        Ok(())
    }

    fn delete(&self, key: &str) -> AftResult<()> {
        self.stats.record_call(OpKind::Delete);
        self.serve(key, &self.profile.delete, 0, |data| data.remove(key));
        Ok(())
    }

    fn delete_batch(&self, keys: &[String]) -> AftResult<()> {
        for k in keys {
            self.delete(k)?;
        }
        Ok(())
    }

    fn list_prefix(&self, prefix: &str) -> AftResult<Vec<String>> {
        // Scatter-gather scan; charged once, off the transaction hot path
        // (bootstrap, fault manager, GC only).
        self.stats.record_call(OpKind::List);
        let mut keys = Vec::new();
        for (i, lane) in self.lanes.iter().enumerate() {
            self.counters.record(i);
            let mut lane = lane.lock();
            if i == 0 {
                // Charge the scan once, on lane 0 only: sampling on every
                // lane would perturb each lane's deterministic RNG stream
                // with the frequency of off-hot-path scans.
                let duration = self.latency.sample(&self.profile.list, &mut lane.rng, 0);
                self.latency.finish(duration);
            }
            keys.extend(
                lane.data
                    .range(prefix.to_owned()..)
                    .take_while(|(k, _)| k.starts_with(prefix))
                    .map(|(k, _)| k.clone()),
            );
        }
        keys.sort_unstable();
        Ok(keys)
    }

    fn supports_batch_put(&self) -> bool {
        true
    }

    fn supports_deferred_latency(&self) -> bool {
        // Deliberately false (the trait default, restated for emphasis): the
        // whole point of this simulator is that a request *occupies its lane*
        // for the service time. Deferring the sleep to the caller would
        // free the lane early and erase the queueing the scaling experiments
        // measure.
        false
    }

    fn stats(&self) -> Arc<StorageStats> {
        Arc::clone(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::LatencyMode;
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
        assert_eq!(svc.item_count(), 20);
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
        assert_eq!(svc.item_count(), 40);
        // At most one BatchPut call per stripe.
        assert!(svc.stats().calls(OpKind::BatchPut) <= 4);
        assert_eq!(svc.stats().stripe_counts().iter().sum::<u64>(), 4);
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
            ServiceProfile::redis(),
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
