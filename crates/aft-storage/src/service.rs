//! A simulated sharded storage *service* with per-stripe request lanes.
//!
//! A [`SimStore`] models client-observed latency: every call waits out its
//! own sampled delay, so the simulated service has unbounded internal
//! parallelism. That is right for measuring request latency, but it cannot
//! answer the throughput question behind sharding: *what happens when the
//! storage service itself is the bottleneck?*
//!
//! [`SimShardedService`] models exactly that. It is the
//! [`Service::SHARDED_SERVICE`] store plus a single-threaded **request lane**
//! per stripe, like one Redis cluster shard's event loop. A lane is a
//! *timeline* — the instant its executor is booked until. A request books
//! the lane's next free slot, `[max(now, booked until), + its sampled
//! service time)`, and completes when the slot ends, so requests to one
//! stripe queue while requests to different stripes proceed in parallel.
//! With one stripe the whole service serializes — the single-global-lock
//! baseline of the `fig7_throughput_scaling` experiment — and with N stripes
//! the service has N-way internal parallelism, which is precisely what lock
//! striping buys a storage backend.
//!
//! The lane's lock is held for the booking only. The wait for the slot's end
//! is an ordinary simulated latency: slept by a direct caller, handed to the
//! I/O engine as a completion deadline inside [`capture_deferred`], so one
//! thread keeps any number of lanes busy and none is parked on a lane. A
//! batch books one slot per visit — `put_batch` one `MSET` per stripe it
//! touches, `delete_batch` one `DEL` per key — and waits for the lane that
//! finishes last; what it is *charged* is every visit's service time.
//!
//! Because lane occupancy is simulated time, the throughput effects of
//! striping are observable even on a single-core host. Under the virtual
//! clock nothing waits: the lanes are not consulted and a visit charges what
//! the store behind it charges.

use std::sync::Arc;
use std::time::Instant;

use aft_types::{AftResult, Value};
use parking_lot::Mutex;

use crate::counters::StorageStats;
use crate::engine::StorageEngine;
use crate::latency::{capture_deferred, wait_until, LatencyModel};
use crate::profiles::{Service, ServiceProfile};
use crate::sharded::stripe_of;
use crate::store::SimStore;

/// A simulated storage service with N single-threaded request lanes.
pub struct SimShardedService {
    store: SimStore,
    /// One lane per stripe: the instant up to which its executor is booked.
    lanes: Box<[Mutex<Instant>]>,
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
        let idle = Instant::now();
        Arc::new(SimShardedService {
            lanes: (0..store.stripe_count())
                .map(|_| Mutex::new(idle))
                .collect(),
            store,
        })
    }

    fn stripe(&self, key: &str) -> usize {
        stripe_of(key, self.lanes.len())
    }

    /// Makes one store call as a visit to `stripe`'s lane: the call takes
    /// effect now, its service time is booked behind whatever the lane
    /// already holds, and the visit ends when that slot does — now, where the
    /// call waits for nothing (virtual clock, free profile).
    fn visit<T>(
        &self,
        stripe: usize,
        call: impl FnOnce() -> AftResult<T>,
    ) -> AftResult<(T, Instant)> {
        let (out, cost) = capture_deferred(call);
        let mut end = Instant::now();
        if !cost.deferred.is_zero() {
            let mut booked_until = self.lanes[stripe].lock();
            end = end.max(*booked_until) + cost.deferred;
            *booked_until = end;
        }
        Ok((out?, end))
    }

    /// One single-key request: a visit to the lane of `key`, waited out.
    fn serve<T>(&self, key: &str, call: impl FnOnce() -> AftResult<T>) -> AftResult<T> {
        let (out, end) = self.visit(self.stripe(key), call)?;
        wait_until(end);
        Ok(out)
    }

    /// One batch: its visits are issued together, like a cluster client's
    /// pipelined sub-requests, and the caller waits for the last to end.
    fn serve_all(&self, visits: impl Iterator<Item = AftResult<((), Instant)>>) -> AftResult<()> {
        let mut latest = Instant::now();
        for visit in visits {
            latest = latest.max(visit?.1);
        }
        wait_until(latest);
        Ok(())
    }
}

impl StorageEngine for SimShardedService {
    fn name(&self) -> &'static str {
        self.store.name()
    }

    fn get(&self, key: &str) -> AftResult<Option<Value>> {
        self.serve(key, || self.store.get(key))
    }

    fn put(&self, key: &str, value: Value) -> AftResult<()> {
        self.serve(key, || self.store.put(key, value))
    }

    fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()> {
        // The cluster client splits the batch by stripe; each stripe's
        // sub-batch is one `MSET`, cheaper than one visit per key.
        let mut groups = vec![Vec::new(); self.lanes.len()];
        for (k, v) in items {
            groups[self.stripe(&k)].push((k, v));
        }
        let touched = groups
            .into_iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty());
        self.serve_all(
            touched.map(|(stripe, group)| self.visit(stripe, || self.store.put_batch(group))),
        )
    }

    fn delete(&self, key: &str) -> AftResult<()> {
        self.serve(key, || self.store.delete(key))
    }

    fn delete_batch(&self, keys: &[String]) -> AftResult<()> {
        // No multi-key delete: one `DEL` per key. Keys of one stripe queue
        // on its lane, stripes overlap.
        self.serve_all(
            keys.iter()
                .map(|k| self.visit(self.stripe(k), || self.store.delete(k))),
        )
    }

    fn list_prefix(&self, prefix: &str) -> AftResult<Vec<String>> {
        // Scatter-gather scan; charged once, off the transaction hot path
        // (bootstrap, fault manager, GC only).
        self.serve(prefix, || self.store.list_prefix(prefix))
    }

    fn supports_batch_put(&self) -> bool {
        self.store.supports_batch_put()
    }

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

    /// `n` keys that land on `n` different stripes of an `n`-stripe service.
    fn one_key_per_stripe(n: usize) -> Vec<String> {
        let mut keys: Vec<Option<String>> = vec![None; n];
        for i in 0.. {
            let key = format!("key-{i}");
            keys[stripe_of(&key, n)].get_or_insert(key);
            if keys.iter().all(Option::is_some) {
                break;
            }
        }
        keys.into_iter().flatten().collect()
    }

    #[test]
    fn one_thread_books_every_lane_and_waits_for_the_last() {
        use crate::io::{IoConfig, IoEngine, StorageRequest};
        // A fixed 5ms service time, 16 visits made by one thread through the
        // engine, as 16 requests or inside one batch request: on one lane
        // they queue (16 service times), on 16 lanes they overlap (one).
        // Generous bounds keep this stable on loaded CI hosts.
        let each = LatencyProfile::new(5_000.0, 5_000.0);
        let profile = ServiceProfile {
            read: each,
            delete: each,
            ..ServiceProfile::zero()
        };
        let keys = one_key_per_stripe(16);
        let workloads: [(&str, Vec<StorageRequest>); 2] = [
            (
                "16 gets",
                keys.iter().cloned().map(StorageRequest::Get).collect(),
            ),
            (
                "a 16-key delete_batch",
                vec![StorageRequest::DeleteBatch(keys)],
            ),
        ];
        for (what, requests) in workloads {
            let run = |stripes: usize| {
                let svc = SimShardedService::with_stripes(
                    profile,
                    LatencyModel::new(LatencyMode::Sleep, 1.0),
                    1,
                    stripes,
                );
                let engine = IoEngine::new(svc, IoConfig::pipelined());
                let start = Instant::now();
                engine.submit_all(requests.clone()).wait_all().ok().unwrap();
                start.elapsed()
            };
            let many_lanes = run(16);
            assert!(
                many_lanes < Duration::from_millis(40),
                "{what} over 16 lanes must overlap, took {many_lanes:?}"
            );
            let one_lane = run(1);
            assert!(
                one_lane >= Duration::from_millis(72),
                "{what} on one lane must queue, took {one_lane:?}"
            );
        }
    }

    #[test]
    fn the_virtual_clock_charges_what_the_store_behind_the_lanes_charges() {
        use crate::io::{IoConfig, IoEngine, StorageRequest};
        use crate::SharedStorage;
        // Twin seeds: over a virtual clock the lanes are not consulted, so
        // every request is charged exactly what the bare store charges it.
        let model = || LatencyModel::new(LatencyMode::Virtual, 1.0);
        let profile = Service::SHARDED_SERVICE.profile;
        let svc = SimShardedService::with_stripes(profile, model(), 9, 4);
        let bare = Arc::new(SimStore::of(Service::SHARDED_SERVICE, model(), 9, 4));
        let keys = || (0..16).map(|i| format!("k{i}"));
        let requests: Vec<StorageRequest> = keys()
            .map(|k| StorageRequest::Put(k, val("v")))
            .chain(keys().map(StorageRequest::Get))
            .chain([StorageRequest::List("k".into())])
            .chain(keys().map(StorageRequest::Delete))
            .collect();
        let charged = |storage: SharedStorage| {
            let engine = IoEngine::new(storage, IoConfig::pipelined());
            engine.submit_all(requests.clone()).wait_all().costs
        };
        let through_lanes = charged(svc);
        assert!(through_lanes.iter().all(|cost| !cost.is_zero()));
        assert_eq!(through_lanes, charged(bare));
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
