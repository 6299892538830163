//! Backend selection and construction.
//!
//! The evaluation runs the same workloads over several storage services; the
//! harness selects them by [`BackendKind`] and builds them through
//! [`make_backend`] so every experiment shares one construction path (and one
//! place to configure latency scale and injection mode).

use std::sync::Arc;

use crate::engine::SharedStorage;
use crate::latency::{LatencyMode, LatencyModel};
use crate::profiles::Service;
use crate::store::SimStore;

/// The storage services the reproduction can run over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Zero-latency in-memory store (tests and protocol microbenchmarks).
    Memory,
    /// Simulated AWS S3.
    S3,
    /// Simulated AWS DynamoDB.
    DynamoDb,
    /// Simulated Redis cluster (AWS ElastiCache).
    Redis,
}

impl BackendKind {
    /// All benchmarkable backends, in the order the paper presents them.
    pub const EVALUATED: [BackendKind; 3] =
        [BackendKind::S3, BackendKind::DynamoDb, BackendKind::Redis];

    /// Human-readable label used in benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Memory => "Memory",
            BackendKind::S3 => "S3",
            BackendKind::DynamoDb => "DynamoDB",
            BackendKind::Redis => "Redis",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration for building a simulated backend.
#[derive(Debug, Clone, Copy)]
pub struct BackendConfig {
    /// Which service to simulate.
    pub kind: BackendKind,
    /// Whether sampled latencies sleep or are only recorded.
    pub mode: LatencyMode,
    /// Global latency scale factor (1.0 = the calibrated full-scale values;
    /// the harness typically uses 0.02–0.1 to compress wall-clock time).
    pub scale: f64,
    /// RNG seed for the backend's latency sampler.
    pub seed: u64,
}

impl BackendConfig {
    /// A configuration with realistic sleeping latency at the given scale.
    pub fn simulated(kind: BackendKind, scale: f64) -> Self {
        BackendConfig {
            kind,
            mode: LatencyMode::Sleep,
            scale,
            seed: 0xAF7,
        }
    }

    /// A zero-latency configuration for unit tests.
    pub fn test(kind: BackendKind) -> Self {
        BackendConfig {
            mode: LatencyMode::Virtual,
            ..Self::simulated(kind, 0.0)
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Builds a storage engine according to `config` — the one place a
/// [`BackendKind`] meets its [`Service`] row: the shared [`SimStore`] over
/// that row, placed on the row's own stripes.
pub fn make_backend(config: BackendConfig) -> SharedStorage {
    let latency = LatencyModel::new(config.mode, config.scale);
    let service = match config.kind {
        BackendKind::Memory => Service::MEMORY,
        BackendKind::S3 => Service::S3,
        BackendKind::DynamoDb => Service::DYNAMODB,
        BackendKind::Redis => Service::REDIS,
    };
    Arc::new(SimStore::of(service, latency, config.seed, service.stripes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn every_backend_kind_constructs_and_works() {
        for kind in [
            BackendKind::Memory,
            BackendKind::S3,
            BackendKind::DynamoDb,
            BackendKind::Redis,
        ] {
            let store = make_backend(BackendConfig::test(kind));
            store.put("k", Bytes::from_static(b"v")).unwrap();
            assert_eq!(
                store.get("k").unwrap().unwrap(),
                Bytes::from_static(b"v"),
                "backend {kind} failed a round trip"
            );
        }
    }

    #[test]
    fn services_bill_batches_by_their_call_limits() {
        use crate::counters::OpKind::{BatchDelete, BatchPut, Delete, Put};
        // 60 puts and 2 500 deletes in one batch each, as
        // (Put, BatchPut, Delete, BatchDelete) API calls. The keys carry no
        // slot tag, so on Redis each is alone in its slot.
        let table = [
            (BackendKind::Memory, [0, 1, 0, 1]),
            (BackendKind::S3, [60, 0, 0, 3]),
            (BackendKind::DynamoDb, [0, 3, 0, 100]),
            (BackendKind::Redis, [60, 0, 2_500, 0]),
        ];
        let items: Vec<_> = (0..60)
            .map(|i| (format!("k{i}"), Bytes::from_static(b"v")))
            .collect();
        let keys: Vec<String> = (0..2_500).map(|i| format!("k{i}")).collect();
        for (kind, expected) in table {
            let store = make_backend(BackendConfig::test(kind));
            // An empty batch is no call at all, on every service.
            store.put_batch(Vec::new()).unwrap();
            store.delete_batch(&[]).unwrap();
            assert_eq!(store.stats().total_calls(), 0, "{kind}: empty batches");
            store.put_batch(items.clone()).unwrap();
            store.delete_batch(&keys).unwrap();
            let stats = store.stats();
            assert_eq!(
                [Put, BatchPut, Delete, BatchDelete].map(|op| stats.calls(op)),
                expected,
                "{kind}: (Put, BatchPut, Delete, BatchDelete)"
            );
            assert!(store.list_prefix("k").unwrap().is_empty(), "{kind}");
        }
    }

    #[test]
    fn labels_and_batch_support_match_the_paper() {
        assert_eq!(BackendKind::DynamoDb.label(), "DynamoDB");
        let dynamo = make_backend(BackendConfig::test(BackendKind::DynamoDb));
        let redis = make_backend(BackendConfig::test(BackendKind::Redis));
        let s3 = make_backend(BackendConfig::test(BackendKind::S3));
        assert!(dynamo.supports_batch_put());
        assert!(redis.supports_batch_put(), "MSET, within one slot");
        assert!(!s3.supports_batch_put());
    }

    #[test]
    fn make_backend_places_each_row_on_its_own_stripes() {
        use crate::io::{IoConfig, IoEngine, StorageRequest};
        use crate::latency::measure_cost;
        // Every call draws its latency from the RNG of its key's stripe, so a
        // fixed script charges the same costs, request by request, as a twin
        // store only if both place keys on the same number of stripes.
        let keys = |n: usize| (0..n).map(|i| format!("k{i}"));
        let script: Vec<StorageRequest> = keys(64)
            .map(|k| StorageRequest::Put(k, Bytes::from_static(b"v")))
            .chain(keys(64).map(StorageRequest::Get))
            .chain(keys(16).map(StorageRequest::Delete))
            .collect();
        let charged = |storage: SharedStorage| {
            let engine = IoEngine::new(storage, IoConfig::sequential());
            let run = |request: &StorageRequest| engine.execute(request.clone());
            let costs = script.iter().map(|request| measure_cost(|| run(request)).1);
            costs.collect::<Vec<_>>()
        };
        let seed = 0x57A;
        for (kind, service, stripes) in [
            (BackendKind::S3, Service::S3, 16),
            (BackendKind::DynamoDb, Service::DYNAMODB, 16),
            (BackendKind::Redis, Service::REDIS, 2),
        ] {
            let built = make_backend(BackendConfig {
                mode: LatencyMode::Virtual,
                ..BackendConfig::simulated(kind, 1.0).with_seed(seed)
            });
            let model = LatencyModel::new(LatencyMode::Virtual, 1.0);
            let twin = Arc::new(SimStore::of(service, model, seed, stripes));
            let costs = charged(built);
            assert!(
                costs.iter().all(|c| !c.is_zero()),
                "{kind}: every call charges"
            );
            assert_eq!(costs, charged(twin), "{kind} on {stripes} stripes");
        }
    }

    #[test]
    fn evaluated_list_is_s3_dynamo_redis() {
        assert_eq!(
            BackendKind::EVALUATED,
            [BackendKind::S3, BackendKind::DynamoDb, BackendKind::Redis]
        );
    }
}
