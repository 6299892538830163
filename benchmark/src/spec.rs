//! The four workloads and how each one's deployment is stood up.

use std::sync::Arc;
use std::time::Duration;

use aft_cluster::{Cluster, ClusterConfig};
use aft_core::api::AftApi;
use aft_core::NodeConfig;
use aft_faas::{FaasPlatform, PlatformConfig, RetryPolicy};
use aft_net::{AftClient, AftServer};
use aft_storage::{make_backend, BackendConfig, BackendKind, SharedStorage};
use aft_types::AftResult;
use aft_workload::{AftDriver, RequestDriver, WorkloadConfig};

use crate::large::LargeDriver;
use crate::trace::{Layer, RoutedApi, TracedApi, TracedStorage};

/// Closed-loop client threads (= cores of the reference host). Closed loop
/// because every FaaS function waits for the shim's reply before it goes on.
pub const CLIENTS: usize = 2;
/// Transactions per window of the measured phase. The client that draws the
/// middle transaction of a window first runs one
/// `Cluster::run_maintenance_round`, so dissemination and GC work scale with
/// the count of transactions and not with elapsed time, and every window
/// holds the same work.
pub const WINDOW: u64 = 512;
/// Warm-up transactions as a share of the measured count.
pub const WARMUP_SHARE: f64 = 0.25;

/// The layer that must do most of a workload's work for the traced pass to
/// be correct: each layer dominates one workload and is nearly absent from
/// another.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Dominant {
    /// aft-net + aft-types + the unattributed remainder >= 60% of client time.
    Boundary,
    /// aft-core's self time is the largest share.
    Core,
    /// `aft-storage.backend.busy_share` >= 0.6.
    Storage,
    /// No single layer is expected to.
    Mixed,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub dominant: Dominant,
    /// Behind `AftServer` over loopback, or called in-process.
    pub service: bool,
    pub nodes: usize,
    /// Simulated Redis at full scale in `Sleep` mode, else zero-latency
    /// memory.
    pub redis: bool,
    pub data_cache_bytes: usize,
    /// One `GetAll` + `Put`s of tagged values (svc-large) instead of the
    /// generator's function plans through `AftDriver`.
    pub large: bool,
    pub functions: usize,
    pub reads_per_function: usize,
    pub writes_per_function: usize,
    pub value_size: usize,
    pub num_keys: usize,
    pub zipf: f64,
    /// Measured transactions per second of `--seconds`, sized once on the
    /// 2-core reference host so that the measured phase takes about
    /// `--seconds` there.
    pub txns_per_second: u64,
}

pub const SPECS: &[Spec] = &[
    Spec {
        name: "svc-small",
        dominant: Dominant::Boundary,
        why: "five small frames per transaction over loopback on a zero-latency backend: per-message cost in aft-net and the aft-types wire codec does the work; aft-core is light and aft-storage nearly idle",
        service: true,
        nodes: 3,
        redis: false,
        data_cache_bytes: 64 << 20,
        large: false,
        functions: 2,
        reads_per_function: 2,
        writes_per_function: 1,
        value_size: 256,
        num_keys: 10_000,
        zipf: 1.0,
        txns_per_second: 2_900,
    },
    Spec {
        name: "svc-large",
        dominant: Dominant::Mixed,
        why: "one 8-key GetAll and four 16 KiB Puts per transaction: the same aft-net and aft-types layers used per byte, so a small-message gain bought with an extra copy shows as a loss here",
        service: true,
        nodes: 3,
        redis: false,
        data_cache_bytes: 64 << 20,
        large: true,
        functions: 1,
        reads_per_function: 8,
        writes_per_function: 4,
        value_size: 16 << 10,
        num_keys: 2_000,
        zipf: 0.5,
        txns_per_second: 3_200,
    },
    Spec {
        name: "node-read-miss",
        dominant: Dominant::Core,
        why: "in-process, working set 8x the data cache: aft-core's read path (version selection, cache eviction, miss fetches through IoEngine) does the work and aft-net is bypassed",
        service: false,
        nodes: 1,
        redis: false,
        data_cache_bytes: 8 << 20,
        large: false,
        functions: 2,
        reads_per_function: 5,
        writes_per_function: 1,
        value_size: 1 << 10,
        num_keys: 64_000,
        zipf: 0.9,
        txns_per_second: 4_400,
    },
    Spec {
        name: "node-commit-redis",
        dominant: Dominant::Storage,
        why: "in-process over the simulated Redis in sleep mode, write-heavy: storage round trips and the commit path decide the result, so CPU savings elsewhere should move nothing",
        service: false,
        nodes: 1,
        redis: true,
        data_cache_bytes: 64 << 20,
        large: false,
        functions: 1,
        reads_per_function: 1,
        writes_per_function: 4,
        value_size: 1 << 10,
        num_keys: 10_000,
        zipf: 1.0,
        txns_per_second: 780,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// Keys of a run at `scale`: all of them from 1 up; a smaller run (the
    /// smoke mode) shrinks the key space with its count, so that preloading
    /// and auditing do not dwarf it.
    pub fn keys(&self, scale: f64) -> usize {
        ((self.num_keys as f64 * scale.min(1.0)) as usize)
            .clamp(1_000.min(self.num_keys), self.num_keys)
    }

    pub fn workload(&self, num_keys: usize) -> WorkloadConfig {
        WorkloadConfig {
            functions: self.functions,
            reads_per_function: self.reads_per_function,
            writes_per_function: self.writes_per_function,
            value_size: self.value_size,
            num_keys,
            zipf_exponent: self.zipf,
        }
    }

    /// Measured transactions for a run of `seconds` at `scale`, a whole
    /// number of windows.
    pub fn count(&self, seconds: u64, scale: f64) -> u64 {
        let raw = (self.txns_per_second * seconds) as f64 * scale;
        ((raw / WINDOW as f64).round() as u64).max(1) * WINDOW
    }

    pub fn warmup(count: u64) -> u64 {
        (count as f64 * WARMUP_SHARE).ceil() as u64
    }

    /// Payload bytes one transaction puts.
    pub fn user_bytes_per_txn(&self) -> u64 {
        (self.functions * self.writes_per_function * self.value_size) as u64
    }
}

/// A live deployment of one workload.
pub struct Deployment {
    pub cluster: Arc<Cluster>,
    /// The backend the cluster runs over (the traced decorator in traced
    /// passes); its `stats()` are the storage counters.
    pub storage: SharedStorage,
    pub server: Option<AftServer>,
    pub client: Option<Arc<AftClient>>,
    pub platform: Arc<FaasPlatform>,
    /// The endpoint the audit reads through.
    pub api: Arc<dyn AftApi>,
    pub driver: Arc<dyn RequestDriver>,
    /// Set for `large` workloads: the driver again, typed, for its log.
    pub large: Option<Arc<LargeDriver>>,
}

impl Deployment {
    /// Builds the cluster (and server and client), without preloading.
    ///
    /// `in_process` overrides `spec.service`: the traced pass of a service
    /// workload runs a twin of the same cluster shape without aft-net, to
    /// time aft-core's verbs on their own.
    pub fn build(spec: &Spec, seed: u64, traced: bool, in_process: bool) -> AftResult<Deployment> {
        let backend = make_backend(if spec.redis {
            BackendConfig::simulated(BackendKind::Redis, 1.0).with_seed(seed)
        } else {
            BackendConfig::test(BackendKind::Memory)
        });
        let storage: SharedStorage = if traced {
            Arc::new(TracedStorage::new(backend))
        } else {
            backend
        };
        let config = ClusterConfig {
            initial_nodes: spec.nodes,
            node_template: NodeConfig {
                data_cache_bytes: spec.data_cache_bytes,
                rng_seed: seed ^ 0xAF71,
                ..NodeConfig::default()
            },
            replacement_delay: Duration::ZERO,
            ..ClusterConfig::default()
        };
        // No `start_background()`: timer-driven rounds would make storage
        // and dissemination counts depend on how long the run took.
        let cluster = Cluster::new(config, Arc::clone(&storage))?;
        let platform = FaasPlatform::new(PlatformConfig::test().with_seed(seed));
        let retry = RetryPolicy::with_attempts(8);

        let (server, client) = if spec.service && !in_process {
            let server = AftServer::builder()
                .workers(2)
                .serve(Arc::clone(&cluster), "127.0.0.1:0")?;
            let client = AftClient::builder()
                .pool_size(CLIENTS)
                .rng_seed(seed ^ 0xC11E)
                .connect(server.local_addr())?;
            (Some(server), Some(client))
        } else {
            (None, None)
        };

        let endpoint: Arc<dyn AftApi> = match &client {
            Some(client) => Arc::clone(client) as Arc<dyn AftApi>,
            None => Arc::new(RoutedApi::new(Arc::clone(&cluster))),
        };
        let api: Arc<dyn AftApi> = if traced {
            let layer = if client.is_some() {
                Layer::Net
            } else {
                Layer::Core
            };
            Arc::new(TracedApi::new(endpoint, layer))
        } else {
            endpoint
        };

        let mut large = None;
        let driver: Arc<dyn RequestDriver> = if spec.large {
            let driver = Arc::new(LargeDriver::new(
                Arc::clone(&api),
                Arc::clone(&platform),
                retry,
                spec.value_size,
            ));
            large = Some(Arc::clone(&driver));
            driver
        } else if traced || client.is_some() {
            Arc::new(AftDriver::from_api(
                Arc::clone(&api),
                Arc::clone(&platform),
                retry,
            ))
        } else {
            Arc::new(AftDriver::clustered(
                Arc::clone(&cluster),
                Arc::clone(&platform),
                retry,
            ))
        };

        Ok(Deployment {
            cluster,
            storage,
            server,
            client,
            platform,
            api,
            driver,
            large,
        })
    }

    /// Stops the server's threads; the cluster's I/O engines stop when the
    /// last handle drops.
    pub fn shutdown(self) {
        if let Some(server) = &self.server {
            server.shutdown();
        }
        self.cluster.shutdown();
    }
}
