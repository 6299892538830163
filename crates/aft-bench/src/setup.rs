//! Shared construction of the simulated environment for every experiment.

use std::sync::Arc;
use std::time::Duration;

use aft_chaos::ChaosSpec;
use aft_cluster::{Cluster, ClusterConfig};
use aft_core::{AftNode, NodeConfig};
use aft_faas::{FaasPlatform, PlatformConfig, RetryPolicy};
use aft_net::{AftClient, AftServer};
use aft_storage::io::RetryConfig;
use aft_storage::latency::LatencyProfile;
use aft_storage::{BackendConfig, BackendKind, LatencyMode, SharedStorage};
use aft_types::clock::TickingClock;
use aft_types::AftResult;
use aft_workload::history::{self, Attempt, Verdict};
use aft_workload::{AftDriver, DynamoTxnDriver, PlainDriver};

/// The client→AFT-shim RPC hop at full scale (microseconds): roughly one
/// intra-AZ round trip plus request handling, the source of the ~6 ms fixed
/// overhead between "DynamoDB Batch" and "AFT Batch" in Figure 2 once the
/// commit-record write is added.
pub const SHIM_RPC_PROFILE: LatencyProfile = LatencyProfile {
    median_us: 1_200.0,
    p99_us: 4_000.0,
    per_kb_us: 0.4,
};

/// Benchmark environment: experiment sizing.
#[derive(Debug, Clone, Copy)]
pub struct BenchEnv {
    /// Whether the fast (smoke-test) mode is active.
    pub fast: bool,
}

impl BenchEnv {
    /// Reads the environment variable described in the crate docs — the
    /// one place the harness consults the process environment.
    pub fn from_env() -> Self {
        Self::from_vars(|name| std::env::var(name).ok())
    }

    /// [`Self::from_env`] over any variable lookup. Fast mode is on for any
    /// `AFT_BENCH_FAST` value except unset, empty and `0`.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> Self {
        let fast = var("AFT_BENCH_FAST").is_some_and(|v| !v.is_empty() && v != "0");
        BenchEnv { fast }
    }

    /// The environment of the harness's own unit tests: fast mode.
    pub fn test() -> Self {
        BenchEnv { fast: true }
    }

    /// Picks an experiment's size — a count, a duration, a whole sweep
    /// configuration — by mode: `fast` in fast mode, `normal` otherwise.
    pub fn sized<T>(&self, normal: T, fast: T) -> T {
        if self.fast {
            fast
        } else {
            normal
        }
    }
}

/// A `kind` backend on the virtual clock at full scale — what every seeded
/// experiment runs over: calibrated latencies are charged to the caller,
/// never slept, so an experiment costs seconds and repeats exactly.
pub fn virtual_backend(kind: BackendKind, seed: u64) -> SharedStorage {
    aft_storage::make_backend(BackendConfig {
        mode: LatencyMode::Virtual,
        ..BackendConfig::simulated(kind, 1.0).with_seed(seed)
    })
}

/// The node configuration of the figures: the shim's RPC hop, and a 256 MiB
/// data cache or none.
pub fn node_template(caching: bool) -> NodeConfig {
    NodeConfig {
        data_cache_bytes: if caching { 256 * 1024 * 1024 } else { 0 },
        rpc_profile: SHIM_RPC_PROFILE,
        ..NodeConfig::default()
    }
}

/// A figure's single AFT node over `storage`, its commit timestamps from a
/// ticking clock.
pub fn node(storage: SharedStorage, caching: bool, seed: u64) -> Arc<AftNode> {
    let config = node_template(caching).with_seed(seed);
    AftNode::with_clock(config, storage, TickingClock::shared(1, 1))
        .expect("node construction only fails on storage errors")
}

/// A figure's `nodes`-node cluster over `storage`, on a ticking clock. Its
/// maintenance runs where the figure's loop says, never in the background.
pub fn cluster(storage: SharedStorage, nodes: usize, caching: bool, gc: bool) -> Arc<Cluster> {
    let config = ClusterConfig {
        initial_nodes: nodes,
        node_template: node_template(caching),
        gc_enabled: gc,
        replacement_delay: Duration::ZERO,
        ..ClusterConfig::default()
    };
    Cluster::with_clock(config, storage, TickingClock::shared(1, 1)).expect("cluster construction")
}

/// The simulated AWS-Lambda-like FaaS platform, on the virtual clock.
pub fn platform() -> Arc<FaasPlatform> {
    FaasPlatform::new(PlatformConfig::aws_like())
}

/// The retry policy the simulated clients use.
pub fn retry() -> RetryPolicy {
    RetryPolicy::with_attempts(8)
}

/// An AFT driver over a fresh single node on a fresh virtual backend.
pub fn aft_driver(kind: BackendKind, caching: bool, seed: u64) -> AftDriver {
    let node = node(virtual_backend(kind, seed), caching, seed ^ 0xA57);
    AftDriver::single_node(node, platform(), retry()).with_label(aft_label(kind, caching))
}

/// A Plain driver over a fresh virtual backend.
pub fn plain_driver(kind: BackendKind, seed: u64) -> PlainDriver {
    PlainDriver::new(virtual_backend(kind, seed), platform(), retry())
}

/// A DynamoDB-transaction-mode driver over a fresh virtual table.
pub fn dynamo_txn_driver(seed: u64) -> DynamoTxnDriver {
    let latency = aft_storage::LatencyModel::new(LatencyMode::Virtual, 1.0);
    let table = aft_storage::SimDynamo::new(latency, seed);
    DynamoTxnDriver::new(table.transaction_mode(), platform(), retry())
}

/// The one way experiments stand a cluster up as a networked service:
/// every knob of the loopback endpoint an experiment varies — server reactor
/// threads and overload protection, client pool/retry/chaos — in a single
/// options struct, so `fig8_service`, `fig10_recovery` and `fig11_overload`
/// configure the service identically (`ServeOptions { workers: 8,
/// ..Default::default() }`).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Server reactor threads.
    pub workers: usize,
    /// Server admission limit: queue depth beyond which new requests get a
    /// typed `Overloaded` rejection (`0` disables).
    pub admission_limit: usize,
    /// Server queue-age deadline beyond which requests are shed unexecuted
    /// (`ZERO` disables).
    pub queue_deadline: Duration,
    /// Per-connection fair queuing on each of the server's reactor queues.
    pub fair_queuing: bool,
    /// Client connection-pool size.
    pub pool_size: usize,
    /// Client transport retry/backoff budget.
    pub retry: RetryConfig,
    /// Optional unified fault schedule; the client-side connection layer
    /// consumes its `net` leg (other legs are free for the experiment to
    /// wire into storage/platform injectors from the same seed).
    pub chaos: Option<ChaosSpec>,
    /// Client UUID seed.
    pub seed: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            admission_limit: 0,
            queue_deadline: Duration::ZERO,
            fair_queuing: false,
            pool_size: 4,
            retry: RetryConfig::default(),
            chaos: None,
            seed: 0xAF7_11E7,
        }
    }
}

/// A served deployment kept alive behind a networked driver: dropping the
/// handle shuts the server down.
pub struct ServiceHandle {
    /// The loopback server fronting the cluster.
    pub server: AftServer,
    /// The SDK client the driver runs through.
    pub client: Arc<AftClient>,
}

/// Serves `cluster` on an ephemeral loopback port and connects a client —
/// the shared construction behind every networked experiment. The server
/// keeps the builder's connection-slab and worker-queue capacities (1 024
/// each; no experiment varies them).
pub fn serve_cluster(cluster: &Arc<Cluster>, options: &ServeOptions) -> AftResult<ServiceHandle> {
    let server = AftServer::builder()
        .workers(options.workers)
        .admission_limit(options.admission_limit)
        .queue_deadline(options.queue_deadline)
        .fair_queuing(options.fair_queuing)
        .serve(Arc::clone(cluster), "127.0.0.1:0")?;
    let mut client = AftClient::builder()
        .pool_size(options.pool_size)
        .retry(options.retry)
        .rng_seed(options.seed);
    if let Some(chaos) = options.chaos.clone() {
        client = client.chaos_spec(chaos);
    }
    let client = client.connect(server.local_addr())?;
    Ok(ServiceHandle { server, client })
}

/// A fresh `nodes`-node deployment over `storage`, maintenance running in
/// the background, served on loopback — what `fig8_service` and
/// `fig11_overload` measure.
pub fn served_deployment(
    storage: SharedStorage,
    nodes: usize,
    options: &ServeOptions,
) -> (Arc<Cluster>, ServiceHandle) {
    let cluster = Cluster::new(ClusterConfig::test(nodes), storage).expect("cluster construction");
    cluster.start_background();
    let handle = serve_cluster(&cluster, options).expect("serve on loopback");
    (cluster, handle)
}

/// The oracle behind every experiment's `anomalies` and lost-ack counts:
/// stops `cluster`'s background maintenance, runs one quiet round, reads
/// every key the `history` wrote back through a routed node, and grades
/// the history against that final read ([`history::check`]).
pub fn settled_verdict(cluster: &Cluster, history: &[Attempt]) -> Verdict {
    cluster.shutdown();
    cluster
        .run_maintenance_round()
        .expect("a quiet maintenance round");
    let node = cluster.route().expect("an active node");
    let keys = history::written_keys(history);
    let final_read = history::read_back(&*node, keys).expect("a quiet read");
    history::check(history, &final_read)
}

/// The label used for AFT configurations in the figures ("AFT-D Caching" etc.).
pub fn aft_label(kind: BackendKind, caching: bool) -> String {
    let backend = match kind {
        BackendKind::DynamoDb => "AFT-D",
        BackendKind::Redis => "AFT-R",
        BackendKind::S3 => "AFT-S3",
        BackendKind::Memory => "AFT-Mem",
    };
    if caching {
        format!("{backend} Caching")
    } else {
        format!("{backend} No Caching")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_workload::{run_closed_loop, RequestDriver, RunConfig, WorkloadConfig};

    #[test]
    fn fast_mode_is_off_for_unset_empty_and_zero() {
        let with = |fast: Option<&str>| {
            BenchEnv::from_vars(|name| {
                (name == "AFT_BENCH_FAST")
                    .then(|| fast.map(str::to_owned))
                    .flatten()
            })
        };
        for off in [None, Some(""), Some("0")] {
            let env = with(off);
            assert!(
                !env.fast,
                "AFT_BENCH_FAST={off:?} must not select fast mode"
            );
            assert_eq!(env.sized("full", "trimmed"), "full");
        }
        let env = with(Some("1"));
        assert!(env.fast);
        assert_eq!(env.sized("full", "trimmed"), "trimmed");
    }

    #[test]
    fn env_defaults_are_reasonable() {
        let test_env = BenchEnv::test();
        assert!(test_env.fast);
        assert_eq!(test_env.sized(100, 7), 7);
    }

    #[test]
    fn drivers_built_by_the_env_execute_requests() {
        let workload = WorkloadConfig::standard()
            .with_keys(50)
            .with_value_size(128);
        for driver in [
            Box::new(aft_driver(BackendKind::DynamoDb, true, 1)) as Box<dyn RequestDriver>,
            Box::new(plain_driver(BackendKind::Redis, 2)) as Box<dyn RequestDriver>,
            Box::new(dynamo_txn_driver(3)) as Box<dyn RequestDriver>,
        ] {
            let result = run_closed_loop(
                driver.as_ref(),
                &RunConfig::new(workload.clone()).with_requests(5),
            )
            .unwrap();
            assert_eq!(result.completed, 5, "driver {}", driver.name());
        }
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(aft_label(BackendKind::DynamoDb, true), "AFT-D Caching");
        assert_eq!(aft_label(BackendKind::Redis, false), "AFT-R No Caching");
    }
}
