//! Shared construction of the simulated environment for every experiment.

use std::sync::Arc;
use std::time::Duration;

use aft_cluster::{Cluster, ClusterConfig};
use aft_core::{AftNode, NodeConfig};
use aft_faas::{FaasPlatform, PlatformConfig, RetryPolicy};
use aft_storage::latency::{LatencyProfile, SeatClock};
use aft_storage::{BackendConfig, BackendKind, LatencyMode, SharedStorage};
use aft_workload::history::{self, Attempt, Verdict};
use aft_workload::{AftDriver, DynamoTxnDriver, PlainDriver, Timer};

/// The client→AFT-shim RPC hop at full scale (microseconds): roughly one
/// intra-AZ round trip plus request handling, the source of the ~6 ms fixed
/// overhead between "DynamoDB Batch" and "AFT Batch" in Figure 2 once the
/// commit-record write is added.
pub(crate) const SHIM_RPC_PROFILE: LatencyProfile = LatencyProfile {
    median_us: 1_200.0,
    p99_us: 4_000.0,
    per_kb_us: 0.4,
};

/// Benchmark environment: experiment sizing.
#[derive(Debug, Clone, Copy)]
pub struct BenchEnv {
    /// Whether the fast (smoke-test) mode is active.
    pub(crate) fast: bool,
}

impl BenchEnv {
    /// Reads the environment variable described in the crate docs — the
    /// one place the harness consults the process environment.
    pub fn from_env() -> Self {
        Self::from_vars(|name| std::env::var(name).ok())
    }

    /// [`Self::from_env`] over any variable lookup. Fast mode is on for any
    /// `AFT_BENCH_FAST` value except unset, empty and `0`.
    pub(crate) fn from_vars(var: impl Fn(&str) -> Option<String>) -> Self {
        let fast = var("AFT_BENCH_FAST").is_some_and(|v| !v.is_empty() && v != "0");
        BenchEnv { fast }
    }

    /// The environment of the harness's own unit tests: fast mode.
    pub(crate) fn test() -> Self {
        BenchEnv { fast: true }
    }

    /// Picks an experiment's size — a count, a duration, a whole sweep
    /// configuration — by mode: `fast` in fast mode, `normal` otherwise.
    pub(crate) fn sized<T>(&self, normal: T, fast: T) -> T {
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
pub(crate) fn virtual_backend(kind: BackendKind, seed: u64) -> SharedStorage {
    aft_storage::make_backend(BackendConfig {
        mode: LatencyMode::Virtual,
        ..BackendConfig::simulated(kind, 1.0).with_seed(seed)
    })
}

/// The node configuration of the figures: the shim's RPC hop, and a 256 MiB
/// data cache or none.
pub(crate) fn node_template(caching: bool) -> NodeConfig {
    NodeConfig {
        data_cache_bytes: if caching { 256 * 1024 * 1024 } else { 0 },
        rpc_profile: SHIM_RPC_PROFILE,
        ..NodeConfig::default()
    }
}

/// A figure's single AFT node over `storage`, its timestamps from its
/// callers' seats ([`SeatClock`]).
pub(crate) fn node(storage: SharedStorage, caching: bool, seed: u64) -> Arc<AftNode> {
    let config = node_template(caching).with_seed(seed);
    AftNode::with_clock(config, storage, SeatClock::shared())
        .expect("node construction only fails on storage errors")
}

/// A figure's `nodes`-node cluster over `storage`, its timestamps from its
/// callers' seats ([`SeatClock`]). Its maintenance runs where the figure's
/// loop says, never in the background.
pub(crate) fn cluster(
    storage: SharedStorage,
    nodes: usize,
    caching: bool,
    gc: bool,
) -> Arc<Cluster> {
    let config = cluster_config(nodes, caching, gc);
    Cluster::with_clock(config, storage, SeatClock::shared()).expect("cluster construction")
}

/// The configuration of a figure's cluster: `nodes` nodes from
/// [`node_template`], GC on or off, and a failed node replaced at once.
fn cluster_config(nodes: usize, caching: bool, gc: bool) -> ClusterConfig {
    ClusterConfig {
        initial_nodes: nodes,
        node_template: node_template(caching),
        gc_enabled: gc,
        replacement_delay: Duration::ZERO,
        ..ClusterConfig::default()
    }
}

/// A cluster's maintenance round every second of virtual time, the paper's
/// multicast period (§4): the timer of every virtual loop over a cluster.
pub(crate) fn maintenance(cluster: &Cluster) -> Timer<'_> {
    let round = move |_| {
        let _ = cluster.run_maintenance_round();
    };
    (Duration::from_secs(1), Box::new(round))
}

/// The simulated AWS-Lambda-like FaaS platform, on the virtual clock.
pub(crate) fn platform() -> Arc<FaasPlatform> {
    FaasPlatform::new(PlatformConfig::aws_like())
}

/// The retry policy the simulated clients use.
pub(crate) fn retry() -> RetryPolicy {
    RetryPolicy::with_attempts(8)
}

/// An AFT driver over a fresh single node on a fresh virtual backend.
pub(crate) fn aft_driver(kind: BackendKind, caching: bool, seed: u64) -> AftDriver {
    let node = node(virtual_backend(kind, seed), caching, seed ^ 0xA57);
    AftDriver::single_node(node, platform(), retry()).with_label(aft_label(kind, caching))
}

/// A Plain driver over a fresh virtual backend.
pub(crate) fn plain_driver(kind: BackendKind, seed: u64) -> PlainDriver {
    PlainDriver::new(virtual_backend(kind, seed), platform(), retry())
}

/// A DynamoDB-transaction-mode driver over a fresh virtual table.
pub(crate) fn dynamo_txn_driver(seed: u64) -> DynamoTxnDriver {
    let latency = aft_storage::LatencyModel::new(LatencyMode::Virtual, 1.0);
    let table = aft_storage::SimDynamo::new(latency, seed);
    DynamoTxnDriver::new(table.transaction_mode(), platform(), retry())
}

/// The oracle behind every experiment's `anomalies` and lost-ack counts:
/// stops `cluster`'s background maintenance, runs one quiet round, reads
/// every key the `history` wrote back through a routed node, and grades
/// the history against that final read ([`history::check`]).
pub(crate) fn settled_verdict(cluster: &Cluster, history: &[Attempt]) -> Verdict {
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
pub(crate) fn aft_label(kind: BackendKind, caching: bool) -> String {
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
    use aft_storage::StorageStatsSnapshot;
    use aft_types::clock::{Clock, SharedClock};
    use aft_types::Timestamp;
    use aft_workload::{
        run_closed_loop, run_virtual_loop, RequestDriver, RunConfig, RunResult, WorkloadConfig,
    };

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

    /// A clock that reads its inner clock twice per read.
    struct ReadTwice(SharedClock);

    impl Clock for ReadTwice {
        fn now(&self) -> Timestamp {
            let _ = self.0.now();
            self.0.now()
        }
    }

    /// A figure-shaped seated run over `clock`: a two-node cluster with GC
    /// on, its maintenance timer, and eight clients in a virtual loop. Its
    /// latencies, storage calls and GC deletions.
    fn seated_run(clock: SharedClock) -> (RunResult, StorageStatsSnapshot, u64) {
        let storage = virtual_backend(BackendKind::DynamoDb, 7);
        let cluster = Cluster::with_clock(cluster_config(2, true, true), storage.clone(), clock)
            .expect("cluster construction");
        let driver = AftDriver::clustered(Arc::clone(&cluster), platform(), retry());
        let workload = WorkloadConfig::standard().with_zipf(1.5);
        let config = RunConfig::new(workload)
            .with_clients(8)
            .with_requests(40)
            .with_seed(7);
        let run = run_virtual_loop(&driver, &config, vec![maintenance(&cluster)]).unwrap();
        (run, storage.stats().snapshot(), cluster.total_gc_deleted())
    }

    #[test]
    fn a_clock_read_is_not_an_event_in_a_seated_run() {
        let (once, calls, deleted) = seated_run(SeatClock::shared());
        let (twice, calls_twice, deleted_twice) =
            seated_run(Arc::new(ReadTwice(SeatClock::shared())));
        assert_eq!(once.latency, twice.latency);
        assert_eq!(
            (once.completed, once.elapsed),
            (twice.completed, twice.elapsed)
        );
        assert_eq!(calls, calls_twice);
        assert_eq!(deleted, deleted_twice);
        assert!(deleted > 0, "GC deleted transactions");
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(aft_label(BackendKind::DynamoDb, true), "AFT-D Caching");
        assert_eq!(aft_label(BackendKind::Redis, false), "AFT-R No Caching");
    }
}
