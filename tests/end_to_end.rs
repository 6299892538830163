//! Cross-crate integration tests: the full stack (FaaS platform → AFT cluster
//! → simulated storage) exercised the way the paper's evaluation uses it.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use aft::cluster::{Cluster, ClusterConfig};
use aft::core::api::{AftApi, CommitOutcome};
use aft::core::{AftNode, NodeConfig};
use aft::faas::FaasChaos;
use aft::faas::{FaasPlatform, PlatformConfig, RetryPolicy};
use aft::storage::{BackendConfig, BackendKind};
use aft::types::clock::TickingClock;
use aft::types::{AftError, AftResult, Key, TransactionId, Value};
use aft::workload::history::{self, FinalRead, History, Recorder, Verdict};
use aft::workload::{
    run_closed_loop, AftDriver, DynamoTxnDriver, FunctionPlan, PlainDriver, RequestDriver,
    RunConfig, TransactionPlan, WorkloadConfig, WorkloadGenerator,
};
use bytes::Bytes;

fn small_workload() -> WorkloadConfig {
    WorkloadConfig::standard()
        .with_keys(64)
        .with_value_size(256)
}

fn test_cluster(nodes: usize) -> Arc<Cluster> {
    Cluster::with_clock(
        ClusterConfig {
            initial_nodes: nodes,
            node_template: NodeConfig::default(),
            replacement_delay: std::time::Duration::ZERO,
            ..ClusterConfig::default()
        },
        aft::storage::make_backend(BackendConfig::test(BackendKind::DynamoDb)),
        TickingClock::shared(1, 1),
    )
    .unwrap()
}

/// A cluster's router as one API: each transaction stays on the node that
/// began it, as [`AftDriver::clustered`] keeps an attempt on one node.
struct Routed(Arc<Cluster>, Mutex<HashMap<TransactionId, Arc<AftNode>>>);

impl Routed {
    fn over(cluster: &Arc<Cluster>) -> Arc<dyn AftApi> {
        Arc::new(Routed(Arc::clone(cluster), Mutex::default()))
    }

    fn node(&self, txid: &TransactionId) -> AftResult<Arc<AftNode>> {
        let node = self.1.lock().unwrap().get(txid).cloned();
        node.ok_or_else(|| AftError::Unavailable(format!("{txid} is not open")))
    }
}

impl AftApi for Routed {
    fn api_label(&self) -> &str {
        "routed"
    }

    fn begin(&self) -> AftResult<TransactionId> {
        let node = self.0.route()?;
        let txid = node.begin()?;
        self.1.lock().unwrap().insert(txid, node);
        Ok(txid)
    }

    fn get_versioned(&self, txid: &TransactionId, key: &Key) -> AftResult<history::Read> {
        self.node(txid)?.get_versioned(txid, key)
    }

    fn get_all(&self, txid: &TransactionId, keys: &[Key]) -> AftResult<Vec<Option<Value>>> {
        self.node(txid)?.get_all(txid, keys)
    }

    fn put(&self, txid: &TransactionId, key: Key, value: Value) -> AftResult<()> {
        self.node(txid)?.put(txid, key, value)
    }

    fn commit(
        &self,
        txid: &TransactionId,
        reads: &[(Key, TransactionId)],
    ) -> AftResult<CommitOutcome> {
        let outcome = AftApi::commit(&*self.node(txid)?, txid, reads)?;
        self.1.lock().unwrap().remove(txid);
        Ok(outcome)
    }

    fn abort(&self, txid: &TransactionId) -> AftResult<()> {
        let node = self.1.lock().unwrap().remove(txid);
        node.map_or(Ok(()), |node| node.abort(txid))
    }
}

/// One node on a fresh `kind` backend.
fn node(kind: BackendKind) -> Arc<dyn AftApi> {
    let storage = aft::storage::make_backend(BackendConfig::test(kind));
    AftNode::new(NodeConfig::default(), storage).unwrap()
}

/// An AFT driver over `api` whose every call is recorded in the returned
/// history.
fn recorded(
    api: Arc<dyn AftApi>,
    platform: Arc<FaasPlatform>,
    retry: RetryPolicy,
) -> (AftDriver, Arc<History>) {
    let history = History::new();
    let api = Recorder::wrap(api, Arc::clone(&history), None);
    (AftDriver::from_api(api, platform, retry), history)
}

fn verdict(history: &History) -> Verdict {
    history::check(&history.attempts(), &FinalRead::new())
}

#[test]
fn aft_requests_over_every_backend_are_anomaly_free() {
    for kind in [BackendKind::S3, BackendKind::DynamoDb, BackendKind::Redis] {
        let (driver, history) = recorded(
            node(kind),
            FaasPlatform::new(PlatformConfig::test()),
            RetryPolicy::with_attempts(5),
        );
        let result = run_closed_loop(
            &driver,
            &RunConfig::new(small_workload())
                .with_clients(4)
                .with_requests(30),
        )
        .unwrap();
        assert_eq!(result.completed, 120, "backend {kind:?}");
        assert_eq!(verdict(&history).anomalies(), 0, "backend {kind:?}");
    }
}

#[test]
fn clustered_aft_keeps_read_atomicity_with_background_maintenance() {
    let cluster = test_cluster(3);
    cluster.start_background();
    let (driver, history) = recorded(
        Routed::over(&cluster),
        FaasPlatform::new(PlatformConfig::test()),
        RetryPolicy::with_attempts(8),
    );
    let result = run_closed_loop(
        &driver,
        &RunConfig::new(small_workload().with_zipf(1.5))
            .with_clients(6)
            .with_requests(50),
    )
    .unwrap();
    cluster.shutdown();

    assert_eq!(result.completed + result.failed, 300);
    assert_eq!(verdict(&history).anomalies(), 0);
    // Every committed transaction has a durable commit record. GC deletes
    // metadata per node (so the sum across nodes can exceed the number of
    // committed transactions once the clock-paced maintenance loop free-runs
    // on a virtual clock); saturate rather than underflow.
    let commit_records = cluster.storage().list_prefix("commit/").unwrap().len() as u64;
    let lower_bound = cluster
        .total_committed()
        .saturating_sub(cluster.total_gc_deleted());
    assert!(commit_records >= lower_bound);
}

#[test]
fn injected_function_failures_never_leak_partial_state_through_aft() {
    let cluster = test_cluster(2);
    let platform = FaasPlatform::new(PlatformConfig::test().with_chaos(FaasChaos::uniform(0.35)));
    let (driver, history) = recorded(
        Routed::over(&cluster),
        platform,
        RetryPolicy::with_attempts(15),
    );
    let result = run_closed_loop(
        &driver,
        &RunConfig::new(small_workload())
            .with_clients(4)
            .with_requests(50),
    )
    .unwrap();

    // Despite heavy failure injection nearly every request eventually
    // completes (retries), and none observes an anomaly.
    assert!(result.completed >= 190, "completed {}", result.completed);
    assert_eq!(verdict(&history).anomalies(), 0);

    // No dangling in-flight transactions remain on any node.
    for node in cluster.active_nodes() {
        assert_eq!(node.in_flight(), 0, "node {}", node.node_id());
    }
}

/// A platform on which every function crashes after its first write.
fn crash_after_first_write() -> Arc<FaasPlatform> {
    FaasPlatform::new(PlatformConfig::test().with_chaos(FaasChaos {
        mid_body: 1.0,
        ..FaasChaos::quiet()
    }))
}

/// The §1 hazard by construction, through `driver` (built over
/// [`crash_after_first_write`] without retries) on a hot key space: a
/// request that writes two keys crashes between the writes, then eight
/// clients read keys that no longer change. Returns the checker's verdict
/// on `history`, which records what the writer and the readers saw.
fn readers_after_a_torn_write(driver: &dyn RequestDriver, history: &History) -> Verdict {
    let hot = WorkloadConfig::read_write_ratio(100)
        .with_keys(4)
        .with_zipf(2.0);
    let keys = WorkloadGenerator::new(hot.clone(), 0).preload_plan();
    driver.preload(&keys, 128).unwrap();
    let torn = TransactionPlan {
        functions: vec![FunctionPlan {
            reads: Vec::new(),
            writes: keys[..2].to_vec(),
        }],
        value_size: 128,
    };
    assert!(driver.execute(&torn).is_err(), "the writer crashes");
    let readers = RunConfig {
        preload: false,
        ..RunConfig::new(hot).with_clients(8).with_requests(50)
    };
    let result = run_closed_loop(driver, &readers).unwrap();
    assert_eq!(result.completed, 8 * 50);
    verdict(history)
}

#[test]
fn plain_baseline_shows_anomalies_under_contention_but_aft_does_not() {
    // The Table 2 comparison in miniature. A crashed plain request leaves
    // half its update in storage for every reader to see; under AFT the
    // same crash leaves nothing visible.
    let plain = PlainDriver::new(
        aft::storage::make_backend(BackendConfig::test(BackendKind::DynamoDb)),
        crash_after_first_write(),
        RetryPolicy::no_retries(),
    );
    let plain_verdict = readers_after_a_torn_write(&plain, plain.history());
    assert!(
        plain_verdict.anomalies() - plain_verdict.read_your_writes > 0,
        "plain storage exposes a crashed request's partial update"
    );
    let (aft_crashed, history) = recorded(
        node(BackendKind::DynamoDb),
        crash_after_first_write(),
        RetryPolicy::no_retries(),
    );
    assert_eq!(
        readers_after_a_torn_write(&aft_crashed, &history).anomalies(),
        0
    );

    // And a hot key space hammered by many clients stays clean under AFT.
    let contended = WorkloadConfig::standard()
        .with_keys(4)
        .with_zipf(2.0)
        .with_value_size(128);
    let (aft, history) = recorded(
        node(BackendKind::DynamoDb),
        FaasPlatform::new(PlatformConfig::test()),
        RetryPolicy::with_attempts(8),
    );
    run_closed_loop(
        &aft,
        &RunConfig::new(contended).with_clients(8).with_requests(100),
    )
    .unwrap();
    assert_eq!(verdict(&history).anomalies(), 0);
}

#[test]
fn dynamo_transaction_mode_eliminates_ryw_but_not_fractured_reads() {
    // §6.1.2: grouping all writes into one TransactWriteItems call removes
    // read-your-writes anomalies by construction; reads still span two
    // transactions so fractured reads remain possible. We assert the RYW half
    // (deterministic) and merely run the FR half (statistical). The write
    // lands all or nothing, so every read names a writer that wrote it.
    let table = aft::storage::SimDynamo::new(aft::storage::LatencyModel::disabled(), 9);
    let driver = DynamoTxnDriver::new(
        table.transaction_mode(),
        FaasPlatform::new(PlatformConfig::test()),
        RetryPolicy::with_attempts(10),
    );
    let result = run_closed_loop(
        &driver,
        &RunConfig::new(
            WorkloadConfig::standard()
                .with_keys(4)
                .with_zipf(2.0)
                .with_value_size(128),
        )
        .with_clients(8)
        .with_requests(100),
    )
    .unwrap();
    let verdict = verdict(driver.history());
    assert_eq!(verdict.read_your_writes, 0);
    let misread = verdict.unknown_writers + verdict.wrong_bytes + verdict.version_mismatches;
    assert_eq!(misread, 0, "{verdict:?}");
    assert!(result.completed > 0);
}

#[test]
fn cross_node_visibility_follows_the_broadcast() {
    let cluster = test_cluster(3);
    let nodes = cluster.active_nodes();

    // Commit on node 0 only.
    let writer = &nodes[0];
    let txn = writer.start_transaction();
    writer
        .put(&txn, Key::new("broadcast-me"), Bytes::from_static(b"hello"))
        .unwrap();
    writer.commit(&txn).unwrap();

    // Before any maintenance the other nodes do not serve it...
    for node in &nodes[1..] {
        let t = node.start_transaction();
        assert!(node.get(&t, &Key::new("broadcast-me")).unwrap().is_none());
        node.abort(&t).unwrap();
    }
    // ...and after one maintenance round they all do.
    cluster.run_maintenance_round().unwrap();
    for node in &nodes {
        let t = node.start_transaction();
        assert_eq!(
            node.get(&t, &Key::new("broadcast-me")).unwrap().unwrap(),
            Bytes::from_static(b"hello"),
            "node {}",
            node.node_id()
        );
        node.commit(&t).unwrap();
    }
}
