//! End-to-end tests of the networked service over real loopback sockets:
//! the full client SDK → wire protocol → server → cluster → storage stack.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aft_cluster::{Cluster, ClusterConfig};
use aft_core::api::AftApi;
use aft_core::{CommitPhase, NetFault, PhaseHook, INLINE_BYTES};
use aft_net::{AftClient, AftServer, ClientConfig};
use aft_storage::io::RetryConfig;
use aft_storage::InMemoryStore;
use aft_types::clock::TickingClock;
use aft_types::{AftResult, Key, TransactionId, TransactionRecord, Value};

fn served_cluster(nodes: usize, workers: usize) -> (AftServer, Arc<Cluster>) {
    let cluster = Cluster::with_clock(
        ClusterConfig::test(nodes),
        InMemoryStore::shared(),
        TickingClock::shared(1, 1),
    )
    .unwrap();
    let server = AftServer::builder()
        .workers(workers)
        .serve(Arc::clone(&cluster), "127.0.0.1:0")
        .unwrap();
    (server, cluster)
}

fn client_for(server: &AftServer, config: ClientConfig) -> Arc<AftClient> {
    AftClient::connect(server.local_addr(), config).unwrap()
}

#[test]
fn transactions_round_trip_over_loopback() {
    let (server, cluster) = served_cluster(3, 4);
    let client = client_for(&server, ClientConfig::default());

    // Write through the socket.
    let txid = client.begin().unwrap();
    client
        .put(&txid, Key::new("cart"), Value::from_static(b"3 items"))
        .unwrap();
    client
        .put(&txid, Key::new("total"), Value::from_static(b"$42"))
        .unwrap();
    // Read-your-writes from the client-side buffer: version is None.
    let (value, version) = client
        .get_versioned(&txid, &Key::new("cart"))
        .unwrap()
        .unwrap();
    assert_eq!(value, Value::from_static(b"3 items"));
    assert!(version.is_none());
    let outcome = client.commit(&txid, &[]).unwrap();
    assert!(outcome.atomic);
    assert!(!outcome.duplicate);

    // Propagate the commit to every node (the test cluster's maintenance
    // is manual), then read back in a fresh transaction — which the router
    // may send to any node.
    cluster.run_maintenance_round().unwrap();
    let reader = client.begin().unwrap();
    let (value, version) = client
        .get_versioned(&reader, &Key::new("cart"))
        .unwrap()
        .unwrap();
    assert_eq!(value, Value::from_static(b"3 items"));
    assert_eq!(version, Some(outcome.final_id));
    let values = client
        .get_all(
            &reader,
            &[Key::new("cart"), Key::new("total"), Key::new("nope")],
        )
        .unwrap();
    assert_eq!(values[0], Some(Value::from_static(b"3 items")));
    assert_eq!(values[1], Some(Value::from_static(b"$42")));
    assert_eq!(values[2], None);
    client.abort(&reader).unwrap();

    // The commit is durable in the shared storage the cluster fronts.
    let record_key = TransactionRecord::storage_key_for(&outcome.final_id);
    assert!(cluster.storage().get(&record_key).unwrap().is_some());

    // Operability verbs.
    assert!(client.ping().unwrap() < Duration::from_secs(1));
    let stats = client.server_stats().unwrap();
    assert_eq!(stats.commits, 1);
    assert_eq!(stats.active_nodes, 3);
    assert!(stats.requests >= 5);
    server.shutdown();
}

#[test]
fn pipelined_clients_share_connections_without_cross_talk() {
    let (server, _cluster) = served_cluster(3, 4);
    let client = client_for(&server, AftClient::builder().pool_size(2).build());

    let threads = 8usize;
    let txns_per_thread = 20usize;
    let expected = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for t in 0..threads {
            let client = &client;
            let expected = &expected;
            scope.spawn(move || {
                for i in 0..txns_per_thread {
                    let txid = client.begin().unwrap();
                    let key = Key::new(format!("t{t}/k{i}"));
                    let value = Value::from(format!("v-{t}-{i}"));
                    client.put(&txid, key.clone(), value.clone()).unwrap();
                    // Read-your-writes inside the transaction, pipelined
                    // with the other threads' traffic on shared conns.
                    let (observed, _) = client.get_versioned(&txid, &key).unwrap().unwrap();
                    assert_eq!(observed, value, "thread {t} txn {i}");
                    let outcome = client.commit(&txid, &[]).unwrap();
                    expected
                        .lock()
                        .unwrap()
                        .push((key, value, outcome.final_id));
                }
            });
        }
    });

    // One maintenance round teaches every node every commit; then any
    // routed node must serve every value at its exact committed version.
    server.cluster().run_maintenance_round().unwrap();
    for (key, value, final_id) in expected.into_inner().unwrap() {
        let reader = client.begin().unwrap();
        let (observed, version) = client.get_versioned(&reader, &key).unwrap().unwrap();
        assert_eq!(observed, value);
        assert_eq!(version, Some(final_id));
        client.abort(&reader).unwrap();
    }

    let stats = client.server_stats().unwrap();
    assert_eq!(stats.commits, (threads * txns_per_thread) as u64);
    assert_eq!(stats.duplicate_commits, 0);
    let acked = client.stats().commits_acked;
    assert_eq!(acked, (threads * txns_per_thread) as u64);
    server.shutdown();
}

/// Resets the first `Commit`'s connection after its send: the lost-ack
/// window, from the client's side.
#[derive(Debug, Default)]
struct LoseFirstCommitAck(AtomicU64);

impl PhaseHook for LoseFirstCommitAck {
    fn at(&self, _: &str, _: CommitPhase) -> AftResult<()> {
        Ok(())
    }

    fn deliver(&self, verb: &str) -> NetFault {
        if verb == "commit" && self.0.fetch_add(1, Ordering::Relaxed) == 0 {
            NetFault::ResetAfterSend
        } else {
            NetFault::None
        }
    }
}

/// The §4.2 regression over a socket: the connection dies after the
/// `Commit` was sent, and the client's transport retry resends it on a new
/// connection. Whether the server ran the first send before it saw the
/// reset is the OS's interleaving; either way the commit is applied once,
/// and the retry is acked from the dedup ledger exactly when the first send
/// ran. The piped twin, where the first send always runs, is
/// `pipe::tests::a_commit_reset_after_its_send_ran_and_its_retry_is_a_duplicate`.
#[test]
fn duplicate_commit_after_lost_ack_is_acked_idempotently() {
    let (server, cluster) = served_cluster(3, 4);
    let client = client_for(
        &server,
        AftClient::builder()
            .phase_hook(Arc::new(LoseFirstCommitAck::default()))
            .retry(RetryConfig {
                max_attempts: 5,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(5),
            })
            .build(),
    );

    let txid = client.begin().unwrap();
    // Too large for an inline record, so the commit has a data version.
    let value = Value::from(vec![b'o'; INLINE_BYTES + 1]);
    client.put(&txid, Key::new("pay"), value).unwrap();
    let outcome = client.commit(&txid, &[]).unwrap();
    assert_eq!(outcome.final_id.uuid, txid.uuid, "same txid, same outcome");

    // Exactly one commit applied: one durable record for this uuid and one
    // data version of the key.
    let records = cluster
        .storage()
        .list_prefix(&TransactionRecord::storage_prefix())
        .unwrap();
    let matching: Vec<_> = records
        .iter()
        .filter(|k| k.contains(&format!("{}", txid.uuid)))
        .collect();
    assert_eq!(matching.len(), 1, "no double-apply of the commit record");
    let data_versions = cluster.storage().list_prefix("data/pay/").unwrap();
    assert_eq!(data_versions.len(), 1, "no double-apply of the data write");
    let stats = server.stats();
    assert_eq!(
        outcome.duplicate,
        stats.duplicate_commits == 1,
        "the retry is a duplicate exactly when the first send ran: {stats:?}"
    );
    server.shutdown();
}

/// A flaky link, by request number: one request in nine resets after its
/// send (the lost-ack window), one in eleven before it, and one in
/// seventeen is answered late.
#[derive(Debug, Default)]
struct Flaky(AtomicU64);

impl PhaseHook for Flaky {
    fn at(&self, _: &str, _: CommitPhase) -> AftResult<()> {
        Ok(())
    }

    fn deliver(&self, _: &str) -> NetFault {
        match self.0.fetch_add(1, Ordering::Relaxed) {
            n if n % 9 == 4 => NetFault::ResetAfterSend,
            n if n % 11 == 7 => NetFault::ResetBeforeSend,
            n if n % 17 == 3 => NetFault::DelayAck(Duration::from_millis(1)),
            _ => NetFault::None,
        }
    }
}

#[test]
fn connection_resets_never_lose_acknowledged_commits() {
    let (server, cluster) = served_cluster(3, 4);
    let client = client_for(
        &server,
        AftClient::builder()
            .retry(RetryConfig {
                max_attempts: 6,
                base_backoff: Duration::from_micros(200),
                max_backoff: Duration::from_millis(2),
            })
            .phase_hook(Arc::new(Flaky::default()))
            .build(),
    );

    let mut acked_values = Vec::new();
    for i in 0..120 {
        let txid = client.begin().unwrap();
        let key = Key::new(format!("churn/{}", i % 10));
        if client
            .put(&txid, key.clone(), Value::from(format!("v{i}")))
            .is_err()
        {
            continue;
        }
        match client.commit(&txid, &[]) {
            Ok(outcome) => acked_values.push((outcome.final_id, key)),
            Err(e) => assert!(e.is_retryable(), "only retryable errors may surface: {e:?}"),
        }
    }

    // Every acknowledged commit has a durable record: zero lost acks.
    for (final_id, _) in &acked_values {
        let record_key = TransactionRecord::storage_key_for(final_id);
        assert!(
            cluster.storage().get(&record_key).unwrap().is_some(),
            "acked commit {final_id} has no durable record"
        );
    }
    assert_eq!(
        client.stats().commits_acked,
        acked_values.len() as u64,
        "the client's ack counter matches"
    );
    // Every ack the client saw corresponds to an apply or a dedup; the
    // lost-ack retries were deduplicated, not re-applied.
    let stats = server.stats();
    assert!(client.stats().commits_acked <= stats.commits + stats.duplicate_commits);
    assert!(
        client.stats().duplicate_acks > 0,
        "the seeded schedule exercises the dedup ledger"
    );
    server.shutdown();
}

#[test]
fn a_zero_request_timeout_waits_without_a_deadline() {
    let (server, _cluster) = served_cluster(1, 2);
    let client = client_for(
        &server,
        AftClient::builder().request_timeout(Duration::ZERO).build(),
    );
    client.ping().unwrap();
    let txid = client.begin().unwrap();
    client
        .put(&txid, Key::new("k"), Value::from_static(b"v"))
        .unwrap();
    let outcome = client.commit(&txid, &[]).unwrap();
    assert!(!outcome.duplicate, "the first send committed");
    let stats = client.stats();
    assert_eq!((stats.connects, stats.transport_retries), (1, 0));
    server.shutdown();
}

#[test]
fn aborting_unknown_transactions_is_idempotent() {
    let (server, _cluster) = served_cluster(1, 2);
    let client = client_for(&server, ClientConfig::default());
    let txid = client.begin().unwrap();
    client.abort(&txid).unwrap();
    // A second abort of the same transaction is a clean no-op.
    client.abort(&txid).unwrap();
    // Aborting an id the server never saw is also fine client-side.
    let ghost = TransactionId::new(99, aft_types::Uuid::from_u128(0xDEAD));
    client.abort(&ghost).unwrap();
    server.shutdown();
}

#[test]
fn shutdown_fails_inflight_and_future_calls_cleanly() {
    let (server, _cluster) = served_cluster(1, 2);
    let client = client_for(
        &server,
        AftClient::builder()
            .retry(RetryConfig {
                max_attempts: 2,
                base_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_micros(500),
            })
            .request_timeout(Duration::from_millis(500))
            .build(),
    );
    assert!(client.ping().is_ok());
    server.shutdown();
    let err = client.ping().unwrap_err();
    assert!(
        err.is_retryable(),
        "transport failure is retryable: {err:?}"
    );
}
