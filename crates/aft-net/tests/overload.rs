//! Overload-protection tests over real loopback sockets: a saturated
//! server must degrade by *rejecting* and *shedding* — typed, retryable
//! `Overloaded` verdicts — never by corrupting state. The invariant under
//! test is the same one the recovery benchmarks gate on: every
//! acknowledged commit has a durable record, and a rejected request was
//! never executed.

use std::sync::Arc;
use std::time::Duration;

use aft_cluster::{Cluster, ClusterConfig};
use aft_core::api::AftApi;
use aft_net::{AftClient, AftServer, ClientConfig};
use aft_storage::io::RetryConfig;
use aft_storage::InMemoryStore;
use aft_types::clock::TickingClock;
use aft_types::wire::{WireRequest, WireResponse};
use aft_types::{AftError, Key, TransactionId, TransactionRecord, Uuid, Value};

mod common;
use common::{accepted, commit, pipeline, receive, round_trip, serve_latched};

fn test_cluster(nodes: usize) -> Arc<Cluster> {
    Cluster::with_clock(
        ClusterConfig::test(nodes),
        InMemoryStore::shared(),
        TickingClock::shared(1, 1),
    )
    .unwrap()
}

/// A server saturated far past its admission limit rejects reads with
/// `Overloaded`, clients absorb the rejections with jittered retries,
/// commits (exempt from admission: their reads are already paid for) all
/// land, and every acknowledged commit has a durable record.
#[test]
fn saturated_server_sheds_load_without_losing_acked_commits() {
    let cluster = test_cluster(2);
    // One worker and a one-deep admission limit: any two requests in
    // flight at once force a rejection of the non-commit one.
    let server = AftServer::builder()
        .workers(1)
        .admission_limit(1)
        .serve(Arc::clone(&cluster), "127.0.0.1:0")
        .unwrap();
    let client = AftClient::connect(
        server.local_addr(),
        ClientConfig::builder()
            .pool_size(2)
            .retry(RetryConfig {
                max_attempts: 64,
                base_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_millis(2),
            })
            .build(),
    )
    .unwrap();

    let threads = 8;
    let commits_per_thread = 8;
    let mut handles = Vec::new();
    for t in 0..threads {
        let client = Arc::clone(&client);
        handles.push(std::thread::spawn(move || {
            let mut committed = Vec::new();
            for i in 0..commits_per_thread {
                let txid = client.begin().unwrap();
                let key = Key::new(format!("overload/{t}/{i}"));
                // A wire read saturates the admission gate (reads are the
                // rejectable pipeline entry; the SDK absorbs rejections
                // with jittered retries).
                if let Err(e) = client.get_versioned(&txid, &key) {
                    assert!(
                        e.is_overloaded(),
                        "only overload may fail a read here, got {e:?}"
                    );
                    let _ = client.abort(&txid);
                    continue;
                }
                client
                    .put(&txid, key, Value::from_static(b"under pressure"))
                    .unwrap();
                match client.commit(&txid, &[]) {
                    Ok(outcome) => committed.push(outcome.final_id),
                    // The retry budget ran dry while the server was still
                    // saturated: a clean, typed refusal — nothing executed.
                    Err(e) => assert!(
                        e.is_overloaded(),
                        "only overload may fail a commit here, got {e:?}"
                    ),
                }
            }
            committed
        }));
    }
    let committed: Vec<_> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();

    // The server genuinely rejected work and the client genuinely backed
    // off — otherwise this test exercised nothing.
    let stats = server.stats();
    assert!(
        stats.overload_rejections > 0,
        "admission control never fired: {stats:?}"
    );
    assert!(
        client.stats().overload_retries > 0,
        "client never backed off"
    );

    // Zero lost acked commits: every acknowledgement corresponds to a
    // durable commit record.
    assert!(!committed.is_empty(), "no commit ever succeeded");
    assert_eq!(client.stats().commits_acked, committed.len() as u64);
    for final_id in &committed {
        let record_key = TransactionRecord::storage_key_for(final_id);
        assert!(
            cluster.storage().get(&record_key).unwrap().is_some(),
            "acked commit {final_id} has no durable record"
        );
    }
    server.shutdown();
}

/// With an unmeetable queue deadline every request is shed: the client
/// sees a retryable `Overloaded` error, the server counts sheds, and —
/// because a shed request is never executed — nothing is acked and
/// nothing becomes durable.
#[test]
fn queue_deadline_sheds_stale_requests_without_executing_them() {
    let cluster = test_cluster(1);
    let server = AftServer::builder()
        .workers(1)
        .queue_deadline(Duration::from_nanos(1))
        .serve(Arc::clone(&cluster), "127.0.0.1:0")
        .unwrap();
    let client = AftClient::connect(
        server.local_addr(),
        ClientConfig::builder()
            .retry(RetryConfig {
                max_attempts: 3,
                base_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_millis(1),
            })
            .build(),
    )
    .unwrap();

    let txid = client.begin().unwrap();
    client
        .put(
            &txid,
            Key::new("shed/key"),
            Value::from_static(b"never lands"),
        )
        .unwrap();
    let err = client
        .commit(&txid, &[])
        .expect_err("every request is shed");
    assert!(err.is_overloaded(), "typed overload verdict, got {err:?}");
    assert!(err.is_retryable(), "overload is a retryable condition");

    let stats = server.stats();
    assert!(stats.shed_requests > 0, "nothing was shed: {stats:?}");
    assert_eq!(stats.commits, 0, "a shed commit must never execute");
    assert_eq!(client.stats().commits_acked, 0);
    server.shutdown();
}

/// A fresh transaction's read of one key.
fn get(n: u128) -> WireRequest {
    WireRequest::Get {
        txid: TransactionId::new(1, Uuid::from_u128(n)),
        key: Key::new(format!("latched/{n}")),
    }
}

/// Admission control reads the requests queued on every reactor, not only
/// the reactor that read the new one: with two commits queued behind a
/// third parked in storage on reactor 0, a read on reactor 1, whose own
/// queue is empty, is refused.
#[test]
fn admission_limit_counts_the_requests_queued_on_every_reactor() {
    let (server, latch) = serve_latched(AftServer::builder().workers(2).admission_limit(2));
    // Connections 0 and 1, so reactors 0 and 1.
    let mut busy = accepted(&server);
    let mut idle = accepted(&server);
    latch.arm();
    // Commits are exempt from admission, so all three queue; the first
    // parks in storage and leaves two queued.
    pipeline(&mut busy, &[commit(1), commit(2), commit(3)]);
    latch.await_parked();
    assert_eq!(
        server.event_snapshot().unwrap().frames_read,
        2 + 3,
        "reactor 0 read all three commits before running the first"
    );
    let refused = round_trip(&mut idle, 1, &get(9));
    assert!(
        matches!(refused, WireResponse::Error(AftError::Overloaded(_))),
        "{refused:?}"
    );

    latch.open();
    for id in 1..=3 {
        let (answered, response) = receive(&mut busy);
        assert_eq!(answered, id);
        assert!(
            matches!(response, WireResponse::Committed { .. }),
            "{response:?}"
        );
    }
    // The queues drained: the same read is admitted.
    assert_eq!(round_trip(&mut idle, 2, &get(9)), WireResponse::Value(None));
    assert_eq!(server.stats().overload_rejections, 1);
    server.shutdown();
}
