//! Concurrency stress: AFT's guarantees must not bend under pipelined I/O.
//!
//! Barrier-started client threads hammer one AFT node over the simulated S3
//! backend (no batch API: a commit's data puts and a multi-read's gets are
//! fanned out) and over the simulated DynamoDB (batch API: a commit's data is
//! one `BatchWriteItem`, a multi-read's misses one `BatchGetItem`) with the
//! pipelined I/O engine active (virtual clock, full-scale latencies
//! charged), mixing single reads, multi-reads (`get_all`), and multi-key
//! commits over a small contended key space. Every transaction's
//! observed read set must remain an Atomic Readset (§3.2) — zero fractured
//! reads, zero read-your-writes violations — no matter how the clients'
//! overlapped round trips and flushes interleave.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use aft_core::read::is_atomic_readset;
use aft_core::{AftNode, NodeConfig};
use aft_storage::io::IoConfig;
use aft_storage::{BackendConfig, BackendKind, LatencyMode, OpKind};
use aft_types::{AftError, Key, TransactionId, Value};
use bytes::Bytes;

const CLIENTS: usize = 8;
const TXNS_PER_CLIENT: usize = 50;
const KEYS: usize = 16;

/// CI's seed-matrix leg sets `AFT_TEST_SEED` so the same stress runs under
/// several deterministic seeds — "passes once" cannot hide a seed-dependent
/// interleaving. Locally, re-run a failing leg with the seed from the CI
/// job name: `AFT_TEST_SEED=2 cargo test --test stress_pipelined`.
fn test_seed() -> u64 {
    std::env::var("AFT_TEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn key(i: usize) -> Key {
    Key::new(format!("hot/{i:02}"))
}

fn value(client: usize, txn: usize, slot: usize) -> Value {
    Bytes::from(format!("c{client}-t{txn}-s{slot}"))
}

fn pipelined_node(kind: BackendKind) -> Arc<AftNode> {
    // Virtual clock at full scale: latencies are charged (so the engine's
    // overlap accounting is exercised) without sleeping, keeping the stress
    // fast and deterministic in wall-clock terms.
    let storage = aft_storage::make_backend(BackendConfig {
        kind,
        mode: LatencyMode::Virtual,
        scale: 1.0,
        seed: 0x57E55 ^ test_seed().wrapping_mul(0x9E37),
    });
    let config = NodeConfig {
        // No data cache: every committed read exercises the engine.
        data_cache_bytes: 0,
        io: IoConfig::pipelined(),
        rng_seed: 0xAF71 ^ test_seed().wrapping_mul(0xC2B2),
        ..NodeConfig::test()
    };
    AftNode::new(config, storage).expect("node over the simulated backend")
}

/// Runs the stress workload; returns (ryw, fractured) anomaly counts.
fn hammer(node: &Arc<AftNode>) -> (u64, u64) {
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let ryw_anomalies = AtomicU64::new(0);
    let fr_anomalies = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let node = Arc::clone(node);
            let barrier = Arc::clone(&barrier);
            let ryw_anomalies = &ryw_anomalies;
            let fr_anomalies = &fr_anomalies;
            scope.spawn(move || {
                barrier.wait();
                for txn in 0..TXNS_PER_CLIENT {
                    let txid = node.start_transaction();
                    let mut reads: Vec<(Key, TransactionId)> = Vec::new();
                    let mut written: HashMap<Key, Value> = HashMap::new();
                    let mut aborted = false;

                    // Mixed workload: an overlapped multi-read, then single
                    // reads and writes over a 16-key space with offsets that
                    // keep clients colliding.
                    if txn % 3 == 0 {
                        let multi: Vec<Key> = (0..4)
                            .map(|j| key((client * 5 + txn * 7 + j * 3) % KEYS))
                            .collect();
                        match node.get_all(&txid, &multi) {
                            Ok(_) => {}
                            Err(AftError::NoValidVersion { .. }) => {
                                let _ = node.abort(&txid);
                                continue;
                            }
                            Err(other) => panic!("unexpected get_all error: {other:?}"),
                        }
                    }
                    for slot in 0..5 {
                        let k = key((client * 7 + txn * 3 + slot * 5) % KEYS);
                        if slot % 5 < 3 {
                            match node.get_versioned(&txid, &k) {
                                Ok(Some((observed, Some(version)))) => {
                                    reads.push((k, version));
                                    let _ = observed;
                                }
                                Ok(Some((observed, None))) => {
                                    // Served from our own write buffer:
                                    // read-your-writes must hold bytewise.
                                    if written.get(&k) != Some(&observed) {
                                        ryw_anomalies.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                Ok(None) => {}
                                Err(AftError::NoValidVersion { .. }) => {
                                    // §3.6: abort and move on, like a retried
                                    // client request would.
                                    let _ = node.abort(&txid);
                                    aborted = true;
                                    break;
                                }
                                Err(other) => panic!("unexpected read error: {other:?}"),
                            }
                        } else {
                            let v = value(client, txn, slot);
                            node.put(&txid, k.clone(), v.clone()).expect("put");
                            written.insert(k, v);
                        }
                    }
                    if aborted {
                        continue;
                    }
                    if !is_atomic_readset(&reads, node.metadata()) {
                        fr_anomalies.fetch_add(1, Ordering::Relaxed);
                    }
                    node.commit(&txid).expect("commit");
                }
            });
        }
    });

    (
        ryw_anomalies.load(Ordering::Relaxed),
        fr_anomalies.load(Ordering::Relaxed),
    )
}

/// Hammers `node` and checks what must hold over any backend.
fn assert_no_anomalies(node: &Arc<AftNode>) {
    let (ryw, fractured) = hammer(node);
    assert_eq!(ryw, 0, "read-your-writes anomalies under pipelined I/O");
    assert_eq!(fractured, 0, "fractured reads under pipelined I/O");
    assert_eq!(node.in_flight(), 0, "no dangling transactions");

    let io_stats = node.io().stats();
    assert!(io_stats.submitted > 0);
    assert_eq!(io_stats.submitted, io_stats.completed, "nothing lost");
    // Per-commit storage costs were recorded for every flushed commit.
    assert!(!node.stats().commit_storage_latency().is_empty());
}

#[test]
fn read_atomicity_holds_over_the_pipelined_s3_sim() {
    let node = pipelined_node(BackendKind::S3);
    assert_no_anomalies(&node);

    // The engine really pipelined: multi-key commits submit their data puts
    // concurrently, so the in-flight window must have been exercised.
    let io_stats = node.io().stats();
    assert!(
        io_stats.peak_in_flight >= 2,
        "commit flushes must overlap their data puts: {io_stats:?}"
    );
    let batch = node.commit_batch_stats();
    assert_eq!(batch.flushes, batch.submitted);
    // S3 has no multi-key read: a multi-read's misses are single gets.
    let calls = node.io().storage().stats();
    assert_eq!(calls.calls(OpKind::BatchGet), 0);
}

#[test]
fn read_atomicity_holds_over_dynamodb_batch_calls() {
    let node = pipelined_node(BackendKind::DynamoDb);
    assert_no_anomalies(&node);

    // Every commit was its own flush, its data through the batch API, and
    // multi-reads fetched their misses through it too.
    let batch = node.commit_batch_stats();
    assert!(batch.submitted > 0);
    assert_eq!(batch.flushes, batch.submitted);
    let calls = node.io().storage().stats();
    assert!(calls.calls(OpKind::BatchPut) > 0);
    assert!(calls.calls(OpKind::BatchGet) > 0);
}

#[test]
fn pipelined_and_sequential_io_agree_on_committed_state() {
    // The same single-threaded history through a pipelined node and a
    // sequential node must commit identical data (pipelining changes
    // latency, never outcomes).
    let run = |io: IoConfig| -> Vec<String> {
        let storage =
            aft_storage::make_backend(BackendConfig::test(BackendKind::S3).with_seed(0xD1FF));
        let node = AftNode::new(
            NodeConfig {
                io,
                ..NodeConfig::test()
            },
            storage.clone(),
        )
        .unwrap();
        for t in 0..10 {
            let txid = node.start_transaction();
            for j in 0..4 {
                node.put(&txid, key((t * 4 + j) % KEYS), value(0, t, j))
                    .unwrap();
            }
            node.commit(&txid).unwrap();
        }
        storage.list_prefix("data/").unwrap()
    };
    let sequential = run(IoConfig::sequential());
    let pipelined = run(IoConfig::pipelined());
    assert_eq!(sequential.len(), pipelined.len());
}
