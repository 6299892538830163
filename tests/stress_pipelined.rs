//! Concurrency stress: AFT's guarantees must not bend under pipelined I/O.
//!
//! Barrier-started client threads hammer one AFT node over the simulated S3
//! backend (no batch API: a commit's data puts and a multi-read's gets are
//! fanned out) and over the simulated DynamoDB (batch API: a commit's data is
//! one `BatchWriteItem`, a multi-read's misses one `BatchGetItem`) with the
//! pipelined I/O engine active (virtual clock, full-scale latencies
//! charged), mixing single reads, multi-reads (`get_all`), and multi-key
//! commits over a small contended key space, each call through one history
//! recorder. The history checker must find every transaction's read set
//! atomic (§3.2) — zero fractured reads, zero read-your-writes violations,
//! no bytes a writer did not write — no matter how the clients' overlapped
//! round trips and flushes interleave.

use std::sync::{Arc, Barrier};

use aft::core::{AftNode, NodeConfig, INLINE_BYTES};
use aft::storage::io::IoConfig;
use aft::storage::{BackendConfig, BackendKind, LatencyMode, OpKind};
use aft::types::{AftError, Key, Value};
use aft::workload::history::{self, FinalRead, History, Recorder, Verdict};
use aft::workload::sim::held_versions;
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

/// The value a client writes: unique to its write, padded to at least
/// `size` bytes.
fn value(client: usize, txn: usize, slot: usize, size: usize) -> Value {
    let mut value = format!("c{client}-t{txn}-s{slot}").into_bytes();
    value.resize(value.len().max(size), b'.');
    Bytes::from(value)
}

/// A value size no commit record carries: every commit writes its data and
/// then its record, the two-write path these stresses are about.
const LARGE: usize = INLINE_BYTES + 1;

fn pipelined_node(kind: BackendKind) -> Arc<AftNode> {
    // Virtual clock at full scale: latencies are charged (so the engine's
    // overlap accounting is exercised) without sleeping, keeping the stress
    // fast and deterministic in wall-clock terms.
    let storage = aft::storage::make_backend(BackendConfig {
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

/// Runs the stress workload, writing values of at least `size` bytes;
/// returns the history checker's verdict on what the clients saw.
fn hammer(node: &Arc<AftNode>, size: usize) -> Verdict {
    let barrier = Barrier::new(CLIENTS);
    let history = History::new();
    let api = Recorder::wrap(Arc::clone(node) as _, Arc::clone(&history), None);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (api, barrier) = (&api, &barrier);
            scope.spawn(move || {
                barrier.wait();
                'txns: for txn in 0..TXNS_PER_CLIENT {
                    let txid = api.begin().expect("begin is local");
                    // Mixed workload: an overlapped multi-read, then single
                    // reads and writes over a 16-key space with offsets that
                    // keep clients colliding.
                    if txn % 3 == 0 {
                        let multi: Vec<Key> = (0..4)
                            .map(|j| key((client * 5 + txn * 7 + j * 3) % KEYS))
                            .collect();
                        match api.get_all(&txid, &multi) {
                            Ok(_) => {}
                            Err(AftError::NoValidVersion { .. }) => {
                                let _ = api.abort(&txid);
                                continue;
                            }
                            Err(other) => panic!("unexpected get_all error: {other:?}"),
                        }
                    }
                    for slot in 0..5 {
                        let k = key((client * 7 + txn * 3 + slot * 5) % KEYS);
                        if slot % 5 >= 3 {
                            api.put(&txid, k, value(client, txn, slot, size))
                                .expect("put");
                            continue;
                        }
                        match api.get_versioned(&txid, &k) {
                            Ok(_) => {}
                            Err(AftError::NoValidVersion { .. }) => {
                                // §3.6: abort and move on, like a retried
                                // client request would.
                                let _ = api.abort(&txid);
                                continue 'txns;
                            }
                            Err(other) => panic!("unexpected read error: {other:?}"),
                        }
                    }
                    api.commit(&txid, &[]).expect("commit");
                }
            });
        }
    });
    history::check(&history.attempts(), &FinalRead::new())
}

/// Hammers `node` with values of at least `size` bytes and checks what must
/// hold over any backend.
fn assert_no_anomalies(node: &Arc<AftNode>, size: usize) {
    let verdict = hammer(node, size);
    assert_eq!(verdict, Verdict::default(), "anomalies under pipelined I/O");
    assert_eq!(node.in_flight(), 0, "no dangling transactions");

    assert!(node.io().stats().submitted > 0);
    // Every commit went through one flush.
    let committed = node.stats().committed();
    assert!(committed > 0);
    assert_eq!(node.commit_batch_stats().flushes, committed);
}

#[test]
fn read_atomicity_holds_over_the_pipelined_s3_sim() {
    let node = pipelined_node(BackendKind::S3);
    assert_no_anomalies(&node, LARGE);

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
    assert_no_anomalies(&node, LARGE);

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
fn read_atomicity_holds_when_every_commit_is_its_inline_record() {
    // Small values: every commit is one `Put` of a record that carries them,
    // and every read miss fetches a record and slices its value out.
    let node = pipelined_node(BackendKind::DynamoDb);
    assert_no_anomalies(&node, 0);
    let calls = node.io().storage().stats();
    assert_eq!(calls.calls(OpKind::BatchPut), 0);
    assert_eq!(calls.calls(OpKind::Put), node.stats().committed());
    assert!(calls.calls(OpKind::BatchGet) > 0);
    assert!(node.storage().list_prefix("data/").unwrap().is_empty());
}

#[test]
fn pipelined_and_sequential_io_agree_on_committed_state() {
    // The same single-threaded history through a pipelined node and a
    // sequential node must commit identical data (pipelining changes
    // latency, never outcomes).
    let run = |io: IoConfig| -> usize {
        let storage =
            aft::storage::make_backend(BackendConfig::test(BackendKind::S3).with_seed(0xD1FF));
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
                node.put(&txid, key((t * 4 + j) % KEYS), value(0, t, j, 0))
                    .unwrap();
            }
            node.commit(&txid).unwrap();
        }
        held_versions(&storage).len()
    };
    let sequential = run(IoConfig::sequential());
    let pipelined = run(IoConfig::pipelined());
    assert_eq!(sequential, pipelined);
}
