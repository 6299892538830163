//! Property-based test: the pipelined I/O engine is observationally
//! equivalent to the sequential engine.
//!
//! Pipelining may only change *when* round trips happen, never what the
//! store ends up holding: applying the same batched workload through a
//! pipelined [`IoEngine`] and through the sequential wrapper must produce
//! byte-identical final storage state. Batches use distinct keys per batch
//! (concurrent writes to one key have no defined order in either engine) and
//! the engine barriers between batches, exactly like the commit flush does.
//!
//! A second property checks the overlap accounting itself: a pipelined
//! batch's charged latency equals its slowest member, never the sum. A third
//! checks reads: a batched multi-key read returns, in order, exactly what
//! the sequential engine's per-key reads return.

use std::sync::Arc;
use std::time::Duration;

use aft_storage::io::{IoConfig, IoEngine, StorageRequest};
use aft_storage::{
    LatencyMode, LatencyModel, OpKind, SequentialEngine, Service, SharedStorage, SimStore,
    DEFAULT_STRIPES,
};
use aft_types::Value;
use bytes::Bytes;
use proptest::prelude::*;

/// One batch of a generated workload; keys inside a batch are deduplicated.
#[derive(Debug, Clone)]
enum Step {
    Puts(Vec<(String, Vec<u8>)>),
    Deletes(Vec<String>),
    NativeBatch(Vec<(String, Vec<u8>)>),
}

fn arb_key() -> impl Strategy<Value = String> {
    // A small alphabet so batches collide across (never within) batches.
    "[ab]{1,2}[0-9]{0,1}".prop_map(|tail| format!("data/{tail}"))
}

fn dedup_keys<T>(items: Vec<(String, T)>) -> Vec<(String, T)> {
    let mut seen = std::collections::HashSet::new();
    items
        .into_iter()
        .filter(|(k, _)| seen.insert(k.clone()))
        .collect()
}

fn arb_batch() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => proptest::collection::vec(
            (arb_key(), proptest::collection::vec(any::<u8>(), 0..16)),
            1..8
        )
        .prop_map(|items| Step::Puts(dedup_keys(items))),
        2 => proptest::collection::vec(arb_key(), 1..8).prop_map(|keys| {
            let mut keys = keys;
            keys.sort();
            keys.dedup();
            Step::Deletes(keys)
        }),
        2 => proptest::collection::vec(
            (arb_key(), proptest::collection::vec(any::<u8>(), 0..16)),
            1..8
        )
        .prop_map(|items| Step::NativeBatch(dedup_keys(items))),
    ]
}

fn apply(engine: &IoEngine, batch: &Step) {
    match batch {
        Step::Puts(items) => {
            // Individual puts submitted concurrently, barriered.
            let outcome = engine
                .submit_all(items.iter().map(|(k, v)| {
                    StorageRequest::Put(k.clone(), Value::from(Bytes::from(v.clone())))
                }))
                .wait_all();
            outcome.ok().unwrap();
        }
        Step::Deletes(keys) => {
            engine
                .execute(StorageRequest::DeleteBatch(keys.clone()))
                .result
                .unwrap();
        }
        Step::NativeBatch(items) => {
            engine
                .put_all(
                    items
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(Bytes::from(v.clone()))))
                        .collect(),
                )
                .unwrap();
        }
    }
}

/// Every key/value pair currently in the store, rendered for comparison.
fn full_state(engine: &IoEngine) -> Vec<(String, Option<Value>)> {
    let keys = engine
        .execute(StorageRequest::List(String::new()))
        .result
        .unwrap()
        .into_keys();
    keys.into_iter()
        .map(|k| {
            let v = engine
                .execute(StorageRequest::Get(k.clone()))
                .result
                .unwrap()
                .into_value();
            (k, v)
        })
        .collect()
}

fn s3_virtual(seed: u64) -> SharedStorage {
    Arc::new(SimStore::of(
        Service::S3,
        LatencyModel::new(LatencyMode::Virtual, 1.0),
        seed,
        DEFAULT_STRIPES,
    ))
}

/// Keys over a 150-key space of which every other key is stored: reads mix
/// present, missing and repeated keys, and run past one `BatchGetItem`'s 100.
fn arb_read() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(0usize..150, 0..260)
        .prop_map(|ids| ids.into_iter().map(|i| format!("data/{i:03}")).collect())
}

/// A virtual-clock store of `service` holding every even key of the space.
fn half_full(service: Service) -> SharedStorage {
    let latency = LatencyModel::new(LatencyMode::Virtual, 1.0);
    let store: SharedStorage = Arc::new(SimStore::of(service, latency, 3, DEFAULT_STRIPES));
    for i in (0..150).step_by(2) {
        store
            .put(&format!("data/{i:03}"), Bytes::from(format!("v{i}")))
            .unwrap();
    }
    store
}

proptest! {
    #[test]
    fn batched_reads_return_what_sequential_reads_return(keys in arb_read()) {
        for service in [Service::MEMORY, Service::DYNAMODB] {
            let sequential = IoEngine::new(
                SequentialEngine::new(half_full(service)) as SharedStorage,
                IoConfig::sequential(),
            );
            let expected = sequential.get_all(keys.clone()).unwrap();
            let batched = IoEngine::new(half_full(service), IoConfig::pipelined());
            let values = batched.get_all(keys.clone()).unwrap();
            prop_assert_eq!(&values, &expected);

            let one_call = service.batch_get.unwrap().limit;
            let calls = |engine: &IoEngine, op| engine.storage().stats().calls(op);
            prop_assert_eq!(calls(&sequential, OpKind::BatchGet), 0);
            prop_assert_eq!(calls(&sequential, OpKind::Get), keys.len() as u64);
            if keys.len() > 1 {
                let batch_calls = keys.len().div_ceil(one_call) as u64;
                prop_assert_eq!(calls(&batched, OpKind::BatchGet), batch_calls);
            }
        }
    }

    #[test]
    fn pipelined_engine_reaches_the_sequential_final_state(
        batches in proptest::collection::vec(arb_batch(), 1..24),
        window in 2usize..12,
    ) {
        let sequential = IoEngine::new(
            SequentialEngine::new(s3_virtual(1)) as SharedStorage,
            IoConfig::sequential(),
        );
        let pipelined = IoEngine::new(
            s3_virtual(1),
            IoConfig::pipelined().with_max_in_flight(window),
        );
        for batch in &batches {
            apply(&sequential, batch);
            apply(&pipelined, batch);
        }
        prop_assert_eq!(full_state(&pipelined), full_state(&sequential));
    }

    #[test]
    fn pipelined_batch_cost_is_the_max_member_never_the_sum(
        keys in proptest::collection::vec(arb_key(), 2..10),
    ) {
        let mut keys = keys;
        keys.sort();
        keys.dedup();
        let engine = IoEngine::new(s3_virtual(9), IoConfig::pipelined());
        let outcome = engine
            .submit_all(keys.iter().map(|k| {
                StorageRequest::Put(k.clone(), Value::from(Bytes::from_static(b"v")))
            }))
            .wait_all();
        let max = outcome.costs.iter().copied().max().unwrap_or(Duration::ZERO);
        let sum: Duration = outcome.costs.iter().sum();
        prop_assert_eq!(outcome.cost, max);
        if outcome.costs.len() > 1 {
            prop_assert!(outcome.cost < sum, "overlap accounting must beat the sum");
        }
        prop_assert!(outcome.ok().is_ok());
    }
}

#[test]
fn engines_share_one_arc_backend_safely() {
    // Many engines over one backend (the cluster layout: every node has its
    // own engine over the shared store) must interleave without losing
    // writes.
    let backend = s3_virtual(4);
    let engines: Vec<IoEngine> = (0..4)
        .map(|_| IoEngine::new(Arc::clone(&backend) as SharedStorage, IoConfig::pipelined()))
        .collect();
    std::thread::scope(|scope| {
        for (i, engine) in engines.iter().enumerate() {
            scope.spawn(move || {
                for j in 0..25 {
                    engine
                        .execute(StorageRequest::Put(
                            format!("e{i}/k{j}"),
                            Value::from(Bytes::from_static(b"v")),
                        ))
                        .result
                        .unwrap();
                }
            });
        }
    });
    let listed = engines[0]
        .execute(StorageRequest::List(String::new()))
        .result
        .unwrap()
        .into_keys();
    assert_eq!(listed.len(), 100);
}
