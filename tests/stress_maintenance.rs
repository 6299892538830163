//! Stress: maintenance rounds racing commits.
//!
//! The metadata cache keeps Algorithm 2's verdict incrementally, and the
//! global GC deletes a whole round's garbage in one batch. Both run in the
//! maintenance round while committers hold transactions open on the same
//! caches. `aft_workload::sim`'s seeded stepper interleaves four committers
//! over a three-node cluster and a small Zipf key space, one API call a
//! step. No read may be fractured or miss its own write, and no round may
//! fail. Once everything is quiet the incremental state must equal
//! Algorithm 2 from scratch, no key may have lost its newest version, and
//! storage must hold no data whose commit record is gone, nor an
//! overwritten version no node and not the fault manager still holds. A
//! seed replays the script exactly; with `--nocapture` it prints how many
//! overwritten versions its last round left for a later one.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use aft::cluster::{Cluster, ClusterConfig};
use aft::core::api::AftApi;
use aft::core::{is_superseded, MetadataCache};
use aft::storage::{InMemoryStore, StorageEngine};
use aft::types::clock::TickingClock;
use aft::types::{Key, KeyVersion, TransactionId, TransactionRecord, Uuid};
use aft::workload::sim::{self, Op, Request};
use aft::workload::ZipfGenerator;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const COMMITTERS: usize = 4;
const TXNS_PER_COMMITTER: usize = 150;
const KEYS: usize = 24;
/// At least this many rounds must run while a transaction is open, so the
/// race is asserted rather than left to the seed.
const MIN_RACING_ROUNDS: u64 = 8;

/// CI's seed-matrix leg sets `AFT_TEST_SEED` so the same stress runs under
/// several deterministic seeds; it seeds both the stepper and the
/// committers. Locally, re-run a failing leg with the seed from the CI job
/// name: `AFT_TEST_SEED=2 cargo test --test stress_maintenance`.
fn test_seed() -> u64 {
    std::env::var("AFT_TEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn key(i: usize) -> Key {
    Key::new(format!("hot/{i:02}"))
}

/// Each committer's requests: read one key, write one to three, read one
/// of the writes back, over a Zipf(1) key space.
fn requests(seed: u64) -> Vec<Vec<Request>> {
    let rng = &mut StdRng::seed_from_u64(seed);
    let zipf = ZipfGenerator::new(KEYS, 1.0);
    let mut request = || {
        let read = Op::Read(key(zipf.sample(rng)));
        let writes: Vec<Key> = (0..rng.gen_range(1..4))
            .map(|_| key(zipf.sample(rng)))
            .collect();
        let back = Op::Read(writes[rng.gen_range(0..writes.len())].clone());
        let writes = writes.into_iter().map(Op::Write);
        [read].into_iter().chain(writes).chain([back]).collect()
    };
    (0..COMMITTERS)
        .map(|_| (0..TXNS_PER_COMMITTER).map(|_| request()).collect())
        .collect()
}

/// Algorithm 2 recomputed over everything `cache` holds.
fn superseded_by_definition(cache: &MetadataCache) -> Vec<TransactionId> {
    let mut ids: Vec<TransactionId> = cache
        .all_records()
        .iter()
        .filter(|r| is_superseded(r, cache))
        .map(|r| r.id)
        .collect();
    ids.sort();
    ids
}

fn superseded_set(cache: &MetadataCache) -> Vec<TransactionId> {
    cache
        .superseded_oldest_first()
        .iter()
        .map(|r| r.id)
        .collect()
}

#[test]
fn maintenance_racing_commits_keeps_supersedence_and_storage_consistent() {
    let seed = test_seed();
    let raw = InMemoryStore::shared();
    let mut config = ClusterConfig::test(3);
    config.node_template.rng_seed = 0xAF71 ^ seed.wrapping_mul(0xC2B2);
    let cluster = Cluster::with_clock(config, raw.clone(), TickingClock::shared(1, 1)).unwrap();

    let run = sim::run(
        &cluster,
        &|| cluster.route().map(|node| node as Arc<dyn AftApi>),
        None,
        requests(0x5EED ^ seed.wrapping_mul(0x9E37)),
        0x57E9 ^ seed.wrapping_mul(0xD1B5),
    );
    assert_eq!(run.anomalies, 0, "fractured reads or missed own writes");
    assert_eq!(run.failed_rounds, 0, "a maintenance round failed");
    assert!(
        run.racing_rounds >= MIN_RACING_ROUNDS,
        "too few racing rounds"
    );

    // Two quiescent rounds: the first delivers what the last racing round
    // missed and collects it locally, the second lets the global GC see every
    // node agree.
    for _ in 0..2 {
        cluster.run_maintenance_round().unwrap();
    }
    assert!(cluster.total_gc_deleted() > 0, "local GC must have run");

    // The incremental superseded sets are exactly Algorithm 2.
    let nodes = cluster.active_nodes();
    let view = cluster.fault_manager().metadata();
    assert_eq!(superseded_set(view), superseded_by_definition(view));
    for node in &nodes {
        assert_eq!(
            superseded_set(node.metadata()),
            superseded_by_definition(node.metadata()),
            "{}",
            node.node_id()
        );
    }

    // Every key's newest version survived and is what every node serves.
    for i in 0..KEYS {
        let Some(newest) = view.latest_version_of(&key(i)) else {
            continue;
        };
        for node in &nodes {
            let txid = node.start_transaction();
            let served = node.get(&txid, &key(i)).unwrap();
            assert_eq!(
                served,
                Some(Bytes::from(newest.uuid.to_string())),
                "{} on {}",
                key(i),
                node.node_id()
            );
            node.abort(&txid).unwrap();
        }
    }

    // The global GC forgot exactly what it deleted, and no data key outlived
    // its commit record.
    let committed: HashSet<Uuid> = raw
        .list_prefix(&TransactionRecord::storage_prefix())
        .unwrap()
        .iter()
        .map(|k| TransactionRecord::id_from_storage_key(k).unwrap().uuid)
        .collect();
    assert_eq!(committed.len(), view.len());
    for data_key in raw.list_prefix("data/").unwrap() {
        let (_, writer) = KeyVersion::parse_storage_key(&data_key).unwrap();
        assert!(
            committed.contains(&writer),
            "{data_key} has no commit record"
        );
    }

    // And no overwritten version outlived every view: a data key left is its
    // key's newest version or one that a node or the fault manager still
    // holds, which a later round deletes.
    let id_of: HashMap<Uuid, TransactionId> = view
        .all_records()
        .iter()
        .map(|r| (r.id.uuid, r.id))
        .collect();
    let views: Vec<&MetadataCache> = nodes.iter().map(|n| n.metadata()).chain([view]).collect();
    let mut held = 0;
    for data_key in raw.list_prefix("data/").unwrap() {
        let (key, writer) = KeyVersion::parse_storage_key(&data_key).unwrap();
        let id = id_of[&writer];
        if view.latest_version_of(&key) == Some(id) {
            continue;
        }
        assert!(
            views.iter().any(|v| v.view().holds(&key, &id)),
            "{data_key} is an overwritten version no view holds"
        );
        held += 1;
    }
    println!("seed {seed}: {held} overwritten versions still held");
}
