//! Stress: maintenance rounds racing commits.
//!
//! The metadata cache keeps Algorithm 2's verdict incrementally, and the
//! global GC deletes a whole round's garbage in one batch. Both run in the
//! maintenance round while committers hold transactions open on the same
//! caches. `aft_workload::sim`'s seeded stepper interleaves four committers
//! over a three-node cluster and a small Zipf key space, one API call a
//! step. The history checker must find no read fractured or missing its own
//! write, and no round may fail. Once everything is quiet the incremental
//! state must equal Algorithm 2 from scratch, every node must serve each
//! key's newest acknowledged write (the checker's model, not AFT's
//! metadata), and storage must hold no data whose commit record is gone,
//! nor an overwritten version no node and not the fault manager still
//! holds. No node fails, so the fault manager must recover no commit. It
//! runs over the memory row and over Redis, where one GC `DEL` spans the
//! transactions of a slot group, and over the memory row with a data cache
//! of 4 KiB a node and values past `INLINE_BYTES` (1 KiB) in every second
//! write: most reads there miss, and a miss on a version a peer committed
//! asks that peer, whose own small cache and sweeps have often dropped the
//! version since, so the read goes on to storage. A seed replays
//! the script exactly; with `--nocapture` it prints how many overwritten
//! versions its last round left for a later one, and how many reads each
//! source answered.

use std::collections::{HashMap, HashSet};

use aft::cluster::{Cluster, ClusterConfig};
use aft::core::{is_superseded, MetadataCache};
use aft::storage::{make_backend, BackendConfig, BackendKind, InMemoryStore, SharedStorage};
use aft::types::clock::TickingClock;
use aft::types::{Key, KeyVersion, TransactionId, TransactionRecord, Uuid};
use aft::workload::history::{self, Verdict};
use aft::workload::sim::{self, Op, Request, Seeded};
use aft::workload::ZipfGenerator;
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
/// of the writes back, over a Zipf(1) key space. Every second write is of
/// a value past `INLINE_BYTES` when `large`.
fn requests(seed: u64, large: bool) -> Vec<Vec<Request>> {
    let rng = &mut StdRng::seed_from_u64(seed);
    let zipf = ZipfGenerator::new(KEYS, 1.0);
    let mut request = || {
        let read = Op::Read(key(zipf.sample(rng)));
        let writes: Vec<Key> = (0..rng.gen_range(1..4))
            .map(|_| key(zipf.sample(rng)))
            .collect();
        let back = Op::Read(writes[rng.gen_range(0..writes.len())].clone());
        let writes = writes.into_iter().enumerate().map(|(i, key)| match i % 2 {
            0 if large => Op::WriteLarge(key),
            _ => Op::Write(key),
        });
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
    race_maintenance(InMemoryStore::shared(), None);
}

/// On Redis one GC `DEL` carries every collected key of a slot group.
#[test]
fn maintenance_racing_commits_keeps_storage_consistent_on_redis() {
    race_maintenance(make_backend(BackendConfig::test(BackendKind::Redis)), None);
}

/// A read that misses asks the version's origin, a peer whose 4 KiB cache
/// evicts on most commits and whose sweeps drop overwritten versions: both
/// the peer's answer and the storage read after a peer's miss must hold.
#[test]
fn reads_pulled_from_sweeping_evicting_origins_are_clean() {
    let sources = race_maintenance(InMemoryStore::shared(), Some(4 * 1024));
    let (peers, storage) = sources;
    assert!(peers > 0, "no read was answered by the version's origin");
    assert!(storage > 0, "no read went to storage");
}

/// Runs the race over `raw`, with a data cache of `cache_bytes` a node and
/// large values in every second write (the default cache and small values
/// when `None`), and returns how many reads the versions' origins and
/// storage answered.
fn race_maintenance(raw: SharedStorage, cache_bytes: Option<usize>) -> (u64, u64) {
    let large = cache_bytes.is_some();
    let seed = test_seed();
    let mut config = ClusterConfig::test(3);
    config.node_template.rng_seed = 0xAF71 ^ seed.wrapping_mul(0xC2B2);
    if let Some(bytes) = cache_bytes {
        config.node_template.data_cache_bytes = bytes;
    }
    let cluster = Cluster::with_clock(config, raw.clone(), TickingClock::shared(1, 1)).unwrap();

    let run = sim::run(
        &cluster,
        requests(0x5EED ^ seed.wrapping_mul(0x9E37), large),
        &mut Seeded::new(seed.wrapping_mul(0xD1B5), None),
    );
    assert_eq!(run.anomalies, 0, "the history checker found read anomalies");
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
    // No node failed, so every record reached the peers by dissemination: a
    // record the scan found while its node still held it was left to that
    // node's drain.
    assert_eq!(
        cluster.fault_manager().recovered_commits(),
        0,
        "the fault manager recovered a commit no node lost"
    );

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

    // Every node serves each key's newest acknowledged write, exactly.
    let model = history::model(&run.history);
    let keys = history::written_keys(&run.history);
    for node in &nodes {
        let final_read = history::read_back(node.as_ref(), keys.clone()).unwrap();
        let verdict = history::check(&run.history, &final_read);
        assert_eq!(verdict, Verdict::default(), "on {}", node.node_id());
        for key in &keys {
            let newest = model.get(key).map(|(id, value)| (value.clone(), *id));
            assert_eq!(final_read[key], newest, "{key} on {}", node.node_id());
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
        if model.get(&key).map(|(newest, _)| *newest) == Some(id) {
            continue;
        }
        assert!(
            views.iter().any(|v| v.view().holds(&key, &id)),
            "{data_key} is an overwritten version no view holds"
        );
        held += 1;
    }
    let reads = nodes.iter().map(|node| node.stats().snapshot());
    let (peers, storage) = reads.fold((0, 0), |(peers, storage), read| {
        (
            peers + read.reads_from_peers,
            storage + read.reads_from_storage,
        )
    });
    println!(
        "seed {seed}, {}: {held} overwritten versions still held; reads \
         answered by origins {peers}, by storage {storage}",
        raw.name()
    );
    (peers, storage)
}
