//! Stress: maintenance rounds racing commits.
//!
//! The metadata cache keeps Algorithm 2's verdict incrementally — every
//! insert and remove updates the superseded set the garbage collectors sweep
//! — and the global GC deletes a whole round's garbage in one batch. Both run
//! in the maintenance round while committers hold transactions open on the
//! same caches. One seeded stepper interleaves four committers over a
//! three-node cluster and a small Zipf key space, one API call a step, with
//! a maintenance round on about one step in twenty; once everything is
//! quiet the incremental state must equal what Algorithm 2 computes from
//! scratch, no key may have lost its newest version, and storage must hold
//! no data whose commit record is gone. The script is bounded by
//! construction (600 transactions) and a seed replays it exactly.

use std::collections::HashSet;
use std::sync::Arc;

use aft_cluster::{Cluster, ClusterConfig};
use aft_core::{is_superseded, AftNode, MetadataCache};
use aft_storage::{InMemoryStore, SharedStorage, StorageEngine};
use aft_types::clock::TickingClock;
use aft_types::{AftError, Key, KeyVersion, TransactionId, TransactionRecord, Uuid};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const COMMITTERS: usize = 4;
const TXNS_PER_COMMITTER: usize = 150;
const KEYS: usize = 24;
/// About one step in this many is a maintenance round.
const MAINTENANCE_ONE_IN: u32 = 20;
/// At least this many rounds must run while a transaction is open, so the
/// race is asserted rather than left to the seed.
const MIN_RACING_ROUNDS: usize = 8;

/// CI's seed-matrix leg sets `AFT_TEST_SEED` so the same stress runs under
/// several deterministic seeds; it seeds both the stepper and the
/// committers. Locally, re-run a failing leg with the seed from the CI job
/// name: `AFT_TEST_SEED=2 cargo test -p aft-cluster --test stress_maintenance`.
fn test_seed() -> u64 {
    std::env::var("AFT_TEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn key(i: usize) -> Key {
    Key::new(format!("hot/{i:02}"))
}

/// Draws a key index with probability proportional to `1 / (rank + 1)`.
fn zipf(rng: &mut StdRng) -> usize {
    let total: f64 = (1..=KEYS).map(|rank| 1.0 / rank as f64).sum();
    let mut point = rng.gen_range(0.0..total);
    for i in 0..KEYS {
        point -= 1.0 / (i + 1) as f64;
        if point < 0.0 {
            return i;
        }
    }
    KEYS - 1
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

/// An open transaction's next call.
#[derive(Clone, Copy)]
enum Call {
    Read,
    Put { left: usize },
    Commit,
    Abort,
}

/// One committer: begins, reads one key, writes one to three, commits —
/// one call per [`Committer::step`] — until it has run its transactions.
struct Committer {
    rng: StdRng,
    txns: usize,
    open: Option<(Arc<AftNode>, TransactionId, Call)>,
}

impl Committer {
    fn done(&self) -> bool {
        self.txns == TXNS_PER_COMMITTER && self.open.is_none()
    }

    fn step(&mut self, cluster: &Cluster) {
        let Some((node, txid, call)) = self.open.take() else {
            self.txns += 1;
            let node = cluster.route().expect("an active node");
            let txid = node.start_transaction();
            self.open = Some((node, txid, Call::Read));
            return;
        };
        let next = match call {
            // One read, so local GC meets records it must retain for a
            // running reader; GC may also have deleted the version under
            // it (§5.2.1), which is a retry.
            Call::Read => match node.get(&txid, &key(zipf(&mut self.rng))) {
                Ok(_) => Call::Put {
                    left: self.rng.gen_range(1..4usize),
                },
                Err(AftError::NoValidVersion { .. }) => Call::Abort,
                Err(other) => panic!("unexpected read error: {other:?}"),
            },
            Call::Put { left } => {
                // Every value names its writer, so the final read-back can
                // tell which version it was served.
                let value = Bytes::from(txid.uuid.to_string());
                node.put(&txid, key(zipf(&mut self.rng)), value)
                    .expect("put");
                match left - 1 {
                    0 => Call::Commit,
                    left => Call::Put { left },
                }
            }
            Call::Commit => {
                node.commit(&txid).expect("commit");
                return;
            }
            Call::Abort => {
                node.abort(&txid).expect("abort");
                return;
            }
        };
        self.open = Some((node, txid, next));
    }
}

#[test]
fn maintenance_racing_commits_keeps_supersedence_and_storage_consistent() {
    let raw = InMemoryStore::shared();
    let storage: SharedStorage = raw.clone();
    let mut config = ClusterConfig::test(3);
    config.node_template.rng_seed = 0xAF71 ^ test_seed().wrapping_mul(0xC2B2);
    let cluster = Cluster::with_clock(config, storage, TickingClock::shared(1, 1)).unwrap();

    let mut committers: Vec<Committer> = (0..COMMITTERS)
        .map(|client| Committer {
            rng: StdRng::seed_from_u64((0x5EED + client as u64) ^ test_seed().wrapping_mul(0x9E37)),
            txns: 0,
            open: None,
        })
        .collect();
    let mut stepper = StdRng::seed_from_u64(0x57E9 ^ test_seed().wrapping_mul(0xD1B5));
    let mut racing_rounds = 0;
    loop {
        let mut busy: Vec<&mut Committer> = committers.iter_mut().filter(|c| !c.done()).collect();
        if busy.is_empty() {
            break;
        }
        if stepper.gen_range(0..MAINTENANCE_ONE_IN) == 0 {
            cluster.run_maintenance_round().expect("maintenance round");
            racing_rounds += usize::from(busy.iter().any(|c| c.open.is_some()));
        } else {
            let pick = stepper.gen_range(0..busy.len());
            busy[pick].step(&cluster);
        }
    }
    assert!(
        racing_rounds >= MIN_RACING_ROUNDS,
        "only {racing_rounds} maintenance rounds ran while a transaction was open"
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
}
