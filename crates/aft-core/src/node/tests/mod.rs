//! The node's unit tests. Each seam's tests are in the file of its name in
//! this directory, next to the helpers below; `include!` compiles them all
//! into this one module, so every test keeps its name `node::tests::<name>`
//! whichever seam it exercises.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use aft_storage::{BackendConfig, BackendKind, InMemoryStore, SharedStorage, StorageEngine};
use aft_types::codec::encode_keyed_commit_record;
use aft_types::{
    AftError, AftResult, Key, KeyVersion, MockClock, TransactionId, TransactionRecord, Uuid, Value,
};
use bytes::Bytes;
use parking_lot::Mutex;

use super::*;

fn val(s: &str) -> Value {
    Bytes::copy_from_slice(s.as_bytes())
}

fn test_node() -> Arc<AftNode> {
    let storage: SharedStorage = InMemoryStore::shared();
    // A strictly increasing clock keeps commit order equal to timestamp
    // order, which makes version-selection assertions deterministic.
    AftNode::with_clock(
        NodeConfig::test(),
        storage,
        aft_types::clock::TickingClock::shared(1_000, 1),
    )
    .unwrap()
}

/// Commits one transaction writing `writes` on `node`.
fn commit_writes(node: &AftNode, writes: &[(&str, &str)]) -> TransactionId {
    let t = node.start_transaction();
    for (key, value) in writes {
        node.put(&t, Key::new(*key), val(value)).unwrap();
    }
    node.commit(&t).unwrap()
}

/// A phase hook that crashes the node at one phase, if any, recording
/// every phase it is asked at first.
#[derive(Debug, Default)]
struct CrashAt {
    phase: Option<CommitPhase>,
    seen: Mutex<Vec<CommitPhase>>,
}

impl PhaseHook for CrashAt {
    fn at(&self, node_id: &str, phase: CommitPhase) -> AftResult<()> {
        self.seen.lock().push(phase);
        if self.phase != Some(phase) {
            return Ok(());
        }
        let label = phase.label();
        Err(AftError::Unavailable(format!("{node_id} crashed {label}")))
    }
}

/// A node over `storage` whose phase hook crashes it at `phase`.
fn crashing_at(phase: Option<CommitPhase>, storage: SharedStorage) -> (Arc<AftNode>, Arc<CrashAt>) {
    let hook = Arc::new(CrashAt {
        phase,
        ..CrashAt::default()
    });
    let config = NodeConfig {
        phase_hook: Some(hook.clone()),
        ..NodeConfig::test()
    };
    let clock = MockClock::starting_at(1).shared();
    (AftNode::with_clock(config, storage, clock).unwrap(), hook)
}

#[test]
fn bootstrap_recovers_committed_state() {
    let storage: SharedStorage = InMemoryStore::shared();
    let clock = MockClock::starting_at(100);
    {
        let node =
            AftNode::with_clock(NodeConfig::test(), storage.clone(), clock.shared()).unwrap();
        let t = node.start_transaction();
        node.put(&t, Key::new("k"), val("durable")).unwrap();
        node.commit(&t).unwrap();
        // Node "fails" here (dropped).
    }
    // A replacement node bootstraps from the Transaction Commit Set.
    let node2 = AftNode::with_clock(NodeConfig::test(), storage, clock.shared()).unwrap();
    let t = node2.start_transaction();
    assert_eq!(
        node2.get(&t, &Key::new("k")).unwrap().unwrap(),
        val("durable")
    );
}

#[test]
fn bootstrap_loads_every_commit_however_long_the_history() {
    // Every commit wrote its own key, so all of them are live: a node
    // that warmed only part of the commit set would answer `None` for a
    // committed key, and no peer or fault manager would ever correct it.
    const COMMITS: u64 = 100_001;
    let storage: SharedStorage = InMemoryStore::shared();
    let mut items = Vec::new();
    for ts in 1..=COMMITS {
        let id = TransactionId::new(ts, Uuid::from_u128(ts as u128));
        let key = Key::new(format!("k{ts}"));
        let record = TransactionRecord::new(id, [key.clone()]);
        items.push((KeyVersion::new(key, id).storage_key(), val("v")));
        items.push((record.storage_key(), encode_keyed_commit_record(&record)));
    }
    storage.put_batch(items).unwrap();

    let node = AftNode::new(NodeConfig::default(), storage).unwrap();
    assert_eq!(node.metadata().len(), COMMITS as usize);
    let t = node.start_transaction();
    for ts in [1, COMMITS] {
        let key = Key::new(format!("k{ts}"));
        assert_eq!(node.get(&t, &key).unwrap(), Some(val("v")), "{key}");
    }
}

#[test]
fn works_over_every_simulated_backend() {
    for kind in [BackendKind::S3, BackendKind::DynamoDb, BackendKind::Redis] {
        let storage = aft_storage::make_backend(BackendConfig::test(kind));
        let node = AftNode::with_clock(
            NodeConfig::test(),
            storage,
            MockClock::starting_at(1).shared(),
        )
        .unwrap();
        let t = node.start_transaction();
        node.put(&t, Key::new("k"), val("v")).unwrap();
        node.commit(&t).unwrap();
        let t2 = node.start_transaction();
        assert_eq!(
            node.get(&t2, &Key::new("k")).unwrap().unwrap(),
            val("v"),
            "backend {kind}"
        );
    }
}

include!("read_path.rs");
include!("commit_path.rs");
include!("maintenance.rs");
include!("checkpoint.rs");
