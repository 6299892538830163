//! Property: collecting single versions never costs a reader its guarantees.
//!
//! The local GC retires an overwritten version while its transaction is
//! still the newest writer of another key, and the global GC deletes that
//! version's data once no node holds it. Random histories over two nodes
//! interleave commits, `get` and `get_all`, dissemination, local sweeps and
//! global rounds, and judge every read against an oracle that shares nothing
//! with AFT's metadata: each value written is unique, and a committed value
//! maps to the id its writer's commit returned and the keys it wrote. A read
//! must see its own buffered write (read-your-writes), never a value no
//! commit wrote, the same version of a key twice (repeatable read), and
//! never a version older than one cowritten with an earlier read (Definition
//! 1). `NoValidVersion` is allowed — the transaction aborts, as a client
//! would before retrying (§5.2.1). Once everything is quiet, every node
//! serves every key's newest committed value, and two idle global rounds
//! leave no agreed version in storage. Every other value written is too
//! large for an inline commit record, so a history mixes transactions whose
//! versions have `data/` keys with ones whose record holds their values.
//! Half the histories run over Redis,
//! where one GC `DEL` carries the keys of every transaction whose UUID ends
//! in its slot group's byte, and a `DEL` at most half full waits a round.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use aft_cluster::{broadcast_round, FaultManager, GlobalGc};
use aft_core::{AftNode, NodeConfig, INLINE_BYTES};
use aft_storage::io::{IoConfig, IoEngine};
use aft_storage::{make_backend, BackendConfig, BackendKind};
use aft_types::clock::TickingClock;
use aft_types::codec::inline_values;
use aft_types::{
    AftError, AftResult, Key, KeyVersion, TransactionId, TransactionRecord, Uuid, Value,
};
use bytes::Bytes;
use proptest::prelude::*;

const SLOTS: usize = 4;
const NODES: usize = 2;

#[derive(Debug, Clone)]
enum Step {
    /// Begin a transaction in a slot, on a node.
    Begin(usize, usize),
    /// `get` one key in a slot's transaction.
    Get(usize, u8),
    /// `get_all` some keys in a slot's transaction.
    GetAll(usize, Vec<u8>),
    /// Buffer a write in a slot's transaction.
    Put(usize, u8),
    /// Commit a slot's transaction.
    Commit(usize),
    /// One dissemination round, the fault manager listening.
    Broadcast,
    /// A local GC sweep on one node.
    Sweep(usize),
    /// One global GC round.
    Collect,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => (0..SLOTS, 0..NODES).prop_map(|(slot, node)| Step::Begin(slot, node)),
        3 => (0..SLOTS, 0..6u8).prop_map(|(slot, k)| Step::Get(slot, k)),
        1 => (0..SLOTS, proptest::collection::vec(0..6u8, 1..4))
            .prop_map(|(slot, keys)| Step::GetAll(slot, keys)),
        4 => (0..SLOTS, 0..6u8).prop_map(|(slot, k)| Step::Put(slot, k)),
        2 => (0..SLOTS).prop_map(Step::Commit),
        2 => Just(Step::Broadcast),
        1 => (0..NODES).prop_map(Step::Sweep),
        1 => Just(Step::Collect),
    ]
}

fn key(k: u8) -> Key {
    Key::new(format!("key-{k}"))
}

/// An open transaction and what the oracle knows of it.
struct Open {
    node: usize,
    txid: TransactionId,
    buffered: HashMap<Key, Value>,
    /// Key → id of the committed version read.
    observed: HashMap<Key, TransactionId>,
}

/// What the committed transactions wrote, as their commits acknowledged it.
#[derive(Default)]
struct Writers {
    /// Each committed value's writer.
    of: HashMap<Value, TransactionId>,
    /// Each writer's write set.
    wrote: HashMap<TransactionId, Vec<Key>>,
}

/// Judges one read of `key` that returned `value` against the oracle, and
/// records it in the transaction's observations.
fn judge(
    txn: &mut Open,
    writers: &Writers,
    key: &Key,
    value: Option<Value>,
) -> Result<(), TestCaseError> {
    if let Some(own) = txn.buffered.get(key) {
        prop_assert_eq!(value.as_ref(), Some(own), "read-your-writes on {}", key);
        return Ok(());
    }
    let Some(value) = value else {
        // NULL, the version older than all: wrong if the key was read
        // before, or an earlier read's writer also wrote it.
        for (other, seen) in &txn.observed {
            prop_assert!(
                other != key && !writers.wrote[seen].contains(key),
                "{}@{} fractures {} read as NULL",
                other,
                seen,
                key
            );
        }
        return Ok(());
    };
    let Some(&id) = writers.of.get(&value) else {
        return Err(TestCaseError::fail(format!(
            "{key} read {value:?}, which no commit wrote"
        )));
    };
    if let Some(earlier) = txn.observed.get(key) {
        prop_assert_eq!(*earlier, id, "repeatable read of {}", key);
    }
    for (other, seen) in &txn.observed {
        // A version cowritten with `other` must not be newer than the one read
        // of `other`, and the same the other way round.
        prop_assert!(
            !writers.wrote[&id].contains(other) || *seen >= id,
            "{key}@{id} fractures {other}@{seen}"
        );
        prop_assert!(
            !writers.wrote[seen].contains(key) || id >= *seen,
            "{other}@{seen} fractures {key}@{id}"
        );
    }
    txn.observed.insert(key.clone(), id);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn collecting_versions_never_fractures_a_read(
        steps in proptest::collection::vec(arb_step(), 1..160),
        kind in prop_oneof![Just(BackendKind::Memory), Just(BackendKind::Redis)],
    ) {
        let storage = make_backend(BackendConfig::test(kind));
        let clock = TickingClock::shared(1, 1);
        let nodes: Vec<Arc<AftNode>> = (0..NODES)
            .map(|i| {
                AftNode::with_clock(
                    NodeConfig::test().with_node_id(format!("node-{i}")).with_seed(i as u64),
                    storage.clone(),
                    clock.clone(),
                )
                .unwrap()
            })
            .collect();
        let fm = FaultManager::new();
        let gc = GlobalGc::default();
        let io = IoEngine::new(storage.clone(), IoConfig::pipelined());

        let mut slots: Vec<Option<Open>> = (0..SLOTS).map(|_| None).collect();
        let mut writers = Writers::default();
        // Each key's newest committed value, by commit id.
        let mut newest: HashMap<Key, (TransactionId, Value)> = HashMap::new();
        let mut counter = 0u64;
        // A read's outcome: `NoValidVersion` ends the transaction.
        let settle = |slot: &mut Option<Open>, result: AftResult<()>| -> Result<(), TestCaseError> {
            match result {
                Ok(()) => Ok(()),
                Err(AftError::NoValidVersion { .. }) => {
                    let txn = slot.take().expect("open");
                    nodes[txn.node].abort(&txn.txid).unwrap();
                    Ok(())
                }
                Err(other) => Err(TestCaseError::fail(format!("unexpected error: {other}"))),
            }
        };

        for step in steps {
            match step {
                Step::Begin(slot, node) => {
                    if slots[slot].is_none() {
                        slots[slot] = Some(Open {
                            node,
                            txid: nodes[node].start_transaction(),
                            buffered: HashMap::new(),
                            observed: HashMap::new(),
                        });
                    }
                }
                Step::Get(slot, k) => {
                    let Some(txn) = slots[slot].as_mut() else { continue };
                    let key = key(k);
                    let result = match nodes[txn.node].get(&txn.txid, &key) {
                        Ok(value) => {
                            judge(txn, &writers, &key, value)?;
                            Ok(())
                        }
                        Err(e) => Err(e),
                    };
                    settle(&mut slots[slot], result)?;
                }
                Step::GetAll(slot, ks) => {
                    let Some(txn) = slots[slot].as_mut() else { continue };
                    let keys: Vec<Key> = ks.into_iter().map(key).collect();
                    let result = match nodes[txn.node].get_all(&txn.txid, &keys) {
                        Ok(values) => {
                            for (key, value) in keys.iter().zip(values) {
                                judge(txn, &writers, key, value)?;
                            }
                            Ok(())
                        }
                        Err(e) => Err(e),
                    };
                    settle(&mut slots[slot], result)?;
                }
                Step::Put(slot, k) => {
                    let Some(txn) = slots[slot].as_mut() else { continue };
                    counter += 1;
                    let mut value = format!("v{counter}").into_bytes();
                    if counter.is_multiple_of(2) {
                        value.resize(INLINE_BYTES + 1, b'.');
                    }
                    let value = Bytes::from(value);
                    nodes[txn.node].put(&txn.txid, key(k), value.clone()).unwrap();
                    txn.buffered.insert(key(k), value);
                }
                Step::Commit(slot) => {
                    let Some(txn) = slots[slot].take() else { continue };
                    let id = nodes[txn.node].commit(&txn.txid).unwrap();
                    writers.wrote.insert(id, txn.buffered.keys().cloned().collect());
                    for (key, value) in txn.buffered {
                        writers.of.insert(value.clone(), id);
                        if newest.get(&key).is_none_or(|(newer, _)| *newer < id) {
                            newest.insert(key, (id, value));
                        }
                    }
                }
                Step::Broadcast => {
                    broadcast_round(&nodes, Some(&fm));
                }
                Step::Sweep(node) => {
                    nodes[node].run_local_gc();
                }
                Step::Collect => {
                    gc.run_round(&fm, &nodes, &io).unwrap();
                }
            }
        }

        // Quiet: every transaction ends, everything is delivered and swept.
        for txn in slots.into_iter().flatten() {
            nodes[txn.node].abort(&txn.txid).unwrap();
        }
        broadcast_round(&nodes, Some(&fm));
        for node in &nodes {
            node.run_local_gc();
        }
        // Two idle rounds: what the first passes over, the second sends. Then
        // no agreed version is left: storage holds each key's newest only.
        // Read from storage alone, that is: the `data/` keys are exactly the
        // newest versions that are not in their records, and the records
        // that hold values are exactly the writers of the other newest
        // versions, each holding them. A record that holds values keeps its
        // overwritten ones too, until its last newest version is overwritten.
        for _ in 0..2 {
            gc.run_round(&fm, &nodes, &io).unwrap();
        }
        prop_assert!(fm.metadata().superseded_oldest_first().is_empty());
        prop_assert!(fm.metadata().debited_oldest_first().is_empty());
        let data: HashSet<(Key, Uuid)> = storage
            .list_prefix("data/")
            .unwrap()
            .iter()
            .map(|key| KeyVersion::parse_storage_key(key).unwrap())
            .collect();
        let mut in_records: HashMap<Uuid, HashSet<Key>> = HashMap::new();
        for record in storage.list_prefix("commit/").unwrap() {
            let id = TransactionRecord::id_from_storage_key(&record).unwrap();
            let blob = storage.get(&record).unwrap().unwrap();
            if let Ok(values) = inline_values(&blob) {
                let keys = values.map(|entry| entry.map(|(key, _)| Key::new(key)));
                in_records.insert(id.uuid, keys.collect::<AftResult<_>>().unwrap());
            }
        }
        let newest_of = |in_record: bool| -> HashSet<(Key, Uuid)> {
            newest
                .iter()
                .map(|(key, (id, _))| (key.clone(), id.uuid))
                .filter(|(_, uuid)| in_records.contains_key(uuid) == in_record)
                .collect()
        };
        prop_assert_eq!(&data, &newest_of(false));
        let writers: HashSet<Uuid> = newest_of(true).into_iter().map(|(_, uuid)| uuid).collect();
        prop_assert_eq!(in_records.keys().copied().collect::<HashSet<_>>(), writers);
        for (key, uuid) in newest_of(true) {
            prop_assert!(in_records[&uuid].contains(&key), "{} of {:?}", key, uuid);
        }
        for node in &nodes {
            let t = node.start_transaction();
            for (key, (_, value)) in &newest {
                let served = node.get(&t, key).unwrap();
                prop_assert_eq!(served.as_ref(), Some(value), "{} on {}", key, node.node_id());
            }
            node.abort(&t).unwrap();
        }
    }
}
