//! The history checker sees what AFT's own verdict cannot: a commit record
//! whose write set is wrong in storage. A node that bootstraps from it
//! serves a fractured read and, consulting the same wrong metadata, calls
//! the read set atomic; the checker, which takes write sets from the
//! clients' history, counts the fracture.

use std::sync::Arc;

use aft_core::api::AftApi;
use aft_core::{AftNode, NodeConfig};
use aft_storage::{InMemoryStore, StorageEngine};
use aft_types::clock::TickingClock;
use aft_types::codec::encode_inline_commit_record;
use aft_types::{Key, TransactionRecord, Value};
use aft_workload::history::{check, FinalRead, History, Recorder};

#[test]
fn a_tampered_commit_record_fools_the_node_but_not_the_checker() {
    let storage = InMemoryStore::shared();
    let clock = TickingClock::shared(1, 1);
    let history = History::new();
    let (k, l) = (Key::new("k"), Key::new("l"));
    let commit = |api: &Arc<dyn AftApi>, value: &'static str| {
        let txid = api.begin().unwrap();
        for key in [&k, &l] {
            api.put(&txid, key.clone(), Value::from_static(value.as_bytes()))
                .unwrap();
        }
        api.commit(&txid, &[]).unwrap().final_id
    };

    // The preload, then T1 = {k, l}, both through a recorder.
    let writer = AftNode::with_clock(NodeConfig::test(), storage.clone(), clock.clone()).unwrap();
    let writer = Recorder::wrap(writer, Arc::clone(&history), None);
    let preload = commit(&writer, "preload");
    let t1 = commit(&writer, "t1");

    // T1's record, which holds its values, now claims it wrote k alone.
    let t1_at_k = Value::from_static(b"t1");
    storage
        .put(
            &TransactionRecord::storage_key_for(&t1),
            encode_inline_commit_record([(&k, &t1_at_k)]),
        )
        .unwrap();

    // A fresh node (with its own UUID stream) bootstraps from that record
    // and serves k at T1 beside l at the preload.
    let config = NodeConfig::test().with_node_id("fresh").with_seed(7);
    let fresh = AftNode::with_clock(config, storage, clock).unwrap();
    let reader = Recorder::wrap(fresh, Arc::clone(&history), None);
    let txid = reader.begin().unwrap();
    let (_, at_k) = reader.get_versioned(&txid, &k).unwrap().unwrap();
    let (_, at_l) = reader.get_versioned(&txid, &l).unwrap().unwrap();
    assert_eq!((at_k, at_l), (Some(t1), Some(preload)));

    let outcome = reader.commit(&txid, &[(k, t1), (l, preload)]).unwrap();
    assert!(outcome.atomic, "the node grades with the tampered metadata");
    let verdict = check(&history.attempts(), &FinalRead::new());
    assert_eq!(verdict.fractured_reads, 1, "{verdict:?}");
    assert_eq!(verdict.anomalies(), 1);
}
