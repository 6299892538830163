//! Golden per-`OpKind` storage call counts for two fixed AFT scripts.
//!
//! `storage_ops_per_txn` is a gated benchmark metric; this pins what it is
//! made of in tier-1. A change here is a change in what AFT is billed, not a
//! refactor.
//!
//! * The *transaction* script ([`golden_script`], shared with the exact
//!   trajectory of `aft-bench trajectory`): a one-node cluster without a
//!   data cache runs 200 seeded read-write transactions (two reads and three
//!   writes each, every tenth one aborted), 20 read-only ones that read
//!   three keys each, and maintenance rounds — dissemination, fault-manager
//!   scan, local and global GC — until one deletes nothing, over each
//!   simulated service. The counts were recorded
//!   at commit 4ca4336, before the services shared one store. The
//!   `BatchGet` column was added on top of commit 6225ad3, when multi-key
//!   reads began to use a service's multi-key read call. It is 0 on every
//!   row and no other cell moved: no step of this script reads two keys at
//!   once (its bootstrap finds an empty commit set, and its compaction no
//!   record that the checkpoint does not already hold). The Redis row was
//!   re-recorded on top of commit c5e0b8c, when Redis gained `MSET` and
//!   multi-key `DEL` within one hash slot: a commit's data became one
//!   `BatchPut` (as on memory) and a collected transaction one
//!   `BatchDelete`; 707 `Put`s and 641 `Delete`s became 182 `Put`s, 180
//!   `BatchPut`s, 22 `Delete`s and 158 `BatchDelete`s. It was re-recorded
//!   again on top of commit 74b0136, when a Redis commit's record began to
//!   ride in its data's all-or-nothing `MSET`: the 180 records' `Put`s went,
//!   182 → 2, and no other cell moved. The `data/` keys storage holds after
//!   the round were added on top of commit 3740bcb, when the global GC began
//!   to delete an overwritten version whose transaction is still the newest
//!   writer of another key, wherever that costs no call of its own: 64 on
//!   every row before, and now 40 on memory and S3 (the newest version of
//!   each key written), 58 on DynamoDB (versions fill the round's last
//!   25-key `BatchWriteItem`) and still 64 on Redis (a version shares its
//!   transaction's slot, so it waits for that transaction's own `DEL`). No
//!   call count moved.
//!
//!   The Redis and DynamoDB rows were re-recorded on top of commit 0a5ca99,
//!   when a Redis hash slot began to hold the 256th of the transactions
//!   whose UUIDs end in one byte, and the global GC began to delete every
//!   agreed version in its round, packed by the store's own call limits.
//!   Both rows now leave 40 `data/` keys, as memory and S3 do (58 → 40 on
//!   DynamoDB, 64 → 40 on Redis). DynamoDB bills one `BatchWriteItem` more
//!   for the versions that overflow the round's last 25-key call
//!   (`BatchDelete` 26 → 27). On Redis, the collected transactions that
//!   share a slot group now share `DEL`s, and the versions ride in them:
//!   `BatchDelete` 158 → 125 and `Delete` 22 → 29 (a group that holds one
//!   collected key, or one past a full 16-key `DEL`, sends it as a
//!   single-key `DEL`). Memory and S3 did not move: their calls already
//!   carried every version.
//!
//!   The bytes the script hands the store were added on top of commit
//!   f5712c5: 43 987 on every row, since every row stores the same blobs
//!   and only bills them differently. They fell to 37 552 on top of commit
//!   58f320d, when a commit record stopped carrying the id its storage key
//!   already names and its lengths became varints: 180 records of two or
//!   three 3-byte keys, each 33 or 36 bytes shorter. No call count moved.
//!
//!   Every row was re-recorded on top of commit 08719e4, when the script
//!   gained its read-only transactions (after every ninth commit, so every
//!   tenth commit writes nothing) and its drain: maintenance rounds until
//!   one deletes nothing, two on every row, where there was one round
//!   before. The read-only transactions draw their keys from the script's
//!   one seeded stream, so the keys after them moved too: `Get` 369 → 416,
//!   bytes 37 552 → 37 722, and every row one `List` more (the second
//!   round's scan). Each read-only commit writes its record as a `Put`
//!   (+20 on every row), and the global GC collects those records with the
//!   rest: DynamoDB's `BatchDelete` 27 → 28, Redis's `BatchDelete`
//!   125 → 126 and `Delete` 29 → 36. Every row still leaves 40 `data/`
//!   keys.
//!
//!   The DynamoDB and Redis rows were re-recorded on top of commit 19f8639,
//!   when the global GC began to pass over a partial delete call at most
//!   half full for one round. Both now drain in three rounds, so each bills
//!   one `List` more (6 → 7). On DynamoDB the first round's last
//!   `BatchWriteItem` would have carried 11 keys; the second round sends
//!   them in one, and `BatchDelete` stays 28. On Redis the script's one
//!   round of 176 collected transactions spreads over 256 slot groups, so
//!   most groups' `DEL` carries at most 8 keys and waits: the first round
//!   sends 79 keys and carries 582. The checkpoint due in that round then
//!   compacts the log, and its listing finds the carried transactions'
//!   records, which the GC would have deleted before it: compaction fetches
//!   each one the checkpoint does not hold (`Get` 416 → 570) and deletes
//!   161 records where it deleted 24, a one-key `DEL` each where a record is
//!   alone in its group. The second round then sends the 582 keys. So
//!   `Delete` 36 → 105 and `BatchDelete` 126 → 160. Memory (an unlimited
//!   call is full) and S3 (the round's 650 keys fill more than half of one
//!   1 000-key `DeleteObjects`) did not move. Every row still leaves 40
//!   `data/` keys.
//!
//!   The Redis row was re-recorded on top of commit 447f329, when
//!   compaction began to leave the records the fault manager's view holds
//!   to the global GC, which deletes them with their data: compaction no
//!   longer fetches the carried transactions' records nor deletes them
//!   first, so `Get` 570 → 416, `Delete` 105 → 36 and `BatchDelete`
//!   160 → 126, the counts before the GC carried deletes. No other row
//!   moved.
//!
//!   Every row was re-recorded on top of commit 45590f3, when checkpoints
//!   were retired and the global GC alone came to bound what a bootstrap
//!   replays. The script had checkpointed every 64 commits. Its first round
//!   published one checkpoint, a chunk and a manifest (`Put` −2, and
//!   `bytes_written` 37 722 → 36 300), and compacted the log behind it: one
//!   listing of the commit set, one of the checkpoints, and one delete of
//!   the 24 covered records (`BatchDelete` −1 on memory, S3 and DynamoDB;
//!   on Redis a single-key `DEL` each, `Delete` 36 → 12). The node also
//!   listed the checkpoints when it started. So `List` fell by 3 on every
//!   row. The rounds and the 40 `data/` keys left did not move.
//!
//!   Every row was re-recorded on top of commit 5a242a5, when a transaction
//!   that spilled nothing and whose record with its values fits
//!   `INLINE_BYTES` (1 KiB) began to commit as that one record. The
//!   script's values are 64 B, so all 180 read-write commits are inline:
//!   their data calls went (`BatchPut` 180 → 0 on memory, DynamoDB and
//!   Redis; on S3 the 525 data `Put`s, 725 → 200), and on Redis each record
//!   is its own `SET` (`Put` 20 → 200). The bytes grew by one varint a value,
//!   36 300 → 36 825. A read still bills one `Get`, of the record, so `Get`
//!   did not move. A collected transaction is its record's key alone, so the
//!   GC deletes fewer keys: DynamoDB's `BatchDelete` 27 → 8; on Redis most
//!   slot groups hold one such key and send it as a single-key `DEL`
//!   (`Delete` 12 → 90, `BatchDelete` 126 → 39); on S3 the first round's
//!   keys are at most half a `DeleteObjects` and wait a round (rounds
//!   2 → 3, `List` 3 → 4). The last column now counts the versions storage
//!   holds, in `data/` keys or inside inline records
//!   (`aft_workload::sim::held_versions`): 70 on every row, the 40 newest
//!   versions and 30 overwritten ones whose bytes stay inside records that
//!   are still the newest writer of another key.
//! * The *`GetAll`* script: a node without a data cache commits 250 keys,
//!   then reads them back through `get_all` calls that miss 1, 2, 8, 100,
//!   101 and 250 keys. Each read that misses two or more bills one
//!   `BatchGet` on memory, ⌈misses / 100⌉ `BatchGetItem`s on DynamoDB, and
//!   one `Get` per miss on S3 and Redis, which have no multi-key read. A
//!   read that misses one key is a plain `Get` on every row, and one that
//!   misses none makes no call. Recorded on top of commit 6225ad3.
//! * The *one-key read*: `get_versioned` and a one-key `get_all` each bill
//!   one `Get` on a data-cache miss and no call on a hit, on every row, and
//!   each records the version it chose in the read set. Recorded on top of
//!   commit 7cd5bda, while the two still had separate implementations.
//! * The *pulled read*: on a 3-node memory cluster, a maintenance round's
//!   dissemination batch brings a peer's commit record tagged with its
//!   origin, and a node's first read of the record's versions asks that
//!   origin's data cache, so it bills no call: a 256 B and a 1 KiB write
//!   each bill none, and an 8-key `GetAll` of two 4 × 16 KiB commits bills
//!   none where it billed one `BatchGet`. The same read bills one call when
//!   the origin no longer caches the versions (evicted, or swept after an
//!   overwrite the reader has not learned), when the origin was killed or
//!   replaced, when the phase hook holds the link in the latest round, and
//!   on a node that learned the record from storage (its bootstrap), which
//!   knows no origin. The 256 B row was recorded on top of
//!   commit ef41f17, when batches began to carry payloads of at most 512 B
//!   (the 1 KiB write then billed one `Get`); every row was re-recorded on
//!   top of commit b23c21d, when reads began to ask the origin and batches
//!   stopped carrying payloads.
//! * The *raced record*: a maintenance round runs while a commit's record is
//!   durable and its commit still under way. The fault manager leaves the
//!   record to its node's next drain, which tags it with its origin, so a
//!   peer's first read of it bills no call. Recorded on top of commit
//!   53bd8a4, when the scan stopped recovering records a live node still
//!   holds; the scan had fetched the record and handed it to every node
//!   without its payload, and the peer's read billed one `Get`. On top of
//!   commit b23c21d the payload stopped riding the drain's batch: the peer's
//!   read asks the origin.
//! * The *small transaction*: two 256 B writes commit as one `Put` of their
//!   inline record on every row (a `SET` on Redis), a miss on either version
//!   or on both is one `Get` of that record, and the global GC deletes that
//!   one key; one 2 KiB write still bills its data and its record. Recorded
//!   on top of commit 5a242a5, when small transactions began to commit
//!   inline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};

use aft::cluster::cluster::MaintenanceStats;
use aft::cluster::{Cluster, ClusterConfig};
use aft::core::{CommitPhase, NodeConfig, PhaseHook, INLINE_BYTES};
use aft::storage::{make_backend, BackendConfig, BackendKind, OpKind};
use aft::types::clock::TickingClock;
use aft::types::{slot_tag, AftResult, Key, TransactionId, TransactionRecord};
use aft_bench::trajectory::golden_script;
use bytes::Bytes;

#[test]
fn aft_script_bills_the_golden_call_counts_on_every_service() {
    let golden = [
        (BackendKind::Memory, [416, 0, 200, 0, 0, 1, 3], 2, 70),
        (BackendKind::S3, [416, 0, 200, 0, 0, 1, 4], 3, 70),
        (BackendKind::DynamoDb, [416, 0, 200, 0, 0, 8, 4], 3, 70),
        (BackendKind::Redis, [416, 0, 200, 0, 90, 39, 4], 3, 70),
    ];
    for (kind, expected, rounds, left) in golden {
        let run = golden_script(kind);
        assert_eq!(
            run.calls, expected,
            "{kind}: (Get, BatchGet, Put, BatchPut, Delete, BatchDelete, List)"
        );
        assert_eq!(run.bytes_written, 36_825, "{kind}: bytes written");
        assert_eq!(run.rounds, rounds, "{kind}: maintenance rounds");
        assert_eq!(run.data_keys, left, "{kind}: versions storage holds");
    }
}

#[test]
fn redis_sends_a_transaction_as_one_call_and_a_bare_key_as_its_own() {
    let storage = make_backend(BackendConfig::test(BackendKind::Redis));
    let calls = || storage.stats().snapshot();
    let cluster = Cluster::with_clock(
        ClusterConfig {
            node_template: NodeConfig::test_without_cache(),
            ..ClusterConfig::test(1)
        },
        storage.clone(),
        TickingClock::shared(1, 1),
    )
    .unwrap();
    let node = cluster.route().unwrap();

    // A commit of n distinct keys whose data and record fit one 16-key MSET
    // is that one call. Past it, the data goes first and the record follows
    // as its own SET: at 16 keys one MSET and the SET, at 17 one MSET, the
    // seventeenth key's SET and the record's. The values are too large for
    // an inline record, so every commit has data keys.
    let mut ids = Vec::new();
    for n in 1..=17 {
        let before = calls();
        let txn = node.start_transaction();
        for i in 0..n {
            node.put(&txn, Key::new(format!("hot{i}")), large())
                .unwrap();
        }
        ids.push(node.commit(&txn).unwrap());
        let commit = calls().delta_since(&before);
        let (calls, sets) = match n {
            1..=15 => (1, 0),
            16 => (2, 1),
            _ => (3, 2),
        };
        assert_eq!(commit.total_calls(), calls, "{n} keys");
        assert_eq!(commit.calls(OpKind::BatchPut), 1, "{n} keys");
        assert_eq!(commit.calls(OpKind::Put), sets, "{n} keys");
    }

    // The last commit wrote every key, so the rounds collect the 16 before
    // it. A DEL may carry every transaction of one slot group (the UUID's
    // last byte), but these 16 seeded UUIDs end in 16 different bytes, so
    // each transaction is its group's only one: n data keys and its record
    // in one DEL. A DEL of at most 8 keys (half the limit) waits a round, so
    // the first round sends the 8- to 15-key commits' DELs and the 16-key
    // commit's 17 keys as one full DEL and a lone key's DEL (the lone key
    // does not wait: its transaction holds more than 8 keys), and carries
    // the 1- to 7-key commits' 35 keys; the second round sends those.
    let groups: std::collections::HashSet<String> = ids[..16]
        .iter()
        .map(|id| slot_tag(&TransactionRecord::storage_key_for(id)).to_owned())
        .collect();
    assert_eq!(groups.len(), 16);
    for (deleted, carried, batch_deletes, deletes) in [(9, 35, 9, 1), (7, 0, 7, 0)] {
        let before = calls();
        let round = cluster.run_maintenance_round().unwrap();
        let gc = calls().delta_since(&before);
        assert_eq!(round.global_gc.deleted, deleted);
        assert_eq!(round.global_gc.carried, carried);
        assert_eq!(gc.calls(OpKind::BatchDelete), batch_deletes);
        assert_eq!(gc.calls(OpKind::Delete), deletes);
    }

    // Bare keys (a baseline without AFT) carry no slot tag: one SET and one
    // DEL per key, as before Redis had multi-key calls.
    let bare: Vec<String> = (0..20).map(|i| format!("key-{i:08}")).collect();
    let before = calls();
    storage
        .put_batch(
            bare.iter()
                .map(|k| (k.clone(), Bytes::from_static(b"v")))
                .collect(),
        )
        .unwrap();
    storage.delete_batch(&bare).unwrap();
    let plain = calls().delta_since(&before);
    assert_eq!(plain.calls(OpKind::Put), 20);
    assert_eq!(plain.calls(OpKind::Delete), 20);
    assert_eq!(plain.total_calls(), 40);
}

/// Keys missed by each `get_all` of the `GetAll` script: one, a pair, a few,
/// one full DynamoDB `BatchGetItem`, one key over it, and two and a half
/// calls' worth.
const GET_ALL_MISSES: [usize; 6] = [1, 2, 8, 100, 101, 250];

/// Runs the `GetAll` script over `kind` and returns the (Get, BatchGet)
/// calls its reads made.
fn get_all_counts(kind: BackendKind) -> [u64; 2] {
    let storage = make_backend(BackendConfig::test(kind));
    let node = aft::core::AftNode::with_clock(
        NodeConfig::test_without_cache(),
        storage.clone(),
        TickingClock::shared(1, 1),
    )
    .unwrap();
    let key = |i: usize| Key::new(format!("r{i:03}"));
    let writer = node.start_transaction();
    for i in 0..250 {
        node.put(&writer, key(i), Bytes::from(vec![b'v'; 64]))
            .unwrap();
    }
    node.commit(&writer).unwrap();

    let before = storage.stats().snapshot();
    for misses in GET_ALL_MISSES {
        let reader = node.start_transaction();
        let keys: Vec<Key> = (0..misses).map(key).collect();
        let values = node.get_all(&reader, &keys).unwrap();
        assert!(values.iter().all(Option::is_some), "{kind}: {misses} keys");
        node.abort(&reader).unwrap();
    }
    // Nothing to fetch: a buffered write and a key no one wrote.
    let reader = node.start_transaction();
    node.put(&reader, key(0), Bytes::from_static(b"mine"))
        .unwrap();
    let values = node.get_all(&reader, &[key(0), Key::new("never")]).unwrap();
    assert_eq!(values, vec![Some(Bytes::from_static(b"mine")), None]);
    node.abort(&reader).unwrap();

    let reads = storage.stats().snapshot().delta_since(&before);
    assert_eq!(
        reads.total_calls(),
        reads.calls(OpKind::Get) + reads.calls(OpKind::BatchGet)
    );
    [OpKind::Get, OpKind::BatchGet].map(|op| reads.calls(op))
}

#[test]
fn get_all_bills_the_golden_read_calls_on_every_service() {
    let golden = [
        (BackendKind::Memory, [1, 5]),
        (BackendKind::S3, [462, 0]),
        (BackendKind::DynamoDb, [1, 1 + 1 + 1 + 2 + 3]),
        (BackendKind::Redis, [462, 0]),
    ];
    for (kind, expected) in golden {
        assert_eq!(get_all_counts(kind), expected, "{kind}: (Get, BatchGet)");
    }
}

#[test]
fn a_one_key_read_bills_one_get_on_a_miss_and_none_on_a_hit() {
    let key = Key::new("k");
    for kind in [
        BackendKind::Memory,
        BackendKind::S3,
        BackendKind::DynamoDb,
        BackendKind::Redis,
    ] {
        let storage = make_backend(BackendConfig::test(kind));
        let node = aft::core::AftNode::with_clock(
            NodeConfig::test(),
            storage.clone(),
            TickingClock::shared(1, 1),
        )
        .unwrap();
        let commit = |value: &'static str| {
            let txn = node.start_transaction();
            node.put(&txn, key.clone(), Bytes::from_static(value.as_bytes()))
                .unwrap();
            node.commit(&txn).unwrap()
        };
        // Each entry point reads `k` three times in one transaction: a miss,
        // a hit, and a hit after a newer commit of `k`, which the read set
        // keeps it from choosing.
        // Only `get_versioned` names the version.
        let read = |entry, txn: &TransactionId| match entry {
            "get_versioned" => node.get_versioned(txn, &key).unwrap().unwrap(),
            _ => {
                let mut values = node.get_all(txn, std::slice::from_ref(&key)).unwrap();
                (values.pop().unwrap().unwrap(), None)
            }
        };
        for entry in ["get_versioned", "get_all"] {
            let old = commit("old");
            node.data_cache().evict(&key, &old);
            let reader = node.start_transaction();
            for (step, gets) in [("miss", 1), ("hit", 0), ("after a newer commit", 0)] {
                if step == "after a newer commit" {
                    commit("new");
                }
                let before = storage.stats().snapshot();
                let (value, version) = read(entry, &reader);
                let calls = storage.stats().snapshot().delta_since(&before);
                let what = format!("{kind}: {entry}, {step}");
                assert_eq!(value, Bytes::from_static(b"old"), "{what}");
                if entry == "get_versioned" {
                    assert_eq!(version, Some(old), "{what}");
                }
                assert_eq!(calls.calls(OpKind::Get), gets, "{what}");
                assert_eq!(calls.total_calls(), gets, "{what}");
            }
            node.abort(&reader).unwrap();
        }
    }
}

#[test]
fn a_peers_small_write_reaches_the_reader_with_its_record() {
    // Node A commits a value; after one maintenance round, node B reads it.
    // The round's batch names A as the record's origin, and B's miss asks
    // A's data cache before storage, whatever the value's size: a 256 B and
    // a 1 KiB write each bill no call.
    let storage = make_backend(BackendConfig::test(BackendKind::Memory));
    let cluster = Cluster::with_clock(
        ClusterConfig::test(3),
        storage.clone(),
        TickingClock::shared(1, 1),
    )
    .unwrap();
    let nodes = cluster.active_nodes();
    let (a, b) = (&nodes[0], &nodes[1]);
    for size in [256, 1024] {
        let key = Key::new(format!("pulled-{size}"));
        let value = Bytes::from(vec![b'p'; size]);
        let txn = a.start_transaction();
        a.put(&txn, key.clone(), value.clone()).unwrap();
        let id = a.commit(&txn).unwrap();
        cluster.run_maintenance_round().unwrap();

        let before = storage.stats().snapshot();
        let reader = b.start_transaction();
        let read = b.get_versioned(&reader, &key).unwrap();
        let calls = storage.stats().snapshot().delta_since(&before);
        assert_eq!(read, Some((value, Some(id))), "{size} B");
        assert_eq!(calls.calls(OpKind::Get), 0, "{size} B");
        assert_eq!(calls.total_calls(), 0, "{size} B");
        b.abort(&reader).unwrap();
    }
}

/// A 16 KiB value, as `svc-large` writes.
fn value_16k(tag: u8) -> Bytes {
    Bytes::from(vec![tag; 16 * 1024])
}

/// The storage calls of an 8-key `GetAll`, on `node`, of the keys two
/// 4 × 16 KiB commits wrote: each value must read back.
fn get_all_calls(
    storage: &aft::storage::SharedStorage,
    node: &aft::core::AftNode,
    keys: &[Key],
) -> u64 {
    let before = storage.stats().snapshot();
    let reader = node.start_transaction();
    let read = node.get_all(&reader, keys).unwrap();
    node.abort(&reader).unwrap();
    assert!(read
        .iter()
        .all(|v| v.as_ref().is_some_and(|v| v.len() == 16 * 1024)));
    storage
        .stats()
        .snapshot()
        .delta_since(&before)
        .total_calls()
}

#[test]
fn a_large_get_all_asks_the_origin_once_and_storage_for_what_it_lost() {
    // `svc-large`'s read: node A commits 4 × 16 KiB twice, a round runs, and
    // node B reads the 8 keys in one `GetAll`. A's data cache holds all 8
    // versions, so the read bills no call (one `BatchGet` when batches
    // carried no origin). It bills one `BatchGet` when A no longer holds
    // them: evicted, or swept after an overwrite B has not learned, or A
    // killed, or replaced; when the phase hook holds the link from A to B in
    // the latest round; and on a node that learned the records from
    // storage, which knows no origin though A is alive.
    let keys: Vec<Key> = (0..8).map(|i| Key::new(format!("large-{i}"))).collect();
    let cases = [
        "cached",
        "evicted",
        "swept",
        "killed",
        "replaced",
        "held",
        "bootstrap",
    ];
    for case in cases {
        let storage = make_backend(BackendConfig::test(BackendKind::Memory));
        let mut config = ClusterConfig::test(3);
        if case == "held" {
            config.node_template.phase_hook = Some(Arc::new(HoldFromRound(1)));
        }
        let cluster =
            Cluster::with_clock(config, storage.clone(), TickingClock::shared(1, 1)).unwrap();
        let nodes = cluster.active_nodes();
        let (a, b) = (&nodes[0], &nodes[1]);
        let commit = |keys: &[Key], tag: u8| {
            let txn = a.start_transaction();
            for key in keys {
                a.put(&txn, key.clone(), value_16k(tag)).unwrap();
            }
            a.commit(&txn).unwrap()
        };
        let ids = [commit(&keys[..4], b'x'), commit(&keys[4..], b'x')];
        cluster.run_maintenance_round().unwrap();
        let mut reader = Arc::clone(b);
        match case {
            "evicted" => {
                for (i, key) in keys.iter().enumerate() {
                    a.data_cache().evict(key, &ids[i / 4]);
                }
            }
            "swept" => {
                commit(&keys[..4], b'y');
                commit(&keys[4..], b'y');
                assert_eq!(a.run_local_gc().deleted, 2, "{case}");
            }
            "killed" => assert!(cluster.kill_node(a.node_id())),
            "replaced" => {
                assert!(cluster.kill_node(a.node_id()));
                assert_eq!(cluster.replace_failed_nodes().unwrap(), 1);
            }
            "held" => {
                cluster.run_maintenance_round().unwrap();
            }
            "bootstrap" => reader = cluster.add_node().unwrap(),
            _ => {}
        }
        let calls = if case == "cached" { 0 } else { 1 };
        assert_eq!(get_all_calls(&storage, &reader, &keys), calls, "{case}");
    }
}

/// A phase hook that holds every link from its round on.
#[derive(Debug)]
struct HoldFromRound(u64);

impl PhaseHook for HoldFromRound {
    fn at(&self, _node_id: &str, _phase: CommitPhase) -> AftResult<()> {
        Ok(())
    }

    fn hold(&self, round: u64, _sender: &str, _receiver: &str) -> bool {
        round >= self.0
    }
}

/// A phase hook that, once armed, runs a maintenance round of its cluster
/// at a commit's `BeforeBroadcast`: the commit's record is durable and the
/// commit is still under way on its node.
#[derive(Debug, Default)]
struct RoundBeforeBroadcast {
    cluster: Mutex<Weak<Cluster>>,
    armed: AtomicBool,
    rounds: Mutex<Vec<MaintenanceStats>>,
}

impl PhaseHook for RoundBeforeBroadcast {
    fn at(&self, _node_id: &str, phase: CommitPhase) -> AftResult<()> {
        if phase == CommitPhase::BeforeBroadcast && self.armed.swap(false, Ordering::SeqCst) {
            let cluster = self.cluster.lock().unwrap().upgrade().unwrap();
            let stats = cluster.run_maintenance_round()?;
            self.rounds.lock().unwrap().push(stats);
        }
        Ok(())
    }
}

#[test]
fn a_record_durable_during_a_round_reaches_peers_with_its_drain() {
    // Node A's commit writes its record, and a maintenance round runs before
    // the commit returns. The scan lists the record, but A still holds it
    // for its next drain, so nothing is recovered: the next round's
    // dissemination brings it to both peers, new to each, tagged with A, and
    // a peer's first read of it asks A and bills no call.
    let storage = make_backend(BackendConfig::test(BackendKind::Memory));
    let hook = Arc::new(RoundBeforeBroadcast::default());
    let mut config = ClusterConfig::test(3);
    config.node_template.phase_hook = Some(hook.clone());
    let cluster = Cluster::with_clock(config, storage.clone(), TickingClock::shared(1, 1)).unwrap();
    *hook.cluster.lock().unwrap() = Arc::downgrade(&cluster);
    let nodes = cluster.active_nodes();
    let (a, peers) = (&nodes[0], &nodes[1..]);

    let key = Key::new("raced");
    let value = Bytes::from(vec![b'r'; 256]);
    let txn = a.start_transaction();
    a.put(&txn, key.clone(), value.clone()).unwrap();
    hook.armed.store(true, Ordering::SeqCst);
    let id = a.commit(&txn).unwrap();
    let raced = hook.rounds.lock().unwrap()[..]
        .iter()
        .map(|stats| (stats.scan_listed, stats.recovered_commits))
        .collect::<Vec<_>>();
    assert_eq!(raced, [(1, 0)], "listed, held by A, not recovered");
    for peer in peers {
        assert!(!peer.metadata().is_committed(&id), "{}", peer.node_id());
    }

    let next = cluster.run_maintenance_round().unwrap();
    assert_eq!(next.recovered_commits, 0);
    assert_eq!(next.broadcast.drained, 1);
    assert_eq!(next.broadcast.multicast, peers.len(), "new to every peer");
    assert_eq!(next.broadcast.duplicates, 0);
    assert_eq!(cluster.fault_manager().recovered_commits(), 0);
    for peer in peers {
        let what = peer.node_id();
        assert!(peer.metadata().is_committed(&id), "{what}");
        assert_eq!(peer.metadata().view().origin(&id), Some(a.origin()));
        let before = storage.stats().snapshot();
        let reader = peer.start_transaction();
        let read = peer.get_versioned(&reader, &key).unwrap();
        let calls = storage.stats().snapshot().delta_since(&before);
        assert_eq!(read, Some((value.clone(), Some(id))), "{what}");
        assert_eq!(calls.calls(OpKind::Get), 0, "{what}");
        assert_eq!(calls.total_calls(), 0, "{what}");
        peer.abort(&reader).unwrap();
    }
}

#[test]
fn concurrent_commits_bill_what_each_bills_alone() {
    // Eight clients commit one-key transactions at once, over a row with a
    // batch write call: a commit's storage calls are a function of the
    // transaction alone, so N commits bill N data puts and N record puts
    // (on Redis, N MSETs that each carry a data key and its record) however
    // they interleave, and no call carries two transactions. The values are
    // too large for an inline record.
    const CLIENTS: usize = 8;
    const COMMITS: usize = 25;
    let commits = (CLIENTS * COMMITS) as u64;
    for (kind, puts, batch_puts) in [
        (BackendKind::Memory, 2 * commits, 0),
        (BackendKind::DynamoDb, 2 * commits, 0),
        (BackendKind::Redis, 0, commits),
    ] {
        let storage = make_backend(BackendConfig::test(kind));
        let node = aft::core::AftNode::new(NodeConfig::test_without_cache(), storage.clone())
            .expect("node over a simulated service");
        let start = std::sync::Barrier::new(CLIENTS);
        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let (node, start) = (&node, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..COMMITS {
                        let txn = node.start_transaction();
                        let key = Key::new(format!("c{client}/k{i}"));
                        node.put(&txn, key, large()).unwrap();
                        node.commit(&txn).unwrap();
                    }
                });
            }
        });
        let stats = storage.stats();
        assert_eq!(stats.calls(OpKind::Put), puts, "{kind}");
        assert_eq!(stats.calls(OpKind::BatchPut), batch_puts, "{kind}");
        assert_eq!(node.commit_batch_stats().flushes, commits, "{kind}");
    }
}

/// A value one byte over [`INLINE_BYTES`]: no commit of it is inline.
fn large() -> Bytes {
    Bytes::from(vec![b'v'; INLINE_BYTES + 1])
}

#[test]
fn a_small_transaction_is_one_write_one_read_and_one_deleted_key() {
    // Two 256 B writes commit as one `Put` of the record that carries them
    // (on Redis one `SET`, not an `MSET`), and leave no `data/` key. A
    // cache-less node's miss on either version, or on both in one `GetAll`,
    // is one `Get` of that record. Once both keys are overwritten, the
    // global GC deletes the record: one key, in one call. A transaction of
    // one 2 KiB write still commits its data and then its record: two `Put`s
    // where the row has no all-or-nothing call, one `MSET` on Redis.
    for kind in [
        BackendKind::Memory,
        BackendKind::S3,
        BackendKind::DynamoDb,
        BackendKind::Redis,
    ] {
        let storage = make_backend(BackendConfig::test(kind));
        let cluster = Cluster::with_clock(
            ClusterConfig {
                node_template: NodeConfig::test_without_cache(),
                ..ClusterConfig::test(1)
            },
            storage.clone(),
            TickingClock::shared(1, 1),
        )
        .unwrap();
        let node = cluster.route().unwrap();
        let calls = || storage.stats().snapshot();
        let commit = |writes: &[(&str, usize)]| {
            let before = calls();
            let txn = node.start_transaction();
            for (key, size) in writes {
                node.put(&txn, Key::new(*key), Bytes::from(vec![b'x'; *size]))
                    .unwrap();
            }
            let id = node.commit(&txn).unwrap();
            (id, calls().delta_since(&before))
        };

        let (small, wrote) = commit(&[("a", 256), ("b", 256)]);
        assert_eq!(wrote.calls(OpKind::Put), 1, "{kind}: one SET");
        assert_eq!(wrote.total_calls(), 1, "{kind}");
        assert!(storage.list_prefix("data/").unwrap().is_empty(), "{kind}");

        let (_, wrote) = commit(&[("c", 2048)]);
        let (puts, batch_puts) = match kind {
            BackendKind::Redis => (0, 1),
            _ => (2, 0),
        };
        assert_eq!(wrote.calls(OpKind::Put), puts, "{kind}: 2 KiB");
        assert_eq!(wrote.calls(OpKind::BatchPut), batch_puts, "{kind}: 2 KiB");
        assert_eq!(wrote.total_calls(), puts + batch_puts, "{kind}: 2 KiB");

        let (a, b) = (Key::new("a"), Key::new("b"));
        for keys in [vec![a.clone()], vec![a.clone(), b.clone()]] {
            let before = calls();
            let reader = node.start_transaction();
            let read = node.get_all(&reader, &keys).unwrap();
            let fetched = calls().delta_since(&before);
            assert!(read
                .iter()
                .all(|v| v.as_ref().is_some_and(|v| v.len() == 256)));
            assert_eq!(fetched.calls(OpKind::Get), 1, "{kind}: {keys:?}");
            assert_eq!(fetched.total_calls(), 1, "{kind}: {keys:?}");
            node.abort(&reader).unwrap();
        }

        commit(&[("a", 1), ("b", 1)]);
        let before = calls();
        let mut deleted = 0;
        for _ in 0..8 {
            let round = cluster.run_maintenance_round().unwrap().global_gc;
            deleted += round.storage_keys_deleted;
            if round.storage_keys_deleted + round.carried == 0 {
                break;
            }
        }
        let gc = calls().delta_since(&before);
        assert_eq!(deleted, 1, "{kind}: the record alone");
        let deletes = gc.calls(OpKind::Delete) + gc.calls(OpKind::BatchDelete);
        assert_eq!(deletes, 1, "{kind}");
        let record = TransactionRecord::storage_key_for(&small);
        assert_eq!(storage.get(&record).unwrap(), None, "{kind}");
    }
}
