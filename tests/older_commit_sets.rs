//! A node and a fault manager read a commit set that an older build wrote.
//!
//! Until commit 58f320d every commit-set blob carried its transaction's id
//! and framed each length in four bytes (the id-carrying form, still pinned
//! in `crates/aft-storage/tests/encoding_pins.rs`). A blob is now keyed: it
//! carries neither, and its storage key names the transaction. The commit
//! set built here holds that pinned blob, keyed blobs beside it, and an
//! older blob copied under a key that names another transaction, which no
//! reader may load under either id.
//!
//! A small transaction's blob carries its values too (the inline form, tag
//! `0x03`), and has no `data/` keys: [`INLINE`] pins its bytes, and a fresh
//! node reads its values out of it.

use aft::cluster::FaultManager;
use aft::core::bootstrap::warm_metadata_cache_pipelined;
use aft::core::metadata::MetadataCache;
use aft::core::{AftNode, NodeConfig};
use aft::storage::io::{IoConfig, IoEngine};
use aft::storage::{InMemoryStore, SharedStorage, StorageEngine};
use aft::types::clock::TickingClock;
use aft::types::codec::{
    encode_commit_record, encode_inline_commit_record, encode_keyed_commit_record,
};
use aft::types::{Key, KeyVersion, TransactionId, TransactionRecord, Uuid};
use bytes::Bytes;

/// The commit record `encoding_pins.rs` pins, as an older build stored it.
const OLDER_BUILD: &str = "01017b68e5cf8b010000b47f789800ffd1ebd0a9499847df4441\
                           0200000006000000636172742f3707000000757365722f3432";

/// [`older_record`]'s write set, with `cart/7` = "3 items" and
/// `user/42` = "42", as this build stores a record that carries its values.
const INLINE: &str = "020302\
                      06636172742f37\
                      0733206974656d73\
                      07757365722f3432\
                      023432";

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

/// The record [`OLDER_BUILD`] encodes.
fn older_record() -> TransactionRecord {
    let id = TransactionId::new(
        1_700_000_000_123,
        Uuid::from_u128(0x4144_df47_9849_a9d0_ebd1_ff00_9878_7fb4),
    );
    TransactionRecord::new(id, [Key::new("cart/7"), Key::new("user/42")])
}

fn tid(ts: u64, uuid: u128) -> TransactionId {
    TransactionId::new(ts, Uuid::from_u128(uuid))
}

/// A commit set with both forms: the older build's record, four keyed
/// records after it (the last one overwrites `cart/7`), and an older blob
/// of `strayed` stored under `stray_key`'s commit key. Every record's data
/// is stored too. Returns the store, the five records that must load, and
/// the two ids that must not.
fn mixed_commit_set() -> (SharedStorage, Vec<TransactionRecord>, [TransactionId; 2]) {
    let storage = InMemoryStore::shared();
    let older = older_record();
    let mut items = vec![(older.storage_key(), Bytes::from(unhex(OLDER_BUILD)))];
    let mut records = vec![older];
    for i in 0..4u64 {
        let keys = match i {
            3 => vec![Key::new("cart/7"), Key::new("cart/9")],
            _ => vec![Key::new(format!("item/{i}"))],
        };
        let record = TransactionRecord::new(tid(1_700_000_000_200 + i, 0xA0 + i as u128), keys);
        items.push((record.storage_key(), encode_keyed_commit_record(&record)));
        records.push(record);
    }
    for record in &records {
        for version in record.key_versions() {
            let value = format!("{} at {}", version.key, record.id.timestamp);
            items.push((version.storage_key(), Bytes::from(value)));
        }
    }

    let strayed = TransactionRecord::new(tid(1_700_000_000_300, 0xB0), [Key::new("user/42")]);
    let stray_key = tid(1_700_000_000_301, 0xB1);
    items.push((
        TransactionRecord::storage_key_for(&stray_key),
        encode_commit_record(&strayed),
    ));
    items.push((
        KeyVersion::new("user/42", strayed.id).storage_key(),
        Bytes::from_static(b"strayed"),
    ));
    storage.put_batch(items).unwrap();
    (storage, records, [strayed.id, stray_key])
}

/// `metadata` holds every record with its write set, and neither stray id.
fn assert_loaded(
    metadata: &MetadataCache,
    records: &[TransactionRecord],
    stray: [TransactionId; 2],
) {
    assert_eq!(metadata.len(), records.len());
    for record in records {
        assert_eq!(
            metadata.record(&record.id).as_deref(),
            Some(record),
            "{record}"
        );
    }
    for id in stray {
        assert!(!metadata.is_committed(&id), "{id} must not load");
    }
}

#[test]
fn a_fresh_node_bootstraps_from_an_older_builds_commit_set() {
    let (storage, records, stray) = mixed_commit_set();

    let io = IoEngine::new(storage.clone(), IoConfig::pipelined());
    let metadata = MetadataCache::new();
    let loaded = warm_metadata_cache_pipelined(&io, &metadata).unwrap();
    assert_eq!(loaded, records.len(), "the stray blob is skipped");
    assert_loaded(&metadata, &records, stray);

    // A node that bootstraps the same way reads the older build's version
    // of `user/42` beside the keyed one of `cart/7`.
    let node =
        AftNode::with_clock(NodeConfig::test(), storage, TickingClock::shared(1, 1)).unwrap();
    assert_loaded(node.metadata(), &records, stray);
    let txn = node.start_transaction();
    let read = |key: &str| node.get(&txn, &Key::new(key)).unwrap().unwrap();
    assert_eq!(read("user/42"), Bytes::from("user/42 at 1700000000123"));
    assert_eq!(read("cart/7"), Bytes::from("cart/7 at 1700000000203"));
}

#[test]
fn a_fresh_fault_manager_scan_loads_every_record() {
    let (storage, records, stray) = mixed_commit_set();
    let io = IoEngine::new(storage, IoConfig::pipelined());
    let manager = FaultManager::new();
    let scan = manager.scan_commit_set(&io, &[]).unwrap();
    assert_eq!(scan.listed, records.len() + 1);
    assert_eq!(scan.recovered, records.len());
    assert_loaded(manager.metadata(), &records, stray);

    // The stray blob stays unreadable on every later scan.
    assert_eq!(manager.scan_commit_set(&io, &[]).unwrap().recovered, 0);
}

#[test]
fn an_inline_record_is_stored_as_pinned_and_a_fresh_node_reads_its_values() {
    let (cart, user) = (Key::new("cart/7"), Key::new("user/42"));
    let (three, two) = (Bytes::from("3 items"), Bytes::from("42"));
    let blob = encode_inline_commit_record([(&cart, &three), (&user, &two)]);
    assert_eq!(blob, Bytes::from(unhex(INLINE)));

    let storage = InMemoryStore::shared();
    let older = older_record();
    storage
        .put(&older.storage_key(), Bytes::from(unhex(INLINE)))
        .unwrap();
    let node = AftNode::with_clock(
        NodeConfig::test_without_cache(),
        storage.clone(),
        TickingClock::shared(1, 1),
    )
    .unwrap();
    let loaded = node.metadata().record(&older.id).unwrap();
    assert_eq!(
        *loaded,
        TransactionRecord::new_inline(older.id, [cart.clone(), user.clone()])
    );
    let txn = node.start_transaction();
    let read = node.get_all(&txn, &[cart, user]).unwrap();
    assert_eq!(read, [Some(three), Some(two)]);
    assert!(storage.list_prefix("data/").unwrap().is_empty());
}
