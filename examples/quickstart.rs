//! Quickstart: the AFT transactional key-value API on a single node.
//!
//! Run with `cargo run --example quickstart`.
//!
//! This walks through the API of Table 1 — `StartTransaction`, `Get`, `Put`,
//! `CommitTransaction`, `AbortTransaction` — and demonstrates the guarantees
//! of §3.2: atomic visibility of a request's writes, no dirty reads,
//! read-your-writes, and repeatable reads.

use aft::core::{AftNode, NodeConfig};
use aft::storage::{BackendConfig, BackendKind};
use aft::types::Key;
use bytes::Bytes;

fn main() {
    // AFT only needs a durable key-value store; here we use the simulated
    // DynamoDB backend with latency disabled so the example runs instantly.
    let storage = aft::storage::make_backend(BackendConfig::test(BackendKind::DynamoDb));
    let node = AftNode::new(NodeConfig::default(), storage).expect("create node");

    println!("== 1. A transaction's writes become visible atomically ==");
    let checkout = node.start_transaction();
    node.put(
        &checkout,
        Key::new("cart:alice"),
        Bytes::from_static(b"book,lamp"),
    )
    .unwrap();
    node.put(
        &checkout,
        Key::new("order:alice"),
        Bytes::from_static(b"pending"),
    )
    .unwrap();

    // Another request running *before* the commit sees none of the writes.
    let early_reader = node.start_transaction();
    assert!(node
        .get(&early_reader, &Key::new("cart:alice"))
        .unwrap()
        .is_none());
    assert!(node
        .get(&early_reader, &Key::new("order:alice"))
        .unwrap()
        .is_none());
    println!("   before commit: other requests see neither key (no dirty reads)");
    node.abort(&early_reader).unwrap();

    // Read-your-writes: the transaction itself always sees its latest write.
    let own = node
        .get(&checkout, &Key::new("cart:alice"))
        .unwrap()
        .unwrap();
    println!(
        "   read-your-writes: checkout sees its own cart = {:?}",
        String::from_utf8_lossy(&own)
    );

    let committed = node.commit(&checkout).unwrap();
    println!("   committed as transaction {committed}");

    // After the commit, both keys are visible together.
    let reader = node.start_transaction();
    let cart = node.get(&reader, &Key::new("cart:alice")).unwrap().unwrap();
    let order = node
        .get(&reader, &Key::new("order:alice"))
        .unwrap()
        .unwrap();
    println!(
        "   after commit: cart={:?} order={:?}",
        String::from_utf8_lossy(&cart),
        String::from_utf8_lossy(&order)
    );

    println!("\n== 2. Repeatable reads while other requests commit ==");
    // A concurrent request overwrites the cart.
    let update = node.start_transaction();
    node.put(
        &update,
        Key::new("cart:alice"),
        Bytes::from_static(b"book,lamp,chair"),
    )
    .unwrap();
    node.commit(&update).unwrap();

    // The long-running reader still sees the version it first read.
    let again = node.get(&reader, &Key::new("cart:alice")).unwrap().unwrap();
    assert_eq!(again, cart);
    println!(
        "   the in-flight reader still sees {:?} (repeatable read)",
        String::from_utf8_lossy(&again)
    );
    node.commit(&reader).unwrap();

    // A fresh request sees the newest committed version.
    let fresh = node.start_transaction();
    let newest = node.get(&fresh, &Key::new("cart:alice")).unwrap().unwrap();
    println!(
        "   a fresh request sees {:?}",
        String::from_utf8_lossy(&newest)
    );
    node.commit(&fresh).unwrap();

    println!("\n== 3. Aborted transactions leave no trace ==");
    let doomed = node.start_transaction();
    node.put(&doomed, Key::new("cart:alice"), Bytes::from_static(b"OOPS"))
        .unwrap();
    node.abort(&doomed).unwrap();
    let check = node.start_transaction();
    let after_abort = node.get(&check, &Key::new("cart:alice")).unwrap().unwrap();
    assert_ne!(after_abort, Bytes::from_static(b"OOPS"));
    println!(
        "   after an abort the cart is unchanged: {:?}",
        String::from_utf8_lossy(&after_abort)
    );
    node.commit(&check).unwrap();

    let stats = node.stats().snapshot();
    println!(
        "\nnode statistics: {} committed, {} reads",
        stats.transactions_committed, stats.reads
    );
}
