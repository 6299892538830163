//! # aft — a fault-tolerance shim for serverless computing, in Rust
//!
//! This is the facade crate of a from-scratch reproduction of
//! *"A Fault-Tolerance Shim for Serverless Computing"* (Sreekanti et al.,
//! EuroSys 2020). It re-exports the workspace's crates so applications and
//! the examples can depend on a single crate:
//!
//! * [`core`] (`aft-core`) — the AFT shim node itself: the transactional
//!   key-value API of Table 1, the write-ordering commit protocol, the read
//!   atomic isolation protocol (Algorithm 1), supersedence (Algorithm 2),
//!   caches, and local garbage collection.
//! * [`storage`] (`aft-storage`) — the storage-engine abstraction plus
//!   simulated S3, DynamoDB (with transaction mode), and Redis-cluster
//!   backends with calibrated latency models.
//! * [`cluster`] (`aft-cluster`) — multi-node deployments: routing, commit
//!   multicast with pruning, the fault manager, and global garbage
//!   collection.
//! * [`net`] (`aft-net`) — the service layer: a TCP wire-protocol server
//!   fronting a cluster, and the pooled, pipelined client SDK that speaks
//!   it (with seeded connection-fault injection), so AFT runs as a real
//!   networked service rather than only as a library.
//! * [`faas`] (`aft-faas`) — the simulated FaaS platform (function
//!   compositions, retries, failure injection, concurrency limits).
//! * [`workload`] (`aft-workload`) — workload generation, baseline drivers,
//!   anomaly detection, and the closed-loop experiment runner.
//! * [`chaos`] (`aft-chaos`) — the unified fault-schedule vocabulary: one
//!   seeded, order-independent [`ChaosSpec`](aft_chaos::ChaosSpec) drives
//!   storage faults, connection faults, platform failures and partitions
//!   in the same trial. A node kill is a schedule's answer at a commit
//!   phase (`aft_workload::sim`), not a spec leg.
//! * [`types`] (`aft-types`) — shared identifiers, records, codec, clocks.
//!
//! ## Quickstart
//!
//! ```
//! use aft::core::{AftNode, NodeConfig};
//! use aft::storage::InMemoryStore;
//! use aft::types::Key;
//! use bytes::Bytes;
//!
//! // An AFT node over any durable key-value store (here: in-memory).
//! let node = AftNode::new(NodeConfig::default(), InMemoryStore::shared()).unwrap();
//!
//! // A logical request: buffered writes, committed atomically.
//! let txn = node.start_transaction();
//! node.put(&txn, Key::new("cart:alice"), Bytes::from_static(b"3 items")).unwrap();
//! node.put(&txn, Key::new("total:alice"), Bytes::from_static(b"$42")).unwrap();
//! node.commit(&txn).unwrap();
//!
//! // Later requests see either all of the request's writes or none of them.
//! let reader = node.start_transaction();
//! assert!(node.get(&reader, &Key::new("cart:alice")).unwrap().is_some());
//! assert!(node.get(&reader, &Key::new("total:alice")).unwrap().is_some());
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios (shopping cart over
//! a simulated FaaS platform, a social timeline, failure injection and
//! recovery) and the `aft-bench` crate for the full reproduction of the
//! paper's evaluation.

pub use aft_chaos as chaos;
pub use aft_cluster as cluster;
pub use aft_core as core;
pub use aft_faas as faas;
pub use aft_net as net;
pub use aft_storage as storage;
pub use aft_types as types;
pub use aft_workload as workload;
