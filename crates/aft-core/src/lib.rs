//! The AFT shim node — the paper's primary contribution.
//!
//! An [`AftNode`] interposes between a FaaS platform and a durable key-value
//! store and offers the transactional key-value API of Table 1:
//! `StartTransaction`, `Get`, `Put`, `CommitTransaction`, `AbortTransaction`.
//! It guarantees (§3.2):
//!
//! * **no dirty reads** — transactions only read data from transactions whose
//!   commit record is durable, enforced by the write-ordering commit protocol
//!   of the [`node`]'s commit path (§3.3);
//! * **no fractured reads** — every read extends the transaction's read set
//!   into an Atomic Readset, enforced by the read protocol ([`read`],
//!   Algorithm 1, §3.4);
//! * **read your writes** and **repeatable read** (§3.5);
//! * **idempotence of retries** — each transaction's updates are persisted
//!   under storage keys derived from its unique ID, so re-executing a commit
//!   can never double-apply (§3.1).
//!
//! The node keeps two caches (§3.1): a *metadata cache* ([`metadata`]) holding
//! recently committed transaction records and a per-key version index, and an
//! optional *data cache* ([`data_cache`]) holding hot key-version payloads
//! (evaluated in §6.2). Commit metadata exchange between nodes, supersedence
//! ([`supersede`], Algorithm 2) and local garbage collection
//! ([`AftNode::run_local_gc`], §5.1) keep those caches bounded.
//!
//! Everything distributed — multicast, the fault manager, global garbage
//! collection — lives in the `aft-cluster` crate; this crate is strictly the
//! single-node protocol stack plus the hooks the cluster layer drives.

pub mod api;
pub mod bootstrap;
pub mod data_cache;
pub mod metadata;
pub mod node;
pub mod read;
pub mod stats;
pub mod supersede;
pub mod write_buffer;

pub use api::{AftApi, CommitOutcome};
pub use data_cache::DataCache;
pub use metadata::MetadataCache;
pub use node::{
    AftNode, BatchStats, CommitDrain, CommitPhase, GcOutcome, NetFault, NodeConfig, Origin, Peers,
    PhaseHook, INLINE_BYTES,
};
pub use read::{select_version, ReadSet};
pub use stats::{NodeStats, NodeStatsSnapshot};
pub use supersede::is_superseded;
pub use write_buffer::{ActiveTransaction, WriteBuffer};

// The commit flush's unit tests, under the module name they run as.
#[cfg(test)]
#[path = "node/tests/flush.rs"]
mod commit_batcher;
