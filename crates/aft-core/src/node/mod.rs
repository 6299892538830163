//! The AFT node: Table 1's transactional key-value API over one store, the
//! caches it reads through, and the hooks a cluster drives.
//!
//! [`AftNode`] is one struct. Its methods are split by seam, one
//! `impl AftNode` block in each child module:
//!
//! * `read_path.rs`: `Get` and its multi-key form. Read-your-writes, then
//!   Algorithm 1 ([`crate::read`]) key by key, then the data cache, then
//!   each missed version's origin ([`Peers`]), then one storage read for
//!   every miss left (§3.2, §3.4–§3.5).
//! * `commit_path.rs`: a transaction's life, `StartTransaction`, `Put`,
//!   `CommitTransaction` and `AbortTransaction`. The write buffer's spill
//!   and §3.3's write-ordered commit flush, whose commit record is the
//!   keyed blob of [`aft_types::codec`].
//! * `maintenance.rs`: what a cluster's maintenance round calls. The drain
//!   of recent commits with the node's commit floor (§4, §4.2), peer
//!   commits (§4.1) and the local GC sweep (§5.1).
//!
//! This module holds the node's state, its configuration, its constructor
//! and accessors, the [`PhaseHook`] a schedule answers at each
//! [`CommitPhase`], and the [`Peers`] a read miss asks.

use std::num::NonZeroU32;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

use aft_storage::io::{IoConfig, IoEngine};
use aft_storage::latency::{LatencyMode, LatencyModel, LatencyProfile};
use aft_storage::SharedStorage;
use aft_types::{
    fnv1a, seeded_stream, AftError, AftResult, Key, SharedClock, SystemClock, TransactionId, Value,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::data_cache::DataCache;
use crate::metadata::MetadataCache;
use crate::stats::NodeStats;
use crate::write_buffer::WriteBuffer;

mod commit_path;
mod maintenance;
mod read_path;
#[cfg(test)]
mod tests;

#[cfg(test)]
pub(crate) use commit_path::flush;
use commit_path::Undrained;
pub use commit_path::{BatchStats, CommitDrain, INLINE_BYTES};
pub use maintenance::GcOutcome;

// The phases live in `aft-types`, where a schedule plans its kills.
pub use aft_types::CommitPhase;

/// The one hook a node calls at every [`CommitPhase`] it reaches: each
/// phase of a commit, and the bootstrap.
///
/// It survives because a fault *inside* a call is one no caller can inject
/// from outside: §4.2's lost broadcast needs the record durable and the node
/// gone before it acknowledges, and a maintenance round that runs between a
/// commit's timestamp and its record is what the fault manager's floor must
/// survive. `aft_workload::sim` implements it, so a schedule answers each
/// phase: go on, park the call while other steps run, or kill the node. It
/// is carried in [`NodeConfig`], so a replacement built from a cluster's
/// template carries it too, from its bootstrap on.
///
/// An error is the node's crash at that instant: the call fails with it,
/// whatever reached storage before the phase stays there, and the node
/// fails every later phase without asking again ([`AftNode::crashed`]).
///
/// The cluster's dissemination asks the sending node's hook too, at each
/// batch of commit records it sends a peer ([`AftNode::holds`]), and a
/// service client asks its hook at each request it sends
/// ([`PhaseHook::deliver`]).
pub trait PhaseHook: Send + Sync + std::fmt::Debug {
    /// Called just before `phase` on `node_id`. `Ok(())` goes on, perhaps
    /// after blocking the calling thread a while.
    fn at(&self, node_id: &str, phase: CommitPhase) -> AftResult<()>;

    /// Whether the batch `sender` sends `receiver` in dissemination round
    /// `round` waits for a later round, as over a partitioned link. No batch
    /// waits by default.
    fn hold(&self, _round: u64, _sender: &str, _receiver: &str) -> bool {
        false
    }

    /// What the network does to the next request a service client sends,
    /// a `verb` (`WireRequest::verb`). Every request goes through by
    /// default.
    fn deliver(&self, _verb: &str) -> NetFault {
        NetFault::None
    }
}

/// A node as the origin of its commits: what a dissemination batch tags each
/// of the node's commit records with, and the node a peer's read of one of
/// those versions asks when it misses its own data cache ([`Peers`]). Every
/// node built in the process has its own, so a replacement never answers
/// for the node it replaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Origin(NonZeroU32);

impl Origin {
    fn next() -> Origin {
        static NEXT: AtomicU32 = AtomicU32::new(1);
        let next = NonZeroU32::new(NEXT.fetch_add(1, Ordering::Relaxed));
        Origin(next.expect("fewer than 2^32 nodes in one process"))
    }
}

/// Where a read asks a version's origin before storage. A cluster implements
/// it over its active nodes and hands it to each node it builds
/// ([`AftNode::join`]); a unit test can fake it. A node that joined none
/// reads every miss from storage.
pub trait Peers: Send + Sync {
    /// The values `origin`'s data cache holds for `wanted`, one answer per
    /// key and version in order ([`AftNode::peek_cached`] on the origin),
    /// asked on `reader`'s behalf. `None` when the origin cannot be asked:
    /// it is not an active node, or its phase hook holds its link to
    /// `reader` this round ([`PhaseHook::hold`]). An unanswered version is a
    /// miss, which `reader` reads from storage.
    fn pull(
        &self,
        reader: &AftNode,
        origin: Origin,
        wanted: &[(Key, TransactionId)],
    ) -> Option<Vec<Option<Value>>>;
}

/// What the network does to one request of a service client
/// ([`PhaseHook::deliver`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The request and its answer go through.
    None,
    /// The connection resets before the request is sent: it is lost.
    ResetBeforeSend,
    /// The connection resets after the request is sent, before its answer
    /// arrives: §4.2's lost acknowledgement. The server may well run it.
    ResetAfterSend,
    /// The answer arrives this much later.
    DelayAck(Duration),
}

/// Configuration of a single AFT node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Human-readable node identifier (used in cluster membership and logs).
    pub node_id: String,
    /// Capacity of the data cache in bytes; 0 disables data caching (§6.2
    /// evaluates both settings).
    pub data_cache_bytes: usize,
    /// Spill threshold of the Atomic Write Buffer: once a single
    /// transaction's buffered bytes exceed this, intermediary data is written
    /// to storage ahead of commit (§3.3).
    pub write_buffer_spill_bytes: usize,
    /// Whether to warm the metadata cache from the Transaction Commit Set at
    /// startup (§3.1); replacement nodes in a cluster always do.
    pub bootstrap: bool,
    /// Latency of one client→shim API call (the network hop that is part of
    /// AFT's overhead in Figure 2), charged on the virtual clock; zero for
    /// unit tests.
    pub rpc_profile: LatencyProfile,
    /// Seed of the node's transaction UUIDs and, on a stream of its own
    /// keyed by the node id, of its RPC latency draws.
    pub rng_seed: u64,
    /// The node's storage I/O window: how many requests of one batch (a
    /// commit's data writes, a read's misses) overlap in a wave.
    /// `IoConfig::sequential()` reproduces the historical
    /// one-round-trip-at-a-time behaviour.
    pub io: IoConfig,
    /// The hook asked at every [`CommitPhase`]; `None` runs every phase.
    pub phase_hook: Option<Arc<dyn PhaseHook>>,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            node_id: "aft-node-0".to_owned(),
            data_cache_bytes: 64 * 1024 * 1024,
            write_buffer_spill_bytes: 16 * 1024 * 1024,
            bootstrap: true,
            rpc_profile: LatencyProfile::ZERO,
            rng_seed: 0xAF71,
            io: IoConfig::pipelined(),
            phase_hook: None,
        }
    }
}

impl NodeConfig {
    /// A zero-latency configuration for unit tests, with caching enabled.
    pub fn test() -> Self {
        NodeConfig::default()
    }

    /// A zero-latency test configuration without a data cache.
    pub fn test_without_cache() -> Self {
        NodeConfig {
            data_cache_bytes: 0,
            ..NodeConfig::default()
        }
    }

    /// Sets the node identifier.
    pub fn with_node_id(mut self, id: impl Into<String>) -> Self {
        self.node_id = id.into();
        self
    }

    /// Sets the seed of the UUIDs and the RPC draws.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng_seed = seed;
        self
    }
}

/// A single AFT shim node.
///
/// All methods take `&self`; a node is shared across many client threads
/// (each FaaS function invocation issues its operations against one node).
pub struct AftNode {
    config: NodeConfig,
    storage: SharedStorage,
    /// The pipelined submission/completion engine every storage access on
    /// this node goes through (commit flushes, read fetches, spills).
    io: IoEngine,
    clock: SharedClock,
    buffer: WriteBuffer,
    /// Commits that reached the storage flush.
    commit_flushes: AtomicU64,
    metadata: MetadataCache,
    data_cache: DataCache,
    stats: Arc<NodeStats>,
    rpc_latency: Arc<LatencyModel>,
    /// RPC hops drawn so far: the next one's index on the node's RPC stream.
    rpc_draws: AtomicU64,
    /// The stream transaction UUIDs are drawn from, and only they.
    rng: Mutex<StdRng>,
    /// Commits made on this node that no drain has handed out yet (§4, §4.2).
    undrained: Mutex<Undrained>,
    /// Set once the phase hook crashed the node.
    crashed: AtomicBool,
    origin: Origin,
    /// Where a read miss asks a version's origin, once the node joined a
    /// cluster.
    peers: OnceLock<Weak<dyn Peers>>,
}

impl AftNode {
    /// Creates a node over `storage` using the real system clock.
    pub fn new(config: NodeConfig, storage: SharedStorage) -> AftResult<Arc<Self>> {
        Self::with_clock(config, storage, SystemClock::shared())
    }

    /// Creates a node with an explicit clock (tests use [`aft_types::MockClock`]).
    pub fn with_clock(
        config: NodeConfig,
        storage: SharedStorage,
        clock: SharedClock,
    ) -> AftResult<Arc<Self>> {
        let io = IoEngine::new(storage.clone(), config.io);
        let metadata = MetadataCache::new();
        let data_cache = DataCache::new(config.data_cache_bytes);
        if config.bootstrap {
            // A replacement torn here fails its construction; the cluster
            // keeps the failed entry and retries it.
            if let Some(hook) = &config.phase_hook {
                hook.at(&config.node_id, CommitPhase::DuringBootstrap)?;
            }
            let (_, carried) = crate::bootstrap::replay(&io, &metadata)?;
            for (key, version, value) in carried {
                data_cache.insert(key, version, value);
            }
        }
        let rpc_latency = LatencyModel::new(LatencyMode::Virtual, 1.0);
        Ok(Arc::new(AftNode {
            data_cache,
            buffer: WriteBuffer::new(),
            commit_flushes: AtomicU64::new(0),
            stats: NodeStats::new_shared(),
            rng: Mutex::new(StdRng::seed_from_u64(config.rng_seed)),
            rpc_draws: AtomicU64::new(0),
            undrained: Mutex::new(Undrained::default()),
            crashed: AtomicBool::new(false),
            origin: Origin::next(),
            peers: OnceLock::new(),
            rpc_latency,
            metadata,
            io,
            storage,
            clock,
            config,
        }))
    }

    /// The node's identifier.
    pub fn node_id(&self) -> &str {
        &self.config.node_id
    }

    /// The node as the origin of its commits.
    pub fn origin(&self) -> Origin {
        self.origin
    }

    /// Sets where a read that misses the data cache asks the version's
    /// origin before storage. The first call holds. A cluster calls it for
    /// every node it builds, with a weak handle, so that the nodes do not
    /// keep their cluster alive.
    pub fn join(&self, peers: Weak<dyn Peers>) {
        let _ = self.peers.set(peers);
    }

    /// Where a read miss asks, while the cluster the node joined is alive.
    fn peers(&self) -> Option<Arc<dyn Peers>> {
        self.peers.get().and_then(Weak::upgrade)
    }

    /// The node's operational counters.
    pub fn stats(&self) -> &Arc<NodeStats> {
        &self.stats
    }

    /// The storage engine this node commits to.
    pub fn storage(&self) -> &SharedStorage {
        &self.storage
    }

    /// The node's pipelined storage I/O engine.
    pub fn io(&self) -> &IoEngine {
        &self.io
    }

    /// The node's committed-transaction metadata cache.
    pub fn metadata(&self) -> &MetadataCache {
        &self.metadata
    }

    /// The node's data cache.
    pub fn data_cache(&self) -> &DataCache {
        &self.data_cache
    }

    /// Number of transactions currently in flight on this node.
    pub fn in_flight(&self) -> usize {
        self.buffer.len()
    }

    /// Whether the [`PhaseHook`] crashed the node. A crashed node fails
    /// every later phase, and a cluster's registry counts it failed.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// Whether the batch of commit records this node sends `receiver` in
    /// dissemination round `round` waits for a later round: its
    /// [`PhaseHook::hold`] answer.
    pub fn holds(&self, round: u64, receiver: &str) -> bool {
        let hook = self.config.phase_hook.as_ref();
        hook.is_some_and(|hook| hook.hold(round, self.node_id(), receiver))
    }

    /// Asks the phase hook at `phase`; its error crashes the node.
    fn at(&self, phase: CommitPhase) -> AftResult<()> {
        if self.crashed() {
            let id = self.node_id();
            return Err(AftError::Unavailable(format!("{id} crashed")));
        }
        let Some(hook) = &self.config.phase_hook else {
            return Ok(());
        };
        let answer = hook.at(self.node_id(), phase);
        if answer.is_err() {
            self.crashed.store(true, Ordering::Release);
        }
        answer
    }

    /// Charges one client→shim hop, drawn from the node's RPC stream: the
    /// node's seed, its id and how many hops it drew before.
    fn rpc(&self) {
        if self.config.rpc_profile.median_us > 0.0 {
            let n = self.rpc_draws.fetch_add(1, Ordering::Relaxed);
            let stream = fnv1a(self.config.node_id.bytes());
            let mut rng = seeded_stream(self.config.rng_seed, stream, n);
            let profile = &self.config.rpc_profile;
            self.rpc_latency
                .finish(self.rpc_latency.draw(profile, &mut rng, 0));
        }
    }
}
