//! The AFT wire-protocol server.
//!
//! [`AftServer`] fronts an `aft-cluster` [`Cluster`] with a `std::net` TCP
//! listener and `workers` **reactor threads**, and no other thread. Each
//! accepted connection belongs to one reactor, round robin by connection
//! id. That reactor reads the connection (nonblocking reads into an
//! incremental frame decoder, behind its own `polling` poller), runs each
//! request against the cluster (routing through the round-robin router,
//! with per-transaction node affinity), encodes the response once, straight
//! into its wire frame, and writes it. A request never crosses threads:
//! there is no hand-off to wake, and thread count is `workers` while
//! connections scale to thousands. Every connection's protocol is a
//! sans-I/O session, which a client's in-memory pipe drives too
//! ([`ServerBuilder::pipe`], [`ClientBuilder::pipe`](crate::ClientBuilder::pipe)):
//! there each request runs on its caller's thread, holding one of
//! `workers` [`Permits`] instead of a reactor.
//!
//! A connection's requests run one at a time, in arrival order, so its
//! pipelined responses come back in the order they were sent. Requests on
//! different connections run in parallel when their connections belong to
//! different reactors. A request that blocks (a commit waiting on slow
//! storage) holds up only the connections of its own reactor.
//!
//! ## Transaction affinity and the commit ledger
//!
//! The paper pins each logical request to one node for its lifetime (§6);
//! the server reproduces that per *transaction*: the first verb naming a
//! transaction routes it and later verbs stick to the chosen node, so the
//! server-side read set (Algorithm 1's state) accumulates in one place.
//!
//! `Commit` goes through a **dedup ledger** keyed by transaction UUID:
//! completed commits record their outcome, and a retransmitted `Commit` —
//! the client's connection died in §4.2's lost-ack window — is acknowledged
//! from the ledger with the *original* final id, never applied twice
//! (idempotence, §3.1, now end to end). Concurrent duplicates single-flight
//! on the UUID: the second waits for the first's verdict instead of racing
//! it.
//!
//! A ledger entry is exactly what the duplicate ack needs: the UUID, and one
//! word holding the commit timestamp with the read-atomicity verdict in its
//! low bit — a 24-byte table entry, plus the UUID's 16 bytes in the eviction
//! FIFO. The affinity map's FIFO drops the UUIDs of finished transactions
//! once they outnumber the live ones, so it holds about one UUID per
//! transaction in flight rather than one per transaction served.
//!
//! ## Overload protection
//!
//! Two independent, builder-configured mechanisms keep a saturated server
//! *useful* instead of merely not-crashing (both off by default). Each
//! reactor queues the requests it decodes in one iteration before running
//! them, first in, first out; the mechanisms act on those queues, and both
//! read one server-wide depth, the requests queued on every reactor. On a
//! piped server a request is queued while it waits for a worker permit, so
//! admission and shedding read that wait, in virtual time when its caller
//! is seated:
//!
//! * **Admission control** ([`ServerBuilder::admission_limit`]): when the
//!   queued requests already reach the limit, a new request is rejected
//!   immediately with the typed, retryable [`AftError::Overloaded`] instead
//!   of being queued — the client backs off with decorrelated jitter rather
//!   than piling more latency onto the queue. Commit requests are exempt:
//!   the server has already executed their transaction's reads, and
//!   rejecting the commit would convert that finished work into waste, so
//!   load is refused at the pipeline entry (the reads) instead.
//! * **Load shedding** ([`ServerBuilder::queue_deadline`]): a request that
//!   waited in its reactor's queue longer than the deadline is answered
//!   `Overloaded` *without being executed*. Shedding is always safe: a shed
//!   commit was never applied and never acknowledged, so the client's retry
//!   is the first execution, not a duplicate.
//!
//! Backpressure remains underneath both: a session stops reading its socket
//! while 1 024 requests are queued over the reactors.
//!
//! ## Shutdown
//!
//! [`AftServer::shutdown`] is graceful and idempotent: it stops accepting,
//! closes every connection, and joins the reactor threads.
//! Dropping the server shuts it down.

use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aft_cluster::Cluster;
use aft_core::read::is_atomic_readset;
use aft_core::AftNode;
use aft_storage::latency::Permits;
use aft_types::wire::{WireRequest, WireResponse, WireStats};
use aft_types::{AftError, AftResult, Key, TransactionId, Uuid, Value};
use parking_lot::{Condvar, Mutex};

use crate::buffer::BufferPool;
use crate::event_loop::{self, ReactorHandle};
use crate::session::QUEUE_CAPACITY;
use crate::stats::{EventSnapshot, EventStats, ServiceStats};

/// Tuning of an [`AftServer`]; built with [`AftServer::builder`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    pub(crate) workers: usize,
    pub(crate) dedup_capacity: usize,
    pub(crate) affinity_capacity: usize,
    pub(crate) slab_capacity: usize,
    pub(crate) admission_limit: usize,
    pub(crate) queue_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            dedup_capacity: 65_536,
            affinity_capacity: 65_536,
            slab_capacity: 1_024,
            admission_limit: 0,
            queue_deadline: Duration::ZERO,
        }
    }
}

impl ServerConfig {
    /// Starts a builder from the defaults (same as [`AftServer::builder`]).
    pub fn builder() -> ServerBuilder {
        ServerBuilder {
            config: ServerConfig::default(),
        }
    }

    /// Reactor threads, each reading, running and answering its own
    /// connections; on a piped server, the permits a request holds while
    /// it runs.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Queue depth beyond which new non-commit requests are rejected
    /// (`0` disables; commits are exempt).
    pub fn admission_limit(&self) -> usize {
        self.admission_limit
    }

    /// Maximum queue age before a request is shed (`ZERO` disables).
    pub fn queue_deadline(&self) -> Duration {
        self.queue_deadline
    }
}

/// Fluent configuration for [`AftServer`]. `AftServer::builder().build()`
/// is identical to `ServerConfig::default()`.
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    config: ServerConfig,
}

impl ServerBuilder {
    /// Reactor threads (clamped to ≥ 1). Each owns the connections given to
    /// it at accept, round robin, and reads, runs and answers their
    /// requests itself. A piped server has no threads: a request holds one
    /// of this many permits while it runs, on its caller's thread.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers.max(1);
        self
    }

    /// Completed commits remembered for duplicate detection; the oldest
    /// entries are evicted beyond this. A duplicate arriving after its
    /// entry was evicted would re-apply, so size this to comfortably cover
    /// the client retry horizon.
    pub fn dedup_capacity(mut self, capacity: usize) -> Self {
        self.config.dedup_capacity = capacity.max(1);
        self
    }

    /// Transaction→node affinity entries kept; beyond this the oldest are
    /// dropped (their transactions re-route on next touch).
    pub fn affinity_capacity(mut self, capacity: usize) -> Self {
        self.config.affinity_capacity = capacity.max(1);
        self
    }

    /// Connection slots preallocated over the reactors' slabs (they grow
    /// beyond this; the knob sizes the warm path).
    pub fn slab_capacity(mut self, capacity: usize) -> Self {
        self.config.slab_capacity = capacity.max(1);
        self
    }

    /// Admission control: when the reactors' queues already hold this many
    /// requests between them, a newly arrived one is rejected immediately
    /// with the typed, retryable [`AftError::Overloaded`] instead of
    /// queueing. Commits bypass the check — their transaction's reads were
    /// already executed, and refusing the commit would waste that work; they
    /// stay bounded by backpressure, which pauses reads while 1 024 requests
    /// are queued. `0` (the default) disables admission control. Set it
    /// below 1 024, or backpressure pauses reads before admission ever gets
    /// to reject.
    pub fn admission_limit(mut self, limit: usize) -> Self {
        self.config.admission_limit = limit;
        self
    }

    /// Load shedding by queue age: a request that waited longer than this
    /// in its reactor's queue is answered [`AftError::Overloaded`] without
    /// being executed — its latency budget is already blown, so executing
    /// it would only delay fresher requests behind it. Always safe: a shed
    /// commit was never applied and never acknowledged. `ZERO` (the
    /// default) disables shedding.
    pub fn queue_deadline(mut self, deadline: Duration) -> Self {
        self.config.queue_deadline = deadline;
        self
    }

    /// Finishes into a [`ServerConfig`].
    pub fn build(self) -> ServerConfig {
        self.config
    }

    /// Builds and immediately serves `cluster` on `addr`.
    pub fn serve(self, cluster: Arc<Cluster>, addr: &str) -> AftResult<AftServer> {
        AftServer::serve(cluster, addr, self.build())
    }

    /// Builds a server fronting `cluster` whose connections are in-memory
    /// pipes ([`ClientBuilder::pipe`](crate::ClientBuilder::pipe)); no
    /// thread starts.
    pub fn pipe(self, cluster: Arc<Cluster>) -> PipeServer {
        PipeServer(ServerShared::new(cluster, self.build(), Vec::new()))
    }
}

/// A server whose connections are in-memory pipes: its clients' requests
/// run on their callers' threads, each holding one of `workers` permits.
/// Several clients may share it, and its admission limit reads their one
/// queue depth. Its counters come over the `Stats` verb, as from a socket
/// server.
#[derive(Clone)]
pub struct PipeServer(pub(crate) Arc<ServerShared>);

impl PipeServer {
    /// The server's connection I/O and frame-buffer counters, as
    /// [`AftServer::event_snapshot`]'s.
    pub fn event_snapshot(&self) -> EventSnapshot {
        self.0.event_stats.snapshot(&self.0.pool)
    }
}

/// What a queued request asks of its reactor.
pub(crate) enum Work {
    /// Run the request through `ServerShared::execute`.
    Run(WireRequest),
    /// Send a response decided at read time (an admission rejection or a
    /// garbage-frame error), in its place among the connection's responses.
    Answer(WireResponse),
}

/// A decoded request awaiting its reactor.
pub(crate) struct Job {
    /// The connection's slab slot and generation on its reactor.
    pub(crate) slot: usize,
    pub(crate) generation: u64,
    pub(crate) request_id: u64,
    pub(crate) work: Work,
    /// When the job entered the queue: its wait decides queue-age shedding.
    pub(crate) enqueued: Instant,
}

/// Completed-commit memory plus the single-flight set for in-progress ones.
struct CommitLedger {
    /// The verdict a duplicate is acked with: the commit timestamp shifted
    /// left one bit, with the read set's atomicity in the low bit. The final
    /// id's UUID is the key itself, so nothing else is needed.
    done: HashMap<Uuid, u64>,
    order: VecDeque<Uuid>,
    in_progress: HashSet<Uuid>,
    capacity: usize,
}

impl CommitLedger {
    fn new(capacity: usize) -> Self {
        CommitLedger {
            done: HashMap::new(),
            order: VecDeque::new(),
            in_progress: HashSet::new(),
            capacity: capacity.max(1),
        }
    }

    /// The final id and atomicity verdict recorded for `uuid`, if any.
    fn verdict(&self, uuid: &Uuid) -> Option<(TransactionId, bool)> {
        let packed = *self.done.get(uuid)?;
        Some((TransactionId::new(packed >> 1, *uuid), packed & 1 == 1))
    }

    fn record(&mut self, uuid: Uuid, final_id: TransactionId, atomic: bool) {
        debug_assert_eq!(uuid, final_id.uuid, "a commit keeps its UUID");
        // A millisecond clock needs 292 million years to reach bit 63.
        debug_assert!(final_id.timestamp < 1 << 63, "timestamp overflows");
        let packed = final_id.timestamp << 1 | u64::from(atomic);
        if self.done.insert(uuid, packed).is_none() {
            self.order.push_back(uuid);
            while self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.done.remove(&old);
                }
            }
        }
    }
}

/// Transaction→node pinning with FIFO eviction.
struct AffinityMap {
    map: HashMap<Uuid, Arc<AftNode>>,
    order: VecDeque<Uuid>,
    capacity: usize,
}

impl AffinityMap {
    fn new(capacity: usize) -> Self {
        AffinityMap {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    fn insert(&mut self, uuid: Uuid, node: Arc<AftNode>) {
        if self.map.insert(uuid, node).is_none() {
            // Commits and aborts remove from the map but leave their uuid in
            // `order`. Once the stale uuids outnumber the live ones (plus
            // slack), one pass drops them: amortized O(1) per insert, and the
            // deque stays within `2 × live + 64` instead of growing to
            // `capacity` with finished transactions. The pass keeps the live
            // uuids' order, so trimming on `order`'s length below still
            // evicts the oldest live pin; it re-routes on its next touch.
            if self.order.len() >= 2 * self.map.len() + 64 {
                self.order.retain(|uuid| self.map.contains_key(uuid));
            }
            self.order.push_back(uuid);
            while self.order.len() > self.capacity {
                match self.order.pop_front() {
                    Some(old) => {
                        self.map.remove(&old);
                    }
                    None => break,
                }
            }
        }
    }
}

pub(crate) struct ServerShared {
    cluster: Arc<Cluster>,
    pub(crate) stats: Arc<ServiceStats>,
    pub(crate) config: ServerConfig,
    /// One per reactor thread, indexed like them.
    pub(crate) reactors: Vec<ReactorHandle>,
    /// Requests queued to run, summed over the drivers: what admission
    /// control and backpressure read.
    pub(crate) depth: AtomicUsize,
    /// A piped server's workers: a request holds one while it runs.
    pub(crate) workers: Permits,
    ledger: Mutex<CommitLedger>,
    ledger_cv: Condvar,
    affinity: Mutex<AffinityMap>,
    /// Connection I/O counters, summed over the sessions.
    pub(crate) event_stats: EventStats,
    /// Frame buffers, shared by the sessions.
    pub(crate) pool: BufferPool,
    /// Monotonic connection ids: the round robin that gives each connection
    /// its reactor.
    pub(crate) next_conn_id: AtomicU64,
    pub(crate) shutdown: AtomicBool,
}

impl ServerShared {
    /// A server's state over `cluster`, driven by `reactors` (none for
    /// pipes).
    pub(crate) fn new(
        cluster: Arc<Cluster>,
        config: ServerConfig,
        reactors: Vec<ReactorHandle>,
    ) -> Arc<ServerShared> {
        Arc::new(ServerShared {
            cluster,
            stats: Arc::new(ServiceStats::default()),
            reactors,
            depth: AtomicUsize::new(0),
            workers: Permits::new(config.workers),
            ledger: Mutex::new(CommitLedger::new(config.dedup_capacity)),
            ledger_cv: Condvar::new(),
            affinity: Mutex::new(AffinityMap::new(config.affinity_capacity)),
            event_stats: EventStats::default(),
            pool: BufferPool::new(config.slab_capacity.min(4096)),
            next_conn_id: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            config,
        })
    }

    /// A request to run leaves a driver's queue, reactor `own`'s if any.
    /// When that takes the depth below capacity the other reactors wake: a
    /// connection paused there may now have room.
    pub(crate) fn dequeued(&self, own: Option<usize>) {
        if self.depth.fetch_sub(1, Ordering::AcqRel) == QUEUE_CAPACITY {
            let others = self.reactors.iter().enumerate();
            others
                .filter(|(i, _)| own != Some(*i))
                .for_each(|(_, r)| r.wake());
        }
    }

    /// The job step both drivers take on each job they dequeue, reactor
    /// `own`'s if any: an answer decided at read time passes as is; a
    /// request that `waited` in the queue past the deadline is shed, any
    /// other executed. A reactor's wait is wall time since the job was
    /// queued, a pipe's its worker permit's.
    pub(crate) fn run_job(&self, own: Option<usize>, work: Work, waited: Duration) -> WireResponse {
        let request = match work {
            Work::Answer(response) => return response,
            Work::Run(request) => request,
        };
        self.dequeued(own);
        let deadline = self.config.queue_deadline;
        // Shedding is safe by construction: nothing was applied and nothing
        // acked, so the client's retry is the first execution, not a
        // duplicate.
        if !deadline.is_zero() && waited > deadline {
            self.stats.record_shed();
            WireResponse::Error(AftError::Overloaded(format!(
                "request shed after waiting past the {deadline:?} queue deadline"
            )))
        } else {
            let response = self.execute(&request);
            if matches!(response, WireResponse::Error(_)) {
                self.stats.record_error();
            }
            response
        }
    }

    /// The node pinned to `txid`, routing and pinning on first touch.
    fn node_for(&self, txid: &TransactionId) -> AftResult<Arc<AftNode>> {
        let mut affinity = self.affinity.lock();
        if let Some(node) = affinity.map.get(&txid.uuid) {
            return Ok(Arc::clone(node));
        }
        let node = self.cluster.route()?;
        affinity.insert(txid.uuid, Arc::clone(&node));
        Ok(node)
    }

    fn forget_txn(&self, uuid: &Uuid) -> Option<Arc<AftNode>> {
        self.affinity.lock().map.remove(uuid)
    }

    pub(crate) fn execute(&self, request: &WireRequest) -> WireResponse {
        self.stats.record_request();
        match request {
            WireRequest::Ping => WireResponse::Pong,
            WireRequest::Stats => WireResponse::Stats(
                self.stats
                    .snapshot(self.cluster.registry().active_count() as u64),
            ),
            WireRequest::Get { txid, key } => {
                let result = self.node_for(txid).and_then(|node| {
                    node.ensure_transaction(*txid);
                    node.get_versioned(txid, key)
                });
                match result {
                    Ok(found) => WireResponse::Value(
                        // The server-side buffer holds no writes before
                        // commit (they live client-side), so the version is
                        // always a real committed id; NULL is defensive.
                        found.map(|(value, version)| {
                            (value, version.unwrap_or(TransactionId::NULL))
                        }),
                    ),
                    Err(e) => WireResponse::Error(e),
                }
            }
            WireRequest::GetAll { txid, keys } => {
                let result = self.node_for(txid).and_then(|node| {
                    node.ensure_transaction(*txid);
                    node.get_all(txid, keys)
                });
                match result {
                    Ok(values) => WireResponse::Values(values),
                    Err(e) => WireResponse::Error(e),
                }
            }
            WireRequest::Commit {
                txid,
                writes,
                reads,
            } => self.commit(txid, writes, reads),
            WireRequest::Abort { txid } => {
                // Idempotent by design: aborting a transaction the server
                // never saw (or already dropped) acknowledges cleanly.
                let node = self.forget_txn(&txid.uuid);
                if let Some(node) = node {
                    match node.abort(txid) {
                        Ok(()) | Err(AftError::UnknownTransaction(_)) => {}
                        Err(e) => return WireResponse::Error(e),
                    }
                }
                WireResponse::Aborted
            }
        }
    }

    fn commit(
        &self,
        txid: &TransactionId,
        writes: &[(Key, Value)],
        reads: &[(Key, TransactionId)],
    ) -> WireResponse {
        // Dedup + single-flight on the transaction UUID.
        {
            let mut ledger = self.ledger.lock();
            loop {
                if let Some((final_id, atomic)) = ledger.verdict(&txid.uuid) {
                    self.stats.record_duplicate_commit();
                    return WireResponse::Committed {
                        txid: final_id,
                        atomic,
                        duplicate: true,
                    };
                }
                if !ledger.in_progress.contains(&txid.uuid) {
                    ledger.in_progress.insert(txid.uuid);
                    break;
                }
                // A duplicate is being applied right now on another
                // reactor; wait for its verdict rather than racing.
                if self.shutdown.load(Ordering::Acquire) {
                    return WireResponse::Error(AftError::Unavailable(
                        "server is shutting down".to_owned(),
                    ));
                }
                let _ = self
                    .ledger_cv
                    .wait_for(&mut ledger, Duration::from_millis(20));
            }
        }

        let result = self.node_for(txid).and_then(|node| {
            node.ensure_transaction(*txid);
            node.put_all(txid, writes.iter().cloned())?;
            let final_id = AftNode::commit(&node, txid)?;
            let atomic = is_atomic_readset(reads, node.metadata());
            Ok((final_id, atomic))
        });

        let mut ledger = self.ledger.lock();
        ledger.in_progress.remove(&txid.uuid);
        let response = match result {
            Ok((final_id, atomic)) => {
                ledger.record(txid.uuid, final_id, atomic);
                self.stats.record_commit();
                self.forget_txn(&txid.uuid);
                WireResponse::Committed {
                    txid: final_id,
                    atomic,
                    duplicate: false,
                }
            }
            Err(e) => WireResponse::Error(e),
        };
        self.ledger_cv.notify_all();
        response
    }
}

/// A running AFT service endpoint. See the module docs for the threading
/// model.
pub struct AftServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    reactors: Mutex<Vec<JoinHandle<()>>>,
}

impl AftServer {
    /// Starts configuring a server; `.serve(cluster, addr)` launches it.
    pub fn builder() -> ServerBuilder {
        ServerConfig::builder()
    }

    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// serving `cluster`.
    pub fn serve(cluster: Arc<Cluster>, addr: &str, config: ServerConfig) -> AftResult<AftServer> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| AftError::Unavailable(format!("bind {addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| AftError::Unavailable(format!("local_addr: {e}")))?;
        let reactors = (0..config.workers.max(1))
            .map(|_| ReactorHandle::new())
            .collect::<AftResult<Vec<_>>>()?;
        let shared = ServerShared::new(cluster, config, reactors);
        let reactors = event_loop::spawn(&shared, listener)?;
        Ok(AftServer {
            shared,
            addr,
            reactors: Mutex::new(reactors),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The cluster being served.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.shared.cluster
    }

    /// Point-in-time service counters.
    pub fn stats(&self) -> WireStats {
        self.shared
            .stats
            .snapshot(self.shared.cluster.registry().active_count() as u64)
    }

    /// The server's socket I/O counters. Always `Some`; optional because
    /// callers chain on it.
    pub fn event_snapshot(&self) -> Option<EventSnapshot> {
        Some(self.shared.event_stats.snapshot(&self.shared.pool))
    }

    /// Gracefully stops the server: no new connections, existing ones
    /// closed, all threads joined. Idempotent.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // The wake makes each reactor observe the flag; it tears down its
        // connections before exiting. The ledger wake frees a reactor
        // waiting on another's duplicate commit.
        for reactor in &self.shared.reactors {
            reactor.wake();
        }
        self.shared.ledger_cv.notify_all();
        for handle in self.reactors.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for AftServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for AftServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AftServer")
            .field("addr", &self.addr)
            .field("workers", &self.shared.config.workers)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame};
    use aft_cluster::ClusterConfig;
    use aft_storage::InMemoryStore;
    use aft_types::clock::TickingClock;
    use std::net::TcpStream;

    fn served_cluster(nodes: usize) -> AftServer {
        let cluster = Cluster::with_clock(
            ClusterConfig::test(nodes),
            InMemoryStore::shared(),
            TickingClock::shared(1, 1),
        )
        .unwrap();
        AftServer::serve(cluster, "127.0.0.1:0", ServerConfig::default()).unwrap()
    }

    #[test]
    fn builder_defaults_match_default_config() {
        let built = AftServer::builder().build();
        let defaults = ServerConfig::default();
        assert_eq!(built.workers, defaults.workers);
        assert_eq!(built.dedup_capacity, defaults.dedup_capacity);
        assert_eq!(built.affinity_capacity, defaults.affinity_capacity);
        assert_eq!(built.slab_capacity, defaults.slab_capacity);
        assert_eq!(built.admission_limit, defaults.admission_limit);
        assert_eq!(built.queue_deadline, defaults.queue_deadline);
        // Overload protection is opt-in.
        assert_eq!(built.admission_limit, 0);
        assert_eq!(built.queue_deadline, Duration::ZERO);
    }

    #[test]
    fn builder_knobs_are_applied_and_clamped() {
        let config = AftServer::builder()
            .workers(0)
            .slab_capacity(9)
            .admission_limit(5)
            .queue_deadline(Duration::from_millis(3))
            .build();
        assert_eq!(config.workers, 1, "clamped to >= 1");
        assert_eq!(config.slab_capacity, 9);
        assert_eq!(config.admission_limit(), 5);
        assert_eq!(config.queue_deadline(), Duration::from_millis(3));
    }

    #[test]
    fn serves_on_an_ephemeral_port_and_shuts_down() {
        let server = served_cluster(2);
        assert_ne!(server.local_addr().port(), 0);
        server.shutdown();
        server.shutdown(); // idempotent
    }

    #[test]
    fn raw_socket_ping_round_trips() {
        use aft_types::wire::{decode_response, encode_request};
        let server = served_cluster(1);
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write_frame(&mut stream, &encode_request(42, &WireRequest::Ping)).unwrap();
        let payload = read_frame(&mut stream).unwrap().unwrap();
        let (id, response) = decode_response(&payload).unwrap();
        assert_eq!(id, 42);
        assert_eq!(response, WireResponse::Pong);
        let stats = server.stats();
        assert_eq!(stats.connections_accepted, 1);
        assert_eq!(stats.requests, 1);
        let snapshot = server.event_snapshot().expect("always Some");
        assert_eq!(snapshot.frames_read, 1);
        server.shutdown();
    }

    #[test]
    fn garbage_frames_close_the_connection_with_an_error() {
        use aft_types::wire::decode_response;
        let server = served_cluster(1);
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write_frame(&mut stream, b"definitely not a request").unwrap();
        let payload = read_frame(&mut stream).unwrap().unwrap();
        let (_, response) = decode_response(&payload).unwrap();
        assert!(matches!(response, WireResponse::Error(AftError::Codec(_))));
        // The server hangs up after the error frame.
        assert!(read_frame(&mut stream).unwrap().is_none());
        server.shutdown();
    }

    #[test]
    fn ledger_evicts_oldest_beyond_capacity() {
        let mut ledger = CommitLedger::new(2);
        let tid = |n: u128| TransactionId::new(n as u64, Uuid::from_u128(n));
        ledger.record(Uuid::from_u128(1), tid(1), true);
        ledger.record(Uuid::from_u128(2), tid(2), true);
        ledger.record(Uuid::from_u128(3), tid(3), true);
        assert!(!ledger.done.contains_key(&Uuid::from_u128(1)));
        assert!(ledger.done.contains_key(&Uuid::from_u128(2)));
        assert!(ledger.done.contains_key(&Uuid::from_u128(3)));
    }

    #[test]
    fn a_ledger_entry_is_a_uuid_and_a_word() {
        fn entry_bytes<K, V>(_: &HashMap<K, V>) -> usize {
            std::mem::size_of::<(K, V)>()
        }
        assert_eq!(entry_bytes(&CommitLedger::new(1).done), 24);
    }

    #[test]
    fn a_duplicate_of_a_non_atomic_commit_replays_its_verdict() {
        let server = served_cluster(1);
        let commit = |uuid: u128, writes: &[&str], reads: Vec<(Key, TransactionId)>| {
            server.shared.execute(&WireRequest::Commit {
                txid: TransactionId::new(0, Uuid::from_u128(uuid)),
                writes: writes
                    .iter()
                    .map(|k| (Key::new(k), Value::from_static(b"v")))
                    .collect(),
                reads,
            })
        };
        let WireResponse::Committed { txid: first, .. } = commit(1, &["a", "b"], vec![]) else {
            panic!("the first commit fails");
        };
        // `a` at the first commit's version but `b` before it: a fractured
        // read, which the server acks with `atomic: false`.
        let fractured = || vec![(Key::new("a"), first), (Key::new("b"), TransactionId::NULL)];
        let original = commit(2, &["c"], fractured());
        let WireResponse::Committed {
            txid: final_id,
            atomic: false,
            duplicate: false,
        } = original
        else {
            panic!("expected a non-atomic first ack, got {original:?}");
        };
        assert_eq!(
            commit(2, &["c"], fractured()),
            WireResponse::Committed {
                txid: final_id,
                atomic: false,
                duplicate: true,
            }
        );
        server.shutdown();
    }

    fn one_node() -> Arc<AftNode> {
        let cluster = Cluster::with_clock(
            ClusterConfig::test(1),
            InMemoryStore::shared(),
            TickingClock::shared(1, 1),
        )
        .unwrap();
        cluster.route().unwrap()
    }

    #[test]
    fn affinity_map_evicts_oldest_beyond_capacity() {
        let node = one_node();
        let mut affinity = AffinityMap::new(2);
        for i in 1..=3u128 {
            affinity.insert(Uuid::from_u128(i), Arc::clone(&node));
        }
        assert_eq!(affinity.map.len(), 2);
        assert!(!affinity.map.contains_key(&Uuid::from_u128(1)));
    }

    #[test]
    fn affinity_fifo_forgets_finished_pins() {
        let node = one_node();
        let mut affinity = AffinityMap::new(65_536);
        let mut live = VecDeque::new();
        for i in 0..10_000u128 {
            affinity.insert(Uuid::from_u128(i), Arc::clone(&node));
            live.push_back(Uuid::from_u128(i));
            assert!(affinity.order.len() <= 2 * affinity.map.len() + 64);
            if live.len() == 3 {
                affinity.map.remove(&live.pop_front().unwrap());
            }
            assert!(affinity.order.len() <= 2 * 3 + 64, "at {i}");
        }

        // At capacity, the oldest live pin is still the one evicted.
        let mut affinity = AffinityMap::new(4);
        for i in 1..=6u128 {
            affinity.insert(Uuid::from_u128(i), Arc::clone(&node));
        }
        let mut pinned: Vec<u128> = affinity.map.keys().map(|u| u.as_u128()).collect();
        pinned.sort_unstable();
        assert_eq!(pinned, [3, 4, 5, 6]);
    }
}
