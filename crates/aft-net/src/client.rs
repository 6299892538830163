//! The AFT client SDK: speaks the wire protocol over a pooled, pipelined
//! TCP connection, or an in-memory pipe, and implements [`AftApi`], so
//! workload drivers run unchanged against a socket.
//!
//! ## Design
//!
//! * **Client-side write buffer.** `Put` never crosses the wire; a
//!   transaction's writes accumulate in the SDK (the Atomic Write Buffer of
//!   §3.3 starts client-side) and ship inside the `Commit` frame. Reads
//!   check the local buffer first, so read-your-writes (§3.5) holds without
//!   a round trip, and the commit message is *self-contained* — resending
//!   it verbatim is always safe because the server deduplicates on the
//!   transaction UUID.
//! * **Pipelining without a reader thread.** Any number of caller threads
//!   can have requests outstanding on one pooled connection, and the
//!   server answers them in the order they were sent. A waiting caller
//!   reads frames itself: it keeps its own response, hands each other one
//!   to the caller it belongs to, and with its own in hand passes the read
//!   side to a caller still waiting (counted in
//!   [`ClientStatsSnapshot::handoffs`]). A lone caller thus reads its own
//!   reply, with no thread between it and the socket.
//! * **Sockets or pipes.** [`ClientBuilder::connect`] dials a server;
//!   [`ClientBuilder::pipe`] instead runs each connection's server session
//!   in memory, on the thread of the caller that sends: its answer is
//!   written before its caller waits for it, and no thread starts. A piped
//!   caller holds no lock while its request runs, so seated callers
//!   (`aft_storage::latency::Turns`) may share a connection.
//! * **Retry with backoff.** Transport failures (reset, timeout, refused)
//!   reconnect and resend under the storage engine's
//!   [`RetryConfig`] semantics: attempt `n`
//!   backs off `base_backoff << (n-1)` capped at `max_backoff`. Server-side
//!   *errors* are returned to the caller unchanged — the wire preserves
//!   their retryability classification, and whole-request retry policy
//!   belongs to the caller (§3.3.1), not the transport — with one
//!   exception: a server [`AftError::Overloaded`] verdict is retried
//!   in-transport under *decorrelated-jitter* backoff (see
//!   [`ClientStatsSnapshot::overload_retries`]), because retrying it is
//!   always safe (an overload rejection executed nothing) and jitter is
//!   what keeps a saturated server's clients from retrying in lockstep.
//! * **Network faults.** An optional [`PhaseHook`] answers each request
//!   ([`PhaseHook::deliver`]): the connection resets before or after the
//!   send, or the answer arrives late. Backoffs and late answers sleep over
//!   sockets and are charged to the caller's virtual clock over pipes
//!   ([`aft_storage::latency::charge`]).

use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use aft_core::api::{AftApi, CommitOutcome};
use aft_core::{NetFault, PhaseHook};
use aft_storage::io::RetryConfig;
use aft_storage::latency::charge;
use aft_types::clock::TickingClock;
use aft_types::wire::{decode_response, WireRequest, WireResponse, WireStats};
use aft_types::{
    seeded_stream, AftError, AftResult, Key, SharedClock, SystemClock, TransactionId, Uuid, Value,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::buffer::KEEP_CAPACITY;
use crate::frame::{read_frame_into, request_frame};
use crate::pipe::Pipe;
use crate::server::{PipeServer, ServerShared};

/// The overload backoff's salt: decorrelates its jitter stream from the
/// client's UUIDs, which are drawn from the same seed.
const JITTER_SALT: u64 = 0xAF7_0000_B0FF_0001;

/// Tuning of an [`AftClient`]; built with [`AftClient::builder`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    pub(crate) pool_size: usize,
    pub(crate) retry: RetryConfig,
    pub(crate) request_timeout: Duration,
    pub(crate) hook: Option<Arc<dyn PhaseHook>>,
    pub(crate) rng_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            pool_size: 2,
            retry: RetryConfig::default(),
            request_timeout: Duration::from_secs(30),
            hook: None,
            rng_seed: 0xAF7_0C11,
        }
    }
}

impl ClientConfig {
    /// Starts a builder from the defaults (same as [`AftClient::builder`]).
    pub fn builder() -> ClientBuilder {
        ClientBuilder {
            config: ClientConfig::default(),
        }
    }

    /// Connections in the pool.
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }
}

/// Fluent configuration for [`AftClient`]. `AftClient::builder().build()`
/// is identical to `ClientConfig::default()`.
#[derive(Debug, Clone)]
pub struct ClientBuilder {
    config: ClientConfig,
}

impl ClientBuilder {
    /// Connections in the pool (clamped to ≥ 1); transactions round-robin
    /// across them.
    pub fn pool_size(mut self, pool_size: usize) -> Self {
        self.config.pool_size = pool_size.max(1);
        self
    }

    /// Transport retry budget and backoff, mirroring the I/O engine's
    /// semantics (attempt `n` waits `base_backoff << (n-1)`, capped).
    pub fn retry(mut self, retry: RetryConfig) -> Self {
        self.config.retry = retry;
        self
    }

    /// How long one request may await its response before the connection is
    /// declared dead and the request retried. `ZERO` waits without a
    /// deadline.
    pub fn request_timeout(mut self, timeout: Duration) -> Self {
        self.config.request_timeout = timeout;
        self
    }

    /// The hook asked what the network does to each request
    /// ([`PhaseHook::deliver`]); a schedule of `aft_workload::sim` answers
    /// it, from its seeded net leg or walking every reset.
    pub fn phase_hook(mut self, hook: Arc<dyn PhaseHook>) -> Self {
        self.config.hook = Some(hook);
        self
    }

    /// Seed for transaction UUIDs and, on a stream of its own, for the
    /// overload backoff's jitter (distinct clients should use distinct
    /// seeds).
    pub fn rng_seed(mut self, rng_seed: u64) -> Self {
        self.config.rng_seed = rng_seed;
        self
    }

    /// Finishes into a [`ClientConfig`].
    pub fn build(self) -> ClientConfig {
        self.config
    }

    /// Builds and immediately connects to `addr`.
    pub fn connect(self, addr: impl ToSocketAddrs) -> AftResult<Arc<AftClient>> {
        AftClient::connect(addr, self.build())
    }

    /// Builds a client whose connections are in-memory pipes into `server`
    /// ([`ServerBuilder::pipe`](crate::ServerBuilder::pipe)). Each request
    /// runs through the same connection state machine as over a socket, on
    /// the thread of the caller that sends it, and no thread starts.
    pub fn pipe(self, server: &PipeServer) -> Arc<AftClient> {
        let endpoint = Endpoint::Pipe(Arc::clone(&server.0));
        AftClient::open(endpoint, self.build()).expect("a pipe always opens")
    }
}

/// Where a client's connections go.
enum Endpoint {
    Addr(SocketAddr),
    /// A server state whose sessions pipes run.
    Pipe(Arc<ServerShared>),
}

/// What one connection's frames travel over.
enum Link {
    Tcp(TcpStream),
    Pipe(Pipe),
}

impl Link {
    fn shutdown(&self) {
        match self {
            Link::Tcp(stream) => drop(stream.shutdown(Shutdown::Both)),
            Link::Pipe(pipe) => pipe.close(),
        }
    }
}

/// A connection's read side: the one link, shared with its writers.
struct ReadHalf(Arc<Link>);

impl Read for ReadHalf {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match &*self.0 {
            Link::Tcp(stream) => (&*stream).read(buf),
            Link::Pipe(pipe) => pipe.recv(buf),
        }
    }
}

/// A connection's read side and the buffer each reply is read into, kept
/// warm up to [`KEEP_CAPACITY`].
struct Reader {
    stream: BufReader<ReadHalf>,
    payload: Vec<u8>,
}

impl Reader {
    /// The next reply; `None` once the connection ended or broke framing.
    fn next(&mut self) -> Option<(u64, WireResponse)> {
        let read = read_frame_into(&mut self.stream, &mut self.payload);
        let reply = match read {
            Ok(true) => decode_response(&self.payload).ok(),
            _ => None,
        };
        if self.payload.capacity() > KEEP_CAPACITY {
            self.payload = Vec::new();
        }
        reply
    }
}

/// One request's place on its connection while its caller is in flight.
struct Waiter {
    thread: Thread,
    /// Set once the caller waits for its response (it may still be sending
    /// before that); only a waiting caller is handed the read side.
    waiting: bool,
    /// Its response, once another caller read it.
    response: Option<WireResponse>,
}

/// What the callers of one connection share to get their responses.
struct Inbox {
    /// The read side, parked here while no caller reads; a caller takes it
    /// out to read and puts it back with its own response in hand.
    reader: Option<Reader>,
    waiters: HashMap<u64, Waiter>,
    closed: bool,
}

/// One live connection, with no thread of its own: its waiting callers
/// read it (see [`Conn::wait`]).
struct Conn {
    link: Arc<Link>,
    /// Orders a socket's writes, so frames never interleave, and keeps one
    /// frame buffer warm.
    writer: Mutex<Vec<u8>>,
    inbox: Mutex<Inbox>,
    broken: AtomicBool,
}

impl Conn {
    /// Connects; a socket read waits at most `timeout` for bytes before the
    /// connection is declared dead.
    fn connect(endpoint: &Endpoint, timeout: Duration) -> AftResult<Arc<Conn>> {
        let link = match endpoint {
            Endpoint::Addr(addr) => {
                let stream = TcpStream::connect(addr)
                    .map_err(|e| AftError::Unavailable(format!("connect {addr}: {e}")))?;
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(Some(timeout).filter(|t| !t.is_zero()));
                Link::Tcp(stream)
            }
            Endpoint::Pipe(shared) => Link::Pipe(Pipe::open(shared)),
        };
        let link = Arc::new(link);
        Ok(Arc::new(Conn {
            writer: Mutex::new(Vec::new()),
            inbox: Mutex::new(Inbox {
                reader: Some(Reader {
                    stream: BufReader::new(ReadHalf(Arc::clone(&link))),
                    payload: Vec::new(),
                }),
                waiters: HashMap::new(),
                closed: false,
            }),
            link,
            broken: AtomicBool::new(false),
        }))
    }

    /// Registers a request id; fails if the connection already died.
    fn register(&self, request_id: u64) -> AftResult<()> {
        let mut inbox = self.inbox.lock();
        if inbox.closed || self.is_broken() {
            return Err(AftError::Unavailable("connection closed".to_owned()));
        }
        let waiter = Waiter {
            thread: std::thread::current(),
            waiting: false,
            response: None,
        };
        inbox.waiters.insert(request_id, waiter);
        Ok(())
    }

    fn unregister(&self, request_id: u64) {
        self.inbox.lock().waiters.remove(&request_id);
    }

    fn send(&self, request_id: u64, request: &WireRequest) -> AftResult<()> {
        let sent = match &*self.link {
            Link::Tcp(stream) => {
                let mut frame = self.writer.lock();
                let sent = request_frame(&mut frame, request_id, request)
                    .and_then(|()| (&*stream).write_all(&frame));
                if frame.capacity() > KEEP_CAPACITY {
                    *frame = Vec::new();
                }
                sent
            }
            // A pipe runs the request inside its send, and its caller may
            // be seated: it holds no lock across that, so it frames into a
            // buffer of its own.
            Link::Pipe(pipe) => {
                let mut frame = Vec::new();
                request_frame(&mut frame, request_id, request).and_then(|()| pipe.send(&frame))
            }
        };
        sent.map_err(|e| {
            self.reset();
            AftError::Unavailable(format!("send: {e}"))
        })
    }

    /// Waits for `request_id`'s response, reading frames off the socket
    /// whenever no other caller is. `None` means the connection died or a
    /// nonzero `timeout` passed; either way it is reset.
    fn wait(
        &self,
        request_id: u64,
        timeout: Duration,
        stats: &ClientStats,
    ) -> Option<WireResponse> {
        let deadline = (!timeout.is_zero()).then(|| Instant::now() + timeout);
        let mut inbox = self.inbox.lock();
        let response = loop {
            let Some(waiter) = inbox.waiters.get_mut(&request_id) else {
                break None;
            };
            waiter.waiting = true;
            if let Some(response) = waiter.response.take() {
                break Some(response);
            }
            let now = Instant::now();
            if inbox.closed || deadline.is_some_and(|deadline| now >= deadline) {
                break None;
            }
            let Some(mut reader) = inbox.reader.take() else {
                // Another caller is reading; it hands over this response or
                // the read side.
                drop(inbox);
                match deadline {
                    Some(deadline) => std::thread::park_timeout(deadline - now),
                    None => std::thread::park(),
                }
                inbox = self.inbox.lock();
                continue;
            };
            drop(inbox);
            let read = reader.next();
            inbox = self.inbox.lock();
            let Some((id, response)) = read else {
                break None;
            };
            inbox.reader = Some(reader);
            if id == request_id {
                break Some(response);
            }
            if let Some(waiter) = inbox.waiters.get_mut(&id) {
                waiter.response = Some(response);
                waiter.thread.unpark();
                stats.handoffs.fetch_add(1, Ordering::Relaxed);
            }
        };
        inbox.waiters.remove(&request_id);
        if response.is_none() {
            drop(inbox);
            self.reset();
        } else if inbox.reader.is_some() {
            // Pass the read side on to a caller still waiting.
            if let Some(next) = inbox
                .waiters
                .values()
                .find(|w| w.waiting && w.response.is_none())
            {
                next.thread.unpark();
            }
        }
        response
    }

    /// Hard-resets the link and fails every caller still waiting on it
    /// (used on any transport failure, by injected resets and teardown).
    fn reset(&self) {
        self.broken.store(true, Ordering::Release);
        self.link.shutdown();
        let mut inbox = self.inbox.lock();
        inbox.closed = true;
        for waiter in inbox.waiters.values() {
            waiter.thread.unpark();
        }
    }

    fn is_broken(&self) -> bool {
        self.broken.load(Ordering::Acquire)
    }
}

/// A transaction's client-side state: its write buffer and its pinned pool
/// slot.
struct LocalTxn {
    slot: usize,
    writes: Vec<(Key, Value)>,
    index: HashMap<Key, usize>,
}

impl LocalTxn {
    fn buffer_write(&mut self, key: Key, value: Value) {
        match self.index.get(&key) {
            Some(&i) => self.writes[i].1 = value,
            None => {
                self.index.insert(key.clone(), self.writes.len());
                self.writes.push((key, value));
            }
        }
    }

    fn buffered(&self, key: &Key) -> Option<Value> {
        self.index.get(key).map(|&i| self.writes[i].1.clone())
    }
}

/// Point-in-time client counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStatsSnapshot {
    /// Wire requests attempted (including transport retries).
    pub requests: u64,
    /// Transport-level retries (reconnect + resend).
    pub transport_retries: u64,
    /// Retries of requests the server rejected with
    /// [`AftError::Overloaded`], each after a decorrelated-jitter backoff.
    /// Counted separately from `transport_retries` because the connection
    /// stayed healthy — the server was just saturated.
    pub overload_retries: u64,
    /// Fresh connections established (initial + reconnects).
    pub connects: u64,
    /// Commit acknowledgements received.
    pub commits_acked: u64,
    /// Acknowledgements that were duplicates served from the server's dedup
    /// ledger.
    pub duplicate_acks: u64,
    /// Responses one caller read off a shared connection for another.
    pub handoffs: u64,
}

#[derive(Debug, Default)]
struct ClientStats {
    requests: AtomicU64,
    transport_retries: AtomicU64,
    overload_retries: AtomicU64,
    connects: AtomicU64,
    commits_acked: AtomicU64,
    duplicate_acks: AtomicU64,
    handoffs: AtomicU64,
}

/// The AFT service client. Cheap to share across threads (`Arc`); every
/// method is concurrency-safe.
pub struct AftClient {
    endpoint: Endpoint,
    config: ClientConfig,
    slots: Vec<Mutex<Option<Arc<Conn>>>>,
    next_request: AtomicU64,
    next_slot: AtomicUsize,
    clock: SharedClock,
    /// The stream transaction UUIDs are drawn from, and only they.
    rng: Mutex<StdRng>,
    /// Overload backoffs drawn so far: the next one's index on the
    /// client's jitter stream.
    backoff_draws: AtomicU64,
    txns: Mutex<HashMap<Uuid, LocalTxn>>,
    stats: ClientStats,
}

impl AftClient {
    /// Starts configuring a client; `.connect(addr)` launches it.
    pub fn builder() -> ClientBuilder {
        ClientConfig::builder()
    }

    /// Connects to `addr` (anything `ToSocketAddrs`, e.g.
    /// `"127.0.0.1:4400"`). Eagerly opens the first pooled connection so
    /// misconfiguration fails here, not mid-workload.
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> AftResult<Arc<AftClient>> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| AftError::Unavailable(format!("resolve address: {e}")))?
            .next()
            .ok_or_else(|| AftError::Unavailable("address resolved to nothing".to_owned()))?;
        AftClient::open(Endpoint::Addr(addr), config)
    }

    fn open(endpoint: Endpoint, config: ClientConfig) -> AftResult<Arc<AftClient>> {
        // A piped client mints its ids from a clock of its own that ticks
        // once a `begin`, so a run over pipes is a function of its callers'
        // order alone, ids included.
        let clock: SharedClock = match endpoint {
            Endpoint::Addr(_) => SystemClock::shared(),
            Endpoint::Pipe(_) => TickingClock::shared(1, 1),
        };
        let client = Arc::new(AftClient {
            endpoint,
            slots: (0..config.pool_size.max(1))
                .map(|_| Mutex::new(None))
                .collect(),
            next_request: AtomicU64::new(1),
            next_slot: AtomicUsize::new(0),
            clock,
            rng: Mutex::new(StdRng::seed_from_u64(config.rng_seed)),
            backoff_draws: AtomicU64::new(0),
            txns: Mutex::new(HashMap::new()),
            stats: ClientStats::default(),
            config,
        });
        client.conn_at(0)?;
        Ok(client)
    }

    /// Client counters so far.
    pub fn stats(&self) -> ClientStatsSnapshot {
        ClientStatsSnapshot {
            requests: self.stats.requests.load(Ordering::Relaxed),
            transport_retries: self.stats.transport_retries.load(Ordering::Relaxed),
            overload_retries: self.stats.overload_retries.load(Ordering::Relaxed),
            connects: self.stats.connects.load(Ordering::Relaxed),
            commits_acked: self.stats.commits_acked.load(Ordering::Relaxed),
            duplicate_acks: self.stats.duplicate_acks.load(Ordering::Relaxed),
            handoffs: self.stats.handoffs.load(Ordering::Relaxed),
        }
    }

    /// Round-trips a `Ping`, returning the elapsed wall time.
    pub fn ping(&self) -> AftResult<Duration> {
        let started = std::time::Instant::now();
        match self.call(0, &WireRequest::Ping)? {
            WireResponse::Pong => Ok(started.elapsed()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Fetches the server's service counters.
    pub fn server_stats(&self) -> AftResult<WireStats> {
        match self.call(0, &WireRequest::Stats)? {
            WireResponse::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    fn conn_at(&self, slot: usize) -> AftResult<Arc<Conn>> {
        let slot = slot % self.slots.len();
        let mut guard = self.slots[slot].lock();
        if let Some(conn) = guard.as_ref() {
            if !conn.is_broken() {
                return Ok(Arc::clone(conn));
            }
        }
        let conn = Conn::connect(&self.endpoint, self.config.request_timeout)?;
        self.stats.connects.fetch_add(1, Ordering::Relaxed);
        *guard = Some(Arc::clone(&conn));
        Ok(conn)
    }

    fn drop_conn(&self, slot: usize, conn: &Arc<Conn>) {
        let slot = slot % self.slots.len();
        let mut guard = self.slots[slot].lock();
        if let Some(current) = guard.as_ref() {
            if Arc::ptr_eq(current, conn) {
                *guard = None;
            }
        }
    }

    /// One attempt: connect (or reuse), send, await the response. Transport
    /// failures come back as `Err`; server-side verdicts (including
    /// `WireResponse::Error`) come back as `Ok`.
    fn try_call(&self, slot: usize, request: &WireRequest) -> AftResult<WireResponse> {
        let conn = self.conn_at(slot)?;
        let fault = self
            .config
            .hook
            .as_ref()
            .map_or(NetFault::None, |hook| hook.deliver(request.verb()));
        if fault == NetFault::ResetBeforeSend {
            conn.reset();
            self.drop_conn(slot, &conn);
            return Err(AftError::Unavailable(
                "connection reset before send".to_owned(),
            ));
        }
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        conn.register(request_id)?;
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = conn.send(request_id, request) {
            conn.unregister(request_id);
            self.drop_conn(slot, &conn);
            return Err(e);
        }
        // The lost-ack window, end to end: the request is on the wire (the
        // server may well execute it) and the connection dies before the
        // acknowledgement arrives.
        if fault == NetFault::ResetAfterSend {
            conn.reset();
            conn.unregister(request_id);
            self.drop_conn(slot, &conn);
            return Err(AftError::Unavailable(
                "connection reset before ack".to_owned(),
            ));
        }
        if let NetFault::DelayAck(delay) = fault {
            self.pause(delay);
        }
        match conn.wait(request_id, self.config.request_timeout, &self.stats) {
            Some(response) => Ok(response),
            None => {
                self.drop_conn(slot, &conn);
                Err(AftError::Unavailable(
                    "connection lost awaiting response".to_owned(),
                ))
            }
        }
    }

    /// Sends `request`, transparently reconnecting and resending on
    /// transport failure under the configured backoff. Safe for every verb:
    /// reads are naturally idempotent and `Commit` is deduplicated
    /// server-side.
    ///
    /// An [`AftError::Overloaded`] verdict is also retried here (an
    /// overload rejection executed nothing, so resending is always safe),
    /// but under a *different* backoff: decorrelated jitter instead of the
    /// deterministic exponential used for connection failures. Overload is
    /// a correlated event — every client of a saturated server hits it at
    /// once, and deterministic backoff would march them all back in
    /// lockstep, re-creating the very spike that caused the rejection.
    fn call(&self, slot: usize, request: &WireRequest) -> AftResult<WireResponse> {
        let max_attempts = self.config.retry.max_attempts.max(1);
        let mut attempt = 0u32;
        let mut overload_prev = self.config.retry.base_backoff;
        loop {
            attempt += 1;
            match self.try_call(slot, request) {
                Ok(WireResponse::Error(e)) if e.is_overloaded() => {
                    if attempt >= max_attempts {
                        // Out of budget: surface the server's verdict
                        // unchanged so the caller sees a typed, retryable
                        // `Overloaded` rather than a transport failure.
                        return Ok(WireResponse::Error(e));
                    }
                    self.stats.overload_retries.fetch_add(1, Ordering::Relaxed);
                    overload_prev = self.overload_backoff(overload_prev);
                    self.pause(overload_prev);
                }
                Ok(response) => return Ok(response),
                Err(e) => {
                    if attempt >= max_attempts {
                        return Err(e);
                    }
                    self.stats.transport_retries.fetch_add(1, Ordering::Relaxed);
                    self.pause(self.config.retry.backoff_for(attempt));
                }
            }
        }
    }

    /// Lets `delay` pass: slept over sockets, charged to the calling
    /// thread's virtual clock over pipes.
    fn pause(&self, delay: Duration) {
        match self.endpoint {
            Endpoint::Addr(_) => std::thread::sleep(delay),
            Endpoint::Pipe(_) => charge(delay),
        }
    }

    /// One decorrelated-jitter backoff step: `sleep = min(cap,
    /// uniform(base, prev * 3))`, drawn from the client's jitter stream (its
    /// seed under a salt of its own, counted by backoff), so a retry moves
    /// no transaction UUID. Each
    /// step's sleep depends on the *previous draw* rather than the attempt
    /// number, so concurrent clients' retry schedules diverge instead of
    /// synchronizing.
    fn overload_backoff(&self, prev: Duration) -> Duration {
        let base = self
            .config
            .retry
            .base_backoff
            .max(Duration::from_micros(50));
        let cap = self.config.retry.max_backoff.max(base);
        let upper = prev.saturating_mul(3).max(base + Duration::from_nanos(1));
        let n = self.backoff_draws.fetch_add(1, Ordering::Relaxed);
        let mut rng = seeded_stream(self.config.rng_seed, JITTER_SALT, n);
        let nanos = rng.gen_range(base.as_nanos()..=upper.as_nanos());
        Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX)).min(cap)
    }
}

fn unexpected(wanted: &str, got: &WireResponse) -> AftError {
    AftError::Codec(format!("expected {wanted} response, got {got:?}"))
}

impl AftApi for AftClient {
    fn api_label(&self) -> &str {
        "aft-net"
    }

    fn begin(&self) -> AftResult<TransactionId> {
        // The id is minted locally — timestamp from the local clock, UUID
        // from the seeded stream — and the server learns it lazily via
        // `ensure_transaction`, so `begin` needs no round trip.
        let uuid = {
            let mut rng = self.rng.lock();
            Uuid::from_rng(&mut *rng)
        };
        let txid = TransactionId::new(self.clock.now(), uuid);
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        self.txns.lock().insert(
            uuid,
            LocalTxn {
                slot,
                writes: Vec::new(),
                index: HashMap::new(),
            },
        );
        Ok(txid)
    }

    fn get_versioned(
        &self,
        txid: &TransactionId,
        key: &Key,
    ) -> AftResult<Option<(Value, Option<TransactionId>)>> {
        let slot = {
            let txns = self.txns.lock();
            let txn = txns
                .get(&txid.uuid)
                .ok_or(AftError::UnknownTransaction(*txid))?;
            // Read-your-writes (§3.5) from the client-side buffer, no round
            // trip; `None` as the version marks "own write", like the node.
            if let Some(value) = txn.buffered(key) {
                return Ok(Some((value, None)));
            }
            txn.slot
        };
        let request = WireRequest::Get {
            txid: *txid,
            key: key.clone(),
        };
        match self.call(slot, &request)? {
            WireResponse::Value(None) => Ok(None),
            WireResponse::Value(Some((value, version))) => {
                let version = (!version.is_null()).then_some(version);
                Ok(Some((value, version)))
            }
            WireResponse::Error(e) => Err(e),
            other => Err(unexpected("Value", &other)),
        }
    }

    fn get_all(&self, txid: &TransactionId, keys: &[Key]) -> AftResult<Vec<Option<Value>>> {
        let mut out: Vec<Option<Value>> = vec![None; keys.len()];
        let (slot, remote): (usize, Vec<(usize, Key)>) = {
            let txns = self.txns.lock();
            let txn = txns
                .get(&txid.uuid)
                .ok_or(AftError::UnknownTransaction(*txid))?;
            let mut remote = Vec::new();
            for (i, key) in keys.iter().enumerate() {
                match txn.buffered(key) {
                    Some(value) => out[i] = Some(value),
                    None => remote.push((i, key.clone())),
                }
            }
            (txn.slot, remote)
        };
        if remote.is_empty() {
            return Ok(out);
        }
        let request = WireRequest::GetAll {
            txid: *txid,
            keys: remote.iter().map(|(_, key)| key.clone()).collect(),
        };
        match self.call(slot, &request)? {
            WireResponse::Values(values) if values.len() == remote.len() => {
                for ((i, _), value) in remote.into_iter().zip(values) {
                    out[i] = value;
                }
                Ok(out)
            }
            WireResponse::Values(_) => {
                Err(AftError::Codec("GetAll reply count mismatch".to_owned()))
            }
            WireResponse::Error(e) => Err(e),
            other => Err(unexpected("Values", &other)),
        }
    }

    fn put(&self, txid: &TransactionId, key: Key, value: Value) -> AftResult<()> {
        let mut txns = self.txns.lock();
        let txn = txns
            .get_mut(&txid.uuid)
            .ok_or(AftError::UnknownTransaction(*txid))?;
        txn.buffer_write(key, value);
        Ok(())
    }

    fn commit(
        &self,
        txid: &TransactionId,
        reads: &[(Key, TransactionId)],
    ) -> AftResult<CommitOutcome> {
        // Take the buffer up front: whatever happens next, this transaction
        // is finished client-side (a failed commit means the caller retries
        // the logical request with a fresh transaction, §3.3.1).
        let txn = self
            .txns
            .lock()
            .remove(&txid.uuid)
            .ok_or(AftError::UnknownTransaction(*txid))?;
        let request = WireRequest::Commit {
            txid: *txid,
            writes: txn.writes,
            reads: reads.to_vec(),
        };
        match self.call(txn.slot, &request)? {
            WireResponse::Committed {
                txid: final_id,
                atomic,
                duplicate,
            } => {
                self.stats.commits_acked.fetch_add(1, Ordering::Relaxed);
                if duplicate {
                    self.stats.duplicate_acks.fetch_add(1, Ordering::Relaxed);
                }
                Ok(CommitOutcome {
                    final_id,
                    atomic,
                    duplicate,
                })
            }
            WireResponse::Error(e) => Err(e),
            other => Err(unexpected("Committed", &other)),
        }
    }

    fn abort(&self, txid: &TransactionId) -> AftResult<()> {
        let Some(txn) = self.txns.lock().remove(&txid.uuid) else {
            // Nothing buffered and nothing known server-side under this
            // uuid that we still track: aborting twice is a no-op.
            return Ok(());
        };
        match self.call(txn.slot, &WireRequest::Abort { txid: *txid })? {
            WireResponse::Aborted => Ok(()),
            WireResponse::Error(e) => Err(e),
            other => Err(unexpected("Aborted", &other)),
        }
    }
}

impl Drop for AftClient {
    fn drop(&mut self) {
        // Reset every pooled connection so the server sees each close now;
        // a connection has no thread of its own, and its one descriptor
        // closes when the last caller still holding it lets go.
        for slot in &self.slots {
            if let Some(conn) = slot.lock().take() {
                conn.reset();
            }
        }
    }
}

impl std::fmt::Debug for AftClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let addr = match &self.endpoint {
            Endpoint::Addr(addr) => addr.to_string(),
            Endpoint::Pipe(_) => "pipe".to_owned(),
        };
        f.debug_struct("AftClient")
            .field("addr", &addr)
            .field("pool_size", &self.slots.len())
            .field("hook", &self.config.hook.is_some())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connecting_to_a_dead_port_fails_fast() {
        // Bind then drop a listener to get a port that refuses connections.
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let result = AftClient::connect(("127.0.0.1", port), ClientConfig::default());
        assert!(matches!(result, Err(AftError::Unavailable(_))));
    }

    #[test]
    fn builder_defaults_match_default_config() {
        let built = AftClient::builder().build();
        let defaults = ClientConfig::default();
        assert_eq!(built.pool_size, defaults.pool_size);
        assert_eq!(built.request_timeout, defaults.request_timeout);
        assert_eq!(built.rng_seed, defaults.rng_seed);
        assert!(built.hook.is_none());
    }

    #[test]
    fn builder_knobs_are_applied_and_clamped() {
        let config = AftClient::builder()
            .pool_size(0)
            .rng_seed(42)
            .request_timeout(Duration::from_secs(3))
            .build();
        assert_eq!(config.pool_size, 1, "clamped to >= 1");
        assert_eq!(config.rng_seed, 42);
        assert_eq!(config.request_timeout, Duration::from_secs(3));
    }

    #[test]
    fn local_txn_buffer_upserts_in_write_order() {
        let mut txn = LocalTxn {
            slot: 0,
            writes: Vec::new(),
            index: HashMap::new(),
        };
        txn.buffer_write(Key::new("a"), Value::from_static(b"1"));
        txn.buffer_write(Key::new("b"), Value::from_static(b"2"));
        txn.buffer_write(Key::new("a"), Value::from_static(b"3"));
        assert_eq!(txn.writes.len(), 2, "upsert, not append");
        assert_eq!(txn.buffered(&Key::new("a")), Some(Value::from_static(b"3")));
        assert_eq!(txn.writes[0].0, Key::new("a"));
        assert_eq!(txn.writes[1].0, Key::new("b"));
    }
}
