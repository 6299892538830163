//! Overlapped storage I/O: a submission/completion engine.
//!
//! AFT's real implementation hides storage round trips by issuing requests
//! concurrently — §3.3 only requires that all of a transaction's data writes
//! are durable *before* its commit record, never that they land one after
//! another. The blocking [`StorageEngine`] trait cannot express that: an
//! 8-key commit over a backend without a batch API pays nine sequential
//! round trips. This module adds the missing layer, and adds no latency of
//! its own to it, by one rule: **a thread that is about to block on its own
//! request runs it.**
//!
//! * [`StorageRequest`] — one storage operation as a value (get / batched
//!   get / put / batched put / delete / batched delete / list).
//! * [`IoEngine::execute`] runs one request and answers with its result;
//!   [`IoEngine::put_all`] and [`IoEngine::get_all`] issue a batch together
//!   and wait for all of it, the barrier callers place between a
//!   transaction's data writes and its commit-record append.
//! * **Submitter-run I/O.** Every request runs on the calling thread under
//!   [`capture_deferred`]: the data-plane effect applies immediately, the
//!   sampled delay is *not* slept, and the request's ticket records when
//!   the completion is due. That holds for every backend, so the engine
//!   owns no thread.
//! * **Waiter-timed completions.** A deferred completion is only a deadline
//!   in its ticket; a batch's barrier sleeps once, until the latest
//!   member's — so any number of requests overlap on one thread, exactly
//!   like an async client over a real network. [`IoConfig::max_in_flight`]
//!   still bounds the overlap: deadlines of outstanding requests are expired
//!   lazily at submission, which blocks until the earliest passes when the
//!   window is full.
//! * **Overlap accounting for the virtual clock**: a batch is charged one
//!   *wave* at a time — the **maximum** of each
//!   [`IoConfig::max_in_flight`]-sized chunk, summed across chunks. A batch
//!   that fits the window costs its slowest member; a window of 1 charges
//!   the plain sum. That charge, not the sum of the members, lands on the
//!   calling thread, and [`measure_cost`](crate::latency::measure_cost) is
//!   where it is read. This is how `LatencyMode::Virtual` experiments
//!   observe overlap without sleeping, without ever undercharging a batch
//!   larger than the engine's real concurrency.
//!
//! [`IoConfig::sequential()`] is the window of 1: every request waits out
//! its predecessor, reproducing the historical one-round-trip-at-a-time
//! behaviour through the same code — the baseline every pipelined
//! experiment compares against. [`SequentialEngine`] is the matching
//! storage-side wrapper: it forces per-key API calls (no batching) so the
//! baseline also pays full sequential round-trip charging inside
//! `put_batch` and reads key by key.
//!
//! A note on simulation fidelity: a deferred operation's data-plane effect is
//! visible in the backend *before* its completion is due, as if the service
//! applied the write mid-flight. AFT never depends on the opposite — data
//! is invisible until a commit record references it, and the record is only
//! submitted after every data completion has been waited out.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aft_types::{AftResult, Value};
use parking_lot::{Condvar, Mutex};

use crate::engine::{SharedStorage, StorageEngine};
use crate::latency::{capture_deferred, charge, sleep_until};

/// Op-level retry policy for transient storage faults.
///
/// Cloud stores drop, throttle, and time out individual requests as a matter
/// of course; AFT's storage writes are idempotent (every key version lands
/// at a unique storage key, §3.1), so the right place to absorb those faults
/// is the submission path itself. A request that fails with
/// [`aft_types::AftError::is_transient_storage`] is re-issued up to
/// `max_attempts` times with exponential backoff; the backoff is *charged to
/// the operation's simulated cost* (and, for deferred completions, added to
/// the completion delay), so the PR 3 overlap accounting sees retries as
/// what they are — a slower operation — without any thread sleeping through
/// a virtual-clock experiment. Only exhaustion surfaces the typed
/// [`aft_types::AftError::StorageTransient`] error to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Total attempts per request (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before attempt `n+1` is `base_backoff << (n-1)`, capped at
    /// [`RetryConfig::max_backoff`].
    pub base_backoff: Duration,
    /// Upper bound of a single backoff step.
    pub max_backoff: Duration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 4,
            base_backoff: Duration::from_micros(500),
            max_backoff: Duration::from_millis(20),
        }
    }
}

impl RetryConfig {
    /// No retries: transient faults propagate on the first failure.
    pub fn disabled() -> Self {
        RetryConfig {
            max_attempts: 1,
            ..RetryConfig::default()
        }
    }

    /// Overrides the attempt budget (clamped to ≥ 1).
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// The backoff charged before retrying after attempt `attempt` (1-based)
    /// failed.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        let stepped = self.base_backoff.saturating_mul(1u32 << shift);
        stepped.min(self.max_backoff)
    }
}

/// Tuning for an [`IoEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoConfig {
    /// Maximum requests in flight (submitted, completion not yet due);
    /// `submit` blocks once the limit is reached, like a bounded device
    /// queue. `1` makes the engine sequential.
    pub max_in_flight: usize,
    /// Op-level retry policy for transient storage faults.
    pub retry: RetryConfig,
}

impl Default for IoConfig {
    fn default() -> Self {
        Self::pipelined()
    }
}

impl IoConfig {
    /// The standard overlapped configuration: a deep in-flight window.
    pub fn pipelined() -> Self {
        IoConfig {
            max_in_flight: 256,
            retry: RetryConfig::default(),
        }
    }

    /// The explicitly-sequential configuration: a window of one, so each
    /// request waits out its predecessor and a batch charges the *sum* of
    /// its members.
    pub fn sequential() -> Self {
        IoConfig {
            max_in_flight: 1,
            retry: RetryConfig::default(),
        }
    }

    /// Overrides the in-flight window (clamped to ≥ 1).
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight.max(1);
        self
    }

    /// Overrides the transient-fault retry policy.
    pub fn with_retry(mut self, retry: RetryConfig) -> Self {
        self.retry = retry;
        self
    }
}

/// One storage operation, as a submittable value.
#[derive(Debug, Clone)]
pub enum StorageRequest {
    /// Read one key.
    Get(String),
    /// Read several keys through the backend's multi-key read (the backend
    /// decides how many API calls that takes).
    GetBatch(Vec<String>),
    /// Write one key.
    Put(String, Value),
    /// Write several keys through the backend's batch API (the backend
    /// decides how many API calls that takes).
    PutBatch(Vec<(String, Value)>),
    /// Delete one key.
    Delete(String),
    /// Delete several keys through the backend's batch API.
    DeleteBatch(Vec<String>),
    /// List all keys with a prefix.
    List(String),
    /// List the keys with a prefix (first) that sort after a key (second).
    ListAfter(String, String),
}

/// The successful result of a [`StorageRequest`].
#[derive(Debug, Clone)]
pub enum StorageResponse {
    /// A `Get`'s value (or `None` for a missing key).
    Value(Option<Value>),
    /// A `GetBatch`'s values, in request order.
    Values(Vec<Option<Value>>),
    /// A write or delete completed.
    Done,
    /// A `List`'s keys, in lexicographic order.
    Keys(Vec<String>),
}

impl StorageResponse {
    /// The value of a `Get` response; `None` for any other kind.
    pub fn into_value(self) -> Option<Value> {
        match self {
            StorageResponse::Value(v) => v,
            _ => None,
        }
    }

    /// The values of a `GetBatch` response; empty for any other kind.
    pub fn into_values(self) -> Vec<Option<Value>> {
        match self {
            StorageResponse::Values(values) => values,
            _ => Vec::new(),
        }
    }

    /// The keys of a `List` response; empty for any other kind.
    pub fn into_keys(self) -> Vec<String> {
        match self {
            StorageResponse::Keys(keys) => keys,
            _ => Vec::new(),
        }
    }
}

/// A handle for one submitted request: it has run, on its submitter; what is
/// outstanding is its latency.
struct IoTicket<'e> {
    result: AftResult<StorageResponse>,
    /// The simulated latency the request charged: its samples and its retry
    /// backoff. Collecting the ticket adds it to the thread's charge.
    cost: Duration,
    due: Due<'e>,
}

/// When a request stops being in flight.
enum Due<'e> {
    /// Its latency was deferred: at this instant, whoever waits.
    At(Instant),
    /// Nothing was deferred (virtual clock, zero-latency backend), so its
    /// latency passes in virtual time only, and that advances where the
    /// ticket is collected.
    OnCollect { _held: Uncollected<'e> },
}

/// Counts one request in [`IoEngine::uncollected`] for as long as it lives.
struct Uncollected<'e>(&'e AtomicUsize);

impl<'e> Uncollected<'e> {
    fn new(count: &'e AtomicUsize) -> Self {
        count.fetch_add(1, Ordering::Relaxed);
        Uncollected(count)
    }
}

impl Drop for Uncollected<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

impl IoTicket<'_> {
    /// When this request's deferred latency will have elapsed, if it has any.
    fn ready_at(&self) -> Option<Instant> {
        match self.due {
            Due::At(at) => Some(at),
            Due::OnCollect { .. } => None,
        }
    }

    /// Blocks until the request's completion is due, adds its cost to the
    /// thread's charge and returns its result.
    fn wait(self) -> AftResult<StorageResponse> {
        if let Some(at) = self.ready_at() {
            sleep_until(at);
        }
        charge(self.cost);
        self.result
    }
}

/// The completions of one submitted batch.
struct CompletionSet<'e> {
    tickets: Vec<IoTicket<'e>>,
    /// The engine's overlap window at submission time (1 = sequential).
    window: usize,
}

impl CompletionSet<'_> {
    /// Barrier: waits for every member, adds the batch's cost (its waves,
    /// not the sum of its members) to the thread's charge and returns the
    /// members' results in submission order.
    fn wait_all(self) -> Vec<AftResult<StorageResponse>> {
        // One sleep covers every deferred member: the latest deadline.
        if let Some(latest) = self.tickets.iter().filter_map(IoTicket::ready_at).max() {
            sleep_until(latest);
        }
        // Overlap accounting, bounded by the engine's real concurrency: at
        // most `window` members are in flight together, so the batch is
        // charged one wave at a time — the max of each window-sized chunk,
        // summed across chunks. A sequential engine (window 1) degenerates to
        // the plain sum; a batch that fits the window costs its slowest
        // member.
        let waves = self.tickets.chunks(self.window.max(1));
        let cost = waves
            .filter_map(|wave| wave.iter().map(|ticket| ticket.cost).max())
            .sum();
        let results = self.tickets.into_iter().map(|ticket| ticket.result);
        let results = results.collect();
        charge(cost);
        results
    }
}

/// Point-in-time counters of an [`IoEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests whose backend call has returned. (A deferred completion may
    /// still be waiting out its latency; its waiter times that.)
    pub completed: u64,
    /// Requests whose latency was delivered after the backend call returned:
    /// the sleep was suppressed and became a completion deadline for the
    /// waiter. Every request to a `Sleep`-mode backend with a non-zero
    /// sample; none in `Virtual` mode or on a zero-latency backend.
    pub deferred: u64,
    /// Highest in-flight depth observed. A request is in flight from
    /// `submit` until its completion: the deadline its deferred latency set
    /// or, with nothing deferred (virtual clock, zero-latency backend), the
    /// collection of its ticket, where its virtual latency is charged.
    /// Never above the window: the wave accounting puts further members of
    /// an uncollected batch in a later wave.
    pub peak_in_flight: u64,
    /// Transient-fault retries performed by the submission path.
    pub retries: u64,
}

struct EngineState {
    /// Requests executing on some thread.
    running: usize,
    /// Completion deadlines of requests that ran with deferred latency,
    /// earliest first. Expired lazily at `submit`: nothing fires them.
    deadlines: BinaryHeap<Reverse<Instant>>,
    stats: IoStatsSnapshot,
}

/// The storage I/O engine: submitter-run requests with waiter-timed
/// completions. See the module docs.
pub struct IoEngine {
    storage: SharedStorage,
    config: IoConfig,
    state: Mutex<EngineState>,
    /// Requests with no deadline whose tickets are still held; see
    /// [`Due::OnCollect`]. They count towards the observed depth, never
    /// towards the window: nothing but their own submitter can collect them.
    uncollected: AtomicUsize,
    /// Signals submitters blocked on a full window that a request returned.
    space_cond: Condvar,
}

impl IoEngine {
    /// Creates an engine over `storage`.
    pub fn new(storage: SharedStorage, config: IoConfig) -> Self {
        IoEngine {
            storage,
            config: IoConfig {
                max_in_flight: config.max_in_flight.max(1),
                ..config
            },
            state: Mutex::new(EngineState {
                running: 0,
                deadlines: BinaryHeap::new(),
                stats: IoStatsSnapshot::default(),
            }),
            uncollected: AtomicUsize::new(0),
            space_cond: Condvar::new(),
        }
    }

    /// The engine's storage backend.
    pub fn storage(&self) -> &SharedStorage {
        &self.storage
    }

    /// The engine's tuning.
    pub fn config(&self) -> IoConfig {
        self.config
    }

    /// Whether requests can overlap at all: [`overlap_window`] above 1.
    ///
    /// [`overlap_window`]: IoEngine::overlap_window
    pub fn is_pipelined(&self) -> bool {
        self.overlap_window() > 1
    }

    /// How many requests can be in flight together: the in-flight window
    /// (overlap comes from deferral, one thread sustains any depth). Batch
    /// cost accounting uses this so the virtual clock never undercharges a
    /// batch larger than the overlap the engine actually provides.
    pub fn overlap_window(&self) -> usize {
        self.config.max_in_flight
    }

    /// Point-in-time engine counters.
    pub fn stats(&self) -> IoStatsSnapshot {
        self.state.lock().stats
    }

    fn execute_request(&self, request: &StorageRequest) -> AftResult<StorageResponse> {
        let storage = &self.storage;
        match request {
            StorageRequest::Get(key) => storage.get(key).map(StorageResponse::Value),
            StorageRequest::GetBatch(keys) => storage.get_batch(keys).map(StorageResponse::Values),
            StorageRequest::Put(key, value) => storage
                .put(key, value.clone())
                .map(|()| StorageResponse::Done),
            StorageRequest::PutBatch(items) => storage
                .put_batch(items.clone())
                .map(|()| StorageResponse::Done),
            StorageRequest::Delete(key) => storage.delete(key).map(|()| StorageResponse::Done),
            StorageRequest::DeleteBatch(keys) => {
                storage.delete_batch(keys).map(|()| StorageResponse::Done)
            }
            StorageRequest::List(prefix) => storage.list_prefix(prefix).map(StorageResponse::Keys),
            StorageRequest::ListAfter(prefix, after) => storage
                .list_prefix_after(prefix, after)
                .map(StorageResponse::Keys),
        }
    }

    /// Executes `request`, absorbing transient storage faults per the retry
    /// policy. Returns the final result plus the total backoff charged; the
    /// failed attempts' own sampled latency accumulates in the ambient
    /// [`capture_deferred`] scope like any other charge.
    fn execute_with_retry(
        &self,
        request: &StorageRequest,
    ) -> (AftResult<StorageResponse>, Duration) {
        let retry = self.config.retry;
        let mut backoff_total = Duration::ZERO;
        let mut attempt = 1u32;
        loop {
            let result = self.execute_request(request);
            match &result {
                Err(e) if e.is_transient_storage() && attempt < retry.max_attempts => {
                    self.state.lock().stats.retries += 1;
                    backoff_total += retry.backoff_for(attempt);
                    attempt += 1;
                }
                _ => return (result, backoff_total),
            }
        }
    }

    /// Counts a submission and takes an in-flight slot for it, blocking
    /// while the window is full.
    fn acquire(&self) {
        let mut state = self.state.lock();
        state.stats.submitted += 1;
        loop {
            if !state.deadlines.is_empty() {
                let now = Instant::now();
                while state.deadlines.peek().is_some_and(|due| due.0 <= now) {
                    state.deadlines.pop();
                }
            }
            let depth = state.running + state.deadlines.len();
            if depth < self.config.max_in_flight {
                state.running += 1;
                let in_flight = (depth + 1 + self.uncollected.load(Ordering::Relaxed))
                    .min(self.config.max_in_flight);
                state.stats.peak_in_flight = state.stats.peak_in_flight.max(in_flight as u64);
                return;
            }
            // Full: the next slot opens when the earliest outstanding
            // deadline passes or a running request returns, whichever first.
            match state.deadlines.peek().map(|due| due.0) {
                Some(earliest) => {
                    let wait = earliest.saturating_duration_since(Instant::now());
                    let _ = self.space_cond.wait_for(&mut state, wait);
                }
                None => self.space_cond.wait(&mut state),
            }
        }
    }

    /// Submits one request and returns its completion ticket. Blocks while
    /// the in-flight window is full (bounded queue depth). The request runs
    /// here, on the calling thread; where its latency was deferred, its
    /// in-flight slot stays taken until the completion is due.
    fn submit(&self, request: StorageRequest) -> IoTicket<'_> {
        self.acquire();
        let ((result, backoff), cost) = capture_deferred(|| self.execute_with_retry(&request));
        // Retry backoff is part of the operation's simulated duration:
        // charge it, and push a deferred completion out by it too. The
        // sampled delay was suppressed; the completion is due when it would
        // really have arrived.
        let ready_at = (!cost.deferred.is_zero()).then(|| Instant::now() + cost.deferred + backoff);
        let mut state = self.state.lock();
        state.running -= 1;
        state.stats.completed += 1;
        if let Some(at) = ready_at {
            state.stats.deferred += 1;
            state.deadlines.push(Reverse(at));
        }
        drop(state);
        // Submitters blocked on a full window re-plan either way: the slot is
        // free now, or there is a (possibly earlier) deadline to sleep to.
        self.space_cond.notify_all();
        let due = match ready_at {
            Some(at) => Due::At(at),
            None => Due::OnCollect {
                _held: Uncollected::new(&self.uncollected),
            },
        };
        IoTicket {
            result,
            cost: cost.charged + backoff,
            due,
        }
    }

    /// Submits a batch of requests and returns their completion set.
    fn submit_all(&self, requests: impl IntoIterator<Item = StorageRequest>) -> CompletionSet<'_> {
        CompletionSet {
            tickets: requests.into_iter().map(|r| self.submit(r)).collect(),
            window: self.overlap_window(),
        }
    }

    /// Runs one request and waits out its latency. Its charged latency
    /// lands on the calling thread, where
    /// [`measure_cost`](crate::latency::measure_cost) reads it.
    pub fn execute(&self, request: StorageRequest) -> AftResult<StorageResponse> {
        self.submit(request).wait()
    }

    /// Durably writes every item, overlapping the round trips. Its charged
    /// latency lands on the calling thread, where
    /// [`measure_cost`](crate::latency::measure_cost) reads it.
    ///
    /// Backends with a native batch API get one `PutBatch` request (their
    /// own call-count limits apply); backends without one get one `Put` per
    /// item — the same API calls a sequential client would make, issued
    /// concurrently.
    pub fn put_all(&self, mut items: Vec<(String, Value)>) -> AftResult<()> {
        match items.len() {
            0 => Ok(()),
            1 => {
                let (key, value) = items.pop().expect("len checked");
                self.execute(StorageRequest::Put(key, value)).map(drop)
            }
            _ if self.storage.supports_batch_put() => {
                self.execute(StorageRequest::PutBatch(items)).map(drop)
            }
            _ => self
                .submit_all(items.into_iter().map(|(k, v)| StorageRequest::Put(k, v)))
                .wait_all()
                .into_iter()
                .try_for_each(|result| result.map(drop)),
        }
    }

    /// Reads every key, overlapping the round trips, and returns the values
    /// in request order (`None` for a missing key). Its charged latency
    /// lands on the calling thread, as [`put_all`](IoEngine::put_all)'s
    /// does.
    ///
    /// The mirror of [`put_all`](IoEngine::put_all): backends with a native
    /// multi-key read get one `GetBatch` request (their own call-count limits
    /// apply); backends without one get one `Get` per key, issued together. A
    /// single key is one `Get` either way, and no key is no call. A node's
    /// read misses, the bootstrap's replay and the fault manager's commit-set
    /// scan read through it.
    pub fn get_all(&self, mut keys: Vec<String>) -> AftResult<Vec<Option<Value>>> {
        match keys.len() {
            0 => Ok(Vec::new()),
            1 => {
                let key = keys.pop().expect("len checked");
                let response = self.execute(StorageRequest::Get(key))?;
                Ok(vec![response.into_value()])
            }
            _ if self.storage.supports_batch_get() => self
                .execute(StorageRequest::GetBatch(keys))
                .map(StorageResponse::into_values),
            _ => self
                .submit_all(keys.into_iter().map(StorageRequest::Get))
                .wait_all()
                .into_iter()
                .map(|result| result.map(StorageResponse::into_value))
                .collect(),
        }
    }
}

impl std::fmt::Debug for IoEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoEngine")
            .field("config", &self.config)
            .field("pipelined", &self.is_pipelined())
            .finish_non_exhaustive()
    }
}

/// A storage wrapper that forces fully sequential, per-key API calls.
///
/// `put_batch`, `delete_batch` and `get_batch` degrade to one single-key call
/// per item, each paying its full round trip, and neither `supports_batch_put`
/// nor `supports_batch_get` holds — the exact behaviour of the pre-pipelining
/// implementation. Pair it with [`IoConfig::sequential()`] for the baseline
/// leg of pipelining experiments; the pipelined backends themselves now
/// charge concurrent batches the max of their samples, so this wrapper is the
/// only place sequential full-RTT charging survives.
pub struct SequentialEngine {
    inner: SharedStorage,
}

impl SequentialEngine {
    /// Wraps `inner` in the sequential shell.
    pub fn new(inner: SharedStorage) -> Arc<Self> {
        Arc::new(SequentialEngine { inner })
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &SharedStorage {
        &self.inner
    }
}

impl StorageEngine for SequentialEngine {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn get(&self, key: &str) -> AftResult<Option<Value>> {
        self.inner.get(key)
    }

    fn put(&self, key: &str, value: Value) -> AftResult<()> {
        self.inner.put(key, value)
    }

    fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()> {
        for (key, value) in items {
            self.inner.put(&key, value)?;
        }
        Ok(())
    }

    fn delete(&self, key: &str) -> AftResult<()> {
        self.inner.delete(key)
    }

    fn delete_batch(&self, keys: &[String]) -> AftResult<()> {
        for key in keys {
            self.inner.delete(key)?;
        }
        Ok(())
    }

    fn list_prefix(&self, prefix: &str) -> AftResult<Vec<String>> {
        self.inner.list_prefix(prefix)
    }

    fn list_prefix_after(&self, prefix: &str, after: &str) -> AftResult<Vec<String>> {
        self.inner.list_prefix_after(prefix, after)
    }

    fn supports_batch_put(&self) -> bool {
        false
    }

    fn stats(&self) -> Arc<crate::counters::StorageStats> {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::{Cut, CutHook, CutStore};
    use crate::latency::{LatencyMode, LatencyModel, LatencyProfile};
    use crate::memory::InMemoryStore;
    use crate::profiles::{Service, ServiceProfile};
    use crate::sharded::DEFAULT_STRIPES;
    use crate::store::SimStore;
    use bytes::Bytes;

    fn val(s: &str) -> Value {
        Bytes::copy_from_slice(s.as_bytes())
    }

    /// An S3-shaped store (no batch write) with the given single-key profile.
    fn s3(profile: ServiceProfile, mode: LatencyMode, seed: u64) -> SharedStorage {
        let service = Service {
            profile,
            ..Service::S3
        };
        let latency = LatencyModel::new(mode, 1.0);
        Arc::new(SimStore::of(service, latency, seed, DEFAULT_STRIPES))
    }

    fn s3_virtual() -> SharedStorage {
        s3(Service::S3.profile, LatencyMode::Virtual, 7)
    }

    /// The first error of a barrier's results, if any.
    fn all_ok(results: Vec<AftResult<StorageResponse>>) -> AftResult<()> {
        results.into_iter().try_for_each(|result| result.map(drop))
    }

    #[test]
    fn submit_round_trips_through_a_memory_backend() {
        let engine = IoEngine::new(InMemoryStore::shared(), IoConfig::pipelined());
        assert!(engine.is_pipelined());
        let put = engine.execute(StorageRequest::Put("k".into(), val("v")));
        assert!(put.is_ok());
        let got = engine.execute(StorageRequest::Get("k".into()));
        assert_eq!(got.unwrap().into_value().unwrap(), val("v"));
        let missing = engine.execute(StorageRequest::Get("nope".into()));
        assert!(missing.unwrap().into_value().is_none());
        let stats = engine.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn sequential_config_is_a_window_of_one() {
        let engine = IoEngine::new(InMemoryStore::shared(), IoConfig::sequential());
        assert!(!engine.is_pipelined());
        assert_eq!(engine.overlap_window(), 1);
        engine
            .execute(StorageRequest::Put("k".into(), val("v")))
            .unwrap();
        assert_eq!(engine.stats().peak_in_flight, 1);
    }

    #[test]
    fn list_and_delete_requests_work() {
        let engine = IoEngine::new(InMemoryStore::shared(), IoConfig::pipelined());
        let items = (0..4).map(|i| (format!("data/{i}"), val("x")));
        engine.put_all(items.collect()).unwrap();
        let listed = engine.execute(StorageRequest::List("data/".into()));
        assert_eq!(listed.unwrap().into_keys().len(), 4);
        engine
            .execute(StorageRequest::Delete("data/0".into()))
            .unwrap();
        engine
            .execute(StorageRequest::DeleteBatch(vec![
                "data/1".into(),
                "data/2".into(),
            ]))
            .unwrap();
        let listed = engine.execute(StorageRequest::List("data/".into()));
        assert_eq!(listed.unwrap().into_keys(), vec!["data/3"]);
    }

    #[test]
    fn pipelined_batch_charges_max_sequential_charges_sum() {
        use crate::latency::measure_cost;
        // A fixed 10ms write latency makes the accounting exact: 8 overlapped
        // puts charge one round trip, 8 sequential puts charge eight.
        let profile = ServiceProfile {
            write: LatencyProfile::new(10_000.0, 10_000.0),
            ..ServiceProfile::zero()
        };
        let fixed_s3 = |seed| s3(profile, LatencyMode::Virtual, seed);
        let items: Vec<(String, Value)> = (0..8).map(|i| (format!("k{i}"), val("v"))).collect();

        let pipelined = IoEngine::new(fixed_s3(7), IoConfig::pipelined());
        let ((), pipe_cost) = measure_cost(|| pipelined.put_all(items.clone()).unwrap());

        let sequential = IoEngine::new(
            SequentialEngine::new(fixed_s3(7)) as SharedStorage,
            IoConfig::sequential(),
        );
        let ((), seq_cost) = measure_cost(|| sequential.put_all(items).unwrap());

        assert!(
            pipe_cost >= Duration::from_millis(9) && pipe_cost <= Duration::from_millis(11),
            "pipelined batch charges the max: {pipe_cost:?}"
        );
        assert!(
            seq_cost >= Duration::from_millis(79) && seq_cost <= Duration::from_millis(81),
            "sequential batch charges the sum: {seq_cost:?}"
        );
    }

    #[test]
    fn batch_cost_is_charged_in_window_sized_waves() {
        use crate::latency::measure_cost;
        // A fixed 10ms write and an overlap window of 2: six puts cannot all
        // overlap, so the batch charges three waves — 30ms, not 10ms.
        let profile = ServiceProfile {
            write: LatencyProfile::new(10_000.0, 10_000.0),
            ..ServiceProfile::zero()
        };
        let storage = s3(profile, LatencyMode::Virtual, 3);
        let engine = IoEngine::new(storage, IoConfig::pipelined().with_max_in_flight(2));
        assert_eq!(engine.overlap_window(), 2);
        let ((), cost) = measure_cost(|| engine.put_all(items(6)).unwrap());
        assert!(
            cost >= Duration::from_millis(29) && cost <= Duration::from_millis(32),
            "3 waves x 10ms expected, got {cost:?}"
        );
    }

    #[test]
    fn deferred_completions_overlap_wall_clock_sleeps() {
        // Four 20ms S3 writes, pipelined: the batch completes in roughly one
        // write's wall time because the sleeps are deferred to the waiter,
        // who sleeps once for all four. Generous bounds keep this stable on
        // loaded hosts.
        let profile = ServiceProfile {
            write: LatencyProfile::new(20_000.0, 20_000.0),
            ..ServiceProfile::zero()
        };
        let storage = s3(profile, LatencyMode::Sleep, 3);
        let engine = IoEngine::new(storage, IoConfig::pipelined());
        let items: Vec<(String, Value)> = (0..4).map(|i| (format!("k{i}"), val("v"))).collect();
        let start = Instant::now();
        engine.put_all(items).unwrap();
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(15),
            "completions must still wait out the latency, took {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_millis(60),
            "four 20ms writes must overlap, took {elapsed:?}"
        );
        assert!(engine.stats().deferred >= 4);
    }

    #[test]
    fn in_flight_window_applies_backpressure_without_losing_requests() {
        let engine = IoEngine::new(s3_virtual(), IoConfig::pipelined().with_max_in_flight(2));
        engine.put_all(items(16)).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.completed, 16);
        assert!(stats.peak_in_flight <= 2);
    }

    /// A backend double recording which thread made each call, and when.
    struct Recording {
        inner: SharedStorage,
        calls: Mutex<Vec<(std::thread::ThreadId, Instant)>>,
    }

    impl Recording {
        fn new(inner: SharedStorage) -> Arc<Self> {
            Arc::new(Recording {
                inner,
                calls: Mutex::new(Vec::new()),
            })
        }

        fn record(&self) {
            self.calls
                .lock()
                .push((std::thread::current().id(), Instant::now()));
        }

        fn threads(&self) -> Vec<std::thread::ThreadId> {
            self.calls
                .lock()
                .iter()
                .map(|(thread, _)| *thread)
                .collect()
        }
    }

    impl StorageEngine for Recording {
        fn name(&self) -> &'static str {
            "recording"
        }

        fn get(&self, key: &str) -> AftResult<Option<Value>> {
            self.record();
            self.inner.get(key)
        }

        fn put(&self, key: &str, value: Value) -> AftResult<()> {
            self.record();
            self.inner.put(key, value)
        }

        fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()> {
            self.record();
            self.inner.put_batch(items)
        }

        fn delete(&self, key: &str) -> AftResult<()> {
            self.record();
            self.inner.delete(key)
        }

        fn delete_batch(&self, keys: &[String]) -> AftResult<()> {
            self.record();
            self.inner.delete_batch(keys)
        }

        fn list_prefix(&self, prefix: &str) -> AftResult<Vec<String>> {
            self.record();
            self.inner.list_prefix(prefix)
        }

        fn supports_batch_put(&self) -> bool {
            self.inner.supports_batch_put()
        }

        fn stats(&self) -> Arc<crate::counters::StorageStats> {
            self.inner.stats()
        }
    }

    fn items(n: usize) -> Vec<(String, Value)> {
        (0..n).map(|i| (format!("k{i}"), val("v"))).collect()
    }

    /// The kernel's count of this process's threads.
    fn proc_threads() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
        let line = status.lines().find(|l| l.starts_with("Threads:"));
        line.and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
            .expect("a Threads: line")
    }

    #[test]
    fn deferrable_backends_run_on_the_submitter_and_own_no_threads() {
        use crate::backend::{make_backend, BackendConfig, BackendKind};
        // Every service row, with a batch API (one PutBatch) or without
        // (put_all fans out per key): every backend call is made by the
        // submitting thread, and neither the engine nor the backend starts one.
        for kind in [
            BackendKind::Memory,
            BackendKind::S3,
            BackendKind::DynamoDb,
            BackendKind::Redis,
        ] {
            let config = BackendConfig {
                mode: LatencyMode::Virtual,
                ..BackendConfig::simulated(kind, 1.0)
            };
            let backend = Recording::new(make_backend(config));
            let engine = IoEngine::new(backend.clone(), IoConfig::pipelined());
            assert!(engine.is_pipelined(), "{kind}: overlap comes from deferral");
            engine.put_all(items(4)).unwrap();
            engine.execute(StorageRequest::Get("k0".into())).unwrap();
            engine
                .get_all((0..4).map(|i| format!("k{i}")).collect())
                .unwrap();
            let me = std::thread::current().id();
            let threads = backend.threads();
            assert!(threads.len() >= 6);
            assert!(threads.iter().all(|t| *t == me), "{kind}");
            let stats = engine.stats();
            assert_eq!(stats.completed, stats.submitted);
            assert_eq!(stats.deferred, 0, "Virtual mode defers nothing");

            // The harness runs other tests beside this one, so the process's
            // thread count is compared across a window in which they were
            // quiet; a thread of the engine's own would show in every window.
            let quiet = (0..50).any(|_| {
                let before = proc_threads();
                let engine = IoEngine::new(make_backend(config), IoConfig::pipelined());
                engine.put_all(items(64)).unwrap();
                proc_threads() == before
            });
            assert!(quiet, "{kind}: an engine over it owns threads");
        }
    }

    #[test]
    fn undeferred_requests_stay_in_flight_until_collected() {
        // Virtual clock: nothing is deferred, so a batch's members are in
        // flight together (in virtual time) until the barrier collects them.
        let engine = IoEngine::new(s3_virtual(), IoConfig::pipelined());
        let batch = engine.submit_all((0..5).map(|i| StorageRequest::Get(format!("k{i}"))));
        assert_eq!(engine.stats().peak_in_flight, 5);
        all_ok(batch.wait_all()).unwrap();
        // Collected, waited or dropped: none of them is in flight any more.
        engine.execute(StorageRequest::Get("k1".into())).unwrap();
        drop(engine.submit(StorageRequest::Get("k2".into())));
        assert_eq!(engine.uncollected.load(Ordering::Relaxed), 0);
        assert_eq!(engine.stats().peak_in_flight, 5);
    }

    #[test]
    fn the_window_bounds_outstanding_deferred_completions() {
        // A fixed 5ms Sleep-mode write and a window of 4: the backend call of
        // request i+4 cannot be made before request i's completion was due,
        // 5ms after its own call. The bound is one-sided and exact: deadlines
        // only ever expire late.
        let latency = Duration::from_millis(5);
        let profile = ServiceProfile {
            write: LatencyProfile::new(5_000.0, 5_000.0),
            ..ServiceProfile::zero()
        };
        let backend = Recording::new(s3(profile, LatencyMode::Sleep, 3));
        let engine = IoEngine::new(backend.clone(), IoConfig::pipelined().with_max_in_flight(4));
        engine.put_all(items(12)).unwrap();
        let calls: Vec<Instant> = backend.calls.lock().iter().map(|(_, at)| *at).collect();
        assert_eq!(calls.len(), 12);
        for i in 4..calls.len() {
            assert!(
                calls[i] - calls[i - 4] >= latency,
                "request {i} was issued with four still outstanding"
            );
        }
        let stats = engine.stats();
        assert_eq!(stats.peak_in_flight, 4);
        assert_eq!(stats.deferred, 12);
    }

    #[test]
    fn sequential_engine_forces_per_key_calls() {
        use crate::counters::OpKind;
        let raw = s3_virtual();
        let wrapped = SequentialEngine::new(Arc::clone(&raw) as SharedStorage);
        assert!(!wrapped.supports_batch_put());
        assert_eq!(wrapped.name(), "sequential");
        wrapped
            .put_batch(vec![("a".into(), val("1")), ("b".into(), val("2"))])
            .unwrap();
        wrapped.delete_batch(&["a".into(), "b".into()]).unwrap();
        let stats = wrapped.stats();
        assert_eq!(stats.calls(OpKind::Put), 2);
        assert_eq!(stats.calls(OpKind::Delete), 2);
        assert_eq!(stats.calls(OpKind::BatchPut), 0);
        assert_eq!(stats.calls(OpKind::BatchDelete), 0);
    }

    /// The memory row behind a [`CutStore`] that `hook` answers.
    fn cut(hook: impl CutHook + 'static) -> SharedStorage {
        CutStore::new(InMemoryStore::shared(), Arc::new(hook))
    }

    #[test]
    fn transient_faults_are_absorbed_by_retry() {
        // Every third call fails, alternately dropped and applied, so each
        // fault's retry passes: 32 puts are 48 calls and 16 retries, and
        // the listing after them is one more fault and one more retry.
        let calls = AtomicUsize::new(0);
        let backend = cut(move |_| match calls.fetch_add(1, Ordering::Relaxed) {
            i if i % 3 == 0 => Cut::Transient {
                applied: i % 2 == 0,
            },
            _ => Cut::Pass,
        });
        let engine = IoEngine::new(backend, IoConfig::pipelined());
        let results = engine
            .submit_all((0..32).map(|i| StorageRequest::Put(format!("k{i}"), val("v"))))
            .wait_all();
        all_ok(results).expect("retries must absorb transient faults");
        let listed = engine.execute(StorageRequest::List("k".into()));
        assert_eq!(listed.unwrap().into_keys().len(), 32);
        let stats = engine.stats();
        assert_eq!(stats.retries, 17);
    }

    #[test]
    fn retry_exhaustion_surfaces_the_typed_error() {
        use aft_types::AftError;
        // Every operation fails: the budget exhausts and the typed error
        // propagates — no panic, no untyped failure.
        let engine = IoEngine::new(
            cut(|_| Cut::Transient { applied: false }),
            IoConfig::pipelined().with_retry(RetryConfig::default().with_max_attempts(3)),
        );
        match engine.execute(StorageRequest::Put("k".into(), val("v"))) {
            Err(AftError::StorageTransient(_)) => {}
            other => panic!("expected StorageTransient after exhaustion, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.retries, 2, "3 attempts = 2 retries");
    }

    #[test]
    fn retry_backoff_is_charged_to_the_operation_cost() {
        use crate::latency::measure_cost;
        // Zero-latency inner store, every attempt failing, 4 attempts: the
        // only cost is the three backoff steps (0.5 + 1 + 2 ms with the
        // default policy).
        let backend = cut(|_| Cut::Transient { applied: false });
        let engine = IoEngine::new(backend, IoConfig::sequential());
        let (result, cost) = measure_cost(|| engine.execute(StorageRequest::Get("k".into())));
        assert!(result.is_err());
        assert!(
            cost >= Duration::from_micros(3_400) && cost <= Duration::from_micros(3_600),
            "0.5+1+2 ms of backoff expected, got {cost:?}"
        );
    }

    #[test]
    fn backoff_schedule_grows_and_caps() {
        let retry = RetryConfig::default();
        assert_eq!(retry.backoff_for(1), Duration::from_micros(500));
        assert_eq!(retry.backoff_for(2), Duration::from_millis(1));
        assert_eq!(retry.backoff_for(3), Duration::from_millis(2));
        assert_eq!(retry.backoff_for(10), Duration::from_millis(20), "capped");
        assert_eq!(RetryConfig::disabled().max_attempts, 1);
        assert_eq!(
            RetryConfig::default().with_max_attempts(0).max_attempts,
            1,
            "clamped"
        );
    }

    #[test]
    fn a_get_batch_charges_one_sample_per_call_and_the_max_of_its_calls() {
        use crate::counters::OpKind;
        use crate::latency::measure_cost;
        use crate::profiles::DYNAMO_BATCH_GET_LIMIT;
        let table = || {
            let latency = LatencyModel::new(LatencyMode::Virtual, 1.0);
            let store = Arc::new(SimStore::of(Service::DYNAMODB, latency, 5, DEFAULT_STRIPES));
            for i in (0..250).step_by(3) {
                store.write(&format!("k{i}"), val("v"));
            }
            store
        };
        for (n, calls) in [(DYNAMO_BATCH_GET_LIMIT, 1), (250, 3)] {
            let keys: Vec<String> = (0..n).map(|i| format!("k{i}")).collect();
            // The same BatchGetItem calls one after another, on a twin with
            // the same seed: the samples the request will draw.
            let twin = table();
            let alone: Vec<Duration> = keys
                .chunks(DYNAMO_BATCH_GET_LIMIT)
                .map(|chunk| measure_cost(|| twin.get_batch(chunk).unwrap()).1)
                .collect();
            assert_eq!(alone.len(), calls);

            let store = table();
            let engine = IoEngine::new(store.clone(), IoConfig::pipelined());
            let (response, cost) = measure_cost(|| engine.execute(StorageRequest::GetBatch(keys)));
            let values = response.unwrap().into_values();
            assert_eq!(values.len(), n);
            assert_eq!(values.iter().flatten().count(), n.div_ceil(3));
            assert_eq!(store.stats().calls(OpKind::BatchGet), calls as u64);
            assert_eq!(store.stats().calls(OpKind::Get), 0);
            assert!(!cost.is_zero());
            // Issued together, the calls cost the slowest, not the sum.
            assert_eq!(Some(cost), alone.iter().copied().max());
        }
    }

    #[test]
    fn get_all_takes_one_call_where_the_row_has_a_multi_key_read() {
        use crate::counters::OpKind;
        use crate::latency::measure_cost;
        let memory = InMemoryStore::shared();
        memory.put("a", val("1")).unwrap();
        memory.put("c", val("3")).unwrap();
        let engine = IoEngine::new(memory.clone(), IoConfig::pipelined());
        let keys = || vec!["a".to_owned(), "b".to_owned(), "c".to_owned()];
        let values = engine.get_all(keys()).unwrap();
        assert_eq!(values, vec![Some(val("1")), None, Some(val("3"))]);
        let (none, cost) = measure_cost(|| engine.get_all(Vec::new()).unwrap());
        assert!(none.is_empty() && cost.is_zero());
        assert_eq!(memory.stats().calls(OpKind::BatchGet), 1, "empty: no call");
        assert_eq!(memory.stats().calls(OpKind::Get), 0);

        // Without the call (S3): one Get per key, issued together.
        let s3 = s3_virtual();
        let engine = IoEngine::new(Arc::clone(&s3), IoConfig::pipelined());
        let values = engine.get_all(keys()).unwrap();
        assert_eq!(values, vec![None, None, None]);
        assert_eq!(s3.stats().calls(OpKind::Get), 3);
        assert_eq!(s3.stats().calls(OpKind::BatchGet), 0);
        assert_eq!(engine.stats().peak_in_flight, 3);
    }

    #[test]
    fn batched_deletes_overlap_via_submit_all() {
        use crate::latency::measure_cost;
        // Several DeleteBatch requests submitted together and barriered, with
        // per-member results.
        let engine = IoEngine::new(s3_virtual(), IoConfig::pipelined());
        engine.put_all(items(6)).unwrap();
        let (results, cost) = measure_cost(|| {
            engine
                .submit_all([
                    StorageRequest::DeleteBatch(vec!["k0".into(), "k1".into()]),
                    StorageRequest::DeleteBatch(vec!["k2".into(), "k3".into()]),
                    StorageRequest::DeleteBatch(vec!["k4".into(), "k5".into()]),
                ])
                .wait_all()
        });
        assert_eq!(results.len(), 3);
        assert!(cost > Duration::ZERO);
        all_ok(results).unwrap();
        let listed = engine.execute(StorageRequest::List("k".into()));
        assert!(listed.unwrap().into_keys().is_empty());
    }
}
