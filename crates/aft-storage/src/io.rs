//! Overlapped storage I/O: requests run on their caller, batches in waves.
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
//!   `capture_deferred`: the data-plane effect applies immediately, the
//!   sampled delay is *not* slept, and the engine notes when the completion
//!   is due. That holds for every backend, so the engine owns no thread.
//! * **Waves.** A request, or a fan-out batch, runs as waves of at most
//!   [`IoConfig::max_in_flight`] members, in submission order. A wave whose
//!   latency was deferred sleeps once, until its latest member's completion
//!   is due, so its members overlap on one thread, exactly like an async
//!   client over a real network; the next wave starts after that. The
//!   window bounds one caller's batch: callers on other threads run their
//!   own waves beside it.
//! * **Overlap accounting for the virtual clock**: a batch is charged one
//!   wave at a time — the **maximum** of each wave, summed across waves. A
//!   batch that fits the window costs its slowest member; a window of 1
//!   charges the plain sum. That charge, not the sum of the members, lands
//!   on the calling thread, and [`measure_cost`](crate::latency::measure_cost)
//!   is where it is read. This is how `LatencyMode::Virtual` experiments
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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aft_types::{AftResult, Value};

use crate::engine::{SharedStorage, StorageEngine};
use crate::latency::{capture_deferred, charge, sleep_until};

/// Op-level retry policy for transient storage faults.
///
/// Cloud stores drop, throttle, and time out individual requests as a matter
/// of course; AFT's storage writes are idempotent (every key version lands
/// at a unique storage key, §3.1), so the right place to absorb those faults
/// is the engine itself, which uses [`RetryConfig::default`]; the client
/// SDK sets its own. A request that fails with
/// [`aft_types::AftError::is_transient_storage`] is re-issued up to
/// `max_attempts` times with exponential backoff; the backoff is *charged to
/// the operation's simulated cost* (and, for deferred completions, added to
/// the completion delay), so the overlap accounting sees retries as what
/// they are — a slower operation — without any thread sleeping through a
/// virtual-clock experiment. Only exhaustion surfaces the typed
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
    /// The most members of one wave: a batch runs as waves of at most this
    /// many requests, each wave's round trips overlapping and the waves one
    /// after another, like a bounded device queue. `1` makes the engine
    /// sequential.
    pub max_in_flight: usize,
}

impl Default for IoConfig {
    fn default() -> Self {
        Self::pipelined()
    }
}

impl IoConfig {
    /// The standard overlapped configuration: a deep in-flight window.
    pub fn pipelined() -> Self {
        IoConfig { max_in_flight: 256 }
    }

    /// The explicitly-sequential configuration: a window of one, so each
    /// request waits out its predecessor and a batch charges the *sum* of
    /// its members.
    pub fn sequential() -> Self {
        IoConfig { max_in_flight: 1 }
    }

    /// Overrides the in-flight window (clamped to ≥ 1).
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight.max(1);
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
    pub(crate) fn into_values(self) -> Vec<Option<Value>> {
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

/// Point-in-time counters of an [`IoEngine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// Requests run: every member of a batch once, however often it was
    /// retried.
    pub submitted: u64,
    /// Requests whose latency was delivered after the backend call returned:
    /// the sleep was suppressed, and the request's wave slept until its
    /// latest member was due. Every request to a `Sleep`-mode backend with a
    /// non-zero sample; none in `Virtual` mode or on a zero-latency backend.
    pub deferred: u64,
    /// Highest number of requests in flight at once, on every thread
    /// together. A wave's members are in flight from its start until it is
    /// collected: its latest deferred completion was due or, with nothing
    /// deferred (virtual clock, zero-latency backend), its members have run.
    /// One caller's waves never hold more than the window.
    pub peak_in_flight: u64,
    /// Transient-fault retries performed by the engine.
    pub retries: u64,
}

/// The counters behind [`IoEngine::stats`].
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    deferred: AtomicU64,
    retries: AtomicU64,
    /// Members of the waves running now, on every thread.
    in_flight: AtomicU64,
    peak_in_flight: AtomicU64,
}

/// The storage I/O engine: requests run on their caller, a batch in waves.
/// See the module docs.
pub struct IoEngine {
    storage: SharedStorage,
    /// The most members of one wave (1 = sequential).
    window: usize,
    counters: Counters,
}

impl IoEngine {
    /// Creates an engine over `storage`.
    pub fn new(storage: SharedStorage, config: IoConfig) -> Self {
        IoEngine {
            storage,
            window: config.max_in_flight.max(1),
            counters: Counters::default(),
        }
    }

    /// The engine's storage backend.
    pub fn storage(&self) -> &SharedStorage {
        &self.storage
    }

    /// Point-in-time engine counters.
    pub fn stats(&self) -> IoStatsSnapshot {
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let counters = &self.counters;
        IoStatsSnapshot {
            submitted: read(&counters.submitted),
            deferred: read(&counters.deferred),
            peak_in_flight: read(&counters.peak_in_flight),
            retries: read(&counters.retries),
        }
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

    /// Executes `request`, absorbing transient storage faults with
    /// [`RetryConfig::default`]'s policy. Returns the final result plus the
    /// total backoff charged; the failed attempts' own sampled latency
    /// accumulates in the ambient [`capture_deferred`] scope like any other
    /// charge.
    fn execute_with_retry(
        &self,
        request: &StorageRequest,
    ) -> (AftResult<StorageResponse>, Duration) {
        let retry = RetryConfig::default();
        let mut backoff_total = Duration::ZERO;
        let mut attempt = 1u32;
        loop {
            let result = self.execute_request(request);
            match &result {
                Err(e) if e.is_transient_storage() && attempt < retry.max_attempts => {
                    self.counters.retries.fetch_add(1, Ordering::Relaxed);
                    backoff_total += retry.backoff_for(attempt);
                    attempt += 1;
                }
                _ => return (result, backoff_total),
            }
        }
    }

    /// Runs `requests` on the calling thread as waves of at most the window,
    /// in submission order, and hands each result to `answer` in that order.
    /// A wave with deferred latency sleeps once, until its latest member is
    /// due. The batch is charged once, at its end: the sum of its waves'
    /// slowest members, retry backoff included.
    fn run_waves(
        &self,
        requests: &[StorageRequest],
        mut answer: impl FnMut(AftResult<StorageResponse>),
    ) {
        let counters = &self.counters;
        let mut cost = Duration::ZERO;
        for wave in requests.chunks(self.window) {
            let members = wave.len() as u64;
            counters.submitted.fetch_add(members, Ordering::Relaxed);
            let depth = counters.in_flight.fetch_add(members, Ordering::Relaxed) + members;
            counters.peak_in_flight.fetch_max(depth, Ordering::Relaxed);
            let mut slowest = Duration::ZERO;
            let mut due = None;
            for request in wave {
                let ((result, backoff), sampled) =
                    capture_deferred(|| self.execute_with_retry(request));
                // Retry backoff is part of the operation's simulated
                // duration: charge it, and push a deferred completion out by
                // it too. The sampled delay was suppressed; the completion is
                // due when it would really have arrived.
                if !sampled.deferred.is_zero() {
                    counters.deferred.fetch_add(1, Ordering::Relaxed);
                    due = due.max(Some(Instant::now() + sampled.deferred + backoff));
                }
                slowest = slowest.max(sampled.charged + backoff);
                answer(result);
            }
            if let Some(at) = due {
                sleep_until(at);
            }
            counters.in_flight.fetch_sub(members, Ordering::Relaxed);
            cost += slowest;
        }
        charge(cost);
    }

    /// Runs a fan-out batch and returns its members' results in submission
    /// order.
    fn run_all(&self, requests: &[StorageRequest]) -> Vec<AftResult<StorageResponse>> {
        let mut results = Vec::with_capacity(requests.len());
        self.run_waves(requests, |result| results.push(result));
        results
    }

    /// Runs one request and waits out its latency. Its charged latency
    /// lands on the calling thread, where
    /// [`measure_cost`](crate::latency::measure_cost) reads it.
    pub fn execute(&self, request: StorageRequest) -> AftResult<StorageResponse> {
        let mut answer = None;
        self.run_waves(std::slice::from_ref(&request), |result| {
            answer = Some(result)
        });
        answer.expect("a request is answered")
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
            _ => {
                let puts: Vec<_> = items
                    .into_iter()
                    .map(|(k, v)| StorageRequest::Put(k, v))
                    .collect();
                self.run_all(&puts)
                    .into_iter()
                    .try_for_each(|result| result.map(drop))
            }
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
            _ => {
                let gets: Vec<_> = keys.into_iter().map(StorageRequest::Get).collect();
                self.run_all(&gets)
                    .into_iter()
                    .map(|result| result.map(StorageResponse::into_value))
                    .collect()
            }
        }
    }
}

impl std::fmt::Debug for IoEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoEngine")
            .field("window", &self.window)
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
    use parking_lot::Mutex;
    use std::sync::atomic::AtomicUsize;

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
        assert!(engine.window > 1);
        let put = engine.execute(StorageRequest::Put("k".into(), val("v")));
        assert!(put.is_ok());
        let got = engine.execute(StorageRequest::Get("k".into()));
        assert_eq!(got.unwrap().into_value().unwrap(), val("v"));
        let missing = engine.execute(StorageRequest::Get("nope".into()));
        assert!(missing.unwrap().into_value().is_none());
        assert_eq!(engine.stats().submitted, 3);
    }

    #[test]
    fn sequential_config_is_a_window_of_one() {
        let engine = IoEngine::new(InMemoryStore::shared(), IoConfig::sequential());
        assert_eq!(engine.window, 1);
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
        assert_eq!(engine.window, 2);
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
        assert_eq!(stats.submitted, 16);
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
            assert!(engine.window > 1, "{kind}: overlap comes from deferral");
            engine.put_all(items(4)).unwrap();
            engine.execute(StorageRequest::Get("k0".into())).unwrap();
            engine
                .get_all((0..4).map(|i| format!("k{i}")).collect())
                .unwrap();
            let me = std::thread::current().id();
            let threads = backend.threads();
            assert!(threads.len() >= 6);
            assert!(threads.iter().all(|t| *t == me), "{kind}");
            assert_eq!(engine.stats().deferred, 0, "Virtual mode defers nothing");

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
    fn a_fan_out_is_in_flight_until_it_returns() {
        // Virtual clock: nothing is deferred, so a fan-out's members are in
        // flight together (in virtual time) until the batch returns.
        let engine = IoEngine::new(s3_virtual(), IoConfig::pipelined());
        let keys = (0..5).map(|i| format!("k{i}")).collect();
        assert_eq!(engine.get_all(keys).unwrap(), vec![None; 5]);
        assert_eq!(engine.stats().peak_in_flight, 5);
        assert_eq!(engine.counters.in_flight.load(Ordering::Relaxed), 0);
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
        let backend = cut(
            move |_: &str, _| match calls.fetch_add(1, Ordering::Relaxed) {
                i if i % 3 == 0 => Cut::Transient {
                    applied: i % 2 == 0,
                },
                _ => Cut::Pass,
            },
        );
        let engine = IoEngine::new(backend, IoConfig::pipelined());
        let puts: Vec<_> = (0..32)
            .map(|i| StorageRequest::Put(format!("k{i}"), val("v")))
            .collect();
        all_ok(engine.run_all(&puts)).expect("retries must absorb transient faults");
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
        let backend = cut(|_: &str, _| Cut::Transient { applied: false });
        let engine = IoEngine::new(backend, IoConfig::pipelined());
        match engine.execute(StorageRequest::Put("k".into(), val("v"))) {
            Err(AftError::StorageTransient(_)) => {}
            other => panic!("expected StorageTransient after exhaustion, got {other:?}"),
        }
        let stats = engine.stats();
        assert_eq!(stats.retries, 3, "4 attempts = 3 retries");
    }

    #[test]
    fn retry_backoff_is_charged_to_the_operation_cost() {
        use crate::latency::measure_cost;
        // Zero-latency inner store, every attempt failing, 4 attempts: the
        // only cost is the three backoff steps (0.5 + 1 + 2 ms with the
        // default policy).
        let backend = cut(|_: &str, _| Cut::Transient { applied: false });
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
    fn batched_deletes_overlap_in_one_batch() {
        use crate::latency::measure_cost;
        // Several DeleteBatch requests run as one batch, with per-member
        // results.
        let engine = IoEngine::new(s3_virtual(), IoConfig::pipelined());
        engine.put_all(items(6)).unwrap();
        let (results, cost) = measure_cost(|| {
            engine.run_all(&[
                StorageRequest::DeleteBatch(vec!["k0".into(), "k1".into()]),
                StorageRequest::DeleteBatch(vec!["k2".into(), "k3".into()]),
                StorageRequest::DeleteBatch(vec!["k4".into(), "k5".into()]),
            ])
        });
        assert_eq!(results.len(), 3);
        assert!(cost > Duration::ZERO);
        all_ok(results).unwrap();
        let listed = engine.execute(StorageRequest::List("k".into()));
        assert!(listed.unwrap().into_keys().is_empty());
    }
}
