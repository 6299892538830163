//! The closed-loop experiment runner.
//!
//! Every experiment in §6 follows the same pattern: N parallel clients each
//! synchronously issue logical requests (invoke, wait, repeat), and the
//! harness reports latency percentiles and throughput. Both loops here spawn
//! one thread per client, drive the given [`RequestDriver`], and merge the
//! per-client measurements. Anomalies are graded after the run, from the
//! client history the driver's API or the driver itself recorded
//! ([`crate::history`]).
//!
//! * [`run_closed_loop`] runs the clients free on the wall clock: what a
//!   networked service's clients do.
//! * [`run_virtual_loop`] seats them at one [`Turns`] table: each client's
//!   clock is what its thread is charged, the earliest client runs, and
//!   nothing sleeps, so a run is a pure function of its seed and its
//!   drivers' seeds. Timers (maintenance rounds, a node kill) run at
//!   virtual times between requests. [`run_seated`] is its seating, for
//!   clients that are not a driver's closed loop.
//!
//! The merge mutex is a `parking_lot::Mutex` (like the rest of the
//! workspace), which does not poison: a panicking client thread takes down
//! its own scope join, not every sibling's result merge — one driver bug no
//! longer cascades into unrelated lock-poisoning failures.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use aft_storage::latency::{Seat, Turns};
use aft_types::AftResult;
use parking_lot::Mutex;

use crate::drivers::RequestDriver;
use crate::generator::{WorkloadConfig, WorkloadGenerator};
use crate::histogram::{LatencyRecorder, LatencyStats};

/// Configuration of one experiment run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Parallel closed-loop clients.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Whether to preload the key space through the driver before measuring.
    pub preload: bool,
    /// The workload every client generates plans from.
    pub workload: WorkloadConfig,
    /// Base RNG seed; client `i` uses `seed + i`.
    pub seed: u64,
}

impl RunConfig {
    /// A single-client run of 100 requests over the given workload.
    pub fn new(workload: WorkloadConfig) -> Self {
        RunConfig {
            clients: 1,
            requests_per_client: 100,
            preload: true,
            workload,
            seed: 0xC11E17,
        }
    }

    /// Sets the number of clients.
    pub fn with_clients(mut self, clients: usize) -> Self {
        self.clients = clients;
        self
    }

    /// Sets the per-client request count.
    pub fn with_requests(mut self, requests: usize) -> Self {
        self.requests_per_client = requests;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The merged measurements of one experiment run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The driver's display name.
    pub driver: String,
    /// Latency distribution of successful requests.
    pub latency: LatencyStats,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that exhausted their retries.
    pub failed: u64,
    /// Time of the measured phase: the wall clock's, or the latest client
    /// clock of a virtual run.
    pub elapsed: Duration,
}

impl RunResult {
    /// Average throughput over the measured phase, in requests per second.
    pub fn throughput_tps(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.completed as f64 / self.elapsed.as_secs_f64()
        }
    }
}

/// Work a virtual run does between requests: `(every, run)` calls `run`
/// with the virtual time each time `every` passes, while any client is still
/// issuing requests. It runs alone and its storage calls take no virtual
/// time.
pub type Timer<'a> = (Duration, Box<dyn FnMut(Duration) + Send + 'a>);

#[derive(Default)]
struct ClientMeasurements {
    latencies: LatencyRecorder,
    completed: u64,
    failed: u64,
    /// The client's clock once its last request returned.
    finished: Duration,
}

/// Issues one client's requests, timing each on `now`.
fn client(
    driver: &dyn RequestDriver,
    config: &RunConfig,
    index: usize,
    now: impl Fn() -> Duration,
) -> ClientMeasurements {
    let seed = config.seed + 1 + index as u64;
    let mut generator = WorkloadGenerator::new(config.workload.clone(), seed);
    let mut measurements = ClientMeasurements::default();
    for _ in 0..config.requests_per_client {
        let plan = generator.next_plan();
        let start = now();
        match driver.execute(&plan) {
            Ok(_) => {
                measurements.latencies.record(now() - start);
                measurements.completed += 1;
            }
            Err(_) => measurements.failed += 1,
        }
    }
    measurements.finished = now();
    measurements
}

fn preload(driver: &dyn RequestDriver, config: &RunConfig) -> AftResult<()> {
    if config.preload {
        let generator = WorkloadGenerator::new(config.workload.clone(), config.seed);
        driver.preload(&generator.preload_plan(), config.workload.value_size)?;
    }
    Ok(())
}

/// The clients' measurements as one result; the run lasted until its last
/// client finished.
fn merge(driver: &dyn RequestDriver, clients: Vec<ClientMeasurements>) -> RunResult {
    let mut latencies = LatencyRecorder::new();
    let (mut completed, mut failed, mut elapsed) = (0, 0, Duration::ZERO);
    for client in clients {
        latencies.merge(&client.latencies);
        completed += client.completed;
        failed += client.failed;
        elapsed = elapsed.max(client.finished);
    }
    RunResult {
        driver: driver.name().to_owned(),
        latency: latencies.stats(),
        completed,
        failed,
        elapsed,
    }
}

/// Runs a closed-loop experiment on the wall clock and returns the merged
/// measurements.
pub fn run_closed_loop(driver: &dyn RequestDriver, config: &RunConfig) -> AftResult<RunResult> {
    preload(driver, config)?;
    let started = Instant::now();
    let collected = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for index in 0..config.clients {
            let collected = &collected;
            scope.spawn(move || {
                let measurements = client(driver, config, index, || started.elapsed());
                collected.lock().push(measurements);
            });
        }
    });
    Ok(merge(driver, collected.into_inner()))
}

/// Runs a closed-loop experiment in virtual time (see the module docs) and
/// returns the merged measurements. Its latencies are the clients' virtual
/// ones, so its drivers should run over virtual-clock backends.
pub fn run_virtual_loop(
    driver: &dyn RequestDriver,
    config: &RunConfig,
    timers: Vec<Timer<'_>>,
) -> AftResult<RunResult> {
    preload(driver, config)?;
    let clients = run_seated(config.clients, timers, |index, seat| {
        client(driver, config, index, || seat.now())
    });
    Ok(merge(driver, clients))
}

/// Runs `client` on `clients` threads seated at one [`Turns`] table, each
/// inside its seat's [`Seat::scope`], and `timers` on the seats after
/// theirs while any client runs. Returns what each client returned, in
/// client order.
pub fn run_seated<T: Send>(
    clients: usize,
    timers: Vec<Timer<'_>>,
    client: impl Fn(usize, &Seat) -> T + Sync,
) -> Vec<T> {
    let turns = Turns::new(clients + timers.len());
    let issuing = AtomicUsize::new(clients);
    std::thread::scope(|scope| {
        let (turns, issuing, client) = (&turns, &issuing, &client);
        let running: Vec<_> = (0..clients)
            .map(|index| {
                scope.spawn(move || {
                    let seat = turns.seat(index);
                    let out = seat.scope(|| client(index, &seat));
                    issuing.fetch_sub(1, Ordering::Relaxed);
                    out
                })
            })
            .collect();
        for (index, (every, mut run)) in timers.into_iter().enumerate() {
            scope.spawn(move || {
                let seat = turns.seat(clients + index);
                loop {
                    seat.sleep(every);
                    if issuing.load(Ordering::Relaxed) == 0 {
                        break;
                    }
                    run(seat.now());
                }
            });
        }
        let joined = running.into_iter().map(|client| client.join());
        joined.map(|out| out.expect("a seated client")).collect()
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::drivers::{AftDriver, PlainDriver};
    use crate::generator::{FunctionPlan, TransactionPlan};
    use crate::history::{check, FinalRead, History, Recorder, Verdict};
    use aft_core::{AftNode, NodeConfig};
    use aft_faas::FaasChaos;
    use aft_faas::{FaasPlatform, PlatformConfig, RetryPolicy};
    use aft_storage::{BackendConfig, BackendKind, InMemoryStore};
    use aft_types::clock::TickingClock;

    fn small_workload() -> WorkloadConfig {
        WorkloadConfig::standard().with_keys(50).with_value_size(64)
    }

    /// An AFT driver whose every call is recorded in the returned history.
    fn aft_driver() -> (AftDriver, Arc<History>) {
        let node = AftNode::with_clock(
            NodeConfig::test(),
            InMemoryStore::shared(),
            TickingClock::shared(1, 1),
        )
        .unwrap();
        let history = History::new();
        let api = Recorder::wrap(node, Arc::clone(&history), None);
        let platform = FaasPlatform::new(PlatformConfig::test());
        let driver = AftDriver::from_api(api, platform, RetryPolicy::with_attempts(5));
        (driver.with_label("AFT"), history)
    }

    fn verdict(history: &History) -> Verdict {
        check(&history.attempts(), &FinalRead::new())
    }

    #[test]
    fn single_client_run_completes_every_request() {
        let (driver, history) = aft_driver();
        let config = RunConfig::new(small_workload()).with_requests(25);
        let result = run_closed_loop(&driver, &config).unwrap();
        assert_eq!(result.completed, 25);
        assert_eq!(result.failed, 0);
        assert_eq!(verdict(&history).anomalies(), 0);
        assert_eq!(result.latency.count, 25);
        assert!(result.throughput_tps() > 0.0);
        assert_eq!(result.driver, "AFT");
    }

    #[test]
    fn multi_client_runs_aggregate_across_threads() {
        let (driver, history) = aft_driver();
        let config = RunConfig::new(small_workload())
            .with_clients(4)
            .with_requests(10);
        let result = run_closed_loop(&driver, &config).unwrap();
        assert_eq!(result.completed, 40);
        assert_eq!(result.latency.count, 40);
        // With concurrent clients AFT must still never show anomalies.
        assert_eq!(verdict(&history).anomalies(), 0);
    }

    #[test]
    fn concurrent_plain_clients_eventually_show_anomalies() {
        // The §1 hazard by construction, so no scheduler interleaving
        // decides the outcome: a request that writes two hot keys crashes
        // between the writes (no retries), leaving half its update in the
        // store; then eight clients read the hot key space, which no longer
        // changes, and those that read the landed half read a failed
        // attempt's write.
        let storage = aft_storage::make_backend(BackendConfig::test(BackendKind::DynamoDb));
        let driver = PlainDriver::new(
            storage,
            FaasPlatform::new(PlatformConfig::test().with_chaos(FaasChaos {
                mid_body: 1.0,
                ..FaasChaos::quiet()
            })),
            RetryPolicy::no_retries(),
        );
        let hot = WorkloadConfig::read_write_ratio(100)
            .with_keys(4)
            .with_zipf(2.0);
        let keys = WorkloadGenerator::new(hot.clone(), 0).preload_plan();
        driver.preload(&keys, 64).unwrap();
        let torn = TransactionPlan {
            functions: vec![FunctionPlan {
                reads: Vec::new(),
                writes: keys[..2].to_vec(),
            }],
            value_size: 64,
        };
        assert!(driver.execute(&torn).is_err(), "the writer crashes");

        let readers = RunConfig {
            preload: false,
            ..RunConfig::new(hot).with_clients(8).with_requests(150)
        };
        let result = run_closed_loop(&driver, &readers).unwrap();
        assert_eq!(result.completed, 8 * 150);
        let verdict = verdict(driver.history());
        assert!(
            verdict.anomalies() - verdict.read_your_writes > 0,
            "readers of a crashed plain request's partial update see it fractured"
        );
    }
}
