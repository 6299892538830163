//! Latency models for the simulated cloud services.
//!
//! The paper's evaluation runs against real AWS services; this reproduction
//! replaces them with in-process simulators whose latency is drawn from
//! parameterised distributions. Two properties matter for reproducing the
//! *shape* of every figure:
//!
//! 1. The relative magnitudes between services (S3 ≫ DynamoDB > Redis) and
//!    between operations (batch vs sequential writes), and
//! 2. the heaviness of each service's tail (S3's small-object writes have a
//!    notoriously long tail, which drives the 99th-percentile whiskers in
//!    Figures 2–6).
//!
//! A [`LatencyModel`] is a log-normal-ish sampler described by a median and a
//! p99 target. All models are scaled by a single global factor so that a full
//! experiment (tens of thousands of transactions) finishes in seconds while
//! preserving every ratio; `LatencyMode::Virtual` disables sleeping entirely
//! for deterministic unit tests and records the would-have-slept time instead.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::Rng;

/// Standard normal quantile for p99 (Φ⁻¹(0.99)).
const Z_P99: f64 = 2.326_347_874;

thread_local! {
    /// Simulated latency charged by the current thread since the innermost
    /// [`measure_cost`] scope began. Every [`LatencyModel::finish`] adds to
    /// it, so a caller can learn exactly how much simulated time one storage
    /// operation cost — in `Virtual` mode this is the *only* way to observe
    /// an operation's latency.
    static OP_CHARGE_NS: Cell<u64> = const { Cell::new(0) };
    /// Sleep time suppressed inside the innermost [`capture_deferred`] scope:
    /// durations that `Sleep` mode would have slept but instead handed to the
    /// caller to apply later (the I/O engine stamps them into the request's
    /// ticket as a completion deadline).
    static DEFERRED_NS: Cell<u64> = const { Cell::new(0) };
    /// Whether a [`capture_deferred`] scope is active on this thread.
    static DEFER_ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` and returns the simulated latency it charged on this thread.
///
/// Works in both modes: in `Sleep` mode the charge equals the time slept
/// (before overhead calibration), in `Virtual` mode it is the recorded
/// would-have-slept time. Nested scopes compose — an outer scope sees the
/// inner scope's charge too.
pub fn measure_cost<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let saved = OP_CHARGE_NS.with(|c| c.replace(0));
    let out = f();
    let charged = OP_CHARGE_NS.with(|c| c.replace(saved.saturating_add(c.get())));
    (out, Duration::from_nanos(charged))
}

/// Runs `f` with sleeping suppressed: any latency that `Sleep` mode would
/// have slept is instead returned as the *deferred* duration, for the caller
/// to apply later (the I/O engine makes the operation's completion due that
/// far in the future, and whoever waits on it sleeps the remainder). The
/// charged duration is returned as well, exactly as [`measure_cost`] would.
///
/// In `Virtual` mode nothing sleeps anyway, so the deferred duration is zero
/// and completions are immediate; the charge still reports the sampled cost.
pub fn capture_deferred<T>(f: impl FnOnce() -> T) -> (T, DeferredCost) {
    let saved_charge = OP_CHARGE_NS.with(|c| c.replace(0));
    let saved_deferred = DEFERRED_NS.with(|c| c.replace(0));
    let was_active = DEFER_ACTIVE.with(|a| a.replace(true));
    let out = f();
    DEFER_ACTIVE.with(|a| a.set(was_active));
    let charged = OP_CHARGE_NS.with(|c| c.replace(saved_charge.saturating_add(c.get())));
    let deferred = DEFERRED_NS.with(|c| c.replace(saved_deferred));
    (
        out,
        DeferredCost {
            charged: Duration::from_nanos(charged),
            deferred: Duration::from_nanos(deferred),
        },
    )
}

/// The cost of one operation run under [`capture_deferred`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeferredCost {
    /// Total simulated latency the operation sampled (both modes).
    pub charged: Duration,
    /// The part of `charged` whose sleep was suppressed and must be applied
    /// by the caller (zero in `Virtual` mode).
    pub deferred: Duration,
}

/// How sampled latencies are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LatencyMode {
    /// Sleep for the sampled (scaled) duration — used by the benchmark
    /// harness, where wall-clock concurrency effects matter (throughput
    /// plateaus, queueing during node failures).
    #[default]
    Sleep,
    /// Do not sleep; only accumulate the sampled time in a counter. Used by
    /// unit and property tests that need determinism and speed.
    Virtual,
}

/// A latency distribution for one class of storage operation.
///
/// Latencies are sampled from a log-normal distribution fitted to the
/// requested median and p99, which matches the long-tailed behaviour of cloud
/// storage services well enough for shape reproduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyProfile {
    /// Median latency in microseconds (before global scaling).
    pub median_us: f64,
    /// 99th-percentile latency in microseconds (before global scaling).
    pub p99_us: f64,
    /// Additional per-kilobyte transfer cost in microseconds.
    pub per_kb_us: f64,
}

impl LatencyProfile {
    /// A profile with no latency at all.
    pub const ZERO: LatencyProfile = LatencyProfile {
        median_us: 0.0,
        p99_us: 0.0,
        per_kb_us: 0.0,
    };

    /// Creates a profile from a median and p99, both in microseconds.
    pub const fn new(median_us: f64, p99_us: f64) -> Self {
        LatencyProfile {
            median_us,
            p99_us: p99_us.max(median_us),
            per_kb_us: 0.0,
        }
    }

    /// Adds a per-kilobyte transfer cost.
    pub const fn with_per_kb(mut self, per_kb_us: f64) -> Self {
        self.per_kb_us = per_kb_us;
        self
    }

    /// True if every sample is zero whatever the payload: a call with this
    /// profile needs no RNG draw and charges nothing.
    pub fn is_free(&self) -> bool {
        self.median_us <= 0.0 && self.per_kb_us <= 0.0
    }

    /// The log-normal sigma implied by the median/p99 pair.
    fn sigma(&self) -> f64 {
        if self.median_us <= 0.0 || self.p99_us <= self.median_us {
            return 0.0;
        }
        (self.p99_us / self.median_us).ln() / Z_P99
    }

    /// Samples one latency (in microseconds, unscaled) for a payload of
    /// `payload_bytes`.
    pub fn sample_us<R: Rng + ?Sized>(&self, rng: &mut R, payload_bytes: usize) -> f64 {
        if self.median_us <= 0.0 {
            return self.per_kb_us * (payload_bytes as f64 / 1024.0);
        }
        let sigma = self.sigma();
        let base = if sigma == 0.0 {
            self.median_us
        } else {
            // Box-Muller: we only need one standard normal per sample.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            self.median_us * (sigma * z).exp()
        };
        base + self.per_kb_us * (payload_bytes as f64 / 1024.0)
    }
}

/// A scaled, mode-aware latency injector shared by a backend's operations.
#[derive(Debug)]
pub struct LatencyModel {
    mode: LatencyMode,
    /// Global scale factor applied to every sample (e.g. 0.02 turns a 10 ms
    /// service into 200 µs of simulated latency).
    scale: f64,
    /// Total simulated latency injected, in nanoseconds. In `Virtual` mode
    /// this is the only observable effect.
    injected_ns: AtomicU64,
}

impl LatencyModel {
    /// Creates a latency model.
    pub fn new(mode: LatencyMode, scale: f64) -> Arc<Self> {
        Arc::new(LatencyModel {
            mode,
            scale: scale.max(0.0),
            injected_ns: AtomicU64::new(0),
        })
    }

    /// A model that never sleeps and never records time; for unit tests.
    pub fn disabled() -> Arc<Self> {
        Self::new(LatencyMode::Virtual, 0.0)
    }

    /// The injection mode.
    pub fn mode(&self) -> LatencyMode {
        self.mode
    }

    /// The global scale factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Samples a latency from `profile`, scales it, and applies it according
    /// to the mode. Returns the (scaled) duration that was applied.
    pub fn apply<R: Rng + ?Sized>(
        &self,
        profile: &LatencyProfile,
        rng: &mut R,
        payload_bytes: usize,
    ) -> Duration {
        let duration = self.sample(profile, rng, payload_bytes);
        self.finish(duration)
    }

    /// Samples (and scales) a latency without applying it. Callers that keep
    /// their RNG behind a lock use this to sample while holding the lock and
    /// then call [`finish`](LatencyModel::finish) after releasing it, so that
    /// the simulated service never serialises concurrent requests on its RNG.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        profile: &LatencyProfile,
        rng: &mut R,
        payload_bytes: usize,
    ) -> Duration {
        let us = profile.sample_us(rng, payload_bytes) * self.scale;
        Duration::from_nanos((us * 1000.0) as u64)
    }

    /// Records a previously sampled duration and, in `Sleep` mode, sleeps for
    /// it. Returns the duration.
    ///
    /// Inside a [`capture_deferred`] scope the sleep is suppressed and the
    /// duration is handed to the scope instead, so the I/O engine can apply
    /// the latency as a completion deadline rather than by blocking here.
    pub fn finish(&self, duration: Duration) -> Duration {
        self.injected_ns
            .fetch_add(duration.as_nanos() as u64, Ordering::Relaxed);
        OP_CHARGE_NS.with(|c| c.set(c.get().saturating_add(duration.as_nanos() as u64)));
        if self.mode == LatencyMode::Sleep && !duration.is_zero() && DEFER_ACTIVE.with(Cell::get) {
            DEFERRED_NS.with(|c| c.set(c.get().saturating_add(duration.as_nanos() as u64)));
            return duration;
        }
        if self.mode == LatencyMode::Sleep && !duration.is_zero() {
            sleep_calibrated(duration);
        }
        duration
    }

    /// Applies a *batch* of previously sampled durations as one overlapped
    /// round trip: the charged (and, in `Sleep` mode, slept) time is the
    /// **maximum** of the samples, not their sum, because the requests were
    /// issued concurrently and the caller waits for the slowest one. This is
    /// the per-batch overlap accounting the virtual clock needs: N in-flight
    /// requests against a backend overlap their sampled latencies.
    ///
    /// Returns the applied (max) duration.
    pub fn finish_batch(&self, durations: &[Duration]) -> Duration {
        let max = durations.iter().copied().max().unwrap_or(Duration::ZERO);
        self.finish(max)
    }

    /// Samples from `profile` using an RNG behind a mutex, holding the lock
    /// only for the sample, then records/sleeps outside the lock.
    pub fn apply_with<R: Rng>(
        &self,
        profile: &LatencyProfile,
        rng: &parking_lot::Mutex<R>,
        payload_bytes: usize,
    ) -> Duration {
        let duration = {
            let mut rng = rng.lock();
            self.sample(profile, &mut *rng, payload_bytes)
        };
        self.finish(duration)
    }

    /// Total simulated latency injected so far.
    pub fn injected(&self) -> Duration {
        Duration::from_nanos(self.injected_ns.load(Ordering::Relaxed))
    }
}

/// A lock-striped latency sampler: one seeded RNG per stripe, so concurrent
/// requests to a simulated service sample latency without serialising on a
/// single RNG mutex. Stripe selection follows the same `hash(key) → stripe`
/// mapping as the data plane, keeping runs reproducible for a fixed key set.
pub struct StripedSampler {
    model: Arc<LatencyModel>,
    rngs: Box<[parking_lot::Mutex<rand::rngs::StdRng>]>,
}

impl StripedSampler {
    /// Creates a sampler over `model` with `stripes` independent RNGs seeded
    /// deterministically from `seed`.
    pub fn new(model: Arc<LatencyModel>, seed: u64, stripes: usize) -> Self {
        use rand::SeedableRng;
        let stripes = stripes.max(1);
        StripedSampler {
            model,
            rngs: (0..stripes)
                .map(|i| {
                    parking_lot::Mutex::new(rand::rngs::StdRng::seed_from_u64(
                        seed.wrapping_add(i as u64),
                    ))
                })
                .collect(),
        }
    }

    /// The underlying latency model.
    pub fn model(&self) -> &Arc<LatencyModel> {
        &self.model
    }

    /// Number of RNG stripes.
    pub fn stripes(&self) -> usize {
        self.rngs.len()
    }

    /// Samples from `profile` on the RNG of `stripe` (held only for the
    /// sample), then records/sleeps outside the lock. Returns the applied
    /// duration.
    pub fn apply(&self, profile: &LatencyProfile, stripe: usize, payload_bytes: usize) -> Duration {
        let duration = self.sample(profile, stripe, payload_bytes);
        self.model.finish(duration)
    }

    /// Samples from `profile` on the RNG of `stripe` *without* applying the
    /// latency. Backends that issue several requests concurrently (a
    /// pipelined client's multi-key write) sample each request here and then
    /// apply the batch once via [`LatencyModel::finish_batch`].
    pub fn sample(
        &self,
        profile: &LatencyProfile,
        stripe: usize,
        payload_bytes: usize,
    ) -> Duration {
        let mut rng = self.rngs[stripe % self.rngs.len()].lock();
        self.model.sample(profile, &mut *rng, payload_bytes)
    }
}

impl std::fmt::Debug for StripedSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StripedSampler")
            .field("stripes", &self.rngs.len())
            .finish_non_exhaustive()
    }
}

/// Sleeps for `duration` of simulated latency.
///
/// Plain `thread::sleep` is used rather than spinning: the simulations run
/// hundreds of client threads, frequently on modest hosts, and busy-waiting
/// would distort every measurement by stealing CPU from the threads doing
/// real work. The kernel overshoots short sleeps by a roughly constant
/// amount, so that overhead is calibrated once and subtracted; durations
/// below the overhead are treated as free rather than inflated to ~100 µs,
/// which preserves the ordering between fast and slow services.
fn sleep_calibrated(duration: Duration) {
    let overhead = sleep_overhead();
    if duration > overhead {
        std::thread::sleep(duration - overhead);
    }
}

/// Sleeps out what is left of a deferred completion's latency: until
/// `deadline`, with the calibration of a `Sleep`-mode [`LatencyModel::finish`].
pub(crate) fn sleep_until(deadline: Instant) {
    sleep_calibrated(deadline.saturating_duration_since(Instant::now()));
}

/// The host's `thread::sleep` overshoot for short sleeps, measured once.
fn sleep_overhead() -> Duration {
    static OVERHEAD: std::sync::OnceLock<Duration> = std::sync::OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let requested = Duration::from_micros(50);
        let rounds = 10;
        let start = std::time::Instant::now();
        for _ in 0..rounds {
            std::thread::sleep(requested);
        }
        let average = start.elapsed() / rounds;
        average
            .saturating_sub(requested)
            .min(Duration::from_micros(300))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_profile_is_free() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(LatencyProfile::ZERO.sample_us(&mut rng, 4096), 0.0);
    }

    #[test]
    fn median_is_roughly_respected() {
        let profile = LatencyProfile::new(1_000.0, 5_000.0);
        let mut rng = StdRng::seed_from_u64(42);
        let mut samples: Vec<f64> = (0..5_000).map(|_| profile.sample_us(&mut rng, 0)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!(
            (median - 1_000.0).abs() / 1_000.0 < 0.15,
            "median {median} should be within 15% of 1000"
        );
        let p99 = samples[(samples.len() as f64 * 0.99) as usize];
        assert!(
            (p99 - 5_000.0).abs() / 5_000.0 < 0.35,
            "p99 {p99} should be within 35% of 5000"
        );
    }

    #[test]
    fn per_kb_cost_scales_with_payload() {
        let profile = LatencyProfile::new(100.0, 100.0).with_per_kb(10.0);
        let mut rng = StdRng::seed_from_u64(7);
        let small = profile.sample_us(&mut rng, 1024);
        let large = profile.sample_us(&mut rng, 1024 * 100);
        assert!(large > small + 900.0, "100KB should cost ~990us more");
    }

    #[test]
    fn virtual_mode_records_without_sleeping() {
        let model = LatencyModel::new(LatencyMode::Virtual, 1.0);
        let profile = LatencyProfile::new(50_000.0, 50_000.0);
        let mut rng = StdRng::seed_from_u64(3);
        let start = std::time::Instant::now();
        let applied = model.apply(&profile, &mut rng, 0);
        assert!(
            start.elapsed() < Duration::from_millis(20),
            "must not sleep"
        );
        assert!(applied >= Duration::from_millis(40));
        assert!(model.injected() >= Duration::from_millis(40));
    }

    #[test]
    fn sleep_mode_actually_sleeps() {
        let model = LatencyModel::new(LatencyMode::Sleep, 1.0);
        let profile = LatencyProfile::new(2_000.0, 2_000.0);
        let mut rng = StdRng::seed_from_u64(3);
        let start = std::time::Instant::now();
        model.apply(&profile, &mut rng, 0);
        assert!(start.elapsed() >= Duration::from_micros(1_500));
    }

    #[test]
    fn scale_factor_shrinks_latency() {
        let model = LatencyModel::new(LatencyMode::Virtual, 0.01);
        let profile = LatencyProfile::new(10_000.0, 10_000.0);
        let mut rng = StdRng::seed_from_u64(3);
        let applied = model.apply(&profile, &mut rng, 0);
        assert!(applied <= Duration::from_micros(150));
    }

    #[test]
    fn disabled_model_injects_nothing() {
        let model = LatencyModel::disabled();
        let mut rng = StdRng::seed_from_u64(3);
        model.apply(&LatencyProfile::new(1_000.0, 2_000.0), &mut rng, 0);
        assert_eq!(model.injected(), Duration::ZERO);
    }

    #[test]
    fn striped_sampler_records_into_the_shared_model() {
        let model = LatencyModel::new(LatencyMode::Virtual, 1.0);
        let sampler = StripedSampler::new(Arc::clone(&model), 9, 4);
        assert_eq!(sampler.stripes(), 4);
        let profile = LatencyProfile::new(1_000.0, 1_000.0);
        for stripe in 0..8 {
            let applied = sampler.apply(&profile, stripe, 0);
            assert!(applied >= Duration::from_micros(900));
        }
        assert!(sampler.model().injected() >= Duration::from_millis(7));
    }

    #[test]
    fn striped_sampler_clamps_zero_stripes() {
        let sampler = StripedSampler::new(LatencyModel::disabled(), 1, 0);
        assert_eq!(sampler.stripes(), 1);
        sampler.apply(&LatencyProfile::ZERO, 5, 0);
    }

    #[test]
    fn measure_cost_reports_charged_latency_and_nests() {
        let model = LatencyModel::new(LatencyMode::Virtual, 1.0);
        let profile = LatencyProfile::new(1_000.0, 1_000.0);
        let ((), outer) = measure_cost(|| {
            let mut rng = StdRng::seed_from_u64(1);
            model.apply(&profile, &mut rng, 0);
            let ((), inner) = measure_cost(|| {
                let mut rng = StdRng::seed_from_u64(2);
                model.apply(&profile, &mut rng, 0);
            });
            assert!(inner >= Duration::from_micros(900));
        });
        // The outer scope sees both applications.
        assert!(outer >= Duration::from_micros(1_800), "outer = {outer:?}");
    }

    #[test]
    fn capture_deferred_suppresses_sleep_and_reports_it() {
        let model = LatencyModel::new(LatencyMode::Sleep, 1.0);
        let profile = LatencyProfile::new(20_000.0, 20_000.0);
        let start = std::time::Instant::now();
        let ((), cost) = capture_deferred(|| {
            let mut rng = StdRng::seed_from_u64(1);
            model.apply(&profile, &mut rng, 0);
        });
        assert!(
            start.elapsed() < Duration::from_millis(10),
            "the 20ms sleep must be deferred, not taken"
        );
        assert!(cost.deferred >= Duration::from_millis(18));
        assert_eq!(cost.charged, cost.deferred, "all sleep time was deferred");
    }

    #[test]
    fn capture_deferred_in_virtual_mode_defers_nothing() {
        let model = LatencyModel::new(LatencyMode::Virtual, 1.0);
        let profile = LatencyProfile::new(5_000.0, 5_000.0);
        let ((), cost) = capture_deferred(|| {
            let mut rng = StdRng::seed_from_u64(1);
            model.apply(&profile, &mut rng, 0);
        });
        assert_eq!(cost.deferred, Duration::ZERO);
        assert!(cost.charged >= Duration::from_millis(4));
    }

    #[test]
    fn finish_batch_charges_the_max_not_the_sum() {
        let model = LatencyModel::new(LatencyMode::Virtual, 1.0);
        let durations = [
            Duration::from_millis(3),
            Duration::from_millis(9),
            Duration::from_millis(5),
        ];
        let ((), charged) = measure_cost(|| {
            model.finish_batch(&durations);
        });
        assert_eq!(charged, Duration::from_millis(9));
        assert_eq!(model.injected(), Duration::from_millis(9));
        assert_eq!(model.finish_batch(&[]), Duration::ZERO);
    }
}
