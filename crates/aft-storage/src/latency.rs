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
//! A [`LatencyProfile`] is a log-normal-ish distribution described by a
//! median and a p99 target; a [`LatencyModel`] scales its draws by a factor
//! and applies them. Every draw is a function of its own call: the caller
//! hands [`LatencyModel::draw`] that call's stream
//! ([`aft_types::seeded_stream`]), keyed by what the call is on (a store's
//! key, a node, a platform's invocation) and counted along it, so a call
//! added or removed anywhere else moves no draw. `LatencyMode::Virtual` disables sleeping
//! entirely and charges the would-have-slept time to the calling thread
//! instead ([`measure_cost`]); seated at a [`Turns`] table, those charges
//! are the threads' clocks in one deterministic virtual-time loop, which is
//! how a full experiment (tens of thousands of transactions) finishes in
//! seconds at full scale. [`Permits`] is that loop's one semaphore: a
//! server's workers and a platform's concurrency slots, where a seated
//! thread that finds none free waits in virtual time. [`SeatClock`] is its
//! clock: what a node seated at that table timestamps with.
//!
//! A model keeps no totals. A charge lands on the calling thread, so the
//! caller that wants an operation's cost takes it there with
//! [`measure_cost`].

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aft_types::clock::{Clock, SharedClock};
use aft_types::Timestamp;
use parking_lot::{Condvar, Mutex};
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
    /// caller to apply later (the I/O engine turns them into a completion
    /// deadline that the request's wave sleeps until).
    static DEFERRED_NS: Cell<u64> = const { Cell::new(0) };
    /// Whether a [`capture_deferred`] scope is active on this thread.
    static DEFER_ACTIVE: Cell<bool> = const { Cell::new(false) };
    /// The seat whose clock this thread's charges advance, inside
    /// [`Seat::scope`].
    static SEATED: RefCell<Option<(Arc<Turns>, usize)>> = const { RefCell::new(None) };
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
/// far in the future, and the operation's wave sleeps the remainder). The
/// charged duration is returned as well, exactly as [`measure_cost`] would,
/// but it is *not* added to the thread's charge: the caller adds what it
/// waits for with [`charge`] (the engine adds a batch's wave, not the sum of
/// its members).
///
/// In `Virtual` mode nothing sleeps anyway, so the deferred duration is zero
/// and completions are immediate; the charge still reports the sampled cost.
pub fn capture_deferred<T>(f: impl FnOnce() -> T) -> (T, DeferredCost) {
    let saved_charge = OP_CHARGE_NS.with(|c| c.replace(0));
    let saved_deferred = DEFERRED_NS.with(|c| c.replace(0));
    let was_active = DEFER_ACTIVE.with(|a| a.replace(true));
    let out = f();
    DEFER_ACTIVE.with(|a| a.set(was_active));
    let charged = OP_CHARGE_NS.with(|c| c.replace(saved_charge));
    let deferred = DEFERRED_NS.with(|c| c.replace(saved_deferred));
    (
        out,
        DeferredCost {
            charged: Duration::from_nanos(charged),
            deferred: Duration::from_nanos(deferred),
        },
    )
}

/// Adds `duration` to the current thread's charge: what a caller of
/// [`capture_deferred`] waited for once the operation completed. Inside a
/// [`Seat::scope`] the seat's clock advances by it too.
pub fn charge(duration: Duration) {
    OP_CHARGE_NS.with(|c| c.set(c.get().saturating_add(duration.as_nanos() as u64)));
    if !duration.is_zero() && !DEFER_ACTIVE.with(Cell::get) {
        pass_seat(duration);
    }
}

/// Advances the seat this thread sits in, if it sits in one, by `duration`
/// and waits for its next turn. Returns whether it sat in one.
fn pass_seat(duration: Duration) -> bool {
    let Some((turns, seat)) = SEATED.with(|s| s.borrow().clone()) else {
        return false;
    };
    turns.advance(seat, duration);
    true
}

/// Threads taking turns in virtual time: a discrete-event loop whose
/// processes are real threads.
///
/// Every seat has a clock, at zero to begin with. One seat runs at a time:
/// the one with the earliest clock, the lower seat on a tie. The thread
/// holding a seat advances its clock with [`Seat::sleep`] or, inside
/// [`Seat::scope`], wherever `Sleep` mode would sleep: every
/// [`LatencyModel::finish`] and every [`charge`] outside a
/// [`capture_deferred`] scope. It then waits until its seat is the earliest
/// again. A seat waiting for one of [`Permits`] is out of the turn order
/// until a release hands it one. A run of seated threads is therefore one
/// interleaving, fixed by the clocks alone, and nothing sleeps.
///
/// A seated thread must hold no lock across a charge or a permit wait: the
/// seat that runs next may need it.
pub struct Turns {
    state: Mutex<TurnState>,
    /// One per seat: signalled when that seat may be the earliest.
    wake: Box<[Condvar]>,
}

struct TurnState {
    /// `(clock, seat)` of every seat in the turn order, earliest first.
    queue: BTreeSet<(Duration, usize)>,
    /// Each seat's clock; `None` once it has left.
    clocks: Vec<Option<Duration>>,
    /// The seat whose thread holds the turn, until it charges, waits for a
    /// permit or leaves. A seat that a release puts back ahead of it waits
    /// until then.
    running: Option<usize>,
}

impl Turns {
    /// A table of `seats` seats, every clock at zero.
    pub fn new(seats: usize) -> Arc<Self> {
        Arc::new(Turns {
            state: Mutex::new(TurnState {
                queue: (0..seats).map(|seat| (Duration::ZERO, seat)).collect(),
                clocks: vec![Some(Duration::ZERO); seats],
                running: None,
            }),
            wake: (0..seats).map(|_| Condvar::new()).collect(),
        })
    }

    /// Takes `seat` for the calling thread and waits for its first turn.
    /// Each seat is taken once; dropping the [`Seat`] leaves the table.
    pub fn seat(self: &Arc<Self>, seat: usize) -> Seat {
        let mut state = self.state.lock();
        self.wait_turn(&mut state, seat);
        Seat {
            turns: Arc::clone(self),
            seat,
        }
    }

    fn clock(&self, seat: usize) -> Duration {
        self.state.lock().clocks[seat].expect("a held seat has a clock")
    }

    fn advance(&self, seat: usize, by: Duration) {
        let mut state = self.state.lock();
        let clock = state.clocks[seat].expect("a seat advances until it leaves");
        state.queue.remove(&(clock, seat));
        state.clocks[seat] = Some(clock + by);
        state.queue.insert((clock + by, seat));
        state.running = None;
        self.wait_turn(&mut state, seat);
    }

    /// Blocks until `seat` is the earliest and the turn is free, waking
    /// whichever seat is the earliest meanwhile.
    fn wait_turn(&self, state: &mut parking_lot::MutexGuard<'_, TurnState>, seat: usize) {
        loop {
            if state.running.is_none() {
                match state.queue.first() {
                    Some(&(_, first)) if first == seat => {
                        state.running = Some(seat);
                        return;
                    }
                    Some(&(_, first)) => self.wake[first].notify_one(),
                    None => {}
                }
            }
            self.wake[seat].wait(state);
        }
    }

    /// Puts `seat`, out of the turn order for a permit, back into it at
    /// its clock or at seat `after`'s, whichever is later.
    fn rejoin(&self, seat: usize, after: Option<usize>) {
        let mut state = self.state.lock();
        let asked = state.clocks[seat].expect("a waiting seat has a clock");
        let at = after.and_then(|after| state.clocks[after]);
        let clock = at.map_or(asked, |at| at.max(asked));
        state.clocks[seat] = Some(clock);
        state.queue.insert((clock, seat));
        if state.running.is_none() {
            let &(_, first) = state.queue.first().expect("the seat just queued");
            self.wake[first].notify_one();
        }
    }
}

impl std::fmt::Debug for Turns {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Turns")
            .field("seats", &self.wake.len())
            .finish_non_exhaustive()
    }
}

/// One thread's place at a [`Turns`] table.
#[derive(Debug)]
pub struct Seat {
    turns: Arc<Turns>,
    seat: usize,
}

impl Seat {
    /// This seat's clock.
    pub fn now(&self) -> Duration {
        self.turns.clock(self.seat)
    }

    /// Advances this seat's clock by `duration` and waits for its turn.
    pub fn sleep(&self, duration: Duration) {
        self.turns.advance(self.seat, duration);
    }

    /// Runs `f` with every charge on this thread advancing this seat.
    pub fn scope<T>(&self, f: impl FnOnce() -> T) -> T {
        let entry = Some((Arc::clone(&self.turns), self.seat));
        let saved = SEATED.with(|s| s.replace(entry));
        let out = f();
        SEATED.with(|s| s.replace(saved));
        out
    }
}

impl Drop for Seat {
    fn drop(&mut self) {
        let mut state = self.turns.state.lock();
        if let Some(clock) = state.clocks[self.seat].take() {
            state.queue.remove(&(clock, self.seat));
        }
        state.running.take_if(|running| *running == self.seat);
        if let Some(&(_, next)) = state.queue.first() {
            self.turns.wake[next].notify_one();
        }
    }
}

/// The clock of nodes whose callers sit at a [`Turns`] table: the seats'
/// virtual time is what they timestamp with.
///
/// A thread inside [`Seat::scope`] reads its seat's clock in whole
/// milliseconds plus one (time zero reads 1, above the null timestamp) and
/// raises a high-water mark to it. Any other thread (set-up and preload
/// before the run, a timer seat, the read-back after it) reads the mark.
/// Either way a read returns a time the run has reached and changes nothing
/// it can observe: reading twice is reading once. Commits in one
/// millisecond tie on the timestamp and order by UUID (§3.1).
#[derive(Debug)]
pub struct SeatClock {
    mark: AtomicU64,
}

impl SeatClock {
    /// A shared seat clock; its mark starts at 1.
    pub fn shared() -> SharedClock {
        Arc::new(SeatClock {
            mark: AtomicU64::new(1),
        })
    }
}

impl Clock for SeatClock {
    fn now(&self) -> Timestamp {
        let seated = SEATED.with(|s| s.borrow().as_ref().map(|(turns, seat)| turns.clock(*seat)));
        let Some(clock) = seated else {
            return self.mark.load(Ordering::SeqCst);
        };
        let now = clock.as_millis() as Timestamp + 1;
        self.mark.fetch_max(now, Ordering::SeqCst);
        now
    }
}

/// A counting semaphore that works in virtual time: a server's workers, a
/// platform's concurrency slots.
///
/// [`Permits::acquire`] takes one of `limit` permits and says how long its
/// caller waited for it. A caller seated at a [`Turns`] table (inside
/// [`Seat::scope`]) that finds none free leaves the turn order, and the
/// next release hands the permit straight to the earliest such waiter (the
/// lower seat on a tie), whose clock moves to the releaser's if that is
/// later: it waited in virtual time, and nothing slept. A caller that is
/// not seated blocks until a permit frees, and its wait is wall time.
/// Seated and unseated callers do not share one `Permits`. A limit of 0
/// admits every caller at once and takes no lock.
pub struct Permits {
    limit: usize,
    state: Mutex<PermitState>,
    /// Signalled when a permit frees with no seated waiter to take it.
    freed: Condvar,
}

#[derive(Default)]
struct PermitState {
    in_use: usize,
    /// Seats waiting, by the clock they asked at and their seat: earliest
    /// first, the lower seat on a tie.
    waiting: BTreeMap<(Duration, usize), Arc<Turns>>,
}

impl Permits {
    /// `limit` permits; 0 means no limit.
    pub fn new(limit: usize) -> Self {
        Permits {
            limit,
            state: Mutex::new(PermitState::default()),
            freed: Condvar::new(),
        }
    }

    /// Takes a permit, waiting for one if none is free: the permit, held
    /// until it drops, and how long its caller waited (see [`Permits`]).
    pub fn acquire(&self) -> (Permit<'_>, Duration) {
        if self.limit == 0 {
            return (Permit(None), Duration::ZERO);
        }
        let permit = Permit(Some(self));
        let mut state = self.state.lock();
        if state.in_use < self.limit {
            state.in_use += 1;
            return (permit, Duration::ZERO);
        }
        let Some((turns, seat)) = SEATED.with(|s| s.borrow().clone()) else {
            let started = Instant::now();
            while state.in_use >= self.limit {
                self.freed.wait(&mut state);
            }
            state.in_use += 1;
            return (permit, started.elapsed());
        };
        // Out of the turn order until a release puts this seat back with
        // the permit; the in-use count does not change hands.
        let mut table = turns.state.lock();
        let asked = table.clocks[seat].expect("a seated caller has a clock");
        table.queue.remove(&(asked, seat));
        table.running = None;
        state.waiting.insert((asked, seat), Arc::clone(&turns));
        drop(state);
        turns.wait_turn(&mut table, seat);
        let resumed = table.clocks[seat].expect("a seated caller has a clock");
        (permit, resumed - asked)
    }
}

/// One of [`Permits`], held until it drops.
#[must_use = "a permit is released when it drops"]
pub struct Permit<'a>(Option<&'a Permits>);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let Some(permits) = self.0 else {
            return;
        };
        let mut state = permits.state.lock();
        let Some(((_, seat), turns)) = state.waiting.pop_first() else {
            state.in_use -= 1;
            permits.freed.notify_one();
            return;
        };
        let releaser = SEATED.with(|s| s.borrow().clone());
        let after = releaser.filter(|(table, _)| Arc::ptr_eq(table, &turns));
        turns.rejoin(seat, after.map(|(_, releaser)| releaser));
    }
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
    /// Sleep for the sampled (scaled) duration, where wall-clock
    /// concurrency effects matter (`benchmark/`'s simulated Redis).
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
}

impl LatencyModel {
    /// Creates a latency model.
    pub fn new(mode: LatencyMode, scale: f64) -> Arc<Self> {
        Arc::new(LatencyModel {
            mode,
            scale: scale.max(0.0),
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

    /// Draws one latency from `profile` for a payload of `payload_bytes`,
    /// scaled, without applying it: the caller waits it out with
    /// [`finish`](LatencyModel::finish). `rng` is the call's own stream
    /// ([`aft_types::seeded_stream`]), so the draw depends on that call
    /// alone, and no lock is held for it.
    pub fn draw(
        &self,
        profile: &LatencyProfile,
        rng: &mut impl Rng,
        payload_bytes: usize,
    ) -> Duration {
        let us = profile.sample_us(rng, payload_bytes) * self.scale;
        Duration::from_nanos((us * 1000.0) as u64)
    }

    /// Charges a drawn duration to the calling thread and, in
    /// `Sleep` mode, sleeps for it.
    ///
    /// Inside a [`capture_deferred`] scope the sleep is suppressed and the
    /// duration is handed to the scope instead, so the I/O engine can apply
    /// the latency as a completion deadline rather than by blocking here.
    ///
    /// Inside a [`Seat::scope`] the seat's clock advances by it instead, in
    /// either mode, and nothing sleeps.
    pub fn finish(&self, duration: Duration) {
        let ns = duration.as_nanos() as u64;
        OP_CHARGE_NS.with(|c| c.set(c.get().saturating_add(ns)));
        if duration.is_zero() {
            return;
        }
        if DEFER_ACTIVE.with(Cell::get) {
            if self.mode == LatencyMode::Sleep {
                DEFERRED_NS.with(|c| c.set(c.get().saturating_add(ns)));
            }
            return;
        }
        if !pass_seat(duration) && self.mode == LatencyMode::Sleep {
            sleep_calibrated(duration);
        }
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
/// `deadline`, and never before it. The calibrated sleep of a `Sleep`-mode
/// [`LatencyModel::finish`] comes first; it returns early by the overshoot
/// measured once per process, which a later sleep on a less loaded host may
/// not meet, so the thread then yields until the deadline has passed. A
/// wave's next members therefore never start before its latest one is due.
pub(crate) fn sleep_until(deadline: Instant) {
    sleep_calibrated(deadline.saturating_duration_since(Instant::now()));
    while Instant::now() < deadline {
        std::thread::yield_now();
    }
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

    /// Draws from `profile` on an RNG seeded with `seed` and applies it, as
    /// a backend's call does; returns what it charged.
    fn apply(model: &LatencyModel, profile: &LatencyProfile, seed: u64) -> Duration {
        let mut rng = StdRng::seed_from_u64(seed);
        measure_cost(|| model.finish(model.draw(profile, &mut rng, 0))).1
    }

    #[test]
    fn virtual_mode_records_without_sleeping() {
        let model = LatencyModel::new(LatencyMode::Virtual, 1.0);
        let profile = LatencyProfile::new(50_000.0, 50_000.0);
        let start = std::time::Instant::now();
        let charged = apply(&model, &profile, 3);
        assert!(
            start.elapsed() < Duration::from_millis(20),
            "must not sleep"
        );
        assert!(charged >= Duration::from_millis(40));
    }

    #[test]
    fn sleep_mode_actually_sleeps() {
        let model = LatencyModel::new(LatencyMode::Sleep, 1.0);
        let profile = LatencyProfile::new(2_000.0, 2_000.0);
        let start = std::time::Instant::now();
        apply(&model, &profile, 3);
        assert!(start.elapsed() >= Duration::from_micros(1_500));
    }

    #[test]
    fn scale_factor_shrinks_latency() {
        let model = LatencyModel::new(LatencyMode::Virtual, 0.01);
        let profile = LatencyProfile::new(10_000.0, 10_000.0);
        let charged = apply(&model, &profile, 3);
        assert!(charged <= Duration::from_micros(150));
    }

    #[test]
    fn disabled_model_injects_nothing() {
        let model = LatencyModel::disabled();
        let profile = LatencyProfile::new(1_000.0, 2_000.0);
        assert_eq!(apply(&model, &profile, 3), Duration::ZERO);
    }

    #[test]
    fn measure_cost_reports_charged_latency_and_nests() {
        let model = LatencyModel::new(LatencyMode::Virtual, 1.0);
        let profile = LatencyProfile::new(1_000.0, 1_000.0);
        let ((), outer) = measure_cost(|| {
            apply(&model, &profile, 1);
            let (_, inner) = measure_cost(|| apply(&model, &profile, 2));
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
        let (_, cost) = capture_deferred(|| apply(&model, &profile, 1));
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
        let (_, cost) = capture_deferred(|| apply(&model, &profile, 1));
        assert_eq!(cost.deferred, Duration::ZERO);
        assert!(cost.charged >= Duration::from_millis(4));
    }

    #[test]
    fn seats_run_one_at_a_time_earliest_clock_first() {
        // Seat 0 charges 5 ms per step, seat 1 sleeps 3 ms per step: the
        // log is the merge of their clocks, ties to the lower seat.
        let turns = Turns::new(2);
        let model = LatencyModel::new(LatencyMode::Sleep, 1.0);
        let log = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let (turns, model, log) = (&turns, &model, &log);
            scope.spawn(move || {
                let seat = turns.seat(0);
                seat.scope(|| {
                    for _ in 0..3 {
                        log.lock().push((0, seat.now().as_millis()));
                        model.finish(Duration::from_millis(5));
                    }
                });
            });
            scope.spawn(move || {
                let seat = turns.seat(1);
                for _ in 0..4 {
                    log.lock().push((1, seat.now().as_millis()));
                    seat.sleep(Duration::from_millis(3));
                }
            });
        });
        let log = log.into_inner();
        assert_eq!(
            log,
            [(0, 0), (1, 0), (1, 3), (0, 5), (1, 6), (1, 9), (0, 10)],
            "a seat's Sleep-mode charge passes its clock, not the wall's"
        );
    }

    /// Runs `body` on a thread per seat of one table, each inside its
    /// seat's scope.
    fn seated(seats: usize, body: impl Fn(usize, &Seat) + Sync) {
        let turns = Turns::new(seats);
        std::thread::scope(|scope| {
            for index in 0..seats {
                let (turns, body) = (&turns, &body);
                scope.spawn(move || {
                    let seat = turns.seat(index);
                    seat.scope(|| body(index, &seat));
                });
            }
        });
    }

    #[test]
    fn a_seat_clock_reads_the_seat_and_an_unseated_thread_the_mark() {
        let clock = SeatClock::shared();
        assert_eq!(clock.now(), 1, "no seated read yet");
        let reads = Mutex::new(Vec::new());
        seated(2, |index, seat| {
            // Seat 0 reads at 2.5 ms and runs on to 9 ms; seat 1 reads at
            // 7 ms, twice.
            let at = [2_500, 7_000][index];
            seat.sleep(Duration::from_micros(at));
            let (now, again) = (clock.now(), clock.now());
            assert_eq!((now, again), (at / 1_000 + 1, now), "seat {index}");
            assert_eq!(now, seat.now().as_millis() as u64 + 1);
            reads.lock().push((index, now));
            if index == 0 {
                seat.sleep(Duration::from_micros(6_500));
            }
        });
        assert_eq!(reads.into_inner(), [(0, 3), (1, 8)]);
        assert_eq!(clock.now(), 8, "the latest seated read, not the seats' end");
    }

    #[test]
    fn a_seated_waiter_resumes_at_its_releasers_clock() {
        // Seat 0 holds the one permit from 0 to 5 ms; seat 1 asks at 1 ms.
        let (permits, ms) = (Permits::new(1), Duration::from_millis);
        let resumed = Mutex::new(Vec::new());
        seated(2, |index, seat| {
            seat.sleep(ms(index as u64));
            let (_permit, waited) = permits.acquire();
            resumed.lock().push((index, seat.now(), waited));
            seat.sleep(ms(5 * (1 - index as u64)));
        });
        let resumed = resumed.into_inner();
        assert_eq!(resumed, [(0, ms(0), ms(0)), (1, ms(5), ms(4))]);
    }

    #[test]
    fn waiters_resume_earliest_first() {
        // Seat 0 holds the permit until 10 ms; seats 1, 2 and 3 ask at 3, 1
        // and 2 ms and each hold it 1 ms once granted.
        let (permits, ms) = (Permits::new(1), Duration::from_millis);
        let (asks, holds) = ([0, 3, 1, 2], [10, 1, 1, 1]);
        let log = Mutex::new(Vec::new());
        seated(4, |index, seat| {
            seat.sleep(ms(asks[index]));
            let _permit = permits.acquire();
            log.lock().push((index, seat.now().as_millis()));
            seat.sleep(ms(holds[index]));
        });
        assert_eq!(log.into_inner(), [(0, 0), (2, 10), (3, 11), (1, 12)]);
    }

    #[test]
    fn a_zero_limit_never_blocks() {
        let permits = Permits::new(0);
        let turns = Turns::new(1);
        let seat = turns.seat(0);
        let held: Vec<_> = seat.scope(|| (0..64).map(|_| permits.acquire()).collect());
        assert!(held.iter().all(|(_, waited)| waited.is_zero()));
        let unseated: Vec<_> = (0..64).map(|_| permits.acquire()).collect();
        assert!(unseated.iter().all(|(_, waited)| waited.is_zero()));
        assert_eq!(seat.now(), Duration::ZERO);
    }
}
