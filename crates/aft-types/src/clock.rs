//! Clock abstraction.
//!
//! AFT assigns commit timestamps from the committing node's *local* system
//! clock and explicitly does not rely on clock synchronisation for
//! correctness (§3.1): timestamps only provide relative freshness, and ties
//! are broken on UUIDs. Abstracting the clock lets the test suite and the
//! deterministic simulations drive protocol corner cases — ties, skewed
//! nodes, clocks that jump backwards — that a wall clock cannot produce on
//! demand.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::txid::Timestamp;

/// A source of millisecond timestamps.
pub trait Clock: Send + Sync {
    /// Returns the current time in milliseconds.
    fn now(&self) -> Timestamp;

    /// Sleeps for `duration` *on this clock*.
    ///
    /// The wall clock really sleeps; virtual clocks advance their notion of
    /// time instead and merely yield the CPU, so background loops that pace
    /// themselves with `sleep_for` (the cluster's maintenance thread) run at
    /// simulation speed under a [`MockClock`] or [`TickingClock`] instead of
    /// stalling a deterministic bench on wall-clock delays.
    fn sleep_for(&self, duration: Duration) {
        std::thread::sleep(duration);
    }
}

/// A shareable, dynamically dispatched clock.
pub type SharedClock = Arc<dyn Clock>;

/// The real wall clock: milliseconds since the UNIX epoch.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl SystemClock {
    /// Creates a new system clock.
    pub fn new() -> Self {
        SystemClock
    }

    /// Returns a shared handle to a system clock.
    pub fn shared() -> SharedClock {
        Arc::new(SystemClock)
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Timestamp {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("system clock is before the UNIX epoch")
            .as_millis() as Timestamp
    }
}

/// A manually driven clock for tests and deterministic simulations.
///
/// `MockClock` is cheap to clone (all clones share the same underlying
/// counter) and can be advanced, set, or even rewound to simulate nodes with
/// skewed or misbehaving clocks.
#[derive(Debug, Clone, Default)]
pub struct MockClock {
    now_ms: Arc<AtomicU64>,
}

impl MockClock {
    /// Creates a mock clock starting at time zero.
    pub fn new() -> Self {
        Self::starting_at(0)
    }

    /// Creates a mock clock starting at `start_ms`.
    pub fn starting_at(start_ms: Timestamp) -> Self {
        MockClock {
            now_ms: Arc::new(AtomicU64::new(start_ms)),
        }
    }

    /// Advances the clock by `delta_ms` and returns the new time.
    pub fn advance(&self, delta_ms: u64) -> Timestamp {
        self.now_ms.fetch_add(delta_ms, Ordering::SeqCst) + delta_ms
    }

    /// Sets the clock to an absolute time (which may be in the "past").
    pub fn set(&self, now_ms: Timestamp) {
        self.now_ms.store(now_ms, Ordering::SeqCst);
    }

    /// Returns a shared handle to this clock.
    pub fn shared(&self) -> SharedClock {
        Arc::new(self.clone())
    }
}

impl Clock for MockClock {
    fn now(&self) -> Timestamp {
        self.now_ms.load(Ordering::SeqCst)
    }

    fn sleep_for(&self, duration: Duration) {
        self.advance(duration.as_millis() as u64);
        std::thread::yield_now();
    }
}

/// A clock that ticks forward by a fixed amount on every read.
///
/// Every read is an event: it moves the next timestamp. That suits runs in
/// which no time passes and a read is what orders commits: the seeded
/// stepper and the walker (fig10's matrix, `aft_workload::sim`), the
/// trajectory's scripts, a piped client's `begin`, the examples and unit
/// tests. A run seated at a `Turns` table timestamps from its seats instead
/// (`aft_storage::latency::SeatClock`), where a read is not an event.
#[derive(Debug, Default)]
pub struct TickingClock {
    next: AtomicU64,
    step: u64,
}

impl TickingClock {
    /// Creates a ticking clock that starts at `start_ms` and advances by
    /// `step_ms` on every call to [`Clock::now`].
    pub fn new(start_ms: Timestamp, step_ms: u64) -> Self {
        TickingClock {
            next: AtomicU64::new(start_ms),
            step: step_ms,
        }
    }

    /// Returns a shared handle.
    pub fn shared(start_ms: Timestamp, step_ms: u64) -> SharedClock {
        Arc::new(TickingClock::new(start_ms, step_ms))
    }
}

impl Clock for TickingClock {
    fn now(&self) -> Timestamp {
        self.next.fetch_add(self.step, Ordering::SeqCst)
    }

    fn sleep_for(&self, duration: Duration) {
        self.next
            .fetch_add(duration.as_millis() as u64, Ordering::SeqCst);
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic_enough() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        assert!(a > 1_600_000_000_000, "timestamp should be after 2020");
    }

    #[test]
    fn mock_clock_advances_and_sets() {
        let c = MockClock::starting_at(100);
        assert_eq!(c.now(), 100);
        assert_eq!(c.advance(50), 150);
        assert_eq!(c.now(), 150);
        c.set(10);
        assert_eq!(c.now(), 10, "mock clocks may move backwards");
    }

    #[test]
    fn mock_clock_clones_share_state() {
        let c = MockClock::new();
        let c2 = c.clone();
        c.advance(5);
        assert_eq!(c2.now(), 5);
    }

    #[test]
    fn ticking_clock_is_strictly_increasing() {
        let c = TickingClock::new(0, 1);
        let a = c.now();
        let b = c.now();
        let d = c.now();
        assert!(a < b && b < d);
    }

    #[test]
    fn shared_clock_is_object_safe() {
        let shared: SharedClock = MockClock::starting_at(7).shared();
        assert_eq!(shared.now(), 7);
    }

    #[test]
    fn virtual_clocks_sleep_by_advancing() {
        let mock = MockClock::starting_at(100);
        mock.sleep_for(Duration::from_millis(25));
        assert_eq!(mock.now(), 125, "mock sleep advances virtual time");

        let ticking = TickingClock::new(0, 1);
        ticking.sleep_for(Duration::from_millis(10));
        assert_eq!(ticking.now(), 10, "ticking sleep advances the counter");
    }

    #[test]
    fn system_clock_sleep_really_sleeps() {
        let c = SystemClock::new();
        let before = std::time::Instant::now();
        c.sleep_for(Duration::from_millis(2));
        assert!(before.elapsed() >= Duration::from_millis(2));
    }
}
