//! Seeded connection-fault injection for the client SDK — the net-layer
//! adapter of the unified [`aft_chaos`] fault schedule.
//!
//! Storage chaos exercises the shim's *storage* assumptions; this module
//! exercises its *service boundary*: connections that reset before a
//! request is sent (the request is lost), connections that reset after the
//! send but before the acknowledgement arrives (§4.2's lost-ack window,
//! now end to end over a real socket), and acknowledgements that arrive
//! late. The schedule is the net layer of an [`aft_chaos::ChaosSpec`] — the
//! same pure, seeded, order-independent machinery as every other layer — so
//! one seed replays a whole cross-layer trial, this layer included.
//!
//! The mapping from the unified [`FaultKind`]s:
//!
//! * `TransientError { applied: false }` → [`NetFault::ResetBeforeSend`]
//!   (the request never reaches the server);
//! * `TransientError { applied: true }` → [`NetFault::ResetAfterSend`]
//!   (the server may process the request; the ack dies with the
//!   connection — a retried `Commit` then duplicates, which the server's
//!   dedup ledger must absorb);
//! * `Timeout` → [`NetFault::DelayAck`] (a stale ack: delivered, late).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use aft_chaos::{ChaosSpec, FaultKind, Layer, LayerSchedule, NetChaos};

/// What the injector does to one wire operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The operation proceeds normally.
    None,
    /// The connection resets before the request is written.
    ResetBeforeSend,
    /// The connection resets after the request is written, before the
    /// acknowledgement is read.
    ResetAfterSend,
    /// The acknowledgement is delivered after the given delay.
    DelayAck(Duration),
}

/// Point-in-time injection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetChaosStats {
    /// Connections reset before the request was sent.
    pub resets_before_send: u64,
    /// Connections reset after the send, before the ack (lost-ack window).
    pub resets_after_send: u64,
    /// Acknowledgements delivered late.
    pub delayed_acks: u64,
}

impl NetChaosStats {
    /// Every injected fault, of any kind.
    pub fn total(&self) -> u64 {
        self.resets_before_send + self.resets_after_send + self.delayed_acks
    }
}

/// A seeded connection-fault injector, shared by a client's whole pool.
#[derive(Debug)]
pub struct ConnChaos {
    layer: LayerSchedule,
    delay: Duration,
    resets_before_send: AtomicU64,
    resets_after_send: AtomicU64,
    delayed_acks: AtomicU64,
}

impl ConnChaos {
    /// Builds the injector over the net layer of `spec`'s schedule.
    pub fn from_spec(spec: &ChaosSpec) -> Self {
        ConnChaos {
            layer: spec.layer(Layer::Net),
            delay: spec.net.delay,
            resets_before_send: AtomicU64::new(0),
            resets_after_send: AtomicU64::new(0),
            delayed_acks: AtomicU64::new(0),
        }
    }

    /// The injector's net-layer tuning.
    pub fn net_chaos(&self) -> NetChaos {
        self.layer.schedule().net_chaos()
    }

    /// Decides the fate of the next wire operation (`verb` feeds the
    /// schedule's key input, so schedules are stable per verb mix).
    pub fn decide(&self, verb: &str) -> NetFault {
        match self.layer.decide_next(verb) {
            FaultKind::None | FaultKind::MidCrash => NetFault::None,
            FaultKind::TransientError { applied: false } => {
                self.resets_before_send.fetch_add(1, Ordering::Relaxed);
                NetFault::ResetBeforeSend
            }
            FaultKind::TransientError { applied: true } => {
                self.resets_after_send.fetch_add(1, Ordering::Relaxed);
                NetFault::ResetAfterSend
            }
            FaultKind::Timeout => {
                self.delayed_acks.fetch_add(1, Ordering::Relaxed);
                NetFault::DelayAck(self.delay)
            }
        }
    }

    /// Injection counters so far.
    pub fn stats(&self) -> NetChaosStats {
        NetChaosStats {
            resets_before_send: self.resets_before_send.load(Ordering::Relaxed),
            resets_after_send: self.resets_after_send.load(Ordering::Relaxed),
            delayed_acks: self.delayed_acks.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resets_and_delays(seed: u64, reset: f64, delay_rate: f64, delay: Duration) -> ChaosSpec {
        ChaosSpec::new(seed).net(NetChaos::resets_and_delays(reset, delay_rate, delay))
    }

    #[test]
    fn identical_seeds_produce_identical_fault_sequences() {
        let mk = |seed| {
            let chaos =
                ConnChaos::from_spec(&resets_and_delays(seed, 0.3, 0.2, Duration::from_millis(2)));
            (0..200).map(|_| chaos.decide("commit")).collect::<Vec<_>>()
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8), "seeds steer the schedule");
    }

    #[test]
    fn rates_map_to_the_right_fault_kinds() {
        let chaos = ConnChaos::from_spec(&resets_and_delays(3, 0.5, 0.5, Duration::from_millis(1)));
        let faults: Vec<NetFault> = (0..400).map(|_| chaos.decide("get")).collect();
        let stats = chaos.stats();
        assert!(stats.resets_before_send > 0);
        assert!(stats.resets_after_send > 0, "lost-ack interleaving occurs");
        assert!(stats.delayed_acks > 0);
        assert_eq!(
            stats.total(),
            faults
                .iter()
                .filter(|f| !matches!(f, NetFault::None))
                .count() as u64
        );
        assert_eq!(chaos.layer.ops_seen(), 400);
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let chaos = ConnChaos::from_spec(&ChaosSpec::new(1));
        for _ in 0..100 {
            assert_eq!(chaos.decide("ping"), NetFault::None);
        }
        assert_eq!(chaos.stats().total(), 0);
    }
}
