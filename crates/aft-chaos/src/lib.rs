//! One fault-schedule API to drive every chaos layer.
//!
//! The repo injects faults at three layers — storage (dropped or duplicated
//! requests), network (connection resets, delayed acks), and platform
//! (function crashes before / after / mid-body). Each layer grew its own
//! seeded planner; this crate replaces the three copies with one substrate
//! so a *single seed* reproduces an entire cross-layer trial: storage
//! requests failing *while* connections flap *while* functions retry. A node
//! kill is not a layer here: it is an answer of `aft_workload::sim`'s
//! schedule at a commit phase. Neither is the storage, network or
//! partition injection: `sim::Seeded` answers each storage call
//! (`aft_storage::CutStore`), each service client's request
//! (`aft_core::PhaseHook::deliver`) and each dissemination batch
//! (`aft_core::PhaseHook::hold`) from a spec's [`FaultSchedule`].
//!
//! The pieces:
//!
//! * [`ChaosSpec`] — the one composable, fluent description of a trial's
//!   fault pressure: `ChaosSpec::new(seed).storage(..).net(..).faas(..)`.
//!   Layers left unset stay quiet, so every existing single-layer scenario
//!   is a special case.
//! * [`FaultSchedule`] — the pure schedule derived from a spec. Its
//!   [`decide`](FaultSchedule::decide)`(layer, op_index, key)` is
//!   deterministic in `(seed, layer, op_index, key)` and independent of call
//!   order or of what other layers are asked: each decision draws from its
//!   own RNG stream keyed by the triple, so concurrent layers racing for
//!   their indices still replay bit-exactly from the seed.
//! * [`LayerSchedule`] — a layer's stateful view: the schedule plus the
//!   layer's own operation counter, which is all a per-layer adapter
//!   (`FailureInjector` in `aft-faas`) needs to hold.
//!
//! Per-layer decisions use SplitMix-style per-operation streams (the same
//! scheme the storage planner always had — the storage layer's schedule is
//! bit-compatible with it), salted per [`Layer`] so layers sharing one seed
//! draw decorrelated schedules.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Salt for the partition layer's edge-cut stream (decorrelates it from the
/// per-operation layers sharing the same seed).
const PARTITION_SALT: u64 = 0x9A47_0000_CE11_EDB3;

/// The injection layers a [`FaultSchedule`] can be asked about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Storage-engine operations (get/put/delete/list against the store).
    Storage,
    /// Wire operations of the client SDK (request/response over a socket).
    Net,
    /// Function invocations on the FaaS platform.
    Faas,
}

impl Layer {
    /// Every layer.
    pub const ALL: [Layer; 3] = [Layer::Storage, Layer::Net, Layer::Faas];

    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Layer::Storage => "storage",
            Layer::Net => "net",
            Layer::Faas => "faas",
        }
    }

    /// The per-layer salt mixed into the seed so layers sharing one seed
    /// draw decorrelated streams. Storage's salt is zero on purpose: its
    /// schedule stays bit-compatible with the original storage-only planner,
    /// so seeds recorded by earlier chaos reports still replay.
    fn salt(&self) -> u64 {
        match self {
            Layer::Storage => 0,
            Layer::Net => 0x4E45_545F_4641_554C,
            Layer::Faas => 0xFAA5_0000_F417_0001,
        }
    }
}

/// What the schedule injects into one operation of one layer.
///
/// The variants are the union of every layer's fault vocabulary; each layer
/// maps the subset it can express (the net adapter turns `TransientError`
/// into connection resets, the platform adapter turns it into
/// before/after-body invocation failures, and so on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation executes normally.
    None,
    /// The operation fails with a retryable error. When `applied` is true
    /// the operation's effect lands *before* the failure (an acknowledgement
    /// lost in flight); a retry then duplicates the request, which
    /// idempotent storage keys (§3.1) and the commit-dedup ledger (§4.2)
    /// must absorb. On the net layer this is a connection reset
    /// before (`applied: false`) or after (`applied: true`) the send; on the
    /// platform layer it is an invocation failure before or after the body.
    TransientError {
        /// Whether the operation was applied before the ack was lost.
        applied: bool,
    },
    /// The operation delivers its acknowledgement late (net only).
    Timeout,
    /// The function body is asked to crash at its next mid-body crash point,
    /// between two writes — §1's fractional-update scenario (platform only).
    MidCrash,
}

impl FaultKind {
    /// True for every variant except [`FaultKind::None`].
    pub fn is_fault(&self) -> bool {
        !matches!(self, FaultKind::None)
    }
}

/// Storage-layer fault pressure (rates per storage operation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageChaos {
    /// Probability in `[0, 1]` that an operation fails with a transient
    /// error (half of these apply the operation before losing the ack).
    pub error_rate: f64,
}

impl StorageChaos {
    /// No storage faults.
    pub fn quiet() -> Self {
        StorageChaos { error_rate: 0.0 }
    }

    /// Transient-error mode: `rate` of operations fail with a retryable
    /// error (half applied-then-dropped-ack, half dropped outright).
    pub fn transient_errors(rate: f64) -> Self {
        StorageChaos {
            error_rate: rate.clamp(0.0, 1.0),
        }
    }

    /// True if this layer can never inject anything.
    pub fn is_quiet(&self) -> bool {
        self.error_rate <= 0.0
    }
}

impl Default for StorageChaos {
    fn default() -> Self {
        StorageChaos::quiet()
    }
}

/// Net-layer fault pressure (rates per wire operation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetChaos {
    /// Probability in `[0, 1]` that a wire operation's connection is reset
    /// (half before the send, half after — the lost-ack interleaving).
    pub reset_rate: f64,
    /// Probability in `[0, 1]` that an acknowledgement is delayed by
    /// [`NetChaos::delay`].
    pub delay_rate: f64,
    /// How late a delayed acknowledgement arrives.
    pub delay: Duration,
}

impl NetChaos {
    /// No net faults.
    pub fn quiet() -> Self {
        NetChaos {
            reset_rate: 0.0,
            delay_rate: 0.0,
            delay: Duration::ZERO,
        }
    }

    /// Reset-only injection at `rate`.
    pub fn resets(rate: f64) -> Self {
        NetChaos {
            reset_rate: rate.clamp(0.0, 1.0),
            ..NetChaos::quiet()
        }
    }

    /// Resets plus delayed acks.
    pub fn resets_and_delays(reset_rate: f64, delay_rate: f64, delay: Duration) -> Self {
        NetChaos {
            reset_rate: reset_rate.clamp(0.0, 1.0),
            delay_rate: delay_rate.clamp(0.0, 1.0),
            delay,
        }
    }

    /// True if this layer can never inject anything.
    pub fn is_quiet(&self) -> bool {
        self.reset_rate <= 0.0 && self.delay_rate <= 0.0
    }
}

impl Default for NetChaos {
    fn default() -> Self {
        NetChaos::quiet()
    }
}

/// Platform-layer fault pressure (independent probabilities per invocation).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaasChaos {
    /// Probability of failing before the body runs (no side effects).
    pub before_body: f64,
    /// Probability of failing after the body runs (side effects applied,
    /// acknowledgement lost — retries must be idempotent).
    pub after_body: f64,
    /// Probability of a mid-body crash request (between two writes;
    /// functions consume it at their crash points).
    pub mid_body: f64,
}

impl FaasChaos {
    /// No platform faults.
    pub fn quiet() -> Self {
        FaasChaos::default()
    }

    /// Fails each invocation with probability `p`, split evenly across the
    /// three failure points.
    pub fn uniform(p: f64) -> Self {
        FaasChaos {
            before_body: p / 3.0,
            after_body: p / 3.0,
            mid_body: p / 3.0,
        }
    }

    /// True if this layer can never inject anything.
    pub fn is_quiet(&self) -> bool {
        self.before_body <= 0.0 && self.after_body <= 0.0 && self.mid_body <= 0.0
    }
}

/// Dissemination-graph partition pressure: a seeded subset of the spanning
/// tree's node-to-node edges is cut for a window of maintenance rounds, then
/// heals.
///
/// Which edges fall is a pure function of `(seed, a, b)` — symmetric in the
/// endpoints, so a cut edge is cut in both directions — and the cut persists
/// for every round in `[from_round, to_round)`. A schedule answering from
/// the spec holds every batch sent over a cut edge; the dissemination layer
/// parks held batches on its retry queue and delivers them after the heal,
/// so a partition delays metadata but must never lose it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionChaos {
    /// Fraction in `[0, 1]` of dissemination edges that are cut during the
    /// window.
    pub cut_fraction: f64,
    /// First maintenance round (inclusive) of the partition window.
    pub from_round: u64,
    /// First maintenance round *after* the window — the partition heals here.
    pub to_round: u64,
}

impl PartitionChaos {
    /// No partition.
    pub fn quiet() -> Self {
        PartitionChaos {
            cut_fraction: 0.0,
            from_round: 0,
            to_round: 0,
        }
    }

    /// Cuts `cut_fraction` of edges during rounds `[from_round, to_round)`.
    pub fn cut(cut_fraction: f64, from_round: u64, to_round: u64) -> Self {
        PartitionChaos {
            cut_fraction: cut_fraction.clamp(0.0, 1.0),
            from_round,
            to_round,
        }
    }

    /// True if this layer can never cut anything.
    pub fn is_quiet(&self) -> bool {
        self.cut_fraction <= 0.0 || self.to_round <= self.from_round
    }
}

impl Default for PartitionChaos {
    fn default() -> Self {
        PartitionChaos::quiet()
    }
}

/// The composable, seeded description of a whole trial's fault pressure —
/// the one chaos configuration surface.
///
/// ```
/// use aft_chaos::{ChaosSpec, StorageChaos, NetChaos, FaasChaos};
/// use std::time::Duration;
///
/// let spec = ChaosSpec::new(0xF00D)
///     .storage(StorageChaos::transient_errors(0.08))
///     .net(NetChaos::resets_and_delays(0.06, 0.03, Duration::from_millis(1)))
///     .faas(FaasChaos::uniform(0.1));
/// assert!(!spec.is_quiet());
/// assert_eq!(spec.schedule().seed(), 0xF00D);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Seed of every layer's fault schedule; identical seeds reproduce
    /// identical cross-layer schedules.
    pub seed: u64,
    /// Storage-layer pressure.
    pub storage: StorageChaos,
    /// Net-layer pressure.
    pub net: NetChaos,
    /// Platform-layer pressure.
    pub faas: FaasChaos,
    /// Dissemination-graph partition pressure.
    pub partition: PartitionChaos,
}

impl ChaosSpec {
    /// A spec with every layer quiet; compose pressure with the builder
    /// methods.
    pub fn new(seed: u64) -> Self {
        ChaosSpec {
            seed,
            storage: StorageChaos::quiet(),
            net: NetChaos::quiet(),
            faas: FaasChaos::quiet(),
            partition: PartitionChaos::quiet(),
        }
    }

    /// Sets the storage-layer pressure.
    pub fn storage(mut self, storage: StorageChaos) -> Self {
        self.storage = storage;
        self
    }

    /// Sets the net-layer pressure.
    pub fn net(mut self, net: NetChaos) -> Self {
        self.net = net;
        self
    }

    /// Sets the platform-layer pressure.
    pub fn faas(mut self, faas: FaasChaos) -> Self {
        self.faas = faas;
        self
    }

    /// Sets the dissemination-partition pressure.
    pub fn partition(mut self, partition: PartitionChaos) -> Self {
        self.partition = partition;
        self
    }

    /// True when no layer injects.
    pub fn is_quiet(&self) -> bool {
        self.storage.is_quiet()
            && self.net.is_quiet()
            && self.faas.is_quiet()
            && self.partition.is_quiet()
    }

    /// The pure fault schedule this spec describes.
    pub fn schedule(&self) -> FaultSchedule {
        FaultSchedule {
            seed: self.seed,
            storage: self.storage,
            net: self.net,
            faas: self.faas,
            partition: self.partition,
        }
    }

    /// A [`LayerSchedule`] over `layer` — the state a per-layer adapter
    /// holds.
    pub fn layer(&self, layer: Layer) -> LayerSchedule {
        LayerSchedule::new(self.schedule(), layer)
    }
}

/// The pure, seeded cross-layer fault schedule of a [`ChaosSpec`].
///
/// `decide` is a function of `(seed, layer, op_index, key)` only: querying
/// layers in any interleaving, repeatedly, or concurrently never changes any
/// answer, which is what makes one seed replay a whole cross-layer trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSchedule {
    seed: u64,
    storage: StorageChaos,
    net: NetChaos,
    faas: FaasChaos,
    partition: PartitionChaos,
}

impl FaultSchedule {
    /// The schedule's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The net-layer pressure.
    pub fn net_chaos(&self) -> NetChaos {
        self.net
    }

    /// The platform-layer pressure.
    pub fn faas_chaos(&self) -> FaasChaos {
        self.faas
    }

    /// Whether the dissemination edge between nodes `a` and `b` is cut in
    /// maintenance round `round`.
    ///
    /// Symmetric (`edge_cut(r, a, b) == edge_cut(r, b, a)`) and — like every
    /// other decision — a pure function of the seed: which edges fall is
    /// drawn once per unordered endpoint pair, and the same edges stay down
    /// for the whole `[from_round, to_round)` window, modelling a network
    /// partition rather than per-message loss.
    pub fn edge_cut(&self, round: u64, a: &str, b: &str) -> bool {
        let c = &self.partition;
        if c.is_quiet() || round < c.from_round || round >= c.to_round {
            return false;
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut hasher = DefaultHasher::new();
        lo.hash(&mut hasher);
        hi.hash(&mut hasher);
        let stream = (self.seed ^ PARTITION_SALT)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(hasher.finish().wrapping_mul(0xBF58_476D_1CE4_E5B9));
        let mut rng = StdRng::seed_from_u64(stream);
        rng.gen_range(0.0..1.0) < c.cut_fraction
    }

    /// The fault injected into operation number `op_index` of `layer` on
    /// `key` (the layer's primary key, verb, or function name — whatever
    /// names the operation).
    ///
    /// Deterministic in `(seed, layer, op_index, key)` and independent of
    /// call order across layers: each decision draws from its own RNG stream
    /// keyed by the triple, so concurrent layers racing for their own
    /// indices still reproduce the same per-layer schedules.
    pub fn decide(&self, layer: Layer, op_index: u64, key: &str) -> FaultKind {
        match layer {
            Layer::Storage => self.decide_storage(op_index, key),
            Layer::Net => self.decide_net(op_index, key),
            Layer::Faas => self.decide_faas(op_index, key),
        }
    }

    /// The first `n` decisions of one layer for a fixed key — the
    /// materialised schedule, used by determinism tests and for replaying a
    /// failure report.
    pub fn materialize(&self, layer: Layer, n: u64, key: &str) -> Vec<FaultKind> {
        (0..n).map(|i| self.decide(layer, i, key)).collect()
    }

    /// SplitMix-style per-op stream: cheap, stateless, order-independent.
    /// The per-layer salt decorrelates layers sharing one seed.
    fn stream(&self, layer: Layer, op_index: u64) -> StdRng {
        let stream = (self.seed ^ layer.salt())
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(op_index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        StdRng::seed_from_u64(stream)
    }

    fn decide_storage(&self, op_index: u64, _key: &str) -> FaultKind {
        let c = &self.storage;
        if c.is_quiet() {
            return FaultKind::None;
        }
        let mut rng = self.stream(Layer::Storage, op_index);
        let draw: f64 = rng.gen_range(0.0..1.0);
        if draw < c.error_rate {
            FaultKind::TransientError {
                applied: rng.gen_bool(0.5),
            }
        } else {
            FaultKind::None
        }
    }

    fn decide_net(&self, op_index: u64, _key: &str) -> FaultKind {
        let c = &self.net;
        if c.is_quiet() {
            return FaultKind::None;
        }
        let mut rng = self.stream(Layer::Net, op_index);
        let draw: f64 = rng.gen_range(0.0..1.0);
        if draw < c.reset_rate {
            FaultKind::TransientError {
                applied: rng.gen_bool(0.5),
            }
        } else if draw < c.reset_rate + c.delay_rate {
            FaultKind::Timeout
        } else {
            FaultKind::None
        }
    }

    fn decide_faas(&self, op_index: u64, _key: &str) -> FaultKind {
        let c = &self.faas;
        if c.is_quiet() {
            return FaultKind::None;
        }
        let mut rng = self.stream(Layer::Faas, op_index);
        let draw: f64 = rng.gen_range(0.0..1.0);
        if draw < c.before_body {
            FaultKind::TransientError { applied: false }
        } else if draw < c.before_body + c.after_body {
            FaultKind::TransientError { applied: true }
        } else if draw < c.before_body + c.after_body + c.mid_body {
            FaultKind::MidCrash
        } else {
            FaultKind::None
        }
    }
}

/// One layer's stateful view of a schedule: the pure schedule plus the
/// layer's operation counter. This is the whole state a per-layer adapter
/// needs — the schedule stays pure, the adapter owns index consumption.
#[derive(Debug)]
pub struct LayerSchedule {
    schedule: FaultSchedule,
    layer: Layer,
    ops: AtomicU64,
}

impl LayerSchedule {
    /// A view of `schedule` for `layer`, starting at operation 0.
    pub fn new(schedule: FaultSchedule, layer: Layer) -> Self {
        LayerSchedule {
            schedule,
            layer,
            ops: AtomicU64::new(0),
        }
    }

    /// The underlying pure schedule.
    pub fn schedule(&self) -> &FaultSchedule {
        &self.schedule
    }

    /// Consumes the next operation index and returns its fault.
    pub fn decide_next(&self, key: &str) -> FaultKind {
        let index = self.ops.fetch_add(1, Ordering::Relaxed);
        self.schedule.decide(self.layer, index, key)
    }

    /// Operation indices consumed so far.
    pub fn ops_seen(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_spec(seed: u64) -> ChaosSpec {
        ChaosSpec::new(seed)
            .storage(StorageChaos::transient_errors(0.2))
            .net(NetChaos::resets_and_delays(
                0.2,
                0.1,
                Duration::from_millis(1),
            ))
            .faas(FaasChaos::uniform(0.3))
    }

    #[test]
    fn identical_seeds_produce_identical_cross_layer_schedules() {
        let a = busy_spec(42).schedule();
        let b = busy_spec(42).schedule();
        for layer in Layer::ALL {
            assert_eq!(
                a.materialize(layer, 500, "k"),
                b.materialize(layer, 500, "k"),
                "layer {} must replay from the seed",
                layer.label()
            );
        }
    }

    #[test]
    fn different_seeds_and_different_layers_decorrelate() {
        let a = busy_spec(1).schedule();
        let b = busy_spec(2).schedule();
        assert_ne!(
            a.materialize(Layer::Storage, 200, "k"),
            b.materialize(Layer::Storage, 200, "k"),
            "seeds must steer the schedule"
        );
        // Layers sharing one seed draw different streams: the fault mix is
        // the same shape but the sequences must not be identical.
        let storage: Vec<bool> = a
            .materialize(Layer::Storage, 200, "k")
            .iter()
            .map(FaultKind::is_fault)
            .collect();
        let net: Vec<bool> = a
            .materialize(Layer::Net, 200, "k")
            .iter()
            .map(FaultKind::is_fault)
            .collect();
        assert_ne!(storage, net, "layer salts must decorrelate layers");
    }

    #[test]
    fn decisions_are_order_independent_across_layers() {
        let schedule = busy_spec(7).schedule();
        // Materialise forward, then query in a scrambled cross-layer
        // interleaving; every answer must match.
        let expected: Vec<(Layer, u64, FaultKind)> = Layer::ALL
            .iter()
            .flat_map(|&layer| (0..100).map(move |i| (layer, i, schedule.decide(layer, i, "k"))))
            .collect();
        for &(layer, i, expected_kind) in expected.iter().rev() {
            assert_eq!(schedule.decide(layer, i, "k"), expected_kind);
        }
        // Repeated queries never consume anything.
        assert_eq!(
            schedule.decide(Layer::Net, 63, "k"),
            schedule.decide(Layer::Net, 63, "k")
        );
    }

    #[test]
    fn storage_schedule_is_bit_compatible_with_the_legacy_planner() {
        // The storage layer's salt is zero, so a seed recorded by a PR 4
        // chaos report replays the same storage schedule through the unified
        // crate. This pins the legacy stream derivation.
        let schedule = ChaosSpec::new(42)
            .storage(StorageChaos::transient_errors(0.2))
            .schedule();
        let legacy = |op_index: u64| {
            let stream = 42u64
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(op_index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            let mut rng = StdRng::seed_from_u64(stream);
            let draw: f64 = rng.gen_range(0.0..1.0);
            if draw < 0.2 {
                FaultKind::TransientError {
                    applied: rng.gen_bool(0.5),
                }
            } else {
                FaultKind::None
            }
        };
        for i in 0..500 {
            assert_eq!(schedule.decide(Layer::Storage, i, "k"), legacy(i));
        }
    }

    #[test]
    fn faas_rates_map_to_the_right_fault_kinds() {
        let schedule = ChaosSpec::new(3).faas(FaasChaos::uniform(0.9)).schedule();
        let kinds = schedule.materialize(Layer::Faas, 600, "invoke");
        assert!(kinds.contains(&FaultKind::TransientError { applied: false }));
        assert!(kinds.contains(&FaultKind::TransientError { applied: true }));
        assert!(kinds.contains(&FaultKind::MidCrash));
        assert!(kinds.contains(&FaultKind::None));
        assert!(!kinds.contains(&FaultKind::Timeout));
    }

    #[test]
    fn injected_rates_track_the_configured_rates() {
        let schedule = busy_spec(11).schedule();
        let faults = schedule
            .materialize(Layer::Net, 2_000, "commit")
            .into_iter()
            .filter(|f| f.is_fault())
            .count();
        let rate = faults as f64 / 2_000.0;
        assert!(
            (rate - 0.3).abs() < 0.05,
            "injected net rate {rate} should be near 0.3"
        );
    }

    #[test]
    fn layer_schedule_consumes_indices() {
        let spec = busy_spec(5);
        let layer = spec.layer(Layer::Net);
        let direct = spec.schedule().materialize(Layer::Net, 50, "get");
        let consumed: Vec<FaultKind> = (0..50).map(|_| layer.decide_next("get")).collect();
        assert_eq!(direct, consumed);
        assert_eq!(layer.ops_seen(), 50);
    }

    #[test]
    fn quiet_spec_is_quiet_everywhere() {
        let spec = ChaosSpec::new(9);
        assert!(spec.is_quiet());
        let schedule = spec.schedule();
        for layer in Layer::ALL {
            assert!(schedule
                .materialize(layer, 200, "k")
                .iter()
                .all(|f| *f == FaultKind::None));
        }
    }

    #[test]
    fn partition_cuts_are_symmetric_seeded_and_windowed() {
        let spec = ChaosSpec::new(77).partition(PartitionChaos::cut(0.5, 2, 6));
        assert!(!spec.is_quiet());
        let schedule = spec.schedule();
        let nodes: Vec<String> = (0..12).map(|i| format!("aft-node-{i}")).collect();
        let mut cut_edges = 0usize;
        let mut total = 0usize;
        for (i, a) in nodes.iter().enumerate() {
            for b in nodes.iter().skip(i + 1) {
                total += 1;
                // Symmetric in the endpoints.
                assert_eq!(schedule.edge_cut(3, a, b), schedule.edge_cut(3, b, a));
                // Outside the window nothing is cut.
                assert!(!schedule.edge_cut(1, a, b));
                assert!(!schedule.edge_cut(6, a, b));
                if schedule.edge_cut(2, a, b) {
                    cut_edges += 1;
                    // A cut edge stays down for the whole window.
                    assert!(schedule.edge_cut(5, a, b));
                }
            }
        }
        assert!(
            cut_edges > 0 && cut_edges < total,
            "a 0.5 cut over {total} edges should fell some but not all, felled {cut_edges}"
        );
        // And the same seed replays the same cut set.
        let replay = spec.schedule();
        for (i, a) in nodes.iter().enumerate() {
            for b in nodes.iter().skip(i + 1) {
                assert_eq!(schedule.edge_cut(4, a, b), replay.edge_cut(4, a, b));
            }
        }
    }

    #[test]
    fn quiet_partition_never_cuts() {
        let schedule = ChaosSpec::new(5).schedule();
        assert!(!schedule.edge_cut(0, "a", "b"));
        assert!(ChaosSpec::new(5)
            .partition(PartitionChaos::cut(1.0, 4, 4))
            .partition
            .is_quiet());
    }
}
