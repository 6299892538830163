//! `fig10_recovery`: the chaos scenario matrix — does AFT keep read
//! atomicity and liveness *through* failures?
//!
//! The paper's Figure 10 shows throughput across one node failure; this
//! experiment asks the stronger question its guarantees imply: for every
//! combination of **fault mode** (aft-net connection faults over real
//! loopback sockets, *every layer at once*, or a metadata-plane partition),
//! **node-kill point** (the three commit-phase crashes of [`CommitPhase`]
//! and the two checkpoint phases), and **backend profile**, does the
//! cluster
//!
//! * serve only Atomic Readsets (zero fractured reads / read-your-writes
//!   violations, §3.2) while the faults are firing,
//! * lose **no committed transaction** — every commit record durable in
//!   storage is visible on every node after recovery, including commits
//!   whose acknowledgement and broadcast died with their node (§4.2), and
//! * converge, and in how many maintenance rounds (fault-manager scan →
//!   standby replacement, §6.7)?
//!
//! A storage fault alone — a crash or a failed call at any write — is not a
//! mode here: the walked scopes of [`aft_workload::sim`] cut every write of
//! their schedules exhaustively. The matrix keeps what no schedule can
//! express: the network, the layers composed, and the partition.
//!
//! Every cell runs `trials` seeded trials on the virtual clock
//! (`LatencyMode::Virtual` at full scale) over a small cluster behind a
//! [`FaultyBackend`], while the trial's schedule kills one node mid-commit
//! ([`Seeded::kill`]: every node's phase hook asks it); then the trial
//! drives recovery and verifies the invariants: read atomicity and lost
//! acknowledged writes by [`aft_workload::history`]'s checker over what the
//! clients saw, and recovery against ground truth read straight from
//! storage. One thread runs the load on [`aft_workload::sim`]'s seeded
//! stepper, so the harness, not the OS, chooses the interleaving. Every
//! layer's faults — storage, network, platform — derive from one
//! [`ChaosSpec`] seed, and the kill from the cell, so `aft-bench
//! fig10_recovery --seed N` replays the run, counts included, and `--mode M
//! --seed N` replays exactly the `M` cells of that matrix, up to the step a
//! failing cell names. In the networked modes the
//! server executes on its own reactor threads, but the stepper awaits every
//! reply before its next step, so the order of execution is still the
//! stepper's —
//! with one timing assumption: a request whose connection chaos resets
//! *after* the send must finish on the server within the client's retry
//! backoff (≥ 200 µs), before the stepper moves on.
//! Results land in `BENCH_recovery.json`; [`RecoveryReport::check_gate`]
//! fails on any anomaly, lost commit, unrecovered commit, or
//! non-convergence — which CI enforces on every PR.

use std::sync::Arc;
use std::time::Duration;

use aft_chaos::{ChaosSpec, FaasChaos, NetChaos, PartitionChaos, StorageChaos};
use aft_cluster::{Cluster, ClusterConfig};
use aft_core::api::AftApi;
use aft_core::{CommitPhase, NodeConfig};
use aft_faas::FailureInjector;
use aft_storage::chaos::FaultyBackend;
use aft_storage::{BackendKind, SharedStorage, StorageEngine};
use aft_types::clock::TickingClock;
use aft_types::{AftResult, Key};
use aft_workload::history::Attempt;
use aft_workload::sim::{self, Deployment, Op, Request, Seeded, Shared};

use crate::cli::{Args, Flag, Outcome};
use crate::json::Json;
use crate::report::{percentile_ms, Table};
use crate::setup::{serve_cluster, settled_verdict, virtual_backend, ServeOptions, ServiceHandle};

/// The fault modes of the matrix: one network-side mode, one cross-layer
/// mode that fires every layer of the unified [`ChaosSpec`] in the same
/// trial, and a metadata partition. Storage faults alone are the walked
/// scopes' cuts ([`aft_workload::sim`]), which reach every crash and failed
/// call exhaustively. Each mode's discriminant is its place on the matrix's
/// original six-mode axis, which seeds its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultMode {
    /// Network faults: clients reach the cluster through the aft-net
    /// service layer over real loopback sockets, with seeded connection
    /// resets (before send, and after send in the lost-ack window) and
    /// delayed acknowledgements injected at the SDK. Storage stays clean;
    /// the node kill still fires mid-commit.
    Network = 3,
    /// Every layer at once, from one seed: seeded transient storage errors
    /// under the nodes, connection resets and delayed acks at the SDK, and
    /// platform failure points around the request bodies (invocations dying
    /// before their body, between their two writes — the §1 fractional
    /// update — or after the body with the acknowledgement lost), plus the
    /// node kill. The network mode and the walked storage cuts prove the
    /// layers alone; this mode proves they compose, and that one `--seed`
    /// replays them all.
    CrossLayer = 4,
    /// Metadata-plane partition: the cluster disseminates commit metadata
    /// over a spanning tree while a seeded edge-cut severs half the tree's
    /// links for a window of rounds, parking deliveries on retry queues.
    /// The node kill still fires mid-commit. Recovery must drain every
    /// parked batch after the heal — a partition may *delay* metadata but
    /// can never lose it.
    Partition = 5,
}

impl FaultMode {
    /// Every mode, in report order.
    pub const ALL: [FaultMode; 3] = [
        FaultMode::Network,
        FaultMode::CrossLayer,
        FaultMode::Partition,
    ];

    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultMode::Network => "network_resets",
            FaultMode::CrossLayer => "cross_layer",
            FaultMode::Partition => "partition",
        }
    }

    /// Parses a report label back into a mode (the `--mode` flag).
    pub fn from_label(label: &str) -> Option<FaultMode> {
        FaultMode::ALL.iter().copied().find(|m| m.label() == label)
    }

    /// The unified fault schedule of this mode for one trial seed. Every
    /// leg an injector consumes in the trial comes from this one spec, so
    /// replaying the seed replays every layer.
    fn chaos_spec(&self, seed: u64) -> ChaosSpec {
        let spec = ChaosSpec::new(seed);
        match self {
            // Network mode injects at the connection, not at storage.
            FaultMode::Network => spec.net(NetChaos::resets_and_delays(
                0.06,
                0.03,
                Duration::from_millis(1),
            )),
            // All layers, each at roughly half its single-layer rate so the
            // compounded retry pressure stays inside the budgets: 4% of
            // storage ops fail transiently, half of them applied first.
            FaultMode::CrossLayer => spec
                .storage(StorageChaos::transient_errors(0.04))
                .net(NetChaos::resets_and_delays(
                    0.04,
                    0.02,
                    Duration::from_millis(1),
                ))
                .faas(FaasChaos::uniform(0.06)),
            // Half the dissemination edges go dark for rounds [0, 6) after
            // arming — long enough that live commit traffic parks on the
            // cut, short enough that the heal lands well inside the
            // recovery drive's round budget.
            FaultMode::Partition => spec.partition(PartitionChaos::cut(0.5, 0, 6)),
        }
    }
}

/// Configuration of the recovery matrix.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Fault modes (matrix axis 1).
    pub fault_modes: Vec<FaultMode>,
    /// Commit-phase kill points (matrix axis 2).
    pub kill_points: Vec<CommitPhase>,
    /// Backend profiles (matrix axis 3).
    pub backends: Vec<BackendKind>,
    /// Seeded trials per cell; recovery p50/p99 are computed over these.
    pub trials: usize,
    /// Logical client requests per trial (acknowledged commits target).
    pub requests_per_trial: usize,
    /// Clients per trial, each with one request open at a time; the stepper
    /// interleaves their calls.
    pub clients: usize,
    /// Cluster size per trial (one node gets killed).
    pub nodes: usize,
    /// Base RNG seed; each (cell, trial) derives its own.
    pub seed: u64,
}

impl RecoveryConfig {
    /// The full matrix: 3 fault modes (network, cross-layer and metadata
    /// partition) × 5 kill points (the 3 commit phases plus the 2
    /// checkpoint phases) × the 3 evaluated backends = 45 cells, 3 trials
    /// each.
    pub fn standard() -> Self {
        RecoveryConfig {
            fault_modes: FaultMode::ALL.to_vec(),
            kill_points: every_kill_point().collect(),
            backends: BackendKind::EVALUATED.to_vec(),
            trials: 3,
            requests_per_trial: 48,
            clients: 4,
            nodes: 3,
            seed: 0xF1610,
        }
    }

    /// The CI configuration: the same ≥ 9-cell guarantee (3 fault modes × 5
    /// kill points) with one backend and fewer trials, so the chaos gate
    /// stays well under a minute.
    pub fn fast() -> Self {
        RecoveryConfig {
            trials: 2,
            requests_per_trial: 32,
            backends: vec![BackendKind::DynamoDb],
            ..RecoveryConfig::standard()
        }
    }

    /// The tier-1 matrix: every fault mode and kill point over the memory
    /// row, one trial of 16 requests from 2 clients per cell. Its counts are
    /// exact and sit in the trajectory ([`crate::trajectory`]).
    pub fn tiny() -> Self {
        RecoveryConfig {
            trials: 1,
            requests_per_trial: 16,
            clients: 2,
            backends: vec![BackendKind::Memory],
            ..RecoveryConfig::standard()
        }
    }

    /// Number of matrix cells.
    pub fn cells(&self) -> usize {
        self.fault_modes.len() * self.kill_points.len() * self.backends.len()
    }

    /// The seed of one cell. Each axis offsets it by the value's place on
    /// the *full* axis, not in this configuration's list, so a restricted
    /// matrix (`--mode`) runs the very cells the full one does; a mode's
    /// place is its discriminant.
    fn cell_seed(&self, mode: FaultMode, kill: CommitPhase, backend: BackendKind) -> u64 {
        let places = [
            every_kill_point().position(|k| k == kill),
            BackendKind::EVALUATED.iter().position(|&b| b == backend),
        ];
        // Memory, the tests' backend, sits after the evaluated three.
        let [k, b] = places.map(|place| place.unwrap_or(BackendKind::EVALUATED.len()) as u64);
        self.seed
            .wrapping_add((mode as u64) << 24)
            .wrapping_add(k << 16)
            .wrapping_add(b << 8)
    }
}

/// The kill-point axis: the three commit phases, then the two checkpoint
/// phases.
fn every_kill_point() -> impl Iterator<Item = CommitPhase> {
    CommitPhase::ALL.into_iter().chain(CommitPhase::CHECKPOINT)
}

/// What one trial observed (all invariant counters must end at zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrialResult {
    /// Commits acknowledged to clients.
    pub acknowledged: usize,
    /// Commit records durable in storage (ground truth, includes silent
    /// commits whose ack died with their node).
    pub durable_commits: usize,
    /// Commits the fault manager recovered from storage during the drive.
    pub recovered_commits: u64,
    /// Nodes replaced by standbys.
    pub replaced_nodes: usize,
    /// Read anomalies the history checker found in what clients saw
    /// (fractured reads, read-your-writes violations, reads no writer
    /// explains). Must be zero.
    pub anomalies: u64,
    /// The load's step at which the first attempt with an anomaly made its
    /// last call.
    pub first_anomaly_step: Option<u64>,
    /// Requests acknowledged more than once: an after-body retry commits a
    /// request again under a fresh id. Reported, not gated.
    pub duplicate_requests: u64,
    /// Keys whose newest acknowledged write the recovered cluster does not
    /// serve. Must be zero.
    pub lost_acks: usize,
    /// (record, node) pairs where a durable commit is missing from an active
    /// node's metadata after recovery. Must be zero.
    pub unrecovered: usize,
    /// Whether recovery converged within its round budget.
    pub converged: bool,
    /// Maintenance rounds the recovery drive took to converge, the two
    /// quiet confirmation rounds included.
    pub recovery_rounds: u64,
    /// Transient-fault retries absorbed by the I/O engines.
    pub io_retries: u64,
    /// Whole-transaction retries performed by clients.
    pub client_retries: u64,
    /// Faults every armed layer injected.
    pub faults_injected: u64,
    /// API calls the backend billed over the load and the recovery drive,
    /// every [`OpKind`](aft_storage::OpKind) summed; the verification's
    /// reads are not counted.
    pub storage_calls: u64,
}

/// One matrix cell's aggregated trials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellReport {
    /// Backend label.
    pub backend: String,
    /// Fault-mode label.
    pub fault_mode: String,
    /// Kill-point label.
    pub kill_point: String,
    /// Per-trial results.
    pub trials: Vec<TrialResult>,
}

impl CellReport {
    /// The cell's recovery, in maintenance rounds, at quantile `q` of its
    /// trials (nearest rank: `0.99` is the max for small trial counts).
    pub fn recovery_rounds(&self, q: f64) -> f64 {
        let mut rounds: Vec<f64> = self
            .trials
            .iter()
            .map(|t| t.recovery_rounds as f64)
            .collect();
        rounds.sort_by(f64::total_cmp);
        percentile_ms(&rounds, q)
    }

    fn sum(&self, f: impl Fn(&TrialResult) -> u64) -> u64 {
        self.trials.iter().map(f).sum()
    }

    /// Whether every trial converged.
    pub fn all_converged(&self) -> bool {
        self.trials.iter().all(|t| t.converged)
    }

    /// The cell's first violated invariant, labelled `backend/mode/kill`;
    /// `None` for a clean cell.
    fn violation(&self) -> Option<String> {
        let label = format!("{}/{}/{}", self.backend, self.fault_mode, self.kill_point);
        let first = self.trials.iter().enumerate().find_map(|(trial, t)| {
            let step = t.first_anomaly_step?;
            Some(format!(", first at step {step} of trial {trial}"))
        });
        let anomalies = format!("read-atomicity anomalies{}", first.unwrap_or_default());
        let violations = [
            (self.sum(|t| t.anomalies), anomalies.as_str()),
            (
                self.sum(|t| t.lost_acks as u64),
                "acknowledged commits lost",
            ),
            (
                self.sum(|t| t.unrecovered as u64),
                "durable commits unrecovered after the drive",
            ),
        ];
        if let Some((count, what)) = violations.iter().find(|(count, _)| *count > 0) {
            return Some(format!("{label}: {count} {what}"));
        }
        (!self.all_converged()).then(|| format!("{label}: recovery did not converge"))
    }
}

/// The whole matrix's results.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Every cell, in (fault mode, kill point, backend) order.
    pub cells: Vec<CellReport>,
}

impl RecoveryReport {
    /// One per-trial counter summed across the whole matrix, e.g.
    /// `total(|t| t.anomalies)`.
    pub fn total(&self, of: impl Fn(&TrialResult) -> u64 + Copy) -> u64 {
        self.cells.iter().map(|c| c.sum(of)).sum()
    }

    /// The CI gate: a ≥ 9-cell matrix (≥ 3 fault modes × ≥ 3 kill points)
    /// with zero anomalies, zero lost committed transactions, zero
    /// unrecovered commits, and every trial converged. Returns a summary on
    /// success, the first failure otherwise.
    pub fn check_gate(&self) -> Result<String, String> {
        let fault_modes: std::collections::BTreeSet<&str> =
            self.cells.iter().map(|c| c.fault_mode.as_str()).collect();
        let kill_points: std::collections::BTreeSet<&str> =
            self.cells.iter().map(|c| c.kill_point.as_str()).collect();
        if self.cells.len() < 9 || fault_modes.len() < 3 || kill_points.len() < 3 {
            return Err(format!(
                "matrix too small: {} cells ({} fault modes x {} kill points); \
                 need >= 9 cells from >= 3 x >= 3",
                self.cells.len(),
                fault_modes.len(),
                kill_points.len()
            ));
        }
        self.check_gate_cells()
    }

    /// The per-cell half of [`Self::check_gate`]: every correctness
    /// invariant (anomalies, lost acks, unrecovered commits, convergence)
    /// without the matrix-coverage clause — for single-mode replays
    /// (`aft-bench fig10_recovery --mode ...`), whose restricted matrix can never
    /// satisfy the coverage requirement by construction.
    pub fn check_gate_cells(&self) -> Result<String, String> {
        if let Some(violation) = self.cells.iter().find_map(CellReport::violation) {
            return Err(violation);
        }
        Ok(format!(
            "{} cells clean: 0 anomalies, 0 lost, 0 unrecovered; {} commits \
             recovered from storage, {} transient faults absorbed by retry",
            self.cells.len(),
            self.total(|t| t.recovered_commits),
            self.total(|t| t.io_retries)
        ))
    }

    /// Renders the matrix as an aligned text table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "fig10_recovery — chaos matrix: fault mode x kill point x backend",
            &[
                "backend",
                "fault mode",
                "kill point",
                "recovery p50 (rounds)",
                "recovery p99 (rounds)",
                "recovered",
                "retries",
                "anomalies",
                "duplicates",
                "lost",
                "unrecovered",
            ],
        );
        for cell in &self.cells {
            table.add_row(vec![
                cell.backend.clone(),
                cell.fault_mode.clone(),
                cell.kill_point.clone(),
                cell.recovery_rounds(0.5).to_string(),
                cell.recovery_rounds(0.99).to_string(),
                cell.sum(|t| t.recovered_commits).to_string(),
                cell.sum(|t| t.io_retries).to_string(),
                cell.sum(|t| t.anomalies).to_string(),
                cell.sum(|t| t.duplicate_requests).to_string(),
                cell.sum(|t| t.lost_acks as u64).to_string(),
                cell.sum(|t| t.unrecovered as u64).to_string(),
            ]);
        }
        table
    }

    /// Serialises the report as the `BENCH_recovery.json` document.
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("backend", Json::str(&c.backend)),
                    ("fault_mode", Json::str(&c.fault_mode)),
                    ("kill_point", Json::str(&c.kill_point)),
                    ("trials", Json::Num(c.trials.len() as f64)),
                    ("recovery_p50_rounds", Json::Num(c.recovery_rounds(0.5))),
                    ("recovery_p99_rounds", Json::Num(c.recovery_rounds(0.99))),
                    (
                        "acknowledged_commits",
                        Json::Num(c.sum(|t| t.acknowledged as u64) as f64),
                    ),
                    (
                        "durable_commits",
                        Json::Num(c.sum(|t| t.durable_commits as u64) as f64),
                    ),
                    (
                        "recovered_commits",
                        Json::Num(c.sum(|t| t.recovered_commits) as f64),
                    ),
                    (
                        "replaced_nodes",
                        Json::Num(c.sum(|t| t.replaced_nodes as u64) as f64),
                    ),
                    ("io_retries", Json::Num(c.sum(|t| t.io_retries) as f64)),
                    (
                        "client_retries",
                        Json::Num(c.sum(|t| t.client_retries) as f64),
                    ),
                    (
                        "faults_injected",
                        Json::Num(c.sum(|t| t.faults_injected) as f64),
                    ),
                    ("anomalies", Json::Num(c.sum(|t| t.anomalies) as f64)),
                    (
                        "duplicate_requests",
                        Json::Num(c.sum(|t| t.duplicate_requests) as f64),
                    ),
                    (
                        "lost_commits",
                        Json::Num(c.sum(|t| t.lost_acks as u64) as f64),
                    ),
                    (
                        "unrecovered",
                        Json::Num(c.sum(|t| t.unrecovered as u64) as f64),
                    ),
                    ("converged", Json::Bool(c.all_converged())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("experiment", Json::str("fig10_recovery")),
            (
                "summary",
                Json::obj(vec![
                    ("cells", Json::Num(self.cells.len() as f64)),
                    ("anomalies", Json::Num(self.total(|t| t.anomalies) as f64)),
                    (
                        "duplicate_requests",
                        Json::Num(self.total(|t| t.duplicate_requests) as f64),
                    ),
                    (
                        "lost_commits",
                        Json::Num(self.total(|t| t.lost_acks as u64) as f64),
                    ),
                    (
                        "unrecovered",
                        Json::Num(self.total(|t| t.unrecovered as u64) as f64),
                    ),
                    (
                        "recovered_commits",
                        Json::Num(self.total(|t| t.recovered_commits) as f64),
                    ),
                    ("io_retries", Json::Num(self.total(|t| t.io_retries) as f64)),
                ]),
            ),
            ("cells", Json::Arr(cells)),
        ])
    }
}

/// Checkpoint cadence for every trial node: small enough that the victim
/// is always due at least one checkpoint round during the load, so the
/// checkpoint-phase kill points reliably fire.
const TRIAL_CHECKPOINT_EVERY: u64 = 4;

/// How many matching-phase events pass before the armed kill fires. Commit
/// phases fire partway through the load; checkpoint phases are rare events
/// (one per due checkpoint round / replacement bootstrap), so those kills
/// fire on the very first one.
fn kill_delay(kill_point: CommitPhase, config: &RecoveryConfig) -> u64 {
    if kill_point.is_checkpoint() {
        0
    } else {
        (config.requests_per_trial / (config.nodes * 4)) as u64
    }
}

/// Every client's requests: each reads two keys, writes two and reads the
/// first write back, over a 16-key space the clients share.
fn requests(config: &RecoveryConfig) -> Vec<Vec<Request>> {
    let per_client = config.requests_per_trial.div_ceil(config.clients);
    let key = |at: usize| Key::new(format!("chaos/k{:02}", at % 16));
    let request = |at: usize| {
        let read = |slot: usize| Op::Read(key(at + slot * 7));
        let write = |slot: usize| Op::Write(key(at + slot * 7));
        vec![read(0), read(1), write(2), write(3), read(2)]
    };
    (0..config.clients)
        .map(|id| (0..per_client).map(|r| request(id * 5 + r * 3)).collect())
        .collect()
}

/// One trial's deployment: every layer the trial's single [`ChaosSpec`]
/// arms, built fault-free.
struct Trial {
    cluster: Arc<Cluster>,
    /// Storage as every node sees it. Transparent where the spec's storage
    /// leg is quiet, and paused until the load starts either way.
    faulty: Arc<FaultyBackend>,
    /// The loopback service in front of the cluster, when the spec has a
    /// net leg: a seeded [`aft_net::ConnChaos`] at the SDK resets
    /// connections (including in the lost-ack window) and delays acks.
    service: Option<ServiceHandle>,
    /// The load's schedule, which every node's phase hook asks too, so its
    /// kill reaches the recovery drive.
    schedule: Arc<Shared<Seeded>>,
    /// Platform failure points around the request bodies, when the spec has
    /// a faas leg.
    injector: Option<Arc<FailureInjector>>,
}

impl Trial {
    /// Builds backend → paused [`FaultyBackend`] → cluster → (net leg)
    /// loopback service, then arms the spec's partition on the cluster;
    /// `kill` is the victim's phase and after-count. Storage injection stays
    /// paused throughout, so construction can never fail on an injected
    /// fault whatever the seed; [`run_trial`] switches it on for the load and
    /// off again to verify.
    fn set_up(
        backend: BackendKind,
        spec: &ChaosSpec,
        kill: Option<(CommitPhase, u64)>,
        config: &RecoveryConfig,
    ) -> Trial {
        // Injected latency is charged, never slept, like the backend's own:
        // the whole matrix runs in seconds.
        let raw = virtual_backend(backend, spec.seed);
        let faulty = FaultyBackend::from_spec(raw, spec);
        faulty.set_enabled(false);
        let injector = (!spec.faas.is_quiet()).then(|| Arc::new(FailureInjector::from_spec(spec)));
        // The stepper's stream is decorrelated from the nodes' UUID streams,
        // which the same seed also starts.
        let mut schedule = Seeded::new(spec.seed ^ 0x57E9, injector.clone());
        if let Some((phase, after)) = kill {
            schedule = schedule.kill("aft-node-1", phase, after);
        }
        let schedule = Shared::new(schedule);
        // GC stays off so the durable Transaction Commit Set remains the
        // complete ground truth the post-recovery verification compares
        // against. (Checkpoints are still written on their cadence — log
        // *compaction* is what stays off, since it rides the global GC gate.)
        let cluster_config = ClusterConfig {
            initial_nodes: config.nodes,
            node_template: NodeConfig {
                // No data cache: reads must survive storage faults, not
                // hide behind a warm cache.
                data_cache_bytes: 0,
                rng_seed: spec.seed,
                checkpoint: aft_core::CheckpointPolicy::every_commits(TRIAL_CHECKPOINT_EVERY),
                phase_hook: Some(schedule.clone()),
                ..NodeConfig::default()
            },
            gc_enabled: false,
            replacement_delay: Duration::ZERO,
            ..ClusterConfig::default()
        };
        let cluster = Cluster::with_clock(
            cluster_config,
            Arc::clone(&faulty) as SharedStorage,
            TickingClock::shared(1_000, 1),
        )
        .expect("fault-free construction: storage injection is paused until the load starts");
        let service = (!spec.net.is_quiet()).then(|| {
            let options = ServeOptions {
                workers: 4,
                pool_size: config.clients.max(2),
                retry: aft_storage::io::RetryConfig {
                    max_attempts: 6,
                    base_backoff: Duration::from_micros(200),
                    max_backoff: Duration::from_millis(2),
                },
                chaos: Some(spec.clone()),
                seed: spec.seed ^ 0x5DC,
                ..ServeOptions::default()
            };
            serve_cluster(&cluster, &options).expect("serve on loopback")
        });
        if !spec.partition.is_quiet() {
            cluster.disseminator().arm_partition(spec.schedule());
        }
        Trial {
            cluster,
            faulty,
            service,
            schedule,
            injector,
        }
    }
}

impl Deployment for Trial {
    fn cluster(&self) -> Arc<Cluster> {
        Arc::clone(&self.cluster)
    }

    /// A routed node in-process, the SDK client when the trial is served.
    fn api(&self) -> AftResult<Arc<dyn AftApi>> {
        match &self.service {
            Some(service) => Ok(Arc::clone(&service.client) as Arc<dyn AftApi>),
            None => self.cluster.api(),
        }
    }
}

/// Runs one trial of one cell and verifies its invariants. One spec per
/// trial: every injector — storage, connection, platform, partition —
/// derives from it, and the node kill from the cell, so the seed replays all
/// of them.
fn run_trial(
    backend: BackendKind,
    fault_mode: FaultMode,
    kill_point: CommitPhase,
    trial_seed: u64,
    config: &RecoveryConfig,
) -> TrialResult {
    // The victim dies mid-commit partway through the load.
    let spec = fault_mode.chaos_spec(trial_seed);
    let kill = (kill_point, kill_delay(kill_point, config));
    let trial = Trial::set_up(backend, &spec, Some(kill), config);
    let cluster = &trial.cluster;
    let billed = trial.faulty.stats().snapshot();
    trial.faulty.set_enabled(true);
    // A failed round is the next's to retry.
    let load = sim::run(&trial, requests(config), &mut &*trial.schedule);

    // The load is done; drive recovery to convergence.
    let outcome = drive_recovery(cluster, 200);
    let storage_calls = trial
        .faulty
        .stats()
        .snapshot()
        .delta_since(&billed)
        .total_calls();

    // Verification reads ground truth with injection paused: the invariants
    // are about the *cluster's* state, not about whether the verifier's own
    // reads can fail. (Connection chaos only ever lived at the SDK, and the
    // verifier reads in-process.)
    trial.faulty.set_enabled(false);
    // Full commit-set recovery, modulo §4.1 supersedence: every durable
    // record must be *known* to every active node.
    let (records, unrecovered) = sim::durable_records(cluster);
    let active = cluster.active_nodes();
    let io_retries =
        active.iter().map(|n| n.io().stats().retries).sum::<u64>() + cluster.io().stats().retries;
    let conn_faults = trial
        .service
        .as_ref()
        .and_then(|service| service.client.chaos_stats())
        .map_or(0, |stats| stats.total());
    let verdict = settled_verdict(cluster, &load.history);

    TrialResult {
        acknowledged: load.history.iter().filter_map(Attempt::acked).count(),
        durable_commits: records.len(),
        // Total over the trial, not just the drive: maintenance rounds
        // run *during* the load too, so a scan may recover a stranded
        // commit before the drive even starts — that still counts.
        recovered_commits: cluster.fault_manager().recovered_commits(),
        replaced_nodes: outcome.replaced_nodes,
        anomalies: verdict.anomalies(),
        first_anomaly_step: load.first_anomaly_step,
        duplicate_requests: verdict.duplicate_requests,
        lost_acks: verdict.lost_acked_writes as usize,
        unrecovered: unrecovered as usize,
        converged: outcome.converged,
        recovery_rounds: outcome.rounds as u64,
        io_retries,
        client_retries: load.client_retries,
        // Every armed layer counts: storage faults, link drops at the
        // disseminator, connection faults at the SDK, and platform failure
        // points.
        faults_injected: trial.faulty.chaos_stats().total_faults()
            + cluster.disseminator().totals().link_drops as u64
            + conn_faults
            + trial.injector.as_ref().map_or(0, |i| i.injected()),
        storage_calls,
    }
}

/// What one [`drive_recovery`] call observed.
#[derive(Debug, Clone, Copy, Default)]
struct RecoveryOutcome {
    /// Maintenance rounds driven (including the quiet confirmation rounds).
    rounds: usize,
    /// Failed nodes replaced with fresh standbys during the drive.
    replaced_nodes: usize,
    /// Whether the cluster converged (two consecutive quiet rounds with no
    /// failed nodes) within the round budget.
    converged: bool,
}

/// Drives replacement and maintenance rounds until `cluster` converges: no
/// failed nodes remain and two consecutive rounds recover nothing new from
/// storage (§4.2 scan → §6.7 standby). Rounds that fail outright (faults
/// outliving the I/O retry budget, a replacement's bootstrap torn) are
/// retried — recovery must be *live* under the same fault injection that
/// caused the damage.
fn drive_recovery(cluster: &Cluster, max_rounds: usize) -> RecoveryOutcome {
    let mut outcome = RecoveryOutcome::default();
    let mut quiet_rounds = 0;
    while outcome.rounds < max_rounds {
        outcome.rounds += 1;
        match cluster.replace_failed_nodes() {
            Ok(replaced) => outcome.replaced_nodes += replaced,
            Err(_) => continue,
        }
        match cluster.run_maintenance_round() {
            Ok(stats) => {
                // "Quiet" must also cover dissemination: metadata parked on
                // cut edges (or just drained from it) is recovery still in
                // flight, not convergence.
                let nothing_new = stats.recovered_commits == 0
                    && stats.broadcast.retried == 0
                    && cluster.disseminator().pending_retries() == 0;
                let all_up = cluster.registry().failed_node_ids().is_empty();
                if nothing_new && all_up {
                    quiet_rounds += 1;
                    if quiet_rounds >= 2 {
                        outcome.converged = true;
                        break;
                    }
                } else {
                    quiet_rounds = 0;
                }
            }
            Err(_) => quiet_rounds = 0,
        }
    }
    outcome
}

/// Runs the full matrix and returns the report.
pub fn fig10_recovery(config: &RecoveryConfig) -> RecoveryReport {
    let mut cells = Vec::with_capacity(config.cells());
    for &fault_mode in &config.fault_modes {
        for &kill_point in &config.kill_points {
            for &backend in &config.backends {
                let cell_seed = config.cell_seed(fault_mode, kill_point, backend);
                let trials = (0..config.trials)
                    .map(|t| {
                        run_trial(
                            backend,
                            fault_mode,
                            kill_point,
                            cell_seed.wrapping_add(t as u64),
                            config,
                        )
                    })
                    .collect();
                cells.push(CellReport {
                    backend: backend.label().to_owned(),
                    fault_mode: fault_mode.label().to_owned(),
                    kill_point: kill_point.label().to_owned(),
                    trials,
                });
            }
        }
    }
    RecoveryReport { cells }
}

/// `fig10_recovery`'s own command-line flag.
pub(crate) const FLAGS: &[Flag] = &[Flag {
    name: "--mode",
    value: "LABEL",
    about: "restrict to one fault mode (network_resets, cross_layer, partition); with --seed, \
            zooms in on one failing cell",
}];

/// Sizes the matrix from the command line. The flag is true for a
/// single-mode replay (`--mode`), whose restricted matrix gates on
/// [`RecoveryReport::check_gate_cells`]: it can never satisfy the full
/// gate's coverage clause, but its cells' correctness invariants still gate.
pub(crate) fn plan(args: &Args) -> Result<(RecoveryConfig, bool), String> {
    let mut config = args
        .env
        .sized(RecoveryConfig::standard(), RecoveryConfig::fast());
    config.seed = args.seed.unwrap_or(config.seed);
    let Some(label) = args.flag("--mode") else {
        return Ok((config, false));
    };
    let mode = FaultMode::from_label(label).ok_or_else(|| {
        let known = FaultMode::ALL.map(|m| m.label()).join(", ");
        format!("unknown --mode {label}; one of: {known}")
    })?;
    config.fault_modes = vec![mode];
    Ok((config, true))
}

/// The registry's entry point.
pub(crate) fn run(args: &Args) -> Result<Outcome, String> {
    let (config, cells_only) = plan(args)?;
    Ok(outcome(&config, &fig10_recovery(&config), cells_only))
}

/// Packages a report as the gated run's [`Outcome`]. A failing gate's replay
/// is narrowed to the first failing cell's fault mode: one mode's cells, not
/// the matrix.
pub(crate) fn outcome(
    config: &RecoveryConfig,
    report: &RecoveryReport,
    cells_only: bool,
) -> Outcome {
    let gate = if cells_only {
        report.check_gate_cells()
    } else {
        report.check_gate()
    };
    let mut outcome = Outcome::new(
        config.seed,
        config,
        vec![report.table()],
        report.to_json(),
        gate,
    );
    let failing = report.cells.iter().find(|cell| cell.violation().is_some());
    outcome.replay = failing
        .map(|cell| ("--mode", cell.fault_mode.clone()))
        .into_iter()
        .collect();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_chaos::Layer;
    use aft_types::{TransactionId, TransactionRecord};
    use aft_workload::history;
    use aft_workload::sim::{Exhaustive, Scope};

    fn acked(load: &sim::Run) -> Vec<TransactionId> {
        load.history.iter().filter_map(Attempt::acked).collect()
    }

    #[test]
    fn the_one_request_body_acks_atomically_and_durably_on_a_node_and_over_the_wire() {
        let mut trial = Trial::set_up(
            BackendKind::Memory,
            &ChaosSpec::new(7),
            None,
            &RecoveryConfig::tiny(),
        );
        for over_the_wire in [false, true] {
            if over_the_wire {
                trial.service =
                    Some(serve_cluster(&trial.cluster, &ServeOptions::default()).unwrap());
            }
            let label = trial.api().unwrap().api_label().to_owned();
            let client = vec![requests(&RecoveryConfig::tiny())[0][0].clone()];
            let schedule = &mut Seeded::new(7, None);
            let load = sim::run(&trial, vec![client], schedule);
            assert_eq!(
                load.steps - load.rounds,
                7,
                "{label}: begin, two reads, two writes, the read-back and the commit, one a step"
            );
            assert_eq!(
                acked(&load).len(),
                1,
                "{label}: exactly one acknowledgement"
            );
            assert_eq!(load.client_retries, 0, "{label}");
            // The checker graded what the client saw, then what the cluster
            // serves: the acknowledged writes, read back.
            let verdict = settled_verdict(&trial.cluster, &load.history);
            assert_eq!(verdict, history::Verdict::default(), "{label}");
        }
    }

    #[test]
    fn the_stepper_is_a_pure_function_of_its_seed() {
        let load = |seed| {
            let trial = Trial::set_up(
                BackendKind::Memory,
                &ChaosSpec::new(7),
                None,
                &RecoveryConfig::tiny(),
            );
            let clients = requests(&RecoveryConfig::tiny());
            let schedule = &mut Seeded::new(seed, None);
            sim::run(&trial, clients, schedule)
        };
        let first = load(1);
        assert_eq!((acked(&first).len(), first.anomalies), (16, 0));
        assert_eq!(load(1), first);
        assert_ne!(acked(&load(2)), acked(&first));
    }

    #[test]
    fn an_after_body_failure_commits_the_request_twice() {
        // The first invocation dies after its body (its fate's fourth
        // option), the second runs clean.
        let spec = ChaosSpec::new(7);
        let trial = Trial::set_up(BackendKind::Memory, &spec, None, &RecoveryConfig::tiny());
        let cluster = &trial.cluster;
        let client = vec![requests(&RecoveryConfig::tiny())[0][0].clone()];
        let scope = Scope {
            failures: 1,
            ..Scope::default()
        };
        let schedule = &mut Exhaustive::replay(scope, &[3]);
        let load = sim::run(&trial, vec![client], schedule);
        assert_eq!(schedule.choices(), [3]);

        let [first, second] = acked(&load)[..] else {
            panic!("two acknowledgements, got {:?}", acked(&load));
        };
        assert_ne!(first.uuid, second.uuid);
        let verdict = history::check(&load.history, &history::FinalRead::new());
        assert_eq!(verdict.duplicate_requests, 1, "one request, applied twice");
        let records = cluster
            .storage()
            .list_prefix(&TransactionRecord::storage_prefix());
        assert_eq!(records.unwrap().len(), 2, "both attempts are durable");
        cluster.run_maintenance_round().unwrap();
        let node = cluster.route().unwrap();
        // The request's first write serves the second attempt's value.
        let served = node.get(&node.start_transaction(), &Key::new("chaos/k14"));
        assert_eq!(served.unwrap(), Some(second.uuid.to_string().into()));
    }

    #[test]
    fn set_up_succeeds_under_a_storage_leg_that_fails_every_operation() {
        let broken = ChaosSpec::new(11).storage(StorageChaos::transient_errors(1.0));
        for spec in [broken.clone(), broken.net(NetChaos::resets(0.05))] {
            let kill = Some((CommitPhase::BeforeBroadcast, 0));
            let trial = Trial::set_up(BackendKind::DynamoDb, &spec, kill, &RecoveryConfig::tiny());
            assert_eq!(trial.service.is_some(), !spec.net.is_quiet());
            assert_eq!(
                trial.cluster.active_nodes().len(),
                RecoveryConfig::tiny().nodes
            );
            assert_eq!(
                trial.faulty.chaos_stats().total_faults(),
                0,
                "construction runs with injection paused"
            );
            // The leg is armed all the same: it bites once the load starts.
            trial.faulty.set_enabled(true);
            assert!(trial.cluster.storage().get("probe").is_err());
        }
    }

    #[test]
    fn full_tiny_matrix_is_clean() {
        // The acceptance shape: 3 fault modes (network, cross-layer and
        // metadata partition) x 5 kill points (3 commit phases + 2
        // checkpoint phases, one backend), zero anomalies, zero lost
        // commits, full recovery, convergence.
        let report = fig10_recovery(&RecoveryConfig::tiny());
        assert_eq!(report.cells.len(), 15);
        let summary = report.check_gate().expect("gate must pass");
        assert!(summary.contains("15 cells"), "{summary}");
        assert_eq!(report.total(|t| t.anomalies), 0);
        assert_eq!(report.total(|t| t.lost_acks as u64), 0);
        assert_eq!(report.total(|t| t.unrecovered as u64), 0);
        // The chaos actually bit: faults were injected and commits survived.
        let faults = report.total(|t| t.faults_injected);
        assert!(faults > 0, "the matrix must inject faults");
        let durable = report.total(|t| t.durable_commits as u64);
        assert!(durable > 0);
        // One seeded thread chooses the interleaving, so these counts are
        // exact: a change that moves them changes what the matrix runs.
        assert_eq!(report.total(|t| t.recovered_commits), 7);
        assert_eq!(report.total(|t| t.io_retries), 20);
    }

    #[test]
    fn a_seed_replays_the_run() {
        // Each run builds fresh hash maps with fresh hash keys, so a result
        // that hung on iteration order would differ here.
        let render = || fig10_recovery(&RecoveryConfig::tiny()).to_json().render();
        assert_eq!(render(), render());
    }

    #[test]
    fn a_single_mode_replay_runs_the_full_matrix_cells() {
        let full = fig10_recovery(&RecoveryConfig::tiny());
        let replay = fig10_recovery(&RecoveryConfig {
            fault_modes: vec![FaultMode::Partition],
            ..RecoveryConfig::tiny()
        });
        let partition: Vec<&CellReport> = full
            .cells
            .iter()
            .filter(|c| c.fault_mode == FaultMode::Partition.label())
            .collect();
        assert_eq!(replay.cells.iter().collect::<Vec<_>>(), partition);
    }

    #[test]
    fn cross_layer_mode_arms_every_layer_from_one_seed() {
        let spec = FaultMode::CrossLayer.chaos_spec(0xF1610);
        assert!(!spec.storage.is_quiet());
        assert!(!spec.net.is_quiet());
        assert!(!spec.faas.is_quiet());
        // The schedule is a pure function of (seed, layer, op index, key):
        // re-deriving it from the same seed replays every layer's decisions
        // bit-identically — the property `--seed N` relies on.
        let a = spec.schedule();
        let b = FaultMode::CrossLayer.chaos_spec(0xF1610).schedule();
        for layer in [Layer::Storage, Layer::Net, Layer::Faas] {
            assert_eq!(
                a.materialize(layer, 64, "chaos/k00"),
                b.materialize(layer, 64, "chaos/k00"),
                "layer {layer:?} must replay identically"
            );
        }
    }

    #[test]
    fn cross_layer_cells_inject_and_stay_clean() {
        let config = RecoveryConfig {
            kill_points: vec![CommitPhase::BeforeRecordAppend],
            fault_modes: vec![FaultMode::CrossLayer],
            ..RecoveryConfig::tiny()
        };
        let report = fig10_recovery(&config);
        report.check_gate_cells().unwrap();
        let faults = report.total(|t| t.faults_injected);
        assert!(faults > 0, "the cross-layer cell must inject faults");
    }

    #[test]
    fn before_broadcast_kills_force_storage_recovery() {
        // The §4.2 cell: a commit whose record is durable but whose ack and
        // broadcast died with the node must be found by the fault-manager
        // scan — recovered_commits > 0 distinguishes the scan from mere
        // replacement.
        let config = RecoveryConfig {
            kill_points: vec![CommitPhase::BeforeBroadcast],
            fault_modes: vec![FaultMode::Partition],
            ..RecoveryConfig::tiny()
        };
        let report = fig10_recovery(&config);
        let recovered = report.total(|t| t.recovered_commits);
        assert!(
            recovered > 0,
            "a BeforeBroadcast kill strands commits that only the storage \
             scan can recover, got {recovered}"
        );
        // A single cell is below the gate's matrix floor; check the
        // invariants directly instead.
        report.check_gate_cells().unwrap();
    }

    #[test]
    fn checkpoint_kill_points_replace_the_victim_and_stay_clean() {
        // The two checkpoint cells: a kill mid-checkpoint-write must leave
        // the previous checkpoint live (never a torn read), and a kill
        // mid-bootstrap must be retried to convergence. Both must replace
        // the victim and keep every invariant.
        let config = RecoveryConfig {
            kill_points: CommitPhase::CHECKPOINT.to_vec(),
            fault_modes: vec![FaultMode::CrossLayer],
            ..RecoveryConfig::tiny()
        };
        let report = fig10_recovery(&config);
        report.check_gate_cells().unwrap();
        for cell in &report.cells {
            assert!(
                cell.sum(|t| t.replaced_nodes as u64) > 0,
                "{}: the checkpoint kill must actually fire and cost the victim",
                cell.kill_point
            );
        }
    }

    #[test]
    fn recovery_converges_quickly_when_nothing_is_wrong() {
        let trial = Trial::set_up(
            BackendKind::Memory,
            &ChaosSpec::new(7),
            None,
            &RecoveryConfig::tiny(),
        );
        let outcome = drive_recovery(&trial.cluster, 10);
        assert!(outcome.converged);
        assert_eq!(outcome.replaced_nodes, 0);
        assert!(outcome.rounds <= 3, "quiet cluster converges in 2 rounds");
    }

    #[test]
    fn gate_rejects_a_small_matrix() {
        let config = RecoveryConfig {
            kill_points: vec![CommitPhase::BeforeDataPut],
            fault_modes: vec![FaultMode::Partition],
            ..RecoveryConfig::tiny()
        };
        let report = fig10_recovery(&config);
        let err = report.check_gate().unwrap_err();
        assert!(err.contains("matrix too small"), "{err}");
    }

    #[test]
    fn json_document_round_trips() {
        let config = RecoveryConfig {
            kill_points: vec![CommitPhase::BeforeBroadcast],
            fault_modes: vec![FaultMode::Partition],
            ..RecoveryConfig::tiny()
        };
        let report = fig10_recovery(&config);
        let parsed = Json::parse(&report.to_json().render()).unwrap();
        assert_eq!(
            parsed.get("experiment").unwrap().as_str().unwrap(),
            "fig10_recovery"
        );
        let cells = parsed.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(
            cells[0].get("kill_point").unwrap().as_str().unwrap(),
            "before_broadcast"
        );
        assert!(parsed
            .get("summary")
            .and_then(|s| s.get("recovered_commits"))
            .and_then(Json::as_f64)
            .is_some());
        assert_eq!(report.table().len(), report.cells.len());
    }
}
