//! `fig10_recovery`: the chaos scenario matrix — does AFT keep read
//! atomicity and liveness *through* failures?
//!
//! The paper's Figure 10 shows throughput across one node failure; this
//! experiment asks the stronger question its guarantees imply: for every
//! combination of **fault mode** (aft-net connection faults, *every layer
//! at once*, or a metadata-plane partition),
//! **node-kill point** (the three commit-phase crashes of [`CommitPhase`]
//! and a replacement's torn bootstrap), and **backend profile**, does the
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
//! A storage fault alone — a crash, a failed call or a transient error at
//! any write — is not a mode here: the walked scopes of
//! [`aft_workload::sim`] take every one of their schedules' writes, and
//! their `transients` scope holds any one dissemination batch. The matrix
//! keeps what no walked schedule expresses yet: the network, the layers
//! composed, and a partition as a seeded edge-cut of a large tree.
//!
//! Every cell runs `trials` seeded trials on the virtual clock
//! (`LatencyMode::Virtual` at full scale) over a small cluster behind a
//! [`CutStore`]. The trial's one schedule answers every storage call, every
//! dissemination batch, every request a service client sends and every
//! commit phase: it fails calls transiently, holds batches and resets or
//! delays requests at its fault legs' seeded rates ([`Seeded::transients`],
//! [`Seeded::resets`], [`Seeded::partition`]), and
//! kills one node mid-commit ([`Seeded::kill`]); then the trial
//! drives recovery and verifies the invariants: read atomicity and lost
//! acknowledged writes by [`aft_workload::history`]'s checker over what the
//! clients saw, and recovery against ground truth read straight from
//! storage. One thread runs the load on [`aft_workload::sim`]'s seeded
//! stepper, so the harness, not the OS, chooses the interleaving. Every
//! layer's faults — storage, network, platform — derive from the trial's
//! seed, and the kill from the cell, so `aft-bench
//! fig10_recovery --seed N` replays the run, counts included, and `--mode M
//! --seed N` replays exactly the `M` cells of that matrix, up to the step a
//! failing cell names. In the networked modes the clients speak the wire
//! protocol over in-memory pipes ([`aft_net::ClientBuilder::pipe`]): the
//! server's connection state machine runs each request on the stepper's
//! thread before the send returns, so a request reset after its send has
//! run before its retry, and backoffs and late answers are charged to the
//! virtual clock, not slept. The report is one sheet, `cells`, a row per
//! cell, in `BENCH_recovery.json`; its [`checks`] fail on a
//! matrix too small to cover the modes and kill points, and on any anomaly,
//! lost commit, unrecovered commit or non-convergence, one named check
//! each — which CI enforces on every PR.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use aft_cluster::{Cluster, ClusterConfig};
use aft_core::api::AftApi;
use aft_core::{CommitPhase, NodeConfig};
use aft_faas::{FaasChaos, FailureInjector};
use aft_net::{AftClient, AftServer};
use aft_storage::{BackendKind, CutStore};
use aft_types::clock::TickingClock;
use aft_types::{AftResult, Key};
use aft_workload::history::Attempt;
use aft_workload::sim::{self, Answered, Deployment, Op, Request, Seeded, Shared};

use crate::cli::{Args, Flag, Outcome};
use crate::report::{ensure, percentile_ms, Report, Sheet, Verdict};
use crate::setup::{settled_verdict, virtual_backend};

/// The fault modes of the matrix: one network-side mode, one cross-layer
/// mode that fires every fault leg of one schedule in the same trial, and a
/// metadata partition. Storage faults alone are the walked
/// scopes' cuts ([`aft_workload::sim`]), which reach every crash and failed
/// call exhaustively. Each mode's discriminant is its place on the matrix's
/// original six-mode axis, which seeds its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum FaultMode {
    /// Network faults: clients reach the cluster through the aft-net
    /// service layer, and the schedule resets their connections (before
    /// the send, and after it in the lost-ack window) and delays
    /// acknowledgements. Storage stays clean; the node kill still fires
    /// mid-commit.
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
    /// over a spanning tree while the schedule holds every batch sent over
    /// half the tree's links, a seeded edge-cut, for a window of rounds,
    /// parking deliveries on retry queues.
    /// The node kill still fires mid-commit. Recovery must drain every
    /// parked batch after the heal — a partition may *delay* metadata but
    /// can never lose it.
    Partition = 5,
}

impl FaultMode {
    /// Every mode, in report order.
    pub(crate) const ALL: [FaultMode; 3] = [
        FaultMode::Network,
        FaultMode::CrossLayer,
        FaultMode::Partition,
    ];

    /// A short label for reports.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            FaultMode::Network => "network_resets",
            FaultMode::CrossLayer => "cross_layer",
            FaultMode::Partition => "partition",
        }
    }

    /// Parses a report label back into a mode (the `--mode` flag).
    pub(crate) fn from_label(label: &str) -> Option<FaultMode> {
        FaultMode::ALL.iter().copied().find(|m| m.label() == label)
    }

    /// Whether this mode's clients reach the cluster through the service
    /// client, whose requests the schedule resets and delays.
    fn networked(&self) -> bool {
        matches!(self, FaultMode::Network | FaultMode::CrossLayer)
    }

    /// This mode's schedule for one trial seed: every fault leg, and the
    /// platform's fates, draw from `seed`, so replaying the seed replays
    /// every layer.
    fn schedule(&self, seed: u64) -> Seeded {
        let delay = Duration::from_millis(1);
        match self {
            // Network mode injects at the connection, not at storage.
            FaultMode::Network => Seeded::new(seed, None).resets(0.06, 0.03, delay),
            // All layers, each at roughly half its single-layer rate so the
            // compounded retry pressure stays inside the budgets: 4% of
            // storage ops fail transiently, half of them applied first.
            FaultMode::CrossLayer => {
                let fates = FailureInjector::new(seed, FaasChaos::uniform(0.06));
                let schedule = Seeded::new(seed, Some(Arc::new(fates)));
                schedule.transients(0.04).resets(0.04, 0.02, delay)
            }
            // Half the dissemination edges go dark for rounds [0, 6) after
            // arming — long enough that live commit traffic parks on the
            // cut, short enough that the heal lands well inside the
            // recovery drive's round budget.
            FaultMode::Partition => Seeded::new(seed, None).partition(0.5, 0..6),
        }
    }
}

/// Configuration of the recovery matrix.
#[derive(Debug, Clone)]
pub(crate) struct RecoveryConfig {
    /// Fault modes (matrix axis 1).
    pub(crate) fault_modes: Vec<FaultMode>,
    /// Commit-phase kill points (matrix axis 2).
    pub(crate) kill_points: Vec<CommitPhase>,
    /// Backend profiles (matrix axis 3).
    pub(crate) backends: Vec<BackendKind>,
    /// Seeded trials per cell; recovery p50/p99 are computed over these.
    pub(crate) trials: usize,
    /// Logical client requests per trial (acknowledged commits target).
    pub(crate) requests_per_trial: usize,
    /// Clients per trial, each with one request open at a time; the stepper
    /// interleaves their calls.
    pub(crate) clients: usize,
    /// Cluster size per trial (one node gets killed).
    pub(crate) nodes: usize,
    /// Base RNG seed; each (cell, trial) derives its own.
    pub(crate) seed: u64,
}

impl RecoveryConfig {
    /// The full matrix: 3 fault modes (network, cross-layer and metadata
    /// partition) × 4 kill points (the 3 commit phases plus the bootstrap)
    /// × the 3 evaluated backends = 36 cells, 3 trials each.
    pub(crate) fn standard() -> Self {
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

    /// The CI configuration: the same ≥ 9-cell guarantee (3 fault modes × 4
    /// kill points) with one backend and fewer trials, so the chaos gate
    /// stays well under a minute.
    pub(crate) fn fast() -> Self {
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
    pub(crate) fn tiny() -> Self {
        RecoveryConfig {
            trials: 1,
            requests_per_trial: 16,
            clients: 2,
            backends: vec![BackendKind::Memory],
            ..RecoveryConfig::standard()
        }
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

/// The kill-point axis: the three commit phases, then the bootstrap.
fn every_kill_point() -> impl Iterator<Item = CommitPhase> {
    CommitPhase::ALL
        .into_iter()
        .chain([CommitPhase::DuringBootstrap])
}

/// What one trial observed (all invariant counters must end at zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TrialResult {
    /// Commits acknowledged to clients.
    pub(crate) acknowledged: usize,
    /// Commit records durable in storage (ground truth, includes silent
    /// commits whose ack died with their node).
    pub(crate) durable_commits: usize,
    /// Commits the fault manager recovered from storage during the drive.
    pub(crate) recovered_commits: u64,
    /// Nodes replaced by standbys.
    pub(crate) replaced_nodes: usize,
    /// Read anomalies the history checker found in what clients saw
    /// (fractured reads, read-your-writes violations, reads no writer
    /// explains). Must be zero.
    pub(crate) anomalies: u64,
    /// The load's step at which the first attempt with an anomaly made its
    /// last call.
    pub(crate) first_anomaly_step: Option<u64>,
    /// Requests acknowledged more than once: an after-body retry commits a
    /// request again under a fresh id. Reported, not gated.
    pub(crate) duplicate_requests: u64,
    /// Keys whose newest acknowledged write the recovered cluster does not
    /// serve. Must be zero.
    pub(crate) lost_acks: usize,
    /// (record, node) pairs where a durable commit is missing from an active
    /// node's metadata after recovery. Must be zero.
    pub(crate) unrecovered: usize,
    /// Whether recovery converged within its round budget.
    pub(crate) converged: bool,
    /// Maintenance rounds the recovery drive took to converge, the two
    /// quiet confirmation rounds included.
    pub(crate) recovery_rounds: u64,
    /// Transient-fault retries absorbed by the I/O engines.
    pub(crate) io_retries: u64,
    /// Whole-transaction retries performed by clients.
    pub(crate) client_retries: u64,
    /// Faults every armed layer injected: every answer of the schedule but
    /// the kill, so a batch counts once a round it is held, whatever it
    /// carried.
    pub(crate) faults_injected: u64,
    /// API calls the backend billed over the load and the recovery drive,
    /// every [`OpKind`](aft_storage::OpKind) summed; the verification's
    /// reads are not counted.
    pub(crate) storage_calls: u64,
}

/// One counter of a [`TrialResult`].
type Counter = fn(&TrialResult) -> u64;

/// The trial counters a cell sums over its trials, by column.
const SUMMED: [(&str, Counter); 12] = [
    ("acknowledged_commits", |t| t.acknowledged as u64),
    ("durable_commits", |t| t.durable_commits as u64),
    ("recovered_commits", |t| t.recovered_commits),
    ("replaced_nodes", |t| t.replaced_nodes as u64),
    ("io_retries", |t| t.io_retries),
    ("client_retries", |t| t.client_retries),
    ("faults_injected", |t| t.faults_injected),
    ("storage_calls", |t| t.storage_calls),
    ("anomalies", |t| t.anomalies),
    ("duplicate_requests", |t| t.duplicate_requests),
    ("lost_commits", |t| t.lost_acks as u64),
    ("unrecovered", |t| t.unrecovered as u64),
];

/// The matrix's one sheet, `cells`: a row per (backend, fault mode, kill
/// point), as [`cell_row`] makes it.
pub(crate) fn cells_sheet() -> Sheet {
    let recovery = ["trials", "recovery_p50_rounds", "recovery_p99_rounds"];
    let summed = SUMMED.map(|(column, _)| column);
    let last = ["converged", "first_anomaly_trial", "first_anomaly_step"];
    Sheet::new(
        "cells",
        "fig10_recovery — chaos matrix: fault mode x kill point x backend",
        &["backend", "fault_mode", "kill_point"],
        &[&recovery[..], &summed, &last].concat(),
    )
}

/// One cell's row: its trial count; its recovery in maintenance rounds at
/// "p50" and "p99", the sorted trials' elements at index `round((n - 1) ·
/// q)` (the p99 is the slowest trial at these trial counts, and the p50 of
/// two trials the slower one); every [`TrialResult`] counter summed;
/// `converged` 1 if every trial converged, else 0; and the first trial
/// with an anomalous step and that step, NaN where there is none.
pub(crate) fn cell_row(trials: &[TrialResult]) -> Vec<f64> {
    let mut rounds: Vec<f64> = trials.iter().map(|t| t.recovery_rounds as f64).collect();
    rounds.sort_by(f64::total_cmp);
    let (p50, p99) = (percentile_ms(&rounds, 0.5), percentile_ms(&rounds, 0.99));
    let mut row = vec![trials.len() as f64, p50, p99];
    row.extend(SUMMED.map(|(_, of)| trials.iter().map(of).sum::<u64>() as f64));
    row.push(f64::from(u8::from(trials.iter().all(|t| t.converged))));
    let first = trials
        .iter()
        .enumerate()
        .find_map(|(trial, t)| Some([trial as f64, t.first_anomaly_step? as f64]));
    row.extend(first.unwrap_or([f64::NAN; 2]));
    row
}

/// The coverage check's name: a replay of one `--mode` skips the check.
const COVERAGE: &str = "matrix >= 9 cells from >= 3 modes x >= 3 kill points";

/// The per-cell invariants: each check's name, the column it reads, and
/// the value every cell holds there.
const INVARIANTS: [(&str, &str, f64); 4] = [
    ("0 read-atomicity anomalies", "anomalies", 0.0),
    ("0 acknowledged commits lost", "lost_commits", 0.0),
    ("0 durable commits unrecovered", "unrecovered", 0.0),
    ("every trial converged", "converged", 1.0),
];

/// fig10's checks: the matrix's coverage, then [`cell_checks`].
pub(crate) fn checks(report: &Report) -> Vec<(&'static str, Verdict)> {
    let cells = report.sheet("cells");
    let distinct = |at| {
        cells
            .keys()
            .map(|row| &row[at])
            .collect::<BTreeSet<_>>()
            .len()
    };
    let (count, modes, kills) = (cells.keys().count(), distinct(1), distinct(2));
    let coverage = ensure(count >= 9 && modes >= 3 && kills >= 3, || {
        format!(
            "matrix too small: {count} cells ({modes} fault modes x {kills} kill points); \
             need >= 9 cells from >= 3 x >= 3"
        )
    });
    [vec![(COVERAGE, coverage)], cell_checks(report)].concat()
}

/// Every cell's invariants, one check each: zero anomalies, zero lost acks,
/// zero unrecovered commits, and every trial converged. Each names its
/// first failing cell, an anomalous one with its first anomalous step. A
/// single-mode replay (`aft-bench fig10_recovery --mode ...`) gates on these
/// alone: its restricted matrix can never meet the coverage check.
pub(crate) fn cell_checks(report: &Report) -> Vec<(&'static str, Verdict)> {
    let cells = report.sheet("cells");
    let first_step = |row: &[String]| match cells.value(row, "first_anomaly_step") {
        step if step.is_nan() => String::new(),
        step => {
            let trial = cells.value(row, "first_anomaly_trial");
            format!(", first at step {step} of trial {trial}")
        }
    };
    let check = |&(name, column, holds): &(&'static str, &str, f64)| {
        let verdict = cells.keys().try_for_each(|row| {
            let value = cells.value(row, column);
            let first = if column == "anomalies" {
                first_step(row)
            } else {
                String::new()
            };
            ensure(value == holds, || {
                format!("{}: {column} {value}{first}", row.join("/"))
            })
        });
        (name, verdict)
    };
    INVARIANTS.iter().map(check).collect()
}

/// How many matching-phase events pass before the armed kill fires. Commit
/// phases fire partway through the load; a bootstrap is rare (one per
/// replacement), so its victim dies at its first commit and the
/// replacement's bootstrap is torn.
fn kill_delay(kill_point: CommitPhase, config: &RecoveryConfig) -> u64 {
    if kill_point == CommitPhase::DuringBootstrap {
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

/// One trial's deployment: every layer the trial's one schedule answers,
/// built fault-free.
struct Trial {
    cluster: Arc<Cluster>,
    /// A service client piped into the cluster, in a networked trial: the
    /// schedule resets its connections (including in the lost-ack window)
    /// and delays its acks.
    client: Option<Arc<AftClient>>,
    /// The load's schedule, which storage, every node's phase hook and the
    /// client ask too: its storage faults are on only during the load, and
    /// its kill and held batches reach the recovery drive.
    schedule: Arc<Shared<Seeded>>,
}

impl Trial {
    /// Builds backend → [`CutStore`] → cluster → (when `networked`) piped
    /// client, all asking `schedule`, from `seed`. The schedule's storage
    /// faults start off, so construction can never fail on an injected
    /// fault whatever the seed; [`run_trial`] switches them on for the load
    /// and off again to verify.
    fn set_up(
        backend: BackendKind,
        seed: u64,
        schedule: Seeded,
        networked: bool,
        config: &RecoveryConfig,
    ) -> Trial {
        // Injected latency is charged, never slept, like the backend's own:
        // the whole matrix runs in seconds.
        let schedule = Shared::new(schedule);
        let storage = CutStore::new(virtual_backend(backend, seed), schedule.clone());
        // GC stays off so the durable Transaction Commit Set remains the
        // complete ground truth the post-recovery verification compares
        // against.
        let cluster_config = ClusterConfig {
            initial_nodes: config.nodes,
            node_template: NodeConfig {
                // No data cache: reads must survive storage faults, not
                // hide behind a warm cache.
                data_cache_bytes: 0,
                rng_seed: seed,
                phase_hook: Some(schedule.clone()),
                ..NodeConfig::default()
            },
            gc_enabled: false,
            replacement_delay: Duration::ZERO,
            ..ClusterConfig::default()
        };
        let cluster = Cluster::with_clock(cluster_config, storage, TickingClock::shared(1_000, 1))
            .expect("fault-free construction: storage faults are off until the load starts");
        let client = networked.then(|| {
            AftClient::builder()
                .pool_size(config.clients.max(2))
                .retry(aft_storage::io::RetryConfig {
                    max_attempts: 6,
                    base_backoff: Duration::from_micros(200),
                    max_backoff: Duration::from_millis(2),
                })
                .rng_seed(seed ^ 0x5DC)
                .phase_hook(schedule.clone())
                .pipe(&AftServer::builder().pipe(Arc::clone(&cluster)))
        });
        Trial {
            cluster,
            client,
            schedule,
        }
    }
}

impl Deployment for Trial {
    fn cluster(&self) -> Arc<Cluster> {
        Arc::clone(&self.cluster)
    }

    /// A routed node in-process, the SDK client when the trial has one.
    fn api(&self) -> AftResult<Arc<dyn AftApi>> {
        match &self.client {
            Some(client) => Ok(Arc::clone(client) as Arc<dyn AftApi>),
            None => self.cluster.api(),
        }
    }
}

/// Runs one trial of one cell and verifies its invariants. One schedule per
/// trial: every fault — storage, connection, platform, partition — derives
/// from its seed, and the node kill from the cell, so the seed replays all
/// of them.
fn run_trial(
    backend: BackendKind,
    fault_mode: FaultMode,
    kill_point: CommitPhase,
    trial_seed: u64,
    config: &RecoveryConfig,
) -> TrialResult {
    // The victim dies mid-commit partway through the load.
    let after = kill_delay(kill_point, config);
    let schedule = fault_mode.schedule(trial_seed);
    let schedule = schedule.kill("aft-node-1", kill_point, after);
    let networked = fault_mode.networked();
    let trial = Trial::set_up(backend, trial_seed, schedule, networked, config);
    let cluster = &trial.cluster;
    let billed = cluster.storage().stats().snapshot();
    trial.schedule.lock().storage_faults(true);
    // A failed round is the next's to retry.
    let load = sim::run(&trial, requests(config), &mut &*trial.schedule);

    // The load is done; drive recovery to convergence.
    let outcome = drive_recovery(cluster, 200);
    let storage_calls = cluster
        .storage()
        .stats()
        .snapshot()
        .delta_since(&billed)
        .total_calls();

    // Verification reads ground truth with storage faults off: the
    // invariants are about the *cluster's* state, not about whether the
    // verifier's own reads can fail. (Request faults only ever meet the
    // SDK, and the verifier reads in-process.)
    trial.schedule.lock().storage_faults(false);
    // Full commit-set recovery, modulo §4.1 supersedence: every durable
    // record must be *known* to every active node.
    let (records, unrecovered) = sim::durable_records(cluster);
    let active = cluster.active_nodes();
    let io_retries =
        active.iter().map(|n| n.io().stats().retries).sum::<u64>() + cluster.io().stats().retries;
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
        faults_injected: faults_injected(&trial.schedule),
        storage_calls,
    }
}

/// Every fault a trial's schedule answered but the kill: one a storage
/// call, request or invocation it failed, and one a batch of commit records
/// it held in a round, however many records the batch carried.
fn faults_injected(schedule: &Shared<Seeded>) -> u64 {
    schedule.count(|a| !matches!(a, Answered::Phase(..)))
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

/// Runs the full matrix and returns its report.
pub(crate) fn fig10_recovery(config: &RecoveryConfig) -> Report {
    let mut cells = cells_sheet();
    for &fault_mode in &config.fault_modes {
        for &kill_point in &config.kill_points {
            for &backend in &config.backends {
                let cell_seed = config.cell_seed(fault_mode, kill_point, backend);
                let trials: Vec<TrialResult> = (0..config.trials)
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
                let labels = [backend.label(), fault_mode.label(), kill_point.label()];
                cells.push(labels.map(str::to_owned).to_vec(), cell_row(&trials));
            }
        }
    }
    Report {
        experiment: "fig10_recovery",
        sheets: vec![cells],
        checks,
    }
}

/// `fig10_recovery`'s own command-line flag.
pub(crate) const FLAGS: &[Flag] = &[Flag {
    name: "--mode",
    value: "LABEL",
    about: "restrict to one fault mode (network_resets, cross_layer, partition); with --seed, \
            zooms in on one failing cell",
}];

/// Sizes the matrix from the command line. The flag is true for a
/// single-mode replay (`--mode`), which gates on [`cell_checks`] alone.
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
    Ok(outcome(&config, fig10_recovery(&config), cells_only))
}

/// Packages a report as the gated run's [`Outcome`], on [`cell_checks`]
/// alone for a single-mode replay. A failing gate's replay is narrowed to
/// the first failing cell's fault mode: one mode's cells, not the matrix.
pub(crate) fn outcome(config: &RecoveryConfig, mut report: Report, cells_only: bool) -> Outcome {
    if cells_only {
        report.checks = cell_checks;
    }
    let mut outcome = Outcome::report(config.seed, config, report);
    let cells = outcome.report.sheet("cells");
    let broken = |row: &&[String]| {
        let mut values = INVARIANTS
            .iter()
            .map(|(_, column, holds)| (cells.value(row, column), holds));
        values.any(|(value, holds)| value != *holds)
    };
    let first = cells.keys().find(broken);
    outcome.replay = first
        .map(|row| ("--mode", row[1].clone()))
        .into_iter()
        .collect();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{assert_plants, assert_round_trips, Plant};
    use aft_core::NetFault;
    use aft_storage::Cut;
    use aft_types::{TransactionId, TransactionRecord};
    use aft_workload::history;
    use aft_workload::sim::{Exhaustive, Schedule, Scope};

    fn acked(load: &sim::Run) -> Vec<TransactionId> {
        load.history.iter().filter_map(Attempt::acked).collect()
    }

    /// The tiny matrix, measured once for every test here.
    fn tiny() -> &'static Report {
        static REPORT: std::sync::OnceLock<Report> = std::sync::OnceLock::new();
        REPORT.get_or_init(|| fig10_recovery(&RecoveryConfig::tiny()))
    }

    /// Asserts that every cell check holds.
    fn assert_cells_clean(report: &Report) {
        for (check, verdict) in cell_checks(report) {
            assert_eq!(verdict, Ok(()), "{check}");
        }
    }

    /// A trial on the memory row whose schedule injects nothing.
    fn quiet_trial() -> Trial {
        let (schedule, config) = (Seeded::new(7, None), &RecoveryConfig::tiny());
        Trial::set_up(BackendKind::Memory, 7, schedule, false, config)
    }

    #[test]
    fn the_one_request_body_acks_atomically_and_durably_on_a_node_and_over_the_wire() {
        let mut trial = quiet_trial();
        for over_the_wire in [false, true] {
            if over_the_wire {
                let server = AftServer::builder().pipe(Arc::clone(&trial.cluster));
                trial.client = Some(AftClient::builder().pipe(&server));
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
            let trial = quiet_trial();
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
        let trial = quiet_trial();
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
        for networked in [false, true] {
            let broken = Seeded::new(11, None).transients(1.0);
            let broken = broken.kill("aft-node-1", CommitPhase::BeforeBroadcast, 0);
            let resets = if networked { 0.05 } else { 0.0 };
            let broken = broken.resets(resets, 0.0, Duration::ZERO);
            let config = &RecoveryConfig::tiny();
            let trial = Trial::set_up(BackendKind::DynamoDb, 11, broken, networked, config);
            assert_eq!(trial.client.is_some(), networked);
            assert_eq!(
                trial.cluster.active_nodes().len(),
                RecoveryConfig::tiny().nodes
            );
            assert_eq!(
                trial.schedule.answered(),
                [],
                "construction runs with storage faults off"
            );
            // The leg is armed all the same: it bites once the load starts.
            trial.schedule.lock().storage_faults(true);
            assert!(trial.cluster.storage().get("probe").is_err());
        }
    }

    #[test]
    fn full_tiny_matrix_is_clean() {
        // The acceptance shape: 3 fault modes (network, cross-layer and
        // metadata partition) x 4 kill points (3 commit phases + the
        // bootstrap, one backend), zero anomalies, zero lost commits, full
        // recovery, convergence.
        let report = tiny();
        let cells = report.sheet("cells");
        assert_eq!(cells.keys().count(), 12);
        assert_eq!(report.gate(), Ok(()));
        for column in ["anomalies", "lost_commits", "unrecovered"] {
            assert_eq!(cells.sum(column), 0.0, "{column}");
        }
        // The chaos actually bit: faults were injected and commits survived.
        assert!(
            cells.sum("faults_injected") > 0.0,
            "the matrix must inject faults"
        );
        assert!(cells.sum("durable_commits") > 0.0);
        // One seeded thread chooses the interleaving, so these counts are
        // exact: a change that moves them changes what the matrix runs. The
        // storage leg answers each call from its key's own stream, so a call
        // added on one key moves no fault on another.
        assert_eq!(cells.sum("recovered_commits"), 7.0);
        assert_eq!(cells.sum("io_retries"), 13.0);
    }

    #[test]
    fn a_held_batch_is_one_fault_however_many_records_it_carries() {
        // Every link is cut in every round, and three commits on the first
        // of two nodes make one batch for its peer.
        let config = &RecoveryConfig {
            nodes: 2,
            ..RecoveryConfig::tiny()
        };
        let schedule = Seeded::new(7, None).partition(1.0, 0..u64::MAX);
        let trial = Trial::set_up(BackendKind::Memory, 7, schedule, false, config);
        let node = &trial.cluster.active_nodes()[0];
        for i in 0..3 {
            let t = node.start_transaction();
            node.put(&t, Key::new(format!("k{i}")), "v".into()).unwrap();
            node.commit(&t).unwrap();
        }
        let round = trial.cluster.run_maintenance_round().unwrap();
        let records = round.broadcast.link_drops;
        assert_eq!(records, 3, "the batch held carries all three");
        assert_eq!(faults_injected(&trial.schedule), 1);
    }

    #[test]
    fn a_seed_replays_the_run() {
        // Each run builds fresh hash maps with fresh hash keys, so a result
        // that hung on iteration order would differ here.
        let again = fig10_recovery(&RecoveryConfig::tiny());
        assert_eq!(again.to_json().render(), tiny().to_json().render());
    }

    #[test]
    fn a_single_mode_replay_runs_the_full_matrix_cells() {
        let replay = fig10_recovery(&RecoveryConfig {
            fault_modes: vec![FaultMode::Partition],
            ..RecoveryConfig::tiny()
        });
        let mut partition = tiny().sheet("cells").clone();
        partition.retain(|row| row[1] == FaultMode::Partition.label());
        assert_eq!(partition.keys().count(), 4);
        let render = |sheet: &Sheet| sheet.to_json().render();
        assert_eq!(render(replay.sheet("cells")), render(&partition));
    }

    #[test]
    fn cross_layer_mode_arms_every_layer_from_one_seed() {
        // Every leg answers from the trial seed alone: re-deriving the
        // schedule from the same seed replays every layer's answers
        // bit-identically — the property `--seed N` relies on.
        let answers = || {
            let mut schedule = FaultMode::CrossLayer.schedule(0xF1610);
            schedule.storage_faults(true);
            let mut answer = |i| {
                let cut = schedule.cut(&format!("data/k{}", i % 40), 1);
                (cut, schedule.deliver("commit"), schedule.fate())
            };
            (0..400).map(&mut answer).collect::<Vec<_>>()
        };
        let first = answers();
        assert_eq!(answers(), first);
        assert!(first.iter().any(|(cut, ..)| *cut != Cut::Pass), "storage");
        assert!(
            first.iter().any(|(_, net, _)| *net != NetFault::None),
            "net"
        );
        assert!(first.iter().any(|(.., fate)| fate.is_some()), "faas");
        assert!(FaultMode::CrossLayer.networked());
    }

    #[test]
    fn cross_layer_cells_inject_and_stay_clean() {
        let config = RecoveryConfig {
            kill_points: vec![CommitPhase::BeforeRecordAppend],
            fault_modes: vec![FaultMode::CrossLayer],
            ..RecoveryConfig::tiny()
        };
        let report = fig10_recovery(&config);
        assert_cells_clean(&report);
        let faults = report.sheet("cells").sum("faults_injected");
        assert!(faults > 0.0, "the cross-layer cell must inject faults");
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
        let recovered = report.sheet("cells").sum("recovered_commits");
        assert!(
            recovered > 0.0,
            "a BeforeBroadcast kill strands commits that only the storage \
             scan can recover, got {recovered}"
        );
        // A single cell is below the gate's matrix floor; check the
        // invariants directly instead.
        assert_cells_clean(&report);
    }

    #[test]
    fn a_torn_bootstrap_replaces_the_victim_and_stays_clean() {
        // The bootstrap cell: the victim dies at its first commit, its
        // replacement's bootstrap is torn, and the cluster retries the
        // replacement to convergence, keeping every invariant.
        let config = RecoveryConfig {
            kill_points: vec![CommitPhase::DuringBootstrap],
            fault_modes: vec![FaultMode::CrossLayer],
            ..RecoveryConfig::tiny()
        };
        let report = fig10_recovery(&config);
        assert_cells_clean(&report);
        let cells = report.sheet("cells");
        for row in cells.keys() {
            assert!(
                cells.value(row, "replaced_nodes") > 0.0,
                "{}: the kill must actually fire and cost the victim",
                row[2]
            );
        }
        // The tear itself: the victim dies at its first commit, the first
        // replacement dies in its bootstrap, and the next one joins.
        let schedule = Seeded::new(7, None).kill("aft-node-1", CommitPhase::DuringBootstrap, 0);
        let trial = Trial::set_up(BackendKind::Memory, 7, schedule, false, &config);
        let victim = trial.cluster.active_nodes().remove(1);
        let t = victim.start_transaction();
        victim.put(&t, Key::new("k"), "v".into()).unwrap();
        assert!(victim.commit(&t).is_err(), "killed before its broadcast");
        let outcome = drive_recovery(&trial.cluster, 10);
        assert!(outcome.converged);
        assert_eq!(outcome.replaced_nodes, 1);
        let torn = |a: &Answered| {
            matches!(
                a,
                Answered::Phase(_, CommitPhase::DuringBootstrap, sim::Answer::Kill)
            )
        };
        assert_eq!(trial.schedule.count(torn), 1);
    }

    #[test]
    fn recovery_converges_quickly_when_nothing_is_wrong() {
        let trial = quiet_trial();
        let outcome = drive_recovery(&trial.cluster, 10);
        assert!(outcome.converged);
        assert_eq!(outcome.replaced_nodes, 0);
        assert!(outcome.rounds <= 3, "quiet cluster converges in 2 rounds");
    }

    #[test]
    fn a_planted_violation_fails_exactly_its_check() {
        const CELL: [&str; 3] = ["Memory", "partition", "before_broadcast"];
        let plant = |column, value| move |cells: &mut Sheet| cells.set(&CELL, column, value);
        let cases: [(&str, Plant<'_>); 5] = [
            (COVERAGE, &|cells| cells.retain(|row| row[1] == "partition")),
            (INVARIANTS[0].0, &plant("anomalies", 2.0)),
            (INVARIANTS[1].0, &plant("lost_commits", 1.0)),
            (INVARIANTS[2].0, &plant("unrecovered", 1.0)),
            (INVARIANTS[3].0, &plant("converged", 0.0)),
        ];
        assert_plants(tiny(), "cells", &cases);
        // An anomalous cell names its first anomalous step.
        let mut report = tiny().clone();
        let cells = report.sheet_mut("cells");
        cells.set(&CELL, "anomalies", 2.0);
        cells.set(&CELL, "first_anomaly_trial", 0.0);
        cells.set(&CELL, "first_anomaly_step", 42.0);
        assert_eq!(
            report.gate().unwrap_err(),
            "0 read-atomicity anomalies: Memory/partition/before_broadcast: anomalies 2, \
             first at step 42 of trial 0"
        );
    }

    #[test]
    fn json_document_round_trips() {
        assert_round_trips(tiny());
    }
}
