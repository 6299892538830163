//! The fault manager's floor scan against the full scan it replaced.
//!
//! A scan lists the Transaction Commit Set from the manager's floor, not from
//! its start (§4.2). These tests show that it still recovers every commit
//! record nobody multicast: the specific ways a record can be lost — a kill
//! after the record is durable, a flush whose record landed but whose
//! acknowledgement never did, a failed node's commit landing after the round
//! that found the node failed — and then a seeded stepper that interleaves
//! commits on three nodes with kills at every [`CommitPhase`], flush errors,
//! maintenance rounds run from inside a commit, replacements and rounds,
//! under a clock that jumps back and forth so commits land below the floor.
//! Every round keeps the full scan as the reference: what it would recover is
//! exactly what the floor scan recovers. `AFT_TEST_SEED` picks the stepper's
//! script; with `--nocapture` the test prints what it recovered and listed.
//!
//! The stepper is its own, not `aft_workload::sim`'s: its kills and rounds
//! fire *inside* `AftNode::commit`, at a [`CommitPhase`], through a
//! [`CommitProbe`], and each of its rounds runs the reference full scan
//! between dissemination and the fault manager's scan. A `sim` schedule
//! only steps between calls, and only runs whole rounds.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use aft_chaos::{ChaosSpec, StorageChaos};
use aft_cluster::{ChaosController, Cluster, ClusterConfig, GlobalGc, KillPlan};
use aft_core::{AftNode, CommitPhase, CommitProbe, LocalGcConfig};
use aft_storage::StorageEngine;
use aft_storage::{FaultyBackend, InMemoryStore, SharedStorage};
use aft_types::clock::{Clock, MockClock, TickingClock};
use aft_types::{
    AftError, AftResult, Key, SharedClock, Timestamp, TransactionId, TransactionRecord,
};
use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// CI's seed-matrix leg sets `AFT_TEST_SEED`; re-run a failing leg with
/// `AFT_TEST_SEED=<seed> cargo test -p aft-cluster --test floor_scan`.
fn test_seed() -> u64 {
    std::env::var("AFT_TEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn commit_on(node: &AftNode, key: &str) -> AftResult<TransactionId> {
    let t = node.start_transaction();
    node.put(&t, Key::new(key), Bytes::copy_from_slice(key.as_bytes()))?;
    node.commit(&t)
}

/// Commits `n` transactions on the active nodes in turn and runs a round, so
/// the fault manager's floor has moved past them.
fn history(cluster: &Cluster, n: usize) {
    for i in 0..n {
        commit_on(&cluster.route().unwrap(), &format!("history/{i}")).unwrap();
    }
    cluster.run_maintenance_round().unwrap();
    cluster.run_maintenance_round().unwrap();
}

fn readable_everywhere(cluster: &Cluster, key: &str) {
    for node in cluster.active_nodes() {
        let t = node.start_transaction();
        assert!(
            node.get(&t, &Key::new(key)).unwrap().is_some(),
            "{} must serve {key}",
            node.node_id()
        );
        node.abort(&t).unwrap();
    }
}

#[test]
fn a_kill_before_broadcast_is_recovered_the_next_round() {
    let cluster = Cluster::with_clock(
        ClusterConfig::test(3),
        InMemoryStore::shared(),
        TickingClock::shared(1, 1),
    )
    .unwrap();
    history(&cluster, 30);
    let controller = ChaosController::new(Arc::clone(&cluster));
    let victim = controller
        .arm_kill(KillPlan::immediate(
            "aft-node-1",
            CommitPhase::BeforeBroadcast,
        ))
        .unwrap();
    assert!(commit_on(&victim, "silent").is_err());
    assert_eq!(
        cluster.storage().list_prefix("data/silent/").unwrap().len(),
        1
    );

    let stats = cluster.run_maintenance_round().unwrap();
    assert_eq!(stats.recovered_commits, 1);
    assert_eq!(
        stats.scan_listed, 1,
        "only what committed since the last scan"
    );
    readable_everywhere(&cluster, "silent");
}

#[test]
fn a_record_that_landed_under_a_failed_flush_is_recovered() {
    // A schedule whose first four decisions are transient errors, at least
    // one of them applied: every attempt of the record's put fails, and the
    // record lands anyway.
    let attempts = aft_core::NodeConfig::test().io.retry.max_attempts;
    let spec = (0..)
        .map(|seed| ChaosSpec::new(seed).storage(StorageChaos::transient_errors(1.0)))
        .find(|spec| {
            spec.schedule()
                .materialize(aft_chaos::Layer::Storage, attempts.into(), "")
                .contains(&aft_chaos::FaultKind::TransientError { applied: true })
        })
        .expect("some seed applies one of the attempts");
    let inner = InMemoryStore::shared();
    let faulty = FaultyBackend::from_spec(inner.clone(), &spec);
    faulty.set_enabled(false);
    let clock = MockClock::starting_at(1_000);
    let cluster =
        Cluster::with_clock(ClusterConfig::test(2), faulty.clone(), clock.shared()).unwrap();
    for _ in 0..20 {
        clock.advance(10);
        commit_on(&cluster.route().unwrap(), "history").unwrap();
    }
    cluster.run_maintenance_round().unwrap();
    cluster.run_maintenance_round().unwrap();

    // The node's clock is behind everything the fault manager has seen, so
    // only the node's report can point the scan at the record.
    clock.set(10);
    let node = cluster.route().unwrap();
    node.install_commit_probe(Arc::new(ChaosAt {
        phase: CommitPhase::BeforeRecordAppend,
        faulty: Arc::clone(&faulty),
    }));
    assert!(matches!(
        commit_on(&node, "unacked"),
        Err(AftError::StorageTransient(_))
    ));
    faulty.set_enabled(false);
    node.clear_commit_probe();
    assert_eq!(inner.list_prefix("data/unacked/").unwrap().len(), 1);

    clock.set(2_000);
    let stats = cluster.run_maintenance_round().unwrap();
    assert_eq!(stats.recovered_commits, 1);
    readable_everywhere(&cluster, "unacked");
}

/// Turns storage chaos on at one commit phase.
struct ChaosAt {
    phase: CommitPhase,
    faulty: Arc<FaultyBackend>,
}

impl CommitProbe for ChaosAt {
    fn before_phase(&self, _: &str, _: &TransactionId, phase: CommitPhase) -> AftResult<()> {
        if phase == self.phase {
            self.faulty.set_enabled(true);
        }
        Ok(())
    }
}

#[test]
fn a_failed_nodes_commit_that_lands_after_the_round_that_found_it_failed_is_recovered() {
    let clock = MockClock::starting_at(1_000);
    let cluster = Cluster::with_clock(
        ClusterConfig::test(3),
        InMemoryStore::shared(),
        clock.shared(),
    )
    .unwrap();
    for _ in 0..20 {
        clock.advance(10);
        commit_on(&cluster.route().unwrap(), "history").unwrap();
    }
    cluster.run_maintenance_round().unwrap();

    // Mid-commit, before its data is written, the node is declared failed
    // and a round runs without it; then the commit carries on and lands.
    clock.set(10);
    let node = cluster.registry().get("aft-node-2").unwrap();
    let rounds = Arc::new(Mutex::new(Vec::new()));
    node.install_commit_probe(Arc::new(FailThenRound {
        cluster: Arc::downgrade(&cluster),
        rounds: Arc::clone(&rounds),
    }));
    let id = commit_on(&node, "late").unwrap();
    let during = rounds.lock()[0];
    assert_eq!(
        during, 0,
        "nothing to recover while the commit is in flight"
    );

    clock.set(2_000);
    let stats = cluster.run_maintenance_round().unwrap();
    assert_eq!(stats.recovered_commits, 1);
    assert!(cluster.fault_manager().metadata().is_committed(&id));
    readable_everywhere(&cluster, "late");
}

/// At a commit's first phase, marks its node failed and runs a maintenance
/// round, recording what it recovered; the commit then goes on.
struct FailThenRound {
    cluster: Weak<Cluster>,
    rounds: Arc<Mutex<Vec<usize>>>,
}

impl CommitProbe for FailThenRound {
    fn before_phase(&self, node_id: &str, _: &TransactionId, phase: CommitPhase) -> AftResult<()> {
        if phase == CommitPhase::BeforeDataPut {
            let cluster = self
                .cluster
                .upgrade()
                .expect("the cluster outlives its nodes' commits");
            cluster.kill_node(node_id);
            let stats = cluster.run_maintenance_round()?;
            self.rounds.lock().push(stats.recovered_commits);
        }
        Ok(())
    }
}

#[test]
fn a_failed_scan_leaves_the_reports_it_took_to_the_next() {
    let spec = ChaosSpec::new(7).storage(StorageChaos::transient_errors(1.0));
    let inner = InMemoryStore::shared();
    let faulty = FaultyBackend::from_spec(inner.clone(), &spec);
    faulty.set_enabled(false);
    let clock = MockClock::starting_at(1_000);
    let cluster =
        Cluster::with_clock(ClusterConfig::test(2), faulty.clone(), clock.shared()).unwrap();
    for _ in 0..10 {
        clock.advance(10);
        commit_on(&cluster.route().unwrap(), "history").unwrap();
    }
    cluster.run_maintenance_round().unwrap();

    // A commit below the floor that only its node's report can point at...
    clock.set(10);
    let node = cluster.registry().get("aft-node-0").unwrap();
    node.install_commit_probe(Arc::new(CrashAt(CommitPhase::BeforeBroadcast)));
    assert!(commit_on(&node, "reported").is_err());
    node.clear_commit_probe();

    // ...is taken by a round whose scan fails, and covered by the next.
    clock.set(2_000);
    faulty.set_enabled(true);
    assert!(cluster.run_maintenance_round().is_err());
    faulty.set_enabled(false);
    let stats = cluster.run_maintenance_round().unwrap();
    assert_eq!(stats.recovered_commits, 1);
    readable_everywhere(&cluster, "reported");
}

/// Fails every commit at one phase.
struct CrashAt(CommitPhase);

impl CommitProbe for CrashAt {
    fn before_phase(&self, node_id: &str, _: &TransactionId, phase: CommitPhase) -> AftResult<()> {
        if phase == self.0 {
            return Err(AftError::Unavailable(format!("{node_id} crashed")));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The stepper
// ---------------------------------------------------------------------------

const TRIALS: u64 = 6;
const STEPS: usize = 300;
const KEYS: usize = 12;

/// A clock that ticks forward and then subtracts a seeded jitter of up to
/// [`JITTER`] ticks, so a commit often takes a timestamp below records the
/// fault manager has already seen — a lost one is then found only through
/// its node's report.
struct JitteryClock {
    ticks: AtomicU64,
    rng: Mutex<StdRng>,
}

const JITTER: u64 = 400;

impl Clock for JitteryClock {
    fn now(&self) -> Timestamp {
        let tick = self.ticks.fetch_add(4, Ordering::SeqCst) + JITTER;
        tick - self.rng.lock().gen_range(0..JITTER)
    }
}

/// What a commit does at one of its phases.
#[derive(Debug, Clone, Copy)]
enum Twist {
    /// The node crashes there and stays down.
    Kill,
    /// A checked maintenance round runs there, and the commit goes on.
    Round,
}

/// The one probe on each node: a dead node fails every commit; an armed
/// twist fires once, at its phase.
struct Probe {
    trial: Weak<Trial>,
    dead: AtomicBool,
    armed: Mutex<Option<(CommitPhase, Twist)>>,
}

impl CommitProbe for Probe {
    fn before_phase(&self, node_id: &str, _: &TransactionId, phase: CommitPhase) -> AftResult<()> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(AftError::Unavailable(format!("{node_id} is down")));
        }
        let mut armed = self.armed.lock();
        match *armed {
            Some((at, twist)) if at == phase => {
                *armed = None;
                drop(armed);
                let trial = self
                    .trial
                    .upgrade()
                    .expect("the trial outlives its commits");
                match twist {
                    Twist::Kill => {
                        self.dead.store(true, Ordering::SeqCst);
                        trial.cluster.kill_node(node_id);
                        Err(AftError::Unavailable(format!("{node_id} crashed")))
                    }
                    Twist::Round => {
                        trial.checked_round();
                        Ok(())
                    }
                }
            }
            _ => Ok(()),
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    rounds: usize,
    recovered: usize,
    /// Recovered records older than the newest one the fault manager knew at
    /// the previous scan: only a node's report could point the scan at them.
    below_horizon: usize,
    floor_listed: usize,
    full_listed: usize,
}

struct Trial {
    cluster: Arc<Cluster>,
    raw: Arc<InMemoryStore>,
    faulty: Arc<FaultyBackend>,
    gc: GlobalGc,
    probes: Mutex<HashMap<String, Arc<Probe>>>,
    /// The newest timestamp the fault manager knew when the last scan began.
    horizon: Mutex<Timestamp>,
    tally: Mutex<Tally>,
}

impl Trial {
    fn new(seed: u64) -> Arc<Trial> {
        let raw = InMemoryStore::shared();
        let spec = ChaosSpec::new(seed).storage(StorageChaos::transient_errors(0.9));
        let faulty = FaultyBackend::from_spec(raw.clone() as SharedStorage, &spec);
        faulty.set_enabled(false);
        let clock: SharedClock = Arc::new(JitteryClock {
            ticks: AtomicU64::new(0),
            rng: Mutex::new(StdRng::seed_from_u64(seed ^ 0xC10C)),
        });
        let mut config = ClusterConfig::test(3);
        config.node_template.rng_seed = seed;
        let cluster = Cluster::with_clock(config, faulty.clone(), clock).unwrap();
        Arc::new(Trial {
            cluster,
            raw,
            faulty,
            gc: GlobalGc::default(),
            probes: Mutex::new(HashMap::new()),
            horizon: Mutex::new(0),
            tally: Mutex::new(Tally::default()),
        })
    }

    fn probe(self: &Arc<Self>, node: &AftNode) -> Arc<Probe> {
        let mut probes = self.probes.lock();
        let probe = probes.entry(node.node_id().to_owned()).or_insert_with(|| {
            let probe = Arc::new(Probe {
                trial: Arc::downgrade(self),
                dead: AtomicBool::new(false),
                armed: Mutex::new(None),
            });
            node.install_commit_probe(Arc::clone(&probe) as Arc<dyn CommitProbe>);
            probe
        });
        Arc::clone(probe)
    }

    fn committed_in_storage(&self) -> Vec<TransactionId> {
        self.raw
            .list_prefix(&TransactionRecord::storage_prefix())
            .unwrap()
            .iter()
            .map(|key| TransactionRecord::id_from_storage_key(key).unwrap())
            .collect()
    }

    /// One maintenance round, as the cluster runs it, with the full scan
    /// computed between the drain and the fault manager's scan: what the
    /// full scan would recover is exactly what the floor scan recovers.
    fn checked_round(&self) {
        let cluster = &self.cluster;
        let fm = cluster.fault_manager();
        let nodes = cluster.active_nodes();
        cluster.disseminator().round(&nodes, Some(fm));

        let full = self.committed_in_storage();
        let missing: HashSet<TransactionId> = full
            .iter()
            .filter(|id| !fm.metadata().is_committed(id))
            .copied()
            .collect();
        let newest = fm
            .metadata()
            .all_records()
            .iter()
            .map(|record| record.id.timestamp)
            .max()
            .unwrap_or(0);
        let horizon = std::mem::replace(&mut *self.horizon.lock(), newest);
        let scan = fm.scan_commit_set(cluster.io(), &nodes).unwrap();
        assert_eq!(
            scan.recovered,
            missing.len(),
            "the full scan recovers {missing:?}"
        );
        for id in &missing {
            assert!(fm.metadata().is_committed(id), "{id:?} is still missing");
        }
        {
            let mut tally = self.tally.lock();
            tally.rounds += 1;
            tally.recovered += scan.recovered;
            tally.below_horizon += missing.iter().filter(|id| id.timestamp < horizon).count();
            tally.floor_listed += scan.listed;
            tally.full_listed += full.len();
        }

        for node in &nodes {
            node.run_local_gc(&LocalGcConfig::default());
        }
        self.gc.run_round(fm, &nodes, cluster.io()).unwrap();
    }

    /// One commit on a registered node — perhaps a failed one — perhaps
    /// under storage chaos or with a twist armed.
    fn commit(self: &Arc<Self>, rng: &mut StdRng) {
        let nodes = self.cluster.registry().all_nodes();
        let (node, _) = &nodes[rng.gen_range(0..nodes.len())];
        let probe = self.probe(node);
        let twist = (rng.gen_range(0..5) == 0).then(|| {
            let phase = CommitPhase::ALL[rng.gen_range(0..CommitPhase::ALL.len())];
            let twist = if rng.gen_bool(0.5) {
                Twist::Kill
            } else {
                Twist::Round
            };
            (phase, twist)
        });
        // A round inside the commit runs on clean storage.
        let chaos = !matches!(twist, Some((_, Twist::Round))) && rng.gen_range(0..4) == 0;
        *probe.armed.lock() = twist;
        let t = node.start_transaction();
        for _ in 0..rng.gen_range(1..3) {
            let key = Key::new(format!("k{}", rng.gen_range(0..KEYS)));
            node.put(&t, key, Bytes::from_static(b"v")).unwrap();
        }
        self.faulty.set_enabled(chaos);
        let _ = node.commit(&t);
        self.faulty.set_enabled(false);
        *probe.armed.lock() = None;
    }
}

#[test]
fn the_floor_scan_recovers_exactly_what_the_full_scan_recovers() {
    let mut total = Tally::default();
    for trial_index in 0..TRIALS {
        let seed = test_seed()
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(trial_index);
        let trial = Trial::new(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57E9);
        for _ in 0..STEPS {
            match rng.gen_range(0..20) {
                0..=11 => trial.commit(&mut rng),
                12..=17 => trial.checked_round(),
                _ => {
                    let _ = trial.cluster.replace_failed_nodes();
                }
            }
        }
        trial.cluster.replace_failed_nodes().unwrap();
        trial.checked_round();
        trial.checked_round();
        // Everything in storage is known: a full scan would find nothing.
        let fm = trial.cluster.fault_manager();
        for id in trial.committed_in_storage() {
            assert!(fm.metadata().is_committed(&id), "{id:?}");
        }
        let tally = *trial.tally.lock();
        total.rounds += tally.rounds;
        total.recovered += tally.recovered;
        total.below_horizon += tally.below_horizon;
        total.floor_listed += tally.floor_listed;
        total.full_listed += tally.full_listed;
    }
    println!("seed {}: {total:?}", test_seed());
    assert!(total.recovered > 0, "no record was ever lost: {total:?}");
    assert!(
        total.below_horizon > 0,
        "no lost record needed a node's report: {total:?}"
    );
    assert!(
        total.floor_listed < total.full_listed,
        "the floor scan listed no less than the full scan: {total:?}"
    );
}
