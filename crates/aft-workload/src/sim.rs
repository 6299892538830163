//! One stepper: clients, maintenance rounds and platform faults on one
//! thread, each choice taken from a [`Schedule`], so a list of choices
//! replays a run, counts included.
//!
//! A client is data: a list of [`Request`]s, each a list of `r k` / `w k`
//! micro-ops in the shape of a Maelstrom `txn`. An attempt is `begin`, one
//! [`AftApi`] call per op, then `commit`, and each call is one step; every
//! written value is the writer's UUID. Each attempt runs behind a
//! [`Recorder`] that carries its request's id, and the run's anomalies are
//! [`history::check`]'s verdict on what the clients saw. A retryable error
//! aborts the attempt and retries the request; any other error is a bug.
//!
//! A schedule picks each [`Step`], each invocation's fate, each storage
//! write's [`Cut`] and each [`CommitPhase`]'s [`Answer`]: a platform re-runs
//! a request whose invocation died before, inside or after its body
//! (§3.3.1), [`FailurePoint::MidBody`] aborts right after the attempt's
//! first write (the §1 fractional update), a write lands, fails back to its
//! caller or crashes the cluster with as much of its call applied as the
//! service allows ([`CutStore`]), and a node reaching a phase goes on, parks
//! its commit while other steps run, or dies there ([`PhaseHook`]). After a
//! storage crash the stepper restarts the cluster over the surviving storage
//! and re-invokes every open attempt; after a kill it replaces the node only
//! when none is left active. [`Seeded`] samples one schedule, never cuts or
//! parks, and kills only where [`Seeded::kill`] says. [`Exhaustive`] is
//! stateless model checking: it walks the choice tree depth first within a
//! [`Scope`]'s budgets, replaying each schedule on a fresh cluster, and
//! [`walk`] panics on a schedule that [`settle`] finds at fault, naming the
//! choice list that [`Exhaustive::replay`] re-runs.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::{mpsc, Arc};

use aft_cluster::{Cluster, ClusterConfig};
use aft_core::api::AftApi;
use aft_core::bootstrap::{fetch_commit_records, warm_metadata_cache_checkpointed};
use aft_core::{is_superseded, AftNode, CheckpointPolicy, MetadataCache, PhaseHook};
use aft_faas::FailurePoint::{AfterBody, BeforeBody, MidBody};
use aft_faas::{FailureInjector, FailurePoint};
use aft_storage::io::{IoConfig, IoEngine};
use aft_storage::{
    make_backend, BackendConfig, BackendKind, Cut, CutHook, CutStore, SharedStorage,
};
use aft_types::clock::TickingClock;
use aft_types::{
    AftError, AftResult, CommitPhase, Key, KeyVersion, SharedClock, TransactionId,
    TransactionRecord, Uuid,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::history::{self, Attempt, FinalRead, History, Recorder, Verdict};

/// One step in this many is a maintenance round, so multicast, GC and
/// fault-manager scans run *under load*, as in the paper (§4).
pub const MAINTENANCE_ONE_IN: u32 = 8;

/// One micro-op of a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `r k`: reads `k`.
    Read(Key),
    /// `w k`: writes `k` the writer's UUID.
    Write(Key),
}

/// The micro-ops one invocation runs between its `begin` and its commit.
pub type Request = Vec<Op>;

/// Parses `"r a, w b"`: a request that reads `a`, then writes `b`.
pub fn request(ops: &str) -> Request {
    let op = |op: &str| match op.split_once(' ') {
        Some(("r", key)) => Op::Read(Key::new(key)),
        Some(("w", key)) => Op::Write(Key::new(key)),
        _ => panic!("not `r k` or `w k`: {op:?}"),
    };
    ops.split(", ").map(op).collect()
}

/// What one run observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Run {
    /// Every attempt, as its client saw it, in `begin` order.
    pub history: Vec<Attempt>,
    /// Read anomalies in the history ([`history::Verdict::anomalies`]).
    pub anomalies: u64,
    /// The earliest step at which an attempt with an anomaly made its last
    /// call.
    pub first_anomaly_step: Option<u64>,
    /// Attempts abandoned and re-invoked.
    pub client_retries: u64,
    /// Steps taken.
    pub steps: u64,
    /// Maintenance rounds run.
    pub rounds: u64,
    /// Maintenance rounds run while some attempt had a transaction open.
    pub racing_rounds: u64,
    /// Maintenance rounds that returned an error.
    pub failed_rounds: u64,
    /// Restarts of the whole cluster after a storage crash.
    pub restarts: u64,
}

/// What a step does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Runs a maintenance round.
    Round,
    /// Takes the `n`th busy client's next call.
    Client(usize),
    /// Starts a second attempt of the `n`th busy client's open request, as
    /// a client of its own (Jangda et al.'s concurrent re-run).
    Duplicate(usize),
    /// Kills active node 0 and replaces it; attempts open on it carry on.
    Failover,
}

/// What a node does at a [`CommitPhase`] it reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// The phase runs.
    Go,
    /// The commit waits at the phase while the stepper takes other steps,
    /// until its client's next [`Step::Client`] resumes it.
    Park,
    /// The node crashes at the phase ([`AftNode::crashed`]).
    Kill,
}

/// Where a run's choices come from.
pub trait Schedule {
    /// The next step, one of `options`: a round, each busy client, a
    /// duplicate of each one with an attempt open, a failover.
    fn step(&mut self, options: &[Step]) -> Step;
    /// An invocation's fate: `None` runs it clean.
    fn fate(&mut self) -> Option<FailurePoint>;
    /// How a storage write call of `units` independently applied units
    /// ends ([`CutStore`]).
    fn cut(&mut self, units: usize) -> Cut;
    /// What `node` does at `phase`; [`Answer::Park`] only if `parkable`.
    fn phase(&mut self, node: &str, phase: CommitPhase, parkable: bool) -> Answer;
    /// Whether the next commit may park, so it runs on a thread of its own.
    fn parks(&self) -> bool {
        false
    }
}

/// A sampled schedule: a round one step in [`MAINTENANCE_ONE_IN`], else a
/// uniformly drawn busy client, from one seeded `StdRng`, the fates
/// `injector` draws, and the one kill [`Seeded::kill`] plans. It never
/// duplicates, fails over, cuts or parks.
pub struct Seeded {
    rng: StdRng,
    injector: Option<Arc<FailureInjector>>,
    kill: Option<Kill>,
}

/// A planned kill: the victim, its phase, how many times the victim passes
/// the phase first, and whether the kill and its torn bootstrap happened.
struct Kill {
    victim: String,
    phase: CommitPhase,
    after: u64,
    fired: bool,
    torn: bool,
}

impl Seeded {
    /// The schedule `seed` draws, with `injector`'s fates.
    pub fn new(seed: u64, injector: Option<Arc<FailureInjector>>) -> Self {
        Seeded {
            rng: StdRng::seed_from_u64(seed),
            injector,
            kill: None,
        }
    }

    /// Kills `victim` the `after + 1`th time it reaches `phase`, without a
    /// draw. At [`CommitPhase::DuringCheckpointBootstrap`] the victim dies at
    /// [`CommitPhase::BeforeBroadcast`], its commit durable but silent, and
    /// the first bootstrap after that, its replacement's, is torn.
    pub fn kill(mut self, victim: &str, phase: CommitPhase, after: u64) -> Self {
        self.kill = Some(Kill {
            victim: victim.to_owned(),
            phase,
            after,
            fired: false,
            torn: false,
        });
        self
    }
}

impl Schedule for Seeded {
    fn step(&mut self, options: &[Step]) -> Step {
        if self.rng.gen_range(0..MAINTENANCE_ONE_IN) == 0 {
            return Step::Round;
        }
        let busy = options.iter().filter(|s| matches!(s, Step::Client(_)));
        Step::Client(self.rng.gen_range(0..busy.count()))
    }

    fn fate(&mut self) -> Option<FailurePoint> {
        self.injector.as_deref().and_then(FailureInjector::decide)
    }

    fn cut(&mut self, _: usize) -> Cut {
        Cut::Pass
    }

    fn phase(&mut self, node: &str, phase: CommitPhase, _: bool) -> Answer {
        let Some(kill) = &mut self.kill else {
            return Answer::Go;
        };
        let bootstrap = CommitPhase::DuringCheckpointBootstrap;
        if phase == bootstrap {
            let tear = kill.phase == bootstrap && kill.fired && !kill.torn;
            kill.torn |= tear;
            return if tear { Answer::Kill } else { Answer::Go };
        }
        let at = match kill.phase {
            CommitPhase::DuringCheckpointBootstrap => CommitPhase::BeforeBroadcast,
            at => at,
        };
        if kill.fired || node != kill.victim || phase != at {
            return Answer::Go;
        }
        if kill.after > 0 {
            kill.after -= 1;
            return Answer::Go;
        }
        kill.fired = true;
        Answer::Kill
    }
}

/// How many rounds, failed invocations, duplicates, failovers, crashes,
/// failed calls, parks and kills one [`Exhaustive`] schedule may take.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Scope {
    /// [`Step::Round`]s.
    pub rounds: u32,
    /// Fates other than a clean run.
    pub failures: u32,
    /// [`Step::Duplicate`]s.
    pub duplicates: u32,
    /// [`Step::Failover`]s.
    pub failovers: u32,
    /// [`Cut::Crash`]es.
    pub crashes: u32,
    /// [`Cut::Fail`]s.
    pub fails: u32,
    /// [`Answer::Park`]s.
    pub parks: u32,
    /// [`Answer::Kill`]s.
    pub kills: u32,
}

impl Scope {
    /// The budget `step` spends, if any.
    fn budget(&mut self, step: Step) -> Option<&mut u32> {
        match step {
            Step::Round => Some(&mut self.rounds),
            Step::Client(_) => None,
            Step::Duplicate(_) => Some(&mut self.duplicates),
            Step::Failover => Some(&mut self.failovers),
        }
    }
}

/// The schedules of a [`Scope`], depth first. A point with one option
/// records no choice.
#[derive(Debug, Default)]
pub struct Exhaustive {
    scope: Scope,
    /// What this schedule may still take.
    left: Scope,
    /// Each choice: the option taken, and how many there were (0 where a
    /// replayed list has not been met yet).
    path: Vec<(usize, usize)>,
    /// The choices made so far on this run.
    at: usize,
}

impl Exhaustive {
    /// The schedule of `scope` that makes `choices`, then the first option
    /// at every later choice; `&[]` is the walk's first.
    pub fn replay(scope: Scope, choices: &[usize]) -> Self {
        let path = choices.iter().map(|&taken| (taken, 0)).collect();
        let (left, at) = (scope, 0);
        Exhaustive {
            scope,
            left,
            path,
            at,
        }
    }

    /// The choices this schedule made.
    pub fn choices(&self) -> Vec<usize> {
        self.path.iter().map(|&(taken, _)| taken).collect()
    }

    fn choose(&mut self, options: usize) -> usize {
        if options == 1 {
            return 0;
        }
        if self.at == self.path.len() {
            self.path.push((0, options));
        }
        let (taken, recorded) = self.path[self.at];
        assert!(
            taken < options && [0, options].contains(&recorded),
            "choice {} of {:?} meets {options} options, not {recorded}: the run is not a \
             function of its schedule",
            self.at,
            self.choices()
        );
        self.path[self.at].1 = options;
        self.at += 1;
        taken
    }

    /// Moves to the next untried schedule; false once all were walked.
    fn advance(&mut self) -> bool {
        (self.left, self.at) = (self.scope, 0);
        while let Some((taken, options)) = self.path.pop() {
            if taken + 1 < options {
                self.path.push((taken + 1, options));
                return true;
            }
        }
        false
    }
}

impl Schedule for Exhaustive {
    fn step(&mut self, options: &[Step]) -> Step {
        let mut left = self.left;
        let allowed = |&&step: &&Step| left.budget(step).is_none_or(|n| *n > 0);
        let options: Vec<Step> = options.iter().filter(allowed).copied().collect();
        let step = options[self.choose(options.len())];
        if let Some(n) = self.left.budget(step) {
            *n -= 1;
        }
        step
    }

    fn fate(&mut self) -> Option<FailurePoint> {
        let fates = [None, Some(BeforeBody), Some(MidBody), Some(AfterBody)];
        let fate = fates[self.choose(if self.left.failures > 0 { 4 } else { 1 })];
        self.left.failures -= u32::from(fate.is_some());
        fate
    }

    /// Pass, then each applied subset crashing, then each failing, while
    /// the kind's budget lasts.
    fn cut(&mut self, units: usize) -> Cut {
        let subsets = |budget: u32| match budget {
            0 => 0,
            _ => 1usize
                .checked_shl(units as u32)
                .expect("units fit a u64 bit set"),
        };
        let (crashes, fails) = (subsets(self.left.crashes), subsets(self.left.fails));
        match self.choose(1 + crashes + fails).checked_sub(1) {
            None => Cut::Pass,
            Some(applied) if applied < crashes => {
                self.left.crashes -= 1;
                Cut::Crash(applied as u64)
            }
            Some(applied) => {
                self.left.fails -= 1;
                Cut::Fail((applied - crashes) as u64)
            }
        }
    }

    /// Go, then park, then kill, while each budget lasts. A commit parks at
    /// its first phase, where its timestamp is taken and nothing is durable;
    /// a node dies at a commit's last, where its record is durable and
    /// unacknowledged. Between the two lies every state the fault manager's
    /// floor must cover (§4.2). A kill at the other phases, at a checkpoint
    /// write and at a bootstrap is [`Seeded::kill`]'s (fig10's).
    fn phase(&mut self, _: &str, phase: CommitPhase, parkable: bool) -> Answer {
        let park = parkable && self.left.parks > 0 && phase == CommitPhase::BeforeDataPut;
        let kill = self.left.kills > 0 && phase == CommitPhase::BeforeBroadcast;
        // At most one of the two is open at any phase.
        match self.choose(1 + usize::from(park || kill)) {
            0 => Answer::Go,
            _ if park => {
                self.left.parks -= 1;
                Answer::Park
            }
            _ => {
                self.left.kills -= 1;
                Answer::Kill
            }
        }
    }

    fn parks(&self) -> bool {
        self.left.parks > 0
    }
}

/// A schedule that the stepper, a [`CutStore`] and every node's
/// [`PhaseHook`] all ask, one question at a time.
pub struct Shared<S>(Mutex<S>);

impl<S> Shared<S> {
    /// Shares `schedule`.
    pub fn new(schedule: S) -> Arc<Self> {
        Arc::new(Shared(Mutex::new(schedule)))
    }
}

impl<S> std::fmt::Debug for Shared<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Shared(..)")
    }
}

impl<S: Schedule + Send> CutHook for Shared<S> {
    fn cut(&self, units: usize) -> Cut {
        self.0.lock().cut(units)
    }
}

/// Asks the schedule, then parks, kills or goes on. Only a commit the
/// stepper ran on a thread of its own can park.
impl<S: Schedule + Send> PhaseHook for Shared<S> {
    fn at(&self, node: &str, phase: CommitPhase) -> AftResult<()> {
        let parkable = PARKING.with(|parking| parking.borrow().is_some());
        let answer = self.0.lock().phase(node, phase, parkable);
        match answer {
            Answer::Go => Ok(()),
            Answer::Park => park(node, phase),
            Answer::Kill => Err(killed(node, phase)),
        }
    }
}

impl<S: Schedule> Schedule for &Shared<S> {
    fn step(&mut self, options: &[Step]) -> Step {
        self.0.lock().step(options)
    }

    fn fate(&mut self) -> Option<FailurePoint> {
        self.0.lock().fate()
    }

    fn cut(&mut self, units: usize) -> Cut {
        self.0.lock().cut(units)
    }

    fn phase(&mut self, node: &str, phase: CommitPhase, parkable: bool) -> Answer {
        self.0.lock().phase(node, phase, parkable)
    }

    fn parks(&self) -> bool {
        self.0.lock().parks()
    }
}

fn killed(node: &str, phase: CommitPhase) -> AftError {
    AftError::Unavailable(format!("{node} killed {}", phase.label()))
}

/// What a parkable commit's thread reports: `None` once it parked.
type Report = Option<AftResult<()>>;

thread_local! {
    /// On a [`Task`]'s thread: where it reports, and where it hears whether
    /// to go on (`true`) or die at its phase.
    static PARKING: RefCell<Option<(mpsc::Sender<Report>, mpsc::Receiver<bool>)>> =
        const { RefCell::new(None) };
}

/// Parks the calling commit at `phase` until the stepper resumes it.
fn park(node: &str, phase: CommitPhase) -> AftResult<()> {
    PARKING.with(|parking| {
        let parking = parking.borrow();
        let (report, resume) = parking.as_ref().expect("a task's thread");
        report.send(None).expect("a stepper waiting on its task");
        match resume.recv() {
            Ok(true) => Ok(()),
            _ => Err(killed(node, phase)),
        }
    })
}

/// A commit on a thread of its own, so its phase hook can park it. It and
/// the stepper take turns: one of them runs at a time.
struct Task {
    resume: mpsc::Sender<bool>,
    reports: mpsc::Receiver<Report>,
}

impl Task {
    /// Starts `txid`'s commit through `api`, then waits as [`Task::wait`].
    fn start(api: Arc<dyn AftApi>, txid: TransactionId) -> (Task, Report) {
        let (resume, heard) = mpsc::channel();
        let (report, reports) = mpsc::channel();
        std::thread::spawn(move || {
            PARKING.with(|parking| *parking.borrow_mut() = Some((report.clone(), heard)));
            let _ = report.send(Some(api.commit(&txid, &[]).map(drop)));
        });
        let task = Task { resume, reports };
        let report = task.wait();
        (task, report)
    }

    /// Resumes the parked commit, to go on or to die at its phase, then
    /// waits as [`Task::wait`].
    fn resume(&self, go: bool) -> Report {
        self.resume.send(go).expect("a parked task");
        self.wait()
    }

    /// Waits until the commit parks or ends.
    fn wait(&self) -> Report {
        self.reports
            .recv()
            .expect("a task that reports, not one that panicked")
    }
}

/// What a [`walk`] counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Walked {
    /// Schedules walked.
    pub schedules: u64,
    /// Schedules in which the checker found a duplicate request.
    pub duplicated: u64,
    /// Schedules that left a data key that no commit record names.
    pub orphaned: u64,
}

/// The deployment [`settle`] runs a schedule on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Nodes at the start.
    pub nodes: usize,
    /// The service row under them.
    pub backend: BackendKind,
    /// Every node's checkpoint policy.
    pub checkpoint: CheckpointPolicy,
}

impl Shape {
    /// `nodes` nodes over the memory row, without checkpoints.
    pub fn nodes(nodes: usize) -> Self {
        Shape {
            nodes,
            backend: BackendKind::Memory,
            checkpoint: CheckpointPolicy::disabled(),
        }
    }
}

/// What [`settle`] found in storage once maintenance was quiet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stored {
    /// Newest versions whose data storage lacks, in the view a node
    /// bootstrapping from storage would have: after each step that cut a
    /// write, and at the end.
    pub dangling: u64,
    /// (record, node) pairs where an active node neither knows a durable
    /// record nor supersedes it (§4.1, §4.2), and durable records the fault
    /// manager does not know: its floor let one slip (§4.2).
    pub unrecovered: u64,
    /// Data keys that no record names: garbage, not an anomaly.
    pub orphaned: u64,
}

/// Runs every schedule of `scope` over `clients` through [`settle`] on
/// `shape`. Panics, naming the scope and the choice list, on the first
/// schedule with a read anomaly, a lost write, a newest version whose data
/// is missing or a durable record an active node does not know.
pub fn walk(shape: Shape, clients: &[Vec<Request>], scope: Scope) -> Walked {
    let mut schedule = Exhaustive::replay(scope, &[]);
    let mut walked = Walked::default();
    loop {
        let (_, verdict, stored) = settle(shape, clients, &mut schedule);
        assert!(
            verdict.anomalies() + verdict.lost_acked_writes + stored.dangling + stored.unrecovered
                == 0,
            "{shape:?}, {scope:?}, schedule {:?} (`Exhaustive::replay` re-runs it): \
             {verdict:?}, {stored:?}",
            schedule.choices()
        );
        walked.schedules += 1;
        walked.duplicated += u64::from(verdict.duplicate_requests > 0);
        walked.orphaned += u64::from(stored.orphaned > 0);
        if !schedule.advance() {
            return walked;
        }
    }
}

/// Runs `clients` under `schedule` on a fresh cluster of `shape` whose
/// storage writes `schedule` cuts, then maintenance rounds until one deletes
/// nothing and carries nothing: the run, its verdict with the lost writes of
/// every active node's read-back summed, and what storage holds. An acked
/// key with no `data/` version left in storage is a lost write too.
pub fn settle(
    shape: Shape,
    clients: &[Vec<Request>],
    schedule: &mut Exhaustive,
) -> (Run, Verdict, Stored) {
    let shared = Shared::new(std::mem::take(schedule));
    let storage = make_backend(BackendConfig::test(shape.backend));
    let mut config = ClusterConfig::test(shape.nodes).with_checkpoint_policy(shape.checkpoint);
    config.node_template.phase_hook = Some(shared.clone());
    let deployment = Restarting {
        storage: CutStore::new(storage, shared.clone()),
        checked: Cell::default(),
        clock: TickingClock::shared(1, 1),
        cluster: RefCell::default(),
        incarnations: Cell::new(0),
        config,
    };
    deployment.boot();
    let run = run(&deployment, clients.to_vec(), &mut &*shared);
    // The GC owes a passed-over delete one round, and a cut round is the
    // next one's to redo.
    for rounds in 1.. {
        assert!(rounds <= 8, "maintenance still deletes after 8 rounds");
        let round = deployment.cluster().run_maintenance_round();
        if deployment.restart() {
            continue;
        }
        let gc = round.map(|round| round.global_gc);
        if gc.is_ok_and(|gc| gc.storage_keys_deleted + gc.carried == 0) {
            break;
        }
    }
    *schedule = std::mem::take(&mut shared.0.lock());
    let cluster = deployment.cluster();
    let keys = history::written_keys(&run.history);
    let mut verdict = history::check(&run.history, &FinalRead::new());
    for node in cluster.active_nodes() {
        let read = history::read_back(node.as_ref(), keys.clone()).expect("a quiet read");
        verdict.lost_acked_writes += history::check(&run.history, &read).lost_acked_writes;
    }
    let listed = |key: &&Key| cluster.storage().list_prefix(&format!("data/{key}/"));
    let gone = |key: &&Key| listed(key).is_ok_and(|versions| versions.is_empty());
    let acked = history::model(&run.history);
    verdict.lost_acked_writes += acked.keys().filter(gone).count() as u64;
    let mut stored = stored(&cluster);
    stored.dangling += deployment.checked.get().1;
    (run, verdict, stored)
}

/// What storage holds once maintenance is quiet, graded against the
/// records in it and those `cluster`'s active nodes and fault manager know.
fn stored(cluster: &Cluster) -> Stored {
    let (records, unrecovered) = durable_records(cluster);
    let manager = cluster.fault_manager().metadata();
    let unknown = records.iter().filter(|r| !manager.is_committed(&r.id));
    let unrecovered = unrecovered + unknown.count() as u64;
    let known = cluster.active_nodes().into_iter();
    let known = known.flat_map(|node| node.metadata().all_records());
    let named: HashSet<(Key, Uuid)> = (records.into_iter().chain(known))
        .flat_map(|record| {
            record
                .key_versions()
                .map(|v| (v.key, v.tid.uuid))
                .collect::<Vec<_>>()
        })
        .collect();
    let version = |key: String| KeyVersion::parse_storage_key(&key).expect("a data key");
    let data = cluster.storage().list_prefix("data/").expect("a listing");
    let orphaned = data.into_iter().map(version).filter(|v| !named.contains(v));
    Stored {
        dangling: dangling(cluster.storage()),
        unrecovered,
        orphaned: orphaned.count() as u64,
    }
}

/// Every commit record durable in `cluster`'s storage, and the (record,
/// node) pairs where an active node neither knows the record nor holds
/// newer versions of every key it wrote (§4.1 supersedence, §4.2
/// recovery). Panics if storage fails a read.
pub fn durable_records(cluster: &Cluster) -> (Vec<Arc<TransactionRecord>>, u64) {
    let prefix = TransactionRecord::storage_prefix();
    let keys = cluster.storage().list_prefix(&prefix).expect("a listing");
    let mut records = Vec::new();
    fetch_commit_records(cluster.io(), &keys, |r| records.push(Arc::new(r)))
        .expect("the commit records");
    let nodes = cluster.active_nodes();
    let unknown = |record: &Arc<TransactionRecord>| {
        let missing = |node: &&Arc<AftNode>| {
            !node.metadata().is_committed(&record.id) && !is_superseded(record, node.metadata())
        };
        nodes.iter().filter(missing).count() as u64
    };
    let unrecovered = records.iter().map(unknown).sum();
    (records, unrecovered)
}

/// The versions a node bootstrapping from `storage` now would serve as a
/// key's newest whose data is missing. Older versions may be gone: the GC
/// deletes a version once a newer one supersedes it (§5.2).
fn dangling(storage: &SharedStorage) -> u64 {
    let view = MetadataCache::new();
    let io = IoEngine::new(storage.clone(), IoConfig::pipelined());
    warm_metadata_cache_checkpointed(&io, &view, "check", None).expect("a bootstrap");
    let data: HashSet<String> = storage
        .list_prefix("data/")
        .expect("a listing")
        .into_iter()
        .collect();
    let versions = view.all_records().into_iter().flat_map(|record| {
        let newest = |v: &KeyVersion| view.latest_version_of(&v.key) == Some(v.tid);
        record.key_versions().filter(newest).collect::<Vec<_>>()
    });
    versions
        .filter(|v| !data.contains(&v.storage_key()))
        .count() as u64
}

/// What a run steps: the cluster its rounds and failovers act on, and the
/// route its clients' calls take.
pub trait Deployment {
    /// The cluster.
    fn cluster(&self) -> Arc<Cluster>;
    /// Where an attempt's calls go: a routed node, or a service client in
    /// front of the cluster.
    fn api(&self) -> AftResult<Arc<dyn AftApi>>;
    /// Restarts the cluster if its storage crashed; true if it did.
    fn restart(&self) -> bool {
        false
    }
}

impl Deployment for Arc<Cluster> {
    fn cluster(&self) -> Arc<Cluster> {
        Arc::clone(self)
    }

    fn api(&self) -> AftResult<Arc<dyn AftApi>> {
        self.route().map(|node| node as Arc<dyn AftApi>)
    }
}

/// A cluster over a [`CutStore`], rebuilt whole after a crash: a fresh
/// cluster of the same shape over the surviving storage and the same clock,
/// whose nodes bootstrap from storage, whose fault manager starts at floor 0
/// and whose GC has passed nothing over.
struct Restarting {
    storage: Arc<CutStore>,
    /// Cuts the dangling check has seen, and what it found.
    checked: Cell<(u64, u64)>,
    config: ClusterConfig,
    clock: SharedClock,
    cluster: RefCell<Option<Arc<Cluster>>>,
    /// Clusters built so far. Each draws its own node seeds, or a new
    /// version could land on a crashed node's `data/{key}/{uuid}`.
    incarnations: Cell<u64>,
}

impl Restarting {
    fn boot(&self) {
        let mut config = self.config.clone();
        config.node_template.rng_seed ^= self.incarnations.get() << 32;
        self.incarnations.set(self.incarnations.get() + 1);
        let cluster = Cluster::with_clock(config, self.storage.clone(), self.clock.clone());
        *self.cluster.borrow_mut() = Some(cluster.expect("a cluster over live storage"));
    }
}

impl Deployment for Restarting {
    fn cluster(&self) -> Arc<Cluster> {
        self.cluster.borrow().clone().expect("a booted cluster")
    }

    fn api(&self) -> AftResult<Arc<dyn AftApi>> {
        self.cluster().api()
    }

    /// Also checks storage for dangling versions after a step that cut a
    /// write: a later retry may supersede them before any read.
    fn restart(&self) -> bool {
        let (seen, found) = self.checked.get();
        if self.storage.cuts() > seen {
            let found = found + dangling(self.storage.inner());
            self.checked.set((self.storage.cuts(), found));
        }
        if !self.storage.crashed() {
            return false;
        }
        self.storage.restart();
        self.boot();
        true
    }
}

/// Runs every client's requests to completion, one step at a time as
/// `schedule` chooses, on `deployment`. After a step that crashed its
/// storage, the deployment restarts and every open attempt is abandoned, a
/// parked commit dying at its phase; after one that killed the last active
/// node, the cluster replaces it.
pub fn run(
    deployment: &dyn Deployment,
    clients: Vec<Vec<Request>>,
    schedule: &mut dyn Schedule,
) -> Run {
    let to_client = |(id, requests)| Client {
        first: (id as u64) << 32,
        requests,
        ..Client::default()
    };
    let mut clients: Vec<Client> = clients.into_iter().enumerate().map(to_client).collect();
    let mut stepper = Stepper {
        deployment,
        schedule,
        history: History::new(),
        last_call: HashMap::new(),
        run: Run::default(),
    };
    loop {
        let busy: Vec<usize> = (0..clients.len())
            .filter(|&i| clients[i].done < clients[i].requests.len())
            .collect();
        if busy.is_empty() {
            return stepper.finish();
        }
        let open = |n: &usize| clients[busy[*n]].open.is_some();
        let options: Vec<Step> = std::iter::once(Step::Round)
            .chain((0..busy.len()).map(Step::Client))
            .chain((0..busy.len()).filter(open).map(Step::Duplicate))
            .chain([Step::Failover])
            .collect();
        match stepper.schedule.step(&options) {
            Step::Round => {
                let run = &mut stepper.run;
                run.rounds += 1;
                run.racing_rounds += u64::from((0..busy.len()).any(|n| open(&n)));
                let round = deployment.cluster().run_maintenance_round();
                run.failed_rounds += u64::from(round.is_err());
            }
            Step::Client(n) => stepper.step(&mut clients[busy[n]]),
            Step::Duplicate(n) => {
                let original = &clients[busy[n]];
                let first = original.first + original.done as u64;
                let requests = vec![original.requests[original.done].clone()];
                clients.push(Client {
                    first,
                    requests,
                    ..Client::default()
                });
            }
            Step::Failover => {
                let cluster = deployment.cluster();
                let victim = cluster.active_nodes()[0].node_id().to_owned();
                cluster.kill_node(&victim);
                cluster.replace_failed_nodes().expect("a replacement node");
            }
        }
        stepper.run.steps += 1;
        if deployment.restart() {
            stepper.run.restarts += 1;
            for client in &mut clients {
                if let Some(attempt) = client.open.take() {
                    if let Some(task) = attempt.parked {
                        task.resume(false);
                    }
                    stepper.retry(client, Ok(()));
                }
            }
        } else {
            let cluster = deployment.cluster();
            if cluster.registry().active_count() == 0 {
                cluster.replace_failed_nodes().expect("a replacement node");
            }
        }
    }
}

/// One client: runs its requests one after another.
#[derive(Default)]
struct Client {
    /// Its first request's id: the client's place in the run, then 0.
    first: u64,
    requests: Vec<Request>,
    /// Requests finished so far.
    done: usize,
    /// Attempts made at the current request.
    attempt: usize,
    /// `None` between attempts: the next step invokes one.
    open: Option<Open>,
}

/// One attempt's transaction, open from its `begin` to its commit or abort.
struct Open {
    api: Arc<dyn AftApi>,
    txid: TransactionId,
    /// The platform's verdict on this invocation.
    failure: Option<FailurePoint>,
    /// The next op; the request's length means commit.
    next: usize,
    /// Whether the next step aborts the attempt.
    aborting: bool,
    /// Its commit, parked at a phase.
    parked: Option<Task>,
}

/// What a client's step reaches: the deployment, the schedule, the history,
/// the run's tally.
struct Stepper<'a> {
    deployment: &'a dyn Deployment,
    schedule: &'a mut dyn Schedule,
    history: Arc<History>,
    /// The step of each attempt's last call.
    last_call: HashMap<TransactionId, u64>,
    run: Run,
}

impl Stepper<'_> {
    /// Takes `client`'s next step: at most one API call.
    fn step(&mut self, client: &mut Client) {
        let Some(mut attempt) = client.open.take() else {
            return self.invoke(client);
        };
        let (api, txid) = (Arc::clone(&attempt.api), attempt.txid);
        self.last_call.insert(txid, self.run.steps);
        if attempt.aborting {
            let _ = api.abort(&txid);
            return self.retry(client, Ok(()));
        }
        let ops = &client.requests[client.done];
        let Some(op) = ops.get(attempt.next) else {
            let report = match attempt.parked.take() {
                Some(task) => task.resume(true).ok_or(task),
                None if self.schedule.parks() => {
                    let (task, report) = Task::start(api, txid);
                    report.ok_or(task)
                }
                None => Ok(api.commit(&txid, &[]).map(drop)),
            };
            let committed = match report {
                Ok(committed) => committed,
                Err(task) => {
                    attempt.parked = Some(task);
                    client.open = Some(attempt);
                    return;
                }
            };
            // After the body, the commit is durable and acknowledged but the
            // invocation's response was lost, so the client re-runs the
            // request. AFT's job is to keep the duplicate harmless.
            if committed.is_ok() && attempt.failure != Some(FailurePoint::AfterBody) {
                client.done += 1;
                client.attempt = 0;
                return;
            }
            return self.retry(client, committed);
        };
        let result = match op {
            Op::Read(key) => api.get_versioned(&txid, key).map(drop),
            Op::Write(key) => api
                .put(&txid, key.clone(), txid.uuid.to_string().into())
                .map(|()| {
                    attempt.aborting = attempt.failure == Some(FailurePoint::MidBody);
                }),
        };
        match result {
            Ok(()) => attempt.next += 1,
            Err(e) => {
                expect_retryable(&e);
                attempt.aborting = true;
            }
        }
        client.open = Some(attempt);
    }

    /// Invokes `client`'s next attempt: routes it, lets the schedule decide
    /// its fate, and begins its transaction.
    fn invoke(&mut self, client: &mut Client) {
        assert!(client.attempt < 64, "a request's 64 attempts are exhausted");
        let request = client.first + client.done as u64;
        let begun = self.deployment.api().and_then(|api| {
            let failure = self.schedule.fate();
            if failure == Some(FailurePoint::BeforeBody) {
                return Ok(None);
            }
            let api = Recorder::wrap(api, Arc::clone(&self.history), Some(request));
            Ok(Some(Open {
                txid: api.begin()?,
                api,
                failure,
                next: 0,
                aborting: false,
                parked: None,
            }))
        });
        match begun {
            Ok(Some(attempt)) => {
                self.last_call.insert(attempt.txid, self.run.steps);
                client.open = Some(attempt);
            }
            other => self.retry(client, other.map(drop)),
        }
    }

    /// Abandons `client`'s attempt, for `cause` if it failed.
    fn retry(&mut self, client: &mut Client, cause: AftResult<()>) {
        cause.unwrap_or_else(|e| expect_retryable(&e));
        self.run.client_retries += 1;
        client.attempt += 1;
    }

    /// Grades the clients' history: its anomalies, and the step of the
    /// first offending attempt's last call.
    fn finish(mut self) -> Run {
        let history = self.history.attempts();
        let verdict = history::check(&history, &FinalRead::new());
        self.run.anomalies = verdict.anomalies();
        self.run.first_anomaly_step = verdict
            .offenders
            .iter()
            .filter_map(|&at| self.last_call.get(&history[at].txid).copied())
            .min();
        self.run.history = history;
        self.run
    }
}

/// Retryable failures are what chaos injects; any other is a bug.
fn expect_retryable(e: &AftError) {
    assert!(e.is_retryable(), "non-retryable failure: {e:?}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_writers() -> Vec<Vec<Request>> {
        vec![vec![request("w a")], vec![request("w b")]]
    }

    #[test]
    fn a_tree_of_known_shape_walks_exactly_its_schedules() {
        let none = Scope::default();
        assert_eq!(
            walk(Shape::nodes(1), &two_writers()[..1], none).schedules,
            1
        );
        // Each client begins, writes and commits: C(6, 3) interleavings.
        assert_eq!(walk(Shape::nodes(1), &two_writers(), none).schedules, 20);
    }

    #[test]
    fn a_walked_choice_list_replays_its_schedule_exactly() {
        let rmw = vec![vec![request("r a, w a, w b")]];
        let duplicate = Scope {
            duplicates: 1,
            ..Scope::default()
        };
        // Crashes restart the cluster, so the replay rebuilds it alike.
        let pair = vec![vec![request("w a, w b"), request("r a, r b")]];
        let cuts = Scope {
            crashes: 1,
            fails: 1,
            ..Scope::default()
        };
        // A parked commit runs on a thread of its own, and a kill of the one
        // node replaces it.
        let writer = vec![vec![request("w a")]];
        let phases = Scope {
            rounds: 1,
            parks: 1,
            kills: 1,
            ..Scope::default()
        };
        for (nodes, clients, scope) in [(2, rmw, duplicate), (1, pair, cuts), (1, writer, phases)] {
            let mut schedule = Exhaustive::replay(scope, &[]);
            let (mut restarts, mut parked, mut killed) = (0, false, false);
            loop {
                let (walked, ..) = settle(Shape::nodes(nodes), &clients, &mut schedule);
                (parked, killed) = (
                    parked || schedule.left.parks < scope.parks,
                    killed || schedule.left.kills < scope.kills,
                );
                let choices = schedule.choices();
                let replay = &mut Exhaustive::replay(scope, &choices);
                let (replayed, ..) = settle(Shape::nodes(nodes), &clients, replay);
                assert_eq!(replayed, walked, "{choices:?}");
                assert_eq!(replay.left, schedule.left, "{choices:?}");
                restarts += walked.restarts;
                if !schedule.advance() {
                    break;
                }
            }
            let spent = (restarts > 0, parked, killed);
            let budgets = (scope.crashes > 0, scope.parks > 0, scope.kills > 0);
            assert_eq!(spent, budgets, "{scope:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not a function of its schedule")]
    fn a_replayed_list_whose_option_counts_diverge_panics() {
        let schedule = &mut Exhaustive::replay(Scope::default(), &[2]);
        settle(Shape::nodes(1), &two_writers(), schedule);
    }
}
