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
//! call's [`Cut`], each [`CommitPhase`]'s [`Answer`] and each dissemination
//! batch's hold: a platform re-runs a request whose invocation died before,
//! inside or after its body (§3.3.1), [`FailurePoint::MidBody`] aborts right
//! after the attempt's first write (the §1 fractional update), a call fails
//! transiently, dropped or applied with its acknowledgement lost, and the
//! I/O engine retries it, a write lands, fails back to its caller or crashes
//! the cluster with as much of its call applied as the service allows
//! ([`CutStore`]), a node reaching a phase goes on, parks its commit while
//! other steps run, or dies there ([`PhaseHook`]), and a batch of commit
//! records one node sends another waits for a later round
//! ([`PhaseHook::hold`]), and a service client's request meets a reset or
//! a late answer ([`PhaseHook::deliver`]). After a storage crash the
//! stepper restarts the cluster over the surviving storage and re-invokes
//! every open attempt; after a kill it replaces the node only when none is
//! left active. A [`Shape::piped`] deployment's clients speak the wire
//! protocol over in-memory pipes, so each request they send is one more
//! question. These answers are the repository's one fault vocabulary;
//! [`Shared`] logs each but a pass, in order ([`Answered`]).
//!
//! [`Seeded`] samples one schedule, never crashes, fails or parks, kills
//! only where [`Seeded::kill`] says, and fails calls, holds batches and
//! faults requests at its legs' seeded rates. [`Exhaustive`] is stateless
//! model checking: it walks the choice tree depth first within a
//! [`Scope`]'s budgets, replaying each schedule on a fresh cluster, and
//! [`walk`] panics on a schedule that [`settle`] finds at fault, naming the
//! choice list that [`Exhaustive::replay`] re-runs and the log. It walks a request's
//! reset after its send, not a split of its bytes: over a pipe a request
//! runs only once its last byte arrives, so where its bytes split changes
//! no order of AFT calls (the session's own tests split every burst).

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use aft_cluster::{Cluster, ClusterConfig};
use aft_core::api::AftApi;
use aft_core::bootstrap::{fetch_commit_records, warm_metadata_cache_checkpointed};
use aft_core::{is_superseded, AftNode, CheckpointPolicy, MetadataCache, NetFault, PhaseHook};
use aft_faas::FailurePoint::{AfterBody, BeforeBody, MidBody};
use aft_faas::{fault_stream, FailureInjector, FailurePoint};
use aft_net::{AftClient, AftServer};
use aft_storage::io::{IoConfig, IoEngine};
use aft_storage::{
    make_backend, BackendConfig, BackendKind, Cut, CutHook, CutStore, SharedStorage,
};
use aft_types::clock::TickingClock;
use aft_types::{
    fnv1a, AftError, AftResult, CommitPhase, Key, KeyVersion, SharedClock, TransactionId,
    TransactionRecord, Uuid,
};
use parking_lot::{Mutex, MutexGuard};
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
    /// [`Shared`]'s log, which [`settle`] hands back; [`run`] leaves it empty.
    pub answered: Vec<Answered>,
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
    /// How a storage call of `units` independently applied units ends, 0
    /// for a read or a listing ([`CutStore`]).
    fn cut(&mut self, units: usize) -> Cut;
    /// What `node` does at `phase`; [`Answer::Park`] only if `parkable`.
    fn phase(&mut self, node: &str, phase: CommitPhase, parkable: bool) -> Answer;
    /// Whether the batch `sender` sends `receiver` in dissemination round
    /// `round` waits for a later round ([`PhaseHook::hold`]).
    fn hold(&mut self, round: u64, sender: &str, receiver: &str) -> bool;
    /// What the network does to a service client's next request, a `verb`
    /// ([`PhaseHook::deliver`]); nothing unless a schedule says.
    fn deliver(&mut self, _verb: &str) -> NetFault {
        NetFault::None
    }
    /// Whether the next commit may park, so it runs on a thread of its own.
    fn parks(&self) -> bool {
        false
    }
}

/// A sampled schedule: a round one step in [`MAINTENANCE_ONE_IN`], else a
/// uniformly drawn busy client, from one seeded `StdRng`, the fates
/// `injector` draws, the one kill [`Seeded::kill`] plans, and the answers of
/// the fault legs [`Seeded::transients`], [`Seeded::resets`] and
/// [`Seeded::partition`] arm. It never duplicates, fails over, crashes, fails
/// a call or parks.
///
/// The stepper and each leg draw from the seed under a salt of their own. A
/// leg draws its answer `n` from its own stream ([`fault_stream`]), so each
/// answer is a function of the seed, the leg and `n` alone: one seed
/// replays every leg, whatever order storage, the disseminator and the
/// clients ask in.
pub struct Seeded {
    rng: StdRng,
    injector: Option<Arc<FailureInjector>>,
    kill: Option<Kill>,
    /// The seed every fault leg draws from.
    seed: u64,
    /// The storage leg: its rate, whether it is on, and the calls it has
    /// answered while it was.
    transients: f64,
    storage_faults: bool,
    calls: u64,
    /// The net leg: its rates of resets and of late answers, how late, and
    /// the requests it has answered.
    resets: f64,
    delays: f64,
    delay: Duration,
    requests: u64,
    /// The partition leg: the share of node pairs cut, and the rounds they
    /// stay cut.
    cut: f64,
    cut_rounds: Range<u64>,
}

/// The stepper's salt: decorrelates its stream from the nodes' UUID streams,
/// which a deployment often starts from the same seed.
const STEPPER_SALT: u64 = 0x57E9;
/// The storage leg's salt. Zero, so seeds recorded by earlier storage-only
/// chaos reports still replay.
const STORAGE_SALT: u64 = 0;
/// The net leg's salt.
const NET_SALT: u64 = 0x4E45_545F_4641_554C;
/// The partition leg's salt.
const PARTITION_SALT: u64 = 0x9A47_0000_CE11_EDB3;

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
    /// The schedule `seed` draws, with `injector`'s fates. Its fault legs
    /// start quiet.
    pub fn new(seed: u64, injector: Option<Arc<FailureInjector>>) -> Self {
        Seeded {
            rng: StdRng::seed_from_u64(seed ^ STEPPER_SALT),
            injector,
            kill: None,
            seed,
            transients: 0.0,
            storage_faults: false,
            calls: 0,
            resets: 0.0,
            delays: 0.0,
            delay: Duration::ZERO,
            requests: 0,
            cut: 0.0,
            cut_rounds: 0..0,
        }
    }

    /// Fails a storage call made while storage faults are on
    /// ([`Seeded::storage_faults`]) transiently at `rate`, half of them
    /// after the call applied: call `n` draws from the storage leg's stream
    /// `n`.
    pub fn transients(mut self, rate: f64) -> Self {
        self.transients = rate;
        self
    }

    /// Resets the connection of a service client's request at `resets`,
    /// half of them after the send (§4.2's lost acknowledgement), and
    /// delays its answer by `delay` at `delays`: request `n` draws from the
    /// net leg's stream `n`, whatever its verb.
    pub fn resets(mut self, resets: f64, delays: f64, delay: Duration) -> Self {
        (self.resets, self.delays, self.delay) = (resets, delays, delay);
        self
    }

    /// Holds every batch sent over a cut edge in a round of `rounds`: a
    /// share `fraction` of node pairs, drawn once per unordered pair and cut
    /// both ways for the whole window, a partition rather than lost
    /// messages. The disseminator keeps a held batch on its retry queue, so
    /// a partition may delay metadata but never lose it.
    pub fn partition(mut self, fraction: f64, rounds: Range<u64>) -> Self {
        (self.cut, self.cut_rounds) = (fraction, rounds);
        self
    }

    /// Turns storage faults on or off. A call made while they are off
    /// passes and draws nothing, so a deployment is built and verified
    /// fault-free.
    pub fn storage_faults(&mut self, on: bool) {
        self.storage_faults = on;
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
        if !self.storage_faults {
            return Cut::Pass;
        }
        self.calls += 1;
        let mut rng = fault_stream(self.seed, STORAGE_SALT, self.calls - 1);
        if rng.gen_range(0.0..1.0) < self.transients {
            let applied = rng.gen_bool(0.5);
            Cut::Transient { applied }
        } else {
            Cut::Pass
        }
    }

    /// Whether the edge between `sender` and `receiver` is cut: the same
    /// both ways, and for every round of the window.
    fn hold(&mut self, round: u64, sender: &str, receiver: &str) -> bool {
        if !self.cut_rounds.contains(&round) {
            return false;
        }
        let mut pair = [sender, receiver];
        pair.sort();
        // Each name ends in `0xFF`, which no UTF-8 string holds, so no two
        // pairs hash the same bytes, and a recorded seed cuts the same links
        // on every toolchain.
        let link = fnv1a(pair.iter().flat_map(|name| name.bytes().chain([0xFF])));
        let mut rng = fault_stream(self.seed, PARTITION_SALT, link);
        rng.gen_range(0.0..1.0) < self.cut
    }

    fn deliver(&mut self, _: &str) -> NetFault {
        self.requests += 1;
        let mut rng = fault_stream(self.seed, NET_SALT, self.requests - 1);
        match rng.gen_range(0.0..1.0) {
            draw if draw < self.resets && rng.gen_bool(0.5) => NetFault::ResetAfterSend,
            draw if draw < self.resets => NetFault::ResetBeforeSend,
            draw if draw < self.resets + self.delays => NetFault::DelayAck(self.delay),
            _ => NetFault::None,
        }
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
/// failed calls, parks, kills, transient faults, held batches and reset
/// connections one [`Exhaustive`] schedule may take.
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
    /// [`Cut::Transient`]s.
    pub transients: u32,
    /// Held dissemination batches.
    pub holds: u32,
    /// Connections reset after a request's send ([`NetFault::ResetAfterSend`]).
    pub resets: u32,
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

    /// Pass, then each applied subset of a write crashing, then each
    /// failing, then a transient dropping it, then one landing it first,
    /// while the kind's budget lasts. A read is never cut: the I/O engine
    /// retries a transient at once, so the retry reads what a pass would.
    fn cut(&mut self, units: usize) -> Cut {
        if units == 0 {
            return Cut::Pass;
        }
        let subsets = |budget: u32| match budget {
            0 => 0,
            _ => 1usize
                .checked_shl(units as u32)
                .expect("units fit a u64 bit set"),
        };
        let (crashes, fails) = (subsets(self.left.crashes), subsets(self.left.fails));
        let transients = 2 * usize::from(self.left.transients > 0);
        match self.choose(1 + crashes + fails + transients).checked_sub(1) {
            None => Cut::Pass,
            Some(applied) if applied < crashes => {
                self.left.crashes -= 1;
                Cut::Crash(applied as u64)
            }
            Some(applied) if applied < crashes + fails => {
                self.left.fails -= 1;
                Cut::Fail((applied - crashes) as u64)
            }
            Some(answer) => {
                self.left.transients -= 1;
                let applied = answer - crashes - fails == 1;
                Cut::Transient { applied }
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

    /// Send, then hold, while the budget lasts.
    fn hold(&mut self, _: u64, _: &str, _: &str) -> bool {
        let held = self.choose(1 + usize::from(self.left.holds > 0)) == 1;
        self.left.holds -= u32::from(held);
        held
    }

    /// Pass, then a reset after the send, while the budget lasts. Over a
    /// pipe ([`Shape::piped`]) a request has run when its send returns, so
    /// the reset is §4.2's lost acknowledgement and the client's resend a
    /// duplicate. A reset before the send and a late answer are not walked:
    /// over a pipe each leaves the server where a pass leaves it, since
    /// affinity and the dedup ledger are server-wide and a delay only
    /// charges the clock.
    fn deliver(&mut self, _: &str) -> NetFault {
        let reset = self.choose(1 + usize::from(self.left.resets > 0)) == 1;
        self.left.resets -= u32::from(reset);
        if reset {
            NetFault::ResetAfterSend
        } else {
            NetFault::None
        }
    }

    fn parks(&self) -> bool {
        self.left.parks > 0
    }
}

/// One answer of a [`Shared`] schedule but a pass, with the question's arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answered {
    /// An invocation's fate ([`Schedule::fate`]).
    Fate(FailurePoint),
    /// How a storage call of so many units ended ([`Schedule::cut`]).
    Cut(usize, Cut),
    /// What a node did at a phase ([`Schedule::phase`]).
    Phase(String, CommitPhase, Answer),
    /// A batch held in a round, by sender and receiver ([`Schedule::hold`]).
    Hold(u64, String, String),
    /// What the network did to a request of a verb ([`Schedule::deliver`]).
    Deliver(String, NetFault),
}

/// A schedule that the stepper, a [`CutStore`] and every node's
/// [`PhaseHook`] all ask, one question at a time, and its log ([`Answered`]).
pub struct Shared<S>(Mutex<S>, Mutex<Vec<Answered>>);

impl<S> Shared<S> {
    /// Shares `schedule`.
    pub fn new(schedule: S) -> Arc<Self> {
        Arc::new(Shared(Mutex::new(schedule), Mutex::default()))
    }

    /// The schedule, between questions.
    pub fn lock(&self) -> MutexGuard<'_, S> {
        self.0.lock()
    }

    /// Every answer but a pass so far, in the order given.
    pub fn answered(&self) -> Vec<Answered> {
        self.1.lock().clone()
    }

    /// The answers so far that `pred` picks.
    pub fn count(&self, pred: impl Fn(&Answered) -> bool) -> u64 {
        self.1.lock().iter().filter(|a| pred(a)).count() as u64
    }

    /// Asks the schedule, logging its answer under its lock unless a pass.
    fn ask<T: Copy>(
        &self,
        ask: impl FnOnce(&mut S) -> T,
        log: impl FnOnce(T) -> Option<Answered>,
    ) -> T {
        let mut schedule = self.0.lock();
        let answer = ask(&mut schedule);
        self.1.lock().extend(log(answer));
        answer
    }
}

impl<S> std::fmt::Debug for Shared<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Shared(..)")
    }
}

impl<S: Schedule + Send> CutHook for Shared<S> {
    fn cut(&self, units: usize) -> Cut {
        Schedule::cut(&mut &*self, units)
    }
}

/// Asks the schedule, then parks, kills or goes on. Only a commit the
/// stepper ran on a thread of its own can park.
impl<S: Schedule + Send> PhaseHook for Shared<S> {
    fn at(&self, node: &str, phase: CommitPhase) -> AftResult<()> {
        let parkable = PARKING.with(|parking| parking.borrow().is_some());
        match Schedule::phase(&mut &*self, node, phase, parkable) {
            Answer::Go => Ok(()),
            Answer::Park => park(node, phase),
            Answer::Kill => Err(killed(node, phase)),
        }
    }

    fn hold(&self, round: u64, sender: &str, receiver: &str) -> bool {
        Schedule::hold(&mut &*self, round, sender, receiver)
    }

    fn deliver(&self, verb: &str) -> NetFault {
        Schedule::deliver(&mut &*self, verb)
    }
}

/// The one place a shared schedule is asked, so each answer is logged once.
impl<S: Schedule> Schedule for &Shared<S> {
    fn step(&mut self, options: &[Step]) -> Step {
        self.0.lock().step(options)
    }

    fn fate(&mut self) -> Option<FailurePoint> {
        self.ask(S::fate, |fate| fate.map(Answered::Fate))
    }

    fn cut(&mut self, units: usize) -> Cut {
        let log = |cut| (cut != Cut::Pass).then_some(Answered::Cut(units, cut));
        self.ask(|s| s.cut(units), log)
    }

    fn phase(&mut self, node: &str, phase: CommitPhase, parkable: bool) -> Answer {
        let log = |a| (a != Answer::Go).then(|| Answered::Phase(node.into(), phase, a));
        self.ask(|s| s.phase(node, phase, parkable), log)
    }

    fn hold(&mut self, round: u64, sender: &str, receiver: &str) -> bool {
        let log = |held: bool| held.then(|| Answered::Hold(round, sender.into(), receiver.into()));
        self.ask(|s| s.hold(round, sender, receiver), log)
    }

    fn deliver(&mut self, verb: &str) -> NetFault {
        let log = |f| (f != NetFault::None).then(|| Answered::Deliver(verb.into(), f));
        self.ask(|s| s.deliver(verb), log)
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
    /// Whether clients reach the cluster through a service client over
    /// in-memory pipes ([`aft_net::ClientBuilder::pipe`]) into a server of
    /// default configuration, whose requests
    /// the schedule delivers ([`Schedule::deliver`]), rather than through
    /// a routed node.
    pub piped: bool,
}

impl Shape {
    /// `nodes` nodes over the memory row, without checkpoints, called
    /// directly.
    pub fn nodes(nodes: usize) -> Self {
        Shape {
            nodes,
            backend: BackendKind::Memory,
            checkpoint: CheckpointPolicy::disabled(),
            piped: false,
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
        let (run, verdict, stored) = settle(shape, clients, &mut schedule);
        assert!(
            verdict.anomalies() + verdict.lost_acked_writes + stored.dangling + stored.unrecovered
                == 0,
            "{shape:?}, {scope:?}, schedule {:?} (`Exhaustive::replay` re-runs it), answered \
             {:?}: {verdict:?}, {stored:?}",
            schedule.choices(),
            run.answered
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
/// storage calls `schedule` cuts, then maintenance rounds until one deletes
/// nothing, carries nothing and leaves no batch held: the run, its verdict
/// with the lost writes of every active node's read-back summed, and what
/// storage holds. An acked key with no `data/` version left in storage is a
/// lost write too.
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
        schedule: shared.clone(),
        checked: Cell::default(),
        clock: TickingClock::shared(1, 1),
        cluster: RefCell::default(),
        client: RefCell::default(),
        piped: shape.piped,
        incarnations: Cell::new(0),
        config,
    };
    deployment.boot();
    let mut run = run(&deployment, clients.to_vec(), &mut &*shared);
    // The GC owes a passed-over delete one round, a cut round is the next
    // one's to redo, and a held batch goes in a later one.
    for rounds in 1.. {
        assert!(rounds <= 8, "maintenance still deletes after 8 rounds");
        let round = deployment.cluster().run_maintenance_round();
        if deployment.restart() {
            continue;
        }
        let gc = round.map(|round| round.global_gc);
        let held = deployment.cluster().disseminator().pending_retries();
        if held == 0 && gc.is_ok_and(|gc| gc.storage_keys_deleted + gc.carried == 0) {
            break;
        }
    }
    *schedule = std::mem::take(&mut shared.lock());
    run.answered = shared.answered();
    let cluster = deployment.cluster();
    let keys = history::written_keys(&run.history);
    let mut verdict = history::check(&run.history, &FinalRead::new());
    for node in cluster.active_nodes() {
        // A node that fails a quiet read of the written keys lost them all.
        verdict.lost_acked_writes += match history::read_back(node.as_ref(), keys.clone()) {
            Ok(read) => history::check(&run.history, &read).lost_acked_writes,
            Err(_) => keys.len() as u64,
        };
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
/// and whose GC has passed nothing over. A piped deployment's service
/// client is rebuilt with it, asking the nodes' phase hook what the network
/// does.
struct Restarting {
    storage: Arc<CutStore>,
    schedule: Arc<Shared<Exhaustive>>,
    /// Cuts the dangling check has seen, and what it found.
    checked: Cell<(u64, u64)>,
    config: ClusterConfig,
    clock: SharedClock,
    cluster: RefCell<Option<Arc<Cluster>>>,
    client: RefCell<Option<Arc<AftClient>>>,
    piped: bool,
    /// Clusters built so far. Each draws its own node and client seeds, or
    /// a new version could land on a crashed node's `data/{key}/{uuid}`.
    incarnations: Cell<u64>,
}

impl Restarting {
    fn boot(&self) {
        let mut config = self.config.clone();
        config.node_template.rng_seed ^= self.incarnations.get() << 32;
        self.incarnations.set(self.incarnations.get() + 1);
        // The client's UUID stream is none of the nodes'.
        let client = AftClient::builder().rng_seed(config.node_template.rng_seed ^ 0x5DC);
        let hook = config.node_template.phase_hook.clone();
        let cluster = Cluster::with_clock(config, self.storage.clone(), self.clock.clone())
            .expect("a cluster over live storage");
        *self.client.borrow_mut() = self.piped.then(|| {
            let hook = hook.expect("the schedule's hook");
            let server = AftServer::builder().pipe(Arc::clone(&cluster));
            client.phase_hook(hook).pipe(&server)
        });
        *self.cluster.borrow_mut() = Some(cluster);
    }
}

impl Deployment for Restarting {
    fn cluster(&self) -> Arc<Cluster> {
        self.cluster.borrow().clone().expect("a booted cluster")
    }

    fn api(&self) -> AftResult<Arc<dyn AftApi>> {
        match &*self.client.borrow() {
            Some(client) => Ok(Arc::clone(client) as Arc<dyn AftApi>),
            None => self.cluster().api(),
        }
    }

    /// Also checks storage for dangling versions after a step that cut a
    /// write: a later retry may supersede them before any read.
    fn restart(&self) -> bool {
        let (seen, found) = self.checked.get();
        let cut = |a: &Answered| matches!(a, Answered::Cut(_, Cut::Crash(_) | Cut::Fail(_)));
        let cuts = self.schedule.count(cut);
        if cuts > seen {
            let found = found + dangling(self.storage.inner());
            self.checked.set((cuts, found));
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
        // A crash restarts the cluster, so the replay rebuilds it alike.
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
        // A transient write is retried and a held batch goes a round later.
        let transients = Scope {
            rounds: 1,
            transients: 1,
            holds: 1,
            ..Scope::default()
        };
        // A request reset after its send has run, and the piped client
        // resends it: the commit, or the later read.
        let piped = Shape {
            piped: true,
            ..Shape::nodes(1)
        };
        let resets = Scope {
            resets: 1,
            ..Scope::default()
        };
        let write_then_read = vec![vec![request("w a"), request("r a")]];
        // Each budget, spent in some schedule of its scope.
        let budgets = |s: Scope| [s.crashes, s.parks, s.kills, s.transients, s.holds, s.resets];
        // Each answer but a pass spends one fault budget.
        let faults = |s: Scope| s.failures + s.fails + budgets(s).iter().sum::<u32>();
        for (shape, clients, scope) in [
            (Shape::nodes(2), rmw, duplicate),
            (Shape::nodes(1), pair, cuts),
            (Shape::nodes(1), writer.clone(), phases),
            (Shape::nodes(2), writer, transients),
            (piped, write_then_read, resets),
        ] {
            let mut schedule = Exhaustive::replay(scope, &[]);
            let mut spent = [false; 6];
            loop {
                let (walked, ..) = settle(shape, &clients, &mut schedule);
                let left = budgets(schedule.left);
                for ((spent, left), budget) in spent.iter_mut().zip(left).zip(budgets(scope)) {
                    *spent |= left < budget;
                }
                let choices = schedule.choices();
                let replay = &mut Exhaustive::replay(scope, &choices);
                let (replayed, ..) = settle(shape, &clients, replay);
                assert_eq!(replayed, walked, "{choices:?}");
                assert_eq!(replay.left, schedule.left, "{choices:?}");
                let spent_faults = faults(scope) - faults(schedule.left);
                assert_eq!(walked.answered.len(), spent_faults as usize, "{choices:?}");
                if !schedule.advance() {
                    break;
                }
            }
            assert_eq!(spent, budgets(scope).map(|b| b > 0), "{scope:?}");
        }
    }

    const DELAY: Duration = Duration::from_millis(2);

    /// A schedule whose storage, net and partition legs all answer, drawn
    /// from `seed`.
    fn every_leg(seed: u64) -> Seeded {
        let mut schedule = Seeded::new(seed, None)
            .transients(0.2)
            .resets(0.2, 0.1, DELAY)
            .partition(0.5, 0..4);
        schedule.storage_faults(true);
        schedule
    }

    /// Twelve node names, and every unordered pair of them.
    fn pairs() -> Vec<(String, String)> {
        let node = |i| format!("aft-node-{i}");
        let pairs = |i| (i + 1..12).map(move |j| (node(i), node(j)));
        (0..12).flat_map(pairs).collect()
    }

    #[test]
    fn identical_seeds_produce_identical_fault_sequences() {
        let answers = |seed| {
            let mut schedule = Seeded::new(seed, None).resets(0.3, 0.2, DELAY);
            (0..200)
                .map(|_| schedule.deliver("commit"))
                .collect::<Vec<_>>()
        };
        assert_eq!(answers(7), answers(7));
        assert_ne!(answers(7), answers(8), "seeds steer the schedule");
        // Request `n` meets the net leg's answer `n`, whatever its verb.
        let mut schedule = Seeded::new(7, None).resets(0.3, 0.2, DELAY);
        let verbs = ["get", "commit", "ping", "stats"];
        let answered: Vec<NetFault> = (0..200).map(|i| schedule.deliver(verbs[i % 4])).collect();
        assert_eq!(answered, answers(7));
    }

    #[test]
    fn decisions_are_order_independent_across_layers() {
        let pairs = pairs();
        let (mut first, mut second) = (every_leg(11), every_leg(11));
        // One leg after another, then all three legs interleaved in the
        // reverse order: each leg answers the same.
        let cuts: Vec<Cut> = (0..100).map(|_| first.cut(1)).collect();
        let delivered: Vec<NetFault> = (0..100).map(|_| first.deliver("get")).collect();
        let held: Vec<bool> = pairs.iter().map(|(a, b)| first.hold(2, a, b)).collect();
        let (mut cut_after, mut delivered_after) = (Vec::new(), Vec::new());
        for i in 0..100 {
            let (a, b) = &pairs[i % pairs.len()];
            assert_eq!(second.hold(2, b, a), held[i % pairs.len()], "{a}, {b}");
            delivered_after.push(second.deliver("commit"));
            cut_after.push(second.cut(3));
        }
        assert_eq!(cut_after, cuts);
        assert_eq!(delivered_after, delivered);
        // Legs sharing one seed draw decorrelated streams.
        let is_fault = |cut: &Cut| *cut != Cut::Pass;
        let reset = |fault: &NetFault| *fault != NetFault::None;
        let (cuts, resets): (Vec<bool>, Vec<bool>) = (
            cuts.iter().map(is_fault).collect(),
            delivered.iter().map(reset).collect(),
        );
        assert_ne!(cuts, resets, "salts decorrelate the legs");
    }

    #[test]
    fn storage_schedule_is_bit_compatible_with_the_legacy_planner() {
        // The storage leg's salt is zero, so a seed recorded by the first
        // storage-only chaos reports replays the same storage schedule. This
        // pins the stream derivation.
        let mut schedule = Seeded::new(42, None).transients(0.2);
        schedule.storage_faults(true);
        let legacy = |op_index: u64| {
            let stream = 42u64
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(op_index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            let mut rng = StdRng::seed_from_u64(stream);
            let draw: f64 = rng.gen_range(0.0..1.0);
            if draw < 0.2 {
                Cut::Transient {
                    applied: rng.gen_bool(0.5),
                }
            } else {
                Cut::Pass
            }
        };
        for i in 0..500 {
            assert_eq!(schedule.cut(1), legacy(i));
        }
    }

    #[test]
    fn partition_cuts_are_symmetric_seeded_and_windowed() {
        let mut schedule = Seeded::new(77, None).partition(0.5, 2..6);
        let mut replay = Seeded::new(77, None).partition(0.5, 2..6);
        let mut cut_edges = 0;
        for (a, b) in &pairs() {
            // Symmetric in the endpoints.
            assert_eq!(schedule.hold(3, a, b), schedule.hold(3, b, a));
            // Outside the window nothing is cut.
            assert!(!schedule.hold(1, a, b));
            assert!(!schedule.hold(6, a, b));
            if schedule.hold(2, a, b) {
                cut_edges += 1;
                // A cut edge stays down for the whole window.
                assert!(schedule.hold(5, a, b));
            }
            // The same seed replays the same cut set.
            assert_eq!(schedule.hold(4, a, b), replay.hold(4, a, b));
        }
        let total = pairs().len();
        assert!(
            cut_edges > 0 && cut_edges < total,
            "a 0.5 cut over {total} edges should fell some but not all, felled {cut_edges}"
        );
    }

    #[test]
    fn a_seed_cuts_the_same_edges_on_every_toolchain() {
        // The names are mixed by a specified hash, so this set is fixed by
        // the seed alone, whichever compiler built the test.
        let mut schedule = Seeded::new(77, None).partition(0.5, 2..6);
        let cut = pairs().into_iter().filter(|(a, b)| schedule.hold(3, a, b));
        let cut: Vec<String> = cut
            .map(|(a, b)| format!("{}-{}", &a[9..], &b[9..]))
            .collect();
        let pinned = "0-2 0-4 0-5 0-7 0-10 1-3 1-4 1-7 2-3 2-6 2-8 3-4 3-5 3-7 3-8 4-7 4-11 \
                      5-6 5-8 5-9 5-11 7-10 7-11 8-10 8-11 9-11";
        assert_eq!(cut.join(" "), pinned);
    }

    #[test]
    fn rates_map_to_the_right_fault_kinds() {
        let mut schedule = Seeded::new(3, None).resets(0.5, 0.5, DELAY);
        let faults: Vec<NetFault> = (0..400).map(|_| schedule.deliver("get")).collect();
        assert!(faults.contains(&NetFault::ResetBeforeSend));
        assert!(faults.contains(&NetFault::ResetAfterSend));
        assert!(faults.contains(&NetFault::DelayAck(DELAY)));
        assert_eq!(schedule.requests, 400);
    }

    #[test]
    fn zero_rates_inject_nothing() {
        // A partition window that closes where it opens cuts nothing.
        let mut schedule = Seeded::new(1, None).partition(1.0, 4..4);
        schedule.storage_faults(true);
        for round in 0..100 {
            assert_eq!(schedule.deliver("ping"), NetFault::None);
            assert_eq!(schedule.cut(1), Cut::Pass);
            assert!(!schedule.hold(round, "a", "b"));
            assert_eq!(schedule.fate(), None);
        }
    }

    #[test]
    fn each_answer_but_a_pass_is_logged_once_whoever_asks() {
        // Every leg answers, invocations fail, and `n1` dies the fourth time
        // it reaches `BeforeBroadcast`.
        let at = CommitPhase::BeforeBroadcast;
        let mut schedule = every_leg(11).kill("n1", at, 3);
        let fates = FailureInjector::new(5, aft_faas::FaasChaos::uniform(0.3));
        schedule.injector = Some(Arc::new(fates));
        let (shared, mut faults) = (Shared::new(schedule), 0);
        for (round, (a, b)) in (0..4).cycle().zip(pairs().iter().take(40)) {
            // Storage's and the nodes' hooks, then the stepper's `&Shared`.
            let asked = &mut &*shared;
            let answers = [
                CutHook::cut(&*shared, 2) != Cut::Pass,
                asked.cut(0) != Cut::Pass,
                PhaseHook::hold(&*shared, round, a, b),
                asked.hold(round, b, a),
                PhaseHook::deliver(&*shared, "commit") != NetFault::None,
                asked.deliver("get") != NetFault::None,
                PhaseHook::at(&*shared, "n1", at).is_err(),
                asked.phase("n1", at, false) != Answer::Go,
                asked.fate().is_some(),
            ];
            faults += answers.into_iter().filter(|&fault| fault).count();
        }
        let answered = shared.answered();
        assert_eq!(answered.len(), faults);
        let kinds: HashSet<_> = answered.iter().map(std::mem::discriminant).collect();
        assert_eq!(kinds.len(), 5, "every kind of answer: {answered:?}");
    }

    #[test]
    #[should_panic(expected = "not a function of its schedule")]
    fn a_replayed_list_whose_option_counts_diverge_panics() {
        let schedule = &mut Exhaustive::replay(Scope::default(), &[2]);
        settle(Shape::nodes(1), &two_writers(), schedule);
    }
}
