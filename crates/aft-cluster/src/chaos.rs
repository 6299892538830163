//! Cluster-level chaos: killing nodes mid-commit and measuring recovery.
//!
//! [`ChaosController`] turns the commit-phase crash hooks of
//! [`aft_core::CommitProbe`] into cluster scenarios: it arms a kill on one
//! node at a precise [`CommitPhase`] (each phase is a distinct scenario of
//! the paper's fault model — see the phase docs), marks the node failed in
//! the registry the instant the crash fires, and then drives the recovery
//! machinery — fault-manager commit-set scans (§4.2) and standby replacement
//! (§6.7) — until the cluster converges, reporting recovery in maintenance
//! rounds.
//!
//! The kill fires on the N-th commit reaching the armed phase on the target
//! node, and recovery is counted in rounds, not time: a workload whose calls
//! one seeded thread orders (as `fig10_recovery`'s stepper does) reproduces
//! the same crash point and the same recovery run after run. Under
//! concurrent callers the N-th commit is whichever the OS lets through
//! first.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use aft_chaos::ChaosSpec;
use aft_core::{AftNode, CommitPhase, CommitProbe};
use aft_types::{AftError, AftResult, TransactionId};
use parking_lot::Mutex;

use crate::cluster::Cluster;
use crate::membership::{NodeRegistry, NodeState};

// The kill vocabulary is canonical in `aft-chaos` (a kill is the fourth leg
// of a cross-layer `ChaosSpec`); re-exported here because this is the layer
// that executes it.
pub use aft_chaos::KillPlan;

/// What one [`ChaosController::drive_recovery`] call observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryOutcome {
    /// Maintenance rounds driven (including the quiet confirmation rounds).
    pub rounds: usize,
    /// Commits the fault manager recovered from storage during the drive —
    /// commits whose broadcast died with a node.
    pub recovered_commits: u64,
    /// Failed nodes replaced with fresh standbys during the drive.
    pub replaced_nodes: usize,
    /// Maintenance rounds that failed outright (chaos faults surviving the
    /// I/O retry budget) and were retried.
    pub failed_rounds: usize,
    /// Whether the cluster converged (two consecutive quiet rounds with no
    /// failed nodes) within the round budget.
    pub converged: bool,
}

/// The probe a [`ChaosController`] installs on its target node.
struct KillProbe {
    registry: Arc<NodeRegistry>,
    phase: CommitPhase,
    after_commits: u64,
    commits_seen: AtomicU64,
    fired: AtomicBool,
}

impl CommitProbe for KillProbe {
    fn before_phase(
        &self,
        node_id: &str,
        _txid: &TransactionId,
        phase: CommitPhase,
    ) -> AftResult<()> {
        // A dead node stays dead: every commit after the crash fails too
        // (stragglers that routed here before the registry update).
        if self.fired.load(Ordering::Acquire) {
            return Err(AftError::Unavailable(format!(
                "chaos: node {node_id} is down"
            )));
        }
        if phase != self.phase {
            return Ok(());
        }
        let seen = self.commits_seen.fetch_add(1, Ordering::AcqRel);
        if seen < self.after_commits {
            return Ok(());
        }
        if !self.fired.swap(true, Ordering::AcqRel) {
            self.registry.set_state(node_id, NodeState::Failed);
        }
        Err(AftError::Unavailable(format!(
            "chaos: node {node_id} crashed {}",
            phase.label()
        )))
    }
}

/// The one-shot probe a [`ChaosController`] installs for
/// [`CommitPhase::DuringCheckpointBootstrap`] kills: it tears the *first*
/// bootstrap that reaches the checkpoint phase after arming (the victim's
/// replacement) and lets every later attempt proceed, so the retried
/// replacement converges and the drive can prove a torn bootstrap is
/// harmless.
struct BootstrapInterrupter {
    fired: AtomicBool,
    interruptions: AtomicU64,
}

impl CommitProbe for BootstrapInterrupter {
    fn before_phase(
        &self,
        node_id: &str,
        _txid: &TransactionId,
        phase: CommitPhase,
    ) -> AftResult<()> {
        if phase != CommitPhase::DuringCheckpointBootstrap {
            return Ok(());
        }
        if !self.fired.swap(true, Ordering::AcqRel) {
            self.interruptions.fetch_add(1, Ordering::Relaxed);
            return Err(AftError::Unavailable(format!(
                "chaos: node {node_id} killed mid-bootstrap"
            )));
        }
        Ok(())
    }
}

/// Arms node kills and drives the cluster's recovery machinery.
pub struct ChaosController {
    cluster: Arc<Cluster>,
    kills: Mutex<Vec<Arc<KillProbe>>>,
    interrupters: Mutex<Vec<Arc<BootstrapInterrupter>>>,
}

impl ChaosController {
    /// A controller over `cluster`.
    pub fn new(cluster: Arc<Cluster>) -> Self {
        ChaosController {
            cluster,
            kills: Mutex::new(Vec::new()),
            interrupters: Mutex::new(Vec::new()),
        }
    }

    /// The controlled cluster.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Arms `plan`: installs a crash probe on the target node. Fails if the
    /// node is not registered. Arming again *adds* a kill — one trial may
    /// crash several nodes.
    ///
    /// A [`CommitPhase::DuringCheckpointBootstrap`] plan is a two-part
    /// scenario: the victim is killed in the §4.2 lost-broadcast window
    /// (after `after_commits` commits), and a one-shot interrupter is
    /// registered with the cluster so the replacement's first
    /// checkpoint-bootstrap is torn mid-flight. The retried replacement must
    /// still converge to the full-replay state.
    pub fn arm_kill(&self, plan: KillPlan) -> AftResult<Arc<AftNode>> {
        let node = self.cluster.registry().get(&plan.node_id).ok_or_else(|| {
            AftError::InvalidRequest(format!("chaos: unknown node {:?}", plan.node_id))
        })?;
        let phase = if plan.phase == CommitPhase::DuringCheckpointBootstrap {
            let interrupter = Arc::new(BootstrapInterrupter {
                fired: AtomicBool::new(false),
                interruptions: AtomicU64::new(0),
            });
            self.cluster
                .set_bootstrap_interrupter(Arc::clone(&interrupter) as Arc<dyn CommitProbe>);
            self.interrupters.lock().push(interrupter);
            // The victim itself dies at the most demanding commit phase: its
            // last commit is durable but silent, so recovery must both find
            // the lost commit *and* survive the torn bootstrap.
            CommitPhase::BeforeBroadcast
        } else {
            plan.phase
        };
        let probe = Arc::new(KillProbe {
            registry: Arc::clone(self.cluster.registry()),
            phase,
            after_commits: plan.after_commits,
            commits_seen: AtomicU64::new(0),
            fired: AtomicBool::new(false),
        });
        node.install_commit_probe(Arc::clone(&probe) as Arc<dyn CommitProbe>);
        self.kills.lock().push(probe);
        Ok(node)
    }

    /// Arms every cluster-level leg of a unified cross-layer `spec`: its
    /// kills (returning the target nodes in spec order) and, when the spec
    /// carries partition pressure, the seeded edge-cut schedule on the
    /// cluster's disseminator. Fails (arming nothing further) on the first
    /// unknown kill target.
    pub fn arm_spec(&self, spec: &ChaosSpec) -> AftResult<Vec<Arc<AftNode>>> {
        if !spec.partition.is_quiet() {
            self.cluster.disseminator().arm_partition(spec.schedule());
        }
        spec.kills
            .iter()
            .map(|plan| self.arm_kill(plan.clone()))
            .collect()
    }

    /// Whether any armed kill has fired.
    pub fn kill_fired(&self) -> bool {
        self.kills
            .lock()
            .iter()
            .any(|p| p.fired.load(Ordering::Acquire))
    }

    /// Number of armed kills that have fired.
    pub fn kills_fired(&self) -> usize {
        self.kills
            .lock()
            .iter()
            .filter(|p| p.fired.load(Ordering::Acquire))
            .count()
    }

    /// Bootstraps torn by armed checkpoint-bootstrap kills so far.
    pub fn bootstrap_interruptions(&self) -> u64 {
        self.interrupters
            .lock()
            .iter()
            .map(|p| p.interruptions.load(Ordering::Relaxed))
            .sum()
    }

    /// Drives replacement and maintenance rounds until the cluster
    /// converges: no failed nodes remain and two consecutive rounds recover
    /// nothing new from storage. Rounds that fail outright (chaos faults
    /// outliving the I/O retry budget, a replacement bootstrap dying) are
    /// counted and retried — recovery must be *live* under the same fault
    /// injection that caused the damage.
    pub fn drive_recovery(&self, max_rounds: usize) -> RecoveryOutcome {
        let fault_manager = self.cluster.fault_manager();
        let recovered_before = fault_manager.recovered_commits();
        let mut outcome = RecoveryOutcome::default();
        let mut quiet_rounds = 0;
        while outcome.rounds < max_rounds {
            outcome.rounds += 1;
            match self.cluster.replace_failed_nodes() {
                Ok(replaced) => outcome.replaced_nodes += replaced,
                Err(_) => {
                    outcome.failed_rounds += 1;
                    continue;
                }
            }
            match self.cluster.run_maintenance_round() {
                Ok(stats) => {
                    // "Quiet" must also cover dissemination: metadata parked
                    // on cut edges (or just drained from it) is recovery
                    // still in flight, not convergence.
                    let nothing_new = stats.recovered_commits == 0
                        && stats.broadcast.retried == 0
                        && self.cluster.disseminator().pending_retries() == 0;
                    let all_up = self.cluster.registry().failed_node_ids().is_empty();
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
                Err(_) => {
                    outcome.failed_rounds += 1;
                    quiet_rounds = 0;
                }
            }
        }
        outcome.recovered_commits = fault_manager.recovered_commits() - recovered_before;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use aft_storage::InMemoryStore;
    use aft_types::Key;
    use bytes::Bytes;

    fn test_cluster(nodes: usize) -> Arc<Cluster> {
        Cluster::with_clock(
            ClusterConfig::test(nodes),
            InMemoryStore::shared(),
            aft_types::clock::TickingClock::shared(1, 1),
        )
        .unwrap()
    }

    fn commit_on(node: &Arc<AftNode>, key: &str, value: &str) -> AftResult<TransactionId> {
        let t = node.start_transaction();
        node.put(&t, Key::new(key), Bytes::copy_from_slice(value.as_bytes()))?;
        node.commit(&t)
    }

    #[test]
    fn arming_an_unknown_node_is_an_error() {
        let controller = ChaosController::new(test_cluster(1));
        match controller.arm_kill(KillPlan::immediate("ghost", CommitPhase::BeforeBroadcast)) {
            Err(AftError::InvalidRequest(msg)) => assert!(msg.contains("ghost")),
            Err(other) => panic!("expected InvalidRequest, got {other:?}"),
            Ok(_) => panic!("arming a ghost node must fail"),
        }
        assert!(!controller.kill_fired());
    }

    #[test]
    fn kill_fires_on_the_configured_commit_and_stays_down() {
        let cluster = test_cluster(2);
        let controller = ChaosController::new(Arc::clone(&cluster));
        let victim = controller
            .arm_kill(
                KillPlan::immediate("aft-node-0", CommitPhase::BeforeDataPut).after_commits(2),
            )
            .unwrap();

        // Two commits pass unharmed, the third crashes.
        commit_on(&victim, "a", "1").unwrap();
        commit_on(&victim, "b", "2").unwrap();
        assert!(!controller.kill_fired());
        let err = commit_on(&victim, "c", "3").unwrap_err();
        assert!(matches!(err, AftError::Unavailable(_)));
        assert!(controller.kill_fired());
        assert_eq!(controller.kills_fired(), 1);
        assert_eq!(
            cluster.registry().state_of("aft-node-0"),
            Some(NodeState::Failed)
        );
        // Nothing of the crashed commit reached storage (BeforeDataPut).
        assert!(cluster.storage().list_prefix("data/c/").unwrap().is_empty());
        // A straggler commit on the dead node also fails.
        assert!(matches!(
            commit_on(&victim, "d", "4").unwrap_err(),
            AftError::Unavailable(_)
        ));
    }

    #[test]
    fn silent_commit_is_recovered_and_node_replaced() {
        let cluster = test_cluster(3);
        let controller = ChaosController::new(Arc::clone(&cluster));
        let victim = controller
            .arm_kill(KillPlan::immediate(
                "aft-node-1",
                CommitPhase::BeforeBroadcast,
            ))
            .unwrap();

        // The victim's commit is durable but unacknowledged and never
        // broadcast (§4.2's lost-broadcast window).
        let err = commit_on(&victim, "silent", "payload").unwrap_err();
        assert!(matches!(err, AftError::Unavailable(_)));
        assert_eq!(cluster.storage().list_prefix("commit/").unwrap().len(), 1);

        let outcome = controller.drive_recovery(20);
        assert!(outcome.converged, "recovery must converge: {outcome:?}");
        assert_eq!(outcome.recovered_commits, 1, "the silent commit is found");
        assert_eq!(outcome.replaced_nodes, 1);
        assert_eq!(outcome.failed_rounds, 0);
        assert_eq!(cluster.registry().active_count(), 3);

        // Every active node (including the fresh replacement) now serves the
        // recovered commit.
        for node in cluster.active_nodes() {
            let t = node.start_transaction();
            assert_eq!(
                node.get(&t, &Key::new("silent")).unwrap().unwrap(),
                Bytes::from_static(b"payload"),
                "node {} must see the recovered commit",
                node.node_id()
            );
        }
    }

    #[test]
    fn arm_spec_arms_every_kill_of_a_cross_layer_spec() {
        let cluster = test_cluster(3);
        let controller = ChaosController::new(Arc::clone(&cluster));
        let spec = ChaosSpec::new(0xC0FFEE)
            .kill(KillPlan::immediate(
                "aft-node-0",
                CommitPhase::BeforeDataPut,
            ))
            .kill(KillPlan::immediate(
                "aft-node-1",
                CommitPhase::BeforeBroadcast,
            ));
        let victims = controller.arm_spec(&spec).unwrap();
        assert_eq!(victims.len(), 2);
        assert_eq!(controller.kills_fired(), 0);

        assert!(commit_on(&victims[0], "a", "1").is_err());
        assert_eq!(controller.kills_fired(), 1);
        assert!(commit_on(&victims[1], "b", "2").is_err());
        assert_eq!(controller.kills_fired(), 2);
        assert!(controller.kill_fired());

        let outcome = controller.drive_recovery(30);
        assert!(outcome.converged, "recovery must converge: {outcome:?}");
        assert_eq!(outcome.replaced_nodes, 2, "both victims are replaced");
        assert_eq!(cluster.registry().active_count(), 3);
    }

    #[test]
    fn arm_spec_rejects_unknown_nodes() {
        let controller = ChaosController::new(test_cluster(1));
        let spec = ChaosSpec::new(1).kill(KillPlan::immediate("ghost", CommitPhase::BeforeDataPut));
        assert!(matches!(
            controller.arm_spec(&spec),
            Err(AftError::InvalidRequest(_))
        ));
    }

    #[test]
    fn checkpoint_write_kill_marks_node_failed_and_recovery_converges() {
        use aft_core::CheckpointPolicy;
        let cluster = Cluster::with_clock(
            ClusterConfig::test(3).with_checkpoint_policy(CheckpointPolicy::every_commits(2)),
            InMemoryStore::shared(),
            aft_types::clock::TickingClock::shared(1, 1),
        )
        .unwrap();
        let controller = ChaosController::new(Arc::clone(&cluster));
        let victim = controller
            .arm_kill(KillPlan::immediate(
                "aft-node-0",
                CommitPhase::DuringCheckpointWrite,
            ))
            .unwrap();

        // Commits pass unharmed (the probe only matches the checkpoint
        // phase); the maintenance round's checkpoint write fires the kill.
        commit_on(&victim, "a", "1").unwrap();
        commit_on(&victim, "b", "2").unwrap();
        let stats = cluster.run_maintenance_round().unwrap();
        assert_eq!(stats.checkpoint_failures, 1);
        assert!(controller.kill_fired());
        assert_eq!(
            cluster.registry().state_of("aft-node-0"),
            Some(NodeState::Failed)
        );
        // The torn checkpoint published no manifest: nothing to load.
        let load = aft_storage::load_latest_checkpoint(cluster.io()).unwrap();
        assert!(load.checkpoint.is_none(), "manifest was never published");

        let outcome = controller.drive_recovery(30);
        assert!(outcome.converged, "recovery must converge: {outcome:?}");
        assert_eq!(outcome.replaced_nodes, 1);
        for node in cluster.active_nodes() {
            let t = node.start_transaction();
            assert_eq!(
                node.get(&t, &Key::new("b")).unwrap().unwrap(),
                Bytes::from_static(b"2")
            );
        }
    }

    #[test]
    fn torn_bootstrap_is_retried_and_recovery_converges() {
        use aft_core::CheckpointPolicy;
        let cluster = Cluster::with_clock(
            ClusterConfig::test(3).with_checkpoint_policy(CheckpointPolicy::every_commits(2)),
            InMemoryStore::shared(),
            aft_types::clock::TickingClock::shared(1, 1),
        )
        .unwrap();
        let controller = ChaosController::new(Arc::clone(&cluster));
        let victim = controller
            .arm_kill(KillPlan::immediate(
                "aft-node-1",
                CommitPhase::DuringCheckpointBootstrap,
            ))
            .unwrap();

        // Seed a checkpoint so the replacement really bootstraps from
        // checkpoint + tail, then kill the victim (silent durable commit).
        let healthy = cluster.registry().get("aft-node-0").unwrap();
        commit_on(&healthy, "warm", "1").unwrap();
        commit_on(&healthy, "warm", "2").unwrap();
        let stats = cluster.run_maintenance_round().unwrap();
        assert_eq!(stats.checkpoints_written, 1, "only the committer is due");
        let err = commit_on(&victim, "silent", "payload").unwrap_err();
        assert!(matches!(err, AftError::Unavailable(_)));

        let outcome = controller.drive_recovery(30);
        assert!(outcome.converged, "recovery must converge: {outcome:?}");
        assert_eq!(
            controller.bootstrap_interruptions(),
            1,
            "exactly one bootstrap is torn"
        );
        assert!(
            outcome.failed_rounds >= 1,
            "the torn bootstrap costs a round: {outcome:?}"
        );
        assert_eq!(outcome.replaced_nodes, 1, "the retry succeeds");
        assert_eq!(cluster.registry().active_count(), 3);
        for node in cluster.active_nodes() {
            let t = node.start_transaction();
            assert_eq!(
                node.get(&t, &Key::new("silent")).unwrap().unwrap(),
                Bytes::from_static(b"payload"),
                "node {} must serve the recovered commit",
                node.node_id()
            );
        }
    }

    #[test]
    fn recovery_converges_quickly_when_nothing_is_wrong() {
        let cluster = test_cluster(2);
        let controller = ChaosController::new(Arc::clone(&cluster));
        let outcome = controller.drive_recovery(10);
        assert!(outcome.converged);
        assert_eq!(outcome.recovered_commits, 0);
        assert_eq!(outcome.replaced_nodes, 0);
        assert!(outcome.rounds <= 3, "quiet cluster converges in 2 rounds");
    }
}
