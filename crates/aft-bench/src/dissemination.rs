//! `fig12_dissemination`: commit-metadata dissemination at cluster scale —
//! does the metadata plane survive 100 nodes?
//!
//! The paper's deployments stop at a handful of nodes, where the §4.2 flat
//! broadcast (every origin to every peer) is cheap. This experiment sweeps
//! cluster size and runs the same commits through the cluster's
//! spanning-tree sweep ([`Disseminator`]) and through the flat reference
//! ([`broadcast_round`]), measuring what actually limits scale:
//!
//! * **messages/op** and **bytes/op** — the metadata traffic each committed
//!   transaction costs the cluster. Flat broadcast pays `origins·(n−1)`
//!   messages per round; the convergecast/broadcast sweep pays at most
//!   `2·(n−1)` regardless of origins.
//! * **propagation lag p50/p99** — commit-record age at application on a
//!   peer, from each node's [`propagation_lag`](aft_core) recorder. The
//!   sweep relays within the round, so lag stays ≈ one dissemination
//!   interval; the gate rejects anything beyond three.
//! * **staleness window** — interval + lag p99: the §3.2 bound on how old a
//!   node's view of a remote commit can be.
//!
//! The cluster is `n` in-process AFT nodes on one shared [`MockClock`]
//! advanced by exactly one interval per round, so lag is measured in
//! *virtual* milliseconds — deterministic, and independent of host speed.
//!
//! A second leg replays the sweep while every node's phase hook, a
//! [`Seeded`] schedule, holds each batch sent over an edge that its seeded
//! edge-cut ([`Seeded::partition`]) severs (§4.2's "broadcast lost" window,
//! scaled to a metadata partition): deliveries park on retry queues while
//! the cut holds, and after the heal the leg must converge with **zero**
//! lost commits and **zero** unaccounted records.
//! [`DisseminationReport::check_gate`] enforces all of it in CI; results
//! land in `BENCH_dissemination.json`.

use std::sync::Arc;

use aft_cluster::{broadcast_round, BroadcastStats, Disseminator};
use aft_core::{AftNode, NodeConfig, PhaseHook};
use aft_storage::{InMemoryStore, SharedStorage};
use aft_types::clock::MockClock;
use aft_types::{Key, TransactionId, Value};
use aft_workload::sim::{Seeded, Shared};

use crate::cli::{Args, Outcome};
use crate::json::Json;
use crate::report::{round2, Table};

/// Configuration of the dissemination sweep.
#[derive(Debug, Clone)]
pub struct DisseminationBenchConfig {
    /// Cluster sizes to sweep (virtual-clock in-process nodes).
    pub node_counts: Vec<usize>,
    /// Dissemination rounds per cell.
    pub rounds: usize,
    /// Commits issued per round, spread round-robin across the nodes.
    pub commits_per_round: usize,
    /// Virtual milliseconds per dissemination interval.
    pub interval_ms: u64,
    /// Cluster size of the partition leg.
    pub partition_nodes: usize,
    /// Fraction of edges the partition leg cuts.
    pub cut_fraction: f64,
    /// Partition window in rounds, from the leg's first.
    pub cut_rounds: u64,
    /// Extra rounds the partition leg may take to drain its retries.
    pub heal_budget: usize,
    /// Base seed (node uuids and the edge-cut schedule).
    pub seed: u64,
}

impl DisseminationBenchConfig {
    /// The full sweep: 16 → 100 nodes, with the partition leg on a 64-node
    /// cluster.
    pub fn standard() -> Self {
        DisseminationBenchConfig {
            node_counts: vec![16, 32, 64, 100],
            rounds: 8,
            commits_per_round: 64,
            interval_ms: 1_000,
            partition_nodes: 64,
            cut_fraction: 0.4,
            cut_rounds: 3,
            heal_budget: 32,
            seed: 0xD155,
        }
    }

    /// The CI configuration: 16 and 32 nodes with a 16-node partition leg,
    /// fast enough for every PR.
    pub fn fast() -> Self {
        DisseminationBenchConfig {
            node_counts: vec![16, 32],
            rounds: 4,
            commits_per_round: 24,
            partition_nodes: 16,
            ..DisseminationBenchConfig::standard()
        }
    }
}

/// The cluster's spanning-tree sweep.
const SWEEP: &str = "sweep";
/// The paper's flat exchange, the reference.
const FLAT: &str = "flat";

/// One (cluster size, path) cell of the sweep.
#[derive(Debug, Clone)]
pub struct DisseminationCell {
    /// Cluster size.
    pub nodes: usize,
    /// How the cell moved its records: `"sweep"` or `"flat"`.
    pub path: &'static str,
    /// Commits disseminated.
    pub ops: usize,
    /// Messages sent (batched edge-sends).
    pub messages: u64,
    /// Encoded commit-record bytes moved.
    pub bytes: u64,
    /// Duplicate deliveries absorbed by receiver dedup.
    pub duplicates: u64,
    /// Median commit-record age at peer application, virtual ms.
    pub lag_p50_ms: f64,
    /// Worst-node p99 commit-record age at peer application, virtual ms.
    pub lag_p99_ms: f64,
    /// Records some node neither applied nor saw superseded. Must be zero.
    pub unaccounted: u64,
}

impl DisseminationCell {
    /// Messages per committed transaction.
    pub fn messages_per_op(&self) -> f64 {
        self.messages as f64 / self.ops.max(1) as f64
    }

    /// Bytes per committed transaction.
    pub fn bytes_per_op(&self) -> f64 {
        self.bytes as f64 / self.ops.max(1) as f64
    }

    /// Interval + lag p99: the bound on how stale a node's view of a
    /// remote commit can be.
    pub fn staleness_window_ms(&self, interval_ms: u64) -> f64 {
        interval_ms as f64 + self.lag_p99_ms
    }
}

/// One partition-chaos leg: a seeded edge-cut under the sweep.
#[derive(Debug, Clone)]
pub struct PartitionLeg {
    /// Cluster size.
    pub nodes: usize,
    /// Commits disseminated through the cut.
    pub ops: usize,
    /// Deliveries parked on cut edges while the partition held.
    pub link_drops: u64,
    /// Parked deliveries re-driven after the heal.
    pub retried: u64,
    /// Rounds from arming to full convergence (retry queues empty).
    pub rounds_to_converge: usize,
    /// Whether the retry queues drained within the heal budget.
    pub converged: bool,
    /// Commits some node never accounted for. Must be zero.
    pub lost_commits: u64,
}

/// The whole sweep's results.
#[derive(Debug, Clone)]
pub struct DisseminationReport {
    /// Every (cluster size, path) cell, sizes ascending.
    pub cells: Vec<DisseminationCell>,
    /// The partition-chaos legs.
    pub partition_legs: Vec<PartitionLeg>,
    /// The interval the sweep ran at, virtual ms.
    pub interval_ms: u64,
}

impl DisseminationReport {
    fn cell(&self, nodes: usize, path: &str) -> Option<&DisseminationCell> {
        self.cells
            .iter()
            .find(|c| c.nodes == nodes && c.path == path)
    }

    /// The messages/op ratio of the flat reference over the sweep at one
    /// cluster size (how many times cheaper the sweep is).
    pub fn reduction_vs_flat(&self, nodes: usize) -> Option<f64> {
        let flat = self.cell(nodes, FLAT)?;
        let sweep = self.cell(nodes, SWEEP)?;
        Some(flat.messages_per_op() / sweep.messages_per_op().max(f64::MIN_POSITIVE))
    }

    /// The CI gate:
    ///
    /// * coverage — both paths at ≥ 2 cluster sizes, one ≥ 16;
    /// * every cell accounts for every record on every node;
    /// * at every size ≥ 16 the sweep sends strictly fewer messages/op than
    ///   the flat reference — and ≥ 10× fewer at ≥ 64 nodes, where the
    ///   quadratic reference actually hurts;
    /// * unpartitioned propagation lag p99 within 3 dissemination
    ///   intervals;
    /// * every partition leg converged with zero lost commits (and really
    ///   cut something).
    pub fn check_gate(&self) -> Result<String, String> {
        let sizes: std::collections::BTreeSet<usize> = self.cells.iter().map(|c| c.nodes).collect();
        if sizes.len() < 2 || sizes.iter().max().copied().unwrap_or(0) < 16 {
            return Err(format!("sweep too small: sizes {sizes:?}"));
        }
        for &nodes in &sizes {
            let (Some(flat), Some(sweep)) = (self.cell(nodes, FLAT), self.cell(nodes, SWEEP))
            else {
                return Err(format!("{nodes} nodes: missing a sweep or flat cell"));
            };
            if nodes >= 16 && sweep.messages_per_op() >= flat.messages_per_op() {
                return Err(format!(
                    "{nodes} nodes: the sweep sends {:.2} messages/op, not below flat's {:.2}",
                    sweep.messages_per_op(),
                    flat.messages_per_op()
                ));
            }
            let reduction = self.reduction_vs_flat(nodes).unwrap_or(0.0);
            if nodes >= 64 && reduction < 10.0 {
                return Err(format!(
                    "{nodes} nodes: the sweep reduces messages/op only {reduction:.1}x vs flat; need >= 10x"
                ));
            }
        }
        for cell in &self.cells {
            if cell.unaccounted > 0 {
                return Err(format!(
                    "{}/{} nodes: {} records unaccounted",
                    cell.path, cell.nodes, cell.unaccounted
                ));
            }
            if cell.lag_p99_ms > (3 * self.interval_ms) as f64 {
                return Err(format!(
                    "{}/{} nodes: lag p99 {:.0}ms exceeds 3 intervals ({}ms)",
                    cell.path,
                    cell.nodes,
                    cell.lag_p99_ms,
                    3 * self.interval_ms
                ));
            }
        }
        if self.partition_legs.is_empty() {
            return Err("no partition legs ran".to_owned());
        }
        for leg in &self.partition_legs {
            let label = format!("partition/{} nodes", leg.nodes);
            if leg.link_drops == 0 {
                return Err(format!("{label}: the edge-cut never dropped a delivery"));
            }
            if !leg.converged {
                return Err(format!("{label}: retry queues never drained"));
            }
            if leg.lost_commits > 0 {
                return Err(format!("{label}: {} commits lost", leg.lost_commits));
            }
        }
        let best = self
            .reduction_vs_flat(sizes.iter().max().copied().unwrap_or(16))
            .unwrap_or(0.0);
        Ok(format!(
            "{} cells clean at sizes {sizes:?}: sweep {best:.1}x cheaper than flat at the top size, \
             lag p99 within 3 intervals, {} partition legs healed with 0 lost commits",
            self.cells.len(),
            self.partition_legs.len()
        ))
    }

    /// Renders the sweep as an aligned text table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "fig12_dissemination — commit-metadata dissemination: the sweep vs flat by cluster size",
            &[
                "nodes",
                "path",
                "msgs/op",
                "bytes/op",
                "lag p50 (ms)",
                "lag p99 (ms)",
                "staleness (ms)",
                "duplicates",
            ],
        );
        for cell in &self.cells {
            table.add_row(vec![
                cell.nodes.to_string(),
                cell.path.to_owned(),
                format!("{:.2}", cell.messages_per_op()),
                format!("{:.0}", cell.bytes_per_op()),
                format!("{:.0}", cell.lag_p50_ms),
                format!("{:.0}", cell.lag_p99_ms),
                format!("{:.0}", cell.staleness_window_ms(self.interval_ms)),
                cell.duplicates.to_string(),
            ]);
        }
        table
    }

    /// Renders the partition legs as an aligned text table.
    pub fn partition_table(&self) -> Table {
        let mut table = Table::new(
            "fig12_dissemination — partition chaos: seeded edge-cut under the sweep",
            &[
                "nodes",
                "link drops",
                "retried",
                "rounds to converge",
                "lost commits",
                "converged",
            ],
        );
        for leg in &self.partition_legs {
            table.add_row(vec![
                leg.nodes.to_string(),
                leg.link_drops.to_string(),
                leg.retried.to_string(),
                leg.rounds_to_converge.to_string(),
                leg.lost_commits.to_string(),
                leg.converged.to_string(),
            ]);
        }
        table
    }

    /// Serialises the report as the `BENCH_dissemination.json` document.
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("nodes", Json::Num(c.nodes as f64)),
                    ("path", Json::str(c.path)),
                    ("ops", Json::Num(c.ops as f64)),
                    ("messages", Json::Num(c.messages as f64)),
                    ("bytes", Json::Num(c.bytes as f64)),
                    ("messages_per_op", Json::Num(round2(c.messages_per_op()))),
                    ("bytes_per_op", Json::Num(round2(c.bytes_per_op()))),
                    ("lag_p50_ms", Json::Num(round2(c.lag_p50_ms))),
                    ("lag_p99_ms", Json::Num(round2(c.lag_p99_ms))),
                    (
                        "staleness_window_ms",
                        Json::Num(round2(c.staleness_window_ms(self.interval_ms))),
                    ),
                    ("duplicates", Json::Num(c.duplicates as f64)),
                    ("unaccounted", Json::Num(c.unaccounted as f64)),
                ])
            })
            .collect();
        let legs = self
            .partition_legs
            .iter()
            .map(|l| {
                Json::obj(vec![
                    ("nodes", Json::Num(l.nodes as f64)),
                    ("ops", Json::Num(l.ops as f64)),
                    ("link_drops", Json::Num(l.link_drops as f64)),
                    ("retried", Json::Num(l.retried as f64)),
                    ("rounds_to_converge", Json::Num(l.rounds_to_converge as f64)),
                    ("lost_commits", Json::Num(l.lost_commits as f64)),
                    ("converged", Json::Bool(l.converged)),
                ])
            })
            .collect();
        let max_size = self.cells.iter().map(|c| c.nodes).max().unwrap_or(0);
        Json::obj(vec![
            ("experiment", Json::str("fig12_dissemination")),
            (
                "summary",
                Json::obj(vec![
                    ("cells", Json::Num(self.cells.len() as f64)),
                    ("interval_ms", Json::Num(self.interval_ms as f64)),
                    ("max_nodes", Json::Num(max_size as f64)),
                    (
                        "sweep_reduction_at_max",
                        Json::Num(round2(self.reduction_vs_flat(max_size).unwrap_or(0.0))),
                    ),
                    (
                        "partition_lost_commits",
                        Json::Num(
                            self.partition_legs
                                .iter()
                                .map(|l| l.lost_commits)
                                .sum::<u64>() as f64,
                        ),
                    ),
                ]),
            ),
            ("cells", Json::Arr(cells)),
            ("partition_legs", Json::Arr(legs)),
        ])
    }
}

/// An in-process virtual-clock cluster: `n` nodes on one shared
/// [`MockClock`] over one shared in-memory store.
struct VirtualCluster {
    nodes: Vec<Arc<AftNode>>,
    clock: MockClock,
}

/// `n` in-process nodes, each asking `phase_hook` when it has one.
fn virtual_cluster(n: usize, seed: u64, phase_hook: Option<Arc<dyn PhaseHook>>) -> VirtualCluster {
    let storage: SharedStorage = InMemoryStore::shared();
    let clock = MockClock::starting_at(1);
    let nodes = (0..n)
        .map(|i| {
            let config = NodeConfig {
                phase_hook: phase_hook.clone(),
                ..NodeConfig::test()
            };
            AftNode::with_clock(
                config
                    .with_node_id(format!("aft-node-{i}"))
                    .with_seed(seed ^ i as u64),
                storage.clone(),
                clock.shared(),
            )
            .expect("in-memory node construction cannot fail")
        })
        .collect();
    VirtualCluster { nodes, clock }
}

fn commit_on(node: &Arc<AftNode>, key: &str, value: &str) -> TransactionId {
    let t = node.start_transaction();
    node.put(&t, Key::new(key), Value::from(value.to_owned()))
        .expect("in-memory put");
    node.commit(&t).expect("in-memory commit")
}

/// Drives `rounds` dissemination rounds: each round commits
/// `commits_per_round` transactions round-robin across the nodes, advances
/// the virtual clock by one interval, and runs `round` — so every record's
/// application lag is measured in whole virtual intervals. Returns the
/// issued ids and the rounds' merged statistics.
fn drive_rounds(
    cluster: &VirtualCluster,
    config: &DisseminationBenchConfig,
    mut round: impl FnMut(&[Arc<AftNode>]) -> BroadcastStats,
) -> (Vec<(TransactionId, usize)>, BroadcastStats) {
    let n = cluster.nodes.len();
    let mut issued = Vec::with_capacity(config.rounds * config.commits_per_round);
    let mut totals = BroadcastStats::default();
    for r in 0..config.rounds {
        for op in 0..config.commits_per_round {
            let origin = (r * config.commits_per_round + op) % n;
            let key = op % 48;
            let id = commit_on(
                &cluster.nodes[origin],
                &format!("diss/k{key:02}"),
                &format!("r{r}-o{op}"),
            );
            issued.push((id, key));
        }
        cluster.clock.advance(config.interval_ms);
        totals = totals.merge(round(&cluster.nodes));
    }
    (issued, totals)
}

/// Records some node neither applied nor saw superseded (the §4.1-aware
/// notion of "lost"). The winner of each key is its *largest* transaction
/// id — commits inside one round share a virtual timestamp, so the uuid
/// tiebreak (not issue order) decides supersedence, exactly as the
/// metadata cache resolves it. A missing id is only legitimate when that
/// key's winner strictly supersedes it; the winner itself must land
/// everywhere.
fn unaccounted(cluster: &VirtualCluster, issued: &[(TransactionId, usize)]) -> u64 {
    let mut winner: std::collections::HashMap<usize, TransactionId> =
        std::collections::HashMap::new();
    for &(id, key) in issued {
        winner
            .entry(key)
            .and_modify(|w| *w = (*w).max(id))
            .or_insert(id);
    }
    let mut missing = 0;
    for node in &cluster.nodes {
        for &(id, key) in issued {
            if !node.metadata().is_committed(&id) && winner[&key] <= id {
                missing += 1;
            }
        }
    }
    missing
}

fn run_cell(
    nodes: usize,
    path: &'static str,
    config: &DisseminationBenchConfig,
) -> DisseminationCell {
    let cluster = virtual_cluster(nodes, config.seed, None);
    let d = Disseminator::default();
    let (issued, totals) = drive_rounds(&cluster, config, |nodes| {
        if path == SWEEP {
            d.round(nodes, None)
        } else {
            broadcast_round(nodes, None)
        }
    });

    // Cluster-wide lag: p50 as the median node's median, p99 as the worst
    // node's p99 — the conservative bound the staleness window quotes.
    let mut p50s: Vec<f64> = Vec::new();
    let mut p99 = 0.0f64;
    for node in &cluster.nodes {
        let lag = node.stats().propagation_lag();
        if let (Some(p50), Some(node_p99)) = (lag.percentile_ms(0.5), lag.percentile_ms(0.99)) {
            p50s.push(p50);
            p99 = p99.max(node_p99);
        }
    }
    p50s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let lag_p50_ms = p50s.get(p50s.len() / 2).copied().unwrap_or(0.0);

    DisseminationCell {
        nodes,
        path,
        ops: issued.len(),
        messages: totals.fanout_messages as u64,
        bytes: totals.bytes,
        duplicates: totals.duplicates as u64,
        lag_p50_ms,
        lag_p99_ms: p99,
        unaccounted: unaccounted(&cluster, &issued),
    }
}

fn run_partition_leg(nodes: usize, config: &DisseminationBenchConfig) -> PartitionLeg {
    let holds = Seeded::new(config.seed, None).partition(config.cut_fraction, 0..config.cut_rounds);
    let holds = Shared::new(holds);
    let cluster = virtual_cluster(nodes, config.seed ^ 0x9A47, Some(holds));
    let d = Disseminator::default();

    let (issued, _) = drive_rounds(&cluster, config, |nodes| d.round(nodes, None));
    // Heal: run empty rounds until every parked delivery has drained.
    let mut extra = 0;
    while d.pending_retries() > 0 && extra < config.heal_budget {
        cluster.clock.advance(config.interval_ms);
        d.round(&cluster.nodes, None);
        extra += 1;
    }
    let totals = d.totals();
    PartitionLeg {
        nodes,
        ops: issued.len(),
        link_drops: totals.link_drops as u64,
        retried: totals.retried as u64,
        rounds_to_converge: config.rounds + extra,
        converged: d.pending_retries() == 0,
        lost_commits: unaccounted(&cluster, &issued),
    }
}

/// Runs the full sweep and returns the report.
pub fn fig12_dissemination(config: &DisseminationBenchConfig) -> DisseminationReport {
    let cells = config
        .node_counts
        .iter()
        .flat_map(|&nodes| [FLAT, SWEEP].map(|path| run_cell(nodes, path, config)))
        .collect();
    DisseminationReport {
        cells,
        partition_legs: vec![run_partition_leg(config.partition_nodes, config)],
        interval_ms: config.interval_ms,
    }
}

/// The registry's entry point.
pub(crate) fn run(args: &Args) -> Result<Outcome, String> {
    let mut config = args.env.sized(
        DisseminationBenchConfig::standard(),
        DisseminationBenchConfig::fast(),
    );
    config.seed = args.seed.unwrap_or(config.seed);
    let report = fig12_dissemination(&config);
    Ok(Outcome::new(
        config.seed,
        &config,
        vec![report.table(), report.partition_table()],
        report.to_json(),
        report.check_gate(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> DisseminationBenchConfig {
        DisseminationBenchConfig {
            node_counts: vec![16, 24],
            rounds: 3,
            commits_per_round: 16,
            partition_nodes: 16,
            ..DisseminationBenchConfig::standard()
        }
    }

    #[test]
    fn tiny_sweep_passes_the_gate() {
        let report = fig12_dissemination(&tiny());
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.partition_legs.len(), 1);
        let summary = report.check_gate().expect("gate must pass");
        assert!(summary.contains("4 cells clean"), "{summary}");
    }

    #[test]
    fn relay_topologies_beat_the_flat_baseline() {
        let report = fig12_dissemination(&tiny());
        for &nodes in &[16usize, 24] {
            let reduction = report.reduction_vs_flat(nodes).unwrap();
            assert!(reduction > 1.0, "{nodes} nodes: only {reduction:.2}x");
            let (flat, sweep) = (
                report.cell(nodes, FLAT).unwrap(),
                report.cell(nodes, SWEEP).unwrap(),
            );
            assert!(sweep.bytes_per_op() <= flat.bytes_per_op(), "{nodes} nodes");
        }
    }

    #[test]
    fn lag_is_one_virtual_interval_for_undisturbed_rounds() {
        let report = fig12_dissemination(&tiny());
        for cell in &report.cells {
            assert_eq!(cell.unaccounted, 0, "{}/{}", cell.path, cell.nodes);
            // Every record is committed at clock T and applied after the
            // advance to T + interval; in-round relaying adds nothing.
            assert!(
                (cell.lag_p50_ms - 1_000.0).abs() < 1.0,
                "{}/{}: p50 {}ms",
                cell.path,
                cell.nodes,
                cell.lag_p50_ms
            );
            assert!(cell.lag_p99_ms <= 3_000.0);
        }
    }

    #[test]
    fn partition_legs_drop_then_heal_cleanly() {
        let report = fig12_dissemination(&tiny());
        for leg in &report.partition_legs {
            assert!(leg.link_drops > 0, "cut never bit");
            assert!(leg.retried > 0, "nothing retried");
            assert!(leg.converged);
            assert_eq!(leg.lost_commits, 0);
        }
    }

    #[test]
    fn json_document_round_trips() {
        let report = fig12_dissemination(&tiny());
        let parsed = Json::parse(&report.to_json().render()).unwrap();
        assert_eq!(
            parsed.get("experiment").unwrap().as_str().unwrap(),
            "fig12_dissemination"
        );
        assert_eq!(
            parsed.get("cells").unwrap().as_array().unwrap().len(),
            report.cells.len()
        );
        assert_eq!(
            parsed
                .get("summary")
                .and_then(|s| s.get("partition_lost_commits"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(report.table().len(), report.cells.len());
        assert_eq!(report.partition_table().len(), report.partition_legs.len());
    }

    #[test]
    fn gate_rejects_missing_partition_legs() {
        let mut report = fig12_dissemination(&tiny());
        report.partition_legs.clear();
        let err = report.check_gate().unwrap_err();
        assert!(err.contains("no partition legs"), "{err}");
    }
}
