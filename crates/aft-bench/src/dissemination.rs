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
//!
//! The report has two sheets, `cells` (a row per cluster size and path)
//! and `partition` (a row per leg), in `BENCH_dissemination.json`; its
//! [`checks`], one per clause, enforce all of it in CI.

use std::collections::BTreeSet;
use std::sync::Arc;

use aft_cluster::{broadcast_round, BroadcastStats, Disseminator};
use aft_core::{AftNode, NodeConfig, PhaseHook};
use aft_storage::{InMemoryStore, SharedStorage};
use aft_types::clock::MockClock;
use aft_types::{Key, TransactionId, Value};
use aft_workload::sim::{Seeded, Shared};

use crate::cli::{Args, Outcome};
use crate::report::{ensure, Report, Sheet, Verdict};

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

    /// The CI configuration: 16, 32 and 64 nodes with a 16-node partition
    /// leg, fast enough for every PR.
    pub fn fast() -> Self {
        DisseminationBenchConfig {
            node_counts: vec![16, 32, 64],
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

/// The `cells` sheet's columns, a row per (cluster size, path): the
/// commits disseminated, the messages (batched edge-sends) and encoded
/// commit-record bytes they cost, each per commit, the median node's median
/// and the worst node's p99 commit-record age at peer application in
/// virtual ms, the staleness window (interval + lag p99: how stale a node's
/// view of a remote commit can be), the duplicate deliveries receivers
/// absorbed, the records some node neither applied nor saw superseded, the
/// interval, and flat's messages per commit over this path's.
const CELL_COLUMNS: &[&str] = &[
    "ops",
    "messages",
    "bytes",
    "messages_per_op",
    "bytes_per_op",
    "lag_p50_ms",
    "lag_p99_ms",
    "staleness_window_ms",
    "duplicates",
    "unaccounted",
    "interval_ms",
    "reduction_vs_flat",
];

/// The `partition` sheet's columns, a row per leg: the commits
/// disseminated through the cut, the deliveries parked on cut edges while
/// it held and re-driven after the heal, the rounds from arming until the
/// retry queues drained, whether they drained within the heal budget (1 or
/// 0), and the commits some node never accounted for.
const LEG_COLUMNS: &[&str] = &[
    "ops",
    "link_drops",
    "retried",
    "rounds_to_converge",
    "lost_commits",
    "converged",
];

/// The checks' names, in order.
const CHECKS: [&str; 6] = [
    "both paths at >= 2 sizes, the top >= 16",
    "every record accounted for",
    "sweep below flat at >= 16 nodes",
    "sweep >= 10x below flat at >= 64 nodes",
    "lag p99 <= 3 intervals",
    "partition legs cut, healed, lost 0",
];

/// fig12's checks: both paths at two sizes or more, the top one ≥ 16;
/// every record accounted for; the sweep's messages per commit below
/// flat's at ≥ 16 nodes and ≥ 10× below at ≥ 64, with a row at 64 nodes or
/// more; lag p99 within 3 intervals; and a partition leg that cut a
/// delivery, drained its retry queues and lost no commit.
pub fn checks(report: &Report) -> Vec<(&'static str, Verdict)> {
    let (cells, legs) = (report.sheet("cells"), report.sheet("partition"));
    let sizes: BTreeSet<usize> = cells.keys().filter_map(|row| row[0].parse().ok()).collect();
    let has = |nodes: &usize, path: &str| {
        let n = nodes.to_string();
        cells.keys().any(|row| row[0] == n && row[1] == path)
    };
    let missing = sizes.iter().find(|n| !has(n, FLAT) || !has(n, SWEEP));
    let coverage = match (sizes.len() < 2 || sizes.last() < Some(&16), missing) {
        (true, _) => Err(format!("sweep too small: sizes {sizes:?}")),
        (false, Some(nodes)) => Err(format!("{nodes} nodes: missing a sweep or flat cell")),
        (false, None) => Ok(()),
    };
    // The sweep's rows at `nodes` nodes or more.
    let sweeps = |nodes| {
        let rows = cells.keys().filter(|row| row[1] == SWEEP);
        rows.filter(move |row| row[0].parse().is_ok_and(|n: usize| n >= nodes))
    };
    let below_flat = sweeps(16).try_for_each(|row| {
        let per_op = |path| cells.value(&[row[0].as_str(), path], "messages_per_op");
        let (sweep, flat) = (per_op(SWEEP), per_op(FLAT));
        ensure(sweep < flat, || {
            format!(
                "{} nodes: the sweep sends {sweep:.2} messages/op, not below flat's {flat:.2}",
                row[0]
            )
        })
    });
    let tenfold = ensure(sweeps(64).next().is_some(), || {
        "no sweep row at 64 nodes or more".to_owned()
    });
    let tenfold = tenfold.and(sweeps(64).try_for_each(|row| {
        let reduction = cells.value(row, "reduction_vs_flat");
        ensure(reduction >= 10.0, || {
            format!(
                "{} nodes: the sweep reduces messages/op only {reduction:.1}x vs flat",
                row[0]
            )
        })
    }));
    let lag = cells.keys().try_for_each(|row| {
        let (lag, interval) = (
            cells.value(row, "lag_p99_ms"),
            cells.value(row, "interval_ms"),
        );
        ensure(lag <= 3.0 * interval, || {
            format!("{}: lag p99 {lag:.0}ms", row.join("/"))
        })
    });
    let partition = ensure(legs.keys().next().is_some(), || {
        "no partition legs ran".to_owned()
    })
    .and_then(|()| legs.each("link_drops", |n| n > 0.0))
    .and_then(|()| legs.each("converged", |c| c == 1.0))
    .and_then(|()| legs.each("lost_commits", |n| n == 0.0));
    let verdicts = [
        coverage,
        cells.each("unaccounted", |n| n == 0.0),
        below_flat,
        tenfold,
        lag,
        partition,
    ];
    CHECKS.into_iter().zip(verdicts).collect()
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

/// One `cells` row: the commits of `config` disseminated over `nodes`
/// nodes along `path`; `flat_per_op` is the flat path's messages per
/// commit at this size, where `path` is the sweep.
fn run_cell(
    nodes: usize,
    path: &'static str,
    flat_per_op: Option<f64>,
    config: &DisseminationBenchConfig,
) -> Vec<f64> {
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

    let ops = issued.len().max(1) as f64;
    let (messages, bytes) = (totals.fanout_messages as f64, totals.bytes as f64);
    let interval = config.interval_ms as f64;
    let flat_per_op = flat_per_op.unwrap_or(messages / ops);
    vec![
        issued.len() as f64,
        messages,
        bytes,
        messages / ops,
        bytes / ops,
        lag_p50_ms,
        p99,
        interval + p99,
        totals.duplicates as f64,
        unaccounted(&cluster, &issued) as f64,
        interval,
        flat_per_op / (messages / ops).max(f64::MIN_POSITIVE),
    ]
}

/// One `partition` row: the leg's commits disseminated over `nodes` nodes
/// through a seeded edge-cut under the sweep, then healed.
fn run_partition_leg(nodes: usize, config: &DisseminationBenchConfig) -> Vec<f64> {
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
    vec![
        issued.len() as f64,
        totals.link_drops as f64,
        totals.retried as f64,
        (config.rounds + extra) as f64,
        unaccounted(&cluster, &issued) as f64,
        f64::from(u8::from(d.pending_retries() == 0)),
    ]
}

/// Runs the full sweep and returns its report: the `cells` sheet, flat
/// then sweep at each size, and the `partition` sheet.
pub fn fig12_dissemination(config: &DisseminationBenchConfig) -> Report {
    let mut cells = Sheet::new(
        "cells",
        "fig12_dissemination — commit-metadata dissemination: the sweep vs flat by cluster size",
        &["nodes", "path"],
        CELL_COLUMNS,
    );
    for &nodes in &config.node_counts {
        let n = nodes.to_string();
        let flat = run_cell(nodes, FLAT, None, config);
        cells.push(vec![n.clone(), FLAT.to_owned()], flat);
        let flat_per_op = cells.value(&[n.as_str(), FLAT], "messages_per_op");
        let sweep = run_cell(nodes, SWEEP, Some(flat_per_op), config);
        cells.push(vec![n, SWEEP.to_owned()], sweep);
    }
    let mut partition = Sheet::new(
        "partition",
        "fig12_dissemination — partition chaos: seeded edge-cut under the sweep",
        &["nodes"],
        LEG_COLUMNS,
    );
    let nodes = config.partition_nodes;
    partition.push(vec![nodes.to_string()], run_partition_leg(nodes, config));
    Report {
        experiment: "fig12_dissemination",
        sheets: vec![cells, partition],
        checks,
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
    Ok(Outcome::report(config.seed, &config, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{assert_plants, assert_round_trips, Plant};

    fn tiny() -> DisseminationBenchConfig {
        DisseminationBenchConfig {
            node_counts: vec![16, 24, 64],
            rounds: 3,
            commits_per_round: 16,
            partition_nodes: 16,
            ..DisseminationBenchConfig::standard()
        }
    }

    /// The tiny sweep, measured once for every test here.
    fn report() -> &'static Report {
        static REPORT: std::sync::OnceLock<Report> = std::sync::OnceLock::new();
        REPORT.get_or_init(|| fig12_dissemination(&tiny()))
    }

    #[test]
    fn tiny_sweep_passes_the_gate() {
        let report = report();
        assert_eq!(report.sheet("cells").keys().count(), 6);
        assert_eq!(report.sheet("partition").keys().count(), 1);
        assert_eq!(report.gate(), Ok(()));
    }

    #[test]
    fn relay_topologies_beat_the_flat_baseline() {
        let cells = report().sheet("cells");
        for nodes in ["16", "24", "64"] {
            let reduction = cells.value(&[nodes, SWEEP], "reduction_vs_flat");
            assert!(reduction > 1.0, "{nodes} nodes: only {reduction:.2}x");
            let bytes = |path| cells.value(&[nodes, path], "bytes_per_op");
            assert!(bytes(SWEEP) <= bytes(FLAT), "{nodes} nodes");
        }
    }

    #[test]
    fn lag_is_one_virtual_interval_for_undisturbed_rounds() {
        let cells = report().sheet("cells");
        for row in cells.keys() {
            assert_eq!(cells.value(row, "unaccounted"), 0.0, "{row:?}");
            // Every record is committed at clock T and applied after the
            // advance to T + interval; in-round relaying adds nothing.
            let p50 = cells.value(row, "lag_p50_ms");
            assert!((p50 - 1_000.0).abs() < 1.0, "{row:?}: p50 {p50}ms");
            assert!(cells.value(row, "lag_p99_ms") <= 3_000.0);
        }
    }

    #[test]
    fn partition_legs_drop_then_heal_cleanly() {
        let legs = report().sheet("partition");
        for row in legs.keys() {
            let value = |column| legs.value(row, column);
            assert!(value("link_drops") > 0.0, "cut never bit");
            assert!(value("retried") > 0.0, "nothing retried");
            assert_eq!(value("converged"), 1.0);
            assert_eq!(value("lost_commits"), 0.0);
        }
    }

    #[test]
    fn json_document_round_trips() {
        assert_round_trips(report());
    }

    #[test]
    fn a_planted_violation_fails_exactly_its_check() {
        let flat = report()
            .sheet("cells")
            .value(&["16", FLAT], "messages_per_op");
        let cells: [(&str, Plant<'_>); 6] = [
            (CHECKS[0], &|cells| {
                cells.retain(|row| row[0] != "24" || row[1] != SWEEP)
            }),
            (CHECKS[1], &|cells| {
                cells.set(&["24", SWEEP], "unaccounted", 3.0)
            }),
            (CHECKS[2], &|cells| {
                cells.set(&["16", SWEEP], "messages_per_op", flat)
            }),
            (CHECKS[3], &|cells| {
                cells.set(&["64", SWEEP], "reduction_vs_flat", 9.9)
            }),
            // No row at 64 nodes: the check has nothing to pass on.
            (CHECKS[3], &|cells| cells.retain(|row| row[0] != "64")),
            (CHECKS[4], &|cells| {
                cells.set(&["16", FLAT], "lag_p99_ms", 3_001.0)
            }),
        ];
        assert_plants(report(), "cells", &cells);
        let legs: [(&str, Plant<'_>); 4] = [
            (CHECKS[5], &|legs| legs.retain(|_| false)),
            (CHECKS[5], &|legs| legs.set(&["16"], "link_drops", 0.0)),
            (CHECKS[5], &|legs| legs.set(&["16"], "converged", 0.0)),
            (CHECKS[5], &|legs| legs.set(&["16"], "lost_commits", 1.0)),
        ];
        assert_plants(report(), "partition", &legs);
    }
}
