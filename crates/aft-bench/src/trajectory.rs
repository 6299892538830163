//! `aft-bench trajectory [--check]`: the repository's exact numbers, one row
//! per change.
//!
//! `BENCH_trajectory.json`, at the repository root, is the per-change
//! trajectory of the numbers that are a pure function of the code: the same
//! on every host, every run and every core count. Each row holds one change's
//! values, grouped under the clock they were measured on:
//!
//! * the golden storage script ([`golden_script`]): its per-[`OpKind`] calls,
//!   the bytes it writes, the maintenance rounds it takes to drain, and the
//!   `data/` keys storage holds after them, on each of the four service rows
//!   — what `storage_ops_per_txn` and `storage_write_amp` are made of, what
//!   a read-only transaction costs, and what the global GC leaves behind;
//! * the tiny `fig10_recovery` matrix ([`RecoveryConfig::tiny`]): its
//!   recovered commits, its absorbed (retried) storage faults, its requests
//!   acknowledged and acknowledged twice, and the storage calls it billed,
//!   each a column sum of its report's `cells` sheet — so storage calls per
//!   acknowledged request is a ratio of two exact counts;
//! * the paper's figures at the test size ([`crate::experiments`]): Table
//!   2's RYW and FR cells on its five rows, and Figure 9's deleted
//!   transactions and live data versions with GC on and off;
//! * the eleven small scopes tier-1 walks whole ([`sim::walk`]): the
//!   schedules each one has, those in which the checker finds a duplicate
//!   request, and, where writes are cut, those that orphan data. A walk
//!   panics on a schedule with an anomaly.
//!
//! All run on virtual time: the script on a ticking mock clock with latency
//! off, the figures in their virtual-time loop, the matrix on one seeded
//! stepper, the walks on one stepper each.
//!
//! `aft-bench trajectory` recomputes the set and appends it as a new row,
//! stamped with the commit the row was measured on top of (`git rev-parse
//! --short HEAD`; a commit cannot name its own hash, so the row's own change
//! is the one not yet committed). `aft-bench trajectory --check` recomputes
//! the set and compares it with the last row: it exits 1 and names every
//! metric that moved, so a change that moves an exact number must append a
//! row to say so. A tier-1 test runs the check.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use aft_cluster::{Cluster, ClusterConfig};
use aft_core::{CheckpointPolicy, NodeConfig};
use aft_storage::{make_backend, BackendConfig, BackendKind, OpKind};
use aft_types::clock::TickingClock;
use aft_types::{Key, Value};
use aft_workload::sim::{self, request, Request, Scope, Shape};

use crate::cli::Clock;
use crate::experiments::{fig3_and_table2, fig9_gc, DEFAULT_SEED};
use crate::json::Json;
use crate::recovery::{fig10_recovery, RecoveryConfig};
use crate::setup::BenchEnv;

/// The trajectory's file name, at the repository root.
pub const REPORT: &str = "BENCH_trajectory.json";

/// The service rows the golden script runs on, in row order.
const GOLDEN_ROWS: [BackendKind; 4] = [
    BackendKind::Memory,
    BackendKind::S3,
    BackendKind::DynamoDb,
    BackendKind::Redis,
];

/// The call kinds [`golden_script`] counts, in the order it returns them.
pub const GOLDEN_OPS: [OpKind; 7] = [
    OpKind::Get,
    OpKind::BatchGet,
    OpKind::Put,
    OpKind::BatchPut,
    OpKind::Delete,
    OpKind::BatchDelete,
    OpKind::List,
];

/// SplitMix64: the script's seeded key choice.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one run of [`golden_script`] billed and left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoldenRun {
    /// The calls of each [`GOLDEN_OPS`] kind, in that order.
    pub calls: [u64; 7],
    /// The bytes every write call handed the store
    /// ([`StorageStatsSnapshot::bytes_written`](aft_storage::StorageStatsSnapshot::bytes_written)).
    pub bytes_written: u64,
    /// The maintenance rounds the script ran, the last one the first that
    /// deleted nothing and owed nothing to the next.
    pub rounds: u64,
    /// The `data/` keys storage holds after the last maintenance round.
    pub data_keys: usize,
}

/// Runs the golden *transaction* script over `kind`: a one-node cluster
/// without a data cache runs 200 seeded read-write transactions (two reads
/// and three writes each, every tenth one aborted, a checkpoint every 64
/// commits), and after every ninth commit a read-only one that reads three
/// keys, so every tenth commit writes nothing. Then it runs maintenance
/// rounds — dissemination, fault-manager scan, local and global GC,
/// checkpoint and log compaction — until one deletes nothing and passes
/// nothing over to the next, so a delete the global GC carried is billed.
pub fn golden_script(kind: BackendKind) -> GoldenRun {
    let storage = make_backend(BackendConfig::test(kind));
    let cluster = Cluster::with_clock(
        ClusterConfig {
            node_template: NodeConfig::test_without_cache(),
            ..ClusterConfig::test(1)
        }
        .with_checkpoint_policy(CheckpointPolicy::every_commits(64)),
        storage.clone(),
        TickingClock::shared(1, 1),
    )
    .expect("a cluster over a simulated service");
    let node = cluster.route().expect("one active node");
    let mut seed = 20_200_427u64;
    let key = |seed: &mut u64| Key::new(format!("k{:02}", next(seed) % 40));
    for i in 0..200 {
        let txn = node.start_transaction();
        for _ in 0..2 {
            node.get(&txn, &key(&mut seed)).expect("a read");
        }
        for _ in 0..3 {
            node.put(&txn, key(&mut seed), Value::from(vec![b'v'; 64]))
                .expect("a buffered write");
        }
        if i % 10 == 9 {
            node.abort(&txn).expect("an abort");
        } else {
            node.commit(&txn).expect("a commit");
        }
        if i % 10 == 8 {
            let reader = node.start_transaction();
            for _ in 0..3 {
                node.get(&reader, &key(&mut seed)).expect("a read");
            }
            node.commit(&reader).expect("a read-only commit");
        }
    }
    // The GC owes a passed-over delete one round at most, so the script
    // drains in a few rounds; one that never does is a GC fault.
    let mut rounds = 0;
    loop {
        rounds += 1;
        assert!(
            rounds <= 8,
            "{kind}: the global GC still owes deletes after 8 rounds"
        );
        let round = cluster
            .run_maintenance_round()
            .expect("a maintenance round");
        if round.global_gc.storage_keys_deleted == 0 && round.global_gc.carried == 0 {
            break;
        }
    }
    let stats = storage.stats().snapshot();
    GoldenRun {
        calls: GOLDEN_OPS.map(|op| stats.calls(op)),
        bytes_written: stats.bytes_written,
        rounds,
        data_keys: storage.list_prefix("data/").expect("a listing").len(),
    }
}

/// The scopes tier-1 walks, each with its deployment, clients and budgets
/// (rounds, failures, duplicates, failovers, crashes, fails): `races` runs a
/// round among two writes of `{a, b}` and a reader of both, `platform` every
/// fate of every invocation, `duplicate` a concurrent re-run of a
/// read-modify-write, and `failover` a node replaced mid-run. The storage
/// cuts run one client's write of `{a, b}`, overwrite of `a` and read of
/// both: `crash` and `fail` crash or fail any one write with any subset of
/// its items applied over the memory row, `redis` does both over the Redis
/// row (one atomic `MSET` a commit) with no round until the drain, and
/// `checkpoint` checkpoints every two commits, so cuts land in its
/// publication and in log compaction. `phases` runs two transactions that
/// write nothing, one on each of two nodes, with a round, a park and a kill:
/// among its schedules, one commit parks with its timestamp taken, the other
/// commits and a round runs, then the parked one's node dies with its record
/// durable, which only the node's report can point the fault manager's scan
/// at (§4.2). `transients` runs the writer and the reader on two nodes with
/// one transient and one hold and no round until the drain: any one write
/// fails transiently, dropped or landed with its acknowledgement lost, and
/// the I/O engine retries it, and any one batch a drain round disseminates
/// waits for the next. `net` runs the same two clients on two nodes through
/// a piped service client with one reset: any one wire call — the writer's
/// commit, or one of the reader's two reads and its commit — runs and loses
/// its answer, and the client resends it (§4.2's lost acknowledgement; the
/// server's dedup ledger answers a resent commit).
fn scopes() -> [(&'static str, Shape, Vec<Vec<Request>>, Scope); 11] {
    let (writer, reader) = (request("w a, w b"), request("r a, r b"));
    let pair = vec![vec![writer.clone()], vec![reader.clone()]];
    let (transients, net) = (pair.clone(), pair.clone());
    let races = vec![vec![writer.clone(); 2], vec![reader.clone()]];
    let rmw = vec![vec![request("r a, w a, w b")]];
    let cut = vec![vec![writer, request("w a"), reader]];
    let scope = |(rounds, failures, duplicates, failovers, crashes, fails)| Scope {
        rounds,
        failures,
        duplicates,
        failovers,
        crashes,
        fails,
        ..Scope::default()
    };
    let redis = Shape {
        backend: BackendKind::Redis,
        ..Shape::nodes(1)
    };
    let checkpoint = Shape {
        checkpoint: CheckpointPolicy::every_commits(2),
        ..Shape::nodes(1)
    };
    [
        ("races", Shape::nodes(2), races, scope((1, 0, 0, 0, 0, 0))),
        (
            "platform",
            Shape::nodes(1),
            pair.clone(),
            scope((0, 1, 0, 0, 0, 0)),
        ),
        ("duplicate", Shape::nodes(1), rmw, scope((0, 0, 1, 0, 0, 0))),
        ("failover", Shape::nodes(3), pair, scope((1, 0, 0, 1, 0, 0))),
        (
            "crash",
            Shape::nodes(1),
            cut.clone(),
            scope((1, 0, 0, 0, 1, 0)),
        ),
        (
            "fail",
            Shape::nodes(1),
            cut.clone(),
            scope((1, 0, 0, 0, 0, 1)),
        ),
        ("redis", redis, cut.clone(), scope((0, 0, 0, 0, 1, 1))),
        ("checkpoint", checkpoint, cut, scope((1, 0, 0, 0, 1, 0))),
        (
            "phases",
            Shape::nodes(2),
            vec![vec![Request::new()]; 2],
            Scope {
                parks: 1,
                kills: 1,
                ..scope((1, 0, 0, 0, 0, 0))
            },
        ),
        (
            "transients",
            Shape::nodes(2),
            transients,
            Scope {
                transients: 1,
                holds: 1,
                ..Scope::default()
            },
        ),
        (
            "net",
            Shape {
                piped: true,
                ..Shape::nodes(2)
            },
            net,
            Scope {
                resets: 1,
                ..Scope::default()
            },
        ),
    ]
}

/// The exact set, recomputed: each metric's name and value, with the clock
/// it was measured on.
fn measure() -> Vec<(String, u64, Clock)> {
    let mut metrics = Vec::new();
    for kind in GOLDEN_ROWS {
        let row = kind.label().to_lowercase();
        let run = golden_script(kind);
        for (op, calls) in GOLDEN_OPS.iter().zip(run.calls) {
            metrics.push((format!("golden.{row}.{op:?}"), calls, Clock::Virtual));
        }
        metrics.push((
            format!("golden.{row}.bytes_written"),
            run.bytes_written,
            Clock::Virtual,
        ));
        metrics.push((format!("golden.{row}.rounds"), run.rounds, Clock::Virtual));
        metrics.push((
            format!("golden.{row}.data_keys_left"),
            run.data_keys as u64,
            Clock::Virtual,
        ));
    }
    for (name, shape, clients, scope) in scopes() {
        let walked = sim::walk(shape, &clients, scope);
        let metric = |count| format!("walk.{name}.{count}");
        metrics.push((metric("schedules"), walked.schedules, Clock::Virtual));
        metrics.push((metric("duplicated"), walked.duplicated, Clock::Virtual));
        if scope.crashes + scope.fails > 0 {
            metrics.push((metric("orphaned"), walked.orphaned, Clock::Virtual));
        }
    }
    let env = BenchEnv::test();
    let table2 = fig3_and_table2(&env, DEFAULT_SEED);
    let fig9 = fig9_gc(&env, DEFAULT_SEED);
    for (sheet, columns) in [
        (&table2[1], ["ryw", "fr"]),
        (&fig9, ["deleted", "live_data_versions"]),
    ] {
        for labels in sheet.keys() {
            let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
            let row: String = labels[0]
                .split(|c: char| !c.is_ascii_alphanumeric())
                .filter(|word| !word.is_empty())
                .collect::<Vec<_>>()
                .join("_")
                .to_lowercase();
            for column in columns {
                let value = sheet.value(&labels, column) as u64;
                metrics.push((
                    format!("figures.{}.{row}.{column}", sheet.name),
                    value,
                    Clock::Virtual,
                ));
            }
        }
    }
    let tiny = fig10_recovery(&RecoveryConfig::tiny());
    let cells = tiny.sheet("cells");
    for (name, column) in [
        ("recovered", "recovered_commits"),
        ("absorbed", "io_retries"),
        ("duplicate_requests", "duplicate_requests"),
        ("acked_requests", "acknowledged_commits"),
        ("storage_calls", "storage_calls"),
    ] {
        let value = cells.sum(column) as u64;
        metrics.push((format!("fig10.tiny.{name}"), value, Clock::Virtual));
    }
    metrics
}

/// One row: the commit it was measured on top of, then each clock's metrics.
fn row(base: &str, metrics: &[(String, u64, Clock)]) -> Json {
    let mut pairs = vec![("base".to_owned(), Json::str(base))];
    for clock in [Clock::Virtual, Clock::Wall] {
        let values: Vec<(String, Json)> = metrics
            .iter()
            .filter(|(_, _, c)| *c == clock)
            .map(|(name, value, _)| (name.clone(), Json::Num(*value as f64)))
            .collect();
        if !values.is_empty() {
            pairs.push((clock.label().to_owned(), Json::Obj(values)));
        }
    }
    Json::Obj(pairs)
}

/// The rows of the trajectory at `path`; none if the file does not exist.
fn rows(path: &Path) -> Result<Vec<Json>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("failed to read {}: {e}", path.display())),
    };
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let rows = doc.get("rows").and_then(Json::as_array);
    rows.map(<[Json]>::to_vec)
        .ok_or_else(|| format!("{}: no `rows` array", path.display()))
}

/// A row's metrics by name: each one's clock and value.
fn entries(row: &Json) -> BTreeMap<&str, (&str, f64)> {
    let Json::Obj(groups) = row else {
        return BTreeMap::new();
    };
    let mut entries = BTreeMap::new();
    for (clock, group) in groups {
        let Json::Obj(values) = group else { continue };
        for (name, value) in values {
            if let Some(value) = value.as_f64() {
                entries.insert(name.as_str(), (clock.as_str(), value));
            }
        }
    }
    entries
}

/// Compares `metrics` with `last`, a row of the trajectory: one line per
/// metric whose value or clock differs, or that only one side has, by name.
fn moved(last: &Json, metrics: &[(String, u64, Clock)]) -> Vec<String> {
    let now = row("", metrics);
    let (was, is) = (entries(last), entries(&now));
    let names: BTreeSet<&str> = was.keys().chain(is.keys()).copied().collect();
    names
        .into_iter()
        .filter_map(|name| match (was.get(name), is.get(name)) {
            (Some(before), Some(after)) if before == after => None,
            (Some((c, v)), Some((clock, value))) => {
                Some(format!("{name}: {v} ({c}) -> {value} ({clock})"))
            }
            (None, Some((clock, value))) => Some(format!("{name}: new, {value} ({clock})")),
            (Some((c, v)), None) => Some(format!("{name}: {v} ({c}) -> gone")),
            (None, None) => None,
        })
        .collect()
}

/// `--check`: recomputes the exact set and compares it with the last row of
/// the trajectory at `path`. `Ok` with a summary when nothing moved.
fn check(path: &Path) -> Result<String, String> {
    let rows = rows(path)?;
    let last = rows
        .last()
        .ok_or_else(|| format!("{} has no row to check against", path.display()))?;
    let base = last.get("base").and_then(Json::as_str).unwrap_or("?");
    let metrics = measure();
    let moved = moved(last, &metrics);
    if moved.is_empty() {
        Ok(format!(
            "{} exact metrics equal the last row (base {base})",
            metrics.len()
        ))
    } else {
        Err(format!(
            "{} of {} exact metrics moved since the last row (base {base}); a change that \
             moves one appends a row with `aft-bench trajectory`:\n  {}",
            moved.len(),
            metrics.len(),
            moved.join("\n  ")
        ))
    }
}

/// The short hash of the checked-out commit, or `unknown` outside a git
/// checkout.
fn head() -> String {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output();
    let hash = out
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok());
    hash.map_or("unknown".to_owned(), |h| h.trim().to_owned())
}

/// Recomputes the exact set and appends it to the trajectory at `path` as a
/// row based on the checked-out commit.
fn append(path: &Path) -> Result<String, String> {
    let mut rows = rows(path)?;
    let metrics = measure();
    let moved = rows.last().map(|last| moved(last, &metrics));
    let base = head();
    rows.push(row(&base, &metrics));
    let doc = Json::obj(vec![
        (
            "about",
            Json::str(
                "exact metrics, one row per change; `base` is the commit the row was \
                 measured on top of (see crates/aft-bench/src/trajectory.rs)",
            ),
        ),
        ("rows", Json::Arr(rows)),
    ]);
    std::fs::write(path, doc.render())
        .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
    let moved = moved.map_or("the first row".to_owned(), |m| {
        format!("{} metrics moved since the last row", m.len())
    });
    Ok(format!(
        "appended a row based on {base} to {}: {} exact metrics, {moved}",
        path.display(),
        metrics.len()
    ))
}

/// `aft-bench trajectory [--check]` over the trajectory at `path`; returns
/// the exit status (2 for a wrong command line).
pub fn main(argv: &[String], path: &Path) -> i32 {
    let result = match argv {
        [] => append(path),
        [flag] if flag == "--check" => check(path),
        _ => {
            eprintln!("usage: aft-bench trajectory [--check]");
            return 2;
        }
    };
    match result {
        Ok(summary) => {
            println!("trajectory: {summary}");
            0
        }
        Err(message) => {
            eprintln!("trajectory: {message}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_exact_set_equals_the_last_row_of_the_trajectory() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(REPORT);
        assert_eq!(main(&["--check".to_owned()], &path), 0);
    }

    /// Nightly's scope, too large for PR CI: the races with two rounds and
    /// one failure, 3 272 685 schedules.
    #[test]
    #[ignore = "minutes in release; nightly runs it"]
    fn nightly_scope_every_race_with_two_rounds_and_a_failure_is_clean() {
        let [(_, shape, clients, mut scope), ..] = scopes();
        (scope.rounds, scope.failures) = (2, 1);
        let walked = sim::walk(shape, &clients, scope);
        println!("{shape:?}, {scope:?}: {walked:?}");
    }

    /// Nightly's storage-cut scope, too large for PR CI: the `crash` scope's
    /// client with two rounds, one crash and one failed call.
    #[test]
    #[ignore = "seconds in release; nightly runs it"]
    fn nightly_scope_every_crash_and_fail_with_two_rounds_is_clean() {
        let [_, _, _, _, (_, shape, clients, mut scope), ..] = scopes();
        (scope.rounds, scope.fails) = (2, 1);
        let walked = sim::walk(shape, &clients, scope);
        println!("{shape:?}, {scope:?}: {walked:?}");
    }

    /// Nightly's park-and-kill scope, too large for PR CI: the `phases`
    /// scope with a write in each transaction and two rounds.
    #[test]
    #[ignore = "minutes in release; nightly runs it"]
    fn nightly_scope_every_park_and_kill_of_two_writers_is_clean() {
        let [.., (_, shape, _, mut scope), _, _] = scopes();
        let clients = vec![vec![request("w a")], vec![request("w b")]];
        scope.rounds = 2;
        let walked = sim::walk(shape, &clients, scope);
        println!("{shape:?}, {scope:?}: {walked:?}");
    }

    /// Nightly's transient-and-hold scope, too large for PR CI: the
    /// `transients` scope with two rounds among the clients' steps.
    #[test]
    #[ignore = "seconds in release; nightly runs it"]
    fn nightly_scope_transients() {
        let [.., (_, shape, clients, mut scope), _] = scopes();
        scope.rounds = 2;
        let walked = sim::walk(shape, &clients, scope);
        println!("{shape:?}, {scope:?}: {walked:?}");
    }

    /// Nightly's lost-ack scope, too large for PR CI: the `net` scope with
    /// a round among the clients' steps and two resets, 9 450 schedules.
    #[test]
    #[ignore = "seconds in release; nightly runs it"]
    fn nightly_scope_net() {
        let [.., (_, shape, clients, mut scope)] = scopes();
        (scope.rounds, scope.resets) = (1, 2);
        let walked = sim::walk(shape, &clients, scope);
        println!("{shape:?}, {scope:?}: {walked:?}");
    }

    #[test]
    fn a_moved_metric_is_named_with_both_values() {
        let metrics = vec![
            ("a".to_owned(), 1, Clock::Virtual),
            ("b".to_owned(), 2, Clock::Virtual),
        ];
        let last = row("abc1234", &metrics);
        assert!(moved(&last, &metrics).is_empty());
        let now = vec![
            ("a".to_owned(), 1, Clock::Wall),
            ("b".to_owned(), 3, Clock::Virtual),
            ("c".to_owned(), 4, Clock::Virtual),
        ];
        assert_eq!(
            moved(&last, &now),
            [
                "a: 1 (virtual) -> 1 (wall)",
                "b: 2 (virtual) -> 3 (virtual)",
                "c: new, 4 (virtual)"
            ]
        );
        assert_eq!(
            moved(&last, &now[..1]),
            ["a: 1 (virtual) -> 1 (wall)", "b: 2 (virtual) -> gone"]
        );
    }
}
