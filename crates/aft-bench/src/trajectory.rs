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
//!   acknowledged and acknowledged twice, the storage calls it billed and
//!   the faults it injected, each a column sum of its report's `cells`
//!   sheet — so storage calls per acknowledged request is a ratio of two
//!   exact counts;
//! * the paper's figures at the test size ([`crate::experiments`]): Table
//!   2's RYW and FR cells on its five rows, and Figure 9's deleted
//!   transactions and live data versions with GC on and off;
//! * Figure 2's pipelined table at 40 transactions a leg
//!   ([`pipelined::sheet`]): each backend and mode's p50 and p99 commit
//!   charge, p50 read charge and storage API calls;
//! * the tiny `fig11_overload` sweep ([`OverloadConfig::tiny`]): the
//!   server's admission rejections and queue-age sheds, the chaos leg's
//!   resets and deduplicated commits, the commits, and the server's requests
//!   per commit, each from its report's cells; and `fig8_service`'s chaos
//!   leg at its tiny size ([`ServiceConfig::tiny`]): its resets,
//!   deduplicated and acknowledged commits, and requests per commit, each
//!   from its `chaos` sheet;
//! * the piped large script ([`piped_large_script`]): the server's fresh
//!   frame-buffer allocations and pool reuses over `svc-large`-shaped
//!   transactions, what `aft-net.event.buffer_reuse_share` is made of;
//! * the eleven small scopes tier-1 walks whole ([`sim::walk`]): the
//!   schedules each one has, those in which the checker finds a duplicate
//!   request, and, where writes are cut, those that orphan data. A walk
//!   panics on a schedule with an anomaly.
//!
//! All run on virtual time: the scripts on a ticking clock with latency off
//! (no time passes in them, so a clock read orders their commits), the
//! figures, fig11 and fig8's chaos leg in their virtual-time loops on the
//! seats' clock, the matrix on one seeded stepper, the walks on one stepper
//! each.
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
use aft_core::api::AftApi;
use aft_core::NodeConfig;
use aft_net::{AftClient, AftServer};
use aft_storage::{make_backend, BackendConfig, BackendKind, OpKind};
use aft_types::clock::TickingClock;
use aft_types::{Key, Value};
use aft_workload::sim::{self, request, Request, Scope, Shape};

use crate::cli::Clock;
use crate::experiments::{fig3_and_table2, fig9_gc, DEFAULT_SEED};
use crate::json::Json;
use crate::overload::{fig11_overload, OverloadConfig};
use crate::pipelined;
use crate::recovery::{fig10_recovery, RecoveryConfig};
use crate::report::round4;
use crate::service::{chaos_leg, ServiceConfig};
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
    /// The versions whose bytes storage holds after the last maintenance
    /// round, in `data/` keys or in inline commit records
    /// ([`sim::held_versions`]).
    pub data_keys: usize,
}

/// Runs the golden *transaction* script over `kind`: a one-node cluster
/// without a data cache runs 200 seeded read-write transactions (two reads
/// and three writes each, every tenth one aborted), and after every ninth
/// commit a read-only one that reads three keys, so every tenth commit
/// writes nothing. Then it runs maintenance rounds — dissemination,
/// fault-manager scan, local and global GC — until one deletes nothing and
/// passes nothing over to the next, so a delete the global GC carried is
/// billed.
pub fn golden_script(kind: BackendKind) -> GoldenRun {
    let storage = make_backend(BackendConfig::test(kind));
    let cluster = Cluster::with_clock(
        ClusterConfig {
            node_template: NodeConfig::test_without_cache(),
            ..ClusterConfig::test(1)
        },
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
        data_keys: sim::held_versions(&storage).len(),
    }
}

/// Runs the piped *large* script: a one-node cluster over memory, served
/// over an in-memory pipe, takes one commit of eight 16 KiB values, then 50
/// transactions of `svc-large`'s shape, each a `GetAll` of the eight keys and
/// a commit of four of them. The server's fresh frame-buffer allocations and
/// pool reuses.
pub fn piped_large_script() -> (u64, u64) {
    let storage = make_backend(BackendConfig::test(BackendKind::Memory));
    let cluster = Cluster::with_clock(ClusterConfig::test(1), storage, TickingClock::shared(1, 1))
        .expect("a cluster over memory");
    let server = AftServer::builder().pipe(cluster);
    let client = AftClient::builder().pool_size(1).pipe(&server);
    let keys: Vec<Key> = (0..8).map(|i| Key::new(format!("k{i}"))).collect();
    let value = Value::from(vec![b'v'; 16 << 10]);
    for i in 0..=50 {
        let txid = client.begin().expect("a begin");
        if i > 0 {
            client.get_all(&txid, &keys).expect("a GetAll");
        }
        for key in keys.iter().cycle().skip(i).take(if i == 0 { 8 } else { 4 }) {
            client
                .put(&txid, key.clone(), value.clone())
                .expect("a write");
        }
        client.commit(&txid, &[]).expect("a commit");
    }
    let events = server.event_snapshot();
    (events.buffer_allocations, events.buffer_reuses)
}

/// The scopes tier-1 walks, each with its deployment, clients and budgets
/// (rounds, failures, duplicates, failovers, crashes, fails): `races` runs a
/// round among two writes of `{a, b}` and a reader of both, `platform` every
/// fate of every invocation, `duplicate` a concurrent re-run of a
/// read-modify-write, and `failover` a node replaced mid-run. The storage cuts
/// run one client's write of `{a, b}`, overwrite of `a` and read of both:
/// `crash` and `fail` crash or fail any one write with any subset of its items
/// applied over the memory row, where each commit is one inline record.
/// `large` does both with values past `INLINE_BYTES`, so that each commit
/// writes its data and then its record, and `redis` over the Redis row, where
/// the large write of `{a, b}` is one atomic `MSET` of its data and record and
/// the small overwrite one inline `SET`; neither runs a round until the
/// drain. `phases` runs two
/// transactions that write nothing, one on each of two nodes, with a round, a
/// park and a kill: among its schedules, one commit parks with its timestamp
/// taken, the other commits and a round runs, then the parked one's node dies
/// with its record durable, which only the node's report can point the fault
/// manager's scan at (§4.2). `transients` runs the writer and the reader on
/// two nodes with one transient and one hold and no round until the drain: any
/// one write fails transiently, dropped or landed with its acknowledgement
/// lost, and the I/O engine retries it, and any one batch a drain round
/// disseminates waits for the next. `net` runs the same two clients on two
/// nodes through a piped service client with one reset: any one wire call —
/// the writer's commit, or one of the reader's two reads and its commit — runs
/// and loses its answer, and the client resends it (§4.2's lost
/// acknowledgement; the server's dedup ledger answers a resent commit).
fn scopes() -> [(&'static str, Shape, Vec<Vec<Request>>, Scope); 11] {
    let (writer, reader) = (request("w a, w b"), request("r a, r b"));
    let pair = vec![vec![writer.clone()], vec![reader.clone()]];
    let (transients, net) = (pair.clone(), pair.clone());
    let races = vec![vec![writer.clone(); 2], vec![reader.clone()]];
    let rmw = vec![vec![request("r a, w a, w b")]];
    let cut = vec![vec![writer, request("w a"), reader.clone()]];
    // Values past `INLINE_BYTES`: each commit writes its data, then its
    // record.
    let large = vec![vec![request("W a, W b"), request("W a"), reader.clone()]];
    // On Redis: the large write's data and record in one `MSET`, then an
    // inline overwrite of `a` in one `SET`.
    let mixed = vec![vec![request("W a, W b"), request("w a"), reader]];
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
        ("redis", redis, mixed, scope((0, 0, 0, 0, 1, 1))),
        ("large", Shape::nodes(1), large, scope((0, 0, 0, 0, 1, 1))),
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

/// One exact metric: its name, its value and the clock it was measured on.
type Metric = (String, f64, Clock);

/// The exact set, recomputed.
fn measure() -> Vec<Metric> {
    let mut metrics = Vec::new();
    let mut put = |name: String, value: f64| metrics.push((name, value, Clock::Virtual));
    for kind in GOLDEN_ROWS {
        let row = kind.label().to_lowercase();
        let run = golden_script(kind);
        let ops = GOLDEN_OPS.iter().map(|op| format!("{op:?}"));
        let names = ops.chain(["bytes_written", "rounds", "data_keys_left"].map(str::to_owned));
        let extra = [run.bytes_written, run.rounds, run.data_keys as u64];
        for (count, value) in names.zip(run.calls.into_iter().chain(extra)) {
            put(format!("golden.{row}.{count}"), value as f64);
        }
    }
    let (allocations, reuses) = piped_large_script();
    put("pipe.large.allocations".to_owned(), allocations as f64);
    put("pipe.large.reuses".to_owned(), reuses as f64);
    for (name, shape, clients, scope) in scopes() {
        let walked = sim::walk(shape, &clients, scope);
        let counts = [
            ("schedules", walked.schedules),
            ("duplicated", walked.duplicated),
            ("orphaned", walked.orphaned),
        ];
        let cuts = scope.crashes + scope.fails > 0;
        for (count, value) in counts.into_iter().take(if cuts { 3 } else { 2 }) {
            put(format!("walk.{name}.{count}"), value as f64);
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
            let row: String = labels[0]
                .split(|c: char| !c.is_ascii_alphanumeric())
                .filter(|word| !word.is_empty())
                .collect::<Vec<_>>()
                .join("_")
                .to_lowercase();
            for column in columns {
                let name = format!("figures.{}.{row}.{column}", sheet.name);
                put(name, sheet.value(labels, column));
            }
        }
    }
    let fig2 = pipelined::sheet(40, DEFAULT_SEED);
    for labels in fig2.keys() {
        let (backend, mode) = (labels[0].to_lowercase(), &labels[1]);
        for column in ["p50_commit_ms", "p99_commit_ms", "p50_read_ms", "api_calls"] {
            let name = format!("fig2_pipelined.tiny.{backend}.{mode}.{column}");
            put(name, fig2.value(labels, column));
        }
    }
    let fig10 = fig10_recovery(&RecoveryConfig::tiny());
    let cells = fig10.sheet("cells");
    for (name, column) in [
        ("recovered", "recovered_commits"),
        ("absorbed", "io_retries"),
        ("duplicate_requests", "duplicate_requests"),
        ("acked_requests", "acknowledged_commits"),
        ("storage_calls", "storage_calls"),
        ("faults_injected", "faults_injected"),
    ] {
        put(format!("fig10.tiny.{name}"), cells.sum(column));
    }
    let fig11 = fig11_overload(&OverloadConfig::tiny());
    let (points, chaos) = (fig11.sheet("points"), fig11.sheet("chaos"));
    let both = |column| points.sum(column) + chaos.sum(column);
    let commits = both("committed");
    for (name, value) in [
        ("admission_rejections", both("overload_rejections")),
        ("sheds", both("shed_requests")),
        ("resets", chaos.sum("resets")),
        ("duplicate_commits", chaos.sum("duplicate_commits")),
        ("commits", commits),
        ("requests_per_txn", round4(both("requests") / commits)),
    ] {
        put(format!("fig11.tiny.{name}"), value);
    }
    let fig8 = chaos_leg(&ServiceConfig::tiny());
    let commits = fig8.sum("acked_commits");
    for (name, value) in [
        (
            "resets",
            fig8.sum("resets_before_send") + fig8.sum("resets_after_send"),
        ),
        ("duplicate_commits", fig8.sum("duplicate_acks")),
        ("commits", commits),
        ("requests_per_txn", round4(fig8.sum("requests") / commits)),
    ] {
        put(format!("fig8.chaos.{name}"), value);
    }
    metrics
}

/// One row: the commit it was measured on top of, then each clock's metrics.
fn row(base: &str, metrics: &[Metric]) -> Json {
    let mut pairs = vec![("base".to_owned(), Json::str(base))];
    for clock in [Clock::Virtual, Clock::Wall] {
        let values: Vec<(String, Json)> = metrics
            .iter()
            .filter(|(_, _, c)| *c == clock)
            .map(|(name, value, _)| (name.clone(), Json::Num(*value)))
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
fn moved(last: &Json, metrics: &[Metric]) -> Vec<String> {
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
            ("a".to_owned(), 1.0, Clock::Virtual),
            ("b".to_owned(), 2.0, Clock::Virtual),
        ];
        let last = row("abc1234", &metrics);
        assert!(moved(&last, &metrics).is_empty());
        let now = vec![
            ("a".to_owned(), 1.0, Clock::Wall),
            ("b".to_owned(), 3.0, Clock::Virtual),
            ("c".to_owned(), 4.0, Clock::Virtual),
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
