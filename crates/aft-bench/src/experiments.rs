//! `figures`: the paper's evaluation (§6) — Figures 2–10 and Table 2 — as
//! one seeded experiment in virtual time, with one shape check per figure.
//!
//! Every figure runs its clients through one deterministic closed loop,
//! [`run_virtual_loop`]: each client's clock is what its thread is charged
//! (`aft_storage::latency`), wherever `Sleep` mode would sleep the client's
//! clock advances and it waits until it is the earliest client, and the
//! clusters' maintenance rounds, Fig. 10's kill and its replacement run at
//! virtual times between requests. Clients therefore interleave between a
//! request's functions and while a storage call's latency passes, as on the
//! wall clock, but a report is a pure function of its seed: every service
//! latency is charged at full scale and nothing sleeps.
//!
//! [`figures`] measures every figure into [`Sheet`]s and [`check`] grades
//! them: one clause list per figure, written in the paper's terms with its
//! section. A paper value quoted in a check's rustdoc is from memory and
//! says so. Where virtual time or a deliberate design choice cannot show
//! what the paper shows, the check says so as a *departure* and asserts
//! what the run can show; no simulator constant is tuned to pass a check.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use aft_storage::latency::measure_cost;
use aft_storage::BackendKind;
use aft_types::{payload_of_size, Key, Value};
use aft_workload::history::{self, FinalRead, History, Recorder};
use aft_workload::{
    run_virtual_loop, sim, AftDriver, LatencyRecorder, RequestDriver, RunConfig, RunResult, Timer,
    WorkloadConfig,
};

use crate::cli::{Args, Outcome};
use crate::report::{below, ensure, margin, Report, Sheet, Verdict};
use crate::setup::{self, aft_label, maintenance, virtual_backend, BenchEnv};

/// The default seed: Figure 2's pipelined legs keep the seed the
/// `fig2_pipelined` experiment had.
pub(crate) const DEFAULT_SEED: u64 = 0xF162;

/// Runs `requests` requests from each of `clients` clients in virtual
/// time, with `timers` between them.
fn closed_loop(
    driver: &dyn RequestDriver,
    workload: &WorkloadConfig,
    (clients, requests): (usize, usize),
    seed: u64,
    timers: Vec<Timer<'_>>,
) -> RunResult {
    let config = RunConfig::new(workload.clone())
        .with_clients(clients)
        .with_requests(requests)
        .with_seed(seed);
    run_virtual_loop(driver, &config, timers).expect("experiment run")
}

/// A closed loop's throughput by Little's law: its clients over their mean
/// latency. Unlike completions over the run's length, it does not count the
/// run's ragged end, where the last clients finish alone, against it.
fn throughput(result: &RunResult, clients: usize) -> f64 {
    clients as f64 / result.latency.mean.as_secs_f64()
}

fn latency_values(result: &RunResult) -> Vec<f64> {
    let latency = &result.latency;
    vec![latency.median_ms(), latency.p99_ms()]
}

/// Runs every figure at the size `env` picks, every seed derived from
/// `seed`.
pub(crate) fn figures(env: &BenchEnv, seed: u64) -> Report {
    let mut sheets = fig2_io_latency(env, seed);
    sheets.extend(fig3_and_table2(env, seed));
    sheets.push(fig4_caching_skew(env, seed));
    sheets.push(fig5_rw_ratio(env, seed));
    sheets.push(fig6_txn_length(env, seed));
    sheets.push(fig7_single_node(env, seed));
    sheets.push(fig8_distributed(env, seed));
    sheets.push(fig9_gc(env, seed));
    sheets.push(fig10_fault_tolerance(env, seed));
    let mut report = Report {
        experiment: "figures",
        sheets,
        checks: check,
    };
    report.sheets.push(margins(&report));
    report
}

// ---------------------------------------------------------------------------
// Figure 2 — IO latency of 1/5/10 writes, with and without AFT, with and
// without batching, over DynamoDB; and sequential against pipelined storage
// I/O per backend.
// ---------------------------------------------------------------------------

/// Figure 2: direct-to-DynamoDB writes against writes through AFT's commit
/// protocol, sequential against batched, for 1/5/10 writes per request
/// (`fig2`); then, per backend, a node whose storage I/O goes one round trip
/// at a time against one that overlaps it (`fig2_pipelined`, built by
/// [`crate::pipelined`]).
pub(crate) fn fig2_io_latency(env: &BenchEnv, seed: u64) -> Vec<Sheet> {
    let mut sheet = Sheet::new(
        "fig2",
        "Figure 2 — IO latency: 1/5/10 writes",
        &["configuration", "writes"],
        &["median_ms", "p99_ms"],
    );
    let requests = env.sized(200, 30);
    let payload = payload_of_size(4 * 1024);
    // One row: `request(i)` issues request `i`; its cost is its charge.
    let mut row = |config: &str, writes: usize, request: &mut dyn FnMut(usize)| {
        let mut recorder = LatencyRecorder::new();
        (0..requests).for_each(|i| recorder.record(measure_cost(|| request(i)).1));
        let stats = recorder.stats();
        let labels = vec![config.to_owned(), writes.to_string()];
        sheet.push(labels, vec![stats.median_ms(), stats.p99_ms()]);
    };
    let keys =
        |request: usize, writes: usize| (0..writes).map(move |w| format!("fig2/{request}/{w}"));
    let storage = |tag: u64| virtual_backend(BackendKind::DynamoDb, seed ^ tag);

    for writes in [1usize, 5, 10] {
        let direct = storage(0xF2_01 + writes as u64);
        row("DynamoDB Sequential", writes, &mut |request| {
            for key in keys(request, writes) {
                direct
                    .put(&key, payload.clone())
                    .expect("simulated storage");
            }
        });

        let direct = storage(0xF2_02 + writes as u64);
        row("DynamoDB Batch", writes, &mut |request| {
            let items = keys(request, writes)
                .map(|k| (k, payload.clone()))
                .collect();
            direct.put_batch(items).expect("simulated storage");
        });

        let node = setup::node(storage(0xF2_03 + writes as u64), true, seed ^ 0xF2_03);
        row("AFT Sequential", writes, &mut |request| {
            let txid = node.start_transaction();
            for key in keys(request, writes) {
                node.put(&txid, Key::new(key), payload.clone())
                    .expect("put");
            }
            node.commit(&txid).expect("commit");
        });

        let node = setup::node(storage(0xF2_04 + writes as u64), true, seed ^ 0xF2_04);
        row("AFT Batch", writes, &mut |request| {
            let items: Vec<(Key, Value)> = keys(request, writes)
                .map(|k| (Key::new(k), payload.clone()))
                .collect();
            let txid = node.start_transaction();
            node.put_all(&txid, items).expect("put_all");
            node.commit(&txid).expect("commit");
        });
    }

    let pipelined = crate::pipelined::sheet(env.sized(200, 80), seed);
    vec![sheet, pipelined]
}

// ---------------------------------------------------------------------------
// Figure 3 + Table 2 — end-to-end latency and anomaly counts.
// ---------------------------------------------------------------------------

/// Figure 3 and Table 2: end-to-end latency of the standard 2-function,
/// 6-IO request over S3 / DynamoDB / Redis (Plain, AFT, DynamoDB's
/// transaction mode), and the anomalies every row's client history shows.
/// FR counts every read anomaly but read-your-writes (a read no writer
/// explains included).
pub(crate) fn fig3_and_table2(env: &BenchEnv, seed: u64) -> Vec<Sheet> {
    // Fast, still enough interleaved requests for every Plain row to show
    // both anomalies: at 50 requests a client, S3's RYW count is small
    // enough (1-7 over seeds 1-16) to read 0 on some seed.
    let size = (env.sized(10, 8), env.sized(200, 100));
    let workload = WorkloadConfig::standard();
    let mut latency = Sheet::new(
        "fig3",
        "Figure 3 — end-to-end latency, 2-function / 6-IO requests",
        &["configuration", "backend"],
        &["median_ms", "p99_ms", "requests"],
    );
    let mut anomalies = Sheet::new(
        "table2",
        "Table 2 — consistency anomalies",
        &["configuration", "consistency level"],
        &["ryw", "fr", "requests"],
    );
    let mut both =
        |config: &str, backend: &str, level: &str, history: &History, run: &RunResult| {
            let labels = vec![config.to_owned(), backend.to_owned()];
            let mut values = latency_values(run);
            values.push(run.completed as f64);
            latency.push(labels, values);
            if level.is_empty() {
                return;
            }
            let verdict = history::check(&history.attempts(), &FinalRead::new());
            let ryw = verdict.read_your_writes;
            let row = match config {
                "AFT" => "AFT".to_owned(),
                _ => format!("{backend} ({config})"),
            };
            let values = vec![
                ryw as f64,
                (verdict.anomalies() - ryw) as f64,
                run.completed as f64,
            ];
            anomalies.push(vec![row, level.to_owned()], values);
        };

    for (kind, level) in [
        (BackendKind::S3, "None"),
        (BackendKind::DynamoDb, "None"),
        (BackendKind::Redis, "Shard Linearizable"),
    ] {
        let driver = setup::plain_driver(kind, seed ^ (0xF3_10 + kind.label().len() as u64));
        let run = closed_loop(&driver, &workload, size, seed ^ 0xF3_11, Vec::new());
        both("Plain", kind.label(), level, driver.history(), &run);
    }
    // AFT over each backend; its Table 2 row grades every call the DynamoDB
    // run made.
    for kind in BackendKind::EVALUATED {
        let tag = seed ^ (0xF3_20 + kind.label().len() as u64);
        let node = setup::node(virtual_backend(kind, tag), true, tag ^ 0xA57);
        let history = History::new();
        let api = Recorder::wrap(node, Arc::clone(&history), None);
        let driver = AftDriver::from_api(api, setup::platform(), setup::retry());
        let run = closed_loop(&driver, &workload, size, seed ^ 0xF3_21, Vec::new());
        let level = if kind == BackendKind::DynamoDb {
            "Read Atomic"
        } else {
            ""
        };
        both("AFT", kind.label(), level, &history, &run);
    }
    let driver = setup::dynamo_txn_driver(seed ^ 0xF3_30);
    let run = closed_loop(&driver, &workload, size, seed ^ 0xF3_31, Vec::new());
    both(
        "Serializable",
        "DynamoDB",
        "Serializable",
        driver.history(),
        &run,
    );

    vec![latency, anomalies]
}

// ---------------------------------------------------------------------------
// Figure 4 — read caching and data skew.
// ---------------------------------------------------------------------------

/// Figure 4: AFT over DynamoDB and Redis with and without the data cache,
/// and DynamoDB's transaction mode, at Zipf coefficients 1.0 / 1.5 / 2.0.
pub(crate) fn fig4_caching_skew(env: &BenchEnv, seed: u64) -> Sheet {
    let mut sheet = Sheet::new(
        "fig4",
        "Figure 4 — read caching and data skew",
        &["configuration", "zipf"],
        &["median_ms", "p99_ms", "cache_hit_rate"],
    );
    // Fast: at 20 requests a client the cached and uncached medians of
    // some seeds lie within 2% and swap; 60 keeps seeds 1-16 apart.
    let size = (env.sized(10, 4), env.sized(200, 60));
    // The paper uses a 100,000-key space; 50,000 keeps the preload fast and
    // memory modest.
    let keys = env.sized(50_000, 2_000);
    for zipf in [1.0, 1.5, 2.0] {
        let workload = WorkloadConfig::caching_skew(zipf).with_keys(keys);
        let zipf_label = format!("{zipf:.1}");
        let driver = setup::dynamo_txn_driver(seed ^ 0xF4_10);
        let run = closed_loop(&driver, &workload, size, seed ^ 0xF4_01, Vec::new());
        let mut values = latency_values(&run);
        values.push(f64::NAN);
        sheet.push(vec!["DynamoDB Txns".to_owned(), zipf_label.clone()], values);

        for kind in [BackendKind::DynamoDb, BackendKind::Redis] {
            for caching in [false, true] {
                let storage = virtual_backend(kind, seed ^ 0xF4_20);
                let node = setup::node(storage, caching, seed ^ 0xF4_21);
                let driver =
                    AftDriver::single_node(Arc::clone(&node), setup::platform(), setup::retry());
                let run = closed_loop(&driver, &workload, size, seed ^ 0xF4_01, Vec::new());
                let mut values = latency_values(&run);
                values.push(node.stats().snapshot().cache_hit_rate());
                sheet.push(vec![aft_label(kind, caching), zipf_label.clone()], values);
            }
        }
    }
    sheet
}

// ---------------------------------------------------------------------------
// Figure 5 — read/write ratios.
// ---------------------------------------------------------------------------

/// Figure 5: latency of 10-IO transactions as the share of reads sweeps from
/// 0% to 100%, for AFT over DynamoDB and Redis, with storage calls per
/// request.
pub(crate) fn fig5_rw_ratio(env: &BenchEnv, seed: u64) -> Sheet {
    let mut sheet = Sheet::new(
        "fig5",
        "Figure 5 — read/write ratio (10 IOs per transaction)",
        &["configuration", "reads_pct"],
        &["median_ms", "p99_ms", "storage_calls_per_txn"],
    );
    // Fast: the Redis column is nearly flat (see [`check_fig5`]), so its
    // two ends need 200 requests a client to keep seeds 1-16 apart.
    let size = (env.sized(10, 4), env.sized(200, 200));
    for kind in [BackendKind::DynamoDb, BackendKind::Redis] {
        for pct in [0u32, 20, 40, 60, 80, 100] {
            let workload = WorkloadConfig::read_write_ratio(pct);
            let storage = virtual_backend(kind, seed ^ (0xF5_01 + pct as u64));
            let node = setup::node(storage.clone(), true, seed ^ 0xF5_02);
            let driver = AftDriver::single_node(node, setup::platform(), setup::retry());
            let before = storage.stats().snapshot();
            let run = closed_loop(&driver, &workload, size, seed ^ 0xF5_03, Vec::new());
            let calls = storage
                .stats()
                .snapshot()
                .delta_since(&before)
                .total_calls();
            let mut values = latency_values(&run);
            values.push(calls as f64 / run.completed.max(1) as f64);
            sheet.push(vec![aft_label(kind, true), pct.to_string()], values);
        }
    }
    sheet
}

// ---------------------------------------------------------------------------
// Figure 6 — transaction length.
// ---------------------------------------------------------------------------

/// Figure 6: latency as the composition grows from 1 to 10 functions (3 IOs
/// per function), for AFT over DynamoDB and Redis.
pub(crate) fn fig6_txn_length(env: &BenchEnv, seed: u64) -> Sheet {
    let mut sheet = Sheet::new(
        "fig6",
        "Figure 6 — transaction length (functions per request)",
        &["configuration", "functions"],
        &["median_ms", "p99_ms"],
    );
    let size = (env.sized(10, 4), env.sized(100, 10));
    for kind in [BackendKind::DynamoDb, BackendKind::Redis] {
        for functions in [1usize, 2, 4, 6, 8, 10] {
            let workload = WorkloadConfig::transaction_length(functions);
            let driver = setup::aft_driver(kind, true, seed ^ (0xF6_01 + functions as u64));
            let run = closed_loop(&driver, &workload, size, seed ^ 0xF6_02, Vec::new());
            let labels = vec![aft_label(kind, true), functions.to_string()];
            sheet.push(labels, latency_values(&run));
        }
    }
    sheet
}

// ---------------------------------------------------------------------------
// Figure 7 — single-node scalability.
// ---------------------------------------------------------------------------

/// Figure 7: throughput of one AFT node as closed-loop clients are added,
/// over DynamoDB and Redis (Zipf 1.5).
pub(crate) fn fig7_single_node(env: &BenchEnv, seed: u64) -> Sheet {
    let mut sheet = Sheet::new(
        "fig7",
        "Figure 7 — single-node throughput vs clients (Zipf 1.5)",
        &["configuration", "clients"],
        &["throughput_tps", "median_ms"],
    );
    let clients: &[usize] = env.sized(&[1, 5, 10, 20, 30, 40, 45, 50], &[1, 4, 8]);
    let requests = env.sized(60, 15);
    let workload = WorkloadConfig::standard().with_zipf(1.5);
    for kind in [BackendKind::DynamoDb, BackendKind::Redis] {
        for &n in clients {
            let driver = setup::aft_driver(kind, true, seed ^ (0xF7_01 + n as u64));
            let run = closed_loop(
                &driver,
                &workload,
                (n, requests),
                seed ^ 0xF7_02,
                Vec::new(),
            );
            let labels = vec![aft_label(kind, true), n.to_string()];
            sheet.push(labels, vec![throughput(&run, n), run.latency.median_ms()]);
        }
    }
    sheet
}

// ---------------------------------------------------------------------------
// Figure 8 — distributed scalability.
// ---------------------------------------------------------------------------

/// Figure 8: throughput of 1–8 nodes with 40 clients each, against the
/// ideal line (the one-node throughput times the node count), over DynamoDB
/// and Redis.
pub(crate) fn fig8_distributed(env: &BenchEnv, seed: u64) -> Sheet {
    let mut sheet = Sheet::new(
        "fig8",
        "Figure 8 — distributed throughput vs nodes (40 clients/node)",
        &["configuration", "nodes"],
        &["clients", "throughput_tps", "ideal_tps", "pct_of_ideal"],
    );
    let per_node = env.sized(40, 8);
    let node_counts: &[usize] = env.sized(&[1, 2, 4, 8], &[1, 2]);
    let requests = env.sized(40, 10);
    let workload = WorkloadConfig::standard().with_zipf(1.5);
    for kind in [BackendKind::DynamoDb, BackendKind::Redis] {
        let mut one_node = 0.0;
        for &nodes in node_counts {
            let storage = virtual_backend(kind, seed ^ (0xF8_01 + nodes as u64));
            let cluster = setup::cluster(storage, nodes, true, true);
            let driver =
                AftDriver::clustered(Arc::clone(&cluster), setup::platform(), setup::retry());
            let clients = per_node * nodes;
            let timers = vec![maintenance(&cluster)];
            let run = closed_loop(
                &driver,
                &workload,
                (clients, requests),
                seed ^ 0xF8_02,
                timers,
            );
            let tps = throughput(&run, clients);
            if nodes == 1 {
                one_node = tps;
            }
            let ideal = one_node * nodes as f64;
            let labels = vec![format!("AFT ({})", kind.label()), nodes.to_string()];
            sheet.push(
                labels,
                vec![clients as f64, tps, ideal, 100.0 * tps / ideal],
            );
        }
    }
    sheet
}

// ---------------------------------------------------------------------------
// Figure 9 — garbage collection overhead.
// ---------------------------------------------------------------------------

/// Figure 9: throughput of one node with and without global garbage
/// collection, the transactions it deleted and the data versions left.
pub(crate) fn fig9_gc(env: &BenchEnv, seed: u64) -> Sheet {
    let mut sheet = Sheet::new(
        "fig9",
        "Figure 9 — garbage collection overhead (Zipf 1.5, 1 node, 40 clients)",
        &["configuration"],
        &[
            "throughput_tps",
            "committed",
            "deleted",
            "deleted_per_s",
            "live_data_versions",
        ],
    );
    let size = (env.sized(40, 8), env.sized(150, 20));
    let workload = WorkloadConfig::standard().with_zipf(1.5);
    for gc in [true, false] {
        let storage = virtual_backend(BackendKind::DynamoDb, seed ^ (0xF9_01 + gc as u64));
        let cluster = setup::cluster(storage.clone(), 1, true, gc);
        let driver = AftDriver::clustered(Arc::clone(&cluster), setup::platform(), setup::retry());
        let timers = vec![maintenance(&cluster)];
        let run = closed_loop(&driver, &workload, size, seed ^ 0xF9_02, timers);
        // One last round catches up with the run's tail.
        let _ = cluster.run_maintenance_round();
        let deleted = cluster.total_gc_deleted() as f64;
        let live = sim::held_versions(&storage).len() as f64;
        let label = if gc { "GC enabled" } else { "GC disabled" };
        let values = vec![
            throughput(&run, size.0),
            run.completed as f64,
            deleted,
            deleted / run.elapsed.as_secs_f64(),
            live,
        ];
        sheet.push(vec![label.to_owned()], values);
    }
    sheet
}

// ---------------------------------------------------------------------------
// Figure 10 — fault tolerance.
// ---------------------------------------------------------------------------

/// Figure 10: throughput, second by second, of a 4-node cluster as one node
/// is killed and a replacement joins after a delay (container download and
/// cache warm-up).
pub(crate) fn fig10_fault_tolerance(env: &BenchEnv, seed: u64) -> Sheet {
    let mut sheet = Sheet::new(
        "fig10",
        "Figure 10 — throughput across a node failure (4 nodes)",
        &["second", "event"],
        &["throughput_tps", "active_nodes", "failed"],
    );
    let size = (env.sized(100, 16), env.sized(300, 150));
    let kill_at = Duration::from_secs(env.sized(6, 2));
    let joins_at = kill_at * 2;
    let storage = virtual_backend(BackendKind::DynamoDb, seed ^ 0xFA_01);
    let cluster = setup::cluster(storage, 4, true, true);
    let driver = AftDriver::clustered(Arc::clone(&cluster), setup::platform(), setup::retry());
    let seconds = Mutex::new(Vec::new());
    let tick = |now: Duration| {
        let _ = cluster.run_maintenance_round();
        let event = if now == kill_at {
            cluster.kill_node("aft-node-1");
            "node killed"
        } else if now == joins_at {
            cluster.replace_failed_nodes().expect("a replacement");
            "replacement joins"
        } else {
            ""
        };
        let stats = driver.platform().stats().snapshot();
        let active = cluster.registry().active_count();
        let done = (stats.requests_completed, stats.requests_failed);
        seconds.lock().unwrap().push((now, event, active, done));
    };
    let timers: Vec<Timer<'_>> = vec![(Duration::from_secs(1), Box::new(tick))];
    closed_loop(
        &driver,
        &WorkloadConfig::standard().with_zipf(1.0),
        size,
        seed ^ 0xFA_02,
        timers,
    );
    let mut before = (0, 0);
    for (now, event, active, done) in seconds.into_inner().unwrap() {
        let labels = vec![now.as_secs().to_string(), event.to_owned()];
        let completed = (done.0 - before.0) as f64;
        sheet.push(
            labels,
            vec![completed, active as f64, (done.1 - before.1) as f64],
        );
        before = done;
    }
    sheet
}

// ---------------------------------------------------------------------------
// The checks.
// ---------------------------------------------------------------------------

/// A figure's check: its name and its clauses.
type Check = (&'static str, fn(&Report) -> Verdict);

/// Every figure's check, in figure order.
const CHECKS: [Check; 10] = [
    ("Figure 2 (§6.1.1)", check_fig2),
    ("Figure 3 (§6.1.2)", |r| check_fig3(r.sheet("fig3"))),
    ("Table 2 (§6.1.2)", |r| check_table2(r.sheet("table2"))),
    ("Figure 4 (§6.2)", |r| check_fig4(r.sheet("fig4"))),
    ("Figure 5 (§6.3)", |r| check_fig5(r.sheet("fig5"))),
    ("Figure 6 (§6.4)", |r| check_fig6(r.sheet("fig6"))),
    ("Figure 7 (§6.5)", |r| linear(r.sheet("fig7"), "clients")),
    ("Figure 8 (§6.5)", |r| linear(r.sheet("fig8"), "nodes")),
    ("Figure 9 (§6.6)", |r| check_fig9(r.sheet("fig9"))),
    ("Figure 10 (§6.7)", |r| check_fig10(r.sheet("fig10"))),
];

/// Every figure's check, in figure order: `(figure, verdict)`.
pub(crate) fn check(report: &Report) -> Vec<(&'static str, Verdict)> {
    CHECKS
        .iter()
        .map(|&(name, check)| (name, check(report)))
        .collect()
}

/// The `margins` sheet: by how many percent each check's closest
/// comparison clears its bound ([`margin`]), so a seed or a change that
/// thins one shows before it flips. Table 2's clauses compare counts with
/// zero and have none.
fn margins(report: &Report) -> Sheet {
    let mut sheet = Sheet::new(
        "margins",
        "Each check's closest comparison, % past its bound",
        &["check"],
        &["margin_pct"],
    );
    for (name, check) in CHECKS {
        let ratio = margin(|| check(report));
        let pct = if ratio.is_finite() {
            100.0 * (ratio - 1.0)
        } else {
            f64::NAN
        };
        sheet.push(vec![name.to_owned()], vec![pct]);
    }
    sheet
}

/// Figure 2, §6.1.1. The paper (from memory): batching a request's writes
/// beats writing them one by one, on DynamoDB and through AFT, and AFT's
/// sequential mode beats DynamoDB's because the shim buffers the writes and
/// sends them as one batch at commit. Clauses:
/// - at 10 writes, DynamoDB Batch's median is below DynamoDB Sequential's,
///   AFT Batch's below AFT Sequential's, and AFT Sequential's below
///   DynamoDB Sequential's;
/// - `fig2_pipelined`: on every backend the pipelined p50 commit is below
///   1.05× the sequential one (the gate `fig2_pipelined` had).
pub(crate) fn check_fig2(report: &Report) -> Verdict {
    let fig2 = report.sheet("fig2");
    let median = |config: &str| fig2.value(&[config, "10"], "median_ms");
    for (a, b) in [
        ("DynamoDB Batch", "DynamoDB Sequential"),
        ("AFT Batch", "AFT Sequential"),
        ("AFT Sequential", "DynamoDB Sequential"),
    ] {
        below(a, median(a), b, median(b)).map_err(|e| format!("median ms at 10 writes: {e}"))?;
    }
    crate::pipelined::check(report.sheet("fig2_pipelined"))
}

/// Figure 3, §6.1.2. The paper (from memory): AFT over S3 is faster than
/// Plain S3, since the shim batches a request's writes into one commit and
/// serves repeat reads from its cache, and AFT over DynamoDB is faster than
/// DynamoDB's transaction mode. Clauses: both orderings of the medians.
pub(crate) fn check_fig3(fig3: &Sheet) -> Verdict {
    let median = |config: &str, backend: &str| fig3.value(&[config, backend], "median_ms");
    let s3 = below("AFT", median("AFT", "S3"), "Plain", median("Plain", "S3"));
    s3.map_err(|e| format!("S3 median ms: {e}"))?;
    let (aft, txn) = (
        median("AFT", "DynamoDB"),
        median("Serializable", "DynamoDB"),
    );
    below("AFT", aft, "transaction mode", txn).map_err(|e| format!("DynamoDB median ms: {e}"))
}

/// Table 2, §6.1.2. The paper (from memory): every Plain row shows both
/// read-your-writes (RYW) and fractured-read (FR) anomalies, hundreds per
/// 10 000 requests; DynamoDB's transaction mode shows no RYW anomaly (a
/// request's writes go out in one `TransactWriteItems` at its end) but does
/// show FR, since each function's `TransactGetItems` is atomic alone; AFT
/// shows none. Clauses: AFT 0/0; every Plain row RYW > 0 and FR > 0;
/// DynamoDB (Serializable) RYW 0 and FR > 0.
pub(crate) fn check_table2(table2: &Sheet) -> Verdict {
    for row in table2.keys() {
        let (name, level) = (row[0].as_str(), row[1].as_str());
        let ryw = table2.value(&[name, level], "ryw");
        let fr = table2.value(&[name, level], "fr");
        let (expect_ryw, expect_fr) = match name {
            "AFT" => (false, false),
            "DynamoDB (Serializable)" => (false, true),
            _ => (true, true),
        };
        ensure((ryw > 0.0, fr > 0.0) == (expect_ryw, expect_fr), || {
            let want = |expected: bool| if expected { "some" } else { "none" };
            let (ryw_want, fr_want) = (want(expect_ryw), want(expect_fr));
            format!("row {name}: RYW {ryw} and FR {fr}, the paper reads {ryw_want} and {fr_want}")
        })?;
    }
    Ok(())
}

/// Figure 4, §6.2. The paper (from memory): DynamoDB's transaction mode
/// slows as skew rises, because more requests conflict and retry; AFT's
/// data cache lowers its latency, and more so as skew concentrates reads on
/// cached keys. Clauses: DynamoDB Txns' median is higher at Zipf 1.5 than at
/// 1.0; at every Zipf and on both backends, AFT with the cache is faster
/// than without.
///
/// *Departure:* the cache's hit rate reads 100% at every Zipf, where the
/// paper's rises with skew: the 256 MiB cache holds all 50 000 keys of
/// 4 KiB, so nothing is evicted.
pub(crate) fn check_fig4(fig4: &Sheet) -> Verdict {
    let median = |config: &str, zipf: &str| fig4.value(&[config, zipf], "median_ms");
    let txns = |zipf| median("DynamoDB Txns", zipf);
    below("Zipf 1.0", txns("1.0"), "Zipf 1.5", txns("1.5"))
        .map_err(|e| format!("DynamoDB Txns median ms: {e}"))?;
    for zipf in ["1.0", "1.5", "2.0"] {
        for backend in ["AFT-D", "AFT-R"] {
            let cached = median(&format!("{backend} Caching"), zipf);
            let uncached = median(&format!("{backend} No Caching"), zipf);
            below("caching", cached, "none", uncached)
                .map_err(|e| format!("{backend} median ms at Zipf {zipf}: {e}"))?;
        }
    }
    Ok(())
}

/// Figure 5, §6.3. The paper (from memory): AFT's latency falls as the
/// share of reads grows, because a write costs a storage write at commit
/// while a read of a cached version costs none. Clause: on both backends
/// the median at 100% reads is below the median at 0%.
///
/// *Departure:* the Redis column commits a transaction's data and record in
/// one `MSET` where they share a hash slot (`aft-core`'s
/// `node/commit_path.rs`), a round trip §6.1.2's implementation could not
/// save, so its write-heavy end is cheaper than the paper's and the column
/// is nearly flat.
pub(crate) fn check_fig5(fig5: &Sheet) -> Verdict {
    for config in ["AFT-D Caching", "AFT-R Caching"] {
        let median = |reads| fig5.value(&[config, reads], "median_ms");
        below("100% reads", median("100"), "0%", median("0"))
            .map_err(|e| format!("{config} median ms: {e}"))?;
    }
    Ok(())
}

/// Figure 6, §6.4. The paper (from memory): latency grows linearly with the
/// number of functions in a request, each adding an invocation and its
/// IOs. Clauses: on both backends the median rises with every step of the
/// sweep, and 10 functions cost at least 5× one.
pub(crate) fn check_fig6(fig6: &Sheet) -> Verdict {
    for config in ["AFT-D Caching", "AFT-R Caching"] {
        let median = |n: &str| fig6.value(&[config, n], "median_ms");
        let steps = ["1", "2", "4", "6", "8", "10"];
        for pair in steps.windows(2) {
            below(pair[0], median(pair[0]), pair[1], median(pair[1]))
                .map_err(|e| format!("{config} median ms by functions: {e}"))?;
        }
        below("5x 1", 5.0 * median("1"), "10", median("10"))
            .map_err(|e| format!("{config} median ms by functions: {e}"))?;
    }
    Ok(())
}

/// Figures 7 and 8, §6.5. The paper (from memory): one node's throughput
/// grows linearly with its clients until the node saturates, around 40–45
/// clients (Fig. 7), and throughput grows close to linearly with nodes at
/// 40 clients each, a small margin under the ideal line, the one-node
/// throughput times the nodes (Fig. 8). Clause: every row, labelled
/// (configuration, count), carries more than 90% of its configuration's
/// first-row throughput times its count over the first row's count.
///
/// *Departures:* capacity. A client's virtual clock charges service
/// latencies, not CPU, so a node never saturates: Fig. 7 shows no plateau,
/// and what limited the paper's largest Fig. 8 deployment — the FaaS
/// platform's concurrency cap and the nodes' CPUs — does not show either;
/// here a Fig. 8 point falls short of ideal only through reads of versions
/// committed at other nodes: a hop to the committing node, or a storage read
/// where that node no longer caches the version.
pub(crate) fn linear(sheet: &Sheet, what: &str) -> Verdict {
    let mut first: Option<(&str, f64)> = None;
    for row in sheet.keys() {
        let tps = sheet.value(&[&row[0], &row[1]], "throughput_tps");
        let count: f64 = row[1].parse().unwrap_or(f64::NAN);
        let per = match first {
            Some((config, per)) if config == row[0] => per,
            _ => tps / count,
        };
        first = Some((&row[0], per));
        below("90% of linear", 0.9 * per * count, "throughput", tps)
            .map_err(|e| format!("{} at {count} {what}: {e}", row[0]))?;
    }
    Ok(())
}

/// Figure 9, §6.6. The paper (from memory): global garbage collection
/// costs no significant throughput, while it deletes superseded
/// transactions about as fast as they commit. Clauses: throughput with GC
/// is above 95% of without; GC deletes transactions; it leaves fewer live
/// data versions than no GC.
pub(crate) fn check_fig9(fig9: &Sheet) -> Verdict {
    let on = |column| fig9.value(&["GC enabled"], column);
    let off = |column| fig9.value(&["GC disabled"], column);
    let tps = "throughput_tps";
    below("95% without", 0.95 * off(tps), "with", on(tps))
        .map_err(|e| format!("throughput: {e}"))?;
    below("zero", 0.0, "deleted", on("deleted"))
        .map_err(|e| format!("transactions deleted with GC: {e}"))?;
    let live = "live_data_versions";
    below("with", on(live), "without", off(live)).map_err(|e| format!("live data versions: {e}"))
}

/// Figure 10, §6.7. The paper (from memory): when a node is killed, its
/// share of the requests fails over to the others, throughput dips, and
/// it recovers once a replacement has downloaded its container and warmed
/// its caches. Clauses: no request fails; every second from the kill until
/// the replacement joins keeps at least half the mean throughput before the
/// kill; and the membership reads 4 → 3 → 4 active nodes.
///
/// *Departure:* the dip. A node has no capacity in virtual time, so three
/// nodes serve the 100 clients as fast as four and throughput shows no
/// step at the kill; the check asserts that the failure loses nothing.
pub(crate) fn check_fig10(fig10: &Sheet) -> Verdict {
    let rows: Vec<(&[String], f64, f64, f64)> = fig10
        .keys()
        .map(|row| {
            let value = |column| fig10.value(&[&row[0], &row[1]], column);
            (
                row,
                value("throughput_tps"),
                value("active_nodes"),
                value("failed"),
            )
        })
        .collect();
    let at = |event: &str| rows.iter().position(|(row, ..)| row[1] == event);
    let (Some(kill), Some(join)) = (at("node killed"), at("replacement joins")) else {
        return Err("the run ended before the kill and the replacement".to_owned());
    };
    let failed: f64 = rows.iter().map(|r| r.3).sum();
    below("failed requests", failed, "one", 1.0)?;
    let before = rows[..kill].iter().map(|r| r.1).sum::<f64>() / kill.max(1) as f64;
    for (row, tps, ..) in &rows[kill..=join] {
        below(
            "half the throughput before the kill",
            0.5 * before,
            "throughput",
            *tps,
        )
        .map_err(|e| format!("second {}: {e}", row[0]))?;
    }
    let active = [rows[kill.saturating_sub(1)].2, rows[kill].2, rows[join].2];
    ensure(active == [4.0, 3.0, 4.0], || {
        format!("active nodes went {active:?}, not 4 -> 3 -> 4")
    })
}

/// The registry's entry point.
pub(crate) fn run(args: &Args) -> Result<Outcome, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    Ok(Outcome::report(seed, &args.env, figures(&args.env, seed)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::assert_round_trips;

    /// The figures at the test size, measured once for every test here.
    fn report() -> &'static Report {
        static REPORT: std::sync::OnceLock<Report> = std::sync::OnceLock::new();
        REPORT.get_or_init(|| figures(&BenchEnv::test(), DEFAULT_SEED))
    }

    #[test]
    fn figures_at_the_test_size_pass_their_gate() {
        let report = report();
        assert_eq!(report.gate(), Ok(()));
        let pipelined = report.sheet("fig2_pipelined");
        assert_eq!(pipelined.keys().count(), 6, "3 backends x 2 modes");
        // Pipelining bills S3 the same per-key calls, and Redis fewer: one
        // MSET per commit, not one SET per key.
        let calls = |backend, mode| pipelined.value(&[backend, mode], "api_calls");
        assert_eq!(calls("S3", "sequential"), calls("S3", "pipelined"));
        assert!(calls("Redis", "pipelined") < calls("Redis", "sequential"));
        // S3's 8-key commits and reads gain at least 2x from overlapping.
        let s3 = |mode, column| pipelined.value(&["S3", mode], column);
        for column in ["p50_commit_ms", "p50_read_ms"] {
            assert!(
                s3("sequential", column) >= 2.0 * s3("pipelined", column),
                "{column}"
            );
        }
        assert_eq!(
            report.verdicts().len(),
            10,
            "one check per figure and Table 2"
        );
        assert_round_trips(report);
    }

    /// The default seed's margins at the test size: a change that thins
    /// one shows here, in review, before it flips a check on another seed.
    #[test]
    fn the_default_seeds_margins_are_held() {
        let held = "\
== Each check's closest comparison, % past its bound ==
check               margin_pct
--------------------------------
Figure 2 (§6.1.1)   32.12
Figure 3 (§6.1.2)   31.58
Table 2 (§6.1.2)    -
Figure 4 (§6.2)     3.78
Figure 5 (§6.3)     1.31
Figure 6 (§6.4)     23.35
Figure 7 (§6.5)     11.11
Figure 8 (§6.5)     7.55
Figure 9 (§6.6)     5.03
Figure 10 (§6.7)    99.33
";
        assert_eq!(report().sheet("margins").render(), held);
    }

    #[test]
    fn fig2_produces_all_twelve_rows() {
        let fig2 = report().sheet("fig2");
        assert_eq!(fig2.keys().count(), 12, "4 configurations x 3 write counts");
    }

    #[test]
    fn fig3_and_table2_cover_every_configuration() {
        let report = report();
        let fig3 = report.sheet("fig3");
        assert_eq!(fig3.keys().count(), 7, "3 plain + 3 aft + 1 transactional");
        let table2 = report.sheet("table2");
        assert_eq!(table2.keys().count(), 5, "the five rows of Table 2");
        // A row's RYW and FR cells, found by the row's first label.
        let anomaly_cells = |row: &str| {
            let labels = table2.keys().find(|l| l[0] == row).unwrap();
            (table2.value(labels, "ryw"), table2.value(labels, "fr"))
        };
        // AFT shows neither anomaly, and one TransactWriteItems per request
        // leaves DynamoDB's transaction mode no read-your-writes anomaly.
        assert_eq!(anomaly_cells("AFT"), (0.0, 0.0));
        assert_eq!(anomaly_cells("DynamoDB (Serializable)").0, 0.0);
    }

    #[test]
    fn fig5_reports_both_backends_and_all_ratios() {
        let fig5 = report().sheet("fig5");
        assert_eq!(fig5.keys().count(), 12, "2 backends x 6 ratios");
    }

    #[test]
    fn fig7_and_fig8_scale_with_clients_and_nodes() {
        let report = report();
        let fig7 = report.sheet("fig7");
        assert_eq!(
            fig7.keys().count(),
            6,
            "2 backends x 3 client counts in fast mode"
        );
        let fig8 = report.sheet("fig8");
        assert_eq!(
            fig8.keys().count(),
            4,
            "2 backends x 2 node counts in fast mode"
        );
    }

    #[test]
    fn fig9_reports_gc_on_and_off() {
        let fig9 = report().sheet("fig9");
        let labels: Vec<&str> = fig9.keys().map(|l| l[0].as_str()).collect();
        assert_eq!(labels, ["GC enabled", "GC disabled"]);
    }

    #[test]
    fn one_seed_gives_one_report() {
        let again = figures(&BenchEnv::test(), DEFAULT_SEED);
        assert_eq!(again.to_json().render(), report().to_json().render());
    }

    #[test]
    fn a_planted_fr_anomaly_in_the_aft_row_fails_the_gate_naming_the_row() {
        let mut report = report().clone();
        let aft = ["AFT", "Read Atomic"];
        report.sheet_mut("table2").set(&aft, "fr", 1.0);
        assert_eq!(
            report.gate(),
            Err(
                "Table 2 (§6.1.2): row AFT: RYW 0 and FR 1, the paper reads none and none"
                    .to_owned()
            )
        );
    }
}
