//! `fig13_history`: does time-to-recovery stay flat as history grows?
//!
//! A replacement node bootstraps by replaying the durable Transaction Commit
//! Set (§3.1, §6.7). Left alone, that set holds every record ever written,
//! so the replay's cost grows with the history and a long-lived deployment
//! recovers slower every day it runs. §5.2's global GC is what bounds it: a
//! round deletes a superseded transaction's record once no active node
//! holds it, so a replacement reads the newest writer of each live key plus
//! the commits the last rounds have not yet collected.
//!
//! This experiment sweeps history size (10k → 1M commits in the full run)
//! per backend with a *fixed* live key-set and measures the charged
//! (virtual-clock) cost and the bytes of a full-replay bootstrap, two ways:
//!
//! * `no_gc`: the history seeded straight into storage (seeding skips the
//!   transaction path), so nothing collects it;
//! * `gc`: the history committed through a one-node cluster whose
//!   maintenance rounds garbage collect it, then a tail that no round has
//!   collected yet.
//!
//! The claim its gate enforces: **with GC, recovery cost tracks the live
//! key-set, not the history**. The `gc` cost at the largest history stays
//! within 3× of the smallest and below `no_gc`'s, with zero lost and zero
//! phantom commits against ground truth in both columns. The report is one
//! sheet, `cells` (a row per backend and history size), in
//! `BENCH_history.json`, and the gate is its [`checks`], one per clause.

use std::sync::Arc;

use aft_cluster::{Cluster, ClusterConfig};
use aft_core::bootstrap::fetch_commit_records;
use aft_core::{MetadataCache, NodeConfig};
use aft_storage::io::{IoConfig, IoEngine, StorageRequest};
use aft_storage::latency::measure_cost;
use aft_storage::BackendKind;
use aft_types::clock::TickingClock;
use aft_types::codec::encode_keyed_commit_record;
use aft_types::{Key, TransactionId, TransactionRecord, Uuid, Value};

use crate::cli::{Args, Outcome};
use crate::report::{ensure, percentile_ms, Report, Sheet, Verdict};
use crate::setup::virtual_backend;

/// Configuration of the recovery-against-history sweep.
#[derive(Debug, Clone)]
pub struct HistoryBenchConfig {
    /// History sizes to sweep (commits before the tail).
    pub sizes: Vec<usize>,
    /// Live key-set size: what the GC leaves is bounded by this, not by the
    /// history's length.
    pub keys: usize,
    /// Commits between two maintenance rounds of the `gc` history, and
    /// after its last one: the tail a bootstrap finds uncollected.
    pub tail: usize,
    /// Bootstrap measurements per (backend, size) cell; p50/p99 are over
    /// these.
    pub trials: usize,
    /// Backend profiles to sweep.
    pub backends: Vec<BackendKind>,
    /// Base RNG seed (backend latency sampling).
    pub seed: u64,
}

impl HistoryBenchConfig {
    /// The full sweep: 10k → 1M commits across the three evaluated
    /// backends.
    pub fn standard() -> Self {
        HistoryBenchConfig {
            sizes: vec![10_000, 100_000, 1_000_000],
            keys: 512,
            tail: 1_024,
            trials: 3,
            backends: BackendKind::EVALUATED.to_vec(),
            seed: 0xF1613,
        }
    }

    /// The CI configuration: a 2k → 10k sweep on one backend, enough to
    /// show the separation without minutes of committing.
    pub fn fast() -> Self {
        HistoryBenchConfig {
            sizes: vec![2_000, 10_000],
            keys: 128,
            tail: 256,
            trials: 2,
            backends: vec![BackendKind::DynamoDb],
            ..HistoryBenchConfig::standard()
        }
    }
}

/// One bootstrap measurement.
#[derive(Debug, Clone, Copy, Default)]
struct BootstrapSample {
    /// Charged virtual-clock cost, milliseconds.
    cost_ms: f64,
    /// Bytes fetched from storage.
    bytes_read: u64,
}

/// The `cells` sheet's columns, a row per (backend, history size): the
/// tail the `gc` history ends with; then for each of `no_gc` and `gc` the
/// charged full-replay costs, the "p50" and "p99" being the sorted trials'
/// elements at index `round((n - 1) · q)` (with two trials, both are the
/// slower one), the bytes the replay read, at the same "p50", the records
/// it loaded, the ground-truth commits it lost (neither loaded nor
/// superseded by a newer loaded version of their key, §4.1) and the
/// records it loaded that were never committed.
const CELL_COLUMNS: &[&str] = &[
    "tail_commits",
    "no_gc_p50_ms",
    "no_gc_p99_ms",
    "no_gc_bytes",
    "no_gc_loaded",
    "no_gc_lost_commits",
    "no_gc_phantom_commits",
    "gc_p50_ms",
    "gc_p99_ms",
    "gc_bytes",
    "gc_loaded",
    "gc_lost_commits",
    "gc_phantom_commits",
];

/// The `q` point of one measure over `samples`, by [`percentile_ms`].
fn percentile(samples: &[BootstrapSample], q: f64, f: impl Fn(&BootstrapSample) -> f64) -> f64 {
    let mut values: Vec<f64> = samples.iter().map(f).collect();
    values.sort_by(f64::total_cmp);
    percentile_ms(&values, q)
}

/// The checks' names, in order.
const CHECKS: [&str; 4] = [
    "every backend sweeps >= 2 history sizes",
    "0 lost/phantom",
    "gc growth <= 3x",
    "gc below no_gc at the largest history",
];

/// One backend's sweep from its smallest history to its largest.
struct Sweep<'a> {
    backend: &'a str,
    /// The largest history's label.
    largest: &'a str,
    /// The largest history over the smallest.
    ratio: f64,
    /// How many times the `gc` p50 grew.
    gc: f64,
    /// Both columns' p50 at the largest history.
    gc_p50: f64,
    no_gc_p50: f64,
}

/// fig13's checks. Every backend sweeps two history sizes or more, and no
/// cell loses or invents a commit in either column. Per backend, comparing
/// the largest history to the smallest: the `gc` recovery p50 grows by at
/// most 3× (recovery cost tracks the live key-set, not the history), and at
/// the largest history it is below the `no_gc` p50.
pub fn checks(report: &Report) -> Vec<(&'static str, Verdict)> {
    let cells = report.sheet("cells");
    let size = |row: &&[String]| row[1].parse::<f64>().unwrap_or(f64::NAN);
    let mut backends: Vec<&str> = cells.keys().map(|row| row[0].as_str()).collect();
    backends.dedup();
    let sweep = |backend: &str| {
        let rows = || cells.keys().filter(move |row| row[0] == backend);
        let small = rows().min_by(|a, b| size(a).total_cmp(&size(b)))?;
        let large = rows().max_by(|a, b| size(a).total_cmp(&size(b)))?;
        let growth = |column| cells.value(large, column) / cells.value(small, column).max(1e-9);
        let ratio = size(&large) / size(&small);
        (ratio > 1.0).then(|| Sweep {
            backend: &large[0],
            largest: &large[1],
            ratio,
            gc: growth("gc_p50_ms"),
            gc_p50: cells.value(large, "gc_p50_ms"),
            no_gc_p50: cells.value(large, "no_gc_p50_ms"),
        })
    };
    let sweeps: Vec<Sweep<'_>> = backends.iter().filter_map(|b| sweep(b)).collect();
    let short = backends
        .iter()
        .find(|b| sweeps.iter().all(|s| s.backend != **b));
    let coverage = match (backends.is_empty(), short) {
        (true, _) => Err("no cells".to_owned()),
        (false, Some(backend)) => Err(format!("{backend}: need at least two history sizes")),
        (false, None) => Ok(()),
    };
    let every = |clause: &dyn Fn(&Sweep<'_>) -> Verdict| {
        let mut sweeps = sweeps.iter();
        sweeps.try_for_each(|s| clause(s).map_err(|m| format!("{}: {m}", s.backend)))
    };
    let zero = |column| cells.each(column, |n| n == 0.0);
    let lost_or_phantom = [
        "no_gc_lost_commits",
        "no_gc_phantom_commits",
        "gc_lost_commits",
        "gc_phantom_commits",
    ];
    let verdicts = [
        coverage,
        lost_or_phantom.into_iter().try_for_each(zero),
        every(&|s| {
            ensure(s.gc <= 3.0, || {
                let (growth, ratio) = (s.gc, s.ratio);
                format!("gc p50 grew {growth:.1}x over a {ratio:.0}x history sweep")
            })
        }),
        every(&|s| {
            ensure(s.gc_p50 < s.no_gc_p50, || {
                let (gc, no_gc, largest) = (s.gc_p50, s.no_gc_p50, s.largest);
                format!("gc p50 {gc} ms at {largest} commits, no_gc {no_gc} ms")
            })
        }),
    ];
    CHECKS.into_iter().zip(verdicts).collect()
}

fn tid(ts: u64) -> TransactionId {
    TransactionId::new(ts, Uuid::from_u128(0xF13_0000_0000u128 | ts as u128))
}

fn key_for(ts: u64, keys: usize) -> Key {
    Key::new(format!("k{:06}", ts % keys as u64))
}

/// Seeds commit records `1..=history` straight into storage via pipelined
/// batched puts, each writing one of `keys` keys, and returns their ids in
/// order.
fn seed_commits(io: &IoEngine, history: usize, keys: usize) -> Vec<TransactionId> {
    const SEED_BATCH: usize = 1_024;
    let ids: Vec<TransactionId> = (1..=history as u64).map(tid).collect();
    for (chunk, first) in ids.chunks(SEED_BATCH).zip((1..).step_by(SEED_BATCH)) {
        let batch = (chunk.iter().zip(first..))
            .map(|(&id, ts)| {
                let record = TransactionRecord::new(id, [key_for(ts, keys)]);
                (record.storage_key(), encode_keyed_commit_record(&record))
            })
            .collect();
        io.execute(StorageRequest::PutBatch(batch))
            .expect("seeding cannot fail");
    }
    ids
}

/// The history of a cell run the way a deployment runs it: `history`
/// commits, each writing one key, through a one-node cluster with a
/// maintenance round (dissemination, the fault manager's scan, local and
/// global GC) after every `tail` of them and after the last, then `tail`
/// more that no round has collected yet. Returns the store the global GC
/// left and the ids committed, in order.
fn gc_history(
    backend: BackendKind,
    history: usize,
    config: &HistoryBenchConfig,
) -> (IoEngine, Vec<TransactionId>) {
    let storage = virtual_backend(backend, config.seed ^ history as u64 ^ 0x6C);
    let cluster = Cluster::with_clock(
        ClusterConfig {
            node_template: NodeConfig::test_without_cache().with_seed(config.seed),
            ..ClusterConfig::test(1)
        },
        storage.clone(),
        TickingClock::shared(1, 1),
    )
    .expect("cluster construction");
    let node = cluster.route().expect("one active node");
    let value = Value::from_static(b"fig13-gc");
    let total = history + config.tail;
    let mut committed = Vec::with_capacity(total);
    for n in 1..=total {
        let txn = node.start_transaction();
        node.put(&txn, key_for(n as u64, config.keys), value.clone())
            .expect("a put cannot fail without chaos");
        committed.push(
            node.commit(&txn)
                .expect("a commit cannot fail without chaos"),
        );
        if n <= history && (n % config.tail == 0 || n == history) {
            cluster
                .run_maintenance_round()
                .expect("a round cannot fail without chaos");
        }
    }
    (IoEngine::new(storage, IoConfig::pipelined()), committed)
}

/// One full-replay bootstrap over `io`'s store: the listing, then every
/// record in waves, as a starting node runs it. Its cost is the latency it
/// charged the calling thread.
fn measure_bootstrap(io: &IoEngine) -> (BootstrapSample, MetadataCache) {
    let cache = MetadataCache::new();
    let (bytes_read, cost) = measure_cost(|| {
        let listed = io.execute(StorageRequest::List(TransactionRecord::storage_prefix()));
        let keys = listed.expect("a listing").into_keys();
        fetch_commit_records(io, &keys, |record| {
            cache.insert(Arc::new(record));
        })
        .expect("bootstrap cannot fail without chaos")
    });
    let sample = BootstrapSample {
        cost_ms: cost.as_secs_f64() * 1_000.0,
        bytes_read,
    };
    (sample, cache)
}

/// `trials` bootstraps over `io`, and the last one's cache.
fn bootstraps(io: &IoEngine, trials: usize) -> (Vec<BootstrapSample>, MetadataCache) {
    let mut samples = Vec::with_capacity(trials);
    let mut cache = MetadataCache::new();
    for _ in 0..trials {
        let (sample, warmed) = measure_bootstrap(io);
        samples.push(sample);
        cache = warmed;
    }
    (samples, cache)
}

/// The ground truth against a bootstrapped `cache`: the commits in
/// `committed` (the `i`th writing `key_of(i)`) that are neither loaded nor
/// superseded by a strictly newer cached version of their key (§4.1), and
/// the cached records `committed` does not hold.
fn audit(
    cache: &MetadataCache,
    mut committed: Vec<TransactionId>,
    key_of: impl Fn(usize) -> Key,
) -> (usize, usize) {
    let lost = committed
        .iter()
        .enumerate()
        .filter(|(i, id)| {
            !cache.is_committed(id)
                && cache
                    .latest_version_of(&key_of(*i))
                    .is_none_or(|newest| newest <= **id)
        })
        .count();
    committed.sort_unstable();
    let phantom = cache
        .all_records()
        .iter()
        .filter(|r| committed.binary_search(&r.id).is_err())
        .count();
    (lost, phantom)
}

/// One column's values: p50 and p99 cost, bytes, records loaded, lost and
/// phantom commits.
fn column(samples: &[BootstrapSample], cache: &MetadataCache, audit: (usize, usize)) -> [f64; 6] {
    let cost = |q| percentile(samples, q, |s| s.cost_ms);
    let bytes = percentile(samples, 0.5, |s| s.bytes_read as f64);
    let (lost, phantom) = audit;
    [
        cost(0.5),
        cost(0.99),
        bytes,
        cache.len() as f64,
        lost as f64,
        phantom as f64,
    ]
}

/// One `cells` row: `backend` bootstrapped by full replay over a history
/// of `history` commits nothing collected, then over the same history
/// committed through a GC'd cluster.
fn run_cell(backend: BackendKind, history: usize, config: &HistoryBenchConfig) -> Vec<f64> {
    let key_of = |i: usize| key_for(i as u64 + 1, config.keys);

    let storage = virtual_backend(backend, config.seed ^ history as u64);
    let io = IoEngine::new(storage, IoConfig::pipelined());
    let seeded = seed_commits(&io, history, config.keys);
    let (samples, cache) = bootstraps(&io, config.trials);
    let no_gc = column(&samples, &cache, audit(&cache, seeded, key_of));
    drop((io, cache));

    let (io, committed) = gc_history(backend, history, config);
    let (samples, cache) = bootstraps(&io, config.trials);
    let gc = column(&samples, &cache, audit(&cache, committed, key_of));

    [&[config.tail as f64][..], &no_gc, &gc].concat()
}

/// Runs the full sweep and returns its report: one `cells` sheet, in
/// (backend, history size) order.
pub fn fig13_history(config: &HistoryBenchConfig) -> Report {
    let mut cells = Sheet::new(
        "cells",
        "fig13_history — recovery cost against history, with and without GC",
        &["backend", "history"],
        CELL_COLUMNS,
    );
    for &backend in &config.backends {
        for &history in &config.sizes {
            let labels = vec![backend.label().to_owned(), history.to_string()];
            cells.push(labels, run_cell(backend, history, config));
        }
    }
    Report {
        experiment: "fig13_history",
        sheets: vec![cells],
        checks,
    }
}

/// The registry's entry point.
pub(crate) fn run(args: &Args) -> Result<Outcome, String> {
    let mut config = args
        .env
        .sized(HistoryBenchConfig::standard(), HistoryBenchConfig::fast());
    config.seed = args.seed.unwrap_or(config.seed);
    let report = fig13_history(&config);
    Ok(Outcome::report(config.seed, &config, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{assert_plants, assert_round_trips, Plant};

    fn tiny() -> HistoryBenchConfig {
        HistoryBenchConfig {
            sizes: vec![500, 5_000],
            keys: 64,
            tail: 100,
            trials: 2,
            // DynamoDB under the virtual clock: latency is charged, not
            // slept, so the cost separation is visible without wall time.
            backends: vec![BackendKind::DynamoDb],
            seed: 0xF1613,
        }
    }

    /// The tiny sweep, measured once for every test here.
    fn report() -> &'static Report {
        static REPORT: std::sync::OnceLock<Report> = std::sync::OnceLock::new();
        REPORT.get_or_init(|| fig13_history(&tiny()))
    }

    #[test]
    fn tiny_sweep_passes_the_gate() {
        let report = report();
        assert_eq!(report.gate(), Ok(()));
        let cells = report.sheet("cells");
        assert_eq!(cells.keys().count(), 2);
        for row in cells.keys() {
            let value = |column| cells.value(row, column);
            // Without GC the replay loads every record; with it, the newest
            // writer of each of the 64 keys and the 100-commit tail.
            assert_eq!(value("no_gc_loaded"), row[1].parse::<f64>().unwrap());
            assert_eq!(value("gc_loaded"), 164.0);
            assert!(value("gc_bytes") < value("no_gc_bytes"));
        }
        // The separation the figure shows: replay without GC is
        // history-bound, replay after GC is not.
        let p50 = |history, column| cells.value(&["DynamoDB", history], column);
        let (no_gc, gc) = ("no_gc_p50_ms", "gc_p50_ms");
        assert!(p50("5000", no_gc) > p50("500", no_gc) * 2.0);
        assert!(p50("5000", gc) <= p50("500", gc) * 3.0);
    }

    #[test]
    fn gate_catches_a_missing_separation() {
        let mut report = report().clone();
        // Sabotage: pretend the GC'd replay got as slow as the one without.
        let cells = report.sheet_mut("cells");
        for history in ["500", "5000"] {
            let no_gc = cells.value(&["DynamoDB", history], "no_gc_p50_ms");
            cells.set(&["DynamoDB", history], "gc_p50_ms", no_gc);
        }
        let err = report.gate().unwrap_err();
        assert!(err.contains("3x") || err.contains("no_gc"), "{err}");
    }

    #[test]
    fn a_planted_violation_fails_exactly_its_check() {
        const LARGE: [&str; 2] = ["DynamoDB", "5000"];
        /// Plants both ends' p50 costs of the two columns.
        fn costs(cells: &mut Sheet, no_gc: [f64; 2], gc: [f64; 2]) {
            for (history, at) in [("500", 0), ("5000", 1)] {
                cells.set(&["DynamoDB", history], "no_gc_p50_ms", no_gc[at]);
                cells.set(&["DynamoDB", history], "gc_p50_ms", gc[at]);
            }
        }
        let lost = |column| move |cells: &mut Sheet| cells.set(&LARGE, column, 1.0);
        let cases: [(&str, Plant<'_>); 7] = [
            (CHECKS[0], &|cells| cells.retain(|row| row[1] == "500")),
            (CHECKS[1], &lost("no_gc_lost_commits")),
            (CHECKS[1], &lost("no_gc_phantom_commits")),
            (CHECKS[1], &lost("gc_lost_commits")),
            (CHECKS[1], &lost("gc_phantom_commits")),
            (CHECKS[2], &|cells| {
                costs(cells, [100.0, 1_000.0], [10.0, 40.0])
            }),
            (CHECKS[3], &|cells| {
                costs(cells, [100.0, 150.0], [100.0, 160.0])
            }),
        ];
        assert_plants(report(), "cells", &cases);
    }

    #[test]
    fn json_document_round_trips() {
        assert_round_trips(report());
    }
}
