//! `fig13_checkpoint`: does time-to-recovery stay flat as history grows?
//!
//! The §4.2 fault-manager scan and a replacement node's bootstrap both walk
//! the durable Transaction Commit Set. Without checkpoints that walk is a
//! **full replay** — cost proportional to the entire commit history — so a
//! long-lived deployment recovers slower every day it runs. The checkpoint
//! subsystem ([`aft_storage::checkpoint`]) bounds the walk: a replacement
//! bootstraps from the newest valid checkpoint (a CRC-sealed snapshot of the
//! §4.1-pruned committed-version index) plus only the commit-log **tail**
//! the checkpoint does not cover, and log compaction deletes the covered
//! records outright.
//!
//! This experiment sweeps commit-set size (10k → 1M in the full run) per
//! backend with a *fixed* live key-set and a *fixed* tail, and measures the
//! charged (virtual-clock) recovery cost and bytes-read-at-bootstrap for
//! both strategies. The paper-shaped claim the gate enforces: **recovery
//! cost grows with the tail, not the history** — the checkpoint+tail cost
//! at the largest history stays within 3× of the smallest, while full
//! replay grows roughly linearly with history — with zero lost and zero
//! phantom commits versus ground truth at every point. The report is one
//! sheet, `cells` (a row per backend and history size), in
//! `BENCH_checkpoint.json`, and the gate is its [`checks`], one per clause.

use aft_core::bootstrap::warm_metadata_cache_checkpointed;
use aft_core::MetadataCache;
use aft_storage::checkpoint::{compact_log, publish_checkpoint, Checkpoint, CHECKPOINT_KEEP};
use aft_storage::io::{IoConfig, IoEngine, StorageRequest};
use aft_storage::BackendKind;
use aft_types::codec::encode_keyed_commit_record;
use aft_types::{Key, TransactionId, TransactionRecord, Uuid};

use crate::cli::{Args, Outcome};
use crate::report::{ensure, percentile_ms, Report, Sheet, Verdict};
use crate::setup::virtual_backend;

/// Configuration of the checkpoint recovery sweep.
#[derive(Debug, Clone)]
pub struct CheckpointBenchConfig {
    /// Commit-history sizes to sweep (records seeded before the tail).
    pub sizes: Vec<usize>,
    /// Live key-set size — the committed-version index a checkpoint
    /// snapshots is bounded by this, not by history length.
    pub keys: usize,
    /// Commits appended *after* the checkpoint (the tail a bootstrap must
    /// still replay).
    pub tail: usize,
    /// Bootstrap measurements per (backend, size) cell; p50/p99 are over
    /// these.
    pub trials: usize,
    /// Backend profiles to sweep.
    pub backends: Vec<BackendKind>,
    /// Base RNG seed (backend latency sampling).
    pub seed: u64,
}

impl CheckpointBenchConfig {
    /// The full sweep: 10k → 1M commits across the three evaluated
    /// backends.
    pub fn standard() -> Self {
        CheckpointBenchConfig {
            sizes: vec![10_000, 100_000, 1_000_000],
            keys: 512,
            tail: 1_024,
            trials: 3,
            backends: BackendKind::EVALUATED.to_vec(),
            seed: 0xF1613,
        }
    }

    /// The CI configuration: a 2k → 10k sweep on one backend, enough to
    /// show the separation without minutes of seeding.
    pub fn fast() -> Self {
        CheckpointBenchConfig {
            sizes: vec![2_000, 10_000],
            keys: 128,
            tail: 256,
            trials: 2,
            backends: vec![BackendKind::DynamoDb],
            ..CheckpointBenchConfig::standard()
        }
    }
}

/// One bootstrap measurement (one strategy, one trial).
#[derive(Debug, Clone, Copy, Default)]
struct BootstrapSample {
    /// Charged virtual-clock cost, milliseconds.
    cost_ms: f64,
    /// Bytes fetched from storage.
    bytes_read: u64,
    /// Records loaded into the metadata cache.
    loaded: usize,
}

/// The `cells` sheet's columns, a row per (backend, history size): the
/// tail appended after the checkpoint; the charged full-replay and
/// checkpoint+tail bootstrap costs, the "p50" and "p99" being the sorted
/// trials' elements at index `round((n - 1) · q)` (with two trials, both
/// are the slower one); the bytes each bootstrap read, at the same "p50";
/// the commit records compaction dropped; and the ground-truth commits the
/// checkpoint+tail bootstrap lost (neither loaded nor legitimately
/// superseded) and the bootstrapped records never committed.
const CELL_COLUMNS: &[&str] = &[
    "tail_commits",
    "full_replay_p50_ms",
    "full_replay_p99_ms",
    "ckpt_tail_p50_ms",
    "ckpt_tail_p99_ms",
    "full_replay_bytes",
    "ckpt_tail_bytes",
    "compacted_records",
    "lost_commits",
    "phantom_commits",
];

/// The `q` point of one measure over `samples`, by [`percentile_ms`].
fn percentile(samples: &[BootstrapSample], q: f64, f: impl Fn(&BootstrapSample) -> f64) -> f64 {
    let mut values: Vec<f64> = samples.iter().map(f).collect();
    values.sort_by(f64::total_cmp);
    percentile_ms(&values, q)
}

/// The checks' names, in order.
const CHECKS: [&str; 6] = [
    "every backend sweeps >= 2 history sizes",
    "0 lost/phantom",
    "ckpt growth <= 3x",
    "full growth >= 0.2 x size ratio",
    "full outgrows ckpt",
    "ckpt bytes < full bytes",
];

/// One backend's sweep from its smallest history to its largest.
struct Sweep<'a> {
    backend: &'a str,
    /// The largest history's label.
    largest: &'a str,
    /// The largest history over the smallest.
    ratio: f64,
    /// How many times the checkpoint+tail and the full-replay p50 grew.
    ckpt: f64,
    full: f64,
    /// The bytes each strategy read at the largest history.
    ckpt_bytes: f64,
    full_bytes: f64,
}

/// fig13's checks. Every backend sweeps two history sizes or more, and no
/// cell loses or invents a commit. Per backend, comparing the largest
/// history to the smallest: checkpoint+tail recovery p50 grows by at most
/// 3× — recovery cost tracks the (fixed) tail, not the history; full-replay
/// p50 grows with history, at least `0.2 × size ratio` (≥ 20× over the
/// full 100× sweep) and strictly more than checkpoint+tail; and
/// checkpoint+tail reads fewer bytes than full replay at the largest
/// history.
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
            ckpt: growth("ckpt_tail_p50_ms"),
            full: growth("full_replay_p50_ms"),
            ckpt_bytes: cells.value(large, "ckpt_tail_bytes"),
            full_bytes: cells.value(large, "full_replay_bytes"),
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
    let verdicts = [
        coverage,
        zero("lost_commits").and_then(|()| zero("phantom_commits")),
        every(&|s| {
            ensure(s.ckpt <= 3.0, || {
                let (growth, ratio) = (s.ckpt, s.ratio);
                format!("checkpoint+tail p50 grew {growth:.1}x over a {ratio:.0}x history sweep")
            })
        }),
        every(&|s| {
            ensure(s.full >= 0.2 * s.ratio, || {
                let (growth, ratio) = (s.full, s.ratio);
                format!("full-replay p50 grew only {growth:.1}x over a {ratio:.0}x sweep")
            })
        }),
        every(&|s| {
            ensure(s.full > s.ckpt, || {
                let (full, ckpt) = (s.full, s.ckpt);
                format!("full replay ({full:.1}x) did not outgrow checkpoint+tail ({ckpt:.1}x)")
            })
        }),
        every(&|s| {
            ensure(s.ckpt_bytes < s.full_bytes, || {
                let (ckpt, full, largest) = (s.ckpt_bytes, s.full_bytes, s.largest);
                format!(
                    "checkpoint+tail read {ckpt} bytes at {largest} commits, full replay {full}"
                )
            })
        }),
    ];
    CHECKS.into_iter().zip(verdicts).collect()
}

fn tid(ts: u64) -> TransactionId {
    TransactionId::new(ts, Uuid::from_u128(0xF13_0000_0000u128 | ts as u128))
}

fn record_for(ts: u64, keys: usize) -> TransactionRecord {
    TransactionRecord::new(tid(ts), [Key::new(format!("k{:06}", ts % keys as u64))])
}

/// Seeds commit records `[first, last]` straight into storage via pipelined
/// batched puts — the bench measures *recovery*, so seeding skips the
/// transaction path.
fn seed_commits(io: &IoEngine, first: u64, last: u64, keys: usize) {
    const SEED_BATCH: usize = 1_024;
    let mut batch = Vec::with_capacity(SEED_BATCH);
    for ts in first..=last {
        let record = record_for(ts, keys);
        batch.push((record.storage_key(), encode_keyed_commit_record(&record)));
        if batch.len() >= SEED_BATCH {
            io.execute(StorageRequest::PutBatch(std::mem::take(&mut batch)))
                .result
                .expect("seeding cannot fail");
            batch.reserve(SEED_BATCH);
        }
    }
    if !batch.is_empty() {
        io.execute(StorageRequest::PutBatch(batch))
            .result
            .expect("seeding cannot fail");
    }
}

fn measure_bootstrap(io: &IoEngine) -> (BootstrapSample, MetadataCache) {
    let cache = MetadataCache::new();
    let outcome = warm_metadata_cache_checkpointed(io, &cache, "fig13-bench", None)
        .expect("bootstrap cannot fail without chaos");
    let sample = BootstrapSample {
        cost_ms: outcome.cost.as_secs_f64() * 1_000.0,
        bytes_read: outcome.bytes_read,
        loaded: outcome.loaded(),
    };
    (sample, cache)
}

/// One `cells` row: `backend` bootstrapped by full replay over a history
/// of `history` commits, then from a checkpoint and a tail.
fn run_cell(backend: BackendKind, history: usize, config: &CheckpointBenchConfig) -> Vec<f64> {
    let storage = virtual_backend(backend, config.seed ^ history as u64);
    let io = IoEngine::new(storage, IoConfig::pipelined());

    // Phase 1: the history, and the full-replay baseline over it.
    seed_commits(&io, 1, history as u64, config.keys);
    let full: Vec<BootstrapSample> = (0..config.trials)
        .map(|_| measure_bootstrap(&io).0)
        .collect();

    // Phase 2: checkpoint the §4.1-pruned committed-version index (newest
    // record per live key — its size is bounded by the key-set, not the
    // history), publish it, and compact the covered log.
    let newest_per_key: Vec<TransactionRecord> = (0..config.keys as u64)
        .filter_map(|slot| {
            let h = history as u64;
            // Largest ts in [1, history] with ts % keys == slot.
            let last = h - (h + config.keys as u64 - slot) % config.keys as u64;
            (last >= 1).then(|| record_for(last, config.keys))
        })
        .collect();
    let checkpoint = Checkpoint::new(1, newest_per_key);
    publish_checkpoint(&io, &checkpoint, || Ok(())).expect("publish cannot fail");
    let compaction =
        compact_log(&io, &checkpoint, CHECKPOINT_KEEP, &|_| false).expect("compaction cannot fail");

    // Phase 3: the tail the checkpoint does not cover, then the
    // checkpoint+tail measurements.
    seed_commits(
        &io,
        history as u64 + 1,
        (history + config.tail) as u64,
        config.keys,
    );
    let mut ckpt = Vec::with_capacity(config.trials);
    let mut last_cache = None;
    for _ in 0..config.trials {
        let (sample, cache) = measure_bootstrap(&io);
        assert!(sample.loaded > 0, "bootstrap must load records");
        ckpt.push(sample);
        last_cache = Some(cache);
    }

    // Ground truth: every seeded commit must be in the bootstrapped cache
    // or superseded by a strictly newer version of its key (§4.1); every
    // cached record must have been seeded.
    let cache = last_cache.expect("trials >= 1");
    let mut lost = 0;
    for ts in 1..=(history + config.tail) as u64 {
        let record = record_for(ts, config.keys);
        if cache.is_committed(&record.id) {
            continue;
        }
        let superseded = record.write_set.iter().all(|key| {
            cache
                .latest_version_of(key)
                .is_some_and(|newest| newest > record.id)
        });
        if !superseded {
            lost += 1;
        }
    }
    let phantom = cache
        .all_records()
        .iter()
        .filter(|r| {
            let ts = r.id.timestamp;
            ts < 1 || ts > (history + config.tail) as u64 || r.id != tid(ts)
        })
        .count();

    let cost = |samples: &[BootstrapSample], q| percentile(samples, q, |s| s.cost_ms);
    let bytes = |samples: &[BootstrapSample]| percentile(samples, 0.5, |s| s.bytes_read as f64);
    vec![
        config.tail as f64,
        cost(&full, 0.5),
        cost(&full, 0.99),
        cost(&ckpt, 0.5),
        cost(&ckpt, 0.99),
        bytes(&full),
        bytes(&ckpt),
        (compaction.deleted_covered + compaction.deleted_superseded) as f64,
        lost as f64,
        phantom as f64,
    ]
}

/// Runs the full sweep and returns its report: one `cells` sheet, in
/// (backend, history size) order.
pub fn fig13_checkpoint(config: &CheckpointBenchConfig) -> Report {
    let mut cells = Sheet::new(
        "cells",
        "fig13_checkpoint — recovery cost: full replay vs checkpoint + tail",
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
        experiment: "fig13_checkpoint",
        sheets: vec![cells],
        checks,
    }
}

/// The registry's entry point.
pub(crate) fn run(args: &Args) -> Result<Outcome, String> {
    let mut config = args.env.sized(
        CheckpointBenchConfig::standard(),
        CheckpointBenchConfig::fast(),
    );
    config.seed = args.seed.unwrap_or(config.seed);
    let report = fig13_checkpoint(&config);
    Ok(Outcome::report(config.seed, &config, &report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{assert_plants, assert_round_trips, Plant};

    fn tiny() -> CheckpointBenchConfig {
        CheckpointBenchConfig {
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
        REPORT.get_or_init(|| fig13_checkpoint(&tiny()))
    }

    #[test]
    fn tiny_sweep_passes_the_gate() {
        let report = report();
        assert_eq!(report.gate(), Ok(()));
        let cells = report.sheet("cells");
        assert_eq!(cells.keys().count(), 2);
        assert_eq!(cells.sum("lost_commits"), 0.0);
        assert_eq!(cells.sum("phantom_commits"), 0.0);
        for row in cells.keys() {
            let value = |column| cells.value(row, column);
            assert!(
                value("compacted_records") > 0.0,
                "compaction must drop covered records"
            );
            assert!(
                value("ckpt_tail_bytes") < value("full_replay_bytes"),
                "checkpoint+tail must read fewer bytes"
            );
        }
        // The separation the figure shows: full replay is history-bound,
        // checkpoint+tail is not.
        let p50 = |history, column| cells.value(&["DynamoDB", history], column);
        let (full, ckpt) = ("full_replay_p50_ms", "ckpt_tail_p50_ms");
        assert!(p50("5000", full) > p50("500", full) * 2.0);
        assert!(p50("5000", ckpt) <= p50("500", ckpt) * 3.0);
    }

    #[test]
    fn gate_catches_a_missing_separation() {
        let mut report = report().clone();
        // Sabotage: pretend the checkpoint path got as slow as full replay.
        let cells = report.sheet_mut("cells");
        for history in ["500", "5000"] {
            let full = cells.value(&["DynamoDB", history], "full_replay_p50_ms");
            cells.set(&["DynamoDB", history], "ckpt_tail_p50_ms", full);
        }
        let err = report.gate().unwrap_err();
        assert!(err.contains("3x") || err.contains("outgrow"), "{err}");
    }

    #[test]
    fn a_planted_violation_fails_exactly_its_check() {
        const LARGE: [&str; 2] = ["DynamoDB", "5000"];
        /// Plants both ends' p50 costs of full replay and checkpoint+tail.
        fn costs(cells: &mut Sheet, full: [f64; 2], ckpt: [f64; 2]) {
            for (history, at) in [("500", 0), ("5000", 1)] {
                cells.set(&["DynamoDB", history], "full_replay_p50_ms", full[at]);
                cells.set(&["DynamoDB", history], "ckpt_tail_p50_ms", ckpt[at]);
            }
        }
        // The history grows 10x, so full replay must grow at least 2x.
        let cases: [(&str, Plant<'_>); 7] = [
            (CHECKS[0], &|cells| cells.retain(|row| row[1] == "500")),
            (CHECKS[1], &|cells| cells.set(&LARGE, "lost_commits", 1.0)),
            (CHECKS[1], &|cells| {
                cells.set(&LARGE, "phantom_commits", 1.0)
            }),
            (CHECKS[2], &|cells| {
                costs(cells, [100.0, 1_000.0], [10.0, 40.0])
            }),
            (CHECKS[3], &|cells| {
                costs(cells, [100.0, 150.0], [10.0, 10.0])
            }),
            (CHECKS[4], &|cells| {
                costs(cells, [100.0, 250.0], [10.0, 30.0])
            }),
            (CHECKS[5], &|cells| {
                let full = cells.value(&LARGE, "full_replay_bytes");
                cells.set(&LARGE, "ckpt_tail_bytes", full);
            }),
        ];
        assert_plants(report(), "cells", &cases);
    }

    #[test]
    fn json_document_round_trips() {
        assert_round_trips(report());
    }
}
