//! Figure 2's second table: what overlapping storage I/O buys per backend.
//!
//! Two legs per backend, one workload of 8-key commits then 8-key reads:
//!
//! * **sequential** — storage wrapped in [`SequentialEngine`] (per-key API
//!   calls) and a node with [`IoConfig::sequential`]: an 8-key commit pays
//!   nine round trips back to back;
//! * **pipelined** — the plain simulator and [`IoConfig::pipelined`]: the
//!   commit flush overlaps the data puts (or sends them as the row's
//!   multi-key write: DynamoDB's `BatchWriteItem`, Redis's one-slot `MSET`),
//!   barriers, then appends the record (§3.3's order), and a multi-key read
//!   overlaps its fetches.
//!
//! Latencies are each commit's and each read's charge in virtual time, taken
//! around the node call with [`measure_cost`]: a commit charges its flush and
//! a read its storage fetch, and an overlapped batch charges its wave, not
//! the sum of its calls.
//! [`experiments::figures`](crate::experiments::figures) writes the table as
//! the `fig2_pipelined` sheet and [`check`] is one clause of Figure 2's
//! shape check.

use std::time::Duration;

use aft_storage::latency::{measure_cost, SeatClock};
use aft_storage::{BackendKind, IoConfig, SequentialEngine, SharedStorage};
use aft_types::{payload_of_size, Key};
use aft_workload::run_seated;

use crate::report::{below, percentile_ms, Sheet, Verdict};
use crate::setup::virtual_backend;

/// The `fig2_pipelined` sheet: a sequential and a pipelined leg of
/// `transactions` commits and reads per evaluated backend.
pub(crate) fn sheet(transactions: usize, seed: u64) -> Sheet {
    let mut sheet = Sheet::new(
        "fig2_pipelined",
        "Figure 2 — sequential vs pipelined storage I/O per backend",
        &["backend", "mode"],
        &["p50_commit_ms", "p99_commit_ms", "p50_read_ms", "api_calls"],
    );
    for kind in BackendKind::EVALUATED {
        for overlapped in [false, true] {
            let mode = if overlapped {
                "pipelined"
            } else {
                "sequential"
            };
            let values = io_leg(kind, overlapped, transactions, seed);
            sheet.push(vec![kind.label().to_owned(), mode.to_owned()], values);
        }
    }
    sheet
}

/// Figure 2's pipelining clause: on every backend the pipelined p50 commit
/// is below 1.05× the sequential one (the gate `fig2_pipelined` had).
pub(crate) fn check(sheet: &Sheet) -> Verdict {
    for kind in BackendKind::EVALUATED {
        let p50 = |mode| sheet.value(&[kind.label(), mode], "p50_commit_ms");
        let (seq, pipe) = (p50("sequential"), p50("pipelined"));
        below("pipelined", pipe, "1.05x sequential", 1.05 * seq)
            .map_err(|e| format!("{} p50 commit ms: {e}", kind.label()))?;
    }
    Ok(())
}

/// One leg: `transactions` 8-key commits, then as many 8-key reads, on a
/// node without a data cache, from one seat. Returns the row's values: p50
/// and p99 commit charge, p50 read charge, and the storage API calls billed.
fn io_leg(kind: BackendKind, overlapped: bool, transactions: usize, seed: u64) -> Vec<f64> {
    let raw = virtual_backend(kind, seed ^ kind.label().len() as u64);
    let (storage, io): (SharedStorage, _) = if overlapped {
        (raw, IoConfig::pipelined())
    } else {
        (SequentialEngine::new(raw), IoConfig::sequential())
    };
    let config = aft_core::NodeConfig {
        // No data cache: reads must exercise the storage fallback path.
        data_cache_bytes: 0,
        io,
        bootstrap: false,
        rng_seed: seed,
        ..aft_core::NodeConfig::default()
    };
    let node = aft_core::AftNode::with_clock(config, storage, SeatClock::shared())
        .expect("node construction over a simulated backend");
    let payload = payload_of_size(256);
    // Transaction t writes group t % groups; a later read of the group
    // observes one transaction's cowritten set.
    let groups = transactions.clamp(1, 64);
    let group = |g: usize| -> Vec<Key> {
        (0..8)
            .map(|i| Key::new(format!("grp{g:02}/k{i}")))
            .collect()
    };
    // One seat, so the node timestamps with the leg's virtual time.
    let seated = run_seated(1, Vec::new(), |_, _| {
        let (mut commits, mut reads) = (Vec::new(), Vec::new());
        for t in 0..transactions {
            let txid = node.start_transaction();
            for key in group(t % groups) {
                node.put(&txid, key, payload.clone()).unwrap();
            }
            let (committed, cost) = measure_cost(|| node.commit(&txid));
            committed.unwrap();
            commits.push(cost);
        }
        for r in 0..transactions {
            let txid = node.start_transaction();
            let (values, cost) = measure_cost(|| node.get_all(&txid, &group(r % groups)));
            assert!(
                values.unwrap().iter().all(Option::is_some),
                "every group was written"
            );
            reads.push(cost);
            // A read-only commit would flush its record.
            node.abort(&txid).unwrap();
        }
        (sorted_ms(&commits), sorted_ms(&reads))
    });
    let (commits, reads) = &seated[0];
    vec![
        percentile_ms(commits, 0.5),
        percentile_ms(commits, 0.99),
        percentile_ms(reads, 0.5),
        node.storage().stats().total_calls() as f64,
    ]
}

/// `costs` in milliseconds (ns / 1e6), sorted.
fn sorted_ms(costs: &[Duration]) -> Vec<f64> {
    let mut ms: Vec<f64> = costs.iter().map(|c| c.as_nanos() as f64 / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::DEFAULT_SEED;
    use crate::json::Json;
    use crate::report::round4;

    /// The test size: 40 commits and 40 reads per leg.
    fn tiny() -> Sheet {
        sheet(40, DEFAULT_SEED)
    }

    #[test]
    fn s3_8key_commits_gain_at_least_2x_from_pipelining() {
        // Nine sequential round trips against the max of eight puts plus
        // the record append.
        let leg = |overlapped| io_leg(BackendKind::S3, overlapped, 40, DEFAULT_SEED);
        let (seq, pipe) = (leg(false), leg(true));
        let commit = seq[0] / pipe[0];
        assert!(commit >= 2.0, "S3 commit speedup {commit:.2}x, below 2x");
        // Reads overlap too.
        let read = seq[2] / pipe[2];
        assert!(read >= 2.0, "S3 read speedup {read:.2}x, below 2x");
    }

    #[test]
    fn every_backend_improves_or_holds() {
        let sheet = tiny();
        assert_eq!(sheet.keys().count(), 6, "3 backends x 2 modes");
        for kind in BackendKind::EVALUATED {
            let p50 = |mode| sheet.value(&[kind.label(), mode], "p50_commit_ms");
            let speedup = p50("sequential") / p50("pipelined");
            assert!(
                speedup >= 1.0,
                "{}: pipelining must never hurt, got {speedup:.2}x",
                kind.label()
            );
        }
        check(&sheet).unwrap();
    }

    #[test]
    fn api_call_counts_match_between_modes() {
        // Pipelining reorders round trips; on a row without a multi-key
        // write (S3) it must not change how many API calls are billed. The
        // sequential leg writes key by key, so on a row with one — Redis's
        // MSET of a transaction's keys — the pipelined leg bills fewer.
        let sheet = tiny();
        let calls = |backend, mode| sheet.value(&[backend, mode], "api_calls");
        assert_eq!(
            calls("S3", "sequential"),
            calls("S3", "pipelined"),
            "S3: same per-key API calls in both modes"
        );
        assert!(
            calls("Redis", "pipelined") < calls("Redis", "sequential"),
            "Redis: one MSET per commit, not one SET per key"
        );
    }

    #[test]
    fn json_document_round_trips() {
        let sheet = sheet(10, DEFAULT_SEED);
        let parsed = Json::parse(&sheet.to_json().render()).unwrap();
        assert_eq!(
            parsed.get("title").and_then(Json::as_str),
            Some("Figure 2 — sequential vs pipelined storage I/O per backend")
        );
        let rows = parsed.get("rows").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), 6);
        let redis = rows
            .iter()
            .find(|r| r.get("backend").and_then(Json::as_str) == Some("Redis"))
            .unwrap();
        assert_eq!(redis.get("mode").and_then(Json::as_str), Some("sequential"));
        let commit = redis.get("p50_commit_ms").and_then(Json::as_f64);
        let measured = sheet.value(&["Redis", "sequential"], "p50_commit_ms");
        assert_eq!(commit, Some(round4(measured)));
    }

    #[test]
    fn table_has_one_row_per_point() {
        let sheet = sheet(5, DEFAULT_SEED);
        // The title, the column names and the rule, then a line per row.
        assert_eq!(sheet.render().lines().count(), 3 + sheet.keys().count());
    }
}
