//! `fig7_throughput_scaling`: does the shim's hot path scale with clients?
//!
//! The paper's Figure 7 sweeps closed-loop clients against a single AFT node
//! and reports throughput. This experiment asks the same question about the
//! *reproduction's own hot path*: it sweeps clients × storage lock stripes ×
//! commit-batch settings over the in-memory
//! [`SimShardedService`](aft_storage::SimShardedService) backend, whose
//! per-stripe request lanes model a storage service's internal parallelism
//! (one Redis-shard-style single-threaded executor per stripe). The
//! `global-lock` variant (1 stripe, no batching) reproduces the pre-striping
//! implementation — every storage access funneled through one lock — and is
//! the baseline every other variant is compared against.
//!
//! Because lane occupancy is simulated (slept) time rather than compute, the
//! sweep measures the *architecture's* parallelism and is meaningful even on
//! a single-core CI host.
//!
//! The results are written as machine-readable `BENCH_throughput.json`
//! (p50/p99 latency, ops/s, anomaly counts per point) so CI can archive a
//! perf trajectory and gate on regressions against a checked-in
//! `BENCH_baseline.json`.

use std::time::Duration;

use aft_core::{AftNode, BatchConfig, NodeConfig};
use aft_faas::{FaasPlatform, PlatformConfig, RetryPolicy};
use aft_storage::{make_backend, BackendConfig, BackendKind, IoConfig, LatencyMode};
use aft_workload::{run_closed_loop, AftDriver, RunConfig, WorkloadConfig};

use crate::cli::{Args, Flag, Outcome};
use crate::json::Json;
use crate::report::{round2, round4, Table};

/// One hot-path configuration in the sweep.
#[derive(Debug, Clone)]
pub struct ScalingVariant {
    /// Label used in tables and JSON ("global-lock", "striped", ...).
    pub label: String,
    /// Lock-stripe count for the memory backend's data plane.
    pub stripes: usize,
    /// Maximum commits coalesced into one storage flush.
    pub max_batch: usize,
    /// Group-commit window in microseconds (0 = flush immediately).
    pub max_delay_us: u64,
}

impl ScalingVariant {
    fn new(label: &str, stripes: usize, max_batch: usize, max_delay_us: u64) -> Self {
        ScalingVariant {
            label: label.to_owned(),
            stripes,
            max_batch,
            max_delay_us,
        }
    }

    fn batch_config(&self) -> BatchConfig {
        BatchConfig::default()
            .with_max_batch(self.max_batch)
            .with_max_delay(Duration::from_micros(self.max_delay_us))
    }
}

/// Configuration of the scaling sweep.
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// Closed-loop client counts to sweep.
    pub client_counts: Vec<usize>,
    /// Requests each client issues per point.
    pub requests_per_client: usize,
    /// Key-space size.
    pub keys: usize,
    /// Value payload size in bytes.
    pub value_size: usize,
    /// The hot-path variants to compare.
    pub variants: Vec<ScalingVariant>,
    /// Latency scale applied to the service profile (1.0 = calibrated
    /// Redis-like per-operation cost).
    pub latency_scale: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl ScalingConfig {
    /// The full sweep: clients 1→32 across the three interesting variants.
    pub fn standard() -> Self {
        ScalingConfig {
            client_counts: vec![1, 2, 4, 8, 16, 32],
            requests_per_client: 200,
            keys: 10_000,
            value_size: 256,
            variants: Self::default_variants(),
            latency_scale: 1.0,
            seed: 0xF7_5C,
        }
    }

    /// A sub-minute sweep for CI: the endpoints only (1 and 8 clients).
    pub fn fast() -> Self {
        ScalingConfig {
            client_counts: vec![1, 8],
            requests_per_client: 150,
            keys: 2_000,
            value_size: 128,
            variants: Self::default_variants(),
            latency_scale: 1.0,
            seed: 0xF7_5C,
        }
    }

    /// The three variants every sweep compares:
    /// the pre-striping baseline, striping alone, and striping + batching.
    fn default_variants() -> Vec<ScalingVariant> {
        vec![
            ScalingVariant::new("global-lock", 1, 1, 0),
            ScalingVariant::new("striped", 16, 1, 0),
            ScalingVariant::new("striped+batched", 16, 32, 0),
        ]
    }
}

/// One measured point of the sweep.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// The variant's label.
    pub variant: String,
    /// Lock stripes of the point's backend.
    pub stripes: usize,
    /// Maximum commit batch of the point's node.
    pub max_batch: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// Requests completed per second.
    pub ops_per_sec: f64,
    /// Median request latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency in milliseconds.
    pub p99_ms: f64,
    /// Requests completed.
    pub completed: u64,
    /// Requests that exhausted retries.
    pub failed: u64,
    /// Read-your-writes anomalies observed (must be 0 through AFT).
    pub ryw_anomalies: u64,
    /// Fractured-read anomalies observed (must be 0 through AFT).
    pub fr_anomalies: u64,
    /// Mean commits coalesced per storage flush.
    pub mean_commit_batch: f64,
}

/// The measured sweep plus derived summary numbers.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Every measured point, in sweep order.
    pub points: Vec<ScalingPoint>,
}

impl ThroughputReport {
    /// The point for (`variant`, `clients`), if measured.
    pub fn point(&self, variant: &str, clients: usize) -> Option<&ScalingPoint> {
        self.points
            .iter()
            .find(|p| p.variant == variant && p.clients == clients)
    }

    /// Throughput of the fully sharded+batched configuration at the lowest
    /// measured client count — the number the CI regression gate tracks.
    pub fn single_client_ops(&self) -> f64 {
        let min_clients = self.points.iter().map(|p| p.clients).min().unwrap_or(1);
        self.point("striped+batched", min_clients)
            .map_or(0.0, |p| p.ops_per_sec)
    }

    /// Multi-client speedup of `striped+batched` over `global-lock` at the
    /// highest measured client count (the ISSUE's ≥2× acceptance number).
    pub fn multi_client_speedup(&self) -> f64 {
        let max_clients = self.points.iter().map(|p| p.clients).max().unwrap_or(1);
        let baseline = self
            .point("global-lock", max_clients)
            .map_or(0.0, |p| p.ops_per_sec);
        let sharded = self
            .point("striped+batched", max_clients)
            .map_or(0.0, |p| p.ops_per_sec);
        if baseline <= 0.0 {
            0.0
        } else {
            sharded / baseline
        }
    }

    /// Total anomalies across every point (must be 0: AFT's guarantees do
    /// not bend under striping or batching).
    pub fn total_anomalies(&self) -> u64 {
        self.points
            .iter()
            .map(|p| p.ryw_anomalies + p.fr_anomalies)
            .sum()
    }

    /// Renders the sweep as an aligned text table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "fig7_throughput_scaling — memory backend, clients × stripes × batch",
            &[
                "variant",
                "stripes",
                "max_batch",
                "clients",
                "ops/s",
                "p50 (ms)",
                "p99 (ms)",
                "mean batch",
                "anomalies",
            ],
        );
        for p in &self.points {
            table.add_row(vec![
                p.variant.clone(),
                p.stripes.to_string(),
                p.max_batch.to_string(),
                p.clients.to_string(),
                format!("{:.0}", p.ops_per_sec),
                format!("{:.3}", p.p50_ms),
                format!("{:.3}", p.p99_ms),
                format!("{:.2}", p.mean_commit_batch),
                (p.ryw_anomalies + p.fr_anomalies).to_string(),
            ]);
        }
        table
    }

    /// Serialises the report as the `BENCH_throughput.json` document.
    pub fn to_json(&self) -> Json {
        let points = self
            .points
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("variant", Json::str(&p.variant)),
                    ("stripes", Json::Num(p.stripes as f64)),
                    ("max_batch", Json::Num(p.max_batch as f64)),
                    ("clients", Json::Num(p.clients as f64)),
                    ("ops_per_sec", Json::Num(round2(p.ops_per_sec))),
                    ("p50_ms", Json::Num(round4(p.p50_ms))),
                    ("p99_ms", Json::Num(round4(p.p99_ms))),
                    ("completed", Json::Num(p.completed as f64)),
                    ("failed", Json::Num(p.failed as f64)),
                    ("ryw_anomalies", Json::Num(p.ryw_anomalies as f64)),
                    ("fr_anomalies", Json::Num(p.fr_anomalies as f64)),
                    ("mean_commit_batch", Json::Num(round2(p.mean_commit_batch))),
                ])
            })
            .collect();
        Json::obj(vec![
            ("experiment", Json::str("fig7_throughput_scaling")),
            ("backend", Json::str("memory")),
            (
                "summary",
                Json::obj(vec![
                    (
                        "single_client_ops_per_sec",
                        Json::Num(round2(self.single_client_ops())),
                    ),
                    (
                        "multi_client_speedup",
                        Json::Num(round2(self.multi_client_speedup())),
                    ),
                    ("total_anomalies", Json::Num(self.total_anomalies() as f64)),
                ]),
            ),
            ("points", Json::Arr(points)),
        ])
    }

    fn check_anomalies(&self) -> Result<(), String> {
        match self.total_anomalies() {
            0 => Ok(()),
            n => Err(format!(
                "{n} read-atomicity anomalies observed; AFT must show zero"
            )),
        }
    }

    /// The gate: zero anomalies always; single-client throughput against
    /// `baseline` when one is given ([`Self::check_against_baseline`]).
    pub fn check_gate(
        &self,
        baseline: Option<&Json>,
        max_regression: f64,
    ) -> Result<String, String> {
        let Some(baseline) = baseline else {
            self.check_anomalies()?;
            return Ok(format!(
                "0 anomalies; single-client throughput {:.0} ops/s not compared (no --baseline)",
                self.single_client_ops()
            ));
        };
        self.check_against_baseline(baseline, max_regression)
    }

    /// Compares this run's single-client throughput against a baseline
    /// document (same JSON schema). Returns an error describing the failure
    /// if throughput regressed by more than `max_regression` (a fraction,
    /// e.g. `0.30`), or if anomalies were observed.
    pub fn check_against_baseline(
        &self,
        baseline: &Json,
        max_regression: f64,
    ) -> Result<String, String> {
        self.check_anomalies()?;
        let baseline_ops = baseline
            .get("summary")
            .and_then(|s| s.get("single_client_ops_per_sec"))
            .and_then(Json::as_f64)
            .ok_or("baseline JSON lacks summary.single_client_ops_per_sec")?;
        let current = self.single_client_ops();
        let floor = baseline_ops * (1.0 - max_regression);
        if current < floor {
            Err(format!(
                "single-client throughput regressed: {current:.0} ops/s < {floor:.0} ops/s \
                 (baseline {baseline_ops:.0} - {:.0}%)",
                max_regression * 100.0
            ))
        } else {
            Ok(format!(
                "single-client throughput {current:.0} ops/s within {:.0}% of baseline \
                 {baseline_ops:.0} ops/s",
                max_regression * 100.0
            ))
        }
    }
}

/// Runs the sweep and returns the report.
///
/// Every point gets a fresh backend and node so points never warm each other
/// up; the data cache is disabled so reads exercise the storage stripes
/// (the cache's own striping is covered by its unit tests).
pub fn fig7_throughput_scaling(config: &ScalingConfig) -> ThroughputReport {
    let workload = WorkloadConfig::standard()
        .with_keys(config.keys)
        .with_value_size(config.value_size);
    let mode = if config.latency_scale > 0.0 {
        LatencyMode::Sleep
    } else {
        LatencyMode::Virtual
    };
    let mut points = Vec::new();
    for variant in &config.variants {
        for (i, &clients) in config.client_counts.iter().enumerate() {
            // Through the one shared construction path: `ShardedService` is a
            // first-class BackendKind, so benches and tests select it exactly
            // like the S3/DynamoDB/Redis sims.
            let storage = make_backend(BackendConfig {
                kind: BackendKind::ShardedService,
                mode,
                scale: config.latency_scale,
                seed: config.seed ^ variant.stripes as u64,
                stripes: variant.stripes,
            });
            let node_config = NodeConfig {
                data_cache_bytes: 0,
                commit_batch: variant.batch_config(),
                rng_seed: config.seed ^ (i as u64) << 8 ^ variant.stripes as u64,
                // The sharded-service backend models *service-side* occupancy
                // (no deferred latency), so a storage request holds a thread
                // for its whole service time: the client's own for a single
                // request, an engine worker's for each member of a batch.
                // One worker per client: the sweep must measure the stripes'
                // parallelism, never be capped by the worker pool.
                io: IoConfig::pipelined().with_workers(clients.max(8)),
                ..NodeConfig::default()
            };
            let node =
                AftNode::new(node_config, storage).expect("memory backend never fails to build");
            let driver = AftDriver::single_node(
                std::sync::Arc::clone(&node),
                FaasPlatform::new(PlatformConfig::test()),
                RetryPolicy::with_attempts(8),
            );
            let run = run_closed_loop(
                &driver,
                &RunConfig::new(workload.clone())
                    .with_clients(clients)
                    .with_requests(config.requests_per_client)
                    .with_seed(config.seed + clients as u64),
            )
            .expect("closed-loop run over the memory backend");
            let batch_stats = node.commit_batch_stats();
            points.push(ScalingPoint {
                variant: variant.label.clone(),
                stripes: variant.stripes,
                max_batch: variant.max_batch,
                clients,
                ops_per_sec: run.throughput_tps(),
                p50_ms: run.latency.median_ms(),
                p99_ms: run.latency.p99_ms(),
                completed: run.completed,
                failed: run.failed,
                ryw_anomalies: run.anomalies.ryw_transactions,
                fr_anomalies: run.anomalies.fr_transactions,
                mean_commit_batch: batch_stats.mean_batch(),
            });
        }
    }
    ThroughputReport { points }
}

/// `fig7_throughput_scaling`'s own command-line flags.
pub(crate) const FLAGS: &[Flag] = &[
    Flag {
        name: "--baseline",
        value: "PATH",
        about: "a previous report; the gate fails if single-client throughput regressed against it",
    },
    Flag {
        name: "--max-regression",
        value: "PCT",
        about: "regression against --baseline the gate allows, percent (default 30)",
    },
    Flag {
        name: "--write-baseline",
        value: "PATH",
        about: "also write this run's report to PATH, for deliberate re-baselining",
    },
];

/// The registry's entry point. The flag values are checked before the
/// sweep, so a mistyped baseline path costs nothing.
pub(crate) fn run(args: &Args) -> Result<Outcome, String> {
    let max_regression = match args.flag("--max-regression") {
        Some(pct) => pct
            .parse::<f64>()
            .map_err(|e| format!("invalid --max-regression {pct}: {e}"))?,
        None => 30.0,
    };
    let baseline = match args.flag("--baseline") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("failed to read baseline {path}: {e}"))?;
            Some(Json::parse(&text).map_err(|e| format!("failed to parse baseline {path}: {e}"))?)
        }
        None => None,
    };
    let mut config = args
        .env
        .sized(ScalingConfig::standard(), ScalingConfig::fast());
    config.seed = args.seed.unwrap_or(config.seed);
    let report = fig7_throughput_scaling(&config);
    let mut outcome = Outcome::new(
        config.seed,
        &config,
        vec![report.table()],
        report.to_json(),
        report.check_gate(baseline.as_ref(), max_regression / 100.0),
    );
    outcome.notes.push(format!(
        "summary: single-client {:.0} ops/s, multi-client speedup {:.2}x, {} anomalies",
        report.single_client_ops(),
        report.multi_client_speedup(),
        report.total_anomalies()
    ));
    outcome.also_write = args.flag("--write-baseline").map(str::to_owned);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ScalingConfig {
        ScalingConfig {
            client_counts: vec![1, 4],
            requests_per_client: 10,
            keys: 100,
            value_size: 64,
            variants: vec![
                ScalingVariant::new("global-lock", 1, 1, 0),
                ScalingVariant::new("striped+batched", 8, 16, 0),
            ],
            // Virtual latency: unit tests must stay fast and deterministic.
            latency_scale: 0.0,
            seed: 7,
        }
    }

    #[test]
    fn sweep_measures_every_point_with_zero_anomalies() {
        let report = fig7_throughput_scaling(&tiny_config());
        assert_eq!(report.points.len(), 4, "2 variants x 2 client counts");
        for p in &report.points {
            assert_eq!(p.completed, p.clients as u64 * 10);
            assert_eq!(p.failed, 0);
            assert!(p.ops_per_sec > 0.0);
        }
        assert_eq!(report.total_anomalies(), 0);
        assert!(report.single_client_ops() > 0.0);
        assert!(report.multi_client_speedup() > 0.0);
    }

    #[test]
    fn json_document_round_trips_with_summary() {
        let report = fig7_throughput_scaling(&tiny_config());
        let doc = report.to_json();
        let text = doc.render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("experiment").unwrap().as_str().unwrap(),
            "fig7_throughput_scaling"
        );
        assert_eq!(
            parsed.get("points").unwrap().as_array().unwrap().len(),
            report.points.len()
        );
        assert!(parsed
            .get("summary")
            .and_then(|s| s.get("single_client_ops_per_sec"))
            .and_then(Json::as_f64)
            .is_some());
    }

    #[test]
    fn baseline_gate_passes_and_fails_correctly() {
        let report = fig7_throughput_scaling(&tiny_config());
        let generous = Json::obj(vec![(
            "summary",
            Json::obj(vec![("single_client_ops_per_sec", Json::Num(1.0))]),
        )]);
        assert!(report.check_against_baseline(&generous, 0.30).is_ok());
        let impossible = Json::obj(vec![(
            "summary",
            Json::obj(vec![(
                "single_client_ops_per_sec",
                Json::Num(f64::MAX / 2.0),
            )]),
        )]);
        assert!(report.check_against_baseline(&impossible, 0.30).is_err());
        let malformed = Json::obj(vec![("nothing", Json::Null)]);
        assert!(report.check_against_baseline(&malformed, 0.30).is_err());
        // The gate proper: the baseline clause when one is given, the
        // anomaly clause alone otherwise — a verdict either way.
        assert!(report.check_gate(Some(&impossible), 0.30).is_err());
        let unbased = report.check_gate(None, 0.30).expect("0 anomalies");
        assert!(unbased.contains("no --baseline"), "{unbased}");
    }

    #[test]
    fn table_has_one_row_per_point() {
        let report = fig7_throughput_scaling(&tiny_config());
        assert_eq!(report.table().len(), report.points.len());
    }
}
