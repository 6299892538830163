//! `fig7_throughput_scaling`: does the shim's hot path scale with clients?
//!
//! The paper's Figure 7 sweeps closed-loop clients against a single AFT node
//! and reports throughput. This experiment asks the same question about the
//! *reproduction's own hot path*: it sweeps clients × storage lock stripes
//! over the [`SimShardedService`](aft_storage::SimShardedService) backend,
//! whose per-stripe request lanes model a storage service's internal
//! parallelism (one Redis-shard-style single-threaded executor per stripe).
//! The `global-lock` variant (1 stripe) reproduces the pre-striping
//! implementation — every storage access funneled through one queue — and is
//! the baseline the `striped` variant is compared against.
//!
//! Because lane occupancy is simulated (waited-out) time rather than compute,
//! the sweep measures the *architecture's* parallelism and is meaningful even
//! on a single-core CI host.
//!
//! The results are written as machine-readable `BENCH_throughput.json`
//! (p50/p99 latency, ops/s, anomaly counts per point) so CI can archive a
//! perf trajectory and gate on regressions against a checked-in
//! `BENCH_baseline.json`.

use aft_core::{AftNode, NodeConfig};
use aft_faas::{FaasPlatform, PlatformConfig, RetryPolicy};
use aft_storage::{make_backend, BackendConfig, BackendKind, LatencyMode};
use aft_workload::{run_closed_loop, AftDriver, RunConfig, WorkloadConfig};

use crate::cli::{Args, Flag, Outcome};
use crate::json::Json;
use crate::report::{round2, round4, Table};

/// One hot-path configuration in the sweep.
#[derive(Debug, Clone)]
pub struct ScalingVariant {
    /// Label used in tables and JSON ("global-lock", "striped").
    pub label: String,
    /// Stripe count of the service: its lanes and its data plane's locks.
    pub stripes: usize,
}

impl ScalingVariant {
    fn new(label: &str, stripes: usize) -> Self {
        ScalingVariant {
            label: label.to_owned(),
            stripes,
        }
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
    /// The hot-path variants to compare: the baseline first, the
    /// configuration the gate tracks last.
    pub variants: Vec<ScalingVariant>,
    /// Latency scale applied to the service profile (1.0 = calibrated
    /// Redis-like per-operation cost).
    pub latency_scale: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl ScalingConfig {
    /// The full sweep: clients 1→32 across the two variants.
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

    /// The two variants every sweep compares: the pre-striping baseline
    /// and striping.
    fn default_variants() -> Vec<ScalingVariant> {
        vec![
            ScalingVariant::new("global-lock", 1),
            ScalingVariant::new("striped", 16),
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
}

/// The measured sweep plus derived summary numbers.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// What the sweep's storage engine calls itself.
    pub backend: &'static str,
    /// Every measured point, in sweep order: variant by variant as
    /// configured, client counts within each.
    pub points: Vec<ScalingPoint>,
}

impl ThroughputReport {
    /// The point for (`variant`, `clients`), if measured.
    pub fn point(&self, variant: &str, clients: usize) -> Option<&ScalingPoint> {
        self.points
            .iter()
            .find(|p| p.variant == variant && p.clients == clients)
    }

    /// Throughput of the last configured variant at the lowest measured
    /// client count — the number the CI regression gate tracks. `None` if
    /// the sweep measured no such point.
    pub fn single_client_ops(&self) -> Option<f64> {
        let tracked = &self.points.last()?.variant;
        let min_clients = self.points.iter().map(|p| p.clients).min()?;
        Some(self.point(tracked, min_clients)?.ops_per_sec)
    }

    /// Multi-client speedup of the last configured variant over the first
    /// (the baseline) at the highest measured client count. `None` if either
    /// point is missing or the baseline completed nothing.
    pub fn multi_client_speedup(&self) -> Option<f64> {
        let baseline = &self.points.first()?.variant;
        let tracked = &self.points.last()?.variant;
        let max_clients = self.points.iter().map(|p| p.clients).max()?;
        let baseline = self.point(baseline, max_clients)?.ops_per_sec;
        let tracked = self.point(tracked, max_clients)?.ops_per_sec;
        (baseline > 0.0).then(|| tracked / baseline)
    }

    /// Total anomalies across every point (must be 0: AFT's guarantees do
    /// not bend under striping).
    pub fn total_anomalies(&self) -> u64 {
        self.points
            .iter()
            .map(|p| p.ryw_anomalies + p.fr_anomalies)
            .sum()
    }

    /// Renders the sweep as an aligned text table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            format!(
                "fig7_throughput_scaling — {} backend, clients × stripes",
                self.backend
            ),
            &[
                "variant",
                "stripes",
                "clients",
                "ops/s",
                "p50 (ms)",
                "p99 (ms)",
                "anomalies",
            ],
        );
        for p in &self.points {
            table.add_row(vec![
                p.variant.clone(),
                p.stripes.to_string(),
                p.clients.to_string(),
                format!("{:.0}", p.ops_per_sec),
                format!("{:.3}", p.p50_ms),
                format!("{:.3}", p.p99_ms),
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
                    ("clients", Json::Num(p.clients as f64)),
                    ("ops_per_sec", Json::Num(round2(p.ops_per_sec))),
                    ("p50_ms", Json::Num(round4(p.p50_ms))),
                    ("p99_ms", Json::Num(round4(p.p99_ms))),
                    ("completed", Json::Num(p.completed as f64)),
                    ("failed", Json::Num(p.failed as f64)),
                    ("ryw_anomalies", Json::Num(p.ryw_anomalies as f64)),
                    ("fr_anomalies", Json::Num(p.fr_anomalies as f64)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("experiment", Json::str("fig7_throughput_scaling")),
            ("backend", Json::str(self.backend)),
            (
                "summary",
                Json::obj(vec![
                    (
                        "single_client_ops_per_sec",
                        num_or_null(self.single_client_ops()),
                    ),
                    (
                        "multi_client_speedup",
                        num_or_null(self.multi_client_speedup()),
                    ),
                    ("total_anomalies", Json::Num(self.total_anomalies() as f64)),
                ]),
            ),
            ("points", Json::Arr(points)),
        ])
    }

    /// The gate: zero anomalies and a measured single-client point always;
    /// and, given a `baseline` document (same JSON schema), that point's
    /// throughput no more than `max_regression` (a fraction, e.g. `0.30`)
    /// below the baseline's.
    pub fn check_gate(
        &self,
        baseline: Option<&Json>,
        max_regression: f64,
    ) -> Result<String, String> {
        let anomalies = self.total_anomalies();
        if anomalies > 0 {
            return Err(format!(
                "{anomalies} read-atomicity anomalies observed; AFT must show zero"
            ));
        }
        let current = self
            .single_client_ops()
            .ok_or("the sweep measured no single-client point to gate on")?;
        let Some(baseline) = baseline else {
            return Ok(format!(
                "0 anomalies; single-client throughput {current:.0} ops/s not compared (no --baseline)"
            ));
        };
        let baseline_ops = baseline
            .get("summary")
            .and_then(|s| s.get("single_client_ops_per_sec"))
            .and_then(Json::as_f64)
            .ok_or("baseline JSON lacks summary.single_client_ops_per_sec")?;
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
    let mut backend = "";
    for variant in &config.variants {
        for (i, &clients) in config.client_counts.iter().enumerate() {
            let storage = make_backend(BackendConfig {
                kind: BackendKind::ShardedService,
                mode,
                scale: config.latency_scale,
                seed: config.seed ^ variant.stripes as u64,
                stripes: variant.stripes,
            });
            let node_config = NodeConfig {
                data_cache_bytes: 0,
                rng_seed: config.seed ^ (i as u64) << 8 ^ variant.stripes as u64,
                ..NodeConfig::default()
            };
            backend = storage.name();
            let node = AftNode::new(node_config, storage)
                .unwrap_or_else(|e| panic!("a node over the {backend} backend: {e}"));
            let driver = AftDriver::single_node(
                node,
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
            .unwrap_or_else(|e| panic!("closed-loop run over the {backend} backend: {e}"));
            points.push(ScalingPoint {
                variant: variant.label.clone(),
                stripes: variant.stripes,
                clients,
                ops_per_sec: run.throughput_tps(),
                p50_ms: run.latency.median_ms(),
                p99_ms: run.latency.p99_ms(),
                completed: run.completed,
                failed: run.failed,
                ryw_anomalies: run.anomalies.ryw_transactions,
                fr_anomalies: run.anomalies.fr_transactions,
            });
        }
    }
    ThroughputReport { backend, points }
}

fn num_or_null(value: Option<f64>) -> Json {
    value.map_or(Json::Null, |v| Json::Num(round2(v)))
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
        report.single_client_ops().unwrap_or(f64::NAN),
        report.multi_client_speedup().unwrap_or(f64::NAN),
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
                ScalingVariant::new("global-lock", 1),
                ScalingVariant::new("striped", 8),
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
        assert_eq!(report.backend, "sharded-service");
        let tracked = report
            .point("striped", 1)
            .expect("the last variant's point");
        assert_eq!(report.single_client_ops(), Some(tracked.ops_per_sec));
        assert!(report.multi_client_speedup().unwrap() > 0.0);
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
        let baseline = |ops: f64| {
            let summary = Json::obj(vec![("single_client_ops_per_sec", Json::Num(ops))]);
            Json::obj(vec![("summary", summary)])
        };
        let (generous, impossible) = (baseline(1.0), baseline(f64::MAX / 2.0));
        assert!(report.check_gate(Some(&generous), 0.30).is_ok());
        assert!(report.check_gate(Some(&impossible), 0.30).is_err());
        let malformed = Json::obj(vec![("nothing", Json::Null)]);
        assert!(report.check_gate(Some(&malformed), 0.30).is_err());
        // Without a baseline the other clauses still give a verdict.
        let unbased = report.check_gate(None, 0.30).expect("0 anomalies");
        assert!(unbased.contains("no --baseline"), "{unbased}");
        // A sweep without the point the gate reads is a failure, with or
        // without a baseline — never 0 ops/s and "gate OK".
        let empty = ThroughputReport {
            points: Vec::new(),
            ..report
        };
        assert_eq!(empty.single_client_ops(), None);
        let err = empty.check_gate(None, 0.30).unwrap_err();
        assert!(err.contains("no single-client point"), "{err}");
        assert!(empty.check_gate(Some(&generous), 0.30).is_err());
    }

    #[test]
    fn table_has_one_row_per_point() {
        let report = fig7_throughput_scaling(&tiny_config());
        assert_eq!(report.table().len(), report.points.len());
    }
}
