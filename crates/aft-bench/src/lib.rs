//! The benchmark harness for the AFT reproduction.
//!
//! Every table and figure in the paper's evaluation (§6) has a **binary**
//! under `src/bin/` (`fig2_io_latency`, `fig3_table2_e2e`, ...) that runs the
//! full experiment and prints the same rows/series the paper reports.
//!
//! The experiments run against the simulated substrates with latencies scaled
//! down by a single global factor (`AFT_BENCH_SCALE`, default 0.1). Scaling
//! every service identically preserves the ratios, crossovers, and winners —
//! the properties EXPERIMENTS.md compares against the paper — while letting
//! the whole suite finish quickly.
//!
//! Environment knobs (all optional):
//!
//! * `AFT_BENCH_SCALE` — latency scale factor (default `0.1`).
//! * `AFT_BENCH_REQUESTS` — requests per client for latency experiments
//!   (default 200).
//! * `AFT_BENCH_FAST` — if set, shrinks every experiment (fewer requests,
//!   fewer clients, shorter timelines) for smoke-testing.

pub mod checkpoint;
pub mod dissemination;
pub mod experiments;
pub mod json;
pub mod overload;
pub mod pipelined;
pub mod recovery;
pub mod report;
pub mod scaling;
pub mod service;
pub mod setup;
pub mod summary;

pub use checkpoint::{fig13_checkpoint, CheckpointBenchConfig, CheckpointReport};
pub use dissemination::{fig12_dissemination, DisseminationBenchConfig, DisseminationReport};
pub use json::Json;
pub use overload::{fig11_overload, OverloadConfig, OverloadReport};
pub use pipelined::{fig2_pipelined, PipelineConfig, PipelineReport};
pub use recovery::{fig10_recovery, FaultMode, RecoveryConfig, RecoveryReport};
pub use report::Table;
pub use scaling::{fig7_throughput_scaling, ScalingConfig, ThroughputReport};
pub use service::{fig8_service, ServiceConfig, ServiceReport};
pub use setup::BenchEnv;
pub use summary::aggregate_bench_reports;
