//! Workload generation and measurement for the AFT evaluation (§6).
//!
//! This crate contains everything the benchmark harness needs that is not
//! part of the system under test:
//!
//! * [`zipf`] — the Zipfian key-popularity distribution the paper's workloads
//!   use (coefficients 1.0 / 1.5 / 2.0).
//! * [`generator`] — transaction plans: how many functions per request, how
//!   many reads and writes per function, payload sizes, and key choices.
//! * [`drivers`] — the three ways a request can execute: through AFT
//!   ([`drivers::AftDriver`]), directly against the storage engine with
//!   embedded metadata ("Plain", [`drivers::PlainDriver`]), or through
//!   DynamoDB's transaction mode ([`drivers::DynamoTxnDriver`]).
//! * [`anomaly`] — the read-your-writes and fractured-read anomaly detectors
//!   behind Table 2.
//! * [`histogram`] — latency recording (median / p99) and throughput
//!   timelines.
//! * [`runner`] — the closed-loop multi-client experiment runner used by
//!   every figure.
//! * [`sim`] — the seeded stepper: clients as lists of micro-ops and
//!   maintenance rounds on one thread, so a seed fixes the interleaving
//!   (fig10's trials, the maintenance stress test).

pub mod anomaly;
pub mod drivers;
pub mod generator;
pub mod histogram;
pub mod runner;
pub mod sim;
pub mod zipf;

pub use anomaly::{AnomalyCounts, AnomalyFlags, TaggedObservation};
pub use drivers::{AftDriver, DynamoTxnDriver, PlainDriver, RequestDriver};
pub use generator::{FunctionPlan, TransactionPlan, WorkloadConfig, WorkloadGenerator};
pub use histogram::{LatencyRecorder, LatencyStats, ThroughputTimeline};
pub use runner::{run_closed_loop, RunConfig, RunResult};
pub use zipf::ZipfGenerator;
