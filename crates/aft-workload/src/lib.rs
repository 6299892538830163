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
//!   ([`drivers::AftDriver`]), directly against the storage engine ("Plain",
//!   [`drivers::PlainDriver`]), or through DynamoDB's transaction mode
//!   ([`drivers::DynamoTxnDriver`]).
//! * [`anomaly`] — a request's anomaly flags, and the tagged analyzer that
//!   `benchmark/`'s svc-large uses.
//! * [`history`] — the client-side history checker: an [`aft_core::api::AftApi`]
//!   recorder and the oracle that grades every row of Table 2 from what
//!   clients saw.
//! * `histogram` — latency recording (median / p99).
//! * [`runner`] — the closed-loop multi-client experiment runners: on the
//!   wall clock, and in virtual time for every figure.
//! * [`sim`] — the stepper: clients as lists of micro-ops, maintenance
//!   rounds, duplicates and failovers on one thread, each choice taken from
//!   a schedule — seeded (fig10's trials, the maintenance stress test) or
//!   every schedule of a small scope (the trajectory's walks).

pub mod anomaly;
pub mod drivers;
pub mod generator;
mod histogram;
pub mod history;
pub mod runner;
pub mod sim;
pub mod zipf;

pub use anomaly::{AnomalyFlags, TaggedObservation};
pub use drivers::{AftDriver, DynamoTxnDriver, PlainDriver, RequestDriver};
pub use generator::{FunctionPlan, TransactionPlan, WorkloadConfig, WorkloadGenerator};
pub use histogram::{LatencyRecorder, LatencyStats};
pub use runner::{run_closed_loop, run_seated, run_virtual_loop, RunConfig, RunResult, Timer};
pub use zipf::ZipfGenerator;
