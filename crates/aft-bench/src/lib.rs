//! The evaluation harness for the AFT reproduction.
//!
//! Every table and figure in the paper's evaluation (§6), and every sweep
//! this repository gates itself on, is one entry of [`cli::REGISTRY`], run
//! by the crate's one binary (`aft-bench <experiment>`, `aft-bench all`,
//! `aft-bench list`). [`cli`] owns the command line, the report files and
//! the gate verdicts; [`setup`] owns how a simulated deployment is built
//! (and the lost-ack oracle every durability figure comes from);
//! [`experiments`] holds the paper's nine figures; each gated sweep has a
//! module of its own whose header says what it measures and what its gate
//! enforces.
//!
//! The figures run against the simulated substrates with latencies scaled
//! down by a single global factor (`AFT_BENCH_SCALE`, default 0.1). Scaling
//! every service identically preserves the ratios, crossovers, and winners
//! while letting the whole suite finish quickly. The gated sweeps fix their
//! own scale: those on the virtual clock charge full-scale latencies
//! without sleeping.
//!
//! Environment knobs (all optional, read once by
//! [`setup::BenchEnv::from_env`]):
//!
//! * `AFT_BENCH_FAST` — any value but empty or `0` shrinks every experiment
//!   (fewer requests, fewer clients, shorter timelines, trimmed matrices):
//!   the configuration CI's gates run.
//! * `AFT_BENCH_SCALE` — latency scale factor of the figures (default `0.1`).
//! * `AFT_BENCH_REQUESTS` — requests per client for the figures' latency
//!   experiments (default 200).

pub mod checkpoint;
pub mod cli;
pub mod dissemination;
pub mod experiments;
pub mod json;
pub mod overload;
pub mod pipelined;
pub mod recovery;
pub mod report;
pub mod service;
pub mod setup;
pub mod trajectory;
