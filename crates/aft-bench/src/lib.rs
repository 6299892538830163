//! The evaluation harness for the AFT reproduction.
//!
//! Every table and figure in the paper's evaluation (§6), and every sweep
//! this repository gates itself on, is one entry of [`cli::REGISTRY`], run
//! by the crate's one binary (`aft-bench <experiment>`, `aft-bench all`,
//! `aft-bench list`). [`cli`] owns the command line, the report files and
//! the gate verdicts; [`setup`] owns how a simulated deployment is built
//! (and the lost-ack oracle every durability figure comes from);
//! [`experiments`] holds the paper's figures, one seeded experiment in
//! virtual time with a shape check per figure, and [`pipelined`] builds
//! Figure 2's sequential-against-pipelined table; each other sweep has a
//! module of its own whose header says what it measures and what its gate
//! enforces. [`report`] is the shape the figures and the three
//! virtual-clock sweeps report in: sheets of labelled rows, and named
//! checks over them.
//!
//! The figures and the virtual-clock sweeps charge every service latency at
//! full scale without sleeping, so they cost seconds and repeat exactly per
//! seed.
//!
//! One environment knob, read once by [`setup::BenchEnv::from_env`]:
//! `AFT_BENCH_FAST` — any value but empty or `0` shrinks every experiment
//! (fewer requests, fewer clients, shorter timelines, trimmed matrices):
//! the configuration CI's gates run.

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
