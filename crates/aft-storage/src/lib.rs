//! Storage substrates for the AFT shim.
//!
//! The paper's only requirement on the storage layer is that *updates are
//! durable once acknowledged* (§3.1) — AFT never relies on the store for
//! consistency, visibility ordering, or partitioning. This crate provides:
//!
//! * [`StorageEngine`] — the narrow key-value interface AFT uses
//!   (get / put / batched put / delete / list-by-prefix).
//! * [`InMemoryStore`] — a zero-latency reference backend used by unit tests.
//! * [`SimS3`], [`SimDynamo`], [`SimRedis`] — simulated stand-ins for the
//!   three backends the paper evaluates (AWS S3, AWS DynamoDB, AWS
//!   ElastiCache/Redis in cluster mode), each reproducing the behavioural
//!   properties the evaluation depends on: latency magnitude and variance,
//!   batch-write support and its limits, sharding, and (for DynamoDB) a
//!   serializable single-call transaction mode.
//! * [`latency`] — parameterised latency models, scaled down uniformly so
//!   experiments finish quickly while preserving the *ratios* between
//!   backends that determine every figure's shape.
//! * [`counters`] — per-backend operation statistics (API calls, bytes), used
//!   by the benchmarks to report API-call behaviour (e.g. Figure 5's analysis
//!   of API calls per transaction).
//! * [`sharded`] — N-way lock striping for the backends' shared data plane,
//!   so multi-client experiments measure the protocol rather than contention
//!   on a single map lock. Per-stripe counters roll up into [`counters`].
//! * [`io`] — the overlapped I/O layer: a submission/completion engine
//!   ([`IoEngine`]) that runs each request on its submitter and lets the
//!   waiter time the completion, so N in-flight requests overlap their
//!   sampled latencies instead of summing them (and the virtual clock
//!   charges a concurrent batch the max, not the sum); blocking backends
//!   get a worker pool.
//!   [`SequentialEngine`] is the explicitly-sequential baseline wrapper.
//! * [`chaos`] — deterministic fault injection: [`FaultyBackend`] wraps any
//!   engine with the storage layer of a seeded, cross-layer
//!   [`aft_chaos::ChaosSpec`] (transient errors, timeouts, and a slow-stripe
//!   gray failure), and the I/O engine's submission path absorbs the
//!   transient faults with retry-and-backoff ([`RetryConfig`]).

pub mod backend;
pub mod chaos;
pub mod checkpoint;
pub mod counters;
pub mod dynamo;
pub mod engine;
pub mod io;
pub mod latency;
pub mod memory;
pub mod profiles;
pub mod redis;
pub mod s3;
pub mod service;
pub mod sharded;

pub use backend::{make_backend, BackendConfig, BackendKind};
pub use chaos::{ChaosStatsSnapshot, FaultKind, FaultyBackend};
pub use checkpoint::{
    compact_log, load_latest_checkpoint, publish_checkpoint, Checkpoint, CheckpointLoad,
    CheckpointManifest, CheckpointWriteOutcome, CompactionOutcome, CHECKPOINT_KEEP,
};
pub use counters::{OpKind, StorageStats, StorageStatsSnapshot, StripeCounters};
pub use dynamo::{DynamoTransactionMode, SimDynamo};
pub use engine::{SharedStorage, StorageEngine};
pub use io::{
    BatchOutcome, CompletionSet, IoConfig, IoEngine, IoOutcome, IoStatsSnapshot, IoTicket,
    RetryConfig, SequentialEngine, StorageRequest, StorageResponse,
};
pub use latency::{LatencyMode, LatencyModel, LatencyProfile};
pub use memory::InMemoryStore;
pub use profiles::ServiceProfile;
pub use redis::SimRedis;
pub use s3::SimS3;
pub use service::SimShardedService;
pub use sharded::{stripe_of, ShardedMap, DEFAULT_STRIPES};
