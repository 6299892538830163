//! Storage substrates for the AFT shim.
//!
//! The paper's only requirement on the storage layer is that *updates are
//! durable once acknowledged* (§3.1) — AFT never relies on the store for
//! consistency, visibility ordering, or partitioning. This crate provides:
//!
//! * [`StorageEngine`] — the narrow key-value interface AFT uses
//!   (get / batched get / put / batched put / delete / list-by-prefix).
//! * [`SimStore`] — the simulated key-value service, written once: a
//!   lock-striped [`ShardedMap`] behind the call accounting and sampled
//!   latency of one [`Service`] row. The rows (in [`profiles`]) are the
//!   stand-ins for the backends the paper evaluates, and differ only in
//!   facts — how slow a call is, how many keys one read, write or delete
//!   call may carry, where a key is placed:
//!
//!   | row ([`BackendKind`]) | single-key calls | multi-key read | multi-key write | multi-key delete | atomic multi-key write | placement stripes |
//!   |---|---|---|---|---|---|---|
//!   | [`Service::MEMORY`] ([`InMemoryStore`]) | free | any number of keys, free | any number of keys, free | any number of keys, free | no: it models no real service | 16 |
//!   | [`Service::S3`] | 14–40 ms median, very heavy write tail | none: one GET per key | none: one PUT per key | `DeleteObjects`, ≤ 1 000 keys, at the delete profile | no | 16 |
//!   | [`Service::DYNAMODB`] | 2.5–6 ms | `BatchGetItem`, ≤ 100 keys, a `GetItem` + 20 µs/item | `BatchWriteItem`, ≤ 25 items, base + 350 µs/item | `BatchWriteItem`, ≤ 25 keys, at its base | no: applied per item | 16 |
//!   | `Service::REDIS` | 0.5–2 ms | none: one GET per key | `MSET`, ≤ 16 keys of one slot, base + 60 µs/key | `DEL`, ≤ 16 keys of one slot, base + 60 µs/key | yes: `MSET` and `DEL` within one slot | its 2 shards |
//!
//!   Placement is a fact of the row ([`Service::stripes`]: 16 is
//!   [`DEFAULT_STRIPES`]). A batch larger than its call's limit is several
//!   calls; the calls of one batch are issued together and charged as the
//!   slowest, and each call draws its latency from its (first) key's own
//!   stream (a listing's prefix is its key): draw `n` of the key's [`aft_types::fnv1a`] hash under the
//!   store's seed ([`aft_types::seeded_stream`]), where `n` counts the
//!   store's earlier calls on that key. A call on one key therefore moves
//!   no other key's latency. Redis's multi-key calls may not span hash slots: its
//!   batches split by [`aft_types::slot_tag`] first — the last byte of the
//!   transaction UUID, so one slot holds 256ths of the transactions — and
//!   one transaction's keys share a call, a GC `DEL` carries every
//!   collected key of its group, and a key alone in its slot is a
//!   single-key call ([`redis`] says why the rule holds). A call the row applies
//!   all-or-nothing ([`MultiKeyCall::atomic`]) lands under the locks of
//!   every stripe it touches, so no reader sees part of it, and
//!   [`StorageEngine::writes_atomically`] tells a writer when a batch is one
//!   such call.
//!   What is genuinely a second behaviour is a thin addition over the shared
//!   store: [`SimDynamo`] adds the serializable single-call transaction mode.
//! * [`latency`] — parameterised latency models, charged to the calling
//!   thread (or slept), and the [`latency::Turns`] table that makes those
//!   charges the clocks of a virtual-time loop, so experiments run at full
//!   scale in seconds.
//! * [`counters`] — per-backend operation statistics (API calls, bytes), used
//!   by the benchmarks to report API-call behaviour (e.g. Figure 5's analysis
//!   of API calls per transaction).
//! * [`sharded`] — N-way lock striping for the store's data plane, so
//!   multi-client experiments measure the protocol rather than contention
//!   on a single map lock.
//! * [`io`] — the overlapped I/O layer: an engine ([`IoEngine`]) that runs
//!   each request on its caller and a batch in window-sized waves, each wave
//!   sleeping once for its members' deferred latency, so N in-flight
//!   requests overlap their sampled latencies instead of summing them (and
//!   the virtual clock charges each wave the max, not the sum); it owns no
//!   thread.
//!   [`SequentialEngine`] is the explicitly-sequential baseline wrapper.
//!   The engine absorbs a transient fault
//!   ([`aft_types::AftError::StorageTransient`]) by retrying it with backoff
//!   ([`RetryConfig`]).
//! * [`cut`] — fault injection: [`CutStore`] asks a hook at every call how
//!   it ends. A transient drops the call, or runs it and loses the
//!   acknowledgement, and the I/O engine retries it; a write may also land,
//!   fail back to its caller or crash the store, with any of the parts the
//!   service applies independently landed. `aft_workload::sim`'s schedules
//!   answer the hook, walked or sampled from a seed.

pub mod backend;
pub mod counters;
pub mod cut;
pub mod dynamo;
pub mod engine;
pub mod io;
pub mod latency;
pub mod memory;
pub mod profiles;
pub mod redis;
pub mod s3;
pub mod sharded;
pub mod store;

pub use backend::{make_backend, BackendConfig, BackendKind};
pub use counters::{OpKind, StorageStats, StorageStatsSnapshot};
pub use cut::{Cut, CutHook, CutStore};
pub use dynamo::{DynamoTransactionMode, SimDynamo};
pub use engine::{SharedStorage, StorageEngine};
pub use io::{
    IoConfig, IoEngine, IoStatsSnapshot, RetryConfig, SequentialEngine, StorageRequest,
    StorageResponse,
};
pub use latency::{LatencyMode, LatencyModel, LatencyProfile};
pub use memory::InMemoryStore;
pub use profiles::{MultiKeyCall, Service, ServiceProfile};
pub use sharded::{stripe_of, ShardedMap, DEFAULT_STRIPES};
pub use store::{calls_of, SimStore};
