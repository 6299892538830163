//! The AFT service layer: AFT as a real networked system.
//!
//! The paper positions AFT as a shim *service* interposed between a FaaS
//! platform and storage, fronting many concurrent clients (§2, §6's 40
//! clients per node) — but everything below this crate is a library: callers
//! hold an `AftNode` in-process. `aft-net` adds the missing boundary:
//!
//! * [`frame`] — length-prefixed framing over any `Read`/`Write` stream,
//!   with a hard size cap so hostile lengths cannot OOM either peer.
//! * [`server`] — [`server::AftServer`]: a `std::net` TCP listener fronting
//!   an `aft-cluster` [`Cluster`](aft_cluster::Cluster). Each connection's
//!   protocol is a sans-I/O session (`session`): it decodes frames, admits
//!   or parks requests, keeps answers in arrival order and passes the
//!   verdicts on half-open, garbage and truncated connections. Two drivers
//!   run it. A sized set of readiness-driven reactor threads (`event_loop`)
//!   shares the sockets round robin and makes the syscalls, batching a
//!   pipelined burst into one vectored write, so connections scale to
//!   thousands while thread count stays `workers`; an in-memory pipe
//!   (`pipe`) runs a session on its client's calling thread. `Commit` is
//!   deduplicated on the transaction UUID, which closes §4.2's
//!   lost-acknowledgement window *end to end*: a client that resends a
//!   commit whose ack died with the connection gets the original outcome,
//!   never a second apply.
//! * [`client`] — [`client::AftClient`]: the SDK. A connection pool with
//!   per-connection pipelining and no reader thread (a waiting caller reads
//!   the replies), a client-side Atomic Write Buffer (writes ship inside
//!   `Commit`, making it idempotently resendable), and retry-with-backoff
//!   reconnects mirroring the storage I/O engine's `RetryConfig` semantics.
//!   Its [`PhaseHook`](aft_core::PhaseHook) answers what the network does to
//!   each request: a reset before or after the send, or a late answer.
//!   Implements [`AftApi`](aft_core::api::AftApi), so every workload driver
//!   runs unchanged against a socket or a pipe.
//! * [`stats`] — server and connection counters in the `NodeStats` style,
//!   snapshotted over the wire via the `Stats` verb.

mod buffer;
pub mod client;
mod event_loop;
pub mod frame;
mod pipe;
pub mod server;
mod session;
pub mod stats;

pub use client::{AftClient, ClientBuilder, ClientConfig, ClientStatsSnapshot};
pub use server::{AftServer, PipeServer, ServerBuilder, ServerConfig};
pub use stats::{EventSnapshot, ServiceStats};
