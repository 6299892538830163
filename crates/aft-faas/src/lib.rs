//! A simulated Functions-as-a-Service platform (AWS Lambda stand-in).
//!
//! The paper's evaluation runs every workload as *compositions of functions*
//! on AWS Lambda: a logical request is a linear chain of functions, each of
//! which performs a few reads and writes against AFT (or directly against
//! storage for the baselines). The properties of the platform that shape the
//! results are:
//!
//! * per-invocation overhead (and occasional cold starts), which dominates
//!   end-to-end latency over fast stores like Redis (§6.1.2),
//! * a bound on concurrent function executions (the Figure 8 plateau at 640
//!   clients was caused by Lambda's concurrency limit, not by AFT),
//! * automatic retries: functions are executed *at least once*, and a failed
//!   function simply runs again (§1, §3.3.1), and
//! * failures can strike anywhere — including between two writes of the same
//!   function, which is exactly the fractional-update hazard AFT exists to
//!   mask.
//!
//! The platform is generic over the per-request context type `C`, so the same
//! machinery drives AFT-backed requests, Plain (direct-to-storage) baselines,
//! and the DynamoDB-transaction-mode baseline in `aft-workload`.

pub mod composition;
pub mod failure;
pub mod platform;
pub mod retry;
pub mod stats;

pub use composition::{Composition, InvocationInfo};
pub use failure::{FaasChaos, FailureInjector, FailurePoint};
pub use platform::{FaasPlatform, PlatformConfig};
pub use retry::{RequestOutcome, RetryPolicy};
pub use stats::{PlatformStats, PlatformStatsSnapshot};
