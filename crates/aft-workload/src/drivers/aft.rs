//! The AFT-backed request driver.
//!
//! Each logical request runs against an [`AftApi`] implementation — a single
//! node, a cluster's round-robin router, or (via `aft-net`) a client SDK
//! speaking the wire protocol to a served deployment; the driver is
//! transport-agnostic, so the same workloads measure all three. Requests
//! execute their functions through the FaaS platform sharing a single AFT
//! transaction and commit in the last function. On retryable failures —
//! injected function crashes, a routed node that has since been killed, a
//! dropped connection, or a read with no valid version (§3.6) — the whole
//! request restarts from scratch with a fresh transaction, which is exactly
//! the retry model the paper assumes.

use std::sync::Arc;

use aft_cluster::Cluster;
use aft_core::api::{AftApi, CommitOutcome};
use aft_core::AftNode;
use aft_faas::{Composition, FaasPlatform, RetryPolicy};
use aft_types::{payload_of_size, AftError, AftResult, Key, TransactionId, Value};

use crate::anomaly::AnomalyFlags;
use crate::drivers::RequestDriver;
use crate::generator::TransactionPlan;

/// Selects the API endpoint each request attempt runs against.
type ApiSelector = Arc<dyn Fn() -> AftResult<Arc<dyn AftApi>> + Send + Sync>;

/// Executes logical requests through the AFT shim.
pub struct AftDriver {
    platform: Arc<FaasPlatform>,
    select_api: ApiSelector,
    retry: RetryPolicy,
    label: String,
}

/// Per-attempt request state carried across the functions of one composition.
struct AftRequestCtx {
    api: Option<Arc<dyn AftApi>>,
    txid: Option<TransactionId>,
    committed: bool,
    /// The commit's verdict (read-atomicity check runs where the metadata
    /// lives — in-process or server-side).
    outcome: Option<CommitOutcome>,
    /// True versions observed for reads served from committed data.
    reads: Vec<(Key, TransactionId)>,
    /// Values this request wrote, for read-your-writes verification.
    written: std::collections::HashMap<Key, Value>,
    ryw_violation: bool,
}

impl Drop for AftRequestCtx {
    fn drop(&mut self) {
        // A failed attempt leaves a dangling transaction, and nothing else
        // aborts it: it would pin local GC for the node's life.
        if !self.committed {
            if let (Some(api), Some(txid)) = (&self.api, &self.txid) {
                let _ = api.abort(txid);
            }
        }
    }
}

impl AftDriver {
    /// A driver that sends every request to one AFT node.
    pub fn single_node(
        node: Arc<AftNode>,
        platform: Arc<FaasPlatform>,
        retry: RetryPolicy,
    ) -> Self {
        let api: Arc<dyn AftApi> = node;
        Self::from_api(api, platform, retry).with_label("AFT")
    }

    /// A driver that routes each request through a cluster's load balancer.
    pub fn clustered(
        cluster: Arc<Cluster>,
        platform: Arc<FaasPlatform>,
        retry: RetryPolicy,
    ) -> Self {
        AftDriver {
            platform,
            select_api: Arc::new(move || cluster.route().map(|node| node as Arc<dyn AftApi>)),
            retry,
            label: "AFT (clustered)".to_owned(),
        }
    }

    /// A driver over any [`AftApi`] endpoint — the constructor the networked
    /// client uses (the endpoint itself routes server-side), and the common
    /// base of the other two.
    pub fn from_api(api: Arc<dyn AftApi>, platform: Arc<FaasPlatform>, retry: RetryPolicy) -> Self {
        let label = format!("AFT ({})", api.api_label());
        AftDriver {
            platform,
            select_api: Arc::new(move || Ok(Arc::clone(&api))),
            retry,
            label,
        }
    }

    /// Overrides the driver's display name.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// The FaaS platform requests run on.
    pub fn platform(&self) -> &Arc<FaasPlatform> {
        &self.platform
    }

    fn build_composition(&self, plan: Arc<TransactionPlan>) -> Composition<AftRequestCtx> {
        let platform = Arc::clone(&self.platform);
        Composition::repeated(
            "aft-request",
            plan.functions.len(),
            move |ctx: &mut AftRequestCtx, info| {
                let api = ctx
                    .api
                    .clone()
                    .ok_or_else(|| AftError::Unavailable("no AFT endpoint available".to_owned()))?;
                let txid = ctx.txid.ok_or_else(|| {
                    AftError::Unavailable("transaction was not started".to_owned())
                })?;
                let function = &plan.functions[info.step_index];

                for key in &function.reads {
                    match api.get_versioned(&txid, key)? {
                        Some((value, Some(version))) => {
                            ctx.reads.push((key.clone(), version));
                            let _ = value;
                        }
                        // Served from our own write buffer: verify we see the
                        // bytes we wrote (read-your-writes).
                        Some((value, None)) if ctx.written.get(key) != Some(&value) => {
                            ctx.ryw_violation = true;
                        }
                        Some((_, None)) => {}
                        None => {}
                    }
                }
                for key in &function.writes {
                    let value = payload_of_size(plan.value_size);
                    api.put(&txid, key.clone(), value.clone())?;
                    ctx.written.insert(key.clone(), value);
                    // The §1 hazard: a crash between two writes of the same
                    // request. AFT's write buffer keeps the partial update
                    // invisible; retries start a fresh transaction.
                    if platform.injector().should_crash_midway() {
                        return Err(AftError::FunctionFailed(
                            "injected crash between writes".to_owned(),
                        ));
                    }
                }
                if info.step_index + 1 == info.total_steps {
                    let outcome = api.commit(&txid, &ctx.reads)?;
                    ctx.committed = true;
                    ctx.outcome = Some(outcome);
                }
                Ok(())
            },
        )
    }
}

impl RequestDriver for AftDriver {
    fn name(&self) -> &str {
        &self.label
    }

    fn execute(&self, plan: &TransactionPlan) -> AftResult<AnomalyFlags> {
        let plan = Arc::new(plan.clone());
        let composition = self.build_composition(Arc::clone(&plan));
        let select_api = Arc::clone(&self.select_api);

        let (ctx, outcome) = self.platform.run_request(
            &composition,
            move |_attempt| {
                let api = select_api().ok();
                let txid = api.as_ref().and_then(|a| a.begin().ok());
                AftRequestCtx {
                    api,
                    txid,
                    committed: false,
                    outcome: None,
                    reads: Vec::new(),
                    written: std::collections::HashMap::new(),
                    ryw_violation: false,
                }
            },
            &self.retry,
        );

        match ctx {
            Some(ctx) => {
                let atomic = ctx.outcome.as_ref().is_none_or(|o| o.atomic);
                Ok(AnomalyFlags {
                    read_your_writes: ctx.ryw_violation,
                    fractured_read: !atomic,
                })
            }
            None => Err(outcome
                .error
                .unwrap_or_else(|| AftError::FunctionFailed("request failed".to_owned()))),
        }
    }

    fn preload(&self, keys: &[Key], value_size: usize) -> AftResult<()> {
        let api = (self.select_api)()?;
        aft_core::api::preload_keys(&api, keys, |_| payload_of_size(value_size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{WorkloadConfig, WorkloadGenerator};
    use aft_core::NodeConfig;
    use aft_faas::FaasChaos;
    use aft_faas::PlatformConfig;
    use aft_storage::InMemoryStore;
    use aft_types::clock::TickingClock;

    fn make_driver(failures: FaasChaos) -> (AftDriver, Arc<AftNode>) {
        let node = AftNode::with_clock(
            NodeConfig::test(),
            InMemoryStore::shared(),
            TickingClock::shared(1, 1),
        )
        .unwrap();
        let platform = FaasPlatform::new(PlatformConfig::test().with_chaos(failures));
        let driver =
            AftDriver::single_node(Arc::clone(&node), platform, RetryPolicy::with_attempts(10));
        (driver, node)
    }

    #[test]
    fn requests_commit_and_show_no_anomalies() {
        let (driver, node) = make_driver(FaasChaos::quiet());
        let mut generator = WorkloadGenerator::new(
            WorkloadConfig::standard().with_keys(50).with_value_size(64),
            3,
        );
        driver.preload(&generator.preload_plan(), 64).unwrap();
        let preloaded = node.stats().committed();

        for _ in 0..50 {
            let flags = driver.execute(&generator.next_plan()).unwrap();
            assert_eq!(flags, AnomalyFlags::CLEAN);
        }
        assert_eq!(node.stats().committed(), preloaded + 50);
        assert_eq!(node.in_flight(), 0, "no dangling transactions");
    }

    #[test]
    fn injected_failures_are_masked_by_retries() {
        let (driver, node) = make_driver(FaasChaos::uniform(0.3));
        let mut generator = WorkloadGenerator::new(
            WorkloadConfig::standard().with_keys(20).with_value_size(64),
            5,
        );
        driver.preload(&generator.preload_plan(), 64).unwrap();

        let mut clean = 0;
        for _ in 0..100 {
            if let Ok(flags) = driver.execute(&generator.next_plan()) {
                assert_eq!(flags, AnomalyFlags::CLEAN, "AFT must never show anomalies");
                clean += 1;
            }
        }
        assert!(
            clean >= 95,
            "almost every request completes despite failures"
        );
        assert!(
            driver.platform().stats().snapshot().injected_failures > 0,
            "failures were actually injected"
        );
        assert_eq!(node.in_flight(), 0, "failed attempts were aborted");
    }

    #[test]
    fn preload_writes_every_key_once() {
        let (driver, node) = make_driver(FaasChaos::quiet());
        let keys: Vec<Key> = (0..10).map(|i| Key::new(format!("k{i}"))).collect();
        driver.preload(&keys, 32).unwrap();
        let t = node.start_transaction();
        for key in &keys {
            assert!(node.get(&t, key).unwrap().is_some());
        }
    }
}
