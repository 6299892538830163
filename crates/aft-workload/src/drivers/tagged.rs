//! The tagged-baseline request, written once.
//!
//! The baselines that run without AFT ([`PlainDriver`](super::PlainDriver),
//! [`DynamoTxnDriver`](super::DynamoTxnDriver)) count anomalies by embedding
//! the metadata AFT maintains — a request tag and the cowritten key set —
//! inside each stored value (§6.1.2 reports this costs about 70 extra bytes
//! per 4 KB object). Tagging, the per-attempt re-tag, the observation and
//! its analysis are the same for both; a driver supplies only how one
//! function's reads and writes reach its store.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aft_faas::{Composition, FaasPlatform, RetryPolicy};
use aft_types::codec::{decode_tagged_value, encode_tagged_value};
use aft_types::{
    payload_of_size, AftError, AftResult, Key, SharedClock, TaggedValue, TransactionId, Uuid, Value,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::anomaly::{AnomalyFlags, TaggedObservation};
use crate::generator::{FunctionPlan, TransactionPlan};

/// Runs logical requests as tagged function compositions.
pub(super) struct TaggedBaseline {
    platform: Arc<FaasPlatform>,
    retry: RetryPolicy,
    rng: Mutex<StdRng>,
    /// Strictly increasing tag timestamps. Real deployments use the wall
    /// clock; at simulation speed many requests share a millisecond, so a
    /// per-driver counter (seeded from the clock) keeps tag order consistent
    /// with issue order and avoids spurious fractured-read reports.
    tag_clock: AtomicU64,
}

/// One function of one attempt, as a driver's step sees it.
pub(super) struct TaggedStep<'a> {
    observation: &'a mut TaggedObservation,
    /// The function's planned reads and writes.
    pub(super) function: &'a FunctionPlan,
    /// Every key the request writes, across all functions.
    pub(super) write_set: &'a [Key],
    /// Whether this is the request's last function.
    pub(super) last: bool,
    value_size: usize,
}

impl TaggedStep<'_> {
    /// Records what a read of `key` returned.
    pub(super) fn observe(&mut self, key: &Key, blob: Option<Value>) -> AftResult<()> {
        let observed = blob.map(|blob| decode_tagged_value(&blob)).transpose()?;
        self.observation.record_read(key.clone(), observed);
        Ok(())
    }

    /// The value this attempt writes: a payload under its tag and write set.
    pub(super) fn blob(&self) -> Value {
        encode_tagged_value(&TaggedValue::new(
            self.observation.own_tag,
            self.write_set.to_vec(),
            payload_of_size(self.value_size),
        ))
    }

    /// Records that the write of `key` reached the store.
    pub(super) fn wrote(&mut self, key: &Key) {
        self.observation.record_write(key.clone());
    }
}

impl TaggedBaseline {
    /// A baseline on `platform` whose tags start at `clock`'s now and draw
    /// their UUIDs from `seed`.
    pub(super) fn new(
        platform: Arc<FaasPlatform>,
        retry: RetryPolicy,
        clock: &SharedClock,
        seed: u64,
    ) -> Self {
        TaggedBaseline {
            platform,
            retry,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            tag_clock: AtomicU64::new(clock.now() * 1_000),
        }
    }

    /// The platform requests run on.
    pub(super) fn platform(&self) -> &Arc<FaasPlatform> {
        &self.platform
    }

    /// Runs `plan` as a composition named `name`, one `step` per function,
    /// and reports the anomalies the successful attempt observed.
    pub(super) fn execute(
        &self,
        name: &str,
        plan: &TransactionPlan,
        step: impl Fn(&mut TaggedStep<'_>) -> AftResult<()> + Send + Sync + 'static,
    ) -> AftResult<AnomalyFlags> {
        let plan = plan.clone();
        let write_set = plan.write_set();
        let composition = Composition::repeated(
            name,
            plan.functions.len(),
            move |observation: &mut TaggedObservation, info| {
                step(&mut TaggedStep {
                    observation,
                    function: &plan.functions[info.step_index],
                    write_set: &write_set,
                    last: info.step_index + 1 == info.total_steps,
                    value_size: plan.value_size,
                })
            },
        );
        let uuid = Uuid::from_rng(&mut *self.rng.lock());
        // Reserve a window of 16 so per-attempt re-tags stay unique.
        let timestamp = self.tag_clock.fetch_add(16, Ordering::Relaxed);
        let (observation, outcome) = self.platform.run_request(
            &composition,
            // Retries re-tag so that a half-finished earlier attempt is a
            // distinct writer — exactly what a client re-issuing a request
            // looks like to the rest of the system.
            move |attempt| {
                let timestamp = timestamp.wrapping_add(attempt as u64);
                TaggedObservation::new(TransactionId::new(timestamp, uuid))
            },
            &self.retry,
        );
        match observation {
            Some(observation) => Ok(observation.analyze()),
            None => Err(outcome
                .error
                .unwrap_or_else(|| AftError::FunctionFailed("request failed".to_owned()))),
        }
    }
}

/// An initial tagged version of every key, ready for a batch write.
pub(super) fn preload_items(keys: &[Key], value_size: usize) -> Vec<(String, Value)> {
    let tag = TransactionId::new(0, Uuid::from_u128(0x9E10AD));
    keys.iter()
        .map(|key| {
            let value = TaggedValue::new(tag, vec![key.clone()], payload_of_size(value_size));
            (key.as_str().to_owned(), encode_tagged_value(&value))
        })
        .collect()
}
