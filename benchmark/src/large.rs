//! The svc-large request driver: one `GetAll` of the plan's read keys, then
//! `Put`s of tagged payloads, then `Commit`.
//!
//! `AftDriver` never issues `GetAll` and writes untagged payloads, so this
//! workload brings its own driver. `GetAll` returns no versions, so read
//! atomicity is checked the way the paper checks its baselines: every value
//! is a [`TaggedValue`] naming its writer and cowritten set, and
//! [`TaggedObservation::analyze`] judges what each transaction saw. The
//! analysis runs after the measured phase, once every writer's commit id is
//! known: AFT orders versions by *commit* id, which a writer only learns
//! from its acknowledgement, so tags carry the UUID and the order is joined
//! in afterwards.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use aft_core::api::AftApi;
use aft_faas::{Composition, FaasPlatform, RetryPolicy};
use aft_types::codec::{decode_tagged_value, encode_tagged_value};
use aft_types::{
    payload_of_size, AftError, AftResult, Key, TaggedValue, TransactionId, Uuid, Value,
};
use aft_workload::{AnomalyFlags, RequestDriver, TaggedObservation, TransactionPlan};

/// Writer tag of preloaded values.
pub const PRELOAD_UUID: Uuid = Uuid::from_u128(0x0050_5245_4c4f_4144);

/// What one committed transaction wrote and saw.
pub struct Observation {
    pub uuid: Uuid,
    pub final_id: TransactionId,
    pub writes: Vec<Key>,
    /// `(key, writer uuid)` per value read, in read order.
    pub reads: Vec<(Key, Uuid)>,
}

pub struct LargeDriver {
    api: Arc<dyn AftApi>,
    platform: Arc<FaasPlatform>,
    retry: RetryPolicy,
    payload: Value,
    log: Mutex<Vec<Observation>>,
}

struct Ctx {
    api: Arc<dyn AftApi>,
    txid: Option<TransactionId>,
    committed: bool,
    done: Option<Observation>,
}

impl Drop for Ctx {
    fn drop(&mut self) {
        // A failed attempt leaves a dangling transaction; abort it now.
        if !self.committed {
            if let Some(txid) = &self.txid {
                let _ = self.api.abort(txid);
            }
        }
    }
}

impl LargeDriver {
    pub fn new(
        api: Arc<dyn AftApi>,
        platform: Arc<FaasPlatform>,
        retry: RetryPolicy,
        value_size: usize,
    ) -> Self {
        LargeDriver {
            api,
            platform,
            retry,
            payload: payload_of_size(value_size),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Committed transactions logged so far.
    pub fn logged(&self) -> usize {
        self.log.lock().expect("log lock").len()
    }

    /// Judges every transaction logged from index `from` on, returning
    /// `(transactions with an anomaly, transactions judged)`. A value whose
    /// writer is neither the preload nor an acknowledged commit counts as an
    /// anomaly.
    pub fn analyze_from(&self, from: usize) -> (u64, u64) {
        let log = self.log.lock().expect("log lock");
        let writers: HashMap<Uuid, &Observation> = log.iter().map(|o| (o.uuid, o)).collect();
        let mut flagged = 0;
        for obs in &log[from..] {
            let mut seen = TaggedObservation::new(obs.final_id);
            let mut unknown_writer = false;
            for (key, writer) in &obs.reads {
                let tagged = if *writer == PRELOAD_UUID {
                    TaggedValue::new(preload_tag(), vec![key.clone()], Value::new())
                } else if let Some(w) = writers.get(writer) {
                    TaggedValue::new(w.final_id, w.writes.clone(), Value::new())
                } else {
                    unknown_writer = true;
                    continue;
                };
                seen.record_read(key.clone(), Some(tagged));
            }
            for key in &obs.writes {
                seen.record_write(key.clone());
            }
            if unknown_writer || seen.analyze().any() {
                flagged += 1;
            }
        }
        (flagged, (log.len() - from) as u64)
    }

    /// UUIDs of every acknowledged commit, for the audit.
    pub fn acknowledged(&self) -> Vec<Uuid> {
        self.log
            .lock()
            .expect("log lock")
            .iter()
            .map(|o| o.uuid)
            .collect()
    }

    /// The value the preload writes at `key`.
    pub fn preload_value(&self, key: &Key) -> Value {
        encode_tagged_value(&TaggedValue::new(
            preload_tag(),
            vec![key.clone()],
            self.payload.clone(),
        ))
    }

    /// Checks a value read back by the audit: decodes, has the workload's
    /// payload, and names the writer whose version it is.
    pub fn check_value(&self, value: &Value, version: &TransactionId) -> Result<Uuid, String> {
        let tagged = decode_tagged_value(value).map_err(|e| format!("undecodable value: {e}"))?;
        if tagged.payload != self.payload {
            return Err(format!(
                "payload of {} bytes is not the workload's",
                tagged.payload.len()
            ));
        }
        if tagged.tid.uuid != PRELOAD_UUID && tagged.tid.uuid != version.uuid {
            return Err(format!(
                "value tagged {} stored as version {}",
                tagged.tid.uuid, version.uuid
            ));
        }
        Ok(tagged.tid.uuid)
    }
}

fn preload_tag() -> TransactionId {
    TransactionId::new(0, PRELOAD_UUID)
}

/// `keys` without repeats, first occurrences in order.
pub fn dedup(keys: &[Key]) -> Vec<Key> {
    let mut out: Vec<Key> = Vec::with_capacity(keys.len());
    for key in keys {
        if !out.contains(key) {
            out.push(key.clone());
        }
    }
    out
}

impl RequestDriver for LargeDriver {
    fn name(&self) -> &str {
        "AFT (GetAll + tagged Puts)"
    }

    fn execute(&self, plan: &TransactionPlan) -> AftResult<AnomalyFlags> {
        let function = plan.functions.first().ok_or_else(|| {
            AftError::FunctionFailed("the large workload needs one function".to_owned())
        })?;
        let reads = function.reads.clone();
        let writes = dedup(&function.writes);
        let payload = self.payload.clone();
        let composition = Composition::new("large-request").then(move |ctx: &mut Ctx, _info| {
            let txid = ctx
                .txid
                .ok_or_else(|| AftError::Unavailable("transaction was not started".to_owned()))?;
            let values = ctx.api.get_all(&txid, &reads)?;
            let mut seen = Vec::with_capacity(reads.len());
            for (key, value) in reads.iter().zip(values) {
                let value = value.ok_or_else(|| AftError::KeyNotFound(key.clone()))?;
                let tagged = decode_tagged_value(&value)?;
                if tagged.payload.len() != payload.len() {
                    return Err(AftError::Codec(format!(
                        "{key} holds {} payload bytes",
                        tagged.payload.len()
                    )));
                }
                seen.push((key.clone(), tagged.tid.uuid));
            }
            for key in &writes {
                let tagged = TaggedValue::new(txid, writes.clone(), payload.clone());
                ctx.api
                    .put(&txid, key.clone(), encode_tagged_value(&tagged))?;
            }
            let outcome = ctx.api.commit(&txid, &[])?;
            ctx.committed = true;
            ctx.done = Some(Observation {
                uuid: txid.uuid,
                final_id: outcome.final_id,
                writes: writes.clone(),
                reads: seen,
            });
            Ok(())
        });

        let api = Arc::clone(&self.api);
        let (ctx, outcome) = self.platform.run_request(
            &composition,
            move |_attempt| Ctx {
                txid: api.begin().ok(),
                api: Arc::clone(&api),
                committed: false,
                done: None,
            },
            &self.retry,
        );
        match ctx.and_then(|mut ctx| ctx.done.take()) {
            Some(observation) => {
                self.log.lock().expect("log lock").push(observation);
                // Judged after the run, by `analyze_from`.
                Ok(AnomalyFlags::CLEAN)
            }
            None => Err(outcome
                .error
                .unwrap_or_else(|| AftError::FunctionFailed("request failed".to_owned()))),
        }
    }

    fn preload(&self, keys: &[Key], _value_size: usize) -> AftResult<()> {
        aft_core::api::preload_keys(&self.api, keys, |key| self.preload_value(key))
    }
}
