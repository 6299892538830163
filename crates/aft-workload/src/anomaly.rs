//! A request's anomaly flags, and the tagged analyzer that `benchmark/`'s
//! svc-large uses.
//!
//! Table 2 counts two kinds of anomalies:
//!
//! * **Read-Your-Write (RYW) anomalies** — a transaction reads a key it wrote
//!   earlier in the same request and observes someone else's version.
//! * **Fractured Read (FR) anomalies** — the transaction's reads violate the
//!   Atomic Readset definition: it read `k` from transaction `T_i`, also read
//!   a key `l` that `T_i` cowrote, but observed a version of `l` *older* than
//!   `T_i`'s. Repeatable-read violations are counted here too, as in §6.1.2.
//!
//! Every row of Table 2 is graded by [`crate::history`]'s checker, from a
//! client history. [`TaggedObservation`] reads instead a writer tag and
//! cowritten set embedded in each value ([`aft_types::TaggedValue`]);
//! `benchmark/` judges its svc-large transactions with it after a run, and
//! [`AnomalyFlags`] is what [`RequestDriver::execute`] returns.
//!
//! [`RequestDriver::execute`]: crate::RequestDriver::execute

use std::collections::HashSet;

use aft_types::{Key, TaggedValue, TransactionId};

/// Anomalies observed by a single logical request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnomalyFlags {
    /// The request observed a read-your-writes violation.
    pub read_your_writes: bool,
    /// The request observed a fractured (or non-repeatable) read.
    pub fractured_read: bool,
}

impl AnomalyFlags {
    /// No anomalies.
    pub const CLEAN: AnomalyFlags = AnomalyFlags {
        read_your_writes: false,
        fractured_read: false,
    };

    /// Returns true if any anomaly was observed.
    pub fn any(&self) -> bool {
        self.read_your_writes || self.fractured_read
    }
}

/// One event a tagged request observed.
#[derive(Debug, Clone)]
pub(crate) enum TaggedEvent {
    /// The request wrote `key` (tagged with its own ID).
    Write(Key),
    /// The request read `key` and observed the given tagged value (or nothing).
    Read {
        /// The key read.
        key: Key,
        /// The value observed, if the key existed.
        value: Option<TaggedValue>,
    },
}

/// The ordered observations of one tagged request, ready for analysis.
#[derive(Debug, Clone)]
pub struct TaggedObservation {
    /// The ID this request tagged its own writes with.
    pub own_tag: TransactionId,
    /// Events in the order they happened.
    pub(crate) events: Vec<TaggedEvent>,
}

impl TaggedObservation {
    /// Creates an empty observation for a request tagged `own_tag`.
    pub fn new(own_tag: TransactionId) -> Self {
        TaggedObservation {
            own_tag,
            events: Vec::new(),
        }
    }

    /// Records a write of `key`.
    pub fn record_write(&mut self, key: Key) {
        self.events.push(TaggedEvent::Write(key));
    }

    /// Records a read of `key` observing `value`.
    pub fn record_read(&mut self, key: Key, value: Option<TaggedValue>) {
        self.events.push(TaggedEvent::Read { key, value });
    }

    /// Analyses the observation and reports the anomalies it contains.
    pub fn analyze(&self) -> AnomalyFlags {
        let mut flags = AnomalyFlags::CLEAN;
        let mut written: HashSet<&Key> = HashSet::new();
        // Reads of *other* transactions' data seen so far:
        // (key, writer id, writer's cowritten set).
        let mut foreign_reads: Vec<(&Key, TransactionId, &[Key])> = Vec::new();

        for event in &self.events {
            match event {
                TaggedEvent::Write(key) => {
                    written.insert(key);
                }
                TaggedEvent::Read { key, value } => {
                    if written.contains(key) {
                        // Read-your-writes: we must observe our own version.
                        let ours = value
                            .as_ref()
                            .is_some_and(|observed| observed.tid == self.own_tag);
                        if !ours {
                            flags.read_your_writes = true;
                        }
                        continue;
                    }
                    let Some(observed) = value else {
                        continue;
                    };
                    if observed.tid == self.own_tag {
                        // Our own write surfaced through a key we did not
                        // track as written (possible after retries); not an
                        // anomaly.
                        continue;
                    }
                    for (earlier_key, earlier_tid, earlier_cowritten) in &foreign_reads {
                        // Non-repeatable read of the same key.
                        if *earlier_key == key && *earlier_tid != observed.tid {
                            flags.fractured_read = true;
                        }
                        // The earlier read's writer also wrote `key`, but we
                        // now observed an older version of it.
                        if earlier_cowritten.contains(key) && observed.tid < *earlier_tid {
                            flags.fractured_read = true;
                        }
                        // The current read's writer also wrote the earlier
                        // key, and the earlier observation was older.
                        if observed.cowritten.contains(earlier_key) && *earlier_tid < observed.tid {
                            flags.fractured_read = true;
                        }
                    }
                    foreign_reads.push((key, observed.tid, observed.cowritten.as_slice()));
                }
            }
        }
        flags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_types::{Uuid, Value};

    fn tid(ts: u64) -> TransactionId {
        TransactionId::new(ts, Uuid::from_u128(ts as u128))
    }

    fn tagged(ts: u64, cowritten: &[&str]) -> TaggedValue {
        TaggedValue::new(
            tid(ts),
            cowritten.iter().map(Key::new).collect(),
            Value::from_static(b"payload"),
        )
    }

    #[test]
    fn clean_observation_has_no_anomalies() {
        let mut obs = TaggedObservation::new(tid(100));
        obs.record_read(Key::new("k"), Some(tagged(5, &["k", "l"])));
        obs.record_read(Key::new("l"), Some(tagged(5, &["k", "l"])));
        obs.record_write(Key::new("m"));
        let flags = obs.analyze();
        assert_eq!(flags, AnomalyFlags::CLEAN);
        assert!(!flags.any());
    }

    #[test]
    fn reading_someone_elses_version_of_own_write_is_ryw() {
        let mut obs = TaggedObservation::new(tid(100));
        obs.record_write(Key::new("k"));
        obs.record_read(Key::new("k"), Some(tagged(99, &["k"])));
        assert!(obs.analyze().read_your_writes);

        // Observing our own version is fine.
        let mut ok = TaggedObservation::new(tid(100));
        ok.record_write(Key::new("k"));
        ok.record_read(
            Key::new("k"),
            Some(TaggedValue::new(
                tid(100),
                vec![Key::new("k")],
                Value::from_static(b"x"),
            )),
        );
        assert!(!ok.analyze().read_your_writes);
    }

    #[test]
    fn missing_own_write_is_ryw() {
        let mut obs = TaggedObservation::new(tid(100));
        obs.record_write(Key::new("k"));
        obs.record_read(Key::new("k"), None);
        assert!(obs.analyze().read_your_writes);
    }

    #[test]
    fn fractured_read_in_either_order_is_detected() {
        // T5 wrote {k, l}; T3 wrote {l}. Reading k from T5 and l from T3 is
        // fractured regardless of the order of the two reads.
        let mut newer_first = TaggedObservation::new(tid(100));
        newer_first.record_read(Key::new("k"), Some(tagged(5, &["k", "l"])));
        newer_first.record_read(Key::new("l"), Some(tagged(3, &["l"])));
        assert!(newer_first.analyze().fractured_read);

        let mut older_first = TaggedObservation::new(tid(100));
        older_first.record_read(Key::new("l"), Some(tagged(3, &["l"])));
        older_first.record_read(Key::new("k"), Some(tagged(5, &["k", "l"])));
        assert!(older_first.analyze().fractured_read);
    }

    #[test]
    fn newer_version_of_cowritten_key_is_not_fractured() {
        // Reading k from T5 (cowrote l) and l from T8 (newer) is allowed.
        let mut obs = TaggedObservation::new(tid(100));
        obs.record_read(Key::new("k"), Some(tagged(5, &["k", "l"])));
        obs.record_read(Key::new("l"), Some(tagged(8, &["l"])));
        assert!(!obs.analyze().fractured_read);
    }

    #[test]
    fn non_repeatable_read_counts_as_fractured() {
        let mut obs = TaggedObservation::new(tid(100));
        obs.record_read(Key::new("k"), Some(tagged(5, &["k"])));
        obs.record_read(Key::new("k"), Some(tagged(9, &["k"])));
        assert!(obs.analyze().fractured_read);
    }
}
