//! Values and metadata-tagged values.
//!
//! AFT treats client values as opaque byte strings. The evaluation's baseline
//! configurations ("Plain" in Figure 3 / Table 2) detect consistency anomalies
//! by embedding the same metadata AFT keeps — a transaction ID and a cowritten
//! key set — directly inside the stored value (§6.1.2, "about an extra 70
//! bytes on top of the 4KB payload"). [`TaggedValue`] is that representation.

use bytes::Bytes;

use crate::key::Key;
use crate::txid::TransactionId;

/// An opaque client value.
///
/// Backed by [`Bytes`] so that the write buffer, data cache, and storage
/// engines can share payloads without copying.
pub type Value = Bytes;

/// A value with the provenance metadata the Plain baselines embed in storage.
///
/// When functions write directly to S3/DynamoDB/Redis without AFT, the
/// workload driver wraps each payload in a `TaggedValue` so that a later read
/// can tell *which transaction* produced the bytes it observed and what else
/// that transaction wrote. The anomaly detectors in `aft-workload` use this to
/// count read-your-writes and fractured-read violations exactly as the paper
/// does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaggedValue {
    /// The transaction that wrote this value.
    pub tid: TransactionId,
    /// All keys written by that transaction (the cowritten set).
    pub cowritten: Vec<Key>,
    /// The actual client payload.
    pub payload: Value,
}

impl TaggedValue {
    /// Creates a tagged value.
    pub fn new(tid: TransactionId, cowritten: Vec<Key>, payload: Value) -> Self {
        TaggedValue {
            tid,
            cowritten,
            payload,
        }
    }
}

/// One period of the payload pattern: byte `i` of a payload is `i % 251`.
static PAYLOAD_PERIOD: [u8; 251] = {
    let mut period = [0u8; 251];
    let mut i = 0;
    while i < period.len() {
        period[i] = i as u8;
        i += 1;
    }
    period
};

/// Convenience constructor for a payload of `size` bytes filled with a
/// repeating pattern, used throughout the workload generators (the paper uses
/// 4 KB objects). Every call is a fresh allocation, so payloads written under
/// different keys never share a buffer in storage or in a cache; the bytes
/// are copied from one period of the pattern rather than computed one by one.
pub fn payload_of_size(size: usize) -> Value {
    let mut buf = Vec::with_capacity(size);
    while buf.len() < size {
        let take = (size - buf.len()).min(PAYLOAD_PERIOD.len());
        buf.extend_from_slice(&PAYLOAD_PERIOD[..take]);
    }
    Bytes::from(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_has_requested_size() {
        assert_eq!(payload_of_size(0).len(), 0);
        assert_eq!(payload_of_size(4096).len(), 4096);
    }

    #[test]
    fn payload_byte_i_is_i_mod_251_and_every_call_allocates() {
        for size in [1, 250, 251, 252, 502, 1024, 4096] {
            let payload = payload_of_size(size);
            assert_eq!(payload.len(), size);
            assert!(
                payload
                    .iter()
                    .enumerate()
                    .all(|(i, &b)| b == (i % 251) as u8),
                "size {size}"
            );
        }
        let (a, b) = (payload_of_size(64), payload_of_size(64));
        assert_ne!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn values_share_storage_on_clone() {
        let v = payload_of_size(1024);
        let v2 = v.clone();
        assert_eq!(v.as_ptr(), v2.as_ptr(), "Bytes clones share the buffer");
    }
}
