//! Property-based tests for the binary codec, identifier ordering, the
//! write set, and the storage keys built without `fmt`.
//!
//! A commit record has two forms: the keyed one the commit set stores,
//! decoded with its storage key, and the id-carrying one dissemination's
//! byte model prices. Records come with short keys and small write sets, and also with
//! keys of 128–300 bytes and write sets of 128 keys or more, so that a
//! keyed record's varints take several bytes.

use std::collections::BTreeSet;

use aft_types::codec::{
    decode_commit_record, decode_keyed_commit_record, decode_tagged_value, encode_commit_record,
    encode_inline_commit_record, encode_keyed_commit_record, encode_tagged_value,
    encoded_commit_record_len, encoded_inline_commit_record_len, encoded_keyed_commit_record_len,
    inline_values,
};
use aft_types::{
    Key, KeyVersion, TaggedValue, TransactionId, TransactionRecord, Uuid, Value, WriteSet,
};
use proptest::prelude::*;

fn arb_tid() -> impl Strategy<Value = TransactionId> {
    (any::<u64>(), any::<u128>())
        .prop_map(|(ts, uuid)| TransactionId::new(ts, Uuid::from_u128(uuid)))
}

fn arb_key() -> impl Strategy<Value = Key> {
    // Keys may contain separators and unicode; the codec and storage-key
    // parsing must survive both.
    "[a-zA-Z0-9_/:.-]{1,32}".prop_map(Key::from)
}

fn arb_record() -> impl Strategy<Value = TransactionRecord> {
    let long_keys =
        proptest::collection::vec("[a-zA-Z0-9_/:.-]{128,300}".prop_map(Key::from), 1..4);
    // Numbered, so that no two of the 128 or more keys are the same; short,
    // so that checking every prefix of the record stays quick.
    let many_keys = proptest::collection::vec("[a-z/]{0,3}", 128..160).prop_map(|keys| {
        keys.iter()
            .enumerate()
            .map(|(i, key)| Key::new(format!("{i:03}{key}")))
            .collect()
    });
    let keys = prop_oneof![
        6 => proptest::collection::vec(arb_key(), 0..16),
        1 => long_keys,
        1 => many_keys,
    ];
    (arb_tid(), keys).prop_map(|(id, keys)| TransactionRecord::new(id, keys))
}

/// Decodes a keyed blob under the storage key of `record`.
fn decode_keyed(
    record: &TransactionRecord,
    bytes: &[u8],
) -> aft_types::AftResult<TransactionRecord> {
    decode_keyed_commit_record(&record.storage_key(), bytes)
}

/// `v` as unsigned LEB128, written out independently of the codec.
fn leb128(mut v: usize) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let low = (v % 128) as u8;
        v /= 128;
        if v == 0 {
            out.push(low);
            return out;
        }
        out.push(low + 128);
    }
}

fn arb_tagged_value() -> impl Strategy<Value = TaggedValue> {
    (
        arb_tid(),
        proptest::collection::vec(arb_key(), 0..8),
        proptest::collection::vec(any::<u8>(), 0..2048),
    )
        .prop_map(|(tid, cowritten, payload)| {
            TaggedValue::new(tid, cowritten, Value::from(payload))
        })
}

proptest! {
    #[test]
    fn an_inline_record_round_trips_its_keys_and_its_values(
        record in arb_record(),
        sizes in proptest::collection::vec(0usize..300, 160),
    ) {
        let values: Vec<Value> = sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| Value::from(vec![i as u8; size]))
            .collect();
        let writes: Vec<(&Key, &Value)> = record.write_set.iter().zip(&values).collect();
        let blob = encode_inline_commit_record(writes.iter().copied());
        prop_assert_eq!(encoded_inline_commit_record_len(writes.iter().copied()), blob.len());
        let decoded = decode_keyed(&record, &blob).unwrap();
        prop_assert!(decoded.inline);
        prop_assert_eq!(&decoded.write_set, &record.write_set);
        let sliced: Vec<(Key, Value)> = inline_values(&blob)
            .unwrap()
            .map(|entry| entry.map(|(key, value)| (Key::new(key), value)))
            .collect::<aft_types::AftResult<_>>()
            .unwrap();
        let written: Vec<(Key, Value)> =
            writes.iter().map(|&(key, value)| (key.clone(), value.clone())).collect();
        prop_assert_eq!(sliced, written);
        // A torn blob decodes as neither form.
        for cut in [blob.len() / 2, blob.len() - 1] {
            prop_assert!(decode_keyed(&record, &blob[..cut]).is_err());
        }
    }

    #[test]
    fn commit_record_codec_round_trips(record in arb_record()) {
        let decoded = decode_keyed(&record, &encode_keyed_commit_record(&record)).unwrap();
        prop_assert_eq!(&decoded, &record);
        let decoded = decode_commit_record(&encode_commit_record(&record)).unwrap();
        prop_assert_eq!(decoded, record);
    }

    #[test]
    fn the_encoded_length_is_the_encodings_length(record in arb_record()) {
        prop_assert_eq!(
            encoded_keyed_commit_record_len(&record),
            encode_keyed_commit_record(&record).len()
        );
        prop_assert_eq!(encoded_commit_record_len(&record), encode_commit_record(&record).len());
    }

    #[test]
    fn an_older_builds_record_decodes_only_under_its_own_key(
        record in arb_record(),
        other in arb_tid(),
    ) {
        prop_assume!(other != record.id);
        let v1 = encode_commit_record(&record);
        prop_assert_eq!(decode_keyed(&record, &v1).unwrap(), record);
        let elsewhere = TransactionRecord::storage_key_for(&other);
        prop_assert!(decode_keyed_commit_record(&elsewhere, &v1).is_err());
        // A keyed blob has no id of its own: any commit key names it.
        let keyed = encode_keyed_commit_record(&record);
        prop_assert_eq!(decode_keyed_commit_record(&elsewhere, &keyed).unwrap().id, other);
    }

    #[test]
    fn a_trailing_byte_is_rejected(record in arb_record(), byte in any::<u8>()) {
        for encoded in [encode_keyed_commit_record(&record), encode_commit_record(&record)] {
            let mut raw = encoded.to_vec();
            raw.push(byte);
            prop_assert!(decode_keyed(&record, &raw).is_err());
        }
    }

    #[test]
    fn a_varint_longer_than_five_bytes_is_rejected(
        record in arb_record(),
        at in any::<prop::sample::Index>(),
        pad in 6usize..12,
    ) {
        // Re-encode one varint — the key count, or one key's length — as
        // `pad` bytes: its own groups, continued by zero groups. A decoder
        // that did not stop at five bytes would read the same value.
        let which = at.index(record.write_set.len() + 1);
        let varint = |i: usize, v: usize| {
            let mut bytes = leb128(v);
            if i == which {
                *bytes.last_mut().unwrap() |= 0x80;
                bytes.resize(pad - 1, 0x80);
                bytes.push(0);
            }
            bytes
        };
        let mut raw = vec![2, 1];
        raw.extend(varint(0, record.write_set.len()));
        for (i, key) in record.write_set.iter().enumerate() {
            raw.extend(varint(i + 1, key.len()));
            raw.extend(key.as_str().as_bytes());
        }
        prop_assert!(decode_keyed(&record, &raw).is_err());
    }

    #[test]
    fn storage_keys_are_the_format_forms(key in arb_key(), id in arb_tid()) {
        prop_assert_eq!(
            KeyVersion::new(key.clone(), id).storage_key(),
            format!("data/{key}/{:032x}", id.uuid.as_u128())
        );
        let suffix = format!("{:020}_{:032x}", id.timestamp, id.uuid.as_u128());
        prop_assert_eq!(id.storage_suffix(), suffix.clone());
        prop_assert_eq!(TransactionRecord::storage_key_for(&id), format!("commit/{suffix}"));
        prop_assert_eq!(id.uuid.to_string(), format!("{:032x}", id.uuid.as_u128()));
        prop_assert_eq!(
            TransactionRecord::storage_floor_key(id.timestamp),
            format!("commit/{:020}", id.timestamp)
        );
    }

    #[test]
    fn tagged_value_codec_round_trips(tv in arb_tagged_value()) {
        let decoded = decode_tagged_value(&encode_tagged_value(&tv)).unwrap();
        prop_assert_eq!(decoded, tv);
    }

    #[test]
    fn commit_record_decode_never_panics_on_corruption(
        record in arb_record(),
        flips in proptest::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8)
    ) {
        for encoded in [encode_keyed_commit_record(&record), encode_commit_record(&record)] {
            let mut raw = encoded.to_vec();
            for (idx, byte) in &flips {
                let i = idx.index(raw.len());
                raw[i] ^= byte;
            }
            // Corrupted input must either fail cleanly or decode to *some*
            // record; it must never panic.
            let _ = decode_keyed(&record, &raw);
            let _ = decode_commit_record(&raw);
        }
    }

    #[test]
    fn truncated_commit_records_are_rejected(record in arb_record()) {
        for encoded in [encode_keyed_commit_record(&record), encode_commit_record(&record)] {
            for cut in 0..encoded.len() {
                prop_assert!(
                    decode_keyed(&record, &encoded[..cut]).is_err(),
                    "a {}-byte prefix must not decode", cut
                );
            }
        }
    }

    #[test]
    fn truncated_tagged_values_are_rejected(tv in arb_tagged_value()) {
        let encoded = encode_tagged_value(&tv);
        for cut in 0..encoded.len() {
            prop_assert!(decode_tagged_value(&encoded[..cut]).is_err());
        }
    }

    #[test]
    fn bad_record_versions_are_rejected(record in arb_record(), version in any::<u8>()) {
        prop_assume!(version != 1 && version != 2);
        let mut raw = encode_keyed_commit_record(&record).to_vec();
        raw[0] = version;
        prop_assert!(decode_keyed(&record, &raw).is_err());
        let mut raw = encode_commit_record(&record).to_vec();
        raw[0] = version;
        prop_assert!(decode_commit_record(&raw).is_err());
        prop_assert!(decode_keyed(&record, &raw).is_err());
    }

    #[test]
    fn bad_tagged_value_versions_are_rejected(tv in arb_tagged_value(), version in any::<u8>()) {
        prop_assume!(version != 1);
        let mut raw = encode_tagged_value(&tv).to_vec();
        raw[0] = version;
        prop_assert!(decode_tagged_value(&raw).is_err());
    }

    #[test]
    fn transaction_id_order_matches_storage_suffix_order(a in arb_tid(), b in arb_tid()) {
        let (sa, sb) = (a.storage_suffix(), b.storage_suffix());
        prop_assert_eq!(a.cmp(&b), sa.cmp(&sb));
    }

    #[test]
    fn transaction_id_storage_suffix_round_trips(id in arb_tid()) {
        prop_assert_eq!(TransactionId::from_storage_suffix(&id.storage_suffix()).unwrap(), id);
    }

    #[test]
    fn write_set_behaves_like_an_ordered_set(
        id in arb_tid(),
        // Few distinct keys, so a list repeats some of them.
        keys in proptest::collection::vec("[a-e]{1,2}".prop_map(Key::from), 0..24),
        probe in "[a-f]{1,2}".prop_map(Key::from),
    ) {
        let oracle: BTreeSet<Key> = keys.iter().cloned().collect();
        let set: WriteSet = keys.iter().cloned().collect();
        prop_assert!(set.iter().eq(oracle.iter()));
        prop_assert!((&set).into_iter().eq(&oracle));
        prop_assert_eq!(set.len(), oracle.len());
        prop_assert_eq!(set.is_empty(), oracle.is_empty());
        for key in &keys {
            prop_assert!(set.contains(key));
        }
        prop_assert_eq!(set.contains(&probe), oracle.contains(&probe));

        // The keyed record's bytes: the header, then the keys as a counted
        // list of length-prefixed strings in the oracle's order, every
        // count and length a varint. The id-carrying form puts the id after
        // the header and writes each count and length as four bytes.
        let mut keyed = vec![2, 1];
        keyed.extend(leb128(oracle.len()));
        let mut v1 = encode_commit_record(&TransactionRecord::new(id, [])).to_vec();
        v1.truncate(v1.len() - 4);
        v1.extend((oracle.len() as u32).to_le_bytes());
        for key in &oracle {
            keyed.extend(leb128(key.len()));
            keyed.extend(key.as_str().as_bytes());
            v1.extend((key.len() as u32).to_le_bytes());
            v1.extend(key.as_str().as_bytes());
        }
        let record = TransactionRecord::new(id, keys);
        prop_assert_eq!(encode_keyed_commit_record(&record).to_vec(), keyed.clone());
        prop_assert_eq!(encode_commit_record(&record).to_vec(), v1);
        prop_assert!(set.iter().eq(decode_keyed(&record, &keyed).unwrap().write_set.iter()));
    }

    #[test]
    fn key_version_storage_key_round_trips(key in arb_key(), id in arb_tid()) {
        let kv = aft_types::KeyVersion::new(key.clone(), id);
        let (parsed_key, parsed_uuid) = aft_types::KeyVersion::parse_storage_key(&kv.storage_key()).unwrap();
        prop_assert_eq!(parsed_key, key);
        prop_assert_eq!(parsed_uuid, id.uuid);
    }
}
