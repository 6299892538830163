//! Every place a [`TransactionId`] leaves the process, pinned byte for byte.
//!
//! How an id is held in memory is free to change; what a store or a peer
//! sees of it is not — a node must bootstrap from what an earlier
//! build wrote. The expected strings below were produced by the build that
//! still stored a `Uuid` as one `u128`. Pinned here:
//!
//! * the id's text forms: its display, its storage suffix, and the data and
//!   commit-set keys built from it;
//! * the commit-set blob. It is the keyed form: a header, a varint key count
//!   and varint-prefixed keys, with no id, because its key names the
//!   transaction. Until commit 58f320d it was the id-carrying form, which
//!   repeated the id and framed every length in four bytes. That older hex
//!   stays pinned as what such a build left in a store: the keyed decode
//!   must still read it under its own key, and under no other;
//! * the id-carrying form on its own, as dissemination's byte model prices
//!   it;
//! * a `Commit` request frame on the wire.

use aft_types::codec::{
    decode_keyed_commit_record, encode_commit_record, encode_keyed_commit_record,
};
use aft_types::wire::encode_request;
use aft_types::{Key, KeyVersion, TransactionId, TransactionRecord, Uuid, Value, WireRequest};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(u8::is_ascii_hexdigit).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

#[test]
fn a_seeded_id_is_written_as_it_always_was() {
    let mut rng = StdRng::seed_from_u64(20_261_004);
    let id = TransactionId::new(1_700_000_000_123, Uuid::from_rng(&mut rng));
    let read = TransactionId::new(1_699_999_999_000, Uuid::from_rng(&mut rng));
    let record = TransactionRecord::new(id, [Key::new("cart/7"), Key::new("user/42")]);

    // The seeded draw itself: both halves, in the order the RNG gives them.
    assert_eq!(id.uuid.as_u128(), 0x4144_df47_9849_a9d0_ebd1_ff00_9878_7fb4);
    assert_eq!(
        read.uuid.as_u128(),
        0x41b3_d562_9e73_d690_10a1_d856_6030_c440
    );

    assert_eq!(
        id.to_string(),
        "4144df479849a9d0ebd1ff0098787fb4@1700000000123"
    );
    assert_eq!(
        id.storage_suffix(),
        "00000001700000000123_4144df479849a9d0ebd1ff0098787fb4"
    );
    assert_eq!(
        KeyVersion::new("cart/7", id).storage_key(),
        "data/cart/7/4144df479849a9d0ebd1ff0098787fb4"
    );
    assert_eq!(
        record.storage_key(),
        "commit/00000001700000000123_4144df479849a9d0ebd1ff0098787fb4"
    );
    assert_eq!(
        hex(&encode_keyed_commit_record(&record)),
        "02010206636172742f3707757365722f3432"
    );
    let older_build = "01017b68e5cf8b010000b47f789800ffd1ebd0a9499847df4441\
                       0200000006000000636172742f3707000000757365722f3432";
    assert_eq!(hex(&encode_commit_record(&record)), older_build);
    let stored = unhex(older_build);
    assert_eq!(
        decode_keyed_commit_record(&record.storage_key(), &stored).unwrap(),
        record
    );
    let elsewhere = TransactionRecord::storage_key_for(&read);
    assert!(decode_keyed_commit_record(&elsewhere, &stored).is_err());

    let frame = encode_request(
        9,
        &WireRequest::Commit {
            txid: id,
            writes: vec![(Key::new("cart/7"), Value::from_static(b"3 items"))],
            reads: vec![(Key::new("user/42"), read)],
        },
    );
    assert_eq!(
        hex(&frame),
        "010509000000000000007b68e5cf8b010000b47f789800ffd1ebd0a9499847df4441\
         0100000006000000636172742f370700000033206974656d73\
         0100000007000000757365722f34321864e5cf8b01000040c4306056d8a11090d6739e62d5b341"
    );
}
