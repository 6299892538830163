//! A small, dependency-free binary codec.
//!
//! AFT only requires the storage engine to provide durability for opaque
//! blobs (§3.1), so everything the shim persists — commit records in the
//! Transaction Commit Set and the metadata-tagged values used by the Plain
//! baselines — is serialised by this module into little-endian byte
//! strings. The format is deliberately simple and versioned so that the
//! property tests can round-trip arbitrary records.
//!
//! A commit record has two forms, each with its own length function:
//!
//! * **Keyed (version 2)**, [`encode_keyed_commit_record`]:
//!   `[2][0x01][LEB128 key count]([LEB128 len][key bytes])*`. It carries no
//!   id, because its storage key `commit/{ts:020}_{uuid}` names it. Every
//!   blob in the Transaction Commit Set is written in this form, and
//!   [`decode_keyed_commit_record`] reads the id back out of that key. A
//!   two-key commit of 12-byte keys is 29 bytes.
//! * **Id-carrying (version 1)**, [`encode_commit_record`]:
//!   `[1][0x01][ts u64][uuid u128][u32 key count]([u32 len][key bytes])*`.
//!   It stays where no key names the record: inside checkpoint chunks,
//!   and as dissemination's byte model ([`encoded_commit_record_len`]).
//!   The keyed decode still accepts a version-1 blob that an older build
//!   wrote to the commit set, but only if the id inside it is its key's.

use bytes::{BufMut, Bytes};

use crate::error::{AftError, AftResult};
use crate::key::Key;
use crate::record::TransactionRecord;
use crate::txid::TransactionId;
use crate::uuid::Uuid;
use crate::value::TaggedValue;

/// Format version written as the first byte of every id-carrying structure.
const CODEC_VERSION: u8 = 1;

/// Format version of a keyed commit record: no id, LEB128 lengths.
const KEYED_VERSION: u8 = 2;

/// The most bytes a LEB128 `u32` takes: seven bits a byte.
const MAX_VARINT_LEN: usize = 5;

/// Tag byte identifying an encoded [`TransactionRecord`].
const TAG_COMMIT_RECORD: u8 = 0x01;
/// Tag byte identifying an encoded [`TaggedValue`].
const TAG_TAGGED_VALUE: u8 = 0x02;

/// Incremental writer producing the codec's wire format.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Creates a writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// A writer that appends after `buf`'s current contents (a reserved
    /// frame header, say), keeping its allocation.
    pub fn appending(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    /// Reserves room for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Appends a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Appends a little-endian u128.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.put_u128_le(v);
    }

    /// Appends `v` as an unsigned LEB128 varint: seven bits a byte, low
    /// bits first, the high bit set on every byte but the last.
    pub(crate) fn put_varint(&mut self, mut v: u32) {
        while v >= 0x80 {
            self.buf.put_u8(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.put_u8(v as u8);
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.put_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Appends a transaction ID (timestamp then uuid).
    pub fn put_tid(&mut self, id: &TransactionId) {
        self.put_u64(id.timestamp);
        self.put_u128(id.uuid.as_u128());
    }

    /// Finishes the writer and returns the encoded bytes.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Finishes the writer and returns its buffer, including whatever it
    /// was [`appending`](Writer::appending) to.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns true if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Incremental reader for the codec's wire format.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> AftResult<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(AftError::Codec(format!(
                "unexpected end of input: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> AftResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> AftResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("slice is 4 bytes")))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> AftResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("slice is 8 bytes")))
    }

    /// Reads a little-endian u128.
    pub fn get_u128(&mut self) -> AftResult<u128> {
        let b = self.take(16)?;
        Ok(u128::from_le_bytes(
            b.try_into().expect("slice is 16 bytes"),
        ))
    }

    /// Reads an unsigned LEB128 varint written by [`Writer::put_varint`].
    /// Fails on a varint that runs past five bytes or `u32::MAX`, and on
    /// one with a redundant trailing zero byte, so each value has exactly
    /// one encoding.
    pub(crate) fn get_varint(&mut self) -> AftResult<u32> {
        let mut value = 0u64;
        for i in 0..MAX_VARINT_LEN {
            let byte = self.get_u8()?;
            value |= u64::from(byte & 0x7F) << (7 * i);
            if byte & 0x80 == 0 {
                if byte == 0 && i > 0 {
                    return Err(AftError::Codec("overlong varint".into()));
                }
                return u32::try_from(value)
                    .map_err(|_| AftError::Codec(format!("varint {value} overflows u32")));
            }
        }
        Err(AftError::Codec(format!(
            "varint longer than {MAX_VARINT_LEN} bytes"
        )))
    }

    /// Reads a varint-length-prefixed UTF-8 string, without copying it.
    fn get_varint_str(&mut self) -> AftResult<&'a str> {
        let len = self.get_varint()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|e| AftError::Codec(format!("invalid utf-8: {e}")))
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> AftResult<Vec<u8>> {
        let len = self.get_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> AftResult<String> {
        let raw = self.get_bytes()?;
        String::from_utf8(raw).map_err(|e| AftError::Codec(format!("invalid utf-8: {e}")))
    }

    /// Reads a transaction ID.
    pub fn get_tid(&mut self) -> AftResult<TransactionId> {
        let timestamp = self.get_u64()?;
        let uuid = Uuid::from_u128(self.get_u128()?);
        Ok(TransactionId { timestamp, uuid })
    }

    /// Returns the number of bytes that have not been consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte of input has been consumed.
    pub fn expect_end(&self) -> AftResult<()> {
        if self.remaining() != 0 {
            return Err(AftError::Codec(format!(
                "{} trailing bytes after decoded value",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn check_header(reader: &mut Reader<'_>, expected_tag: u8) -> AftResult<()> {
    let version = reader.get_u8()?;
    if version != CODEC_VERSION {
        return Err(AftError::Codec(format!(
            "unsupported codec version {version}, expected {CODEC_VERSION}"
        )));
    }
    check_tag(reader, expected_tag)
}

fn check_tag(reader: &mut Reader<'_>, expected_tag: u8) -> AftResult<()> {
    let tag = reader.get_u8()?;
    if tag != expected_tag {
        return Err(AftError::Codec(format!(
            "unexpected tag {tag:#04x}, expected {expected_tag:#04x}"
        )));
    }
    Ok(())
}

/// The bytes [`Writer::put_varint`] spends on `v`.
fn varint_len(v: u32) -> usize {
    // One byte per started group of seven significant bits; zero takes one.
    (32 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Encodes a commit record in the id-carrying version-1 form, for places
/// no storage key names the record (checkpoint chunks).
pub fn encode_commit_record(record: &TransactionRecord) -> Bytes {
    let mut w = Writer::with_capacity(encoded_commit_record_len(record));
    w.put_u8(CODEC_VERSION);
    w.put_u8(TAG_COMMIT_RECORD);
    w.put_tid(&record.id);
    w.put_u32(record.write_set.len() as u32);
    for key in &record.write_set {
        w.put_str(key.as_str());
    }
    w.finish()
}

/// The length of [`encode_commit_record`]'s output, without encoding: the
/// header, the id, the key count and each length-prefixed key.
pub fn encoded_commit_record_len(record: &TransactionRecord) -> usize {
    let keys: usize = record.write_set.iter().map(|key| 4 + key.len()).sum();
    2 + 8 + 16 + 4 + keys
}

/// Decodes a version-1 commit record produced by [`encode_commit_record`].
pub fn decode_commit_record(bytes: &[u8]) -> AftResult<TransactionRecord> {
    let mut r = Reader::new(bytes);
    check_header(&mut r, TAG_COMMIT_RECORD)?;
    let id = r.get_tid()?;
    let n = r.get_u32()? as usize;
    // The length prefix is untrusted input (it may be corrupted); never
    // pre-allocate from it directly.
    let mut keys = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        keys.push(Key::from(r.get_str()?));
    }
    r.expect_end()?;
    Ok(TransactionRecord::new(id, keys))
}

/// Encodes a commit record in the keyed version-2 form the Transaction
/// Commit Set stores under [`TransactionRecord::storage_key`]: the header,
/// the key count and each key, every length a LEB128 varint, and no id.
pub fn encode_keyed_commit_record(record: &TransactionRecord) -> Bytes {
    let mut w = Writer::with_capacity(encoded_keyed_commit_record_len(record));
    w.put_u8(KEYED_VERSION);
    w.put_u8(TAG_COMMIT_RECORD);
    w.put_varint(record.write_set.len() as u32);
    for key in &record.write_set {
        w.put_varint(key.len() as u32);
        w.buf.put_slice(key.as_str().as_bytes());
    }
    w.finish()
}

/// The length of [`encode_keyed_commit_record`]'s output, without encoding.
pub fn encoded_keyed_commit_record_len(record: &TransactionRecord) -> usize {
    let keys: usize = record
        .write_set
        .iter()
        .map(|key| varint_len(key.len() as u32) + key.len())
        .sum();
    2 + varint_len(record.write_set.len() as u32) + keys
}

/// Decodes the commit-set blob stored under `storage_key`, taking the id
/// from the key ([`TransactionRecord::id_from_storage_key`]). A keyed
/// (version-2) blob has no id of its own. A version-1 blob, as an older
/// build wrote it, is accepted only if the id inside it is the key's: one
/// stored under another transaction's key is as unreadable as a torn one.
pub fn decode_keyed_commit_record(storage_key: &str, bytes: &[u8]) -> AftResult<TransactionRecord> {
    let id = TransactionRecord::id_from_storage_key(storage_key)?;
    if bytes.first() == Some(&CODEC_VERSION) {
        let record = decode_commit_record(bytes)?;
        if record.id != id {
            return Err(AftError::Codec(format!(
                "commit record {} stored under {storage_key:?}",
                record.id
            )));
        }
        return Ok(record);
    }
    let mut r = Reader::new(bytes);
    let version = r.get_u8()?;
    if version != KEYED_VERSION {
        return Err(AftError::Codec(format!(
            "unsupported commit record version {version}, expected {CODEC_VERSION} or {KEYED_VERSION}"
        )));
    }
    check_tag(&mut r, TAG_COMMIT_RECORD)?;
    let n = r.get_varint()? as usize;
    // Untrusted length prefix: each key takes at least one byte.
    let mut keys = Vec::with_capacity(n.min(r.remaining()));
    for _ in 0..n {
        keys.push(Key::from(r.get_varint_str()?));
    }
    r.expect_end()?;
    Ok(TransactionRecord::new(id, keys))
}

/// Encodes a metadata-tagged value (used by the Plain baselines, §6.1.2).
pub fn encode_tagged_value(value: &TaggedValue) -> Bytes {
    let mut w = Writer::with_capacity(64 + value.payload.len());
    w.put_u8(CODEC_VERSION);
    w.put_u8(TAG_TAGGED_VALUE);
    w.put_tid(&value.tid);
    w.put_u32(value.cowritten.len() as u32);
    for key in &value.cowritten {
        w.put_str(key.as_str());
    }
    w.put_bytes(&value.payload);
    w.finish()
}

/// Decodes a tagged value previously produced by [`encode_tagged_value`].
pub fn decode_tagged_value(bytes: &[u8]) -> AftResult<TaggedValue> {
    let mut r = Reader::new(bytes);
    check_header(&mut r, TAG_TAGGED_VALUE)?;
    let tid = r.get_tid()?;
    let n = r.get_u32()? as usize;
    // Untrusted length prefix — see decode_commit_record.
    let mut cowritten = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        cowritten.push(Key::from(r.get_str()?));
    }
    let payload = Bytes::from(r.get_bytes()?);
    r.expect_end()?;
    Ok(TaggedValue {
        tid,
        cowritten,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::payload_of_size;

    fn tid(ts: u64, id: u128) -> TransactionId {
        TransactionId::new(ts, Uuid::from_u128(id))
    }

    fn keyed(record: &TransactionRecord) -> AftResult<TransactionRecord> {
        decode_keyed_commit_record(&record.storage_key(), &encode_keyed_commit_record(record))
    }

    #[test]
    fn commit_record_round_trips() {
        let record = TransactionRecord::new(
            tid(123, 456),
            vec![Key::new("alpha"), Key::new("beta"), Key::new("gamma")],
        );
        assert_eq!(keyed(&record).unwrap(), record);
        let encoded = encode_commit_record(&record);
        assert_eq!(decode_commit_record(&encoded).unwrap(), record);
    }

    #[test]
    fn a_keyed_two_key_record_is_its_header_and_keys() {
        let record = TransactionRecord::new(tid(1, 2), [Key::new("k1"), Key::new("key-2")]);
        assert_eq!(
            encode_keyed_commit_record(&record).as_ref(),
            b"\x02\x01\x02\x02k1\x05key-2"
        );
        assert_eq!(encoded_keyed_commit_record_len(&record), 12);
    }

    #[test]
    fn empty_write_set_round_trips() {
        let record = TransactionRecord::new(tid(1, 1), Vec::<Key>::new());
        assert!(keyed(&record).unwrap().write_set.is_empty());
        let decoded = decode_commit_record(&encode_commit_record(&record)).unwrap();
        assert!(decoded.write_set.is_empty());
    }

    #[test]
    fn a_version_one_blob_decodes_only_under_its_own_key() {
        let record = TransactionRecord::new(tid(7, 8), [Key::new("k")]);
        let v1 = encode_commit_record(&record);
        assert_eq!(
            decode_keyed_commit_record(&record.storage_key(), &v1).unwrap(),
            record
        );
        let other = TransactionRecord::storage_key_for(&tid(7, 9));
        assert!(decode_keyed_commit_record(&other, &v1).is_err());
        assert!(decode_keyed_commit_record("data/k/8", &v1).is_err());
    }

    #[test]
    fn varints_take_seven_bits_a_byte() {
        for (v, len) in [
            (0, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u32::MAX, 5),
        ] {
            let mut w = Writer::new();
            w.put_varint(v);
            assert_eq!((w.len(), varint_len(v)), (len, len), "{v}");
            let bytes = w.finish();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.get_varint().unwrap(), v);
            assert!(r.expect_end().is_ok());
        }
        // Past u32::MAX, past five bytes, and a redundant zero byte.
        for bad in [
            &[0xFF, 0xFF, 0xFF, 0xFF, 0x10][..],
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x00],
            &[0x81, 0x00],
        ] {
            assert!(Reader::new(bad).get_varint().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn tagged_value_round_trips() {
        let tv = TaggedValue::new(
            tid(9, 10),
            vec![Key::new("k"), Key::new("l")],
            payload_of_size(4096),
        );
        let decoded = decode_tagged_value(&encode_tagged_value(&tv)).unwrap();
        assert_eq!(decoded, tv);
    }

    #[test]
    fn decoding_wrong_tag_fails() {
        let record = TransactionRecord::new(tid(1, 2), vec![Key::new("a")]);
        let encoded = encode_commit_record(&record);
        assert!(decode_tagged_value(&encoded).is_err());
        let mut raw = encode_keyed_commit_record(&record).to_vec();
        raw[1] = TAG_TAGGED_VALUE;
        assert!(decode_keyed_commit_record(&record.storage_key(), &raw).is_err());
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let record = TransactionRecord::new(tid(1, 2), vec![Key::new("abcdef")]);
        let key = record.storage_key();
        for encoded in [
            encode_keyed_commit_record(&record),
            encode_commit_record(&record),
        ] {
            for cut in 0..encoded.len() {
                assert!(
                    decode_keyed_commit_record(&key, &encoded[..cut]).is_err(),
                    "decoding a {cut}-byte prefix should fail"
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_fails() {
        let record = TransactionRecord::new(tid(1, 2), vec![Key::new("a")]);
        for encoded in [
            encode_keyed_commit_record(&record),
            encode_commit_record(&record),
        ] {
            let mut raw = encoded.to_vec();
            raw.push(0xFF);
            assert!(decode_keyed_commit_record(&record.storage_key(), &raw).is_err());
        }
    }

    #[test]
    fn unsupported_version_fails() {
        let record = TransactionRecord::new(tid(1, 2), vec![Key::new("a")]);
        let mut raw = encode_keyed_commit_record(&record).to_vec();
        for version in [0, 3, 99] {
            raw[0] = version;
            assert!(decode_keyed_commit_record(&record.storage_key(), &raw).is_err());
        }
        let mut raw = encode_commit_record(&record).to_vec();
        raw[0] = 2;
        assert!(decode_commit_record(&raw).is_err());
    }

    #[test]
    fn reader_primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_u128(u128::MAX / 3);
        w.put_str("hello");
        w.put_bytes(&[1, 2, 3]);
        w.put_varint(300);
        let bytes = w.finish();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.get_str().unwrap(), "hello");
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_varint().unwrap(), 300);
        assert!(r.expect_end().is_ok());
    }
}
