//! Length-prefixed framing: `[u32 LE payload length][payload]`.
//!
//! A frame always leaves in one buffer, so it costs one write syscall and,
//! under `TCP_NODELAY`, one segment: [`request_frame`] and
//! `response_frame` encode a message straight into a buffer whose first
//! four bytes are reserved for the prefix, and [`write_frame`] assembles an
//! already-encoded payload the same way. The blocking [`read_frame`] works
//! over any `Read`; `read_frame_into` reads into a reused buffer (the
//! client SDK's, behind a `BufReader`). The
//! event-driven server instead feeds whatever bytes the socket had into a
//! [`FrameDecoder`], which accumulates partial frames across arbitrarily
//! split arrivals. In both shapes the payload length is capped at
//! [`MAX_FRAME_LEN`] *before* allocating: a corrupted or hostile prefix must
//! fail the connection, not the process.

use std::io::{self, Read, Write};

use aft_types::wire::{
    encode_request_into, encode_response_into, WireRequest, WireResponse, MAX_FRAME_LEN,
};

fn oversized(len: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("frame of {len} bytes exceeds MAX_FRAME_LEN"),
    )
}

/// Assembles one wire frame (`[u32 LE len][payload]`) into a single buffer,
/// reusing `buf`'s allocation.
pub fn frame_into(buf: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(oversized(payload.len()));
    }
    buf.clear();
    buf.reserve(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(())
}

/// Encodes a request as one wire frame into `buf`, reusing its allocation.
pub fn request_frame(buf: &mut Vec<u8>, request_id: u64, request: &WireRequest) -> io::Result<()> {
    framed(buf, |buf| encode_request_into(buf, request_id, request))
}

/// Encodes a response as one wire frame into `buf`, reusing its
/// allocation: the payload is encoded once, in place, and never copied.
pub(crate) fn response_frame(
    buf: &mut Vec<u8>,
    request_id: u64,
    response: &WireResponse,
) -> io::Result<()> {
    framed(buf, |buf| encode_response_into(buf, request_id, response))
}

/// Clears `buf`, reserves the four prefix bytes, lets `encode` append the
/// payload, then patches the prefix in. An oversized payload leaves `buf`
/// empty.
fn framed(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    buf.clear();
    buf.extend_from_slice(&[0; 4]);
    encode(buf);
    let len = buf.len() - 4;
    if len > MAX_FRAME_LEN {
        buf.clear();
        return Err(oversized(len));
    }
    buf[..4].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Incremental frame decoder: push raw socket bytes in with [`push`], pull
/// complete payloads out with [`next_frame`]. Bytes may arrive split at any
/// boundary — one byte at a time, mid-length-prefix, several frames at once —
/// and the decoder never blocks, never loses framing, and never allocates a
/// payload before the length prefix passed the `MAX_FRAME_LEN` cap.
///
/// [`push`]: FrameDecoder::push
/// [`next_frame`]: FrameDecoder::next_frame
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Accumulated bytes; `buf[start..]` is the undecoded tail.
    buf: Vec<u8>,
    /// Offset of the first undecoded byte (consumed prefix is compacted
    /// away lazily rather than on every frame).
    start: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends freshly read socket bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: once the consumed prefix dominates the
        // buffer, shift the live tail down so the allocation stays
        // proportional to *pending* bytes, not total bytes ever pushed.
        if self.start > 0 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete payload, `Ok(None)` if more bytes are needed.
    ///
    /// An oversized length prefix is an error: framing is unrecoverable and
    /// the connection must die.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let avail = self.buf.len() - self.start;
        if avail < 4 {
            return Ok(None);
        }
        let mut len_buf = [0u8; 4];
        len_buf.copy_from_slice(&self.buf[self.start..self.start + 4]);
        let len = u32::from_le_bytes(len_buf) as usize;
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("incoming frame length {len} exceeds MAX_FRAME_LEN"),
            ));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[self.start + 4..self.start + 4 + len].to_vec();
        self.start += 4 + len;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(payload))
    }

    /// Whether undecoded bytes are pending. After [`next_frame`] has
    /// returned `Ok(None)`, a `true` here means the peer stopped mid-frame —
    /// the signal that an EOF is a truncation, not a clean close.
    ///
    /// [`next_frame`]: FrameDecoder::next_frame
    pub fn has_partial(&self) -> bool {
        self.buf.len() > self.start
    }

    /// Undecoded bytes currently buffered.
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Bytes of buffer the decoder holds, pending or not.
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Releases oversized capacity once the buffer is empty, so one burst of
    /// large frames does not pin that high-water allocation for the rest of
    /// the connection's life. No-op while bytes are pending.
    pub fn shed(&mut self, keep_capacity: usize) {
        if self.buf.is_empty() && self.buf.capacity() > keep_capacity {
            self.buf.shrink_to(keep_capacity);
        }
    }
}

/// Writes one frame, prefix and payload in one buffer, and flushes it.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::new();
    frame_into(&mut frame, payload)?;
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame.
///
/// Returns `Ok(None)` on a clean end of stream (the peer closed between
/// frames); mid-frame truncation is an error, because it means a message was
/// cut in half.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.then_some(payload))
}

/// Reads one frame's payload into `payload`, reusing its allocation:
/// `Ok(false)` on a clean end of stream, as [`read_frame`]'s `None`.
pub(crate) fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<bool> {
    payload.clear();
    let mut len_buf = [0u8; 4];
    // Distinguish "closed between frames" from "closed mid-frame": read the
    // first length byte by hand.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(false),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    len_buf[0] = first[0];
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("incoming frame length {len} exceeds MAX_FRAME_LEN"),
        ));
    }
    payload.resize(len, 0);
    r.read_exact(payload)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"third frame").unwrap();

        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"first");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"third frame");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn mid_frame_truncation_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        for cut in 1..buf.len() {
            let mut cursor = Cursor::new(&buf[..cut]);
            assert!(
                read_frame(&mut cursor).is_err(),
                "a frame cut at byte {cut} must error"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut buf = (u32::MAX).to_le_bytes().to_vec();
        buf.extend_from_slice(b"junk");
        let mut cursor = Cursor::new(buf);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_payload_is_refused_on_write() {
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        let mut out = Vec::new();
        assert!(write_frame(&mut out, &huge).is_err());
        assert!(out.is_empty(), "nothing partial was written");
    }

    #[test]
    fn decoder_reassembles_frames_split_at_every_boundary() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"third frame").unwrap();

        for chunk in 1..=wire.len() {
            let mut decoder = FrameDecoder::new();
            let mut frames = Vec::new();
            for piece in wire.chunks(chunk) {
                decoder.push(piece);
                while let Some(frame) = decoder.next_frame().unwrap() {
                    frames.push(frame);
                }
            }
            assert_eq!(
                frames,
                vec![b"first".to_vec(), Vec::new(), b"third frame".to_vec()],
                "chunk size {chunk}"
            );
            assert!(!decoder.has_partial());
        }
    }

    #[test]
    fn decoder_reports_partial_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        let mut decoder = FrameDecoder::new();
        decoder.push(&wire[..wire.len() - 1]);
        assert!(decoder.next_frame().unwrap().is_none());
        assert!(decoder.has_partial(), "mid-frame bytes are pending");
        decoder.push(&wire[wire.len() - 1..]);
        assert_eq!(decoder.next_frame().unwrap().unwrap(), b"payload");
        assert!(!decoder.has_partial());
    }

    #[test]
    fn decoder_rejects_oversized_length_prefix_before_allocating() {
        let mut decoder = FrameDecoder::new();
        decoder.push(&u32::MAX.to_le_bytes());
        let err = decoder.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn decoder_compacts_and_sheds_capacity() {
        let mut wire = Vec::new();
        let big = vec![0xA5u8; 512 * 1024];
        write_frame(&mut wire, &big).unwrap();
        let mut decoder = FrameDecoder::new();
        decoder.push(&wire);
        assert_eq!(decoder.next_frame().unwrap().unwrap().len(), big.len());
        decoder.shed(16 * 1024);
        assert!(decoder.buf.capacity() <= 16 * 1024, "capacity was shed");
        // Still decodes after shedding.
        let mut small = Vec::new();
        write_frame(&mut small, b"after").unwrap();
        decoder.push(&small);
        assert_eq!(decoder.next_frame().unwrap().unwrap(), b"after");
    }

    #[test]
    fn a_frame_is_written_with_one_write_call() {
        struct Counting(Vec<usize>);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting(Vec::new());
        write_frame(&mut w, b"payload").unwrap();
        assert_eq!(w.0, [4 + 7], "prefix and payload leave together");
    }

    #[test]
    fn encoding_into_a_frame_matches_framing_an_encoded_payload() {
        use aft_types::wire::{encode_request, encode_response};
        let mut framed = vec![0xFFu8; 9]; // stale content is cleared
        let mut expected = Vec::new();
        request_frame(&mut framed, 3, &WireRequest::Ping).unwrap();
        frame_into(&mut expected, &encode_request(3, &WireRequest::Ping)).unwrap();
        assert_eq!(framed, expected);
        response_frame(&mut framed, 4, &WireResponse::Aborted).unwrap();
        frame_into(&mut expected, &encode_response(4, &WireResponse::Aborted)).unwrap();
        assert_eq!(framed, expected);
    }

    #[test]
    fn frame_into_matches_write_frame_bytes() {
        let mut via_writer = Vec::new();
        write_frame(&mut via_writer, b"hello").unwrap();
        let mut via_buf = vec![0xFFu8; 3]; // stale content is cleared
        frame_into(&mut via_buf, b"hello").unwrap();
        assert_eq!(via_buf, via_writer);
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(frame_into(&mut via_buf, &huge).is_err());
    }
}
