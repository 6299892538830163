//! Property-based tests of the incremental frame state machine the reactors
//! run on every socket.
//!
//! A readiness-driven server never sees whole frames: the kernel hands it
//! arbitrary byte runs, cut anywhere — mid-length-prefix, mid-payload,
//! several frames at once. [`FrameDecoder`] must reassemble the exact frame
//! sequence under *every* split, reject hostile length prefixes before
//! allocating, and never panic on arbitrary input, because a panic on a
//! reactor thread would take down every connection it owns at once.

use aft_net::frame::{frame_into, FrameDecoder};
use aft_types::wire::MAX_FRAME_LEN;
use proptest::prelude::*;

/// Concatenated wire bytes of `payloads`, each length-prefixed.
fn wire_bytes(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut wire = Vec::new();
    let mut frame = Vec::new();
    for payload in payloads {
        frame_into(&mut frame, payload).expect("payloads stay under MAX_FRAME_LEN");
        wire.extend_from_slice(&frame);
    }
    wire
}

/// Splits `bytes` into runs at the given cut fractions and feeds each run
/// to the decoder, draining completed frames after every push. Returns the
/// frames and whether a partial frame was still pending at the end.
fn decode_in_runs(
    bytes: &[u8],
    cuts: &[prop::sample::Index],
) -> Result<(Vec<Vec<u8>>, bool), std::io::Error> {
    let mut offsets: Vec<usize> = cuts.iter().map(|c| c.index(bytes.len() + 1)).collect();
    offsets.push(0);
    offsets.push(bytes.len());
    offsets.sort_unstable();
    let mut decoder = FrameDecoder::new();
    let mut frames = Vec::new();
    for window in offsets.windows(2) {
        decoder.push(&bytes[window[0]..window[1]]);
        while let Some(frame) = decoder.next_frame()? {
            frames.push(frame);
        }
    }
    Ok((frames, decoder.has_partial()))
}

fn arb_payloads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..300), 0..12)
}

proptest! {
    #[test]
    fn every_split_reassembles_the_exact_frame_sequence(
        payloads in arb_payloads(),
        cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..24),
    ) {
        let wire = wire_bytes(&payloads);
        let (frames, partial) = decode_in_runs(&wire, &cuts).expect("valid frames decode");
        prop_assert_eq!(frames, payloads);
        prop_assert!(!partial, "whole input consumed, nothing may linger");
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        garbage in proptest::collection::vec(any::<u8>(), 0..2048),
        cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..16),
    ) {
        // Arbitrary input either yields frames, waits for more bytes, or
        // errors on a hostile length prefix — it must never panic. After an
        // error the decoder may be in any state, so just stop.
        let _ = decode_in_runs(&garbage, &cuts);
    }

    #[test]
    fn oversized_prefixes_error_under_every_split(
        len in (MAX_FRAME_LEN as u32 + 1..=u32::MAX),
        cut in any::<prop::sample::Index>(),
    ) {
        let prefix = len.to_le_bytes();
        let mut decoder = FrameDecoder::new();
        let at = cut.index(prefix.len() + 1);
        decoder.push(&prefix[..at]);
        if at < prefix.len() {
            prop_assert!(decoder.next_frame().is_ok(), "incomplete prefix pends");
            decoder.push(&prefix[at..]);
        }
        prop_assert!(
            decoder.next_frame().is_err(),
            "a {len}-byte claim must error before allocating"
        );
    }

    #[test]
    fn shedding_between_frames_loses_nothing(
        payloads in arb_payloads(),
        keep in 0usize..4096,
    ) {
        let mut decoder = FrameDecoder::new();
        let mut frame = Vec::new();
        for payload in &payloads {
            frame_into(&mut frame, payload).unwrap();
            decoder.push(&frame);
            let decoded = decoder.next_frame().unwrap().expect("whole frame pushed");
            prop_assert_eq!(&decoded, payload);
            prop_assert!(decoder.next_frame().unwrap().is_none());
            decoder.shed(keep);
            prop_assert_eq!(decoder.buffered_bytes(), 0);
        }
    }
}
