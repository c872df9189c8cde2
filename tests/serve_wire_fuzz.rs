//! Property fuzz of the `openserdes-serve/1` wire layer: no input —
//! arbitrary bytes, or truncated or bit-flipped frames around every
//! request and response kind — may ever panic the envelope parser, the
//! client's reply decoder or the frame reader. Hostile peers get typed
//! `Err`s, never a crashed connection task, and a value that survives
//! decoding re-encodes.
//!
//! Runs on the vendored deterministic `proptest` stand-in: every case
//! is seeded from the test name, so failures reproduce exactly.

mod wire_samples;

use openserdes::serve::wire::{self, Envelope};
use proptest::prelude::*;
use wire_samples::{requests, responses};

/// A valid envelope around the request of kind `pick % 9`.
fn valid_envelope(pick: usize, seed: u64, deadline_ms: Option<u64>) -> Envelope {
    let mut pool = requests();
    let (request, _) = pool.swap_remove(pick % pool.len());
    Envelope {
        tenant: "fuzz".to_string(),
        priority: (pick % 256) as u8,
        seed,
        deadline_ms,
        request,
    }
}

/// A success reply frame around the response of kind `pick % 11`.
fn valid_reply(pick: usize) -> String {
    let pool = responses();
    wire::ok_frame(&pool[pick % pool.len()].to_canonical_json())
}

/// Decodes a reply frame: a typed error, a server error string, or a
/// response that re-encodes.
fn decode_reply(text: &str) {
    if let Ok(Ok(response)) = wire::parse_reply(text) {
        let _ = response.to_canonical_json();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes (as lossy UTF-8) never panic the envelope or
    /// reply parsers — they return typed errors.
    #[test]
    fn arbitrary_bytes_never_panic_the_parsers(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = Envelope::from_json(&text);
        let _ = wire::parse_reply(&text);
    }

    /// Every truncation of a valid envelope parses to a typed error or
    /// (at full length) the original — never a panic.
    #[test]
    fn truncated_envelopes_never_panic(
        pick in 0usize..9,
        seed in any::<u64>(),
        deadline in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let deadline_ms = deadline.is_multiple_of(2).then_some(deadline >> 1);
        let json = valid_envelope(pick, seed, deadline_ms).to_json();
        let cut = (cut as usize) % (json.len() + 1);
        // A cut inside a multi-byte character reads as U+FFFD.
        let text = String::from_utf8_lossy(&json.as_bytes()[..cut]);
        if let Ok(parsed) = Envelope::from_json(&text) {
            let _ = parsed.to_json();
        }
        if cut == json.len() {
            let parsed = Envelope::from_json(&json);
            prop_assert!(parsed.is_ok(), "full frame parses");
            prop_assert_eq!(parsed.map(|e| e.to_json()).ok(), Some(json));
        }
    }

    /// Bit-flipped envelopes never panic: any surviving parse must
    /// also re-encode without panicking.
    #[test]
    fn bit_flipped_envelopes_never_panic(
        pick in 0usize..9,
        seed in any::<u64>(),
        flips in prop::collection::vec(any::<u32>(), 1..6),
    ) {
        let json = valid_envelope(pick, seed, Some(250)).to_json();
        let mut bytes = json.into_bytes();
        for flip in flips {
            let pos = (flip as usize / 8) % bytes.len();
            bytes[pos] ^= 1 << (flip % 8);
        }
        let text = String::from_utf8_lossy(&bytes);
        if let Ok(parsed) = Envelope::from_json(&text) {
            let _ = parsed.to_json();
        }
    }

    /// Every truncation of a valid reply frame, of any of the eleven
    /// response kinds, decodes to a typed error or a response that
    /// re-encodes; the whole frame decodes to its own bytes.
    #[test]
    fn truncated_replies_never_panic(
        pick in 0usize..11,
        cut in any::<u64>(),
    ) {
        let frame = valid_reply(pick);
        let cut = (cut as usize) % (frame.len() + 1);
        decode_reply(&String::from_utf8_lossy(&frame.as_bytes()[..cut]));
        let whole = wire::parse_reply(&frame).map(|r| r.map(|resp| wire::ok_frame(&resp.to_canonical_json())));
        prop_assert_eq!(whole.ok(), Some(Ok(frame)));
    }

    /// Bit-flipped reply frames of every response kind never panic the
    /// client's decoder.
    #[test]
    fn bit_flipped_replies_never_panic(
        pick in 0usize..11,
        flips in prop::collection::vec(any::<u32>(), 1..6),
    ) {
        let mut bytes = valid_reply(pick).into_bytes();
        for flip in flips {
            let pos = (flip as usize / 8) % bytes.len();
            bytes[pos] ^= 1 << (flip % 8);
        }
        decode_reply(&String::from_utf8_lossy(&bytes));
    }

    /// The blocking frame reader never panics on arbitrary streams:
    /// garbage prefixes, truncated payloads, hostile lengths — all
    /// come back as `Ok`/`Err`, and an announced length beyond
    /// `MAX_FRAME` is always refused.
    #[test]
    fn frame_reader_never_panics_on_arbitrary_streams(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        announced in any::<u32>(),
    ) {
        let mut cursor = std::io::Cursor::new(bytes.clone());
        let _ = wire::read_frame_blocking(&mut cursor);

        // A syntactically valid prefix over a truncated body.
        let mut framed = announced.to_be_bytes().to_vec();
        framed.extend_from_slice(&bytes);
        let mut cursor = std::io::Cursor::new(framed);
        match wire::read_frame_blocking(&mut cursor) {
            Ok(Some(payload)) => prop_assert_eq!(payload.len(), announced as usize),
            Ok(None) => return Err("nonempty stream read as clean close".to_string()),
            Err(_) => {} // truncated or oversized: typed error, no panic
        }
        if announced as usize > wire::MAX_FRAME {
            let mut cursor = std::io::Cursor::new(announced.to_be_bytes().to_vec());
            prop_assert!(
                wire::read_frame_blocking(&mut cursor).is_err(),
                "hostile length prefix must be refused"
            );
        }
    }
}
