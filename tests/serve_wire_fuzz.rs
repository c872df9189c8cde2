//! Property fuzz of the `openserdes-serve/1` wire layer: no input —
//! arbitrary bytes, truncations of valid frames, or bit-flipped
//! envelopes — may ever panic the parser or the frame reader. Hostile
//! peers get typed `Err`s, never a crashed connection task.
//!
//! Runs on the vendored deterministic `proptest` stand-in: every case
//! is seeded from the test name, so failures reproduce exactly.

use openserdes::core::job::{DesignSpec, Request, SweepSpec};
use openserdes::core::LinkConfig;
use openserdes::serve::wire::{self, Envelope};
use proptest::prelude::*;

/// A small pool of valid envelopes to mutate.
fn valid_envelope(pick: usize, seed: u64, deadline_ms: Option<u64>) -> Envelope {
    let request = match pick % 3 {
        0 => Request::Lint {
            design: DesignSpec::Serializer,
        },
        1 => Request::MaxLoss {
            config: LinkConfig::paper_default(),
            sweep: SweepSpec::default(),
        },
        _ => Request::Bathtub {
            config: LinkConfig::paper_default(),
            sweep: SweepSpec {
                bits: 500,
                phases: 4,
                frames: 2,
                tol_db: 1.0,
            },
        },
    };
    Envelope {
        tenant: "fuzz".to_string(),
        priority: (pick % 256) as u8,
        seed,
        deadline_ms,
        request,
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
        pick in 0usize..3,
        seed in any::<u64>(),
        deadline in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let deadline_ms = deadline.is_multiple_of(2).then_some(deadline >> 1);
        let json = valid_envelope(pick, seed, deadline_ms).to_json();
        let cut = (cut as usize) % (json.len() + 1);
        // Truncate on a char boundary (canonical JSON here is ASCII).
        let _ = Envelope::from_json(&json[..cut]);
        if cut == json.len() {
            prop_assert!(Envelope::from_json(&json).is_ok(), "full frame parses");
        }
    }

    /// Bit-flipped envelopes never panic: any surviving parse must
    /// also re-encode without panicking.
    #[test]
    fn bit_flipped_envelopes_never_panic(
        pick in 0usize..3,
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
