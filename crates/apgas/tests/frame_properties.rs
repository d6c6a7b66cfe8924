//! Property tests for the socket frame layer: round-trips hold, and no
//! mangled, truncated, or random input can panic the decoder — a corrupt
//! peer must surface as a `FrameError`, never as a crash.

use dpx10_apgas::socket::frame::{framed_len, read_frame, Frame, FrameError};
use proptest::prelude::*;

/// How many kinds of `Frame` there are.
const KINDS: u8 = 8;

/// Deterministically maps fuzz inputs onto every frame kind: `kind`
/// selects kind number `kind % KINDS` of [`kind_number`].
fn build_frame(kind: u8, place: u16, addr: String, payload: Vec<u8>) -> Frame {
    match kind % KINDS {
        0 => Frame::JoinReq {
            place,
            places: place.saturating_add(1),
            addr,
        },
        1 => Frame::JoinAccept {
            place,
            capacity: place.saturating_add(1),
            addrs: vec![String::new(), addr, "127.0.0.1:9".to_string()],
        },
        2 => Frame::JoinReject { reason: addr },
        3 => Frame::JoinHello { place },
        4 => Frame::Data {
            src: place,
            payload,
        },
        5 => Frame::Heartbeat,
        6 => Frame::Bye,
        _ => Frame::Leave { place },
    }
}

/// Each kind's number. No wildcard arm: a new `Frame` kind does not
/// compile until it is numbered here (as `KINDS`, which then grows by
/// one), and `build_frame_covers_every_kind` fails until `build_frame`
/// builds it.
fn kind_number(frame: &Frame) -> u8 {
    match frame {
        Frame::JoinReq { .. } => 0,
        Frame::JoinAccept { .. } => 1,
        Frame::JoinReject { .. } => 2,
        Frame::JoinHello { .. } => 3,
        Frame::Data { .. } => 4,
        Frame::Heartbeat => 5,
        Frame::Bye => 6,
        Frame::Leave { .. } => 7,
    }
}

#[test]
fn build_frame_covers_every_kind() {
    for kind in 0..=u8::MAX {
        let frame = build_frame(kind, 3, "a".into(), vec![1]);
        assert_eq!(kind_number(&frame), kind % KINDS, "{frame:?}");
    }
}

proptest! {
    #[test]
    fn every_frame_round_trips(
        kind in any::<u8>(),
        place in any::<u16>(),
        addr in "\\PC{0,16}",
        payload in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        let frame = build_frame(kind, place, addr, payload);
        let wire = frame.to_wire();
        prop_assert_eq!(wire.len(), framed_len(wire.len() - 5));
        let mut cursor = &wire[..];
        let back = read_frame(&mut cursor).map_err(|e| {
            proptest::TestCaseError::fail(format!("decode failed: {e}"))
        })?;
        prop_assert_eq!(back, frame);
        prop_assert!(cursor.is_empty(), "decoder must consume the whole frame");
    }

    #[test]
    fn mangled_frames_error_but_never_panic(
        kind in any::<u8>(),
        place in any::<u16>(),
        addr in "\\PC{0,16}",
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        flip_at in any::<usize>(),
        flip_with in 1u8..=255,
    ) {
        let frame = build_frame(kind, place, addr, payload);
        let mut wire = frame.to_wire();
        let idx = flip_at % wire.len();
        wire[idx] ^= flip_with;
        let mut cursor = &wire[..];
        // Any outcome but a panic is acceptable; a corrupted length
        // prefix may legitimately truncate into Io/BadLength, a flipped
        // body byte may still decode (e.g. inside a Data payload).
        match read_frame(&mut cursor) {
            Ok(_) | Err(_) => {}
        }
    }

    #[test]
    fn truncated_frames_always_error(
        kind in any::<u8>(),
        place in any::<u16>(),
        addr in "\\PC{0,16}",
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        cut in any::<usize>(),
    ) {
        let frame = build_frame(kind, place, addr, payload);
        let wire = frame.to_wire();
        let keep = cut % wire.len(); // strictly shorter than the frame
        let mut cursor = &wire[..keep];
        let result = read_frame(&mut cursor);
        prop_assert!(result.is_err(), "truncated to {keep}/{} decoded", wire.len());
        if keep == 0 {
            prop_assert!(matches!(result, Err(FrameError::Closed)));
        }
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(
        junk in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut cursor = &junk[..];
        // Decode frames until the soup runs out or errors; must not
        // panic and must not loop forever (each iteration consumes at
        // least the 4-byte header).
        for _ in 0..64 {
            match read_frame(&mut cursor) {
                Ok(_) => {}
                Err(_) => break,
            }
        }
        // Body decoding is total as well.
        let _ = Frame::decode_body(&junk);
    }
}
