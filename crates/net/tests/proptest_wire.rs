//! Wire-format robustness gates.
//!
//! Encode → decode is identity for every frame type, and every way the
//! bytes can go wrong on a real socket — truncation at any offset, any
//! single-byte corruption, oversized length prefixes, unknown tags — is
//! a typed error. The decoder must never panic and never misparse. Bytes
//! altered before sealing pass the checksum and reach the decoder's own tag,
//! count and UTF-8 checks; they decode or fail typed, never panic.

use proptest::prelude::*;
use psme_net::{
    read_frame, Frame, FrameError, SessionSummary, MAX_FRAME, WIRE_MAGIC, WIRE_VERSION,
};
use psme_rete::{open_frame, seal_frame};
use psme_soar::AgentStats;

/// A strategy covering every frame variant in the protocol.
fn frame_strategy() -> impl Strategy<Value = Frame> {
    (
        0usize..12,
        "[a-z0-9-]{0,12}",
        "[a-zA-Z0-9 _.-]{0,20}",
        any::<u64>(),
        any::<u32>(),
        any::<bool>(),
        prop::collection::vec("[a-z0-9*=-]{0,16}", 0..4),
        prop::collection::vec(any::<u64>(), 9..10),
    )
        .prop_map(|(tag, name, text, n, id, flag, strs, nums)| match tag {
            0 => Frame::Hello { proto: n as u32, client: text },
            1 => Frame::OpenSession {
                app: name,
                session: text,
                seed: n,
                learning: flag,
                grant: flag.then_some(n / 2),
            },
            2 => Frame::Step { id, n },
            3 => Frame::Learn { id, enable: flag },
            4 => Frame::CloseSession { id },
            5 => Frame::Bye,
            6 => Frame::HelloOk { proto: n as u32, server: text, apps: strs },
            7 => Frame::Opened { id },
            8 => Frame::Refused { session: name, reason: text },
            9 => Frame::Stepped { id, decisions: n },
            10 => Frame::SessionShed { id },
            _ => Frame::Done {
                id,
                summary: SessionSummary {
                    name,
                    stop: (n % 5) as u8,
                    stats: AgentStats {
                        decisions: nums[0],
                        elaboration_cycles: nums[1],
                        impasses: nums[2],
                        chunks_built: nums[3],
                        firings: nums[4],
                        wme_adds: nums[5],
                        wme_removes: nums[6],
                        update_tasks: nums[7],
                        reorganizations: nums[8],
                    },
                    chunk_names: strs,
                    output: vec![text],
                },
            },
        })
}

/// Sealed payload of a frame (the bytes after the length prefix).
fn sealed(f: &Frame) -> Vec<u8> {
    f.encode()[4..].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Encode/decode identity, through the full length-prefixed path.
    #[test]
    fn round_trip_is_identity(f in frame_strategy()) {
        let bytes = f.encode();
        prop_assert_eq!(
            u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize,
            bytes.len() - 4,
            "length prefix covers the sealed payload"
        );
        let back = Frame::decode(&bytes[4..]).expect("own encoding decodes");
        prop_assert_eq!(back, f.clone());
        // And through the stream reader.
        let mut cursor = std::io::Cursor::new(bytes);
        let got = read_frame(&mut cursor).expect("stream decodes").expect("one frame");
        prop_assert_eq!(got, f);
    }

    /// Truncation at every offset is an error, never a panic, never a
    /// frame.
    #[test]
    fn truncated_frames_are_rejected(f in frame_strategy(), cut_seed in any::<u64>()) {
        let s = sealed(&f);
        let cut = (cut_seed as usize) % s.len();
        prop_assert!(Frame::decode(&s[..cut]).is_err(), "cut at {cut}/{} decoded", s.len());
    }

    /// Any single-byte corruption is caught (the checksum envelope), and
    /// decoding corrupted bytes never panics.
    #[test]
    fn corrupt_frames_are_rejected(
        f in frame_strategy(),
        pos_seed in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let mut s = sealed(&f);
        let pos = (pos_seed as usize) % s.len();
        s[pos] ^= mask;
        prop_assert!(Frame::decode(&s).is_err(), "flip {mask:#x} at {pos} decoded");
    }

    /// Payload bytes altered and then re-sealed pass the checksum: the
    /// decoder's structural checks must answer, `Ok` or a typed error.
    #[test]
    fn resealed_corruption_never_panics(
        f in frame_strategy(),
        edits in prop::collection::vec((any::<usize>(), 1u8..=255), 1..4),
    ) {
        let mut payload = open_frame(&sealed(&f), WIRE_MAGIC, WIRE_VERSION).unwrap().to_vec();
        for &(pos, mask) in &edits {
            let at = pos % payload.len();
            payload[at] ^= mask;
        }
        let _ = Frame::decode(&seal_frame(WIRE_MAGIC, WIRE_VERSION, payload));
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(bytes in prop::collection::vec(any::<u64>(), 0..64)) {
        let raw: Vec<u8> = bytes.iter().flat_map(|b| b.to_le_bytes()).collect();
        let _ = Frame::decode(&raw);
    }
}

/// A length prefix past the frame bound is refused before allocation.
#[test]
fn oversized_length_prefix_is_refused() {
    let mut bytes = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0u8; 16]);
    let mut cursor = std::io::Cursor::new(bytes);
    match read_frame(&mut cursor) {
        Err(FrameError::Oversized(n)) => assert_eq!(n, MAX_FRAME + 1),
        other => panic!("expected Oversized, got {other:?}"),
    }
}

/// Clean EOF at a frame boundary is `Ok(None)`; EOF mid-frame is an error.
#[test]
fn eof_semantics() {
    let mut empty = std::io::Cursor::new(Vec::<u8>::new());
    assert!(matches!(read_frame(&mut empty), Ok(None)));
    let bytes = Frame::Bye.encode();
    let mut cut = std::io::Cursor::new(bytes[..bytes.len() - 1].to_vec());
    assert!(matches!(read_frame(&mut cut), Err(FrameError::Io(_))));
}

/// A reader that fails its first read with `Interrupted` (a signal landing
/// before any byte arrived), then reads from `inner`.
struct InterruptedOnce {
    interrupted: bool,
    inner: std::io::Cursor<Vec<u8>>,
}

impl std::io::Read for InterruptedOnce {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if !self.interrupted {
            self.interrupted = true;
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        self.inner.read(buf)
    }
}

/// `EINTR` before the first length byte is retried, not reported: the
/// connection's reader thread would otherwise drop a healthy connection.
#[test]
fn interrupted_first_read_is_retried() {
    let f = Frame::Step { id: 3, n: 8 };
    let mut r = InterruptedOnce { interrupted: false, inner: std::io::Cursor::new(f.encode()) };
    match read_frame(&mut r) {
        Ok(Some(got)) => assert_eq!(got, f),
        other => panic!("expected the frame, got {other:?}"),
    }
}
