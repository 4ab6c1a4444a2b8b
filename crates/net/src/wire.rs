//! Wire format: framing accounting and the checksummed message codec.
//!
//! Sec. V: a speculative transmission can be cut mid-row, so the stream is
//! wrapped "with several unique bytes at both the beginning and the
//! ending" letting the receiver skip fragments. Sec. III-A: adaptively
//! transmitted rows must carry their index so they can be scattered back
//! into the model — the management overhead that rules out
//! element-granularity scheduling. These constants make both overheads
//! visible to the channel byte accounting.
//!
//! On lossy links the framing also has to *detect* damage, so the
//! concrete byte layout is a CRC32-checksummed, sequence-numbered frame
//! whose overhead is exactly the constants above (the traffic volumes
//! the channel integrates are unchanged by the codec):
//!
//! ```text
//! offset size  field
//!      0    4  start marker  b"ROG\x02"        ┐ FRAME_START_BYTES (8)
//!      4    4  sequence number (u32 LE)        ┘
//!      8    1  delivery class (0 reliable, 1 best-effort) ┐
//!      9    1  transmission attempt                        │ MESSAGE_
//!     10    2  flags (reserved, zero)                      │ HEADER_
//!     12    4  payload length (u32 LE)                     │ BYTES (16)
//!     16    8  iteration number (u64 LE)                   ┘
//!     24    n  payload
//!   24+n    4  CRC32 (IEEE) over bytes [4, 24+n)  ┐ FRAME_END_BYTES (8)
//!   28+n    4  end marker    b"\x03GOR"           ┘
//! ```

use rog_obs::crc32;

/// Unique marker bytes at the start of a framed transmission.
pub const FRAME_START_BYTES: u64 = 8;

/// Unique marker bytes at the end of a framed transmission.
pub const FRAME_END_BYTES: u64 = 8;

/// Fixed per-message header: iteration number + row count + MTA-time
/// report (Sec. IV-B: stragglers report their MTA time to other devices).
pub const MESSAGE_HEADER_BYTES: u64 = 16;

/// Per-row index header (`int32`, the PyTorch default the paper cites).
pub const ROW_INDEX_BYTES: u64 = 4;

/// Total framing overhead of one message, excluding per-row headers.
pub const fn message_overhead() -> u64 {
    FRAME_START_BYTES + FRAME_END_BYTES + MESSAGE_HEADER_BYTES
}

/// Size on the wire of one row whose payload is `payload_bytes`.
pub const fn framed_row_bytes(payload_bytes: u64) -> u64 {
    ROW_INDEX_BYTES + payload_bytes
}

/// Start-of-frame marker.
const START_MARKER: [u8; 4] = *b"ROG\x02";
/// End-of-frame marker.
const END_MARKER: [u8; 4] = *b"\x03GOR";

/// Which reliability class a frame travels under (see
/// [`crate::reliability`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameClass {
    /// Ack + retransmit until delivered exactly once, in order.
    Reliable,
    /// Detect-and-drop: damage is reported upward, never retransmitted
    /// by the transport.
    BestEffort,
}

impl FrameClass {
    fn to_byte(self) -> u8 {
        match self {
            FrameClass::Reliable => 0,
            FrameClass::BestEffort => 1,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(FrameClass::Reliable),
            1 => Some(FrameClass::BestEffort),
            _ => None,
        }
    }
}

/// Decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Per-sender sequence number (dedup + ordering key).
    pub seq: u32,
    /// Delivery class.
    pub class: FrameClass,
    /// Transmission attempt, starting at 1 (diagnostics only).
    pub attempt: u8,
    /// Training iteration the payload belongs to.
    pub iter: u64,
}

/// A decoded frame: header plus owned payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Header fields.
    pub header: FrameHeader,
    /// Verbatim payload bytes.
    pub payload: Vec<u8>,
}

/// Why a byte buffer failed to decode as a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Buffer shorter than the fixed framing overhead.
    Truncated,
    /// Start marker missing or damaged.
    BadStartMarker,
    /// End marker missing or damaged.
    BadEndMarker,
    /// Header length field disagrees with the buffer size.
    LengthMismatch,
    /// Unknown delivery-class byte.
    BadClass,
    /// CRC32 over header+payload failed — the payload is damaged.
    ChecksumMismatch,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FrameError::Truncated => "frame shorter than fixed overhead",
            FrameError::BadStartMarker => "bad start marker",
            FrameError::BadEndMarker => "bad end marker",
            FrameError::LengthMismatch => "length field mismatch",
            FrameError::BadClass => "unknown delivery class",
            FrameError::ChecksumMismatch => "CRC32 mismatch",
        };
        f.write_str(s)
    }
}

/// Encodes one frame. The output length is exactly
/// `message_overhead() + payload.len()`.
pub fn encode_frame(header: &FrameHeader, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(message_overhead() as usize + payload.len());
    out.extend_from_slice(&START_MARKER);
    out.extend_from_slice(&header.seq.to_le_bytes());
    out.push(header.class.to_byte());
    out.push(header.attempt);
    out.extend_from_slice(&[0u8; 2]);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&header.iter.to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(&END_MARKER);
    out
}

/// Decodes and verifies a frame produced by [`encode_frame`].
///
/// Total function: every possible byte string — truncated, corrupted,
/// random, adversarial — returns a typed [`FrameError`] rather than
/// panicking (property-tested below). Safe to feed raw datagrams from
/// an untrusted network.
pub fn decode_frame(buf: &[u8]) -> Result<Frame, FrameError> {
    let overhead = message_overhead() as usize;
    if buf.len() < overhead {
        return Err(FrameError::Truncated);
    }
    if buf[..4] != START_MARKER {
        return Err(FrameError::BadStartMarker);
    }
    if buf[buf.len() - 4..] != END_MARKER {
        return Err(FrameError::BadEndMarker);
    }
    let len = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes")) as usize;
    // `overhead + len` cannot wrap on 64-bit hosts (len <= u32::MAX),
    // but a checked add keeps the decoder total on 32-bit targets too.
    if overhead
        .checked_add(len)
        .is_none_or(|want| buf.len() != want)
    {
        return Err(FrameError::LengthMismatch);
    }
    let body_end = buf.len() - 8;
    let crc_stored = u32::from_le_bytes(buf[body_end..body_end + 4].try_into().expect("4 bytes"));
    if crc32(&buf[4..body_end]) != crc_stored {
        return Err(FrameError::ChecksumMismatch);
    }
    let class = FrameClass::from_byte(buf[8]).ok_or(FrameError::BadClass)?;
    Ok(Frame {
        header: FrameHeader {
            seq: u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")),
            class,
            attempt: buf[9],
            iter: u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes")),
        },
        payload: buf[24..body_end].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_are_small_but_nonzero() {
        assert!(message_overhead() >= 16);
        assert_eq!(framed_row_bytes(100), 104);
    }

    fn sample_header() -> FrameHeader {
        FrameHeader {
            seq: 0xDEAD_BEEF,
            class: FrameClass::BestEffort,
            attempt: 3,
            iter: 123_456_789_012,
        }
    }

    #[test]
    fn frame_roundtrips() {
        let payload = b"row 17 one-bit signs".to_vec();
        let buf = encode_frame(&sample_header(), &payload);
        assert_eq!(buf.len() as u64, message_overhead() + payload.len() as u64);
        let frame = decode_frame(&buf).expect("decodes");
        assert_eq!(frame.header, sample_header());
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let hdr = FrameHeader {
            seq: 0,
            class: FrameClass::Reliable,
            attempt: 1,
            iter: 0,
        };
        let buf = encode_frame(&hdr, &[]);
        assert_eq!(buf.len() as u64, message_overhead());
        assert_eq!(decode_frame(&buf).expect("decodes").header, hdr);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let buf = encode_frame(&sample_header(), b"payload under test");
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut dam = buf.clone();
                dam[byte] ^= 1 << bit;
                assert!(
                    decode_frame(&dam).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_header() -> impl Strategy<Value = (u32, bool, u8, u64)> {
            (
                0u32..u32::MAX,
                proptest::bool::ANY,
                0u8..=255,
                0u64..u64::MAX,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The decoder is total: arbitrary bytes never panic, they
            /// produce a typed error (no random buffer can carry a
            /// valid CRC32 and both markers by chance at these sizes).
            #[test]
            fn random_bytes_never_panic(
                buf in proptest::collection::vec(0u8..=255, 0..256),
            ) {
                let _ = decode_frame(&buf);
            }

            /// Any encoded frame round-trips through decode.
            #[test]
            fn arbitrary_frames_roundtrip(
                hdr_parts in arb_header(),
                payload in proptest::collection::vec(0u8..=255, 0..128),
            ) {
                let (seq, be, attempt, iter) = hdr_parts;
                let hdr = FrameHeader {
                    seq,
                    class: if be { FrameClass::BestEffort } else { FrameClass::Reliable },
                    attempt,
                    iter,
                };
                let buf = encode_frame(&hdr, &payload);
                let frame = decode_frame(&buf).expect("own encoding decodes");
                prop_assert_eq!(frame.header, hdr);
                prop_assert_eq!(frame.payload, payload);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Mutating any byte of a valid frame is detected: decode
            /// returns an error, never a wrong frame and never a panic.
            #[test]
            fn mutated_frames_error_without_panicking(
                hdr_parts in arb_header(),
                payload in proptest::collection::vec(0u8..=255, 0..64),
                pos in 0usize..4096,
                xor in 1u8..=255,
            ) {
                let (seq, be, attempt, iter) = hdr_parts;
                let hdr = FrameHeader {
                    seq,
                    class: if be { FrameClass::BestEffort } else { FrameClass::Reliable },
                    attempt,
                    iter,
                };
                let mut buf = encode_frame(&hdr, &payload);
                let pos = pos % buf.len();
                buf[pos] ^= xor;
                prop_assert!(decode_frame(&buf).is_err(), "mutation at {} undetected", pos);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Truncating a valid frame anywhere is rejected, not a panic.
            #[test]
            fn truncated_frames_error(
                payload in proptest::collection::vec(0u8..=255, 0..64),
                cut in 0usize..4096,
            ) {
                let hdr = FrameHeader {
                    seq: 7,
                    class: FrameClass::BestEffort,
                    attempt: 1,
                    iter: 3,
                };
                let buf = encode_frame(&hdr, &payload);
                let cut = cut % buf.len();
                prop_assert!(decode_frame(&buf[..cut]).is_err());
            }
        }
    }

    #[test]
    fn truncation_and_garbage_are_rejected() {
        let buf = encode_frame(&sample_header(), b"abc");
        assert_eq!(decode_frame(&buf[..10]), Err(FrameError::Truncated));
        // Dropping the tail byte shears the end marker first.
        assert_eq!(
            decode_frame(&buf[..buf.len() - 1]),
            Err(FrameError::BadEndMarker)
        );
        // A surviving end marker with missing payload bytes trips the
        // length check.
        let mut short = buf[..buf.len() - 1].to_vec();
        let n = short.len();
        short[n - 4..].copy_from_slice(&END_MARKER);
        assert_eq!(decode_frame(&short), Err(FrameError::LengthMismatch));
        let mut no_start = buf.clone();
        no_start[0] = b'X';
        assert_eq!(decode_frame(&no_start), Err(FrameError::BadStartMarker));
        let mut no_end = buf.clone();
        let n = no_end.len();
        no_end[n - 1] = b'X';
        assert_eq!(decode_frame(&no_end), Err(FrameError::BadEndMarker));
        let mut bad_class = buf;
        bad_class[8] = 7;
        // Class byte is covered by the CRC, so the checksum trips first.
        assert_eq!(decode_frame(&bad_class), Err(FrameError::ChecksumMismatch));
    }
}
