//! The length-prefixed frame format the TCP transport speaks.
//!
//! Every message on a wire link is one *frame*: a fixed header (magic,
//! version, frame type) followed by the frame body. On a socket, frames
//! travel behind an outer 4-byte little-endian length prefix, written
//! by the transport's IO layer.
//!
//! Frames are **streamed**: [`Frame::write_to`] writes a batch's header,
//! then its payload and trailer from their own buffers, and
//! [`Frame::read_from`] reads the payload straight into the `Vec` that
//! becomes the receiving hop's round arena, allocating nothing the
//! length prefix has not admitted. [`Frame::encode`] and
//! [`Frame::decode`] are the same writer and reader over a `Vec` and a
//! slice, so there is one parser, property-tested without sockets.
//!
//! Three frame types exist:
//!
//! * [`Hello`] — the connection handshake: each side announces which
//!   [`LinkId`] it believes the connection terminates and a digest of
//!   its deployment config, so mis-wired or mis-configured processes
//!   fail loudly at connect time instead of corrupting a round.
//! * [`BatchFrame`] — one round's batch crossing the link: the flat
//!   arena bytes (`count` slots of `stride` bytes, logical `width`),
//!   tagged with the round number and protocol exactly like the
//!   streaming scheduler's in-process hand-offs, plus an opaque
//!   `trailer` intermediate hops forward untouched (the tail uses it to
//!   ship per-round observables to the entry). Forward frames are
//!   compact (`stride == width`: a client batch is, and every hop
//!   closes the gap its peel leaves), so the bytes on the socket are the
//!   bytes the link meters count plus the frame's header. Backward
//!   conversation frames keep the chain's reply reservation (`stride`
//!   is the tail's reply width plus every hop's reply layer), because
//!   each hop wraps its layer in place.
//! * [`Frame::Bye`] — orderly termination: the client driver sends it
//!   after the last forward batch, the entry and each server relay it,
//!   the tail turns it around, and the entry answers the client driver
//!   with the backward one; FIFO ordering guarantees no batch is
//!   abandoned behind it.

use crate::linkid::LinkId;
use crate::round::{RoundId, RoundType};
use std::io::{self, Read, Write};

/// Magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"VUVU";

/// Frame format version this codec speaks.
pub const FRAME_VERSION: u16 = 1;

/// Upper bound on one frame's encoded size. [`Frame::read_from`] rejects
/// a length prefix above this *before* allocating or reading the body,
/// so a corrupt or hostile peer cannot make a server allocate gigabytes,
/// and the sender's framing refuses to write a frame above it. 64 MiB
/// holds every batch the simulated and loopback deployments send, but
/// not a paper-scale one: at the §8.1 operating point (~1M users plus
/// noise) the widest hop's arena is ≈ 0.85 GB, so a wire run at that
/// scale must split a round's batch over several frames or raise this
/// cap.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// The connection handshake body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    /// Which deployment link this connection carries.
    pub link: LinkId,
    /// SHA-256 of the canonical deployment config; both ends must match.
    pub config_digest: [u8; 32],
}

/// One round batch crossing a link.
#[derive(Clone, PartialEq, Eq)]
pub struct BatchFrame {
    /// The link this batch crosses.
    pub link: LinkId,
    /// Round the batch belongs to.
    pub round: RoundId,
    /// Which protocol the round runs.
    pub round_type: RoundType,
    /// Real invitation drops (dialing rounds; 0 for conversation).
    pub num_drops: u32,
    /// `true` for the reply direction (towards the clients).
    pub backward: bool,
    /// Slot capacity of the flat arena.
    pub stride: u32,
    /// Logical message width (uniform across slots), `width <= stride`.
    pub width: u32,
    /// Number of slots.
    pub count: u32,
    /// The arena bytes: exactly `count * stride` of them.
    pub payload: Vec<u8>,
    /// Opaque bytes intermediate hops must forward untouched.
    pub trailer: Vec<u8>,
}

/// Prints the header and the lengths of `payload` and `trailer`, never
/// their bytes: a batch holds up to [`MAX_FRAME_LEN`] bytes of a peer's
/// onions, and an error naming a peer's frame must stay a line long.
impl core::fmt::Debug for BatchFrame {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BatchFrame")
            .field("link", &self.link)
            .field("round", &self.round)
            .field("round_type", &self.round_type)
            .field("num_drops", &self.num_drops)
            .field("backward", &self.backward)
            .field("stride", &self.stride)
            .field("width", &self.width)
            .field("count", &self.count)
            .field("payload_len", &self.payload.len())
            .field("trailer_len", &self.trailer.len())
            .finish()
    }
}

/// A decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Connection handshake.
    Hello(Hello),
    /// A round batch.
    Batch(BatchFrame),
    /// Orderly end-of-stream marker.
    Bye,
}

const TYPE_HELLO: u8 = 1;
const TYPE_BATCH: u8 = 2;
const TYPE_BYE: u8 = 3;

/// Why a frame failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The magic bytes were wrong — not a Vuvuzela frame at all.
    BadMagic,
    /// A frame version this codec does not speak.
    UnsupportedVersion(u16),
    /// An unknown frame type byte.
    BadFrameType(u8),
    /// The buffer ended before the frame did.
    Truncated,
    /// Bytes remained after a complete frame.
    TrailingBytes,
    /// A frame (or its declared payload) exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// Declared or actual length.
        len: u64,
    },
    /// An undecodable [`LinkId`] code.
    BadLink(u64),
    /// An undecodable [`RoundType`] byte.
    BadRoundType(u8),
    /// A flag byte that is neither 0 nor 1.
    BadFlag(u8),
    /// Arena geometry is inconsistent (`width > stride`, zero stride
    /// with nonzero count, or `payload.len() != count * stride`).
    BadGeometry,
    /// A batch frame violated a link's per-direction ordering rule:
    /// round ids must strictly increase and nothing follows the
    /// direction's `Bye` (see [`crate::sequence`]).
    OutOfOrder {
        /// The last round id legally observed on the link + direction.
        prev: u64,
        /// The violating round id.
        next: u64,
    },
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::BadMagic => f.write_str("bad frame magic"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::BadFrameType(t) => write!(f, "unknown frame type {t}"),
            FrameError::Truncated => f.write_str("truncated frame"),
            FrameError::TrailingBytes => f.write_str("trailing bytes after frame"),
            FrameError::Oversized { len } => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
                )
            }
            FrameError::BadLink(code) => write!(f, "undecodable link id {code:#x}"),
            FrameError::BadRoundType(b) => write!(f, "unknown round type {b}"),
            FrameError::BadFlag(b) => write!(f, "flag byte {b} is neither 0 nor 1"),
            FrameError::BadGeometry => f.write_str("inconsistent arena geometry"),
            FrameError::OutOfOrder { prev, next } => {
                write!(
                    f,
                    "round {next} out of order after round {prev} on this link direction"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Why [`Frame::read_from`] stopped: the byte source failed, or the
/// bytes it gave are not a frame.
#[derive(Debug)]
pub enum ReadError {
    /// The source failed before the frame was complete.
    Io(std::io::Error),
    /// The bytes are not a valid frame.
    Frame(FrameError),
}

impl From<FrameError> for ReadError {
    fn from(err: FrameError) -> ReadError {
        ReadError::Frame(err)
    }
}

impl Frame {
    /// Encodes the frame body (everything behind the transport's outer
    /// length prefix): [`Frame::write_to`] into a `Vec`.
    ///
    /// # Panics
    ///
    /// As [`Frame::write_to`].
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.write_to(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }

    /// Streams the frame body to `w`: the header, then a batch's payload
    /// and trailer straight from their own buffers, never copied into a
    /// body buffer first.
    ///
    /// # Errors
    ///
    /// Whatever `w` fails with.
    ///
    /// # Panics
    ///
    /// Panics if a batch frame's geometry is inconsistent
    /// (`payload.len() != count * stride`, `width > stride`, or slots of
    /// zero stride) — that is a sender-side bug, never remote input.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut head = Vec::with_capacity(PREAMBLE_LEN + HELLO_LEN.max(BATCH_HEADER_LEN));
        head.extend_from_slice(&FRAME_MAGIC);
        head.extend_from_slice(&FRAME_VERSION.to_le_bytes());
        match self {
            Frame::Hello(hello) => {
                head.push(TYPE_HELLO);
                head.extend_from_slice(&hello.link.code().to_le_bytes());
                head.extend_from_slice(&hello.config_digest);
                w.write_all(&head)
            }
            Frame::Batch(batch) => {
                assert!(
                    batch.width <= batch.stride,
                    "batch width exceeds its stride"
                );
                assert_eq!(
                    batch.payload.len() as u64,
                    u64::from(batch.count) * u64::from(batch.stride),
                    "payload length must be count * stride"
                );
                assert!(
                    batch.stride > 0 || batch.count == 0,
                    "slots of a non-empty batch need a stride"
                );
                head.push(TYPE_BATCH);
                head.extend_from_slice(&batch.link.code().to_le_bytes());
                head.extend_from_slice(&batch.round.encode());
                head.extend_from_slice(&batch.round_type.encode());
                head.push(u8::from(batch.backward));
                for field in [batch.num_drops, batch.stride, batch.width, batch.count] {
                    head.extend_from_slice(&field.to_le_bytes());
                }
                head.extend_from_slice(&(batch.payload.len() as u32).to_le_bytes());
                w.write_all(&head)?;
                w.write_all(&batch.payload)?;
                w.write_all(&(batch.trailer.len() as u32).to_le_bytes())?;
                w.write_all(&batch.trailer)
            }
            Frame::Bye => {
                head.push(TYPE_BYE);
                w.write_all(&head)
            }
        }
    }

    /// Exact size [`Frame::write_to`] will produce.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        PREAMBLE_LEN
            + match self {
                Frame::Hello(_) => HELLO_LEN,
                Frame::Batch(b) => BATCH_HEADER_LEN + b.payload.len() + 4 + b.trailer.len(),
                Frame::Bye => 0,
            }
    }

    /// Decodes one frame from exactly `buf` (trailing bytes are an
    /// error — the outer length prefix already delimits frames):
    /// [`Frame::read_from`] over the slice.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]; never panics, whatever the input.
    pub fn decode(mut buf: &[u8]) -> Result<Frame, FrameError> {
        let len = buf.len();
        Frame::read_from(&mut buf, len).map_err(|err| match err {
            ReadError::Frame(err) => err,
            // Every read is held to `len` first, so the slice never
            // runs dry under one.
            ReadError::Io(_) => FrameError::Truncated,
        })
    }

    /// Reads one frame body of `len` bytes (the transport's length
    /// prefix) from `r`: the fixed-size header field by field, then a
    /// batch's payload straight into the `Vec` the receiving hop's arena
    /// is built from. A `len` over [`MAX_FRAME_LEN`] is refused before
    /// any read, a batch's geometry before its payload is read, and a
    /// payload or trailer longer than what is left of `len` as
    /// [`FrameError::Truncated`] before its buffer is allocated.
    ///
    /// # Errors
    ///
    /// [`ReadError::Frame`] when the bytes are not one frame of exactly
    /// `len` bytes; [`ReadError::Io`] when `r` fails or ends first.
    pub fn read_from<R: Read>(r: &mut R, len: usize) -> Result<Frame, ReadError> {
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized { len: len as u64 }.into());
        }
        let mut body = Body { r, remaining: len };
        if body.array::<4>()? != FRAME_MAGIC {
            return Err(FrameError::BadMagic.into());
        }
        let version = u16::from_le_bytes(body.array()?);
        if version != FRAME_VERSION {
            return Err(FrameError::UnsupportedVersion(version).into());
        }
        let frame = match body.array::<1>()?[0] {
            TYPE_HELLO => {
                let link = body.link()?;
                let config_digest = body.array()?;
                Frame::Hello(Hello {
                    link,
                    config_digest,
                })
            }
            TYPE_BATCH => {
                let link = body.link()?;
                let round = RoundId(u64::from_le_bytes(body.array()?));
                let [round_type_byte] = body.array()?;
                let round_type = RoundType::decode(&[round_type_byte])
                    .map_err(|_| FrameError::BadRoundType(round_type_byte))?;
                let backward = match body.array::<1>()?[0] {
                    0 => false,
                    1 => true,
                    b => return Err(FrameError::BadFlag(b).into()),
                };
                let num_drops = body.u32()?;
                let stride = body.u32()?;
                let width = body.u32()?;
                let count = body.u32()?;
                let payload_len = body.u32()? as usize;
                if width > stride
                    || (stride == 0 && count > 0)
                    || payload_len as u64 != u64::from(count) * u64::from(stride)
                {
                    return Err(FrameError::BadGeometry.into());
                }
                let payload = body.bytes(payload_len)?;
                let trailer_len = body.u32()? as usize;
                let trailer = body.bytes(trailer_len)?;
                Frame::Batch(BatchFrame {
                    link,
                    round,
                    round_type,
                    num_drops,
                    backward,
                    stride,
                    width,
                    count,
                    payload,
                    trailer,
                })
            }
            TYPE_BYE => Frame::Bye,
            t => return Err(FrameError::BadFrameType(t).into()),
        };
        if body.remaining != 0 {
            // The prefix promised more than the frame holds. Read the rest
            // (into no buffer) first, so a source that ends short of the
            // promise fails as it would have mid-frame.
            let promised = body.remaining as u64;
            let read =
                io::copy(&mut body.r.take(promised), &mut io::sink()).map_err(ReadError::Io)?;
            if read < promised {
                return Err(ReadError::Io(io::ErrorKind::UnexpectedEof.into()));
            }
            return Err(FrameError::TrailingBytes.into());
        }
        Ok(frame)
    }
}

/// Magic, version and frame type: what opens every frame body.
const PREAMBLE_LEN: usize = 4 + 2 + 1;

/// A hello's link and config digest, behind the preamble.
const HELLO_LEN: usize = 8 + 32;

/// A batch frame's fixed header behind the preamble: link, round, round
/// type, direction flag, then drop count, stride, width, count and
/// payload length.
const BATCH_HEADER_LEN: usize = 8 + 8 + 1 + 1 + 5 * 4;

/// A frame body being read from `r`, which the length prefix promised
/// holds `remaining` more bytes of it. No read may go past the promise.
struct Body<'a, R> {
    r: &'a mut R,
    remaining: usize,
}

impl<R: Read> Body<'_, R> {
    fn fill(&mut self, out: &mut [u8]) -> Result<(), ReadError> {
        if out.len() > self.remaining {
            return Err(FrameError::Truncated.into());
        }
        self.remaining -= out.len();
        self.r.read_exact(out).map_err(ReadError::Io)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let mut out = [0u8; N];
        self.fill(&mut out)?;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, ReadError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn link(&mut self) -> Result<LinkId, ReadError> {
        let code = u64::from_le_bytes(self.array()?);
        Ok(LinkId::from_code(code).ok_or(FrameError::BadLink(code))?)
    }

    /// The next `n` bytes in a buffer of their own, allocated only once
    /// the promise covers them.
    fn bytes(&mut self, n: usize) -> Result<Vec<u8>, ReadError> {
        if n > self.remaining {
            return Err(FrameError::Truncated.into());
        }
        let mut out = vec![0u8; n];
        self.fill(&mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> BatchFrame {
        BatchFrame {
            link: LinkId::Hop(1),
            round: RoundId(42),
            round_type: RoundType::Dialing,
            num_drops: 3,
            backward: false,
            stride: 4,
            width: 3,
            count: 2,
            payload: vec![1, 2, 3, 0, 4, 5, 6, 0],
            trailer: vec![9, 9],
        }
    }

    #[test]
    fn all_frame_types_roundtrip() {
        let frames = [
            Frame::Hello(Hello {
                link: LinkId::Clients,
                config_digest: [7u8; 32],
            }),
            Frame::Batch(sample_batch()),
            Frame::Bye,
        ];
        for frame in frames {
            let bytes = frame.encode();
            assert_eq!(bytes.len(), frame.encoded_len());
            assert_eq!(Frame::decode(&bytes), Ok(frame));
        }
    }

    #[test]
    fn empty_batch_roundtrips() {
        let frame = Frame::Batch(BatchFrame {
            count: 0,
            payload: Vec::new(),
            trailer: Vec::new(),
            ..sample_batch()
        });
        assert_eq!(Frame::decode(&frame.encode()), Ok(frame));
    }

    #[test]
    fn every_truncation_errors_cleanly() {
        for frame in [
            Frame::Hello(Hello {
                link: LinkId::Hop(0),
                config_digest: [1u8; 32],
            }),
            Frame::Batch(sample_batch()),
            Frame::Bye,
        ] {
            let bytes = frame.encode();
            for cut in 0..bytes.len() {
                assert!(Frame::decode(&bytes[..cut]).is_err(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn corrupt_headers_rejected() {
        let good = Frame::Bye.encode();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(Frame::decode(&bad_magic), Err(FrameError::BadMagic));

        let mut bad_version = good.clone();
        bad_version[4] = 0xFF;
        assert_eq!(
            Frame::decode(&bad_version),
            Err(FrameError::UnsupportedVersion(0x00FF)),
        );

        let mut bad_type = good.clone();
        bad_type[6] = 99;
        assert_eq!(Frame::decode(&bad_type), Err(FrameError::BadFrameType(99)));

        let mut trailing = good;
        trailing.push(0);
        assert_eq!(Frame::decode(&trailing), Err(FrameError::TrailingBytes));
    }

    #[test]
    fn corrupt_batch_fields_rejected() {
        let bytes = Frame::Batch(sample_batch()).encode();

        // link code tag (high bytes of the u64 at offset 7)
        let mut bad_link = bytes.clone();
        bad_link[7 + 7] = 0xEE;
        assert!(matches!(
            Frame::decode(&bad_link),
            Err(FrameError::BadLink(_))
        ));

        // round type byte sits after link(8) + round(8)
        let mut bad_rtype = bytes.clone();
        bad_rtype[7 + 16] = 9;
        assert_eq!(Frame::decode(&bad_rtype), Err(FrameError::BadRoundType(9)));

        let mut bad_flag = bytes.clone();
        bad_flag[7 + 17] = 2;
        assert_eq!(Frame::decode(&bad_flag), Err(FrameError::BadFlag(2)));

        // width > stride
        let mut frame = sample_batch();
        frame.width = frame.stride;
        let mut encoded = Frame::Batch(frame).encode();
        let width_off = 7 + 8 + 8 + 1 + 1 + 4 + 4;
        encoded[width_off] = 200;
        assert_eq!(Frame::decode(&encoded), Err(FrameError::BadGeometry));
    }

    #[test]
    fn payload_count_mismatch_rejected() {
        // Declare one more slot than the payload holds. encode() would
        // panic sender-side on this inconsistency; flip the count byte
        // in otherwise valid bytes to model a corrupting peer.
        let mut bytes = Frame::Batch(sample_batch()).encode();
        let count_off = 7 + 8 + 8 + 1 + 1 + 4 + 4 + 4;
        bytes[count_off] = 3;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadGeometry));
    }

    #[test]
    fn slots_without_a_stride_rejected() {
        // Nothing at all is a legal batch (a dialing completion) ...
        let empty = Frame::Batch(BatchFrame {
            stride: 0,
            width: 0,
            count: 0,
            payload: Vec::new(),
            ..sample_batch()
        });
        let mut bytes = empty.encode();
        assert_eq!(Frame::decode(&bytes), Ok(empty));
        // ... but slots of no bytes are not: `count * stride` is still
        // the (empty) payload's length, so only this check catches it.
        let count_off = 7 + 8 + 8 + 1 + 1 + 4 + 4 + 4;
        bytes[count_off] = 3;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadGeometry));
    }

    #[test]
    #[should_panic(expected = "payload length must be count * stride")]
    fn encoding_inconsistent_batch_panics() {
        let mut frame = sample_batch();
        frame.payload.pop();
        let _ = Frame::Batch(frame).encode();
    }

    #[test]
    fn oversized_buffer_rejected_without_reading() {
        // Construct the error path directly (a real 64 MiB allocation is
        // wasteful in unit tests; the IO layer tests cover the prefix
        // rejection).
        let r = Frame::decode(&[]);
        assert_eq!(r, Err(FrameError::Truncated));
        assert!(FrameError::Oversized { len: 1 << 40 }
            .to_string()
            .contains("exceeds"));
    }
}
