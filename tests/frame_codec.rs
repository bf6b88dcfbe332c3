//! Property tests over the wire frame codec and the framed TCP reader:
//! arbitrary frames round-trip, truncation never panics, and oversized
//! length prefixes are rejected before any body is read. The streaming
//! reader is held to the slice decoder on every truncation and
//! single-byte corruption, and to allocating nothing its length prefix
//! has not admitted; the writer refuses an oversized frame before its
//! first byte. The same counting allocator shows that the tail's
//! dead-drop exchange turns its request arena into the reply arena
//! instead of allocating a second one.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;
use vuvuzela::core::deaddrops::ConversationDrops;
use vuvuzela::core::RoundBuffer;
use vuvuzela::crypto::onion;
use vuvuzela::net::tcp::{read_frame, write_frame};
use vuvuzela::net::{Error, LinkId};
use vuvuzela::wire::{
    BatchFrame, Frame, FrameError, Hello, RoundId, RoundType, DEAD_DROP_ID_LEN,
    EXCHANGE_REQUEST_LEN, EXCHANGE_RESPONSE_LEN, MAX_FRAME_LEN,
};

fn link_from(selector: u8, index: u32) -> LinkId {
    match selector % 4 {
        0 => LinkId::Clients,
        1 => LinkId::Hop(index),
        2 => LinkId::Cdn,
        _ => LinkId::Client(index),
    }
}

/// Builds one arbitrary frame from primitive draws (the vendored
/// proptest has no tuple/oneof combinators).
#[allow(clippy::too_many_arguments)]
fn frame_from(
    kind: u8,
    link_selector: u8,
    link_index: u32,
    digest: [u8; 32],
    round: u64,
    flags: u8,
    num_drops: u32,
    stride: usize,
    slack: usize,
    count: usize,
    trailer: Vec<u8>,
) -> Frame {
    let link = link_from(link_selector, link_index);
    match kind % 3 {
        0 => Frame::Hello(Hello {
            link,
            config_digest: digest,
        }),
        1 => {
            let width = stride - slack.min(stride);
            Frame::Batch(BatchFrame {
                link,
                round: RoundId(round),
                round_type: if flags & 1 == 0 {
                    RoundType::Conversation
                } else {
                    RoundType::Dialing
                },
                num_drops,
                backward: flags & 2 != 0,
                stride: stride as u32,
                width: width as u32,
                count: count as u32,
                payload: vec![0xA7; stride * count],
                trailer,
            })
        }
        _ => Frame::Bye,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every encodable frame decodes back to itself, both through the
    /// raw codec and through the length-prefixed TCP framing.
    #[test]
    fn frames_roundtrip(
        kind in 0u8..3,
        link_selector in any::<u8>(),
        link_index in 0u32..16,
        digest in any::<[u8; 32]>(),
        round in any::<u64>(),
        flags in any::<u8>(),
        num_drops in 0u32..64,
        stride in 1usize..32,
        slack in 0usize..8,
        count in 0usize..32,
        trailer in collection::vec(any::<u8>(), 0..48),
    ) {
        let frame = frame_from(
            kind, link_selector, link_index, digest, round, flags, num_drops,
            stride, slack, count, trailer,
        );
        let body = frame.encode();
        prop_assert_eq!(body.len(), frame.encoded_len());
        prop_assert_eq!(Frame::decode(&body).expect("decodes"), frame.clone());

        let mut wire = Vec::new();
        write_frame(&mut wire, LinkId::Clients, &frame).expect("writes");
        let mut cursor = Cursor::new(wire);
        prop_assert_eq!(read_frame(&mut cursor, LinkId::Clients).expect("reads"), frame);
        prop_assert!(matches!(
            read_frame(&mut cursor, LinkId::Clients),
            Err(Error::Disconnected { .. })
        ));
    }

    /// Truncating an encoded frame at any point yields a decode error,
    /// never a panic or a bogus success.
    #[test]
    fn truncation_never_panics(
        kind in 0u8..3,
        stride in 1usize..32,
        count in 0usize..32,
        trailer in collection::vec(any::<u8>(), 0..48),
        cut in 0usize..4096,
    ) {
        let frame = frame_from(
            kind, 1, 3, [7; 32], 12, 1, 5, stride, 0, count, trailer,
        );
        let body = frame.encode();
        let cut = cut % body.len().max(1);
        prop_assert!(Frame::decode(&body[..cut]).is_err());
    }

    /// Flipping any single byte of an encoded frame either still decodes
    /// (payload/trailer bytes are opaque) or errors — it never panics.
    #[test]
    fn corruption_never_panics(
        kind in 0u8..3,
        stride in 1usize..32,
        count in 0usize..32,
        at in 0usize..4096,
        xor in 1u8..=255,
    ) {
        let frame = frame_from(
            kind, 0, 0, [9; 32], 3, 2, 0, stride, 1, count, vec![1, 2],
        );
        let mut body = frame.encode();
        let at = at % body.len();
        body[at] ^= xor;
        let _ = Frame::decode(&body);
    }

    /// Length prefixes above MAX_FRAME_LEN are rejected on the prefix
    /// alone — no body allocation, no read past the prefix.
    #[test]
    fn oversized_prefix_rejected(extra in 1u64..=u64::from(u32::MAX) - MAX_FRAME_LEN as u64) {
        let len = MAX_FRAME_LEN as u64 + extra;
        let mut cursor = Cursor::new((len as u32).to_le_bytes().to_vec());
        prop_assert!(matches!(
            read_frame(&mut cursor, LinkId::Hop(0)),
            Err(Error::Frame { source: FrameError::Oversized { .. }, .. })
        ));
    }
}

/// The largest single allocation this thread has asked for since the
/// last [`largest_allocation_since`] — how the tests below see that the
/// streaming reader allocates nothing the length prefix has not admitted.
struct LargestAllocation;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// wrapper only records sizes in a thread-local `Cell`, which allocates
// nothing.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// Runs `f` and returns the largest allocation it made on this thread.
fn largest_allocation_since<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// `body` behind a length prefix claiming `len` bytes.
fn wire(len: usize, body: &[u8]) -> Vec<u8> {
    let mut wire = (len as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(body);
    wire
}

/// `read_frame` on `body` behind its own length must give exactly what
/// `Frame::decode` gives on `body`: the same frame, or the same error.
fn assert_reader_agrees_with_decode(body: &[u8], what: &str) {
    let read = read_frame(&mut Cursor::new(wire(body.len(), body)), LinkId::Hop(1));
    match (read, Frame::decode(body)) {
        (Ok(read), Ok(decoded)) => assert_eq!(read, decoded, "{what}"),
        (Err(Error::Frame { source, .. }), Err(decoded)) => assert_eq!(source, decoded, "{what}"),
        (read, decoded) => panic!("{what}: read_frame gave {read:?}, decode gave {decoded:?}"),
    }
}

/// A batch frame with room between width and stride, and a trailer,
/// plus the other two frame types.
fn sample_frames() -> [Frame; 4] {
    let batch = |stride: usize, width: usize, count: usize| {
        Frame::Batch(BatchFrame {
            link: LinkId::Hop(1),
            round: RoundId(0x0102_0304),
            round_type: RoundType::Dialing,
            num_drops: 3,
            backward: true,
            stride: stride as u32,
            width: width as u32,
            count: count as u32,
            payload: (0..stride * count).map(|b| b as u8).collect(),
            trailer: vec![0xC3; 5],
        })
    };
    [
        batch(8, 6, 3),
        batch(0, 0, 0),
        Frame::Hello(Hello {
            link: LinkId::Hop(2),
            config_digest: [0x5A; 32],
        }),
        Frame::Bye,
    ]
}

/// Every truncation of a length-prefixed frame: inside the prefix the
/// stream just ended (a disconnect); past it, the source ended before
/// the promised body did (an IO error). And every truncated body behind
/// a prefix that admits only what is left is what decode says of it.
#[test]
fn every_truncation_through_the_streaming_reader_is_typed() {
    for frame in sample_frames() {
        let body = frame.encode();
        let full = wire(body.len(), &body);
        for cut in 0..full.len() {
            let read = read_frame(&mut Cursor::new(&full[..cut]), LinkId::Hop(1));
            match read {
                Err(Error::Disconnected { .. }) if cut < 4 => {}
                Err(Error::Io { .. }) if cut >= 4 => {}
                other => panic!("{frame:?} cut at {cut}: {other:?}"),
            }
        }
        for cut in 0..body.len() {
            assert_reader_agrees_with_decode(&body[..cut], &format!("{frame:?} body cut at {cut}"));
        }
        assert_reader_agrees_with_decode(&body, "whole body");
    }
}

/// Every single-byte corruption of a length-prefixed frame: in the body
/// the reader agrees with decode (opaque payload and trailer bytes still
/// decode, anything else is the same `FrameError`); in the prefix it is
/// a typed frame or IO error. Nothing panics.
#[test]
fn every_single_byte_corruption_through_the_streaming_reader_is_typed() {
    for frame in sample_frames() {
        let body = frame.encode();
        for at in 0..4 + body.len() {
            for xor in [0x01u8, 0x80, 0xFF] {
                let mut full = wire(body.len(), &body);
                full[at] ^= xor;
                if at >= 4 {
                    assert_reader_agrees_with_decode(&full[4..], &format!("byte {at} ^ {xor:#x}"));
                    continue;
                }
                match read_frame(&mut Cursor::new(&full), LinkId::Hop(1)) {
                    Err(Error::Frame { .. } | Error::Io { .. }) => {}
                    other => panic!("prefix byte {at} ^ {xor:#x}: {other:?}"),
                }
            }
        }
    }
}

/// A batch header whose payload length (consistent with its geometry)
/// runs past what the prefix admits is refused as truncated before the
/// payload is read or allocated; an oversized prefix before anything.
#[test]
fn payload_beyond_the_prefix_is_refused_before_allocation() {
    let payload_len = 32 << 20;
    let frame = Frame::Batch(BatchFrame {
        link: LinkId::Hop(0),
        round: RoundId(7),
        round_type: RoundType::Conversation,
        num_drops: 0,
        backward: false,
        stride: 1 << 10,
        width: 1 << 10,
        count: (payload_len >> 10) as u32,
        payload: vec![0; payload_len],
        trailer: Vec::new(),
    });
    let mut body = frame.encode();
    drop(frame);
    let header_len = body.len() - payload_len - 4;
    body.truncate(header_len + 64);
    let mut source = Cursor::new(wire(header_len + 64, &body));
    let (read, largest) = largest_allocation_since(|| read_frame(&mut source, LinkId::Hop(0)));
    assert!(
        matches!(
            read,
            Err(Error::Frame {
                source: FrameError::Truncated,
                ..
            })
        ),
        "{read:?}"
    );
    assert_eq!(
        source.position(),
        (4 + header_len) as u64,
        "nothing past the header is read"
    );
    assert!(largest < 4096, "largest allocation {largest} bytes");

    let mut source = Cursor::new(wire(MAX_FRAME_LEN + 1, &body));
    let (read, largest) = largest_allocation_since(|| read_frame(&mut source, LinkId::Hop(0)));
    assert!(
        matches!(
            read,
            Err(Error::Frame {
                source: FrameError::Oversized { .. },
                ..
            })
        ),
        "{read:?}"
    );
    assert_eq!(source.position(), 4, "nothing past the prefix is read");
    assert!(largest < 4096, "largest allocation {largest} bytes");
}

/// A frame over [`MAX_FRAME_LEN`] is one its peer's reader must refuse,
/// and above 4 GiB its `u32` length prefix would wrap: the writer refuses
/// it before writing anything. The payload's zeroed pages are never
/// touched.
#[test]
fn oversized_frame_is_refused_before_any_byte_is_written() {
    let count = MAX_FRAME_LEN + 1;
    let frame = Frame::Batch(BatchFrame {
        link: LinkId::Hop(1),
        round: RoundId(3),
        round_type: RoundType::Conversation,
        num_drops: 0,
        backward: false,
        stride: 1,
        width: 1,
        count: count as u32,
        payload: vec![0; count],
        trailer: Vec::new(),
    });
    let mut sink = Vec::new();
    let written = write_frame(&mut sink, LinkId::Hop(1), &frame);
    assert!(
        matches!(
            written,
            Err(Error::Frame {
                link: LinkId::Hop(1),
                source: FrameError::Oversized { len },
            }) if len == frame.encoded_len() as u64
        ),
        "{written:?}"
    );
    assert!(sink.is_empty(), "{} bytes written", sink.len());
}

/// The tail's dead-drop exchange answers in the request arena itself.
/// On 4 096 requests laid out as the tail's peel leaves them (one onion
/// layer wide a slot, then compacted), with the shard count every
/// config uses, the largest allocation on the calling thread stays
/// below a quarter of the reply arena.
#[test]
fn tail_exchange_allocates_no_reply_arena() {
    let requests = 4096;
    let stride = EXCHANGE_REQUEST_LEN + onion::LAYER_OVERHEAD;
    let reply_stride = EXCHANGE_RESPONSE_LEN + 3 * onion::REPLY_LAYER_OVERHEAD;
    let mut rng = StdRng::seed_from_u64(37);
    let mut arena = RoundBuffer::with_capacity(stride, stride, requests);
    for _ in 0..requests {
        arena.push_with(|slot| rng.fill_bytes(slot));
    }
    // Every other request shares its predecessor's drop, so the
    // exchange swaps as well as fills.
    for i in (1..requests).step_by(2) {
        let drop = arena.slot(i - 1)[..DEAD_DROP_ID_LEN].to_vec();
        arena.slot_mut(i)[..DEAD_DROP_ID_LEN].copy_from_slice(&drop);
    }
    arena.set_width(EXCHANGE_REQUEST_LEN);
    arena.compact();

    let ((replies, observables), largest) = largest_allocation_since(|| {
        ConversationDrops::exchange_arena(&mut rng, arena, reply_stride, 4, 1)
    });
    assert_eq!(observables.m2, requests as u64 / 2);
    assert_eq!(
        (replies.len(), replies.stride(), replies.width()),
        (requests, reply_stride, EXCHANGE_RESPONSE_LEN)
    );
    assert!(
        largest < requests * reply_stride / 4,
        "largest allocation {largest} bytes for a {}-byte reply arena",
        requests * reply_stride
    );
}
