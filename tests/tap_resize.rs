//! The tap resize rule, pinned against the per-`Vec` oracle.
//!
//! An adversary tap edits a batch frame's arena in place through the
//! link's `Slots` view ("monitor, block, delay, or inject", §2.3). An
//! entry it sets or pushes at a size other than the hop's onion width
//! cannot be a valid onion: its slot becomes zeros across the whole
//! stride, and it counts on [`Link::tap_resized`] — except on the
//! clients→entry request leg, where sizes are client-controlled. The
//! proptest holds `batch_through_link` to the oracle,
//! [`RoundBuffer::from_vecs`], on bare links. What resized slots do
//! downstream is pinned by `streaming_equivalence`'s golden pins (a tap
//! on a hop link) and, for the clients leg, by one two-driver round.

use parking_lot::Mutex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use vuvuzela::core::chain::Batch;
use vuvuzela::core::server::RoundKind;
use vuvuzela::core::{Chain, RoundBuffer, RoundOutcome, RoundSpec, StreamingChain, SystemConfig};
use vuvuzela::crypto::onion;
use vuvuzela::dp::NoiseDistribution;
use vuvuzela::net::link::Direction;
use vuvuzela::net::{batch_through_link, Link, LinkId, Slots, Tap, TapContext};
use vuvuzela::wire::conversation::ExchangeRequest;
use vuvuzela::wire::{BatchFrame, RoundId, RoundType};

/// One size-tampering action against a batch in flight.
#[derive(Clone, Debug)]
enum ResizeOp {
    /// Truncate entry `index % len` to `new_len % old_len` bytes.
    Truncate { index: u16, new_len: u16 },
    /// Append `extra` bytes to entry `index % len`.
    Extend { index: u16, extra: u8 },
    /// Push a fresh entry of `size` bytes.
    Inject { size: u16 },
}

fn resize_op() -> impl Strategy<Value = ResizeOp> {
    any::<(u8, u16, u16)>().prop_map(|(kind, a, b)| match kind % 3 {
        0 => ResizeOp::Truncate {
            index: a,
            new_len: b,
        },
        1 => ResizeOp::Extend {
            index: a,
            extra: (b % 63 + 1) as u8,
        },
        _ => ResizeOp::Inject { size: b % 2048 },
    })
}

/// The model: `ops` on per-message vectors.
fn apply_ops(ops: &[ResizeOp], batch: &mut Vec<Vec<u8>>) {
    for op in ops {
        match *op {
            ResizeOp::Truncate { index, new_len } => {
                if !batch.is_empty() {
                    let i = index as usize % batch.len();
                    let len = batch[i].len();
                    if len > 0 {
                        batch[i].truncate(new_len as usize % len);
                    }
                }
            }
            ResizeOp::Extend { index, extra } => {
                if !batch.is_empty() {
                    let i = index as usize % batch.len();
                    batch[i].extend(std::iter::repeat_n(0xEE, extra as usize));
                }
            }
            ResizeOp::Inject { size } => {
                batch.push(vec![0xEE; size as usize]);
            }
        }
    }
}

/// Runs the model over every `direction` batch and writes the result
/// back through the view: `set` the slots it had, `push` the rest.
struct ResizeTap {
    ops: Vec<ResizeOp>,
    direction: Direction,
}

impl Tap for ResizeTap {
    fn intercept(&mut self, ctx: &TapContext, batch: &mut Slots<'_>) {
        if ctx.direction != self.direction {
            return;
        }
        let had = batch.len();
        let mut entries: Vec<Vec<u8>> = (0..had).map(|i| batch.get(i).to_vec()).collect();
        apply_ops(&self.ops, &mut entries);
        for (i, entry) in entries.iter().enumerate() {
            if i < had {
                batch.set(i, entry);
            } else {
                batch.push(entry);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A tap's edits on a bare link leave exactly what the oracle
    /// builds from the model's vectors: the same count, the same `width`
    /// bytes in every slot, and zeros across the whole stride of every
    /// resized slot (past the width of every pushed one). Untouched
    /// slots keep their headroom. `tap_resized` counts the oracle's
    /// mismatches, except on the clients' request leg; the per-round
    /// log holds the batch as it arrived, before the tap.
    #[test]
    fn tap_edits_match_the_per_vec_oracle(
        count in 0usize..5,
        width in 1usize..48,
        headroom in 0usize..17,
        ops in proptest::collection::vec(resize_op(), 0..6),
        seed in any::<u64>(),
        on_clients_link in any::<bool>(),
        backward in any::<bool>(),
    ) {
        let stride = width + headroom;
        let mut rng = StdRng::seed_from_u64(seed);
        let payload: Vec<u8> = (0..count * stride).map(|_| rng.gen()).collect();
        let mut model: Vec<Vec<u8>> =
            payload.chunks(stride).map(|slot| slot[..width].to_vec()).collect();
        apply_ops(&ops, &mut model);
        let (oracle, mismatched) = RoundBuffer::from_vecs(&model, stride, width);

        let direction = if backward { Direction::Backward } else { Direction::Forward };
        let id = if on_clients_link { LinkId::Clients } else { LinkId::Hop(1) };
        let mut link = Link::new(id);
        link.attach_tap(Arc::new(Mutex::new(ResizeTap { ops, direction })));
        let mut frame = BatchFrame {
            link: id,
            round: RoundId(7),
            round_type: RoundType::Conversation,
            num_drops: 0,
            backward,
            stride: stride as u32,
            width: width as u32,
            count: count as u32,
            payload: payload.clone(),
            trailer: Vec::new(),
        };
        batch_through_link(&link, &mut frame).expect("the tap does not hang up");

        prop_assert_eq!(frame.count as usize, oracle.len());
        prop_assert_eq!(frame.payload.len(), oracle.len() * stride);
        for (i, slot) in frame.payload.chunks(stride).enumerate() {
            prop_assert_eq!(&slot[..width], oracle.slot(i), "slot {}", i);
            let headroom = &slot[width..];
            if i >= count || mismatched.contains(&i) {
                prop_assert!(headroom.iter().all(|&b| b == 0), "slot {} headroom", i);
            } else {
                prop_assert_eq!(headroom, &payload[i * stride + width..(i + 1) * stride]);
            }
        }
        let counted = if on_clients_link && !backward { 0 } else { mismatched.len() as u64 };
        prop_assert_eq!(link.tap_resized(), counted);
        prop_assert_eq!(
            link.round_traffic(7, direction),
            (count as u64, (count * width) as u64)
        );
    }
}

fn config() -> SystemConfig {
    SystemConfig {
        chain_len: 2,
        conversation_noise: NoiseDistribution::new(2.0, 1.0),
        dialing_noise: NoiseDistribution::new(1.0, 1.0),
        workers: 2,
        ..SystemConfig::default()
    }
}

/// Downstream of the clients leg, which the golden pins do not tap:
/// the entry admits every request a tap left (one truncated, one
/// extended, one injected at no onion's size), server 0 replaces the
/// three zero-filled slots with noise, every request gets one reply of
/// the one reply size, nothing is counted — and both drivers agree.
#[test]
fn clients_leg_resize_runs_alike_on_both_drivers() {
    let seed = 0xC11E;
    let pks = Chain::new(config(), seed).server_public_keys();
    let mut rng = StdRng::seed_from_u64(seed);
    let onions: Vec<Vec<u8>> = (0..3)
        .map(|_| {
            let payload = ExchangeRequest::noise(&mut rng).encode();
            onion::wrap(&mut rng, &pks, 0, &payload).0
        })
        .collect();
    let spec = || {
        let width = onion::wrapped_len(RoundKind::Conversation.payload_len(), 2);
        let batch = Batch::Flat(RoundBuffer::from_vecs(&onions, width, width).0);
        vec![RoundSpec::Conversation { round: 0, batch }]
    };
    let tap = || {
        let (index, new_len, extra, size) = (0, 100, 7, 77);
        let ops = vec![
            ResizeOp::Truncate { index, new_len },
            ResizeOp::Extend { index: 1, extra },
            ResizeOp::Inject { size },
        ];
        let direction = Direction::Forward;
        Arc::new(Mutex::new(ResizeTap { ops, direction }))
    };
    // (replies, tap_resized, slots server 0 replaced with noise)
    let tapped = |outcomes: Vec<RoundOutcome>, chain: &Chain| {
        let replies = outcomes[0].replies().expect("replies").to_vec();
        (
            replies,
            chain.tap_resized(),
            chain.server(0).malformed_replaced,
        )
    };

    let mut sequential = Chain::new(config(), seed);
    sequential.client_link_mut().attach_tap(tap());
    let ran = tapped(sequential.run(spec()).expect("completes"), &sequential);
    assert_eq!(ran.0.len(), 4, "one reply per admitted request");
    assert!(ran.0.windows(2).all(|w| w[0].len() == w[1].len()));
    assert_eq!((ran.1, ran.2), (0, 3), "uncounted, and replaced by noise");

    let mut streaming = StreamingChain::new(config(), seed);
    streaming.chain_mut().client_link_mut().attach_tap(tap());
    let outcomes = streaming.run(spec()).expect("completes");
    assert_eq!(tapped(outcomes, streaming.chain()), ran);
}

/// The rebuild invariant at the unit level: a resized entry's slot comes
/// back zero-filled (which downstream peeling rejects as a low-order
/// ephemeral), while well-sized neighbours are preserved bit for bit.
#[test]
fn rebuilt_slots_are_zero_filled() {
    let good = vec![0xAB; 100];
    let truncated = vec![0xCD; 40];
    let extended = vec![0xEF; 130];
    let (buf, mismatched) = RoundBuffer::from_vecs(&[good.clone(), truncated, extended], 120, 100);
    assert_eq!(mismatched, vec![1, 2]);
    assert_eq!(buf.slot(0), &good[..]);
    assert_eq!(buf.slot(1), vec![0u8; 100].as_slice());
    assert_eq!(buf.slot(2), vec![0u8; 100].as_slice());
}
