//! Property tests for the tap-resize path, under both drivers of the
//! round engine: the sequential [`Chain`] (arenas cross links through
//! `transmit_buf`) and [`StreamingChain`] (the node loops; frames cross
//! in-memory links through `batch_through_link`).
//!
//! Adversary taps receive in-flight batches by mutable reference and may
//! truncate entries, extend them, or inject new ones ("monitor, block,
//! delay, or inject", §2.3). The flat round pipeline rebuilds the batch
//! into its fixed-stride arena afterwards: entries whose size no longer
//! matches the hop's onion width **cannot** be valid onions, so their
//! slots are rebuilt zero-filled (an all-zero ephemeral key is low-order
//! and fails the peel), and the count of such entries is surfaced on
//! [`Chain::tap_resized`]. These tests pin down that contract: alignment
//! survives arbitrary resizing, every resized entry is counted, every
//! zero-filled slot is replaced by substitute noise downstream, the
//! round still completes with one uniform reply per client — and the
//! streaming driver yields the same replies, count and replacements as
//! the sequential one for every generated op list.

use parking_lot::Mutex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use vuvuzela::core::{Chain, RoundBuffer, StreamingChain, SystemConfig};
use vuvuzela::crypto::onion;
use vuvuzela::dp::{NoiseDistribution, NoiseMode};
use vuvuzela::net::link::Direction;
use vuvuzela::net::{Tap, TapContext};
use vuvuzela::wire::conversation::ExchangeRequest;
use vuvuzela::wire::EXCHANGE_REQUEST_LEN;

fn config(chain_len: usize, mu: f64) -> SystemConfig {
    SystemConfig {
        chain_len,
        conversation_noise: NoiseDistribution::new(mu, 1.0),
        dialing_noise: NoiseDistribution::new(1.0, 1.0),
        noise_mode: NoiseMode::Deterministic,
        workers: 2,
        conversation_slots: 1,
        retransmit_after: 2,
        exchange_shards: 4,
    }
}

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

/// Applies a fixed op list to the first batch it sees in the configured
/// direction (one round per test run), remembering the resulting sizes.
struct ResizeTap {
    ops: Vec<ResizeOp>,
    direction: Direction,
    sizes_after: Option<Vec<usize>>,
}

impl Tap for ResizeTap {
    fn intercept(&mut self, ctx: &TapContext, batch: &mut Vec<Vec<u8>>) {
        if ctx.direction == self.direction && self.sizes_after.is_none() {
            apply_ops(&self.ops, batch);
            self.sizes_after = Some(batch.iter().map(Vec::len).collect());
        }
    }
}

/// What one tapped round leaves behind, whichever driver ran it.
#[derive(Debug, PartialEq)]
struct Tapped {
    replies: Vec<Vec<u8>>,
    /// Entry sizes as the tap left them.
    sizes_after: Vec<usize>,
    tap_resized: u64,
    /// Slots server 1 replaced with substitute noise.
    malformed_replaced: u64,
}

/// Runs one conversation round through a two-server chain with `ops`
/// applied to the first `direction` batch crossing links[1] (server 0 →
/// server 1), on the sequential chain or the streaming one.
fn tapped_round(
    streaming: bool,
    seed: u64,
    round: u64,
    batch: Vec<Vec<u8>>,
    ops: &[ResizeOp],
    direction: Direction,
) -> Tapped {
    let tap = Arc::new(Mutex::new(ResizeTap {
        ops: ops.to_vec(),
        direction,
        sizes_after: None,
    }));
    let left_behind = |replies: Vec<Vec<u8>>, chain: &Chain| Tapped {
        replies,
        sizes_after: tap.lock().sizes_after.clone().expect("tap ran"),
        tap_resized: chain.tap_resized(),
        malformed_replaced: chain.server(1).malformed_replaced,
    };
    if streaming {
        let mut chain = StreamingChain::new(config(2, 2.0), seed);
        chain.chain_mut().link_mut(1).attach_tap(tap.clone());
        let (replies, _) = chain
            .run_conversation_rounds(vec![(round, batch)])
            .remove(0);
        left_behind(replies, chain.chain())
    } else {
        let mut chain = Chain::new(config(2, 2.0), seed);
        chain.link_mut(1).attach_tap(tap.clone());
        let (replies, _) = chain.run_conversation_round(round, batch);
        left_behind(replies, &chain)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Forward-path resizing: the rebuilt arena zero-fills every
    /// mismatched entry, `tap_resized` counts exactly those, downstream
    /// peeling replaces them with noise, and reply alignment holds.
    #[test]
    fn forward_resize_yields_counted_zero_filled_slots(
        clients in 1usize..5,
        ops in proptest::collection::vec(resize_op(), 0..6),
        seed in any::<u64>(),
    ) {
        let chain_len = 2;
        let pks = Chain::new(config(chain_len, 2.0), seed).server_public_keys();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7A9);

        let batch: Vec<Vec<u8>> = (0..clients)
            .map(|_| {
                let payload = ExchangeRequest::noise(&mut rng).encode();
                onion::wrap(&mut rng, &pks, 0, &payload).0
            })
            .collect();

        // The width expected on links[1] (server0 → server1): one layer
        // already peeled.
        let width = onion::wrapped_len(EXCHANGE_REQUEST_LEN, chain_len - 1);

        let ran = tapped_round(false, seed, 0, batch.clone(), &ops, Direction::Forward);

        // Alignment: one uniform-size reply per client, no matter what
        // the tap did mid-chain.
        prop_assert_eq!(ran.replies.len(), clients);
        let sizes: std::collections::HashSet<usize> = ran.replies.iter().map(Vec::len).collect();
        prop_assert!(sizes.len() <= 1, "non-uniform replies: {:?}", sizes);

        // The surfaced count equals the number of entries whose post-tap
        // size cannot be a valid onion at this hop.
        let expected_resized = ran.sizes_after.iter().filter(|&&len| len != width).count() as u64;
        prop_assert_eq!(ran.tap_resized, expected_resized, "sizes {:?}", &ran.sizes_after);

        // Every zero-filled slot fails authentication downstream and is
        // replaced by substitute noise (well-sized injections fail too,
        // so the replacement count is at least the resized count).
        prop_assert!(ran.malformed_replaced >= expected_resized);

        // The node loops over an in-memory link: same rebuilt slots —
        // hence the same replacements and replies — and the same count.
        let streamed = tapped_round(true, seed, 0, batch, &ops, Direction::Forward);
        prop_assert_eq!(streamed, ran);
    }

    /// Backward-path resizing: reply batches whose shape changed make
    /// the upstream server emit uniform filler for every client rather
    /// than misrouting plaintext; resized entries are still counted.
    #[test]
    fn backward_resize_keeps_alignment(
        clients in 1usize..5,
        ops in proptest::collection::vec(resize_op(), 1..5),
        seed in any::<u64>(),
    ) {
        let pks = Chain::new(config(2, 2.0), seed).server_public_keys();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB4C);

        let batch: Vec<Vec<u8>> = (0..clients)
            .map(|_| {
                let payload = ExchangeRequest::noise(&mut rng).encode();
                onion::wrap(&mut rng, &pks, 1, &payload).0
            })
            .collect();

        let ran = tapped_round(false, seed, 1, batch.clone(), &ops, Direction::Backward);
        prop_assert_eq!(ran.replies.len(), clients);
        let sizes: std::collections::HashSet<usize> = ran.replies.iter().map(Vec::len).collect();
        prop_assert!(sizes.len() <= 1, "non-uniform replies: {:?}", sizes);

        // Whatever the tap resized was counted (entries it left at the
        // correct reply width are not).
        let reply_width = vuvuzela::wire::EXCHANGE_RESPONSE_LEN + onion::REPLY_LAYER_OVERHEAD;
        let expected_resized =
            ran.sizes_after.iter().filter(|&&len| len != reply_width).count() as u64;
        prop_assert_eq!(ran.tap_resized, expected_resized);

        let streamed = tapped_round(true, seed, 1, batch, &ops, Direction::Backward);
        prop_assert_eq!(streamed, ran);
    }
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
