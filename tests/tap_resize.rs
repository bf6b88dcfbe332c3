//! Property tests for the tap-resize path, under both drivers of the
//! hop protocol: the sequential [`Chain`] (the hop handler on the
//! calling thread, one round at a time) and [`StreamingChain`] (the node
//! loops on threads over in-memory links). Either way every batch — the
//! round's client arena on the clients link included — crosses a link
//! through the one `batch_through_link`.
//!
//! Adversary taps receive in-flight batches by mutable reference and may
//! truncate entries, extend them, or inject new ones ("monitor, block,
//! delay, or inject", §2.3). The flat round pipeline rebuilds the batch
//! into its fixed-stride arena afterwards: entries whose size no longer
//! matches the hop's onion width **cannot** be valid onions, so their
//! slots are rebuilt zero-filled (an all-zero ephemeral key is low-order
//! and fails the peel), and the count of such entries is surfaced on
//! [`Chain::tap_resized`] — except on the clients→entry request leg,
//! where sizes are client-controlled and a mismatch cannot be pinned on
//! the tap. These tests pin down that contract: alignment survives
//! arbitrary resizing, every resized entry is zero-filled and (past the
//! entry) counted, every zero-filled slot is replaced by substitute
//! noise downstream, the round still completes with one uniform reply
//! per client — and the two drivers yield the same replies, slots, count
//! and replacements for every generated op list.

use parking_lot::Mutex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use vuvuzela::core::chain::Batch;
use vuvuzela::core::entry;
use vuvuzela::core::server::RoundKind;
use vuvuzela::core::{Chain, RoundBuffer, RoundSpec, StreamingChain, SystemConfig};
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

/// Copies every batch crossing the link it sits on, byte for byte.
#[derive(Default)]
struct Recorder(Vec<Vec<Vec<u8>>>);

impl Tap for Recorder {
    fn intercept(&mut self, _ctx: &TapContext, batch: &mut Vec<Vec<u8>>) {
        self.0.push(batch.clone());
    }
}

/// Which link the tap sits on.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Leg {
    /// links[1] (server 0 → server 1).
    Hop1,
    /// The clients link, where the entry admits the round's arena.
    Clients,
}

/// What one tapped round leaves behind, whichever driver ran it.
#[derive(Debug, PartialEq)]
struct Tapped {
    replies: Vec<Vec<u8>>,
    /// Entry sizes as the tap left them.
    sizes_after: Vec<usize>,
    tap_resized: u64,
    /// Slots the server just past the tapped link replaced with
    /// substitute noise.
    malformed_replaced: u64,
    /// The forward batch as it crossed links[0] into server 0.
    arrived_at_hop0: Vec<Vec<u8>>,
}

/// Runs one conversation round through a two-server chain with `ops`
/// applied to the first `direction` batch crossing the `leg`'s link, on
/// the sequential chain or the streaming one.
fn tapped_round(
    streaming: bool,
    seed: u64,
    round: u64,
    batch: Vec<Vec<u8>>,
    ops: &[ResizeOp],
    direction: Direction,
    leg: Leg,
) -> Tapped {
    let tap = Arc::new(Mutex::new(ResizeTap {
        ops: ops.to_vec(),
        direction,
        sizes_after: None,
    }));
    let hop0 = Arc::new(Mutex::new(Recorder::default()));
    let mut arena = entry::round_arena(RoundKind::Conversation, 2);
    entry::multiplex(&mut arena, &[batch]);
    let batch = Batch::Flat(arena);
    let attach = |chain: &mut Chain| {
        match leg {
            Leg::Hop1 => chain.link_mut(1).attach_tap(tap.clone()),
            Leg::Clients => chain.client_link_mut().attach_tap(tap.clone()),
        }
        chain.link_mut(0).attach_tap(hop0.clone());
    };
    let left_behind = |replies: &[Vec<u8>], chain: &Chain| Tapped {
        replies: replies.to_vec(),
        sizes_after: tap.lock().sizes_after.clone().expect("tap ran"),
        tap_resized: chain.tap_resized(),
        malformed_replaced: chain
            .server(usize::from(leg == Leg::Hop1))
            .malformed_replaced,
        arrived_at_hop0: hop0.lock().0[0].clone(),
    };
    let spec = RoundSpec::Conversation { round, batch };
    if streaming {
        let mut chain = StreamingChain::new(config(2, 2.0), seed);
        attach(chain.chain_mut());
        let outcome = chain.run(vec![spec]).expect("schedule completes").remove(0);
        left_behind(outcome.replies().expect("replies"), chain.chain())
    } else {
        let mut chain = Chain::new(config(2, 2.0), seed);
        attach(&mut chain);
        let outcome = chain.run(vec![spec]).expect("round completes").remove(0);
        left_behind(outcome.replies().expect("replies"), &chain)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Forward-path resizing: the rebuilt arena zero-fills every
    /// mismatched entry, `tap_resized` counts exactly those (none on the
    /// clients link, where the entry admits the round's arena), downstream
    /// peeling replaces them with noise, and reply alignment holds.
    #[test]
    fn forward_resize_yields_counted_zero_filled_slots(
        clients in 1usize..5,
        ops in proptest::collection::vec(resize_op(), 0..6),
        seed in any::<u64>(),
        on_clients_link in any::<bool>(),
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

        // The width expected on the tapped link: the full onion on the
        // clients link, one layer already peeled on links[1] (server0 →
        // server1).
        let (leg, width) = if on_clients_link {
            (Leg::Clients, onion::wrapped_len(EXCHANGE_REQUEST_LEN, chain_len))
        } else {
            (Leg::Hop1, onion::wrapped_len(EXCHANGE_REQUEST_LEN, chain_len - 1))
        };

        let ran = tapped_round(false, seed, 0, batch.clone(), &ops, Direction::Forward, leg);

        // Alignment: one uniform-size reply per client, no matter what
        // the tap did mid-chain (per request the entry admitted, if the
        // tap added some before it).
        let requests = if on_clients_link { ran.sizes_after.len() } else { clients };
        prop_assert_eq!(ran.replies.len(), requests);
        let sizes: std::collections::HashSet<usize> = ran.replies.iter().map(Vec::len).collect();
        prop_assert!(sizes.len() <= 1, "non-uniform replies: {:?}", sizes);

        // The surfaced count equals the number of entries whose post-tap
        // size cannot be a valid onion at this hop — past the entry; the
        // request leg's sizes are the clients' own.
        let expected_resized = ran.sizes_after.iter().filter(|&&len| len != width).count() as u64;
        let counted = if on_clients_link { 0 } else { expected_resized };
        prop_assert_eq!(ran.tap_resized, counted, "sizes {:?}", &ran.sizes_after);

        // A resized request arrives at hop 0 as a zero-filled slot.
        if on_clients_link {
            prop_assert_eq!(ran.arrived_at_hop0.len(), ran.sizes_after.len());
            for (slot, &len) in ran.arrived_at_hop0.iter().zip(&ran.sizes_after) {
                if len != width {
                    prop_assert_eq!(slot, &vec![0u8; width]);
                }
            }
        }

        // Every zero-filled slot fails authentication downstream and is
        // replaced by substitute noise (well-sized injections fail too,
        // so the replacement count is at least the resized count).
        prop_assert!(ran.malformed_replaced >= expected_resized);

        // The node loops over an in-memory link: same rebuilt slots —
        // hence the same replacements and replies — and the same count.
        let streamed = tapped_round(true, seed, 0, batch, &ops, Direction::Forward, leg);
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

        let ran = tapped_round(false, seed, 1, batch.clone(), &ops, Direction::Backward, Leg::Hop1);
        prop_assert_eq!(ran.replies.len(), clients);
        let sizes: std::collections::HashSet<usize> = ran.replies.iter().map(Vec::len).collect();
        prop_assert!(sizes.len() <= 1, "non-uniform replies: {:?}", sizes);

        // Whatever the tap resized was counted (entries it left at the
        // correct reply width are not).
        let reply_width = vuvuzela::wire::EXCHANGE_RESPONSE_LEN + onion::REPLY_LAYER_OVERHEAD;
        let expected_resized =
            ran.sizes_after.iter().filter(|&&len| len != reply_width).count() as u64;
        prop_assert_eq!(ran.tap_resized, expected_resized);

        let streamed = tapped_round(true, seed, 1, batch, &ops, Direction::Backward, Leg::Hop1);
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
