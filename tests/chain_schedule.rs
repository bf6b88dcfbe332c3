//! `Chain::run`'s seeded schedule: a window of rounds in flight on the
//! calling thread, one interleaving per chain seed.
//!
//! The schedule admits up to `chain_len` weighted rounds and delivers the
//! head of one `(link, direction)` FIFO at a time, drawn by an RNG seeded
//! from the chain seed. No round's bytes may depend on that draw: the
//! proptest holds a whole-schedule call to the same schedule fed one spec
//! per call (window 1) on every observable. And the draw must be
//! replayable: the same seed gives the same interleaving, different
//! seeds give different ones, and a crash aborts the same rounds every
//! time, at any worker count.

use parking_lot::Mutex;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use vuvuzela::adversary::taps::CrashOnRound;
use vuvuzela::core::chain::Batch;
use vuvuzela::core::server::RoundKind;
use vuvuzela::core::{Chain, RoundBuffer, RoundOutcome, RoundSpec, SystemConfig};
use vuvuzela::crypto::onion;
use vuvuzela::crypto::x25519::PublicKey;
use vuvuzela::dp::{NoiseDistribution, NoiseMode};
use vuvuzela::net::link::Direction;
use vuvuzela::net::{LinkId, Slots, Tap, TapContext};
use vuvuzela::wire::conversation::ExchangeRequest;
use vuvuzela::wire::deaddrop::InvitationDropIndex;
use vuvuzela::wire::dialing::DialRequest;

const NUM_DROPS: u32 = 2;

fn config(chain_len: usize, workers: usize) -> SystemConfig {
    SystemConfig {
        chain_len,
        conversation_noise: NoiseDistribution::new(2.0, 1.0),
        dialing_noise: NoiseDistribution::new(2.0, 1.0),
        noise_mode: NoiseMode::Deterministic,
        workers,
        conversation_slots: 1,
        retransmit_after: 2,
        exchange_shards: 4,
    }
}

/// One spec per `(dialing, clients)` pair, rounds from 0: noise
/// requests onion-wrapped for `pks`, laid into the round's arena.
fn schedule(pks: &[PublicKey], rounds: &[(bool, usize)], seed: u64) -> Vec<RoundSpec> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5C4E);
    (0u64..)
        .zip(rounds)
        .map(|(round, &(dialing, clients))| {
            let kind = if dialing {
                RoundKind::Dialing {
                    num_drops: NUM_DROPS,
                }
            } else {
                RoundKind::Conversation
            };
            let onions: Vec<Vec<u8>> = (0..clients)
                .map(|_| {
                    let payload = if dialing {
                        DialRequest::noop(&mut rng).encode()
                    } else {
                        ExchangeRequest::noise(&mut rng).encode()
                    };
                    onion::wrap(&mut rng, pks, round, &payload).0
                })
                .collect();
            let width = onion::wrapped_len(kind.payload_len(), pks.len());
            let batch = Batch::Flat(RoundBuffer::from_vecs(&onions, width, width).0);
            if dialing {
                RoundSpec::Dialing {
                    round,
                    batch,
                    num_drops: NUM_DROPS,
                }
            } else {
                RoundSpec::Conversation { round, batch }
            }
        })
        .collect()
}

/// Resizes entries on the link it taps, as a function of the batch
/// alone: forward it truncates the first entry, backward it extends the
/// second reply. Downstream hops replace what it breaks.
struct Resize;

impl Tap for Resize {
    fn intercept(&mut self, ctx: &TapContext, batch: &mut Slots<'_>) {
        match ctx.direction {
            Direction::Forward if !batch.is_empty() => {
                let truncated = batch.get(0)[..batch.width() / 2].to_vec();
                batch.set(0, &truncated);
            }
            Direction::Backward if batch.len() > 1 => {
                batch.set(1, &[batch.get(1), &[0xEE; 3]].concat());
            }
            _ => {}
        }
    }
}

/// The schedule fed one spec per call: window 1, the carry loop.
fn one_per_call(chain: &mut Chain, specs: Vec<RoundSpec>) -> Vec<RoundOutcome> {
    specs
        .into_iter()
        .map(|spec| chain.run(vec![spec]).expect("round completes").remove(0))
        .collect()
}

/// Every observable of `got` and `want` agrees: replies, both
/// observables logs, every retained invitation drop, every link's
/// per-round traffic log, and the tamper counters.
fn assert_same_bytes(
    got: (&Chain, &[RoundOutcome]),
    want: (&Chain, &[RoundOutcome]),
) -> Result<(), TestCaseError> {
    let ((got, got_outcomes), (want, want_outcomes)) = (got, want);
    prop_assert_eq!(got_outcomes.len(), want_outcomes.len());
    for (round, (g, w)) in got_outcomes.iter().zip(want_outcomes).enumerate() {
        prop_assert_eq!(g.replies(), w.replies(), "round {} replies", round);
    }
    prop_assert_eq!(
        got.conversation_observables(),
        want.conversation_observables()
    );
    prop_assert_eq!(got.dialing_observables(), want.dialing_observables());
    let num_drops = |chain: &Chain| {
        let tail = chain.server(chain.config().chain_len - 1);
        tail.invitation_drops().map(|(_, drops)| drops.num_drops())
    };
    prop_assert_eq!(num_drops(got), num_drops(want));
    for drop in 1..=NUM_DROPS {
        let index = InvitationDropIndex(drop);
        prop_assert_eq!(
            got.download_drop(index),
            want.download_drop(index),
            "drop {}",
            drop
        );
    }
    let links = |chain: &Chain| {
        std::iter::once(chain.client_link().round_traffic_log())
            .chain(chain.links().iter().map(|link| link.round_traffic_log()))
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(links(got), links(want));
    prop_assert_eq!(got.tap_resized(), want.tap_resized());
    for i in 0..got.config().chain_len {
        prop_assert_eq!(
            got.server(i).malformed_replaced,
            want.server(i).malformed_replaced
        );
        prop_assert_eq!(got.server(i).in_flight_rounds(), 0);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Windows 1–4, any chain seed, any mix of conversation and dialing
    /// rounds of any batch size, a resizing tap on one hop link: the
    /// whole-schedule call computes exactly what one spec per call does.
    #[test]
    fn windowed_schedule_equals_one_spec_per_call(
        chain_len in 1usize..=4,
        seed in any::<u64>(),
        // Per round: odd dials, and `/ 2` clients send.
        rounds in collection::vec(0usize..8, 2..=6),
        tapped in 0usize..4,
    ) {
        let (mut windowed, mut reference) = (
            Chain::new(config(chain_len, 2), seed),
            Chain::new(config(chain_len, 2), seed),
        );
        let tapped = tapped % chain_len;
        windowed.link_mut(tapped).attach_tap(Arc::new(Mutex::new(Resize)));
        reference.link_mut(tapped).attach_tap(Arc::new(Mutex::new(Resize)));
        let rounds: Vec<(bool, usize)> = rounds.iter().map(|&r| (r % 2 == 1, r / 2)).collect();
        let specs = schedule(&windowed.server_public_keys(), &rounds, seed);

        let got = windowed.run(specs.clone()).expect("schedule completes");
        let want = one_per_call(&mut reference, specs);
        assert_same_bytes((&windowed, &got), (&reference, &want))?;
    }
}

/// One crossing as a tap sees it: link, round, direction.
type Crossing = (LinkId, u64, Direction);

/// Logs every crossing of every link it taps, in the order they happen.
#[derive(Default)]
struct Trace(Vec<Crossing>);

impl Tap for Trace {
    fn intercept(&mut self, ctx: &TapContext, _batch: &mut Slots<'_>) {
        self.0.push((ctx.link, ctx.round, ctx.direction));
    }
}

/// Conversation and dialing rounds, dialing both adjacent and apart.
const MIXED: [(bool, usize); 6] = [
    (false, 3),
    (true, 2),
    (false, 2),
    (false, 3),
    (true, 1),
    (false, 2),
];

/// The crossings of the six-round mixed chain-3 schedule on a chain
/// seeded with `seed`, a trace tap on the clients link and every hop link.
fn trace(seed: u64) -> Vec<Crossing> {
    let mut chain = Chain::new(config(3, 2), seed);
    let specs = schedule(&chain.server_public_keys(), &MIXED, seed);
    let trace = Arc::new(Mutex::new(Trace::default()));
    chain.client_link_mut().attach_tap(trace.clone());
    for link in 0..3 {
        chain.link_mut(link).attach_tap(trace.clone());
    }
    chain.run(specs).expect("schedule completes");
    let crossings = std::mem::take(&mut trace.lock().0);
    crossings
}

#[test]
fn a_seed_replays_its_interleaving_and_seeds_differ() {
    let first = trace(7);
    assert_eq!(trace(7), first, "the same seed replays the same crossings");
    // Every conversation round crosses 4 links both ways, every dialing
    // round 4 links forward (its completion frame carries no slots).
    assert_eq!(first.len(), 4 * 8 + 2 * 4);

    let traces: Vec<Vec<Crossing>> = (0..16).map(trace).collect();
    assert!(
        traces.iter().any(|other| *other != traces[0]),
        "seeds 0–15 all gave one interleaving: the scheduler never chose"
    );
}

#[test]
fn a_crash_aborts_the_same_rounds_every_run_at_any_worker_count() {
    let seed = 41;
    let abort = |workers: usize| {
        let mut chain = Chain::new(config(3, workers), seed);
        let specs = schedule(&chain.server_public_keys(), &MIXED, seed);
        chain
            .link_mut(1)
            .attach_tap(Arc::new(Mutex::new(CrashOnRound::new(3))));
        let abort = chain.run(specs).expect_err("round 3 crashes hop 1's link");
        (abort.rounds, abort.cause.to_string())
    };
    let first = abort(2);
    let want = (
        vec![3, 4, 5],
        "peer on server0->server1 disconnected".to_string(),
    );
    assert_eq!(first, want);
    for workers in [2, 2, 1, 1] {
        assert_eq!(abort(workers), first, "workers {workers}");
    }
}
