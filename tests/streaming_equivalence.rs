//! Property tests: the threaded round scheduler is byte-identical to
//! the chain run one round at a time.
//!
//! [`StreamingChain`] overlaps hops across a weighted window of
//! in-flight rounds on one thread per node; nothing observable may change
//! relative to feeding the same rounds to [`Chain`] one per call (window
//! 1, one frame in flight): per-round replies,
//! dead-drop observables, dialing drops, per-round link traffic, and
//! tap-visible batches must all agree for equal seeds — across chain
//! lengths, batch sizes, noise levels, schedules of ≥3 overlapped
//! rounds, and *mixed* conversation+dialing interleavings. A crashed
//! server ends a run the same way in both: an `Abort`, after which the
//! deployment recovers to the bytes of a fresh one.

use parking_lot::Mutex;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;
use vuvuzela::adversary::taps::CrashOnRound;
use vuvuzela::core::chain::Batch;
use vuvuzela::core::pipeline::StreamingChain;
use vuvuzela::core::record::{NodeId, Phase, Traffic};
use vuvuzela::core::server::RoundKind;
use vuvuzela::core::{Chain, RoundBuffer, RoundOutcome, RoundSpec, SystemConfig};
use vuvuzela::crypto::onion;
use vuvuzela::crypto::x25519::PublicKey;
use vuvuzela::dp::{NoiseDistribution, NoiseMode};
use vuvuzela::net::link::Direction;
use vuvuzela::net::{Error, LinkId, Slots, Tap, TapContext};
use vuvuzela::wire::conversation::ExchangeRequest;

fn config(chain_len: usize, mu: f64) -> SystemConfig {
    SystemConfig {
        chain_len,
        conversation_noise: NoiseDistribution::new(mu, 1.0),
        dialing_noise: NoiseDistribution::new(2.0, 1.0),
        noise_mode: NoiseMode::Deterministic,
        workers: 2,
        conversation_slots: 1,
        retransmit_after: 2,
        exchange_shards: 4,
    }
}

/// Lays per-message onions into a `kind` round's arena over `chain_len`
/// servers.
fn arena(kind: RoundKind, chain_len: usize, onions: Vec<Vec<u8>>) -> Batch {
    let width = onion::wrapped_len(kind.payload_len(), chain_len);
    Batch::Flat(RoundBuffer::from_vecs(&onions, width, width).0)
}

fn client_rounds(pks: &[PublicKey], rounds: usize, clients: usize, seed: u64) -> Vec<RoundSpec> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC11E);
    (0..rounds as u64)
        .map(|round| {
            let onions = (0..clients)
                .map(|_| {
                    let payload = ExchangeRequest::noise(&mut rng).encode();
                    onion::wrap(&mut rng, pks, round, &payload).0
                })
                .collect();
            let batch = arena(RoundKind::Conversation, pks.len(), onions);
            RoundSpec::Conversation { round, batch }
        })
        .collect()
}

/// Runs `specs` on both chains: the streaming outcomes, then the
/// sequential ones, one spec per call.
fn run_both(
    streaming: &mut StreamingChain,
    sequential: &mut Chain,
    specs: Vec<RoundSpec>,
) -> (Vec<RoundOutcome>, Vec<RoundOutcome>) {
    let streamed = streaming.run(specs.clone()).expect("schedule completes");
    (streamed, one_per_call(sequential, specs))
}

/// Feeds `specs` to `chain` one per call: window 1, the carry loop.
fn one_per_call(chain: &mut Chain, specs: Vec<RoundSpec>) -> Vec<RoundOutcome> {
    specs
        .into_iter()
        .map(|spec| chain.run(vec![spec]).expect("round completes").remove(0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The acceptance-criterion property: ≥3 in-flight rounds, replies
    /// and every observable byte-identical to the sequential reference.
    #[test]
    fn streaming_equals_sequential(
        chain_len in 1usize..=3,
        rounds in 3usize..=5,
        clients in 0usize..6,
        mu in 0u32..4,
        seed in any::<u64>(),
    ) {
        let mut streaming = StreamingChain::new(config(chain_len, f64::from(mu)), seed);
        let mut sequential = Chain::new(config(chain_len, f64::from(mu)), seed);
        let pks = streaming.chain().server_public_keys();
        prop_assert_eq!(&pks, &sequential.server_public_keys());

        let schedule = client_rounds(&pks, rounds, clients, seed);
        let (streamed, expected) = run_both(&mut streaming, &mut sequential, schedule);

        // Per-round replies, byte for byte.
        prop_assert_eq!(streamed.len(), expected.len());
        for (round, (got, want)) in streamed.iter().zip(&expected).enumerate() {
            prop_assert_eq!(got.replies(), want.replies(), "round {} replies diverged", round);
        }

        // Dead-drop observables (sorted by round — completion order may
        // legitimately differ from log order only in timing, not value).
        let mut got_obs = streaming.chain().conversation_observables().to_vec();
        got_obs.sort_by_key(|(r, _)| *r);
        prop_assert_eq!(&got_obs[..], sequential.conversation_observables());

        // Per-round, per-direction link traffic on every hop.
        for (sl, ql) in streaming.chain().links().iter().zip(sequential.links()) {
            for round in 0..rounds as u64 {
                for direction in [Direction::Forward, Direction::Backward] {
                    prop_assert_eq!(
                        sl.round_traffic(round, direction),
                        ql.round_traffic(round, direction),
                        "link {} round {} {:?}", sl.id(), round, direction
                    );
                }
            }
        }
        prop_assert_eq!(
            streaming.chain().total_server_bytes(),
            sequential.total_server_bytes()
        );
        prop_assert_eq!(
            streaming.chain().client_link().total_bytes(),
            sequential.client_link().total_bytes()
        );

        // No round state leaks once the schedule drains.
        for i in 0..chain_len {
            prop_assert_eq!(streaming.chain().server(i).in_flight_rounds(), 0);
        }
    }

    /// Dialing schedules: invitation drops and observables agree.
    #[test]
    fn streaming_dialing_equals_sequential(
        chain_len in 1usize..=3,
        rounds in 3usize..=4,
        clients in 0usize..4,
        seed in any::<u64>(),
    ) {
        let num_drops = 2u32;
        let mut streaming = StreamingChain::new(config(chain_len, 2.0), seed);
        let mut sequential = Chain::new(config(chain_len, 2.0), seed);
        let pks = streaming.chain().server_public_keys();

        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1A1);
        let kind = RoundKind::Dialing { num_drops };
        let schedule: Vec<RoundSpec> = (0..rounds as u64)
            .map(|round| {
                let onions = (0..clients)
                    .map(|_| {
                        let payload =
                            vuvuzela::wire::dialing::DialRequest::noop(&mut rng).encode();
                        onion::wrap(&mut rng, &pks, round, &payload).0
                    })
                    .collect();
                let batch = arena(kind, chain_len, onions);
                RoundSpec::Dialing { round, batch, num_drops }
            })
            .collect();

        let (streamed, _) = run_both(&mut streaming, &mut sequential, schedule);
        prop_assert_eq!(streamed.len(), rounds);

        let mut got = streaming.chain().dialing_observables().to_vec();
        got.sort_by_key(|(r, _)| *r);
        prop_assert_eq!(&got[..], sequential.dialing_observables());

        for drop in 1..=num_drops {
            let index = vuvuzela::wire::deaddrop::InvitationDropIndex(drop);
            prop_assert_eq!(
                streaming.download_drop(index),
                sequential.download_drop(index),
                "drop {} diverged", drop
            );
        }
    }
}

/// Builds an interleaved conversation+dialing schedule from a pattern of
/// per-round dialing flags.
fn mixed_specs(
    pks: &[PublicKey],
    pattern: &[bool],
    clients: usize,
    num_drops: u32,
    seed: u64,
) -> Vec<RoundSpec> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x313D);
    pattern
        .iter()
        .enumerate()
        .map(|(round, &dialing)| {
            let round = round as u64;
            if dialing {
                let onions = (0..clients)
                    .map(|_| {
                        let payload = vuvuzela::wire::dialing::DialRequest::noop(&mut rng).encode();
                        onion::wrap(&mut rng, pks, round, &payload).0
                    })
                    .collect();
                RoundSpec::Dialing {
                    round,
                    batch: arena(RoundKind::Dialing { num_drops }, pks.len(), onions),
                    num_drops,
                }
            } else {
                let onions = (0..clients)
                    .map(|_| {
                        let payload = ExchangeRequest::noise(&mut rng).encode();
                        onion::wrap(&mut rng, pks, round, &payload).0
                    })
                    .collect();
                RoundSpec::Conversation {
                    round,
                    batch: arena(RoundKind::Conversation, pks.len(), onions),
                }
            }
        })
        .collect()
}

/// Asserts every observable of a mixed schedule agrees between the
/// streaming and sequential chains: per-round replies, conversation and
/// dialing observables, the retained invitation drops, and each link's
/// *entire* per-round traffic log.
fn assert_mixed_equivalent(
    streaming: &mut StreamingChain,
    sequential: &mut Chain,
    outcomes: &[RoundOutcome],
    expected: &[RoundOutcome],
    num_drops: u32,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(outcomes.len(), expected.len());
    for (round, (got, want)) in outcomes.iter().zip(expected).enumerate() {
        prop_assert_eq!(
            got.replies(),
            want.replies(),
            "round {} replies diverged",
            round
        );
    }

    let mut got_obs = streaming.chain().conversation_observables().to_vec();
    got_obs.sort_by_key(|(r, _)| *r);
    prop_assert_eq!(&got_obs[..], sequential.conversation_observables());
    let mut got_dial = streaming.chain().dialing_observables().to_vec();
    got_dial.sort_by_key(|(r, _)| *r);
    prop_assert_eq!(&got_dial[..], sequential.dialing_observables());

    // The retained drops come from the *last* dialing round in feed
    // order, matching the sequential chain's overwrite semantics.
    let num_drops_kept = |chain: &Chain| {
        let tail = chain.server(chain.config().chain_len - 1);
        tail.invitation_drops().map(|(_, drops)| drops.num_drops())
    };
    prop_assert_eq!(
        num_drops_kept(streaming.chain()),
        num_drops_kept(sequential)
    );
    for drop in 1..=num_drops {
        let index = vuvuzela::wire::deaddrop::InvitationDropIndex(drop);
        prop_assert_eq!(
            streaming.download_drop(index),
            sequential.download_drop(index),
            "drop {} diverged",
            drop
        );
    }

    // Entire per-round traffic logs per link (catches both diverging
    // counts and spuriously attributed rounds).
    for (sl, ql) in streaming.chain().links().iter().zip(sequential.links()) {
        prop_assert_eq!(
            sl.round_traffic_log(),
            ql.round_traffic_log(),
            "link {} per-round log diverged",
            sl.id()
        );
    }
    prop_assert_eq!(
        streaming.chain().client_link().round_traffic_log(),
        sequential.client_link().round_traffic_log()
    );
    prop_assert_eq!(
        streaming.chain().total_server_bytes(),
        sequential.total_server_bytes()
    );

    // No round state leaks once the schedule drains.
    for i in 0..streaming.chain().config().chain_len {
        prop_assert_eq!(streaming.chain().server(i).in_flight_rounds(), 0);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The mixed-schedule acceptance property: an arbitrary interleaving
    /// of conversation and dialing rounds, overlapped `chain_len` deep
    /// (the most the entry admits), is byte-identical to the sequential
    /// chain run over the same [`RoundSpec`] sequence.
    #[test]
    fn streaming_mixed_equals_sequential(
        chain_len in 1usize..=3,
        pattern in collection::vec(any::<bool>(), 4..=7),
        clients in 0usize..4,
        seed in any::<u64>(),
    ) {
        let num_drops = 2u32;
        let mut streaming = StreamingChain::new(config(chain_len, 2.0), seed);
        let mut sequential = Chain::new(config(chain_len, 2.0), seed);
        let pks = streaming.chain().server_public_keys();

        let specs = mixed_specs(&pks, &pattern, clients, num_drops, seed);
        let (outcomes, expected) = run_both(&mut streaming, &mut sequential, specs);
        assert_mixed_equivalent(&mut streaming, &mut sequential, &outcomes, &expected, num_drops)?;
    }
}

/// Deterministic mixed schedule with dialing rounds both adjacent and
/// separated, real invitations included, at chain 1 to 3 with as many
/// rounds in flight as servers (≥3 at chain 3): replies, `dialing_log`,
/// and `download_drop` all match the sequential reference.
#[test]
fn mixed_schedule_adjacent_and_separated_dialing() {
    for chain_len in 1..=3 {
        let seed = 2026;
        let num_drops = 2u32;
        let mut streaming =
            StreamingChain::new(config(chain_len, 3.0), seed).with_max_in_flight(chain_len);
        let mut sequential = Chain::new(config(chain_len, 3.0), seed);
        let pks = streaming.chain().server_public_keys();
        let mut rng = StdRng::seed_from_u64(99);

        let caller = vuvuzela::crypto::x25519::Keypair::generate(&mut rng);
        let callee = vuvuzela::crypto::x25519::Keypair::generate(&mut rng);
        let target =
            vuvuzela::wire::deaddrop::InvitationDropIndex::for_recipient(&callee.public, num_drops);

        // Pattern: C D D C C D C — dialing adjacent (1, 2) and separated
        // (5); the last dialing round carries a real invitation so the
        // retained drops are non-trivially compared.
        let pattern = [false, true, true, false, false, true, false];
        let mut specs = mixed_specs(&pks, &pattern, 2, num_drops, seed);
        let RoundSpec::Dialing {
            batch: Batch::Flat(batch),
            ..
        } = &mut specs[5]
        else {
            panic!("round 5 is a dialing round");
        };
        let request = vuvuzela::wire::dialing::DialRequest {
            drop: target,
            invitation: vuvuzela::wire::dialing::SealedInvitation::seal(
                &mut rng,
                &caller.public,
                &callee.public,
            ),
        };
        let onion = onion::wrap(&mut rng, &pks, 5, &request.encode()).0;
        batch.push_with(|slot| slot.copy_from_slice(&onion));

        let (outcomes, expected) = run_both(&mut streaming, &mut sequential, specs);
        assert_mixed_equivalent(
            &mut streaming,
            &mut sequential,
            &outcomes,
            &expected,
            num_drops,
        )
        .unwrap_or_else(|err| panic!("chain {chain_len}: mixed schedule differs: {err:?}"));

        // The real invitation is downloadable through the streaming chain
        // and opens to the caller's key.
        let contents = streaming.download_drop(target).expect("drops exist");
        let mine: Vec<_> = contents
            .iter()
            .filter_map(|inv| inv.try_open(&callee.secret, &callee.public))
            .collect();
        assert_eq!(mine, vec![caller.public], "chain {chain_len}");
    }
}

/// A panicking stage mid-mixed-schedule is a bug, not an abort: its
/// panic propagates out of `run` with its own payload instead of
/// deadlocking feeder or stages.
#[test]
#[should_panic(expected = "tap exploded")]
fn panicking_stage_mid_mixed_schedule_aborts() {
    struct ExplodingTap {
        intercepts: u32,
    }
    impl Tap for ExplodingTap {
        fn intercept(&mut self, _ctx: &TapContext, _batch: &mut Slots<'_>) {
            self.intercepts += 1;
            if self.intercepts >= 3 {
                panic!("tap exploded mid-schedule");
            }
        }
    }

    let seed = 404;
    let mut streaming = StreamingChain::new(config(3, 2.0), seed).with_max_in_flight(3);
    let pks = streaming.chain().server_public_keys();
    streaming
        .chain_mut()
        .link_mut(1)
        .attach_tap(Arc::new(Mutex::new(ExplodingTap { intercepts: 0 })));

    let pattern = [false, true, false, true, true, false];
    let specs = mixed_specs(&pks, &pattern, 2, 2, seed);
    let _ = streaming.run(specs);
}

/// Asserts a deployment that recovered from an abort ran `outcomes`
/// (rounds `first..`) exactly as `fresh`, a new deployment on the same
/// seed, ran `want`: replies, and the tail's observables of those rounds.
fn assert_recovered(
    recovered: &Chain,
    outcomes: &[RoundOutcome],
    fresh: &Chain,
    want: &[RoundOutcome],
    first: u64,
) {
    assert_eq!(outcomes.len(), want.len());
    for (got, want) in outcomes.iter().zip(want) {
        assert_eq!(got.replies(), want.replies(), "replies after recovery");
    }
    let mut conversation: Vec<_> = recovered
        .conversation_observables()
        .iter()
        .filter(|(round, _)| *round >= first)
        .cloned()
        .collect();
    conversation.sort_by_key(|(round, _)| *round);
    assert_eq!(&conversation[..], fresh.conversation_observables());
    let mut dialing: Vec<_> = recovered
        .dialing_observables()
        .iter()
        .filter(|(round, _)| *round >= first)
        .cloned()
        .collect();
    dialing.sort_by_key(|(round, _)| *round);
    assert_eq!(&dialing[..], fresh.dialing_observables());
}

/// Hangs the clients link up under round `.0`'s replies, once: the
/// entry dying after the round's tail has run.
struct HangUpReplies(Option<u64>);

impl Tap for HangUpReplies {
    fn intercept(&mut self, _ctx: &TapContext, _batch: &mut Slots<'_>) {}

    fn hangs_up(&mut self, ctx: &TapContext) -> bool {
        let fires = self.0 == Some(ctx.round) && ctx.direction == Direction::Backward;
        if fires {
            self.0 = None;
        }
        fires
    }
}

/// A server that crashes mid-schedule — [`CrashOnRound`] hanging up a
/// link under round 2's forward batch, on the clients link and on each
/// of the three hop links, or the clients link hung up under round 2's
/// replies — ends the run with an `Abort` in both runtimes, never a
/// panic or a hang. Fed one spec per call, `Chain` loses the crashed
/// round alone; given the whole schedule, it loses exactly the rounds
/// its seeded schedule had admitted and not completed. After
/// `abort_in_flight_rounds` the same deployment runs fresh round ids
/// byte-identically to a new one: round randomness is a pure function
/// of `(seed, round)`.
#[test]
fn crashed_link_aborts_both_runtimes_and_they_recover() {
    let (seed, num_drops, crash) = (505, 2, 2);
    let config = config(3, 2.0);
    let pks = Chain::new(config.clone(), seed).server_public_keys();
    // Rounds 0..6 are the schedule the crash aborts; 6..10 the fresh
    // round ids the deployment recovers on.
    let pattern = [
        false, true, false, false, true, false, false, true, false, false,
    ];
    let mut schedule = mixed_specs(&pks, &pattern, 2, num_drops, seed);
    let recovery = schedule.split_off(6);
    let mut fresh = Chain::new(config.clone(), seed);
    let want = fresh.run(recovery.clone()).expect("fresh rounds complete");

    // (link, whether the hang-up comes under the replies, the rounds the
    // whole-schedule call aborts)
    let cases: [(LinkId, bool, &[u64]); 5] = [
        (LinkId::Clients, false, &[0, 1, 2]),
        (LinkId::Hop(0), false, &[0, 1, 2]),
        (LinkId::Hop(1), false, &[0, 1, 2]),
        (LinkId::Hop(2), false, &[1, 2, 3]),
        (LinkId::Clients, true, &[2, 3, 4]),
    ];
    for (link, replies, windowed_rounds) in cases {
        let crash_on = |chain: &mut Chain| {
            let tap: Arc<Mutex<dyn Tap>> = if replies {
                Arc::new(Mutex::new(HangUpReplies(Some(crash))))
            } else {
                Arc::new(Mutex::new(CrashOnRound::new(crash)))
            };
            match link {
                LinkId::Hop(hop) => chain.link_mut(hop as usize).attach_tap(tap),
                _ => chain.client_link_mut().attach_tap(tap),
            }
        };

        let mut sequential = Chain::new(config.clone(), seed);
        crash_on(&mut sequential);
        let abort = schedule
            .iter()
            .cloned()
            .find_map(|spec| sequential.run(vec![spec]).err())
            .expect("the crash aborts the run");
        assert_eq!(abort.rounds, vec![crash], "{link}: {abort}");
        assert!(
            matches!(abort.cause, Error::Disconnected { link: cut } if cut == link),
            "{link}: {abort}"
        );
        sequential.abort_in_flight_rounds();
        let outcomes = sequential.run(recovery.clone()).expect("recovers");
        assert_recovered(&sequential, &outcomes, &fresh, &want, 6);

        let mut windowed = Chain::new(config.clone(), seed);
        crash_on(&mut windowed);
        let abort = windowed
            .run(schedule.clone())
            .expect_err("the crash aborts the schedule");
        assert_eq!(abort.rounds, windowed_rounds, "{link}: {abort}");
        assert_eq!(
            abort.cause.to_string(),
            format!("peer on {link} disconnected")
        );
        windowed.abort_in_flight_rounds();
        let outcomes = windowed.run(recovery.clone()).expect("recovers");
        assert_recovered(&windowed, &outcomes, &fresh, &want, 6);

        let mut streaming = StreamingChain::new(config.clone(), seed).with_max_in_flight(3);
        crash_on(streaming.chain_mut());
        let abort = streaming
            .run(schedule.clone())
            .expect_err("the crash aborts the schedule");
        assert!(abort.rounds.contains(&crash), "{link}: {abort}");
        assert!(
            abort.rounds.windows(2).all(|pair| pair[0] < pair[1]),
            "{link}: {abort}"
        );
        assert!(
            abort.rounds.iter().all(|&round| round < 6),
            "{link}: {abort}"
        );
        streaming.chain_mut().abort_in_flight_rounds();
        let outcomes = streaming.run(recovery.clone()).expect("recovers");
        assert_recovered(streaming.chain(), &outcomes, &fresh, &want, 6);
    }
}

/// A tap that records per-(round, direction) so interleaving-sensitive
/// ordering is factored out before comparison.
#[derive(Default)]
struct RoundKeyedTap {
    seen: std::collections::BTreeMap<(u64, bool), Vec<Vec<Vec<u8>>>>,
}

impl Tap for RoundKeyedTap {
    fn intercept(&mut self, ctx: &TapContext, batch: &mut Slots<'_>) {
        self.seen
            .entry((ctx.round, matches!(ctx.direction, Direction::Backward)))
            .or_default()
            .push((0..batch.len()).map(|i| batch.get(i).to_vec()).collect());
    }
}

/// An adversary tapping a mid-chain link sees, per round and direction,
/// exactly the batches it would see against the sequential chain — the
/// interception semantics are unchanged by pipelining.
#[test]
fn tapped_link_sees_identical_per_round_batches() {
    let seed = 77;
    let mut streaming = StreamingChain::new(config(3, 2.0), seed);
    let mut sequential = Chain::new(config(3, 2.0), seed);
    let pks = streaming.chain().server_public_keys();

    let stream_tap = Arc::new(Mutex::new(RoundKeyedTap::default()));
    let seq_tap = Arc::new(Mutex::new(RoundKeyedTap::default()));
    streaming
        .chain_mut()
        .link_mut(1)
        .attach_tap(stream_tap.clone());
    sequential.link_mut(1).attach_tap(seq_tap.clone());

    let schedule = client_rounds(&pks, 4, 3, seed);
    let (streamed, expected) = run_both(&mut streaming, &mut sequential, schedule);
    for (round, (got, want)) in streamed.iter().zip(&expected).enumerate() {
        assert_eq!(got.replies(), want.replies(), "round {round}");
    }

    let got = &stream_tap.lock().seen;
    let want = &seq_tap.lock().seen;
    assert_eq!(got, want, "per-round tap observations diverged");
    assert!(!got.is_empty(), "tap saw traffic");
}

/// Resizes round 2's batches on the link it is attached to: forward, it
/// truncates the first entry and injects one of no onion's size;
/// backward, it extends the second reply.
struct GoldenTap;

impl Tap for GoldenTap {
    fn intercept(&mut self, ctx: &TapContext, batch: &mut Slots<'_>) {
        if ctx.round != 2 {
            return;
        }
        match ctx.direction {
            Direction::Forward => {
                let truncated = batch.get(0)[..40].to_vec();
                batch.set(0, &truncated);
                batch.push(&[0xEE; 77]);
            }
            Direction::Backward => batch.set(1, &[batch.get(1), &[0xEE; 5]].concat()),
        }
    }
}

/// The fixed chain-3 schedule the golden pins are taken over: a
/// conversation round with a real pair, two singles and one garbage
/// entry (500 bytes, which the entry lays in as a zero-filled slot); a
/// dialing round into 2 drops carrying one real invitation; and a
/// conversation round that [`GoldenTap`] on link 1 resizes both ways.
fn golden_specs(pks: &[PublicKey]) -> Vec<RoundSpec> {
    let mut rng = StdRng::seed_from_u64(0x601D);
    let exchange = |round: u64, drop: u8, fill: u8, rng: &mut StdRng| {
        let request = ExchangeRequest {
            drop: vuvuzela::wire::deaddrop::DeadDropId([drop; 16]),
            sealed_message: vec![fill; vuvuzela::wire::SEALED_MESSAGE_LEN],
        };
        onion::wrap(rng, pks, round, &request.encode()).0
    };
    let mut round0: Vec<Vec<u8>> = [(1, 0xA1), (1, 0xB2), (2, 0xC3), (3, 0xD4)]
        .into_iter()
        .map(|(drop, fill)| exchange(0, drop, fill, &mut rng))
        .collect();
    round0.insert(2, vec![0x5A; 500]);

    let num_drops = 2;
    let caller = vuvuzela::crypto::x25519::Keypair::generate(&mut rng);
    let callee = vuvuzela::crypto::x25519::Keypair::generate(&mut rng);
    let invitation = vuvuzela::wire::dialing::DialRequest {
        drop: vuvuzela::wire::deaddrop::InvitationDropIndex::for_recipient(
            &callee.public,
            num_drops,
        ),
        invitation: vuvuzela::wire::dialing::SealedInvitation::seal(
            &mut rng,
            &caller.public,
            &callee.public,
        ),
    };
    let noop = vuvuzela::wire::dialing::DialRequest::noop(&mut rng);
    let round1 = [invitation, noop]
        .iter()
        .map(|request| onion::wrap(&mut rng, pks, 1, &request.encode()).0)
        .collect::<Vec<_>>();

    let round2: Vec<Vec<u8>> = (0..3)
        .map(|i| exchange(2, 10 + i, 0x10 * i, &mut rng))
        .collect();

    let conversation = |onions| arena(RoundKind::Conversation, pks.len(), onions);
    vec![
        RoundSpec::Conversation {
            round: 0,
            batch: conversation(round0),
        },
        RoundSpec::Dialing {
            round: 1,
            batch: arena(RoundKind::Dialing { num_drops }, pks.len(), round1),
            num_drops,
        },
        RoundSpec::Conversation {
            round: 2,
            batch: conversation(round2),
        },
    ]
}

/// SHA-256 over a sequence of length-prefixed fields.
#[derive(Default)]
struct Pin(Vec<u8>);

impl Pin {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.0.extend_from_slice(bytes);
    }

    fn hex(&self) -> String {
        vuvuzela::crypto::sha256::sha256(&self.0)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}

/// The five pins of one run of [`golden_specs`]: replies, observables
/// logs, every link's per-round traffic log, the tap and malformed
/// counters, the retained drops' contents.
fn golden_pins(chain: &mut Chain, outcomes: &[RoundOutcome]) -> [String; 5] {
    let mut replies = Pin::default();
    for outcome in outcomes {
        for reply in outcome.replies().unwrap_or_default() {
            replies.bytes(reply);
        }
    }
    let mut observables = Pin::default();
    for (round, obs) in chain.conversation_observables() {
        for v in [*round, obs.m1, obs.m2, obs.m_many, obs.total_requests] {
            observables.u64(v);
        }
    }
    for (round, obs) in chain.dialing_observables() {
        observables.u64(*round);
        observables.u64(obs.noop_writes);
        for &count in &obs.counts {
            observables.u64(count);
        }
    }
    let mut links = Pin::default();
    for link in std::iter::once(chain.client_link()).chain(chain.links()) {
        for ((round, direction), (messages, bytes)) in link.round_traffic_log() {
            let backward = u64::from(direction == Direction::Backward);
            for v in [round, backward, messages, bytes] {
                links.u64(v);
            }
        }
    }
    let mut counters = Pin::default();
    counters.u64(chain.tap_resized());
    for i in 0..chain.config().chain_len {
        counters.u64(chain.server(i).malformed_replaced);
    }
    let mut drops = Pin::default();
    let tail = chain.server(chain.config().chain_len - 1);
    let (_, kept) = tail.invitation_drops().expect("a dialing round ran");
    for drop in 1..=kept.num_drops() {
        let index = vuvuzela::wire::deaddrop::InvitationDropIndex(drop);
        for invitation in chain.download_drop(index).expect("drop exists") {
            drops.bytes(&invitation.0);
        }
    }
    [replies, observables, links, counters, drops].map(|pin| pin.hex())
}

/// Known answers for a whole chain round, taken on the sequential chain
/// at the commit before it became the hop loop's window-1 schedule:
/// `Chain` fed one spec per call (window 1) and given the whole schedule
/// in one call (window 3, its seeded interleaving), and the streaming
/// chain at windows 1, 2 and 3, must all still produce exactly these
/// bytes. The links pin was re-taken when client batches became arenas
/// at the entry: round 0's garbage entry now crosses the clients link as
/// a slot of the onion width, not its own 500 bytes; the other four pins
/// did not move. The drops pin was re-taken when published noise
/// invitations began to carry a real public key (`SealedInvitation::
/// key_noise`): the drops hold the same invitations, drawn from the same
/// RNG stream, but each noise invitation's first 32 bytes changed; the
/// other four pins did not move.
#[test]
fn golden_pins_for_a_mixed_chain3_schedule() {
    const WANT: [&str; 5] = [
        "9d5cb9aee6280f7bed94c1dca1bb646d4bf587e6ad63cf52aef61f015c7ce382",
        "bc6cfeff53c44482ff35bd25d5fc6b07026bf34a5ff40006de52ac3fb2c870ff",
        "51b2cf1eaa9904d69c64692de72beff8a12f7776e08e374270d219705492a8c5",
        "06ef96c79f8357f8c4de20d1e5d407cb6fd594d6b90ab09eec49a4306febac03",
        "d5feab7edfa16c6aced0ffa032233e27f194585ff5284796bd397e9e3cdde0a6",
    ];
    let (seed, config) = (0x601D_2015, config(3, 3.0));
    let pks = Chain::new(config.clone(), seed).server_public_keys();
    let specs = golden_specs(&pks);
    let tap = || Arc::new(Mutex::new(GoldenTap));

    let mut sequential = Chain::new(config.clone(), seed);
    sequential.link_mut(1).attach_tap(tap());
    let outcomes = one_per_call(&mut sequential, specs.clone());
    assert_eq!(
        golden_pins(&mut sequential, &outcomes),
        WANT,
        "one spec per call"
    );

    let mut windowed = Chain::new(config.clone(), seed);
    windowed.link_mut(1).attach_tap(tap());
    let outcomes = windowed.run(specs.clone()).expect("rounds complete");
    assert_eq!(golden_pins(&mut windowed, &outcomes), WANT, "one call");

    for window in 1..=3 {
        let mut streaming = StreamingChain::new(config.clone(), seed).with_max_in_flight(window);
        streaming.chain_mut().link_mut(1).attach_tap(tap());
        let outcomes = streaming.run(specs.clone()).expect("schedule completes");
        assert_eq!(
            golden_pins(streaming.chain_mut(), &outcomes),
            WANT,
            "streaming at window {window}"
        );
    }
}

/// The round record accounts for every byte the links count: for each
/// round, link and direction of the golden mixed chain-3 schedule, what
/// the sending node's events say they sent on it (`Public::sent_on`
/// names the link), and what the receiving node's
/// event says it read, equal `Link::round_traffic` — on `Chain::run` and
/// on `StreamingChain::run`. (The clients link's far end is the feeder,
/// no node: the entry reads its forward frames and sends its backward
/// ones.)
#[test]
fn the_round_record_reconciles_with_every_links_traffic() {
    let (seed, config) = (0x601D_2015, config(3, 3.0));
    let pks = Chain::new(config.clone(), seed).server_public_keys();
    let specs = golden_specs(&pks);
    let mut sequential = Chain::new(config.clone(), seed);
    sequential.run(specs.clone()).expect("rounds complete");
    let mut streaming = StreamingChain::new(config.clone(), seed);
    streaming.run(specs.clone()).expect("schedule completes");

    // Keyed by link and whether the frames went backward.
    type Tally = HashMap<(LinkId, bool), (u64, u64)>;
    let add = |tally: &mut Tally, key, traffic: Traffic| {
        let entry = tally.entry(key).or_default();
        entry.0 += traffic.onions;
        entry.1 += traffic.bytes;
    };
    for (runtime, chain) in [
        ("Chain", &sequential),
        ("StreamingChain", streaming.chain()),
    ] {
        for round in specs.iter().map(RoundSpec::round) {
            let record = chain.round_record(round);
            assert!(!record.is_empty(), "{runtime}: round {round} has a record");
            let (mut sent, mut read) = (Tally::new(), Tally::new());
            for event in record {
                let public = &event.public;
                if let Some((link, direction)) = public.sent_on(config.chain_len) {
                    add(
                        &mut sent,
                        (link, direction == Direction::Backward),
                        public.sent,
                    );
                }
                let (up, down) = match public.node {
                    NodeId::Entry => (LinkId::Clients, LinkId::Hop(0)),
                    NodeId::Hop(i) => (LinkId::Hop(i as u32), LinkId::Hop(i as u32 + 1)),
                };
                let backward_leg = public.phase == Phase::Backward
                    || (public.phase == Phase::Relay && public.backward);
                let from = if backward_leg {
                    (down, true)
                } else {
                    (up, false)
                };
                add(&mut read, from, public.received);
            }
            for link in std::iter::once(chain.client_link()).chain(chain.links()) {
                for direction in [Direction::Forward, Direction::Backward] {
                    let key = (link.id(), direction == Direction::Backward);
                    let want = link.round_traffic(round, direction);
                    let what = format!("{runtime}: round {round} {} {direction:?}", link.id());
                    let clients = link.id() == LinkId::Clients;
                    if !(clients && direction == Direction::Forward) {
                        let got = sent.get(&key).copied().unwrap_or_default();
                        assert_eq!(got, want, "sent on {what}");
                    }
                    if !(clients && direction == Direction::Backward) {
                        let got = read.get(&key).copied().unwrap_or_default();
                        assert_eq!(got, want, "read off {what}");
                    }
                }
            }
        }
    }
}
