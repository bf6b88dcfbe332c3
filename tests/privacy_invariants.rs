//! Integration tests for the privacy invariants of §3.2/§4.1/§6.1:
//! fixed sizes, activity-independent traffic, correct noise accounting,
//! and indistinguishability of the adversary's view across worlds.

use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;
use vuvuzela::net::{Direction, Link, Slots, Tap};
use vuvuzela::sim::{RoundPlan, Scenario, SimError, Simulator, Step};

const ALICE: usize = 0;
const BOB: usize = 1;

/// `scenario`'s deployment with `users` clients, indices `0..users`.
fn net(scenario: Scenario, users: usize) -> Result<Simulator, SimError> {
    let mut sim = Simulator::new(scenario);
    sim.step(Step::Join(users))?;
    Ok(sim)
}

/// Three servers with deterministic noise µ = `mu` per conversation
/// round and the laptop-scale dialing noise (µ = 10, b = 2).
fn deployment(mu: f64, seed: u64) -> Scenario {
    let mut scenario = Scenario::new("privacy_invariants", seed);
    scenario.conversation_mu = mu;
    scenario.dialing_mu = 10.0;
    scenario.dialing_b = Some(2.0);
    scenario
}

/// A deployment with conversation µ = 6 and dialing µ = 3 and `users`
/// clients.
fn default_net(seed: u64, users: usize) -> Result<Simulator, SimError> {
    net(Scenario::new("privacy_invariants_tapped", seed), users)
}

/// Every link a global passive adversary watches: the clients link
/// first, then the hops. Each link's per-round log is what it saw.
fn links(sim: &Simulator) -> Vec<Link> {
    let chain = sim.chain();
    std::iter::once(chain.client_link())
        .chain(chain.links())
        .cloned()
        .collect()
}

fn run(sim: &mut Simulator, plan: RoundPlan) -> Result<(), SimError> {
    sim.step(Step::Run(vec![plan]))
}

/// Alice dials Bob in one dialing round; everyone accepts.
fn connect(sim: &mut Simulator) -> Result<(), SimError> {
    sim.step(Step::Dial {
        caller: ALICE,
        callee: BOB,
    })?;
    run(sim, RoundPlan::Dialing)?;
    sim.step(Step::AcceptAll)
}

fn queue(sim: &mut Simulator, body: &[u8]) -> Result<(), SimError> {
    sim.step(Step::Queue {
        from: ALICE,
        to: BOB,
        body: body.to_vec(),
    })
}

/// "Vuvuzela ensures that message sizes ... are independent of user
/// activity" — every batch on every link is single-sized.
#[test]
fn all_link_traffic_is_uniform_size() -> Result<(), SimError> {
    // Alice, Bob and an idle user.
    let mut sim = default_net(1, 3)?;

    connect(&mut sim)?;
    queue(&mut sim, b"payload")?;
    run(&mut sim, RoundPlan::Conversation)?;
    run(&mut sim, RoundPlan::Conversation)?;

    for (i, link) in links(&sim).iter().enumerate() {
        let log = link.round_traffic_log();
        assert!(!log.is_empty(), "link {i} saw traffic");
        for ((round, direction), (count, bytes)) in log {
            assert!(
                count > 0 && bytes % count == 0,
                "link {i} round {round} {direction:?}: {bytes} bytes over {count} ciphertexts"
            );
        }
        // Both conversation rounds crossed at one width per direction,
        // the one carrying the payload and the idle one alike.
        for direction in [Direction::Forward, Direction::Backward] {
            let width = |round| {
                let (count, bytes) = link.round_traffic(round, direction);
                bytes / count
            };
            assert_eq!(width(1), width(2), "link {i} {direction:?}: widths differ");
        }
    }
    Ok(())
}

/// The adversary's byte-level view is *identical in shape* whether the
/// two users converse or idle: same batch counts, same sizes.
#[test]
fn traffic_shape_is_independent_of_conversations() -> Result<(), SimError> {
    type Log = Vec<((u64, Direction), (u64, u64))>;
    let observe = |talking: bool, seed: u64| -> Result<Vec<Log>, SimError> {
        let mut sim = default_net(seed, 2)?;
        if talking {
            sim.step(Step::Dial {
                caller: ALICE,
                callee: BOB,
            })?;
        }
        run(&mut sim, RoundPlan::Dialing)?;
        sim.step(Step::AcceptAll)?;
        if talking {
            queue(&mut sim, b"secret")?;
        }
        run(&mut sim, RoundPlan::Conversation)?;
        // Every link's (round, direction) → (ciphertexts, bytes) log.
        Ok(links(&sim).iter().map(Link::round_traffic_log).collect())
    };

    // Same seed ⇒ same noise; only Alice/Bob's actions differ.
    let talking = observe(true, 42)?;
    let idle = observe(false, 42)?;
    assert!(talking.iter().all(|log| !log.is_empty()));
    assert_eq!(
        talking, idle,
        "same transfers, batch sizes and message sizes on every link"
    );
    Ok(())
}

/// Deterministic noise mode produces exactly the §8.2 accounting:
/// each non-last server adds 2µ requests.
#[test]
fn noise_accounting_matches_paper() -> Result<(), SimError> {
    let mu = 10.0;
    let mut sim = net(deployment(mu, 3), 2)?;
    run(&mut sim, RoundPlan::Conversation)?;

    let (_, obs) = sim.chain().conversation_observables()[0];
    // 2 users + 2 noising servers × 2µ.
    assert_eq!(obs.total_requests, 2 + 2 * (2.0 * mu) as u64);
    // All noise: µ singles + µ/2 pairs per noising server; users idle → 2 lone.
    assert_eq!(obs.m1, 2 * (mu as u64) + 2);
    assert_eq!(obs.m2, 2 * (mu as u64 / 2));
    assert_eq!(obs.m_many, 0, "honest clients never collide");
    Ok(())
}

/// In `Sampled` mode each noising server's logged draw
/// (`MixServer::conversation_noise`, what an attacker owning it knows)
/// is the very one its round RNG's first two words give: `n1` then
/// `n2`, so `(n1 + n2 % 2, n2 / 2)` — which is what lets a harness
/// replay a deployment's noise through `server_round_rng` without
/// running the chain. The logged draws plus the ground truth are the
/// tail's histogram. An odd µ makes the leftover-singleton path (the
/// Algorithm 2 pairing fix) load-bearing — odd `n2` draws occur with
/// probability ≈ ½ per server.
#[test]
fn sampled_noise_log_replays_from_the_server_round_rng() -> Result<(), SimError> {
    use rand::RngCore;
    use vuvuzela::core::chain::server_round_rng;
    use vuvuzela::dp::{NoiseDistribution, NoiseMode};

    /// Replays a recorded word stream.
    struct Replay(std::vec::IntoIter<u64>);
    impl RngCore for Replay {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("replay stream exhausted")
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let word = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&word[..chunk.len()]);
            }
        }
    }

    let mu = 7.0;
    // Mirror the scenario's b = max(µ/20, 0.5) derivation.
    let noise = NoiseDistribution::new(mu, (mu / 20.0).max(0.5));
    let seed = 0xA11CE_u64;
    for round_seed in 0..8u64 {
        let mut scenario = deployment(mu, seed.wrapping_add(round_seed));
        scenario.noise_mode = NoiseMode::Sampled;
        // Alice, Bob and a lone user.
        let mut sim = net(scenario, 3)?;
        connect(&mut sim)?;
        run(&mut sim, RoundPlan::Conversation)?;
        let (round, obs) = *sim
            .chain()
            .conversation_observables()
            .last()
            .expect("round");

        // Noising servers are every position but the last.
        let (mut m1, mut m2) = (1, 1);
        for position in 0..2 {
            let mut rng = server_round_rng(seed.wrapping_add(round_seed), position, round);
            let mut words = Replay(vec![rng.next_u64(), rng.next_u64()].into_iter());
            let n1 = noise.sample_count(&mut words, NoiseMode::Sampled);
            let n2 = noise.sample_count(&mut words, NoiseMode::Sampled);
            let replayed = (n1 + n2 % 2, n2 / 2);
            assert_eq!(
                sim.chain().server(position).conversation_noise(round),
                Some(replayed),
                "seed {round_seed}: server {position}'s log and its round RNG disagree"
            );
            m1 += replayed.0;
            m2 += replayed.1;
        }
        assert_eq!(sim.chain().server(2).conversation_noise(round), None);
        assert_eq!((obs.m1, obs.m2), (m1, m2), "seed {round_seed}");
    }
    Ok(())
}

/// Dialing: every drop gets noise from every server — even drops nobody
/// wrote a real invitation to (§5.3).
#[test]
fn dialing_noise_covers_unused_drops() -> Result<(), SimError> {
    let mu_dial = 5.0;
    let mut scenario = Scenario::new("privacy_invariants_drops", 7);
    scenario.conversation_mu = 4.0;
    scenario.dialing_mu = mu_dial;
    scenario.num_drops = 4;
    let mut sim = net(scenario, 2)?;
    run(&mut sim, RoundPlan::Dialing)?; // nobody dials

    let (_, obs) = &sim.chain().dialing_observables()[0];
    assert_eq!(obs.counts.len(), 4);
    for (i, &count) in obs.counts.iter().enumerate() {
        assert_eq!(
            count,
            3 * mu_dial as u64,
            "drop {i} must hold exactly 3 servers × µ noise"
        );
    }
    // The two idle users wrote to the no-op drop.
    assert_eq!(obs.noop_writes, 2);
    Ok(())
}

/// Garbage and truncated onions must never break the round for honest
/// users (availability under client misbehaviour, §2.3).
#[test]
fn malformed_clients_cannot_break_honest_ones() -> Result<(), SimError> {
    struct GarbageInjector;
    impl Tap for GarbageInjector {
        fn intercept(&mut self, ctx: &vuvuzela::net::TapContext, batch: &mut Slots<'_>) {
            if matches!(ctx.direction, vuvuzela::net::Direction::Forward) {
                batch.push(&[0xFF; 100]); // junk "request"
                batch.push(&[]);
            }
        }
    }

    let mut sim = net(deployment(4.0, 9), 2)?;
    sim.chain_mut()
        .client_link_mut()
        .attach_tap(Arc::new(Mutex::new(GarbageInjector)));
    sim.tolerate_violations();

    connect(&mut sim)?;
    queue(&mut sim, b"still works")?;
    run(&mut sim, RoundPlan::Conversation)?;
    assert_eq!(
        sim.clients().all_delivered(BOB),
        vec![b"still works".to_vec()]
    );
    // Each round's two extra entries fail authentication and come back
    // as substituted noise: extra no-op dial writes and extra singles
    // (the histograms), and two replies nobody asked for.
    let tripped: BTreeSet<&str> = sim.violations().iter().map(|v| v.invariant).collect();
    assert_eq!(
        tripped,
        BTreeSet::from(["noise-covered-deaddrops", "uniform-participation"])
    );
    Ok(())
}

/// `Step::SetOnline` audit (cover-traffic requirement, §3.2/§4.2): a
/// client going offline is itself observable — the connected-client set
/// is public — but it must not change the observable *stream* of its
/// former partner or of idle bystanders. Before, during and after Bob's
/// absence, Alice and the idle user each emit exactly one onion per
/// round of exactly the same width; the only change on the wire is
/// Bob's entry disappearing.
#[test]
fn offline_peer_leaves_partner_stream_unchanged() -> Result<(), SimError> {
    // Alice, Bob and an idle user.
    let mut sim = default_net(11, 3)?;

    connect(&mut sim)?;
    // Alice keeps a message in flight the whole time, so her slot is
    // maximally "active" — which must be invisible.
    queue(&mut sim, b"before")?;
    run(&mut sim, RoundPlan::Conversation)?;
    run(&mut sim, RoundPlan::Conversation)?;
    sim.step(Step::SetOnline(BOB, false))?;
    queue(&mut sim, b"during")?; // will retransmit into the void
    run(&mut sim, RoundPlan::Conversation)?;
    run(&mut sim, RoundPlan::Conversation)?;
    sim.step(Step::SetOnline(BOB, true))?;
    run(&mut sim, RoundPlan::Conversation)?;
    run(&mut sim, RoundPlan::Conversation)?;

    // The clients→entry link logged every per-round forward batch.
    let forward: Vec<(u64, (u64, u64))> = sim
        .chain()
        .client_link()
        .round_traffic_log()
        .into_iter()
        .filter(|((_, direction), (count, _))| *direction == Direction::Forward && *count > 0)
        .map(|((round, _), traffic)| (round, traffic))
        .collect();
    // 1 dialing + 6 conversation rounds.
    assert_eq!(forward.len(), 7);
    let conversation = &forward[1..];
    let (first_count, first_bytes) = conversation[0].1;
    let width = first_bytes / first_count;
    for (round, (count, bytes)) in conversation {
        assert_eq!(
            *bytes,
            count * width,
            "round {round}: an onion width changed"
        );
    }
    // Exactly Bob's entry disappears while he is offline; Alice and
    // the idle user never change their per-round emission count.
    let counts: Vec<u64> = conversation.iter().map(|(_, (count, _))| *count).collect();
    assert_eq!(counts, vec![3, 3, 2, 2, 3, 3]);

    // The dead-drop histogram stays noise-covered through the
    // transition: totals change by exactly Bob's one request, and the
    // pair access silently becomes a single access.
    let obs: Vec<_> = sim
        .chain()
        .conversation_observables()
        .iter()
        .map(|(_, o)| *o)
        .collect();
    // µ = 6 → each of 2 noising servers adds 6 singles + 3 pairs.
    assert_eq!(obs[0].m2, 2 * 3 + 1, "online: real pair present");
    assert_eq!(obs[0].m1, 2 * 6 + 1, "online: idle user is a single");
    assert_eq!(obs[2].m2, 2 * 3, "offline: the pair is gone...");
    assert_eq!(obs[2].m1, 2 * 6 + 2, "...Alice and idle are singles");
    assert_eq!(obs[4].m2, 2 * 3 + 1, "rejoined: pair restored");
    for o in &obs {
        assert_eq!(o.m_many, 0);
    }

    // And the conversation itself survives the outage via retransmission.
    assert_eq!(
        sim.clients().all_delivered(BOB),
        vec![b"before".to_vec(), b"during".to_vec()]
    );
    Ok(())
}
