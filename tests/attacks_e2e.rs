//! End-to-end adversary tests: the attacks of §2.1/§4.2 executed against
//! the real chain (taps + compromised-last-server observables), showing
//! the leak without noise and its absence with noise. Rounds run on the
//! simulator; a tampered run collects what its invariant checker saw,
//! and each test asserts exactly which invariants the attack tripped.

use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;
use vuvuzela::adversary::taps::{BlockClient, KeepOnly};
use vuvuzela::dp::NoiseMode;
use vuvuzela::net::Tap;
use vuvuzela::sim::{RoundPlan, Scenario, SimError, Simulator, Step};

const ALICE: usize = 0;
const BOB: usize = 1;
const CAROL: usize = 2;
const DAVE: usize = 3;

/// What a tap on the clients link that removes requests trips: the
/// replies no longer match the submissions, and the dead-drop histogram
/// no longer decomposes into noise plus the scripted activity.
const REMOVAL_TRIPS: [&str; 2] = ["noise-covered-deaddrops", "uniform-participation"];

/// Three servers, conversation noise µ = 30 / b = 6 sampled, dialing
/// µ = 10 / b = 2 — or, with `noise` false, the no-noise baseline: the
/// same deployment with its cover traffic off.
fn deployment(noise: bool, seed: u64) -> Scenario {
    let mut scenario = Scenario::new("attacks_e2e", seed);
    scenario.conversation_mu = 30.0;
    scenario.conversation_b = Some(6.0);
    scenario.dialing_mu = 10.0;
    scenario.dialing_b = Some(2.0);
    scenario.noise_mode = if noise {
        NoiseMode::Sampled
    } else {
        NoiseMode::Off
    };
    scenario
}

/// The no-noise baseline at the laptop-scale defaults: conversation
/// µ = 50 / b = 10, dialing µ = 10 / b = 2, noise off.
fn baseline(seed: u64) -> Scenario {
    let mut scenario = deployment(false, seed);
    scenario.conversation_mu = 50.0;
    scenario.conversation_b = Some(10.0);
    scenario
}

/// `scenario`'s deployment with `users` clients, indices `0..users`.
fn net(scenario: Scenario, users: usize) -> Result<Simulator, SimError> {
    let mut sim = Simulator::new(scenario);
    sim.step(Step::Join(users))?;
    Ok(sim)
}

fn run(sim: &mut Simulator, plan: RoundPlan) -> Result<(), SimError> {
    sim.step(Step::Run(vec![plan]))
}

/// `caller` dials `callee` in one dialing round; everyone accepts.
fn connect(sim: &mut Simulator, caller: usize, callee: usize) -> Result<(), SimError> {
    sim.step(Step::Dial { caller, callee })?;
    run(sim, RoundPlan::Dialing)?;
    sim.step(Step::AcceptAll)
}

/// Puts `tap` on the clients link and switches the checker to
/// collecting: every later round is tampered with.
fn tamper(sim: &mut Simulator, tap: impl Tap + 'static) {
    sim.chain_mut()
        .chain_mut()
        .client_link_mut()
        .attach_tap(Arc::new(Mutex::new(tap)));
    sim.tolerate_violations();
}

/// The distinct invariants the checker recorded.
fn tripped(sim: &Simulator) -> BTreeSet<&'static str> {
    sim.violations().iter().map(|v| v.invariant).collect()
}

fn last_m2(sim: &Simulator) -> u64 {
    sim.chain()
        .chain()
        .conversation_observables()
        .last()
        .expect("round ran")
        .1
        .m2
}

/// §4.2 disruption attack against the no-noise baseline: a compromised
/// first server keeps only Alice and Bob; the last-server histogram is a
/// perfect oracle for whether they converse.
#[test]
fn disruption_attack_is_an_oracle_without_noise() -> Result<(), SimError> {
    for talking in [true, false] {
        // Alice, Bob and six bystanders.
        let mut sim = net(deployment(false, 31), 8)?;
        if talking {
            connect(&mut sim, ALICE, BOB)?;
        }
        tamper(
            &mut sim,
            KeepOnly {
                indices: vec![ALICE, BOB],
                only_round: None,
            },
        );
        run(&mut sim, RoundPlan::Conversation)?;
        assert_eq!(
            last_m2(&sim),
            u64::from(talking),
            "without noise, m2 equals the ground truth exactly"
        );
        assert_eq!(tripped(&sim), BTreeSet::from(REMOVAL_TRIPS));
    }
    Ok(())
}

/// The same attack against Vuvuzela: the histogram is dominated by cover
/// traffic, and the talking/idle worlds overlap.
#[test]
fn disruption_attack_is_smothered_by_noise() -> Result<(), SimError> {
    let observe = |talking: bool, seed: u64| -> Result<u64, SimError> {
        let mut sim = net(deployment(true, seed), 8)?;
        if talking {
            sim.step(Step::Dial {
                caller: ALICE,
                callee: BOB,
            })?;
        }
        // Both worlds run the dialing round (idle Alice sends a no-op),
        // keeping the servers' RNG streams aligned so that with equal
        // seeds the *only* difference between worlds is the conversation.
        run(&mut sim, RoundPlan::Dialing)?;
        sim.step(Step::AcceptAll)?;
        tamper(
            &mut sim,
            KeepOnly {
                indices: vec![ALICE, BOB],
                only_round: None,
            },
        );
        run(&mut sim, RoundPlan::Conversation)?;
        // The six missing requests hide inside the sampled noise
        // windows; only the missing replies give the tampering away.
        assert_eq!(
            tripped(&sim),
            BTreeSet::from(["uniform-participation"]),
            "talking {talking} seed {seed}"
        );
        Ok(last_m2(&sim))
    };

    // With identical seeds, the noise is identical, so the gap between
    // worlds is exactly the 1 exchange — buried among ~30 noise pairs.
    let talking = observe(true, 37)?;
    let idle = observe(false, 37)?;
    assert!(talking >= 20, "noise dominates: m2={talking}");
    assert_eq!(
        talking - idle,
        1,
        "one-exchange sensitivity, as Figure 6 says"
    );

    // Across different rounds (fresh noise), the distributions overlap:
    // an idle-world sample can exceed a talking-world sample.
    let mut seen_inversion = false;
    for seed in 0..24u64 {
        let t = observe(true, 100 + seed)?;
        let i = observe(false, 200 + seed)?;
        if i >= t {
            seen_inversion = true;
            break;
        }
    }
    assert!(
        seen_inversion,
        "sampled noise should make idle-world m2 sometimes exceed talking-world m2"
    );
    Ok(())
}

/// §2.1's blocking attack: knock Alice offline and watch the counts.
/// Without noise the m2 drop gives her away; the assertion documents the
/// leak this repo's noise exists to close.
#[test]
fn blocking_attack_reveals_conversation_without_noise() -> Result<(), SimError> {
    let mut sim = net(deployment(false, 41), 4)?;
    connect(&mut sim, ALICE, BOB)?; // round 0

    run(&mut sim, RoundPlan::Conversation)?; // round 1: alice online
    tamper(
        &mut sim,
        BlockClient {
            index: ALICE, // alice is client 0 on the aggregated link
            from_round: Some(2),
            tombstone_only: false,
        },
    );
    run(&mut sim, RoundPlan::Conversation)?; // round 2: alice blocked

    let obs = sim.chain().chain().conversation_observables();
    let m2_online = obs[0].1.m2;
    let m2_blocked = obs[1].1.m2;
    assert_eq!(m2_online, 1);
    assert_eq!(
        m2_blocked, 0,
        "blocking Alice kills the pair — visible leak"
    );
    assert_eq!(tripped(&sim), BTreeSet::from(REMOVAL_TRIPS));
    assert!(
        sim.violations().iter().all(|v| v.round == Some(2)),
        "only the blocked round trips: {:?}",
        sim.violations()
    );
    Ok(())
}

/// Availability under DoS (§2.3): knocking one user off the network
/// degrades *her* conversation but honest pairs keep exchanging
/// messages. (Edge blocking is equivalent to the victim being offline;
/// in-network blocking additionally garbles reply routing for everyone
/// behind the entry's positional demux — covered by the tap tests.)
#[test]
fn blocking_one_user_does_not_break_others() -> Result<(), SimError> {
    let mut sim = net(deployment(true, 43), 4)?;
    sim.step(Step::Dial {
        caller: ALICE,
        callee: BOB,
    })?;
    run(&mut sim, RoundPlan::Dialing)?;
    connect(&mut sim, CAROL, DAVE)?;

    // The adversary blocks Alice at her uplink.
    sim.step(Step::SetOnline(ALICE, false))?;

    sim.step(Step::Queue {
        from: CAROL,
        to: DAVE,
        body: b"unaffected".to_vec(),
    })?;
    sim.step(Step::Queue {
        from: BOB,
        to: ALICE,
        body: b"never arrives".to_vec(),
    })?;
    for _ in 0..3 {
        run(&mut sim, RoundPlan::Conversation)?;
    }
    assert_eq!(
        sim.clients().all_delivered(DAVE),
        vec![b"unaffected".to_vec()]
    );
    assert!(sim.clients().all_delivered(ALICE).is_empty());
    Ok(())
}

/// The no-noise baseline still delivers: only the cover traffic is gone.
#[test]
fn no_noise_preserves_functionality() -> Result<(), SimError> {
    let mut sim = net(baseline(3), 2)?;
    connect(&mut sim, ALICE, BOB)?;
    sim.step(Step::Queue {
        from: ALICE,
        to: BOB,
        body: b"hi".to_vec(),
    })?;
    run(&mut sim, RoundPlan::Conversation)?;
    assert_eq!(sim.clients().all_delivered(BOB), vec![b"hi".to_vec()]);
    Ok(())
}

#[test]
fn no_noise_leaks_exact_conversation_count() -> Result<(), SimError> {
    // Alice, Bob and a lone Carol.
    let mut sim = net(baseline(4), 3)?;
    connect(&mut sim, ALICE, BOB)?;
    run(&mut sim, RoundPlan::Conversation)?;

    let (_, obs) = sim.chain().chain().conversation_observables()[0];
    // The adversary reads the truth straight off the histogram:
    // exactly one conversation (m2 = 1), one lone user (m1 = 1).
    assert_eq!(obs.m2, 1);
    assert_eq!(obs.m1, 1);
    Ok(())
}
