//! End-to-end integration tests: full dial → converse lifecycles across
//! the real chain, exercising every crate together. Every round runs on
//! the simulator with its invariant checker live.

use vuvuzela::dp::NoiseMode;
use vuvuzela::sim::{RoundPlan, Scenario, SimError, Simulator, Step};

const ALICE: usize = 0;
const BOB: usize = 1;
const CAROL: usize = 2;

/// A `servers`-long chain with deterministic noise (conversation µ = 8,
/// dialing µ = 4) and `users` clients, indices `0..users`.
fn net(servers: usize, seed: u64, users: usize) -> Result<Simulator, SimError> {
    let mut scenario = Scenario::new("e2e_conversation", seed);
    scenario.servers = servers;
    scenario.conversation_mu = 8.0;
    scenario.dialing_mu = 4.0;
    let mut sim = Simulator::new(scenario);
    sim.step(Step::Join(users))?;
    Ok(sim)
}

/// Runs `rounds` rounds of one kind, one schedule each, so every
/// client handles a round's replies before it builds the next round.
fn run(sim: &mut Simulator, plan: RoundPlan, rounds: usize) -> Result<(), SimError> {
    for _ in 0..rounds {
        sim.step(Step::Run(vec![plan]))?;
    }
    Ok(())
}

/// `caller` dials `callee` in one dialing round; everyone accepts.
fn connect(sim: &mut Simulator, caller: usize, callee: usize) -> Result<(), SimError> {
    sim.step(Step::Dial { caller, callee })?;
    run(sim, RoundPlan::Dialing, 1)?;
    sim.step(Step::AcceptAll)
}

fn queue(sim: &mut Simulator, from: usize, to: usize, body: &[u8]) -> Result<(), SimError> {
    sim.step(Step::Queue {
        from,
        to,
        body: body.to_vec(),
    })
}

#[test]
fn full_lifecycle_dial_accept_converse() -> Result<(), SimError> {
    let mut sim = net(3, 1, 2)?;

    sim.step(Step::Dial {
        caller: ALICE,
        callee: BOB,
    })?;
    run(&mut sim, RoundPlan::Dialing, 1)?;
    assert_eq!(
        sim.clients().pending_invitations(BOB).len(),
        1,
        "bob got exactly one invitation"
    );
    sim.step(Step::AcceptAll)?;

    queue(&mut sim, ALICE, BOB, b"first")?;
    run(&mut sim, RoundPlan::Conversation, 1)?;
    queue(&mut sim, BOB, ALICE, b"second")?;
    run(&mut sim, RoundPlan::Conversation, 1)?;

    assert_eq!(sim.clients().all_delivered(BOB), vec![b"first".to_vec()]);
    assert_eq!(sim.clients().all_delivered(ALICE), vec![b"second".to_vec()]);
    Ok(())
}

#[test]
fn works_for_every_chain_length_paper_evaluates() -> Result<(), SimError> {
    // Figure 11 sweeps 1..6 servers; message flow must hold for each.
    for servers in 1..=6 {
        let mut sim = net(servers, servers as u64, 2)?;
        connect(&mut sim, ALICE, BOB)?;
        queue(&mut sim, ALICE, BOB, b"ping")?;
        run(&mut sim, RoundPlan::Conversation, 1)?;
        assert_eq!(
            sim.clients().all_delivered(BOB),
            vec![b"ping".to_vec()],
            "chain length {servers}"
        );
    }
    Ok(())
}

#[test]
fn many_pairs_converse_simultaneously() -> Result<(), SimError> {
    let mut sim = net(3, 7, 10)?;

    // 5 disjoint pairs: (0, 1), (2, 3), ... (8, 9).
    for pair in 0..5 {
        sim.step(Step::Dial {
            caller: 2 * pair,
            callee: 2 * pair + 1,
        })?;
    }
    run(&mut sim, RoundPlan::Dialing, 1)?;
    sim.step(Step::AcceptAll)?;

    for pair in 0..5 {
        queue(
            &mut sim,
            2 * pair,
            2 * pair + 1,
            format!("msg-{pair}").as_bytes(),
        )?;
    }
    run(&mut sim, RoundPlan::Conversation, 1)?;

    for pair in 0..5 {
        assert_eq!(
            sim.clients().all_delivered(2 * pair + 1),
            vec![format!("msg-{pair}").into_bytes()],
            "pair {pair}"
        );
    }
    Ok(())
}

#[test]
fn long_conversation_stays_ordered_under_pipelining() -> Result<(), SimError> {
    let mut sim = net(3, 9, 2)?;
    connect(&mut sim, ALICE, BOB)?;

    let messages: Vec<Vec<u8>> = (0..12u8).map(|i| vec![b'#', i]).collect();
    for m in &messages {
        queue(&mut sim, ALICE, BOB, m)?;
    }
    // Window is 4: pipelined over several rounds.
    run(&mut sim, RoundPlan::Conversation, 16)?;
    assert_eq!(sim.clients().all_delivered(BOB), messages);
    Ok(())
}

#[test]
fn retransmission_survives_multi_round_outage() -> Result<(), SimError> {
    let mut sim = net(3, 11, 2)?;
    connect(&mut sim, ALICE, BOB)?;

    queue(&mut sim, ALICE, BOB, b"resilient")?;
    sim.step(Step::SetOnline(BOB, false))?;
    run(&mut sim, RoundPlan::Conversation, 5)?;
    assert!(sim.clients().all_delivered(BOB).is_empty());
    sim.step(Step::SetOnline(BOB, true))?;
    run(&mut sim, RoundPlan::Conversation, 4)?;
    assert_eq!(
        sim.clients().all_delivered(BOB),
        vec![b"resilient".to_vec()]
    );
    Ok(())
}

#[test]
fn bidirectional_conversation_interleaves() -> Result<(), SimError> {
    let mut sim = net(2, 13, 2)?;
    connect(&mut sim, ALICE, BOB)?;

    for i in 0..4u8 {
        queue(&mut sim, ALICE, BOB, &[b'a', i])?;
        queue(&mut sim, BOB, ALICE, &[b'b', i])?;
    }
    run(&mut sim, RoundPlan::Conversation, 6)?;
    assert_eq!(
        sim.clients().all_delivered(BOB),
        (0..4u8).map(|i| vec![b'a', i]).collect::<Vec<_>>()
    );
    assert_eq!(
        sim.clients().all_delivered(ALICE),
        (0..4u8).map(|i| vec![b'b', i]).collect::<Vec<_>>()
    );
    Ok(())
}

#[test]
fn dialing_multiple_rounds_reaches_multiple_callees() -> Result<(), SimError> {
    let mut sim = net(3, 17, 3)?;

    // Alice only has one slot by default — ending one conversation frees
    // the slot for the next (§5: "a user may end one conversation to
    // make room for another").
    connect(&mut sim, ALICE, BOB)?;
    queue(&mut sim, ALICE, BOB, b"to bob")?;
    run(&mut sim, RoundPlan::Conversation, 1)?;
    assert_eq!(sim.clients().all_delivered(BOB), vec![b"to bob".to_vec()]);

    let bob_pk = sim.clients().public_key(BOB);
    sim.clients_mut()
        .end_conversation(ALICE, &bob_pk)
        .expect("end");
    connect(&mut sim, ALICE, CAROL)?;
    queue(&mut sim, ALICE, CAROL, b"to carol")?;
    run(&mut sim, RoundPlan::Conversation, 1)?;
    assert_eq!(
        sim.clients().all_delivered(CAROL),
        vec![b"to carol".to_vec()]
    );
    Ok(())
}

#[test]
fn sampled_noise_mode_also_delivers() -> Result<(), SimError> {
    // Everything above uses deterministic noise; production samples.
    let mut scenario = Scenario::new("e2e_sampled", 19);
    scenario.conversation_mu = 8.0;
    scenario.dialing_mu = 4.0;
    scenario.noise_mode = NoiseMode::Sampled;
    let mut sim = Simulator::new(scenario);
    sim.step(Step::Join(2))?;
    connect(&mut sim, ALICE, BOB)?;
    queue(&mut sim, ALICE, BOB, b"sampled")?;
    run(&mut sim, RoundPlan::Conversation, 1)?;
    assert_eq!(sim.clients().all_delivered(BOB), vec![b"sampled".to_vec()]);
    Ok(())
}

#[test]
fn declined_invitation_never_connects() -> Result<(), SimError> {
    let mut sim = net(3, 23, 2)?;
    sim.step(Step::Dial {
        caller: ALICE,
        callee: BOB,
    })?;
    run(&mut sim, RoundPlan::Dialing, 1)?;

    let alice_pk = sim.clients().public_key(ALICE);
    sim.clients_mut().decline_invitation(BOB, &alice_pk);

    // Alice (who pre-entered the conversation) sends into the void: Bob
    // never joins the drop, so nothing is delivered to him.
    queue(&mut sim, ALICE, BOB, b"hello?")?;
    run(&mut sim, RoundPlan::Conversation, 3)?;
    assert!(sim.clients().all_delivered(BOB).is_empty());
    assert!(sim.clients().all_delivered(ALICE).is_empty());
    Ok(())
}
