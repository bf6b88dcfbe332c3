//! Multiple concurrent conversations (paper §9).
//!
//! "To enable multiple concurrent conversations, Vuvuzela clients can
//! perform multiple conversation protocol exchanges in each round. …
//! the client should pick a maximum number of conversations a priori
//! (say, 5), and always send that many conversation protocol exchange
//! messages per round."
//!
//! This example runs clients with 3 slots each: Alice talks to Bob and
//! Carol simultaneously while her third slot sends fakes — and the wire
//! traffic is identical to a client with three real conversations.
//!
//! Run: `cargo run --release --example multi_conversation`

use vuvuzela::net::Direction;
use vuvuzela::sim::{RoundPlan, Scenario, SimError, Simulator, Step};

fn main() -> Result<(), SimError> {
    let mut scenario = Scenario::new("multi_conversation", 5);
    scenario.conversation_mu = 30.0;
    scenario.dialing_mu = 10.0;
    scenario.dialing_b = Some(2.0);
    scenario.slots = 3;
    let mut sim = Simulator::new(scenario);

    // Alice, Bob, Carol, and Dave, who stays fully idle: three fake slots.
    let (alice, bob, carol) = (0, 1, 2);
    sim.step(Step::Join(4))?;

    // One invitation goes out per dialing round (fixed rate, §5.2), so
    // dialing two partners takes two rounds.
    sim.step(Step::Dial {
        caller: alice,
        callee: bob,
    })?;
    sim.step(Step::Dial {
        caller: alice,
        callee: carol,
    })?;
    sim.step(Step::Run(vec![RoundPlan::Dialing]))?;
    sim.step(Step::Run(vec![RoundPlan::Dialing]))?;
    sim.step(Step::AcceptAll)?;

    for (from, to, body) in [
        (alice, bob, "bob: the meeting moved to 3pm"),
        (alice, carol, "carol: bring the slides"),
        (bob, alice, "got it"),
    ] {
        sim.step(Step::Queue {
            from,
            to,
            body: body.as_bytes().to_vec(),
        })?;
    }
    sim.step(Step::Run(vec![RoundPlan::Conversation]))?;
    sim.step(Step::Run(vec![RoundPlan::Conversation]))?;

    let received = |user: usize| -> Vec<String> {
        sim.clients()
            .all_delivered(user)
            .into_iter()
            .map(|m| String::from_utf8_lossy(&m).into_owned())
            .collect()
    };
    println!("bob received:   {:?}", received(bob));
    println!("carol received: {:?}", received(carol));
    println!("alice received: {:?}", received(alice));
    assert_eq!(received(bob).len(), 1);
    assert_eq!(received(carol).len(), 1);
    assert_eq!(received(alice).len(), 1);

    // Every client sent exactly 3 requests per round, busy or idle:
    // rounds 2 and 3 are the conversation rounds.
    let client_link = sim.chain().client_link();
    for round in [2, 3] {
        let (requests, _) = client_link.round_traffic(round, Direction::Forward);
        println!(
            "requests in conversation round {round}: {requests} \
             (4 users × 3 slots, real or fake — indistinguishable)"
        );
        assert_eq!(requests, 12);
    }
    Ok(())
}
