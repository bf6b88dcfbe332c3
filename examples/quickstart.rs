//! Quickstart: two users dial and converse over a three-server chain.
//!
//! This is the smallest complete Vuvuzela deployment: a chain of three
//! mix servers (one honest server suffices for privacy), an untrusted
//! entry, and two clients. Alice dials Bob through the dialing protocol,
//! Bob accepts the invitation, and they exchange text messages through
//! per-round dead drops. The simulator drives it step by step and checks
//! every round's privacy invariants as it goes.
//!
//! Run: `cargo run --release --example quickstart`

use vuvuzela::sim::{RoundPlan, Scenario, SimError, Simulator, Step};

fn main() -> Result<(), SimError> {
    // A 3-server chain (paper §8.1) with deterministic cover traffic of
    // µ=50 per noising server — laptop-scale parameters; production uses
    // µ=300,000 (see SystemConfig::paper_scale()).
    let mut scenario = Scenario::new("quickstart", 7);
    scenario.conversation_mu = 50.0;
    scenario.dialing_mu = 10.0;
    let mut sim = Simulator::new(scenario);

    let (alice, bob) = (0, 1);
    sim.step(Step::Join(2))?;
    println!("users connected: alice, bob (both clients always send — idle or not)");

    // --- Dialing (paper §5): Alice invites Bob to a conversation. ---
    sim.step(Step::Dial {
        caller: alice,
        callee: bob,
    })?;
    sim.step(Step::Run(vec![RoundPlan::Dialing]))?;
    println!(
        "dialing round 0 complete; bob's invitations: {:?}",
        sim.clients()
            .pending_invitations(bob)
            .iter()
            .map(|pk| format!("{pk:?}"))
            .collect::<Vec<_>>()
    );
    sim.step(Step::AcceptAll)?;

    // --- Conversation (paper §4): per-round dead-drop exchanges. ---
    sim.step(Step::Queue {
        from: alice,
        to: bob,
        body: b"hello, Bob! this line is metadata-private.".to_vec(),
    })?;
    sim.step(Step::Queue {
        from: bob,
        to: alice,
        body: b"hi Alice, nobody can tell we're talking.".to_vec(),
    })?;
    sim.step(Step::Run(vec![RoundPlan::Conversation]))?;

    for (user, name) in [(alice, "alice"), (bob, "bob")] {
        for msg in sim.clients().all_delivered(user) {
            println!("{name} received: {}", String::from_utf8_lossy(&msg));
        }
    }

    // What the (compromised) last server saw: only a noised histogram.
    let (_, obs) = sim.chain().chain().conversation_observables()[0];
    println!(
        "\nlast server observed: m1={} single-access drops, m2={} double-access drops",
        obs.m1, obs.m2
    );
    println!(
        "(the real conversation contributes exactly 1 to m2; the other {} are cover traffic)",
        obs.m2 - 1
    );
    Ok(())
}
