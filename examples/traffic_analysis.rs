//! Traffic analysis in action: the §4.2 attacks against a noiseless
//! mixnet, and why they fail against Vuvuzela.
//!
//! Part 1 runs the *disruption attack* end to end through the real
//! chain: a coalition controlling the first and last servers drops every
//! request except Alice's and Bob's, then reads the dead-drop histogram.
//! Without noise this is a perfect oracle; with noise the histogram is
//! dominated by cover traffic. The simulator's invariant checker sees
//! the tampering either way, and the example lists what it flagged.
//!
//! Part 2 runs the paper's attacker on the running system: twin worlds
//! (Alice talking to Bob, or idle) over a few seeds each, run once and
//! graded by the attack harness's trained detector (`sim_attack`'s
//! honest deployment, at fewer seeds) for each attacker in turn.
//! Passive, or owning every server but one noising hop and subtracting
//! the owned servers' noise, the attacker stays near a coin flip; owning
//! both noising servers, it reads the pair exactly and beats the DP
//! ceiling.
//!
//! Run: `cargo run --release --example traffic_analysis`

use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;
use vuvuzela::adversary::taps::KeepOnly;
use vuvuzela::dp::NoiseMode;
use vuvuzela::sim::{
    attack_matrix, run_deployment, AttackDeployment, RoundPlan, Scale, Scenario, SimError,
    Simulator, Step,
};

fn main() -> Result<(), SimError> {
    println!("=== Part 1: disruption attack through the real chain ===\n");
    for (label, noised) in [("no-noise mixnet", false), ("Vuvuzela", true)] {
        let (m2, flagged) = run_disruption(noised, true)?;
        let (m2_idle, _) = run_disruption(noised, false)?;
        println!("{label:>16}: m2 with Alice↔Bob talking = {m2}, with Alice idle = {m2_idle}");
        println!("{:>16}  (the invariant checker flagged: {flagged:?})", "");
        if !noised {
            println!(
                "{:>16}  → the single-round histogram is a perfect conversation oracle",
                ""
            );
        } else {
            println!(
                "{:>16}  → both values sit inside the noise distribution; one sample says nothing",
                ""
            );
        }
    }

    println!("\n=== Part 2: the paper's attacker on the running system ===\n");
    let honest = AttackDeployment {
        seed_pairs: 6,
        ..attack_matrix(Scale::Smoke).swap_remove(0)
    };
    let runs = run_deployment(&honest)?;
    for attacker in &honest.attackers {
        let v = runs.grade(attacker);
        println!(
            "{:>24}: owns noising servers {:?}, accuracy {:.1}% over {} held-out rounds \
             (DP ceiling {:.1}%)",
            v.name,
            attacker.compromised,
            100.0 * v.accuracy,
            v.trials,
            100.0 * (0.5 + v.bound)
        );
    }
    println!("\n50% = coin flip; one honest server's noise holds the attacker under the ceiling.");
    Ok(())
}

/// Runs one round with the disruption tap installed; returns the
/// last-server m2 the attacking coalition observes, and the invariants
/// the checker flagged.
fn run_disruption(noised: bool, talking: bool) -> Result<(u64, BTreeSet<&'static str>), SimError> {
    // Deterministic noise of µ = 40, b = 8 — or none: the no-noise
    // mixnet is the same deployment with its cover traffic off.
    let mut scenario = Scenario::new("traffic_analysis", 21);
    scenario.conversation_mu = 40.0;
    scenario.conversation_b = Some(8.0);
    scenario.dialing_mu = 10.0;
    scenario.dialing_b = Some(2.0);
    if !noised {
        scenario.noise_mode = NoiseMode::Off;
    }
    let mut sim = Simulator::new(scenario);

    // Alice, Bob and six other users.
    let (alice, bob) = (0, 1);
    sim.step(Step::Join(8))?;
    if talking {
        sim.step(Step::Dial {
            caller: alice,
            callee: bob,
        })?;
        sim.step(Step::Run(vec![RoundPlan::Dialing]))?;
        sim.step(Step::AcceptAll)?;
    }

    // The compromised first server keeps only Alice's and Bob's requests
    // (clients 0 and 1 in batch order on the clients→entry link).
    sim.chain_mut()
        .client_link_mut()
        .attach_tap(Arc::new(Mutex::new(KeepOnly {
            indices: vec![alice, bob],
            only_round: None,
        })));
    sim.tolerate_violations();

    sim.step(Step::Run(vec![RoundPlan::Conversation]))?;
    let (_, obs) = *sim
        .chain()
        .conversation_observables()
        .last()
        .expect("one round ran");
    let flagged = sim.violations().iter().map(|v| v.invariant).collect();
    Ok((obs.m2, flagged))
}
