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
//! Part 2 evaluates all three attacks statistically (10,000+ trials at
//! the observable level) and compares attacker accuracy with the
//! differential-privacy ceiling.
//!
//! Run: `cargo run --release --example traffic_analysis`

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::Arc;
use vuvuzela::adversary::attacks::{DisruptionAttack, IntersectionAttack};
use vuvuzela::adversary::bounds::max_accuracy;
use vuvuzela::adversary::model::ObservableModel;
use vuvuzela::adversary::taps::KeepOnly;
use vuvuzela::dp::accounting::conversation_round;
use vuvuzela::dp::{NoiseDistribution, NoiseMode};
use vuvuzela::sim::{RoundPlan, Scenario, SimError, Simulator, Step};

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

    println!("\n=== Part 2: attack accuracy over many trials (observable model) ===\n");
    let mut rng = StdRng::seed_from_u64(99);
    let no_noise_model = ObservableModel {
        noising_servers: 2,
        noise: NoiseDistribution::new(1.0, 1.0),
        mode: NoiseMode::Off,
    };
    let vuvuzela_model = ObservableModel {
        noising_servers: 2,
        noise: NoiseDistribution::new(1_000.0, 50.0),
        mode: NoiseMode::Sampled,
    };
    let round = conversation_round(1_000.0, 50.0);
    let ceiling = max_accuracy(round.epsilon, round.delta);

    let attack = IntersectionAttack { window: 5 };
    println!(
        "intersection attack: no-noise {:.1}%, Vuvuzela {:.1}% (DP ceiling {:.1}%)",
        100.0 * attack.evaluate(&mut rng, &no_noise_model, 5, 4000),
        100.0 * attack.evaluate(&mut rng, &vuvuzela_model, 5, 4000),
        100.0 * ceiling
    );
    println!(
        "disruption attack:   no-noise {:.1}%, Vuvuzela {:.1}% (DP ceiling {:.1}%)",
        100.0 * DisruptionAttack::evaluate(&mut rng, &no_noise_model, 4000),
        100.0 * DisruptionAttack::evaluate(&mut rng, &vuvuzela_model, 4000),
        100.0 * ceiling
    );
    println!("\n50% = coin flip; the noise pushes a perfect oracle down to the DP bound.");
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
