//! The attack matrix's acceptance gates, asserted in both directions:
//! the honest deployment stays under the composed (ε′, δ′) bound — to a
//! passive attacker, and to one that owns every server but one noising
//! server, with or without the §4.2 disruption — and the negative
//! controls — noise off, undersized µ, every noising server owned —
//! beat it. Plus the glue contracts: the adversary view's budget
//! matches an independent dp-crate recomputation (aborted rounds
//! included), and the view of a real bundled run holds every completed
//! round with the last server's own observables.

use vuvuzela_dp::accounting::combine;
use vuvuzela_dp::{NoiseDistribution, PrivacyLedger, Protocol};
use vuvuzela_net::LinkId;
use vuvuzela_sim::{
    attack_matrix, bundled_matrix, run_attack_case, run_scenario, AttackCase, AttackControl, Scale,
    Scenario, Simulator,
};

fn bundled(name: &str) -> Scenario {
    bundled_matrix(Scale::Smoke)
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("bundled matrix has {name}"))
}

fn case(name: &str) -> AttackCase {
    attack_matrix(Scale::Smoke)
        .into_iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("attack matrix has {name}"))
}

fn run_control(control: AttackControl) -> vuvuzela_sim::AttackVerdict {
    let case = attack_matrix(Scale::Smoke)
        .into_iter()
        .find(|c| c.control == control)
        .expect("matrix covers every control");
    run_attack_case(&case).expect("case runs").verdict
}

#[test]
fn honest_deployment_stays_within_the_composed_bound() {
    let v = run_control(AttackControl::Honest);
    assert!(v.expect_within_bound);
    assert!(
        v.within_bound,
        "honest advantage {} + slack {} must be ≤ bound {} (ε′={}, δ′={})",
        v.advantage, v.slack, v.bound, v.epsilon, v.delta
    );
    assert!(v.passed);
    // The budget must be meaningful — a vacuous bound (0.5) would make
    // the gate impossible to fail.
    assert!(v.bound < 0.45, "bound {} is close to vacuous", v.bound);
    assert!(v.trials >= 90, "held-out sample too small: {}", v.trials);
}

#[test]
fn noise_off_control_beats_the_claimed_bound() {
    let v = run_control(AttackControl::NoiseOff);
    assert!(!v.expect_within_bound);
    // Zero cover traffic: the twin worlds are perfectly separable.
    assert!(
        v.exceeds_bound,
        "noise-off advantage {} must exceed bound {}",
        v.advantage, v.bound
    );
    assert!(v.passed);
    assert!(
        v.accuracy > 0.95,
        "a noiseless mixnet should be nearly perfectly distinguishable, got {}",
        v.accuracy
    );
}

#[test]
fn undersized_mu_control_beats_the_claimed_bound() {
    let v = run_control(AttackControl::UndersizedMu);
    assert!(!v.expect_within_bound);
    assert!(
        v.exceeds_bound,
        "undersized-µ advantage {} must exceed claimed bound {}",
        v.advantage, v.bound
    );
    assert!(v.passed);
    // The claimed budget (not the actual tiny noise) sets the bound.
    assert!((v.epsilon - honest_budget().0).abs() < 1e-9);
}

/// The attacker that owns both noising servers sees the target pair
/// exactly once it subtracts their noise, and the same runs read
/// passively — the histogram as the tail shows it, regraded without
/// running again — stay within the bound: the subtraction is what gives
/// this control its teeth.
#[test]
fn all_compromised_control_beats_the_bound_only_with_the_owned_noise() {
    let owned = case("all_compromised_control");
    assert_eq!(owned.compromised, &[0, 1]);
    let outcome = run_attack_case(&owned).expect("case runs");
    let v = &outcome.verdict;
    assert!(!v.expect_within_bound);
    assert!(
        v.exceeds_bound && v.passed,
        "owned-noise advantage {} must exceed bound {}",
        v.advantage,
        v.bound
    );
    assert_eq!(
        outcome.regrade(&owned, owned.compromised).to_json(),
        v.to_json(),
        "regrading with the case's own set is the verdict"
    );
    let v = outcome.regrade(&owned, &[]);
    assert!(
        v.within_bound,
        "passive advantage {} + slack {} must be ≤ bound {}",
        v.advantage, v.slack, v.bound
    );
}

/// The paper's adversary — every server but one noising server owned,
/// the §4.2 disruption included — stays within the bound at a reduced
/// seed count.
fn paper_adversary_stays_within_the_bound(name: &str) {
    let reduced = AttackCase {
        seed_pairs: 16,
        ..case(name)
    };
    assert_eq!(reduced.compromised.len(), 1, "one noising server is honest");
    let v = run_attack_case(&reduced).expect("case runs").verdict;
    assert!(v.expect_within_bound);
    assert!(
        v.within_bound && v.passed,
        "{name}: advantage {} + slack {} must be ≤ bound {} (ε′={}, δ′={})",
        v.advantage,
        v.slack,
        v.bound,
        v.epsilon,
        v.delta
    );
    assert_eq!(v.trials, 8 * 4 * 2);
}

#[test]
fn honest_hop0_stays_within_the_composed_bound() {
    paper_adversary_stays_within_the_bound("honest_hop0");
}

#[test]
fn honest_hop1_stays_within_the_composed_bound() {
    paper_adversary_stays_within_the_bound("honest_hop1");
}

#[test]
fn disruption_with_an_honest_hop1_stays_within_the_composed_bound() {
    assert_eq!(case("disruption_honest_hop1").disrupt, Some(&[0, 1][..]));
    paper_adversary_stays_within_the_bound("disruption_honest_hop1");
}

/// Independent recomputation of the honest composed budget: 4
/// conversation + 1 dialing rounds at (µ=200, b=40)/(µ=160, b=32)
/// through the dp crate's own ledger.
fn honest_budget() -> (f64, f64) {
    let mut ledger = PrivacyLedger::new(
        NoiseDistribution::new(200.0, 40.0),
        NoiseDistribution::new(160.0, 32.0),
        1e-5,
    );
    ledger.charge(Protocol::Dialing);
    for _ in 0..4 {
        ledger.charge(Protocol::Conversation);
    }
    let total = combine(
        ledger.spent(Protocol::Conversation),
        ledger.spent(Protocol::Dialing),
    );
    (total.epsilon, total.delta)
}

#[test]
fn transcript_budget_matches_independent_dp_recomputation() {
    let case = &attack_matrix(Scale::Smoke)[0];
    let scenario = vuvuzela_sim::twin_scenario(case, 7, true);
    let budget = run_scenario(&scenario).expect("runs").view.budget;
    let (eps, delta) = honest_budget();
    assert!(
        (budget.epsilon - eps).abs() < 1e-12,
        "view ε′ {} vs recomputed {}",
        budget.epsilon,
        eps
    );
    assert!((budget.delta - delta).abs() < 1e-12);
}

#[test]
fn aborted_rounds_are_charged_but_not_recorded() {
    // server_fault: one dialing round, a three-round conversation
    // schedule that aborts, then three conversation rounds that
    // complete. The conservative ledger charges all six conversation
    // rounds; the adversary view records only the three that completed.
    let report = run_scenario(&bundled("server_fault")).expect("runs");
    assert_eq!(report.schedules_aborted, 1);
    let mut ledger = PrivacyLedger::new(
        NoiseDistribution::new(6.0, 0.5),
        NoiseDistribution::new(3.0, 0.5),
        1e-5,
    );
    ledger.charge(Protocol::Dialing);
    for _ in 0..6 {
        ledger.charge(Protocol::Conversation);
    }
    assert_eq!(report.view.budget, ledger.total_spent());
    assert_eq!(report.view.conversation_rounds().count(), 3);
    assert_eq!(report.view.dialing_rounds().count(), 1);
}

#[test]
fn view_records_every_completed_round_with_the_last_servers_observables() {
    // A full-featured scenario (taps, scans, deliveries, mixed
    // schedules): every completed round has one record, carrying
    // exactly what the last server published for that round.
    let mut scenario = bundled("steady_state");
    let steps = std::mem::take(&mut scenario.steps);
    let mut sim = Simulator::new(scenario);
    for step in steps {
        sim.step(step).expect("steady_state passes its invariants");
    }
    let chain = sim.chain();
    let conversation: Vec<_> = chain
        .conversation_observables()
        .iter()
        .map(|(round, o)| (*round, Some(*o)))
        .collect();
    let dialing: Vec<_> = chain
        .dialing_observables()
        .iter()
        .map(|(round, o)| (*round, Some(o.clone())))
        .collect();
    let report = sim.run().expect("no steps left");
    let view = &report.view;
    let recorded: Vec<_> = view
        .conversation_rounds()
        .map(|(round, o)| (round, o.copied()))
        .collect();
    assert_eq!(recorded, conversation);
    let recorded: Vec<_> = view
        .dialing_rounds()
        .map(|(round, o)| (round, o.cloned()))
        .collect();
    assert_eq!(recorded, dialing);
    assert_eq!(
        (conversation.len() + dialing.len()) as u64,
        report.rounds_completed
    );
    assert!(!view.taps.is_empty(), "steady_state observes a link");
    assert!(view.taps.iter().all(|t| t.link == LinkId::Hop(1)));
}
