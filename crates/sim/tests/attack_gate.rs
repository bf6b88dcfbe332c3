//! The attack matrix's acceptance gates, asserted in both directions:
//! the honest deployment stays under the composed (ε′, δ′) bound — to a
//! passive attacker, and to one that owns every server but one noising
//! server, with or without the §4.2 disruption — and the negative
//! controls — noise off, undersized µ, every noising server owned —
//! beat it. Plus the glue contracts: the adversary view's budget
//! matches an independent dp-crate recomputation (aborted rounds
//! included), and the view of a real bundled run holds every completed
//! round with the last server's own observables.

use std::sync::OnceLock;
use vuvuzela_dp::accounting::combine;
use vuvuzela_dp::{NoiseDistribution, PrivacyLedger, Protocol};
use vuvuzela_sim::{
    attack_matrix, bundled_matrix, run_deployment, run_scenario, AttackDeployment, AttackOutcome,
    AttackVerdict, Scale, Scenario, Simulator,
};

fn bundled(name: &str) -> Scenario {
    bundled_matrix(Scale::Smoke)
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("bundled matrix has {name}"))
}

/// Row `name`'s verdict on `outcome`, the runs of `deployment`.
fn grade(outcome: &AttackOutcome, deployment: &AttackDeployment, name: &str) -> AttackVerdict {
    let attacker = deployment.attackers.iter().find(|a| a.name == name);
    outcome.grade(attacker.unwrap_or_else(|| panic!("{name} attacks this deployment")))
}

/// The deployment that row `name` attacks.
fn deployment_of(name: &str) -> AttackDeployment {
    attack_matrix(Scale::Smoke)
        .into_iter()
        .find(|d| d.attackers.iter().any(|a| a.name == name))
        .unwrap_or_else(|| panic!("attack matrix has {name}"))
}

/// Runs the deployment of row `name` and grades that row.
fn run_row(name: &str) -> AttackVerdict {
    let deployment = deployment_of(name);
    let outcome = run_deployment(&deployment).expect("deployment runs");
    grade(&outcome, &deployment, name)
}

/// Row `name` graded on the honest deployment's runs, which run once
/// for every test in this file.
fn honest_row(name: &str) -> AttackVerdict {
    static RUNS: OnceLock<(AttackDeployment, AttackOutcome)> = OnceLock::new();
    let (deployment, outcome) = RUNS.get_or_init(|| {
        let deployment = deployment_of("honest_sampled");
        let outcome = run_deployment(&deployment).expect("deployment runs");
        (deployment, outcome)
    });
    grade(outcome, deployment, name)
}

#[test]
fn honest_deployment_stays_within_the_composed_bound() {
    let v = honest_row("honest_sampled");
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
    let v = run_row("noise_off_control");
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
    let v = run_row("undersized_mu_control");
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
/// exactly once it subtracts their noise, while the passive attacker on
/// the same runs — the histogram as the tail shows it — stays within
/// the bound: the subtraction is what gives this control its teeth.
#[test]
fn all_compromised_control_beats_the_bound_only_with_the_owned_noise() {
    let owned = deployment_of("all_compromised_control");
    let attacker = owned
        .attackers
        .iter()
        .find(|a| a.name == "all_compromised_control");
    assert_eq!(attacker.map(|a| a.compromised), Some(&[0, 1][..]));
    let v = honest_row("all_compromised_control");
    assert!(!v.expect_within_bound);
    assert!(
        v.exceeds_bound && v.passed,
        "owned-noise advantage {} must exceed bound {}",
        v.advantage,
        v.bound
    );
    let passive = honest_row("honest_sampled");
    assert_eq!(passive.trials, v.trials, "one deployment, one set of runs");
    assert!(
        passive.within_bound,
        "passive advantage {} + slack {} must be ≤ bound {}",
        passive.advantage, passive.slack, passive.bound
    );
}

/// The paper's adversary — every server but one noising server owned —
/// stays within the bound: `v` is its row's verdict over `trials`
/// held-out trials.
fn paper_adversary_stays_within_the_bound(name: &str, v: &AttackVerdict, trials: usize) {
    let deployment = deployment_of(name);
    let attacker = deployment.attackers.iter().find(|a| a.name == name);
    let owned = attacker.map(|a| a.compromised.len());
    assert_eq!(owned, Some(1), "one noising server is honest");
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
    assert_eq!(v.trials, trials);
}

#[test]
fn honest_hop0_stays_within_the_composed_bound() {
    let v = honest_row("honest_hop0");
    paper_adversary_stays_within_the_bound("honest_hop0", &v, 12 * 4 * 2);
}

#[test]
fn honest_hop1_stays_within_the_composed_bound() {
    let v = honest_row("honest_hop1");
    paper_adversary_stays_within_the_bound("honest_hop1", &v, 12 * 4 * 2);
}

/// The §4.2 disruption, at a reduced seed count.
#[test]
fn disruption_with_an_honest_hop1_stays_within_the_composed_bound() {
    let name = "disruption_honest_hop1";
    let reduced = AttackDeployment {
        seed_pairs: 16,
        ..deployment_of(name)
    };
    assert_eq!(reduced.disrupt, Some(&[0, 1][..]));
    let outcome = run_deployment(&reduced).expect("deployment runs");
    let v = grade(&outcome, &reduced, name);
    paper_adversary_stays_within_the_bound(name, &v, 8 * 4 * 2);
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
    let deployment = &attack_matrix(Scale::Smoke)[0];
    let scenario = vuvuzela_sim::twin_scenario(deployment, 7, true);
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
        .map(|(round, o)| (*round, *o))
        .collect();
    let dialing: Vec<_> = chain
        .dialing_observables()
        .iter()
        .map(|(round, o)| (*round, o.clone()))
        .collect();
    let report = sim.run().expect("no steps left");
    let view = &report.view;
    let recorded: Vec<_> = view
        .conversation_rounds()
        .map(|(round, o)| (round, *o))
        .collect();
    assert_eq!(recorded, conversation);
    let recorded: Vec<_> = view
        .dialing_rounds()
        .map(|(round, o)| (round, o.clone()))
        .collect();
    assert_eq!(recorded, dialing);
    assert_eq!(
        (conversation.len() + dialing.len()) as u64,
        report.rounds_completed
    );
    let mut completed: Vec<u64> = conversation.iter().map(|(round, _)| *round).collect();
    completed.extend(dialing.iter().map(|(round, _)| *round));
    completed.sort_unstable();
    assert!(
        view.record.keys().copied().eq(completed),
        "one round record per completed round"
    );
}
