//! The traffic-analysis attack matrix: a trained distinguisher graded
//! against the composed (ε′, δ′) bound.
//!
//! Each [`AttackCase`] defines a pair of *adjacent worlds* — twin
//! scenarios identical in every step except one target user's
//! behaviour: in the "talking" world client 0 dials client 1 and they
//! hold an active conversation; in the "idle" world both sit as cover
//! traffic. Both worlds run over many seeds on the real chain. The
//! attacker owns the tail, so it reads each run's
//! [`vuvuzela_adversary::AdversaryView`] (`SimReport::view`), which has
//! no ground-truth field, and it knows the noise draws of the noising
//! servers the case says it owns ([`AttackCase::compromised`], read
//! from `SimReport::noise_draws`). Each conversation round's feature is
//! [`pair_activity_feature`] of the histogram less the owned servers'
//! cover ([`subtract_owned_noise`]). A case may also have its
//! compromised first server drop every request but the target pair's
//! ([`AttackCase::disrupt`], §4.2's disruption attack). A
//! [`ThresholdDetector`] trains on the first half of the seeds and is
//! scored on the held-out second half, and the verdict compares its
//! advantage against
//! `max_advantage(ε′, δ′)` with the budget the view reports plus a
//! Hoeffding slack for the finite sample.
//!
//! The matrix is falsifiable in both directions:
//!
//! * the **honest** cases (correctly sized sampled noise, at least one
//!   noising server the attacker does not own, with or without the
//!   disruption) must come in *under* the bound —
//!   `advantage + slack ≤ max_advantage(ε′, δ′)`. `honest_hop0` and
//!   `honest_hop1` are the paper's adversary in a three-server chain:
//!   every server but one noising server compromised (§2.3);
//! * the **noise-off** and **undersized-µ** negative controls claim
//!   the same budget while drawing no (or far too little) cover
//!   traffic, and the **all-compromised** control owns every noising
//!   server, so no honest noise is left; the *same* detector must *beat*
//!   the claimed bound in each — proving the harness has the teeth to
//!   catch a broken deployment.

use parking_lot::Mutex;
use std::sync::Arc;
use vuvuzela_adversary::detector::split_by_seed;
use vuvuzela_adversary::taps::KeepOnly;
use vuvuzela_adversary::{pair_activity_feature, subtract_owned_noise, ThresholdDetector};
use vuvuzela_dp::{NoiseDistribution, NoiseMode};

use crate::scenario::{LedgerNoise, RoundPlan, Scale, Scenario, Step};
use crate::simulator::{run_scenario, SimError, SimReport, Simulator};

/// Grading confidence for the Hoeffding slack: each gate's verdict
/// holds except with probability ≤ α over the sampling noise.
pub const ATTACK_ALPHA: f64 = 0.01;

/// What a case models about the deployment's noise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttackControl {
    /// Correctly sized sampled noise: the DP theorem applies and the
    /// detector must stay under the bound.
    Honest,
    /// [`NoiseMode::Off`]: the ledger still charges the configured
    /// (µ, b) budget but servers send zero cover traffic — the
    /// detector must beat the claimed bound.
    NoiseOff,
    /// Sampled noise with µ far below what the *claimed* ledger
    /// parameters require (the [`Scenario::ledger_noise`] override) —
    /// the detector must beat the claimed bound.
    UndersizedMu,
    /// Correctly sized sampled noise, but the attacker owns every
    /// noising server and subtracts all of it: no honest server is left
    /// for the theorem to rest on, and the detector must beat the bound.
    AllCompromised,
}

impl AttackControl {
    /// Stable artefact name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AttackControl::Honest => "honest",
            AttackControl::NoiseOff => "noise_off",
            AttackControl::UndersizedMu => "undersized_mu",
            AttackControl::AllCompromised => "all_compromised",
        }
    }
}

/// One twin-world attack experiment.
#[derive(Clone, Debug)]
pub struct AttackCase {
    /// Case name (artefact prefix).
    pub name: &'static str,
    /// Which deployment defect (if any) the case models.
    pub control: AttackControl,
    /// `true`: passes iff the detector stays within the bound.
    /// `false`: passes iff the detector exceeds it.
    pub expect_within_bound: bool,
    /// First seed; seed pair i runs both worlds at `base_seed + i`.
    pub base_seed: u64,
    /// Seeded twin runs per world. The first half trains, the second
    /// half is held out for the graded evaluation.
    pub seed_pairs: usize,
    /// Clients per world (target pair + background pair + cover).
    pub population: usize,
    /// Conversation rounds per run (feature samples per transcript).
    pub conversation_rounds: usize,
    /// Deployed conversation noise.
    pub conversation_noise: NoiseDistribution,
    /// Deployed dialing noise.
    pub dialing_noise: NoiseDistribution,
    /// How servers realise the deployed noise.
    pub noise_mode: NoiseMode,
    /// The claimed ledger override, for [`AttackControl::UndersizedMu`].
    pub ledger_noise: Option<LedgerNoise>,
    /// The noising servers the attacker owns, by chain position: their
    /// noise draws come off each round's histogram. The tail is always
    /// owned (it reads the observables); `&[]` is a passive attacker
    /// that knows no server's noise.
    pub compromised: &'static [usize],
    /// §4.2's disruption attack: the forward-batch positions a
    /// compromised first server keeps on link 0 (entry→server 0) in
    /// every round of both worlds, dropping the rest; `None` leaves
    /// every link alone.
    pub disrupt: Option<&'static [usize]>,
}

/// The JSON-serialisable verdict of one attack case.
#[derive(Clone, Debug)]
pub struct AttackVerdict {
    /// Case name.
    pub name: String,
    /// Control kind (`honest`, `noise_off`, `undersized_mu`,
    /// `all_compromised`).
    pub control: String,
    /// The gate direction this case is asserted against.
    pub expect_within_bound: bool,
    /// Held-out trials (rounds × seeds × 2 worlds).
    pub trials: usize,
    /// Held-out accuracy of the trained detector.
    pub accuracy: f64,
    /// Held-out advantage `max(accuracy − ½, 0)`.
    pub advantage: f64,
    /// The trained threshold over [`pair_activity_feature`].
    pub threshold: i64,
    /// The trained orientation.
    pub talking_above: bool,
    /// Composed ε′ the runs' adversary views report.
    pub epsilon: f64,
    /// Composed δ′ the runs' adversary views report.
    pub delta: f64,
    /// `max_advantage(ε′, δ′)`.
    pub bound: f64,
    /// Hoeffding slack at [`ATTACK_ALPHA`] over the held-out trials.
    pub slack: f64,
    /// `advantage + slack ≤ bound`.
    pub within_bound: bool,
    /// `advantage > bound`.
    pub exceeds_bound: bool,
    /// The gate in this case's expected direction.
    pub passed: bool,
}

impl AttackVerdict {
    /// The verdict as a JSON object (the `sim_attack` artefact schema).
    #[must_use]
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "name": self.name.clone(),
            "control": self.control.clone(),
            "expect_within_bound": self.expect_within_bound,
            "trials": self.trials as u64,
            "accuracy": self.accuracy,
            "advantage": self.advantage,
            "threshold": self.threshold,
            "talking_above": self.talking_above,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "bound": self.bound,
            "slack": self.slack,
            "within_bound": self.within_bound,
            "exceeds_bound": self.exceeds_bound,
            "passed": self.passed,
        })
    }
}

/// One executed attack case: the verdict plus a sample twin-transcript
/// pair (the first held-out seed) for artefact inspection.
#[derive(Debug)]
pub struct AttackOutcome {
    /// The graded verdict.
    pub verdict: AttackVerdict,
    /// The talking-world report of the first held-out seed.
    pub sample_talking: SimReport,
    /// The idle-world report of the same seed.
    pub sample_idle: SimReport,
}

impl AttackOutcome {
    /// Whether the case's gate held in its expected direction.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.verdict.passed
    }
}

/// The honest deployment's noise sizing. ε = 4/b per conversation
/// round wants a large b for a meaningful composed budget, while µ
/// only has to clear `b·ln(1/(2δ))`-ish for the per-round δ — so b is
/// set explicitly instead of the bundled matrix's µ/20 ratio. At
/// (µ=200, b=40) conversation and (µ=160, b=32) dialing, 4
/// conversation + 1 dialing rounds compose to ε′ ≈ 1.31,
/// δ′ ≈ 3.2e-2, `max_advantage` ≈ 0.32.
fn honest_conversation_noise() -> NoiseDistribution {
    NoiseDistribution::new(200.0, 40.0)
}

fn honest_dialing_noise() -> NoiseDistribution {
    NoiseDistribution::new(160.0, 32.0)
}

/// The bundled attack matrix: the passive honest case and its two
/// negative controls, then the paper's adversary — every server but
/// one noising server compromised, with and without the disruption
/// attack — and its control that owns every noising server.
#[must_use]
pub fn attack_matrix(scale: Scale) -> Vec<AttackCase> {
    let honest_pairs = match scale {
        Scale::Smoke => 24,
        Scale::Full => 80,
    };
    let control_pairs = match scale {
        Scale::Smoke => 30,
        Scale::Full => 60,
    };
    vec![
        AttackCase {
            name: "honest_sampled",
            control: AttackControl::Honest,
            expect_within_bound: true,
            base_seed: 0xA77AC4,
            seed_pairs: honest_pairs,
            population: 8,
            conversation_rounds: 4,
            conversation_noise: honest_conversation_noise(),
            dialing_noise: honest_dialing_noise(),
            noise_mode: NoiseMode::Sampled,
            ledger_noise: None,
            compromised: &[],
            disrupt: None,
        },
        AttackCase {
            name: "noise_off_control",
            control: AttackControl::NoiseOff,
            expect_within_bound: false,
            base_seed: 0x0FF,
            seed_pairs: control_pairs,
            population: 8,
            conversation_rounds: 4,
            // Same configured budget as the honest case — the ledger
            // charges it even though Off mode sends nothing.
            conversation_noise: honest_conversation_noise(),
            dialing_noise: honest_dialing_noise(),
            noise_mode: NoiseMode::Off,
            ledger_noise: None,
            compromised: &[],
            disrupt: None,
        },
        AttackCase {
            name: "undersized_mu_control",
            control: AttackControl::UndersizedMu,
            expect_within_bound: false,
            base_seed: 0x5A11,
            seed_pairs: control_pairs,
            population: 8,
            conversation_rounds: 4,
            // Servers actually draw µ = 1.5, b = 0.1 — real sampled
            // noise from the real mechanism, but ~100× too little for
            // the claimed budget: the claimed bound allows advantage
            // ≈ 0.32 and this noise leaves the detector ≈ 0.48.
            conversation_noise: NoiseDistribution::new(1.5, 0.1),
            dialing_noise: NoiseDistribution::new(1.5, 0.1),
            noise_mode: NoiseMode::Sampled,
            ledger_noise: Some(LedgerNoise {
                conversation: honest_conversation_noise(),
                dialing: honest_dialing_noise(),
            }),
            compromised: &[],
            disrupt: None,
        },
        // The paper's adversary: it owns servers 1 and 2, so server 0's
        // noise alone covers the pair.
        AttackCase {
            name: "honest_hop0",
            base_seed: 0x0B00,
            compromised: &[1],
            ..owned_noise_case(honest_pairs)
        },
        // Servers 0 and 2 owned: server 1's noise alone.
        AttackCase {
            name: "honest_hop1",
            base_seed: 0x0C00,
            compromised: &[0],
            ..owned_noise_case(honest_pairs)
        },
        // Every noising server owned, so no honest noise is left.
        AttackCase {
            name: "all_compromised_control",
            control: AttackControl::AllCompromised,
            expect_within_bound: false,
            base_seed: 0x0A11,
            compromised: &[0, 1],
            ..owned_noise_case(control_pairs)
        },
        // §4.2: the owned first server keeps only clients 0 and 1 (the
        // target pair, first in batch order) in every round, dialing
        // included, and the owned tail reads what is left. Server 1's
        // noise must still cover the pair.
        AttackCase {
            name: "disruption_honest_hop1",
            base_seed: 0x0D15,
            compromised: &[0],
            disrupt: Some(&[0, 1]),
            ..owned_noise_case(honest_pairs)
        },
    ]
}

/// The honest case's deployment (µ = 200, b = 40, claiming its
/// budget) as the paper's attacker meets it, for a case to name, seed
/// and give its owned servers.
fn owned_noise_case(seed_pairs: usize) -> AttackCase {
    AttackCase {
        name: "",
        control: AttackControl::Honest,
        expect_within_bound: true,
        base_seed: 0,
        seed_pairs,
        population: 8,
        conversation_rounds: 4,
        conversation_noise: honest_conversation_noise(),
        dialing_noise: honest_dialing_noise(),
        noise_mode: NoiseMode::Sampled,
        ledger_noise: None,
        compromised: &[],
        disrupt: None,
    }
}

/// Builds one world of a case's twin pair. Both worlds share the seed
/// and every step except the target pair's behaviour: a background
/// pair (clients 2, 3) dials and idles in both, and in the talking
/// world clients 0 and 1 additionally dial, accept and hold an active
/// conversation through every conversation round.
#[must_use]
pub fn twin_scenario(case: &AttackCase, seed: u64, talking: bool) -> Scenario {
    let world = if talking { "talking" } else { "idle" };
    let mut s = Scenario::new(&format!("{}__{world}", case.name), seed);
    s.conversation_mu = case.conversation_noise.mu;
    s.conversation_b = Some(case.conversation_noise.b);
    s.dialing_mu = case.dialing_noise.mu;
    s.dialing_b = Some(case.dialing_noise.b);
    s.noise_mode = case.noise_mode;
    s.ledger_noise = case.ledger_noise;
    s.steps.push(Step::Join(case.population));
    // The background pair keeps the dialing round non-degenerate in
    // both worlds.
    s.steps.push(Step::Dial {
        caller: 2,
        callee: 3,
    });
    if talking {
        s.steps.push(Step::Dial {
            caller: 0,
            callee: 1,
        });
    }
    s.steps.push(Step::Run(vec![RoundPlan::Dialing]));
    s.steps.push(Step::AcceptAll);
    if talking {
        s.steps.push(Step::Queue {
            from: 0,
            to: 1,
            body: b"target pair payload".to_vec(),
        });
    }
    s.steps.push(Step::Run(vec![
        RoundPlan::Conversation;
        case.conversation_rounds
    ]));
    s
}

/// Everything one world's seeded runs produce: per-seed feature
/// vectors (one [`pair_activity_feature`] per conversation round) and
/// the raw reports.
struct WorldRuns {
    per_seed: Vec<Vec<i64>>,
    reports: Vec<SimReport>,
}

/// Runs every seeded twin of one world.
fn run_world(case: &AttackCase, talking: bool) -> Result<WorldRuns, SimError> {
    let mut per_seed = Vec::with_capacity(case.seed_pairs);
    let mut reports = Vec::with_capacity(case.seed_pairs);
    for i in 0..case.seed_pairs {
        let seed = case.base_seed.wrapping_add(i as u64);
        let scenario = twin_scenario(case, seed, talking);
        let report = match case.disrupt {
            None => run_scenario(&scenario)?,
            // The disruption trips the participation invariants, so its
            // worlds run in tolerant mode, as a soak case does.
            Some(keep) => {
                let mut sim = Simulator::new(scenario);
                sim.chain_mut()
                    .link_mut(0)
                    .attach_tap(Arc::new(Mutex::new(KeepOnly {
                        indices: keep.to_vec(),
                        only_round: None,
                    })));
                sim.run_collecting().0
            }
        };
        let features: Vec<i64> = report
            .view
            .conversation_rounds()
            .filter_map(|(round, observables)| Some((round, observables?)))
            .map(|(round, o)| {
                let draws = &report.noise_draws[&round];
                let owned = case.compromised.iter().map(|&i| draws[i]);
                let (m1, m2) = subtract_owned_noise(o.m1, o.m2, owned);
                pair_activity_feature(m1, m2)
            })
            .collect();
        if features.len() != case.conversation_rounds {
            return Err(SimError::Attack(format!(
                "seed {seed}: expected {} observable conversation rounds, got {}",
                case.conversation_rounds,
                features.len()
            )));
        }
        per_seed.push(features);
        reports.push(report);
    }
    Ok(WorldRuns { per_seed, reports })
}

/// Runs one attack case end to end: both worlds over every seed, the
/// train/held-out split, detector fitting, and the bound comparison.
///
/// # Errors
///
/// Propagates the first simulation failure, or [`SimError::Attack`]
/// for a run missing a conversation round's observables.
///
/// # Panics
///
/// Panics if the twin runs disagree on the composed budget —
/// adjacent worlds run the same round schedule, so their ledgers must
/// match to the bit.
pub fn run_attack_case(case: &AttackCase) -> Result<AttackOutcome, SimError> {
    assert!(
        case.seed_pairs >= 2,
        "need at least one train and one held-out seed"
    );
    let mut talking = run_world(case, true)?;
    let mut idle = run_world(case, false)?;

    let budget = talking.reports[0].view.budget;
    for other in talking.reports.iter().chain(&idle.reports) {
        let other = other.view.budget;
        assert!(
            (other.epsilon - budget.epsilon).abs() < 1e-12
                && (other.delta - budget.delta).abs() < 1e-12,
            "twin runs disagree on the composed budget: {budget:?} vs {other:?}"
        );
    }

    let (train_talking, test_talking) = split_by_seed(&talking.per_seed);
    let (train_idle, test_idle) = split_by_seed(&idle.per_seed);
    let detector = ThresholdDetector::train(&train_talking, &train_idle);
    let outcome = detector.evaluate(&test_talking, &test_idle);
    let grade = outcome.grade(budget.epsilon, budget.delta, ATTACK_ALPHA);

    let passed = if case.expect_within_bound {
        grade.within_bound
    } else {
        grade.exceeds_bound
    };
    let verdict = AttackVerdict {
        name: case.name.to_string(),
        control: case.control.name().to_string(),
        expect_within_bound: case.expect_within_bound,
        trials: outcome.trials,
        accuracy: outcome.accuracy,
        advantage: outcome.advantage,
        threshold: detector.threshold,
        talking_above: detector.talking_above,
        epsilon: budget.epsilon,
        delta: budget.delta,
        bound: grade.bound,
        slack: grade.slack,
        within_bound: grade.within_bound,
        exceeds_bound: grade.exceeds_bound,
        passed,
    };
    // Keep the first held-out seed's twin pair as the inspectable
    // artefact.
    let held_out = case.seed_pairs / 2;
    Ok(AttackOutcome {
        verdict,
        sample_talking: talking.reports.swap_remove(held_out),
        sample_idle: idle.reports.swap_remove(held_out),
    })
}
