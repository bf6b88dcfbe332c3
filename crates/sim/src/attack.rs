//! The traffic-analysis attack matrix: a trained distinguisher graded
//! against the composed (ε′, δ′) bound.
//!
//! Each [`AttackDeployment`] defines a pair of *adjacent worlds* — twin
//! scenarios identical in every step except one target user's
//! behaviour: in the "talking" world client 0 dials client 1 and they
//! hold an active conversation; in the "idle" world both sit as cover
//! traffic. Both worlds run once over many seeds on the real chain
//! ([`run_deployment`]), and every [`Attacker`] of the deployment is
//! graded on those same runs ([`AttackOutcome::grade`]). Each world's
//! sample seed runs a second time over loopback TCP
//! ([`Simulator::over_wire`]), and the deployment is refused unless
//! that twin's transcript, public record and graded rounds equal the
//! in-process run's. An attacker
//! owns the tail, so it reads each run's
//! [`vuvuzela_adversary::AdversaryView`] (`SimReport::view`), which has
//! no ground-truth field, and it knows the noise draws of the noising
//! servers it owns ([`Attacker::compromised`], read from
//! `SimReport::noise_draws`). Each conversation round's feature is
//! [`pair_activity_feature`] of the histogram less the owned servers'
//! cover ([`subtract_owned_noise`]). A deployment may also have its
//! compromised first server drop every request but the target pair's
//! ([`AttackDeployment::disrupt`], §4.2's disruption attack). A
//! [`ThresholdDetector`] trains on the first half of the seeds and is
//! scored on the held-out second half, and the verdict compares its
//! advantage against
//! `max_advantage(ε′, δ′)` with the budget the view reports plus a
//! Hoeffding slack for the finite sample. A new detector or owned set is
//! one more attacker on an existing deployment: it costs no new run.
//!
//! The matrix is falsifiable in both directions:
//!
//! * the **honest** rows (correctly sized sampled noise, at least one
//!   noising server the attacker does not own, with or without the
//!   disruption) must come in *under* the bound —
//!   `advantage + slack ≤ max_advantage(ε′, δ′)`. `honest_hop0` and
//!   `honest_hop1` are the paper's adversary in a three-server chain:
//!   every server but one noising server compromised (§2.3);
//! * the **noise-off** and **undersized-µ** negative controls claim
//!   the same budget while drawing no (or far too little) cover
//!   traffic, and the **all-compromised** control owns every noising
//!   server of the honest deployment, so no honest noise is left; the
//!   *same* detector must *beat* the claimed bound in each — proving the
//!   harness has the teeth to catch a broken deployment.

use parking_lot::Mutex;
use std::sync::Arc;
use vuvuzela_adversary::detector::split_by_seed;
use vuvuzela_adversary::taps::KeepOnly;
use vuvuzela_adversary::{pair_activity_feature, subtract_owned_noise, ThresholdDetector};
use vuvuzela_dp::{ComposedPrivacy, NoiseDistribution, NoiseMode};

use crate::scenario::{LedgerNoise, RoundPlan, Scale, Scenario, Step};
use crate::simulator::{SimError, SimReport, Simulator};

/// Grading confidence for the Hoeffding slack: each gate's verdict
/// holds except with probability ≤ α over the sampling noise.
pub const ATTACK_ALPHA: f64 = 0.01;

/// What a row models about the deployment's noise.
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

/// One attacker graded on a deployment's runs: one row of the matrix.
#[derive(Clone, Copy, Debug)]
pub struct Attacker {
    /// Row name (artefact key).
    pub name: &'static str,
    /// Which deployment defect (if any) the row models.
    pub control: AttackControl,
    /// The noising servers the attacker owns, by chain position: their
    /// noise draws come off each round's histogram. The tail is always
    /// owned (it reads the observables); `&[]` is a passive attacker
    /// that knows no server's noise.
    pub compromised: &'static [usize],
    /// `true`: passes iff the detector stays within the bound.
    /// `false`: passes iff the detector exceeds it.
    pub expect_within_bound: bool,
}

/// A row of the bundled matrix: an honest row must stay within the
/// bound, and every control must beat it.
fn attacker(name: &'static str, control: AttackControl, compromised: &'static [usize]) -> Attacker {
    Attacker {
        name,
        control,
        compromised,
        expect_within_bound: control == AttackControl::Honest,
    }
}

/// One twin-world deployment, run once over its seeds, and the
/// attackers graded on those runs.
#[derive(Clone, Debug)]
pub struct AttackDeployment {
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
    /// §4.2's disruption attack: the forward-batch positions a
    /// compromised first server keeps on link 0 (entry→server 0) in
    /// every round of both worlds, dropping the rest; `None` leaves
    /// every link alone.
    pub disrupt: Option<&'static [usize]>,
    /// The rows graded on these runs, at least one. The first names the
    /// deployment: its scenarios and its sample transcripts.
    pub attackers: Vec<Attacker>,
}

impl AttackDeployment {
    /// The deployment's name: its first attacker's.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.attackers[0].name
    }
}

/// The JSON-serialisable verdict of one attacker on one deployment's
/// runs: one row of the matrix.
#[derive(Clone, Debug)]
pub struct AttackVerdict {
    /// Row name.
    pub name: String,
    /// Control kind (`honest`, `noise_off`, `undersized_mu`,
    /// `all_compromised`).
    pub control: String,
    /// The gate direction this row is asserted against.
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
    /// The gate in this row's expected direction.
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

/// One conversation round of one run as the attacker grades it: the
/// tail's histogram, and each noising server's `(singles, pairs)` draw
/// in chain order (`SimReport::noise_draws`), of which it subtracts the
/// ones it owns.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ObservedRound {
    m1: u64,
    m2: u64,
    draws: Vec<(u64, u64)>,
}

/// One deployment's runs: both worlds over every seed, ready to grade
/// against any attacker, plus a sample twin-transcript pair (the first
/// held-out seed) for artefact inspection.
#[derive(Debug)]
pub struct AttackOutcome {
    /// The talking-world report of the first held-out seed.
    pub sample_talking: SimReport,
    /// The idle-world report of the same seed.
    pub sample_idle: SimReport,
    /// Every talking-world run's conversation rounds, by seed.
    talking: Vec<Vec<ObservedRound>>,
    /// The same for the idle world.
    idle: Vec<Vec<ObservedRound>>,
    /// The composed budget every run reports.
    budget: ComposedPrivacy,
}

impl AttackOutcome {
    /// The verdict of `attacker` on these runs. Each conversation
    /// round's feature is [`pair_activity_feature`] of the histogram less
    /// the noise of the servers the attacker owns; the detector trains on
    /// the first half of each world's seeds, is scored on the held-out
    /// half, and is graded against the runs' composed budget.
    #[must_use]
    pub fn grade(&self, attacker: &Attacker) -> AttackVerdict {
        let feature = |round: &ObservedRound| {
            let owned = attacker.compromised.iter().map(|&i| round.draws[i]);
            let (m1, m2) = subtract_owned_noise(round.m1, round.m2, owned);
            pair_activity_feature(m1, m2)
        };
        let features = |per_seed: &[Vec<ObservedRound>]| -> Vec<Vec<i64>> {
            let run = |rounds: &Vec<ObservedRound>| rounds.iter().map(feature).collect();
            per_seed.iter().map(run).collect()
        };
        let (train_talking, test_talking) = split_by_seed(&features(&self.talking));
        let (train_idle, test_idle) = split_by_seed(&features(&self.idle));
        let detector = ThresholdDetector::train(&train_talking, &train_idle);
        let outcome = detector.evaluate(&test_talking, &test_idle);
        let budget = self.budget;
        let grade = outcome.grade(budget.epsilon, budget.delta, ATTACK_ALPHA);

        let passed = if attacker.expect_within_bound {
            grade.within_bound
        } else {
            grade.exceeds_bound
        };
        AttackVerdict {
            name: attacker.name.to_string(),
            control: attacker.control.name().to_string(),
            expect_within_bound: attacker.expect_within_bound,
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
        }
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

/// The bundled attack matrix: the honest deployment graded against the
/// passive attacker, the paper's adversary (every server but one
/// noising server compromised) and its control that owns every noising
/// server; the two negative-control deployments; and the disruption
/// attack on the honest deployment.
#[must_use]
pub fn attack_matrix(scale: Scale) -> Vec<AttackDeployment> {
    let honest_pairs = match scale {
        Scale::Smoke => 24,
        Scale::Full => 80,
    };
    let control_pairs = match scale {
        Scale::Smoke => 30,
        Scale::Full => 60,
    };
    let honest = AttackDeployment {
        base_seed: 0xA77AC4,
        seed_pairs: honest_pairs,
        population: 8,
        conversation_rounds: 4,
        conversation_noise: honest_conversation_noise(),
        dialing_noise: honest_dialing_noise(),
        noise_mode: NoiseMode::Sampled,
        ledger_noise: None,
        disrupt: None,
        attackers: vec![
            attacker("honest_sampled", AttackControl::Honest, &[]),
            // The paper's adversary: it owns servers 1 and 2, so server
            // 0's noise alone covers the pair.
            attacker("honest_hop0", AttackControl::Honest, &[1]),
            // Servers 0 and 2 owned: server 1's noise alone.
            attacker("honest_hop1", AttackControl::Honest, &[0]),
            // Every noising server owned, so no honest noise is left.
            attacker(
                "all_compromised_control",
                AttackControl::AllCompromised,
                &[0, 1],
            ),
        ],
    };
    let noise_off = AttackDeployment {
        base_seed: 0x0FF,
        seed_pairs: control_pairs,
        // Same configured budget as the honest deployment — the
        // ledger charges it even though Off mode sends nothing.
        noise_mode: NoiseMode::Off,
        attackers: vec![attacker("noise_off_control", AttackControl::NoiseOff, &[])],
        ..honest.clone()
    };
    let undersized_mu = AttackDeployment {
        base_seed: 0x5A11,
        seed_pairs: control_pairs,
        // Servers actually draw µ = 1.5, b = 0.1 — real sampled
        // noise from the real mechanism, but ~100× too little for
        // the claimed budget: the claimed bound allows advantage
        // ≈ 0.32 and this noise leaves the detector ≈ 0.48.
        conversation_noise: NoiseDistribution::new(1.5, 0.1),
        dialing_noise: NoiseDistribution::new(1.5, 0.1),
        ledger_noise: Some(LedgerNoise {
            conversation: honest_conversation_noise(),
            dialing: honest_dialing_noise(),
        }),
        attackers: vec![attacker(
            "undersized_mu_control",
            AttackControl::UndersizedMu,
            &[],
        )],
        ..honest.clone()
    };
    // §4.2: the owned first server keeps only clients 0 and 1 (the
    // target pair, first in batch order) in every round, dialing
    // included, and the owned tail reads what is left. Server 1's
    // noise must still cover the pair.
    let disruption = AttackDeployment {
        base_seed: 0x0D15,
        disrupt: Some(&[0, 1]),
        attackers: vec![attacker(
            "disruption_honest_hop1",
            AttackControl::Honest,
            &[0],
        )],
        ..honest.clone()
    };
    vec![honest, noise_off, undersized_mu, disruption]
}

/// Builds one world of a deployment's twin pair. Both worlds share the seed
/// and every step except the target pair's behaviour: a background
/// pair (clients 2, 3) dials and idles in both, and in the talking
/// world clients 0 and 1 additionally dial, accept and hold an active
/// conversation through every conversation round.
#[must_use]
pub fn twin_scenario(deployment: &AttackDeployment, seed: u64, talking: bool) -> Scenario {
    let world = if talking { "talking" } else { "idle" };
    let mut s = Scenario::new(&format!("{}__{world}", deployment.name()), seed);
    s.conversation_mu = deployment.conversation_noise.mu;
    s.conversation_b = Some(deployment.conversation_noise.b);
    s.dialing_mu = deployment.dialing_noise.mu;
    s.dialing_b = Some(deployment.dialing_noise.b);
    s.noise_mode = deployment.noise_mode;
    s.ledger_noise = deployment.ledger_noise;
    s.steps.push(Step::Join(deployment.population));
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
        deployment.conversation_rounds
    ]));
    s
}

/// Everything one world's seeded runs produce: per seed, its
/// conversation rounds, and the raw reports.
struct WorldRuns {
    per_seed: Vec<Vec<ObservedRound>>,
    reports: Vec<SimReport>,
}

/// Runs every seeded twin of one world, and the first held-out seed's
/// (the sample [`AttackOutcome`] keeps) a second time over the wire
/// ([`Simulator::over_wire`]), which must match the in-process run.
fn run_world(deployment: &AttackDeployment, talking: bool) -> Result<WorldRuns, SimError> {
    let run = |seed: u64, wire: bool| {
        let mut sim = Simulator::new(twin_scenario(deployment, seed, talking));
        if wire {
            sim = sim.over_wire();
        }
        match deployment.disrupt {
            None => sim.run(),
            // The disruption trips the participation invariants, so its
            // worlds run in tolerant mode, as a soak case does.
            Some(keep) => {
                sim.chain_mut()
                    .link_mut(0)
                    .attach_tap(Arc::new(Mutex::new(KeepOnly {
                        indices: keep.to_vec(),
                        only_round: None,
                    })));
                Ok(sim.run_collecting().0)
            }
        }
    };
    let observed = |report: &SimReport| -> Vec<ObservedRound> {
        report
            .view
            .conversation_rounds()
            .map(|(round, o)| ObservedRound {
                m1: o.m1,
                m2: o.m2,
                draws: report.noise_draws[&round].clone(),
            })
            .collect()
    };
    let mut per_seed = Vec::with_capacity(deployment.seed_pairs);
    let mut reports = Vec::with_capacity(deployment.seed_pairs);
    for i in 0..deployment.seed_pairs {
        let seed = deployment.base_seed.wrapping_add(i as u64);
        let report = run(seed, false)?;
        let rounds = observed(&report);
        if rounds.len() != deployment.conversation_rounds {
            return Err(SimError::Attack(format!(
                "seed {seed}: expected {} observable conversation rounds, got {}",
                deployment.conversation_rounds,
                rounds.len()
            )));
        }
        if i == deployment.seed_pairs / 2 {
            let wire = run(seed, true)?;
            let differs = (observed(&wire) != rounds).then_some("observed rounds");
            if let Some(what) = report.twin_mismatch(&wire).or(differs) {
                let world = if talking { "talking" } else { "idle" };
                return Err(SimError::Attack(format!(
                    "{} {world} world, seed {seed}: the wire twin's {what} differs",
                    deployment.name()
                )));
            }
        }
        per_seed.push(rounds);
        reports.push(report);
    }
    Ok(WorldRuns { per_seed, reports })
}

/// Runs one deployment: both worlds over every seed. Grade each of its
/// attackers on the runs with [`AttackOutcome::grade`].
///
/// # Errors
///
/// Propagates the first simulation failure, or [`SimError::Attack`]
/// for a run missing a conversation round's observables, or for a
/// sample seed whose wire twin differs from its in-process run.
///
/// # Panics
///
/// Panics if the twin runs disagree on the composed budget —
/// adjacent worlds run the same round schedule, so their ledgers must
/// match to the bit.
pub fn run_deployment(deployment: &AttackDeployment) -> Result<AttackOutcome, SimError> {
    assert!(
        deployment.seed_pairs >= 2,
        "need at least one train and one held-out seed"
    );
    let mut talking = run_world(deployment, true)?;
    let mut idle = run_world(deployment, false)?;

    let budget = talking.reports[0].view.budget;
    for other in talking.reports.iter().chain(&idle.reports) {
        let other = other.view.budget;
        assert!(
            (other.epsilon - budget.epsilon).abs() < 1e-12
                && (other.delta - budget.delta).abs() < 1e-12,
            "twin runs disagree on the composed budget: {budget:?} vs {other:?}"
        );
    }

    // Keep the first held-out seed's twin pair as the inspectable
    // artefact.
    let held_out = deployment.seed_pairs / 2;
    Ok(AttackOutcome {
        sample_talking: talking.reports.swap_remove(held_out),
        sample_idle: idle.reports.swap_remove(held_out),
        talking: talking.per_seed,
        idle: idle.per_seed,
        budget,
    })
}
