//! Sampled-noise soak runs under an active adversary.
//!
//! A soak case is one bundled scenario, switched to
//! [`vuvuzela_dp::NoiseMode::Sampled`], extended with three extra
//! mixed schedules (so the distributional checks see enough draws),
//! and run with one tampering tap from [`vuvuzela_adversary::taps`]
//! attached to chain link 0 — the entry→server-0 hop, which no bundled
//! scenario taps itself. The simulator runs in tolerant mode
//! ([`crate::simulator::Simulator::run_collecting`]): tampered rounds
//! degrade instead of wedging, and every invariant violation is
//! transcribed and collected.
//!
//! Every case carries an *annotation*: the exact set of invariants the
//! tampering is expected to trip ([`SoakCase::expect_trip`]). The
//! verdict is set equality — a tripped invariant that was not declared
//! is a failure, and so is a declared trip that did not happen (an
//! un-tripped expectation means the checker lost its teeth). The
//! annotations are pinned against the seeded runs; see
//! [`expected_trips`] for the per-case reasoning.

use crate::invariants::InvariantViolation;
use crate::scenario::{bundled_matrix, RoundPlan, Scale, Scenario, Step};
use crate::simulator::{SimReport, Simulator};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;
use vuvuzela_adversary::taps::{DelayBatch, DropFraction, InjectOnions, ReplayBatch, RoundWindow};
use vuvuzela_net::Tap;

/// The chain link every soak strategy tampers with: entry→server 0.
/// Kept free by every bundled scenario (observers sit on links 1–2,
/// the crash fault on link 1), so the strategy axis composes with the
/// whole matrix.
pub const ADVERSARY_LINK: usize = 0;

/// Rounds a cross-round strategy ([`AdversaryStrategy::Delay`],
/// [`AdversaryStrategy::Replay`]) captures and re-emits. Chosen inside
/// the appended soak schedules for every bundled scenario (the longest
/// base script ends before round 10) so the capture can never land in
/// an abortable schedule, which would make the tap's state — and the
/// transcript — timing-dependent.
const CAPTURE_ROUND: u64 = 10;
const RELEASE_ROUND: u64 = 12;

/// One tampering strategy from the taps toolbox, link- and
/// round-addressed for the soak matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AdversaryStrategy {
    /// No tampering: the honest sampled-noise baseline every
    /// distributional invariant must survive.
    None,
    /// Drop every other onion ([`DropFraction`] 1/2) from round 1 on.
    /// Round 0 is exempt: it carries the scenarios' first invitations,
    /// and dropping those would change which conversations *exist* —
    /// a script-shape change, not a degradation.
    Drop,
    /// Hold round 10's forward batch and merge it into round 12
    /// ([`DelayBatch`]).
    Delay,
    /// Copy round 10's forward batch and append it to round 12
    /// ([`ReplayBatch`]).
    Replay,
    /// Add 8 width-matched garbage onions per forward transfer from
    /// round 1 on ([`InjectOnions`]).
    Inject,
}

impl AdversaryStrategy {
    /// Every strategy, in matrix order.
    pub const ALL: [AdversaryStrategy; 5] = [
        AdversaryStrategy::None,
        AdversaryStrategy::Drop,
        AdversaryStrategy::Delay,
        AdversaryStrategy::Replay,
        AdversaryStrategy::Inject,
    ];

    /// Stable name, used in case names and artefact files.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AdversaryStrategy::None => "none",
            AdversaryStrategy::Drop => "drop",
            AdversaryStrategy::Delay => "delay",
            AdversaryStrategy::Replay => "replay",
            AdversaryStrategy::Inject => "inject",
        }
    }

    /// Builds the strategy's tap, if it has one.
    #[must_use]
    pub fn build_tap(self) -> Option<Arc<Mutex<dyn Tap>>> {
        match self {
            AdversaryStrategy::None => None,
            AdversaryStrategy::Drop => Some(Arc::new(Mutex::new(DropFraction {
                numerator: 1,
                denominator: 2,
                window: RoundWindow::from(1),
            }))),
            AdversaryStrategy::Delay => Some(Arc::new(Mutex::new(DelayBatch::new(
                CAPTURE_ROUND,
                RELEASE_ROUND,
            )))),
            AdversaryStrategy::Replay => Some(Arc::new(Mutex::new(ReplayBatch::new(
                CAPTURE_ROUND,
                RELEASE_ROUND,
            )))),
            AdversaryStrategy::Inject => Some(Arc::new(Mutex::new(InjectOnions {
                count: 8,
                window: RoundWindow::from(1),
                seed: 0xAD5EED,
            }))),
        }
    }
}

/// One annotated soak case: scenario × strategy plus the invariants the
/// tampering is expected to trip.
pub struct SoakCase {
    /// The sampled-noise scenario (already renamed and extended).
    pub scenario: Scenario,
    /// The tampering applied to [`ADVERSARY_LINK`].
    pub strategy: AdversaryStrategy,
    /// The exact set of invariant names expected to trip. Surviving
    /// all of these — or tripping anything else — fails the case.
    pub expect_trip: BTreeSet<&'static str>,
}

/// What one soak case produced.
pub struct SoakOutcome {
    /// Case name (`scenario__strategy`).
    pub name: String,
    /// The tolerant-mode report; its transcript includes every
    /// `violation …` line.
    pub report: SimReport,
    /// Every collected violation, in occurrence order.
    pub violations: Vec<InvariantViolation>,
    /// The distinct invariant names that tripped.
    pub tripped: BTreeSet<&'static str>,
    /// Invariants that tripped without being declared in the
    /// annotation.
    pub unexpected: Vec<&'static str>,
    /// Declared invariants that failed to trip.
    pub missing: Vec<&'static str>,
}

impl SoakOutcome {
    /// Whether the tripped set matched the annotation exactly.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.unexpected.is_empty() && self.missing.is_empty()
    }
}

/// The bundled soak matrix: every bundled scenario crossed with every
/// [`AdversaryStrategy`], in sampled noise mode, each base script
/// extended with three additional mixed schedules.
#[must_use]
pub fn soak_matrix(scale: Scale) -> Vec<SoakCase> {
    let mut cases = Vec::new();
    for base in bundled_matrix(scale) {
        for strategy in AdversaryStrategy::ALL {
            cases.push(soak_case(base.clone(), strategy));
        }
    }
    cases
}

/// Builds one annotated soak case from a bundled scenario.
#[must_use]
pub fn soak_case(base: Scenario, strategy: AdversaryStrategy) -> SoakCase {
    let expect_trip = expected_trips(&base.name, strategy);
    let mut scenario = base;
    scenario.name = format!("{}__{}", scenario.name, strategy.name());
    scenario.noise_mode = vuvuzela_dp::NoiseMode::Sampled;
    // Three extra mixed schedules: enough rounds past the longest base
    // script that the cross-round strategies' capture/release rounds
    // exist in every scenario, and enough draws that the concentration
    // windows have statistical teeth.
    for _ in 0..3 {
        scenario.steps.push(Step::Run(vec![
            RoundPlan::Conversation,
            RoundPlan::Conversation,
            RoundPlan::Dialing,
            RoundPlan::Conversation,
        ]));
    }
    SoakCase {
        scenario,
        strategy,
        expect_trip,
    }
}

/// Runs one soak case to completion — tampered rounds degrade, never
/// wedge — and grades the tripped invariants against the annotation.
#[must_use]
pub fn run_soak_case(case: &SoakCase) -> SoakOutcome {
    grade(case, Simulator::new(case.scenario.clone()))
}

/// [`run_soak_case`] over the wire ([`Simulator::over_wire`]): the
/// tampering taps sit on the loopback sockets' links.
#[must_use]
pub fn run_soak_case_over_wire(case: &SoakCase) -> SoakOutcome {
    grade(case, Simulator::new(case.scenario.clone()).over_wire())
}

fn grade(case: &SoakCase, mut sim: Simulator) -> SoakOutcome {
    if let Some(tap) = case.strategy.build_tap() {
        sim.chain_mut().link_mut(ADVERSARY_LINK).attach_tap(tap);
    }
    let (report, violations) = sim.run_collecting();
    let tripped: BTreeSet<&'static str> = violations.iter().map(|v| v.invariant).collect();
    let unexpected: Vec<&'static str> = tripped.difference(&case.expect_trip).copied().collect();
    let missing: Vec<&'static str> = case.expect_trip.difference(&tripped).copied().collect();
    SoakOutcome {
        name: case.scenario.name.clone(),
        report,
        violations,
        tripped,
        unexpected,
        missing,
    }
}

/// The pinned annotation table: which invariants each scenario ×
/// strategy pair trips, with the reasoning. Pinned against the seeded
/// smoke-scale runs (`sim_soak` verifies full-scale separately in
/// `--full` mode, which shares the table).
///
/// The shape of the table follows from how each strategy interacts
/// with the pipeline's graceful degradation:
///
/// - **`uniform-participation` trips via the reply count**: replies
///   are *not* padded back to one per submission — a dropped or
///   delayed onion loses its reply slot, and a replayed or injected
///   onion that fails authentication is substituted with a noise
///   request whose reply slot is a filler, so replies over- or
///   undershoot the submission count in every tampered conversation
///   round. The only escapes are tampering that lands exclusively on
///   a *dialing* round (forward-only, no replies to count).
/// - **Dropping forward onions deflates the histogram** below the
///   per-round noise window (`noise-covered-deaddrops`), and the
///   per-round systematic deficit drags the empirical noise mean out
///   of its `k·σ/√n` concentration window (`noise-concentration`).
///   Injection is the mirror image: the garbage fails authentication
///   downstream and is substituted with extra noise singles (or no-op
///   dial writes), inflating both per-round windows and the run-long
///   mean.
/// - **Delay/Replay are one-shot**: only the capture/release rounds
///   (10 and 12) are disturbed, so the run-long concentration mean
///   usually absorbs them. Whether the per-round windows trip depends
///   on the population against the window width — a surplus of
///   `participants` substituted noise singles clears the `Σ hi`
///   histogram slack only when the scenario is big enough.
/// - **A mid-chain observer sees the batch after the tamper**, so
///   scenarios with an `Observe` step (`steady_state` at link 1,
///   `idle_cover` at link 2) also trip `fixed-sizes-under-taps` when
///   the observed count leaves the round's window. `idle_cover`'s
///   observer sits *two* noising servers downstream, so its window is
///   twice as wide and absorbs small surpluses that trip
///   `steady_state`'s.
/// - **`dialing-forward-only`, `privacy-monotone` and
///   `schedule-drain` never trip**: tampering cannot conjure a
///   backward pass, the ledger charges every started round
///   unconditionally, and batch accounting (one batch per round per
///   direction, whatever its contents) keeps the pipeline draining.
#[must_use]
pub fn expected_trips(base: &str, strategy: AdversaryStrategy) -> BTreeSet<&'static str> {
    const UNIFORM: &str = "uniform-participation";
    const COVERED: &str = "noise-covered-deaddrops";
    const CONCENTRATION: &str = "noise-concentration";
    const SIZES: &str = "fixed-sizes-under-taps";
    let mut trips: BTreeSet<&'static str> = BTreeSet::new();
    match strategy {
        AdversaryStrategy::None => {}
        AdversaryStrategy::Drop => {
            // Half of every round's onions vanish: replies, every
            // per-round histogram window, and the run-long mean trip.
            trips.extend([UNIFORM, COVERED, CONCENTRATION]);
            if matches!(base, "steady_state" | "idle_cover") {
                trips.insert(SIZES);
            }
        }
        AdversaryStrategy::Inject => {
            // Eight garbage onions per transfer become eight extra
            // noise singles per round: same three everywhere. Only
            // steady_state's link-1 observer trips on sizes —
            // idle_cover's link-2 window is wide enough to absorb +8.
            trips.extend([UNIFORM, COVERED, CONCENTRATION]);
            if base == "steady_state" {
                trips.insert(SIZES);
            }
        }
        AdversaryStrategy::Delay => {
            // Capture empties round 10's replies, release doubles
            // round 12's: replies trip both ends. The histogram trips
            // too — except in redial_after_miss (10 clients) and
            // server_fault (12 clients), whose small deficit/surplus
            // stays inside the sampled windows (the odd-n2 leftover
            // accounting widens each singles window by +1 per draw).
            trips.insert(UNIFORM);
            if !matches!(base, "redial_after_miss" | "server_fault") {
                trips.insert(COVERED);
            }
            if matches!(base, "steady_state" | "idle_cover") {
                trips.insert(SIZES);
            }
        }
        AdversaryStrategy::Replay => match base {
            // 48 replayed onions become 48 substituted noise singles
            // in round 12: replies double, and m1 and the observed
            // link-1 count blow past their windows. The run-long
            // singles mean stays inside its concentration window —
            // one disturbed round spreads over ~30 draws, and the
            // odd-n2 leftover bias allowance absorbs the rest.
            "steady_state" => {
                trips.extend([UNIFORM, COVERED, SIZES]);
            }
            // Round 12 is a *dialing* round here: no replies to
            // count, but each replayed request is substituted with a
            // no-op dial write, and the no-op check is exact.
            "dial_storm" => {
                trips.insert(COVERED);
            }
            // Small populations (10 and 12 clients): replies double
            // but the histogram surplus fits inside the sampled
            // windows (widened +1 per draw by the leftover
            // accounting).
            "redial_after_miss" | "server_fault" => {
                trips.insert(UNIFORM);
            }
            // Mid-size populations: replies and the round-12
            // histogram trip; one disturbed round of ~20 extra
            // singles washes out of the run-long mean.
            _ => {
                trips.extend([UNIFORM, COVERED]);
            }
        },
    }
    trips
}
