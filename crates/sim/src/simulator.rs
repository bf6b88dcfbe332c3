//! The deployment simulator: executes a [`Scenario`] over a real
//! [`Chain`] and one [`ClientCohort`], the scripted clients, emitting
//! the canonical transcript and checking every invariant per round.
//! Each `Run` step is one [`Chain::run`] call: a window of rounds in
//! flight on the calling thread, in the one interleaving the chain seed
//! picks — or, in the wire twin ([`Simulator::over_wire`]), one
//! schedule through the node loops over loopback TCP.
//!
//! See the crate docs for the script format, the determinism contract
//! and the round-abort semantics. Script *misuse* (dialing with no free
//! slot, queueing to a non-partner, indexing a client that never
//! joined) panics — scenarios are test fixtures, and a silently skipped
//! step would invalidate the invariant arithmetic; *system* divergence
//! surfaces as [`SimError::Invariant`].

use crate::invariants::{
    self, check_conversation_histogram, check_conversation_participation, check_dialing_counts,
    check_dialing_participation, check_noise_concentration, check_privacy_charge, check_tap_sizes,
    ConversationRoundCheck, Crossings, DialingRoundCheck, InvariantViolation, NoiseSoakStats,
    RoundShape,
};
use crate::scenario::{RoundPlan, Scenario, Step};
use crate::transcript::{hex, Transcript};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use vuvuzela_adversary::taps::{CrashOnRound, StallLink};
use vuvuzela_adversary::{AdversaryView, RoundView};
use vuvuzela_core::chain::{Abort, Batch, Chain, RoundOutcome, RoundSpec};
use vuvuzela_core::cohort::ClientCohort;
use vuvuzela_core::config::SystemConfig;
use vuvuzela_core::pipeline::run_over_loopback;
use vuvuzela_core::record::{NodeId, Operator, Phase, Public};
use vuvuzela_crypto::onion;
use vuvuzela_crypto::x25519::{PublicKey, SecretKey};
use vuvuzela_dp::{PrivacyLedger, Protocol};
use vuvuzela_net::{Direction, LinkId, Tap};
use vuvuzela_wire::deaddrop::InvitationDropIndex;
use vuvuzela_wire::{RoundType, DIAL_REQUEST_LEN, EXCHANGE_REQUEST_LEN};

/// Theorem 2's free parameter, fixed to the paper's d = 10⁻⁵.
const LEDGER_D: f64 = 1e-5;

/// Per-draw tail budget for sampled-mode noise windows: each noise
/// count must land within [`vuvuzela_dp::NoiseDistribution::
/// count_bounds`]`(SAMPLED_TAIL_P)`. A soak run makes a few thousand
/// draws, so the expected number of honest draws outside their window
/// is ≪ 1 — and runs are seeded, so a passing seed passes forever.
const SAMPLED_TAIL_P: f64 = 1e-6;

/// Width multiplier for the end-of-run concentration window
/// (`k·σ/√n` around µ). Six standard errors: loose enough that honest
/// seeded runs never trip, tight enough that systematic tampering
/// (every round missing a slice of its histogram) cannot hide.
const CONCENTRATION_K: f64 = 6.0;

/// A simulation failure.
#[derive(Debug)]
pub enum SimError {
    /// A per-round invariant did not hold.
    Invariant(InvariantViolation),
    /// The attack harness could not use a run's adversary view (it
    /// lacks observable rounds), or a run's wire twin differs from it —
    /// see [`crate::attack`].
    Attack(String),
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::Invariant(v) => write!(f, "{v}"),
            SimError::Attack(e) => write!(f, "attack harness: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<InvariantViolation> for SimError {
    fn from(v: InvariantViolation) -> SimError {
        SimError::Invariant(v)
    }
}

/// What a completed simulation hands back.
#[derive(Debug)]
pub struct SimReport {
    /// Scenario name.
    pub name: String,
    /// The canonical per-round transcript.
    pub transcript: Transcript,
    /// Hex SHA-256 of the rendered transcript.
    pub hash: String,
    /// Rounds that completed (aborted rounds excluded).
    pub rounds_completed: u64,
    /// Schedules that aborted mid-flight.
    pub schedules_aborted: u64,
    /// Messages delivered to clients across the whole run.
    pub delivered: u64,
    /// What the adversary saw of the run: the transcript's public
    /// records, typed, and every completed round's public round record.
    pub view: AdversaryView,
    /// Each noising server's `(singles, pairs)` draw for every completed
    /// conversation round, by round, in chain order — the
    /// [`Operator`] parts of the chain's round record
    /// (`Chain::round_record`). Operator secrets, kept out of
    /// `view` and the transcript: the attack harness hands an attacker
    /// the draws of the servers it owns.
    pub noise_draws: BTreeMap<u64, Vec<(u64, u64)>>,
}

impl SimReport {
    /// What differs between this report and `twin`'s, the same scenario
    /// run over the other runtime ([`Simulator::over_wire`]): the
    /// transcript, or else the public round record of some completed
    /// round ([`AdversaryView::record`]: what the two runtimes must agree
    /// on, wall time aside); `None` when both agree byte for byte.
    #[must_use]
    pub fn twin_mismatch(&self, twin: &SimReport) -> Option<&'static str> {
        if self.transcript.render() != twin.transcript.render() {
            Some("transcript")
        } else if self.view.record != twin.view.record {
            Some("round record")
        } else {
            None
        }
    }
}

/// What carries a schedule: [`Chain::run`] or [`run_over_loopback`].
type Runner = fn(&mut Chain, Vec<RoundSpec>) -> Result<Vec<RoundOutcome>, Abort>;

/// Per-round bookkeeping captured when the round's requests are built.
enum RoundMeta {
    Conversation {
        round: u64,
        participants: Vec<usize>,
        mutual_pairs: u64,
    },
    Dialing {
        round: u64,
        participants: Vec<usize>,
        real_per_drop: Vec<u64>,
    },
}

impl RoundMeta {
    fn round(&self) -> u64 {
        match self {
            RoundMeta::Conversation { round, .. } | RoundMeta::Dialing { round, .. } => *round,
        }
    }

    fn round_type(&self) -> RoundType {
        match self {
            RoundMeta::Conversation { .. } => RoundType::Conversation,
            RoundMeta::Dialing { .. } => RoundType::Dialing,
        }
    }
}

/// The deployment simulator, and the repository's one harness for
/// driving whole rounds over a client population: tests, examples and
/// baselines drive it step by step ([`Simulator::step`]), the scenario
/// matrices run whole scripts ([`Simulator::run`],
/// [`Simulator::run_collecting`]), and every round is invariant-checked
/// either way.
pub struct Simulator {
    scenario: Scenario,
    chain: Chain,
    runner: Runner,
    config: SystemConfig,
    /// The scripted clients, addressed by the per-client steps. Their
    /// round randomness is keyed by the scenario seed, their keys come
    /// from `rng`.
    clients: ClientCohort,
    /// Clients a [`Step::Leave`] removed for good.
    left: HashSet<usize>,
    rng: StdRng,
    next_round: u64,
    ledger: PrivacyLedger,
    transcript: Transcript,
    view: AdversaryView,
    noise_draws: BTreeMap<u64, Vec<(u64, u64)>>,
    /// Chain links a [`Step::Observe`] marked, in script order.
    observed: Vec<usize>,
    pending_crash: Option<(usize, u64)>,
    rounds_completed: u64,
    schedules_aborted: u64,
    delivered: u64,
    /// `true` (the [`Simulator::run`] default): the first violation
    /// aborts the run as [`SimError::Invariant`]. `false`
    /// ([`Simulator::tolerate_violations`]): violations are transcribed and
    /// collected while the deployment keeps degrading gracefully.
    fail_fast: bool,
    violations: Vec<InvariantViolation>,
    soak: NoiseSoakStats,
}

impl Simulator {
    /// Builds the deployment a scenario describes (chain, links, seeded
    /// RNG) with no clients.
    #[must_use]
    pub fn new(scenario: Scenario) -> Simulator {
        let config = SystemConfig {
            chain_len: scenario.servers,
            conversation_noise: vuvuzela_dp::NoiseDistribution::new(
                scenario.conversation_mu,
                scenario
                    .conversation_b
                    .unwrap_or((scenario.conversation_mu / 20.0).max(0.5)),
            ),
            dialing_noise: vuvuzela_dp::NoiseDistribution::new(
                scenario.dialing_mu,
                scenario
                    .dialing_b
                    .unwrap_or((scenario.dialing_mu / 10.0).max(0.5)),
            ),
            noise_mode: scenario.noise_mode,
            workers: scenario.workers,
            conversation_slots: scenario.slots,
            retransmit_after: scenario.retransmit_after,
            exchange_shards: scenario.exchange_shards,
        };
        let chain = Chain::new(config.clone(), scenario.seed);
        let clients = ClientCohort::with_own_tables(
            config.clone(),
            scenario.seed,
            &chain.server_public_keys(),
        );
        // A ledger override models a mis-deployment: servers draw the
        // config's noise but the accounting charges (and the transcript
        // advertises) the claimed parameters.
        let (ledger_conversation, ledger_dialing) = match scenario.ledger_noise {
            Some(claimed) => (claimed.conversation, claimed.dialing),
            None => (config.conversation_noise, config.dialing_noise),
        };
        let ledger = PrivacyLedger::new(ledger_conversation, ledger_dialing, LEDGER_D);
        let mut transcript = Transcript::new();
        transcript.push("vuvuzela-sim transcript v1".to_string());
        transcript.push(format!("scenario {}", scenario.name));
        transcript.push(format!(
            "seed {} servers {} workers {} shards {} slots {} retransmit_after {}",
            scenario.seed,
            scenario.servers,
            scenario.workers,
            scenario.exchange_shards,
            scenario.slots,
            scenario.retransmit_after
        ));
        let mode = match scenario.noise_mode {
            vuvuzela_dp::NoiseMode::Sampled => "sampled",
            vuvuzela_dp::NoiseMode::Deterministic => "deterministic",
            vuvuzela_dp::NoiseMode::Off => "off",
        };
        transcript.push(format!(
            "noise conversation mu {} b {} dialing mu {} b {} mode {mode} drops {}",
            config.conversation_noise.mu,
            config.conversation_noise.b,
            config.dialing_noise.mu,
            config.dialing_noise.b,
            scenario.num_drops
        ));
        if scenario.ledger_noise.is_some() {
            transcript.push(format!(
                "noise claimed conversation mu {} b {} dialing mu {} b {}",
                ledger_conversation.mu, ledger_conversation.b, ledger_dialing.mu, ledger_dialing.b
            ));
        }
        Simulator {
            rng: StdRng::seed_from_u64(scenario.seed.wrapping_add(0x51u64)),
            chain,
            runner: Chain::run,
            config,
            clients,
            left: HashSet::new(),
            next_round: 0,
            view: AdversaryView {
                rounds: Vec::new(),
                record: BTreeMap::new(),
                budget: ledger.total_spent(),
            },
            noise_draws: BTreeMap::new(),
            ledger,
            transcript,
            observed: Vec::new(),
            pending_crash: None,
            rounds_completed: 0,
            schedules_aborted: 0,
            delivered: 0,
            fail_fast: true,
            violations: Vec::new(),
            soak: NoiseSoakStats::default(),
            scenario,
        }
    }

    /// This simulator with every later schedule carried over the wire
    /// ([`run_over_loopback`]): the deployment's node loops on threads
    /// over loopback TCP, where [`Chain::run`] steps them in one seeded
    /// interleaving on the calling thread. Taps, observables, the round
    /// record and the abort recovery stay on the same [`Chain`].
    #[must_use]
    pub fn over_wire(mut self) -> Simulator {
        self.runner = run_over_loopback;
        self
    }

    /// Executes every step of the scenario, failing fast.
    ///
    /// # Errors
    ///
    /// [`SimError::Invariant`] the moment any per-round invariant fails.
    ///
    /// # Panics
    ///
    /// On script misuse (see the module docs).
    pub fn run(mut self) -> Result<SimReport, SimError> {
        self.execute()?;
        Ok(self.into_report())
    }

    /// Executes every step of the scenario in tolerant mode: instead of
    /// aborting, each invariant violation is transcribed (a
    /// deterministic `violation …` line) and collected, while the
    /// deployment keeps running — replies still deliver, the ledger
    /// still charges, later rounds still execute. This is the soak
    /// runner's entry point: a tampered run must *terminate* with its
    /// violations enumerated, never wedge.
    ///
    /// # Panics
    ///
    /// On script misuse (see the module docs).
    #[must_use]
    pub fn run_collecting(mut self) -> (SimReport, Vec<InvariantViolation>) {
        self.tolerate_violations();
        self.execute()
            .expect("tolerant mode collects violations instead of failing");
        let violations = std::mem::take(&mut self.violations);
        (self.into_report(), violations)
    }

    /// Switches to the tolerant mode of [`Simulator::run_collecting`]
    /// for every later [`Simulator::step`]: a violation is transcribed
    /// and collected ([`Simulator::violations`]) instead of returned.
    pub fn tolerate_violations(&mut self) {
        self.fail_fast = false;
    }

    /// The violations tolerant mode has collected so far, in order.
    #[must_use]
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    fn execute(&mut self) -> Result<(), SimError> {
        let steps = std::mem::take(&mut self.scenario.steps);
        for step in steps {
            self.apply(step)?;
        }
        self.check_concentration()?;
        Ok(())
    }

    fn into_report(mut self) -> SimReport {
        self.transcript.push(format!(
            "end rounds {} aborted {}",
            self.rounds_completed, self.schedules_aborted
        ));
        let hash = self.transcript.sha256_hex();
        self.view.budget = self.ledger.total_spent();
        SimReport {
            name: self.scenario.name.clone(),
            hash,
            rounds_completed: self.rounds_completed,
            schedules_aborted: self.schedules_aborted,
            delivered: self.delivered,
            transcript: self.transcript,
            view: self.view,
            noise_draws: self.noise_draws,
        }
    }

    /// Routes one invariant result through the failure policy: fail
    /// fast as [`SimError`], or transcribe and collect it in tolerant
    /// mode.
    fn note(&mut self, result: Result<(), InvariantViolation>) -> Result<(), SimError> {
        match result {
            Ok(()) => Ok(()),
            Err(v) if self.fail_fast => Err(v.into()),
            Err(v) => {
                self.transcript.push(format!("violation {v}"));
                self.violations.push(v);
                Ok(())
            }
        }
    }

    /// End-of-run distributional invariant for sampled noise: the
    /// empirical mean of every inferred draw family must concentrate
    /// around its µ (`k·σ/√n` windows, plus the ceil bias).
    fn check_concentration(&mut self) -> Result<(), SimError> {
        if !matches!(self.config.noise_mode, vuvuzela_dp::NoiseMode::Sampled) {
            return Ok(());
        }
        let conv = self.config.conversation_noise;
        let dial = self.config.dialing_noise;
        let s = self.soak;
        self.transcript.push(format!(
            "soak conversation draws {} singles {} pairs {} dialing draws {} sum {}",
            s.conversation_draws, s.singles_sum, s.pairs_sum, s.dialing_draws, s.dialing_sum
        ));
        // Singletons are n1 (ceil bias ≤ 1) plus the odd-n2 leftover
        // (≤ 1 more per draw): bias (0, 2).
        self.note(check_noise_concentration(
            "conversation-singles",
            conv.mu,
            conv.std_dev(),
            CONCENTRATION_K,
            (0.0, 2.0),
            s.conversation_draws,
            s.singles_sum,
        ))?;
        // Pairs are ⌊n2/2⌋ per draw: half the mean and deviation;
        // ceiling the count biases up ≤ ½ pair while floor pairing
        // biases *down* ≤ ½ pair: bias (0.5, 1.0).
        self.note(check_noise_concentration(
            "conversation-pairs",
            conv.mu / 2.0,
            conv.std_dev() / 2.0,
            CONCENTRATION_K,
            (0.5, 1.0),
            s.conversation_draws,
            s.pairs_sum,
        ))?;
        self.note(check_noise_concentration(
            "dialing-per-drop",
            dial.mu,
            dial.std_dev(),
            CONCENTRATION_K,
            (0.0, 1.0),
            s.dialing_draws,
            s.dialing_sum,
        ))?;
        Ok(())
    }

    /// Inclusive per-draw windows for this run's noise mode:
    /// `(singles, pairs)` for one noising server's conversation draws.
    fn conversation_noise_bounds(&self) -> ((u64, u64), (u64, u64)) {
        match self.config.noise_mode {
            vuvuzela_dp::NoiseMode::Deterministic => {
                let (singles, pairs) =
                    invariants::deterministic_conversation_noise(self.config.conversation_noise.mu);
                ((singles, singles), (pairs, pairs))
            }
            vuvuzela_dp::NoiseMode::Sampled => {
                let (lo, hi) = self.config.conversation_noise.count_bounds(SAMPLED_TAIL_P);
                // Singletons: n1 ∈ [lo, hi] plus the odd-n2 leftover
                // (0 or 1); pairs: ⌊n2/2⌋ for n2 ∈ [lo, hi].
                ((lo, hi + 1), (lo / 2, hi / 2))
            }
            vuvuzela_dp::NoiseMode::Off => ((0, 0), (0, 0)),
        }
    }

    /// Inclusive per-server per-drop dialing draw window for this
    /// run's noise mode.
    fn dialing_noise_bounds(&self) -> (u64, u64) {
        match self.config.noise_mode {
            vuvuzela_dp::NoiseMode::Deterministic => {
                let noise = invariants::deterministic_dialing_noise(self.config.dialing_noise.mu);
                (noise, noise)
            }
            vuvuzela_dp::NoiseMode::Sampled => {
                self.config.dialing_noise.count_bounds(SAMPLED_TAIL_P)
            }
            vuvuzela_dp::NoiseMode::Off => (0, 0),
        }
    }

    /// Read access to the scripted clients (assertions in tests), one
    /// cohort member per [`Step::Join`]ed client, by index.
    #[must_use]
    pub fn clients(&self) -> &ClientCohort {
        &self.clients
    }

    /// Mutable access to the scripted clients, for what the script
    /// language cannot express: ending a conversation, declining an
    /// invitation.
    pub fn clients_mut(&mut self) -> &mut ClientCohort {
        &mut self.clients
    }

    /// The underlying deployment: observables, links, servers.
    #[must_use]
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// Mutable access to the underlying deployment, for attaching
    /// adversarial taps before [`Simulator::run`] or between steps —
    /// the way tests prove the invariant checker catches real tampering
    /// (a tap that drops requests mid-chain must fail the round it
    /// touches).
    pub fn chain_mut(&mut self) -> &mut Chain {
        &mut self.chain
    }

    /// Applies one scripted step immediately. Tests and examples use
    /// this to interleave script steps with what the script language
    /// cannot express: assertions between rounds, taps, direct client
    /// access ([`Simulator::clients_mut`]).
    ///
    /// # Errors
    ///
    /// [`SimError::Invariant`] the moment any per-round invariant
    /// fails, exactly as during [`Simulator::run`] — unless
    /// [`Simulator::tolerate_violations`] switched to collecting them.
    ///
    /// # Panics
    ///
    /// On script misuse (see the module docs).
    pub fn step(&mut self, step: Step) -> Result<(), SimError> {
        self.apply(step)
    }

    fn apply(&mut self, step: Step) -> Result<(), SimError> {
        match step {
            Step::Join(n) => {
                let first = self.clients.len();
                let secrets = (0..n).map(|_| SecretKey::generate(&mut self.rng)).collect();
                self.clients.admit(secrets);
                self.transcript
                    .push(format!("event join clients {first}..{}", first + n));
            }
            Step::SetOnline(index, online) => {
                assert!(
                    !self.left.contains(&index),
                    "script bug: client {index} left"
                );
                self.clients.set_online(index, online);
                self.transcript
                    .push(format!("event online client {index} {online}"));
            }
            Step::Leave(index) => {
                self.clients.set_online(index, false);
                self.left.insert(index);
                self.transcript.push(format!("event leave client {index}"));
            }
            Step::Dial { caller, callee } => {
                let pk = self.clients.public_key(callee);
                self.clients
                    .dial(caller, pk)
                    .expect("script bug: caller has no free conversation slot");
                self.transcript
                    .push(format!("event dial caller {caller} callee {callee}"));
            }
            Step::AcceptAll => {
                for index in 0..self.clients.len() {
                    let pending = self.clients.pending_invitations(index).to_vec();
                    for caller_pk in pending {
                        let caller = self.member(&caller_pk);
                        if self.clients.accept_invitation(index, caller_pk).is_ok() {
                            self.transcript
                                .push(format!("event accept client {index} caller {caller}"));
                        } else {
                            self.transcript.push(format!(
                                "event accept-failed client {index} caller {caller}"
                            ));
                        }
                    }
                }
            }
            Step::Queue { from, to, body } => {
                let pk = self.clients.public_key(to);
                self.clients
                    .queue_message(from, &pk, &body)
                    .expect("script bug: no active conversation or body too long");
                self.transcript.push(format!(
                    "event queue from {from} to {to} body {}",
                    hex(&body)
                ));
            }
            Step::Observe { link } => {
                if !self.observed.contains(&link) {
                    self.observed.push(link);
                }
                self.transcript
                    .push(format!("event observe link {}", LinkId::Hop(link as u32)));
            }
            Step::StallLink { link, millis } => {
                self.attach_exclusive_tap(
                    link,
                    Arc::new(Mutex::new(StallLink {
                        delay: std::time::Duration::from_millis(millis),
                    })),
                );
                self.transcript.push(format!(
                    "event stall link {} millis {millis}",
                    LinkId::Hop(link as u32)
                ));
            }
            Step::CrashLink { link, round_offset } => {
                self.pending_crash = Some((link, round_offset));
                self.transcript.push(format!(
                    "event crash-armed link {} offset {round_offset}",
                    LinkId::Hop(link as u32)
                ));
            }
            Step::Run(plans) => self.run_schedule(&plans)?,
        }
        Ok(())
    }

    /// The scripted client whose key is `key`.
    ///
    /// # Panics
    ///
    /// On script misuse: a conversation with a key outside the cohort.
    fn member(&self, key: &PublicKey) -> usize {
        self.clients
            .member(key)
            .expect("script bug: a peer outside the scripted clients")
    }

    /// Attaches a tap, refusing to clobber one already on the link —
    /// [`vuvuzela_net::Link`] holds at most one tap, so a script that
    /// stacks `StallLink`/`CrashLink` (or a tap of its own) on the same
    /// link would otherwise silently lose the earlier tap.
    ///
    /// # Panics
    ///
    /// On script misuse: the link is already tapped.
    fn attach_exclusive_tap(&mut self, link: usize, tap: Arc<Mutex<dyn Tap>>) {
        self.chain
            .link_mut(link)
            .try_attach_tap(tap)
            .unwrap_or_else(|err| {
                panic!("script bug: {err} (one tap per link)");
            });
    }

    fn run_schedule(&mut self, plans: &[RoundPlan]) -> Result<(), SimError> {
        let num_drops = self.scenario.num_drops;
        let participants = self.clients.online_members();

        // Arm a pending crash fault against this schedule's rounds.
        let crash_link = if let Some((link, offset)) = self.pending_crash.take() {
            let trigger = self.next_round + offset;
            self.attach_exclusive_tap(link, Arc::new(Mutex::new(CrashOnRound::new(trigger))));
            Some(link)
        } else {
            None
        };
        // Mutual conversation state cannot change mid-schedule: one
        // count serves every conversation round below.
        let mutual_pairs = self.clients.mutual_pairs();

        // Build every round's client batch up front (clients pipeline
        // requests; replies for the whole schedule arrive afterwards),
        // one arena per round, which is what the chain admits.
        let mut specs: Vec<RoundSpec> = Vec::with_capacity(plans.len());
        let mut metas: Vec<RoundMeta> = Vec::with_capacity(plans.len());
        for plan in plans {
            let round = self.next_round;
            self.next_round += 1;
            match plan {
                RoundPlan::Conversation => {
                    let batch = Batch::Flat(self.clients.build_conversation_round(round));
                    specs.push(RoundSpec::Conversation { round, batch });
                    metas.push(RoundMeta::Conversation {
                        round,
                        participants: participants.clone(),
                        mutual_pairs,
                    });
                }
                RoundPlan::Dialing => {
                    // Which drop each real invitation targets: every
                    // participant's oldest queued dial, read before the
                    // build sends it.
                    let mut real_per_drop = vec![0u64; num_drops as usize];
                    for &id in &participants {
                        if let Some(callee) = self.clients.queued_dial(id) {
                            let drop = InvitationDropIndex::for_recipient(&callee, num_drops);
                            real_per_drop[(drop.0 - 1) as usize] += 1;
                        }
                    }
                    let batch = Batch::Flat(self.clients.build_dialing_round(round, num_drops));
                    specs.push(RoundSpec::Dialing {
                        round,
                        batch,
                        num_drops,
                    });
                    metas.push(RoundMeta::Dialing {
                        round,
                        participants: participants.clone(),
                        real_per_drop,
                    });
                }
            }
        }

        let plan_line: Vec<String> = metas
            .iter()
            .map(|m| format!("{}:{}", m.round(), m.round_type().as_str()))
            .collect();
        self.transcript
            .push(format!("schedule rounds [{}]", plan_line.join(",")));

        match (self.runner)(&mut self.chain, specs) {
            Ok(outcomes) => self.process_completed(&metas, outcomes, crash_link),
            Err(abort) => self.process_abort(&metas, crash_link, &abort),
        }
    }

    /// Round-abort semantics (see the crate docs): the whole schedule
    /// yields nothing; servers and clients discard the dead rounds'
    /// state; the conservative ledger still charges every scheduled
    /// round. Nothing schedule-dependent reaches the transcript: which
    /// rounds `abort` names depends on where the window stood, so the
    /// transcript lists every scheduled round.
    fn process_abort(
        &mut self,
        metas: &[RoundMeta],
        crash_link: Option<usize>,
        abort: &Abort,
    ) -> Result<(), SimError> {
        debug_assert!(
            abort
                .rounds
                .iter()
                .all(|round| metas.iter().any(|meta| meta.round() == *round)),
            "{abort} names a round outside its schedule"
        );
        self.schedules_aborted += 1;
        let rounds: Vec<String> = metas.iter().map(|m| m.round().to_string()).collect();
        self.transcript
            .push(format!("schedule aborted rounds [{}]", rounds.join(",")));
        if let Some(link) = crash_link {
            self.chain.link_mut(link).detach_tap();
        }
        let _dropped = self.chain.abort_in_flight_rounds();
        self.clients.expire_pending(self.next_round);
        // Partial rounds may have leaked observable traffic: charge them.
        for meta in metas {
            let protocol = match meta {
                RoundMeta::Conversation { .. } => Protocol::Conversation,
                RoundMeta::Dialing { .. } => Protocol::Dialing,
            };
            self.charge(meta.round(), protocol)?;
        }
        let conversation = self.ledger.spent(Protocol::Conversation);
        let dialing = self.ledger.spent(Protocol::Dialing);
        self.transcript.push(format!(
            "ledger conversation eps {:e} delta {:e} dialing eps {:e} delta {:e}",
            conversation.epsilon, conversation.delta, dialing.epsilon, dialing.delta
        ));
        Ok(())
    }

    fn process_completed(
        &mut self,
        metas: &[RoundMeta],
        outcomes: Vec<RoundOutcome>,
        crash_link: Option<usize>,
    ) -> Result<(), SimError> {
        assert_eq!(
            metas.len(),
            outcomes.len(),
            "one outcome per scheduled round"
        );
        if let Some(link) = crash_link {
            // The fault was armed but its round drained before the
            // hang-up could land — not expected for bundled scenarios,
            // but defined: detach and continue.
            self.chain.link_mut(link).detach_tap();
        }
        let (conv_singles, conv_pairs) = self.conversation_noise_bounds();
        let dial_draw = self.dialing_noise_bounds();
        let mut shapes: BTreeMap<u64, RoundShape> = BTreeMap::new();
        let mut last_dialing: Option<(u64, Vec<usize>)> = None;

        for (meta, outcome) in metas.iter().zip(outcomes) {
            let round = meta.round();
            let record = self.chain.round_record(round);
            let forward_passes = record
                .iter()
                .filter(|event| event.public.phase == Phase::Forward);
            assert_eq!(
                forward_passes.count(),
                self.config.chain_len,
                "a completed round ran every server's forward pass"
            );
            let mut draws: Vec<(NodeId, (u64, u64))> = record
                .iter()
                .filter_map(|event| match event.operator {
                    Some(Operator::Conversation { singles, pairs }) => {
                        Some((event.public.node, (singles, pairs)))
                    }
                    _ => None,
                })
                .collect();
            draws.sort_unstable();
            let mut passes: Vec<Public> = record
                .iter()
                .map(|event| Public {
                    duration: std::time::Duration::ZERO,
                    ..event.public
                })
                .collect();
            passes.sort_by_key(|public| (public.node, public.phase, public.backward));
            self.view.record.insert(round, passes);
            // The tail answers every round in its spec's kind: a tap
            // edits slots, never a frame's header.
            let shape = match (meta, outcome) {
                (
                    RoundMeta::Conversation {
                        participants,
                        mutual_pairs,
                        ..
                    },
                    RoundOutcome::Conversation { replies, .. },
                ) => {
                    self.noise_draws
                        .insert(round, draws.into_iter().map(|(_, draw)| draw).collect());
                    self.complete_conversation_round(round, participants, *mutual_pairs, replies)?;
                    RoundShape {
                        is_conversation: true,
                        submitted: participants.len() as u64
                            * self.config.conversation_slots as u64,
                        noise_per_server_lo: conv_singles.0 + 2 * conv_pairs.0,
                        noise_per_server_hi: conv_singles.1 + 2 * conv_pairs.1,
                    }
                }
                (
                    RoundMeta::Dialing {
                        participants,
                        real_per_drop,
                        ..
                    },
                    RoundOutcome::Dialing { timing },
                ) => {
                    self.complete_dialing_round(
                        round,
                        participants,
                        real_per_drop,
                        timing.backward.len() as u64,
                    )?;
                    last_dialing = Some((round, participants.clone()));
                    RoundShape {
                        is_conversation: false,
                        submitted: participants.len() as u64,
                        noise_per_server_lo: u64::from(self.scenario.num_drops) * dial_draw.0,
                        noise_per_server_hi: u64::from(self.scenario.num_drops) * dial_draw.1,
                    }
                }
                _ => unreachable!("round {round}'s outcome is of its spec's kind"),
            };
            shapes.insert(round, shape);
            self.rounds_completed += 1;
        }

        // Invitation scans: only the schedule's last dialing round's
        // drops still exist (the deployment retains one round, §5.5).
        if let Some((round, participants)) = last_dialing {
            self.scan_invitations(round, &participants);
        }

        // Clean drain: no server may retain any round state.
        for i in 0..self.config.chain_len {
            let in_flight = self.chain.server(i).in_flight_rounds();
            if in_flight != 0 {
                self.note(Err(InvariantViolation {
                    round: None,
                    invariant: "schedule-drain",
                    detail: format!("server {i} retains state for {in_flight} rounds"),
                }))?;
            }
        }

        self.check_taps(&shapes)?;
        Ok(())
    }

    fn complete_conversation_round(
        &mut self,
        round: u64,
        participants: &[usize],
        mutual_pairs: u64,
        replies: Vec<Vec<u8>>,
    ) -> Result<(), SimError> {
        let chain_len = self.config.chain_len as u64;
        let replies_len = replies.len() as u64;
        let total_participants = participants.len();
        let observables = *self
            .find_conversation_observables(round)
            .expect("every completed round logs its trailer's observables");
        let onion_width = onion::wrapped_len(EXCHANGE_REQUEST_LEN, self.config.chain_len) as u64;
        let (singles, pairs) = self.conversation_noise_bounds();
        let check = ConversationRoundCheck {
            round,
            participants: total_participants as u64,
            slots: self.config.conversation_slots as u64,
            mutual_pairs,
            observables: &observables,
            client_link_forward: self
                .chain
                .client_link()
                .round_traffic(round, Direction::Forward),
            onion_width,
            replies: replies_len,
        };
        let submitted = check.participants * check.slots;
        // Noted separately so tolerant mode grades participation and
        // the histogram independently — a replies mismatch must not
        // mask a histogram excursion in the same round.
        self.note(check_conversation_participation(&check))?;
        self.note(check_conversation_histogram(
            chain_len, singles, pairs, &check,
        ))?;
        if matches!(self.config.noise_mode, vuvuzela_dp::NoiseMode::Sampled) {
            // Infer this round's total noise draws from the histogram
            // for the end-of-run concentration check. Signed: tampering
            // can push the inferred counts below zero.
            let noising = chain_len - 1;
            let base_m1 = i128::from(submitted) - 2 * i128::from(mutual_pairs);
            self.soak.record_conversation(
                noising,
                i128::from(observables.m1) - base_m1,
                i128::from(observables.m2) - i128::from(mutual_pairs),
            );
        }

        // Hand replies back (a batch an adversary shrank loses its tail
        // replies) and transcribe the deliveries they unlock.
        let delivered = self.clients.handle_conversation_replies(round, &replies);
        let spent = self.charge(round, Protocol::Conversation)?;
        self.transcript.push(format!(
            "round {round} conversation participants {total_participants} submitted {} \
             mutual {mutual_pairs} m1 {} m2 {} mmany {} total {} eps {:e} delta {:e}",
            total_participants as u64 * self.config.conversation_slots as u64,
            observables.m1,
            observables.m2,
            observables.m_many,
            observables.total_requests,
            spent.epsilon,
            spent.delta
        ));
        self.view.rounds.push(RoundView::Conversation {
            round,
            participants: total_participants as u64,
            observables,
        });
        for (id, peer, body) in delivered {
            let from = self.member(&peer);
            self.delivered += 1;
            self.transcript.push(format!(
                "delivered round {round} client {id} from {from} body {}",
                hex(&body)
            ));
        }
        Ok(())
    }

    fn complete_dialing_round(
        &mut self,
        round: u64,
        participants: &[usize],
        real_per_drop: &[u64],
        backward_stages: u64,
    ) -> Result<(), SimError> {
        let chain_len = self.config.chain_len as u64;
        let total_participants = participants.len();
        let observables = self
            .find_dialing_observables(round)
            .expect("every completed round logs its trailer's observables")
            .clone();
        let onion_width = onion::wrapped_len(DIAL_REQUEST_LEN, self.config.chain_len) as u64;
        let client_link = self.chain.client_link();
        let check = DialingRoundCheck {
            round,
            participants: total_participants as u64,
            real_per_drop,
            observables: &observables,
            client_link_forward: client_link.round_traffic(round, Direction::Forward),
            client_link_backward: client_link.round_traffic(round, Direction::Backward),
            onion_width,
            backward_stages,
        };
        let per_draw = self.dialing_noise_bounds();
        self.note(check_dialing_participation(&check))?;
        self.note(check_dialing_counts(chain_len, per_draw, &check))?;
        if matches!(self.config.noise_mode, vuvuzela_dp::NoiseMode::Sampled)
            && observables.counts.len() == real_per_drop.len()
        {
            let inferred = observables
                .counts
                .iter()
                .zip(real_per_drop)
                .map(|(&count, &real)| i128::from(count) - i128::from(real));
            self.soak.record_dialing(chain_len, inferred);
        }
        let spent = self.charge(round, Protocol::Dialing)?;
        let counts: Vec<String> = observables.counts.iter().map(u64::to_string).collect();
        self.transcript.push(format!(
            "round {round} dialing participants {total_participants} drops {} counts [{}] \
             noop {} eps {:e} delta {:e}",
            self.scenario.num_drops,
            counts.join(","),
            observables.noop_writes,
            spent.epsilon,
            spent.delta
        ));
        self.view.rounds.push(RoundView::Dialing {
            round,
            participants: total_participants as u64,
            observables,
        });
        Ok(())
    }

    fn scan_invitations(&mut self, round: u64, participants: &[usize]) {
        let num_drops = self.scenario.num_drops;
        for &id in participants {
            let drop = self.clients.invitation_drop(id, num_drops);
            let Some(contents) = self.chain.download_drop(drop) else {
                continue;
            };
            let found = self.clients.scan_invitation_drop(id, &contents);
            if !found.is_empty() {
                let mut callers: Vec<usize> = found.iter().map(|pk| self.member(pk)).collect();
                callers.sort_unstable();
                let callers: Vec<String> = callers.iter().map(usize::to_string).collect();
                self.transcript.push(format!(
                    "scan round {round} client {id} callers [{}]",
                    callers.join(",")
                ));
            }
        }
    }

    fn charge(
        &mut self,
        round: u64,
        protocol: Protocol,
    ) -> Result<vuvuzela_dp::ComposedPrivacy, SimError> {
        let previous = self.ledger.spent(protocol);
        let spent = self.ledger.charge(protocol);
        // The charge invariant recomputes the per-round (ε, δ) from the
        // noise the ledger *charges with* — the claimed parameters when
        // a ledger override is in play, the deployed ones otherwise.
        let (conversation_noise, dialing_noise) = match self.scenario.ledger_noise {
            Some(claimed) => (claimed.conversation, claimed.dialing),
            None => (self.config.conversation_noise, self.config.dialing_noise),
        };
        let (mu, b) = match protocol {
            Protocol::Conversation => (conversation_noise.mu, conversation_noise.b),
            Protocol::Dialing => (dialing_noise.mu, dialing_noise.b),
        };
        self.note(check_privacy_charge(
            round,
            protocol,
            self.ledger.rounds(protocol),
            mu,
            b,
            LEDGER_D,
            spent,
            previous,
        ))?;
        Ok(spent)
    }

    fn find_conversation_observables(
        &self,
        round: u64,
    ) -> Option<&vuvuzela_core::observables::ConversationObservables> {
        self.chain
            .conversation_observables()
            .iter()
            .rev()
            .find(|(r, _)| *r == round)
            .map(|(_, obs)| obs)
    }

    fn find_dialing_observables(
        &self,
        round: u64,
    ) -> Option<&vuvuzela_core::observables::DialingObservables> {
        self.chain
            .dialing_observables()
            .iter()
            .rev()
            .find(|(r, _)| *r == round)
            .map(|(_, obs)| obs)
    }

    /// Sums every observed link's batches for the rounds the schedule
    /// completed from their round record, checks invariant 5, and
    /// transcribes one line per (link, round, direction) in canonical
    /// `(round, forward-first)` order. An aborted schedule's rounds have
    /// no record: which of them reached a link is timing-dependent.
    fn check_taps(&mut self, shapes: &BTreeMap<u64, RoundShape>) -> Result<(), SimError> {
        let chain_len = self.config.chain_len;
        for position in self.observed.clone() {
            let link = LinkId::Hop(position as u32);
            let mut rounds = BTreeMap::new();
            for (&round, &shape) in shapes {
                let mut crossed = [Crossings::default(); 2];
                for public in &self.view.record[&round] {
                    if let Some((on, direction)) = public.sent_on(chain_len) {
                        if on == link {
                            crossed[usize::from(direction == Direction::Backward)].add(public.sent);
                        }
                    }
                }
                rounds.insert(round, (shape, crossed));
            }
            self.note(check_tap_sizes(position, chain_len, &rounds))?;
            for (round, (_, crossed)) in rounds {
                for (crossing, name) in crossed.iter().zip(["forward", "backward"]) {
                    if crossing.batches > 0 {
                        self.transcript.push(format!(
                            "tap link {link} round {round} {name} onions {} width {}",
                            crossing.traffic.onions,
                            crossing.width()
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Convenience: build and run a scenario in one call.
///
/// # Errors
///
/// See [`Simulator::run`].
pub fn run_scenario(scenario: &Scenario) -> Result<SimReport, SimError> {
    Simulator::new(scenario.clone()).run()
}

/// [`run_scenario`] over the wire ([`Simulator::over_wire`]): the
/// determinism twin of an in-process run.
///
/// # Errors
///
/// As [`run_scenario`].
pub fn run_scenario_over_wire(scenario: &Scenario) -> Result<SimReport, SimError> {
    Simulator::new(scenario.clone()).over_wire().run()
}
