//! A deterministic whole-deployment simulator for Vuvuzela.
//!
//! The paper's privacy argument (§4–§5) quietly assumes a well-behaved
//! deployment: every connected client sends exactly one request per
//! round, noise covers the observable dead-drop access counts, dialing
//! rounds never produce a backward pass, and the (ε, δ) budget is spent
//! exactly on the planner's schedule. Those properties are easiest to
//! break under realistic deployment *dynamics* — clients going offline
//! mid-conversation, dial storms, new users joining mid-run, a server
//! stalling or aborting mid-round — which unit tests of individual
//! components never exercise end to end. This crate scripts exactly
//! those dynamics over the real system (the same
//! [`vuvuzela_core::ClientCohort`] client, the same
//! [`vuvuzela_core::Chain`] and its windowed, seeded schedule of the hop
//! protocol, the same adversary taps) and checks the paper's invariants
//! after every round.
//! Every client is a member of one cohort, joined by
//! [`scenario::Step::Join`]: a conversing pair and an idle cover crowd
//! differ only in what the script has them do.
//!
//! [`simulator::Simulator`] is the repository's one harness for whole
//! rounds over a client population: the scenario matrices below run
//! whole scripts, and the integration tests, the examples and the
//! no-noise baseline's tests drive it one [`scenario::Step`] at a time
//! ([`simulator::Simulator::step`]), reading clients, observables and
//! taps between steps — fail-fast when honest, in tolerant mode
//! ([`simulator::Simulator::tolerate_violations`]) when they tamper.
//!
//! ## Scenario-script format
//!
//! A [`scenario::Scenario`] is a seeded, self-contained script: the
//! deployment shape (servers, noise (µ, b) per protocol, invitation
//! drops, worker threads) plus an ordered list of [`scenario::Step`]s.
//! Steps either mutate the population — [`scenario::Step::Join`],
//! [`scenario::Step::SetOnline`], [`scenario::Step::Leave`],
//! [`scenario::Step::Dial`], [`scenario::Step::Queue`],
//! [`scenario::Step::AcceptAll`] — configure faults and observers —
//! [`scenario::Step::Observe`], [`scenario::Step::StallLink`],
//! [`scenario::Step::CrashLink`] — or run protocol rounds:
//! [`scenario::Step::Run`] submits a heterogeneous batch of
//! conversation/dialing rounds through **one**
//! [`vuvuzela_core::Chain::run`] call, so the
//! scripted rounds genuinely overlap in flight. Client steps apply
//! *between* schedules, never mid-schedule — a client is online or
//! offline for whole rounds, matching the round-synchronous protocol.
//! Clients scan their invitation drop once per `Run` that contains a
//! dialing round, and only the *last* dialing round's drops still exist
//! by then (the deployment retains one dialing round of drops, §5.5) —
//! which is precisely how a client "misses" an invitation and must be
//! re-dialed.
//!
//! ## Determinism contract
//!
//! [`simulator::Simulator::run`] emits a canonical per-round
//! [`transcript::Transcript`] — participants, submissions, dead-drop
//! histograms, per-drop invitation counts, deliveries, invitation
//! scans, observed link batches, and the composed (ε′, δ′) spent — that is
//! **byte-identical for the same scenario** across runs and worker
//! counts. Every schedule runs as one seeded interleaving on the calling
//! thread ([`vuvuzela_core::Chain::run`]), so a run replays exactly, and
//! the transcript does not even depend on that interleaving: every
//! round's bytes are a pure function of `(seed, round)`, and the windowed
//! schedule is proptested byte-identical to one round per call. Three
//! simulator-side rules keep it so: nothing
//! timing-dependent is ever recorded (no wall-clock durations), link
//! traffic is read from each completed round's record — the onions and
//! bytes every pass sent, on the link
//! [`vuvuzela_core::record::Public::sent_on`] names — in canonical
//! `(round, direction)` order, and an **aborted**
//! schedule contributes only its planned round ids — which rounds were
//! partially processed when a schedule dies depends on the interleaving
//! and the window, so none of their partial effects are transcribed.
//! The transcript hash ([`transcript::Transcript::sha256_hex`]) is what
//! CI pins across two runs of the bundled scenario matrix.
//!
//! ## The wire twin
//!
//! The same contract makes the transcript independent of the runtime.
//! [`simulator::Simulator::over_wire`] carries every schedule through
//! the deployment's node loops instead — the entry and each server on a
//! thread of its own, every link (the clients link too) a loopback TCP
//! socket whose ends send each batch through the chain's own link, so
//! taps, faults and the traffic record sit on the sockets
//! ([`vuvuzela_core::pipeline::run_over_loopback`]). Everything else the
//! simulator reads stays on the same `Chain`. `sim_matrix`, `sim_soak`
//! and the scenario tests run every scenario a second time that way
//! ([`run_scenario_over_wire`], [`soak::run_soak_case_over_wire`]) and
//! require a byte-identical transcript, the same tripped invariants and
//! an equal public round record for every completed round
//! ([`simulator::SimReport::twin_mismatch`]). The attack matrix runs
//! each world's sample seed a second time that way too, and also
//! requires equal histograms and noise draws for every round it grades
//! ([`attack::run_deployment`]).
//!
//! ## Round-abort semantics
//!
//! A schedule whose run returns a [`vuvuzela_core::Abort`] mid-flight
//! (an injected [`vuvuzela_adversary::taps::CrashOnRound`] fault hangs
//! up a link, as a dead server process would, or a hop refuses a frame)
//! aborts **as a unit**: no round of the schedule returns
//! replies, clients expire the dead rounds' reply keys, every server
//! discards all in-flight round state
//! ([`vuvuzela_core::Chain::abort_in_flight_rounds`]), and the
//! deployment resumes with fresh round numbers. Client-level
//! retransmission (§3.1) then re-carries whatever data the aborted
//! rounds lost; queued invitations consumed by an aborted dialing round
//! are gone and must be re-dialed. The (ε′, δ′) ledger still charges
//! every *scheduled* round — partial rounds may have put observable
//! traffic on the wire, so the accounting is conservative. A panic (a
//! tap or worker closure that panics) is a bug, not an abort: it
//! propagates out of the simulator.
//!
//! ## Invariant list
//!
//! After every **completed** round, [`invariants`] asserts:
//!
//! 1. **Uniform participation** — every online client submitted exactly
//!    one onion per conversation slot (dialing: exactly one request),
//!    of exactly the right wrapped size, on the clients→entry link.
//! 2. **Noise-covered dead drops** — the conversation histogram
//!    decomposes as `m2 = (n−1)·(pair draws) + (mutual pairs)` and
//!    `m1 = (n−1)·(single draws) + (remaining slots)`, with
//!    `m_many = 0`; per-drop dialing counts equal `chain_len` noise
//!    draws plus the real invitations the script sent there. In
//!    deterministic noise mode every draw is exactly `⌈µ⌉` and the
//!    checks are equalities; in sampled mode each draw must land in
//!    the inclusive window
//!    [`vuvuzela_dp::NoiseDistribution::count_bounds`] derives from
//!    the Laplace tail.
//! 3. **Dialing is forward-only** — no backward timing, no backward
//!    client-link traffic, and no server retains round state once a
//!    schedule drains.
//! 4. **Monotone privacy spend** — the composed (ε′, δ′) after round k
//!    equals an independent Theorem-2 recomputation at k rounds
//!    ([`vuvuzela_dp::PrivacyLedger`]) and strictly exceeds the spend at
//!    k−1. This one is checked on every charge, an aborted schedule's
//!    rounds included.
//! 5. **Fixed sizes under taps** — on every link a
//!    [`scenario::Step::Observe`] marked, the round record (each
//!    pass's sent frame, counted before it enters its link, so before
//!    any tap) shows each completed round crossing exactly once forward
//!    (and once backward for conversation rounds), at the exact width
//!    the round kind implies at that chain position, with an onion count
//!    inside the round's noise window (exact in deterministic mode).
//! 6. **Noise concentration** (sampled mode only, end of run) — the
//!    empirical mean of every noise draw family inferred from the
//!    observables (conversation singles, conversation pairs, dialing
//!    per-drop) lies within `k·σ/√n` of its µ, plus the ceiling bias
//!    ([`invariants::check_noise_concentration`]).
//!
//! The bundled scenario matrix ([`scenario::bundled_matrix`]) covers
//! steady state, churn with rejoin and permanent leave, a dial storm at
//! the paper's µ = 13,000 per drop ([`scenario::Scale::Full`]; CI runs
//! [`scenario::Scale::Smoke`] at µ scaled down 100×), idle-client cover
//! traffic, server slowdown, server abort, and re-dial after a missed
//! dialing round.
//!
//! ## The adversary axis and survive/trip annotations
//!
//! [`soak`] crosses the bundled matrix with an *active-adversary*
//! strategy axis: every scenario re-runs under sampled noise with a
//! tampering tap ([`vuvuzela_adversary::taps`]) on chain link 0 —
//! dropping a fraction of every batch, delaying a batch into a later
//! round, replaying a batch, or injecting well-formed garbage onions.
//! Two contracts hold:
//!
//! - **Graceful degradation**: a tampered run must *terminate* with
//!   every schedule drained. Tolerant-mode execution
//!   ([`simulator::Simulator::run_collecting`]) transcribes and
//!   collects violations instead of aborting; surviving onions still
//!   deliver their replies (a client whose onion was dropped sees a
//!   missed round and retransmits), and the ledger still charges
//!   every started round — tampering can waste budget, never save it.
//! - **Survive/trip annotations**: every [`soak::SoakCase`] declares
//!   the exact invariant set its tampering trips
//!   ([`soak::expected_trips`]). The case verdict is set equality:
//!   an undeclared trip is a failure (the degradation story broke),
//!   and an un-tripped declaration is *also* a failure (the checker
//!   lost its teeth). `sim_soak` runs the whole crossed matrix and
//!   writes one transcript artefact per case.
//!
//! ## The attack matrix
//!
//! [`attack`] closes the loop on the (ε′, δ′) accounting: it runs
//! *adjacent-world* twin scenarios (one target user talking vs. idle),
//! reads each run's [`vuvuzela_adversary::AdversaryView`] — the typed
//! record the simulator fills in beside its transcript, holding only
//! what a tapping adversary sees ([`simulator::SimReport::view`]) —
//! plus the noise draws of the servers an attacker owns
//! ([`simulator::SimReport::noise_draws`], kept out of the view) —
//! trains a [`vuvuzela_adversary::ThresholdDetector`] on half the
//! seeds, and asserts the held-out advantage against
//! `max_advantage(ε′, δ′)` with the budget the view reports (the
//! ledger's total, aborted rounds included). Each deployment runs once,
//! and every attacker on it is graded on those runs. Honest sampled
//! noise must stay under the bound while one noising server is honest,
//! the §4.2 disruption attack included; the noise-off, undersized-µ and
//! all-compromised negative controls must *beat* it. `sim_attack` runs
//! the matrix and writes a JSON verdict artefact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod invariants;
pub mod scenario;
pub mod simulator;
pub mod soak;
pub mod transcript;

pub use attack::{
    attack_matrix, run_deployment, twin_scenario, AttackControl, AttackDeployment, AttackOutcome,
    AttackVerdict, Attacker, ATTACK_ALPHA,
};
pub use scenario::{bundled_matrix, LedgerNoise, RoundPlan, Scale, Scenario, Step};
pub use simulator::{run_scenario, run_scenario_over_wire, SimError, SimReport, Simulator};
pub use soak::{
    run_soak_case, run_soak_case_over_wire, soak_matrix, AdversaryStrategy, SoakCase, SoakOutcome,
};
pub use transcript::Transcript;

/// The command line of the `sim_matrix`, `sim_soak` and `sim_attack`
/// bins, `[--full] [OUT_DIR]`: the scale (`--full` is [`Scale::Full`],
/// else [`Scale::Smoke`]) and the output directory, `default_out`
/// unless one is given, created before this returns. Any other argument
/// prints the usage on stderr and exits with status 2.
///
/// # Panics
///
/// If the output directory cannot be created.
#[must_use]
pub fn bin_args(bin: &str, default_out: &str) -> (Scale, String) {
    let usage = |problem: String| {
        eprintln!("{bin}: {problem}\nusage: {bin} [--full] [OUT_DIR]");
        std::process::exit(2)
    };
    let mut scale = Scale::Smoke;
    let mut out_dir: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--full" {
            scale = Scale::Full;
        } else if arg.starts_with("--") {
            usage(format!("unknown flag {arg}"));
        } else if out_dir.is_some() {
            usage("more than one OUT_DIR".to_string());
        } else {
            out_dir = Some(arg);
        }
    }
    let out_dir = out_dir.unwrap_or_else(|| default_out.to_string());
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    (scale, out_dir)
}
