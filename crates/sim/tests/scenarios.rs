//! The bundled scenario matrix as integration tests: every scenario
//! runs on `Chain`'s seeded windowed schedule on the calling thread with
//! the invariant checker live, and again over the wire (the node loops
//! on threads over loopback TCP), whose transcript and public round
//! record must be byte-identical to the first run's (the determinism
//! contract).

use vuvuzela_adversary::RoundView;
use vuvuzela_sim::transcript::hex;
use vuvuzela_sim::{
    bundled_matrix, run_scenario, run_scenario_over_wire, RoundPlan, Scale, Scenario, SimReport,
    Step,
};

/// Runs a bundled scenario in process and over the wire, asserting
/// invariant success and identical twins, and returns the first report.
fn run_deterministic(name: &str) -> SimReport {
    let scenario = bundled_matrix(Scale::Smoke)
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no bundled scenario named {name}"));
    let first =
        run_scenario(&scenario).unwrap_or_else(|err| panic!("{name}: invariant failure: {err}"));
    let wire = run_scenario_over_wire(&scenario).expect("the wire twin of a passing scenario");
    assert_eq!(
        first.twin_mismatch(&wire),
        None,
        "{name}: the wire twin differs"
    );
    assert!(!first.record.is_empty() && first.hash == wire.hash);
    first
}

#[test]
fn matrix_has_at_least_six_scenarios_with_churn_and_faults() {
    let matrix = bundled_matrix(Scale::Smoke);
    assert!(
        matrix.len() >= 6,
        "bundled matrix shrank to {}",
        matrix.len()
    );
    let names: Vec<&str> = matrix.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"churn_rejoin"), "needs a churn scenario");
    assert!(
        names.contains(&"server_fault"),
        "needs a server-fault scenario"
    );
    // The full-scale matrix carries the paper's µ = 13,000-per-drop storm.
    let full_storm = bundled_matrix(Scale::Full)
        .into_iter()
        .find(|s| s.name == "dial_storm")
        .expect("full matrix has the storm");
    assert_eq!(full_storm.dialing_mu, 13_000.0);
}

#[test]
fn steady_state_delivers_all_pairs() {
    let report = run_deterministic("steady_state");
    // Five pairs, one message each way.
    assert_eq!(report.delivered, 10);
    assert_eq!(report.schedules_aborted, 0);
    assert_eq!(report.rounds_completed, 7);
}

#[test]
fn churn_rejoin_retransmits_to_returning_peer() {
    let report = run_deterministic("churn_rejoin");
    // "sent while you were away" reaches the rejoining client via
    // retransmission; the late joiners' message arrives too. The
    // message to the departed client never delivers.
    assert_eq!(report.delivered, 2);
    assert_eq!(report.schedules_aborted, 0);
    assert!(
        delivered_line(&report, b"sent while you were away").is_some(),
        "retransmitted message must deliver after the peer rejoins"
    );
    assert!(
        delivered_line(&report, b"talking to a ghost").is_none(),
        "a message to a departed client must never deliver"
    );
}

/// The `delivered` transcript line carrying `body`, if any (the `event
/// queue` line also records body hex, so matching must be line-typed).
fn delivered_line<'a>(report: &'a SimReport, body: &[u8]) -> Option<&'a String> {
    let needle = format!("body {}", hex(body));
    report
        .transcript
        .lines()
        .iter()
        .find(|l| l.starts_with("delivered ") && l.contains(&needle))
}

#[test]
fn dial_storm_invites_every_client() {
    let report = run_deterministic("dial_storm");
    // Every client dialed and every online client scans: 32 scan lines.
    let scans = report
        .transcript
        .lines()
        .iter()
        .filter(|l| l.starts_with("scan "))
        .count();
    assert_eq!(scans, 32, "every client finds its invitation in the storm");
    assert_eq!(report.delivered, 1);
}

#[test]
fn idle_cover_is_pure_noise() {
    let report = run_deterministic("idle_cover");
    assert_eq!(report.delivered, 0);
    // Every conversation round's histogram decomposed as pure noise +
    // 20 idle singles (the invariant checker asserted the arithmetic;
    // here we pin the observable shape the adversary sees, and that the
    // ground truth had no pair talking).
    let mut rounds = 0;
    for (round, observables) in report.view.conversation_rounds() {
        let observables = observables.expect("every idle round has a histogram");
        assert_eq!(observables.m2, 6, "round {round}: only noise pairs");
        rounds += 1;
    }
    assert!(rounds > 0);
    for line in report.transcript.lines() {
        if line.contains(" conversation participants ") {
            assert!(line.contains("mutual 0"), "no pair talks: {line}");
        }
    }
}

#[test]
fn server_slowdown_changes_timing_not_bytes() {
    let stalled = run_deterministic("server_slowdown");
    // The twin scenario: identical script minus the stall tap.
    let mut clean = bundled_matrix(Scale::Smoke)
        .into_iter()
        .find(|s| s.name == "server_slowdown")
        .expect("bundled");
    clean.steps.retain(|s| !matches!(s, Step::StallLink { .. }));
    let clean = run_scenario(&clean).expect("clean twin passes");
    let strip = |r: &SimReport| -> Vec<String> {
        r.transcript
            .lines()
            .iter()
            .filter(|l| !l.starts_with("event stall"))
            .cloned()
            .collect()
    };
    assert_eq!(
        strip(&stalled),
        strip(&clean),
        "a stalled hop may change timing but never any round's bytes"
    );
}

#[test]
fn server_fault_aborts_then_recovers_via_retransmission() {
    let report = run_deterministic("server_fault");
    assert_eq!(report.schedules_aborted, 1);
    // Rounds 1–3 aborted; rounds 0 and 4–6 completed.
    assert_eq!(report.rounds_completed, 4);
    let rendered = report.transcript.render();
    assert!(rendered.contains("schedule aborted rounds [1,2,3]"));
    // The queued message survives the abort and delivers afterwards.
    assert_eq!(report.delivered, 1);
    assert!(delivered_line(&report, b"survives the crash").is_some());
    // Abort charges the ledger conservatively: the post-abort ledger
    // line exists and later rounds keep composing on top of it.
    assert!(rendered.contains("ledger conversation eps"));
}

#[test]
fn redial_lands_after_missed_dialing_round() {
    let report = run_deterministic("redial_after_miss");
    // The first invitation is never scanned (callee offline, drop
    // overwritten); only the re-dial is.
    let scans: Vec<&String> = report
        .transcript
        .lines()
        .iter()
        .filter(|l| l.starts_with("scan ") && l.contains("client 1"))
        .collect();
    assert_eq!(scans.len(), 1, "exactly the re-dialed invitation is found");
    assert!(
        scans[0].starts_with("scan round 2 "),
        "found in the third dialing round"
    );
    assert_eq!(report.delivered, 1);
    assert!(delivered_line(&report, b"second dial worked").is_some());
}

#[test]
fn worker_count_does_not_change_the_transcript() {
    // The determinism contract holds across parallelism levels AND
    // dead-drop exchange shard counts: only the header line that
    // *names* the worker/shard counts may differ.
    let base = bundled_matrix(Scale::Smoke)
        .into_iter()
        .find(|s| s.name == "server_fault")
        .expect("bundled");
    let strip = |r: &SimReport| -> Vec<String> {
        r.transcript
            .lines()
            .iter()
            .filter(|l| !l.starts_with("seed "))
            .cloned()
            .collect()
    };
    let a = run_scenario(&base).expect("baseline passes");
    for (workers, shards) in [(4, base.exchange_shards), (2, 1), (4, 3), (2, 7)] {
        let mut variant = base.clone();
        variant.workers = workers;
        variant.exchange_shards = shards;
        let b = run_scenario(&variant).expect("variant passes");
        assert_eq!(
            strip(&a),
            strip(&b),
            "workers {workers} shards {shards} diverged"
        );
    }
}

#[test]
fn invariant_checker_catches_real_tampering() {
    // A blocking tap mid-chain silently deletes one onion per round;
    // the noise-covered-dead-drops equality must fail the very first
    // round it touches.
    use parking_lot::Mutex;
    use std::sync::Arc;
    use vuvuzela_adversary::taps::KeepOnly;
    use vuvuzela_net::Tap;

    let mut scenario = Scenario::new("tampered", 99);
    scenario.steps.push(Step::Join(8));
    scenario
        .steps
        .push(Step::Run(vec![RoundPlan::Conversation]));
    let mut sim = vuvuzela_sim::Simulator::new(scenario);
    let tap: Arc<Mutex<dyn Tap>> = Arc::new(Mutex::new(KeepOnly {
        indices: (0..7).collect(), // drops the 8th request
        only_round: None,
    }));
    sim.chain_mut().link_mut(0).attach_tap(tap);
    let err = sim.run().expect_err("tampering must violate an invariant");
    let msg = err.to_string();
    // The deleted onion surfaces either as a short reply batch
    // (uniform-participation) or as an uncovered histogram
    // (noise-covered-deaddrops) — both pin it to the tampered round.
    assert!(
        (msg.contains("uniform-participation") || msg.contains("noise-covered-deaddrops"))
            && msg.contains("round 0"),
        "unexpected violation: {msg}"
    );
}

#[test]
fn tampered_dialing_round_never_trips_forward_only() {
    // Tampering aimed squarely at a dialing round must degrade it —
    // the exact no-op-write accounting catches the dropped requests —
    // without ever conjuring a backward pass, and must leave the
    // surrounding conversation rounds untouched.
    use parking_lot::Mutex;
    use std::sync::Arc;
    use vuvuzela_adversary::taps::{DropFraction, RoundWindow};
    use vuvuzela_net::Tap;

    let mut scenario = Scenario::new("dial_tamper", 77);
    scenario.steps.push(Step::Join(6));
    scenario.steps.push(Step::Run(vec![
        RoundPlan::Conversation,
        RoundPlan::Dialing,
        RoundPlan::Conversation,
    ]));
    let mut sim = vuvuzela_sim::Simulator::new(scenario);
    let tap: Arc<Mutex<dyn Tap>> = Arc::new(Mutex::new(DropFraction {
        numerator: 1,
        denominator: 2,
        window: RoundWindow::only(1), // round 1 is the dialing round
    }));
    sim.chain_mut().link_mut(0).attach_tap(tap);
    let (report, violations) = sim.run_collecting();
    assert_eq!(report.schedules_aborted, 0, "tampering must not wedge");
    assert!(
        !violations.is_empty(),
        "dropping half a dialing round must be caught"
    );
    for v in &violations {
        assert_ne!(
            v.invariant, "dialing-forward-only",
            "tampering conjured a backward pass: {v}"
        );
        assert_eq!(
            v.round,
            Some(1),
            "violation leaked past the tampered round: {v}"
        );
    }
}

#[test]
fn observer_on_the_tampered_link_sees_the_untampered_forward_batches() {
    // `Observe` takes no tap slot: it reads the link's per-round log,
    // which the link writes before its tap runs. So an observer on the
    // very link a tamperer holds sees every forward batch as it arrived,
    // identical to the untampered twin's.
    use parking_lot::Mutex;
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use vuvuzela_adversary::taps::{DropFraction, RoundWindow};
    use vuvuzela_adversary::TapBatch;
    use vuvuzela_net::{Direction, Tap};

    let scenario = || {
        let mut s = Scenario::new("observed_tamper", 0x0B5E);
        s.steps.push(Step::Join(6));
        s.steps.push(Step::Observe { link: 0 });
        s.steps.push(Step::Run(vec![
            RoundPlan::Conversation,
            RoundPlan::Dialing,
            RoundPlan::Conversation,
        ]));
        s
    };
    let twin = run_scenario(&scenario()).expect("the untampered twin passes");

    let mut sim = vuvuzela_sim::Simulator::new(scenario());
    let tap: Arc<Mutex<dyn Tap>> = Arc::new(Mutex::new(DropFraction {
        numerator: 1,
        denominator: 3,
        window: RoundWindow::ALL,
    }));
    sim.chain_mut().link_mut(0).attach_tap(tap);
    let (report, violations) = sim.run_collecting();

    let forward = |report: &SimReport| -> Vec<TapBatch> {
        report
            .view
            .taps
            .iter()
            .filter(|tap| tap.direction == Direction::Forward)
            .copied()
            .collect()
    };
    assert_eq!(forward(&twin).len(), 3, "one forward batch per round");
    assert_eq!(forward(&report), forward(&twin));

    // The dropped third thins the histograms and the replies; on link 0
    // itself only the backward batch, which carries just the survivors'
    // replies, leaves its window.
    let tripped: BTreeSet<&str> = violations.iter().map(|v| v.invariant).collect();
    assert_eq!(
        tripped,
        BTreeSet::from([
            "fixed-sizes-under-taps",
            "noise-covered-deaddrops",
            "uniform-participation"
        ])
    );
    for v in violations
        .iter()
        .filter(|v| v.invariant == "fixed-sizes-under-taps")
    {
        assert!(v.detail.contains("backward"), "{v}");
    }
}

#[test]
fn soak_cases_match_their_annotations() {
    // Spot-check the pinned survive/trip table across its corner
    // cases: the honest baseline, a per-round strategy, the
    // dialing-round replay (round 12 lands on a dialing round in
    // dial_storm), and the small-population delay that only replies
    // catch. `sim_soak` grades the full crossed matrix in CI.
    use vuvuzela_sim::soak::soak_case;
    use vuvuzela_sim::{run_soak_case, AdversaryStrategy};

    let matrix = bundled_matrix(Scale::Smoke);
    let pick = |name: &str| {
        matrix
            .iter()
            .find(|s| s.name == name)
            .expect("bundled scenario")
            .clone()
    };
    for (base, strategy) in [
        ("steady_state", AdversaryStrategy::None),
        ("steady_state", AdversaryStrategy::Drop),
        ("dial_storm", AdversaryStrategy::Replay),
        ("redial_after_miss", AdversaryStrategy::Delay),
    ] {
        let case = soak_case(pick(base), strategy);
        let outcome = run_soak_case(&case);
        assert!(
            outcome.passed(),
            "{}: undeclared trips {:?}, un-tripped declarations {:?}",
            outcome.name,
            outcome.unexpected,
            outcome.missing
        );
    }
}

#[test]
fn soak_runs_are_deterministic_under_tampering() {
    // Tampering (including violation lines) must not break the
    // byte-identical transcript contract, whichever runtime carries it.
    use vuvuzela_sim::soak::soak_case;
    use vuvuzela_sim::{run_soak_case, run_soak_case_over_wire, AdversaryStrategy};

    let base = bundled_matrix(Scale::Smoke)
        .into_iter()
        .find(|s| s.name == "churn_rejoin")
        .expect("bundled scenario");
    let case = soak_case(base, AdversaryStrategy::Inject);
    let a = run_soak_case(&case);
    let b = run_soak_case_over_wire(&case);
    assert_eq!(
        a.report.twin_mismatch(&b.report),
        None,
        "tampered transcript is timing-dependent"
    );
    assert_eq!((a.report.hash, a.tripped), (b.report.hash, b.tripped));
}

#[test]
fn the_wire_twin_taps_its_sockets_on_the_node_threads() {
    // `Chain::run` runs every tap on the calling thread; the wire twin
    // runs each where its sending node loop runs, one thread per node.
    use parking_lot::Mutex;
    use std::sync::Arc;
    use std::thread::{self, ThreadId};
    use vuvuzela_net::{Slots, Tap, TapContext};
    use vuvuzela_sim::Simulator;

    struct Threads(Vec<ThreadId>);
    impl Tap for Threads {
        fn intercept(&mut self, _ctx: &TapContext, _batch: &mut Slots<'_>) {
            self.0.push(thread::current().id());
        }
    }
    let mut sim = Simulator::new(Scenario::new("wire_threads", 7)).over_wire();
    let threads = Arc::new(Mutex::new(Threads(Vec::new())));
    sim.chain_mut().link_mut(1).attach_tap(threads.clone());
    sim.step(Step::Join(2)).expect("join");
    sim.step(Step::Run(vec![RoundPlan::Conversation, RoundPlan::Dialing]))
        .expect("two rounds");
    let seen = &threads.lock().0;
    // Both rounds forward by server 0, the conversation back by server 1.
    assert_eq!(seen.len(), 3, "{seen:?}");
    assert!(!seen.contains(&thread::current().id()));
    let senders: std::collections::HashSet<_> = seen.iter().collect();
    assert_eq!(senders.len(), 2, "{seen:?}");
}

#[test]
fn population_step_is_deterministic_and_invariant_checked() {
    // A struct-of-arrays cohort provides cover alongside individual
    // clients: same determinism contract, invariants hold with the
    // cohort folded into every round's participant totals.
    let mut s = Scenario::new("population_cover", 0x0707);
    s.steps.push(Step::Join(8));
    s.steps.push(Step::Population(24));
    s.steps.push(Step::Dial {
        caller: 0,
        callee: 1,
    });
    s.steps.push(Step::Run(vec![RoundPlan::Dialing]));
    s.steps.push(Step::AcceptAll);
    s.steps.push(Step::Queue {
        from: 0,
        to: 1,
        body: b"through the cover crowd".to_vec(),
    });
    s.steps.push(Step::Population(8)); // the cohort grows mid-scenario
    s.steps.push(Step::Run(vec![
        RoundPlan::Conversation,
        RoundPlan::Conversation,
        RoundPlan::Dialing,
    ]));
    let a = run_scenario(&s).expect("population scenario passes invariants");
    let b = run_scenario_over_wire(&s).expect("the wire twin");
    assert_eq!(
        a.transcript.render(),
        b.transcript.render(),
        "population rounds must stay byte-deterministic"
    );
    assert_eq!(a.hash, b.hash);
    assert_eq!(a.view, b.view, "and so must the adversary's view");
    assert_eq!(a.delivered, 1, "the individual pair's message arrives");
    let lines = a.transcript.lines();
    assert!(
        lines.iter().any(|l| l == "event population clients 0..24"),
        "population join transcribed"
    );
    assert!(
        lines.iter().any(|l| l == "event population clients 24..32"),
        "population growth transcribed"
    );
    // 32 cohort + 8 individual clients in the post-growth rounds.
    let rounds = &a.view.rounds;
    assert!(
        rounds.iter().any(|r| matches!(
            r,
            RoundView::Conversation {
                participants: 40,
                ..
            }
        )),
        "conversation totals include the cohort"
    );
    assert!(
        rounds.iter().any(|r| matches!(
            r,
            RoundView::Dialing {
                participants: 40,
                ..
            }
        )),
        "dialing totals include the cohort"
    );
}

#[test]
fn population_cohort_converses_internally() {
    // Cohort-internal conversations ride the same rounds as the
    // individual clients'; deliveries are queried through the cohort.
    use vuvuzela_sim::Simulator;

    let mut sim = Simulator::new(Scenario::new("population_talk", 0x9090));
    sim.step(Step::Join(6)).expect("join");
    sim.step(Step::Population(16)).expect("population");
    let cohort = sim.cohort_mut().expect("population created a cohort");
    let pk2 = cohort.public_key(2);
    let pk9 = cohort.public_key(9);
    cohort.pair(2, 9).expect("pair");
    cohort
        .queue_message(2, &pk9, b"cohort to cohort")
        .expect("queue");
    cohort
        .queue_message(9, &pk2, b"cohort right back")
        .expect("queue");
    sim.step(Step::Dial {
        caller: 0,
        callee: 1,
    })
    .expect("dial");
    sim.step(Step::Run(vec![RoundPlan::Dialing])).expect("run");
    sim.step(Step::AcceptAll).expect("accept");
    sim.step(Step::Queue {
        from: 0,
        to: 1,
        body: b"individual pair".to_vec(),
    })
    .expect("queue");
    sim.step(Step::Run(vec![
        RoundPlan::Conversation,
        RoundPlan::Conversation,
    ]))
    .expect("run");

    let cohort = sim.cohort().expect("cohort persists");
    assert_eq!(cohort.len(), 16);
    assert_eq!(cohort.mutual_pairs(), 1);
    assert_eq!(
        cohort.delivered_from(9, &pk2),
        vec![b"cohort to cohort".to_vec()]
    );
    assert_eq!(
        cohort.delivered_from(2, &pk9),
        vec![b"cohort right back".to_vec()]
    );
    let pk0 = sim.clients().public_key(0);
    assert_eq!(
        sim.clients().delivered_from(1, &pk0),
        vec![b"individual pair".to_vec()]
    );
}
