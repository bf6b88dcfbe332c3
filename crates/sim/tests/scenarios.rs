//! The bundled scenario matrix as integration tests: every scenario
//! runs on `Chain`'s seeded windowed schedule on the calling thread with
//! the invariant checker live, and again over the wire (the node loops
//! on threads over loopback TCP), whose transcript and public round
//! record must be byte-identical to the first run's (the determinism
//! contract).

use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use vuvuzela_adversary::taps::{DropFraction, RoundWindow};
use vuvuzela_adversary::RoundView;
use vuvuzela_net::{Direction, LinkId, Tap};
use vuvuzela_sim::invariants::InvariantViolation;
use vuvuzela_sim::soak::soak_case;
use vuvuzela_sim::transcript::hex;
use vuvuzela_sim::{
    bundled_matrix, run_scenario, run_scenario_over_wire, AdversaryStrategy, RoundPlan, Scale,
    Scenario, SimReport, Simulator, Step,
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
    assert!(!first.view.record.is_empty() && first.hash == wire.hash);
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
    use vuvuzela_adversary::taps::KeepOnly;

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

/// What crossed one chain link, per (round, backward) of every completed
/// round: `(onions, bytes)`.
type LinkTraffic = BTreeMap<(u64, bool), (u64, u64)>;

/// Runs `scenario` in tolerant mode with `tap` on chain link 0, and
/// returns the report, the violations, and what crossed each chain link
/// of every completed round, summed from the report's round record
/// (`Public::sent_on`, as invariant 5 reads it). Asserts on the way that
/// each link's own per-round log, which the link writes before its tap
/// runs, holds exactly the same.
fn run_tampered(
    scenario: Scenario,
    tap: Option<Arc<Mutex<dyn Tap>>>,
) -> (SimReport, Vec<InvariantViolation>, Vec<LinkTraffic>) {
    let mut sim = Simulator::new(scenario);
    if let Some(tap) = tap {
        sim.chain_mut().link_mut(0).attach_tap(tap);
    }
    let links = sim.chain().links().to_vec();
    let (report, violations) = sim.run_collecting();
    let record = &report.view.record;
    let traffic = links
        .iter()
        .map(|link| {
            let mut from_record = LinkTraffic::new();
            for (&round, passes) in record {
                for public in passes {
                    let Some((on, direction)) = public.sent_on(links.len()) else {
                        continue;
                    };
                    if on == link.id() {
                        let backward = direction == Direction::Backward;
                        let entry = from_record.entry((round, backward)).or_default();
                        entry.0 += public.sent.onions;
                        entry.1 += public.sent.bytes;
                    }
                }
            }
            let from_log: LinkTraffic = link
                .round_traffic_log()
                .into_iter()
                .filter(|((round, _), _)| record.contains_key(round))
                .map(|((round, direction), traffic)| {
                    ((round, direction == Direction::Backward), traffic)
                })
                .collect();
            assert_eq!(
                from_record,
                from_log,
                "{}: the record's batches on {} are the link's",
                report.name,
                link.id()
            );
            from_record
        })
        .collect();
    (report, violations, traffic)
}

/// The `tap link` lines of a transcript.
fn tap_lines(report: &SimReport) -> Vec<String> {
    let lines = report.transcript.lines().iter();
    lines
        .filter(|l| l.starts_with("tap link "))
        .cloned()
        .collect()
}

/// The `tap link` lines of what crossed chain link `link`, in order.
fn render_tap_lines(link: u32, traffic: &LinkTraffic) -> Vec<String> {
    traffic
        .iter()
        .map(|(&(round, backward), &(onions, bytes))| {
            let name = if backward { "backward" } else { "forward" };
            let width = bytes.checked_div(onions).unwrap_or(0);
            let link = LinkId::Hop(link);
            format!("tap link {link} round {round} {name} onions {onions} width {width}")
        })
        .collect()
}

#[test]
fn observer_on_the_tampered_link_sees_the_untampered_forward_batches() {
    // The round record counts a frame before it enters its link, so
    // before any tap runs: an observer on the very link a tamperer
    // holds sees every forward batch as it arrived, identical to the
    // untampered twin's, and what the link itself logged.
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
    let (twin, violations, twin_traffic) = run_tampered(scenario(), None);
    assert!(violations.is_empty(), "the untampered twin passes");
    let tap: Arc<Mutex<dyn Tap>> = Arc::new(Mutex::new(DropFraction {
        numerator: 1,
        denominator: 3,
        window: RoundWindow::ALL,
    }));
    let (report, violations, traffic) = run_tampered(scenario(), Some(tap));

    let forward = |traffic: &LinkTraffic| -> LinkTraffic {
        let mut traffic = traffic.clone();
        traffic.retain(|&(_, backward), _| !backward);
        traffic
    };
    assert_eq!(forward(&twin_traffic[0]).len(), 3, "one per round");
    assert_eq!(forward(&traffic[0]), forward(&twin_traffic[0]));
    assert_eq!(tap_lines(&twin), render_tap_lines(0, &twin_traffic[0]));
    assert_eq!(tap_lines(&report), render_tap_lines(0, &traffic[0]));

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

    // steady_state observes link 1 while each soak strategy tampers with
    // link 0, dropping, delaying, replaying or injecting onions: there
    // too the record holds what every link logged, and the observer
    // transcribes what link 1 logged.
    let base = bundled_matrix(Scale::Smoke)
        .into_iter()
        .find(|s| s.name == "steady_state")
        .expect("bundled scenario");
    for strategy in AdversaryStrategy::ALL {
        let case = soak_case(base.clone(), strategy);
        let (report, _, traffic) = run_tampered(case.scenario, strategy.build_tap());
        let want = render_tap_lines(1, &traffic[1]);
        assert_eq!(tap_lines(&report), want, "{}", report.name);
    }
}

#[test]
fn soak_cases_match_their_annotations() {
    // Spot-check the pinned survive/trip table across its corner
    // cases: the honest baseline, a per-round strategy, the
    // dialing-round replay (round 12 lands on a dialing round in
    // dial_storm), and the small-population delay that only replies
    // catch. `sim_soak` grades the full crossed matrix in CI.
    use vuvuzela_sim::run_soak_case;

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
    use vuvuzela_sim::{run_soak_case, run_soak_case_over_wire};

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
    use std::thread::{self, ThreadId};
    use vuvuzela_net::{Slots, TapContext};

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
fn cover_crowd_is_deterministic_and_invariant_checked() {
    // A crowd of joined idle clients provides cover alongside a
    // conversing pair: same determinism contract, invariants hold with
    // the crowd folded into every round's participant totals.
    let mut s = Scenario::new("crowd_cover", 0x0707);
    s.steps.push(Step::Join(8));
    s.steps.push(Step::Join(24)); // the crowd
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
    s.steps.push(Step::Join(8)); // the crowd grows mid-scenario
    s.steps.push(Step::Run(vec![
        RoundPlan::Conversation,
        RoundPlan::Conversation,
        RoundPlan::Dialing,
    ]));
    let a = run_scenario(&s).expect("crowd scenario passes invariants");
    let b = run_scenario_over_wire(&s).expect("the wire twin");
    assert_eq!(a.twin_mismatch(&b), None, "the wire twin differs");
    assert_eq!(a.hash, b.hash);
    assert_eq!(a.view, b.view, "and so must the adversary's view");
    assert_eq!(a.delivered, 1, "the individual pair's message arrives");
    let lines = a.transcript.lines();
    assert!(
        lines.iter().any(|l| l == "event join clients 8..32"),
        "crowd join transcribed"
    );
    assert!(
        lines.iter().any(|l| l == "event join clients 32..40"),
        "crowd growth transcribed"
    );
    // 32 crowd + 8 individual clients in the post-growth rounds.
    let rounds = &a.view.rounds;
    assert!(
        rounds.iter().any(|r| matches!(
            r,
            RoundView::Conversation {
                participants: 40,
                ..
            }
        )),
        "conversation totals include the crowd"
    );
    assert!(
        rounds.iter().any(|r| matches!(
            r,
            RoundView::Dialing {
                participants: 40,
                ..
            }
        )),
        "dialing totals include the crowd"
    );
}

#[test]
fn crowd_pair_converses_beside_the_dialed_pair() {
    // Two crowd members paired directly (no dialing round) ride the
    // same conversation rounds as a pair that dialed, and their
    // deliveries are transcribed like the dialed pair's.

    let mut sim = Simulator::new(Scenario::new("crowd_talk", 0x9090));
    sim.step(Step::Join(6)).expect("join");
    sim.step(Step::Join(16)).expect("the crowd, members 6..22");
    let clients = sim.clients_mut();
    let pk8 = clients.public_key(8);
    let pk15 = clients.public_key(15);
    clients.pair(8, 15).expect("pair");
    clients
        .queue_message(8, &pk15, b"crowd to crowd")
        .expect("queue");
    clients
        .queue_message(15, &pk8, b"crowd right back")
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
        body: b"dialed pair".to_vec(),
    })
    .expect("queue");
    sim.step(Step::Run(vec![
        RoundPlan::Conversation,
        RoundPlan::Conversation,
    ]))
    .expect("run");

    let clients = sim.clients();
    assert_eq!(clients.len(), 22);
    assert_eq!(clients.mutual_pairs(), 2);
    assert_eq!(
        clients.delivered_from(15, &pk8),
        vec![b"crowd to crowd".to_vec()]
    );
    assert_eq!(
        clients.delivered_from(8, &pk15),
        vec![b"crowd right back".to_vec()]
    );
    let pk0 = clients.public_key(0);
    assert_eq!(
        clients.delivered_from(1, &pk0),
        vec![b"dialed pair".to_vec()]
    );
    let report = sim.run().expect("both pairs pass");
    assert_eq!(report.delivered, 3);
    let round_of = |body: &[u8]| {
        let line = delivered_line(&report, body).expect("transcribed");
        line.split(' ')
            .nth(2)
            .expect("delivered round <r> …")
            .to_string()
    };
    let round = round_of(b"dialed pair");
    assert_eq!(round_of(b"crowd to crowd"), round);
    assert_eq!(round_of(b"crowd right back"), round);
}

#[test]
fn a_conversation_restarted_with_the_same_peer_transcribes_its_messages() {
    // Clients 0 and 1 talk, both hang up, and 0 dials 1 again: the new
    // conversation's messages are transcribed and counted like the first
    // one's, also when the first delivered more than the second.

    fn talk(sim: &mut Simulator, bodies: &[&str]) {
        sim.step(Step::Dial {
            caller: 0,
            callee: 1,
        })
        .expect("dial");
        sim.step(Step::Run(vec![RoundPlan::Dialing]))
            .expect("dialing round");
        sim.step(Step::AcceptAll).expect("accept");
        for body in bodies {
            sim.step(Step::Queue {
                from: 0,
                to: 1,
                body: body.as_bytes().to_vec(),
            })
            .expect("queue");
        }
        sim.step(Step::Run(vec![RoundPlan::Conversation; bodies.len()]))
            .expect("conversation rounds");
    }

    for (first, second) in [(&["first"][..], &["second"][..]), (&["a", "b"], &["c"])] {
        let mut sim = Simulator::new(Scenario::new("restart", 0x5E5E));
        sim.step(Step::Join(2)).expect("join");
        talk(&mut sim, first);
        let (pk0, pk1) = (sim.clients().public_key(0), sim.clients().public_key(1));
        let clients = sim.clients_mut();
        clients.end_conversation(0, &pk1).expect("0 talks to 1");
        clients.end_conversation(1, &pk0).expect("1 talks to 0");
        talk(&mut sim, second);
        let bodies: Vec<Vec<u8>> = second.iter().map(|b| b.as_bytes().to_vec()).collect();
        assert_eq!(sim.clients().all_delivered(1), bodies);

        let report = sim.run().expect("both conversations pass");
        assert_eq!(report.delivered, (first.len() + second.len()) as u64);
        for body in first.iter().chain(second) {
            assert!(
                delivered_line(&report, body.as_bytes()).is_some(),
                "{body:?} is transcribed"
            );
        }
    }
}
