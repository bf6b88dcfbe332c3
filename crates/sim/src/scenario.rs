//! Scenario scripts: the deployment shape plus an ordered step list.
//!
//! See the crate docs for the script format and the determinism
//! contract. [`bundled_matrix`] holds the repository's standard
//! scenario set — the matrix CI runs (at [`Scale::Smoke`]) and the
//! integration tests assert invariants over.

/// One protocol round inside a [`Step::Run`] schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundPlan {
    /// A conversation round: every online client submits one exchange
    /// per slot; replies come back.
    Conversation,
    /// A dialing round: every online client submits one invitation
    /// (real if one is queued, else a no-op write); forward-only.
    Dialing,
}

/// One scripted deployment event.
#[derive(Clone, Debug)]
pub enum Step {
    /// Add this many fresh clients, online, with deterministic keys.
    /// A joined client with no conversation is cover: each round its
    /// idle slots make fake exchanges, which look like real ones on the
    /// wire (§3), so a crowd is a `Join` of clients the script leaves
    /// idle.
    Join(usize),
    /// Connect (`true`) or disconnect (`false`) a client. Offline
    /// clients send nothing — the observable event of §4.2.
    SetOnline(usize, bool),
    /// Permanently remove a client: it goes offline and never returns
    /// (its conversations starve and its partners' messages keep
    /// retransmitting into singles).
    Leave(usize),
    /// `caller` queues an invitation to `callee` for the next dialing
    /// round and pre-enters the conversation (§3).
    Dial {
        /// Index of the dialing client.
        caller: usize,
        /// Index of the client being dialed.
        callee: usize,
    },
    /// Every client accepts every invitation it has scanned, as far as
    /// its conversation slots allow.
    AcceptAll,
    /// Queue a message between two clients with an active conversation.
    Queue {
        /// Sender index.
        from: usize,
        /// Recipient index.
        to: usize,
        /// Message body (≤ the fixed per-round capacity).
        body: Vec<u8>,
    },
    /// Run one schedule: all listed rounds go through a single
    /// `Chain::run` call and overlap in flight.
    Run(Vec<RoundPlan>),
    /// Mark chain link `link` (0 = entry→server 0) as observed: after
    /// every completed schedule the simulator sums the link's batches
    /// from the round record, checks that each has the exact expected
    /// width and count, and transcribes them. Takes no tap slot, so the
    /// link may also carry a tampering tap; the record counts each batch
    /// before it enters the link, so before the tap runs.
    Observe {
        /// Chain-link index to observe.
        link: usize,
    },
    /// Attach a stall tap to chain link `link`: every forward transfer
    /// sleeps `millis`, modelling a slow server. In process that costs
    /// wall time only — the schedule's interleaving comes from the chain
    /// seed, not the clock — and it must not change any round's bytes
    /// (the slowdown scenario's twin-run test pins this).
    StallLink {
        /// Chain-link index to stall.
        link: usize,
        /// Stall per forward transfer, in milliseconds.
        millis: u64,
    },
    /// Arm a crash fault: the `round_offset`-th round of the *next*
    /// [`Step::Run`] hangs up chain link `link` under its forward
    /// batch, as a dead server process would, aborting that whole
    /// schedule (see the crate docs' round-abort semantics).
    CrashLink {
        /// Chain-link index the fault fires on.
        link: usize,
        /// Which round of the next schedule triggers it (0-based).
        round_offset: u64,
    },
}

/// A complete scenario script.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (used in the transcript header and artefact names).
    pub name: String,
    /// Master seed for keys, noise, shuffles and client RNG.
    pub seed: u64,
    /// Mix-chain length.
    pub servers: usize,
    /// Worker threads per server.
    pub workers: usize,
    /// Conversation noise mean µ per noising server; deterministic
    /// mode. The scale is derived as `b = max(µ/20, 0.5)` — the paper's
    /// ratio, clamped so tiny test-scale µ keeps a valid Laplace scale
    /// (at the bundled µ = 6 the clamp binds: b = 0.5, per-round
    /// ε = 4/b = 8).
    pub conversation_mu: f64,
    /// Dialing noise mean µ per server per drop; scale
    /// `b = max(µ/10, 0.5)`, clamped like the conversation scale.
    pub dialing_mu: f64,
    /// Explicit conversation noise scale b, overriding the derived
    /// `max(µ/20, 0.5)`. The attack matrix needs µ and b decoupled:
    /// a meaningful composed budget wants a large b (ε = 4/b) while µ
    /// only has to clear `b·ln(1/(2δ))` for a small δ — the derived
    /// ratio would force µ 5–15× higher than necessary.
    pub conversation_b: Option<f64>,
    /// Explicit dialing noise scale b, overriding `max(µ/10, 0.5)`.
    pub dialing_b: Option<f64>,
    /// When set, the privacy ledger charges with *these* noise
    /// parameters instead of the deployed ones — modelling a broken
    /// deployment that advertises a budget its servers do not draw
    /// enough noise to honour. The transcript records both lines, and
    /// the attack harness's undersized-µ negative control relies on
    /// the detector *beating* the claimed bound.
    pub ledger_noise: Option<LedgerNoise>,
    /// Real invitation drops per dialing round (§5.4's m).
    pub num_drops: u32,
    /// Conversation slots per client.
    pub slots: usize,
    /// Rounds before an unacked message retransmits.
    pub retransmit_after: u64,
    /// Dead-drop shards at the last server. The transcript is
    /// byte-identical for every value (the sharded exchange merges
    /// deterministically) — the knob only controls tail-stage
    /// parallelism, and the scenario tests pin the invariance.
    pub exchange_shards: usize,
    /// How servers turn (µ, b) into concrete noise counts.
    /// [`vuvuzela_dp::NoiseMode::Deterministic`] (the default) emits
    /// exactly ⌈µ⌉ per draw and the invariant checker uses exact
    /// equalities; [`vuvuzela_dp::NoiseMode::Sampled`] draws the real
    /// truncated Laplace (production behaviour) and the checker switches
    /// to distributional bounds — per-draw tail windows plus end-of-run
    /// concentration of the empirical mean. Soak runs
    /// ([`crate::soak`]) use `Sampled`.
    pub noise_mode: vuvuzela_dp::NoiseMode,
    /// The script.
    pub steps: Vec<Step>,
}

/// The noise parameters a mis-deployment *claims* in its privacy
/// ledger (see [`Scenario::ledger_noise`]).
#[derive(Clone, Copy, Debug)]
pub struct LedgerNoise {
    /// Claimed conversation noise distribution.
    pub conversation: vuvuzela_dp::NoiseDistribution,
    /// Claimed dialing noise distribution.
    pub dialing: vuvuzela_dp::NoiseDistribution,
}

impl Scenario {
    /// A scenario skeleton with the defaults the bundled matrix uses:
    /// 3 servers, 2 workers, µ = 6 conversation / 3 dialing noise, one
    /// drop, one slot, retransmit after 2 rounds.
    #[must_use]
    pub fn new(name: &str, seed: u64) -> Scenario {
        Scenario {
            name: name.to_string(),
            seed,
            servers: 3,
            workers: 2,
            conversation_mu: 6.0,
            dialing_mu: 3.0,
            conversation_b: None,
            dialing_b: None,
            ledger_noise: None,
            num_drops: 1,
            slots: 1,
            retransmit_after: 2,
            exchange_shards: 4,
            noise_mode: vuvuzela_dp::NoiseMode::Deterministic,
            steps: Vec::new(),
        }
    }
}

/// How big the bundled matrix runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced scale for tests and CI: tens of clients, dial-storm µ
    /// scaled down 100× (130 per drop). Seconds per scenario.
    Smoke,
    /// Deployment scale: hundreds-to-thousands of clients and the
    /// paper's µ = 13,000 noise invitations per drop in the dial storm
    /// (§5.3/§8.1). Minutes of CPU; run via `sim_matrix --full`.
    Full,
}

/// The repository's bundled scenario matrix: ≥ 6 deployment dynamics,
/// each run on `Chain`'s seeded windowed schedule on the calling thread,
/// every one invariant-checked per round and transcript-hash-stable per
/// seed.
#[must_use]
pub fn bundled_matrix(scale: Scale) -> Vec<Scenario> {
    let population = match scale {
        Scale::Smoke => 48,
        Scale::Full => 1000,
    };
    let storm_clients = match scale {
        Scale::Smoke => 32,
        Scale::Full => 400,
    };
    let storm_mu = match scale {
        Scale::Smoke => 130.0,
        Scale::Full => 13_000.0,
    };
    vec![
        steady_state(population),
        churn_rejoin(),
        dial_storm(storm_clients, storm_mu),
        idle_cover(),
        server_slowdown(),
        server_fault(),
        redial_after_miss(),
    ]
}

/// Steady state at population scale: a handful of pairs converse, the
/// rest provide idle cover, conversation and dialing rounds interleave
/// in one pipeline, and a passive tap watches a mid-chain link.
fn steady_state(population: usize) -> Scenario {
    let mut s = Scenario::new("steady_state", 0xA11CE);
    s.steps.push(Step::Join(population));
    s.steps.push(Step::Observe { link: 1 });
    // Five pairs dial: clients (0,1), (2,3), ... (8,9).
    for pair in 0..5 {
        s.steps.push(Step::Dial {
            caller: 2 * pair,
            callee: 2 * pair + 1,
        });
    }
    s.steps.push(Step::Run(vec![RoundPlan::Dialing]));
    s.steps.push(Step::AcceptAll);
    for pair in 0..5u8 {
        s.steps.push(Step::Queue {
            from: 2 * pair as usize,
            to: 2 * pair as usize + 1,
            body: format!("hello from pair {pair}").into_bytes(),
        });
    }
    // Mixed schedule: conversation rounds with a dialing round wedged in.
    s.steps.push(Step::Run(vec![
        RoundPlan::Conversation,
        RoundPlan::Conversation,
        RoundPlan::Dialing,
        RoundPlan::Conversation,
    ]));
    // Replies flow the other way.
    for pair in 0..5u8 {
        s.steps.push(Step::Queue {
            from: 2 * pair as usize + 1,
            to: 2 * pair as usize,
            body: format!("ack from pair {pair}").into_bytes(),
        });
    }
    s.steps.push(Step::Run(vec![
        RoundPlan::Conversation,
        RoundPlan::Conversation,
    ]));
    s
}

/// Churn: a partner drops offline mid-conversation (retransmission
/// carries the message when it returns), new clients join mid-run and
/// start talking, and one client leaves for good.
fn churn_rejoin() -> Scenario {
    let mut s = Scenario::new("churn_rejoin", 0xC4_0A1);
    s.steps.push(Step::Join(16));
    s.steps.push(Step::Dial {
        caller: 0,
        callee: 1,
    });
    s.steps.push(Step::Dial {
        caller: 2,
        callee: 3,
    });
    s.steps.push(Step::Run(vec![RoundPlan::Dialing]));
    s.steps.push(Step::AcceptAll);
    s.steps.push(Step::Queue {
        from: 0,
        to: 1,
        body: b"sent while you were away".to_vec(),
    });
    // Client 1 misses the round carrying the message...
    s.steps.push(Step::SetOnline(1, false));
    s.steps.push(Step::Run(vec![
        RoundPlan::Conversation,
        RoundPlan::Conversation,
    ]));
    // ...rejoins, and the retransmit timer re-carries it; meanwhile two
    // new clients join and dial each other, and client 3 leaves forever.
    s.steps.push(Step::SetOnline(1, true));
    s.steps.push(Step::Join(2));
    s.steps.push(Step::Leave(3));
    s.steps.push(Step::Dial {
        caller: 16,
        callee: 17,
    });
    s.steps.push(Step::Queue {
        from: 2,
        to: 3,
        body: b"talking to a ghost".to_vec(),
    });
    s.steps.push(Step::Run(vec![
        RoundPlan::Conversation,
        RoundPlan::Dialing,
        RoundPlan::Conversation,
        RoundPlan::Conversation,
    ]));
    s.steps.push(Step::AcceptAll);
    s.steps.push(Step::Queue {
        from: 16,
        to: 17,
        body: b"late joiners talk too".to_vec(),
    });
    s.steps.push(Step::Run(vec![
        RoundPlan::Conversation,
        RoundPlan::Conversation,
    ]));
    s
}

/// A dial storm: every client dials at once, against the paper's per-
/// drop noise level (µ = 13,000 at full scale, §8.1 — smoke runs it
/// 100× reduced), across multiple invitation drops.
fn dial_storm(clients: usize, mu: f64) -> Scenario {
    let mut s = Scenario::new("dial_storm", 0xD1A7);
    s.dialing_mu = mu;
    s.num_drops = 2;
    s.steps.push(Step::Join(clients));
    // Everyone dials at once — both directions of every pair, so every
    // single client sends a *real* invitation in the same round.
    for pair in 0..clients / 2 {
        s.steps.push(Step::Dial {
            caller: 2 * pair,
            callee: 2 * pair + 1,
        });
        s.steps.push(Step::Dial {
            caller: 2 * pair + 1,
            callee: 2 * pair,
        });
    }
    s.steps.push(Step::Run(vec![RoundPlan::Dialing]));
    s.steps.push(Step::AcceptAll);
    s.steps.push(Step::Queue {
        from: 0,
        to: 1,
        body: b"storm survivor".to_vec(),
    });
    s.steps.push(Step::Run(vec![RoundPlan::Conversation]));
    s
}

/// Nobody talks: every round is pure cover traffic, and the dead-drop
/// histogram must decompose into exactly the noise recipe plus one
/// single per idle client.
fn idle_cover() -> Scenario {
    let mut s = Scenario::new("idle_cover", 0x1D7E);
    s.steps.push(Step::Join(20));
    s.steps.push(Step::Observe { link: 2 });
    s.steps.push(Step::Run(vec![
        RoundPlan::Conversation,
        RoundPlan::Conversation,
        RoundPlan::Dialing,
        RoundPlan::Conversation,
    ]));
    s
}

/// A server stalls 3 ms per forward hop mid-chain while a mixed
/// schedule passes it. Timing changes; bytes must not — the
/// integration tests run the stall-free twin and assert identical
/// round records.
fn server_slowdown() -> Scenario {
    let mut s = Scenario::new("server_slowdown", 0x510E);
    s.steps.push(Step::Join(16));
    s.steps.push(Step::StallLink { link: 1, millis: 3 });
    s.steps.push(Step::Dial {
        caller: 4,
        callee: 5,
    });
    s.steps.push(Step::Run(vec![RoundPlan::Dialing]));
    s.steps.push(Step::AcceptAll);
    s.steps.push(Step::Queue {
        from: 4,
        to: 5,
        body: b"through the slow hop".to_vec(),
    });
    s.steps.push(Step::Run(vec![
        RoundPlan::Conversation,
        RoundPlan::Dialing,
        RoundPlan::Conversation,
        RoundPlan::Conversation,
    ]));
    s
}

/// A server aborts mid-schedule: the second round of a three-round
/// schedule kills a server node, the whole schedule aborts, and the
/// deployment recovers — the queued message arrives via retransmission
/// in the next schedule.
fn server_fault() -> Scenario {
    let mut s = Scenario::new("server_fault", 0xFA017);
    s.steps.push(Step::Join(12));
    s.steps.push(Step::Dial {
        caller: 0,
        callee: 1,
    });
    s.steps.push(Step::Run(vec![RoundPlan::Dialing]));
    s.steps.push(Step::AcceptAll);
    s.steps.push(Step::Queue {
        from: 0,
        to: 1,
        body: b"survives the crash".to_vec(),
    });
    s.steps.push(Step::CrashLink {
        link: 1,
        round_offset: 1,
    });
    // This whole schedule aborts (round-abort semantics).
    s.steps.push(Step::Run(vec![
        RoundPlan::Conversation,
        RoundPlan::Conversation,
        RoundPlan::Conversation,
    ]));
    // Recovery: fresh rounds; the client retransmits and delivers.
    s.steps.push(Step::Run(vec![
        RoundPlan::Conversation,
        RoundPlan::Conversation,
        RoundPlan::Conversation,
    ]));
    s
}

/// An invitation is missed because the callee is offline for the
/// dialing round and the next dialing round overwrites the drops; the
/// caller re-dials and the second invitation lands.
fn redial_after_miss() -> Scenario {
    let mut s = Scenario::new("redial_after_miss", 0x2ED1A1);
    s.steps.push(Step::Join(10));
    s.steps.push(Step::Dial {
        caller: 0,
        callee: 1,
    });
    // Callee offline: it cannot download this round's drop...
    s.steps.push(Step::SetOnline(1, false));
    s.steps.push(Step::Run(vec![RoundPlan::Dialing]));
    // ...and a second dialing round (while still offline) overwrites it.
    s.steps.push(Step::Run(vec![RoundPlan::Dialing]));
    s.steps.push(Step::SetOnline(1, true));
    // Back online, but the invitation is gone: re-dial.
    s.steps.push(Step::Dial {
        caller: 0,
        callee: 1,
    });
    s.steps.push(Step::Run(vec![RoundPlan::Dialing]));
    s.steps.push(Step::AcceptAll);
    s.steps.push(Step::Queue {
        from: 0,
        to: 1,
        body: b"second dial worked".to_vec(),
    });
    s.steps.push(Step::Run(vec![
        RoundPlan::Conversation,
        RoundPlan::Conversation,
    ]));
    s
}
