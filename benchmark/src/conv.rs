//! The two cohort workloads, `conv_cover` and `conv_clients`: a live
//! `ClientCohort` of paired clients talking through the sequential
//! `Chain`, one driver thread, closed loop — build, `run_round`, ingest,
//! then the next round.
//!
//! They run the same code with opposite shapes. `conv_cover` has few
//! clients under much cover traffic on one worker; `conv_clients` has many
//! clients, almost no noise and two workers. A change that helps one shape
//! at the other's cost shows in the pair.

use crate::hand::{span, HandChain, StageCosts};
use crate::ledger::{self, Traced, Values};
use crate::probes::{self, Effort};
use crate::report::{Measured, Report};
use crate::stats::{peak_rss_mib, process_cpu_seconds};
use crate::sut::{
    self, Batch, Chain, ClientCohort, NoiseDistribution, PublicKey, RoundKind, RoundSpec,
    SystemConfig,
};
use crate::trace::Tracer;
use serde_json::json;
use std::time::{Duration, Instant};

/// The size of a cohort workload.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Paired clients in the cohort (even).
    pub clients: usize,
    /// Conversation noise per noising server.
    pub noise: NoiseDistribution,
    /// Worker threads per server and for the cohort.
    pub workers: usize,
}

/// Rounds run and discarded before the measured window.
const WARMUP_ROUNDS: u64 = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Rounds the traced run drives by hand.
const TRACED_ROUNDS: usize = 5;
/// `link_bytes_per_onion` is counted over this many measured rounds, so it
/// is an exact function of the seed however many rounds the window fits.
const LINK_ROUNDS: u64 = 16;
/// Rounds without fresh messages a conversation needs to deliver and
/// acknowledge what is queued.
const DRAIN_ROUNDS: u64 = 2;

impl Sizes {
    /// `conv_cover`: µ = 1500 on 600 clients, cover about five times the
    /// real traffic per noising server — the paper's small-scale regime.
    ///
    /// The Laplace scale b is µ/64 in every workload, a third of the
    /// paper's 13,800/300,000: b only spreads the noise counts, and at the
    /// paper's ratio the work in a run differed by 2% from seed to seed,
    /// which is run-to-run spread a benchmark can do without.
    pub const COVER: Sizes = Sizes {
        clients: 600,
        noise: NoiseDistribution {
            mu: 1500.0,
            b: 1500.0 / 64.0,
        },
        workers: 1,
    };
    /// `conv_clients`: 6000 clients, µ = 50.
    pub const CLIENTS: Sizes = Sizes {
        clients: 6000,
        noise: NoiseDistribution {
            mu: 50.0,
            b: 50.0 / 64.0,
        },
        workers: 2,
    };

    /// The same shape at a hundredth of the size, for the harness's tests.
    #[must_use]
    pub fn quick(self) -> Sizes {
        Sizes {
            clients: (self.clients / 100).max(2) & !1,
            noise: NoiseDistribution::new(self.noise.mu / 100.0, self.noise.b / 100.0 + 0.1),
            workers: self.workers,
        }
    }

    fn config(&self) -> SystemConfig {
        // The cohort never dials; the dialing noise is never drawn.
        sut::system_config(self.noise, self.noise, self.workers)
    }
}

/// A chain and its cohort, warmed up.
struct Deployment {
    seed: u64,
    chain: Chain,
    cohort: ClientCohort,
    publics: Vec<PublicKey>,
    next_round: u64,
    /// Messages queued so far by every client.
    queued: u64,
}

/// What client `client` says in its `k`-th message.
fn message_body(seed: u64, client: usize, k: u64) -> Vec<u8> {
    format!("seed {seed} client {client} message {k}").into_bytes()
}

impl Deployment {
    /// Keys, DH tables, cohort join and pairing, warm-up rounds.
    fn setup(sizes: &Sizes, seed: u64) -> Deployment {
        let config = sizes.config();
        let chain = Chain::new(config.clone(), seed);
        let pks = chain.server_public_keys();
        let mut cohort = ClientCohort::with_own_tables(config, seed, &pks);
        cohort.join(sizes.clients);
        for a in (0..sizes.clients).step_by(2) {
            cohort.pair(a, a + 1).expect("every client has a free slot");
        }
        let publics = (0..sizes.clients).map(|i| cohort.public_key(i)).collect();
        let mut deployment = Deployment {
            seed,
            chain,
            cohort,
            publics,
            next_round: 0,
            queued: 0,
        };
        for _ in 0..WARMUP_ROUNDS {
            deployment.queue_messages();
            deployment.wholesale_round();
        }
        deployment
    }

    fn clients(&self) -> usize {
        self.publics.len()
    }

    /// Every client queues its next message for its partner.
    fn queue_messages(&mut self) {
        for client in 0..self.clients() {
            let body = message_body(self.seed, client, self.queued);
            self.cohort
                .queue_message(client, &self.publics[client ^ 1], &body)
                .expect("paired clients converse");
        }
        self.queued += 1;
    }

    /// One round through the runtime wholesale: build, `run_round`, ingest.
    /// Returns the round's latency (batch admitted to replies returned)
    /// and the replies.
    fn wholesale_round(&mut self) -> (Duration, Vec<Vec<u8>>) {
        let round = self.next_round;
        self.next_round += 1;
        let batch = Batch::Flat(self.cohort.build_conversation_round(round));
        let admitted = Instant::now();
        let outcome = self
            .chain
            .run_round(RoundSpec::Conversation { round, batch });
        let latency = admitted.elapsed();
        let replies = outcome.replies().expect("a conversation round").to_vec();
        self.cohort.handle_conversation_replies(round, &replies);
        (latency, replies)
    }

    /// Messages that were queued but not delivered exactly once, in order.
    fn undelivered(&self) -> u64 {
        let mut missing = 0;
        for client in 0..self.clients() {
            let peer = client ^ 1;
            let delivered = self.cohort.delivered_from(client, &self.publics[peer]);
            let expected = (0..self.queued).map(|k| message_body(self.seed, peer, k));
            let matching = delivered
                .iter()
                .zip(expected)
                .take_while(|(got, want)| *got == want)
                .count() as u64;
            // Missing messages, and anything delivered beyond or besides
            // what was sent.
            missing += self.queued - matching + (delivered.len() as u64).saturating_sub(matching);
        }
        missing
    }
}

/// The untraced run: end-to-end metrics.
#[must_use]
pub fn run(sizes: &Sizes, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut deployment = None;
    for _ in 0..SETUP_REPEATS {
        drop(deployment.take());
        let start = Instant::now();
        deployment = Some(Deployment::setup(sizes, seed));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut deployment = deployment.expect("set up at least once");

    let clients = deployment.clients() as u64;
    let bytes_at_start = sut::link_bytes(&deployment.chain);
    let mut link_bytes = None;
    let mut latencies = Vec::new();
    let mut round_walls = Vec::new();
    let mut rounds = 0u64;
    let mut since_queue = 0u64;
    let mut short_rounds = 0u64;
    let cpu_at_start = process_cpu_seconds();
    let window = Instant::now();
    // Fresh messages for the first half of the window; then conversations
    // drain, so that by the end every queued message must have arrived.
    while window.elapsed().as_secs_f64() < seconds || since_queue < DRAIN_ROUNDS {
        if window.elapsed().as_secs_f64() < seconds / 2.0 {
            deployment.queue_messages();
            since_queue = 0;
        } else {
            since_queue += 1;
        }
        let round_start = Instant::now();
        let (latency, replies) = deployment.wholesale_round();
        round_walls.push(round_start.elapsed().as_secs_f64());
        latencies.push(latency.as_secs_f64());
        short_rounds += u64::from(replies.len() as u64 != clients);
        rounds += 1;
        if rounds == LINK_ROUNDS {
            link_bytes = Some((sut::link_bytes(&deployment.chain), rounds));
        }
    }
    let wall = window.elapsed().as_secs_f64();
    let cpu = process_cpu_seconds() - cpu_at_start;
    let peak_rss = peak_rss_mib();

    let (bytes_now, byte_rounds) =
        link_bytes.unwrap_or_else(|| (sut::link_bytes(&deployment.chain), rounds));
    let moved: u64 = bytes_now
        .iter()
        .zip(bytes_at_start)
        .map(|(now, start)| now - start)
        .sum();

    report.attempted = clients * rounds;
    let undelivered = deployment.undelivered();
    report.check(undelivered == 0, || {
        format!("{undelivered} queued messages were not delivered exactly once")
    });
    report.check(short_rounds == 0, || {
        format!("{short_rounds} rounds returned a reply count other than {clients}")
    });
    report.failed = undelivered + short_rounds * clients;

    report.set_end_to_end(&Measured {
        setups_s: &setups,
        latencies_s: &latencies,
        wall_s: wall,
        cpu_s: cpu,
        link_bytes_per_onion: moved as f64 / (clients * byte_rounds) as f64,
        peak_rss_mib: peak_rss,
    });
    report.notes.insert(
        "driver.messages_delivered".into(),
        json!(deployment.queued * clients - undelivered),
    );
    report
        .notes
        .insert("driver.round_wall_s".into(), json!(round_walls));
    report
}

/// The traced run: per-layer metrics, and the check that the hand-driven
/// round is the same program as the wholesale one. Returns the spans too.
///
/// # Errors
///
/// Loopback socket failures in the probes.
pub fn trace(sizes: &Sizes, seed: u64, quick: bool) -> Result<(Report, Tracer), String> {
    let mut report = Report::default();
    let mut values: Values = probes::run(if quick { Effort::QUICK } else { Effort::FULL })?
        .into_iter()
        .collect();

    // Two identical deployments: one keeps calling the runtime wholesale,
    // the other's cohort talks through servers driven by hand.
    let mut wholesale = Deployment::setup(sizes, seed);
    let mut traced = Deployment::setup(sizes, seed);
    let mut hand = HandChain::new(&sizes.config(), seed);
    let mut tracer = Tracer::new();
    let mut stages: Vec<[StageCosts; 3]> = Vec::with_capacity(TRACED_ROUNDS);
    let bytes_at_start = sut::link_bytes(&wholesale.chain);
    let (mut wholesale_s, mut wholesale_cpu_s) = (0.0, 0.0);

    for traced_round in 0..TRACED_ROUNDS {
        // Alternate which deployment goes first, so neither always runs
        // on the caches the other left.
        let mut run_wholesale = |wholesale: &mut Deployment| {
            wholesale.queue_messages();
            let cpu = process_cpu_seconds();
            let start = Instant::now();
            let (_, replies) = wholesale.wholesale_round();
            wholesale_s += start.elapsed().as_secs_f64();
            wholesale_cpu_s += process_cpu_seconds() - cpu;
            replies
        };
        let wholesale_first = traced_round % 2 == 0;
        let expected = wholesale_first.then(|| run_wholesale(&mut wholesale));

        traced.queue_messages();
        let round = traced.next_round;
        traced.next_round += 1;
        let whole = tracer.enter(span::ROUND, round);
        let build = tracer.enter(span::BUILD, round);
        let batch = traced.cohort.build_conversation_round(round);
        tracer.exit(build);
        let outcome = hand.round(&mut tracer, None, round, RoundKind::Conversation, batch);
        let replies = outcome.replies.as_deref().expect("a conversation round");
        let ingest = tracer.enter(span::INGEST, round);
        traced.cohort.handle_conversation_replies(round, replies);
        tracer.exit(ingest);
        tracer.exit(whole);

        let expected = expected.unwrap_or_else(|| run_wholesale(&mut wholesale));
        report.check(replies == expected.as_slice(), || {
            format!("round {round}: hand-driven replies differ from the wholesale run's")
        });
        stages.push(hand.stage_probes(round, RoundKind::Conversation, &outcome));
    }

    let clients = wholesale.clients();
    let bytes_now = sut::link_bytes(&wholesale.chain);
    let mut link_bytes = [0u64; 4];
    for (moved, (now, start)) in link_bytes
        .iter_mut()
        .zip(bytes_now.iter().zip(bytes_at_start))
    {
        *moved = now - start;
    }
    report.attempted = (clients * TRACED_ROUNDS) as u64;
    ledger::fill(
        &mut values,
        &Traced {
            tracer: &tracer,
            rounds: TRACED_ROUNDS,
            requests: clients * TRACED_ROUNDS,
            stages: &stages,
            clients_wrap_in_round: true,
            link_bytes,
            wholesale_round_s: wholesale_s / TRACED_ROUNDS as f64,
            wholesale_cpu_s: wholesale_cpu_s / TRACED_ROUNDS as f64,
        },
    );
    if sizes.workers == 1 && !quick {
        // One worker: the round is one thread after another, so the
        // layers must add up to it, or the traced run does not count.
        let residual = values["ledger.unexplained_residual"];
        report.check(residual.abs() <= 0.10, || {
            format!("ledger.unexplained_residual is {residual:.3}, beyond 0.10")
        });
    }
    report.metrics = ledger::in_declared_order(&values);
    Ok((report, tracer))
}
