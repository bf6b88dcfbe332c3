//! The two windowed workloads, `mixed_stream` and `wire_window`.
//!
//! Both run the *identical* generated schedule — cycles of two
//! conversation rounds and one dialing round, batches a pure function of
//! `(seed, round)` — with three rounds' worth of slots in flight, priced
//! by `engine::admission_weights`:
//!
//! * `mixed_stream` through `StreamingChain::run_mixed_schedule`, one
//!   stage thread per server in this process;
//! * `wire_window` through an entry and three server nodes
//!   (`deploy::serve_entry` / `deploy::serve_server`, one thread each)
//!   joined by TCP connections over 127.0.0.1, driven through one client
//!   connection.
//!
//! They are twins: what differs between their numbers is the cost of
//! frames, sockets, demultiplexing and the node loops, and nothing else.
//! The schedule is fed in blocks; batches are generated between blocks,
//! outside the timed sections (they are "prebuilt"), and every block's
//! outcomes are checked before the next one starts.

use crate::gen::{self, Kept, RoundInput, Shape, CYCLE};
use crate::hand::{span, HandChain, StageCosts};
use crate::ledger::{self, Traced, Values};
use crate::probes::{self, Effort, FarEnd, Loopback};
use crate::report::{Measured, Report};
use crate::stats::{peak_rss_mib, process_cpu_seconds};
use crate::sut::{
    self, AdmissionWindow, Chain, ConversationObservables, DeploymentConfig, DialingObservables,
    Frame, InvitationDropIndex, LinkId, NodeStats, NoiseDistribution, PrecomputedServer,
    RoundBuffer, RoundKind, RoundOutcome, RoundTiming, RoundTrailer, SealedInvitation,
    StreamingChain, SystemConfig, TcpTransport, Transport, CHAIN_LEN,
};
use crate::trace::Tracer;
use serde_json::json;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Which runtime carries the schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Runtime {
    /// `StreamingChain`, in process.
    Stream,
    /// Entry and server nodes over loopback TCP.
    Wire,
}

/// The size of the windowed workloads (one size: they are twins).
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Batch shapes.
    pub shape: Shape,
    /// Conversation noise per noising server.
    pub conversation_noise: NoiseDistribution,
    /// Dialing noise per server per drop.
    pub dialing_noise: NoiseDistribution,
    /// Cycles fed per block.
    pub block_cycles: u64,
    /// Cycles of the first block replayed on the sequential `Chain`.
    pub replay_cycles: u64,
}

/// Slots in flight: the chain length, at which every server can be busy.
const WINDOW: usize = CHAIN_LEN;
/// One warm-up cycle, so both round kinds have run before measuring.
const WARMUP_ROUNDS: u64 = CYCLE;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Cycles the traced run sends through each runtime (at most a block).
const TRACE_CYCLES: u64 = 4;
/// Of those, cycles driven by hand under spans.
const HAND_CYCLES: u64 = 2;

impl Sizes {
    /// Conversation rounds of 200 onions at µ = 800, dialing rounds of 200
    /// users (5% really dialing) into 2 drops at µ = 600 per drop; b = µ/64
    /// (see `conv::Sizes::COVER`).
    pub const FULL: Sizes = Sizes {
        shape: Shape {
            conv_onions: 200,
            dial_users: 200,
            dial_real: 10,
            num_drops: 2,
        },
        conversation_noise: NoiseDistribution {
            mu: 800.0,
            b: 800.0 / 64.0,
        },
        dialing_noise: NoiseDistribution {
            mu: 600.0,
            b: 600.0 / 64.0,
        },
        block_cycles: 5,
        replay_cycles: 3,
    };
    /// The same shape at a small fraction of the size, for the harness's
    /// tests.
    pub const QUICK: Sizes = Sizes {
        shape: Shape {
            conv_onions: 8,
            dial_users: 8,
            dial_real: 2,
            num_drops: 2,
        },
        conversation_noise: NoiseDistribution { mu: 8.0, b: 1.0 },
        dialing_noise: NoiseDistribution { mu: 6.0, b: 1.0 },
        block_cycles: 4,
        replay_cycles: 1,
    };

    fn config(&self) -> SystemConfig {
        sut::system_config(self.conversation_noise, self.dialing_noise, 1)
    }
}

/// What came back for one round.
struct RoundResult {
    /// Admission to outcome, seconds.
    latency_s: f64,
    /// Conversation replies in batch order.
    replies: Option<Vec<Vec<u8>>>,
    /// The tail's observables.
    conversation: Option<ConversationObservables>,
    dialing: Option<DialingObservables>,
    /// Per-stage timings, where the runtime's API returns them.
    timing: Option<RoundTiming>,
}

/// One block's outcomes and what running it cost.
struct BlockResult {
    wall_s: f64,
    cpu_s: f64,
    rounds: Vec<RoundResult>,
}

/// The wire runtime: node threads and the client's one connection.
struct WireNodes {
    cfg: DeploymentConfig,
    entry: TcpTransport,
    nodes: Vec<JoinHandle<Result<NodeStats, String>>>,
}

impl WireNodes {
    /// Starts three servers (tail first) and the entry as threads, each
    /// listening on its own loopback port, and connects the client driver.
    fn start(system: SystemConfig, seed: u64) -> Result<WireNodes, String> {
        let cfg = sut::wire_deployment(system, seed)?;
        let shared = Arc::new(cfg.clone());
        let mut nodes = Vec::with_capacity(CHAIN_LEN + 1);
        for position in (0..CHAIN_LEN).rev() {
            let cfg = Arc::clone(&shared);
            nodes.push(std::thread::spawn(move || {
                sut::serve_server(&cfg, position).map_err(|e| format!("server {position}: {e}"))
            }));
        }
        let cfg_entry = Arc::clone(&shared);
        nodes.push(std::thread::spawn(move || {
            sut::serve_entry(&cfg_entry).map_err(|e| format!("entry: {e}"))
        }));
        let entry = sut::connect_to_entry(&cfg).map_err(|e| format!("client: {e}"))?;
        Ok(WireNodes { cfg, entry, nodes })
    }

    /// Drives one block through the entry at admission depth [`WINDOW`].
    fn run_block(&self, inputs: &[RoundInput]) -> Result<BlockResult, String> {
        let shapes: Vec<(RoundKind, usize)> =
            inputs.iter().map(|i| (i.kind(), i.requests())).collect();
        let weights = sut::admission_weights(&self.cfg.system, WINDOW, &shapes);
        let batches: Vec<RoundBuffer> = inputs.iter().map(|i| i.onions.clone()).collect();
        let mut window = AdmissionWindow::new(WINDOW);
        let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::new();
        let mut rounds = Vec::with_capacity(inputs.len());

        // Backward frames return in admission order.
        let mut collect = |in_flight: &mut VecDeque<(usize, Instant)>,
                           window: &mut AdmissionWindow|
         -> Result<(), String> {
            let (index, admitted) = in_flight.pop_front().expect("a round in flight");
            let round = inputs[index].round;
            let back = match self.entry.recv().map_err(|e| e.to_string())? {
                Frame::Batch(back) if back.backward && back.round.0 == round => back,
                other => return Err(format!("round {round}: unexpected frame {other:?}")),
            };
            let latency_s = admitted.elapsed().as_secs_f64();
            let trailer = RoundTrailer::decode(&back.trailer)
                .map_err(|reason| format!("round {round}: {reason}"))?;
            let mut result = RoundResult {
                latency_s,
                replies: None,
                conversation: None,
                dialing: None,
                timing: None,
            };
            match trailer {
                RoundTrailer::Conversation(observed) => {
                    result.replies = Some(sut::replies_from_frame(&back));
                    result.conversation = Some(observed);
                }
                RoundTrailer::Dialing(observed) => result.dialing = Some(observed),
            }
            rounds.push(result);
            window.complete(round);
            Ok(())
        };

        let cpu = process_cpu_seconds();
        let start = Instant::now();
        for (index, (batch, input)) in batches.into_iter().zip(inputs).enumerate() {
            while window.would_block(weights[index]) {
                collect(&mut in_flight, &mut window)?;
            }
            let admitted = Instant::now();
            let frame = sut::frame_from_buf(
                LinkId::Clients,
                input.round,
                input.kind(),
                false,
                batch,
                Vec::new(),
            );
            self.entry.send(frame).map_err(|e| e.to_string())?;
            window.admit(input.round, weights[index]);
            in_flight.push_back((index, admitted));
        }
        while !in_flight.is_empty() {
            collect(&mut in_flight, &mut window)?;
        }
        Ok(BlockResult {
            wall_s: start.elapsed().as_secs_f64(),
            cpu_s: process_cpu_seconds() - cpu,
            rounds,
        })
    }

    /// The orderly `Bye` shutdown; returns how many rounds every node
    /// says it completed.
    fn shutdown(self) -> Result<u64, String> {
        self.entry.send(Frame::Bye).map_err(|e| e.to_string())?;
        let mut completed = None;
        for node in self.nodes {
            let stats = node.join().map_err(|_| "a node thread panicked")??;
            let rounds = stats.conversation_rounds + stats.dialing_rounds;
            if *completed.get_or_insert(rounds) != rounds {
                return Err("the nodes disagree on how many rounds they completed".into());
            }
        }
        Ok(completed.unwrap_or(0))
    }
}

/// A runtime set up and warmed, ready for the first measured block.
enum Deployment {
    Stream(StreamingChain),
    Wire(WireNodes),
}

impl Deployment {
    fn start(runtime: Runtime, system: SystemConfig, seed: u64) -> Result<Deployment, String> {
        Ok(match runtime {
            Runtime::Stream => {
                Deployment::Stream(StreamingChain::new(system, seed).with_max_in_flight(WINDOW))
            }
            Runtime::Wire => Deployment::Wire(WireNodes::start(system, seed)?),
        })
    }

    fn run_block(&mut self, inputs: &[RoundInput]) -> Result<BlockResult, String> {
        match self {
            Deployment::Wire(nodes) => nodes.run_block(inputs),
            Deployment::Stream(streaming) => {
                let specs = inputs.iter().map(RoundInput::spec).collect();
                let conversations_before = streaming.chain().conversation_observables().len();
                let dialings_before = streaming.chain().dialing_observables().len();
                let cpu = process_cpu_seconds();
                let start = Instant::now();
                let outcomes = streaming.run_mixed_schedule(specs);
                let wall_s = start.elapsed().as_secs_f64();
                let cpu_s = process_cpu_seconds() - cpu;

                // The tail logs observables per round; hand each to its round.
                let chain = streaming.chain();
                let conversations: BTreeMap<u64, ConversationObservables> = chain
                    .conversation_observables()[conversations_before..]
                    .iter()
                    .copied()
                    .collect();
                let mut dialings: BTreeMap<u64, DialingObservables> = chain.dialing_observables()
                    [dialings_before..]
                    .iter()
                    .cloned()
                    .collect();
                let rounds = outcomes
                    .into_iter()
                    .zip(inputs)
                    .map(|(outcome, input)| {
                        let (replies, timing) = match outcome {
                            RoundOutcome::Conversation { replies, timing } => {
                                (Some(replies), timing)
                            }
                            RoundOutcome::Dialing { timing } => (None, timing),
                        };
                        RoundResult {
                            latency_s: timing.total.as_secs_f64(),
                            replies,
                            conversation: conversations.get(&input.round).copied(),
                            dialing: dialings.remove(&input.round),
                            timing: Some(timing),
                        }
                    })
                    .collect();
                Ok(BlockResult {
                    wall_s,
                    cpu_s,
                    rounds,
                })
            }
        }
    }

    /// Stops the runtime; for the wire, checks every node completed
    /// exactly the `rounds` it was sent.
    fn shutdown(self, rounds: u64) -> Result<(), String> {
        match self {
            Deployment::Stream(_) => Ok(()),
            Deployment::Wire(nodes) => {
                let completed = nodes.shutdown()?;
                if completed == rounds {
                    Ok(())
                } else {
                    Err(format!("nodes completed {completed} of {rounds} rounds"))
                }
            }
        }
    }
}

/// What set-up leaves behind: a warmed runtime, the clients' DH tables and
/// the first block's prebuilt batches.
struct Ready {
    deployment: Deployment,
    tables: Arc<Vec<PrecomputedServer>>,
    first_block: Vec<RoundInput>,
}

/// Set-up as `setup_s` times it: the runtime (keys, DH tables, and for the
/// wire sockets and node threads), the clients' DH tables, the batches of
/// the warm-up cycle and of the first block, and the warm-up cycle run.
fn setup(runtime: Runtime, sizes: &Sizes, seed: u64) -> Result<Ready, String> {
    let system = sizes.config();
    let mut deployment = Deployment::start(runtime, system, seed)?;
    let pks: Vec<_> = sut::server_keypairs(CHAIN_LEN, seed)
        .iter()
        .map(|kp| kp.public)
        .collect();
    let tables = sut::client_tables(&pks);
    let warmup = gen::block(seed, 0, WARMUP_ROUNDS, &tables, &sizes.shape);
    let first_block = gen::block(
        seed,
        WARMUP_ROUNDS,
        sizes.block_cycles * CYCLE,
        &tables,
        &sizes.shape,
    );
    deployment.run_block(&warmup)?;
    Ok(Ready {
        deployment,
        tables,
        first_block,
    })
}

/// How many of `invites` are *not* found, by trial decryption with the
/// callee's key, in the drop `download` returns for them.
fn invites_missing(
    invites: &[gen::Invite],
    mut download: impl FnMut(InvitationDropIndex) -> Option<Vec<SealedInvitation>>,
) -> u64 {
    invites
        .iter()
        .filter(|invite| {
            let found = download(invite.drop).is_some_and(|contents| {
                contents.iter().any(|sealed| {
                    sealed.try_open(&invite.callee.secret, &invite.callee.public)
                        == Some(invite.caller)
                })
            });
            !found
        })
        .count() as u64
}

/// Client-side check of one round's outcome: how many of its requests
/// failed. A conversation request fails unless its reply unwraps to its
/// partner's message; a dialing request fails unless the round completed
/// with a well-formed observation.
fn failed_requests(input: &RoundInput, result: &RoundResult) -> u64 {
    match &input.kept {
        Kept::Conversation { keys, messages } => {
            let Some(replies) = &result.replies else {
                return input.requests() as u64;
            };
            (0..input.requests())
                .filter(|&i| {
                    let keys = &keys[i * CHAIN_LEN..(i + 1) * CHAIN_LEN];
                    let delivered = replies.get(i).is_some_and(|reply| {
                        sut::unwrap_reply_layers(keys, input.round, reply)
                            .is_ok_and(|plain| plain == messages[i ^ 1])
                    });
                    !delivered
                })
                .count() as u64
        }
        Kept::Dialing { num_drops, .. } => {
            let completed = result
                .dialing
                .as_ref()
                .is_some_and(|observed| observed.counts.len() == *num_drops as usize);
            if completed {
                0
            } else {
                input.requests() as u64
            }
        }
    }
}

/// A block replayed on a fresh sequential `Chain`.
struct Replay {
    /// The chain, for its link meters.
    chain: Chain,
    /// Per-round outcomes, with the chain's own stage timings.
    outcomes: Vec<RoundOutcome>,
    /// Wall and CPU seconds inside `run_round`, summed over the block.
    wall_s: f64,
    cpu_s: f64,
}

/// Replays `inputs` on a fresh sequential `Chain` and holds `results` to
/// it byte for byte: replies, the tail's observables, and every real
/// invitation downloadable from its drop.
fn check_against_replay(
    report: &mut Report,
    system: SystemConfig,
    seed: u64,
    inputs: &[RoundInput],
    results: &[RoundResult],
) -> Replay {
    let mut replay = Replay {
        chain: Chain::new(system, seed),
        outcomes: Vec::with_capacity(inputs.len()),
        wall_s: 0.0,
        cpu_s: 0.0,
    };
    for (input, result) in inputs.iter().zip(results) {
        let round = input.round;
        let spec = input.spec();
        let cpu = process_cpu_seconds();
        let start = Instant::now();
        let outcome = replay.chain.run_round(spec);
        replay.wall_s += start.elapsed().as_secs_f64();
        replay.cpu_s += process_cpu_seconds() - cpu;
        let chain = &mut replay.chain;
        report.check(outcome.replies() == result.replies.as_deref(), || {
            format!("round {round}: replies differ from the sequential replay")
        });
        match &input.kept {
            Kept::Conversation { .. } => {
                let replayed = chain.conversation_observables().last().map(|&(_, o)| o);
                report.check(replayed == result.conversation, || {
                    format!("round {round}: conversation observables differ from the replay")
                });
            }
            Kept::Dialing { invites, .. } => {
                let replayed = chain.dialing_observables().last().map(|(_, o)| o.clone());
                report.check(replayed == result.dialing, || {
                    format!("round {round}: dialing observables differ from the replay")
                });
                let missing = invites_missing(invites, |index| chain.download_drop(index));
                report.check(missing == 0, || {
                    format!("round {round}: {missing} real invitations not found in their drop")
                });
            }
        }
        replay.outcomes.push(outcome);
    }
    replay
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// Socket or protocol failures of the wire runtime.
pub fn run(runtime: Runtime, sizes: &Sizes, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut ready: Option<Ready> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = ready.take() {
            previous.deployment.shutdown(WARMUP_ROUNDS)?;
        }
        let start = Instant::now();
        ready = Some(setup(runtime, sizes, seed)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let Ready {
        mut deployment,
        tables,
        first_block,
    } = ready.expect("set up at least once");

    let block_rounds = sizes.block_cycles * CYCLE;
    let replay_rounds = (sizes.replay_cycles * CYCLE) as usize;
    let (mut wall, mut cpu) = (0.0, 0.0);
    let mut latencies = Vec::new();
    let mut block_walls = Vec::new();
    let mut rounds_run = WARMUP_ROUNDS;
    let mut block = first_block;
    let mut replayed_inputs = Vec::new();
    let mut replayed_results = Vec::new();
    loop {
        let result = deployment.run_block(&block)?;
        block_walls.push(result.wall_s);
        wall += result.wall_s;
        cpu += result.cpu_s;
        rounds_run += block.len() as u64;
        report.check(result.rounds.len() == block.len(), || {
            "a block returned fewer outcomes than rounds".into()
        });
        for (input, round) in block.iter().zip(&result.rounds) {
            report.attempted += input.requests() as u64;
            report.failed += failed_requests(input, round);
            latencies.push(round.latency_s);
        }
        if let Deployment::Stream(streaming) = &mut deployment {
            // The runtime keeps the last dialing round's drops for download.
            let last_dialing = block.iter().rev().find_map(|input| match &input.kept {
                Kept::Dialing { invites, .. } => Some(invites),
                Kept::Conversation { .. } => None,
            });
            if let Some(invites) = last_dialing {
                let missing = invites_missing(invites, |index| streaming.download_drop(index));
                report.check(missing == 0, || {
                    format!("{missing} real invitations not downloadable after a block")
                });
            }
        }
        if replayed_inputs.is_empty() {
            let mut results = result.rounds;
            results.truncate(replay_rounds);
            block.truncate(replay_rounds);
            replayed_results = results;
            replayed_inputs = block;
        }
        if wall >= seconds {
            break;
        }
        block = gen::block(seed, rounds_run, block_rounds, &tables, &sizes.shape);
    }
    let peak_rss = peak_rss_mib();
    if let Err(error) = deployment.shutdown(rounds_run) {
        report.fail(error);
    }

    // The first cycles again, on the sequential runtime: byte-identical
    // outcomes, and the exact bytes per link.
    let replay = check_against_replay(
        &mut report,
        sizes.config(),
        seed,
        &replayed_inputs,
        &replayed_results,
    );
    let replayed_requests: usize = replayed_inputs.iter().map(RoundInput::requests).sum();

    report.set_end_to_end(&Measured {
        setups_s: &setups,
        latencies_s: &latencies,
        wall_s: wall,
        cpu_s: cpu,
        link_bytes_per_onion: replay.chain.total_server_bytes() as f64 / replayed_requests as f64,
        peak_rss_mib: peak_rss,
    });
    report
        .notes
        .insert("driver.block_wall_s".into(), json!(block_walls));
    Ok(report)
}

/// The traced run: per-layer metrics. Sends the same block through the
/// sequential `Chain`, the `StreamingChain` and the wire nodes (which
/// gives the pipeline's measured speed-up and the wire's overhead side by
/// side), then drives its first cycles by hand under spans — with every
/// hand-off crossing a loopback TCP connection when `runtime` is the wire.
///
/// # Errors
///
/// Socket or protocol failures.
pub fn trace(
    runtime: Runtime,
    sizes: &Sizes,
    seed: u64,
    quick: bool,
) -> Result<(Report, Tracer), String> {
    let mut report = Report::default();
    let mut values: Values = probes::run(if quick { Effort::QUICK } else { Effort::FULL })?
        .into_iter()
        .collect();

    // Streaming, then the wire, each set up and warmed as in the untraced
    // run; then the sequential replay that checks both and is the
    // yardstick for both.
    let system = sizes.config();
    let hand_rounds = (HAND_CYCLES * CYCLE) as usize;
    let Ready {
        deployment: mut streaming,
        first_block: mut block,
        tables,
    } = setup(Runtime::Stream, sizes, seed)?;
    block.truncate((TRACE_CYCLES * CYCLE) as usize);
    let requests = |inputs: &[RoundInput]| inputs.iter().map(RoundInput::requests).sum::<usize>();
    report.attempted = requests(&block) as u64;
    let streamed = streaming.run_block(&block)?;
    let mut wire = Deployment::start(Runtime::Wire, system.clone(), seed)?;
    wire.run_block(&gen::block(seed, 0, WARMUP_ROUNDS, &tables, &sizes.shape))?;
    let wired = wire.run_block(&block)?;
    wire.shutdown(WARMUP_ROUNDS + block.len() as u64)?;

    let replay = check_against_replay(&mut report, system.clone(), seed, &block, &streamed.rounds);
    // The streamed outcomes now equal the replay's; hold the wire to them.
    for (input, (wire, stream)) in block.iter().zip(wired.rounds.iter().zip(&streamed.rounds)) {
        report.check(wire.replies == stream.replies, || {
            format!("round {}: wire replies differ from the replay", input.round)
        });
        report.check(
            wire.conversation == stream.conversation && wire.dialing == stream.dialing,
            || {
                format!(
                    "round {}: wire trailer differs from the replay",
                    input.round
                )
            },
        );
        report.failed += failed_requests(input, wire);
    }

    // core::pipeline, from the stage timings the schedule API returns.
    let rounds = block.len() as f64;
    let mut busy = [0.0f64; CHAIN_LEN];
    for timing in streamed.rounds.iter().filter_map(|r| r.timing.as_ref()) {
        for (hop, busy) in busy.iter_mut().enumerate() {
            *busy += timing.forward.get(hop).map_or(0.0, |d| d.as_secs_f64());
            // Backward timings come last server first.
            let backward = timing.backward.get(CHAIN_LEN - 1 - hop);
            *busy += backward.map_or(0.0, |d| d.as_secs_f64());
        }
        busy[CHAIN_LEN - 1] += timing.exchange.as_secs_f64();
    }
    for (hop, name) in [
        "core.pipeline.stage_busy_s.hop0",
        "core.pipeline.stage_busy_s.hop1",
        "core.pipeline.stage_busy_s.hop2",
    ]
    .into_iter()
    .enumerate()
    {
        values.insert(name, busy[hop] / rounds);
    }
    values.insert(
        "core.pipeline.overlap",
        busy.iter().sum::<f64>() / streamed.wall_s,
    );
    values.insert(
        "core.pipeline.speedup_vs_sequential",
        replay.wall_s / streamed.wall_s,
    );
    values.insert(
        "core.node.wire_overhead_fraction",
        (wired.wall_s - streamed.wall_s) / streamed.wall_s,
    );

    // The first cycles by hand, under spans.
    let loopback = match runtime {
        Runtime::Stream => None,
        Runtime::Wire => Some(Loopback::tcp(FarEnd::HandBack)?),
    };
    let mut hand = HandChain::new(&system, seed);
    let mut tracer = Tracer::new();
    let mut stages: Vec<[StageCosts; 3]> = Vec::with_capacity(hand_rounds);
    let mut link_bytes = [0u64; 1 + CHAIN_LEN];
    let mut wholesale_s = 0.0;
    let checked = replay.outcomes.iter().zip(&streamed.rounds);
    for (input, (outcome, stream)) in block.iter().zip(checked).take(hand_rounds) {
        let round = input.round;
        let batch = input.onions.clone();
        let whole = tracer.enter(span::ROUND, round);
        let driven = hand.round(&mut tracer, loopback.as_ref(), round, input.kind(), batch);
        tracer.exit(whole);
        report.check(
            driven.replies.as_deref() == outcome.replies()
                && driven.conversation == stream.conversation
                && driven.dialing == stream.dialing,
            || format!("round {round}: the hand-driven round differs from the replay"),
        );
        stages.push(hand.stage_probes(round, input.kind(), &driven));
        wholesale_s += outcome.timing().total.as_secs_f64();
        let links = std::iter::once(replay.chain.client_link()).chain(replay.chain.links());
        for (moved, link) in link_bytes.iter_mut().zip(links) {
            *moved += [sut::Direction::Forward, sut::Direction::Backward]
                .into_iter()
                .map(|direction| link.round_traffic(round, direction).1)
                .sum::<u64>();
        }
    }
    drop(loopback);

    ledger::fill(
        &mut values,
        &Traced {
            tracer: &tracer,
            rounds: hand_rounds,
            requests: requests(&block[..hand_rounds]),
            stages: &stages,
            clients_wrap_in_round: false,
            link_bytes,
            wholesale_round_s: wholesale_s / hand_rounds as f64,
            wholesale_cpu_s: replay.cpu_s / rounds,
        },
    );
    report.metrics = ledger::in_declared_order(&values);
    report.notes.insert(
        "trace.block_wall_s".into(),
        json!({
            "rounds": block.len(),
            "sequential": replay.wall_s,
            "streaming": streamed.wall_s,
            "wire": wired.wall_s,
        }),
    );
    Ok((report, tracer))
}
