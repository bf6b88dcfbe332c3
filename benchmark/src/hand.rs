//! The traced run's hand-driven round.
//!
//! The untraced runs call a runtime wholesale. The traced run drives the
//! same round hop by hop through `build_server` and the shared
//! `RoundEngine`, recording a span around every call into a layer. After
//! the round, *stage probes* re-run each hop's three stages — peel, noise
//! generation, shuffle — one at a time on that hop's real input, which
//! apportions the hop's span. Server randomness is a pure function of
//! `(seed, round)`, so the hand-driven replies are byte-identical to a
//! wholesale run's; the traced run checks that they are.

use crate::probes::Loopback;
use crate::sut::{
    self, ConversationObservables, DialingObservables, EngineStep, Keypair, LinkId, MixServer,
    PrecomputedServer, RoundBuffer, RoundEngine, RoundKind, RoundTiming, SystemConfig, CHAIN_LEN,
    LAYER_OVERHEAD,
};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Span names; `[hop]` indexes the per-hop ones.
pub mod span {
    /// The whole round, admission to replies.
    pub const ROUND: &str = "core.chain.round";
    /// One server's forward pass.
    pub const FORWARD: [&str; 3] = [
        "core.server.forward.hop0",
        "core.server.forward.hop1",
        "core.server.forward.hop2",
    ];
    /// One server's backward pass.
    pub const BACKWARD: [&str; 3] = [
        "core.server.backward.hop0",
        "core.server.backward.hop1",
        "core.server.backward.hop2",
    ];
    /// The engine's tail step, which the stages below split.
    pub const TAIL: &str = "core.engine.tail";
    /// Dead-drop exchange at the last server.
    pub const EXCHANGE: &str = "core.deaddrops.exchange";
    /// Invitation deposit at the last server.
    pub const DEPOSIT: &str = "core.deaddrops.deposit";
    /// One frame through a loopback TCP connection.
    pub const TRANSFER: &str = "net.tcp.transfer";
    /// The cohort building its requests.
    pub const BUILD: &str = "core.cohort.build";
    /// The cohort ingesting its replies.
    pub const INGEST: &str = "core.cohort.ingest";
}

/// The servers of one chain, driven one call at a time.
pub struct HandChain {
    config: SystemConfig,
    seed: u64,
    servers: Vec<MixServer>,
    keypairs: Vec<Keypair>,
    /// `downstream[i]`: DH tables of the servers after server `i`.
    downstream: Vec<Vec<PrecomputedServer>>,
}

/// What a hand-driven round produced and what it saw on the way.
pub struct HandRound {
    /// Conversation replies, in batch order (`None` for dialing rounds).
    pub replies: Option<Vec<Vec<u8>>>,
    /// What the tail observed of a conversation round.
    pub conversation: Option<ConversationObservables>,
    /// What the tail observed of a dialing round.
    pub dialing: Option<DialingObservables>,
    /// A copy of each hop's input batch, for the stage probes.
    pub hop_inputs: Vec<RoundBuffer>,
    /// How many onions each non-tail hop sent on.
    pub hop_outputs: Vec<usize>,
}

/// One hop's stages, re-run alone on the hop's real input.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageCosts {
    /// Onions that arrived at the hop.
    pub onions_in: usize,
    /// Noise onions the hop added.
    pub noise_added: usize,
    /// Seconds peeling every arriving onion.
    pub peel_s: f64,
    /// Seconds generating and wrapping the noise.
    pub noise_s: f64,
    /// Seconds drawing and applying the shuffle.
    pub permute_s: f64,
}

/// The mix servers peel in chunks of this many slots (`server.rs`), which
/// sets how many field inversions a batch shares; the probe does the same.
const PEEL_CHUNK_SLOTS: usize = 32;

impl HandChain {
    /// The servers of the chain `(config, seed)` describes — the same keys
    /// and per-round randomness as `Chain::new(config, seed)`.
    #[must_use]
    pub fn new(config: &SystemConfig, seed: u64) -> HandChain {
        let keypairs = sut::server_keypairs(CHAIN_LEN, seed);
        let downstream = (0..CHAIN_LEN)
            .map(|i| {
                keypairs[i + 1..]
                    .iter()
                    .map(|kp| PrecomputedServer::new(kp.public))
                    .collect()
            })
            .collect();
        HandChain {
            config: config.clone(),
            seed,
            servers: (0..CHAIN_LEN)
                .map(|i| sut::build_server(config, seed, i))
                .collect(),
            keypairs,
            downstream,
        }
    }

    /// Moves a batch across one link: over the loopback connection when
    /// the workload has one, else not at all.
    fn transfer(
        tracer: &mut Tracer,
        wire: Option<&Loopback>,
        link: LinkId,
        round: u64,
        kind: RoundKind,
        backward: bool,
        buf: RoundBuffer,
    ) -> RoundBuffer {
        let Some(loopback) = wire else { return buf };
        tracer.span(span::TRANSFER, round, || {
            let frame = sut::frame_from_buf(link, round, kind, backward, buf, Vec::new());
            match loopback.through(frame) {
                sut::Frame::Batch(batch) => sut::buf_from_frame(batch),
                other => panic!("loopback returned {other:?}"),
            }
        })
    }

    /// Drives one round through the chain under a [`span::ROUND`] span the
    /// caller has opened, recording a span per call.
    pub fn round(
        &mut self,
        tracer: &mut Tracer,
        wire: Option<&Loopback>,
        round: u64,
        kind: RoundKind,
        batch: RoundBuffer,
    ) -> HandRound {
        let mut out = HandRound {
            replies: None,
            conversation: None,
            dialing: None,
            hop_inputs: Vec::with_capacity(CHAIN_LEN),
            hop_outputs: Vec::with_capacity(CHAIN_LEN),
        };
        // Clients to entry, then hop by hop to the tail.
        let mut buf = HandChain::transfer(tracer, wire, LinkId::Clients, round, kind, false, batch);
        let mut replies = None;
        for hop in 0..CHAIN_LEN {
            buf = HandChain::transfer(
                tracer,
                wire,
                LinkId::Hop(hop as u32),
                round,
                kind,
                false,
                buf,
            );
            out.hop_inputs.push(buf.clone());
            let tail = hop + 1 == CHAIN_LEN;
            let mut timing = RoundTiming::default();
            let id = tracer.enter(if tail { span::TAIL } else { span::FORWARD[hop] }, round);
            let step = RoundEngine::new(&mut self.servers[hop], &self.config, self.seed).forward(
                round,
                kind,
                std::mem::replace(&mut buf, RoundBuffer::new(1, 0)),
                &mut timing,
            );
            tracer.exit(id);
            match step {
                EngineStep::Forward { buf: next, .. } => {
                    out.hop_outputs.push(next.len());
                    buf = next;
                }
                EngineStep::Turnaround {
                    replies: turned,
                    observables,
                    ..
                } => {
                    tracer.split(
                        id,
                        &[
                            (span::FORWARD[hop], timing.forward[0]),
                            (span::EXCHANGE, timing.exchange),
                            (span::BACKWARD[hop], timing.backward[0]),
                        ],
                    );
                    out.conversation = Some(observables);
                    replies = Some(turned);
                }
                EngineStep::DialingComplete { drops, .. } => {
                    tracer.split(
                        id,
                        &[
                            (span::FORWARD[hop], timing.forward[0]),
                            (span::DEPOSIT, timing.exchange),
                        ],
                    );
                    out.dialing = Some(drops.observables());
                }
            }
        }

        // Back towards the clients: replies, or a dialing round's empty
        // completion notice.
        let mut back = replies.unwrap_or_else(|| RoundBuffer::new(1, 0));
        for hop in (0..CHAIN_LEN).rev() {
            if hop + 1 < CHAIN_LEN && out.conversation.is_some() {
                let mut timing = RoundTiming::default();
                let engine = &mut RoundEngine::new(&mut self.servers[hop], &self.config, self.seed);
                back = tracer.span(span::BACKWARD[hop], round, || {
                    engine.backward(round, back, &mut timing)
                });
            }
            back = HandChain::transfer(
                tracer,
                wire,
                LinkId::Hop(hop as u32),
                round,
                kind,
                true,
                back,
            );
        }
        back = HandChain::transfer(tracer, wire, LinkId::Clients, round, kind, true, back);
        if out.conversation.is_some() {
            out.replies = Some(back.to_vecs());
        }
        out
    }

    /// Re-runs each hop's stages alone on the input the hop really had in
    /// `round`, single-threaded, and says what each cost.
    #[must_use]
    pub fn stage_probes(&self, round: u64, kind: RoundKind, hand: &HandRound) -> [StageCosts; 3] {
        let mut costs = [StageCosts::default(); CHAIN_LEN];
        for (hop, input) in hand.hop_inputs.iter().enumerate() {
            let cost = &mut costs[hop];
            cost.onions_in = input.len();

            let mut peeled = input.clone();
            let (stride, width) = (peeled.stride(), peeled.width());
            let keypair = &self.keypairs[hop];
            let start = Instant::now();
            for chunk in peeled.arena_mut().chunks_mut(PEEL_CHUNK_SLOTS * stride) {
                let results = sut::peel_chunk_in_place(
                    &keypair.secret,
                    &keypair.public,
                    round,
                    chunk,
                    stride,
                    width,
                );
                std::hint::black_box(results);
            }
            cost.peel_s = start.elapsed().as_secs_f64();
            if hop + 1 == CHAIN_LEN {
                continue; // the tail adds no noise and does not shuffle
            }

            // The hop's own per-round RNG, replayed: the same draws, so
            // the same noise counts and the same onions.
            let inner_width = width - LAYER_OVERHEAD;
            let mut noise = RoundBuffer::new(inner_width, inner_width);
            let mut rng = sut::server_round_rng(self.seed, hop, round);
            let tables = &self.downstream[hop];
            let start = Instant::now();
            match kind {
                RoundKind::Conversation => {
                    sut::conversation_noise_into(
                        &mut rng,
                        &mut noise,
                        tables,
                        round,
                        self.config.conversation_noise,
                        self.config.noise_mode,
                        1,
                    );
                }
                RoundKind::Dialing { num_drops } => {
                    sut::dialing_noise_into(
                        &mut rng,
                        &mut noise,
                        tables,
                        round,
                        num_drops,
                        self.config.dialing_noise,
                        self.config.noise_mode,
                        1,
                    );
                }
            }
            cost.noise_s = start.elapsed().as_secs_f64();
            cost.noise_added = noise.len();

            // Shuffle a batch of the size the hop sent on.
            let sent = hand.hop_outputs[hop];
            let mut shuffled = RoundBuffer::with_capacity(inner_width, inner_width, sent);
            for _ in 0..sent {
                shuffled.push_with(|_| {});
            }
            let mut rng = StdRng::seed_from_u64(round);
            let start = Instant::now();
            let mut permutation: Vec<usize> = (0..sent).collect();
            for i in (1..sent).rev() {
                permutation.swap(i, rng.gen_range(0..=i));
            }
            shuffled.permute(&permutation);
            cost.permute_s = start.elapsed().as_secs_f64();
        }
        costs
    }
}
