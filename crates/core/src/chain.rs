//! A complete Vuvuzela deployment: entry, chain, links, dead drops.
//!
//! [`Chain`] wires the [`crate::server::MixServer`]s together with
//! byte-counting, tappable [`vuvuzela_net::Link`]s and runs schedules of
//! rounds on the calling thread. The paper's chain is sequential within
//! a round — "one server cannot start processing a round until the
//! previous server finishes" (§8.2) — but consecutive rounds are
//! independent, so [`Chain::run`] keeps a window of them in flight, as
//! the entry admits them, and a seeded scheduler picks which frame moves
//! next. Each move is one call of the hop protocol's frame handler
//! ([`crate::node`]), the handler a deployment's server processes run
//! in their node loops, so one schedule is one replayable interleaving
//! of the deployment's own steps. [`crate::pipeline`]'s runner is its
//! threaded twin: the same handlers in one node loop per node, on scoped
//! threads over loopback TCP or in-memory links, where the OS scheduler
//! picks the interleaving. Either way the entry is the deployment's own relay node
//! and the tail keeps its dialing drops ([`MixServer::invitation_drops`]);
//! a batch crosses a link through [`batch_through_link`], every node's
//! passes reach one `Collector` as [`RoundEvent`]s, which completes a
//! round home across the clients link and keeps its events in the
//! chain's record ([`Chain::round_record`]), and a round
//! that cannot finish — a node refuses its frame, or a link hangs up
//! under it — ends the run with an [`Abort`], the value the wire's
//! [`vuvuzela_net::Error`] becomes.
//!
//! All of a round's harness-level randomness (noise substitutes for
//! undecodable exchange payloads, the dead-drop store's coin flips) is
//! drawn from a per-round RNG derived from the chain seed, so every
//! interleaving — any window, any scheduler draw, either runtime —
//! computes the same bytes.

use crate::config::SystemConfig;
use crate::engine::{admission_weights, schedule_rng, AdmissionWindow};
use crate::node::{buf_from_frame, frame_from_buf, HopObserver, RoundTrailer, ServerNode, Side};
use crate::observables::{ConversationObservables, DialingObservables};
use crate::record::{Fold, NodeId, Phase, RoundEvent};
use crate::roundbuf::RoundBuffer;
use crate::server::{MixServer, RoundKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};
use vuvuzela_crypto::x25519::{Keypair, PublicKey};
use vuvuzela_net::batch_through_link;
use vuvuzela_net::link::Link;
use vuvuzela_net::{Error, LinkId};
use vuvuzela_wire::deaddrop::InvitationDropIndex;
use vuvuzela_wire::dialing::SealedInvitation;
use vuvuzela_wire::{BatchFrame, Frame};

/// The client batch feeding one round: one flat [`RoundBuffer`] arena
/// whose slots are exactly the round's full onion width
/// ([`vuvuzela_crypto::onion::wrapped_len`] of the round kind's
/// payload) — the one shape a deployment's entry admits off the wire.
/// A [`crate::cohort::ClientCohort`] wraps its onions in place into
/// it; tests lay onions wrapped one at a time in with
/// [`RoundBuffer::from_vecs`].
#[derive(Clone, Debug)]
pub enum Batch {
    /// The round's client requests, already multiplexed by the entry.
    Flat(RoundBuffer),
}

impl Batch {
    /// Number of client requests in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        let Batch::Flat(buf) = self;
        buf.len()
    }

    /// Whether the batch holds no requests.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl From<RoundBuffer> for Batch {
    fn from(buf: RoundBuffer) -> Batch {
        Batch::Flat(buf)
    }
}

/// One round of a (possibly mixed) schedule: which protocol it runs,
/// its round number, and the client batch feeding it. This is the unit
/// both in-process runtimes consume, [`Chain::run`] and its threaded
/// twin [`crate::pipeline::StreamingChain::run`]; round numbers must
/// strictly increase within one call.
#[derive(Clone, Debug)]
pub enum RoundSpec {
    /// A conversation round (Algorithm 2): forward and backward passes.
    Conversation {
        /// Protocol round number (strictly increasing within a schedule).
        round: u64,
        /// Client request onions, already multiplexed by the entry.
        batch: Batch,
    },
    /// A forward-only dialing round (§5).
    Dialing {
        /// Protocol round number (strictly increasing within a schedule).
        round: u64,
        /// Client dial-request onions.
        batch: Batch,
        /// Real invitation drops this round (§5.4's `m`).
        num_drops: u32,
    },
}

impl RoundSpec {
    /// The round number this spec describes.
    #[must_use]
    pub fn round(&self) -> u64 {
        match self {
            RoundSpec::Conversation { round, .. } | RoundSpec::Dialing { round, .. } => *round,
        }
    }

    /// The server-side round kind (noise recipe, payload size).
    #[must_use]
    pub fn kind(&self) -> RoundKind {
        match self {
            RoundSpec::Conversation { .. } => RoundKind::Conversation,
            RoundSpec::Dialing { num_drops, .. } => RoundKind::Dialing {
                num_drops: *num_drops,
            },
        }
    }

    /// Number of client requests feeding the round.
    #[must_use]
    pub fn batch_len(&self) -> usize {
        match self {
            RoundSpec::Conversation { batch, .. } | RoundSpec::Dialing { batch, .. } => batch.len(),
        }
    }

    /// Decomposes into `(round, kind, batch)`.
    #[must_use]
    pub fn into_parts(self) -> (u64, RoundKind, Batch) {
        match self {
            RoundSpec::Conversation { round, batch } => (round, RoundKind::Conversation, batch),
            RoundSpec::Dialing {
                round,
                batch,
                num_drops,
            } => (round, RoundKind::Dialing { num_drops }, batch),
        }
    }
}

/// The per-round result of a (possibly mixed) schedule; the variant
/// always matches the [`RoundSpec`] that produced it.
#[derive(Clone, Debug)]
pub enum RoundOutcome {
    /// A completed conversation round.
    Conversation {
        /// Per-request replies, in batch order.
        replies: Vec<Vec<u8>>,
        /// Stage timings.
        timing: RoundTiming,
    },
    /// A completed (forward-only) dialing round; the resulting drops are
    /// downloadable via [`Chain::download_drop`].
    Dialing {
        /// Stage timings (`backward` stays empty).
        timing: RoundTiming,
    },
}

impl RoundOutcome {
    /// The round's stage timings.
    #[must_use]
    pub fn timing(&self) -> &RoundTiming {
        match self {
            RoundOutcome::Conversation { timing, .. } | RoundOutcome::Dialing { timing } => timing,
        }
    }

    /// The replies of a conversation round; `None` for dialing rounds.
    #[must_use]
    pub fn replies(&self) -> Option<&[Vec<u8>]> {
        match self {
            RoundOutcome::Conversation { replies, .. } => Some(replies),
            RoundOutcome::Dialing { .. } => None,
        }
    }
}

/// How a run ends when a round cannot finish, in both in-process
/// runtimes: the failure, as the wire's nodes report it, and the rounds
/// it took down. Recover with [`Chain::abort_in_flight_rounds`].
#[derive(Debug)]
pub struct Abort {
    /// What ended the run: the first failure that is not a hang-up, or
    /// else the first hang-up — everyone downwind of a failure reports
    /// the hang-up it saw, and this names the failure itself.
    pub cause: Error,
    /// The rounds admitted at the entry but not completed, ascending.
    pub rounds: Vec<u64>,
}

impl Abort {
    /// The abort of `rounds` after `failures`, in the order they were
    /// gathered: picks the cause both runtimes name.
    ///
    /// # Panics
    ///
    /// Panics if `failures` is empty: nothing failed.
    pub(crate) fn new(mut failures: Vec<Error>, rounds: Vec<u64>) -> Abort {
        let named = failures
            .iter()
            .position(|err| !matches!(err, Error::Disconnected { .. }))
            .unwrap_or(0);
        let cause = failures.swap_remove(named);
        Abort { cause, rounds }
    }
}

impl std::fmt::Display for Abort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rounds {:?} aborted: {}", self.rounds, self.cause)
    }
}

impl std::error::Error for Abort {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.cause)
    }
}

/// Wall-clock timing of one conversation round, per stage: a projection
/// of the [`Fold`] of the round's events, apart from `total`, which the
/// feeder measures.
#[derive(Clone, Debug, Default)]
pub struct RoundTiming {
    /// Per-server forward-pass time (peel + noise + shuffle), in chain
    /// order.
    pub forward: Vec<Duration>,
    /// Dead-drop matching at the last server.
    pub exchange: Duration,
    /// Per-server backward-pass time (unshuffle + strip + wrap), in
    /// *reverse* chain order (last server first).
    pub backward: Vec<Duration>,
    /// Total end-to-end time for the round.
    pub total: Duration,
}

/// How many completed rounds' events a chain's record keeps
/// ([`Chain::round_record`]) — as many as a `Link` keeps of its per-round
/// traffic, far beyond any in-flight window.
const RECORD_ROUNDS: usize = 4096;

/// What a chain keeps of the rounds it completed: everything a
/// compromised tail observed, and the round record.
#[derive(Default)]
pub(crate) struct RoundLog {
    conversation: Vec<(u64, ConversationObservables)>,
    dialing: Vec<(u64, DialingObservables)>,
    /// The newest [`RECORD_ROUNDS`] completed rounds' events, in the
    /// order the rounds completed.
    events: VecDeque<(u64, Vec<RoundEvent>)>,
}

/// The feeder's side of a schedule, whichever driver runs it: gathers
/// every node's events ([`HopObserver`]) and completes each round whose
/// backward frame has come home across the clients link.
pub(crate) struct Collector<'a> {
    log: &'a mut RoundLog,
    chain_len: usize,
    /// Per round in flight, the events its nodes reported so far. A
    /// node reports a pass before the pass's frame leaves it, so a
    /// round's events are all in when its backward frame arrives.
    events: HashMap<u64, Vec<RoundEvent>>,
}

impl<'a> Collector<'a> {
    pub(crate) fn new(log: &'a mut RoundLog, chain_len: usize) -> Collector<'a> {
        Collector {
            log,
            chain_len,
            events: HashMap::new(),
        }
    }

    /// Takes what one node reported of one pass.
    pub(crate) fn observe(&mut self, event: RoundEvent) {
        self.events
            .entry(event.public.round)
            .or_default()
            .push(event);
    }

    /// Completes the round `back` answers, fed at `fed`, once it has
    /// crossed the clients link home: logs the tail's observables and the
    /// round's events, and assembles its outcome.
    pub(crate) fn complete(
        &mut self,
        back: BatchFrame,
        trailer: RoundTrailer,
        fed: Instant,
    ) -> RoundOutcome {
        let round = back.round.0;
        let events = self.events.remove(&round).unwrap_or_default();
        let fold = &Fold::of(self.chain_len, events.iter().map(|event| &event.public));
        let busy = |phase| {
            (0..self.chain_len)
                .map(move |hop| fold.get(NodeId::Hop(hop), phase))
                .filter(|tally| tally.passes > 0)
                .map(|tally| tally.busy)
        };
        let timing = RoundTiming {
            forward: busy(Phase::Forward).collect(),
            exchange: busy(Phase::Exchange).sum(),
            backward: busy(Phase::Backward).rev().collect(),
            total: fed.elapsed(),
        };
        if self.log.events.len() == RECORD_ROUNDS {
            self.log.events.pop_front();
        }
        self.log.events.push_back((round, events));
        match trailer {
            RoundTrailer::Conversation(observables) => {
                self.log.conversation.push((round, observables));
                let replies = buf_from_frame(back).to_vecs();
                RoundOutcome::Conversation { replies, timing }
            }
            RoundTrailer::Dialing(observables) => {
                self.log.dialing.push((round, observables));
                RoundOutcome::Dialing { timing }
            }
        }
    }
}

/// Steps `node` with a batch from `from`: where its answer goes, and the
/// answer, a batch too.
fn step(
    node: &mut ServerNode<'_>,
    from: Side,
    frame: BatchFrame,
    observe: &mut HopObserver<'_>,
) -> Result<(Side, BatchFrame), Error> {
    let (to, Frame::Batch(frame), _) = node.on_frame(from, Frame::Batch(frame), observe)? else {
        unreachable!("a batch is answered with a batch")
    };
    Ok((to, frame))
}

/// A frame waiting to cross `links[on]` in [`Chain::run`]'s schedule,
/// and when its round was admitted.
struct Crossing {
    on: usize,
    frame: BatchFrame,
    fed: Instant,
}

/// The frame [`Chain::run`] delivers next, as an index into `queued`
/// (frames in the order they were queued): the head of one non-empty
/// `(link, direction)` FIFO, drawn uniformly, with no draw when only one
/// FIFO holds frames. `None` when nothing is in flight.
fn pick(queued: &[Crossing], rng: &mut StdRng) -> Option<usize> {
    let fifo = |crossing: &Crossing| (crossing.on, crossing.frame.backward);
    let mut heads = (0..queued.len()).filter(|&i| {
        queued[..i]
            .iter()
            .all(|earlier| fifo(earlier) != fifo(&queued[i]))
    });
    match heads.clone().count() {
        0 | 1 => heads.next(),
        count => heads.nth(rng.gen_range(0..count)),
    }
}

/// A full deployment: entry link, server chain, dead-drop stores, links'
/// traffic records.
///
/// Fields are `pub(crate)` so [`crate::pipeline`]'s threaded runner can
/// drive the *same* deployment (same servers, links, seeds) through an
/// overlapped schedule: it lends each server to a node loop and a
/// handle on each link ([`Link`] is one) to that loop's endpoints.
pub struct Chain {
    pub(crate) config: SystemConfig,
    pub(crate) servers: Vec<MixServer>,
    /// `links[0]` connects entry→server 0; `links[i]` connects
    /// server i−1 → server i.
    pub(crate) links: Vec<Link>,
    /// Aggregated clients→entry link.
    pub(crate) client_link: Link,
    /// Base seed for the chain-level per-round RNG.
    pub(crate) seed: u64,
    pub(crate) log: RoundLog,
}

impl Chain {
    /// Builds a chain per `config`, with deterministic server keys and
    /// RNGs derived from `seed`.
    #[must_use]
    pub fn new(config: SystemConfig, seed: u64) -> Chain {
        config.validate();
        let servers = servers_from(&config, seed, 0).collect();
        let links = (0..config.chain_len)
            .map(|i| Link::new(LinkId::Hop(i as u32)))
            .collect();

        Chain {
            config,
            servers,
            links,
            client_link: Link::new(LinkId::Clients),
            seed,
            log: RoundLog::default(),
        }
    }

    /// The chain's public keys, in onion-wrapping order (server 0 first).
    #[must_use]
    pub fn server_public_keys(&self) -> Vec<PublicKey> {
        self.servers.iter().map(MixServer::public_key).collect()
    }

    /// The deployment configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Runs a (possibly mixed) schedule on the calling thread and returns
    /// the per-round [`RoundOutcome`]s in input order: a discrete-event
    /// schedule of the node loop's frame handler, one `ServerNode` per
    /// hop and the entry's relay node. Up to `chain_len` weighted slots
    /// of rounds are in flight (the entry's own limit:
    /// [`crate::engine::admission_weights`], held by an
    /// [`crate::engine::AdmissionWindow`]), with one FIFO of frames per
    /// link and direction. Each step admits every round that fits onto
    /// `links[0]` through the entry, delivers the head of one non-empty
    /// FIFO across its link into the receiving node's handler (home
    /// through the entry, off `links[0]`), and queues the answer on the
    /// link it leaves by; the entry steps inline, so the clients link has
    /// no FIFO. An RNG seeded from the chain
    /// seed alone draws the FIFO, so the same chain replays the same
    /// interleaving; no round's bytes depend on it, and per link and
    /// direction frames keep round order, so taps and hops see what one
    /// spec per call shows them. One spec is the carry loop: one frame in
    /// flight, hop to hop, no draw. No thread, transport or demux is
    /// involved: routing rounds through the threaded node loops raised
    /// `conv_cover`'s `peak_rss_mib` from 11.1 to 16.5–18.6 MiB and
    /// `round_latency_p50_s` from 0.25 to 0.29–0.32 s, and cost about 15%
    /// of `onions_per_s` (a prototype at window 1, 3 pairs of 8 s runs on
    /// a 2-vCPU host).
    ///
    /// Round ids must strictly increase within one call — the wire's
    /// sequencing rule; a later call may start anywhere.
    ///
    /// # Errors
    ///
    /// The first failure — a node refused its frame (the entry a batch
    /// off its round's onion width, `entry::check_client_batch`,
    /// or a dialing round with no drops), or a tap hung a link up
    /// ([`vuvuzela_net::Tap::hangs_up`]) — ends the call, admitting nothing
    /// more, with an [`Abort`] of every round admitted and not completed.
    ///
    /// # Panics
    ///
    /// Panics if round ids do not strictly increase, or a tap panics:
    /// bugs, not aborts.
    pub fn run(&mut self, specs: Vec<RoundSpec>) -> Result<Vec<RoundOutcome>, Abort> {
        assert!(
            specs.windows(2).all(|w| w[0].round() < w[1].round()),
            "round ids must strictly increase within a schedule (duplicate round ids, or a \
             step back)"
        );
        let Chain {
            config,
            servers,
            links,
            client_link,
            seed,
            log,
        } = self;
        let (config, client_link, seed) = (&*config, &*client_link, *seed);
        let shapes: Vec<_> = specs.iter().map(|s| (s.kind(), s.batch_len())).collect();
        let weights = admission_weights(config, config.chain_len, &shapes);
        let mut window = AdmissionWindow::new(config.chain_len);
        let (mut admitted, mut outcomes) = (Vec::new(), Vec::with_capacity(specs.len()));
        let mut specs = specs.into_iter().zip(weights).peekable();
        let mut entry = ServerNode::relay(config, client_link.id(), Some(links[0].id()));
        let mut nodes: Vec<ServerNode> = servers
            .iter_mut()
            .enumerate()
            .map(|(hop, server)| {
                let down = links.get(hop + 1).map(Link::id);
                ServerNode::new(server, config, seed, links[hop].id(), down)
            })
            .collect();
        let mut collector = Collector::new(log, config.chain_len);
        let (mut rng, mut queued) = (schedule_rng(seed), Vec::with_capacity(config.chain_len));

        let mut schedule = || -> Result<(), Error> {
            loop {
                while let Some((spec, weight)) = specs.next_if(|(_, w)| !window.would_block(*w)) {
                    let fed = Instant::now();
                    let (round, kind, Batch::Flat(buf)) = spec.into_parts();
                    admitted.push(round);
                    window.admit(round, weight);
                    let mut frame =
                        frame_from_buf(client_link.id(), round, kind, false, buf, vec![]);
                    batch_through_link(client_link, &mut frame)?;
                    let mut observe = |event| collector.observe(event);
                    let (_, frame) = step(&mut entry, Side::Upstream, frame, &mut observe)?;
                    queued.push(Crossing { on: 0, frame, fed });
                }
                let Some(next) = pick(&queued, &mut rng) else {
                    return Ok(());
                };
                let Crossing { on, mut frame, fed } = queued.remove(next);
                batch_through_link(&links[on], &mut frame)?;
                // Forward into hop `on`; backward out of it, or home.
                let (hop, from) = match (frame.backward, on) {
                    (false, _) => (on, Side::Upstream),
                    (true, 0) => {
                        let mut observe = |event| collector.observe(event);
                        let (_, mut home) =
                            step(&mut entry, Side::Downstream, frame, &mut observe)?;
                        batch_through_link(client_link, &mut home)?;
                        window.complete(home.round.0);
                        let trailer =
                            RoundTrailer::decode(&home.trailer).expect("the tail's own trailer");
                        outcomes.push(collector.complete(home, trailer, fed));
                        continue;
                    }
                    (true, _) => (on - 1, Side::Downstream),
                };
                let mut observe = |event| collector.observe(event);
                let (to, frame) = step(&mut nodes[hop], from, frame, &mut observe)?;
                let on = match to {
                    Side::Upstream => hop,
                    Side::Downstream => hop + 1,
                };
                queued.push(Crossing { on, frame, fed });
            }
        };
        // Rounds complete in admission order.
        schedule().map_err(|err| Abort::new(vec![err], admitted.split_off(outcomes.len())))?;
        Ok(outcomes)
    }

    /// [`Chain::run`] of one round, panicking on its [`Abort`]. It exists
    /// only because `benchmark/` calls it; new code calls `run`.
    ///
    /// # Panics
    ///
    /// Panics with the abort's text, and wherever `run` panics.
    pub fn run_round(&mut self, spec: RoundSpec) -> RoundOutcome {
        self.run(vec![spec])
            .unwrap_or_else(|abort| panic!("{abort}"))
            .remove(0)
    }

    /// Downloads one invitation drop (§5.5) of the most recent dialing
    /// round the tail completed ([`MixServer::invitation_drops`]), even in
    /// a schedule that later aborted. Returns `None` if there is none or
    /// the index is invalid.
    pub fn download_drop(&self, index: InvitationDropIndex) -> Option<Vec<SealedInvitation>> {
        let (_, drops) = self.servers.last()?.invitation_drops()?;
        Some(drops.download(index)?.to_vec())
    }

    /// Number of real drops in the tail's most recent dialing round (see
    /// [`Chain::download_drop`]).
    #[must_use]
    pub fn current_num_drops(&self) -> Option<u32> {
        let (_, drops) = self.servers.last()?.invitation_drops()?;
        Some(drops.num_drops())
    }

    /// Everything a compromised last server would have recorded about
    /// conversation rounds: per-round (m1, m2) histograms.
    #[must_use]
    pub fn conversation_observables(&self) -> &[(u64, ConversationObservables)] {
        &self.log.conversation
    }

    /// Per-round dialing observables (per-drop invitation counts).
    #[must_use]
    pub fn dialing_observables(&self) -> &[(u64, DialingObservables)] {
        &self.log.dialing
    }

    /// The round record of a completed round: every pass each node ran
    /// for it, the entry's relays included, in the order the passes were
    /// reported. Empty for a round that did not complete, or one older
    /// than the newest 4 096 completed. The events' [`crate::record::Operator`]
    /// parts are the servers' secret noise draws: the attack harness
    /// hands them only to an attacker that owns the server.
    #[must_use]
    pub fn round_record(&self, round: u64) -> &[RoundEvent] {
        self.log
            .events
            .iter()
            .rev()
            .find(|(completed, _)| *completed == round)
            .map_or(&[], |(_, events)| events.as_slice())
    }

    /// Mutable access to an inter-server link (0 = entry→server 0) for
    /// attaching adversary taps.
    pub fn link_mut(&mut self, index: usize) -> &mut Link {
        &mut self.links[index]
    }

    /// Mutable access to the aggregated clients→entry link.
    pub fn client_link_mut(&mut self) -> &mut Link {
        &mut self.client_link
    }

    /// The clients→entry link (its traffic record and tap).
    #[must_use]
    pub fn client_link(&self) -> &Link {
        &self.client_link
    }

    /// The inter-server links (their traffic records and taps).
    #[must_use]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Total bytes moved across the clients link and every chain link
    /// (both directions) — the "server bandwidth" of §8.2.
    #[must_use]
    pub fn total_server_bytes(&self) -> u64 {
        self.client_link.total_bytes() + self.links.iter().map(Link::total_bytes).sum::<u64>()
    }

    /// Diagnostic access to a server (e.g. malformed-request counters).
    #[must_use]
    pub fn server(&self, index: usize) -> &MixServer {
        &self.servers[index]
    }

    /// Discards every server's in-flight round state, returning the
    /// total number of `(server, round)` states dropped.
    ///
    /// This defines the deployment's **round-abort semantics** after a
    /// failed schedule: when a run returns an [`Abort`] (a hop refused a
    /// frame, a link hung up under a crashed server), the rounds it
    /// names are dead — no replies will ever reach clients, and which
    /// servers still hold forward state for which rounds depends on
    /// where the pipeline stopped. A recovering deployment calls this,
    /// has its clients expire the dead rounds' reply keys
    /// ([`crate::cohort::ClientCohort::expire_pending`]), and schedules
    /// fresh round numbers; client-level retransmission (§3.1) then
    /// re-carries any data the aborted rounds lost.
    pub fn abort_in_flight_rounds(&mut self) -> usize {
        self.servers
            .iter_mut()
            .map(MixServer::abort_all_rounds)
            .sum()
    }

    /// Total in-flight entries adversary taps resized (truncated,
    /// extended, or injected with a non-onion size) while editing a
    /// frame's arena in place: every inter-hop link plus the
    /// entry→clients reply leg. Each such entry's slot was zero-filled
    /// by the link's `Slots` view, which downstream peeling replaces
    /// with noise. Tampering on the
    /// clients→entry request leg is *not* counted — entry sizes there
    /// are client-controlled, so a size mismatch cannot be attributed
    /// to the tap (the entries are still zero-filled and replaced
    /// downstream all the same).
    #[must_use]
    pub fn tap_resized(&self) -> u64 {
        self.client_link.tap_resized() + self.links.iter().map(Link::tap_resized).sum::<u64>()
    }
}

/// The chain's server keypairs as a pure function of `(chain_len,
/// seed)` — one sequential `StdRng` stream, exactly as [`Chain::new`]
/// has always drawn them. Factored out so a distributed deployment
/// (every server its own OS process) derives byte-identical keys from
/// the shared config without ever holding the whole chain: clients use
/// the public halves, server *i* keeps only its own secret.
#[must_use]
pub fn server_keypairs(chain_len: usize, seed: u64) -> Vec<Keypair> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..chain_len)
        .map(|_| Keypair::generate(&mut rng))
        .collect()
}

/// Builds the mix server at `position` with the deterministic key and
/// per-server seed scheme shared by every execution mode (sequential
/// chain, streaming pipeline, transport-backed node).
#[must_use]
pub fn build_server(config: &SystemConfig, seed: u64, position: usize) -> MixServer {
    servers_from(config, seed, position)
        .next()
        .expect("position in range")
}

/// The chain's servers from `first` on: the one recipe behind
/// [`build_server`] and [`Chain::new`], keypairs derived once.
fn servers_from(
    config: &SystemConfig,
    seed: u64,
    first: usize,
) -> impl Iterator<Item = MixServer> + '_ {
    let keypairs = server_keypairs(config.chain_len, seed);
    let publics: Vec<PublicKey> = keypairs.iter().map(|kp| kp.public).collect();
    keypairs
        .into_iter()
        .enumerate()
        .skip(first)
        .map(move |(position, keypair)| {
            MixServer::new(
                position,
                config.chain_len,
                keypair,
                publics[position + 1..].to_vec(),
                config.clone(),
                seed.wrapping_add(1 + position as u64),
            )
        })
}

/// Replays the round RNG of the server at `position` in a chain seeded
/// with `seed` — the same `(seed, position, round)` derivation
/// [`build_server`] wires into every [`MixServer`]. In an honest
/// conversation round the first two 64-bit words this RNG yields are
/// exactly the uniforms behind that server's `n1`/`n2` Laplace noise
/// draws — the `(n1 + n2 % 2, n2 / 2)` that its forward pass reports as
/// its [`crate::record::Operator`] draw ([`Chain::round_record`]) — which lets tests and
/// measurement harnesses replay a deployment's noise streams without
/// running the chain.
#[must_use]
pub fn server_round_rng(seed: u64, position: usize, round: u64) -> StdRng {
    crate::server::round_rng(seed.wrapping_add(1 + position as u64), round)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;
    use vuvuzela_crypto::onion;
    use vuvuzela_dp::{NoiseDistribution, NoiseMode};
    use vuvuzela_net::link::Direction;
    use vuvuzela_wire::conversation::ExchangeRequest;
    use vuvuzela_wire::dialing::DialRequest;
    use vuvuzela_wire::{EXCHANGE_REQUEST_LEN, EXCHANGE_RESPONSE_LEN, SEALED_MESSAGE_LEN};

    fn tiny_config(chain_len: usize) -> SystemConfig {
        SystemConfig {
            chain_len,
            conversation_noise: NoiseDistribution::new(4.0, 1.0),
            dialing_noise: NoiseDistribution::new(2.0, 1.0),
            noise_mode: NoiseMode::Deterministic,
            workers: 2,
            conversation_slots: 1,
            retransmit_after: 2,
            exchange_shards: 4,
        }
    }

    /// Lays per-message onions into a `kind` round's arena over
    /// `chain_len` servers: an entry of any other size becomes a
    /// zero-filled slot.
    fn arena(kind: RoundKind, chain_len: usize, onions: &[Vec<u8>]) -> RoundBuffer {
        let width = onion::wrapped_len(kind.payload_len(), chain_len);
        RoundBuffer::from_vecs(onions, width, width).0
    }

    /// One conversation round, as one spec handed to [`Chain::run`].
    fn converse(chain: &mut Chain, round: u64, batch: RoundBuffer) -> RoundOutcome {
        let spec = RoundSpec::Conversation {
            round,
            batch: batch.into(),
        };
        chain.run(vec![spec]).expect("round completes").remove(0)
    }

    #[test]
    fn conversation_round_roundtrips_an_exchange() {
        let mut chain = Chain::new(tiny_config(3), 1);
        let pks = chain.server_public_keys();
        let mut rng = StdRng::seed_from_u64(99);

        // Two clients agree (out of band) on a dead drop and deposit
        // distinguishable messages.
        let drop = vuvuzela_wire::deaddrop::DeadDropId([9u8; 16]);
        let make = |fill: u8, rng: &mut StdRng| {
            let request = ExchangeRequest {
                drop,
                sealed_message: vec![fill; SEALED_MESSAGE_LEN],
            };
            onion::wrap(rng, &pks, 0, &request.encode())
        };
        let (onion_a, keys_a) = make(0xAA, &mut rng);
        let (onion_b, keys_b) = make(0xBB, &mut rng);

        let batch = arena(RoundKind::Conversation, 3, &[onion_a, onion_b]);
        let outcome = converse(&mut chain, 0, batch);
        let replies = outcome.replies().expect("a conversation round");
        assert_eq!(replies.len(), 2);
        assert_eq!(outcome.timing().forward.len(), 3);
        assert_eq!(outcome.timing().backward.len(), 3);

        let a_reply = onion::unwrap_reply_layers(&keys_a, 0, &replies[0]).expect("a unwraps");
        let b_reply = onion::unwrap_reply_layers(&keys_b, 0, &replies[1]).expect("b unwraps");
        assert_eq!(a_reply, vec![0xBB; EXCHANGE_RESPONSE_LEN]);
        assert_eq!(b_reply, vec![0xAA; EXCHANGE_RESPONSE_LEN]);

        // Observables: one drop accessed twice, noise singles/pairs from
        // two noising servers (µ=4 → 4 singles + 2 pairs each).
        let (_, obs) = chain.conversation_observables()[0];
        assert_eq!(obs.total_requests, 2 + 2 * 8);
        assert_eq!(obs.m2 as i64, 1 + 2 * 2, "real pair + 2 noise pairs/server");
        assert_eq!(obs.m1, 2 * 4);
    }

    #[test]
    fn lone_exchange_gets_undecryptable_filler() {
        let mut chain = Chain::new(tiny_config(2), 2);
        let pks = chain.server_public_keys();
        let mut rng = StdRng::seed_from_u64(5);
        let request = ExchangeRequest {
            drop: vuvuzela_wire::deaddrop::DeadDropId([1u8; 16]),
            sealed_message: vec![0x77; SEALED_MESSAGE_LEN],
        };
        let (onion0, keys) = onion::wrap(&mut rng, &pks, 3, &request.encode());
        let outcome = converse(&mut chain, 3, arena(RoundKind::Conversation, 2, &[onion0]));
        let replies = outcome.replies().expect("a conversation round");
        let reply = onion::unwrap_reply_layers(&keys, 3, &replies[0]).expect("unwraps");
        assert_eq!(reply.len(), EXCHANGE_RESPONSE_LEN);
        assert_ne!(reply, vec![0x77; EXCHANGE_RESPONSE_LEN], "not an echo");
    }

    #[test]
    fn empty_round_still_carries_noise() {
        let mut chain = Chain::new(tiny_config(3), 3);
        let outcome = converse(&mut chain, 0, arena(RoundKind::Conversation, 3, &[]));
        assert_eq!(outcome.replies().map(<[_]>::len), Some(0));
        let (_, obs) = chain.conversation_observables()[0];
        // Two noising servers × (4 singles + 2 pairs × 2 requests) = 16.
        assert_eq!(obs.total_requests, 16);
    }

    #[test]
    fn single_server_chain_works() {
        // chain_len = 1: the one server is the last server; no noise, no
        // mixing — degenerate but must function (Figure 11's x = 1).
        let mut chain = Chain::new(tiny_config(1), 4);
        let pks = chain.server_public_keys();
        let mut rng = StdRng::seed_from_u64(6);
        let request = ExchangeRequest::noise(&mut rng);
        let (onion0, keys) = onion::wrap(&mut rng, &pks, 0, &request.encode());
        let outcome = converse(&mut chain, 0, arena(RoundKind::Conversation, 1, &[onion0]));
        let replies = outcome.replies().expect("a conversation round");
        let reply = onion::unwrap_reply_layers(&keys, 0, &replies[0]).expect("unwraps");
        assert_eq!(reply.len(), EXCHANGE_RESPONSE_LEN);
    }

    /// A dialing round carrying one real invitation: the spec, the callee's
    /// drop, and a check that a drop holds just that one for the callee.
    fn dial(
        chain: &Chain,
        round: u64,
        num_drops: u32,
        rng: &mut StdRng,
    ) -> (
        RoundSpec,
        InvitationDropIndex,
        impl Fn(&[SealedInvitation]) -> bool,
    ) {
        let caller = Keypair::generate(rng);
        let callee = Keypair::generate(rng);
        let drop = InvitationDropIndex::for_recipient(&callee.public, num_drops);
        let invitation = SealedInvitation::seal(rng, &caller.public, &callee.public);
        let request = DialRequest { drop, invitation }.encode();
        let (onion0, _) = onion::wrap(rng, &chain.server_public_keys(), round, &request);
        let kind = RoundKind::Dialing { num_drops };
        let batch = arena(kind, chain.config().chain_len, &[onion0]).into();
        let opens = move |contents: &[SealedInvitation]| {
            let opened = contents.iter();
            let opened = opened.filter_map(|inv| inv.try_open(&callee.secret, &callee.public));
            opened.collect::<Vec<_>>() == [caller.public]
        };
        let spec = RoundSpec::Dialing {
            round,
            batch,
            num_drops,
        };
        (spec, drop, opens)
    }

    #[test]
    fn dialing_round_delivers_invitations() {
        let mut chain = Chain::new(tiny_config(3), 7);
        let (spec, target, opens) = dial(&chain, 10, 2, &mut StdRng::seed_from_u64(8));
        let outcome = chain.run(vec![spec]).expect("round completes").remove(0);
        assert_eq!(outcome.timing().forward.len(), 3);

        let contents = chain.download_drop(target).expect("drop exists");
        // 1 real + 3 servers × µ_dial(=2) noise.
        assert_eq!(contents.len(), 1 + 6);
        assert!(opens(&contents), "the callee's invitation, once");

        // Observables: every drop got 3µ noise; the target also got the
        // real invitation.
        let (_, obs) = &chain.dialing_observables()[0];
        assert_eq!(obs.counts.len(), 2);
        assert_eq!(obs.counts.iter().sum::<u64>(), 2 * 6 + 1);
    }

    #[test]
    fn garbage_batch_does_not_crash_the_chain() {
        let mut chain = Chain::new(tiny_config(2), 9);
        let mut rng = StdRng::seed_from_u64(10);
        let mut garbage = vec![0u8; 500];
        rng.fill_bytes(&mut garbage);
        let batch = arena(
            RoundKind::Conversation,
            2,
            &[garbage, vec![], vec![1, 2, 3]],
        );
        let outcome = converse(&mut chain, 0, batch);
        assert_eq!(
            outcome.replies().map(<[_]>::len),
            Some(3),
            "alignment preserved under garbage"
        );
        assert_eq!(chain.server(0).malformed_replaced, 3);
        // The clients link carries what the wire entry's client leg
        // carries: three slots at the onion width, whatever was in them.
        let width = onion::wrapped_len(EXCHANGE_REQUEST_LEN, 2) as u64;
        assert_eq!(
            chain.client_link().round_traffic(0, Direction::Forward),
            (3, 3 * width)
        );
    }

    /// Rounds 0 and 2 are conversations; round 1 dials into no drops,
    /// which the entry refuses.
    fn refused_schedule() -> Vec<RoundSpec> {
        let no_drops = RoundKind::Dialing { num_drops: 0 };
        vec![
            RoundSpec::Conversation {
                round: 0,
                batch: arena(RoundKind::Conversation, 2, &[]).into(),
            },
            RoundSpec::Dialing {
                round: 1,
                batch: arena(no_drops, 2, &[]).into(),
                num_drops: 0,
            },
            RoundSpec::Conversation {
                round: 2,
                batch: arena(RoundKind::Conversation, 2, &[]).into(),
            },
        ]
    }

    fn completed(chain: &Chain) -> Vec<u64> {
        chain
            .conversation_observables()
            .iter()
            .map(|(round, _)| *round)
            .collect()
    }

    #[test]
    fn refused_round_aborts_the_run_and_admits_nothing_after_it() {
        // One spec per call is window 1: the caller stops at the abort.
        let mut chain = Chain::new(tiny_config(2), 14);
        let abort = refused_schedule()
            .into_iter()
            .find_map(|spec| chain.run(vec![spec]).err())
            .expect("the entry refuses no drops");
        assert_eq!(abort.rounds, vec![1]);
        assert!(
            matches!(abort.cause, Error::Protocol { link, .. } if link == LinkId::Clients),
            "{abort}"
        );
        assert_eq!(completed(&chain), vec![0], "round 2 is never admitted");

        // The whole schedule in one call, window 2: round 0 is still in
        // flight when the entry refuses round 1, and round 2 never fits in.
        let mut chain = Chain::new(tiny_config(2), 14);
        let abort = chain
            .run(refused_schedule())
            .expect_err("the entry refuses no drops");
        assert_eq!(abort.rounds, vec![0, 1]);
        assert_eq!(
            abort.cause.to_string(),
            "protocol violation on clients->entry: round 1 is a dialing round with no drops"
        );
        assert_eq!(completed(&chain), Vec::<u64>::new());
    }

    #[test]
    fn stride_padded_batch_is_refused_as_on_the_wire() {
        // A cohort-width arena with stride headroom: `run_entry_node`
        // refuses its frame, and both in-process runtimes step that node.
        let width = onion::wrapped_len(EXCHANGE_REQUEST_LEN, 2);
        let padded = || {
            let mut padded = RoundBuffer::new(width + 16, width);
            padded.push_with(|_| {});
            let batch = padded.into();
            vec![RoundSpec::Conversation { round: 0, batch }]
        };
        let mut chain = Chain::new(tiny_config(2), 13);
        let mut streaming = crate::pipeline::StreamingChain::new(tiny_config(2), 13);
        for run in [chain.run(padded()), streaming.run(padded())] {
            let abort = run.expect_err("the entry refuses the batch");
            assert_eq!(abort.rounds, vec![0]);
            let Error::Protocol { link, reason } = &abort.cause else {
                panic!("expected a protocol error: {abort}")
            };
            assert_eq!(*link, LinkId::Clients);
            assert!(reason.contains("client batch geometry"), "{reason}");
        }
    }

    #[test]
    fn drops_the_tail_kept_outlive_a_later_abort() {
        // One server, so window 1: dialing round 0 completes at the tail
        // before the entry refuses round 1. The tail keeps round 0's
        // drops, and clients download them, although the schedule aborted.
        let mut chain = Chain::new(tiny_config(1), 15);
        let (dialing, target, opens) = dial(&chain, 0, 2, &mut StdRng::seed_from_u64(16));
        let batch = arena(RoundKind::Dialing { num_drops: 0 }, 1, &[]).into();
        let refused = RoundSpec::Dialing {
            round: 1,
            batch,
            num_drops: 0,
        };
        let abort = chain.run(vec![dialing, refused]).expect_err("no drops");
        assert_eq!(abort.rounds, vec![1], "{abort}");
        let kept = chain.server(0).invitation_drops().map(|(round, _)| round);
        assert_eq!(kept, Some(0));
        assert_eq!(chain.current_num_drops(), Some(2));
        assert!(opens(&chain.download_drop(target).expect("round 0's drop")));
    }

    #[test]
    fn bandwidth_meters_accumulate() {
        let mut chain = Chain::new(tiny_config(2), 11);
        let pks = chain.server_public_keys();
        let mut rng = StdRng::seed_from_u64(12);
        let payload = ExchangeRequest::noise(&mut rng).encode();
        let (onion0, _) = onion::wrap(&mut rng, &pks, 0, &payload);
        let before = chain.total_server_bytes();
        converse(&mut chain, 0, arena(RoundKind::Conversation, 2, &[onion0]));
        assert!(chain.total_server_bytes() > before);
        // The server0→server1 link carries real + server0 noise.
        assert!(chain.links()[1].round_traffic(0, Direction::Forward).0 > 1);
    }
}
