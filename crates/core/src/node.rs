//! The node loop: what every node of every overlapped deployment runs.
//!
//! A node's side of the round protocol is one frame handler
//! (`ServerNode::on_frame`), and one private pump drives it from the
//! node's two links through the [`vuvuzela_net::Transport`] seam.
//! [`run_server_node`] runs a mix server that way, and [`run_entry_node`]
//! runs the untrusted entry (§7) as a *relay* of the same handler: a
//! node with no [`crate::engine::RoundEngine`], which holds client
//! batches to their round's onion width and relays every frame,
//! relabelled, without reading it. [`feed_window`] is the client side
//! that feeds the entry. The one loop runs over the framed TCP backend
//! (the `vuvuzela server`, `entry` and `client` roles, one OS process
//! per node), and on scoped threads fed by the calling thread in
//! [`crate::pipeline`]'s one threaded runner — over loopback TCP
//! ([`crate::pipeline::run_over_loopback`], the simulator's wire twin)
//! or over in-memory endpoints ([`crate::pipeline::StreamingChain`]):
//! the threaded twin of [`crate::chain::Chain::run`], which calls each
//! node's handler
//! itself, the entry's included, rounds in flight in the one
//! interleaving its seeded scheduler picks — the same checks, steps and
//! trailers, with no thread or transport. The round recipe itself lives
//! in the shared [`crate::engine::RoundEngine`]; this module only moves
//! frames, holds its peers to the protocol, leaves the tail's drops on
//! its server, and tells its caller what each pass did: one
//! [`RoundEvent`] per pass ([`HopObserver`], [`crate::record`]).
//!
//! ## Wire protocol
//!
//! Rounds travel as [`BatchFrame`]s. The entry admits client batches,
//! re-frames them onto hop 0, and each server peels, noises and shuffles
//! them forward. The last server runs each round's tail — the dead-drop
//! exchange for conversations, the invitation deposit for dialing — and
//! turns the round around: a backward frame carrying the replies (or a
//! zero-count *completion* frame for forward-only dialing rounds) walks
//! the chain back to the entry, each server applying its backward pass
//! to conversation replies and relaying dialing completions untouched,
//! and the entry relaying both to the client side.
//!
//! The observables the compromised-last-server threat model exposes
//! ride the backward frame's opaque `trailer`, encoded as a
//! [`RoundTrailer`]: intermediate hops forward it byte-for-byte, so the
//! feeder sees exactly what the tail measured.
//!
//! ## Windowed rounds
//!
//! Up to `chain_len` rounds may be in flight at once (§8.2: the chain is
//! sequential *within* a round, so throughput comes from overlapping
//! consecutive rounds across hops). [`feed_window`] paces admission
//! with [`crate::engine::AdmissionWindow`]; the entry refuses a client
//! batch that would put more than `chain_len` rounds in flight
//! (deterministically — the decision depends only on the rounds relayed
//! and not yet answered, never on timing).
//! Because links carry interleaved rounds, each node merges its links
//! into one event queue through [`vuvuzela_net::Demux`], which keeps
//! every socket's receive side drained — the deadlock-freedom argument
//! for blocking sends. Frame order per link and direction follows
//! [`vuvuzela_wire::sequence`]'s rules, asserted here with
//! [`RoundSequencer`]s on the forward legs and admission-order matching
//! of `(round, protocol)` on the backward legs.
//!
//! ## Shutdown, orderly and not
//!
//! Shutdown is a bidirectional [`Frame::Bye`] handshake: the client
//! side sends the forward `Bye` after its last batch, each node relays
//! it downstream (FIFO guarantees no batch is abandoned behind it), the
//! tail answers with the backward `Bye` after its last backward frame,
//! and each node — the entry included — relays that upstream once every
//! round it forwarded has come back, so a node returning its
//! [`NodeStats`] has provably finished every admitted round, and the
//! client side sees the backward `Bye` last.
//!
//! A node that stops any other way — protocol error, transport failure,
//! a panic unwinding through it — hangs up both its links as it goes
//! ([`Transport::hang_up`], from its [`Demux`]'s drop). Its neighbours'
//! next `recv` fails with [`Error::Disconnected`] naming the link, they
//! stop in turn, and the failure reaches both ends of the chain without
//! a timer.

use crate::chain::RoundTiming;
use crate::config::SystemConfig;
use crate::engine::{admission_weights, AdmissionWindow, EngineStep, RoundEngine};
use crate::entry;
use crate::observables::{ConversationObservables, DialingObservables};
use crate::record::{NodeId, Operator, Phase, Public, RoundEvent, Traffic};
use crate::roundbuf::RoundBuffer;
use crate::server::{MixServer, RoundKind};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vuvuzela_crypto::onion;
use vuvuzela_net::{Demux, Error, Transport};
use vuvuzela_wire::{BatchFrame, Frame, LinkId, RoundId, RoundSequencer, RoundType, MAX_FRAME_LEN};

/// The tail's per-round observables, encoded into the backward frame's
/// opaque trailer and relayed untouched by every intermediate hop.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RoundTrailer {
    /// A conversation round's dead-drop access histogram.
    Conversation(ConversationObservables),
    /// A dialing round's per-drop invitation counts.
    Dialing(DialingObservables),
}

const TRAILER_CONVERSATION: u8 = 1;
const TRAILER_DIALING: u8 = 2;

impl RoundTrailer {
    /// Serializes to the trailer byte format (tag byte + little-endian
    /// counts).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        match self {
            RoundTrailer::Conversation(obs) => {
                let mut out = Vec::with_capacity(1 + 4 * 8);
                out.push(TRAILER_CONVERSATION);
                for v in [obs.m1, obs.m2, obs.m_many, obs.total_requests] {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                out
            }
            RoundTrailer::Dialing(obs) => {
                let mut out = Vec::with_capacity(1 + 8 + 4 + 8 * obs.counts.len());
                out.push(TRAILER_DIALING);
                out.extend_from_slice(&obs.noop_writes.to_le_bytes());
                out.extend_from_slice(&(obs.counts.len() as u32).to_le_bytes());
                for count in &obs.counts {
                    out.extend_from_slice(&count.to_le_bytes());
                }
                out
            }
        }
    }

    /// Parses a trailer produced by [`RoundTrailer::encode`].
    ///
    /// # Errors
    ///
    /// A description of the malformation (bad tag, truncation, trailing
    /// bytes).
    pub fn decode(bytes: &[u8]) -> Result<RoundTrailer, String> {
        let take_u64 = |bytes: &[u8], at: usize| -> Result<u64, String> {
            bytes
                .get(at..at + 8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
                .ok_or_else(|| "truncated round trailer".to_string())
        };
        match bytes.first() {
            Some(&TRAILER_CONVERSATION) => {
                if bytes.len() != 1 + 4 * 8 {
                    return Err("conversation trailer has wrong length".to_string());
                }
                Ok(RoundTrailer::Conversation(ConversationObservables {
                    m1: take_u64(bytes, 1)?,
                    m2: take_u64(bytes, 9)?,
                    m_many: take_u64(bytes, 17)?,
                    total_requests: take_u64(bytes, 25)?,
                }))
            }
            Some(&TRAILER_DIALING) => {
                let noop_writes = take_u64(bytes, 1)?;
                let n = bytes
                    .get(9..13)
                    .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
                    .ok_or("truncated round trailer")? as usize;
                if bytes.len() != 13 + 8 * n {
                    return Err("dialing trailer has wrong length".to_string());
                }
                let counts = (0..n)
                    .map(|i| take_u64(bytes, 13 + 8 * i))
                    .collect::<Result<Vec<u64>, String>>()?;
                Ok(RoundTrailer::Dialing(DialingObservables {
                    counts,
                    noop_writes,
                }))
            }
            Some(tag) => Err(format!("unknown round-trailer tag {tag}")),
            None => Err("empty round trailer".to_string()),
        }
    }

    /// The protocol whose rounds carry this trailer.
    #[must_use]
    pub fn round_type(&self) -> RoundType {
        match self {
            RoundTrailer::Conversation(_) => RoundType::Conversation,
            RoundTrailer::Dialing(_) => RoundType::Dialing,
        }
    }
}

/// What one node processed before its orderly [`Frame::Bye`] shutdown:
/// a fold over the node's own [`RoundEvent`]s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Conversation rounds completed.
    pub conversation_rounds: u64,
    /// Dialing rounds completed.
    pub dialing_rounds: u64,
}

impl NodeStats {
    /// Folds in one of the node's events. A round is done at a node
    /// with the node's one pass whose frame goes back toward the
    /// clients ([`Public::backward`]).
    fn count(&mut self, event: &Public) {
        if event.backward {
            match event.protocol {
                RoundType::Conversation => self.conversation_rounds += 1,
                RoundType::Dialing => self.dialing_rounds += 1,
            }
        }
    }
}

fn protocol(link: LinkId, reason: impl Into<String>) -> Error {
    Error::Protocol {
        link,
        reason: reason.into(),
    }
}

/// The most drops a dialing round under `config` may announce: the
/// cover traffic they ask of a hop — dialing µ per drop, counted as at
/// least one onion, at the chain's full dialing onion width — must fit
/// one frame ([`MAX_FRAME_LEN`]), or the round could not be forwarded.
fn max_drops(config: &SystemConfig) -> u64 {
    let width = onion::wrapped_len(vuvuzela_wire::DIAL_REQUEST_LEN, config.chain_len);
    let per_drop = config.dialing_noise.mu.max(1.0) * width as f64;
    (MAX_FRAME_LEN as f64 / per_drop) as u64
}

/// The round kind a forward frame arriving on `link` announces. A
/// dialing round needs at least one real drop (§5.4's `m`), and at most
/// `max_drops` ([`max_drops`]); one outside is refused here, before any
/// noise draw, drop table or deposit is sized by it.
fn round_kind(link: LinkId, frame: &BatchFrame, max_drops: u64) -> Result<RoundKind, Error> {
    let round = frame.round.0;
    match (frame.round_type, frame.num_drops) {
        (RoundType::Conversation, _) => Ok(RoundKind::Conversation),
        (RoundType::Dialing, 0) => Err(protocol(
            link,
            format!("round {round} is a dialing round with no drops"),
        )),
        (RoundType::Dialing, num_drops) if u64::from(num_drops) > max_drops => Err(protocol(
            link,
            format!(
                "round {round} is a dialing round with {num_drops} drops, over the \
                 {max_drops} whose cover traffic fits one frame"
            ),
        )),
        (RoundType::Dialing, num_drops) => Ok(RoundKind::Dialing { num_drops }),
    }
}

/// Packs a round arena into a batch frame addressed to `link`,
/// preserving the arena's exact `(stride, width, len)` geometry so the
/// receiver reconstructs a byte-identical [`RoundBuffer`].
pub(crate) fn frame_from_buf(
    link: LinkId,
    round: u64,
    kind: RoundKind,
    backward: bool,
    buf: RoundBuffer,
    trailer: Vec<u8>,
) -> BatchFrame {
    let (payload, stride, width, len) = buf.into_raw();
    BatchFrame {
        link,
        round: RoundId(round),
        round_type: kind.round_type(),
        num_drops: kind.num_drops(),
        backward,
        stride: stride as u32,
        width: width as u32,
        count: len as u32,
        payload,
        trailer,
    }
}

/// Reconstructs the round arena a peer packed into `frame`, zero-copy.
///
/// # Panics
///
/// On geometry [`RoundBuffer::from_raw`] refuses; a caller holds a
/// peer's frame to the width and stride its hop expects first.
pub(crate) fn buf_from_frame(frame: BatchFrame) -> RoundBuffer {
    RoundBuffer::from_raw(
        frame.payload,
        frame.stride as usize,
        frame.width as usize,
        frame.count as usize,
    )
}

/// Which neighbour a frame arrived from or is bound for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Side {
    /// The upstream neighbour (clients for the entry, the previous hop
    /// for a server).
    Upstream,
    /// The downstream neighbour (the next hop).
    Downstream,
}

/// What a node hands its caller after every pass it runs, before the
/// pass's frame leaves: the pass's [`RoundEvent`]. A dialing round's
/// drops stay on the tail ([`MixServer::invitation_drops`]).
pub type HopObserver<'a> = dyn FnMut(RoundEvent) + 'a;

/// The onions and bytes a batch frame carries, as a link counts them.
fn traffic(frame: &BatchFrame) -> Traffic {
    Traffic {
        onions: u64::from(frame.count),
        bytes: u64::from(frame.count) * u64::from(frame.width),
    }
}

/// The time a pass the engine ran measured: its one entry of `passes`.
fn elapsed(passes: &[Duration]) -> Duration {
    passes.iter().sum()
}

/// The events of the passes one frame sets off at a node, on their way
/// to its observer: the first pass read the frame, and each one after
/// it was handed its input by the pass before.
struct Passes<'o, 'a> {
    next: Public,
    observer: &'o mut HopObserver<'a>,
}

impl<'o, 'a> Passes<'o, 'a> {
    fn new(node: NodeId, frame: &BatchFrame, observer: &'o mut HopObserver<'a>) -> Self {
        let next = Public {
            round: frame.round.0,
            node,
            protocol: frame.round_type,
            phase: Phase::Relay,
            backward: false,
            duration: Duration::ZERO,
            received: traffic(frame),
            sent: Traffic::default(),
        };
        Passes { next, observer }
    }

    /// One pass: what it did, how long it took, the frame it sent, if
    /// any, and the cover traffic it drew.
    fn emit(
        &mut self,
        phase: Phase,
        duration: Duration,
        sent: Option<&BatchFrame>,
        operator: Option<Operator>,
    ) {
        let public = Public {
            phase,
            duration,
            backward: sent.is_some_and(|frame| frame.backward),
            sent: sent.map_or_else(Traffic::default, traffic),
            ..self.next
        };
        self.next.received = Traffic::default();
        (self.observer)(RoundEvent { public, operator });
    }
}

/// One node's side of the round protocol, one frame at a time: every
/// check, step and trailer a hop applies, and nothing that moves frames.
/// A mix server's node drives its [`RoundEngine`]; the entry's node has
/// none and relays (§7: it "handles only opaque bytes"). The one pump
/// behind [`run_server_node`] and [`run_entry_node`] runs it on whatever
/// its links deliver; [`crate::chain::Chain::run`] delivers each node its
/// frames itself, the entry's included, on the calling thread, in the
/// order its seeded scheduler draws.
pub(crate) struct ServerNode<'a> {
    /// `None` for the entry, which relays.
    engine: Option<RoundEngine<'a>>,
    /// Which node this is, as its events name it.
    id: NodeId,
    /// The chain's length: the entry's client-batch geometry and how
    /// many rounds it lets into the chain at once.
    chain_len: usize,
    /// The most drops a dialing round may announce ([`max_drops`]).
    max_drops: u64,
    up_link: LinkId,
    /// `None` for the chain's tail.
    down_link: Option<LinkId>,
    forward_seq: RoundSequencer,
    /// Rounds forwarded downstream whose backward frame is still out;
    /// backward frames must return in exactly this order (see the wire
    /// crate's sequencing rules), each of its round's own protocol.
    pending: VecDeque<(u64, RoundType)>,
    upstream_done: bool,
}

impl<'a> ServerNode<'a> {
    /// A node for `server`, between the links `up_link` and `down_link`
    /// (`None` for the tail). `seed` is the *chain* seed shared by the
    /// whole deployment (see [`run_server_node`]).
    pub(crate) fn new(
        server: &'a mut MixServer,
        config: &SystemConfig,
        seed: u64,
        up_link: LinkId,
        down_link: Option<LinkId>,
    ) -> ServerNode<'a> {
        ServerNode {
            id: NodeId::Hop(server.position()),
            engine: Some(RoundEngine::new(server, config, seed)),
            ..ServerNode::relay(config, up_link, down_link)
        }
    }

    /// The entry's node between the clients link `up_link` and hop 0's
    /// `down_link`: the hop's checks and handshake, no engine.
    pub(crate) fn relay(
        config: &SystemConfig,
        up_link: LinkId,
        down_link: Option<LinkId>,
    ) -> ServerNode<'a> {
        ServerNode {
            engine: None,
            id: NodeId::Entry,
            chain_len: config.chain_len,
            max_drops: max_drops(config),
            up_link,
            down_link,
            forward_seq: RoundSequencer::new(),
            pending: VecDeque::new(),
            upstream_done: false,
        }
    }

    fn down_link(&self) -> LinkId {
        self.down_link
            .expect("only a hop with a downstream hears from it")
    }

    /// Handles one frame from `from`, handing `observer` one event per
    /// pass before its frame leaves. Every frame is answered with exactly
    /// one: returns the side it goes to, the frame, and whether the `Bye`
    /// handshake is done (the node is finished).
    ///
    /// # Errors
    ///
    /// [`Error::Protocol`] / [`Error::Frame`] when the frame breaks the
    /// round protocol (see [`run_server_node`] and [`run_entry_node`]).
    pub(crate) fn on_frame(
        &mut self,
        from: Side,
        frame: Frame,
        observer: &mut HopObserver<'_>,
    ) -> Result<(Side, Frame, bool), Error> {
        let (start, up_link, node) = (Instant::now(), self.up_link, self.id);
        let (to, answer) = match (from, frame) {
            (Side::Upstream, Frame::Batch(frame)) => {
                if frame.backward {
                    return Err(protocol(up_link, "backward frame on the forward leg"));
                }
                self.forward_seq
                    .observe(frame.round)
                    .map_err(|source| Error::Frame {
                        link: up_link,
                        source,
                    })?;
                let (round, round_type) = (frame.round.0, frame.round_type);
                let kind = round_kind(up_link, &frame, self.max_drops)?;
                let mut passes = Passes::new(node, &frame, observer);
                let Some(engine) = self.engine.as_mut() else {
                    let (width, stride) = (frame.width as usize, frame.stride as usize);
                    entry::check_client_batch(round, kind, self.chain_len, width, stride)
                        .map_err(|what| protocol(up_link, what))?;
                    // The client driver paces itself (it blocks before
                    // sending), so one more round than the chain holds
                    // is a misbehaving peer, not backpressure.
                    let window = self.chain_len.max(1);
                    if self.pending.len() >= window {
                        let in_flight = self.pending.len();
                        let what = format!(
                            "round {round} exceeds the admission window ({in_flight} of \
                             {window} rounds in flight)"
                        );
                        return Err(protocol(up_link, what));
                    }
                    self.pending.push_back((round, round_type));
                    let relayed = BatchFrame {
                        link: self.down_link(),
                        ..frame
                    };
                    passes.emit(Phase::Relay, start.elapsed(), Some(&relayed), None);
                    return Ok((Side::Downstream, Frame::Batch(relayed), false));
                };
                let width = engine.server_mut().incoming_width(kind);
                if frame.width as usize != width {
                    let got = frame.width;
                    let what =
                        format!("round {round} batch width {got} but this hop expects {width}");
                    return Err(protocol(up_link, what));
                }
                let (buf, mut timing) = (buf_from_frame(frame), RoundTiming::default());
                let step = engine.forward(round, kind, buf, &mut timing);
                let forwarded = elapsed(&timing.forward);
                match step {
                    EngineStep::Forward {
                        round,
                        kind,
                        buf,
                        noise,
                    } => {
                        let link = self.down_link();
                        let forward = frame_from_buf(link, round, kind, false, buf, Vec::new());
                        passes.emit(Phase::Forward, forwarded, Some(&forward), noise);
                        self.pending.push_back((round, round_type));
                        (Side::Downstream, forward)
                    }
                    EngineStep::Turnaround {
                        round,
                        replies,
                        observables,
                    } => {
                        let trailer = RoundTrailer::Conversation(observables).encode();
                        let kind = RoundKind::Conversation;
                        let replies = frame_from_buf(up_link, round, kind, true, replies, trailer);
                        passes.emit(Phase::Forward, forwarded, None, None);
                        passes.emit(Phase::Exchange, timing.exchange, None, None);
                        let backward = elapsed(&timing.backward);
                        passes.emit(Phase::Backward, backward, Some(&replies), None);
                        (Side::Upstream, replies)
                    }
                    EngineStep::DialingComplete {
                        round,
                        num_drops,
                        drops,
                        noise,
                    } => {
                        let trailer = RoundTrailer::Dialing(drops.observables()).encode();
                        engine.server_mut().invitation_drops = Some((round, drops));
                        let completion = BatchFrame {
                            link: up_link,
                            round: RoundId(round),
                            round_type: RoundType::Dialing,
                            num_drops,
                            backward: true,
                            stride: 0,
                            width: 0,
                            count: 0,
                            payload: Vec::new(),
                            trailer,
                        };
                        passes.emit(Phase::Forward, forwarded, None, None);
                        let deposit = Some(noise);
                        passes.emit(Phase::Exchange, timing.exchange, Some(&completion), deposit);
                        (Side::Upstream, completion)
                    }
                }
            }
            (Side::Downstream, Frame::Batch(mut back)) => {
                let down_link = self.down_link();
                if !back.backward {
                    return Err(protocol(down_link, "forward frame on the backward leg"));
                }
                let (round, round_type) = (back.round.0, back.round_type);
                let expected = self.pending.pop_front();
                if expected != Some((round, round_type)) {
                    let what = match expected {
                        Some((expected, expected_type)) => format!(
                            "expected the {expected_type:?} backward frame of round {expected}, \
                             got a {round_type:?} one for round {round}"
                        ),
                        None => format!("unsolicited backward frame for round {round}"),
                    };
                    return Err(protocol(down_link, what));
                }
                let mut passes = Passes::new(node, &back, observer);
                let conversation = round_type == RoundType::Conversation;
                let Some(engine) = self.engine.as_mut().filter(|_| conversation) else {
                    // The entry's every backward frame, and a hop's
                    // dialing completion (the round was aborted on the
                    // forward pass): relay untouched, trailer and all.
                    let relayed = BatchFrame {
                        link: up_link,
                        ..back
                    };
                    passes.emit(Phase::Relay, start.elapsed(), Some(&relayed), None);
                    return Ok((Side::Upstream, Frame::Batch(relayed), false));
                };
                // The arena goes straight into the in-place reply wrap:
                // refuse one this hop's layer, or a later hop's, would
                // not fit in.
                let server = engine.server_mut();
                let (width, stride) = (server.reply_width(), server.reply_stride());
                if back.width as usize != width || (back.stride as usize) < stride {
                    let what = format!(
                        "round {round} replies of width {} in slots of {} but this hop expects \
                         width {width} in slots of at least {stride}",
                        back.width, back.stride
                    );
                    return Err(protocol(down_link, what));
                }
                let trailer = std::mem::take(&mut back.trailer);
                let (buf, mut timing) = (buf_from_frame(back), RoundTiming::default());
                let replies = engine.backward(round, buf, &mut timing);
                let kind = RoundKind::Conversation;
                let replies = frame_from_buf(up_link, round, kind, true, replies, trailer);
                passes.emit(
                    Phase::Backward,
                    elapsed(&timing.backward),
                    Some(&replies),
                    None,
                );
                (Side::Upstream, replies)
            }
            (Side::Upstream, Frame::Bye) => {
                self.upstream_done = true;
                // A hop relays it and keeps draining the backward leg; the
                // tail — FIFO means every admitted round is already turned
                // around — answers the backward bye and finishes.
                let to = self.down_link.map_or(Side::Upstream, |_| Side::Downstream);
                return Ok((to, Frame::Bye, to == Side::Upstream));
            }
            (Side::Downstream, Frame::Bye) => {
                if !self.upstream_done || !self.pending.is_empty() {
                    let what = format!(
                        "backward bye with {} rounds still in flight (forward bye seen: {})",
                        self.pending.len(),
                        self.upstream_done
                    );
                    return Err(protocol(self.down_link(), what));
                }
                return Ok((Side::Upstream, Frame::Bye, true));
            }
            (side, Frame::Hello(_)) => {
                let link = match side {
                    Side::Upstream => up_link,
                    Side::Downstream => self.down_link(),
                };
                return Err(protocol(link, "unexpected hello mid-stream"));
            }
        };
        Ok((to, Frame::Batch(answer), false))
    }
}

/// Runs one mix server as a transport-driven node until the `Bye`
/// handshake completes, any number of rounds in flight: the
/// `ServerNode` frame handler, pumped by a [`Demux`] over both links.
///
/// `seed` is the *chain* seed shared by the whole deployment (the tail
/// derives the round's chain-level RNG from it, exactly like
/// [`crate::chain::Chain`]); the server's own per-round RNG was fixed
/// when `server` was built (see [`crate::chain::build_server`]).
/// `downstream` is `None` for the last server in the chain.
///
/// However the node stops — handshake done, error, or a panic unwinding
/// through it — it hangs up both links (by dropping its [`Demux`]) and
/// leaves no reader thread behind. After an error `server` may still
/// hold rounds in flight ([`MixServer::abort_all_rounds`]).
///
/// # Errors
///
/// Any transport failure, or a [`Error::Protocol`] / [`Error::Frame`]
/// when a peer violates the round protocol (backward frame on the
/// forward leg, out-of-order round ids, a dialing round with no drops,
/// wrong onion width for this hop, a backward frame of another protocol
/// than the round it answers or whose replies are not this hop's reply
/// width in slots with room for the reply layers still to come, a `Bye`
/// with rounds still in flight).
pub fn run_server_node(
    server: &mut MixServer,
    config: &SystemConfig,
    seed: u64,
    upstream: Arc<dyn Transport>,
    downstream: Option<Arc<dyn Transport>>,
    observer: &mut HopObserver<'_>,
) -> Result<NodeStats, Error> {
    let down_link = downstream.as_ref().map(|down| down.link_id());
    let node = ServerNode::new(server, config, seed, upstream.link_id(), down_link);
    pump(node, upstream, downstream, observer)
}

/// Runs the untrusted entry as a transport-driven node until the `Bye`
/// handshake completes, admitting up to `chain_len` rounds in flight:
/// the relay `ServerNode`, pumped like a server's, handing `observer` a
/// [`Phase::Relay`] event for every frame it relays.
///
/// The entry holds each client batch to the round's full onion width
/// ([`crate::entry`]'s geometry rule), re-frames it onto hop 0, relays
/// each round's backward frame (replies or dialing completion, trailer
/// included) back to the client side verbatim, in admission order, and
/// answers the client's forward `Bye` with the backward one. A client
/// batch arriving while `chain_len` rounds are in flight is a *protocol
/// error*, not backpressure — the client driver owns pacing (it blocks
/// before sending), so an over-admitting peer is misbehaving, and the
/// rejection is deterministic because it depends only on the frames
/// relayed and answered, never on timing.
///
/// # Errors
///
/// Any transport failure, or [`Error::Protocol`] / [`Error::Frame`]
/// when the client batch geometry is not the round's onion width, the
/// admission window is exceeded, round ids go out of order, or a peer
/// breaks the round protocol as it would a server's (see
/// [`run_server_node`]).
pub fn run_entry_node(
    config: &SystemConfig,
    clients: Arc<dyn Transport>,
    downstream: Arc<dyn Transport>,
    observer: &mut HopObserver<'_>,
) -> Result<NodeStats, Error> {
    let node = ServerNode::relay(config, clients.link_id(), Some(downstream.link_id()));
    pump(node, clients, Some(downstream), observer)
}

/// The node loop: pumps `node`'s handler with what its links deliver,
/// merged by one [`Demux`], until the `Bye` handshake completes, and
/// folds the node's events into its [`NodeStats`] on their way to
/// `observer`.
fn pump(
    mut node: ServerNode<'_>,
    upstream: Arc<dyn Transport>,
    downstream: Option<Arc<dyn Transport>>,
    observer: &mut HopObserver<'_>,
) -> Result<NodeStats, Error> {
    let mut links: Vec<(Side, Arc<dyn Transport>)> = vec![(Side::Upstream, Arc::clone(&upstream))];
    if let Some(down) = &downstream {
        links.push((Side::Downstream, Arc::clone(down)));
    }
    let demux = Demux::new(links);
    let mut stats = NodeStats::default();
    let mut observe = |event: RoundEvent| {
        stats.count(&event.public);
        observer(event);
    };

    while let Some(event) = demux.recv() {
        let (to, frame, finished) = node.on_frame(event.from, event.event?, &mut observe)?;
        match to {
            Side::Upstream => upstream.send(frame)?,
            Side::Downstream => downstream
                .as_ref()
                .expect("the handler answers downstream only where there is one")
                .send(frame)?,
        }
        if finished {
            return Ok(stats);
        }
    }
    Err(protocol(
        upstream.link_id(),
        "links closed before the bye handshake completed",
    ))
}

/// The client side of the windowed protocol: replays `schedule` —
/// `(round, kind, client requests)`, round ids strictly increasing (the
/// wire's sequencing rule 1) — against the chain behind `chain`, up to
/// `depth` weighted slots ([`admission_weights`]) in flight.
///
/// While the [`AdmissionWindow`] has no room for the next round the
/// feeder collects the *oldest* in-flight round's backward frame (they
/// return in admission order). Then `admit(index)` builds the round's
/// arena — only now, so at most a window of batches exists — plus
/// whatever the caller wants back with the round, and the arena leaves
/// as a forward [`BatchFrame`]. `collect` gets that state, the backward
/// frame and its [`RoundTrailer`], which is of the round's own protocol.
/// The forward [`Frame::Bye`] follows the last collected round, and the
/// feeder returns once the node it feeds answers with the backward one:
/// every node behind it has then finished.
///
/// Both drivers of the node loop feed the entry through here: the
/// deployment client, and [`crate::pipeline`]'s threaded runner.
///
/// # Errors
///
/// Transport failures, or [`Error::Protocol`] when the chain answers
/// out of protocol (wrong round or round type, malformed trailer, no
/// backward `Bye` after the last round).
///
/// # Panics
///
/// Panics if `depth == 0` or a round id repeats while in flight.
pub fn feed_window<S>(
    config: &SystemConfig,
    chain: &dyn Transport,
    depth: usize,
    schedule: &[(u64, RoundKind, usize)],
    mut admit: impl FnMut(usize) -> (RoundBuffer, S),
    mut collect: impl FnMut(S, BatchFrame, RoundTrailer),
) -> Result<(), Error> {
    let link = chain.link_id();
    let shapes: Vec<(RoundKind, usize)> = schedule.iter().map(|&(_, kind, n)| (kind, n)).collect();
    let weights = admission_weights(config, depth, &shapes);
    let mut window = AdmissionWindow::new(depth);
    let mut in_flight: VecDeque<(u64, RoundKind, S)> = VecDeque::new();
    let mut next = 0;
    while next < schedule.len() || !in_flight.is_empty() {
        if next < schedule.len() && !window.would_block(weights[next]) {
            let (round, kind, _) = schedule[next];
            let (buf, state) = admit(next);
            let forward = frame_from_buf(link, round, kind, false, buf, Vec::new());
            chain.send(Frame::Batch(forward))?;
            window.admit(round, weights[next]);
            in_flight.push_back((round, kind, state));
            next += 1;
            continue;
        }
        let (round, kind, state) = in_flight.pop_front().expect("a full window holds a round");
        let round_type = kind.round_type();
        let refuse = |what| protocol(link, format!("round {round} ({round_type:?}): {what}"));
        let back = match chain.recv()? {
            Frame::Batch(back)
                if back.backward && back.round.0 == round && back.round_type == round_type =>
            {
                back
            }
            other => {
                return Err(refuse(format!(
                    "expected its backward frame, got {other:?}"
                )))
            }
        };
        let trailer = RoundTrailer::decode(&back.trailer).map_err(refuse)?;
        if trailer.round_type() != round_type {
            return Err(refuse("its trailer is the other protocol's".to_string()));
        }
        window.complete(round);
        collect(state, back, trailer);
    }
    chain.send(Frame::Bye)?;
    match chain.recv()? {
        Frame::Bye => Ok(()),
        other => Err(protocol(
            link,
            format!("expected the backward bye, got {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{build_server, Chain, RoundSpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vuvuzela_crypto::onion;
    use vuvuzela_dp::{NoiseDistribution, NoiseMode};
    use vuvuzela_net::link::Link;
    use vuvuzela_net::transport::{memory_pair, MemoryEndpoint};
    use vuvuzela_wire::conversation::ExchangeRequest;
    use vuvuzela_wire::deaddrop::DeadDropId;
    use vuvuzela_wire::dialing::DialRequest;
    use vuvuzela_wire::SEALED_MESSAGE_LEN;

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

    #[test]
    fn trailers_roundtrip() {
        let conv = RoundTrailer::Conversation(ConversationObservables {
            m1: 7,
            m2: 3,
            m_many: 1,
            total_requests: 14,
        });
        let dial = RoundTrailer::Dialing(DialingObservables {
            counts: vec![5, 0, 9],
            noop_writes: 40,
        });
        for trailer in [conv, dial] {
            let bytes = trailer.encode();
            assert_eq!(RoundTrailer::decode(&bytes).expect("decodes"), trailer);
            assert!(RoundTrailer::decode(&bytes[..bytes.len() - 1]).is_err());
        }
        assert!(RoundTrailer::decode(&[]).is_err());
        assert!(RoundTrailer::decode(&[9]).is_err());
    }

    /// One end of an in-memory link that measures every batch it sends
    /// (see the test below) and counts them in `.2`.
    struct Measuring(MemoryEndpoint, u32, Arc<std::sync::atomic::AtomicUsize>);

    impl Transport for Measuring {
        fn link_id(&self) -> LinkId {
            self.0.link_id()
        }

        fn send(&self, frame: Frame) -> Result<(), Error> {
            if let Frame::Batch(batch) = &frame {
                let (stride, width) = (batch.stride as usize, batch.width as usize);
                let at = format!("round {} on {}", batch.round.0, batch.link);
                if !batch.backward {
                    assert!(batch.count > 0 && stride == width, "{at}");
                    assert_eq!(batch.payload.len(), batch.count as usize * width, "{at}");
                } else if batch.round_type == RoundType::Conversation {
                    assert_eq!(batch.stride, self.1, "{at}");
                    for (i, slot) in batch.payload.chunks(stride).enumerate() {
                        assert!(slot[width..].iter().all(|&b| b == 0), "{at}: slot {i}");
                    }
                } else {
                    assert_eq!(stride, 0, "{at}: a completion notice");
                }
                self.2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            self.0.send(frame)
        }

        fn recv(&self) -> Result<Frame, Error> {
            self.0.recv()
        }

        fn hang_up(&self) {
            self.0.hang_up();
        }
    }

    /// Every forward frame that leaves a node is compact (`stride ==
    /// width`: the socket carries no dead bytes), and every backward
    /// conversation frame keeps the chain's reply reservation (`stride ==
    /// reply_stride`), which the in-place reply wraps need, with every
    /// byte past the reply's width zero — never a stale request byte such
    /// as a peeled drop id. The node loops run on the threaded runner
    /// over links that measure what each end sends.
    #[test]
    fn forward_frames_are_compact_and_replies_keep_their_reservation() {
        let (config, seed) = (tiny_config(3), 23);
        let mut rng = StdRng::seed_from_u64(78);
        let mut chain = Chain::new(config.clone(), seed);
        let pks = chain.server_public_keys();
        let onions: Vec<Vec<u8>> = [1u8, 1, 2]
            .into_iter()
            .enumerate()
            .map(|(i, drop)| {
                let request = ExchangeRequest {
                    drop: DeadDropId([drop; 16]),
                    sealed_message: vec![i as u8; SEALED_MESSAGE_LEN],
                };
                onion::wrap(&mut rng, &pks, 0, &request.encode()).0
            })
            .collect();
        let mut conv_batch = crate::entry::round_arena(RoundKind::Conversation, 3);
        crate::entry::multiplex(&mut conv_batch, &[onions]);
        let num_drops = 2;
        let noop = DialRequest::noop(&mut rng).encode();
        let dial_onion = onion::wrap(&mut rng, &pks, 1, &noop).0;
        let mut dial_batch = crate::entry::round_arena(RoundKind::Dialing { num_drops }, 3);
        crate::entry::multiplex(&mut dial_batch, &[vec![dial_onion]]);
        let specs = vec![
            RoundSpec::Conversation {
                round: 0,
                batch: conv_batch.into(),
            },
            RoundSpec::Dialing {
                round: 1,
                batch: dial_batch.into(),
                num_drops,
            },
        ];
        let want = Chain::new(config.clone(), seed).run(specs.clone());

        let reply_stride = build_server(&config, seed, 0).reply_stride() as u32;
        let measured = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let measuring = |link: &Link| {
            let (up, down) = memory_pair(Arc::new(link.clone()));
            let end = |end| Measuring(end, reply_stride, Arc::clone(&measured));
            Ok((end(up), end(down)))
        };
        let got = crate::pipeline::run_nodes(&mut chain, 3, specs, measuring).expect("completes");
        assert_eq!(got[0].replies(), want.expect("completes")[0].replies());
        // Each round forward over four links; the conversation back over
        // four, the dialing round's notice too.
        assert_eq!(measured.load(std::sync::atomic::Ordering::Relaxed), 16);
    }

    /// Runs hop 0 of a two-server chain up to the forward frame of a
    /// one-onion round 0 of `round_type`, then answers as its downstream
    /// with conversation replies whose `(stride, width, count)` is
    /// `lie(slots forwarded)`. The node must refuse them by name: the
    /// join is the assertion that a lying peer cannot unwind it.
    fn assert_hop0_refuses(round_type: RoundType, lie: impl FnOnce(u32) -> (u32, u32, u32)) {
        let config = tiny_config(2);
        let (up_far, up_near) = memory_pair(Arc::new(Link::new(LinkId::Hop(0))));
        let (down_near, down_far) = memory_pair(Arc::new(Link::new(LinkId::Hop(1))));
        let mut server = build_server(&config, 3, 0);
        let (cfg, up) = (config.clone(), Arc::new(up_near));
        let down: Option<Arc<dyn Transport>> = Some(Arc::new(down_near));
        let node = std::thread::spawn(move || {
            run_server_node(&mut server, &cfg, 3, up, down, &mut |_| {})
        });
        let num_drops = u32::from(round_type == RoundType::Dialing);
        let kind = match round_type {
            RoundType::Conversation => RoundKind::Conversation,
            RoundType::Dialing => RoundKind::Dialing { num_drops },
        };
        // One undecodable onion: the hop replaces it and, on the way
        // back, owes its slot a filler reply.
        let width = onion::wrapped_len(kind.payload_len(), config.chain_len);
        let batch = BatchFrame {
            link: LinkId::Hop(0),
            round: RoundId(0),
            round_type,
            num_drops,
            backward: false,
            stride: width as u32,
            width: width as u32,
            count: 1,
            payload: vec![0; width],
            trailer: Vec::new(),
        };
        up_far.send(Frame::Batch(batch)).expect("send batch");
        let forwarded = match down_far.recv().expect("forwarded batch") {
            Frame::Batch(forwarded) => forwarded,
            other => panic!("expected the forwarded batch, got {other:?}"),
        };
        let (stride, width, count) = lie(forwarded.count);
        let replies = BatchFrame {
            round_type: RoundType::Conversation,
            num_drops: 0,
            backward: true,
            stride,
            width,
            count,
            payload: vec![0; (stride * count) as usize],
            ..forwarded
        };
        down_far.send(Frame::Batch(replies)).expect("send the lie");
        let returned = node
            .join()
            .expect("a lying downstream must not panic the node");
        match returned {
            Err(Error::Protocol { link, reason }) => {
                assert_eq!(link, LinkId::Hop(1));
                assert!(reason.contains("round 0"), "{reason}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    /// Hop 0's reply width in a two-server chain.
    const REPLY_WIDTH: u32 =
        (vuvuzela_wire::EXCHANGE_RESPONSE_LEN + onion::REPLY_LAYER_OVERHEAD) as u32;

    #[test]
    fn empty_reply_geometry_from_downstream_is_a_protocol_error() {
        // 0/0/0 is a legal frame (a dialing completion has that shape)
        // but not a conversation round's replies.
        assert_hop0_refuses(RoundType::Conversation, |_| (0, 0, 0));
    }

    #[test]
    fn replies_without_room_for_the_reply_layer_are_a_protocol_error() {
        // The right count and width, but slots exactly as wide as the
        // replies: this hop's in-place wrap would run off each slot.
        assert_hop0_refuses(RoundType::Conversation, |forwarded| {
            (REPLY_WIDTH, REPLY_WIDTH, forwarded)
        });
    }

    #[test]
    fn conversation_replies_to_a_dialing_round_are_a_protocol_error() {
        // This hop dropped the dialing round's state when it forwarded
        // it; well-formed replies for it have no forward pass to invert.
        let stride = REPLY_WIDTH + onion::REPLY_LAYER_OVERHEAD as u32;
        assert_hop0_refuses(RoundType::Dialing, |forwarded| {
            (stride, REPLY_WIDTH, forwarded)
        });
    }

    /// The drop counts no dialing round may announce: none, and far more
    /// than any frame could carry the cover traffic of (the tail would
    /// otherwise size its noise and drop table by it).
    const BAD_DROP_COUNTS: [u32; 2] = [0, u32::MAX];

    /// A forward dialing frame for round 4 that claims `num_drops`
    /// drops, at the onion width of hop `position` of a two-server chain.
    fn bad_drops_dialing(link: LinkId, position: usize, num_drops: u32) -> Frame {
        let hops_left = 2 - position;
        let width = onion::wrapped_len(vuvuzela_wire::DIAL_REQUEST_LEN, hops_left) as u32;
        Frame::Batch(BatchFrame {
            link,
            round: RoundId(4),
            round_type: RoundType::Dialing,
            num_drops,
            backward: false,
            stride: width,
            width,
            count: 0,
            payload: Vec::new(),
            trailer: Vec::new(),
        })
    }

    fn assert_refuses_the_drops(link: LinkId, returned: Result<NodeStats, Error>) {
        match returned {
            Err(Error::Protocol {
                link: named,
                reason,
            }) => {
                assert_eq!(named, link);
                assert!(reason.contains("round 4"), "{reason}");
                assert!(reason.contains("drops"), "{reason}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn the_drop_cap_is_the_most_cover_traffic_one_frame_carries() {
        let config = tiny_config(2);
        let cap = max_drops(&config);
        let width = onion::wrapped_len(vuvuzela_wire::DIAL_REQUEST_LEN, 2) as u64;
        let per_drop = config.dialing_noise.mu as u64 * width;
        assert!(cap * per_drop <= MAX_FRAME_LEN as u64);
        assert!((cap + 1) * per_drop > MAX_FRAME_LEN as u64);
        let announcing = |num_drops| match bad_drops_dialing(LinkId::Clients, 0, num_drops) {
            Frame::Batch(frame) => round_kind(LinkId::Clients, &frame, cap),
            _ => unreachable!("a batch frame"),
        };
        let at_cap = u32::try_from(cap).expect("cap fits a frame field");
        assert!(announcing(at_cap).is_ok());
        assert!(announcing(at_cap + 1).is_err());
    }

    #[test]
    fn entry_refuses_a_dialing_round_with_no_drops() {
        for num_drops in BAD_DROP_COUNTS {
            let config = tiny_config(2);
            let (client_end, entry_client_end) = memory_pair(Arc::new(Link::new(LinkId::Clients)));
            let (entry_down, s0_up) = memory_pair(Arc::new(Link::new(LinkId::Hop(0))));
            // Without the check the entry relays the frame; a hop that has
            // hung up turns that into a disconnect instead of a hang.
            drop(s0_up);
            client_end
                .send(bad_drops_dialing(LinkId::Clients, 0, num_drops))
                .expect("send");
            client_end.send(Frame::Bye).expect("send bye");
            let returned = run_entry_node(
                &config,
                Arc::new(entry_client_end),
                Arc::new(entry_down),
                &mut |_| {},
            );
            assert_refuses_the_drops(LinkId::Clients, returned);
        }
    }

    #[test]
    fn tail_refuses_a_dialing_round_with_no_drops() {
        for num_drops in BAD_DROP_COUNTS {
            let config = tiny_config(2);
            let (up_far, up_near) = memory_pair(Arc::new(Link::new(LinkId::Hop(1))));
            let mut server = build_server(&config, 3, 1);
            let node = std::thread::spawn(move || {
                let up = Arc::new(up_near);
                run_server_node(&mut server, &config, 3, up, None, &mut |_| {})
            });
            up_far
                .send(bad_drops_dialing(LinkId::Hop(1), 1, num_drops))
                .expect("send");
            let returned = node.join().expect("a peer's frame must not panic the tail");
            assert_refuses_the_drops(LinkId::Hop(1), returned);
        }
    }

    #[test]
    fn entry_rejects_bad_geometry() {
        let config = tiny_config(2);
        let (client_end, entry_client_end) = memory_pair(Arc::new(Link::new(LinkId::Clients)));
        let (entry_down, _s0_up) = memory_pair(Arc::new(Link::new(LinkId::Hop(0))));
        client_end
            .send(Frame::Batch(BatchFrame {
                link: LinkId::Clients,
                round: RoundId(0),
                round_type: RoundType::Conversation,
                num_drops: 0,
                backward: false,
                stride: 8,
                width: 8,
                count: 1,
                payload: vec![0; 8],
                trailer: Vec::new(),
            }))
            .expect("send");
        let err = run_entry_node(
            &config,
            Arc::new(entry_client_end),
            Arc::new(entry_down),
            &mut |_| {},
        )
        .expect_err("wrong width must be rejected");
        assert!(matches!(err, Error::Protocol { .. }), "got {err}");
    }

    /// A hand-driven hop 0 answers conversation round 0 with a dialing
    /// completion: the entry holds its backward leg to each round's
    /// protocol, as every hop does, and refuses it by name.
    #[test]
    fn entry_refuses_a_backward_frame_of_the_other_protocol() {
        let config = tiny_config(2);
        let (client_end, entry_client_end) = memory_pair(Arc::new(Link::new(LinkId::Clients)));
        let (entry_down, s0_up) = memory_pair(Arc::new(Link::new(LinkId::Hop(0))));
        let entry = std::thread::spawn(move || {
            run_entry_node(
                &config,
                Arc::new(entry_client_end),
                Arc::new(entry_down),
                &mut |_| {},
            )
        });
        let width = onion::wrapped_len(RoundKind::Conversation.payload_len(), 2) as u32;
        let batch = BatchFrame {
            link: LinkId::Clients,
            round: RoundId(0),
            round_type: RoundType::Conversation,
            num_drops: 0,
            backward: false,
            stride: width,
            width,
            count: 0,
            payload: Vec::new(),
            trailer: Vec::new(),
        };
        client_end.send(Frame::Batch(batch)).expect("send batch");
        let forwarded = match s0_up.recv().expect("forwarded batch") {
            Frame::Batch(forwarded) => forwarded,
            other => panic!("expected the forwarded batch, got {other:?}"),
        };
        let observables = DialingObservables {
            counts: vec![0],
            noop_writes: 0,
        };
        let completion = BatchFrame {
            round_type: RoundType::Dialing,
            num_drops: 1,
            backward: true,
            stride: 0,
            width: 0,
            trailer: RoundTrailer::Dialing(observables).encode(),
            ..forwarded
        };
        s0_up
            .send(Frame::Batch(completion))
            .expect("send the completion");
        // Both peers hang up behind the completion, so an entry that
        // relays it stops on a disconnect instead of waiting forever.
        drop((s0_up, client_end));
        match entry
            .join()
            .expect("a peer's frame must not panic the entry")
        {
            Err(Error::Protocol { link, reason }) => {
                assert_eq!(link, LinkId::Hop(0));
                assert!(reason.contains("round 0"), "{reason}");
            }
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    /// The entry's windowed admission rejects the (window+1)th in-flight
    /// round deterministically, and repeated round ids die at the
    /// sequencer.
    #[test]
    fn entry_rejects_out_of_window_and_out_of_order_rounds() {
        let config = tiny_config(2);
        let width = onion::wrapped_len(RoundKind::Conversation.payload_len(), config.chain_len);
        let batch = |round: u64| {
            Frame::Batch(BatchFrame {
                link: LinkId::Clients,
                round: RoundId(round),
                round_type: RoundType::Conversation,
                num_drops: 0,
                backward: false,
                stride: width as u32,
                width: width as u32,
                count: 0,
                payload: Vec::new(),
                trailer: Vec::new(),
            })
        };

        // A downstream that accepts frames but never answers, so the
        // entry's event order is fully deterministic.
        let (entry_down, dummy) = memory_pair(Arc::new(Link::new(LinkId::Hop(0))));
        let (client_end, entry_client_end) = memory_pair(Arc::new(Link::new(LinkId::Clients)));
        for round in 0..=config.chain_len as u64 {
            client_end.send(batch(round)).expect("send");
        }
        let err = run_entry_node(
            &config,
            Arc::new(entry_client_end),
            Arc::new(entry_down),
            &mut |_| {},
        )
        .expect_err("window must reject");
        match err {
            Error::Protocol { reason, .. } => {
                assert!(reason.contains("admission window"), "got: {reason}")
            }
            other => panic!("expected protocol error, got {other}"),
        }
        // Exactly `window` rounds were forwarded before the rejection.
        for _ in 0..config.chain_len {
            assert!(matches!(dummy.recv(), Ok(Frame::Batch(_))));
        }

        let (entry_down, _dummy) = memory_pair(Arc::new(Link::new(LinkId::Hop(0))));
        let (client_end, entry_client_end) = memory_pair(Arc::new(Link::new(LinkId::Clients)));
        client_end.send(batch(3)).expect("send");
        client_end.send(batch(3)).expect("send repeat");
        let err = run_entry_node(
            &config,
            Arc::new(entry_client_end),
            Arc::new(entry_down),
            &mut |_| {},
        )
        .expect_err("repeat must be rejected");
        assert!(matches!(err, Error::Frame { .. }), "got {err}");
    }

    /// A chain that answers with another round's backward batch is
    /// refused with the frame's header, not its bytes: a 1 MiB payload
    /// must not become a multi-megabyte error.
    #[test]
    fn feed_window_refuses_a_wrong_round_in_a_line() {
        let config = tiny_config(2);
        let (feeder, chain) = memory_pair(Arc::new(Link::new(LinkId::Clients)));
        let answer = std::thread::spawn(move || {
            let forward = match chain.recv().expect("forward batch") {
                Frame::Batch(forward) => forward,
                other => panic!("expected the forward batch, got {other:?}"),
            };
            let back = BatchFrame {
                round: RoundId(forward.round.0 + 1),
                backward: true,
                stride: 256,
                width: 256,
                count: 4096,
                payload: vec![0xAB; 1 << 20],
                ..forward
            };
            chain
                .send(Frame::Batch(back))
                .expect("send the wrong round");
            chain
        });
        let width = onion::wrapped_len(RoundKind::Conversation.payload_len(), 2);
        let err = feed_window(
            &config,
            &feeder,
            1,
            &[(0, RoundKind::Conversation, 0)],
            |_| (RoundBuffer::new(width, width), ()),
            |(), _, _| panic!("no round may complete"),
        )
        .expect_err("a wrong round is refused");
        drop(answer.join().expect("chain thread"));
        assert!(matches!(err, Error::Protocol { .. }), "got {err}");
        let shown = err.to_string();
        assert!(shown.len() < 1024, "{} bytes of error", shown.len());
        assert!(shown.contains("payload_len: 1048576"), "{shown}");
    }
}
