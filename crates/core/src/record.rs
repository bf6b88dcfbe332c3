//! The round record: one [`RoundEvent`] for every pass a node runs.
//!
//! Every runtime steps a round through one frame handler
//! ([`crate::node`]'s `ServerNode::on_frame`), and that handler emits an
//! event for each pass it runs, before the pass's frame leaves: the
//! entry's relay of a frame, a server's forward pass, the tail's
//! exchange or deposit, a server's backward pass. The events travel
//! through the node's observer ([`crate::node::HopObserver`]) into the
//! chain's per-round record ([`crate::chain::Chain::round_record`]) and
//! the JSON lines the `vuvuzela server` and `entry` roles print.
//!
//! One [`Fold`] adds the events up, per node and phase: busy time,
//! passes, rounds completed and kernel work ([`KernelOps`], derived from
//! the public traffic alone). Every instrument of a round is a
//! projection of it: the in-process [`crate::chain::RoundTiming`], a
//! node's [`crate::node::NodeStats`], and what `vuvuzela launch` prints
//! from the roles' lines ([`Public::from_json_line`]).
//!
//! An event has two parts, typed apart. [`Public`] is what a network
//! observer could measure anyway — which node, which round, how long,
//! how many onions and bytes went in and out (the per-flow sizes and
//! timings traffic analysis starts from). [`Operator`] is the cover
//! traffic a server drew, the secret the differential-privacy argument
//! rests on: only [`Public`] has a JSON rendering, so no log line can
//! carry it.

use std::collections::BTreeMap;
use std::iter::Sum;
use std::time::Duration;
use vuvuzela_net::Direction;
use vuvuzela_wire::{LinkId, RoundType};

use crate::node::NodeStats;

/// Which node of the deployment ran a pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// The untrusted entry, which relays.
    Entry,
    /// The mix server at this chain position.
    Hop(usize),
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeId::Entry => f.write_str("entry"),
            NodeId::Hop(position) => write!(f, "server {position}"),
        }
    }
}

/// What a pass did with its round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// The entry relayed a frame either way, or a server relayed a
    /// dialing round's completion home untouched.
    Relay,
    /// A server's forward pass: peel, noise, shuffle.
    Forward,
    /// The tail's dead-drop exchange, or its invitation deposit.
    Exchange,
    /// A server's backward pass over a conversation round's replies.
    Backward,
}

impl Phase {
    /// Every phase, in the order a round meets them.
    pub const ALL: [Phase; 4] = [
        Phase::Relay,
        Phase::Forward,
        Phase::Exchange,
        Phase::Backward,
    ];

    /// The phase's name in the JSON record.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Relay => "relay",
            Phase::Forward => "forward",
            Phase::Exchange => "exchange",
            Phase::Backward => "backward",
        }
    }
}

/// Onions, and their bytes, that one pass moved across one link: a
/// batch's slot count and `count × onion width`, as
/// [`vuvuzela_net::link::Link`] counts them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Onions (batch slots).
    pub onions: u64,
    /// Onion bytes, slot padding excluded.
    pub bytes: u64,
}

/// The part of an event anyone on the network could measure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Public {
    /// The round the pass belongs to.
    pub round: u64,
    /// The node that ran it.
    pub node: NodeId,
    /// The round's protocol.
    pub protocol: RoundType,
    /// What the pass did.
    pub phase: Phase,
    /// Whether the frame the pass sent went back toward the clients —
    /// the node's one such pass per round, which completes the round
    /// there; `false` when it sent nothing (the tail's forward pass, and
    /// its exchange of a conversation round, hand on in process).
    pub backward: bool,
    /// Wall-clock time the pass took.
    pub duration: Duration,
    /// The frame the pass read off a link; zero when the node's previous
    /// pass handed it its input.
    pub received: Traffic,
    /// The frame the pass sent on a link; zero when it sent none.
    pub sent: Traffic,
}

impl Public {
    /// The link the pass's `sent` frame crossed in a chain of
    /// `chain_len` servers, and which way. Forward, the entry sends on
    /// `Hop(0)` and hop *i* on `Hop(i + 1)`; backward, hop *i* sends on
    /// `Hop(i)` and the entry on `Clients`. `None` when no link logged
    /// the frame: the tail's forward pass and conversation exchange hand
    /// on in process, and a dialing round's completion has no slots.
    /// `sent` is counted before the frame enters its link, so before any
    /// tap, as the link's own log is.
    #[must_use]
    pub fn sent_on(&self, chain_len: usize) -> Option<(LinkId, Direction)> {
        match (self.backward, self.node) {
            (true, _) if self.protocol == RoundType::Dialing => None,
            (true, NodeId::Entry) => Some((LinkId::Clients, Direction::Backward)),
            (true, NodeId::Hop(i)) => Some((LinkId::Hop(i as u32), Direction::Backward)),
            (false, NodeId::Entry) => Some((LinkId::Hop(0), Direction::Forward)),
            (false, NodeId::Hop(i)) if i + 1 < chain_len => {
                Some((LinkId::Hop(i as u32 + 1), Direction::Forward))
            }
            (false, NodeId::Hop(_)) => None,
        }
    }

    /// The event as one line of JSON, no trailing newline: the
    /// record's wire format, the one the node roles print.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let protocol = match self.protocol {
            RoundType::Conversation => "conversation",
            RoundType::Dialing => "dialing",
        };
        format!(
            "{{\"round\":{},\"node\":\"{}\",\"protocol\":\"{protocol}\",\"phase\":\"{}\",\
             \"backward\":{},\"seconds\":{:.9},\"onions_in\":{},\"bytes_in\":{},\
             \"onions_out\":{},\"bytes_out\":{}}}",
            self.round,
            self.node,
            self.phase.name(),
            self.backward,
            self.duration.as_secs_f64(),
            self.received.onions,
            self.received.bytes,
            self.sent.onions,
            self.sent.bytes,
        )
    }

    /// Reads back a line [`Public::to_json_line`] wrote; `None` for
    /// anything else.
    #[must_use]
    pub fn from_json_line(line: &str) -> Option<Public> {
        let serde_json::Value::Object(map) = serde_json::from_str(line).ok()? else {
            return None;
        };
        let count = |key: &str| map.get(key)?.as_u64();
        let text = |key: &str| map.get(key)?.as_str();
        let traffic = |onions, bytes| {
            let (onions, bytes) = (count(onions)?, count(bytes)?);
            Some(Traffic { onions, bytes })
        };
        let node = match text("node")? {
            "entry" => NodeId::Entry,
            server => NodeId::Hop(server.strip_prefix("server ")?.parse().ok()?),
        };
        let protocol = match text("protocol")? {
            "conversation" => RoundType::Conversation,
            "dialing" => RoundType::Dialing,
            _ => return None,
        };
        let phase = text("phase")?;
        Some(Public {
            round: count("round")?,
            node,
            protocol,
            phase: Phase::ALL.into_iter().find(|p| p.name() == phase)?,
            backward: map.get("backward")?.as_bool()?,
            duration: Duration::try_from_secs_f64(map.get("seconds")?.as_f64()?).ok()?,
            received: traffic("onions_in", "bytes_in")?,
            sent: traffic("onions_out", "bytes_out")?,
        })
    }
}

/// The part of an event only the server's operator knows: the cover
/// traffic it drew, which the DP argument hides (§4). It has no
/// rendering; the attack harness hands it to an attacker only for the
/// servers it owns.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Operator {
    /// A noising server's conversation cover: lone requests and pairs.
    Conversation {
        /// Noise requests to a drop of their own (`n1`, plus an odd
        /// `n2`'s leftover).
        singles: u64,
        /// Noise request pairs sharing a drop (`⌊n2 / 2⌋`).
        pairs: u64,
    },
    /// Dialing cover, a count per real invitation drop (drop 1 first):
    /// a noising server's noise onions, or the tail's invitations put
    /// straight into the drops.
    Dialing {
        /// Noise invitations per drop.
        per_drop: Vec<u64>,
    },
}

/// One pass of one node over one round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundEvent {
    /// What anyone could measure.
    pub public: Public,
    /// The server's cover-traffic draw, when the pass drew any.
    pub operator: Option<Operator>,
}

/// The X25519 kernel work of (part of) a round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelOps {
    /// Onions peeled: one variable-base DH each.
    pub peels: u64,
    /// Onion layers wrapped: one fixed-base keygen and one DH against a
    /// server's precomputed table each.
    pub layers: u64,
}

impl KernelOps {
    /// The kernel work of hop `hop`'s forward pass in a chain of
    /// `chain_len` servers, from the onions it read and sent on: it
    /// peels every onion it read, and wraps each cover onion it added
    /// (`sent − received`) in a layer for every server after it. The
    /// tail sends nothing on and wraps nothing.
    ///
    /// Exact for conversation rounds. Of a dialing round's work it
    /// counts neither the noise invitations' keygens
    /// (`SealedInvitation::key_noise`) nor the tail's drop noise, which
    /// no link carries.
    #[must_use]
    pub fn forward_pass(hop: usize, chain_len: usize, received: u64, sent: u64) -> KernelOps {
        KernelOps {
            peels: received,
            layers: sent
                .saturating_sub(received)
                .saturating_mul(chain_len.saturating_sub(hop + 1) as u64),
        }
    }
}

impl Sum for KernelOps {
    fn sum<I: Iterator<Item = KernelOps>>(iter: I) -> KernelOps {
        iter.fold(KernelOps::default(), |sum, ops| KernelOps {
            peels: sum.peels + ops.peels,
            layers: sum.layers + ops.layers,
        })
    }
}

/// What some passes add up to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Wall-clock time the passes took.
    pub busy: Duration,
    /// How many passes.
    pub passes: u64,
    /// Rounds the passes completed at their node: each node's pass that
    /// sent back toward the clients ([`Public::backward`]).
    pub rounds: NodeStats,
    /// The forward passes' kernel work ([`KernelOps::forward_pass`]).
    pub work: KernelOps,
}

impl Sum for Tally {
    fn sum<I: Iterator<Item = Tally>>(iter: I) -> Tally {
        iter.fold(Tally::default(), |sum, tally| Tally {
            busy: sum.busy + tally.busy,
            passes: sum.passes + tally.passes,
            rounds: NodeStats {
                conversation_rounds: sum.rounds.conversation_rounds
                    + tally.rounds.conversation_rounds,
                dialing_rounds: sum.rounds.dialing_rounds + tally.rounds.dialing_rounds,
            },
            work: [sum.work, tally.work].into_iter().sum(),
        })
    }
}

/// The events of a chain of `chain_len` servers added up per node and
/// phase: the one fold every instrument of a round projects.
#[derive(Clone, Debug)]
pub struct Fold {
    chain_len: usize,
    tallies: BTreeMap<(NodeId, Phase), Tally>,
}

impl Fold {
    /// Nothing folded yet.
    #[must_use]
    pub fn new(chain_len: usize) -> Fold {
        Fold {
            chain_len,
            tallies: BTreeMap::new(),
        }
    }

    /// `events` folded.
    #[must_use]
    pub fn of<'a>(chain_len: usize, events: impl IntoIterator<Item = &'a Public>) -> Fold {
        let mut fold = Fold::new(chain_len);
        events.into_iter().for_each(|event| fold.add(event));
        fold
    }

    /// Folds in one event.
    pub fn add(&mut self, event: &Public) {
        let mut pass = Tally {
            busy: event.duration,
            passes: 1,
            ..Tally::default()
        };
        match (event.backward, event.protocol) {
            (true, RoundType::Conversation) => pass.rounds.conversation_rounds = 1,
            (true, RoundType::Dialing) => pass.rounds.dialing_rounds = 1,
            (false, _) => {}
        }
        if let (NodeId::Hop(hop), Phase::Forward) = (event.node, event.phase) {
            let (received, sent) = (event.received.onions, event.sent.onions);
            pass.work = KernelOps::forward_pass(hop, self.chain_len, received, sent);
        }
        let tally = self.tallies.entry((event.node, event.phase)).or_default();
        *tally = [*tally, pass].into_iter().sum();
    }

    /// What `node`'s passes in `phase` add up to.
    #[must_use]
    pub fn get(&self, node: NodeId, phase: Phase) -> Tally {
        let tally = self.tallies.get(&(node, phase));
        tally.copied().unwrap_or_default()
    }

    /// What every pass folded adds up to.
    #[must_use]
    pub fn total(&self) -> Tally {
        self.tallies.values().copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{build_server, Chain, RoundSpec};
    use crate::server::RoundKind;
    use crate::{ClientCohort, SystemConfig};
    use vuvuzela_dp::{NoiseDistribution, NoiseMode};

    #[test]
    fn a_json_line_holds_the_public_part_alone() {
        let event = RoundEvent {
            public: Public {
                round: 7,
                node: NodeId::Hop(1),
                protocol: RoundType::Dialing,
                phase: Phase::Forward,
                backward: false,
                duration: Duration::from_micros(1500),
                received: Traffic {
                    onions: 3,
                    bytes: 600,
                },
                sent: Traffic {
                    onions: 9,
                    bytes: 1500,
                },
            },
            operator: Some(Operator::Dialing {
                per_drop: vec![4, 2],
            }),
        };
        let line = event.public.to_json_line();
        assert!(!line.contains('\n'));
        let value = serde_json::from_str(&line).expect("one JSON object");
        let serde_json::Value::Object(map) = value else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "backward",
                "bytes_in",
                "bytes_out",
                "node",
                "onions_in",
                "onions_out",
                "phase",
                "protocol",
                "round",
                "seconds"
            ]
        );
        assert_eq!(map["node"].as_str(), Some("server 1"));
        assert_eq!(map["phase"].as_str(), Some("forward"));
        assert_eq!(map["onions_out"].as_u64(), Some(9));
        assert_eq!(map["seconds"].as_f64(), Some(0.0015));
    }

    #[test]
    fn a_json_line_reads_back_as_the_event_it_renders() {
        let public = |round, node, protocol, phase, backward, nanos, onions: u64| Public {
            round,
            node,
            protocol,
            phase,
            backward,
            duration: Duration::from_nanos(nanos),
            received: Traffic {
                onions,
                bytes: onions * 7,
            },
            sent: Traffic {
                onions: onions / 3,
                bytes: onions,
            },
        };
        for event in [
            public(
                0,
                NodeId::Entry,
                RoundType::Conversation,
                Phase::Relay,
                false,
                1,
                0,
            ),
            public(
                7,
                NodeId::Hop(1),
                RoundType::Dialing,
                Phase::Forward,
                false,
                1_500_000,
                9,
            ),
            public(
                9,
                NodeId::Hop(12),
                RoundType::Dialing,
                Phase::Exchange,
                true,
                999_999_999,
                1,
            ),
            public(
                u64::MAX,
                NodeId::Hop(2),
                RoundType::Conversation,
                Phase::Backward,
                true,
                86_400_000_000_123,
                u64::MAX / 7,
            ),
        ] {
            let line = event.to_json_line();
            assert_eq!(Public::from_json_line(&line), Some(event), "{line}");
        }
        for line in ["", "{}", "[1]", r#"{"round":1,"node":"hop 1"}"#] {
            assert_eq!(Public::from_json_line(line), None, "{line}");
        }
    }

    /// Each hop's kernel work, folded from a round's public record on
    /// `Chain::run`, is what its arenas count when the same servers run
    /// the round's forward pass alone: the inputs it peels, and the
    /// cover onions it adds wrapped once for every hop after it.
    #[test]
    fn the_folded_kernel_work_is_what_the_arenas_count() {
        let config = SystemConfig {
            chain_len: 3,
            conversation_noise: NoiseDistribution::new(6.0, 1.0),
            dialing_noise: NoiseDistribution::new(4.0, 1.0),
            noise_mode: NoiseMode::Deterministic,
            workers: 1,
            conversation_slots: 1,
            retransmit_after: 2,
            exchange_shards: 4,
        };
        let seed = 11;
        for (round, kind) in [
            (1, RoundKind::Conversation),
            (2, RoundKind::Dialing { num_drops: 2 }),
        ] {
            let mut chain = Chain::new(config.clone(), seed);
            let pks = chain.server_public_keys();
            let mut cohort = ClientCohort::with_own_tables(config.clone(), 5, &pks);
            cohort.join(5);
            let batch = match kind {
                RoundKind::Conversation => cohort.build_conversation_round(round),
                RoundKind::Dialing { num_drops } => cohort.build_dialing_round(round, num_drops),
            };

            let (mut buf, mut counted) = (batch.clone(), Vec::new());
            for hop in 0..config.chain_len {
                let incoming = buf.len() as u64;
                let mut server = build_server(&config, seed, hop);
                buf = server.forward_buf(round, kind, buf).0;
                let sent = buf.len() as u64;
                counted.push(KernelOps::forward_pass(
                    hop,
                    config.chain_len,
                    incoming,
                    sent,
                ));
            }
            assert!(counted[0].layers > 0, "{kind:?}: hop 0 wraps its noise");

            let batch = batch.into();
            let spec = match kind {
                RoundKind::Conversation => RoundSpec::Conversation { round, batch },
                RoundKind::Dialing { num_drops } => RoundSpec::Dialing {
                    round,
                    batch,
                    num_drops,
                },
            };
            chain
                .run(vec![spec])
                .expect("an untapped chain completes its round");
            let record = chain.round_record(round).iter().map(|event| &event.public);
            let fold = Fold::of(config.chain_len, record);
            let folded: Vec<KernelOps> = (0..config.chain_len)
                .map(|hop| fold.get(NodeId::Hop(hop), Phase::Forward).work)
                .collect();
            assert_eq!(folded, counted, "{kind:?}");
            assert_eq!(fold.total().work, counted.into_iter().sum(), "{kind:?}");
        }
    }
}
