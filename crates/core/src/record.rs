//! The round record: one [`RoundEvent`] for every pass a node runs.
//!
//! Every runtime steps a round through one frame handler
//! ([`crate::node`]'s `ServerNode::on_frame`), and that handler emits an
//! event for each pass it runs, before the pass's frame leaves: the
//! entry's relay of a frame, a server's forward pass, the tail's
//! exchange or deposit, a server's backward pass. The events travel
//! through the node's observer ([`crate::node::HopObserver`]) and every
//! instrument of a round is a fold over them: the in-process
//! [`crate::chain::RoundTiming`], a node's [`crate::node::NodeStats`],
//! the chain's per-round record ([`crate::chain::Chain::round_record`]),
//! and the JSON lines the `vuvuzela server` and `entry` roles print.
//!
//! An event has two parts, typed apart. [`Public`] is what a network
//! observer could measure anyway — which node, which round, how long,
//! how many onions and bytes went in and out (the per-flow sizes and
//! timings traffic analysis starts from). [`Operator`] is the cover
//! traffic a server drew, the secret the differential-privacy argument
//! rests on: only [`Public`] has a JSON rendering, so no log line can
//! carry it.

use std::time::Duration;
use vuvuzela_wire::RoundType;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
