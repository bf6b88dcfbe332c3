//! The Vuvuzela system: clients, the server chain, and the two protocols.
//!
//! This crate assembles the substrates ([`vuvuzela_crypto`],
//! [`vuvuzela_dp`], [`vuvuzela_wire`], [`vuvuzela_net`]) into the system
//! of the paper:
//!
//! * [`server`] — the mix servers (Algorithm 2): peel a layer, add cover
//!   traffic, shuffle, forward; unshuffle, strip noise, re-encrypt on the
//!   way back. The last server runs the dead-drop exchange instead of
//!   forwarding.
//! * [`deaddrops`] — the last server's conversation dead-drop table and
//!   the dialing invitation drops.
//! * [`noise`] — cover-traffic generation (Algorithm 2 step 2) for both
//!   protocols, including onion-wrapping noise for downstream servers.
//! * [`entry`] — the untrusted entry server (§7): multiplexes client
//!   requests into a round, and holds a round's client batch to its one
//!   geometry rule; replies come back in request order. On the wire the
//!   entry runs as a relay of the [`node`] handler.
//! * [`chain`] — a whole deployment wired together with byte-counting,
//!   tappable links; runs conversation and dialing rounds end to end,
//!   strictly sequentially: the [`node`] hop protocol's window-1
//!   schedule, every hop's frame handler on the calling thread. A round
//!   that cannot finish ends the run with an [`Abort`], in both runtimes.
//! * [`pipeline`] — the streaming round scheduler: the same deployment
//!   with a weighted window of rounds in flight, hops overlapped across
//!   rounds, conversation and dialing rounds mixed in one pipeline,
//!   byte-identical per-round results: the [`node`] hop loop on one
//!   scoped thread per node, over in-memory links ([`StreamingChain`])
//!   or loopback TCP ([`pipeline::run_over_loopback`], the simulator's
//!   wire twin).
//! * [`engine`] — the shared per-server round engine: the one
//!   implementation of the forward/turnaround/backward state machine
//!   and the weighted admission window, driven by the hop protocol and
//!   nothing else.
//! * [`node`] — the hop protocol (one frame handler per node, the entry
//!   a relay of it), the one node loop and the windowed feeder behind the
//!   [`vuvuzela_net::Transport`] seam: what a deployment's processes run
//!   over TCP, what [`pipeline`] runs in memory and what [`chain`] runs
//!   hop by hop; a node that stops hangs up on its neighbours.
//! * [`cohort`] — the client (Algorithm 1), as struct-of-arrays
//!   populations: real/fake exchanges, dialing and invitation scanning
//!   for N members in flat arrays, requests built in parallel straight
//!   into one [`RoundBuffer`] arena.
//! * [`client`] — one conversation's state: message framing,
//!   retransmission and acks.
//! * [`observables`] — exactly what a compromised last server gets to
//!   see; the interface the adversary crate consumes.
//! * [`record`] — the round record: one event per pass a node runs, its
//!   public part (timing, onions, bytes) typed apart from the operator's
//!   secret noise draw; timing, node counters and the node roles' log
//!   lines are its projections.
//!
//! ## Threat-model mapping
//!
//! | Paper capability (§2.3) | Code |
//! |---|---|
//! | observe/tamper with any link | [`vuvuzela_net::link::Tap`] on any [`chain::Chain`] link |
//! | compromise the last server | read [`chain::Chain::conversation_observables`] / [`chain::Chain::dialing_observables`] |
//! | compromise a first/mixing server | a tap *before* it (pre-mix traffic is attributable) plus the observables, and its [`record::Operator`] noise draws ([`chain::Chain::round_record`]) |
//! | control clients | drive members of a [`cohort::ClientCohort`] directly or inject via taps |
//! | see dead-drop access counts | [`observables::ConversationObservables`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod client;
pub mod cohort;
pub mod config;
pub mod deaddrops;
pub mod engine;
pub mod entry;
pub mod node;
pub mod noise;
pub mod observables;
pub mod pipeline;
pub mod record;
pub mod roundbuf;
pub mod server;

pub use chain::{Abort, Chain, RoundOutcome, RoundSpec};
pub use cohort::ClientCohort;
/// The gated benchmark package reaches the DH-table builder as
/// `vuvuzela_core::Client::chain_tables`; this alias keeps that path.
pub use cohort::ClientCohort as Client;
pub use config::SystemConfig;
pub use pipeline::StreamingChain;
pub use roundbuf::RoundBuffer;
