//! The shared per-server **round engine**: one implementation of the
//! round state machine, one driver.
//!
//! What a server does with a round — peel/noise/shuffle on the forward
//! leg, the tail's dead-drop exchange or invitation deposit, the
//! backward pass on conversation replies — is written once, here, and
//! driven from exactly one place (the engine is constructed nowhere
//! else; CI checks it): the hop protocol of [`crate::node`], whose frame
//! handler every runtime runs — a `vuvuzela server` process over TCP,
//! [`crate::chain::Chain::run`]'s seeded schedule of it on the calling
//! thread, and one scoped thread per hop of its threaded twin in
//! [`crate::pipeline`], over loopback TCP or in-memory links.
//!
//! * [`RoundEngine`] wraps one [`MixServer`] (whose `rounds` table
//!   already holds per-round state for any number of in-flight rounds
//!   of both protocols) and turns each round-tagged input batch into
//!   the *step* its driver must perform next — forward the batch, turn
//!   a conversation round around, or complete a forward-only dialing
//!   round. The engine is transport-agnostic: the hop protocol frames a
//!   step's batch for the neighbour it is bound for. Because every
//!   source of round randomness is a pure function of `(seed, round)`
//!   (see [`crate::server`] module docs), every schedule produces
//!   byte-identical rounds by construction — there is no second copy of
//!   the recipe left to drift.
//! * [`AdmissionWindow`] is the bounded in-flight window, measured in
//!   weighted slots priced by [`admission_weights`]: both feeders
//!   ([`crate::node::feed_window`], `Chain::run`) wait on a full one. The wire
//!   entry needs no ledger of its own: it counts the rounds it relayed
//!   and has not seen answered, and *rejects* one past `chain_len`.

use crate::chain::RoundTiming;
use crate::config::SystemConfig;
use crate::deaddrops::{ConversationDrops, InvitationDrops};
use crate::noise::expected_noise_per_server;
use crate::observables::ConversationObservables;
use crate::record::Operator;
use crate::roundbuf::RoundBuffer;
use crate::server::{round_rng, MixServer, RoundKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;
use vuvuzela_wire::dialing::DialRequest;

/// Domain separator distinguishing the chain-level per-round RNG (drop
/// exchange, undecodable-payload substitutes) from the servers' own.
const CHAIN_RNG_DOMAIN: u64 = 0x5EED_C4A1_4000_0000;

/// The RNG for one round's chain-level randomness: a pure function of
/// `(chain seed, round)`, so every runtime's tail draws the same.
fn chain_round_rng(seed: u64, round: u64) -> StdRng {
    round_rng(seed ^ CHAIN_RNG_DOMAIN, round)
}

/// Domain separator for the RNG [`crate::chain::Chain::run`]'s scheduler
/// draws its deliveries from. It is never a round RNG, so no round's
/// bytes depend on it.
const SCHEDULE_RNG_DOMAIN: u64 = 0x5EED_5C4E_D000_0000;

/// The scheduler's RNG for one [`crate::chain::Chain::run`] call: a pure
/// function of the chain seed, so a schedule replays its interleaving.
pub(crate) fn schedule_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ SCHEDULE_RNG_DOMAIN)
}

/// What a server's runtime must do with the batch the engine just
/// processed.
pub enum EngineStep {
    /// Hand the peeled/noised/shuffled batch to the downstream
    /// neighbour (every non-tail server, both protocols).
    Forward {
        /// Round the batch belongs to.
        round: u64,
        /// The round's protocol tag (carries dialing's drop count).
        kind: RoundKind,
        /// The batch to forward.
        buf: RoundBuffer,
        /// The cover traffic this hop drew ([`MixServer::forward_buf`]).
        noise: Option<Operator>,
    },
    /// Tail conversation turnaround: the dead-drop exchange ran, the
    /// tail's backward pass is applied — hand the replies to the
    /// upstream neighbour together with the round's observables.
    Turnaround {
        /// Round that turned around.
        round: u64,
        /// The replies, tail backward pass applied.
        replies: RoundBuffer,
        /// What a compromised tail observes of this round.
        observables: ConversationObservables,
    },
    /// Tail dialing completion: the invitations are deposited and the
    /// round's reply state discarded (dialing is forward-only). The
    /// tail's node keeps the drops on its server, in every runtime
    /// ([`MixServer::invitation_drops`]), and sends their observables
    /// home in the completion notice's trailer.
    DialingComplete {
        /// Round that completed.
        round: u64,
        /// The round's invitation drop count (§5.4's *m*).
        num_drops: u32,
        /// The filled invitation drops.
        drops: InvitationDrops,
        /// The noise invitations the tail put straight into each drop.
        noise: Operator,
    },
}

/// One mix server's round state machine, driven by the hop protocol of
/// [`crate::node`] in every runtime.
///
/// The engine borrows the server for the duration of one schedule; the
/// server's own `rounds` table is the per-round state store, so any
/// number of rounds of both protocols may be in flight at once —
/// exactly what the windowed/pipelined wire mode needs.
pub struct RoundEngine<'a> {
    server: &'a mut MixServer,
    exchange_shards: usize,
    workers: usize,
    seed: u64,
}

impl<'a> RoundEngine<'a> {
    /// Wraps `server` (built by [`crate::chain::build_server`] or taken
    /// from a [`crate::chain::Chain`]) for one schedule. `seed` is the *chain* seed
    /// shared by the whole deployment — the tail derives each round's
    /// chain-level RNG from it.
    #[must_use]
    pub fn new(server: &'a mut MixServer, config: &SystemConfig, seed: u64) -> RoundEngine<'a> {
        RoundEngine {
            server,
            exchange_shards: config.exchange_shards,
            workers: config.workers,
            seed,
        }
    }

    /// The server the engine drives: the geometry a hop holds its peers'
    /// frames to ([`MixServer::incoming_width`], [`MixServer::reply_width`],
    /// [`MixServer::reply_stride`]), and the tail's drop store.
    pub(crate) fn server_mut(&mut self) -> &mut MixServer {
        self.server
    }

    /// Runs the forward pass for one round-tagged batch and says what
    /// to do next. Non-tail servers get [`EngineStep::Forward`] (the
    /// engine has already discarded a dialing round's reply state —
    /// dialing is forward-only); the tail gets the round's turnaround
    /// or completion. Per-stage durations accumulate into `timing`.
    pub fn forward(
        &mut self,
        round: u64,
        kind: RoundKind,
        buf: RoundBuffer,
        timing: &mut RoundTiming,
    ) -> EngineStep {
        let clock = Instant::now();
        let (buf, noise) = self.server.forward_buf(round, kind, buf);
        timing.forward.push(clock.elapsed());
        if !self.server.is_last() {
            if matches!(kind, RoundKind::Dialing { .. }) {
                // Forward-only: this hop keeps no reply state.
                self.server.abort_round(round);
            }
            return EngineStep::Forward {
                round,
                kind,
                buf,
                noise,
            };
        }
        match kind {
            RoundKind::Conversation => {
                let clock = Instant::now();
                // In place: the peeled arena becomes the reply arena,
                // its slots widened to reserve the whole chain's reply
                // layers, so every hop's wrap fits in place too.
                let mut rng = chain_round_rng(self.seed, round);
                let (replies, observables) = ConversationDrops::exchange_arena(
                    &mut rng,
                    buf,
                    self.server.reply_stride(),
                    self.exchange_shards,
                    self.workers,
                );
                timing.exchange = clock.elapsed();
                let clock = Instant::now();
                let replies = self.server.backward_buf(round, replies);
                timing.backward.push(clock.elapsed());
                EngineStep::Turnaround {
                    round,
                    replies,
                    observables,
                }
            }
            RoundKind::Dialing { num_drops } => {
                let clock = Instant::now();
                let mut rng = chain_round_rng(self.seed, round);
                let (drops, per_drop) =
                    deposit_dialing(&mut rng, self.server, round, num_drops, &buf);
                timing.exchange = clock.elapsed();
                self.server.abort_round(round);
                EngineStep::DialingComplete {
                    round,
                    num_drops,
                    drops,
                    noise: Operator::Dialing { per_drop },
                }
            }
        }
    }

    /// Runs this server's backward pass on a conversation round's
    /// replies arriving from downstream (non-tail servers only — the
    /// tail's backward pass already ran inside its turnaround).
    pub fn backward(
        &mut self,
        round: u64,
        replies: RoundBuffer,
        timing: &mut RoundTiming,
    ) -> RoundBuffer {
        let clock = Instant::now();
        let replies = self.server.backward_buf(round, replies);
        timing.backward.push(clock.elapsed());
        replies
    }
}

/// The tail of one dialing round: deposits every peeled request into a
/// fresh invitation-drop table (undecodable payloads become no-op
/// writes) and adds the last server's direct per-drop noise, whose
/// counts it returns too.
fn deposit_dialing(
    rng: &mut StdRng,
    last_server: &mut MixServer,
    round: u64,
    num_drops: u32,
    buf: &RoundBuffer,
) -> (InvitationDrops, Vec<u64>) {
    let mut drops = InvitationDrops::new(num_drops);
    for i in 0..buf.len() {
        let request = DialRequest::decode(buf.slot(i)).unwrap_or_else(|_| DialRequest::noop(rng));
        drops.deposit(request);
    }
    let counts = last_server.dialing_noise_counts(round, num_drops);
    drops.add_noise(rng, &counts);
    (drops, counts)
}

/// A round's admission cost: the expected number of onions it puts in
/// flight across the chain — its client batch plus every noising
/// server's expected cover traffic (the dp planner's per-round-type
/// noise budget).
fn round_cost(config: &SystemConfig, kind: RoundKind, batch_len: usize) -> f64 {
    let noising_servers = config.chain_len.saturating_sub(1) as f64;
    batch_len as f64 + noising_servers * expected_noise_per_server(kind, config)
}

/// The number of window slots each `(kind, batch_len)` round of a
/// schedule occupies under weighted admission: cost relative to the
/// mean conversation round, rounded, clamped to `[1, window]`. A
/// schedule containing a single round kind collapses to weight 1 per
/// round — homogeneous schedules keep the plain round-counting window;
/// weights only throttle genuinely mixed schedules, where the two
/// protocols' per-round costs diverge by orders of magnitude. Both
/// feeders ([`crate::node::feed_window`], [`crate::chain::Chain::run`])
/// price every schedule with this, in process and on the wire.
#[must_use]
pub fn admission_weights(
    config: &SystemConfig,
    window: usize,
    rounds: &[(RoundKind, usize)],
) -> Vec<usize> {
    let conversation_costs: Vec<f64> = rounds
        .iter()
        .filter(|(kind, _)| matches!(kind, RoundKind::Conversation))
        .map(|&(kind, batch_len)| round_cost(config, kind, batch_len))
        .collect();
    if conversation_costs.is_empty() || conversation_costs.len() == rounds.len() {
        return vec![1; rounds.len()];
    }
    let slot = (conversation_costs.iter().sum::<f64>() / conversation_costs.len() as f64).max(1.0);
    rounds
        .iter()
        .map(|&(kind, batch_len)| {
            let cost = round_cost(config, kind, batch_len);
            ((cost / slot).round() as usize).clamp(1, window.max(1))
        })
        .collect()
}

/// The bounded in-flight window, measured in weighted slots.
///
/// A feeder asks [`AdmissionWindow::would_block`] and *waits* for a
/// completion when it says so. The progress guarantee is built
/// into `would_block`: a round heavier than the whole window does not
/// block an *empty* window, so heavy dialing rounds throttle admission
/// but can never wedge it.
#[derive(Debug)]
pub struct AdmissionWindow {
    window: usize,
    occupied: usize,
    admitted: HashMap<u64, usize>,
}

impl AdmissionWindow {
    /// A window of `window` slots.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn new(window: usize) -> AdmissionWindow {
        assert!(window > 0, "need at least one round in flight");
        AdmissionWindow {
            window,
            occupied: 0,
            admitted: HashMap::new(),
        }
    }

    /// Whether admitting a round of `weight` slots must wait for a
    /// completion first. An empty window never blocks (progress
    /// guarantee for rounds heavier than the whole window).
    #[must_use]
    pub fn would_block(&self, weight: usize) -> bool {
        self.occupied > 0 && self.occupied + weight > self.window
    }

    /// Records `round` as admitted at `weight` slots.
    ///
    /// # Panics
    ///
    /// Panics if the round is already in flight (duplicate round ids
    /// are a caller bug, not a runtime condition).
    pub fn admit(&mut self, round: u64, weight: usize) {
        let previous = self.admitted.insert(round, weight);
        assert!(previous.is_none(), "round {round} admitted twice");
        self.occupied += weight;
    }

    /// Releases `round`'s slots; returns the weight released, or `None`
    /// if the round was never admitted (the wire runtimes turn that
    /// into a protocol error).
    pub fn complete(&mut self, round: u64) -> Option<usize> {
        let weight = self.admitted.remove(&round)?;
        self.occupied -= weight;
        Some(weight)
    }

    /// Rounds currently in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.admitted.len()
    }

    /// Slots currently occupied.
    #[must_use]
    pub fn occupied(&self) -> usize {
        self.occupied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_blocks_and_releases() {
        let mut window = AdmissionWindow::new(3);
        assert!(!window.would_block(5), "empty window never blocks");
        window.admit(0, 2);
        assert!(window.would_block(2), "2 + 2 > 3");
        assert!(!window.would_block(1));
        window.admit(1, 1);
        assert_eq!(window.in_flight(), 2);
        assert_eq!(window.occupied(), 3);
        assert!(window.would_block(1));
        assert_eq!(window.complete(0), Some(2));
        assert!(!window.would_block(2));
        assert_eq!(window.complete(0), None, "double completion is caught");
        assert_eq!(window.complete(7), None, "unknown rounds are caught");
    }

    #[test]
    #[should_panic(expected = "admitted twice")]
    fn duplicate_admission_panics() {
        let mut window = AdmissionWindow::new(2);
        window.admit(3, 1);
        window.admit(3, 1);
    }
}
