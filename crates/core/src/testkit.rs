//! A high-level harness for driving whole Vuvuzela deployments.
//!
//! [`TestNet`] owns a [`Chain`] and a population of [`Client`]s and runs
//! complete rounds the way the real system would: every *online* client
//! participates in every round (idle ones send fakes/no-ops — that is the
//! whole point of the design), requests are multiplexed through the
//! untrusted entry, and replies are demultiplexed back.
//!
//! Used by the integration tests, the examples and the benchmark harness;
//! it is part of the public API because a downstream user evaluating
//! Vuvuzela would need exactly this scaffolding.

use crate::chain::{Chain, RoundTiming};
use crate::client::Client;
use crate::config::SystemConfig;
use crate::entry;
use crate::server::RoundKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vuvuzela_crypto::x25519::Keypair;
use vuvuzela_dp::{NoiseDistribution, NoiseMode};

/// Handle to a user inside a [`TestNet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct UserId(pub usize);

/// Builder for [`TestNet`].
pub struct TestNetBuilder {
    config: SystemConfig,
    seed: u64,
    num_drops: u32,
}

impl TestNetBuilder {
    /// Number of servers in the chain (default 3).
    #[must_use]
    pub fn servers(mut self, n: usize) -> Self {
        self.config.chain_len = n;
        self
    }

    /// Conversation noise mean µ (scale b defaults to µ/20, roughly the
    /// paper's ratio). Deterministic mode unless changed.
    #[must_use]
    pub fn noise_mu(mut self, mu: f64) -> Self {
        self.config.conversation_noise = NoiseDistribution::new(mu, (mu / 20.0).max(0.5));
        self
    }

    /// Dialing noise mean µ per drop.
    #[must_use]
    pub fn dialing_mu(mut self, mu: f64) -> Self {
        self.config.dialing_noise = NoiseDistribution::new(mu, (mu / 10.0).max(0.5));
        self
    }

    /// Noise sampling mode.
    #[must_use]
    pub fn noise_mode(mut self, mode: NoiseMode) -> Self {
        self.config.noise_mode = mode;
        self
    }

    /// Conversation slots per client (default 1).
    #[must_use]
    pub fn slots(mut self, slots: usize) -> Self {
        self.config.conversation_slots = slots;
        self
    }

    /// Number of invitation dead drops per dialing round (default 1, as
    /// in the paper's prototype at evaluation scale, §7).
    #[must_use]
    pub fn invitation_drops(mut self, m: u32) -> Self {
        assert!(m >= 1);
        self.num_drops = m;
        self
    }

    /// Deterministic seed for all keys, noise and shuffles.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Full config override.
    #[must_use]
    pub fn config(mut self, config: SystemConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds the network.
    #[must_use]
    pub fn build(self) -> TestNet {
        let chain = Chain::new(self.config.clone(), self.seed);
        TestNet {
            chain,
            config: self.config,
            clients: Vec::new(),
            chain_tables: None,
            online: Vec::new(),
            rng: StdRng::seed_from_u64(self.seed.wrapping_add(0xC11E17)),
            conversation_round: 0,
            dialing_round: 0,
            num_drops: self.num_drops,
            last_timing: RoundTiming::default(),
        }
    }
}

/// A complete in-process deployment: chain + clients.
pub struct TestNet {
    chain: Chain,
    config: SystemConfig,
    clients: Vec<Client>,
    /// One shared per-chain DH table set for every client.
    chain_tables: Option<std::sync::Arc<Vec<vuvuzela_crypto::onion::PrecomputedServer>>>,
    online: Vec<bool>,
    rng: StdRng,
    conversation_round: u64,
    dialing_round: u64,
    num_drops: u32,
    last_timing: RoundTiming,
}

impl TestNet {
    /// Starts building a network.
    #[must_use]
    pub fn builder() -> TestNetBuilder {
        TestNetBuilder {
            config: SystemConfig::default(),
            seed: 0x50_50,
            num_drops: 1,
        }
    }

    /// Adds an online user with a fresh keypair. All users share one
    /// per-chain DH table set (built on the first add) rather than each
    /// building their own.
    pub fn add_user(&mut self, name: impl Into<String>) -> UserId {
        let keypair = Keypair::generate(&mut self.rng);
        let mut client = Client::new(name, keypair, self.config.clone());
        let server_pks = self.chain.server_public_keys();
        if self.chain_tables.is_none() {
            self.chain_tables = Some(Client::chain_tables(&server_pks));
        }
        client.set_chain_tables(
            self.chain_tables.clone().expect("tables built above"),
            &server_pks,
        );
        self.clients.push(client);
        self.online.push(true);
        UserId(self.clients.len() - 1)
    }

    /// Marks a user online/offline. Offline users send nothing — the
    /// observable event the adversary tries to correlate (§4.2).
    ///
    /// ## Cover-traffic audit
    ///
    /// The paper's requirement (§3.2) is that *for connected clients*,
    /// traffic is independent of activity. `set_online` models the one
    /// thing that is legitimately observable: the connected-client set
    /// itself. What must **not** change when a user disconnects is the
    /// observable stream of everyone else — in particular of the
    /// departed user's conversation partner, whose dead-drop accesses
    /// silently go from paired (`m2`) to single (`m1`), a shift the
    /// Laplace noise on both counts is sized to hide (Theorem 1). This
    /// holds here by construction: a partner's slot stays active, so it
    /// keeps emitting exactly one fixed-size onion per slot per round
    /// (real exchange, retransmission or keep-alive — on the wire all
    /// identical), and idle clients emit the same via fake exchanges.
    /// The `offline_peer_leaves_partner_stream_unchanged` regression
    /// test in `tests/privacy_invariants.rs` pins the observable stream
    /// byte-widths before/during/after a partner's absence.
    pub fn set_online(&mut self, user: UserId, online: bool) {
        self.online[user.0] = online;
    }

    /// Whether a user is currently online.
    #[must_use]
    pub fn is_online(&self, user: UserId) -> bool {
        self.online[user.0]
    }

    /// Queues an invitation from `caller` to `callee` for the next
    /// dialing round (also pre-enters the conversation on the caller's
    /// side).
    ///
    /// # Panics
    ///
    /// Panics if the caller has no free conversation slot — tests should
    /// manage slots explicitly.
    pub fn dial(&mut self, caller: UserId, callee: UserId) {
        let callee_pk = self.clients[callee.0].public_key();
        self.clients[caller.0]
            .dial(callee_pk)
            .expect("caller has a free conversation slot");
    }

    /// Queues a message from one user to another (they must be in an
    /// active conversation).
    ///
    /// # Panics
    ///
    /// Panics when there is no active conversation or the body is too
    /// long; integration tests treat both as setup bugs.
    pub fn queue_message(&mut self, from: UserId, to: UserId, body: &[u8]) {
        let to_pk = self.clients[to.0].public_key();
        self.clients[from.0]
            .queue_message(&to_pk, body)
            .expect("active conversation and body within limits");
    }

    /// Runs one conversation round with every online client
    /// participating.
    pub fn run_conversation_round(&mut self) {
        let round = self.conversation_round;
        self.conversation_round += 1;
        let server_pks = self.chain.server_public_keys();

        let mut participant_ids = Vec::new();
        let mut requests = Vec::new();
        for (id, client) in self.clients.iter_mut().enumerate() {
            if self.online[id] {
                participant_ids.push(id);
                requests.push(client.build_conversation_requests(
                    &mut self.rng,
                    round,
                    &server_pks,
                ));
            }
        }

        let mut batch = entry::round_arena(RoundKind::Conversation, self.config.chain_len);
        let layout = entry::multiplex(&mut batch, &requests);
        let (replies, timing) = self.chain.run_conversation_round(round, batch);
        self.last_timing = timing;
        let per_client = entry::demultiplex(&layout, replies);

        for (id, client_replies) in participant_ids.into_iter().zip(per_client) {
            self.clients[id].handle_conversation_replies(round, client_replies);
        }
    }

    /// Runs one dialing round; every online client then downloads and
    /// scans its invitation drop.
    pub fn run_dialing_round(&mut self) {
        let round = self.dialing_round;
        self.dialing_round += 1;
        let server_pks = self.chain.server_public_keys();
        let num_drops = self.num_drops;

        let mut participant_ids = Vec::new();
        let mut requests = Vec::new();
        for (id, client) in self.clients.iter_mut().enumerate() {
            if self.online[id] {
                participant_ids.push(id);
                requests.push(vec![client.build_dial_request(
                    &mut self.rng,
                    round,
                    num_drops,
                    &server_pks,
                )]);
            }
        }

        let mut batch = entry::round_arena(RoundKind::Dialing { num_drops }, self.config.chain_len);
        let _layout = entry::multiplex(&mut batch, &requests);
        let timing = self.chain.run_dialing_round(round, batch, num_drops);
        self.last_timing = timing;

        // Every online client downloads its own drop (via the "CDN") and
        // trial-decrypts the contents.
        for id in participant_ids {
            let drop = self.clients[id].invitation_drop(num_drops);
            if let Some(contents) = self.chain.download_drop(drop) {
                let _ = self.clients[id].scan_invitation_drop(&contents);
            }
        }
    }

    /// Every client accepts every invitation it has received (as far as
    /// slots allow).
    pub fn accept_all_invitations(&mut self) {
        for client in &mut self.clients {
            let invitations: Vec<_> = client.pending_invitations().to_vec();
            for caller in invitations {
                let _ = client.accept_invitation(caller);
            }
        }
    }

    /// Messages delivered to `user` so far, across all conversations.
    #[must_use]
    pub fn received(&self, user: UserId) -> Vec<Vec<u8>> {
        self.clients[user.0].all_delivered()
    }

    /// Direct access to a client.
    #[must_use]
    pub fn client(&self, user: UserId) -> &Client {
        &self.clients[user.0]
    }

    /// Mutable access to a client (attack setups).
    pub fn client_mut(&mut self, user: UserId) -> &mut Client {
        &mut self.clients[user.0]
    }

    /// The underlying chain (observables, meters, taps).
    #[must_use]
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// Mutable chain access (attach taps, download drops).
    pub fn chain_mut(&mut self) -> &mut Chain {
        &mut self.chain
    }

    /// Number of users.
    #[must_use]
    pub fn num_users(&self) -> usize {
        self.clients.len()
    }

    /// Timing of the most recent round.
    #[must_use]
    pub fn last_timing(&self) -> &RoundTiming {
        &self.last_timing
    }

    /// The current conversation round number (next to be run).
    #[must_use]
    pub fn conversation_round(&self) -> u64 {
        self.conversation_round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_user_net() -> (TestNet, UserId, UserId) {
        let mut net = TestNet::builder().servers(3).noise_mu(4.0).seed(7).build();
        let alice = net.add_user("alice");
        let bob = net.add_user("bob");
        (net, alice, bob)
    }

    #[test]
    fn dial_then_converse() {
        let (mut net, alice, bob) = two_user_net();
        net.dial(alice, bob);
        net.run_dialing_round();
        net.accept_all_invitations();

        net.queue_message(alice, bob, b"hello, Bob!");
        net.run_conversation_round();
        assert_eq!(net.received(bob), vec![b"hello, Bob!".to_vec()]);

        net.queue_message(bob, alice, b"hi Alice");
        net.run_conversation_round();
        assert_eq!(net.received(alice), vec![b"hi Alice".to_vec()]);
    }

    #[test]
    fn multi_round_ordered_delivery() {
        let (mut net, alice, bob) = two_user_net();
        net.dial(alice, bob);
        net.run_dialing_round();
        net.accept_all_invitations();

        for i in 0..5u8 {
            net.queue_message(alice, bob, &[b'm', b'0' + i]);
        }
        for _ in 0..6 {
            net.run_conversation_round();
        }
        let got = net.received(bob);
        assert_eq!(
            got,
            (0..5u8).map(|i| vec![b'm', b'0' + i]).collect::<Vec<_>>()
        );
    }

    #[test]
    fn offline_partner_triggers_retransmission() {
        let (mut net, alice, bob) = two_user_net();
        net.dial(alice, bob);
        net.run_dialing_round();
        net.accept_all_invitations();

        // Bob misses the round that carries the message.
        net.queue_message(alice, bob, b"are you there?");
        net.set_online(bob, false);
        net.run_conversation_round();
        assert!(net.received(bob).is_empty());

        // Bob comes back; after the retransmit timer fires, he gets it.
        net.set_online(bob, true);
        for _ in 0..4 {
            net.run_conversation_round();
        }
        assert_eq!(net.received(bob), vec![b"are you there?".to_vec()]);
    }

    #[test]
    fn idle_users_cost_the_same_bandwidth() {
        // Two users, no conversation at all: every round still moves
        // exactly one request per user plus noise.
        let (mut net, _alice, _bob) = two_user_net();
        net.run_conversation_round();
        let msgs = net.chain().client_link().forward_meter().messages();
        assert_eq!(msgs, 2, "both idle users still sent a request");
    }
}
