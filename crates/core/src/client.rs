//! The Vuvuzela client (paper Algorithm 1, §3, §5).
//!
//! A [`Client`] holds a fixed number of *conversation slots* (§9
//! "Multiple conversations": the count is fixed a priori so it leaks
//! nothing; the paper's prototype uses one). Every conversation round the
//! client emits exactly one request per slot:
//!
//! * an **active** slot performs a real dead-drop exchange with its
//!   partner (Algorithm 1 step 1a), carrying either a data message from
//!   the send queue, a retransmission, or a keep-alive;
//! * an **idle** slot performs a fake exchange against a random dead drop
//!   (step 1b).
//!
//! On the wire the two are indistinguishable. Likewise every dialing
//! round the client sends exactly one invitation — real or a write to the
//! no-op drop (§5.2).
//!
//! Reliability: Vuvuzela "deals with these issues through retransmission
//! at a higher level (in the client itself)" (§3.1). The framing in
//! [`vuvuzela_wire::message`] carries sequence numbers and cumulative
//! acks; unacknowledged messages are re-sent after
//! [`crate::config::SystemConfig::retransmit_after`] rounds.

use crate::config::SystemConfig;
use rand::{CryptoRng, RngCore};
use std::collections::{BTreeMap, HashMap, VecDeque};
use vuvuzela_crypto::onion::{self, LayerKey};
use vuvuzela_crypto::x25519::{Keypair, PublicKey};
use vuvuzela_wire::conversation::{ConversationKeys, ExchangeRequest};
use vuvuzela_wire::deaddrop::InvitationDropIndex;
use vuvuzela_wire::dialing::{DialRequest, SealedInvitation};
use vuvuzela_wire::message::{FramedMessage, MessageKind, MAX_BODY_LEN};
use vuvuzela_wire::{DIAL_REQUEST_LEN, EXCHANGE_REQUEST_LEN, EXCHANGE_RESPONSE_LEN, MESSAGE_LEN};

/// Client-facing errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientError {
    /// All conversation slots are occupied (§5: "users can have a fixed
    /// number of conversations per round, so a user may end one
    /// conversation to make room for another").
    AllSlotsBusy,
    /// No active conversation with the given partner.
    NoConversationWith,
    /// Message body exceeds [`MAX_BODY_LEN`]; split it across rounds.
    MessageTooLong {
        /// The limit that was exceeded.
        limit: usize,
    },
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::AllSlotsBusy => write!(f, "all conversation slots are busy"),
            ClientError::NoConversationWith => write!(f, "no active conversation with that user"),
            ClientError::MessageTooLong { limit } => {
                write!(f, "message exceeds the {limit}-byte per-round limit")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// An in-flight (sent, unacknowledged) data message.
#[derive(Clone, Debug)]
pub(crate) struct Inflight {
    pub(crate) body: Vec<u8>,
    pub(crate) last_sent_round: u64,
}

/// Delivered messages, in order, in one byte arena. A long-lived client
/// receives about one message a round and keeps them all; as a
/// `Vec<u8>` apiece, bodies of a few dozen bytes each cost a heap block
/// and a 24-byte header, which at cohort scale is most of what a
/// process's memory grows by per round.
#[derive(Default)]
pub(crate) struct MessageLog {
    bytes: Vec<u8>,
    /// End offset in `bytes` of each message.
    ends: Vec<usize>,
}

impl MessageLog {
    fn push(&mut self, body: &[u8]) {
        reserve_an_eighth(&mut self.bytes, body.len());
        reserve_an_eighth(&mut self.ends, 1);
        self.bytes.extend_from_slice(body);
        self.ends.push(self.bytes.len());
    }

    /// The messages, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u8]> {
        let starts = core::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.bytes[start..end])
    }

    /// The messages as owned vectors, oldest first.
    pub(crate) fn to_vecs(&self) -> Vec<Vec<u8>> {
        self.iter().map(<[u8]>::to_vec).collect()
    }
}

/// Makes room for `extra` more elements, growing a full vector by an
/// eighth of its length (or by `extra` if that is more) where `Vec`
/// would double it. A cohort's logs all fill up in the same rounds, so
/// doubling them moves the whole process's memory up by a third in one
/// step; this way it follows what the logs hold.
fn reserve_an_eighth<T>(v: &mut Vec<T>, extra: usize) {
    if v.capacity() - v.len() < extra {
        v.reserve_exact(extra.max(v.len() / 8));
    }
}

/// One active conversation's reliability state.
pub(crate) struct Conversation {
    pub(crate) peer: PublicKey,
    pub(crate) keys: ConversationKeys,
    /// Next sequence number to assign to a fresh outgoing message.
    next_seq: u64,
    /// Bodies queued by the user but not yet assigned a round.
    pub(crate) send_queue: VecDeque<Vec<u8>>,
    /// Sent but unacknowledged messages, keyed by sequence number.
    inflight: BTreeMap<u64, Inflight>,
    /// The next sequence number expected from the peer (everything below
    /// has been delivered); doubles as the cumulative ack we send.
    next_expected: u64,
    /// Out-of-order arrivals waiting for the gap to fill.
    out_of_order: BTreeMap<u64, Vec<u8>>,
    /// In-order messages delivered to the user.
    pub(crate) delivered: MessageLog,
    /// Everything below this peer sequence number has been acked by the
    /// peer.
    peer_acked: u64,
}

impl Conversation {
    pub(crate) fn new(peer: PublicKey, keys: ConversationKeys) -> Conversation {
        Conversation {
            peer,
            keys,
            next_seq: 0,
            send_queue: VecDeque::new(),
            inflight: BTreeMap::new(),
            next_expected: 0,
            out_of_order: BTreeMap::new(),
            delivered: MessageLog::default(),
            peer_acked: 0,
        }
    }

    /// Picks the frame to send this round: retransmission first, then a
    /// fresh message (window permitting), else a keep-alive.
    pub(crate) fn next_frame(
        &mut self,
        round: u64,
        retransmit_after: u64,
        window: usize,
    ) -> FramedMessage {
        // Retransmit the oldest overdue in-flight message.
        let overdue = self
            .inflight
            .iter()
            .find(|(_, m)| round >= m.last_sent_round + retransmit_after)
            .map(|(&seq, m)| (seq, m.body.clone()));
        if let Some((seq, body)) = overdue {
            self.inflight
                .get_mut(&seq)
                .expect("just found")
                .last_sent_round = round;
            return FramedMessage::data(seq, self.next_expected, &body);
        }
        // Fresh data message, if the pipeline window allows.
        if self.inflight.len() < window {
            if let Some(body) = self.send_queue.pop_front() {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.inflight.insert(
                    seq,
                    Inflight {
                        body: body.clone(),
                        last_sent_round: round,
                    },
                );
                return FramedMessage::data(seq, self.next_expected, &body);
            }
        }
        FramedMessage::keep_alive(self.next_seq, self.next_expected)
    }

    /// Processes a frame received from the peer.
    pub(crate) fn receive_frame(&mut self, frame: FramedMessage) {
        // Cumulative ack: drop everything the peer has seen.
        self.peer_acked = self.peer_acked.max(frame.ack);
        let acked: Vec<u64> = self
            .inflight
            .range(..frame.ack)
            .map(|(&seq, _)| seq)
            .collect();
        for seq in acked {
            self.inflight.remove(&seq);
        }

        if frame.kind == MessageKind::Data {
            match frame.seq.cmp(&self.next_expected) {
                core::cmp::Ordering::Equal => {
                    self.delivered.push(&frame.body);
                    self.next_expected += 1;
                    // Drain any consecutive out-of-order arrivals.
                    while let Some(body) = self.out_of_order.remove(&self.next_expected) {
                        self.delivered.push(&body);
                        self.next_expected += 1;
                    }
                }
                core::cmp::Ordering::Greater => {
                    self.out_of_order.insert(frame.seq, frame.body);
                }
                core::cmp::Ordering::Less => {
                    // Duplicate of an already-delivered message; ignore.
                }
            }
        }
    }

    /// Whether every queued and sent message has been delivered and acked.
    pub(crate) fn fully_acked(&self) -> bool {
        self.send_queue.is_empty() && self.inflight.is_empty() && self.peer_acked >= self.next_seq
    }
}

/// Keys needed to decrypt the replies of one in-flight round, per slot.
struct PendingRound {
    /// `(slot index, layer keys, had_real_exchange)` per request sent.
    slots: Vec<(usize, Vec<LayerKey>)>,
}

/// A Vuvuzela client.
pub struct Client {
    name: String,
    keypair: Keypair,
    config: SystemConfig,
    slots: Vec<Option<Conversation>>,
    dial_queue: VecDeque<PublicKey>,
    invitations: Vec<PublicKey>,
    pending: HashMap<u64, PendingRound>,
    /// Precomputed DH tables for the chain the client talks to, built
    /// lazily for the `server_pks` it is actually handed (or installed
    /// shared via [`Client::set_chain_tables`]) and reused every round —
    /// request wrapping runs on [`onion::wrap_into_with`] (comb keygen
    /// and table DH, an onion's layers sharing one eight-wide walk where
    /// the CPU has it; zero per-layer allocations) instead of the
    /// allocating [`onion::wrap`]. The `Arc` lets a harness population share one
    /// table set per chain instead of paying ~35 KB + ~1 ms per server
    /// per client.
    chain_precomp: std::sync::Arc<Vec<onion::PrecomputedServer>>,
    /// The chain keys `chain_precomp` was built for.
    chain_precomp_for: Vec<PublicKey>,
    /// Pipeline window: how many unacked messages a conversation may have
    /// in flight ("Clients can pipeline conversation messages", §8.3).
    pub window: usize,
}

impl Client {
    /// Creates a client with the given diagnostic name and long-term
    /// keypair.
    #[must_use]
    pub fn new(name: impl Into<String>, keypair: Keypair, config: SystemConfig) -> Client {
        config.validate();
        let slots = (0..config.conversation_slots).map(|_| None).collect();
        Client {
            name: name.into(),
            keypair,
            config,
            slots,
            dial_queue: VecDeque::new(),
            invitations: Vec::new(),
            pending: HashMap::new(),
            chain_precomp: std::sync::Arc::new(Vec::new()),
            chain_precomp_for: Vec::new(),
            window: 4,
        }
    }

    /// Builds one shareable set of per-server DH tables for a chain.
    /// Install the same `Arc` into every client of a population with
    /// [`Client::set_chain_tables`] so the tables are built (and held)
    /// once per chain rather than once per client.
    #[must_use]
    pub fn chain_tables(server_pks: &[PublicKey]) -> std::sync::Arc<Vec<onion::PrecomputedServer>> {
        std::sync::Arc::new(
            server_pks
                .iter()
                .map(|pk| onion::PrecomputedServer::new(*pk))
                .collect(),
        )
    }

    /// Installs a shared table set previously built by
    /// [`Client::chain_tables`] for exactly `server_pks`.
    ///
    /// # Panics
    ///
    /// Panics if `tables` does not have one entry per server key.
    pub fn set_chain_tables(
        &mut self,
        tables: std::sync::Arc<Vec<onion::PrecomputedServer>>,
        server_pks: &[PublicKey],
    ) {
        assert_eq!(tables.len(), server_pks.len(), "one table per server");
        self.chain_precomp = tables;
        self.chain_precomp_for = server_pks.to_vec();
    }

    /// (Re)builds the cached per-server DH tables when the chain
    /// changes; a no-op on the hot path once warmed or shared in.
    fn ensure_chain_precomp(&mut self, server_pks: &[PublicKey]) {
        if self.chain_precomp_for != server_pks {
            self.chain_precomp = Client::chain_tables(server_pks);
            self.chain_precomp_for = server_pks.to_vec();
        }
    }

    /// The client's long-term public key (its identity, §2.3).
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.keypair.public
    }

    /// Diagnostic name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    // ------------------------------------------------------------------
    // Conversation management
    // ------------------------------------------------------------------

    /// Enters a conversation with `peer` in the first free slot.
    ///
    /// # Errors
    ///
    /// [`ClientError::AllSlotsBusy`] when every slot is taken.
    pub fn start_conversation(&mut self, peer: PublicKey) -> Result<usize, ClientError> {
        if let Some(slot) = self.slot_of(&peer) {
            return Ok(slot); // already talking; idempotent
        }
        let free = self
            .slots
            .iter()
            .position(Option::is_none)
            .ok_or(ClientError::AllSlotsBusy)?;
        let keys = ConversationKeys::derive(&self.keypair.secret, &self.keypair.public, &peer);
        self.slots[free] = Some(Conversation::new(peer, keys));
        Ok(free)
    }

    /// Leaves the conversation with `peer`, freeing its slot.
    ///
    /// # Errors
    ///
    /// [`ClientError::NoConversationWith`] if there is none.
    pub fn end_conversation(&mut self, peer: &PublicKey) -> Result<(), ClientError> {
        let slot = self.slot_of(peer).ok_or(ClientError::NoConversationWith)?;
        self.slots[slot] = None;
        Ok(())
    }

    /// Queues a message for an active conversation partner.
    ///
    /// # Errors
    ///
    /// [`ClientError::NoConversationWith`] without an active conversation;
    /// [`ClientError::MessageTooLong`] if the body exceeds one round's
    /// capacity.
    pub fn queue_message(&mut self, peer: &PublicKey, body: &[u8]) -> Result<(), ClientError> {
        if body.len() > MAX_BODY_LEN {
            return Err(ClientError::MessageTooLong {
                limit: MAX_BODY_LEN,
            });
        }
        let slot = self.slot_of(peer).ok_or(ClientError::NoConversationWith)?;
        self.slots[slot]
            .as_mut()
            .expect("slot_of returned an occupied slot")
            .send_queue
            .push_back(body.to_vec());
        Ok(())
    }

    /// Queues arbitrary-length text, transparently split into
    /// [`MAX_BODY_LEN`]-byte segments delivered over consecutive rounds.
    /// (Fixed message sizes are load-bearing for privacy, so long texts
    /// cost proportionally many rounds — the paper's §9 "Message size"
    /// limitation.)
    ///
    /// # Errors
    ///
    /// [`ClientError::NoConversationWith`] without an active
    /// conversation.
    pub fn queue_text(&mut self, peer: &PublicKey, text: &[u8]) -> Result<usize, ClientError> {
        let slot = self.slot_of(peer).ok_or(ClientError::NoConversationWith)?;
        let conversation = self.slots[slot]
            .as_mut()
            .expect("slot_of returned an occupied slot");
        let mut segments = 0;
        if text.is_empty() {
            conversation.send_queue.push_back(Vec::new());
            return Ok(1);
        }
        for chunk in text.chunks(MAX_BODY_LEN) {
            conversation.send_queue.push_back(chunk.to_vec());
            segments += 1;
        }
        Ok(segments)
    }

    /// All messages delivered so far by the conversation with `peer`, in
    /// order.
    #[must_use]
    pub fn delivered_from(&self, peer: &PublicKey) -> Vec<Vec<u8>> {
        self.slot_of(peer)
            .and_then(|s| self.slots[s].as_ref())
            .map(|c| c.delivered.to_vecs())
            .unwrap_or_default()
    }

    /// All delivered messages across every conversation (slot order).
    #[must_use]
    pub fn all_delivered(&self) -> Vec<Vec<u8>> {
        self.slots
            .iter()
            .flatten()
            .flat_map(|c| c.delivered.iter().map(<[u8]>::to_vec))
            .collect()
    }

    /// Whether the conversation with `peer` has nothing outstanding.
    #[must_use]
    pub fn conversation_idle(&self, peer: &PublicKey) -> bool {
        self.slot_of(peer)
            .and_then(|s| self.slots[s].as_ref())
            .is_some_and(Conversation::fully_acked)
    }

    /// The peers of all active conversations.
    #[must_use]
    pub fn active_peers(&self) -> Vec<PublicKey> {
        self.slots.iter().flatten().map(|c| c.peer).collect()
    }

    fn slot_of(&self, peer: &PublicKey) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|c| c.peer == *peer))
    }

    // ------------------------------------------------------------------
    // Conversation rounds (Algorithm 1)
    // ------------------------------------------------------------------

    /// Builds this round's onion-wrapped exchange requests — exactly one
    /// per slot, real or fake — and records the layer keys for the reply.
    ///
    /// Wrapping runs zero-copy: the request is encoded straight into the
    /// outgoing onion's buffer and sealed in place via
    /// [`onion::wrap_into_with`] over the client's cached per-server DH
    /// tables (byte-identical output to the allocating [`onion::wrap`]
    /// for equal RNG states).
    pub fn build_conversation_requests<R: RngCore + CryptoRng>(
        &mut self,
        rng: &mut R,
        round: u64,
        server_pks: &[PublicKey],
    ) -> Vec<Vec<u8>> {
        self.ensure_chain_precomp(server_pks);
        let retransmit_after = self.config.retransmit_after;
        let window = self.window;
        let chain_len = server_pks.len();
        let width = onion::wrapped_len(EXCHANGE_REQUEST_LEN, chain_len);
        let mut onions = Vec::with_capacity(self.slots.len());
        let mut pending = PendingRound { slots: Vec::new() };

        for slot_index in 0..self.slots.len() {
            let mut onion_bytes = vec![0u8; width];
            let payload = &mut onion_bytes[32 * chain_len..];
            match &mut self.slots[slot_index] {
                Some(conversation) => {
                    // Step 1a: real exchange.
                    let frame = conversation.next_frame(round, retransmit_after, window);
                    let sealed = conversation.keys.seal_message(round, &frame.encode());
                    ExchangeRequest {
                        drop: conversation.keys.drop_id(round),
                        sealed_message: sealed,
                    }
                    .encode_into(payload);
                }
                None => {
                    // Step 1b: fake request against a random partner.
                    let fake =
                        ConversationKeys::fake(rng, &self.keypair.secret, &self.keypair.public);
                    let sealed = fake.seal_message(round, &[0u8; MESSAGE_LEN]);
                    ExchangeRequest {
                        drop: fake.drop_id(round),
                        sealed_message: sealed,
                    }
                    .encode_into(payload);
                }
            }
            // Step 2: onion wrap, in place.
            let keys = onion::wrap_into_with(
                rng,
                &self.chain_precomp,
                round,
                &mut onion_bytes,
                EXCHANGE_REQUEST_LEN,
            );
            onions.push(onion_bytes);
            pending.slots.push((slot_index, keys));
        }
        self.pending.insert(round, pending);
        onions
    }

    /// Processes this round's replies (step 3), one per request sent, in
    /// the same order. `None` entries model replies lost to an adversary.
    pub fn handle_conversation_replies(&mut self, round: u64, replies: Vec<Option<Vec<u8>>>) {
        let Some(pending) = self.pending.remove(&round) else {
            return; // a round we never participated in (or already expired)
        };
        for ((slot_index, keys), reply) in pending.slots.into_iter().zip(replies) {
            let Some(reply) = reply else { continue };
            let Ok(sealed) = onion::unwrap_reply_layers(&keys, round, &reply) else {
                continue; // tampered or misrouted reply
            };
            if sealed.len() != EXCHANGE_RESPONSE_LEN {
                continue;
            }
            if let Some(conversation) = &mut self.slots[slot_index] {
                // A decrypt failure means the partner was absent this
                // round (we got the server's random filler) — that is
                // normal, not an error.
                if let Ok(padded) = conversation.keys.open_message(round, &sealed) {
                    if let Ok(frame) = FramedMessage::decode(&padded) {
                        conversation.receive_frame(frame);
                    }
                }
            }
        }
    }

    /// Discards reply keys for rounds older than `round` (e.g. when an
    /// adversary blackholed them); bounds memory under sustained DoS.
    pub fn expire_pending(&mut self, round: u64) {
        self.pending.retain(|&r, _| r >= round);
    }

    // ------------------------------------------------------------------
    // Dialing rounds (§5)
    // ------------------------------------------------------------------

    /// Queues an invitation to `peer` for the next dialing round and
    /// preemptively enters the conversation (§3: the caller enters "in
    /// anticipation that user will reciprocate").
    ///
    /// # Errors
    ///
    /// [`ClientError::AllSlotsBusy`] if no slot is free for the
    /// anticipated conversation.
    pub fn dial(&mut self, peer: PublicKey) -> Result<(), ClientError> {
        self.start_conversation(peer)?;
        self.dial_queue.push_back(peer);
        Ok(())
    }

    /// Builds this dialing round's onion-wrapped request: a real
    /// invitation if one is queued, otherwise a no-op write (§5.2).
    /// Zero-copy, like [`Client::build_conversation_requests`].
    pub fn build_dial_request<R: RngCore + CryptoRng>(
        &mut self,
        rng: &mut R,
        round: u64,
        num_drops: u32,
        server_pks: &[PublicKey],
    ) -> Vec<u8> {
        self.ensure_chain_precomp(server_pks);
        let request = match self.dial_queue.pop_front() {
            Some(peer) => DialRequest {
                drop: InvitationDropIndex::for_recipient(&peer, num_drops),
                invitation: SealedInvitation::seal(rng, &self.keypair.public, &peer),
            },
            None => DialRequest::noop(rng),
        };
        let chain_len = server_pks.len();
        let mut onion_bytes = vec![0u8; onion::wrapped_len(DIAL_REQUEST_LEN, chain_len)];
        request.encode_into(&mut onion_bytes[32 * chain_len..]);
        let _ = onion::wrap_into_with(
            rng,
            &self.chain_precomp,
            round,
            &mut onion_bytes,
            DIAL_REQUEST_LEN,
        );
        onion_bytes
    }

    /// The invitation drop this client must download (derived from its
    /// public key, §5.1 — the adversary knows it too).
    #[must_use]
    pub fn invitation_drop(&self, num_drops: u32) -> InvitationDropIndex {
        InvitationDropIndex::for_recipient(&self.keypair.public, num_drops)
    }

    /// Scans a downloaded invitation drop, trial-decrypting every entry
    /// (§5.1), and stores the discovered callers.
    ///
    /// Returns the callers found in this batch.
    pub fn scan_invitation_drop(&mut self, contents: &[SealedInvitation]) -> Vec<PublicKey> {
        let mine: Vec<PublicKey> = contents
            .iter()
            .filter_map(|inv| inv.try_open(&self.keypair.secret, &self.keypair.public))
            .collect();
        self.invitations.extend(mine.iter().copied());
        mine
    }

    /// Invitations received so far and not yet accepted or declined.
    #[must_use]
    pub fn pending_invitations(&self) -> &[PublicKey] {
        &self.invitations
    }

    /// Accepts an invitation: enters a conversation with the caller.
    ///
    /// # Errors
    ///
    /// [`ClientError::AllSlotsBusy`] when no slot is free.
    pub fn accept_invitation(&mut self, caller: PublicKey) -> Result<usize, ClientError> {
        self.invitations.retain(|pk| *pk != caller);
        self.start_conversation(caller)
    }

    /// Declines (discards) an invitation.
    pub fn decline_invitation(&mut self, caller: &PublicKey) {
        self.invitations.retain(|pk| pk != caller);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vuvuzela_dp::{NoiseDistribution, NoiseMode};

    fn cfg(slots: usize) -> SystemConfig {
        SystemConfig {
            chain_len: 2,
            conversation_noise: NoiseDistribution::new(1.0, 1.0),
            dialing_noise: NoiseDistribution::new(1.0, 1.0),
            noise_mode: NoiseMode::Off,
            workers: 1,
            conversation_slots: slots,
            retransmit_after: 2,
            exchange_shards: 4,
        }
    }

    fn client(name: &str, seed: u64, slots: usize) -> Client {
        let mut rng = StdRng::seed_from_u64(seed);
        Client::new(name, Keypair::generate(&mut rng), cfg(slots))
    }

    #[test]
    fn slot_management() {
        let mut alice = client("alice", 1, 2);
        let bob = client("bob", 2, 1);
        let carol = client("carol", 3, 1);
        let dave = client("dave", 4, 1);

        let s1 = alice.start_conversation(bob.public_key()).expect("slot 0");
        assert_eq!(s1, 0);
        // Idempotent for the same peer.
        assert_eq!(alice.start_conversation(bob.public_key()), Ok(0));
        let s2 = alice
            .start_conversation(carol.public_key())
            .expect("slot 1");
        assert_eq!(s2, 1);
        assert_eq!(
            alice.start_conversation(dave.public_key()),
            Err(ClientError::AllSlotsBusy)
        );
        alice.end_conversation(&bob.public_key()).expect("end");
        assert_eq!(alice.start_conversation(dave.public_key()), Ok(0));
        assert_eq!(
            alice.end_conversation(&bob.public_key()),
            Err(ClientError::NoConversationWith)
        );
    }

    #[test]
    fn queue_message_validation() {
        let mut alice = client("alice", 5, 1);
        let bob = client("bob", 6, 1);
        assert_eq!(
            alice.queue_message(&bob.public_key(), b"hi"),
            Err(ClientError::NoConversationWith)
        );
        alice.start_conversation(bob.public_key()).expect("start");
        assert!(alice.queue_message(&bob.public_key(), b"hi").is_ok());
        assert_eq!(
            alice.queue_message(&bob.public_key(), &vec![0u8; MAX_BODY_LEN + 1]),
            Err(ClientError::MessageTooLong {
                limit: MAX_BODY_LEN
            })
        );
    }

    #[test]
    fn requests_are_uniform_regardless_of_activity() {
        // An idle client and a talking client must emit identically
        // shaped requests.
        let mut rng = StdRng::seed_from_u64(7);
        let server_pks: Vec<PublicKey> =
            (0..3).map(|_| Keypair::generate(&mut rng).public).collect();
        let mut idle = client("idle", 8, 1);
        let mut talker = client("talker", 9, 1);
        let peer = client("peer", 10, 1);
        talker.start_conversation(peer.public_key()).expect("start");
        talker
            .queue_message(&peer.public_key(), b"secret")
            .expect("queue");

        let idle_reqs = idle.build_conversation_requests(&mut rng, 0, &server_pks);
        let talk_reqs = talker.build_conversation_requests(&mut rng, 0, &server_pks);
        assert_eq!(idle_reqs.len(), 1);
        assert_eq!(talk_reqs.len(), 1);
        assert_eq!(idle_reqs[0].len(), talk_reqs[0].len());
    }

    #[test]
    fn frame_selection_prefers_retransmission() {
        let mut alice = client("alice", 11, 1);
        let bob = client("bob", 12, 1);
        alice.start_conversation(bob.public_key()).expect("start");
        alice.queue_message(&bob.public_key(), b"first").expect("q");

        let slot = alice.slots[0].as_mut().expect("conversation");
        // Round 0: sends "first" (seq 0).
        let f0 = slot.next_frame(0, 2, 4);
        assert_eq!(f0.kind, MessageKind::Data);
        assert_eq!(f0.seq, 0);
        // Round 1: nothing new, not yet overdue → keep-alive.
        let f1 = slot.next_frame(1, 2, 4);
        assert_eq!(f1.kind, MessageKind::KeepAlive);
        // Round 2: overdue → retransmit seq 0.
        let f2 = slot.next_frame(2, 2, 4);
        assert_eq!(f2.kind, MessageKind::Data);
        assert_eq!(f2.seq, 0);
        assert_eq!(f2.body, b"first");
    }

    #[test]
    fn receive_frame_handles_order_and_dups() {
        let mut alice = client("alice", 13, 1);
        let bob = client("bob", 14, 1);
        alice.start_conversation(bob.public_key()).expect("start");
        let conv = alice.slots[0].as_mut().expect("conversation");

        // Out of order: seq 1 before seq 0.
        conv.receive_frame(FramedMessage::data(1, 0, b"second"));
        assert_eq!(conv.delivered.iter().count(), 0);
        conv.receive_frame(FramedMessage::data(0, 0, b"first"));
        let both = vec![b"first".to_vec(), b"second".to_vec()];
        assert_eq!(conv.delivered.to_vecs(), both);
        // Duplicate ignored.
        conv.receive_frame(FramedMessage::data(0, 0, b"first"));
        assert_eq!(conv.delivered.to_vecs(), both);
        assert_eq!(conv.next_expected, 2);
    }

    #[test]
    fn acks_clear_inflight() {
        let mut alice = client("alice", 15, 1);
        let bob = client("bob", 16, 1);
        alice.start_conversation(bob.public_key()).expect("start");
        let conv = alice.slots[0].as_mut().expect("conversation");
        conv.send_queue.push_back(b"a".to_vec());
        conv.send_queue.push_back(b"b".to_vec());
        let _ = conv.next_frame(0, 2, 4);
        let _ = conv.next_frame(1, 2, 4);
        assert_eq!(conv.inflight.len(), 2);
        // Peer acks everything below 2.
        conv.receive_frame(FramedMessage::keep_alive(0, 2));
        assert!(conv.inflight.is_empty());
        assert!(conv.fully_acked());
    }

    #[test]
    fn queue_text_splits_long_messages() {
        let mut alice = client("alice", 40, 1);
        let bob = client("bob", 41, 1);
        alice.start_conversation(bob.public_key()).expect("start");

        let long = vec![b'x'; MAX_BODY_LEN * 2 + 10];
        let segments = alice.queue_text(&bob.public_key(), &long).expect("queues");
        assert_eq!(segments, 3);
        let conv = alice.slots[0].as_ref().expect("conversation");
        assert_eq!(conv.send_queue.len(), 3);
        assert_eq!(conv.send_queue[0].len(), MAX_BODY_LEN);
        assert_eq!(conv.send_queue[2].len(), 10);

        // Empty text still queues one (empty) message.
        let mut alice2 = client("alice2", 42, 1);
        alice2.start_conversation(bob.public_key()).expect("start");
        assert_eq!(alice2.queue_text(&bob.public_key(), b""), Ok(1));
    }

    #[test]
    fn dialing_queue_and_noop() {
        let mut rng = StdRng::seed_from_u64(17);
        let server_pks: Vec<PublicKey> =
            (0..2).map(|_| Keypair::generate(&mut rng).public).collect();
        let mut alice = client("alice", 18, 1);
        let bob = client("bob", 19, 1);

        alice.dial(bob.public_key()).expect("dial");
        // One queued invitation, then no-ops; all requests identical size.
        let r1 = alice.build_dial_request(&mut rng, 0, 4, &server_pks);
        let r2 = alice.build_dial_request(&mut rng, 1, 4, &server_pks);
        assert_eq!(r1.len(), r2.len());
        // The dial also preemptively started the conversation.
        assert_eq!(alice.active_peers(), vec![bob.public_key()]);
    }

    #[test]
    fn invitation_scan_and_accept() {
        let mut rng = StdRng::seed_from_u64(20);
        let mut alice = client("alice", 21, 1);
        let mut bob = client("bob", 22, 1);

        let drop_contents = vec![
            SealedInvitation::noise(&mut rng),
            SealedInvitation::seal(&mut rng, &alice.public_key(), &bob.public_key()),
            SealedInvitation::noise(&mut rng),
        ];
        let found = bob.scan_invitation_drop(&drop_contents);
        assert_eq!(found, vec![alice.public_key()]);
        assert_eq!(bob.pending_invitations(), &[alice.public_key()]);
        bob.accept_invitation(alice.public_key()).expect("accept");
        assert!(bob.pending_invitations().is_empty());
        assert_eq!(bob.active_peers(), vec![alice.public_key()]);
        let _ = &mut alice;
    }

    #[test]
    fn decline_invitation_discards() {
        let mut rng = StdRng::seed_from_u64(23);
        let alice = client("alice", 24, 1);
        let mut bob = client("bob", 25, 1);
        let inv = SealedInvitation::seal(&mut rng, &alice.public_key(), &bob.public_key());
        bob.scan_invitation_drop(&[inv]);
        bob.decline_invitation(&alice.public_key());
        assert!(bob.pending_invitations().is_empty());
        assert!(bob.active_peers().is_empty());
    }

    #[test]
    fn expire_pending_bounds_memory() {
        let mut rng = StdRng::seed_from_u64(26);
        let server_pks: Vec<PublicKey> =
            (0..2).map(|_| Keypair::generate(&mut rng).public).collect();
        let mut alice = client("alice", 27, 1);
        for round in 0..10 {
            let _ = alice.build_conversation_requests(&mut rng, round, &server_pks);
        }
        assert_eq!(alice.pending.len(), 10);
        alice.expire_pending(8);
        assert_eq!(alice.pending.len(), 2);
    }

    #[test]
    fn replies_for_unknown_rounds_are_ignored() {
        let mut alice = client("alice", 28, 1);
        alice.handle_conversation_replies(99, vec![Some(vec![0u8; 300])]);
        // No panic, no state change.
        assert!(alice.pending.is_empty());
    }

    #[test]
    fn queue_message_to_ended_conversation_fails() {
        let mut alice = client("alice", 30, 1);
        let bob = client("bob", 31, 1);
        alice.start_conversation(bob.public_key()).expect("start");
        alice
            .queue_message(&bob.public_key(), b"hi")
            .expect("queue");
        alice.end_conversation(&bob.public_key()).expect("end");
        // The slot is gone: further queues are rejected, not silently
        // dropped into a dead send queue.
        assert_eq!(
            alice.queue_message(&bob.public_key(), b"too late"),
            Err(ClientError::NoConversationWith)
        );
        assert!(alice.delivered_from(&bob.public_key()).is_empty());
        // Restarting yields a fresh conversation with no stale state.
        alice.start_conversation(bob.public_key()).expect("restart");
        assert!(alice.queue_message(&bob.public_key(), b"fresh").is_ok());
        assert!(!alice.conversation_idle(&bob.public_key()));
    }

    #[test]
    fn start_conversation_twice_occupies_one_slot() {
        // Starting twice with the same peer is idempotent — it must not
        // burn a second slot, and one `end` fully clears it.
        let mut alice = client("alice", 32, 2);
        let bob = client("bob", 33, 1);
        let carol = client("carol", 34, 1);
        assert_eq!(alice.start_conversation(bob.public_key()), Ok(0));
        assert_eq!(alice.start_conversation(bob.public_key()), Ok(0));
        assert_eq!(alice.active_peers(), vec![bob.public_key()]);
        // The second slot is still free for Carol.
        assert_eq!(alice.start_conversation(carol.public_key()), Ok(1));
        alice.end_conversation(&bob.public_key()).expect("end");
        // No phantom second entry for Bob.
        assert_eq!(
            alice.end_conversation(&bob.public_key()),
            Err(ClientError::NoConversationWith)
        );
        assert_eq!(alice.active_peers(), vec![carol.public_key()]);
    }

    #[test]
    fn redial_after_missed_dialing_round_resends_invitation() {
        // A caller whose invitation the callee never downloaded (the
        // drop was overwritten by a later dialing round) re-dials: the
        // same-peer slot is reused without error and a second *real*
        // invitation goes out. With an empty chain suffix the dial
        // request is observable in plaintext, so the test can tell real
        // invitations from no-op writes.
        let mut rng = StdRng::seed_from_u64(35);
        let mut alice = client("alice", 36, 1);
        let bob = client("bob", 37, 1);
        let target = InvitationDropIndex::for_recipient(&bob.public_key(), 4);

        alice.dial(bob.public_key()).expect("first dial");
        let r0 = DialRequest::decode(&alice.build_dial_request(&mut rng, 0, 4, &[]))
            .expect("plain request");
        assert_eq!(r0.drop, target, "first dial sends a real invitation");
        assert!(
            r0.invitation
                .try_open(&bob.keypair.secret, &bob.public_key())
                .is_some(),
            "the invitation opens for the callee"
        );

        // Nothing queued: the next dialing round is a no-op write.
        let r1 = DialRequest::decode(&alice.build_dial_request(&mut rng, 1, 4, &[]))
            .expect("plain request");
        assert!(
            r1.drop.is_noop(),
            "idle dialing rounds write to the no-op drop"
        );

        // Re-dial the same peer: the occupied slot is *not* an error
        // (the conversation is already entered) and a fresh real
        // invitation is queued.
        alice.dial(bob.public_key()).expect("re-dial same peer");
        assert_eq!(alice.active_peers(), vec![bob.public_key()]);
        let r2 = DialRequest::decode(&alice.build_dial_request(&mut rng, 2, 4, &[]))
            .expect("plain request");
        assert_eq!(r2.drop, target, "re-dial sends a second real invitation");
        assert!(r2
            .invitation
            .try_open(&bob.keypair.secret, &bob.public_key())
            .is_some());
    }

    #[test]
    fn dial_with_busy_slots_queues_nothing() {
        let mut rng = StdRng::seed_from_u64(38);
        let mut alice = client("alice", 39, 1);
        let bob = client("bob", 43, 1);
        let carol = client("carol", 44, 1);
        alice.dial(bob.public_key()).expect("dial bob");
        // The only slot is Bob's: dialing Carol fails...
        assert_eq!(
            alice.dial(carol.public_key()),
            Err(ClientError::AllSlotsBusy)
        );
        // ...and must not have queued an invitation for her: after
        // Bob's invitation drains, the next request is a no-op.
        let r0 = DialRequest::decode(&alice.build_dial_request(&mut rng, 0, 2, &[]))
            .expect("plain request");
        assert!(!r0.drop.is_noop(), "bob's invitation goes first");
        let r1 = DialRequest::decode(&alice.build_dial_request(&mut rng, 1, 2, &[]))
            .expect("plain request");
        assert!(r1.drop.is_noop(), "no phantom invitation for carol");
    }
}
