//! The Vuvuzela client (paper Algorithm 1, §3, §5), one struct-of-arrays
//! population at a time.
//!
//! A [`ClientCohort`] holds N members' long-term keys, conversation
//! slots, dial queues and reply keys in flat parallel arrays. Every
//! member has a fixed number of *conversation slots* (§9 "Multiple
//! conversations": the count is fixed a priori so it leaks nothing; the
//! paper's prototype uses one), and every conversation round each
//! online member emits exactly one request per slot:
//!
//! * an **active** slot performs a real dead-drop exchange with its
//!   partner (Algorithm 1 step 1a), carrying either a data message from
//!   the send queue, a retransmission, or a keep-alive;
//! * an **idle** slot performs a fake exchange against a random dead drop
//!   (step 1b).
//!
//! On the wire the two are indistinguishable. Likewise every dialing
//! round each online member sends exactly one invitation: the oldest in
//! its dial queue, or a write to the no-op drop (§5.2). Offline members
//! send nothing.
//!
//! Every X25519 of the conversation protocol goes through the batched
//! kernels, eight lanes at a time where the CPU can ([`x25519_batch`],
//! [`x25519_base_batch`]). Entering a conversation ([`ClientCohort::pair`],
//! [`ClientCohort::start_conversation`], [`ClientCohort::dial`],
//! [`ClientCohort::accept_invitation`]) takes the slot at once but only
//! queues the Diffie-Hellman with the partner (§3); the next round build
//! or reply ingest derives every queued key together. A fake exchange's
//! random partner is drawn in pass A of the build and its two
//! multiplications (the partner's keygen, then the DH) run per chunk,
//! before the chunk is wrapped. Only the dialing protocol's sealed box
//! (sealing a real invitation, scanning a drop) stays scalar.
//!
//! Each round the cohort builds all requests directly into one
//! [`RoundBuffer`] arena — no per-onion `Vec`, no per-member request
//! list, no per-member key list — parallelised over
//! [`vuvuzela_net::WorkerPool::map_vec`] by chunk of consecutive senders, each
//! chunk's onions wrapped together through
//! [`onion::wrap_chunk_in_place`], and ingests the round's replies by
//! member stripe. One shared set of per-server DH tables serves the
//! whole cohort.
//!
//! Bytes are a pure function of the schedule: a member's round
//! randomness is [`client_round_rng`]`(seed, round, k)`, `k` its
//! position among the round's online members, so worker count and
//! scheduling order cannot change them; its keypair is the next draw of
//! the [`key_rng`]`(seed)` stream ([`ClientCohort::join`]) or a secret
//! the caller drew ([`ClientCohort::admit`]).

use crate::client::{ClientError, Conversation};
use crate::config::SystemConfig;
use crate::noise::WRAP_CHUNK_SLOTS;
use crate::roundbuf::RoundBuffer;
use crate::server::round_rng;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use vuvuzela_crypto::onion::{self, LayerKey};
use vuvuzela_crypto::x25519::{
    x25519_base_batch, x25519_batch, PublicKey, SecretKey, SharedSecret,
};
use vuvuzela_net::WorkerPool;
use vuvuzela_wire::conversation::{ConversationKeys, ExchangeRequest};
use vuvuzela_wire::deaddrop::InvitationDropIndex;
use vuvuzela_wire::dialing::{DialRequest, SealedInvitation};
use vuvuzela_wire::message::{FramedMessage, MAX_BODY_LEN};
use vuvuzela_wire::{DIAL_REQUEST_LEN, EXCHANGE_REQUEST_LEN, EXCHANGE_RESPONSE_LEN, MESSAGE_LEN};

/// splitmix64 finalisation, the same mixer [`round_rng`] uses.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG for the `index`-th sender's requests in `round`, as a pure
/// function of `(seed, round, index)`. Worker count and scheduling order
/// therefore cannot change any member's randomness.
#[must_use]
pub fn client_round_rng(seed: u64, round: u64, index: u64) -> StdRng {
    let client_seed = splitmix64(seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
    round_rng(client_seed, round)
}

/// The keypair-generation RNG for a cohort with the given seed. Member
/// `i`'s keypair is the `i`-th `Keypair::generate` drawn from this
/// stream, regardless of how many [`ClientCohort::join`] calls grew the
/// cohort.
#[must_use]
pub fn key_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed ^ 0x6A09_E667_F3BC_C909))
}

/// Reply keys for one in-flight conversation round: the members that
/// sent, in request order, and their layer keys, flattened
/// request-major: request `f`'s keys live at
/// `[f * chain_len .. (f + 1) * chain_len]`.
struct PendingBatch {
    members: Vec<usize>,
    keys: Vec<LayerKey>,
}

/// One deferred Diffie-Hellman: `member`'s secret against `peer`. Its
/// shared secret keys each of `slots` still waiting for it: `member`'s
/// own slot and, for a [`ClientCohort::pair`], the partner's
/// (`a·B = b·A`, so a pair costs one lane).
struct QueuedAgreement {
    member: usize,
    peer: PublicKey,
    slots: [Option<usize>; 2],
}

/// Why no queued key can be missing where a build or an ingest reads it.
const DERIVED: &str = "queued keys are derived at the top of every build and ingest";

/// One member's conversation slots, with its index.
type MemberSlots<'a> = (usize, &'a mut [Option<Box<Conversation>>]);

/// One build-stage work item — a chunk of consecutive senders: the
/// first one's position among the round's senders, the senders, their
/// stretch of the round arena, and their window of the round's
/// layer-key arena.
type BuildItem<'a, 'b> = (
    usize,
    &'b mut [MemberSlots<'a>],
    &'b mut [u8],
    &'b mut [LayerKey],
);

/// One member's reply-ingestion work item: its conversation slots, its
/// replies, and the layer keys recorded at build time.
type IngestItem<'a> = (
    &'a mut [Option<Box<Conversation>>],
    &'a [Vec<u8>],
    &'a [LayerKey],
);

/// The conversation slots of each member in `members` (ascending).
fn member_slots<'a>(
    slots: &'a mut [Option<Box<Conversation>>],
    per: usize,
    members: &[usize],
) -> Vec<MemberSlots<'a>> {
    let mut wanted = members.iter().peekable();
    slots
        .chunks_mut(per)
        .enumerate()
        .filter(|(i, _)| wanted.next_if_eq(&i).is_some())
        .collect()
}

/// A struct-of-arrays population of Vuvuzela clients; see the module
/// docs.
pub struct ClientCohort {
    config: SystemConfig,
    seed: u64,
    server_pks: Vec<PublicKey>,
    tables: Arc<Vec<onion::PrecomputedServer>>,
    /// Persisted across [`ClientCohort::join`] calls so growth order
    /// does not change anyone's identity.
    key_rng: StdRng,
    secrets: Vec<SecretKey>,
    publics: Vec<PublicKey>,
    by_key: HashMap<PublicKey, usize>,
    online: Vec<bool>,
    /// `conversation_slots` entries per member, member-major. Boxed so
    /// the idle (overwhelmingly common) case costs one pointer per
    /// slot.
    slots: Vec<Option<Box<Conversation>>>,
    /// Queued invitations of the members that dialed, oldest first.
    dial_queues: HashMap<usize, VecDeque<PublicKey>>,
    /// Callers found in scanned invitation drops, per member, not yet
    /// accepted or declined.
    invitations: HashMap<usize, Vec<PublicKey>>,
    /// Conversation keys entered since the last build or ingest, which
    /// derives them (`ClientCohort::derive_queued_keys`).
    queued: Vec<QueuedAgreement>,
    pending: HashMap<u64, PendingBatch>,
}

impl ClientCohort {
    /// Creates an empty cohort for a chain. `tables` must be the shared
    /// per-server DH tables for exactly `server_pks` (see
    /// [`ClientCohort::chain_tables`]).
    ///
    /// # Panics
    ///
    /// Panics if the chain is empty, `tables` does not have one entry
    /// per server key, or the config is invalid.
    #[must_use]
    pub fn new(
        config: SystemConfig,
        seed: u64,
        server_pks: &[PublicKey],
        tables: Arc<Vec<onion::PrecomputedServer>>,
    ) -> ClientCohort {
        config.validate();
        assert!(!server_pks.is_empty(), "a cohort wraps for a chain");
        assert_eq!(tables.len(), server_pks.len(), "one table per server");
        ClientCohort {
            config,
            seed,
            server_pks: server_pks.to_vec(),
            tables,
            key_rng: key_rng(seed),
            secrets: Vec::new(),
            publics: Vec::new(),
            by_key: HashMap::new(),
            online: Vec::new(),
            slots: Vec::new(),
            dial_queues: HashMap::new(),
            invitations: HashMap::new(),
            queued: Vec::new(),
            pending: HashMap::new(),
        }
    }

    /// Like [`ClientCohort::new`], building the DH tables itself.
    #[must_use]
    pub fn with_own_tables(
        config: SystemConfig,
        seed: u64,
        server_pks: &[PublicKey],
    ) -> ClientCohort {
        let tables = ClientCohort::chain_tables(server_pks);
        ClientCohort::new(config, seed, server_pks, tables)
    }

    /// Builds one shareable set of per-server DH tables for a chain, so
    /// that every cohort wrapping for it builds (and holds) them once.
    #[must_use]
    pub fn chain_tables(server_pks: &[PublicKey]) -> Arc<Vec<onion::PrecomputedServer>> {
        Arc::new(
            server_pks
                .iter()
                .map(|pk| onion::PrecomputedServer::new(*pk))
                .collect(),
        )
    }

    /// Adds `count` fresh members (online, idle, no conversations).
    /// Their secrets continue the cohort's [`key_rng`] stream, drawn in
    /// `Keypair::generate`'s order.
    pub fn join(&mut self, count: usize) {
        let secrets = (0..count)
            .map(|_| SecretKey::generate(&mut self.key_rng))
            .collect();
        self.admit(secrets);
    }

    /// Adds one fresh member (online, idle, no conversations) per secret
    /// key, in order, deriving the public keys together
    /// ([`x25519_base_batch`], eight at a time where the CPU can).
    pub fn admit(&mut self, secrets: Vec<SecretKey>) {
        let scalars: Vec<[u8; 32]> = secrets.iter().map(|s| *s.as_bytes()).collect();
        for (secret, public) in secrets.into_iter().zip(x25519_base_batch(&scalars)) {
            let public = PublicKey::from_bytes(public);
            self.by_key.insert(public, self.publics.len());
            self.secrets.push(secret);
            self.publics.push(public);
        }
        self.online.resize(self.publics.len(), true);
        let slots = self.publics.len() * self.config.conversation_slots;
        self.slots.resize_with(slots, || None);
    }

    /// Number of members in the cohort.
    #[must_use]
    pub fn len(&self) -> usize {
        self.publics.len()
    }

    /// Whether the cohort holds no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.publics.is_empty()
    }

    /// The system config the cohort was built with.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Member `index`'s long-term public key (its identity, §2.3).
    #[must_use]
    pub fn public_key(&self, index: usize) -> PublicKey {
        self.publics[index]
    }

    /// Takes member `index` on- or offline. An offline member sends
    /// nothing, and its dial queue waits for it.
    pub fn set_online(&mut self, index: usize, online: bool) {
        self.online[index] = online;
    }

    /// Whether member `index` sends in the next round.
    #[must_use]
    pub fn is_online(&self, index: usize) -> bool {
        self.online[index]
    }

    fn slot_range(&self, index: usize) -> core::ops::Range<usize> {
        let per = self.config.conversation_slots;
        index * per..(index + 1) * per
    }

    fn conversations(&self, index: usize) -> impl Iterator<Item = &Conversation> {
        self.slots[self.slot_range(index)]
            .iter()
            .flatten()
            .map(|c| &**c)
    }

    fn slot_of(&self, index: usize, peer: &PublicKey) -> Option<usize> {
        self.slots[self.slot_range(index)]
            .iter()
            .position(|s| s.as_ref().is_some_and(|c| c.peer == *peer))
            .map(|p| index * self.config.conversation_slots + p)
    }

    /// The slot a new conversation of member `index` with `peer` goes
    /// in — its first free one — or `None` when the two already talk.
    fn free_slot_for(&self, index: usize, peer: &PublicKey) -> Result<Option<usize>, ClientError> {
        if self.slot_of(index, peer).is_some() {
            return Ok(None);
        }
        let range = self.slot_range(index);
        let free = self.slots[range.clone()].iter().position(Option::is_none);
        Ok(Some(range.start + free.ok_or(ClientError::AllSlotsBusy)?))
    }

    /// Puts a conversation of member `index` with `peer`, its keys not
    /// yet agreed, in the member's first free slot, and returns that
    /// slot; `None` when the two already talk.
    fn enter(&mut self, index: usize, peer: PublicKey) -> Result<Option<usize>, ClientError> {
        let slot = self.free_slot_for(index, &peer)?;
        if let Some(slot) = slot {
            self.slots[slot] = Some(Box::new(Conversation::new(peer)));
        }
        Ok(slot)
    }

    /// Queues `member`'s key agreement with `peer` for the slots that
    /// wait for it.
    fn queue_agreement(&mut self, member: usize, peer: PublicKey, slots: [Option<usize>; 2]) {
        if slots.iter().any(Option::is_some) {
            self.queued.push(QueuedAgreement {
                member,
                peer,
                slots,
            });
        }
    }

    /// Enters member `index` into a conversation with `peer` in its
    /// first free slot; idempotent when the two already talk. The slot
    /// is taken, and messages can be queued to `peer`, at once; the
    /// conversation's keys are derived at the next round build (or
    /// reply ingest), together with every other queued key, eight lanes
    /// at a time.
    ///
    /// # Errors
    ///
    /// [`ClientError::AllSlotsBusy`] when every slot is taken.
    pub fn start_conversation(&mut self, index: usize, peer: PublicKey) -> Result<(), ClientError> {
        let slot = self.enter(index, peer)?;
        self.queue_agreement(index, peer, [slot, None]);
        Ok(())
    }

    /// Starts a mutual conversation between members `a` and `b`: what
    /// [`ClientCohort::start_conversation`] on each side does, with the
    /// pair's one Diffie-Hellman queued once (`a·B = b·A`) and both
    /// sides' keys derived from it at the next round build, eight lanes
    /// at a time.
    ///
    /// # Errors
    ///
    /// [`ClientError::AllSlotsBusy`] if either side has no free slot
    /// (side `a` may keep the half-open slot, exactly as two
    /// `start_conversation` calls would).
    pub fn pair(&mut self, a: usize, b: usize) -> Result<(), ClientError> {
        let (pk_a, pk_b) = (self.publics[a], self.publics[b]);
        let slot_a = self.enter(a, pk_b)?;
        let slot_b = self.enter(b, pk_a);
        self.queue_agreement(a, pk_b, [slot_a, slot_b.unwrap_or(None)]);
        slot_b.map(|_| ())
    }

    /// Derives the keys of every queued agreement whose slot still waits
    /// for it — one whose slot was freed, or reused by another peer, in
    /// the meantime is skipped — in one [`x25519_batch`] call split by
    /// chunk over `config.workers`, as the build is, each side keyed by
    /// [`ConversationKeys::from_shared`].
    fn derive_queued_keys(&mut self) {
        if self.queued.is_empty() {
            return;
        }
        let per = self.config.conversation_slots;
        let (slots, secrets, publics) = (&self.slots, &self.secrets, &self.publics);
        // The partner key slot `slot` of agreement `q` is keyed against.
        let partner = |q: &QueuedAgreement, slot: usize| {
            if slot / per == q.member {
                q.peer
            } else {
                publics[q.member]
            }
        };
        let live: Vec<QueuedAgreement> = self
            .queued
            .drain(..)
            .filter_map(|mut q| {
                let waits = |slot: &usize| {
                    slots[*slot]
                        .as_ref()
                        .is_some_and(|c| c.keys.is_none() && c.peer == partner(&q, *slot))
                };
                q.slots = q.slots.map(|slot| slot.filter(waits));
                q.slots.iter().any(Option::is_some).then_some(q)
            })
            .collect();
        let derived = WorkerPool::shared().map_vec(
            live.chunks(WRAP_CHUNK_SLOTS).collect(),
            self.config.workers,
            |chunk: &[QueuedAgreement]| {
                let scalars: Vec<[u8; 32]> = chunk
                    .iter()
                    .map(|q| *secrets[q.member].as_bytes())
                    .collect();
                let us: Vec<[u8; 32]> = chunk.iter().map(|q| q.peer.0).collect();
                let mut keys = Vec::with_capacity(2 * chunk.len());
                for (q, shared) in chunk.iter().zip(x25519_batch(&scalars, &us)) {
                    for slot in q.slots.into_iter().flatten() {
                        let mine = &publics[slot / per];
                        let theirs = partner(q, slot);
                        let shared = SharedSecret(shared);
                        keys.push((slot, ConversationKeys::from_shared(&shared, mine, &theirs)));
                    }
                }
                keys
            },
        );
        for (slot, keys) in derived.into_iter().flatten() {
            self.slots[slot].as_mut().expect("a waiting slot").keys = Some(keys);
        }
    }

    /// Leaves member `index`'s conversation with `peer`, freeing its
    /// slot.
    ///
    /// # Errors
    ///
    /// [`ClientError::NoConversationWith`] if there is none.
    pub fn end_conversation(&mut self, index: usize, peer: &PublicKey) -> Result<(), ClientError> {
        let slot = self
            .slot_of(index, peer)
            .ok_or(ClientError::NoConversationWith)?;
        self.slots[slot] = None;
        Ok(())
    }

    /// Queues a message from member `index` to its partner `peer`.
    ///
    /// # Errors
    ///
    /// [`ClientError::NoConversationWith`] without an active
    /// conversation; [`ClientError::MessageTooLong`] for oversized
    /// bodies.
    pub fn queue_message(
        &mut self,
        index: usize,
        peer: &PublicKey,
        body: &[u8],
    ) -> Result<(), ClientError> {
        if body.len() > MAX_BODY_LEN {
            return Err(ClientError::MessageTooLong {
                limit: MAX_BODY_LEN,
            });
        }
        let slot = self
            .slot_of(index, peer)
            .ok_or(ClientError::NoConversationWith)?;
        self.slots[slot]
            .as_mut()
            .expect("slot_of returned an occupied slot")
            .send_queue
            .push_back(body.to_vec());
        Ok(())
    }

    /// Messages delivered so far to member `index` by its conversation
    /// with `peer`, in order.
    #[must_use]
    pub fn delivered_from(&self, index: usize, peer: &PublicKey) -> Vec<Vec<u8>> {
        self.slot_of(index, peer)
            .and_then(|s| self.slots[s].as_ref())
            .map(|c| c.delivered.to_vecs())
            .unwrap_or_default()
    }

    /// Every message delivered to member `index`, across its
    /// conversations in slot order.
    #[must_use]
    pub fn all_delivered(&self, index: usize) -> Vec<Vec<u8>> {
        self.conversations(index)
            .flat_map(|c| c.delivered.iter().map(<[u8]>::to_vec))
            .collect()
    }

    /// The partners of member `index`'s active conversations, in slot
    /// order.
    #[must_use]
    pub fn peers(&self, index: usize) -> Vec<PublicKey> {
        self.conversations(index).map(|c| c.peer).collect()
    }

    /// Mutual conversation pairs among online members: unordered pairs
    /// `{i, j}`, both online, where each currently holds the other as a
    /// partner. This is the cohort's contribution to a round's real
    /// `m2` (§5.4); conversations with keys outside the cohort are not
    /// counted.
    #[must_use]
    pub fn mutual_pairs(&self) -> u64 {
        let mut pairs = 0;
        for i in (0..self.len()).filter(|&i| self.online[i]) {
            for conversation in self.conversations(i) {
                if let Some(&j) = self.by_key.get(&conversation.peer) {
                    if j > i && self.online[j] && self.slot_of(j, &self.publics[i]).is_some() {
                        pairs += 1;
                    }
                }
            }
        }
        pairs
    }

    fn online_members(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.online[i]).collect()
    }

    /// Builds one conversation round's requests for every online member
    /// — exactly one onion per slot, real or fake, written straight into
    /// a flat [`RoundBuffer`] (stride = onion width, no per-onion
    /// allocation) in member-major slot order. First every queued
    /// conversation key is derived (`ClientCohort::derive_queued_keys`).
    /// Then work is split across `config.workers` threads by chunk
    /// of consecutive senders (`WRAP_CHUNK_SLOTS` onions), each chunk
    /// in two passes: pass A walks its senders in order doing everything
    /// that draws from a sender's RNG — per slot the real payload's seal
    /// and encode (active slots) or the fake partner's secret (idle
    /// slots), then that onion's [`onion::draw_layer_secrets`] — and
    /// pass B derives the chunk's fake partners' public keys
    /// ([`x25519_base_batch`]) and the fake shared secrets
    /// ([`x25519_batch`]), seals and encodes the fake payloads, and
    /// wraps the whole chunk through [`onion::wrap_chunk_in_place`],
    /// which writes the layer keys for
    /// [`ClientCohort::handle_conversation_replies`] straight into the
    /// chunk's window of the round's one flat key arena.
    pub fn build_conversation_round(&mut self, round: u64) -> RoundBuffer {
        self.derive_queued_keys();
        let chain_len = self.server_pks.len();
        let slots_per = self.config.conversation_slots;
        let width = onion::wrapped_len(EXCHANGE_REQUEST_LEN, chain_len);
        let members = self.online_members();
        let requests = members.len() * slots_per;
        let mut buf = RoundBuffer::with_capacity(width, width, requests);
        for _ in 0..requests {
            buf.push_with(|_| {});
        }
        let mut keys = vec![LayerKey([0u8; 32]); requests * chain_len];

        let retransmit_after = self.config.retransmit_after;
        let seed = self.seed;
        let tables: &[onion::PrecomputedServer] = &self.tables;
        let secrets = &self.secrets;
        let publics = &self.publics;
        let chunk_clients = (WRAP_CHUNK_SLOTS / slots_per).max(1);
        let chunk_onions = chunk_clients * slots_per;
        let mut senders = member_slots(&mut self.slots, slots_per, &members);
        let items: Vec<BuildItem<'_, '_>> = senders
            .chunks_mut(chunk_clients)
            .zip(buf.arena_mut().chunks_mut(width * chunk_onions))
            .zip(keys.chunks_mut(chain_len * chunk_onions))
            .enumerate()
            .map(|(c, ((senders, arena), keys))| (c * chunk_clients, senders, arena, keys))
            .collect();

        WorkerPool::shared().map_vec(
            items,
            self.config.workers,
            |(first, senders, arena, keys)| {
                let mut layer_secrets = vec![[0u8; 32]; arena.len() / width * chain_len];
                // Each idle slot's onion, sender and fake partner's secret.
                let mut fakes: Vec<(usize, usize)> = Vec::new();
                let mut fake_secrets: Vec<[u8; 32]> = Vec::new();
                let mut onions = arena
                    .chunks_mut(width)
                    .zip(layer_secrets.chunks_mut(chain_len))
                    .enumerate();
                for (k, (i, their_slots)) in (first..).zip(senders.iter_mut()) {
                    let mut rng = client_round_rng(seed, round, k as u64);
                    for slot in their_slots.iter_mut() {
                        let (onion, (onion_bytes, onion_secrets)) =
                            onions.next().expect("one onion per slot");
                        match slot {
                            Some(conversation) => {
                                // Algorithm 1 step 1a: real exchange.
                                let frame = conversation.next_frame(round, retransmit_after);
                                let keys = conversation.keys.as_ref().expect(DERIVED);
                                ExchangeRequest {
                                    drop: keys.drop_id(round),
                                    sealed_message: keys.seal_message(round, &frame.encode()),
                                }
                                .encode_into(&mut onion_bytes[32 * chain_len..]);
                            }
                            None => {
                                // Step 1b: a fake request against a random
                                // partner, whose secret is drawn here.
                                fakes.push((onion, *i));
                                fake_secrets.push(*SecretKey::generate(&mut rng).as_bytes());
                            }
                        }
                        onion::draw_layer_secrets(&mut rng, onion_secrets);
                    }
                }
                // The fake exchanges' keygens and DHs, the chunk at once.
                let fake_publics = x25519_base_batch(&fake_secrets);
                let member_secrets: Vec<[u8; 32]> =
                    fakes.iter().map(|&(_, i)| *secrets[i].as_bytes()).collect();
                let shared = x25519_batch(&member_secrets, &fake_publics);
                for ((&(onion, i), partner), shared) in fakes.iter().zip(fake_publics).zip(shared) {
                    let fake = ConversationKeys::from_shared(
                        &SharedSecret(shared),
                        &publics[i],
                        &PublicKey::from_bytes(partner),
                    );
                    ExchangeRequest {
                        drop: fake.drop_id(round),
                        sealed_message: fake.seal_message(round, &[0u8; MESSAGE_LEN]),
                    }
                    .encode_into(&mut arena[onion * width + 32 * chain_len..]);
                }
                // Step 2: onion wrap, the chunk at once, in place.
                onion::wrap_chunk_in_place(
                    tables,
                    round,
                    arena,
                    width,
                    EXCHANGE_REQUEST_LEN,
                    &layer_secrets,
                    Some(keys),
                );
            },
        );
        self.pending.insert(round, PendingBatch { members, keys });
        buf
    }

    /// Processes one completed round's replies (Algorithm 1 step 3), in
    /// the member-major slot order the requests were built in,
    /// parallelised by member stripe; a no-op for unknown rounds. The
    /// replies come back through the untrusted entry (§7), so a batch of
    /// the wrong length is not an error: requests past its end lost
    /// their replies, and replies past the last request are ignored.
    /// Conversations entered since the round was built have their keys
    /// derived first (`ClientCohort::derive_queued_keys`).
    pub fn handle_conversation_replies(&mut self, round: u64, replies: &[Vec<u8>]) {
        self.derive_queued_keys();
        let Some(PendingBatch { members, keys }) = self.pending.remove(&round) else {
            return; // a round we never participated in (or already expired)
        };
        let chain_len = self.server_pks.len();
        let slots_per = self.config.conversation_slots;
        let items: Vec<IngestItem<'_>> = member_slots(&mut self.slots, slots_per, &members)
            .into_iter()
            .zip(replies.chunks(slots_per))
            .zip(keys.chunks(slots_per * chain_len))
            .map(|(((_, slots), replies), keys)| (slots, replies, keys))
            .collect();

        WorkerPool::shared().map_vec(items, self.config.workers, |(slots, replies, keys)| {
            for ((slot, reply), keys) in slots.iter_mut().zip(replies).zip(keys.chunks(chain_len)) {
                let Ok(sealed) = onion::unwrap_reply_layers(keys, round, reply) else {
                    continue; // tampered or misrouted reply
                };
                if sealed.len() != EXCHANGE_RESPONSE_LEN {
                    continue;
                }
                if let Some(conversation) = slot {
                    // A decrypt failure means the partner was absent
                    // this round (server filler) — normal, not an error.
                    let keys = conversation.keys.as_ref().expect(DERIVED);
                    if let Ok(padded) = keys.open_message(round, &sealed) {
                        if let Ok(frame) = FramedMessage::decode(&padded) {
                            conversation.receive_frame(frame);
                        }
                    }
                }
            }
        });
    }

    /// Discards reply keys for rounds older than `round`; bounds memory
    /// when an adversary blackholes replies.
    pub fn expire_pending(&mut self, round: u64) {
        self.pending.retain(|&r, _| r >= round);
    }

    /// Rounds whose reply keys the cohort still holds.
    #[cfg(test)]
    pub(crate) fn pending_rounds(&self) -> usize {
        self.pending.len()
    }

    /// Queues an invitation from member `index` to `peer` for its next
    /// dialing round and pre-enters the conversation (§3: the caller
    /// enters "in anticipation that user will reciprocate"), whose keys
    /// are derived at the next conversation round build, eight lanes at
    /// a time, as [`ClientCohort::start_conversation`]'s are.
    ///
    /// # Errors
    ///
    /// [`ClientError::AllSlotsBusy`] if no slot is free for the
    /// anticipated conversation; nothing is queued then.
    pub fn dial(&mut self, index: usize, peer: PublicKey) -> Result<(), ClientError> {
        self.start_conversation(index, peer)?;
        self.dial_queues.entry(index).or_default().push_back(peer);
        Ok(())
    }

    /// Builds one dialing round's requests: one onion per online member,
    /// its oldest queued invitation sealed for the callee's drop among
    /// `num_drops`, or a no-op write (§5.2). Straight into a flat
    /// [`RoundBuffer`], in the same two passes per chunk of senders as
    /// [`ClientCohort::build_conversation_round`]; the dialing protocol
    /// has no replies, so no keys are kept.
    pub fn build_dialing_round(&mut self, round: u64, num_drops: u32) -> RoundBuffer {
        let chain_len = self.server_pks.len();
        let width = onion::wrapped_len(DIAL_REQUEST_LEN, chain_len);
        let members = self.online_members();
        let mut buf = RoundBuffer::with_capacity(width, width, members.len());
        for _ in 0..members.len() {
            buf.push_with(|_| {});
        }
        let online = &self.online;
        let dials: HashMap<usize, PublicKey> = self
            .dial_queues
            .iter_mut()
            .filter(|(i, _)| online[**i])
            .filter_map(|(&i, queue)| Some((i, queue.pop_front()?)))
            .collect();
        self.dial_queues.retain(|_, queue| !queue.is_empty());

        let seed = self.seed;
        let tables: &[onion::PrecomputedServer] = &self.tables;
        let publics = &self.publics;
        let items: Vec<(usize, &[usize], &mut [u8])> = members
            .chunks(WRAP_CHUNK_SLOTS)
            .zip(buf.arena_mut().chunks_mut(width * WRAP_CHUNK_SLOTS))
            .enumerate()
            .map(|(c, (senders, arena))| (c * WRAP_CHUNK_SLOTS, senders, arena))
            .collect();
        WorkerPool::shared().map_vec(items, self.config.workers, |(first, senders, arena)| {
            let mut layer_secrets = vec![[0u8; 32]; senders.len() * chain_len];
            let onions = arena
                .chunks_mut(width)
                .zip(layer_secrets.chunks_mut(chain_len));
            for ((k, &i), (onion_bytes, onion_secrets)) in (first..).zip(senders).zip(onions) {
                let mut rng = client_round_rng(seed, round, k as u64);
                let request = match dials.get(&i) {
                    Some(peer) => DialRequest {
                        drop: InvitationDropIndex::for_recipient(peer, num_drops),
                        invitation: SealedInvitation::seal(&mut rng, &publics[i], peer),
                    },
                    None => DialRequest::noop(&mut rng),
                };
                request.encode_into(&mut onion_bytes[32 * chain_len..]);
                onion::draw_layer_secrets(&mut rng, onion_secrets);
            }
            onion::wrap_chunk_in_place(
                tables,
                round,
                arena,
                width,
                DIAL_REQUEST_LEN,
                &layer_secrets,
                None,
            );
        });
        buf
    }

    /// The invitation drop member `index` must download (derived from
    /// its public key, §5.1 — the adversary knows it too).
    #[must_use]
    pub fn invitation_drop(&self, index: usize, num_drops: u32) -> InvitationDropIndex {
        InvitationDropIndex::for_recipient(&self.publics[index], num_drops)
    }

    /// Scans a downloaded invitation drop for member `index`,
    /// trial-decrypting every entry (§5.1), and stores the callers
    /// found; returns them.
    pub fn scan_invitation_drop(
        &mut self,
        index: usize,
        contents: &[SealedInvitation],
    ) -> Vec<PublicKey> {
        let (secret, public) = (&self.secrets[index], &self.publics[index]);
        let mine: Vec<PublicKey> = contents
            .iter()
            .filter_map(|inv| inv.try_open(secret, public))
            .collect();
        if !mine.is_empty() {
            self.invitations.entry(index).or_default().extend(&mine);
        }
        mine
    }

    /// Invitations member `index` has received and not yet accepted or
    /// declined.
    #[must_use]
    pub fn pending_invitations(&self, index: usize) -> &[PublicKey] {
        self.invitations.get(&index).map_or(&[], Vec::as_slice)
    }

    /// Accepts an invitation: member `index` enters a conversation with
    /// the caller ([`ClientCohort::start_conversation`]), and the
    /// invitation stops pending.
    ///
    /// # Errors
    ///
    /// [`ClientError::AllSlotsBusy`] when no slot is free; the invitation
    /// then stays pending, to accept once a slot frees up.
    pub fn accept_invitation(
        &mut self,
        index: usize,
        caller: PublicKey,
    ) -> Result<(), ClientError> {
        self.start_conversation(index, caller)?;
        self.decline_invitation(index, &caller);
        Ok(())
    }

    /// Declines (discards) an invitation to member `index`.
    pub fn decline_invitation(&mut self, index: usize, caller: &PublicKey) {
        if let Some(callers) = self.invitations.get_mut(&index) {
            callers.retain(|pk| pk != caller);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vuvuzela_crypto::x25519::Keypair;
    use vuvuzela_dp::{NoiseDistribution, NoiseMode};

    fn cfg(slots: usize, workers: usize) -> SystemConfig {
        SystemConfig {
            chain_len: 2,
            conversation_noise: NoiseDistribution::new(1.0, 1.0),
            dialing_noise: NoiseDistribution::new(1.0, 1.0),
            noise_mode: NoiseMode::Off,
            workers,
            conversation_slots: slots,
            retransmit_after: 2,
            exchange_shards: 4,
        }
    }

    fn server_pks(n: usize) -> Vec<PublicKey> {
        let mut rng = StdRng::seed_from_u64(99);
        (0..n).map(|_| Keypair::generate(&mut rng).public).collect()
    }

    #[test]
    fn join_keys_do_not_depend_on_how_the_cohort_grew() {
        // One `join`, uneven pieces (1, 3, 5, … — on and off the
        // eight-wide keygen's octet) and a `Keypair::generate` loop over
        // the same stream give every member the same identity.
        let pks = server_pks(2);
        for n in [0usize, 1, 7, 8, 9, 33] {
            let mut whole = ClientCohort::with_own_tables(cfg(2, 1), 21, &pks);
            whole.join(n);
            let mut pieces = ClientCohort::with_own_tables(cfg(2, 1), 21, &pks);
            let mut piece = 1;
            while pieces.len() < n {
                pieces.join(piece.min(n - pieces.len()));
                piece += 2;
            }
            let mut krng = key_rng(21);
            for cohort in [&whole, &pieces] {
                assert_eq!(cohort.len(), n);
                assert_eq!(cohort.slots.len(), 2 * n);
                assert_eq!(cohort.by_key.len(), n);
            }
            for i in 0..n {
                let want = Keypair::generate(&mut krng);
                for cohort in [&whole, &pieces] {
                    assert_eq!(cohort.publics[i], want.public, "n = {n}, member {i}");
                    assert_eq!(cohort.secrets[i].as_bytes(), want.secret.as_bytes());
                    assert_eq!(cohort.by_key[&want.public], i);
                }
            }
        }
    }

    /// `pair(a, b)` on `paired`, the two `start_conversation` calls it
    /// stands for on `started`: the same result. Returns whether it is
    /// `Ok`.
    fn pair_both(
        paired: &mut ClientCohort,
        started: &mut ClientCohort,
        a: usize,
        b: usize,
    ) -> bool {
        let got = paired.pair(a, b);
        let (pk_a, pk_b) = (started.public_key(a), started.public_key(b));
        let want = started
            .start_conversation(a, pk_b)
            .and_then(|()| started.start_conversation(b, pk_a));
        assert_eq!(got, want, "pair({a}, {b})");
        got.is_ok()
    }

    /// Whether every conversation in `cohort` holds the keys the scalar
    /// reference derives for it.
    fn keyed_as_derived(cohort: &ClientCohort) -> bool {
        (0..cohort.len()).all(|i| {
            cohort
                .conversations(i)
                .all(|c| c.keyed_as_derived(&cohort.secrets[i], &cohort.publics[i]))
        })
    }

    #[test]
    fn pair_is_start_conversation_on_both_sides() {
        // `pair` (one lane for both sides) against two
        // `start_conversation` calls (a lane each), every key agreement
        // deferred to the next build or ingest: the same results, slots
        // and round bytes, and every key the scalar reference's. The
        // inputs: a fresh pair, a repeated one, a self-pair, a peer with
        // no free slot (side `a` stays half-open either way), a pair
        // ended and its slot reused by another peer before any build,
        // `dial` and `accept_invitation` starts, and a pair made between
        // a round's build and that round's ingest.
        let pks = server_pks(2);
        let mut paired = ClientCohort::with_own_tables(cfg(2, 1), 31, &pks);
        let mut started = ClientCohort::with_own_tables(cfg(2, 1), 31, &pks);
        paired.join(8);
        started.join(8);
        let pk: Vec<PublicKey> = (0..8).map(|i| paired.public_key(i)).collect();
        for (a, b) in [(0, 1), (1, 0), (2, 2), (1, 3), (4, 1), (5, 4), (6, 7)] {
            let ok = pair_both(&mut paired, &mut started, a, b);
            assert_eq!(ok, (a, b) != (4, 1), "member 1 has two slots");
        }
        let mut rng = StdRng::seed_from_u64(32);
        let invitation = SealedInvitation::seal(&mut rng, &pk[2], &pk[7]);
        for c in [&mut paired, &mut started] {
            // 6 leaves 7 before any build, and 0 takes the slot of 6
            // whose key was queued against 7.
            c.end_conversation(6, &pk[7]).expect("end");
            c.start_conversation(6, pk[0]).expect("reuse the slot");
            c.dial(3, pk[6]).expect("dial");
            c.scan_invitation_drop(7, std::slice::from_ref(&invitation));
            c.accept_invitation(7, pk[2]).expect("accept");
            assert!(c.slots.iter().flatten().all(|conv| conv.keys.is_none()));
        }
        assert_eq!(paired.mutual_pairs(), started.mutual_pairs());
        for index in 0..8 {
            let peers = |c: &ClientCohort| -> Vec<Option<PublicKey>> {
                c.slots[c.slot_range(index)]
                    .iter()
                    .map(|s| s.as_ref().map(|conv| conv.peer))
                    .collect()
            };
            assert_eq!(peers(&paired), peers(&started), "member {index} slots");
        }
        for round in 0..2u64 {
            assert_eq!(
                paired.build_conversation_round(round).to_vecs(),
                started.build_conversation_round(round).to_vecs(),
                "round {round}"
            );
            assert!(keyed_as_derived(&paired) && keyed_as_derived(&started));
            if round == 0 {
                assert!(pair_both(&mut paired, &mut started, 2, 5));
                for c in [&mut paired, &mut started] {
                    c.handle_conversation_replies(round, &[]);
                    assert!(
                        c.queued.is_empty() && keyed_as_derived(c),
                        "keyed at ingest"
                    );
                }
            }
        }
    }
}
