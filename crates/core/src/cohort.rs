//! Struct-of-arrays client cohorts for million-client rounds.
//!
//! A [`ClientCohort`] holds N clients' long-term keys, conversation
//! state and reply keys in flat parallel arrays instead of N
//! [`Client`](crate::client::Client) objects. Each round it builds all
//! requests directly into one [`RoundBuffer`] arena — no per-onion
//! `Vec`, no per-client request list, no per-client key list —
//! parallelised over [`vuvuzela_net::WorkerPool`] by chunk of
//! consecutive clients, each chunk's onions wrapped together through
//! [`onion::wrap_chunk_in_place`], and ingests the round's replies by
//! client stripe. One shared set of per-server DH tables serves the
//! whole cohort.
//!
//! The cohort is **byte-identical** to N individual `Client`s driven
//! over the same derived RNG schedule: client `i`'s round randomness is
//! [`client_round_rng`]`(seed, round, i)` and its keypair comes from
//! the shared [`key_rng`]`(seed)` stream in join order. The
//! `cohort_equivalence` integration test pins this, which is what makes
//! the per-object `Client` the proptested reference and the cohort a
//! pure representation change.
//!
//! Cohort identities never dial: every dialing round each member writes
//! to the no-op drop (§5.2), so the cohort is pure cover traffic for
//! the dialing protocol while still supporting real cohort-internal
//! conversations (see [`ClientCohort::start_conversation`]).

use crate::client::{Client, ClientError, Conversation};
use crate::config::SystemConfig;
use crate::noise::WRAP_CHUNK_SLOTS;
use crate::roundbuf::RoundBuffer;
use crate::server::round_rng;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;
use vuvuzela_crypto::onion::{self, LayerKey};
use vuvuzela_crypto::x25519::{x25519_base_batch, PublicKey, SecretKey};
use vuvuzela_net::WorkerPool;
use vuvuzela_wire::conversation::{ConversationKeys, ExchangeRequest};
use vuvuzela_wire::dialing::DialRequest;
use vuvuzela_wire::message::FramedMessage;
use vuvuzela_wire::{DIAL_REQUEST_LEN, EXCHANGE_REQUEST_LEN, EXCHANGE_RESPONSE_LEN, MESSAGE_LEN};

/// splitmix64 finalisation, the same mixer [`round_rng`] uses.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG for client `index`'s requests in `round`, as a pure function
/// of `(seed, round, index)`. Worker count and scheduling order
/// therefore cannot change any client's randomness — the foundation of
/// the cohort's byte-equivalence with per-object clients, and usable
/// directly by harnesses that drive individual [`Client`]s on the same
/// schedule.
#[must_use]
pub fn client_round_rng(seed: u64, round: u64, index: u64) -> StdRng {
    let client_seed = splitmix64(seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
    round_rng(client_seed, round)
}

/// The keypair-generation RNG for a cohort with the given seed. Client
/// `i`'s keypair is the `i`-th `Keypair::generate` drawn from this
/// stream, regardless of how many [`ClientCohort::join`] calls grew the
/// cohort.
#[must_use]
pub fn key_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(seed ^ 0x6A09_E667_F3BC_C909))
}

/// Layer keys for one in-flight conversation round, flattened
/// client-major: request `f`'s keys live at
/// `[f * chain_len .. (f + 1) * chain_len]`.
struct PendingBatch {
    keys: Vec<LayerKey>,
}

/// One build-stage work item — a chunk of consecutive clients: the
/// chunk's index, the clients' conversation slots, their stretch of the
/// round arena, and their window of the round's layer-key arena.
type BuildItem<'a> = (
    usize,
    &'a mut [Option<Box<Conversation>>],
    &'a mut [u8],
    &'a mut [LayerKey],
);

/// One client's reply-ingestion work item: its conversation slots, its
/// replies, and the layer keys recorded at build time.
type IngestItem<'a> = (
    &'a mut [Option<Box<Conversation>>],
    &'a [Vec<u8>],
    &'a [LayerKey],
);

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
    /// `conversation_slots` entries per client, client-major. Boxed so
    /// the idle (overwhelmingly common) case costs one pointer per
    /// slot.
    slots: Vec<Option<Box<Conversation>>>,
    pending: HashMap<u64, PendingBatch>,
    /// Pipeline window, mirroring [`Client::window`].
    pub window: usize,
}

impl ClientCohort {
    /// Creates an empty cohort for a chain. `tables` must be the shared
    /// per-server DH tables for exactly `server_pks` (see
    /// [`Client::chain_tables`]).
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
            slots: Vec::new(),
            pending: HashMap::new(),
            window: 4,
        }
    }

    /// Like [`ClientCohort::new`], building the DH tables itself.
    #[must_use]
    pub fn with_own_tables(
        config: SystemConfig,
        seed: u64,
        server_pks: &[PublicKey],
    ) -> ClientCohort {
        let tables = Client::chain_tables(server_pks);
        ClientCohort::new(config, seed, server_pks, tables)
    }

    /// Adds `count` fresh clients (idle, no conversations) to the
    /// cohort. Keypairs continue the cohort's [`key_rng`] stream: the
    /// secrets are drawn first, in `Keypair::generate`'s order, and
    /// their public keys derived together
    /// ([`x25519_base_batch`], eight at a time where the CPU can).
    pub fn join(&mut self, count: usize) {
        let secrets: Vec<[u8; 32]> = (0..count)
            .map(|_| *SecretKey::generate(&mut self.key_rng).as_bytes())
            .collect();
        for (secret, public) in secrets.iter().zip(x25519_base_batch(&secrets)) {
            let public = PublicKey::from_bytes(public);
            self.by_key.insert(public, self.publics.len());
            self.secrets.push(SecretKey::from_bytes(*secret));
            self.publics.push(public);
        }
        let slots = self.publics.len() * self.config.conversation_slots;
        self.slots.resize_with(slots, || None);
    }

    /// Number of clients in the cohort.
    #[must_use]
    pub fn len(&self) -> usize {
        self.publics.len()
    }

    /// Whether the cohort holds no clients.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.publics.is_empty()
    }

    /// The system config the cohort was built with.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Client `index`'s long-term public key (its identity, §2.3).
    #[must_use]
    pub fn public_key(&self, index: usize) -> PublicKey {
        self.publics[index]
    }

    fn slot_range(&self, index: usize) -> core::ops::Range<usize> {
        let per = self.config.conversation_slots;
        index * per..(index + 1) * per
    }

    fn slot_of(&self, index: usize, peer: &PublicKey) -> Option<usize> {
        self.slots[self.slot_range(index)]
            .iter()
            .position(|s| s.as_ref().is_some_and(|c| c.peer == *peer))
            .map(|p| index * self.config.conversation_slots + p)
    }

    /// The slot a new conversation of client `index` with `peer` goes
    /// in — its first free one — or `None` when the two already talk.
    fn free_slot_for(&self, index: usize, peer: &PublicKey) -> Result<Option<usize>, ClientError> {
        if self.slot_of(index, peer).is_some() {
            return Ok(None);
        }
        let range = self.slot_range(index);
        let free = self.slots[range.clone()].iter().position(Option::is_none);
        Ok(Some(range.start + free.ok_or(ClientError::AllSlotsBusy)?))
    }

    /// Enters client `index` into a conversation with `peer` in its
    /// first free slot (mirrors [`Client::start_conversation`]).
    ///
    /// # Errors
    ///
    /// [`ClientError::AllSlotsBusy`] when every slot is taken.
    pub fn start_conversation(&mut self, index: usize, peer: PublicKey) -> Result<(), ClientError> {
        if let Some(slot) = self.free_slot_for(index, &peer)? {
            let keys = ConversationKeys::derive(&self.secrets[index], &self.publics[index], &peer);
            self.slots[slot] = Some(Box::new(Conversation::new(peer, keys)));
        }
        Ok(()) // idempotent when already talking
    }

    /// Starts a mutual conversation between cohort clients `a` and `b`:
    /// what [`ClientCohort::start_conversation`] on each side does, the
    /// pair's one Diffie-Hellman computed once (`a·B = b·A`) and both
    /// sides' keys derived from it.
    ///
    /// # Errors
    ///
    /// [`ClientError::AllSlotsBusy`] if either side has no free slot
    /// (side `a` may keep the half-open slot, exactly as two individual
    /// clients would).
    pub fn pair(&mut self, a: usize, b: usize) -> Result<(), ClientError> {
        let mut shared = None;
        for (me, peer) in [(a, b), (b, a)] {
            let (mine, theirs) = (self.publics[me], self.publics[peer]);
            if let Some(slot) = self.free_slot_for(me, &theirs)? {
                let shared = shared.get_or_insert_with(|| self.secrets[me].diffie_hellman(&theirs));
                let keys = ConversationKeys::from_shared(shared, &mine, &theirs);
                self.slots[slot] = Some(Box::new(Conversation::new(theirs, keys)));
            }
        }
        Ok(())
    }

    /// Queues a message from client `index` to its partner `peer`
    /// (mirrors [`Client::queue_message`]).
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
        if body.len() > vuvuzela_wire::message::MAX_BODY_LEN {
            return Err(ClientError::MessageTooLong {
                limit: vuvuzela_wire::message::MAX_BODY_LEN,
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

    /// Messages delivered so far to client `index` by its conversation
    /// with `peer`, in order.
    #[must_use]
    pub fn delivered_from(&self, index: usize, peer: &PublicKey) -> Vec<Vec<u8>> {
        self.slot_of(index, peer)
            .and_then(|s| self.slots[s].as_ref())
            .map(|c| c.delivered.to_vecs())
            .unwrap_or_default()
    }

    /// Cohort-internal mutual conversation pairs: unordered client
    /// pairs `{i, j}` where each currently holds the other as a
    /// partner. This is the cohort's contribution to a round's real
    /// `m2` (§5.4); conversations with non-cohort keys are not counted.
    #[must_use]
    pub fn mutual_pairs(&self) -> u64 {
        let per = self.config.conversation_slots;
        let mut pairs = 0;
        for (i, chunk) in self.slots.chunks(per).enumerate() {
            for conversation in chunk.iter().flatten() {
                if let Some(&j) = self.by_key.get(&conversation.peer) {
                    if j > i && self.slot_of(j, &self.publics[i]).is_some() {
                        pairs += 1;
                    }
                }
            }
        }
        pairs
    }

    /// Builds one conversation round's requests for the whole cohort —
    /// exactly one onion per slot per client, real or fake, written
    /// straight into a flat [`RoundBuffer`] (stride = onion width, no
    /// per-onion allocation) in client-major slot order. Work is split
    /// across `config.workers` pool workers by chunk of consecutive
    /// clients ([`WRAP_CHUNK_SLOTS`] onions), each chunk in two passes:
    /// pass A walks its clients in index order doing everything that
    /// draws from a client's RNG — per slot the fake-partner draw (idle
    /// slots), the payload seal and encode, then that onion's
    /// [`onion::draw_layer_secrets`], the interleaving a per-object
    /// client produces — and pass B wraps the whole chunk through
    /// [`onion::wrap_chunk_in_place`], which writes the layer keys for
    /// [`ClientCohort::handle_conversation_replies`] straight into the
    /// chunk's window of the round's one flat key arena.
    ///
    /// Byte-identical to each client running
    /// [`Client::build_conversation_requests`] with
    /// [`client_round_rng`]`(seed, round, index)`.
    pub fn build_conversation_round(&mut self, round: u64) -> RoundBuffer {
        let chain_len = self.server_pks.len();
        let slots_per = self.config.conversation_slots;
        let width = onion::wrapped_len(EXCHANGE_REQUEST_LEN, chain_len);
        let n = self.publics.len();
        let mut buf = RoundBuffer::with_capacity(width, width, n * slots_per);
        for _ in 0..n * slots_per {
            buf.push_with(|_| {});
        }
        let mut keys = vec![LayerKey([0u8; 32]); n * slots_per * chain_len];

        let retransmit_after = self.config.retransmit_after;
        let window = self.window;
        let seed = self.seed;
        let tables: &[onion::PrecomputedServer] = &self.tables;
        let secrets = &self.secrets;
        let publics = &self.publics;
        let chunk_clients = (WRAP_CHUNK_SLOTS / slots_per).max(1);
        let chunk_onions = chunk_clients * slots_per;
        let items: Vec<BuildItem<'_>> = self
            .slots
            .chunks_mut(chunk_onions)
            .zip(buf.arena_mut().chunks_mut(width * chunk_onions))
            .zip(keys.chunks_mut(chain_len * chunk_onions))
            .enumerate()
            .map(|(c, ((slots, arena), keys))| (c, slots, arena, keys))
            .collect();

        WorkerPool::shared().map_vec(items, self.config.workers, |(c, slots, arena, keys)| {
            let mut layer_secrets = vec![[0u8; 32]; slots.len() * chain_len];
            let mut onions = arena
                .chunks_mut(width)
                .zip(layer_secrets.chunks_mut(chain_len));
            for (j, client_slots) in slots.chunks_mut(slots_per).enumerate() {
                let i = c * chunk_clients + j;
                let mut rng = client_round_rng(seed, round, i as u64);
                for slot in client_slots {
                    let (onion_bytes, onion_secrets) = onions.next().expect("one onion per slot");
                    let payload = &mut onion_bytes[32 * chain_len..];
                    match slot {
                        Some(conversation) => {
                            // Algorithm 1 step 1a: real exchange.
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
                            let fake = ConversationKeys::fake(&mut rng, &secrets[i], &publics[i]);
                            let sealed = fake.seal_message(round, &[0u8; MESSAGE_LEN]);
                            ExchangeRequest {
                                drop: fake.drop_id(round),
                                sealed_message: sealed,
                            }
                            .encode_into(payload);
                        }
                    }
                    onion::draw_layer_secrets(&mut rng, onion_secrets);
                }
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
        });
        self.pending.insert(round, PendingBatch { keys });
        buf
    }

    /// Processes one completed round's replies (Algorithm 1 step 3), in
    /// the same client-major slot order the requests were built in,
    /// parallelised by client stripe.
    ///
    /// # Panics
    ///
    /// Panics if `replies` does not hold exactly one reply per request
    /// the cohort sent for `round`; a no-op for unknown rounds.
    pub fn handle_conversation_replies(&mut self, round: u64, replies: &[Vec<u8>]) {
        let Some(PendingBatch { keys }) = self.pending.remove(&round) else {
            return; // a round we never participated in (or already expired)
        };
        let chain_len = self.server_pks.len();
        let slots_per = self.config.conversation_slots;
        assert_eq!(
            replies.len(),
            self.publics.len() * slots_per,
            "one reply per cohort request"
        );

        let items: Vec<IngestItem<'_>> = self
            .slots
            .chunks_mut(slots_per)
            .zip(replies.chunks(slots_per))
            .zip(keys.chunks(slots_per * chain_len))
            .map(|((slots, replies), keys)| (slots, replies, keys))
            .collect();

        WorkerPool::shared().map_vec(items, self.config.workers, |(slots, replies, keys)| {
            for (f, (slot, reply)) in slots.iter_mut().zip(replies).enumerate() {
                let keys = &keys[f * chain_len..(f + 1) * chain_len];
                let Ok(sealed) = onion::unwrap_reply_layers(keys, round, reply) else {
                    continue; // tampered or misrouted reply
                };
                if sealed.len() != EXCHANGE_RESPONSE_LEN {
                    continue;
                }
                if let Some(conversation) = slot {
                    // A decrypt failure means the partner was absent
                    // this round (server filler) — normal, not an error.
                    if let Ok(padded) = conversation.keys.open_message(round, &sealed) {
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

    /// Builds one dialing round's requests: every cohort client writes
    /// to the no-op drop (§5.2 — the cohort never dials, so its dialing
    /// traffic is pure cover). One onion per client, straight into a
    /// flat [`RoundBuffer`], in the same two passes per chunk of
    /// clients as [`ClientCohort::build_conversation_round`] (the cover
    /// path never sees a reply, so no keys are kept); byte-identical to
    /// each client running [`Client::build_dial_request`] with an empty
    /// dial queue over [`client_round_rng`].
    pub fn build_dialing_round(&mut self, round: u64) -> RoundBuffer {
        let chain_len = self.server_pks.len();
        let width = onion::wrapped_len(DIAL_REQUEST_LEN, chain_len);
        let n = self.publics.len();
        let mut buf = RoundBuffer::with_capacity(width, width, n);
        for _ in 0..n {
            buf.push_with(|_| {});
        }
        let seed = self.seed;
        let tables: &[onion::PrecomputedServer] = &self.tables;
        let items: Vec<(usize, &mut [u8])> = buf
            .arena_mut()
            .chunks_mut(width * WRAP_CHUNK_SLOTS)
            .enumerate()
            .collect();
        WorkerPool::shared().map_vec(items, self.config.workers, |(c, arena)| {
            let mut layer_secrets = vec![[0u8; 32]; arena.len() / width * chain_len];
            for (j, (onion_bytes, onion_secrets)) in arena
                .chunks_mut(width)
                .zip(layer_secrets.chunks_mut(chain_len))
                .enumerate()
            {
                let mut rng = client_round_rng(seed, round, (c * WRAP_CHUNK_SLOTS + j) as u64);
                DialRequest::noop(&mut rng).encode_into(&mut onion_bytes[32 * chain_len..]);
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
}

/// Builds one conversation round's requests for a batch of individual
/// [`Client`]s in parallel, each client `i` (by position in `clients`)
/// drawing its randomness from [`client_round_rng`]`(seed, round, i)`.
/// Returns each client's request list in input order — feed to
/// [`crate::entry::multiplex`]. This is the harness-side sibling of
/// [`ClientCohort::build_conversation_round`] for populations that need
/// per-object clients (churn, dialing scripts) but not a serial build
/// loop.
pub fn build_client_requests_parallel(
    clients: Vec<&mut Client>,
    seed: u64,
    round: u64,
    server_pks: &[PublicKey],
    workers: usize,
) -> Vec<Vec<Vec<u8>>> {
    let items: Vec<(usize, &mut Client)> = clients.into_iter().enumerate().collect();
    WorkerPool::shared().map_vec(items, workers, |(i, client)| {
        let mut rng = client_round_rng(seed, round, i as u64);
        client.build_conversation_requests(&mut rng, round, server_pks)
    })
}

/// Dialing-round sibling of [`build_client_requests_parallel`]: one
/// dial request per client (real if queued, else a no-op write), built
/// in parallel over the same per-client RNG schedule.
pub fn build_dial_requests_parallel(
    clients: Vec<&mut Client>,
    seed: u64,
    round: u64,
    num_drops: u32,
    server_pks: &[PublicKey],
    workers: usize,
) -> Vec<Vec<u8>> {
    let items: Vec<(usize, &mut Client)> = clients.into_iter().enumerate().collect();
    WorkerPool::shared().map_vec(items, workers, |(i, client)| {
        let mut rng = client_round_rng(seed, round, i as u64);
        client.build_dial_request(&mut rng, round, num_drops, server_pks)
    })
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
    fn cohort_requests_match_individual_clients() {
        let pks = server_pks(2);
        for workers in [1, 3] {
            let mut cohort = ClientCohort::with_own_tables(cfg(2, workers), 7, &pks);
            cohort.join(3);
            cohort.join(2); // growth continues the same key stream
            cohort.pair(0, 4).expect("pair");
            cohort
                .queue_message(0, &cohort.public_key(4), b"hello")
                .expect("queue");

            // The per-object reference population on the same schedule.
            let mut krng = key_rng(7);
            let tables = Client::chain_tables(&pks);
            let mut clients: Vec<Client> = (0..5)
                .map(|i| {
                    let mut c = Client::new(
                        format!("c{i}"),
                        Keypair::generate(&mut krng),
                        cfg(2, workers),
                    );
                    c.set_chain_tables(tables.clone(), &pks);
                    c
                })
                .collect();
            let pk4 = clients[4].public_key();
            let pk0 = clients[0].public_key();
            clients[0].start_conversation(pk4).expect("start");
            clients[4].start_conversation(pk0).expect("start");
            clients[0].queue_message(&pk4, b"hello").expect("queue");

            assert_eq!(cohort.mutual_pairs(), 1);
            for round in 0..2u64 {
                let buf = cohort.build_conversation_round(round);
                let mut reference = Vec::new();
                for (i, client) in clients.iter_mut().enumerate() {
                    let mut rng = client_round_rng(7, round, i as u64);
                    reference.extend(client.build_conversation_requests(&mut rng, round, &pks));
                }
                assert_eq!(buf.to_vecs(), reference, "workers = {workers}");
            }
        }
    }

    #[test]
    fn join_keys_do_not_depend_on_how_the_cohort_grew() {
        // One `join`, uneven pieces (1, 3, 5, … — on and off the
        // eight-wide keygen's octet) and a `Keypair::generate` loop over
        // the same stream give every client the same identity.
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
                    assert_eq!(cohort.publics[i], want.public, "n = {n}, client {i}");
                    assert_eq!(cohort.secrets[i].as_bytes(), want.secret.as_bytes());
                    assert_eq!(cohort.by_key[&want.public], i);
                }
            }
        }
    }

    #[test]
    fn pair_is_start_conversation_on_both_sides() {
        // `pair` (one DH, both sides derived from it) against two
        // `start_conversation` calls (a DH each): the same results and
        // the same round bytes through a fresh pair, a repeated one, a
        // self-pair, and a peer with no free slot, which leaves side
        // `a` half-open either way.
        let pks = server_pks(2);
        let mut paired = ClientCohort::with_own_tables(cfg(2, 1), 31, &pks);
        let mut started = ClientCohort::with_own_tables(cfg(2, 1), 31, &pks);
        paired.join(6);
        started.join(6);
        for (a, b) in [(0, 1), (1, 0), (2, 2), (1, 3), (4, 1), (5, 4)] {
            let got = paired.pair(a, b);
            let (pk_a, pk_b) = (started.public_key(a), started.public_key(b));
            let want = started
                .start_conversation(a, pk_b)
                .and_then(|()| started.start_conversation(b, pk_a));
            assert_eq!(got.is_ok(), want.is_ok(), "pair({a}, {b})");
            assert_eq!(got.is_ok(), (a, b) != (4, 1), "client 1 has two slots");
        }
        assert_eq!(paired.mutual_pairs(), started.mutual_pairs());
        for index in 0..6 {
            let peers = |c: &ClientCohort| -> Vec<Option<PublicKey>> {
                c.slots[c.slot_range(index)]
                    .iter()
                    .map(|s| s.as_ref().map(|conv| conv.peer))
                    .collect()
            };
            assert_eq!(peers(&paired), peers(&started), "client {index} slots");
        }
        for round in 0..2u64 {
            assert_eq!(
                paired.build_conversation_round(round).to_vecs(),
                started.build_conversation_round(round).to_vecs(),
                "round {round}"
            );
        }
    }

    #[test]
    fn dialing_round_is_all_noops_and_matches_clients() {
        let pks = server_pks(2);
        let mut cohort = ClientCohort::with_own_tables(cfg(1, 2), 11, &pks);
        cohort.join(4);
        let buf = cohort.build_dialing_round(3);
        assert_eq!(buf.len(), 4);

        let mut krng = key_rng(11);
        let tables = Client::chain_tables(&pks);
        for i in 0..4u64 {
            let mut client = Client::new("c", Keypair::generate(&mut krng), cfg(1, 2));
            client.set_chain_tables(tables.clone(), &pks);
            let mut rng = client_round_rng(11, 3, i);
            let reference = client.build_dial_request(&mut rng, 3, 16, &pks);
            assert_eq!(buf.slot(i as usize), &reference[..], "client {i}");
        }
    }

    #[test]
    fn parallel_builders_match_serial_loop() {
        let pks = server_pks(2);
        let tables = Client::chain_tables(&pks);
        let make = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut c = Client::new("c", Keypair::generate(&mut rng), cfg(1, 4));
            c.set_chain_tables(tables.clone(), &pks);
            c
        };
        let mut a: Vec<Client> = (0..6).map(|i| make(100 + i)).collect();
        let mut b: Vec<Client> = (0..6).map(|i| make(100 + i)).collect();

        let parallel = build_client_requests_parallel(a.iter_mut().collect(), 5, 2, &pks, 4);
        let serial: Vec<Vec<Vec<u8>>> = b
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                let mut rng = client_round_rng(5, 2, i as u64);
                c.build_conversation_requests(&mut rng, 2, &pks)
            })
            .collect();
        assert_eq!(parallel, serial);

        let parallel = build_dial_requests_parallel(a.iter_mut().collect(), 5, 3, 8, &pks, 4);
        let serial: Vec<Vec<u8>> = b
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                let mut rng = client_round_rng(5, 3, i as u64);
                c.build_dial_request(&mut rng, 3, 8, &pks)
            })
            .collect();
        assert_eq!(parallel, serial);
    }
}
