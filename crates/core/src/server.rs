//! The mix server (paper Algorithm 2).
//!
//! A [`MixServer`] at chain position `i` processes each round in two
//! passes:
//!
//! * **forward** — decrypt its onion layer from every request (step 1),
//!   generate cover traffic wrapped for the rest of the chain (step 2),
//!   shuffle everything with a fresh secret permutation, and hand the
//!   batch to the next hop (step 3a). The *last* server skips noise and
//!   shuffling; its peeled payloads go to the dead-drop exchange
//!   (step 3b), which the tail's [`crate::engine::RoundEngine`] runs.
//! * **backward** — un-shuffle the replies (π⁻¹), discard the ones
//!   belonging to its own noise, and encrypt each remaining reply under
//!   the layer key captured on the way in (step 4).
//!
//! The production data path ([`MixServer::forward_buf`] /
//! [`MixServer::backward_buf`]) runs on the flat
//! [`RoundBuffer`] arena: layers are peeled
//! and replies wrapped **in place** (the peel batches its field
//! inversions across each worker chunk of onions), the shuffle is
//! applied by index remapping instead of cloning payloads, and the
//! arena's chunks of slots spread over cores through
//! [`vuvuzela_net::WorkerPool::map_vec`]. The original per-`Vec`
//! implementation is retained as [`MixServer::forward_reference`] /
//! [`MixServer::backward_reference`]: it consumes the round RNG in
//! exactly the same order, which the pipeline-equivalence property tests
//! assert byte for byte, and it is the baseline the round benchmarks
//! measure the flat path against.
//!
//! ## Per-round randomness
//!
//! Every round's secret material — noise counts and contents, the mix
//! permutation, substitute requests for malformed input, reply filler —
//! is drawn from a **per-round RNG** derived as a pure function of the
//! server's seed and the round number, and carried in that round's
//! `RoundState`. No server-resident RNG is consumed across rounds, so
//! the bytes a round produces are independent of *when* it is processed
//! relative to other rounds. This is the invariant that lets the
//! streaming scheduler ([`crate::pipeline`]) hold several rounds in
//! flight per server, interleaving forward and backward passes in any
//! order, while remaining byte-identical to the strictly sequential
//! [`crate::chain::Chain`].
//!
//! Malformed requests (failed decryption, wrong size) are *replaced* by
//! locally generated noise so the batch keeps its shape; on the way back
//! the affected position carries random bytes, which the client simply
//! fails to decrypt. This keeps request/reply alignment under active
//! attack without leaking which entries were dropped.

use crate::config::SystemConfig;
use crate::deaddrops::InvitationDrops;
use crate::noise::{self, NoiseBatch};
use crate::record::Operator;
use crate::roundbuf::RoundBuffer;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;
use vuvuzela_crypto::onion::{self, LayerKey};
use vuvuzela_crypto::x25519::{Keypair, PublicKey};
use vuvuzela_net::WorkerPool;
use vuvuzela_wire::conversation::ExchangeRequest;
use vuvuzela_wire::dialing::DialRequest;

/// Which protocol a round belongs to; decides the noise recipe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundKind {
    /// Conversation round (Algorithm 2's n1/n2 noise).
    Conversation,
    /// Dialing round with the given number of real invitation drops
    /// (per-drop noise, §5.3).
    Dialing {
        /// Number of real invitation dead drops this round.
        num_drops: u32,
    },
}

impl RoundKind {
    /// The plaintext request size carried inside the innermost layer.
    #[must_use]
    pub fn payload_len(self) -> usize {
        match self {
            RoundKind::Conversation => vuvuzela_wire::EXCHANGE_REQUEST_LEN,
            RoundKind::Dialing { .. } => vuvuzela_wire::DIAL_REQUEST_LEN,
        }
    }

    /// The wire-level protocol tag for batches of this round kind
    /// ([`vuvuzela_wire::RoundType`] — the protocol half of the
    /// end-to-end round tag under mixed schedules).
    #[must_use]
    pub fn round_type(self) -> vuvuzela_wire::RoundType {
        match self {
            RoundKind::Conversation => vuvuzela_wire::RoundType::Conversation,
            RoundKind::Dialing { .. } => vuvuzela_wire::RoundType::Dialing,
        }
    }

    /// The round's invitation drop count as frames carry it: zero for a
    /// conversation round.
    #[must_use]
    pub fn num_drops(self) -> u32 {
        match self {
            RoundKind::Conversation => 0,
            RoundKind::Dialing { num_drops } => num_drops,
        }
    }
}

/// Per-round bookkeeping kept between the forward and backward passes.
///
/// Captures *everything* round-scoped — including the round's RNG — so a
/// server can hold state for several in-flight rounds at once without
/// any cross-round coupling (see the module docs).
struct RoundState {
    /// Which protocol this round runs. Under mixed schedules a server
    /// holds conversation and dialing state side by side; the kind
    /// guards against a reply pass ever touching a forward-only dialing
    /// round.
    kind: RoundKind,
    /// Layer key per incoming request (`None` for requests this server
    /// had to replace with noise).
    layer_keys: Vec<Option<LayerKey>>,
    /// The shuffle: `outgoing[j] = merged[permutation[j]]`.
    permutation: Vec<usize>,
    /// Requests received from upstream (clients or previous server).
    incoming_len: usize,
    /// The round's private randomness, continued by the backward pass
    /// (and, for dialing rounds, the last server's per-drop noise).
    rng: StdRng,
}

/// Derives the RNG for one round as a pure function of `(seed, round)`
/// (splitmix64 finalisation over the pair). Processing order therefore
/// cannot change any round's randomness — the foundation of the
/// streaming scheduler's byte-equivalence with the sequential chain.
#[must_use]
pub(crate) fn round_rng(seed: u64, round: u64) -> StdRng {
    let mut z = seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// One server in the Vuvuzela chain.
pub struct MixServer {
    position: usize,
    chain_len: usize,
    keypair: Keypair,
    downstream: Vec<PublicKey>,
    /// One precomputed DH table per downstream server, built once at
    /// construction and reused for every noise onion of every round.
    downstream_precomp: Vec<onion::PrecomputedServer>,
    config: SystemConfig,
    /// Base seed for per-round RNG derivation ([`round_rng`]).
    seed: u64,
    rounds: HashMap<u64, RoundState>,
    /// See [`MixServer::invitation_drops`]; the tail's node fills it.
    pub(crate) invitation_drops: Option<(u64, InvitationDrops)>,
    /// Cumulative count of requests this server replaced because they
    /// failed to authenticate (diagnostic; also exercised by tests).
    pub malformed_replaced: u64,
}

impl MixServer {
    /// Creates the server at `position` (0-based) in a chain of
    /// `chain_len`, with a deterministic RNG seed for reproducibility.
    ///
    /// `downstream` lists the public keys of the servers *after* this one
    /// (empty for the last server); noise is wrapped for exactly that
    /// suffix.
    #[must_use]
    pub fn new(
        position: usize,
        chain_len: usize,
        keypair: Keypair,
        downstream: Vec<PublicKey>,
        config: SystemConfig,
        seed: u64,
    ) -> MixServer {
        assert!(position < chain_len, "position out of range");
        assert_eq!(
            downstream.len(),
            chain_len - position - 1,
            "downstream must list the chain suffix"
        );
        let downstream_precomp = downstream
            .iter()
            .map(|pk| onion::PrecomputedServer::new(*pk))
            .collect();
        MixServer {
            position,
            chain_len,
            keypair,
            downstream,
            downstream_precomp,
            config,
            seed,
            rounds: HashMap::new(),
            invitation_drops: None,
            malformed_replaced: 0,
        }
    }

    /// The last dialing round this server completed as the tail, and its
    /// filled drops, which clients download (§5.5); an abort leaves them.
    /// `None` before the first, and on every other server.
    #[must_use]
    pub fn invitation_drops(&self) -> Option<(u64, &InvitationDrops)> {
        let (round, drops) = self.invitation_drops.as_ref()?;
        Some((*round, drops))
    }

    /// This server's long-term public key (known to all clients, §2.3).
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.keypair.public
    }

    /// Whether this is the final server (the dead-drop host).
    #[must_use]
    pub fn is_last(&self) -> bool {
        self.position == self.chain_len - 1
    }

    /// Chain position, 0-based.
    #[must_use]
    pub fn position(&self) -> usize {
        self.position
    }

    /// The onion size this server expects on its incoming forward link.
    #[must_use]
    pub fn incoming_width(&self, kind: RoundKind) -> usize {
        onion::wrapped_len(kind.payload_len(), self.chain_len - self.position)
    }

    /// The reply size this server expects on its incoming backward link:
    /// the exchange response under the reply layers of the servers after
    /// it.
    #[must_use]
    pub fn reply_width(&self) -> usize {
        vuvuzela_wire::EXCHANGE_RESPONSE_LEN
            + (self.chain_len - 1 - self.position) * onion::REPLY_LAYER_OVERHEAD
    }

    /// The slot stride of every reply arena in this chain: the tail
    /// reserves the whole chain's reply layers up front, so each hop's
    /// in-place wrap — this one's and those of the hops before it —
    /// fits in its slot.
    #[must_use]
    pub fn reply_stride(&self) -> usize {
        vuvuzela_wire::EXCHANGE_RESPONSE_LEN + self.chain_len * onion::REPLY_LAYER_OVERHEAD
    }

    /// Forward pass on the flat round arena: peel every layer in place in
    /// parallel, compact the arena ([`RoundBuffer::compact`]), replace
    /// malformed entries with substitute noise, append cover traffic, and
    /// apply the secret shuffle by index remapping.
    ///
    /// Returns the batch for the next hop — or, for the last server, the
    /// fully peeled request payloads in arrival order — with
    /// `stride == width`, and the cover traffic this server drew for it
    /// (`None` at the tail, which adds none here).
    pub fn forward_buf(
        &mut self,
        round: u64,
        kind: RoundKind,
        mut batch: RoundBuffer,
    ) -> (RoundBuffer, Option<Operator>) {
        let incoming_len = batch.len();
        let width = batch.width();
        debug_assert_eq!(width, self.incoming_width(kind), "unexpected onion width");
        let mut rng = round_rng(self.seed, round);

        // Step 1: decrypt our layer of every request, in parallel and in
        // place. The secret key is reconstructed once, outside the
        // per-onion closure, and each worker peels a contiguous chunk of
        // slots so the x25519 ladder's final field inversions batch at
        // chunk granularity (one `Fe::invert` per chunk, not per onion).
        let secret = self.keypair.secret.clone();
        let public = self.keypair.public;
        let stride = batch.stride();
        let chunks = batch.arena_mut().chunks_mut(stride * CHUNK_SLOTS).collect();
        let layer_keys: Vec<Option<LayerKey>> = WorkerPool::shared()
            .map_vec(chunks, self.config.workers, |chunk: &mut [u8]| {
                onion::peel_chunk_in_place(&secret, &public, round, chunk, stride, width)
            })
            .into_iter()
            .flatten()
            .map(|r| r.ok().map(|(key, _)| key))
            .collect();
        batch.set_width(width - onion::LAYER_OVERHEAD);
        // Close the gap the peel left in every slot: the batch this hop
        // sends on (and its noise) is `width` bytes a slot, not `stride`.
        batch.compact();

        // Replace malformed entries (sequential: rare, and it draws from
        // the round RNG whose order must be deterministic).
        for (i, key) in layer_keys.iter().enumerate() {
            if key.is_none() {
                self.malformed_replaced += 1;
                substitute_into(
                    &self.downstream_precomp,
                    round,
                    kind,
                    batch.slot_mut(i),
                    &mut rng,
                );
            }
        }

        if self.is_last() {
            // Step 3b happens in the engine; remember keys for the replies.
            self.rounds.insert(
                round,
                RoundState {
                    kind,
                    layer_keys,
                    permutation: Vec::new(),
                    incoming_len,
                    rng,
                },
            );
            return (batch, None);
        }

        // Step 2: cover traffic for the rest of the chain, generated
        // straight into the arena.
        let noise = self.generate_noise_into(&mut rng, round, kind, &mut batch);

        // Step 3a: secret shuffle of real + noise requests, by index
        // remapping — no payload clones.
        let permutation = random_permutation(&mut rng, batch.len());
        batch.permute(&permutation);

        self.rounds.insert(
            round,
            RoundState {
                kind,
                layer_keys,
                permutation,
                incoming_len,
                rng,
            },
        );
        (batch, Some(noise))
    }

    /// Backward pass (step 4) on the flat arena: un-shuffle by inverse
    /// index remapping, strip this server's own noise, and wrap every
    /// reply in place under the stored layer key.
    ///
    /// If an adversary shrank or grew the reply batch in flight, the
    /// permutation can no longer be meaningfully inverted; the server
    /// treats the whole round's replies as lost and returns uniform
    /// filler, so clients see a dropped round (a DoS, which the threat
    /// model permits) rather than misrouted plaintext or a crash.
    ///
    /// # Panics
    ///
    /// Panics if called for a round with no stored forward state — a
    /// harness bug, not adversarial input.
    pub fn backward_buf(&mut self, round: u64, mut replies: RoundBuffer) -> RoundBuffer {
        let mut state = self
            .rounds
            .remove(&round)
            .expect("backward() without matching forward()");
        assert!(
            matches!(state.kind, RoundKind::Conversation),
            "backward pass on a forward-only dialing round"
        );

        if !state.permutation.is_empty() && replies.len() != state.permutation.len() {
            // Tampered reply batch: alignment is unrecoverable. Emit
            // uniform filler of the correct outgoing size for every
            // upstream request.
            self.malformed_replaced += state.incoming_len as u64;
            let out_size = self.reply_width() + onion::REPLY_LAYER_OVERHEAD;
            let mut filler =
                RoundBuffer::with_capacity(self.reply_stride(), out_size, state.incoming_len);
            let rng = &mut state.rng;
            for _ in 0..state.incoming_len {
                filler.push_with(|slot| rng.fill_bytes(slot));
            }
            return filler;
        }

        if !state.permutation.is_empty() {
            // Un-shuffle: restored[permutation[j]] = replies[j], i.e. a
            // pull by the inverse permutation.
            let mut inverse = vec![0usize; state.permutation.len()];
            for (j, &p) in state.permutation.iter().enumerate() {
                inverse[p] = j;
            }
            replies.permute(&inverse);
        }
        // This server's own noise replies sit past the original incoming
        // prefix after un-shuffling; injected extras past it are dropped
        // the same way the reference path's `take(incoming_len)` does,
        // and their memory with them.
        replies.truncate(state.incoming_len);

        // Wrap in parallel, in place; invalid slots get filler derived
        // from one per-round seed (no per-reply seed allocations).
        let reply_size = replies.width();
        let out_size = reply_size + onion::REPLY_LAYER_OVERHEAD;
        let mut filler_seed = [0u8; 32];
        state.rng.fill_bytes(&mut filler_seed);
        let keys = &state.layer_keys;
        let stride = replies.stride();
        let chunks = replies
            .arena_mut()
            .chunks_mut(stride * CHUNK_SLOTS)
            .enumerate()
            .collect();
        WorkerPool::shared().map_vec(chunks, self.config.workers, |(c, chunk)| {
            for (i, slot) in (c * CHUNK_SLOTS..).zip(chunk.chunks_mut(stride)) {
                match keys.get(i).and_then(Option::as_ref) {
                    Some(key) => {
                        let sealed = onion::wrap_reply_in_place(key, round, slot, reply_size);
                        debug_assert_eq!(sealed, out_size);
                    }
                    None => filler_bytes(&filler_seed, i, &mut slot[..out_size]),
                }
            }
        });
        replies.set_width(out_size);
        replies
    }

    /// The pre-refactor forward pass over per-onion `Vec`s: allocating
    /// peel, noise returned as vectors, shuffle by cloning. Kept as the
    /// reference implementation — it consumes the server RNG in exactly
    /// the same order as [`MixServer::forward_buf`], so equal seeds must
    /// give byte-identical batches (asserted by the pipeline-equivalence
    /// tests and, at 10,000 onions, by `bench_round_pipeline`).
    pub fn forward_reference(
        &mut self,
        round: u64,
        kind: RoundKind,
        batch: Vec<Vec<u8>>,
    ) -> Vec<Vec<u8>> {
        let incoming_len = batch.len();
        let width = self.incoming_width(kind);
        let mut rng = round_rng(self.seed, round);

        let secret = self.keypair.secret.clone();
        let public = self.keypair.public;
        let peeled: Vec<Option<(LayerKey, Vec<u8>)>> =
            WorkerPool::shared().map_vec(batch, self.config.workers, |layer| {
                if layer.len() != width {
                    // The flat path can only carry uniform sizes; classify
                    // mismatches identically here.
                    return None;
                }
                onion::peel(&secret, &public, round, &layer).ok()
            });

        let mut layer_keys: Vec<Option<LayerKey>> = Vec::with_capacity(incoming_len);
        let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(incoming_len);
        let inner_width = width - onion::LAYER_OVERHEAD;
        for result in peeled {
            match result {
                Some((key, inner)) => {
                    layer_keys.push(Some(key));
                    payloads.push(inner);
                }
                None => {
                    self.malformed_replaced += 1;
                    layer_keys.push(None);
                    let mut slot = vec![0u8; inner_width];
                    substitute_into(&self.downstream_precomp, round, kind, &mut slot, &mut rng);
                    payloads.push(slot);
                }
            }
        }

        if self.is_last() {
            self.rounds.insert(
                round,
                RoundState {
                    kind,
                    layer_keys,
                    permutation: Vec::new(),
                    incoming_len,
                    rng,
                },
            );
            return payloads;
        }

        let noise = self.generate_noise(&mut rng, round, kind);
        payloads.extend(noise.onions);

        let permutation = random_permutation(&mut rng, payloads.len());
        let shuffled: Vec<Vec<u8>> = permutation.iter().map(|&i| payloads[i].clone()).collect();

        self.rounds.insert(
            round,
            RoundState {
                kind,
                layer_keys,
                permutation,
                incoming_len,
                rng,
            },
        );
        shuffled
    }

    /// The pre-refactor backward pass over per-onion `Vec`s; reference
    /// twin of [`MixServer::backward_buf`] (same RNG order, byte-identical
    /// results for equal seeds).
    pub fn backward_reference(&mut self, round: u64, replies: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let mut state = self
            .rounds
            .remove(&round)
            .expect("backward() without matching forward()");
        assert!(
            matches!(state.kind, RoundKind::Conversation),
            "backward pass on a forward-only dialing round"
        );

        if !state.permutation.is_empty() && replies.len() != state.permutation.len() {
            self.malformed_replaced += state.incoming_len as u64;
            let out_size = vuvuzela_wire::EXCHANGE_RESPONSE_LEN
                + (self.chain_len - self.position) * onion::REPLY_LAYER_OVERHEAD;
            return (0..state.incoming_len)
                .map(|_| {
                    let mut filler = vec![0u8; out_size];
                    state.rng.fill_bytes(&mut filler);
                    filler
                })
                .collect();
        }

        let restored: Vec<Vec<u8>> = if state.permutation.is_empty() {
            replies
        } else {
            let mut restored = vec![Vec::new(); replies.len()];
            for (j, reply) in replies.into_iter().enumerate() {
                restored[state.permutation[j]] = reply;
            }
            restored
        };

        let reply_size = restored.first().map_or(0, Vec::len);
        let out_size = reply_size + onion::REPLY_LAYER_OVERHEAD;
        let mut filler_seed = [0u8; 32];
        state.rng.fill_bytes(&mut filler_seed);
        let tasks: Vec<(usize, Option<LayerKey>, Vec<u8>)> = state
            .layer_keys
            .into_iter()
            .zip(restored.into_iter().take(state.incoming_len))
            .enumerate()
            .map(|(i, (key, reply))| (i, key, reply))
            .collect();
        WorkerPool::shared().map_vec(tasks, self.config.workers, |(i, key, reply)| match key {
            Some(key) => onion::wrap_reply_layer(&key, round, &reply),
            None => {
                let mut filler = vec![0u8; out_size];
                filler_bytes(&filler_seed, i, &mut filler);
                filler
            }
        })
    }

    /// Abandons any state for `round` (e.g. when an adversary blackholes
    /// the round and no replies will ever come back).
    pub fn abort_round(&mut self, round: u64) {
        self.rounds.remove(&round);
    }

    /// Abandons *every* in-flight round's state, returning how many were
    /// dropped. This is the per-server half of schedule-abort recovery:
    /// when a streaming schedule dies mid-flight (a stage panicked, a
    /// server crashed), each surviving server may hold forward state for
    /// an unpredictable subset of the admitted rounds — none of which
    /// will ever see a backward pass — and a deployment that wants to
    /// keep running must discard all of it before scheduling new rounds.
    pub fn abort_all_rounds(&mut self) -> usize {
        let dropped = self.rounds.len();
        self.rounds.clear();
        dropped
    }

    /// How many rounds this server currently holds state for — more than
    /// one exactly when a streaming scheduler has rounds in flight.
    #[must_use]
    pub fn in_flight_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Noise counts for the last server's direct dialing-drop injection,
    /// drawn as the continuation of the round's RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if the forward pass for `round` has not run (or was
    /// aborted) — a harness bug, mirroring
    /// [`MixServer::backward_buf`]'s contract for the same misuse.
    pub fn dialing_noise_counts(&mut self, round: u64, num_drops: u32) -> Vec<u64> {
        let state = self
            .rounds
            .get_mut(&round)
            .expect("dialing_noise_counts() without matching forward()");
        debug_assert!(
            matches!(state.kind, RoundKind::Dialing { .. }),
            "per-drop noise drawn for a non-dialing round"
        );
        noise::dialing_noise_counts(
            &mut state.rng,
            num_drops,
            self.config.dialing_noise,
            self.config.noise_mode,
        )
    }

    fn generate_noise(&mut self, rng: &mut StdRng, round: u64, kind: RoundKind) -> NoiseBatch {
        match kind {
            RoundKind::Conversation => noise::conversation_noise(
                rng,
                &self.downstream,
                round,
                self.config.conversation_noise,
                self.config.noise_mode,
                self.config.workers,
            ),
            RoundKind::Dialing { num_drops } => noise::dialing_noise(
                rng,
                &self.downstream,
                round,
                num_drops,
                self.config.dialing_noise,
                self.config.noise_mode,
                self.config.workers,
            ),
        }
    }

    /// Appends this round's cover traffic to `batch` and says what it
    /// drew.
    fn generate_noise_into(
        &self,
        rng: &mut StdRng,
        round: u64,
        kind: RoundKind,
        batch: &mut RoundBuffer,
    ) -> Operator {
        match kind {
            RoundKind::Conversation => {
                let (singles, pairs) = noise::conversation_noise_into(
                    rng,
                    batch,
                    &self.downstream_precomp,
                    round,
                    self.config.conversation_noise,
                    self.config.noise_mode,
                    self.config.workers,
                );
                Operator::Conversation { singles, pairs }
            }
            RoundKind::Dialing { num_drops } => Operator::Dialing {
                per_drop: noise::dialing_noise_into(
                    rng,
                    batch,
                    &self.downstream_precomp,
                    round,
                    num_drops,
                    self.config.dialing_noise,
                    self.config.noise_mode,
                    self.config.workers,
                ),
            },
        }
    }
}

/// Slots per fan-out item on the arena passes (the peel and the reply
/// wrap) — matched to the batch resolver's width in `vuvuzela_crypto`
/// so each peeled chunk's field inversions collapse into one.
const CHUNK_SLOTS: usize = 32;

/// Writes a replacement for a malformed request into `slot`: a fresh
/// noise request wrapped for the remaining chain (or plain at the last
/// server), so downstream servers cannot tell anything was replaced.
/// Shared by the flat and reference paths so both consume the RNG
/// identically.
fn substitute_into(
    downstream: &[onion::PrecomputedServer],
    round: u64,
    kind: RoundKind,
    slot: &mut [u8],
    rng: &mut StdRng,
) {
    let offset = 32 * downstream.len();
    match kind {
        RoundKind::Conversation => {
            ExchangeRequest::noise(rng).encode_into(&mut slot[offset..]);
        }
        RoundKind::Dialing { .. } => {
            DialRequest::noop(rng).encode_into(&mut slot[offset..]);
        }
    }
    if !downstream.is_empty() {
        // One child RNG per wrapped payload, as the bulk noise path does,
        // so seeded runs stay reproducible.
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        let mut child = StdRng::from_seed(seed);
        onion::wrap_noise_into(&mut child, downstream, round, slot, kind.payload_len());
    }
}

/// Deterministic filler for reply slots whose request was replaced: a
/// cheap per-slot stream derived from one per-round seed. The client
/// cannot decrypt it either way; deriving from `(seed, index)` keeps the
/// parallel wrap free of per-reply allocations and RNG-order coupling.
fn filler_bytes(round_seed: &[u8; 32], index: usize, out: &mut [u8]) {
    let mut seed = *round_seed;
    seed[..8].copy_from_slice(
        &(index as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .to_le_bytes(),
    );
    StdRng::from_seed(seed).fill_bytes(out);
}

/// A uniformly random permutation of `0..len` (Fisher–Yates).
fn random_permutation<R: Rng>(rng: &mut R, len: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use vuvuzela_dp::{NoiseDistribution, NoiseMode};

    fn test_config(mu: f64) -> SystemConfig {
        SystemConfig {
            chain_len: 2,
            conversation_noise: NoiseDistribution::new(mu, 1.0),
            dialing_noise: NoiseDistribution::new(2.0, 1.0),
            noise_mode: NoiseMode::Deterministic,
            workers: 2,
            conversation_slots: 1,
            retransmit_after: 2,
            exchange_shards: 4,
        }
    }

    /// [`MixServer::forward_buf`] on per-onion vectors, converted at the
    /// boundary.
    fn forward(
        server: &mut MixServer,
        round: u64,
        kind: RoundKind,
        batch: Vec<Vec<u8>>,
    ) -> Vec<Vec<u8>> {
        let width = server.incoming_width(kind);
        let (buf, _mismatched) = RoundBuffer::from_vecs(&batch, width, width);
        server.forward_buf(round, kind, buf).0.to_vecs()
    }

    /// [`MixServer::backward_buf`] on per-reply vectors; see [`forward`].
    fn backward(server: &mut MixServer, round: u64, replies: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let width = replies.first().map_or(0, Vec::len);
        let stride = (width + onion::REPLY_LAYER_OVERHEAD).max(1);
        let (buf, _mismatched) = RoundBuffer::from_vecs(&replies, stride, width);
        server.backward_buf(round, buf).to_vecs()
    }

    fn two_server_chain(mu: f64) -> (MixServer, MixServer) {
        let mut rng = StdRng::seed_from_u64(42);
        let kp0 = Keypair::generate(&mut rng);
        let kp1 = Keypair::generate(&mut rng);
        let s0 = MixServer::new(0, 2, kp0, vec![kp1.public], test_config(mu), 1);
        let s1 = MixServer::new(1, 2, kp1, vec![], test_config(mu), 2);
        (s0, s1)
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut rng = StdRng::seed_from_u64(0);
        for len in [0usize, 1, 2, 10, 1000] {
            let perm = random_permutation(&mut rng, len);
            let mut seen = vec![false; len];
            for &p in &perm {
                assert!(!seen[p], "duplicate index {p}");
                seen[p] = true;
            }
            assert!(seen.into_iter().all(|s| s));
        }
    }

    #[test]
    fn forward_backward_roundtrip_preserves_order() {
        let (mut s0, mut s1) = two_server_chain(4.0);
        let mut rng = StdRng::seed_from_u64(7);
        let chain_pks = [s0.public_key(), s1.public_key()];

        // Three clients with distinguishable payloads.
        let payloads: Vec<Vec<u8>> = (0..3u8)
            .map(|i| {
                let mut request = ExchangeRequest::noise(&mut rng);
                request.sealed_message[0] = i;
                request.encode()
            })
            .collect();
        let onions: Vec<Vec<u8>> = payloads
            .iter()
            .map(|p| onion::wrap(&mut rng, &chain_pks, 5, p).0)
            .collect();

        let mid = forward(&mut s0, 5, RoundKind::Conversation, onions);
        // 3 real + 2µ noise (µ=4 → 4 singles + 2 pairs = 8).
        assert_eq!(mid.len(), 3 + 8);

        let last = forward(&mut s1, 5, RoundKind::Conversation, mid);
        assert_eq!(last.len(), 11, "last server does not add noise");

        // Echo each request back as its own reply.
        let replies = backward(&mut s1, 5, last);
        assert_eq!(replies.len(), 11);
        let client_replies = backward(&mut s0, 5, replies);
        assert_eq!(client_replies.len(), 3, "noise replies stripped");
        // Sizes uniform.
        let sizes: std::collections::HashSet<usize> = client_replies.iter().map(Vec::len).collect();
        assert_eq!(sizes.len(), 1);
    }

    #[test]
    fn shuffle_actually_permutes() {
        // With noise off and many requests, the odds of the identity
        // permutation are negligible; check outgoing != incoming order by
        // peeling at the next server.
        let (_, mut s1) = two_server_chain(0.0);
        let mut cfg_off = test_config(0.0);
        cfg_off.noise_mode = NoiseMode::Off;
        let mut rng = StdRng::seed_from_u64(9);
        let mut s0_off = MixServer::new(
            0,
            2,
            Keypair::generate(&mut rng),
            vec![s1.public_key()],
            cfg_off,
            3,
        );
        let chain_pks = [s0_off.public_key(), s1.public_key()];
        let onions: Vec<Vec<u8>> = (0..64u8)
            .map(|i| {
                let mut request = ExchangeRequest::noise(&mut rng);
                request.sealed_message[0] = i;
                onion::wrap(&mut rng, &chain_pks, 1, &request.encode()).0
            })
            .collect();

        let mid = forward(&mut s0_off, 1, RoundKind::Conversation, onions);
        assert_eq!(mid.len(), 64);
        let peeled = forward(&mut s1, 1, RoundKind::Conversation, mid);
        let order: Vec<u8> = peeled
            .iter()
            .map(|p| ExchangeRequest::decode(p).expect("valid").sealed_message[0])
            .collect();
        let identity: Vec<u8> = (0..64u8).collect();
        assert_ne!(order, identity, "permutation left batch in order");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, identity, "permutation lost/duplicated entries");
    }

    #[test]
    fn malformed_requests_are_replaced_not_dropped() {
        let (mut s0, mut s1) = two_server_chain(2.0);
        let mut rng = StdRng::seed_from_u64(11);
        let chain_pks = [s0.public_key(), s1.public_key()];

        let payload = ExchangeRequest::noise(&mut rng).encode();
        let good = onion::wrap(&mut rng, &chain_pks, 2, &payload).0;
        let garbage = vec![0xFFu8; good.len()];
        let short = vec![1u8, 2, 3];

        let mid = forward(
            &mut s0,
            2,
            RoundKind::Conversation,
            vec![good, garbage, short],
        );
        assert_eq!(s0.malformed_replaced, 2);
        // Batch keeps its shape: 3 requests + 2µ noise.
        assert_eq!(mid.len(), 3 + 4);
        // Everything downstream still peels.
        let peeled = forward(&mut s1, 2, RoundKind::Conversation, mid);
        assert_eq!(peeled.len(), 7);
        for p in &peeled {
            let _ = ExchangeRequest::decode(p).expect("all payloads valid downstream");
        }

        // Backward: the malformed clients get filler of uniform size.
        let replies = backward(&mut s1, 2, peeled);
        let back = backward(&mut s0, 2, replies);
        assert_eq!(back.len(), 3);
        assert_eq!(back[0].len(), back[1].len());
        assert_eq!(back[1].len(), back[2].len());
    }

    #[test]
    fn tampered_reply_batch_yields_uniform_filler() {
        // An adversary dropping replies on a backward link must not
        // panic the server or misroute plaintext: every upstream slot
        // gets correctly sized filler.
        let (mut s0, mut s1) = two_server_chain(2.0);
        let mut rng = StdRng::seed_from_u64(21);
        let chain_pks = [s0.public_key(), s1.public_key()];
        let onions: Vec<Vec<u8>> = (0..3)
            .map(|_| {
                let payload = ExchangeRequest::noise(&mut rng).encode();
                onion::wrap(&mut rng, &chain_pks, 6, &payload).0
            })
            .collect();
        let mid = forward(&mut s0, 6, RoundKind::Conversation, onions);
        let peeled = forward(&mut s1, 6, RoundKind::Conversation, mid);
        let mut replies = backward(&mut s1, 6, peeled);
        replies.truncate(2); // adversary drops replies in flight

        let out = backward(&mut s0, 6, replies);
        assert_eq!(out.len(), 3, "one filler per upstream request");
        let sizes: std::collections::HashSet<usize> = out.iter().map(Vec::len).collect();
        assert_eq!(sizes.len(), 1, "uniform filler size");
        // Outgoing size from the first server: 256 + 2 layers × 16.
        assert_eq!(
            *sizes.iter().next().expect("one size"),
            vuvuzela_wire::EXCHANGE_RESPONSE_LEN + 2 * onion::REPLY_LAYER_OVERHEAD
        );
        assert_eq!(s0.malformed_replaced, 3);
    }

    #[test]
    #[should_panic(expected = "backward() without matching forward()")]
    fn backward_without_forward_panics() {
        let (mut s0, _) = two_server_chain(1.0);
        let _ = backward(&mut s0, 99, vec![]);
    }

    #[test]
    fn abort_round_clears_state() {
        let (mut s0, _s1) = two_server_chain(1.0);
        let mut rng = StdRng::seed_from_u64(13);
        let chain_pks = [s0.public_key(), _s1.public_key()];
        let payload = ExchangeRequest::noise(&mut rng).encode();
        let onion0 = onion::wrap(&mut rng, &chain_pks, 3, &payload).0;
        let _ = forward(&mut s0, 3, RoundKind::Conversation, vec![onion0]);
        s0.abort_round(3);
        assert!(s0.rounds.is_empty());
    }

    #[test]
    fn dialing_forward_adds_per_drop_noise() {
        let (mut s0, mut s1) = two_server_chain(1.0);
        let mut rng = StdRng::seed_from_u64(17);
        let chain_pks = [s0.public_key(), s1.public_key()];
        let payload = DialRequest::noop(&mut rng).encode();
        let onion0 = onion::wrap(&mut rng, &chain_pks, 4, &payload).0;

        let mid = forward(
            &mut s0,
            4,
            RoundKind::Dialing { num_drops: 3 },
            vec![onion0],
        );
        // 1 real + 3 drops × µ_dial(=2) noise.
        assert_eq!(mid.len(), 1 + 6);
        let peeled = forward(&mut s1, 4, RoundKind::Dialing { num_drops: 3 }, mid);
        for p in &peeled {
            let _ = DialRequest::decode(p).expect("valid dial request");
        }
    }

    /// The heart of the refactor's safety argument: for identical seeds
    /// the flat arena pipeline and the per-`Vec` reference path must
    /// produce byte-identical batches in both directions.
    #[test]
    fn flat_and_reference_paths_are_byte_identical() {
        let mut rng = StdRng::seed_from_u64(77);
        let (mut flat0, mut flat1) = two_server_chain(3.0);
        let (mut ref0, mut ref1) = two_server_chain(3.0);
        let chain_pks = [flat0.public_key(), flat1.public_key()];

        let onions: Vec<Vec<u8>> = (0..5)
            .map(|_| {
                let payload = ExchangeRequest::noise(&mut rng).encode();
                onion::wrap(&mut rng, &chain_pks, 8, &payload).0
            })
            .collect();
        // Corrupt one onion so the substitute path is exercised too.
        let mut onions = onions;
        onions[2][40] ^= 0xFF;

        let width = flat0.incoming_width(RoundKind::Conversation);
        let (buf, _) = RoundBuffer::from_vecs(&onions, width, width);

        let mid_ref = ref0.forward_reference(8, RoundKind::Conversation, onions);
        let (mid_flat, _) = flat0.forward_buf(8, RoundKind::Conversation, buf);
        assert_eq!(mid_flat.to_vecs(), mid_ref, "first hop diverged");

        let (mid_buf, _) = RoundBuffer::from_vecs(&mid_ref, mid_flat.width(), mid_flat.width());
        let last_ref = ref1.forward_reference(8, RoundKind::Conversation, mid_ref);
        let (last_flat, _) = flat1.forward_buf(8, RoundKind::Conversation, mid_buf);
        assert_eq!(last_flat.to_vecs(), last_ref, "second hop diverged");
        assert_eq!(flat0.malformed_replaced, ref0.malformed_replaced);

        // Echo the payloads back as replies and compare the return path.
        let replies_ref = ref1.backward_reference(8, last_ref);
        let mut reply_buf = RoundBuffer::new(
            last_flat.width() + 2 * onion::REPLY_LAYER_OVERHEAD,
            last_flat.width(),
        );
        for i in 0..last_flat.len() {
            let bytes = last_flat.slot(i);
            reply_buf.push_with(|slot| slot.copy_from_slice(bytes));
        }
        let replies_flat = flat1.backward_buf(8, reply_buf);
        assert_eq!(
            replies_flat.to_vecs(),
            replies_ref,
            "last-hop replies diverged"
        );

        let back_ref = ref0.backward_reference(8, replies_ref);
        let back_flat = flat0.backward_buf(8, replies_flat);
        assert_eq!(back_flat.to_vecs(), back_ref, "first-hop replies diverged");
    }

    /// A batch with *every* onion malformed — garbage, a low-order
    /// ephemeral key, a flipped ciphertext bit, a flipped tag bit, a
    /// wrong length — is all substitutes (`substitute_into`: one
    /// single-onion wrap each for the servers downstream): at every
    /// position of a three-server chain and for both round kinds, the
    /// flat path's output, recorded keys, shuffle and final round RNG
    /// equal the per-`Vec` reference's, and the next hop peels it all.
    #[test]
    fn all_malformed_batch_substitutes_identically_on_both_paths() {
        let mut rng = StdRng::seed_from_u64(43);
        let keypairs: Vec<Keypair> = (0..3).map(|_| Keypair::generate(&mut rng)).collect();
        let pks: Vec<PublicKey> = keypairs.iter().map(|kp| kp.public).collect();
        let mut config = test_config(2.0);
        config.chain_len = 3;
        let server = |position: usize| {
            let downstream = pks[position + 1..].to_vec();
            let keypair = keypairs[position].clone();
            MixServer::new(position, 3, keypair, downstream, config.clone(), 9)
        };

        for kind in [RoundKind::Conversation, RoundKind::Dialing { num_drops: 2 }] {
            for position in 0..3 {
                let (mut flat, mut reference) = (server(position), server(position));
                let round = 5 + position as u64;
                let width = flat.incoming_width(kind);
                let payload = vec![7u8; width - (3 - position) * onion::LAYER_OVERHEAD];
                let valid = || onion::wrap(&mut rng.clone(), &pks[position..], round, &payload).0;
                let mut low_order = valid();
                low_order[..32].fill(0);
                let mut bad_body = valid();
                bad_body[40] ^= 1;
                let mut bad_tag = valid();
                bad_tag[width - 1] ^= 0x80;
                let onions = vec![
                    vec![0xFFu8; width],
                    low_order,
                    bad_body,
                    bad_tag,
                    vec![1u8, 2, 3],
                ];

                let (buf, mismatched) = RoundBuffer::from_vecs(&onions, width, width);
                assert_eq!(mismatched, vec![4]);
                let out_ref = reference.forward_reference(round, kind, onions);
                let (out_flat, _) = flat.forward_buf(round, kind, buf);
                let what = format!("{kind:?} at server {position}");
                assert_eq!(out_flat.to_vecs(), out_ref, "{what}");
                assert_eq!(
                    (flat.malformed_replaced, reference.malformed_replaced),
                    (5, 5)
                );
                let (mut a, mut b) = (
                    flat.rounds.remove(&round).expect("flat state"),
                    reference.rounds.remove(&round).expect("reference state"),
                );
                assert!(a
                    .layer_keys
                    .iter()
                    .chain(&b.layer_keys)
                    .all(Option::is_none));
                assert_eq!(a.layer_keys.len(), b.layer_keys.len(), "{what}: keys");
                assert_eq!(a.permutation, b.permutation, "{what}: shuffle");
                assert_eq!(a.rng.next_u64(), b.rng.next_u64(), "{what}: round RNG");

                if position < 2 {
                    let mut next = server(position + 1);
                    let peeled = forward(&mut next, round, kind, out_ref);
                    assert_eq!(next.malformed_replaced, 0, "{what}: substitutes peel");
                    assert!(peeled.len() >= 5);
                }
            }
        }
    }

    /// A noising server's forward pass returns the very `(singles,
    /// pairs)` its conversation noise drew, and a dialing round's count
    /// per drop; the tail draws nothing.
    #[test]
    fn forward_buf_returns_the_cover_traffic_it_drew() {
        let mut config = test_config(7.0);
        config.noise_mode = NoiseMode::Sampled;
        let mut rng = StdRng::seed_from_u64(42);
        let (kp0, kp1) = (Keypair::generate(&mut rng), Keypair::generate(&mut rng));
        let mut s0 = MixServer::new(0, 2, kp0, vec![kp1.public], config.clone(), 11);
        let mut s1 = MixServer::new(1, 2, kp1, vec![], config.clone(), 12);

        let width = s0.incoming_width(RoundKind::Conversation);
        let (mid, noise) =
            s0.forward_buf(5, RoundKind::Conversation, RoundBuffer::new(width, width));
        let inner = width - onion::LAYER_OVERHEAD;
        let (singles, pairs) = noise::conversation_noise_into(
            &mut round_rng(11, 5),
            &mut RoundBuffer::new(inner, inner),
            &s0.downstream_precomp,
            5,
            config.conversation_noise,
            config.noise_mode,
            config.workers,
        );
        assert_eq!(noise, Some(Operator::Conversation { singles, pairs }));
        assert_eq!(mid.len() as u64, singles + 2 * pairs);
        let (_, noise) = s1.forward_buf(5, RoundKind::Conversation, mid);
        assert_eq!(noise, None, "the tail adds no noise");

        let kind = RoundKind::Dialing { num_drops: 3 };
        let width = s0.incoming_width(kind);
        let (mid, noise) = s0.forward_buf(6, kind, RoundBuffer::new(width, width));
        let Some(Operator::Dialing { per_drop }) = noise else {
            panic!("dialing noise is per drop: {noise:?}")
        };
        assert_eq!(per_drop.len(), 3);
        assert_eq!(mid.len() as u64, per_drop.iter().sum::<u64>());
    }
}
