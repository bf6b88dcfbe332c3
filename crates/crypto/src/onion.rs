//! Layered ("onion") encryption for the Vuvuzela server chain.
//!
//! Implements Algorithm 1 step 2 (client-side wrapping), Algorithm 2
//! step 1 (server-side peeling) and Algorithm 2 step 4 / Algorithm 1
//! step 3 (the reply path) from the paper.
//!
//! Wire layout of one request layer:
//!
//! ```text
//! ┌────────────────────┬──────────────────────────────────┐
//! │ ephemeral pk (32B) │ ChaCha20-Poly1305(inner) (…+16B) │
//! └────────────────────┴──────────────────────────────────┘
//! ```
//!
//! The client generates a fresh X25519 keypair *per layer per round*; the
//! layer key is `HKDF(DH(eph_sk, server_pk))`. The same layer key encrypts
//! the server's reply on the way back (with a direction-separated nonce),
//! which is the "temporary key for that server to use to encrypt the
//! user's result on the way back" of §4.1. Each request layer therefore
//! adds [`LAYER_OVERHEAD`] bytes, and each reply layer adds
//! [`REPLY_LAYER_OVERHEAD`] bytes.
//!
//! # Which path each entry point takes
//!
//! There is one chunk wrap and one chunk peel, each with two arms
//! chosen by CPU detection alone ([`crate::x25519::ladder_backend`]),
//! and the allocating seed pair they are tested against. Every wrap
//! produces the same bytes and layer keys from the same ephemeral
//! secrets (X25519 is a function; [`draw_layer_secrets`] is the one
//! definition of the order the secrets are drawn in), and every peel
//! the same results; they differ in who computes the scalar
//! multiplications.
//!
//! | entry point | scalar multiplications |
//! |---|---|
//! | [`wrap`], [`peel`] | scalar ladder, allocating, one onion — the seed references: the oracle every test holds the chunk entries to, on each arm |
//! | [`wrap_chunk_in_place`] | **the one wrap kernel**, a chunk of arena slots per call: comb keygen and comb DH over the per-server tables, eight lanes in lockstep on AVX-512 IFMA, the scalar comb walk elsewhere — cover traffic, cohort build, workload generators |
//! | [`wrap_into_with`], [`wrap_noise_into`] | the `n = 1` chunk wrap: one onion's `2 · chain_len` lanes share octets (chain 3 is one eight-wide walk) — the deployment client, a server's substitutes |
//! | [`peel_chunk_in_place`] | **the one peel kernel**, a chunk of arena slots per call: eight ladders in lockstep on AVX-512 IFMA, the scalar ladder elsewhere, the inversions shared across the chunk on both — every server hop |
//!
//! The chunk wrap sits beside the chunk peel: both take a run of
//! fixed-stride slots, batch the scalar multiplications across onions
//! (the peel's are variable-base, so ladders; the wrap's are
//! fixed-base, so comb walks) and resolve the deferred inversions in
//! shared groups. Neither chooses a kernel itself:
//! [`crate::x25519`] owns the two dispatches.
//!
//! There is no single-onion in-place peel. An onion has one
//! multiplication per peel, so alone in an eight-wide ladder it pays
//! for all eight lanes (≈ 64 µs against ≈ 44 µs on the scalar ladder),
//! where a lone wrap fills its octet with its own layers — and no
//! production caller peels singly: a server peels its round's arena a
//! worker chunk at a time. [`peel`] is kept for what the tests and
//! the per-`Vec` reference server need, an oracle.

use crate::aead;
use crate::edwards::{resolve_batch_into, PendingU, MAX_RESOLVE_BATCH};
use crate::hkdf::hkdf;
use crate::x25519::{
    x25519, x25519_comb_pending, x25519_ladder_pending, DhTable, PublicKey, SecretKey,
    SharedSecret, BASE_POINT,
};
use crate::CryptoError;
use rand::{CryptoRng, RngCore};

/// Bytes added per onion layer on the request path (ephemeral public key
/// plus AEAD tag).
pub const LAYER_OVERHEAD: usize = 32 + aead::TAG_LEN;

/// Bytes added per onion layer on the reply path (AEAD tag only; the key
/// was established on the way in).
pub const REPLY_LAYER_OVERHEAD: usize = aead::TAG_LEN;

/// HKDF domain-separation label for onion layer keys.
const LAYER_INFO: &[u8] = b"vuvuzela/onion/layer/v1";

/// Direction of travel through the chain, used for nonce separation so the
/// request and reply under one layer key never share a nonce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Client → last server.
    Request,
    /// Last server → client.
    Reply,
}

/// Builds the deterministic per-round nonce for one direction.
///
/// Safe because every layer key is fresh per round: a (key, nonce) pair is
/// never reused.
#[must_use]
pub fn round_nonce(round: u64, direction: Direction) -> [u8; aead::NONCE_LEN] {
    let mut nonce = [0u8; aead::NONCE_LEN];
    nonce[0] = match direction {
        Direction::Request => 0x01,
        Direction::Reply => 0x02,
    };
    nonce[4..12].copy_from_slice(&round.to_le_bytes());
    nonce
}

/// The symmetric key shared between a client and one server for one round.
#[derive(Clone)]
pub struct LayerKey(pub [u8; 32]);

impl core::fmt::Debug for LayerKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "LayerKey(..)")
    }
}

/// Derives a layer key from a DH exchange, rejecting degenerate (all-zero)
/// shared secrets produced by low-order public keys.
///
/// # Errors
///
/// [`CryptoError::DegenerateSharedSecret`] when the DH output is zero.
pub fn derive_layer_key(
    my_secret: &SecretKey,
    their_public: &PublicKey,
    eph_public: &PublicKey,
    server_public: &PublicKey,
) -> Result<LayerKey, CryptoError> {
    layer_key_from_shared(
        &my_secret.diffie_hellman(their_public),
        eph_public,
        server_public,
    )
}

/// The KDF half of [`derive_layer_key`], for callers that computed the
/// shared secret through a precomputed table.
///
/// # Errors
///
/// [`CryptoError::DegenerateSharedSecret`] when the DH output is zero.
pub fn layer_key_from_shared(
    shared: &SharedSecret,
    eph_public: &PublicKey,
    server_public: &PublicKey,
) -> Result<LayerKey, CryptoError> {
    if shared.0 == [0u8; 32] {
        return Err(CryptoError::DegenerateSharedSecret);
    }
    // Salt binds the key to the specific (ephemeral, server) pair.
    let mut salt = [0u8; 64];
    salt[..32].copy_from_slice(eph_public.as_bytes());
    salt[32..].copy_from_slice(server_public.as_bytes());
    Ok(LayerKey(hkdf(&salt, &shared.0, LAYER_INFO)))
}

/// A chain server's public key plus (when the key lies on the curve
/// proper) a precomputed Edwards comb table accelerating the per-onion
/// `eph_sk · server_pk` Diffie-Hellman. Built once per long-lived server
/// key; the single-onion wraps and the chunk wrap both walk it.
pub struct PrecomputedServer {
    /// The server's long-term public key.
    pub public: PublicKey,
    table: Option<DhTable>,
}

impl PrecomputedServer {
    /// Precomputes for one server key (falls back to the plain ladder at
    /// use time if the key is a twist point, which honest servers never
    /// publish).
    #[must_use]
    pub fn new(public: PublicKey) -> PrecomputedServer {
        PrecomputedServer {
            table: DhTable::new(&public),
            public,
        }
    }
}

/// Client side: onion-wraps `payload` for the given server chain.
///
/// `server_pks[0]` is the first server (outermost layer). Returns the wire
/// bytes and the per-layer keys (ordered like `server_pks`) needed to
/// decrypt the reply with [`unwrap_reply_layers`].
///
/// This is the **seed reference path**: ladder keygen, ladder DH, one
/// heap allocation per layer. [`wrap_into_with`] and
/// [`wrap_chunk_in_place`] produce byte-identical onions (equal RNG
/// state) without the allocations and with table-accelerated scalar
/// multiplication; the equivalence property tests and the round
/// benchmarks hold the two sides against each other.
pub fn wrap<R: RngCore + CryptoRng>(
    rng: &mut R,
    server_pks: &[PublicKey],
    round: u64,
    payload: &[u8],
) -> (Vec<u8>, Vec<LayerKey>) {
    let nonce = round_nonce(round, Direction::Request);
    let mut keys = Vec::with_capacity(server_pks.len());
    // Generate layer keys in forward order so `keys[i]` belongs to server i.
    let mut headers: Vec<(PublicKey, LayerKey)> = Vec::with_capacity(server_pks.len());
    for server_pk in server_pks {
        let eph_secret = SecretKey::generate(rng);
        let eph_public = PublicKey(x25519(eph_secret.as_bytes(), &BASE_POINT));
        let key = derive_layer_key(&eph_secret, server_pk, &eph_public, server_pk)
            .expect("freshly generated ephemeral key cannot be low-order");
        headers.push((eph_public, key.clone()));
        keys.push(key);
    }

    // Encrypt from the innermost (last server) outwards.
    let mut onion = payload.to_vec();
    for (eph_pk, key) in headers.iter().rev() {
        let sealed = aead::seal(&key.0, &nonce, &[], &onion);
        let mut layer = Vec::with_capacity(32 + sealed.len());
        layer.extend_from_slice(eph_pk.as_bytes());
        layer.extend_from_slice(&sealed);
        onion = layer;
    }
    (onion, keys)
}

/// Client side: onion-wraps a payload **in place**, without allocating
/// for the onion — the single-onion entry point, for callers that build
/// one onion at a time against a chain they wrap for every round.
///
/// The caller places the payload at
/// `buf[32 * chain_len .. 32 * chain_len + payload_len]` and provides at
/// least [`wrapped_len`]`(payload_len, chain_len)` bytes of buffer; on
/// return the finished onion occupies `buf[..wrapped_len(..)]`. Each
/// layer's Diffie-Hellman goes through its server's precomputed comb
/// table: this is [`wrap_chunk_in_place`] on a chunk of one slot
/// (`buf`), fed the secrets [`draw_layer_secrets`] takes from `rng` —
/// byte-identical output, layer keys and RNG consumption to [`wrap`],
/// the allocating reference the property tests compare against.
///
/// Returns the per-layer keys, ordered like `servers`.
///
/// # Panics
///
/// Panics if `buf` is too short — a caller bug, since every round buffer
/// reserves the full onion stride up front — or the chain exceeds
/// [`MAX_CHAIN`] servers.
pub fn wrap_into_with<R: RngCore + CryptoRng>(
    rng: &mut R,
    servers: &[PrecomputedServer],
    round: u64,
    buf: &mut [u8],
    payload_len: usize,
) -> Vec<LayerKey> {
    let mut keys = vec![LayerKey([0u8; 32]); servers.len()];
    wrap_one(rng, servers, round, buf, payload_len, Some(&mut keys));
    keys
}

/// [`wrap_into_with`] for callers that discard the layer keys — a
/// server's one-off cover onions (the substitute for a malformed
/// request), which never see a reply. Runs entirely on the stack (zero
/// heap allocations per onion: one onion's lanes fit one resolver
/// group); identical RNG consumption and output bytes.
///
/// # Panics
///
/// Panics if `buf` is too short or the chain exceeds [`MAX_CHAIN`]
/// servers.
pub fn wrap_noise_into<R: RngCore + CryptoRng>(
    rng: &mut R,
    servers: &[PrecomputedServer],
    round: u64,
    buf: &mut [u8],
    payload_len: usize,
) {
    wrap_one(rng, servers, round, buf, payload_len, None);
}

/// One onion as the `n = 1` chunk: its secrets drawn on the stack, `buf`
/// the chunk's only slot.
fn wrap_one<R: RngCore + CryptoRng>(
    rng: &mut R,
    servers: &[PrecomputedServer],
    round: u64,
    buf: &mut [u8],
    payload_len: usize,
    keys_out: Option<&mut [LayerKey]>,
) {
    let mut secrets = [[0u8; 32]; MAX_CHAIN];
    let secrets = secrets.get_mut(..servers.len()).expect("chain too long");
    draw_layer_secrets(rng, secrets);
    let stride = buf.len();
    wrap_chunk_in_place(servers, round, buf, stride, payload_len, secrets, keys_out);
}

/// Longest chain the stack-batched wrapping paths support (the paper
/// evaluates up to 6 servers).
pub const MAX_CHAIN: usize = 16;

/// Draws one onion's per-layer ephemeral secrets, `out[i]` for server
/// `i` of the chain. This is the **single definition** of the wrapping
/// RNG order: every wrap entry point — the allocating [`wrap`] draws the
/// same bytes through [`SecretKey::generate`] — consumes exactly
/// `32 · chain_len` bytes per onion, outermost layer first, so a bulk
/// caller that draws with this and hands the secrets to
/// [`wrap_chunk_in_place`] leaves its RNG where per-onion wrapping
/// would.
pub fn draw_layer_secrets<R: RngCore + CryptoRng>(rng: &mut R, out: &mut [[u8; 32]]) {
    for secret in out {
        rng.fill_bytes(secret);
    }
}

/// The tail of the chunk wrap, once per slot. `resolved` holds one
/// onion's scalar multiplications, `[2i]` the layer-`i` ephemeral public
/// key and `[2i + 1]` its shared secret with `servers[i]`; this derives
/// every layer key (HKDF, rejecting a degenerate secret) into
/// `keys_out[..servers.len()]`, then seals innermost-outwards in place:
/// each layer encrypts where it stands, appends its tag, and prefixes
/// its ephemeral key.
fn seal_layers(
    servers: &[PrecomputedServer],
    nonce: &[u8; aead::NONCE_LEN],
    resolved: &[[u8; 32]],
    buf: &mut [u8],
    payload_len: usize,
    keys_out: &mut [[u8; 32]; MAX_CHAIN],
) {
    let chain_len = servers.len();
    assert!(
        buf.len() >= wrapped_len(payload_len, chain_len),
        "wrapping needs the full onion stride"
    );
    for (i, server) in servers.iter().enumerate() {
        let eph_public = PublicKey::from_bytes(resolved[2 * i]);
        let shared = SharedSecret(resolved[2 * i + 1]);
        keys_out[i] = layer_key_from_shared(&shared, &eph_public, &server.public)
            .expect("freshly generated ephemeral key cannot be low-order")
            .0;
    }

    let mut start = 32 * chain_len;
    let mut content_len = payload_len;
    for i in (0..chain_len).rev() {
        let sealed = aead::seal_in_place(&keys_out[i], nonce, &[], &mut buf[start..], content_len);
        buf[start - 32..start].copy_from_slice(&resolved[2 * i]);
        start -= 32;
        content_len = sealed + 32;
    }
}

/// Client / noising-server side: onion-wraps **every slot of a chunk**,
/// in place — the bulk path beside [`peel_chunk_in_place`]. Slot `i`
/// occupies `chunk[i * stride .. i * stride + wrapped_len]` with its
/// payload already at offset `32 * servers.len()` (where
/// [`wrap_into_with`] expects it); `secrets` holds the per-layer
/// ephemeral secrets the caller drew with [`draw_layer_secrets`],
/// slot-major, `servers.len()` per slot. Per slot the output bytes and layer keys
/// are identical to [`wrap_into_with`] fed the same secrets from its
/// RNG; what changes is who computes the `2 · chain_len · slots` scalar
/// multiplications (each secret once against u = 9, once against its
/// server's key). Both bases are fixed, so both go through comb tables
/// — the base point's and the server's [`PrecomputedServer`] one:
///
/// * where the CPU has AVX-512 IFMA (see
///   [`crate::x25519::ladder_backend`]) eight independent
///   `(scalar, table)` lanes at a time walk their tables in lockstep
///   (~2.3 µs a lane), a partial last octet padded as the peel's is;
/// * elsewhere each multiplication walks its table alone (~9 µs).
///
/// A server key with no table (a twist point, which honest servers
/// never publish) takes the scalar ladder for its DH on both arms.
/// Either way the inversions resolve in shared groups of
/// the `edwards` module's resolver width, and HKDF, the degenerate-secret
/// check and the in-place seal are `seal_layers`. The choice is CPU
/// detection alone, made inside `x25519::x25519_comb_pending`.
///
/// Layer keys are written to `keys_out` when given (slot-major,
/// `servers.len()` per slot, ordered like `servers`); cover traffic
/// passes `None`. The only heap use is one scratch vector per call, and
/// none when the call's lanes fit one resolver group (a single onion's
/// always do).
///
/// # Panics
///
/// Panics if the chain exceeds [`MAX_CHAIN`] servers, `secrets` (or
/// `keys_out`) does not hold `servers.len()` entries per slot, or a
/// slot (`stride`, and what is left of `chunk` for the last one) is
/// shorter than a wrapped onion.
pub fn wrap_chunk_in_place(
    servers: &[PrecomputedServer],
    round: u64,
    chunk: &mut [u8],
    stride: usize,
    payload_len: usize,
    secrets: &[[u8; 32]],
    mut keys_out: Option<&mut [LayerKey]>,
) {
    let chain_len = servers.len();
    assert!(chain_len <= MAX_CHAIN, "chain too long for stack batching");
    assert!(
        stride > 0 && stride >= wrapped_len(payload_len, chain_len),
        "a slot holds a whole wrapped onion"
    );
    let count = chunk.len().div_ceil(stride);
    assert_eq!(
        secrets.len(),
        count * chain_len,
        "one secret per layer per slot"
    );
    if let Some(keys) = &keys_out {
        assert_eq!(keys.len(), secrets.len(), "one key per layer per slot");
    }
    if secrets.is_empty() {
        return; // no slots, or nothing to wrap them for
    }

    // Every scalar multiplication of the chunk, in lane order
    // (`2k` keygen, `2k + 1` DH of `secrets[k]`), one resolver group —
    // four octets — at a time, on the stack when one group is all.
    const GROUP: usize = MAX_RESOLVE_BATCH;
    let lanes = 2 * secrets.len();
    let (mut one_group, mut many) = ([[0u8; 32]; GROUP], Vec::new());
    let resolved = if lanes <= GROUP {
        &mut one_group[..lanes]
    } else {
        many.resize(lanes, [0u8; 32]);
        &mut many[..]
    };
    for (g, out) in resolved.chunks_mut(GROUP).enumerate() {
        // Lane `i` of this group (which starts on an even lane, so `i`
        // has its lane's parity): the secret and the server it meets.
        let secret = |i: usize| &secrets[(g * GROUP + i) / 2];
        let server = |i: usize| &servers[(g * GROUP + i) / 2 % chain_len];
        // Keygen lanes walk the base point's table (`None`).
        let table = |i: usize| server(i).table.as_ref().filter(|_| i % 2 == 1);
        let mut pending = [PendingU::PLACEHOLDER; GROUP];
        let pending = &mut pending[..out.len()];
        x25519_comb_pending(|i| (secret(i), table(i)), pending);
        // A server key with no table rode its DH lanes against the
        // base point; they take the ladder.
        for i in (1..out.len()).step_by(2).filter(|&i| table(i).is_none()) {
            pending[i] = PendingU::resolved(&x25519(secret(i), server(i).public.as_bytes()));
        }
        resolve_batch_into(pending, out);
    }

    let nonce = round_nonce(round, Direction::Request);
    let mut keys = [[0u8; 32]; MAX_CHAIN];
    for (i, onion) in resolved.chunks_exact(2 * chain_len).enumerate() {
        seal_layers(
            servers,
            &nonce,
            onion,
            &mut chunk[i * stride..],
            payload_len,
            &mut keys,
        );
        if let Some(keys_out) = keys_out.as_deref_mut() {
            for (out, key) in keys_out[i * chain_len..].iter_mut().zip(&keys[..chain_len]) {
                *out = LayerKey(*key);
            }
        }
    }
}

/// The exact on-the-wire size of a request onion for a given inner payload
/// size and chain length.
#[must_use]
pub const fn wrapped_len(payload_len: usize, chain_len: usize) -> usize {
    payload_len + chain_len * LAYER_OVERHEAD
}

/// The size of a fully-wrapped reply for a given result payload size.
#[must_use]
pub const fn reply_len(payload_len: usize, chain_len: usize) -> usize {
    payload_len + chain_len * REPLY_LAYER_OVERHEAD
}

/// Server side: peels one onion layer.
///
/// Returns the layer key (to be kept for the reply path) and the inner
/// onion destined for the next server.
///
/// # Errors
///
/// * [`CryptoError::BadLength`] if the layer is too short to contain a key
///   and a tag.
/// * [`CryptoError::DegenerateSharedSecret`] for low-order ephemeral keys.
/// * [`CryptoError::DecryptFailed`] if authentication fails.
pub fn peel(
    server_secret: &SecretKey,
    server_public: &PublicKey,
    round: u64,
    layer: &[u8],
) -> Result<(LayerKey, Vec<u8>), CryptoError> {
    if layer.len() < LAYER_OVERHEAD {
        return Err(CryptoError::BadLength {
            expected: LAYER_OVERHEAD,
            got: layer.len(),
        });
    }
    let mut eph_bytes = [0u8; 32];
    eph_bytes.copy_from_slice(&layer[..32]);
    let eph_pk = PublicKey::from_bytes(eph_bytes);
    let key = derive_layer_key(server_secret, &eph_pk, &eph_pk, server_public)?;
    let nonce = round_nonce(round, Direction::Request);
    let inner = aead::open(&key.0, &nonce, &[], &layer[32..])?;
    Ok((key, inner))
}

/// Server side: peels one layer of **every onion in a chunk of slots**,
/// in place — the one peel kernel. Slot `i` occupies
/// `chunk[i * stride .. i * stride + width]`; on success its inner
/// onion is moved to the front of the slot (so the next layer starts at
/// offset 0 again) and the layer key and inner length are returned; on
/// failure the slot's contents are unspecified but the same length, and
/// nothing was decrypted (authentication runs first). Per slot the
/// semantics — success, error classification, and every output byte —
/// are identical to [`peel`] on the slot's first `width` bytes (a slot
/// the chunk or `stride` cuts short of `width` is
/// [`CryptoError::BadLength`]). Two batch optimisations stack on the
/// hot path:
///
/// * the variable-base x25519 ladders of a chunk run through
///   `x25519::x25519_ladder_pending`: eight onions in lockstep per
///   AVX-512 IFMA ladder where the CPU has it (see
///   [`crate::x25519::ladder_backend`]), the scalar ladder behind
///   [`peel`] otherwise;
/// * on both arms each ladder's final field inversion is deferred and
///   batched across the whole chunk (Montgomery's trick, sub-batched at
///   the `edwards` module's resolver width): `n` slots pay one
///   `Fe::invert` (~250 squarings) plus `3(n−1)` multiplications
///   instead of `n` inversions.
///
/// This is the peel hot path's entry point: the worker pool hands each
/// worker a chunk of contiguous slots rather than one slot at a time.
///
/// Returns one result per slot, in slot order.
pub fn peel_chunk_in_place(
    server_secret: &SecretKey,
    server_public: &PublicKey,
    round: u64,
    chunk: &mut [u8],
    stride: usize,
    width: usize,
) -> Vec<Result<(LayerKey, usize), CryptoError>> {
    assert!(stride > 0, "stride must be positive");
    let count = chunk.len().div_ceil(stride);
    let mut results: Vec<Result<(LayerKey, usize), CryptoError>> = Vec::with_capacity(count);
    let nonce = round_nonce(round, Direction::Request);
    // What the chunk holds of slot `i`, and whether that is a layer.
    let chunk_len = chunk.len();
    let slot_len = |i: usize| (chunk_len - i * stride).min(stride);
    let admitted = |i: usize| width >= LAYER_OVERHEAD && slot_len(i) >= width;

    const GROUP: usize = MAX_RESOLVE_BATCH;
    for group in (0..count).step_by(GROUP) {
        let group = group..(group + GROUP).min(count);

        // Pass 1: length checks, gathering the admitted slots' ephemeral
        // keys so their ladders can run in lockstep.
        let mut eph = [[0u8; 32]; GROUP];
        let mut n = 0;
        for i in group.clone().filter(|&i| admitted(i)) {
            eph[n].copy_from_slice(&chunk[i * stride..i * stride + 32]);
            n += 1;
        }

        // The ladders — the per-onion scalar is the server's one
        // secret, so the lanes differ only in their base point — and
        // one shared inversion for the whole group.
        let mut pending = [PendingU::PLACEHOLDER; GROUP];
        x25519_ladder_pending(|k| (server_secret.as_bytes(), &eph[k]), &mut pending[..n]);
        let mut shared = [[0u8; 32]; GROUP];
        resolve_batch_into(&pending[..n], &mut shared[..n]);

        // Pass 2: KDF + in-place AEAD open per admitted slot.
        let mut lanes = eph.iter().zip(&shared);
        for i in group {
            if !admitted(i) {
                results.push(Err(CryptoError::BadLength {
                    expected: LAYER_OVERHEAD,
                    got: width.min(slot_len(i)),
                }));
                continue;
            }
            let (eph, shared) = lanes.next().expect("one lane per admitted slot");
            let eph_pk = PublicKey::from_bytes(*eph);
            let result = layer_key_from_shared(&SharedSecret(*shared), &eph_pk, server_public)
                .and_then(|key| {
                    let slot = &mut chunk[i * stride..i * stride + width];
                    let inner_len =
                        aead::open_in_place(&key.0, &nonce, &[], &mut slot[32..], width - 32)?;
                    slot.copy_within(32..32 + inner_len, 0);
                    Ok((key, inner_len))
                });
            results.push(result);
        }
    }
    results
}

/// Server side: wraps a reply payload under a layer key captured by
/// [`peel`] on the request path.
#[must_use]
pub fn wrap_reply_layer(key: &LayerKey, round: u64, payload: &[u8]) -> Vec<u8> {
    let nonce = round_nonce(round, Direction::Reply);
    aead::seal(&key.0, &nonce, &[], payload)
}

/// Server side: wraps a reply layer **in place**. The payload occupies
/// `slot[..payload_len]`; the sealed reply overwrites
/// `slot[..payload_len + REPLY_LAYER_OVERHEAD]` and its length is
/// returned. Byte-identical to [`wrap_reply_layer`].
///
/// # Panics
///
/// Panics if the slot lacks [`REPLY_LAYER_OVERHEAD`] bytes of headroom —
/// reply buffers reserve the full chain's overhead up front.
pub fn wrap_reply_in_place(
    key: &LayerKey,
    round: u64,
    slot: &mut [u8],
    payload_len: usize,
) -> usize {
    let nonce = round_nonce(round, Direction::Reply);
    aead::seal_in_place(&key.0, &nonce, &[], slot, payload_len)
}

/// Client side: unwraps all reply layers (server 1's layer is outermost).
///
/// # Errors
///
/// [`CryptoError::DecryptFailed`] / [`CryptoError::BadLength`] if any layer
/// fails to authenticate.
pub fn unwrap_reply_layers(
    keys: &[LayerKey],
    round: u64,
    reply: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let nonce = round_nonce(round, Direction::Reply);
    let mut current = reply.to_vec();
    for key in keys {
        current = aead::open(&key.0, &nonce, &[], &current)?;
    }
    Ok(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::x25519::tests::on_each_arm;
    use crate::x25519::Keypair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain(n: usize, rng: &mut StdRng) -> Vec<Keypair> {
        (0..n).map(|_| Keypair::generate(rng)).collect()
    }

    /// A server key on the curve's twist: the Edwards table cannot
    /// represent it, so its `PrecomputedServer` has no table.
    fn twist_key(rng: &mut StdRng) -> PublicKey {
        use rand::RngCore;
        loop {
            let mut u = [0u8; 32];
            rng.fill_bytes(&mut u);
            if DhTable::new(&PublicKey(u)).is_none() {
                return PublicKey(u);
            }
        }
    }

    /// One slot's peel as the tests compare it: the layer key and the
    /// inner onion, or the refusal.
    type Peeled = Result<([u8; 32], Vec<u8>), CryptoError>;

    /// The oracle for a chunk peel: the allocating [`peel`] on each
    /// slot's first `width` bytes. A slot the chunk cuts short of
    /// `width` holds no layer at all, whatever its bytes would open to.
    fn peel_each(
        server: &Keypair,
        round: u64,
        chunk: &[u8],
        stride: usize,
        width: usize,
    ) -> Vec<Peeled> {
        chunk
            .chunks(stride)
            .map(|slot| {
                if slot.len() < width {
                    return Err(CryptoError::BadLength {
                        expected: LAYER_OVERHEAD,
                        got: slot.len(),
                    });
                }
                peel(&server.secret, &server.public, round, &slot[..width])
                    .map(|(key, inner)| (key.0, inner))
            })
            .collect()
    }

    /// [`peel_chunk_in_place`] on a copy of `chunk`, on whichever arm
    /// the thread is pinned to: per slot what [`peel_each`] reports, and
    /// the arena it left — whose bytes past `width` in every slot must
    /// be the ones it was given.
    fn peel_chunk(
        server: &Keypair,
        round: u64,
        chunk: &[u8],
        stride: usize,
        width: usize,
    ) -> (Vec<Peeled>, Vec<u8>) {
        let mut arena = chunk.to_vec();
        let results = peel_chunk_in_place(
            &server.secret,
            &server.public,
            round,
            &mut arena,
            stride,
            width,
        );
        for (slot, given) in arena.chunks(stride).zip(chunk.chunks(stride)) {
            let headroom = width.min(slot.len())..;
            assert_eq!(slot[headroom.clone()], given[headroom], "headroom");
        }
        let results = results
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.map(|(key, len)| (key.0, arena[i * stride..][..len].to_vec())))
            .collect();
        (results, arena)
    }

    #[test]
    fn layer_key_known_answer() {
        // Frozen from the portable SHA-256 before the SHA-NI arm
        // existed: the KDF's bytes (salt order, label, one 32-byte
        // expand block) must not drift on either arm.
        crate::sha256::tests::on_each_arm("layer_key_known_answer", || {
            let shared = SharedSecret(core::array::from_fn(|i| i as u8 + 1));
            let eph = PublicKey::from_bytes([0x42; 32]);
            let server = PublicKey::from_bytes(core::array::from_fn(|i| 0xff - i as u8));
            let key = layer_key_from_shared(&shared, &eph, &server).expect("non-zero secret");
            let want = crate::sha256::tests::hex(
                "e645e494d36bb213e8b930e3a1b7dd319066d7e7d0f09284609532d0a275e9c1",
            );
            assert_eq!(&key.0[..], &want[..]);
        });
    }

    #[test]
    fn wrap_peel_roundtrip_three_servers() {
        let mut rng = StdRng::seed_from_u64(1);
        let servers = chain(3, &mut rng);
        let pks: Vec<PublicKey> = servers.iter().map(|kp| kp.public).collect();
        let payload = b"dead drop request".to_vec();

        let (mut onion, keys) = wrap(&mut rng, &pks, 42, &payload);
        assert_eq!(onion.len(), wrapped_len(payload.len(), 3));
        assert_eq!(keys.len(), 3);

        let mut server_keys = Vec::new();
        for kp in &servers {
            let (k, inner) = peel(&kp.secret, &kp.public, 42, &onion).expect("peel");
            server_keys.push(k);
            onion = inner;
        }
        assert_eq!(onion, payload);

        // Reply path: last server seals first, then back through the chain.
        let mut reply = b"dead drop result".to_vec();
        for k in server_keys.iter().rev() {
            reply = wrap_reply_layer(k, 42, &reply);
        }
        assert_eq!(reply.len(), reply_len(16, 3));
        let out = unwrap_reply_layers(&keys, 42, &reply).expect("unwrap replies");
        assert_eq!(out, b"dead drop result");
    }

    #[test]
    fn single_server_chain() {
        let mut rng = StdRng::seed_from_u64(2);
        let server = Keypair::generate(&mut rng);
        let (onion, keys) = wrap(&mut rng, &[server.public], 0, b"x");
        let (k, inner) = peel(&server.secret, &server.public, 0, &onion).expect("peel");
        assert_eq!(inner, b"x");
        let reply = wrap_reply_layer(&k, 0, b"y");
        assert_eq!(unwrap_reply_layers(&keys, 0, &reply).expect("reply"), b"y");
    }

    #[test]
    fn wrong_round_fails() {
        let mut rng = StdRng::seed_from_u64(3);
        let server = Keypair::generate(&mut rng);
        let (onion, _) = wrap(&mut rng, &[server.public], 7, b"payload");
        assert!(peel(&server.secret, &server.public, 8, &onion).is_err());
    }

    #[test]
    fn wrong_server_fails() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Keypair::generate(&mut rng);
        let b = Keypair::generate(&mut rng);
        let (onion, _) = wrap(&mut rng, &[a.public], 7, b"payload");
        assert!(peel(&b.secret, &b.public, 7, &onion).is_err());
    }

    #[test]
    fn tampered_layer_fails() {
        let mut rng = StdRng::seed_from_u64(5);
        let server = Keypair::generate(&mut rng);
        let (mut onion, _) = wrap(&mut rng, &[server.public], 7, b"payload");
        let last = onion.len() - 1;
        onion[last] ^= 1;
        assert!(peel(&server.secret, &server.public, 7, &onion).is_err());
    }

    #[test]
    fn too_short_layer_is_bad_length() {
        let mut rng = StdRng::seed_from_u64(6);
        let server = Keypair::generate(&mut rng);
        let err = peel(&server.secret, &server.public, 0, &[0u8; 10]).unwrap_err();
        assert!(matches!(err, CryptoError::BadLength { .. }));
    }

    #[test]
    fn low_order_ephemeral_is_rejected_not_panicking() {
        let mut rng = StdRng::seed_from_u64(7);
        let server = Keypair::generate(&mut rng);
        // An attacker-crafted layer with an all-zero "ephemeral key".
        let mut forged = vec![0u8; LAYER_OVERHEAD + 8];
        forged[32..].fill(0xAB);
        let err = peel(&server.secret, &server.public, 0, &forged).unwrap_err();
        assert_eq!(err, CryptoError::DegenerateSharedSecret);
    }

    #[test]
    fn request_and_reply_nonces_differ() {
        assert_ne!(
            round_nonce(5, Direction::Request),
            round_nonce(5, Direction::Reply)
        );
        assert_ne!(
            round_nonce(5, Direction::Request),
            round_nonce(6, Direction::Request)
        );
    }

    #[test]
    fn wrap_into_with_tables_matches_wrap_bytewise() {
        for chain_len in 1..=3usize {
            let mut rng = StdRng::seed_from_u64(400 + chain_len as u64);
            let servers = chain(chain_len, &mut rng);
            let pks: Vec<PublicKey> = servers.iter().map(|kp| kp.public).collect();
            let precomp: Vec<PrecomputedServer> =
                pks.iter().map(|pk| PrecomputedServer::new(*pk)).collect();
            let payload = b"table-accelerated".to_vec();

            let mut rng_a = StdRng::seed_from_u64(9_000 + chain_len as u64);
            let rng_b = rng_a.clone();
            let (reference, ref_keys) = wrap(&mut rng_a, &pks, 3, &payload);

            on_each_arm("wrap_into_with_tables_matches_wrap_bytewise", || {
                let mut buf = vec![0u8; wrapped_len(payload.len(), chain_len)];
                buf[32 * chain_len..32 * chain_len + payload.len()].copy_from_slice(&payload);
                let keys = wrap_into_with(&mut rng_b.clone(), &precomp, 3, &mut buf, payload.len());

                assert_eq!(buf, reference, "chain_len {chain_len}");
                for (a, b) in keys.iter().zip(ref_keys.iter()) {
                    assert_eq!(a.0, b.0);
                }
            });
        }
    }

    #[test]
    fn wrap_chunk_matches_per_slot_and_allocating_wrap() {
        // Chunk wrap == per-slot `wrap_into_with` == allocating `wrap` —
        // the oracle both are held to, `wrap_into_with` being the chunk
        // wrap's own one-slot case — onion bytes and layer keys, for
        // every count 0..=40 at chain lengths 1..=4 — lane totals
        // 2·chain_len·count on and off the octet and the 32-lane
        // resolver group — in a strided arena whose headroom must stay
        // untouched, on both arms of the chunk wrap, and with the
        // RNG left where `count` per-onion wraps leave it. A
        // twist-point server key (no table) moves through the chain
        // with `count` — every position, the whole of a one-server
        // chain, and absent — so on the eight-wide arm its
        // scalar-fallback DH lanes share octets with tabled DH lanes
        // and base-point keygen lanes in every lane position.
        use rand::RngCore;
        let mut rng = StdRng::seed_from_u64(94);
        let twist = twist_key(&mut rng);
        let payload_len = 24;
        let round = 5;

        for chain_len in 1..=4usize {
            let honest: Vec<PublicKey> = chain(chain_len, &mut rng)
                .iter()
                .map(|kp| kp.public)
                .collect();
            // `placements[t]` has the twist key at server `t`;
            // `placements[chain_len]` is the honest chain.
            let placements: Vec<(Vec<PublicKey>, Vec<PrecomputedServer>)> = (0..=chain_len)
                .map(|twist_at| {
                    let mut pks = honest.clone();
                    if let Some(pk) = pks.get_mut(twist_at) {
                        *pk = twist;
                    }
                    let servers = pks.iter().map(|pk| PrecomputedServer::new(*pk)).collect();
                    (pks, servers)
                })
                .collect();
            let width = wrapped_len(payload_len, chain_len);
            let stride = width + 7;

            for count in 0..=40usize {
                let (pks, servers) = &placements[count % (chain_len + 1)];
                let untabled = servers.iter().filter(|s| s.table.is_none()).count();
                assert_eq!(untabled, usize::from(count % (chain_len + 1) < chain_len));
                let parent = StdRng::seed_from_u64((1_000 * chain_len + count) as u64);
                let payloads: Vec<Vec<u8>> = (0..count)
                    .map(|i| (0..payload_len).map(|b| (31 * i + b) as u8).collect())
                    .collect();

                let mut rng_ref = parent.clone();
                let mut want_keys: Vec<[u8; 32]> = Vec::new();
                let mut want_onions: Vec<Vec<u8>> = Vec::new();
                for payload in &payloads {
                    let (onion, keys) = wrap(&mut rng_ref, pks, round, payload);
                    want_keys.extend(keys.iter().map(|k| k.0));
                    want_onions.push(onion);
                }
                let after = rng_ref.next_u64();

                let mut rng_chunk = parent.clone();
                let mut secrets = vec![[0u8; 32]; count * chain_len];
                for slot_secrets in secrets.chunks_mut(chain_len) {
                    draw_layer_secrets(&mut rng_chunk, slot_secrets);
                }
                assert_eq!(rng_chunk.next_u64(), after, "chunk RNG state");

                let mut arena = vec![0xEEu8; count * stride];
                for (i, payload) in payloads.iter().enumerate() {
                    let at = i * stride + 32 * chain_len;
                    arena[at..at + payload_len].copy_from_slice(payload);
                }
                if count % 2 == 1 {
                    // The last slot may end with its onion.
                    arena.truncate((count - 1) * stride + width);
                }

                on_each_arm("wrap_chunk_matches_per_slot_and_allocating_wrap", || {
                    let what = format!("chain {chain_len} count {count}");
                    let mut rng_slot = parent.clone();
                    let mut slot_keys: Vec<[u8; 32]> = Vec::new();
                    for (payload, onion) in payloads.iter().zip(&want_onions) {
                        let mut buf = vec![0u8; width];
                        buf[32 * chain_len..32 * chain_len + payload_len].copy_from_slice(payload);
                        let keys =
                            wrap_into_with(&mut rng_slot, servers, round, &mut buf, payload_len);
                        assert_eq!(&buf, onion, "{what}: per-slot");
                        slot_keys.extend(keys.iter().map(|k| k.0));
                    }
                    assert_eq!(slot_keys, want_keys, "{what}: per-slot keys");
                    assert_eq!(rng_slot.next_u64(), after, "{what}: per-slot RNG state");

                    let mut wrapped = arena.clone();
                    let mut keys = vec![LayerKey([0u8; 32]); count * chain_len];
                    let keys_out = Some(&mut keys[..]);
                    wrap_chunk_in_place(
                        servers,
                        round,
                        &mut wrapped,
                        stride,
                        payload_len,
                        &secrets,
                        keys_out,
                    );
                    for (i, slot) in wrapped.chunks(stride).enumerate() {
                        assert_eq!(&slot[..width], &want_onions[i][..], "{what} slot {i}");
                        assert!(slot[width..].iter().all(|&b| b == 0xEE), "headroom");
                    }
                    let got_keys: Vec<[u8; 32]> = keys.iter().map(|k| k.0).collect();
                    assert_eq!(got_keys, want_keys, "{what} keys");

                    // The key-less (cover traffic) form writes the same bytes.
                    let mut keyless = arena.clone();
                    wrap_chunk_in_place(
                        servers,
                        round,
                        &mut keyless,
                        stride,
                        payload_len,
                        &secrets,
                        None,
                    );
                    assert_eq!(keyless, wrapped, "{what} keyless");
                });
            }
        }
    }

    #[test]
    fn single_onion_wraps_are_the_one_slot_chunk() {
        // One onion at every chain length 1..=MAX_CHAIN (16 servers =
        // 32 lanes = exactly the one resolver group that resolves on
        // the stack), a table-less twist-point server at every chain
        // position and absent. The allocating `wrap` is the oracle, on
        // both arms, for `wrap_into_with` (bytes, keys, RNG state),
        // `wrap_noise_into` (bytes, RNG state) and
        // `wrap_chunk_in_place` on a chunk of one slot; the slot's
        // headroom stays untouched.
        use rand::RngCore;
        let mut rng = StdRng::seed_from_u64(97);
        let mut spare = PrecomputedServer::new(twist_key(&mut rng));
        let mut all: Vec<PrecomputedServer> = chain(MAX_CHAIN, &mut rng)
            .iter()
            .map(|kp| PrecomputedServer::new(kp.public))
            .collect();
        let (payload_len, round) = (24usize, 6u64);
        let payload: Vec<u8> = (0..payload_len as u8).collect();

        for chain_len in 1..=MAX_CHAIN {
            for twist_at in 0..=chain_len {
                let what = format!("chain {chain_len} twist at {twist_at}");
                if twist_at < chain_len {
                    core::mem::swap(&mut all[twist_at], &mut spare);
                }
                let servers = &all[..chain_len];
                assert_eq!(
                    servers.iter().filter(|s| s.table.is_none()).count(),
                    usize::from(twist_at < chain_len)
                );
                let pks: Vec<PublicKey> = servers.iter().map(|s| s.public).collect();
                let parent = StdRng::seed_from_u64((100 * chain_len + twist_at) as u64);

                let mut rng_ref = parent.clone();
                let (want, want_keys) = wrap(&mut rng_ref, &pks, round, &payload);
                let want_keys: Vec<[u8; 32]> = want_keys.iter().map(|k| k.0).collect();
                let after = rng_ref.next_u64();
                let width = wrapped_len(payload_len, chain_len);
                let mut slot = vec![0xEEu8; width + 9];
                slot[32 * chain_len..][..payload_len].copy_from_slice(&payload);
                let stride = slot.len();
                let check = |buf: &[u8], how: &str| {
                    assert_eq!(&buf[..width], &want[..], "{what}: {how}");
                    assert!(buf[width..].iter().all(|&b| b == 0xEE), "{what}: headroom");
                };
                let mut secrets = vec![[0u8; 32]; chain_len];
                draw_layer_secrets(&mut parent.clone(), &mut secrets);

                on_each_arm("single_onion_wraps_are_the_one_slot_chunk", || {
                    let (mut rng_keys, mut buf) = (parent.clone(), slot.clone());
                    let keys = wrap_into_with(&mut rng_keys, servers, round, &mut buf, payload_len);
                    check(&buf, "wrap_into_with");
                    let keys: Vec<[u8; 32]> = keys.iter().map(|k| k.0).collect();
                    assert_eq!(keys, want_keys, "{what}: wrap_into_with keys");
                    assert_eq!(rng_keys.next_u64(), after, "{what}: wrap_into_with RNG");

                    let (mut rng_noise, mut buf) = (parent.clone(), slot.clone());
                    wrap_noise_into(&mut rng_noise, servers, round, &mut buf, payload_len);
                    check(&buf, "wrap_noise_into");
                    assert_eq!(rng_noise.next_u64(), after, "{what}: wrap_noise_into RNG");

                    let mut buf = slot.clone();
                    let mut keys = vec![LayerKey([0u8; 32]); chain_len];
                    let keys_out = Some(&mut keys[..]);
                    wrap_chunk_in_place(
                        servers,
                        round,
                        &mut buf,
                        stride,
                        payload_len,
                        &secrets,
                        keys_out,
                    );
                    check(&buf, "one-slot chunk");
                    let keys: Vec<[u8; 32]> = keys.iter().map(|k| k.0).collect();
                    assert_eq!(keys, want_keys, "{what}: one-slot chunk keys");
                });
                if twist_at < chain_len {
                    core::mem::swap(&mut all[twist_at], &mut spare);
                }
            }
        }
    }

    #[test]
    fn wrap_chunk_public_entry_peels_down_the_chain() {
        // The detected-mode entry point end to end: 19 slots (a partial
        // octet, a partial resolver group) wrapped for three servers
        // peel back to their payloads, and the recorded layer keys open
        // the replies.
        let mut rng = StdRng::seed_from_u64(95);
        let servers = chain(3, &mut rng);
        let precomp: Vec<PrecomputedServer> = servers
            .iter()
            .map(|kp| PrecomputedServer::new(kp.public))
            .collect();
        let (count, payload_len, round) = (19usize, 40usize, 8u64);
        let width = wrapped_len(payload_len, 3);
        let mut arena = vec![0u8; count * width];
        for (i, slot) in arena.chunks_mut(width).enumerate() {
            slot[96..96 + payload_len].fill(i as u8 + 1);
        }
        let mut secrets = vec![[0u8; 32]; count * 3];
        for slot_secrets in secrets.chunks_mut(3) {
            draw_layer_secrets(&mut rng, slot_secrets);
        }
        let mut keys = vec![LayerKey([0u8; 32]); count * 3];
        wrap_chunk_in_place(
            &precomp,
            round,
            &mut arena,
            width,
            payload_len,
            &secrets,
            Some(&mut keys),
        );

        for (i, slot) in arena.chunks(width).enumerate() {
            let mut onion = slot.to_vec();
            let mut reply = vec![i as u8; 16];
            let mut server_keys = Vec::new();
            for kp in &servers {
                let (key, inner) = peel(&kp.secret, &kp.public, round, &onion).expect("peel");
                server_keys.push(key);
                onion = inner;
            }
            assert_eq!(onion, vec![i as u8 + 1; payload_len], "slot {i}");
            for key in server_keys.iter().rev() {
                reply = wrap_reply_layer(key, round, &reply);
            }
            let opened =
                unwrap_reply_layers(&keys[3 * i..3 * i + 3], round, &reply).expect("reply");
            assert_eq!(opened, vec![i as u8; 16], "slot {i} reply");
        }
    }

    #[test]
    #[should_panic(expected = "one secret per layer per slot")]
    fn wrap_chunk_rejects_a_short_secret_list() {
        let mut rng = StdRng::seed_from_u64(96);
        let servers: Vec<PrecomputedServer> = chain(2, &mut rng)
            .iter()
            .map(|kp| PrecomputedServer::new(kp.public))
            .collect();
        let width = wrapped_len(8, 2);
        let mut arena = vec![0u8; 3 * width];
        wrap_chunk_in_place(&servers, 0, &mut arena, width, 8, &[[7u8; 32]; 5], None);
    }

    #[test]
    fn peel_in_place_matches_peel() {
        // One onion down a chain of three, each hop a chunk peel of the
        // one slot in place, on each arm: key, length and inner bytes
        // are `peel`'s at every hop.
        let mut rng = StdRng::seed_from_u64(31);
        let servers = chain(3, &mut rng);
        let pks: Vec<PublicKey> = servers.iter().map(|kp| kp.public).collect();
        let (onion_bytes, _) = wrap(&mut rng, &pks, 4, b"roundtrip me");

        on_each_arm("peel_in_place_matches_peel", || {
            let mut flat = onion_bytes.clone();
            let mut reference = onion_bytes.clone();
            let (stride, mut width) = (flat.len(), flat.len());
            for kp in &servers {
                let (ref_key, ref_inner) =
                    peel(&kp.secret, &kp.public, 4, &reference).expect("peel");
                let mut results =
                    peel_chunk_in_place(&kp.secret, &kp.public, 4, &mut flat, stride, width);
                assert_eq!(results.len(), 1);
                let (key, new_width) = results.pop().expect("one slot").expect("chunk peel");
                assert_eq!(key.0, ref_key.0);
                assert_eq!(new_width, ref_inner.len());
                assert_eq!(&flat[..new_width], &ref_inner[..]);
                width = new_width;
                reference = ref_inner;
            }
            assert_eq!(&flat[..width], b"roundtrip me");
        });
    }

    #[test]
    fn peel_in_place_rejects_what_peel_rejects() {
        let mut rng = StdRng::seed_from_u64(32);
        let server = Keypair::generate(&mut rng);
        let (mut onion_bytes, _) = wrap(&mut rng, &[server.public], 7, b"payload");
        let width = onion_bytes.len();
        onion_bytes[width - 1] ^= 1;
        let refused = peel(&server.secret, &server.public, 7, &onion_bytes).map(|_| ());
        assert_eq!(refused, Err(CryptoError::DecryptFailed));
        let too_short = peel(&server.secret, &server.public, 0, &[0u8; 10]).map(|_| ());
        assert!(matches!(too_short, Err(CryptoError::BadLength { .. })));
        on_each_arm("peel_in_place_rejects_what_peel_rejects", || {
            let (results, _) = peel_chunk(&server, 7, &onion_bytes, width, width);
            assert_eq!(results, [Err(CryptoError::DecryptFailed)]);
            // A width no layer fits, and a slot shorter than its width.
            let (results, _) = peel_chunk(&server, 0, &[0u8; 10], 10, 10);
            assert_eq!(results.len(), 1);
            assert_eq!(results[0].clone().map(|_| ()), too_short);
            let (results, _) = peel_chunk(&server, 7, &onion_bytes[..width - 1], width, width);
            let got = width - 1;
            let expected = LAYER_OVERHEAD;
            assert_eq!(results, [Err(CryptoError::BadLength { expected, got })]);
        });
    }

    #[test]
    fn wrap_reply_in_place_matches_wrap_reply_layer() {
        let mut rng = StdRng::seed_from_u64(33);
        let server = Keypair::generate(&mut rng);
        let (onion_bytes, _) = wrap(&mut rng, &[server.public], 2, b"req");
        let (key, _) = peel(&server.secret, &server.public, 2, &onion_bytes).expect("peel");

        let payload = b"reply body".to_vec();
        let reference = wrap_reply_layer(&key, 2, &payload);

        let mut slot = vec![0u8; payload.len() + REPLY_LAYER_OVERHEAD];
        slot[..payload.len()].copy_from_slice(&payload);
        let sealed = wrap_reply_in_place(&key, 2, &mut slot, payload.len());
        assert_eq!(&slot[..sealed], &reference[..]);
    }

    #[test]
    fn peel_chunk_matches_per_slot_peel() {
        // A chunk mixing valid onions, corrupted onions, and a forged
        // low-order ephemeral must classify and transform every slot
        // exactly like the per-slot oracle, on each arm — across group
        // boundaries (the batch resolver's width is 32, so 70 slots
        // span three groups).
        let mut rng = StdRng::seed_from_u64(90);
        let server = Keypair::generate(&mut rng);
        let (sample, _) = wrap(&mut rng, &[server.public], 6, b"chunk me");
        let width = sample.len();
        let stride = width + 8; // headroom, like a real round arena

        let count = 70;
        let mut chunk = vec![0u8; count * stride];
        for i in 0..count {
            let onion = match i % 5 {
                // Forged all-zero ephemeral: degenerate shared secret.
                3 => vec![0u8; width],
                // Bit-flipped ciphertext: authentication failure.
                4 => {
                    let (mut o, _) = wrap(&mut rng, &[server.public], 6, b"chunk me");
                    o[40] ^= 1;
                    o
                }
                _ => wrap(&mut rng, &[server.public], 6, b"chunk me").0,
            };
            chunk[i * stride..i * stride + width].copy_from_slice(&onion);
        }

        let want = peel_each(&server, 6, &chunk, stride, width);
        assert_eq!(want.len(), count);
        for (i, slot) in want.iter().enumerate() {
            let refusal = match i % 5 {
                3 => Some(CryptoError::DegenerateSharedSecret),
                4 => Some(CryptoError::DecryptFailed),
                _ => None,
            };
            assert_eq!(slot.as_ref().err(), refusal.as_ref(), "slot {i}");
        }
        on_each_arm("peel_chunk_matches_per_slot_peel", || {
            let (results, _) = peel_chunk(&server, 6, &chunk, stride, width);
            assert_eq!(results, want);
        });
    }

    #[test]
    fn peel_chunk_small_sizes_match_per_slot() {
        // Chunks of 1–5 slots: on the eight-wide arm the padded single
        // octet, on the scalar arm a resolver group of one to five;
        // every slot must match the per-slot oracle bytewise.
        let mut rng = StdRng::seed_from_u64(91);
        let server = Keypair::generate(&mut rng);
        for count in 1..=5usize {
            let (sample, _) = wrap(&mut rng, &[server.public], 11, b"tail case");
            let width = sample.len();
            let stride = width + 4;
            let mut chunk = vec![0u8; count * stride];
            for i in 0..count {
                let (onion, _) = wrap(&mut rng, &[server.public], 11, b"tail case");
                chunk[i * stride..i * stride + width].copy_from_slice(&onion);
            }
            let want = peel_each(&server, 11, &chunk, stride, width);
            assert_eq!(want.len(), count, "count {count}");
            assert!(want.iter().all(|slot| slot.is_ok()), "valid onions");
            on_each_arm("peel_chunk_small_sizes_match_per_slot", || {
                let (results, _) = peel_chunk(&server, 11, &chunk, stride, width);
                assert_eq!(results, want, "count {count}");
            });
        }
    }

    #[test]
    fn peel_chunk_ladder_modes_agree_three_ways() {
        // Eight-wide arm == scalar arm == per-slot `peel`, results and
        // (between the arms) every arena byte, for every count 0..=40
        // (partial and full octets, the 32-slot resolver group
        // boundary), with tampered, low-order and — as the chunk's last
        // slot — truncated slots interleaved among the valid ones.
        let mut rng = StdRng::seed_from_u64(93);
        let server = Keypair::generate(&mut rng);
        let (sample, _) = wrap(&mut rng, &[server.public], 13, b"three ways");
        let width = sample.len();
        let stride = width + 5;

        for count in 0..=40usize {
            let mut chunk = vec![0u8; count * stride];
            for i in 0..count {
                let (mut onion, _) = wrap(&mut rng, &[server.public], 13, b"three ways");
                match (i + count) % 7 {
                    2 => onion[40] ^= 1,           // authentication failure
                    4 => onion[..32].fill(0),      // low-order ephemeral
                    5 => onion[width - 1] ^= 0x80, // tampered tag
                    _ => {}
                }
                chunk[i * stride..i * stride + width].copy_from_slice(&onion);
            }
            if count % 3 == 1 {
                // Cut the last slot short of `width`: BadLength, and
                // one fewer admitted slot in the last ladder group.
                chunk.truncate((count - 1) * stride + width - 1);
            }

            let want = peel_each(&server, 13, &chunk, stride, width);
            assert_eq!(want.len(), count);
            let arenas = std::cell::RefCell::new(Vec::new());
            on_each_arm("peel_chunk_ladder_modes_agree_three_ways", || {
                let (results, arena) = peel_chunk(&server, 13, &chunk, stride, width);
                assert_eq!(results, want, "count {count}: chunk vs per-slot");
                arenas.borrow_mut().push(arena);
            });
            let arenas = arenas.into_inner();
            assert!(
                arenas.iter().all(|arena| *arena == arenas[0]),
                "count {count}: the arms left different arenas"
            );
            let failures = want.iter().filter(|r| r.is_err()).count();
            let expected = (0..count)
                .filter(|i| {
                    matches!((i + count) % 7, 2 | 4 | 5) || (count % 3 == 1 && i + 1 == count)
                })
                .count();
            assert_eq!(
                failures, expected,
                "count {count}: every bad slot is refused"
            );
        }
    }

    #[test]
    fn chain3_onion_known_answer() {
        // Frozen at the commit before the four-wide ladder and the
        // per-slot in-place peel were retired: one chain-3 onion from a
        // fixed seed, wrapped by the one-slot chunk wrap and peeled hop
        // by hop by the chunk peel. SHA-256 of the onion followed by
        // its three layer keys, then of the slot after each hop. Any
        // drift in either kernel, on either arm, fails here.
        const WANT: [&str; 4] = [
            "4d9b66adcaecc1bb0eaaf78eaba98c8d564eebc354132a320fd44c4c24f6fdd5",
            "a50723e6fec569eb49ee91f781908a085a0125c86520be880a1d14f2e662d3b8",
            "325da9241e7d66cee6153cef29f51314554d58647ff231400ee2f380c53a0a8d",
            "abf4bafcddb38bbf3855e47b5e61b75dedbcf42aa44ffd4bb85d0b08d97e2682",
        ];
        let hex = crate::sha256::tests::hex;
        let mut rng = StdRng::seed_from_u64(0x5EED_2015);
        let servers = chain(3, &mut rng);
        let precomp: Vec<PrecomputedServer> = servers
            .iter()
            .map(|kp| PrecomputedServer::new(kp.public))
            .collect();
        let (payload_len, round) = (240usize, 20_150_510u64);
        on_each_arm("chain3_onion_known_answer", || {
            let mut rng = rng.clone();
            let mut slot = vec![0u8; wrapped_len(payload_len, 3)];
            for (i, byte) in slot[96..].iter_mut().take(payload_len).enumerate() {
                *byte = i as u8;
            }
            let keys = wrap_into_with(&mut rng, &precomp, round, &mut slot, payload_len);
            let mut wrapped = slot.clone();
            for key in &keys {
                wrapped.extend_from_slice(&key.0);
            }
            assert_eq!(
                &crate::sha256::sha256(&wrapped)[..],
                &hex(WANT[0])[..],
                "wrap"
            );

            let (stride, mut width) = (slot.len(), slot.len());
            for (hop, kp) in servers.iter().enumerate() {
                let mut results =
                    peel_chunk_in_place(&kp.secret, &kp.public, round, &mut slot, stride, width);
                let (key, inner_len) = results.pop().expect("one slot").expect("peel");
                assert_eq!(key.0, keys[hop].0, "hop {hop} key");
                width = inner_len;
                let digest = crate::sha256::sha256(&slot[..width]);
                assert_eq!(&digest[..], &hex(WANT[hop + 1])[..], "hop {hop}");
            }
            assert_eq!(width, payload_len);
        });
    }

    #[test]
    fn peel_chunk_all_low_order_batch() {
        // A whole chunk of forged low-order ephemerals (u = 0 and the
        // order-4 point u = 1): every ladder lane ends with z2 = 0, the
        // shared batch inversion must survive the inverse-of-zero edge
        // in all lanes at once, and every slot must be classified
        // DegenerateSharedSecret exactly like the per-slot path.
        let mut rng = StdRng::seed_from_u64(92);
        let server = Keypair::generate(&mut rng);
        let (sample, _) = wrap(&mut rng, &[server.public], 12, b"low order");
        let width = sample.len();
        let stride = width;
        for count in [1usize, 4, 5, 9] {
            let mut chunk = vec![0u8; count * stride];
            for i in 0..count {
                // Alternate the two low-order encodings; the rest of the
                // slot is arbitrary ciphertext bytes.
                chunk[i * stride + 32..(i + 1) * stride].fill(0xCD);
                if i % 2 == 1 {
                    chunk[i * stride] = 1;
                }
            }
            on_each_arm("peel_chunk_all_low_order_batch", || {
                let (results, _) = peel_chunk(&server, 12, &chunk, stride, width);
                assert_eq!(
                    results,
                    vec![Err(CryptoError::DegenerateSharedSecret); count],
                    "count {count}"
                );
            });
        }
    }

    #[test]
    fn onions_are_unlinkable_across_wraps() {
        // Same payload, same chain, two wraps: every byte of the onion
        // should differ (fresh ephemerals + pseudorandom ciphertexts).
        let mut rng = StdRng::seed_from_u64(8);
        let servers = chain(2, &mut rng);
        let pks: Vec<PublicKey> = servers.iter().map(|kp| kp.public).collect();
        let (a, _) = wrap(&mut rng, &pks, 1, b"same payload");
        let (b, _) = wrap(&mut rng, &pks, 1, b"same payload");
        assert_ne!(a, b);
    }
}
