//! Conversation-protocol wire objects (paper §4, Algorithms 1 and 2).
//!
//! An [`ExchangeRequest`] is what the *last* server sees after all onion
//! layers are peeled: a dead-drop ID plus a sealed, fixed-size message.
//! [`ConversationKeys`] holds the end-to-end secrets a pair of users
//! derive from Diffie-Hellman: the per-round dead drop seed and the
//! message-sealing key (Algorithm 1 steps 1a/3).

use crate::deaddrop::DeadDropId;
use crate::{
    expect_len, WireError, DEAD_DROP_ID_LEN, EXCHANGE_REQUEST_LEN, MESSAGE_LEN, SEALED_MESSAGE_LEN,
};
use rand::{CryptoRng, RngCore};
use vuvuzela_crypto::aead;
use vuvuzela_crypto::hkdf::{hkdf_expand, hkdf_extract};
use vuvuzela_crypto::x25519::{Keypair, PublicKey, SecretKey, SharedSecret};

/// A dead-drop exchange request: deposit `sealed_message` in `drop` and
/// retrieve whatever the partner deposited.
///
/// All requests have exactly this size and shape, whether they come from a
/// user in a conversation, an idle user (fake request), or a server's
/// cover traffic — indistinguishability is the point.
#[derive(Clone, PartialEq, Eq)]
pub struct ExchangeRequest {
    /// Where to perform the exchange.
    pub drop: DeadDropId,
    /// The sealed 256-byte message to deposit.
    pub sealed_message: Vec<u8>,
}

impl core::fmt::Debug for ExchangeRequest {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ExchangeRequest({:?}, [{}B])",
            self.drop,
            self.sealed_message.len()
        )
    }
}

impl ExchangeRequest {
    /// Serialises to the fixed [`EXCHANGE_REQUEST_LEN`] wire form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        debug_assert_eq!(self.sealed_message.len(), SEALED_MESSAGE_LEN);
        let mut out = Vec::with_capacity(EXCHANGE_REQUEST_LEN);
        out.extend_from_slice(&self.drop.0);
        out.extend_from_slice(&self.sealed_message);
        out
    }

    /// Serialises into the first [`EXCHANGE_REQUEST_LEN`] bytes of `out`
    /// without allocating (the flat round buffers write payloads straight
    /// into their slots).
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than [`EXCHANGE_REQUEST_LEN`].
    pub fn encode_into(&self, out: &mut [u8]) {
        debug_assert_eq!(self.sealed_message.len(), SEALED_MESSAGE_LEN);
        out[..DEAD_DROP_ID_LEN].copy_from_slice(&self.drop.0);
        out[DEAD_DROP_ID_LEN..EXCHANGE_REQUEST_LEN].copy_from_slice(&self.sealed_message);
    }

    /// Parses the fixed wire form.
    ///
    /// # Errors
    ///
    /// [`WireError::BadLength`] for any length other than
    /// [`EXCHANGE_REQUEST_LEN`].
    pub fn decode(buf: &[u8]) -> Result<ExchangeRequest, WireError> {
        expect_len(buf, EXCHANGE_REQUEST_LEN)?;
        let mut id = [0u8; DEAD_DROP_ID_LEN];
        id.copy_from_slice(&buf[..DEAD_DROP_ID_LEN]);
        Ok(ExchangeRequest {
            drop: DeadDropId(id),
            sealed_message: buf[DEAD_DROP_ID_LEN..].to_vec(),
        })
    }

    /// Builds a noise request: random drop, random bytes in place of a
    /// sealed message (Algorithm 2 step 2). Indistinguishable from a real
    /// request because AEAD ciphertexts are pseudorandom.
    pub fn noise<R: RngCore + CryptoRng>(rng: &mut R) -> ExchangeRequest {
        let mut sealed = vec![0u8; SEALED_MESSAGE_LEN];
        rng.fill_bytes(&mut sealed);
        ExchangeRequest {
            drop: DeadDropId::random(rng),
            sealed_message: sealed,
        }
    }

    /// Writes an encoded noise request straight into `out` without
    /// allocating. Draws from `rng` in exactly the order [`Self::noise`]
    /// does (sealed message first, then drop), so the bytes match
    /// `Self::noise(rng).encode_into(out)` for equal RNG states. When
    /// `shared_drop` is given the drawn drop is discarded and replaced —
    /// the paired-noise case, mirroring `noise()` + a `drop` overwrite.
    pub fn noise_into<R: RngCore + CryptoRng>(
        rng: &mut R,
        shared_drop: Option<&DeadDropId>,
        out: &mut [u8],
    ) {
        rng.fill_bytes(&mut out[DEAD_DROP_ID_LEN..EXCHANGE_REQUEST_LEN]);
        let drawn = DeadDropId::random(rng);
        let drop = shared_drop.unwrap_or(&drawn);
        out[..DEAD_DROP_ID_LEN].copy_from_slice(&drop.0);
    }
}

/// The result of an exchange: the fixed-size sealed message that was (or
/// appears to have been) waiting in the drop.
#[derive(Clone, PartialEq, Eq)]
pub struct ExchangeResponse {
    /// Sealed message bytes ([`SEALED_MESSAGE_LEN`]).
    pub sealed_message: Vec<u8>,
}

impl core::fmt::Debug for ExchangeResponse {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ExchangeResponse([{}B])", self.sealed_message.len())
    }
}

impl ExchangeResponse {
    /// Serialises to the fixed wire form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        debug_assert_eq!(self.sealed_message.len(), SEALED_MESSAGE_LEN);
        self.sealed_message.clone()
    }

    /// Parses the fixed wire form.
    ///
    /// # Errors
    ///
    /// [`WireError::BadLength`] for any other length.
    pub fn decode(buf: &[u8]) -> Result<ExchangeResponse, WireError> {
        expect_len(buf, SEALED_MESSAGE_LEN)?;
        Ok(ExchangeResponse {
            sealed_message: buf.to_vec(),
        })
    }

    /// The response the last server returns for a drop that received only
    /// one access: random bytes, indistinguishable from a real sealed
    /// message ("the last Vuvuzela server returns an empty message when it
    /// receives only one exchange for a dead drop", §4.1).
    pub fn empty<R: RngCore + CryptoRng>(rng: &mut R) -> ExchangeResponse {
        let mut sealed = vec![0u8; SEALED_MESSAGE_LEN];
        rng.fill_bytes(&mut sealed);
        ExchangeResponse {
            sealed_message: sealed,
        }
    }
}

/// Which of the two conversation roles this endpoint plays; determines
/// nonce separation so the two directions of one round never share a
/// (key, nonce) pair. The role is derived from public-key order, so both
/// sides agree without communication.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The endpoint whose public key sorts lower.
    Lower,
    /// The endpoint whose public key sorts higher.
    Higher,
}

impl Role {
    fn nonce_byte(self) -> u8 {
        match self {
            Role::Lower => 0x10,
            Role::Higher => 0x11,
        }
    }

    fn other(self) -> Role {
        match self {
            Role::Lower => Role::Higher,
            Role::Higher => Role::Lower,
        }
    }
}

/// End-to-end secrets shared by a conversation pair.
///
/// Derived from `DH(my_sk, their_pk)` (Algorithm 1 step 1a): a message
/// key for sealing payloads and a drop seed for the per-round dead drop.
#[derive(Clone)]
pub struct ConversationKeys {
    message_key: [u8; 32],
    drop_seed: [u8; 32],
    role: Role,
}

impl core::fmt::Debug for ConversationKeys {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "ConversationKeys(role: {:?}, ..)", self.role)
    }
}

impl ConversationKeys {
    /// Derives the conversation secrets between `my` keypair and a peer.
    ///
    /// Both endpoints derive identical keys (DH commutativity) and
    /// complementary [`Role`]s.
    #[must_use]
    pub fn derive(my_secret: &SecretKey, my_public: &PublicKey, their_public: &PublicKey) -> Self {
        let shared = my_secret.diffie_hellman(their_public);
        Self::from_shared(&shared, my_public, their_public)
    }

    /// The key-derivation tail of [`ConversationKeys::derive`], for a
    /// caller that holds `DH(my_sk, their_pk)` already — one that owns
    /// both endpoints computes it once and derives each side from it.
    #[must_use]
    pub fn from_shared(
        shared: &SharedSecret,
        my_public: &PublicKey,
        their_public: &PublicKey,
    ) -> Self {
        // Salt orders the two public keys canonically so both sides agree.
        let (lo, hi) = if my_public <= their_public {
            (my_public, their_public)
        } else {
            (their_public, my_public)
        };
        let mut salt = [0u8; 64];
        salt[..32].copy_from_slice(lo.as_bytes());
        salt[32..].copy_from_slice(hi.as_bytes());
        // One extract, one expand per label.
        let prk = hkdf_extract(&salt, &shared.0);
        let (mut message_key, mut drop_seed) = ([0u8; 32], [0u8; 32]);
        hkdf_expand(&prk, b"vuvuzela/conv/msg/v1", &mut message_key);
        hkdf_expand(&prk, b"vuvuzela/conv/drop/v1", &mut drop_seed);
        let role = if my_public <= their_public {
            Role::Lower
        } else {
            Role::Higher
        };
        ConversationKeys {
            message_key,
            drop_seed,
            role,
        }
    }

    /// Builds the keys for a *fake* exchange (Algorithm 1 step 1b): the
    /// client invents a random partner so its request is indistinguishable
    /// from a real one.
    pub fn fake<R: RngCore + CryptoRng>(
        rng: &mut R,
        my_secret: &SecretKey,
        my_public: &PublicKey,
    ) -> Self {
        let rand_peer = Keypair::generate(rng);
        Self::derive(my_secret, my_public, &rand_peer.public)
    }

    /// The dead drop this conversation uses in `round`.
    #[must_use]
    pub fn drop_id(&self, round: u64) -> DeadDropId {
        DeadDropId::for_round(&self.drop_seed, round)
    }

    /// Seals a 240-byte padded payload for this round. Input shorter than
    /// [`MESSAGE_LEN`] is zero-padded; the framing in [`crate::message`]
    /// carries the true length.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`MESSAGE_LEN`].
    #[must_use]
    pub fn seal_message(&self, round: u64, payload: &[u8]) -> Vec<u8> {
        assert!(
            payload.len() <= MESSAGE_LEN,
            "payload {} exceeds MESSAGE_LEN {MESSAGE_LEN}",
            payload.len()
        );
        let mut padded = vec![0u8; MESSAGE_LEN];
        padded[..payload.len()].copy_from_slice(payload);
        let nonce = self.nonce(round, self.role);
        aead::seal(&self.message_key, &nonce, &[], &padded)
    }

    /// Opens the partner's sealed message from this round, returning the
    /// padded 240-byte payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Crypto`] when the bytes are not a message from the
    /// partner (e.g. the random filler returned for an un-reciprocated
    /// exchange — this is how a client learns its partner was absent).
    pub fn open_message(&self, round: u64, sealed: &[u8]) -> Result<Vec<u8>, WireError> {
        expect_len(sealed, SEALED_MESSAGE_LEN)?;
        let nonce = self.nonce(round, self.role.other());
        Ok(aead::open(&self.message_key, &nonce, &[], sealed)?)
    }

    fn nonce(&self, round: u64, role: Role) -> [u8; aead::NONCE_LEN] {
        let mut nonce = [0u8; aead::NONCE_LEN];
        nonce[0] = role.nonce_byte();
        nonce[4..12].copy_from_slice(&round.to_le_bytes());
        nonce
    }

    /// This endpoint's role (exposed for tests and diagnostics).
    #[must_use]
    pub fn role(&self) -> Role {
        self.role
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair(seed: u64) -> (Keypair, Keypair) {
        let mut rng = StdRng::seed_from_u64(seed);
        (Keypair::generate(&mut rng), Keypair::generate(&mut rng))
    }

    #[test]
    fn derive_known_answer() {
        // Frozen from `derive` when it ran the whole HKDF once per
        // label; extracting once must not move either key.
        let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        let a = SecretKey::from_bytes([0x11; 32]);
        let b = SecretKey::from_bytes([0x22; 32]);
        let keys = ConversationKeys::derive(&a, &a.public_key(), &b.public_key());
        assert_eq!(
            hex(&keys.message_key),
            "844c5197e23e6ca68f2bf1b28a136e0ab8d1ab3b67ff2d94df4b6bc6d65f8d91"
        );
        assert_eq!(
            hex(&keys.drop_seed),
            "d45495ff2bdb06efabf8f5e552d3e50fb376336f0798e44984687145aafa89e6"
        );
        assert_eq!(keys.role(), Role::Higher);
    }

    #[test]
    fn both_sides_derive_same_drop() {
        let (alice, bob) = pair(1);
        let ka = ConversationKeys::derive(&alice.secret, &alice.public, &bob.public);
        let kb = ConversationKeys::derive(&bob.secret, &bob.public, &alice.public);
        for round in [0u64, 1, 99, u64::MAX] {
            assert_eq!(ka.drop_id(round), kb.drop_id(round));
        }
        assert_ne!(ka.drop_id(1), ka.drop_id(2));
        assert_ne!(ka.role(), kb.role());
    }

    #[test]
    fn seal_open_roundtrip_both_directions() {
        let (alice, bob) = pair(2);
        let ka = ConversationKeys::derive(&alice.secret, &alice.public, &bob.public);
        let kb = ConversationKeys::derive(&bob.secret, &bob.public, &alice.public);

        let sealed = ka.seal_message(7, b"hi bob");
        assert_eq!(sealed.len(), SEALED_MESSAGE_LEN);
        let opened = kb.open_message(7, &sealed).expect("bob opens");
        assert_eq!(&opened[..6], b"hi bob");
        assert!(opened[6..].iter().all(|&b| b == 0), "padding is zeros");

        let sealed_back = kb.seal_message(7, b"hi alice");
        let opened_back = ka.open_message(7, &sealed_back).expect("alice opens");
        assert_eq!(&opened_back[..8], b"hi alice");
    }

    #[test]
    fn same_round_both_directions_use_distinct_nonces() {
        // If both sides sealed with the same nonce, two equal plaintexts
        // would produce related ciphertexts. Verify ciphertexts differ and
        // each side cannot open its *own* message (direction separation).
        let (alice, bob) = pair(3);
        let ka = ConversationKeys::derive(&alice.secret, &alice.public, &bob.public);
        let kb = ConversationKeys::derive(&bob.secret, &bob.public, &alice.public);
        let a_sealed = ka.seal_message(5, b"same");
        let b_sealed = kb.seal_message(5, b"same");
        assert_ne!(a_sealed, b_sealed);
        assert!(
            ka.open_message(5, &a_sealed).is_err(),
            "cannot open own message"
        );
    }

    #[test]
    fn wrong_round_fails_to_open() {
        let (alice, bob) = pair(4);
        let ka = ConversationKeys::derive(&alice.secret, &alice.public, &bob.public);
        let kb = ConversationKeys::derive(&bob.secret, &bob.public, &alice.public);
        let sealed = ka.seal_message(1, b"x");
        assert!(kb.open_message(2, &sealed).is_err());
    }

    #[test]
    fn random_filler_fails_to_open() {
        // The "empty message" a client receives when its partner was
        // absent must decrypt to an error, not garbage text.
        let (alice, bob) = pair(5);
        let kb = ConversationKeys::derive(&bob.secret, &bob.public, &alice.public);
        let mut rng = StdRng::seed_from_u64(6);
        let filler = ExchangeResponse::empty(&mut rng);
        assert!(kb.open_message(3, &filler.sealed_message).is_err());
    }

    #[test]
    fn fake_keys_are_fresh_every_time() {
        let (alice, _) = pair(7);
        let mut rng = StdRng::seed_from_u64(8);
        let f1 = ConversationKeys::fake(&mut rng, &alice.secret, &alice.public);
        let f2 = ConversationKeys::fake(&mut rng, &alice.secret, &alice.public);
        assert_ne!(f1.drop_id(0), f2.drop_id(0));
    }

    #[test]
    fn request_encode_decode_roundtrip() {
        let mut rng = StdRng::seed_from_u64(9);
        let req = ExchangeRequest::noise(&mut rng);
        let encoded = req.encode();
        assert_eq!(encoded.len(), EXCHANGE_REQUEST_LEN);
        let decoded = ExchangeRequest::decode(&encoded).expect("decode");
        assert_eq!(decoded, req);
    }

    #[test]
    fn request_decode_rejects_wrong_length() {
        assert!(matches!(
            ExchangeRequest::decode(&[0u8; 10]),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn response_encode_decode_roundtrip() {
        let mut rng = StdRng::seed_from_u64(10);
        let resp = ExchangeResponse::empty(&mut rng);
        let decoded = ExchangeResponse::decode(&resp.encode()).expect("decode");
        assert_eq!(decoded, resp);
        assert!(ExchangeResponse::decode(&[0u8; 3]).is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds MESSAGE_LEN")]
    fn oversized_payload_panics() {
        let (alice, bob) = pair(11);
        let ka = ConversationKeys::derive(&alice.secret, &alice.public, &bob.public);
        let _ = ka.seal_message(0, &[0u8; MESSAGE_LEN + 1]);
    }
}
