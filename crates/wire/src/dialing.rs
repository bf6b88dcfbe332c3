//! Dialing-protocol wire objects (paper §5).
//!
//! A [`DialRequest`] is what the last server sees after peeling: the index
//! of an invitation dead drop plus a sealed 80-byte invitation. The
//! invitation plaintext is the caller's long-term public key, sealed to
//! the recipient's long-term public key with [`vuvuzela_crypto::sealedbox`].

use crate::deaddrop::InvitationDropIndex;
use crate::{expect_len, WireError, DIAL_REQUEST_LEN, INVITATION_LEN, SEALED_INVITATION_LEN};
use rand::{CryptoRng, RngCore};
use vuvuzela_crypto::x25519::{x25519_base_batch, PublicKey, SecretKey};
use vuvuzela_crypto::{sealedbox, CryptoError};

/// A sealed invitation: 80 opaque bytes only the intended recipient can
/// open (and only by trial decryption).
#[derive(Clone, PartialEq, Eq)]
pub struct SealedInvitation(pub Vec<u8>);

impl core::fmt::Debug for SealedInvitation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SealedInvitation([{}B])", self.0.len())
    }
}

impl SealedInvitation {
    /// Seals an invitation from `caller_pk` to `recipient_pk`.
    pub fn seal<R: RngCore + CryptoRng>(
        rng: &mut R,
        caller_pk: &PublicKey,
        recipient_pk: &PublicKey,
    ) -> SealedInvitation {
        SealedInvitation(sealedbox::seal(rng, recipient_pk, caller_pk.as_bytes()))
    }

    /// Draws an invitation's worth of random bytes. Published noise —
    /// what a drop holds besides real invitations (§5.3) — must then go
    /// through [`SealedInvitation::key_noise`], or its first 32 bytes give
    /// it away. A client's no-op write keeps them as drawn: the tail
    /// counts no-op writes and discards them, so nobody downloads them.
    pub fn noise<R: RngCore + CryptoRng>(rng: &mut R) -> SealedInvitation {
        let mut bytes = vec![0u8; SEALED_INVITATION_LEN];
        rng.fill_bytes(&mut bytes);
        SealedInvitation(bytes)
    }

    /// Makes drawn noise invitations look sealed, in place, with one
    /// batch of base-point multiplications for them all.
    ///
    /// A sealed invitation starts with an ephemeral X25519 public key
    /// ([`sealedbox::seal`]): bit 255 clear, on the curve, in the
    /// prime-order subgroup. Uniform random bytes are none of these with
    /// probability ≈ 97%, so noise left as drawn is picked out entry by
    /// entry. Here each invitation's first 32 bytes, drawn at random,
    /// are the secret and become the public key of it; the other bytes,
    /// like a sealed box's ciphertext, stay random.
    ///
    /// # Panics
    ///
    /// Panics if an invitation is shorter than a public key.
    pub fn key_noise<'a>(invitations: impl Iterator<Item = &'a mut [u8]>) {
        let mut keys: Vec<&mut [u8]> = invitations.map(|inv| &mut inv[..32]).collect();
        let secrets: Vec<[u8; 32]> = keys
            .iter()
            .map(|key| (**key).try_into().expect("32 bytes"))
            .collect();
        for (key, public) in keys.iter_mut().zip(x25519_base_batch(&secrets)) {
            key.copy_from_slice(&public);
        }
    }

    /// Attempts to open this invitation as `recipient`; returns the
    /// caller's public key on success.
    ///
    /// Failure is the *normal* case while scanning a drop — most
    /// invitations in a shared drop belong to other recipients or are
    /// noise.
    #[must_use]
    pub fn try_open(
        &self,
        recipient_secret: &SecretKey,
        recipient_public: &PublicKey,
    ) -> Option<PublicKey> {
        caller_key(sealedbox::open(recipient_secret, recipient_public, &self.0))
    }

    /// [`SealedInvitation::try_open`] given `shared`, the X25519 of the
    /// recipient's secret key and this invitation's first 32 bytes
    /// ([`sealedbox::open_with_shared`]), so that a drop scan can batch
    /// the multiplications.
    #[must_use]
    pub fn open_with_shared(
        &self,
        shared: &[u8; 32],
        recipient_public: &PublicKey,
    ) -> Option<PublicKey> {
        caller_key(sealedbox::open_with_shared(
            shared,
            recipient_public,
            &self.0,
        ))
    }
}

/// The caller's public key an opened invitation carries: its whole
/// plaintext, [`INVITATION_LEN`] bytes.
fn caller_key(opened: Result<Vec<u8>, CryptoError>) -> Option<PublicKey> {
    let key: [u8; INVITATION_LEN] = opened.ok()?.try_into().ok()?;
    Some(PublicKey::from_bytes(key))
}

/// A dialing request: deposit `invitation` in invitation drop `drop`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DialRequest {
    /// Which invitation dead drop to write to ([`InvitationDropIndex::NOOP`]
    /// for clients not dialing this round).
    pub drop: InvitationDropIndex,
    /// The sealed invitation.
    pub invitation: SealedInvitation,
}

impl DialRequest {
    /// Serialises to the fixed [`DIAL_REQUEST_LEN`] wire form.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        debug_assert_eq!(self.invitation.0.len(), SEALED_INVITATION_LEN);
        let mut out = Vec::with_capacity(DIAL_REQUEST_LEN);
        out.extend_from_slice(&self.drop.0.to_le_bytes());
        out.extend_from_slice(&self.invitation.0);
        out
    }

    /// Serialises into the first [`DIAL_REQUEST_LEN`] bytes of `out`
    /// without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than [`DIAL_REQUEST_LEN`].
    pub fn encode_into(&self, out: &mut [u8]) {
        debug_assert_eq!(self.invitation.0.len(), SEALED_INVITATION_LEN);
        out[..4].copy_from_slice(&self.drop.0.to_le_bytes());
        out[4..DIAL_REQUEST_LEN].copy_from_slice(&self.invitation.0);
    }

    /// Writes an encoded noise dial request for `drop` straight into
    /// `out` without allocating; RNG-stream-compatible with constructing
    /// a [`SealedInvitation::noise`] request and encoding it. Its
    /// invitation, `out[4..]`, is drawn noise: key it
    /// ([`SealedInvitation::key_noise`]) before it can reach a drop.
    pub fn noise_into<R: RngCore + CryptoRng>(
        rng: &mut R,
        drop: InvitationDropIndex,
        out: &mut [u8],
    ) {
        out[..4].copy_from_slice(&drop.0.to_le_bytes());
        rng.fill_bytes(&mut out[4..DIAL_REQUEST_LEN]);
    }

    /// Parses the fixed wire form.
    ///
    /// # Errors
    ///
    /// [`WireError::BadLength`] for any other length.
    pub fn decode(buf: &[u8]) -> Result<DialRequest, WireError> {
        expect_len(buf, DIAL_REQUEST_LEN)?;
        let drop = InvitationDropIndex(u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]));
        Ok(DialRequest {
            drop,
            invitation: SealedInvitation(buf[4..].to_vec()),
        })
    }

    /// A no-op dialing request (client not dialing this round, §5.2):
    /// random bytes to the no-op drop.
    pub fn noop<R: RngCore + CryptoRng>(rng: &mut R) -> DialRequest {
        DialRequest {
            drop: InvitationDropIndex::NOOP,
            invitation: SealedInvitation::noise(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vuvuzela_crypto::x25519::Keypair;

    #[test]
    fn invitation_seal_open() {
        let mut rng = StdRng::seed_from_u64(1);
        let caller = Keypair::generate(&mut rng);
        let callee = Keypair::generate(&mut rng);
        let inv = SealedInvitation::seal(&mut rng, &caller.public, &callee.public);
        assert_eq!(inv.0.len(), SEALED_INVITATION_LEN);
        let opened = inv
            .try_open(&callee.secret, &callee.public)
            .expect("recipient opens");
        assert_eq!(opened, caller.public);
    }

    #[test]
    fn non_recipient_cannot_open() {
        let mut rng = StdRng::seed_from_u64(2);
        let caller = Keypair::generate(&mut rng);
        let callee = Keypair::generate(&mut rng);
        let eve = Keypair::generate(&mut rng);
        let inv = SealedInvitation::seal(&mut rng, &caller.public, &callee.public);
        assert!(inv.try_open(&eve.secret, &eve.public).is_none());
    }

    #[test]
    fn noise_invitations_do_not_open() {
        let mut rng = StdRng::seed_from_u64(3);
        let callee = Keypair::generate(&mut rng);
        for _ in 0..20 {
            let noise = SealedInvitation::noise(&mut rng);
            assert!(noise.try_open(&callee.secret, &callee.public).is_none());
        }
    }

    #[test]
    fn dial_request_roundtrip() {
        let mut rng = StdRng::seed_from_u64(4);
        let caller = Keypair::generate(&mut rng);
        let callee = Keypair::generate(&mut rng);
        let req = DialRequest {
            drop: InvitationDropIndex(5),
            invitation: SealedInvitation::seal(&mut rng, &caller.public, &callee.public),
        };
        let buf = req.encode();
        assert_eq!(buf.len(), DIAL_REQUEST_LEN);
        assert_eq!(DialRequest::decode(&buf).expect("decode"), req);
    }

    #[test]
    fn noop_request_targets_noop_drop() {
        let mut rng = StdRng::seed_from_u64(5);
        let req = DialRequest::noop(&mut rng);
        assert!(req.drop.is_noop());
    }

    #[test]
    fn decode_rejects_wrong_length() {
        assert!(matches!(
            DialRequest::decode(&[0u8; 10]),
            Err(WireError::BadLength { .. })
        ));
    }
}
