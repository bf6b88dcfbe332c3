//! Anonymous "sealed box" encryption for dialing invitations.
//!
//! A dialing invitation (paper §5.2) is "the sender's public key, a nonce,
//! and a MAC, all encrypted with the recipient's public key". We realise
//! this with an ephemeral-static X25519 exchange: the wire form is
//!
//! ```text
//! ┌────────────────────┬───────────────────────────────────┐
//! │ ephemeral pk (32B) │ ChaCha20-Poly1305(plaintext)+16B  │
//! └────────────────────┴───────────────────────────────────┘
//! ```
//!
//! giving exactly the paper's 48 bytes of overhead on top of the 32-byte
//! invitation payload (80-byte invitations, §8.1). Only the holder of the
//! recipient's secret key can even *detect* that an invitation is
//! addressed to them — trial decryption of a full dead drop is the
//! intended access pattern (§5.1).

use crate::aead;
use crate::hkdf::hkdf;
use crate::x25519::{Keypair, PublicKey, SecretKey};
use crate::CryptoError;
use rand::{CryptoRng, RngCore};

/// Bytes of overhead a sealed box adds to its plaintext.
pub const OVERHEAD: usize = 32 + aead::TAG_LEN;

const INFO: &[u8] = b"vuvuzela/sealedbox/v1";
/// Sealed boxes are one-shot (fresh ephemeral per box), so a fixed nonce is
/// safe.
const NONCE: [u8; aead::NONCE_LEN] = [0x5b; aead::NONCE_LEN];

fn derive_key(
    shared: &[u8; 32],
    eph_pk: &PublicKey,
    recipient_pk: &PublicKey,
) -> Result<[u8; 32], CryptoError> {
    if shared == &[0u8; 32] {
        return Err(CryptoError::DegenerateSharedSecret);
    }
    let mut salt = [0u8; 64];
    salt[..32].copy_from_slice(eph_pk.as_bytes());
    salt[32..].copy_from_slice(recipient_pk.as_bytes());
    Ok(hkdf(&salt, shared, INFO))
}

/// Seals `plaintext` so that only `recipient` can open it, leaving no
/// sender-identifying material on the wire.
pub fn seal<R: RngCore + CryptoRng>(
    rng: &mut R,
    recipient: &PublicKey,
    plaintext: &[u8],
) -> Vec<u8> {
    let eph = Keypair::generate(rng);
    let shared = eph.secret.diffie_hellman(recipient);
    let key = derive_key(&shared.0, &eph.public, recipient)
        .expect("fresh ephemeral key cannot produce a degenerate secret");
    let sealed = aead::seal(&key, &NONCE, &[], plaintext);
    let mut out = Vec::with_capacity(32 + sealed.len());
    out.extend_from_slice(eph.public.as_bytes());
    out.extend_from_slice(&sealed);
    out
}

/// Attempts to open a sealed box with the recipient's secret key: the
/// Diffie-Hellman with the box's ephemeral key, then
/// [`open_with_shared`].
///
/// # Errors
///
/// * [`CryptoError::BadLength`] when the box is shorter than [`OVERHEAD`].
/// * [`CryptoError::DecryptFailed`] when the box is not addressed to this
///   key (the common case during trial decryption) or was tampered with.
/// * [`CryptoError::DegenerateSharedSecret`] for malicious low-order
///   ephemerals.
pub fn open(
    recipient_secret: &SecretKey,
    recipient_public: &PublicKey,
    boxed: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let shared = recipient_secret.diffie_hellman(&ephemeral_key(boxed)?);
    open_with_shared(&shared.0, recipient_public, boxed)
}

/// Opens a sealed box with `shared`, the X25519 of the recipient's
/// secret key and the box's first 32 bytes (its ephemeral public key),
/// computed by the caller: a scan of many boxes batches those
/// multiplications. [`open`] is this after one scalar multiplication.
///
/// # Errors
///
/// As [`open`].
pub fn open_with_shared(
    shared: &[u8; 32],
    recipient_public: &PublicKey,
    boxed: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let key = derive_key(shared, &ephemeral_key(boxed)?, recipient_public)?;
    aead::open(&key, &NONCE, &[], &boxed[32..])
}

/// The box's ephemeral public key: its first 32 bytes.
///
/// # Errors
///
/// [`CryptoError::BadLength`] when the box is shorter than [`OVERHEAD`].
fn ephemeral_key(boxed: &[u8]) -> Result<PublicKey, CryptoError> {
    if boxed.len() < OVERHEAD {
        return Err(CryptoError::BadLength {
            expected: OVERHEAD,
            got: boxed.len(),
        });
    }
    let mut eph_bytes = [0u8; 32];
    eph_bytes.copy_from_slice(&boxed[..32]);
    Ok(PublicKey::from_bytes(eph_bytes))
}

/// The sealed size of a plaintext of the given length.
#[must_use]
pub const fn sealed_len(plaintext_len: usize) -> usize {
    plaintext_len + OVERHEAD
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let recipient = Keypair::generate(&mut rng);
        let boxed = seal(&mut rng, &recipient.public, b"call me maybe");
        assert_eq!(boxed.len(), sealed_len(13));
        let opened = open(&recipient.secret, &recipient.public, &boxed).expect("open");
        assert_eq!(opened, b"call me maybe");
    }

    #[test]
    fn paper_invitation_size_is_80_bytes() {
        // §8.1: "Invitations are 80 bytes long (including 48 bytes of
        // overhead)" — a 32-byte sender public key sealed in a box.
        assert_eq!(sealed_len(32), 80);
        assert_eq!(OVERHEAD, 48);
    }

    #[test]
    fn wrong_recipient_cannot_open() {
        let mut rng = StdRng::seed_from_u64(2);
        let alice = Keypair::generate(&mut rng);
        let eve = Keypair::generate(&mut rng);
        let boxed = seal(&mut rng, &alice.public, b"secret invite");
        assert_eq!(
            open(&eve.secret, &eve.public, &boxed),
            Err(CryptoError::DecryptFailed)
        );
    }

    #[test]
    fn trial_decryption_distinguishes_own_invitations() {
        let mut rng = StdRng::seed_from_u64(3);
        let me = Keypair::generate(&mut rng);
        let other = Keypair::generate(&mut rng);
        let drop_contents = [
            seal(&mut rng, &other.public, b"not for me"),
            seal(&mut rng, &me.public, b"for me!"),
            seal(&mut rng, &other.public, b"also not for me"),
        ];
        let mine: Vec<Vec<u8>> = drop_contents
            .iter()
            .filter_map(|b| open(&me.secret, &me.public, b).ok())
            .collect();
        assert_eq!(mine, vec![b"for me!".to_vec()]);
    }

    #[test]
    fn tampering_detected() {
        let mut rng = StdRng::seed_from_u64(4);
        let recipient = Keypair::generate(&mut rng);
        let mut boxed = seal(&mut rng, &recipient.public, b"payload");
        boxed[40] ^= 0xFF;
        assert!(open(&recipient.secret, &recipient.public, &boxed).is_err());
    }

    #[test]
    fn short_box_is_bad_length() {
        let mut rng = StdRng::seed_from_u64(5);
        let recipient = Keypair::generate(&mut rng);
        let err = open(&recipient.secret, &recipient.public, &[0u8; 12]).unwrap_err();
        assert!(matches!(err, CryptoError::BadLength { .. }));
    }

    #[test]
    fn low_order_ephemeral_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let recipient = Keypair::generate(&mut rng);
        let forged = vec![0u8; OVERHEAD + 4];
        assert_eq!(
            open(&recipient.secret, &recipient.public, &forged),
            Err(CryptoError::DegenerateSharedSecret)
        );
    }

    #[test]
    fn boxes_are_unlinkable() {
        let mut rng = StdRng::seed_from_u64(7);
        let recipient = Keypair::generate(&mut rng);
        let a = seal(&mut rng, &recipient.public, b"same");
        let b = seal(&mut rng, &recipient.public, b"same");
        assert_ne!(a, b);
    }
}
