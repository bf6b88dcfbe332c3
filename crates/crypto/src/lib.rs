//! From-scratch cryptographic primitives for Vuvuzela.
//!
//! Vuvuzela (van den Hooff et al., SOSP 2015) relies on a small set of
//! standard primitives: Curve25519 Diffie-Hellman for per-round ephemeral
//! key agreement, an indistinguishable authenticated symmetric cipher for
//! message payloads and onion layers, and a hash for dead-drop derivation.
//! This crate implements all of them from scratch, in safe Rust except
//! for the entries into the two CPU-specific kernels named below:
//!
//! * [`x25519`] — RFC 7748 X25519 over a 51-bit-limb field
//!   implementation. The batched variable-base ladder (the onion
//!   peeler's Diffie-Hellman, most of a server's CPU time) and the
//!   onion wrapper's fixed-base comb walk each have two arms: eight
//!   lanes in lockstep on AVX-512 IFMA where the CPU has it, the scalar
//!   kernel — which is also the oracle — one multiplication at a time
//!   elsewhere. The choice is made by CPU detection at run time,
//!   reported by [`x25519::ladder_backend`], and changes no output
//!   byte.
//! * [`chacha20`] / [`poly1305`] / [`aead`] — RFC 8439 ChaCha20-Poly1305.
//! * [`sha256`] / [`hkdf`] — FIPS 180-4 SHA-256, RFC 2104 HMAC, RFC 5869
//!   HKDF. The compression function runs on the x86 SHA extensions
//!   where the CPU has them and in portable Rust elsewhere; again CPU
//!   detection alone decides, [`sha256::backend`] reports it, and no
//!   digest changes.
//! * [`onion`] — the layered encryption used by Vuvuzela's mixnet chain
//!   (paper §4.1, Algorithm 1 step 2 / Algorithm 2 steps 1 and 4).
//! * [`sealedbox`] — anonymous public-key boxes for dialing invitations
//!   (paper §5.2).
//!
//! Every primitive carries the RFC known-answer tests in its module.
//!
//! # Security note
//!
//! The field and scalar arithmetic use the standard constant-time-friendly
//! algorithms (Montgomery ladder with conditional swaps, branch-free limb
//! arithmetic), but this code has not been audited and makes no hard
//! constant-time guarantee on every compiler/target; it reproduces the
//! *functional* behaviour and cost structure of the paper's prototype.
//!
//! The crate is `deny(unsafe_code)`. The allowance is confined to the
//! AVX-512 kernel `fe8.rs` (a vector store, and entering
//! `#[target_feature]` code) plus the three call sites that enter
//! `#[target_feature]` code from ordinary code — the eight-wide
//! ladder's in [`x25519`], the eight-wide comb's in `edwards.rs` and
//! the SHA-NI compression function's in [`sha256`]; each is guarded by
//! a token type that only a successful CPUID check can construct. On
//! other architectures none of them is compiled and the crate contains
//! no `unsafe` at all.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod chacha20;
pub(crate) mod edwards;
#[cfg(target_arch = "x86_64")]
pub(crate) mod fe8;
pub mod field;
pub mod hkdf;
pub mod onion;
pub mod poly1305;
pub mod sealedbox;
pub mod sha256;
pub mod x25519;

/// Errors produced by cryptographic operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// An authenticated decryption failed: the ciphertext or tag was
    /// malformed or tampered with.
    DecryptFailed,
    /// An input buffer had an invalid length for the operation.
    BadLength {
        /// The length the operation required.
        expected: usize,
        /// The length that was provided.
        got: usize,
    },
    /// An onion had fewer layers than the chain expected.
    TooFewLayers,
    /// A Diffie-Hellman exchange produced the all-zero point (non-contributory
    /// key exchange; indicates a malicious low-order public key).
    DegenerateSharedSecret,
}

impl core::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CryptoError::DecryptFailed => write!(f, "authenticated decryption failed"),
            CryptoError::BadLength { expected, got } => {
                write!(f, "bad input length: expected {expected}, got {got}")
            }
            CryptoError::TooFewLayers => write!(f, "onion has too few layers"),
            CryptoError::DegenerateSharedSecret => {
                write!(f, "Diffie-Hellman produced an all-zero shared secret")
            }
        }
    }
}

impl std::error::Error for CryptoError {}

/// Compares two byte slices in constant time (with respect to contents;
/// the comparison short-circuits only on *length* mismatch, which is public).
///
/// Used for MAC verification so that an attacker cannot learn tag prefixes
/// through timing.
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

/// For tests of a CPU-specific kernel, which must not pass silently
/// where they ran nothing: the first time each `test` reports it, writes
/// `SKIPPED <test>: no <missing> on this CPU, <not_exercised>` to the
/// process's own stderr (libtest captures only the print macros).
#[cfg(test)]
pub(crate) fn skipped_once(test: &'static str, missing: &str, not_exercised: &str) {
    use std::io::Write;
    static REPORTED: std::sync::Mutex<Vec<&str>> = std::sync::Mutex::new(Vec::new());
    let mut reported = REPORTED.lock().expect("no test panics holding this lock");
    if !reported.contains(&test) {
        reported.push(test);
        let _ = writeln!(
            std::io::stderr(),
            "SKIPPED {test}: no {missing} on this CPU, {not_exercised}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_matches() {
        assert!(ct_eq(b"", b""));
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(!ct_eq(b"", b"a"));
    }

    #[test]
    fn error_display_is_informative() {
        let e = CryptoError::BadLength {
            expected: 32,
            got: 16,
        };
        assert!(e.to_string().contains("32"));
        assert!(e.to_string().contains("16"));
        assert!(!CryptoError::DecryptFailed.to_string().is_empty());
        assert!(!CryptoError::TooFewLayers.to_string().is_empty());
        assert!(!CryptoError::DegenerateSharedSecret.to_string().is_empty());
    }
}
