//! Fixed-size wire formats and protocol constants for Vuvuzela.
//!
//! Vuvuzela's privacy argument starts from the requirement that *"message
//! sizes, and the rate at which messages are sent, are independent of user
//! activity"* (paper §3.2). This crate is where that requirement is made
//! concrete: every protocol object has exactly one size, all encoders pad,
//! and all decoders reject anything with a different length.
//!
//! * [`deaddrop`] — 128-bit dead-drop identifiers and their pseudo-random
//!   per-round derivation (Algorithm 1 step 1a).
//! * [`conversation`] — the exchange request/response formats and the
//!   end-to-end message sealing between two conversation partners.
//! * [`message`] — the client-level framing inside a 240-byte payload
//!   (text, sequence numbers for retransmission, acks).
//! * [`dialing`] — invitations and dialing requests (§5).
//! * [`round`] — round identifiers tagging every in-flight batch, so the
//!   streaming scheduler (and any adversary tap) can attribute
//!   overlapped rounds correctly.
//! * [`linkid`] — typed identifiers for every link of a deployment,
//!   shared by adversary taps, the wire handshake and transcripts.
//! * [`frame`] — the length-prefixed frame format (handshake, round
//!   batches, orderly termination) the TCP transport speaks between
//!   deployment processes.
//! * [`sequence`] — the per-link frame ordering rules that make
//!   windowed (pipelined) rounds safe on blocking connections, and the
//!   [`sequence::RoundSequencer`] that asserts them.
//!
//! Sizes follow §8.1 of the paper: 256-byte sealed conversation messages
//! (240 bytes of payload + 16 bytes of encryption overhead) and 80-byte
//! invitations (32-byte sender key + 48 bytes of overhead).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conversation;
pub mod deaddrop;
pub mod dialing;
pub mod frame;
pub mod linkid;
pub mod message;
pub mod round;
pub mod sequence;

pub use frame::{BatchFrame, Frame, FrameError, Hello, ReadError, FRAME_VERSION, MAX_FRAME_LEN};
pub use linkid::LinkId;
pub use round::{RoundId, RoundType};
pub use sequence::RoundSequencer;

/// Payload bytes available to a conversation message before sealing
/// (paper: "text messages (up to 240 bytes each)").
pub const MESSAGE_LEN: usize = 240;

/// A sealed conversation message: payload plus AEAD tag
/// (paper §8.1: "Conversation messages are 256 bytes long (including 16
/// byte encryption overhead)").
pub const SEALED_MESSAGE_LEN: usize = MESSAGE_LEN + 16;

/// A dead-drop identifier is 128 bits (paper §3.1).
pub const DEAD_DROP_ID_LEN: usize = 16;

/// An exchange request as seen by the last server: dead-drop ID plus the
/// sealed message deposited there.
pub const EXCHANGE_REQUEST_LEN: usize = DEAD_DROP_ID_LEN + SEALED_MESSAGE_LEN;

/// An exchange response: the sealed message retrieved from the dead drop
/// (or an indistinguishable random filler when the drop had one access).
pub const EXCHANGE_RESPONSE_LEN: usize = SEALED_MESSAGE_LEN;

/// The plaintext of a dialing invitation: the caller's long-term public
/// key.
pub const INVITATION_LEN: usize = 32;

/// A sealed invitation (paper §8.1: "Invitations are 80 bytes long
/// (including 48 bytes of overhead)").
pub const SEALED_INVITATION_LEN: usize = INVITATION_LEN + vuvuzela_crypto::sealedbox::OVERHEAD;

/// A dialing request as seen by the last server: target drop index plus
/// the sealed invitation.
pub const DIAL_REQUEST_LEN: usize = 4 + SEALED_INVITATION_LEN;

/// Errors produced when decoding wire formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer length did not match the (unique) valid length for this
    /// type.
    BadLength {
        /// Required length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// A field carried an out-of-range value (e.g. message length field
    /// exceeding the payload area).
    Malformed(&'static str),
    /// An end-to-end cryptographic operation failed.
    Crypto(vuvuzela_crypto::CryptoError),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::BadLength { expected, got } => {
                write!(f, "bad wire length: expected {expected}, got {got}")
            }
            WireError::Malformed(what) => write!(f, "malformed field: {what}"),
            WireError::Crypto(e) => write!(f, "crypto failure: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<vuvuzela_crypto::CryptoError> for WireError {
    fn from(e: vuvuzela_crypto::CryptoError) -> Self {
        WireError::Crypto(e)
    }
}

/// Checks a buffer against a type's unique valid length.
pub(crate) fn expect_len(buf: &[u8], expected: usize) -> Result<(), WireError> {
    if buf.len() != expected {
        return Err(WireError::BadLength {
            expected,
            got: buf.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizes() {
        assert_eq!(SEALED_MESSAGE_LEN, 256, "paper §8.1: 256-byte messages");
        assert_eq!(SEALED_INVITATION_LEN, 80, "paper §8.1: 80-byte invitations");
        assert_eq!(DEAD_DROP_ID_LEN * 8, 128, "paper §3.1: 128-bit drop IDs");
    }

    #[test]
    fn expect_len_accepts_and_rejects() {
        assert!(expect_len(&[0u8; 4], 4).is_ok());
        assert_eq!(
            expect_len(&[0u8; 3], 4),
            Err(WireError::BadLength {
                expected: 4,
                got: 3
            })
        );
    }
}
