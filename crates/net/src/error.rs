//! The unified error type both transport backends return.
//!
//! Link misuse used to be a mix of ad-hoc panics (double-tapping a
//! link) and conditions the in-memory substrate simply could not
//! express (a peer disappearing). A real wire can fail in all of these
//! ways at runtime, so the transport API returns one [`Error`] from
//! both backends — the in-memory one is infallible by construction for
//! everything except a dropped peer, but its signatures stay honest.

use vuvuzela_wire::{FrameError, LinkId};

/// Any failure on a transport link.
#[derive(Debug)]
pub enum Error {
    /// A socket-level failure.
    Io {
        /// The link the socket carries.
        link: LinkId,
        /// What the transport was doing (`"connect"`, `"read"`, …).
        op: &'static str,
        /// The underlying IO error.
        source: std::io::Error,
    },
    /// The peer sent bytes that do not decode as a frame.
    Frame {
        /// The link the frame arrived on.
        link: LinkId,
        /// The codec's reason.
        source: FrameError,
    },
    /// The peer went away (socket closed, or the in-memory endpoint's
    /// other half was dropped).
    Disconnected {
        /// The link that lost its peer.
        link: LinkId,
    },
    /// The connection handshake failed: the two ends disagree about
    /// which link (or which deployment) the connection carries.
    Handshake {
        /// The link this end expected.
        link: LinkId,
        /// Human-readable mismatch description.
        reason: String,
    },
    /// A frame arrived that the receiver's protocol state cannot
    /// accept (e.g. a batch after `Bye`).
    Protocol {
        /// The link it arrived on.
        link: LinkId,
        /// What was wrong.
        reason: String,
    },
    /// A tap is already attached to the link (at most one per link; a
    /// coalition multiplexes inside its own `Tap` implementation).
    TapOccupied {
        /// The contested link.
        link: LinkId,
    },
    /// The peer kept this end waiting past its deadline: a frame it owed
    /// did not arrive, or it took no more of a frame being sent.
    Deadline {
        /// The link whose peer stalled.
        link: LinkId,
    },
}

impl Error {
    /// The link the failure occurred on.
    #[must_use]
    pub fn link(&self) -> LinkId {
        match self {
            Error::Io { link, .. }
            | Error::Frame { link, .. }
            | Error::Disconnected { link }
            | Error::Handshake { link, .. }
            | Error::Protocol { link, .. }
            | Error::TapOccupied { link }
            | Error::Deadline { link } => *link,
        }
    }
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Io { link, op, source } => {
                write!(f, "io failure on {link} during {op}: {source}")
            }
            Error::Frame { link, source } => write!(f, "bad frame on {link}: {source}"),
            Error::Disconnected { link } => write!(f, "peer on {link} disconnected"),
            Error::Handshake { link, reason } => write!(f, "handshake failed on {link}: {reason}"),
            Error::Protocol { link, reason } => write!(f, "protocol violation on {link}: {reason}"),
            Error::TapOccupied { link } => write!(f, "link {link} already has a tap"),
            Error::Deadline { link } => write!(f, "deadline passed waiting on the peer on {link}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            Error::Frame { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_names_the_link() {
        let e = Error::Disconnected {
            link: LinkId::Hop(1),
        };
        assert_eq!(e.to_string(), "peer on server0->server1 disconnected");
        assert_eq!(e.link(), LinkId::Hop(1));
        assert!(e.source().is_none());
    }

    #[test]
    fn io_and_frame_expose_sources() {
        let io = Error::Io {
            link: LinkId::Clients,
            op: "read",
            source: std::io::Error::other("boom"),
        };
        assert!(io.source().is_some());
        assert!(io.to_string().contains("during read"));

        let frame = Error::Frame {
            link: LinkId::Cdn,
            source: FrameError::BadMagic,
        };
        assert!(frame.source().is_some());
        assert!(frame.to_string().contains("bad frame magic"));
    }
}
