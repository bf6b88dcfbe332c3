//! The framed TCP backend: blocking socket-per-link.
//!
//! Each deployment link maps to one TCP connection carrying
//! length-prefixed [`Frame`]s: a 4-byte little-endian body length
//! followed by the frame body. The body is streamed through the one
//! codec, `vuvuzela_wire::frame`'s writer and reader: a batch's payload
//! goes from the sending hop's round arena onto the socket, and from the
//! socket into the `Vec` that becomes the receiving hop's arena, with no
//! body buffer on either side. The reader refuses a prefix above
//! [`MAX_FRAME_LEN`] before reading on, and allocates nothing the prefix
//! has not admitted, so a corrupt peer cannot force a giant allocation.
//! No tokio in the vendored-shim environment — connections block,
//! and a node that terminates two links funnels them into one event
//! stream with a reader thread per connection (see the core node
//! runtime), the "small std-thread reactor" the design allows.
//!
//! Connections open with a [`Hello`] exchange: the initiator announces
//! the [`LinkId`] it believes the connection carries plus a digest of
//! its deployment config, and the acceptor verifies both before
//! answering with its own. Mis-wired processes (wrong port, wrong
//! config file, wrong chain position) therefore fail at connect time
//! with a named mismatch instead of corrupting a round.

use crate::error::Error;
use crate::transport::Transport;
use parking_lot::Mutex;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};
use vuvuzela_wire::{Frame, FrameError, Hello, LinkId, ReadError, MAX_FRAME_LEN};

/// Writes one length-prefixed frame, streaming its body through
/// [`Frame::write_to`]. A frame over [`MAX_FRAME_LEN`], which the peer's
/// reader would refuse (and whose length a `u32` prefix may not even
/// hold), is refused before any byte is written.
///
/// # Errors
///
/// [`Error::Frame`] with [`FrameError::Oversized`] for a frame over
/// [`MAX_FRAME_LEN`]; IO failures. Both are attributed to `link`.
pub fn write_frame<W: Write>(w: &mut W, link: LinkId, frame: &Frame) -> Result<(), Error> {
    let len = frame.encoded_len();
    if len > MAX_FRAME_LEN {
        return Err(Error::Frame {
            link,
            source: FrameError::Oversized { len: len as u64 },
        });
    }
    let io = |source| Error::Io {
        link,
        op: "write",
        source,
    };
    w.write_all(&(len as u32).to_le_bytes()).map_err(io)?;
    frame.write_to(w).map_err(io)?;
    w.flush().map_err(io)
}

/// Reads one length-prefixed frame, streaming its body through
/// [`Frame::read_from`], which enforces [`MAX_FRAME_LEN`] on the prefix
/// before reading on.
///
/// # Errors
///
/// [`Error::Disconnected`] on clean EOF at a frame boundary,
/// [`Error::Frame`] for oversized or undecodable frames, [`Error::Io`]
/// for everything else (a body that ends early included).
pub fn read_frame<R: Read>(r: &mut R, link: LinkId) -> Result<Frame, Error> {
    let mut prefix = [0u8; 4];
    if let Err(source) = r.read_exact(&mut prefix) {
        return Err(if source.kind() == std::io::ErrorKind::UnexpectedEof {
            Error::Disconnected { link }
        } else {
            Error::Io {
                link,
                op: "read",
                source,
            }
        });
    }
    let len = u32::from_le_bytes(prefix) as usize;
    Frame::read_from(r, len).map_err(|err| match err {
        ReadError::Io(source) => Error::Io {
            link,
            op: "read",
            source,
        },
        ReadError::Frame(source) => Error::Frame { link, source },
    })
}

/// Retry schedule for [`TcpTransport::connect`]: jittered exponential
/// backoff under a total deadline.
///
/// Processes of one deployment start in arbitrary order, so refused
/// connections are expected during bring-up and retried. A fixed short
/// sleep (the old behaviour) makes every waiting process hammer the
/// listener in lock-step; the backoff doubles the delay per failed
/// attempt up to `cap` and scales each delay by a deterministic jitter
/// in `[0.5, 1.0)` derived from `seed` and the link id, so co-started
/// peers spread out without any shared state. Deployments surface the
/// deadline through their config (see the deploy layer's
/// `connect_timeout_ms`).
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total time to keep retrying refused connections.
    pub deadline: Duration,
    /// Delay after the first failed attempt (before jitter).
    pub base: Duration,
    /// Upper bound on the un-jittered delay.
    pub cap: Duration,
    /// Jitter seed; mixed with the link id so each link of one process
    /// de-correlates too.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// 30 s deadline, 25 ms base, 1 s cap — the old fixed loop's
    /// envelope with backoff inside it.
    fn default() -> RetryPolicy {
        RetryPolicy {
            deadline: Duration::from_secs(30),
            base: Duration::from_millis(25),
            cap: Duration::from_secs(1),
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The default policy with a different total deadline.
    #[must_use]
    pub fn with_deadline(deadline: Duration) -> RetryPolicy {
        RetryPolicy {
            deadline,
            ..RetryPolicy::default()
        }
    }

    /// The jittered delay before retry number `attempt` (0-based).
    fn delay(&self, link: LinkId, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cap);
        // splitmix64: good avalanche from a trivially correlated input,
        // no dependency on a rand crate (net stays rand-free).
        let mut z = self
            .seed
            .wrapping_add(link.code())
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // Scale into [0.5, 1.0): half the delay is guaranteed, the
        // other half is where peers spread out.
        let jitter = 0.5 + (z >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
        exp.mul_f64(jitter)
    }
}

/// One end of one deployment link over TCP.
pub struct TcpTransport {
    link: LinkId,
    reader: Mutex<BufReader<TcpStream>>,
    writer: Mutex<BufWriter<TcpStream>>,
    /// A third handle on the socket, behind no lock, so
    /// [`Transport::hang_up`] can shut it down under a blocked `recv`.
    socket: TcpStream,
}

impl TcpTransport {
    /// Connects to the peer listening at `addr`, retrying refused
    /// connections per `policy` (processes of one deployment start in
    /// arbitrary order), then performs the [`Hello`] exchange as
    /// initiator.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when no connection is established within the
    /// policy's deadline; [`Error::Handshake`] when the peer disagrees
    /// about the link or the config digest.
    pub fn connect<A: ToSocketAddrs + Clone>(
        addr: A,
        link: LinkId,
        config_digest: [u8; 32],
        policy: &RetryPolicy,
    ) -> Result<TcpTransport, Error> {
        let deadline = Instant::now() + policy.deadline;
        let mut attempt = 0u32;
        let stream = loop {
            match TcpStream::connect(addr.clone()) {
                Ok(stream) => break stream,
                Err(source) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(Error::Io {
                            link,
                            op: "connect",
                            source,
                        });
                    }
                    let delay = policy.delay(link, attempt).min(deadline - now);
                    attempt = attempt.saturating_add(1);
                    std::thread::sleep(delay);
                }
            }
        };
        let transport = TcpTransport::from_stream(stream, link)?;
        transport.send(Frame::Hello(Hello {
            link,
            config_digest,
        }))?;
        transport.expect_hello(config_digest)?;
        Ok(transport)
    }

    /// Accepts one connection on `listener` and performs the [`Hello`]
    /// exchange as acceptor: the initiator speaks first, this end
    /// verifies and answers.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on accept failure; [`Error::Handshake`] when the
    /// initiator disagrees about the link or the config digest.
    pub fn accept(
        listener: &TcpListener,
        link: LinkId,
        config_digest: [u8; 32],
    ) -> Result<TcpTransport, Error> {
        let (stream, _peer) = listener.accept().map_err(|source| Error::Io {
            link,
            op: "accept",
            source,
        })?;
        let transport = TcpTransport::from_stream(stream, link)?;
        transport.expect_hello(config_digest)?;
        transport.send(Frame::Hello(Hello {
            link,
            config_digest,
        }))?;
        Ok(transport)
    }

    /// Wraps an established stream (no handshake).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] if the stream cannot be cloned into separate
    /// read, write and hang-up handles.
    pub fn from_stream(stream: TcpStream, link: LinkId) -> Result<TcpTransport, Error> {
        stream.set_nodelay(true).ok();
        let clone = || {
            stream.try_clone().map_err(|source| Error::Io {
                link,
                op: "clone",
                source,
            })
        };
        Ok(TcpTransport {
            link,
            reader: Mutex::new(BufReader::new(clone()?)),
            writer: Mutex::new(BufWriter::new(clone()?)),
            socket: stream,
        })
    }

    /// Reads one frame and verifies it is the peer's matching [`Hello`].
    fn expect_hello(&self, config_digest: [u8; 32]) -> Result<(), Error> {
        match self.recv()? {
            Frame::Hello(hello) if hello.link != self.link => Err(Error::Handshake {
                link: self.link,
                reason: format!("peer believes this connection is {}", hello.link),
            }),
            Frame::Hello(hello) if hello.config_digest != config_digest => Err(Error::Handshake {
                link: self.link,
                reason: "config digest mismatch (peers run different deployment configs)"
                    .to_string(),
            }),
            Frame::Hello(_) => Ok(()),
            other => Err(Error::Handshake {
                link: self.link,
                reason: format!("expected hello, got {other:?}"),
            }),
        }
    }
}

impl Transport for TcpTransport {
    fn link_id(&self) -> LinkId {
        self.link
    }

    fn send(&self, frame: Frame) -> Result<(), Error> {
        write_frame(&mut *self.writer.lock(), self.link, &frame)
    }

    fn recv(&self) -> Result<Frame, Error> {
        read_frame(&mut *self.reader.lock(), self.link)
    }

    fn hang_up(&self) {
        // Frames are flushed as they are sent, so everything sent so
        // far reaches the peer ahead of the FIN. Shutting down a socket
        // that is already down fails, harmlessly.
        let _ = self.socket.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use vuvuzela_wire::{BatchFrame, FrameError, RoundId, RoundType};

    fn digest(fill: u8) -> [u8; 32] {
        [fill; 32]
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let policy = RetryPolicy::default();
        let base = Duration::from_millis(25);
        for attempt in 0..20 {
            let d = policy.delay(LinkId::Hop(0), attempt);
            let exp = base.saturating_mul(1u32 << attempt.min(16)).min(policy.cap);
            assert!(d >= exp / 2 && d < exp, "jitter stays in [0.5, 1.0)·exp");
            assert!(d <= policy.cap, "cap bounds every delay");
            assert_eq!(
                d,
                policy.delay(LinkId::Hop(0), attempt),
                "same seed, same schedule"
            );
        }
        // Different links de-correlate even under one seed.
        assert_ne!(
            policy.delay(LinkId::Hop(0), 3),
            policy.delay(LinkId::Hop(1), 3)
        );
    }

    #[test]
    fn connect_deadline_expires_quickly_on_refused_port() {
        // Bind-then-drop to get a port with (very likely) no listener.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").port()
        };
        let start = Instant::now();
        let result = TcpTransport::connect(
            ("127.0.0.1", port),
            LinkId::Hop(0),
            digest(0),
            &RetryPolicy::with_deadline(Duration::from_millis(100)),
        );
        assert!(matches!(result, Err(Error::Io { op: "connect", .. })));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "deadline is honoured"
        );
    }

    #[test]
    fn framed_io_roundtrips() {
        let frame = Frame::Batch(BatchFrame {
            link: LinkId::Hop(2),
            round: RoundId(9),
            round_type: RoundType::Conversation,
            num_drops: 0,
            backward: true,
            stride: 8,
            width: 8,
            count: 1,
            payload: vec![3; 8],
            trailer: vec![1, 2, 3],
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, LinkId::Hop(2), &frame).expect("write");
        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, LinkId::Hop(2)).expect("read"),
            frame
        );
        // Clean EOF at the frame boundary is a disconnect, not an error.
        assert!(matches!(
            read_frame(&mut cursor, LinkId::Hop(2)),
            Err(Error::Disconnected { .. })
        ));
    }

    #[test]
    fn oversized_prefix_rejected_before_body() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        // No body follows — the reader must reject on the prefix alone.
        let mut cursor = Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor, LinkId::Clients),
            Err(Error::Frame {
                source: FrameError::Oversized { .. },
                ..
            })
        ));
    }

    #[test]
    fn truncated_body_is_io_error() {
        let body = Frame::Bye.encode();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(body.len() as u32 + 4).to_le_bytes());
        bytes.extend_from_slice(&body);
        let mut cursor = Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor, LinkId::Clients),
            Err(Error::Io { .. })
        ));
    }

    #[test]
    fn loopback_handshake_and_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let t = TcpTransport::accept(&listener, LinkId::Hop(0), digest(7)).expect("accept");
            let got = t.recv().expect("recv");
            t.send(got).expect("echo");
            t.send(Frame::Bye).expect("bye");
        });
        let client = TcpTransport::connect(
            addr,
            LinkId::Hop(0),
            digest(7),
            &RetryPolicy::with_deadline(Duration::from_secs(10)),
        )
        .expect("connect");
        let frame = Frame::Batch(BatchFrame {
            link: LinkId::Hop(0),
            round: RoundId(1),
            round_type: RoundType::Dialing,
            num_drops: 4,
            backward: false,
            stride: 2,
            width: 2,
            count: 3,
            payload: vec![5; 6],
            trailer: Vec::new(),
        });
        client.send(frame.clone()).expect("send");
        assert_eq!(client.recv().expect("echo"), frame);
        assert!(matches!(client.recv(), Ok(Frame::Bye)));
        assert!(matches!(client.recv(), Err(Error::Disconnected { .. })));
        server.join().expect("server thread");
    }

    #[test]
    fn hang_up_wakes_a_blocked_recv_and_ends_the_peers_stream() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let acceptor =
            std::thread::spawn(move || TcpTransport::accept(&listener, LinkId::Hop(0), digest(7)));
        let near = TcpTransport::connect(
            addr,
            LinkId::Hop(0),
            digest(7),
            &RetryPolicy::with_deadline(Duration::from_secs(10)),
        )
        .expect("connect");
        let far = acceptor.join().expect("thread").expect("accept");

        let near = std::sync::Arc::new(near);
        let blocked = {
            let near = std::sync::Arc::clone(&near);
            std::thread::spawn(move || near.recv())
        };
        near.send(Frame::Bye).expect("send before the hang-up");
        near.hang_up();
        near.hang_up(); // idempotent
        assert!(
            matches!(blocked.join().expect("reader"), Err(Error::Disconnected { link }) if link == LinkId::Hop(0))
        );
        assert!(near.send(Frame::Bye).is_err());
        assert!(matches!(far.recv(), Ok(Frame::Bye)));
        assert!(matches!(far.recv(), Err(Error::Disconnected { .. })));
    }

    #[test]
    fn digest_mismatch_fails_handshake() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server =
            std::thread::spawn(move || TcpTransport::accept(&listener, LinkId::Hop(0), digest(1)));
        let client = TcpTransport::connect(
            addr,
            LinkId::Hop(0),
            digest(2),
            &RetryPolicy::with_deadline(Duration::from_secs(10)),
        );
        let server_result = server.join().expect("thread");
        assert!(matches!(server_result, Err(Error::Handshake { .. })));
        // The acceptor drops the connection without answering, so the
        // initiator sees either the explicit mismatch or a dead peer.
        assert!(client.is_err());
    }

    #[test]
    fn link_mismatch_fails_handshake() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server =
            std::thread::spawn(move || TcpTransport::accept(&listener, LinkId::Hop(1), digest(1)));
        let client = TcpTransport::connect(
            addr,
            LinkId::Hop(2),
            digest(1),
            &RetryPolicy::with_deadline(Duration::from_secs(10)),
        );
        let server_result = server.join().expect("thread");
        match server_result {
            Err(Error::Handshake { reason, .. }) => {
                assert!(
                    reason.contains("server1->server2"),
                    "names the peer's claim"
                );
            }
            Err(other) => panic!("expected handshake failure, got {other}"),
            Ok(_) => panic!("handshake unexpectedly succeeded"),
        }
        assert!(client.is_err());
    }

    /// A peer that sends a batch where its hello is due is refused with
    /// the frame's header, not its bytes: a 1 MiB payload must not
    /// become a multi-megabyte error before any digest is checked.
    #[test]
    fn a_batch_instead_of_a_hello_is_refused_in_a_line() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server =
            std::thread::spawn(move || TcpTransport::accept(&listener, LinkId::Hop(0), digest(1)));
        let batch = BatchFrame {
            link: LinkId::Hop(0),
            round: RoundId(0),
            round_type: RoundType::Conversation,
            num_drops: 0,
            backward: false,
            stride: 256,
            width: 256,
            count: 4096,
            payload: vec![0xAB; 1 << 20],
            trailer: Vec::new(),
        };
        let mut stream = TcpStream::connect(addr).expect("connect");
        write_frame(&mut stream, LinkId::Hop(0), &Frame::Batch(batch)).expect("send batch");
        match server.join().expect("thread") {
            Err(err @ Error::Handshake { .. }) => {
                let shown = err.to_string();
                assert!(shown.len() < 1024, "{} bytes of error", shown.len());
                assert!(shown.contains("payload_len: 1048576"), "{shown}");
            }
            Err(other) => panic!("expected handshake failure, got {other}"),
            Ok(_) => panic!("handshake unexpectedly succeeded"),
        }
    }
}
