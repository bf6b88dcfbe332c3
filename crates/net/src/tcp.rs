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
//!
//! ## The deadline
//!
//! An end waits on its peer at most its *deadline* (the connect
//! policy's, [`RetryPolicy::deadline`]; a deployment's
//! `connect_timeout_ms`) wherever the peer owes it something, and
//! fails with [`Error::Deadline`] naming the link:
//!
//! * a write the peer takes no more of (the socket's write timeout,
//!   always set);
//! * the rest of a frame whose first byte has arrived;
//! * the next frame, on the end that connected, while frames it sent
//!   are unanswered. The initiator is the link's upstream end, and the
//!   wire answers every frame it sends upstream-to-downstream with
//!   exactly one ([`vuvuzela_wire::sequence`]): each forward batch with
//!   its backward frame, the `Bye` with the `Bye`, the `Hello` with the
//!   `Hello`. Each answer is due within the deadline of the wait for
//!   it beginning.
//!
//! Nothing else is owed, so an idle node — an acceptor between frames,
//! an initiator with every frame answered — waits without bound. Linux
//! reads a socket's receive timeout once, when a read begins, so a
//! frame that becomes owed during a read already blocked would never
//! see a timeout set after it: the wait for a frame's first byte is
//! therefore cut into reads of at most the deadline, each re-checking
//! what is owed.
//!
//! ## In process
//!
//! [`loopback_pair`] makes both ends of one link over a loopback socket
//! in the calling process, each carrying a handle on the link's [`Link`]:
//! every batch either end sends crosses [`batch_through_link`] first, as
//! over the in-memory backend, so the link's traffic record and tap see
//! what goes onto the socket, and a tap that hangs the link up shuts the
//! socket down.

use crate::error::Error;
use crate::link::{batch_through_link, Link};
use crate::transport::Transport;
use parking_lot::Mutex;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
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
    /// How long this end waits on its peer (see the module docs).
    deadline: Duration,
    /// On the end that connected, the frames it sent that are not
    /// answered yet; `None` on the end that accepted, which is owed
    /// nothing.
    owed: Option<Mutex<Owed>>,
    /// The link every batch sent crosses first, on an in-process pair
    /// ([`loopback_pair`]); `None` between processes.
    through: Option<Link>,
}

/// Frames an initiator is owed, and since when it has waited for the
/// next.
struct Owed {
    frames: u64,
    since: Instant,
}

/// Whether an IO error is a socket timeout expiring.
fn timed_out(err: &std::io::Error) -> bool {
    matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// A transfer that failed because the socket's timeout expired is the
/// deadline's.
fn deadline_if_timed_out(err: Error) -> Error {
    match err {
        Error::Io { link, source, .. } if timed_out(&source) => Error::Deadline { link },
        other => other,
    }
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
        let transport = TcpTransport::wrap(stream, link, policy.deadline, true)?;
        transport.send(Frame::Hello(Hello {
            link,
            config_digest,
        }))?;
        transport.expect_hello(config_digest)?;
        Ok(transport)
    }

    /// Accepts one connection on `listener` and performs the [`Hello`]
    /// exchange as acceptor: the initiator speaks first, this end
    /// verifies and answers. Its deadline is the default policy's;
    /// [`TcpTransport::with_deadline`] sets another.
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
        let deadline = RetryPolicy::default().deadline;
        let transport = TcpTransport::wrap(stream, link, deadline, false)?;
        transport.expect_hello(config_digest)?;
        transport.send(Frame::Hello(Hello {
            link,
            config_digest,
        }))?;
        Ok(transport)
    }

    /// This end, waiting on its peer at most `deadline` from now on
    /// (see the module docs).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> TcpTransport {
        // The socket refuses a zero timeout.
        self.deadline = deadline.max(Duration::from_millis(1));
        self.socket.set_write_timeout(Some(self.deadline)).ok();
        self
    }

    /// Wraps an established stream (no handshake); `initiator` says
    /// whether this end connected, and so is owed answers.
    fn wrap(
        stream: TcpStream,
        link: LinkId,
        deadline: Duration,
        initiator: bool,
    ) -> Result<TcpTransport, Error> {
        stream.set_nodelay(true).ok();
        let clone = || {
            stream.try_clone().map_err(|source| Error::Io {
                link,
                op: "clone",
                source,
            })
        };
        let owed = Owed {
            frames: 0,
            since: Instant::now(),
        };
        let transport = TcpTransport {
            link,
            reader: Mutex::new(BufReader::new(clone()?)),
            writer: Mutex::new(BufWriter::new(clone()?)),
            socket: stream,
            deadline,
            owed: initiator.then(|| Mutex::new(owed)),
            through: None,
        };
        Ok(transport.with_deadline(deadline))
    }

    /// How long the next frame may still take: `None` when none is owed.
    fn owed_within(&self) -> Option<Duration> {
        let owed = self.owed.as_ref()?.lock();
        (owed.frames > 0).then(|| self.deadline.saturating_sub(owed.since.elapsed()))
    }

    /// Waits until the next frame's first byte is buffered, at most the
    /// deadline once a frame is owed.
    fn await_frame(&self, reader: &mut BufReader<TcpStream>) -> Result<(), Error> {
        let link = self.link;
        loop {
            let wait = match self.owed_within() {
                Some(left) if left.is_zero() => return Err(Error::Deadline { link }),
                Some(left) => left,
                None => self.deadline,
            };
            reader.get_ref().set_read_timeout(Some(wait)).ok();
            match reader.fill_buf() {
                Ok([]) => return Err(Error::Disconnected { link }),
                Ok(_) => return Ok(()),
                Err(err) if timed_out(&err) || err.kind() == ErrorKind::Interrupted => {}
                Err(source) => {
                    return Err(Error::Io {
                        link,
                        op: "read",
                        source,
                    })
                }
            }
        }
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

    fn send(&self, mut frame: Frame) -> Result<(), Error> {
        if let (Some(link), Frame::Batch(batch)) = (&self.through, &mut frame) {
            // A tap that hangs the link up is the peer dying under the
            // batch: the socket goes down, as a dead process's would.
            if let Err(err) = batch_through_link(link, batch) {
                self.hang_up();
                return Err(err);
            }
        }
        if let Some(owed) = &self.owed {
            // Counted before the write, so an answer cannot come first.
            let mut owed = owed.lock();
            if owed.frames == 0 {
                owed.since = Instant::now();
            }
            owed.frames += 1;
        }
        write_frame(&mut *self.writer.lock(), self.link, &frame).map_err(deadline_if_timed_out)
    }

    fn recv(&self) -> Result<Frame, Error> {
        let mut reader = self.reader.lock();
        self.await_frame(&mut reader)?;
        // The frame has begun: the peer owes its rest.
        reader.get_ref().set_read_timeout(Some(self.deadline)).ok();
        let frame = read_frame(&mut *reader, self.link).map_err(deadline_if_timed_out)?;
        if let Some(owed) = &self.owed {
            let mut owed = owed.lock();
            owed.frames = owed.frames.saturating_sub(1);
            owed.since = Instant::now();
        }
        Ok(frame)
    }

    fn hang_up(&self) {
        // Frames are flushed as they are sent, so everything sent so
        // far reaches the peer ahead of the FIN. Shutting down a socket
        // that is already down fails, harmlessly.
        let _ = self.socket.shutdown(Shutdown::Both);
    }
}

/// Both ends of `link` over one loopback socket in this process: binds
/// an ephemeral port, connects (the first end, upstream, is the
/// initiator, as in a deployment) and accepts. No [`Hello`] is
/// exchanged — nothing in one process can be mis-wired — and each end
/// sends every batch through `link` first (see the module docs). Each
/// end's deadline is the default policy's.
///
/// # Errors
///
/// Bind, connect or accept failures, attributed to the link.
pub fn loopback_pair(link: &Link) -> Result<(TcpTransport, TcpTransport), Error> {
    let id = link.id();
    let io = |op| {
        move |source| Error::Io {
            link: id,
            op,
            source,
        }
    };
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(io("bind"))?;
    let addr = listener.local_addr().map_err(io("bind"))?;
    // The kernel completes the connection into the listener's backlog.
    let upstream = TcpStream::connect(addr).map_err(io("connect"))?;
    let (downstream, _) = listener.accept().map_err(io("accept"))?;
    let deadline = RetryPolicy::default().deadline;
    let end = |stream, initiator| -> Result<TcpTransport, Error> {
        let mut end = TcpTransport::wrap(stream, id, deadline, initiator)?;
        end.through = Some(link.clone());
        Ok(end)
    };
    Ok((end(upstream, true)?, end(downstream, false)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Direction, Slots, Tap, TapContext};
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

    /// A tap that keeps a batch's first entry, and hangs the link up
    /// under round 7.
    struct FirstOnlyThenHangUp;
    impl Tap for FirstOnlyThenHangUp {
        fn intercept(&mut self, _ctx: &TapContext, batch: &mut Slots<'_>) {
            batch.retain(|i| i == 0);
        }

        fn hangs_up(&mut self, ctx: &TapContext) -> bool {
            ctx.round == 7
        }
    }

    #[test]
    fn a_loopback_pair_records_and_taps_every_batch_before_the_socket() {
        let mut link = Link::new(LinkId::Hop(1));
        link.attach_tap(std::sync::Arc::new(Mutex::new(FirstOnlyThenHangUp)));
        let (up, down) = loopback_pair(&link).expect("loopback pair");
        let batch = |round, count: u32| {
            Frame::Batch(BatchFrame {
                link: LinkId::Hop(1),
                round: RoundId(round),
                round_type: RoundType::Conversation,
                num_drops: 0,
                backward: false,
                stride: 4,
                width: 4,
                count,
                payload: (0..count as u8 * 4).collect(),
                trailer: Vec::new(),
            })
        };

        up.send(batch(3, 3)).expect("send");
        let Ok(Frame::Batch(got)) = down.recv() else {
            panic!("expected the batch");
        };
        // The record holds what was sent, the socket what the tap left.
        assert_eq!(link.round_traffic(3, Direction::Forward), (3, 12));
        assert_eq!((got.count, &got.payload[..]), (1, &[0u8, 1, 2, 3][..]));

        // A tap that hangs up fails the send and ends the peer's stream.
        let sent = up.send(batch(7, 2));
        assert!(matches!(sent, Err(Error::Disconnected { link }) if link == LinkId::Hop(1)));
        assert!(matches!(down.recv(), Err(Error::Disconnected { .. })));
    }
}
