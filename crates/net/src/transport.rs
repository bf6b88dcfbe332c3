//! The transport seam: one trait, two backends.
//!
//! A [`Transport`] is one end of one deployment link, moving
//! [`Frame`]s between two protocol processes. Everything above this
//! seam — the mix servers, the entry, the launch harness — is written
//! against the trait, so the same node code runs
//!
//! * **in process** over [`MemoryEndpoint`] pairs, which carry frames
//!   over in-memory queues and carry every batch across the same
//!   byte-counting, tappable [`Link`] the simulator uses
//!   ([`batch_through_link`]: record first, then a tap edits the arena in
//!   place — the adversary cannot hide traffic from our accounting), and
//! * **across processes** over [`crate::tcp::TcpTransport`], the framed
//!   length-prefixed TCP backend.
//!
//! Both return the unified [`Error`]; the in-memory backend is
//! infallible by construction for everything except a peer that hung
//! up — a tap that hangs the link up ([`crate::Tap::hangs_up`]) is one —
//! but its signatures stay honest about what a real wire can do.

use crate::error::Error;
use crate::link::{batch_through_link, Link};
use parking_lot::Mutex;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use vuvuzela_wire::{Frame, LinkId};

/// Where [`Transport::deliver_to`] puts what a link receives: called
/// with each frame, or with the error that ended the link; returns
/// `true` once it wants no more.
pub type Sink = Box<dyn FnMut(Result<Frame, Error>) -> bool + Send>;

/// One end of one deployment link.
///
/// `send`/`recv` take `&self` (backends use internal locking) so a node
/// can hold its upstream and downstream ends without juggling mutable
/// borrows, and reader threads can share an endpoint behind an `Arc`.
pub trait Transport: Send + Sync + 'static {
    /// Which deployment link this endpoint terminates.
    fn link_id(&self) -> LinkId;

    /// Sends one frame to the peer.
    ///
    /// # Errors
    ///
    /// [`Error::Disconnected`] when either end has hung up; TCP backends
    /// also surface IO failures.
    fn send(&self, frame: Frame) -> Result<(), Error>;

    /// Receives the next frame from the peer, blocking until one
    /// arrives.
    ///
    /// # Errors
    ///
    /// [`Error::Disconnected`] at end-of-stream (either end hung up);
    /// TCP backends also surface IO and frame-decode failures.
    fn recv(&self) -> Result<Frame, Error>;

    /// Hangs the link up from this end, for good: the peer receives
    /// what was already sent and then [`Error::Disconnected`], its
    /// sends fail, and a `recv` blocked on this end in another thread
    /// returns [`Error::Disconnected`]. Idempotent. A node hangs up
    /// every link it terminates when it stops, however it stops, so
    /// that its neighbours see a dead node instead of waiting for it.
    fn hang_up(&self);

    /// Hands everything this end receives from now on to `sink`, in
    /// order, instead of to [`Transport::recv`] — how a node merges its
    /// links into one queue ([`crate::Demux`]). A backend that blocks to
    /// receive does so on a reader thread of its own and returns it;
    /// the in-memory backend needs none, its peer's `send` calls the
    /// sink.
    fn deliver_to(self: Arc<Self>, mut sink: Sink) -> Option<JoinHandle<()>> {
        Some(std::thread::spawn(move || while !sink(self.recv()) {}))
    }
}

/// One direction of an in-memory link: where the sending end puts a
/// frame. `None` once either end has hung up, or the sink has had
/// enough.
type Inbox = Arc<Mutex<Option<Sink>>>;

/// The in-memory backend: one end of a bidirectional in-process link.
///
/// Created in pairs by [`memory_pair`]; both ends share one [`Link`],
/// whose traffic record and optional tap see every batch frame either end
/// sends. Dropping an endpoint hangs it up.
pub struct MemoryEndpoint {
    link: Arc<Link>,
    outbox: Inbox,
    inbox: Inbox,
    /// Where this end's inbox delivers until [`Transport::deliver_to`]
    /// points it elsewhere: the queue behind `recv`.
    queue: Mutex<Receiver<Result<Frame, Error>>>,
}

/// Creates the two ends of one in-memory link. Frames sent on either
/// end arrive at the other in order; batch frames are recorded (and
/// tapped, when a tap is attached) on the shared `link` at send time.
#[must_use]
pub fn memory_pair(link: Arc<Link>) -> (MemoryEndpoint, MemoryEndpoint) {
    let queued_inbox = || {
        let (tx, rx) = channel();
        let sink: Sink = Box::new(move |event| tx.send(event).is_err());
        (Arc::new(Mutex::new(Some(sink))), Mutex::new(rx))
    };
    let ((a_inbox, a_queue), (b_inbox, b_queue)) = (queued_inbox(), queued_inbox());
    (
        MemoryEndpoint {
            link: link.clone(),
            outbox: b_inbox.clone(),
            inbox: a_inbox.clone(),
            queue: a_queue,
        },
        MemoryEndpoint {
            link,
            outbox: a_inbox,
            inbox: b_inbox,
            queue: b_queue,
        },
    )
}

impl MemoryEndpoint {
    fn disconnected(&self) -> Error {
        Error::Disconnected {
            link: self.link.id(),
        }
    }
}

impl Transport for MemoryEndpoint {
    fn link_id(&self) -> LinkId {
        self.link.id()
    }

    fn send(&self, mut frame: Frame) -> Result<(), Error> {
        // Nothing crosses a link that is already hung up, not even into
        // its log.
        if self.outbox.lock().is_none() {
            return Err(self.disconnected());
        }
        if let Frame::Batch(batch) = &mut frame {
            // A tap that hangs the link up is a peer process dying under
            // the batch: both ends see what a socket's end would.
            if let Err(err) = batch_through_link(&self.link, batch) {
                self.hang_up();
                return Err(err);
            }
        }
        let mut outbox = self.outbox.lock();
        let sink = outbox.as_mut().ok_or_else(|| self.disconnected())?;
        if sink(Ok(frame)) {
            *outbox = None;
        }
        Ok(())
    }

    fn recv(&self) -> Result<Frame, Error> {
        let received = self.queue.lock().recv();
        received.unwrap_or_else(|_| Err(self.disconnected()))
    }

    fn hang_up(&self) {
        for direction in [&self.outbox, &self.inbox] {
            if let Some(mut sink) = direction.lock().take() {
                sink(Err(self.disconnected()));
            }
        }
    }

    fn deliver_to(self: Arc<Self>, mut sink: Sink) -> Option<JoinHandle<()>> {
        // Under the inbox lock no frame can slip between what the queue
        // already holds and what the sink gets from now on.
        let mut inbox = self.inbox.lock();
        let done = self.queue.lock().try_iter().any(&mut sink);
        if done {
            *inbox = None;
        } else if inbox.is_some() {
            *inbox = Some(sink);
        }
        None
    }
}

impl Drop for MemoryEndpoint {
    fn drop(&mut self) {
        self.hang_up();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{Direction, Slots, Tap, TapContext};
    use vuvuzela_wire::{BatchFrame, RoundId, RoundType};

    fn batch(count: u32, backward: bool) -> BatchFrame {
        BatchFrame {
            link: LinkId::Hop(0),
            round: RoundId(5),
            round_type: RoundType::Conversation,
            num_drops: 0,
            backward,
            stride: 4,
            width: 3,
            count,
            payload: (0..count as usize * 4).map(|b| b as u8).collect(),
            trailer: Vec::new(),
        }
    }

    #[test]
    fn pair_carries_frames_both_ways_and_meters() {
        let link = Arc::new(Link::new(LinkId::Hop(0)));
        let (up, down) = memory_pair(link.clone());
        assert_eq!(up.link_id(), LinkId::Hop(0));

        up.send(Frame::Batch(batch(2, false))).expect("send");
        down.send(Frame::Batch(batch(1, true))).expect("send back");
        up.send(Frame::Bye).expect("bye");

        assert!(matches!(down.recv(), Ok(Frame::Batch(b)) if b.count == 2));
        assert!(matches!(down.recv(), Ok(Frame::Bye)));
        assert!(matches!(up.recv(), Ok(Frame::Batch(b)) if b.backward));

        // Recorded as count × logical width, per direction.
        assert_eq!(link.round_traffic(5, Direction::Forward), (2, 6));
        assert_eq!(link.round_traffic(5, Direction::Backward), (1, 3));
        assert_eq!(link.total_bytes(), 9);
    }

    #[test]
    fn dropped_peer_reports_disconnected() {
        let link = Arc::new(Link::new(LinkId::Clients));
        let (up, down) = memory_pair(link);
        drop(down);
        assert!(matches!(
            up.send(Frame::Bye),
            Err(Error::Disconnected { .. })
        ));
        assert!(matches!(up.recv(), Err(Error::Disconnected { .. })));
    }

    #[test]
    fn hang_up_delivers_what_was_sent_then_disconnects_both_ends() {
        let (up, down) = memory_pair(Arc::new(Link::new(LinkId::Hop(1))));
        let up = Arc::new(up);
        // A reader already blocked on the end that hangs up is woken.
        let blocked = {
            let up = Arc::clone(&up);
            std::thread::spawn(move || up.recv())
        };
        up.send(Frame::Bye).expect("send before the hang-up");
        up.hang_up();
        up.hang_up(); // idempotent
        let woken = blocked.join().expect("reader thread");
        assert!(
            matches!(woken, Err(Error::Disconnected { link }) if link == LinkId::Hop(1)),
            "the blocked recv names the link: {woken:?}"
        );
        assert!(matches!(
            up.send(Frame::Bye),
            Err(Error::Disconnected { .. })
        ));

        // The peer still gets the frame sent before the hang-up, then
        // end-of-stream in both directions.
        assert!(matches!(down.recv(), Ok(Frame::Bye)));
        assert!(matches!(down.recv(), Err(Error::Disconnected { .. })));
        assert!(matches!(
            down.send(Frame::Bye),
            Err(Error::Disconnected { .. })
        ));
    }

    #[test]
    fn deliver_to_hands_over_what_is_queued_first_and_needs_no_thread() {
        let (up, down) = memory_pair(Arc::new(Link::new(LinkId::Hop(0))));
        up.send(Frame::Batch(batch(1, false)))
            .expect("queued for recv");
        let (tx, delivered) = channel();
        let down = Arc::new(down);
        let reader = Arc::clone(&down).deliver_to(Box::new(move |event| {
            let ended = event.is_err();
            tx.send(event).expect("the test listens");
            ended
        }));
        assert!(reader.is_none(), "the peer's send is the delivery");
        up.send(Frame::Bye).expect("straight to the sink");
        drop(up);
        assert!(matches!(delivered.recv(), Ok(Ok(Frame::Batch(_)))));
        assert!(matches!(delivered.recv(), Ok(Ok(Frame::Bye))));
        assert!(matches!(
            delivered.recv(),
            Ok(Err(Error::Disconnected { .. }))
        ));
        assert!(delivered.recv().is_err(), "the sink is dropped at the end");
    }

    /// A tap that truncates the batch and resizes one entry.
    struct Mangle;
    impl Tap for Mangle {
        fn intercept(&mut self, ctx: &TapContext, batch: &mut Slots<'_>) {
            assert_eq!(ctx.link, LinkId::Hop(0));
            assert_eq!(ctx.round, 5);
            batch.retain(|i| i < 2);
            batch.set(1, &[7; 99]);
        }
    }

    #[test]
    fn attached_tap_sees_and_mutates_batches() {
        let mut link = Link::new(LinkId::Hop(0));
        link.attach_tap(Arc::new(parking_lot::Mutex::new(Mangle)));
        let (up, down) = memory_pair(Arc::new(link));

        up.send(Frame::Batch(batch(3, false))).expect("send");
        let Ok(Frame::Batch(got)) = down.recv() else {
            panic!("expected batch");
        };
        assert_eq!(got.count, 2, "tap truncated the batch");
        assert_eq!(&got.payload[..3], &[0, 1, 2], "entry 0 intact");
        assert_eq!(&got.payload[4..7], &[0, 0, 0], "resized entry zeroed");
        assert_eq!(up.link.tap_resized(), 1, "and counted on the link");
    }

    /// A peer process that dies under round 5's forward batch.
    struct CrashOnFive;
    impl Tap for CrashOnFive {
        fn intercept(&mut self, _ctx: &TapContext, _batch: &mut Slots<'_>) {}

        fn hangs_up(&mut self, ctx: &TapContext) -> bool {
            ctx.round == 5 && ctx.direction == Direction::Forward
        }
    }

    #[test]
    fn hanging_up_tap_ends_the_link_like_a_dead_peer() {
        let mut link = Link::new(LinkId::Hop(1));
        link.attach_tap(Arc::new(parking_lot::Mutex::new(CrashOnFive)));
        let link = Arc::new(link);
        let (up, down) = memory_pair(Arc::clone(&link));
        up.send(Frame::Bye).expect("a bye is no batch");
        let sent = up.send(Frame::Batch(batch(2, false)));
        assert!(
            matches!(sent, Err(Error::Disconnected { link }) if link == LinkId::Hop(1)),
            "the sender sees the hang-up: {sent:?}"
        );
        // The peer gets what crossed before, then end-of-stream.
        assert!(matches!(down.recv(), Ok(Frame::Bye)));
        assert!(matches!(down.recv(), Err(Error::Disconnected { .. })));
        // A dead link carries nothing more, not even into its log.
        assert!(matches!(
            up.send(Frame::Batch(batch(1, false))),
            Err(Error::Disconnected { .. })
        ));
        assert_eq!(
            link.round_traffic_log(),
            vec![((5, Direction::Forward), (2, 6))],
            "the one batch sent before the hang-up, logged once"
        );
    }

    #[test]
    fn a_completion_notice_is_not_a_transfer() {
        let link = Arc::new(Link::new(LinkId::Hop(0)));
        let (up, down) = memory_pair(link.clone());
        let notice = BatchFrame {
            stride: 0,
            width: 0,
            payload: Vec::new(),
            ..batch(0, true)
        };
        down.send(Frame::Batch(notice)).expect("send");
        assert!(matches!(up.recv(), Ok(Frame::Batch(b)) if b.count == 0));
        assert_eq!(link.round_traffic(5, Direction::Backward), (0, 0));
        assert!(link.round_traffic_log().is_empty());
        assert_eq!(link.total_bytes(), 0);
    }
}
