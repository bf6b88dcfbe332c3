//! Demuxed receive: every link a node terminates, one event queue.
//!
//! The windowed (pipelined) wire mode interleaves rounds on every
//! link, and a node terminating two blocking links (its upstream and
//! downstream neighbours) cannot `recv` on either without risking a
//! deadlock: a frame it needs next may be waiting on the *other*
//! socket while both peers block on sends. The fix is the classic
//! reactor shape scaled down to std threads: every [`Transport`]
//! delivers what it receives ([`Transport::deliver_to`]) — round tags
//! and all — onto one unbounded mpsc queue the node drains; a socket
//! does so from a dedicated reader thread that does nothing else, an
//! in-memory link from its peer's `send`. Every socket's receive side
//! is therefore *always* drained, so a blocking send anywhere in the
//! chain eventually makes progress, and the admission window (at most
//! `chain_len` rounds in flight) bounds how much the queues can hold.
//! Delivery from a link stops after its `Bye` (each direction of each
//! link carries exactly one, see the wire crate's framing rules) or
//! the error that ended it.
//!
//! Dropping a [`Demux`] hangs up every link it reads
//! ([`Transport::hang_up`]) and then joins the reader threads. The
//! hang-up makes a node that stops — `Bye`s exchanged, an error, a
//! panic unwinding — visible to its neighbours as
//! [`Error::Disconnected`] instead of a silence they would wait on
//! forever, and it makes the join prompt, because it fails a blocked
//! `recv`. A node that has returned has left no thread behind.

use crate::error::Error;
use crate::transport::Transport;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use vuvuzela_wire::Frame;

/// One frame (or terminal error) pulled off one of a node's links.
pub struct DemuxEvent<T> {
    /// The caller's tag for the link the event arrived on.
    pub from: T,
    /// The frame, or the error that ended the link. After an `Err`
    /// event no further events arrive from that link.
    pub event: Result<Frame, Error>,
}

/// Merges any number of transports into one event stream, and hangs
/// them all up when dropped.
pub struct Demux<T> {
    // Senders live only in the links' sinks, so `recv` observes hangup
    // exactly when every link has delivered its `Bye` or its error.
    rx: Receiver<DemuxEvent<T>>,
    links: Vec<Reading>,
}

/// A link being read and, where its backend needs one, the reader thread.
type Reading = (Arc<dyn Transport>, Option<JoinHandle<()>>);

impl<T: Copy + Send + 'static> Demux<T> {
    /// Starts delivery from every `(tag, transport)` pair: frames until
    /// the link yields `Bye` or an error, that event included.
    #[must_use]
    pub fn new(links: impl IntoIterator<Item = (T, Arc<dyn Transport>)>) -> Demux<T> {
        let (tx, rx) = channel();
        let links = links
            .into_iter()
            .map(|(from, transport)| {
                let tx = tx.clone();
                let reader = Arc::clone(&transport).deliver_to(Box::new(move |event| {
                    let done = !matches!(event, Ok(ref frame) if !matches!(frame, Frame::Bye));
                    tx.send(DemuxEvent { from, event }).is_err() || done
                }));
                (transport, reader)
            })
            .collect();
        Demux { rx, links }
    }

    /// The next event from any link, blocking until one arrives.
    /// `None` means every link saw its `Bye` or failed, and the queue is
    /// drained.
    pub fn recv(&self) -> Option<DemuxEvent<T>> {
        self.rx.recv().ok()
    }
}

impl<T> Drop for Demux<T> {
    fn drop(&mut self) {
        for (link, _) in &self.links {
            link.hang_up();
        }
        for reader in self.links.drain(..).filter_map(|(_, reader)| reader) {
            // A reader only forwards; it has nothing to unwind with.
            let _ = reader.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::memory_pair;
    use crate::Link;
    use vuvuzela_wire::LinkId;

    #[test]
    fn merges_two_links_and_ends_on_byes() {
        let (a_near, a_far) = memory_pair(Arc::new(Link::new(LinkId::Hop(0))));
        let (b_near, b_far) = memory_pair(Arc::new(Link::new(LinkId::Hop(1))));
        let demux = Demux::new([
            (0u8, Arc::new(a_near) as Arc<dyn Transport>),
            (1u8, Arc::new(b_near) as Arc<dyn Transport>),
        ]);
        b_far.send(Frame::Bye).expect("bye b");
        a_far.send(Frame::Bye).expect("bye a");
        let mut tags = Vec::new();
        while let Some(ev) = demux.recv() {
            assert!(matches!(ev.event, Ok(Frame::Bye)));
            tags.push(ev.from);
        }
        tags.sort_unstable();
        assert_eq!(tags, vec![0, 1], "one bye per link, then hangup");
    }

    #[test]
    fn dropped_peer_surfaces_one_error_then_hangup() {
        let (near, far) = memory_pair(Arc::new(Link::new(LinkId::Clients)));
        let demux = Demux::new([((), Arc::new(near) as Arc<dyn Transport>)]);
        drop(far);
        let ev = demux.recv().expect("error event");
        assert!(matches!(ev.event, Err(Error::Disconnected { .. })));
        assert!(demux.recv().is_none(), "reader exits after its error");
    }

    #[test]
    fn dropping_the_demux_hangs_up_without_waiting_for_the_peer() {
        // `far` stays open and silent: the drop must neither block on
        // it nor leave it guessing.
        let (near, far) = memory_pair(Arc::new(Link::new(LinkId::Hop(2))));
        let demux = Demux::new([((), Arc::new(near) as Arc<dyn Transport>)]);
        drop(demux);
        assert!(
            matches!(far.recv(), Err(Error::Disconnected { link }) if link == LinkId::Hop(2)),
            "the peer of a dropped demux sees the hang-up"
        );
    }
}
