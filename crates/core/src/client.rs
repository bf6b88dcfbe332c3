//! One conversation slot's state (paper Algorithm 1, §3.1) and the
//! client's errors. The client itself is
//! [`ClientCohort`](crate::cohort::ClientCohort); every member's active
//! slot holds one `Conversation`.
//!
//! Reliability: Vuvuzela "deals with these issues through retransmission
//! at a higher level (in the client itself)" (§3.1). The framing in
//! [`vuvuzela_wire::message`] carries sequence numbers and cumulative
//! acks; unacknowledged messages are re-sent after
//! [`crate::config::SystemConfig::retransmit_after`] rounds.

use std::collections::{BTreeMap, VecDeque};
use vuvuzela_crypto::x25519::PublicKey;
use vuvuzela_wire::conversation::ConversationKeys;
use vuvuzela_wire::message::{FramedMessage, MessageKind, MAX_BODY_LEN};

/// Client-facing errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientError {
    /// All conversation slots are occupied (§5: "users can have a fixed
    /// number of conversations per round, so a user may end one
    /// conversation to make room for another").
    AllSlotsBusy,
    /// No active conversation with the given partner.
    NoConversationWith,
    /// Message body exceeds [`vuvuzela_wire::message::MAX_BODY_LEN`];
    /// split it across rounds.
    MessageTooLong {
        /// The limit that was exceeded.
        limit: usize,
    },
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::AllSlotsBusy => write!(f, "all conversation slots are busy"),
            ClientError::NoConversationWith => write!(f, "no active conversation with that user"),
            ClientError::MessageTooLong { limit } => {
                write!(f, "message exceeds the {limit}-byte per-round limit")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// An in-flight (sent, unacknowledged) data message.
#[derive(Clone, Debug)]
pub(crate) struct Inflight {
    pub(crate) body: Vec<u8>,
    pub(crate) last_sent_round: u64,
}

/// Delivered messages, in order, in one byte arena. A long-lived client
/// receives about one message a round and keeps them all; as a
/// `Vec<u8>` apiece, bodies of a few dozen bytes each cost a heap block
/// and a 24-byte header, which at cohort scale is most of what a
/// process's memory grows by per round.
#[derive(Default)]
pub(crate) struct MessageLog {
    bytes: Vec<u8>,
    /// Length of each message, in order: 2 bytes a message, where an
    /// end offset would take 8.
    lens: Vec<u16>,
}

// A delivered body is one frame's, so its length always fits.
const _: () = assert!(MAX_BODY_LEN <= u16::MAX as usize);

impl MessageLog {
    fn push(&mut self, body: &[u8]) {
        let len = u16::try_from(body.len()).expect("a delivered body fits in one frame");
        reserve_an_eighth(&mut self.bytes, body.len());
        reserve_an_eighth(&mut self.lens, 1);
        self.bytes.extend_from_slice(body);
        self.lens.push(len);
    }

    /// How many messages the log holds.
    pub(crate) fn len(&self) -> usize {
        self.lens.len()
    }

    /// The messages, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.since(0)
    }

    /// The messages after the first `count`, oldest first.
    pub(crate) fn since(&self, count: usize) -> impl Iterator<Item = &[u8]> {
        let lens = &self.lens[count..];
        let mut start = self.bytes.len() - lens.iter().map(|&len| usize::from(len)).sum::<usize>();
        lens.iter().map(move |&len| {
            let body = &self.bytes[start..start + usize::from(len)];
            start += body.len();
            body
        })
    }

    /// The messages as owned vectors, oldest first.
    pub(crate) fn to_vecs(&self) -> Vec<Vec<u8>> {
        self.iter().map(<[u8]>::to_vec).collect()
    }
}

/// Makes room for `extra` more elements, growing a full vector by an
/// eighth of its length (or by `extra` if that is more) where `Vec`
/// would double it. A cohort's logs all fill up in the same rounds, so
/// doubling them moves the whole process's memory up by a third in one
/// step; this way it follows what the logs hold.
fn reserve_an_eighth<T>(v: &mut Vec<T>, extra: usize) {
    if v.capacity() - v.len() < extra {
        v.reserve_exact(extra.max(v.len() / 8));
    }
}

/// One active conversation's reliability state.
pub(crate) struct Conversation {
    pub(crate) peer: PublicKey,
    /// `None` from the moment the conversation is entered until the
    /// cohort's next batched key agreement derives them (see
    /// [`crate::cohort`]): before then there is nothing to read.
    pub(crate) keys: Option<ConversationKeys>,
    /// Next sequence number to assign to a fresh outgoing message.
    next_seq: u64,
    /// Bodies queued by the user but not yet assigned a round.
    pub(crate) send_queue: VecDeque<Vec<u8>>,
    /// Sent but unacknowledged messages, keyed by sequence number.
    inflight: BTreeMap<u64, Inflight>,
    /// The next sequence number expected from the peer (everything below
    /// has been delivered); doubles as the cumulative ack we send.
    next_expected: u64,
    /// Out-of-order arrivals waiting for the gap to fill.
    out_of_order: BTreeMap<u64, Vec<u8>>,
    /// In-order messages delivered to the user.
    pub(crate) delivered: MessageLog,
}

/// How many unacknowledged messages a conversation may have in flight
/// ("Clients can pipeline conversation messages", §8.3).
pub(crate) const PIPELINE_WINDOW: usize = 4;

impl Conversation {
    /// A conversation with `peer` whose keys are yet to be agreed.
    pub(crate) fn new(peer: PublicKey) -> Conversation {
        Conversation {
            peer,
            keys: None,
            next_seq: 0,
            send_queue: VecDeque::new(),
            inflight: BTreeMap::new(),
            next_expected: 0,
            out_of_order: BTreeMap::new(),
            delivered: MessageLog::default(),
        }
    }

    /// Picks the frame to send this round: retransmission first, then a
    /// fresh message ([`PIPELINE_WINDOW`] permitting), else a keep-alive.
    pub(crate) fn next_frame(&mut self, round: u64, retransmit_after: u64) -> FramedMessage {
        // Retransmit the oldest overdue in-flight message.
        let overdue = self
            .inflight
            .iter()
            .find(|(_, m)| round >= m.last_sent_round + retransmit_after)
            .map(|(&seq, m)| (seq, m.body.clone()));
        if let Some((seq, body)) = overdue {
            self.inflight
                .get_mut(&seq)
                .expect("just found")
                .last_sent_round = round;
            return FramedMessage::data(seq, self.next_expected, &body);
        }
        // Fresh data message, if the pipeline window allows.
        if self.inflight.len() < PIPELINE_WINDOW {
            if let Some(body) = self.send_queue.pop_front() {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.inflight.insert(
                    seq,
                    Inflight {
                        body: body.clone(),
                        last_sent_round: round,
                    },
                );
                return FramedMessage::data(seq, self.next_expected, &body);
            }
        }
        FramedMessage::keep_alive(self.next_seq, self.next_expected)
    }

    /// Processes a frame received from the peer.
    pub(crate) fn receive_frame(&mut self, frame: FramedMessage) {
        // Cumulative ack: drop everything the peer has seen.
        let acked: Vec<u64> = self
            .inflight
            .range(..frame.ack)
            .map(|(&seq, _)| seq)
            .collect();
        for seq in acked {
            self.inflight.remove(&seq);
        }

        if frame.kind == MessageKind::Data {
            match frame.seq.cmp(&self.next_expected) {
                core::cmp::Ordering::Equal => {
                    self.delivered.push(&frame.body);
                    self.next_expected += 1;
                    // Drain any consecutive out-of-order arrivals.
                    while let Some(body) = self.out_of_order.remove(&self.next_expected) {
                        self.delivered.push(&body);
                        self.next_expected += 1;
                    }
                }
                core::cmp::Ordering::Greater => {
                    self.out_of_order.insert(frame.seq, frame.body);
                }
                core::cmp::Ordering::Less => {
                    // Duplicate of an already-delivered message; ignore.
                }
            }
        }
    }

    /// Whether this conversation holds the keys that the scalar
    /// reference, [`ConversationKeys::derive`], gives the endpoint with
    /// `my_secret` and `my_public` against its peer.
    #[cfg(test)]
    pub(crate) fn keyed_as_derived(
        &self,
        my_secret: &vuvuzela_crypto::x25519::SecretKey,
        my_public: &PublicKey,
    ) -> bool {
        let want = ConversationKeys::derive(my_secret, my_public, &self.peer);
        self.keys.as_ref().is_some_and(|keys| {
            keys.role() == want.role()
                && keys.drop_id(0) == want.drop_id(0)
                && keys.seal_message(0, &[]) == want.seal_message(0, &[])
        })
    }
}

/// The client's behaviour, driven through `ClientCohort`: slot
/// management, dialing, invitations and reply bookkeeping per member,
/// and each conversation's frame selection and acks.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::cohort::ClientCohort;
    use crate::config::SystemConfig;
    use crate::roundbuf::RoundBuffer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vuvuzela_crypto::onion;
    use vuvuzela_crypto::x25519::Keypair;
    use vuvuzela_dp::{NoiseDistribution, NoiseMode};
    use vuvuzela_wire::deaddrop::InvitationDropIndex;
    use vuvuzela_wire::dialing::{DialRequest, SealedInvitation};
    use vuvuzela_wire::message::MAX_BODY_LEN;

    const ALICE: usize = 0;
    const BOB: usize = 1;
    const CAROL: usize = 2;
    const DAVE: usize = 3;

    fn cfg(slots: usize) -> SystemConfig {
        SystemConfig {
            chain_len: 2,
            conversation_noise: NoiseDistribution::new(1.0, 1.0),
            dialing_noise: NoiseDistribution::new(1.0, 1.0),
            noise_mode: NoiseMode::Off,
            workers: 1,
            conversation_slots: slots,
            retransmit_after: 2,
            exchange_shards: 4,
        }
    }

    /// Alice, Bob, Carol and Dave, `slots` conversation slots each, for
    /// a chain of two servers, whose keypairs come back too.
    fn cohort(seed: u64, slots: usize) -> (ClientCohort, Vec<Keypair>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let servers: Vec<Keypair> = (0..2).map(|_| Keypair::generate(&mut rng)).collect();
        let pks: Vec<PublicKey> = servers.iter().map(|s| s.public).collect();
        let mut cohort = ClientCohort::with_own_tables(cfg(slots), seed, &pks);
        cohort.join(4);
        (cohort, servers)
    }

    /// The `slot`-th request of a dialing round, peeled down to its
    /// plaintext with the servers' keys.
    fn opened(buf: &RoundBuffer, slot: usize, round: u64, servers: &[Keypair]) -> DialRequest {
        let mut layer = buf.slot(slot).to_vec();
        for server in servers {
            layer = onion::peel(&server.secret, &server.public, round, &layer)
                .expect("peels")
                .1;
        }
        DialRequest::decode(&layer).expect("plain request")
    }

    /// A fresh conversation with a random peer (its reliability state
    /// only: the frame logic never reads the keys).
    fn conversation(seed: u64) -> Conversation {
        let mut rng = StdRng::seed_from_u64(seed);
        Conversation::new(Keypair::generate(&mut rng).public)
    }

    #[test]
    fn slot_management() {
        let (mut c, _) = cohort(1, 2);
        let (bob, carol, dave) = (c.public_key(BOB), c.public_key(CAROL), c.public_key(DAVE));

        c.start_conversation(ALICE, bob).expect("slot 0");
        // Idempotent for the same peer.
        assert_eq!(c.start_conversation(ALICE, bob), Ok(()));
        c.start_conversation(ALICE, carol).expect("slot 1");
        assert_eq!(c.peers(ALICE), vec![bob, carol]);
        assert_eq!(
            c.start_conversation(ALICE, dave),
            Err(ClientError::AllSlotsBusy)
        );
        c.end_conversation(ALICE, &bob).expect("end");
        assert_eq!(c.start_conversation(ALICE, dave), Ok(()));
        assert_eq!(c.peers(ALICE), vec![dave, carol], "dave took slot 0");
        assert_eq!(
            c.end_conversation(ALICE, &bob),
            Err(ClientError::NoConversationWith)
        );
    }

    #[test]
    fn queue_message_validation() {
        let (mut c, _) = cohort(5, 1);
        let bob = c.public_key(BOB);
        assert_eq!(
            c.queue_message(ALICE, &bob, b"hi"),
            Err(ClientError::NoConversationWith)
        );
        c.start_conversation(ALICE, bob).expect("start");
        assert!(c.queue_message(ALICE, &bob, b"hi").is_ok());
        assert_eq!(
            c.queue_message(ALICE, &bob, &vec![0u8; MAX_BODY_LEN + 1]),
            Err(ClientError::MessageTooLong {
                limit: MAX_BODY_LEN
            })
        );
    }

    #[test]
    fn requests_are_uniform_regardless_of_activity() {
        // Idle members and talking ones emit identically shaped
        // requests: one full-width onion each.
        let (mut c, servers) = cohort(7, 1);
        let bob = c.public_key(BOB);
        c.start_conversation(ALICE, bob).expect("start");
        c.queue_message(ALICE, &bob, b"secret").expect("queue");

        let buf = c.build_conversation_round(0);
        assert_eq!(buf.len(), 4);
        let width = onion::wrapped_len(vuvuzela_wire::EXCHANGE_REQUEST_LEN, servers.len());
        assert_eq!((buf.width(), buf.stride()), (width, width));
    }

    #[test]
    fn frame_selection_prefers_retransmission() {
        let mut conv = conversation(11);
        conv.send_queue.push_back(b"first".to_vec());
        // Round 0: sends "first" (seq 0).
        let f0 = conv.next_frame(0, 2);
        assert_eq!(f0.kind, MessageKind::Data);
        assert_eq!(f0.seq, 0);
        // Round 1: nothing new, not yet overdue → keep-alive.
        let f1 = conv.next_frame(1, 2);
        assert_eq!(f1.kind, MessageKind::KeepAlive);
        // Round 2: overdue → retransmit seq 0.
        let f2 = conv.next_frame(2, 2);
        assert_eq!(f2.kind, MessageKind::Data);
        assert_eq!(f2.seq, 0);
        assert_eq!(f2.body, b"first");
    }

    #[test]
    fn receive_frame_handles_order_and_dups() {
        let mut conv = conversation(13);
        // Out of order: seq 1 before seq 0.
        conv.receive_frame(FramedMessage::data(1, 0, b"second"));
        assert_eq!(conv.delivered.iter().count(), 0);
        conv.receive_frame(FramedMessage::data(0, 0, b"first"));
        let both = vec![b"first".to_vec(), b"second".to_vec()];
        assert_eq!(conv.delivered.to_vecs(), both);
        // Duplicate ignored.
        conv.receive_frame(FramedMessage::data(0, 0, b"first"));
        assert_eq!(conv.delivered.to_vecs(), both);
        assert_eq!(conv.next_expected, 2);
    }

    #[test]
    fn acks_clear_inflight() {
        let mut conv = conversation(15);
        conv.send_queue.push_back(b"a".to_vec());
        conv.send_queue.push_back(b"b".to_vec());
        let _ = conv.next_frame(0, 2);
        let _ = conv.next_frame(1, 2);
        assert_eq!(conv.inflight.len(), 2);
        // Peer acks everything below 2.
        conv.receive_frame(FramedMessage::keep_alive(0, 2));
        assert!(conv.inflight.is_empty());
        assert!(conv.send_queue.is_empty());
    }

    #[test]
    fn dialing_queue_and_noop() {
        let (mut c, servers) = cohort(17, 1);
        let bob = c.public_key(BOB);
        c.dial(ALICE, bob).expect("dial");
        // One queued invitation, then no-ops; all requests one size.
        let r1 = c.build_dialing_round(0, 4);
        let r2 = c.build_dialing_round(1, 4);
        assert_eq!((r1.len(), r1.width()), (r2.len(), r2.width()));
        assert!(!opened(&r1, ALICE, 0, &servers).drop.is_noop());
        assert!(opened(&r2, ALICE, 1, &servers).drop.is_noop());
        // The dial also preemptively started the conversation.
        assert_eq!(c.peers(ALICE), vec![bob]);
    }

    #[test]
    fn invitation_scan_and_accept() {
        let mut rng = StdRng::seed_from_u64(20);
        let (mut c, _) = cohort(21, 1);
        let (alice, bob) = (c.public_key(ALICE), c.public_key(BOB));

        let drop_contents = vec![
            SealedInvitation::noise(&mut rng),
            SealedInvitation::seal(&mut rng, &alice, &bob),
            SealedInvitation::noise(&mut rng),
        ];
        let found = c.scan_invitation_drop(BOB, &drop_contents);
        assert_eq!(found, vec![alice]);
        assert_eq!(c.pending_invitations(BOB), &[alice]);
        assert!(c.pending_invitations(CAROL).is_empty());
        c.accept_invitation(BOB, alice).expect("accept");
        assert!(c.pending_invitations(BOB).is_empty());
        assert_eq!(c.peers(BOB), vec![alice]);
    }

    #[test]
    fn accept_with_busy_slots_keeps_the_invitation() {
        // A member with no free slot cannot accept yet, but the
        // invitation waits: once a slot frees up, accepting it works.
        let mut rng = StdRng::seed_from_u64(25);
        let (mut c, _) = cohort(27, 1);
        let (alice, carol) = (c.public_key(ALICE), c.public_key(CAROL));
        c.start_conversation(BOB, carol).expect("bob's one slot");
        c.scan_invitation_drop(
            BOB,
            &[SealedInvitation::seal(&mut rng, &alice, &c.public_key(BOB))],
        );
        assert_eq!(
            c.accept_invitation(BOB, alice),
            Err(ClientError::AllSlotsBusy)
        );
        assert_eq!(c.pending_invitations(BOB), &[alice], "still pending");
        c.end_conversation(BOB, &carol).expect("end");
        c.accept_invitation(BOB, alice).expect("accept");
        assert!(c.pending_invitations(BOB).is_empty());
        assert_eq!(c.peers(BOB), vec![alice]);
    }

    #[test]
    fn decline_invitation_discards() {
        let mut rng = StdRng::seed_from_u64(23);
        let (mut c, _) = cohort(24, 1);
        let (alice, bob) = (c.public_key(ALICE), c.public_key(BOB));
        let inv = SealedInvitation::seal(&mut rng, &alice, &bob);
        c.scan_invitation_drop(BOB, &[inv]);
        c.decline_invitation(BOB, &alice);
        assert!(c.pending_invitations(BOB).is_empty());
        assert!(c.peers(BOB).is_empty());
    }

    #[test]
    fn expire_pending_bounds_memory() {
        let (mut c, _) = cohort(26, 1);
        for round in 0..10 {
            let _ = c.build_conversation_round(round);
        }
        assert_eq!(c.pending_rounds(), 10);
        c.expire_pending(8);
        assert_eq!(c.pending_rounds(), 2);
    }

    #[test]
    fn replies_for_unknown_rounds_are_ignored() {
        let (mut c, _) = cohort(28, 1);
        c.handle_conversation_replies(99, &[vec![0u8; 300]]);
        // No panic, no state change.
        assert_eq!(c.pending_rounds(), 0);
    }

    #[test]
    fn queue_message_to_ended_conversation_fails() {
        let (mut c, _) = cohort(30, 1);
        let bob = c.public_key(BOB);
        c.start_conversation(ALICE, bob).expect("start");
        c.queue_message(ALICE, &bob, b"hi").expect("queue");
        c.end_conversation(ALICE, &bob).expect("end");
        // The slot is gone: further queues are rejected, not silently
        // dropped into a dead send queue.
        assert_eq!(
            c.queue_message(ALICE, &bob, b"too late"),
            Err(ClientError::NoConversationWith)
        );
        assert!(c.delivered_from(ALICE, &bob).is_empty());
        assert!(c.peers(ALICE).is_empty());
        // Restarting yields a fresh conversation with no stale state.
        c.start_conversation(ALICE, bob).expect("restart");
        assert!(c.queue_message(ALICE, &bob, b"fresh").is_ok());
    }

    #[test]
    fn start_conversation_twice_occupies_one_slot() {
        // Starting twice with the same peer is idempotent — it must not
        // burn a second slot, and one `end` fully clears it.
        let (mut c, _) = cohort(32, 2);
        let (bob, carol) = (c.public_key(BOB), c.public_key(CAROL));
        assert_eq!(c.start_conversation(ALICE, bob), Ok(()));
        assert_eq!(c.start_conversation(ALICE, bob), Ok(()));
        assert_eq!(c.peers(ALICE), vec![bob]);
        // The second slot is still free for Carol.
        assert_eq!(c.start_conversation(ALICE, carol), Ok(()));
        c.end_conversation(ALICE, &bob).expect("end");
        // No phantom second entry for Bob.
        assert_eq!(
            c.end_conversation(ALICE, &bob),
            Err(ClientError::NoConversationWith)
        );
        assert_eq!(c.peers(ALICE), vec![carol]);
    }

    #[test]
    fn redial_after_missed_dialing_round_resends_invitation() {
        // A caller whose invitation the callee never downloaded (the
        // drop was overwritten by a later dialing round) re-dials: the
        // same-peer slot is reused without error and a second *real*
        // invitation goes out. Peeled with the servers' keys, the dial
        // request is plaintext, so the test can tell real invitations
        // from no-op writes.
        let (mut c, servers) = cohort(36, 1);
        let (alice, bob) = (c.public_key(ALICE), c.public_key(BOB));
        let target = InvitationDropIndex::for_recipient(&bob, 4);

        c.dial(ALICE, bob).expect("first dial");
        let r0 = opened(&c.build_dialing_round(0, 4), ALICE, 0, &servers);
        assert_eq!(r0.drop, target, "first dial sends a real invitation");
        assert_eq!(
            c.scan_invitation_drop(BOB, &[r0.invitation]),
            vec![alice],
            "the invitation opens for the callee"
        );

        // Nothing queued: the next dialing round is a no-op write.
        let r1 = opened(&c.build_dialing_round(1, 4), ALICE, 1, &servers);
        assert!(
            r1.drop.is_noop(),
            "idle dialing rounds write to the no-op drop"
        );

        // Re-dial the same peer: the occupied slot is *not* an error
        // (the conversation is already entered) and a fresh real
        // invitation is queued.
        c.dial(ALICE, bob).expect("re-dial same peer");
        assert_eq!(c.peers(ALICE), vec![bob]);
        let r2 = opened(&c.build_dialing_round(2, 4), ALICE, 2, &servers);
        assert_eq!(r2.drop, target, "re-dial sends a second real invitation");
        assert_eq!(c.scan_invitation_drop(BOB, &[r2.invitation]), vec![alice]);
    }

    #[test]
    fn dial_with_busy_slots_queues_nothing() {
        let (mut c, servers) = cohort(39, 1);
        let (bob, carol) = (c.public_key(BOB), c.public_key(CAROL));
        c.dial(ALICE, bob).expect("dial bob");
        // The only slot is Bob's: dialing Carol fails...
        assert_eq!(c.dial(ALICE, carol), Err(ClientError::AllSlotsBusy));
        // ...and must not have queued an invitation for her: after
        // Bob's invitation drains, the next request is a no-op.
        let r0 = opened(&c.build_dialing_round(0, 2), ALICE, 0, &servers);
        assert!(!r0.drop.is_noop(), "bob's invitation goes first");
        let r1 = opened(&c.build_dialing_round(1, 2), ALICE, 1, &servers);
        assert!(r1.drop.is_noop(), "no phantom invitation for carol");
    }
}
