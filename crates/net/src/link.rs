//! Observable, tamperable links between protocol hops.
//!
//! Every hop-to-hop transfer in an in-process deployment crosses a
//! [`Link`] through [`batch_through_link`]. The link first writes the
//! batch into its **per-round log** — per round and direction, how many
//! fixed-size ciphertexts crossed, in how many bytes and how many
//! transfers — and into the per-direction totals beside it. That record
//! is the one record of link traffic: the byte counts the benches
//! report, the simulator's invariant checks and the adversary's view of
//! the link (§4.1, §6.1) all read it. Only then does the batch reach the
//! optional [`Tap`] — the in-code embodiment of the paper's network
//! adversary, who "can monitor, block, delay, or inject traffic on any
//! network link" (§2.3). A tap edits the batch frame's own arena in place, slot by
//! slot, through a [`Slots`] view: it may drop, overwrite or append
//! entries, and whatever remains is what the next hop sees. Or the tap
//! hangs the link up ([`Tap::hangs_up`]), and the transfer fails as a
//! crashed peer process fails a socket: [`Error::Disconnected`].

use crate::error::Error;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vuvuzela_wire::{BatchFrame, LinkId};

/// Direction of a transfer over a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Towards the last server (requests).
    Forward,
    /// Towards the clients (responses).
    Backward,
}

/// Metadata handed to a tap alongside each batch.
#[derive(Clone, Debug)]
pub struct TapContext {
    /// Which deployment link the batch crosses. `Display` renders the
    /// legacy diagnostic names (`"entry->server0"`, …), so log and
    /// panic messages are unchanged by the move to typed ids.
    pub link: LinkId,
    /// Protocol round the batch belongs to.
    pub round: u64,
    /// Transfer direction.
    pub direction: Direction,
}

/// One batch in flight as a tap sees it: the frame's own arena, slot by
/// slot, without its `(count, width, stride)` layout.
///
/// The view holds the one resize rule: an entry given to [`Slots::set`]
/// or [`Slots::push`] whose length is not `width` cannot be a valid
/// onion, so its slot becomes zeros, headroom included (an all-zero
/// ephemeral key is low-order and fails the peel), and counts as
/// resized. Slots the tap leaves alone are not copied. Indexing past the
/// last slot panics.
pub struct Slots<'a> {
    batch: &'a mut BatchFrame,
    /// Entries given to `set` or `push` at a length other than `width`.
    resized: u64,
}

impl Slots<'_> {
    /// Number of slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.batch.count as usize
    }

    /// Whether the batch holds no slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.batch.count == 0
    }

    /// The size every entry of this batch has.
    #[must_use]
    pub fn width(&self) -> usize {
        self.batch.width as usize
    }

    /// Slot `i`'s `width` bytes.
    #[must_use]
    pub fn get(&self, i: usize) -> &[u8] {
        let start = i * self.batch.stride as usize;
        &self.batch.payload[start..start + self.width()]
    }

    /// Keeps the slots whose index `keep` accepts, compacted in place in
    /// batch order.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let stride = self.batch.stride as usize;
        let mut kept = 0;
        for i in 0..self.len() {
            if keep(i) {
                if kept != i {
                    let from = i * stride..(i + 1) * stride;
                    self.batch.payload.copy_within(from, kept * stride);
                }
                kept += 1;
            }
        }
        self.batch.payload.truncate(kept * stride);
        self.batch.count = kept as u32;
    }

    /// Overwrites slot `i` with `entry`, or with zeros if it is resized.
    pub fn set(&mut self, i: usize, entry: &[u8]) {
        let (stride, width) = (self.batch.stride as usize, self.width());
        let slot = &mut self.batch.payload[i * stride..(i + 1) * stride];
        if entry.len() == width {
            slot[..width].copy_from_slice(entry);
        } else {
            slot.fill(0);
            self.resized += 1;
        }
    }

    /// Appends `entry` as a new slot, under [`Slots::set`]'s rule.
    pub fn push(&mut self, entry: &[u8]) {
        let payload = &mut self.batch.payload;
        payload.resize(payload.len() + self.batch.stride as usize, 0);
        self.batch.count += 1;
        self.set(self.len() - 1, entry);
    }
}

/// An adversary's active vantage point on one link.
///
/// Implementations may delete entries (blocking), stash entries for
/// later rounds (delaying), or push new entries (injection), all through
/// the [`Slots`] view of the frame's arena. Honest operation is simply
/// having no tap; a passive observer needs none either, since the link's
/// per-round log already holds what it would see.
pub trait Tap: Send {
    /// Inspect and/or edit a batch in flight.
    fn intercept(&mut self, ctx: &TapContext, batch: &mut Slots<'_>);

    /// Whether the link dies under this batch — a crashed peer process.
    /// Asked after the batch is logged and before [`Tap::intercept`]; on
    /// `true` the batch goes nowhere and [`batch_through_link`] fails
    /// with [`Error::Disconnected`]. No tap hangs up unless it says so.
    fn hangs_up(&mut self, _ctx: &TapContext) -> bool {
        false
    }
}

/// A byte-counting, tappable link between two hops.
///
/// Besides its per-direction totals ([`Link::total_bytes`]), a link
/// keeps **per-round** counts. With the streaming scheduler several
/// rounds are on the wire at once, so totals alone cannot attribute
/// traffic to a round — but the adversary of §2.3 observes per-round
/// batches either way, and the per-round log is what lets tests assert
/// that pipelined execution changes *when* bytes move, never *which
/// round* they belong to.
///
/// [`Clone`] yields a second handle on the *same* link — same totals,
/// per-round log and resize count, and the tap attached at the time —
/// which is how a deployment lends its links to in-memory endpoints
/// ([`crate::transport::memory_pair`]) for the length of a schedule.
#[derive(Clone)]
pub struct Link {
    shared: Arc<Shared>,
    tap: Option<Arc<Mutex<dyn Tap>>>,
}

/// What one round, or the link's whole life, moved over a link in one
/// direction.
#[derive(Clone, Copy, Default)]
struct RoundTraffic {
    messages: u64,
    bytes: u64,
    /// Batches that carried it: one for every honest round.
    transfers: u64,
}

/// What every handle on one link shares.
struct Shared {
    id: LinkId,
    traffic: Mutex<Traffic>,
    /// Entries a tap resized in flight (see [`Link::tap_resized`]).
    tap_resized: AtomicU64,
}

/// A link's record of what crossed it, under one lock.
#[derive(Default)]
struct Traffic {
    /// Per (round, direction), for round-attributed accounting under
    /// overlapped rounds. Bounded: entries for the oldest rounds are
    /// evicted past [`PER_ROUND_LOG_CAP`], so long-running simulations
    /// don't grow without limit.
    per_round: BTreeMap<(u64, bool), RoundTraffic>,
    /// Per direction (forward, backward), since the link was made:
    /// never evicted, so they stay exact however long the link lives.
    totals: [RoundTraffic; 2],
}

impl RoundTraffic {
    fn add(&mut self, messages: u64, bytes: u64) {
        self.messages += messages;
        self.bytes += bytes;
        self.transfers += 1;
    }
}

/// Maximum `(round, direction)` entries retained per link — far beyond
/// any in-flight window (streaming schedulers keep `chain_len` rounds in
/// flight) while keeping per-link memory constant over a process
/// lifetime.
const PER_ROUND_LOG_CAP: usize = 4096;

impl Link {
    /// Creates the link with the given typed identity.
    #[must_use]
    pub fn new(id: LinkId) -> Link {
        Link {
            shared: Arc::new(Shared {
                id,
                traffic: Mutex::new(Traffic::default()),
                tap_resized: AtomicU64::new(0),
            }),
            tap: None,
        }
    }

    /// Attaches an adversary tap, replacing any current one. At most one
    /// tap per link; a coalition multiplexes inside its own `Tap`
    /// implementation. Use [`Link::try_attach_tap`] when silently
    /// replacing an existing tap would be a harness bug.
    pub fn attach_tap(&mut self, tap: Arc<Mutex<dyn Tap>>) {
        self.tap = Some(tap);
    }

    /// Attaches an adversary tap, failing with [`Error::TapOccupied`]
    /// if one is already present — the API-honest form of what used to
    /// be an ad-hoc panic in harnesses stacking taps by mistake.
    ///
    /// # Errors
    ///
    /// [`Error::TapOccupied`] when the link already has a tap.
    pub fn try_attach_tap(&mut self, tap: Arc<Mutex<dyn Tap>>) -> Result<(), Error> {
        if self.tap.is_some() {
            return Err(Error::TapOccupied { link: self.id() });
        }
        self.tap = Some(tap);
        Ok(())
    }

    /// Removes the tap, restoring an unobserved link.
    pub fn detach_tap(&mut self) {
        self.tap = None;
    }

    /// Records one transfer of `messages` entries, `bytes` in all, in
    /// the per-round log and the direction's total.
    fn record(&self, round: u64, direction: Direction, messages: u64, bytes: u64) {
        let backward = matches!(direction, Direction::Backward);
        let mut traffic = self.shared.traffic.lock();
        traffic.totals[usize::from(backward)].add(messages, bytes);
        let per_round = &mut traffic.per_round;
        per_round
            .entry((round, backward))
            .or_default()
            .add(messages, bytes);
        while per_round.len() > PER_ROUND_LOG_CAP {
            per_round.pop_first();
        }
    }

    fn round_entry(&self, round: u64, direction: Direction) -> RoundTraffic {
        self.shared
            .traffic
            .lock()
            .per_round
            .get(&(round, matches!(direction, Direction::Backward)))
            .copied()
            .unwrap_or_default()
    }

    /// The `(messages, bytes)` this link carried for one round in one
    /// direction — stable under overlapped rounds, unlike the order in
    /// which the totals grow.
    #[must_use]
    pub fn round_traffic(&self, round: u64, direction: Direction) -> (u64, u64) {
        let entry = self.round_entry(round, direction);
        (entry.messages, entry.bytes)
    }

    /// How many batches of one round crossed this link in one direction:
    /// one for every round that crossed it honestly, zero for a round
    /// that never reached it.
    #[must_use]
    pub fn round_transfers(&self, round: u64, direction: Direction) -> u64 {
        self.round_entry(round, direction).transfers
    }

    /// A snapshot of the whole per-round log, in `(round, direction)`
    /// order: one `((round, direction), (messages, bytes))` entry per
    /// attributed transfer. Mixed-schedule equivalence tests diff two
    /// links' entire logs with this — it catches spurious extra rounds
    /// that point lookups via [`Link::round_traffic`] would miss.
    #[must_use]
    pub fn round_traffic_log(&self) -> Vec<((u64, Direction), (u64, u64))> {
        self.shared
            .traffic
            .lock()
            .per_round
            .iter()
            .map(|(&(round, backward), entry)| {
                let direction = if backward {
                    Direction::Backward
                } else {
                    Direction::Forward
                };
                ((round, direction), (entry.messages, entry.bytes))
            })
            .collect()
    }

    /// The link's typed identity.
    #[must_use]
    pub fn id(&self) -> LinkId {
        self.shared.id
    }

    /// Total bytes both ways since the link was made, every round
    /// counted, however many the per-round log has evicted.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        let totals = self.shared.traffic.lock().totals;
        totals[0].bytes + totals[1].bytes
    }

    /// Entries a tap truncated, extended or injected at a non-onion
    /// size on this link so far (see [`batch_through_link`]).
    #[must_use]
    pub fn tap_resized(&self) -> u64 {
        self.shared.tap_resized.load(Ordering::Relaxed)
    }
}

/// Runs a batch frame through a [`Link`] — the one place every in-process
/// runtime of the chain crosses a link. Records it in the link's
/// per-round log (attributed to its round and direction) and totals
/// before anything else, and — only when an adversary tap is attached — lets the tap
/// edit the frame's arena in place through a [`Slots`] view, which
/// zero-fills resized entries. Resized entries count on
/// [`Link::tap_resized`], except on the clients' request leg: entry sizes
/// there are client-controlled, so a mismatch cannot be pinned on the tap.
/// A frame without an arena (`stride == 0`: a dialing round's completion
/// notice) is not a transfer and passes unrecorded and untapped.
///
/// # Errors
///
/// [`Error::Disconnected`] naming the link when the tap hangs it up
/// ([`Tap::hangs_up`]): the batch is logged, but nothing crosses.
pub fn batch_through_link(link: &Link, batch: &mut BatchFrame) -> Result<(), Error> {
    let direction = if batch.backward {
        Direction::Backward
    } else {
        Direction::Forward
    };
    let round = batch.round.0;
    if batch.stride == 0 {
        return Ok(());
    }
    link.record(
        round,
        direction,
        u64::from(batch.count),
        u64::from(batch.count) * u64::from(batch.width),
    );
    let Some(tap) = &link.tap else {
        return Ok(());
    };
    let ctx = TapContext {
        link: link.id(),
        round,
        direction,
    };
    if tap.lock().hangs_up(&ctx) {
        return Err(Error::Disconnected { link: link.id() });
    }
    let mut slots = Slots { batch, resized: 0 };
    tap.lock().intercept(&ctx, &mut slots);
    if link.id() != LinkId::Clients || direction == Direction::Backward {
        link.shared
            .tap_resized
            .fetch_add(slots.resized, Ordering::Relaxed);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vuvuzela_wire::{RoundId, RoundType};

    /// A batch of `entries` (all one width) for `round`.
    fn frame(round: u64, direction: Direction, entries: &[&[u8]]) -> BatchFrame {
        let width = entries.first().map_or(1, |entry| entry.len());
        BatchFrame {
            link: LinkId::Hop(0),
            round: RoundId(round),
            round_type: RoundType::Conversation,
            num_drops: 0,
            backward: direction == Direction::Backward,
            stride: width as u32,
            width: width as u32,
            count: entries.len() as u32,
            payload: entries.concat(),
            trailer: Vec::new(),
        }
    }

    /// Carries `entries` across `link` and returns what arrives.
    fn carry(link: &Link, round: u64, direction: Direction, entries: &[&[u8]]) -> Vec<Vec<u8>> {
        let mut batch = frame(round, direction, entries);
        batch_through_link(link, &mut batch).expect("no tap here hangs up");
        let width = batch.width as usize;
        batch.payload.chunks(width).map(<[u8]>::to_vec).collect()
    }

    #[test]
    fn untapped_link_passes_through_and_meters() {
        let link = Link::new(LinkId::Hop(0));
        let out = carry(&link, 0, Direction::Forward, &[&[1; 10], &[2; 10]]);
        assert_eq!(out, vec![vec![1u8; 10], vec![2u8; 10]]);
        assert_eq!(link.round_traffic(0, Direction::Forward), (2, 20));
        assert_eq!(link.round_traffic(0, Direction::Backward), (0, 0));
        assert_eq!(link.total_bytes(), 20);
    }

    #[test]
    fn per_round_accounting_attributes_overlapped_rounds() {
        // Two rounds interleaved on the wire (as the streaming scheduler
        // produces) must still be attributable round by round.
        let link = Link::new(LinkId::Hop(0));
        link.record(0, Direction::Forward, 1, 10);
        link.record(1, Direction::Forward, 2, 40);
        link.record(0, Direction::Backward, 1, 5);
        assert_eq!(link.round_traffic(0, Direction::Forward), (1, 10));
        assert_eq!(link.round_traffic(1, Direction::Forward), (2, 40));
        assert_eq!(link.round_traffic(0, Direction::Backward), (1, 5));
        assert_eq!(link.round_traffic(1, Direction::Backward), (0, 0));
        assert_eq!(link.round_transfers(1, Direction::Forward), 1);
        assert_eq!(link.round_transfers(1, Direction::Backward), 0);
        assert_eq!(link.total_bytes(), 55);
        assert_eq!(
            link.round_traffic_log(),
            vec![
                ((0, Direction::Forward), (1, 10)),
                ((0, Direction::Backward), (1, 5)),
                ((1, Direction::Forward), (2, 40)),
            ]
        );
    }

    #[test]
    fn totals_outlive_the_per_round_log() {
        // More rounds than the log keeps: the oldest rounds' entries go,
        // their bytes stay in the totals.
        let link = Link::new(LinkId::Hop(0));
        let rounds = PER_ROUND_LOG_CAP as u64 + 10;
        for round in 0..rounds {
            link.record(round, Direction::Forward, 2, 20);
            link.record(round, Direction::Backward, 2, 6);
        }
        assert_eq!(link.round_traffic_log().len(), PER_ROUND_LOG_CAP);
        assert_eq!(link.round_traffic(0, Direction::Forward), (0, 0));
        assert_eq!(link.total_bytes(), rounds * 26);
    }

    /// A blocking tap: models "block traffic from all clients except Alice
    /// and Bob" (§2.1).
    struct KeepFirstN(usize);
    impl Tap for KeepFirstN {
        fn intercept(&mut self, _ctx: &TapContext, batch: &mut Slots<'_>) {
            batch.retain(|i| i < self.0);
        }
    }

    #[test]
    fn blocking_tap_drops_traffic() {
        let mut link = Link::new(LinkId::Clients);
        link.attach_tap(Arc::new(Mutex::new(KeepFirstN(1))));
        let out = carry(&link, 0, Direction::Forward, &[&[1], &[2], &[3]]);
        assert_eq!(out, vec![vec![1]]);
        // Recording happens before interference: the adversary cannot
        // hide traffic from our own accounting.
        assert_eq!(link.round_traffic(0, Direction::Forward), (3, 3));
        assert_eq!(link.total_bytes(), 3);
    }

    /// An injecting tap: models request injection.
    struct Inject(Vec<u8>);
    impl Tap for Inject {
        fn intercept(&mut self, _ctx: &TapContext, batch: &mut Slots<'_>) {
            batch.push(&self.0);
        }
    }

    #[test]
    fn injecting_tap_adds_traffic() {
        let mut link = Link::new(LinkId::Cdn);
        link.attach_tap(Arc::new(Mutex::new(Inject(vec![9, 9]))));
        let out = carry(&link, 0, Direction::Forward, &[&[1, 1]]);
        assert_eq!(out, vec![vec![1, 1], vec![9, 9]]);
    }

    /// A crashed peer: hangs up under every batch, and fails the test if
    /// a batch still reaches `intercept`.
    struct HangUp;
    impl Tap for HangUp {
        fn intercept(&mut self, _ctx: &TapContext, _batch: &mut Slots<'_>) {
            panic!("a hung-up batch is not intercepted");
        }

        fn hangs_up(&mut self, _ctx: &TapContext) -> bool {
            true
        }
    }

    #[test]
    fn hanging_up_tap_disconnects_after_logging() {
        let mut link = Link::new(LinkId::Hop(2));
        link.attach_tap(Arc::new(Mutex::new(HangUp)));
        let mut batch = frame(4, Direction::Forward, &[&[1, 1], &[2, 2]]);
        let err = batch_through_link(&link, &mut batch).expect_err("the tap hangs up");
        assert!(matches!(err, Error::Disconnected { link } if link == LinkId::Hop(2)));
        // The adversary saw the batch before the link died.
        assert_eq!(link.round_traffic(4, Direction::Forward), (2, 4));
    }

    #[test]
    fn detach_restores_passthrough() {
        let mut link = Link::new(LinkId::Cdn);
        link.attach_tap(Arc::new(Mutex::new(KeepFirstN(0))));
        assert!(carry(&link, 0, Direction::Forward, &[&[1]]).is_empty());
        link.detach_tap();
        assert_eq!(carry(&link, 1, Direction::Forward, &[&[1]]), vec![vec![1]]);
    }
}
