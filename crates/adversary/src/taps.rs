//! Reusable tampering taps for [`vuvuzela_net::link::Link`]s.
//!
//! They exercise the §2.3 active adversary, who "can monitor, block,
//! delay, or inject traffic on any network link": [`DropFraction`]
//! discards, [`DelayBatch`] holds a round's batch and releases it merged
//! into a later round, [`ReplayBatch`] re-sends a copied batch, and
//! [`InjectOnions`] pushes well-formed garbage. Monitoring needs no tap:
//! a link records every batch in its own per-round log before its tap
//! runs, and that log is what a passive observer of the link sees. Every
//! tampering tap is link-addressable (a tap is attached to one
//! [`vuvuzela_net::Link`]) and round-addressable (via a [`RoundWindow`]
//! or explicit round fields). Each edits the frame's arena in place
//! ([`Slots`]); held entries are the tap's own copies.

use vuvuzela_net::link::{Slots, Tap, TapContext};

/// An inclusive round range restricting when a tampering tap acts —
/// the "round-addressable" half of the taps' addressing contract (the
/// link they are attached to is the other half).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundWindow {
    /// First round (inclusive) the tap interferes with.
    pub first: u64,
    /// Last round (inclusive) the tap interferes with.
    pub last: u64,
}

impl RoundWindow {
    /// Every round.
    pub const ALL: RoundWindow = RoundWindow {
        first: 0,
        last: u64::MAX,
    };

    /// Exactly one round.
    #[must_use]
    pub fn only(round: u64) -> RoundWindow {
        RoundWindow {
            first: round,
            last: round,
        }
    }

    /// Every round from `round` on.
    #[must_use]
    pub fn from(round: u64) -> RoundWindow {
        RoundWindow {
            first: round,
            last: u64::MAX,
        }
    }

    /// Whether `round` falls inside the window.
    #[must_use]
    pub fn contains(&self, round: u64) -> bool {
        (self.first..=self.last).contains(&round)
    }
}

/// Keeps only the requests at the given batch indices — the §4.2
/// disruption attack's "throws away all requests except those from Alice
/// and Bob". Meaningful on the clients→entry or entry→server-0 link,
/// where batch order still identifies clients. Kept entries stay in
/// batch order; the filter runs in place without copying any onion out.
pub struct KeepOnly {
    /// Indices (into the forward batch) to let through.
    pub indices: Vec<usize>,
    /// Restrict interference to this round, passing other rounds
    /// untouched; `None` applies every round.
    pub only_round: Option<u64>,
}

impl Tap for KeepOnly {
    fn intercept(&mut self, ctx: &TapContext, batch: &mut Slots<'_>) {
        if !matches!(ctx.direction, vuvuzela_net::Direction::Forward) {
            return;
        }
        if let Some(round) = self.only_round {
            if ctx.round != round {
                return;
            }
        }
        batch.retain(|index| self.indices.contains(&index));
    }
}

/// Blocks every request from one client index — "block network traffic
/// from Alice" (§2.1): the victim's entry is removed from the forward
/// batch.
pub struct BlockClient {
    /// The batch index of the victim on the tapped link.
    pub index: usize,
    /// Apply only from this round on (`None` = always).
    pub from_round: Option<u64>,
}

impl Tap for BlockClient {
    fn intercept(&mut self, ctx: &TapContext, batch: &mut Slots<'_>) {
        if !matches!(ctx.direction, vuvuzela_net::Direction::Forward) {
            return;
        }
        if let Some(from) = self.from_round {
            if ctx.round < from {
                return;
            }
        }
        batch.retain(|index| index != self.index);
    }
}

/// Drops a fixed fraction of each forward batch: index `i` is discarded
/// iff `i mod denominator < numerator`, so exactly
/// `numerator/denominator` of every full stride vanishes,
/// deterministically. `{1, 1}` drops everything crossing the link in
/// the window — total blackout of the tapped hop.
pub struct DropFraction {
    /// Dropped residues per stride.
    pub numerator: u32,
    /// Stride length (must be nonzero).
    pub denominator: u32,
    /// Rounds the drop applies to.
    pub window: RoundWindow,
}

impl Tap for DropFraction {
    fn intercept(&mut self, ctx: &TapContext, batch: &mut Slots<'_>) {
        if !matches!(ctx.direction, vuvuzela_net::Direction::Forward)
            || !self.window.contains(ctx.round)
        {
            return;
        }
        assert!(self.denominator > 0, "DropFraction denominator must be > 0");
        batch.retain(|index| index as u32 % self.denominator >= self.numerator);
    }
}

/// Holds the forward batch of every round in `window` and releases it
/// `lag` rounds later, merged *into* that round's batch — the §2.3
/// cross-round delay. On a forward transfer of round `r` the tap
/// collects the held batches whose capture round plus `lag` is at most
/// `r` (in capture order), then takes the current batch if `window`
/// contains `r`, then appends what it collected after whatever the
/// current batch still holds. Held state lives inside the tap, so the
/// delay spans schedules.
///
/// Against Vuvuzela the released onions buy the adversary nothing:
/// every layer is bound to its round, so delayed requests fail
/// authentication downstream and are replaced by noise — a delayed
/// round degrades exactly like a dropped one (clients retransmit).
/// Released into a round of another width, they are resized entries.
pub struct DelayBatch {
    /// The rounds whose forward batch is held.
    pub window: RoundWindow,
    /// How many rounds a held batch waits before it is released.
    pub lag: u64,
    /// Held batches with their capture rounds, in capture order.
    held: Vec<(u64, Vec<Vec<u8>>)>,
}

impl DelayBatch {
    /// A delay of `hold_round`'s batch into `release_round`.
    ///
    /// # Panics
    ///
    /// Panics unless `release_round > hold_round` — releasing into the
    /// same or an earlier round is not a delay.
    #[must_use]
    pub fn new(hold_round: u64, release_round: u64) -> DelayBatch {
        assert!(
            release_round > hold_round,
            "release round {release_round} must follow hold round {hold_round}"
        );
        DelayBatch::over(RoundWindow::only(hold_round), release_round - hold_round)
    }

    /// Delays the batch of every round in `window` by `lag` rounds
    /// (`over(RoundWindow::ALL, 1)` shifts all traffic by one round).
    /// Panics unless `lag >= 1`.
    #[must_use]
    pub fn over(window: RoundWindow, lag: u64) -> DelayBatch {
        assert!(lag >= 1, "a delay lags by at least one round");
        DelayBatch {
            window,
            lag,
            held: Vec::new(),
        }
    }
}

/// Copies every entry of `batch` out of the frame.
fn entries(batch: &Slots<'_>) -> Vec<Vec<u8>> {
    (0..batch.len()).map(|i| batch.get(i).to_vec()).collect()
}

impl Tap for DelayBatch {
    fn intercept(&mut self, ctx: &TapContext, batch: &mut Slots<'_>) {
        if !matches!(ctx.direction, vuvuzela_net::Direction::Forward) {
            return;
        }
        let (released, held): (Vec<_>, Vec<_>) = std::mem::take(&mut self.held)
            .into_iter()
            .partition(|(capture, _)| capture.saturating_add(self.lag) <= ctx.round);
        self.held = held;
        if self.window.contains(ctx.round) {
            self.held.push((ctx.round, entries(batch)));
            batch.retain(|_| false);
        }
        for entry in released.iter().flat_map(|(_, entries)| entries) {
            batch.push(entry);
        }
    }
}

/// Copies one round's forward batch and re-sends the copy merged into a
/// later round — replay, the other half of the §2.3 delay/replay
/// capability. Unlike [`DelayBatch`] the original round passes
/// untouched; the replayed copies fail the round-bound authentication
/// downstream and degrade into noise.
pub struct ReplayBatch {
    /// The round whose forward batch is copied (and passed through).
    pub capture_round: u64,
    /// The round the copy is appended to (strictly greater).
    pub replay_round: u64,
    copied: Vec<Vec<u8>>,
}

impl ReplayBatch {
    /// A replay of `capture_round`'s batch into `replay_round`.
    ///
    /// # Panics
    ///
    /// Panics unless `replay_round > capture_round`.
    #[must_use]
    pub fn new(capture_round: u64, replay_round: u64) -> ReplayBatch {
        assert!(
            replay_round > capture_round,
            "replay round {replay_round} must follow capture round {capture_round}"
        );
        ReplayBatch {
            capture_round,
            replay_round,
            copied: Vec::new(),
        }
    }
}

impl Tap for ReplayBatch {
    fn intercept(&mut self, ctx: &TapContext, batch: &mut Slots<'_>) {
        if !matches!(ctx.direction, vuvuzela_net::Direction::Forward) {
            return;
        }
        if ctx.round == self.capture_round {
            self.copied = entries(batch);
        } else if ctx.round == self.replay_round {
            for entry in std::mem::take(&mut self.copied) {
                batch.push(&entry);
            }
        }
    }
}

/// Injects well-formed garbage onions: entries of exactly the width the
/// tapped link carries (the batch in flight's width), filled with
/// seeded pseudo-random bytes. The sizes pass every stage's shape
/// checks, but the payloads fail authentication at the next server and
/// are substituted with noise — inflating the round's observable totals
/// without wedging anything. Nothing is injected into an empty batch.
pub struct InjectOnions {
    /// Garbage onions injected per forward transfer in the window.
    pub count: usize,
    /// Rounds the injection applies to.
    pub window: RoundWindow,
    /// Seed for the deterministic garbage bytes.
    pub seed: u64,
}

impl Tap for InjectOnions {
    fn intercept(&mut self, ctx: &TapContext, batch: &mut Slots<'_>) {
        if !matches!(ctx.direction, vuvuzela_net::Direction::Forward)
            || !self.window.contains(ctx.round)
        {
            return;
        }
        // Nothing goes into an empty batch, though the view knows its
        // width: the soak's `inject` transcripts are pinned with this rule.
        if batch.is_empty() {
            return;
        }
        let width = batch.width();
        for injected in 0..self.count {
            // splitmix64 over (seed, round, index): deterministic
            // garbage, different every round and every onion.
            let mut state = self
                .seed
                .wrapping_add(ctx.round.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(injected as u64);
            let mut onion = Vec::with_capacity(width);
            while onion.len() < width {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let take = (width - onion.len()).min(8);
                onion.extend_from_slice(&z.to_le_bytes()[..take]);
            }
            batch.push(&onion);
        }
    }
}

/// Slows a link down without touching any bytes: sleeps for a fixed
/// wall-clock interval on every forward transfer — the "server stalling
/// mid-round" deployment fault (a slow disk, a GC pause, a congested
/// uplink). Between threads or processes this perturbs *when* batches
/// move and how rounds overlap. In process it costs wall time only:
/// `Chain::run` runs every hop on the calling thread and draws its
/// interleaving from the chain seed, so a sleep cannot move it. Either
/// way it must never change *what* any round computes; the deployment
/// simulator's slowdown scenario pins that down by asserting a
/// byte-identical transcript with and without the stall.
pub struct StallLink {
    /// How long each forward transfer stalls.
    pub delay: std::time::Duration,
}

impl Tap for StallLink {
    fn intercept(&mut self, ctx: &TapContext, _batch: &mut Slots<'_>) {
        if matches!(ctx.direction, vuvuzela_net::Direction::Forward) {
            std::thread::sleep(self.delay);
        }
    }
}

/// Hangs up the tapped link when a specific round's forward batch
/// crosses it — the "server aborts mid-round" deployment fault, in
/// process exactly what the wire shows when a peer's process dies. The
/// crossing fails with [`vuvuzela_net::Error::Disconnected`] on the
/// link, and the runtime returns an `Abort` (never hangs): `Chain::run`
/// at once, a node loop once the hang-up has cascaded through the
/// surviving nodes to the feeder. Disarms itself as it hangs up, so
/// batches drained during the abort cannot re-trigger it, and stays
/// inert afterwards, so the deployment can keep the link (tap detached
/// or not) for subsequent schedules.
pub struct CrashOnRound {
    /// The round whose forward transfer triggers the crash.
    pub round: u64,
    /// Whether the crash is still pending.
    pub armed: bool,
}

impl CrashOnRound {
    /// An armed crash for `round`.
    #[must_use]
    pub fn new(round: u64) -> CrashOnRound {
        CrashOnRound { round, armed: true }
    }
}

impl Tap for CrashOnRound {
    fn intercept(&mut self, _ctx: &TapContext, _batch: &mut Slots<'_>) {}

    fn hangs_up(&mut self, ctx: &TapContext) -> bool {
        let fires = self.armed
            && ctx.round == self.round
            && matches!(ctx.direction, vuvuzela_net::Direction::Forward);
        self.armed &= !fires;
        fires
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;
    use vuvuzela_net::link::{batch_through_link, Direction, Link};
    use vuvuzela_net::LinkId;
    use vuvuzela_wire::{BatchFrame, RoundId, RoundType};

    fn batch3() -> Vec<Vec<u8>> {
        vec![vec![0], vec![1], vec![2]]
    }

    fn shared<T: Tap>(tap: T) -> Arc<Mutex<T>> {
        Arc::new(Mutex::new(tap))
    }

    /// Carries `batch` (entries of one width) across an entry→server 0
    /// link under `tap` and returns what the tap left of it.
    fn pass<T: Tap + 'static>(
        tap: &Arc<Mutex<T>>,
        round: u64,
        direction: Direction,
        batch: Vec<Vec<u8>>,
    ) -> Vec<Vec<u8>> {
        let mut link = Link::new(LinkId::Hop(0));
        link.attach_tap(tap.clone());
        let width = batch.first().map_or(1, Vec::len);
        let mut frame = BatchFrame {
            link: LinkId::Hop(0),
            round: RoundId(round),
            round_type: RoundType::Conversation,
            num_drops: 0,
            backward: direction == Direction::Backward,
            stride: width as u32,
            width: width as u32,
            count: batch.len() as u32,
            payload: batch.concat(),
            trailer: Vec::new(),
        };
        batch_through_link(&link, &mut frame).expect("no tap here hangs up");
        frame.payload.chunks(width).map(<[u8]>::to_vec).collect()
    }

    #[test]
    fn keep_only_filters_forward_traffic() {
        let tap = shared(KeepOnly {
            indices: vec![0, 2],
            only_round: None,
        });
        let out = pass(&tap, 0, Direction::Forward, batch3());
        assert_eq!(out, vec![vec![0], vec![2]]);
        // Backward traffic untouched.
        let back = pass(&tap, 0, Direction::Backward, batch3());
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn keep_only_respects_round_filter() {
        let tap = shared(KeepOnly {
            indices: vec![1],
            only_round: Some(5),
        });
        assert_eq!(pass(&tap, 4, Direction::Forward, batch3()).len(), 3);
        assert_eq!(pass(&tap, 5, Direction::Forward, batch3()), vec![vec![1]]);
    }

    #[test]
    fn block_client_removes_one() {
        let tap = shared(BlockClient {
            index: 1,
            from_round: Some(2),
        });
        assert_eq!(pass(&tap, 1, Direction::Forward, batch3()).len(), 3);
        let out = pass(&tap, 2, Direction::Forward, batch3());
        assert_eq!(out, vec![vec![0], vec![2]]);
    }

    #[test]
    fn keep_only_runs_in_place_preserving_batch_order() {
        let tap = shared(KeepOnly {
            indices: vec![2, 0], // unsorted: order must not matter
            only_round: None,
        });
        let batch = pass(&tap, 0, Direction::Forward, batch3());
        assert_eq!(batch, vec![vec![0], vec![2]]);
    }

    /// Every round, lag one: each round's batch swaps for the last one's.
    #[test]
    fn delay_tap_shifts_batches_by_one_round() {
        let tap = shared(DelayBatch::over(RoundWindow::ALL, 1));
        // Round 0's batch is swallowed.
        assert!(pass(&tap, 0, Direction::Forward, vec![vec![0]]).is_empty());
        // Round 1 receives round 0's traffic; round 1's is held.
        let out1 = pass(&tap, 1, Direction::Forward, vec![vec![1]]);
        assert_eq!(out1, vec![vec![0]]);
        let out2 = pass(&tap, 2, Direction::Forward, vec![vec![2]]);
        assert_eq!(out2, vec![vec![1]]);
        // Backward traffic is untouched.
        let back = pass(&tap, 2, Direction::Backward, vec![vec![9]]);
        assert_eq!(back, vec![vec![9]]);
    }

    /// One round, lag two: its batch follows the release round's own.
    #[test]
    fn delay_batch_holds_and_merges_into_release_round() {
        let tap = shared(DelayBatch::new(1, 3));
        assert_eq!(pass(&tap, 0, Direction::Forward, batch3()).len(), 3);
        // Round 1 is swallowed whole.
        assert!(pass(&tap, 1, Direction::Forward, batch3()).is_empty());
        // Round 2 (before the release round) passes untouched.
        assert_eq!(pass(&tap, 2, Direction::Forward, batch3()).len(), 3);
        // Round 3 carries its own batch plus the held one, merged.
        let out = pass(&tap, 3, Direction::Forward, vec![vec![9]]);
        assert_eq!(out, vec![vec![9], vec![0], vec![1], vec![2]]);
        // Released exactly once.
        assert_eq!(pass(&tap, 4, Direction::Forward, vec![vec![8]]).len(), 1);
    }

    #[test]
    fn crash_on_round_fires_once_and_only_forward() {
        let tap = shared(CrashOnRound::new(2));
        let hangs_up = |round, direction| {
            let ctx = TapContext {
                link: LinkId::Hop(1),
                round,
                direction,
            };
            tap.lock().hangs_up(&ctx)
        };
        // Other rounds and backward traffic pass.
        assert!(!hangs_up(1, Direction::Forward));
        assert!(!hangs_up(2, Direction::Backward));
        assert!(hangs_up(2, Direction::Forward), "armed: its round hangs up");
        // Disarmed: the same round drains through afterwards.
        assert!(!hangs_up(2, Direction::Forward));
        assert!(!hangs_up(3, Direction::Forward));
        // What does cross is never touched.
        assert_eq!(pass(&tap, 2, Direction::Forward, batch3()), batch3());
    }

    #[test]
    fn stall_link_changes_nothing_but_time() {
        let tap = shared(StallLink {
            delay: std::time::Duration::from_millis(1),
        });
        assert_eq!(pass(&tap, 0, Direction::Forward, batch3()), batch3());
        assert_eq!(pass(&tap, 0, Direction::Backward, batch3()), batch3());
    }

    #[test]
    fn drop_fraction_discards_deterministic_stride() {
        let tap = shared(DropFraction {
            numerator: 1,
            denominator: 3,
            window: RoundWindow::from(2),
        });
        // Outside the window: untouched.
        assert_eq!(pass(&tap, 1, Direction::Forward, batch3()).len(), 3);
        // In the window: indices 0 and 3 dropped out of five.
        let batch: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i]).collect();
        let out = pass(&tap, 2, Direction::Forward, batch);
        assert_eq!(out, vec![vec![1], vec![2], vec![4]]);
        // Backward traffic untouched.
        assert_eq!(pass(&tap, 2, Direction::Backward, batch3()).len(), 3);
        // {1, 1} is a total blackout.
        let all = shared(DropFraction {
            numerator: 1,
            denominator: 1,
            window: RoundWindow::ALL,
        });
        assert!(pass(&all, 9, Direction::Forward, batch3()).is_empty());
    }

    #[test]
    fn replay_batch_copies_without_touching_the_original() {
        let tap = shared(ReplayBatch::new(0, 2));
        // The captured round passes through unchanged.
        assert_eq!(pass(&tap, 0, Direction::Forward, batch3()), batch3());
        assert_eq!(pass(&tap, 1, Direction::Forward, vec![vec![7]]).len(), 1);
        // The replay round carries its own batch plus the copy.
        let out = pass(&tap, 2, Direction::Forward, vec![vec![9]]);
        assert_eq!(out, vec![vec![9], vec![0], vec![1], vec![2]]);
        // Replayed exactly once.
        assert_eq!(pass(&tap, 3, Direction::Forward, vec![vec![8]]).len(), 1);
    }

    #[test]
    fn inject_onions_adds_width_matched_garbage() {
        let inject = || {
            shared(InjectOnions {
                count: 2,
                window: RoundWindow::only(1),
                seed: 42,
            })
        };
        let tap = inject();
        assert_eq!(pass(&tap, 0, Direction::Forward, batch3()).len(), 3);
        let two = || vec![vec![5u8; 64], vec![6u8; 64]];
        let out = pass(&tap, 1, Direction::Forward, two());
        assert_eq!(out.len(), 4);
        assert!(
            out.iter().all(|onion| onion.len() == 64),
            "injected onions must match the link's width"
        );
        assert_ne!(out[2], out[3], "garbage must differ per injected onion");
        // An empty batch stays empty.
        assert!(pass(&tap, 1, Direction::Forward, Vec::new()).is_empty());
        // Deterministic: the same (seed, round) reproduces the bytes.
        let batch = pass(&inject(), 1, Direction::Forward, two());
        assert_eq!(batch[2..], out[2..]);
    }

    #[test]
    fn round_window_bounds_are_inclusive() {
        let w = RoundWindow { first: 2, last: 4 };
        assert!(!w.contains(1) && w.contains(2) && w.contains(4) && !w.contains(5));
        assert!(RoundWindow::ALL.contains(u64::MAX));
        assert!(RoundWindow::only(3).contains(3) && !RoundWindow::only(3).contains(4));
        assert!(RoundWindow::from(3).contains(u64::MAX) && !RoundWindow::from(3).contains(2));
    }
}
