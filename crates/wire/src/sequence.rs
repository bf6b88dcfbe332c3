//! Frame ordering rules for wire links, stated once and asserted by
//! [`RoundSequencer`].
//!
//! The windowed (pipelined) wire mode keeps up to `chain_len` rounds
//! in flight, so a single blocking connection carries interleaved
//! rounds. Interleaving is only safe because every link obeys a total
//! per-direction order, which is what lets a receiver demultiplex
//! frames by round tag alone, without timestamps or acknowledgements:
//!
//! 1. **Rounds strictly increase per link and direction.** The client
//!    driver admits rounds in schedule order; every node processes and
//!    forwards batches in the order they arrive on a link (FIFO
//!    sockets), and the tail turns conversation rounds around in
//!    arrival order — so *forward* batches on any link carry strictly
//!    increasing round ids, and so do *backward* batches (replies and
//!    dialing completions come back in admission order). A round id
//!    that repeats or goes backwards is a protocol violation
//!    ([`crate::FrameError::OutOfOrder`]), not congestion.
//! 2. **One `Bye` terminates each direction, after its last batch.**
//!    The client driver sends the forward `Bye` after the final
//!    forward batch; the entry and each server relay it downstream
//!    once their own forwards are out. The tail answers with the
//!    backward `Bye` after its final backward batch, and each server,
//!    then the entry, relays it upstream only once every round it
//!    forwarded has come back, so the client driver hears the entry
//!    answer its `Bye` last. FIFO ordering therefore
//!    guarantees no batch is abandoned behind a `Bye`, and a frame
//!    *after* one is a violation.
//! 3. **Cross-link order is unconstrained.** A node terminating two
//!    links may legally see round *r+1* arrive upstream before round
//!    *r*'s replies arrive downstream — that overlap is the whole
//!    point of windowing. Only the per-link per-direction sequences
//!    above are total.
//!
//! Receivers instantiate one [`RoundSequencer`] per link + direction
//! and feed it every batch round id; the sequencer turns a violation
//! into the typed [`crate::FrameError::OutOfOrder`] so a corrupt or
//! hostile peer fails loudly at the frame layer instead of corrupting
//! a mix round.

use crate::frame::FrameError;
use crate::round::RoundId;

/// Asserts rule 1 and rule 2 above for one link + direction: round ids
/// strictly increase and nothing follows the `Bye`.
#[derive(Clone, Debug, Default)]
pub struct RoundSequencer {
    last: Option<u64>,
    done: bool,
}

impl RoundSequencer {
    /// A sequencer that has seen nothing yet.
    #[must_use]
    pub fn new() -> RoundSequencer {
        RoundSequencer::default()
    }

    /// Feeds the next batch's round id.
    ///
    /// # Errors
    ///
    /// [`FrameError::OutOfOrder`] when the id does not strictly
    /// increase, or when any batch follows the direction's `Bye`.
    pub fn observe(&mut self, round: RoundId) -> Result<(), FrameError> {
        let violation = |prev: u64| FrameError::OutOfOrder {
            prev,
            next: round.0,
        };
        if self.done {
            return Err(violation(self.last.unwrap_or(u64::MAX)));
        }
        match self.last {
            Some(prev) if round.0 <= prev => Err(violation(prev)),
            _ => {
                self.last = Some(round.0);
                Ok(())
            }
        }
    }

    /// Marks the direction's `Bye`; every later [`observe`] is a
    /// violation.
    ///
    /// [`observe`]: RoundSequencer::observe
    pub fn bye(&mut self) {
        self.done = true;
    }

    /// The last round id observed, if any.
    #[must_use]
    pub fn last(&self) -> Option<u64> {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strictly_increasing_rounds_pass() {
        let mut seq = RoundSequencer::new();
        for round in [0, 1, 5, 6, 100] {
            seq.observe(RoundId(round)).expect("increasing");
        }
        assert_eq!(seq.last(), Some(100));
    }

    #[test]
    fn repeats_and_regressions_fail() {
        let mut seq = RoundSequencer::new();
        seq.observe(RoundId(4)).expect("first");
        assert!(matches!(
            seq.observe(RoundId(4)),
            Err(FrameError::OutOfOrder { prev: 4, next: 4 })
        ));
        assert!(matches!(
            seq.observe(RoundId(2)),
            Err(FrameError::OutOfOrder { prev: 4, next: 2 })
        ));
        // A failed observation does not advance the sequence.
        seq.observe(RoundId(5)).expect("still live at 4");
    }

    #[test]
    fn nothing_follows_the_bye() {
        let mut seq = RoundSequencer::new();
        seq.observe(RoundId(1)).expect("first");
        seq.bye();
        assert!(matches!(
            seq.observe(RoundId(2)),
            Err(FrameError::OutOfOrder { prev: 1, next: 2 })
        ));
    }
}
