//! The adversary's view of a run, as a typed record.
//!
//! A network adversary tapping every link and holding the last server
//! sees a strict *subset* of what happens in a deployment (§6.1): the
//! connected-client count of each round, the last server's public
//! dead-drop histograms ([`ConversationObservables`]: `m1`/`m2`/`m_many`)
//! and per-drop invitation counts ([`DialingObservables`]), the round
//! kinds, batch sizes per link and round, and — because the noise
//! parameters are public protocol configuration — the composed
//! (ε′, δ′) the deployment has spent. [`AdversaryView`] holds exactly
//! that and nothing else: the producer (the `vuvuzela-sim` simulator)
//! fills it from the same values it transcribes, and the ground truth
//! its transcript also records for test assertions — mutual pairs,
//! who dialed or talked to whom, deliveries, invitation scans — has no
//! field here. Attacks built on an [`AdversaryView`] therefore consume
//! only information a real adversary would have, which is what makes
//! grading them against the DP bound ([`crate::bounds`]) meaningful.

use vuvuzela_core::observables::{ConversationObservables, DialingObservables};
use vuvuzela_dp::ComposedPrivacy;
use vuvuzela_net::{Direction, LinkId};

/// One protocol round as the adversary sees it. `observables` is
/// `None` when the last server recorded no histogram for a round that
/// completed.
#[derive(Clone, Debug, PartialEq)]
pub enum RoundView {
    /// A conversation round.
    Conversation {
        /// Round id.
        round: u64,
        /// Connected participants (the connected-client set is public).
        participants: u64,
        /// The observed dead-drop histogram.
        observables: Option<ConversationObservables>,
    },
    /// A dialing round.
    Dialing {
        /// Round id.
        round: u64,
        /// Connected participants.
        participants: u64,
        /// The observed per-drop invitation counts.
        observables: Option<DialingObservables>,
    },
}

/// One observed batch on a chain link: what the link's per-round log
/// recorded for one round in one direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TapBatch {
    /// The observed link.
    pub link: LinkId,
    /// Round id.
    pub round: u64,
    /// Which way the batch crossed the link.
    pub direction: Direction,
    /// Onions in the batch.
    pub onions: u64,
    /// Uniform onion width in bytes.
    pub width: u64,
}

/// Everything the adversary saw of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct AdversaryView {
    /// Every completed protocol round, in completion order.
    pub rounds: Vec<RoundView>,
    /// Every batch on an observed link, in canonical `(round,
    /// forward-first)` order per link.
    pub taps: Vec<TapBatch>,
    /// The whole run's composed budget: both protocols' Theorem-2
    /// spends, combined by basic composition
    /// ([`vuvuzela_dp::PrivacyLedger::total_spent`]). Aborted rounds are
    /// charged here although they have no [`RoundView`].
    pub budget: ComposedPrivacy,
}

impl AdversaryView {
    /// The conversation rounds in order, as `(round, observables)`.
    pub fn conversation_rounds(
        &self,
    ) -> impl Iterator<Item = (u64, Option<&ConversationObservables>)> {
        self.rounds.iter().filter_map(|r| match r {
            RoundView::Conversation {
                round, observables, ..
            } => Some((*round, observables.as_ref())),
            RoundView::Dialing { .. } => None,
        })
    }

    /// The dialing rounds in order, as `(round, observables)`.
    pub fn dialing_rounds(&self) -> impl Iterator<Item = (u64, Option<&DialingObservables>)> {
        self.rounds.iter().filter_map(|r| match r {
            RoundView::Dialing {
                round, observables, ..
            } => Some((*round, observables.as_ref())),
            RoundView::Conversation { .. } => None,
        })
    }
}
