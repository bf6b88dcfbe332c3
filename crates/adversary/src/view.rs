//! The adversary's view of a run, as a typed record.
//!
//! A network adversary tapping every link and holding the last server
//! sees a strict *subset* of what happens in a deployment (§6.1): the
//! connected-client count of each round, the last server's public
//! dead-drop histograms ([`ConversationObservables`]: `m1`/`m2`/`m_many`)
//! and per-drop invitation counts ([`DialingObservables`]), the round
//! kinds, every node's public round record — the onions and bytes each
//! pass read and sent, so every link's batch sizes per round
//! ([`Public::sent_on`]) — and, because the noise parameters are public
//! protocol configuration, the composed (ε′, δ′) the deployment has
//! spent. [`AdversaryView`] holds exactly that and nothing else: the
//! producer (the `vuvuzela-sim` simulator) fills it from the same values
//! it transcribes, and the ground truth its transcript also records for
//! test assertions — mutual pairs, who dialed or talked to whom,
//! deliveries, invitation scans — has no field here, nor has the
//! record's [`vuvuzela_core::record::Operator`] part. Attacks built on
//! an [`AdversaryView`] therefore consume only information a real
//! adversary would have, which is what makes grading them against the
//! DP bound ([`crate::bounds`]) meaningful.

use std::collections::BTreeMap;
use vuvuzela_core::observables::{ConversationObservables, DialingObservables};
use vuvuzela_core::record::Public;
use vuvuzela_dp::ComposedPrivacy;

/// One completed protocol round as the adversary sees it.
#[derive(Clone, Debug, PartialEq)]
pub enum RoundView {
    /// A conversation round.
    Conversation {
        /// Round id.
        round: u64,
        /// Connected participants (the connected-client set is public).
        participants: u64,
        /// The observed dead-drop histogram.
        observables: ConversationObservables,
    },
    /// A dialing round.
    Dialing {
        /// Round id.
        round: u64,
        /// Connected participants.
        participants: u64,
        /// The observed per-drop invitation counts.
        observables: DialingObservables,
    },
}

/// Everything the adversary saw of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct AdversaryView {
    /// Every completed protocol round, in completion order.
    pub rounds: Vec<RoundView>,
    /// Every completed round's record, public parts only, each pass's
    /// duration zeroed and the passes sorted by node, phase and
    /// direction: the batches every link carried, what the simulator's
    /// wire twin must reproduce.
    pub record: BTreeMap<u64, Vec<Public>>,
    /// The whole run's composed budget: both protocols' Theorem-2
    /// spends, combined by basic composition
    /// ([`vuvuzela_dp::PrivacyLedger::total_spent`]). Aborted rounds are
    /// charged here although they have no [`RoundView`].
    pub budget: ComposedPrivacy,
}

impl AdversaryView {
    /// The conversation rounds in order, as `(round, observables)`.
    pub fn conversation_rounds(&self) -> impl Iterator<Item = (u64, &ConversationObservables)> {
        self.rounds.iter().filter_map(|r| match r {
            RoundView::Conversation {
                round, observables, ..
            } => Some((*round, observables)),
            RoundView::Dialing { .. } => None,
        })
    }

    /// The dialing rounds in order, as `(round, observables)`.
    pub fn dialing_rounds(&self) -> impl Iterator<Item = (u64, &DialingObservables)> {
        self.rounds.iter().filter_map(|r| match r {
            RoundView::Dialing {
                round, observables, ..
            } => Some((*round, observables)),
            RoundView::Conversation { .. } => None,
        })
    }
}
