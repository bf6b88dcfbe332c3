//! The traffic-analysis adversary of Vuvuzela's threat model (paper
//! §2.3, §4.2) and the machinery to grade it against the DP bound.
//!
//! The paper motivates Vuvuzela's design with attacks on the dead-drop
//! histogram: the adversary who waits for Alice to go offline and diffs
//! the access counts between rounds, and the **disruption** attack of a
//! coalition controlling the first and last servers, which "collects
//! requests from all users at the first server, but then throws away
//! all requests except those from Alice and Bob" and checks whether a
//! dead drop still gets two accesses (§4.2). The guarantee holds "as
//! long as one server is honest" (§2.3): an attacker who owns every
//! other server knows their cover traffic exactly and subtracts it.
//!
//! * [`view`] — what a run showed the adversary, as one typed record,
//!   [`AdversaryView`]: per-round participants and the last server's
//!   observables ([`vuvuzela_core::observables`]), the public round
//!   record every link's batch sizes are read from, and the composed
//!   (ε′, δ′). The simulator fills it in.
//! * [`detector`] — the graded twin-world distinguisher over the
//!   histogram, with the feature of an attacker that subtracts the
//!   noise of the servers it owns.
//! * [`taps`] — active tampering on a link: drop, delay, replay, inject,
//!   and keep only the target pair's requests (the disruption attack).
//! * [`bounds`] — the DP ceiling on any distinguisher's advantage.
//!
//! The attacks run on the running system, not on a model of it:
//! `vuvuzela-sim`'s attack matrix (`sim_attack`) runs each case's twin
//! worlds over the real chain and grades the detector, trained on one
//! half of the seeds and scored on the other, against `max_advantage`
//! of the budget the view reports. The point of the crate is
//! Figure-2-style evidence that holds in both directions: the detector
//! beats the bound when the deployment's noise is off, undersized or
//! all owned by the attacker, and stays under it while one noising
//! server is honest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod detector;
pub mod taps;
pub mod view;

pub use bounds::{hoeffding_slack, max_accuracy, max_advantage};
pub use detector::{
    pair_activity_feature, split_by_seed, subtract_owned_noise, DetectionGrade, DetectionOutcome,
    ThresholdDetector,
};
pub use view::{AdversaryView, RoundView};
