//! Traffic-analysis attacks against Vuvuzela (paper §2.1, §4.2) and the
//! machinery to evaluate them.
//!
//! The paper motivates Vuvuzela's design with concrete attacks:
//!
//! * **intersection** — "the adversary can simply wait for Alice to go
//!   offline, and look at the difference in dead drop access counts
//!   between rounds" (§4.2);
//! * **disruption** — an adversary controlling the first and last servers
//!   "collects requests from all users at the first server, but then
//!   throws away all requests except those from Alice and Bob" and checks
//!   whether a dead drop still gets two accesses (§4.2);
//! * **statistical disclosure** — correlate a target's online schedule
//!   with the exchange counts over many rounds.
//!
//! Every attack here consumes only the *legitimate observables*
//! ([`vuvuzela_core::observables`]) plus per-link batch counts and
//! sizes — the same information a real adversary would have. A whole
//! run's worth of them — per-round participants and observables, the
//! observed links' batches, the composed (ε′, δ′) — is
//! one typed record, [`AdversaryView`], which the simulator fills in and
//! the graded [`detector`] reads. The point of the crate is Figure-2-style
//! evidence: the attacks demolish a noiseless mixnet and are reduced to
//! coin-flipping by Vuvuzela's cover traffic, with the residual advantage
//! bounded by the (ε, δ) accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod bounds;
pub mod detector;
pub mod model;
pub mod taps;
pub mod view;

pub use attacks::{DisruptionAttack, IntersectionAttack, StatisticalDisclosureAttack};
pub use bounds::{hoeffding_slack, max_accuracy, max_advantage};
pub use detector::{
    pair_activity_feature, split_by_seed, DetectionGrade, DetectionOutcome, ThresholdDetector,
};
pub use model::ObservableModel;
pub use view::{AdversaryView, RoundView, TapBatch};
