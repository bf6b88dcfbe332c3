//! Comparison systems for Vuvuzela's evaluation.
//!
//! The paper positions Vuvuzela against two families (§1, §10). The
//! scalable but analyzable one — a mixnet without principled cover
//! traffic — is Vuvuzela's own pipeline with noise off
//! (`NoiseMode::Off` in its `SystemConfig`), so it needs no
//! module here. The other:
//!
//! * **private but unscalable** — Dissent/Riposte-style systems built on
//!   broadcast, with per-round cost superlinear in users. [`broadcast`]
//!   implements that strawman; the scaling benches show its O(n²) total
//!   bytes against Vuvuzela's O(n).
//!
//! [`single_server`] additionally implements the §2.1 strawman (one
//! trusted server, no mixing, no noise) whose observable dead-drop access
//! patterns motivate the whole design (Figure 4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast;
pub mod single_server;
