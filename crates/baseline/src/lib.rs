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
//!   gives that strawman's per-round bytes in closed form; the scaling
//!   table shows its O(n²) total bytes against Vuvuzela's O(n).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broadcast;
