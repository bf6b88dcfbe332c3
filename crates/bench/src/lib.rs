//! Shared machinery for the benchmark harness.
//!
//! `src/bin/figures.rs` regenerates every table and figure of the
//! paper's evaluation (§8), writing its results to `bench_results/`.
//! The repository's gated benchmark is the separate `benchmark/` package
//! (see `benchmark/README.md`). This library provides:
//!
//! * [`costmodel`] — a calibrated Diffie-Hellman cost model implementing
//!   the paper's own §8.2 arithmetic, used to extrapolate laptop-scale
//!   measurements to the paper's 36-core/EC2 scale;
//! * [`report`] — table printing and JSON dumping so every run leaves a
//!   machine-readable artefact under `bench_results/`;
//! * [`workload`] — synthetic client-batch generators shared by the
//!   latency sweeps.
//!
//! # Round-pipeline benchmark methodology
//!
//! The zero-copy refactor is measured at **10,000 onions, chain length
//! 3** by `src/bin/bench_round_pipeline.rs` (`cargo run --release -p
//! vuvuzela-bench --bin bench_round_pipeline`) — the committed
//! machine-readable artefact `BENCH_round_pipeline.json` at the repo
//! root: onions/sec and allocations/onion for the flat and the per-`Vec`
//! reference path (allocation counts via a counting global allocator),
//! best of three passes, with a byte-identity assertion between the
//! paths before any timing.
//!
//! Its choices, and why:
//!
//! * **the reference path is the seed implementation**, preserved as
//!   `MixServer::forward_reference` (allocating peel, per-`Vec` noise
//!   with ladder keygen and ladder DH, shuffle by cloning). It consumes
//!   the server RNG identically to the flat path, so its outputs are
//!   asserted byte-identical — the comparison isolates implementation
//!   cost, not behaviour;
//! * **µ = 5,000 deterministic** — the paper's µ = 300,000 (§8.1) scaled
//!   1:60. µ is a fixed privacy parameter (it does *not* shrink with the
//!   user count), which is why cover traffic dominates server cost at
//!   small scale (§8.2); cover ≈ 1× real traffic here is the modest end
//!   of that regime;
//! * **the noising hop is the headline number** because it carries every
//!   cost the refactor targets (peel + noise generation + shuffle); the
//!   full three-hop pass is also reported — later hops are peel-bound
//!   (variable-base DH, which no precomputation can accelerate), so its
//!   ratio is structurally lower.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costmodel;
pub mod peelstage;
pub mod report;
pub mod workload;

pub use costmodel::CostModel;
