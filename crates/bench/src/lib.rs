//! Shared machinery for the benchmark harness.
//!
//! `src/bin/figures.rs` regenerates every table and figure of the
//! paper's evaluation (§8), writing its results to `bench_results/`.
//! The repository's gated benchmark is the separate `benchmark/` package
//! (see `benchmark/README.md`). This library provides:
//!
//! * [`costmodel`] — the §8.2 arithmetic, counting a round's kernel
//!   work (peels and wrapped layers) and pricing it at this host's
//!   probed kernel rates or at the paper's hardware, used both to gate
//!   the round pipeline and to extrapolate laptop-scale measurements to
//!   the paper's 36-core/EC2 scale;
//! * [`peelstage`] — the chunk-peel and chunk-wrap probes behind it;
//! * [`report`] — table printing and JSON dumping so every run leaves a
//!   machine-readable artefact under `bench_results/`;
//! * [`workload`] — the rounds' clients: a `ClientCohort`, the one
//!   client the deployment and the simulator run, whose members pair up
//!   and each send their partner a message (§8.1), or dial.
//!
//! Both bins build every round as the deployment does: servers from
//! `chain::build_server` (through `Chain::new` in the figures), client
//! onions from a [`workload`] cohort.
//!
//! # Round-pipeline benchmark methodology
//!
//! `src/bin/bench_round_pipeline.rs` (`cargo run --release -p
//! vuvuzela-bench --bin bench_round_pipeline`) gates the paper's one
//! quantitative design claim, "within 2× of the cost of the inevitable
//! cryptographic operations" (§8.2), at **10,000 onions, chain length
//! 3**. It writes `BENCH_round_pipeline.json` at the repo root (committed)
//! and exits non-zero when the claim fails on this host.
//!
//! Its choices, and why:
//!
//! * **the ratio is `overhead_vs_kernel_floor`**: the flat three-hop
//!   forward pass over its kernel floor — the peels and wrapped layers
//!   the hops did, counted from their arenas, each priced at its
//!   chunk-kernel probe, fanned out on the pass's workers through the
//!   same `WorkerPool::map_vec`; passes and probes are timed
//!   interleaved, best of five each.
//!   Pass and probes run the same kernels in the same process, so the
//!   ratio is scale-free: it holds on a CPU with the eight-wide IFMA
//!   kernels and on one with the scalar ones alike;
//! * **its bounds are [0.8, 1.5]**: the pass sits within a few percent
//!   of its kernels, so noise alone reads just below or above 1, and
//!   below 0.8 the floor is mispriced (portable-kernel probes against
//!   an IFMA pass read ≈ 0.2); 1.5 is tighter than the paper's 2
//!   because one extra peel per onion at every hop would read ≈ 1.8
//!   and still pass at 2. The same check holds the pass under one heap
//!   allocation per onion (the zero-copy claim);
//! * **the whole round must be its record** (`round_vs_record`): the
//!   round run whole on `Chain::run`, over the sum of its record's
//!   pass durations, in [1, 1.01] — below 1 the record's fold counts a
//!   pass twice, above 1.01 a hundredth of the round is unexplained;
//! * **µ = 5,000 deterministic** — the paper's µ = 300,000 (§8.1) scaled
//!   1:60. µ is a fixed privacy parameter (it does *not* shrink with the
//!   user count), which is why cover traffic dominates server cost at
//!   small scale (§8.2); cover ≈ 1× real traffic here is the modest end
//!   of that regime;
//! * **the seed implementation is the oracle, not a timing**: the flat
//!   pass is asserted byte-identical to `MixServer::forward_reference`
//!   (allocating peel, per-`Vec` noise, shuffle by cloning) once,
//!   untimed, and each probed kernel to its one-onion oracle.
//!
//! What the ratio does not catch: a kernel slowdown that moves the
//! probes and the pass together. The gated benchmark under `benchmark/`
//! catches that, in absolute throughput against the parent commit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costmodel;
pub mod peelstage;
pub mod report;
pub mod workload;

pub use costmodel::CostModel;
