//! # Vuvuzela
//!
//! A Rust reproduction of *"Vuvuzela: Scalable Private Messaging Resistant
//! to Traffic Analysis"* (van den Hooff, Lazar, Zaharia, Zeldovich —
//! SOSP 2015): a metadata-private text-messaging system that hides **who
//! is talking to whom** from an adversary that observes all network
//! traffic and controls all but one server.
//!
//! This umbrella crate re-exports the workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`crypto`] | From-scratch X25519, ChaCha20-Poly1305, SHA-256, HKDF, onion encryption, sealed boxes |
//! | [`dp`] | Truncated Laplace noise, (ε, δ) accounting, advanced composition, noise planner |
//! | [`wire`] | Fixed-size message formats, dead-drop IDs, encode/decode |
//! | [`net`] | Links with traffic records and adversary taps, in-memory and TCP transports, the node demux, the worker fan-out |
//! | [`core`] | Clients, the server chain, conversation + dialing protocols, the round record |
//! | [`adversary`] | The traffic-analysis adversary's view, its graded detector, active taps and the DP ceiling on its advantage |
//! | [`baseline`] | The broadcast messenger's per-round bytes, in closed form |
//! | [`sim`] | Deterministic deployment simulator: scripted churn, server faults, invariant checking |
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for a complete two-user conversation over
//! a three-server chain. The short version, on the simulator
//! ([`sim::Simulator`]), which checks every round against the paper's
//! privacy invariants:
//!
//! ```
//! use vuvuzela::sim::{RoundPlan, Scenario, Simulator, Step};
//!
//! // A three-server chain with deterministic noise, two users.
//! let mut scenario = Scenario::new("quickstart", 0x50_50);
//! scenario.conversation_mu = 50.0;
//! scenario.dialing_mu = 10.0;
//! scenario.dialing_b = Some(2.0);
//! let mut sim = Simulator::new(scenario);
//! let (alice, bob) = (0, 1);
//! sim.step(Step::Join(2))?;
//!
//! // Alice dials Bob; both enter the conversation; they exchange a round.
//! sim.step(Step::Dial { caller: alice, callee: bob })?;
//! sim.step(Step::Run(vec![RoundPlan::Dialing]))?;
//! sim.step(Step::AcceptAll)?;
//! let body = b"hello, Bob!".to_vec();
//! sim.step(Step::Queue { from: alice, to: bob, body: body.clone() })?;
//! sim.step(Step::Run(vec![RoundPlan::Conversation]))?;
//! assert_eq!(sim.clients().all_delivered(bob), vec![body]);
//! # Ok::<(), vuvuzela::sim::SimError>(())
//! ```

#![forbid(unsafe_code)]

pub mod deploy;

pub use serde_json;
pub use vuvuzela_adversary as adversary;
pub use vuvuzela_baseline as baseline;
pub use vuvuzela_core as core;
pub use vuvuzela_crypto as crypto;
pub use vuvuzela_dp as dp;
pub use vuvuzela_net as net;
pub use vuvuzela_sim as sim;
pub use vuvuzela_wire as wire;
