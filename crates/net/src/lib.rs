//! Simulated network substrate for Vuvuzela experiments.
//!
//! The paper evaluates Vuvuzela on EC2 VMs connected by 10 Gbps links and
//! notes that "network latency has little effect on Vuvuzela's
//! performance, as each round is largely dominated by the CPU cost of
//! cryptography on the servers and by the bandwidth for transferring all
//! of the encrypted requests in a round" (§8.1). This crate therefore
//! models the network as explicit, observable *links* rather than sockets:
//!
//! * [`link`] — a [`link::Link`] carries batches of opaque ciphertexts
//!   between hops, logs per round and direction what crossed it (the
//!   adversary's view of the link) and totals it per direction (the
//!   source of every bandwidth number the benches report,
//!   `link_bytes_per_onion` in `benchmark/README.md`), and hands each
//!   batch to an optional [`link::Tap`], which models the paper's §2.3 active adversary: it
//!   can *block, delay, or inject* traffic on any link.
//! * [`parallel`] — [`parallel::WorkerPool::map_vec`], the one
//!   order-preserving fan-out on scoped threads, which spreads
//!   per-request Diffie-Hellman work across cores as the paper's
//!   36-core servers do.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demux;
pub mod error;
pub mod link;
pub mod parallel;
pub mod tcp;
pub mod transport;

pub use demux::{Demux, DemuxEvent};
pub use error::Error;
pub use link::{batch_through_link, Direction, Link, Slots, Tap, TapContext};
pub use parallel::WorkerPool;
pub use tcp::{loopback_pair, RetryPolicy, TcpTransport};
pub use transport::{memory_pair, MemoryEndpoint, Transport};
pub use vuvuzela_wire::LinkId;
