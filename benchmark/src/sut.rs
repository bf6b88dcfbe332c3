//! The system under test: the one file that names the repository's APIs.
//!
//! Every other module of the benchmark reaches the program it measures
//! only through the names below, so a refactor of the repository has one
//! file to follow (`tests::only_this_file_names_the_repository` enforces
//! it). Layers are measured from outside, by timing calls into these
//! public functions; nothing here reaches into private state.
//!
//! Re-exports are grouped by the layer (= repository module) they belong
//! to; the handful of functions at the bottom wrap idioms that take more
//! than one call (building a wire deployment, converting an arena to a
//! frame, reading link meters).

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

// crypto: the primitives the probes time.
pub use vuvuzela_crypto::onion::{
    layer_key_from_shared, peel_chunk_in_place, unwrap_reply_layers, wrap_into_with,
    wrap_noise_into, wrap_reply_in_place, LayerKey, PrecomputedServer, LAYER_OVERHEAD,
};
pub use vuvuzela_crypto::x25519::{
    x25519_batch, DhTable, Keypair, PublicKey, SecretKey, SharedSecret,
};
pub use vuvuzela_crypto::{aead, onion};

// dp: the noise distribution.
pub use vuvuzela_dp::{NoiseDistribution, NoiseMode};

// wire: payload formats and the frame codec.
pub use vuvuzela_wire::conversation::ExchangeRequest;
pub use vuvuzela_wire::deaddrop::{DeadDropId, InvitationDropIndex};
pub use vuvuzela_wire::dialing::{DialRequest, SealedInvitation};
pub use vuvuzela_wire::{
    BatchFrame, Frame, LinkId, RoundId, DIAL_REQUEST_LEN, EXCHANGE_REQUEST_LEN, SEALED_MESSAGE_LEN,
};

// net: links, transports, the worker pool.
pub use vuvuzela_net::link::{Direction, Link};
pub use vuvuzela_net::{memory_pair, RetryPolicy, TcpTransport, Transport, WorkerPool};

// core: the three runtimes, the shared round engine, clients.
pub use vuvuzela_core::chain::{
    build_server, server_keypairs, server_round_rng, Batch, Chain, RoundOutcome, RoundSpec,
    RoundTiming,
};
pub use vuvuzela_core::cohort::ClientCohort;
pub use vuvuzela_core::engine::{admission_weights, AdmissionWindow, EngineStep, RoundEngine};
pub use vuvuzela_core::node::{NodeStats, RoundTrailer};
pub use vuvuzela_core::noise::{conversation_noise_into, dialing_noise_into};
pub use vuvuzela_core::observables::{ConversationObservables, DialingObservables};
pub use vuvuzela_core::pipeline::StreamingChain;
pub use vuvuzela_core::roundbuf::RoundBuffer;
pub use vuvuzela_core::server::{MixServer, RoundKind};
pub use vuvuzela_core::SystemConfig;

// deploy: the wire nodes.
pub use vuvuzela::deploy::{serve_entry, serve_server, DeploymentConfig};

/// Every workload runs a chain of three servers, the paper's default.
pub const CHAIN_LEN: usize = 3;

/// The deployment configuration every workload shares apart from its
/// noise volumes and worker count: chain of three, sampled Laplace noise.
#[must_use]
pub fn system_config(
    conversation_noise: NoiseDistribution,
    dialing_noise: NoiseDistribution,
    workers: usize,
) -> SystemConfig {
    SystemConfig {
        chain_len: CHAIN_LEN,
        conversation_noise,
        dialing_noise,
        noise_mode: NoiseMode::Sampled,
        workers,
        conversation_slots: 1,
        retransmit_after: 2,
        exchange_shards: 4,
    }
}

/// The per-server DH tables clients wrap their onions with.
#[must_use]
pub fn client_tables(server_pks: &[PublicKey]) -> Arc<Vec<PrecomputedServer>> {
    vuvuzela_core::Client::chain_tables(server_pks)
}

/// Bytes moved so far over the clients link and the three hop links,
/// both directions, in that order.
#[must_use]
pub fn link_bytes(chain: &Chain) -> [u64; 1 + CHAIN_LEN] {
    let mut bytes = [0u64; 1 + CHAIN_LEN];
    bytes[0] = chain.client_link().total_bytes();
    for (slot, link) in bytes[1..].iter_mut().zip(chain.links()) {
        *slot = link.total_bytes();
    }
    bytes
}

/// A deployment description for wire nodes on free loopback ports.
///
/// The schedule stays empty: the nodes never read it, and the benchmark
/// drives its own generated batches through the entry.
///
/// # Errors
///
/// When no free loopback port can be probed.
pub fn wire_deployment(system: SystemConfig, seed: u64) -> Result<DeploymentConfig, String> {
    let mut cfg = DeploymentConfig {
        system,
        seed,
        entry_addr: "127.0.0.1:0".to_string(),
        server_addrs: vec!["127.0.0.1:0".to_string(); CHAIN_LEN],
        schedule: Vec::new(),
        connect_timeout_ms: 10_000,
    };
    vuvuzela::deploy::resolve_ephemeral_ports(&mut cfg)?;
    Ok(cfg)
}

/// Connects the client driver's one connection to a deployment's entry.
///
/// # Errors
///
/// Connect or handshake failures.
pub fn connect_to_entry(cfg: &DeploymentConfig) -> Result<TcpTransport, vuvuzela_net::Error> {
    TcpTransport::connect(
        cfg.entry_addr.as_str(),
        LinkId::Clients,
        cfg.digest(),
        &cfg.connect_retry(),
    )
}

/// Both ends of one TCP connection over the host's loopback interface,
/// handshake done.
///
/// # Errors
///
/// Bind, connect or handshake failures, rendered.
pub fn tcp_loopback_pair() -> Result<(TcpTransport, TcpTransport), String> {
    let link = LinkId::Hop(0);
    let digest = [0u8; 32];
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let acceptor = std::thread::spawn(move || TcpTransport::accept(&listener, link, digest));
    let near = TcpTransport::connect(
        addr,
        link,
        digest,
        &RetryPolicy::with_deadline(Duration::from_secs(10)),
    )
    .map_err(|e| e.to_string())?;
    let far = acceptor
        .join()
        .map_err(|_| "acceptor thread panicked".to_string())?
        .map_err(|e| e.to_string())?;
    Ok((near, far))
}

/// Packs a round arena into a forward or backward batch frame, keeping
/// its geometry, the way the wire nodes do between hops.
#[must_use]
pub fn frame_from_buf(
    link: LinkId,
    round: u64,
    kind: RoundKind,
    backward: bool,
    buf: RoundBuffer,
    trailer: Vec<u8>,
) -> Frame {
    let (payload, stride, width, len) = buf.into_raw();
    Frame::Batch(BatchFrame {
        link,
        round: RoundId(round),
        round_type: kind.round_type(),
        num_drops: match kind {
            RoundKind::Conversation => 0,
            RoundKind::Dialing { num_drops } => num_drops,
        },
        backward,
        stride: stride as u32,
        width: width as u32,
        count: len as u32,
        payload,
        trailer,
    })
}

/// The arena a peer packed with [`frame_from_buf`].
#[must_use]
pub fn buf_from_frame(frame: BatchFrame) -> RoundBuffer {
    RoundBuffer::from_raw(
        frame.payload,
        frame.stride as usize,
        frame.width as usize,
        frame.count as usize,
    )
}

/// The replies a backward conversation frame carries, one vector each.
#[must_use]
pub fn replies_from_frame(frame: &BatchFrame) -> Vec<Vec<u8>> {
    let stride = (frame.stride as usize).max(1);
    frame
        .payload
        .chunks(stride)
        .map(|slot| slot[..frame.width as usize].to_vec())
        .collect()
}

#[cfg(test)]
mod tests {
    /// The adapter's promise: a refactor of the repository has this one
    /// file to follow.
    #[test]
    fn only_this_file_names_the_repository() {
        let package = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        for dir in ["src", "tests"] {
            for entry in std::fs::read_dir(package.join(dir)).expect("a source directory") {
                let path = entry.expect("a directory entry").path();
                if path.file_name().is_some_and(|name| name == "sut.rs") {
                    continue;
                }
                let text = std::fs::read_to_string(&path).expect("a source file");
                for needle in ["vuvuzela_", "vuvuzela::"] {
                    assert!(
                        !text.contains(needle),
                        "{} names the repository ({needle}); go through sut.rs",
                        path.display()
                    );
                }
            }
        }
    }
}
