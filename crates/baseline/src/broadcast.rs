//! A Dissent/Riposte-style broadcast messenger (the unscalable baseline).
//!
//! Systems with provably strong metadata privacy before Vuvuzela "either
//! rely on broadcasting all messages to all users, or use computationally
//! expensive cryptographic constructions" (§1). This module implements
//! the broadcast strawman: every round, every client submits one
//! fixed-size sealed message; the server concatenates them all and sends
//! the full bundle to *every* client, who trial-decrypts everything.
//!
//! Recipient metadata is perfectly hidden (everyone receives everything),
//! but the per-round traffic is `n² · message_size` — the quadratic wall
//! that caps such systems at a few thousand users. The `tab_throughput`
//! benchmark plots this against Vuvuzela's linear cost.

use rand::{CryptoRng, RngCore};
use std::sync::atomic::{AtomicU64, Ordering};
use vuvuzela_crypto::sealedbox;
use vuvuzela_crypto::x25519::{Keypair, PublicKey};

/// Sealed broadcast slot size: a 240-byte payload in a sealed box.
pub const SLOT_LEN: usize = sealedbox::sealed_len(240);

/// A broadcast-round server: collects one slot per client, returns the
/// concatenation to each of them.
#[derive(Default)]
pub struct BroadcastServer {
    /// Bytes uploaded + downloaded through the server.
    bytes: AtomicU64,
}

impl BroadcastServer {
    /// Creates a server that has moved no bytes yet.
    #[must_use]
    pub fn new() -> BroadcastServer {
        BroadcastServer::default()
    }

    /// Runs one round: takes `slots` (one per client, each [`SLOT_LEN`]
    /// bytes) and returns the bundle every client downloads.
    ///
    /// The returned bundle is shared; the *accounting* multiplies it by
    /// the client count, because each client must download all of it.
    pub fn run_round(&self, slots: Vec<Vec<u8>>) -> Vec<u8> {
        let n = slots.len() as u64;
        let bundle: Vec<u8> = slots.concat();
        // Every client uploads its slot and downloads the whole bundle:
        // n × SLOT_LEN up, n × n × SLOT_LEN down.
        let moved = bundle.len() as u64 * (1 + n);
        self.bytes.fetch_add(moved, Ordering::Relaxed);
        bundle
    }

    /// Total bytes the server moved so far.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// A broadcast-system client.
pub struct BroadcastClient {
    keypair: Keypair,
}

impl BroadcastClient {
    /// Creates a client with a fresh keypair.
    pub fn new<R: RngCore + CryptoRng>(rng: &mut R) -> BroadcastClient {
        BroadcastClient {
            keypair: Keypair::generate(rng),
        }
    }

    /// The client's public identity.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.keypair.public
    }

    /// Builds this round's slot: a real message sealed to `recipient`, or
    /// an indistinguishable dummy when idle.
    pub fn build_slot<R: RngCore + CryptoRng>(
        &self,
        rng: &mut R,
        message: Option<(&PublicKey, &[u8; 240])>,
    ) -> Vec<u8> {
        match message {
            Some((recipient, payload)) => sealedbox::seal(rng, recipient, payload.as_slice()),
            None => {
                let mut dummy = vec![0u8; SLOT_LEN];
                rng.fill_bytes(&mut dummy);
                dummy
            }
        }
    }

    /// Scans a downloaded bundle for messages addressed to this client.
    #[must_use]
    pub fn scan_bundle(&self, bundle: &[u8]) -> Vec<Vec<u8>> {
        bundle
            .chunks(SLOT_LEN)
            .filter_map(|slot| {
                sealedbox::open(&self.keypair.secret, &self.keypair.public, slot).ok()
            })
            .collect()
    }
}

/// Total bytes a broadcast deployment moves per round for `n` clients —
/// the analytic form of the quadratic cost, used by benches without
/// running the crypto.
#[must_use]
pub fn bytes_per_round(n: u64) -> u64 {
    n * SLOT_LEN as u64 // uploads
        + n * n * SLOT_LEN as u64 // every client downloads everything
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn broadcast_delivers_while_hiding_recipient() {
        let mut rng = StdRng::seed_from_u64(1);
        let server = BroadcastServer::new();
        let alice = BroadcastClient::new(&mut rng);
        let bob = BroadcastClient::new(&mut rng);
        let carol = BroadcastClient::new(&mut rng);

        let mut message = [0u8; 240];
        message[..5].copy_from_slice(b"hello");
        let slots = vec![
            alice.build_slot(&mut rng, Some((&bob.public_key(), &message))),
            bob.build_slot(&mut rng, None),
            carol.build_slot(&mut rng, None),
        ];
        // All slots are the same size — senders are indistinguishable.
        assert!(slots.iter().all(|s| s.len() == SLOT_LEN));

        let bundle = server.run_round(slots);
        // Everyone downloads the same bundle; only Bob can read the
        // message.
        assert_eq!(bob.scan_bundle(&bundle).len(), 1);
        assert_eq!(&bob.scan_bundle(&bundle)[0][..5], b"hello");
        assert!(alice.scan_bundle(&bundle).is_empty());
        assert!(carol.scan_bundle(&bundle).is_empty());
    }

    #[test]
    fn cost_grows_quadratically() {
        // Doubling users should ~4x the bytes once downloads dominate.
        let small = bytes_per_round(1_000);
        let big = bytes_per_round(2_000);
        let ratio = big as f64 / small as f64;
        assert!((3.9..=4.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn metered_round_matches_analytic_cost() {
        let mut rng = StdRng::seed_from_u64(2);
        let server = BroadcastServer::new();
        let clients: Vec<BroadcastClient> =
            (0..5).map(|_| BroadcastClient::new(&mut rng)).collect();
        let slots: Vec<Vec<u8>> = clients
            .iter()
            .map(|c| c.build_slot(&mut rng, None))
            .collect();
        let _ = server.run_round(slots);
        assert_eq!(server.total_bytes(), bytes_per_round(5));
    }
}
