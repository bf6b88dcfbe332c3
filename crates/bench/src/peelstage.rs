//! The two kernel probes that price the kernel floor
//! ([`CostModel`](crate::CostModel)): per-core rates of the chunk
//! kernels every round runs, with every worker busy.
//!
//! * [`Probe::peel`] — onions per second through
//!   `onion::peel_chunk_in_place`, what every mix hop runs per worker
//!   chunk: eight Montgomery ladders in lockstep on AVX-512 IFMA, the
//!   scalar ladder elsewhere (see
//!   [`vuvuzela_crypto::x25519::ladder_backend`]), the inversions
//!   batched across the chunk and the open in place on both;
//! * [`Probe::wrap`] — wrapped layers per second through
//!   `onion::wrap_chunk_in_place`, the bulk path of cover traffic and
//!   cohort build: the eight-wide comb on AVX-512 IFMA, the scalar comb
//!   elsewhere.
//!
//! Each probe builds its input and asserts its kernel byte-identical to
//! the oracle (`onion::peel` per onion; the one-onion-at-a-time wrap)
//! once. Every [`Probe::rate`] is then one timed pass, fanned out in
//! 32-slot chunks through `WorkerPool::map_vec` on as many
//! workers as the round it prices, so that what slows the round's
//! workers together (SMT siblings, a busy host) slows the probe alike;
//! a caller can interleave them with what it prices them against.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vuvuzela_crypto::onion;
use vuvuzela_crypto::x25519::Keypair;
use vuvuzela_net::WorkerPool;

/// Payload size wrapped into each probe onion (a realistic
/// conversation-message scale; the exact value only shifts the AEAD
/// share of the timings).
const PAYLOAD_LEN: usize = 240;

/// Slots per kernel call, one item of the fan-out: the chunk
/// `MixServer::forward_buf` peels and the bulk wrap paths (noise
/// generation, cohort build) wrap on one worker.
const CHUNK_SLOTS: usize = 32;

/// One kernel call over the `i`th chunk of an arena, in place.
type Pass = Box<dyn Fn(usize, &mut [u8]) + Sync>;

/// One kernel over a prepared, checked arena.
pub struct Probe {
    arena: Vec<u8>,
    /// Bytes of the arena per kernel call: [`CHUNK_SLOTS`] slots.
    chunk: usize,
    /// Kernel operations one pass does: onions peeled or layers wrapped.
    ops: usize,
    pass: Pass,
}

impl Probe {
    /// One server peeling an arena of `onions` single-layer onions.
    ///
    /// # Panics
    ///
    /// If the chunk peel disagrees with `onion::peel` on any output byte
    /// or layer key, or refuses an onion — a correctness gate, not a
    /// benchmark condition.
    #[must_use]
    pub fn peel(onions: usize) -> Probe {
        let mut rng = StdRng::seed_from_u64(4242);
        let server = Keypair::generate(&mut rng);
        let payload = vec![0u8; PAYLOAD_LEN];
        let width = onion::wrapped_len(payload.len(), 1);
        let round = 1u64;
        let mut arena = vec![0u8; onions * width];
        for slot in arena.chunks_mut(width) {
            let (o, _) = onion::wrap(&mut rng, &[server.public], round, &payload);
            slot.copy_from_slice(&o);
        }

        let oracle = server.clone();
        let pass = move |_: usize, chunk: &mut [u8]| {
            onion::peel_chunk_in_place(&server.secret, &server.public, round, chunk, width, width)
        };
        let mut peeled = arena.clone();
        let got: Vec<_> = peeled
            .chunks_mut(CHUNK_SLOTS * width)
            .enumerate()
            .flat_map(|(i, chunk)| pass(i, chunk))
            .collect();
        for (i, (got, slot)) in got.iter().zip(arena.chunks(width)).enumerate() {
            let (key, len) = got.as_ref().expect("valid onion");
            let (want_key, inner) =
                onion::peel(&oracle.secret, &oracle.public, round, slot).expect("valid onion");
            assert_eq!(key.0, want_key.0, "slot {i} key");
            assert_eq!(
                peeled[i * width..][..*len],
                inner[..],
                "slot {i} vs per-slot"
            );
        }

        Probe {
            arena,
            chunk: CHUNK_SLOTS * width,
            ops: onions,
            pass: Box::new(move |i, chunk| {
                let _ = pass(i, chunk);
            }),
        }
    }

    /// `onions` payloads wrapped for a `chain_len`-server chain, 32
    /// slots a call (`onions · chain_len` layers a pass).
    ///
    /// # Panics
    ///
    /// If the chunk wrap and the onion-at-a-time wrap (the same kernel
    /// on a chunk of one, fed the same secrets from their RNG) disagree
    /// on any output byte.
    #[must_use]
    pub fn wrap(onions: usize, chain_len: usize) -> Probe {
        let mut rng = StdRng::seed_from_u64(4243);
        let servers: Vec<onion::PrecomputedServer> = (0..chain_len)
            .map(|_| onion::PrecomputedServer::new(Keypair::generate(&mut rng).public))
            .collect();
        let width = onion::wrapped_len(PAYLOAD_LEN, chain_len);
        let round = 1u64;
        // Zero payloads in place; the secrets both forms consume, in the
        // one order `draw_layer_secrets` defines.
        let arena = vec![0u8; onions * width];
        let mut secrets = vec![[0u8; 32]; onions * chain_len];
        let mut secrets_rng = rng.clone();
        for slot_secrets in secrets.chunks_mut(chain_len) {
            onion::draw_layer_secrets(&mut rng, slot_secrets);
        }

        let mut singly = arena.clone();
        for slot in singly.chunks_mut(width) {
            onion::wrap_noise_into(&mut secrets_rng, &servers, round, slot, PAYLOAD_LEN);
        }
        let pass = move |i: usize, chunk: &mut [u8]| {
            let first = i * CHUNK_SLOTS * chain_len;
            let chunk_secrets = &secrets[first..][..chunk.len() / width * chain_len];
            onion::wrap_chunk_in_place(
                &servers,
                round,
                chunk,
                width,
                PAYLOAD_LEN,
                chunk_secrets,
                None,
            );
        };
        let mut chunked = arena.clone();
        for (i, chunk) in chunked.chunks_mut(CHUNK_SLOTS * width).enumerate() {
            pass(i, chunk);
        }
        assert_eq!(chunked, singly, "chunk and single-onion wraps diverged");

        Probe {
            arena,
            chunk: CHUNK_SLOTS * width,
            ops: onions * chain_len,
            pass: Box::new(pass),
        }
    }

    /// Kernel operations per second per worker in one timed pass over a
    /// fresh copy of the arena (the copy untimed), its chunks fanned out
    /// on `workers` workers as a round's are.
    #[must_use]
    pub fn rate(&self, workers: usize) -> f64 {
        let mut copy = self.arena.clone();
        let chunks: Vec<_> = copy.chunks_mut(self.chunk).enumerate().collect();
        let start = Instant::now();
        WorkerPool::shared().map_vec(chunks, workers, |(i, chunk)| {
            (self.pass)(i, std::hint::black_box(chunk));
        });
        let secs = start.elapsed().as_secs_f64();
        std::hint::black_box(copy);
        self.ops as f64 / secs / workers as f64
    }
}
