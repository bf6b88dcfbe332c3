//! Isolated peel-stage and wrap-stage micro-benchmarks behind
//! `bench_round_pipeline` ([`run_wrap`] is described on the function).
//!
//! [`run`] times one server peeling a fixed arena of single-layer onions
//! through two implementations over identical input bytes:
//!
//! * **per-slot** (`onion::peel` per onion): the seed-era reference and
//!   the oracle — one scalar ladder, one full field inversion and one
//!   allocation per onion;
//! * **batched** (`onion::peel_chunk_in_place`): what every mix hop
//!   runs per worker chunk — eight Montgomery ladders in lockstep on
//!   AVX-512 IFMA, the scalar ladder elsewhere (see
//!   [`vuvuzela_crypto::x25519::ladder_backend`]), the inversions
//!   batched across the chunk and the open in place on both.
//!
//! The two are asserted byte-identical before any timing; best-of-N
//! wall-clock is reported. `speedup_peel_vs_per_slot` prices the whole
//! batching stack against the seed path and rides the `bench_diff`
//! regression gate (between artefacts from the same ladder backend; it
//! is ~1.1 on the scalar ladder, where only the inversions and the
//! allocations are saved, and ~5 eight-wide).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vuvuzela_crypto::onion;
use vuvuzela_crypto::x25519::Keypair;

/// Payload size wrapped into each benchmark onion (a realistic
/// conversation-message scale; the exact value only shifts the AEAD
/// share of the timings).
const PAYLOAD_LEN: usize = 240;

/// Runs the peel-stage comparison over `onions` onions, best of
/// `iterations` passes per implementation.
///
/// # Panics
///
/// Panics if the two implementations disagree on any output byte or
/// layer key, or refuse an onion — a correctness gate, not a benchmark
/// condition.
#[must_use]
pub fn run(onions: usize, iterations: usize) -> serde_json::Value {
    let mut rng = StdRng::seed_from_u64(4242);
    let server = Keypair::generate(&mut rng);
    let payload = vec![0u8; PAYLOAD_LEN];
    let width = onion::wrapped_len(payload.len(), 1);
    let stride = width;
    let round = 1u64;
    println!("\npeel stage: wrapping {onions} single-layer onions ({width}B)...");
    let mut arena = vec![0u8; onions * stride];
    for i in 0..onions {
        let (o, _) = onion::wrap(&mut rng, &[server.public], round, &payload);
        arena[i * stride..(i + 1) * stride].copy_from_slice(&o);
    }

    // Correctness gate: the chunk peel must agree bytewise with the
    // oracle before timing.
    let mut a_batched = arena.clone();
    let r_batched = onion::peel_chunk_in_place(
        &server.secret,
        &server.public,
        round,
        &mut a_batched,
        stride,
        width,
    );
    for (i, (got, slot)) in r_batched.iter().zip(arena.chunks(stride)).enumerate() {
        let (key, len) = got.as_ref().expect("valid onion");
        let (want_key, inner) =
            onion::peel(&server.secret, &server.public, round, slot).expect("valid onion");
        assert_eq!(key.0, want_key.0, "slot {i} key");
        assert_eq!(
            a_batched[i * stride..][..*len],
            inner[..],
            "slot {i} vs per-slot"
        );
    }
    println!("peel outputs byte-identical, chunk and per-slot");

    // The variants are timed *interleaved* — each iteration measures
    // both implementations once, back to back — so a load spike on a
    // shared box degrades them in the same window instead of silently
    // biasing the ratio; best-of-N then discards the noisy windows
    // entirely.
    let (mut best_batched, mut best_per_slot) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..iterations {
        let mut a = arena.clone();
        let start = Instant::now();
        let _ = onion::peel_chunk_in_place(
            &server.secret,
            &server.public,
            round,
            &mut a,
            stride,
            width,
        );
        best_batched = best_batched.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        for slot in arena.chunks(stride) {
            let _ = onion::peel(&server.secret, &server.public, round, slot);
        }
        best_per_slot = best_per_slot.min(start.elapsed().as_secs_f64());
    }
    let batched = onions as f64 / best_batched;
    let per_slot = onions as f64 / best_per_slot;
    println!("peel: per-slot {per_slot:>8.0} onions/s   batched {batched:>8.0} onions/s");
    println!(
        "peel speedup: batched vs per-slot {:.2}x",
        batched / per_slot
    );
    serde_json::json!({
        "onions": onions,
        "layer_width_bytes": width,
        "iterations": iterations,
        "per_slot_onions_per_sec": per_slot,
        "batched_onions_per_sec": batched,
        "speedup_peel_vs_per_slot": batched / per_slot,
    })
}

/// Slots per [`onion::wrap_chunk_in_place`] call in [`run_wrap`]: the
/// chunk the bulk callers (noise generation, cohort build) hand it.
const WRAP_CHUNK_SLOTS: usize = 32;

/// Prices the wrap stage: `onions` payloads wrapped for a
/// `chain_len`-server chain through `onion::wrap_chunk_in_place`, 32
/// slots a call — the bulk path of cover traffic and cohort build: the
/// eight-wide comb on AVX-512 IFMA, the scalar comb elsewhere — best of
/// `iterations` passes. The rate is wrapped *layers* per second
/// (`onions · chain_len` per pass). There is no second wrap path to
/// divide by: the single-onion entry points are the same kernel on a
/// chunk of one, so they serve as the byte-identity check only (fed the
/// same secrets from their RNG).
///
/// # Panics
///
/// Panics if the chunk and the onion-at-a-time wraps disagree on any
/// output byte.
#[must_use]
pub fn run_wrap(onions: usize, chain_len: usize, iterations: usize) -> serde_json::Value {
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

    let wrap_chunks = |a: &mut [u8]| {
        for (chunk, chunk_secrets) in a
            .chunks_mut(WRAP_CHUNK_SLOTS * width)
            .zip(secrets.chunks(WRAP_CHUNK_SLOTS * chain_len))
        {
            onion::wrap_chunk_in_place(
                &servers,
                round,
                chunk,
                width,
                PAYLOAD_LEN,
                chunk_secrets,
                None,
            );
        }
    };

    println!("\nwrap stage: {onions} onions x {chain_len} layers ({width}B)...");
    let (mut chunked, mut singly) = (arena.clone(), arena.clone());
    wrap_chunks(&mut chunked);
    for slot in singly.chunks_mut(width) {
        onion::wrap_noise_into(&mut secrets_rng, &servers, round, slot, PAYLOAD_LEN);
    }
    assert_eq!(chunked, singly, "chunk and single-onion wraps diverged");
    println!("wrap outputs byte-identical, chunked and one onion at a time");

    let mut best = f64::INFINITY;
    for _ in 0..iterations {
        let mut a = arena.clone();
        let start = Instant::now();
        wrap_chunks(&mut a);
        best = best.min(start.elapsed().as_secs_f64());
    }
    let chunk = (onions * chain_len) as f64 / best;
    println!("wrap: chunk {chunk:>8.0} layers/s");
    serde_json::json!({
        "onions": onions,
        "chain_len": chain_len,
        "onion_width_bytes": width,
        "iterations": iterations,
        "chunk_layers_per_sec": chunk,
    })
}
