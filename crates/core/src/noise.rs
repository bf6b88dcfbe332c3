//! Cover-traffic generation (paper Algorithm 2 step 2, §4.2, §5.3).
//!
//! Each mixing server manufactures noise requests that are bitwise
//! indistinguishable from real ones and injects them into the round
//! before shuffling. Noise created at chain position `i` must still
//! traverse servers `i+1..n`, so it is onion-wrapped for exactly that
//! suffix of the chain — this is why cover traffic is the dominant cost
//! at small scale (§8.2) and why latency grows quadratically with chain
//! length (Figure 11).
//!
//! The in-place generators ([`conversation_noise_into`],
//! [`dialing_noise_into`]) write every payload into the round arena
//! first, then wrap the noise slots a chunk at a time through
//! [`onion::wrap_chunk_in_place`], so a round's thousands of keygens and
//! DHs against the same few server keys walk those keys' comb tables
//! eight lanes in lockstep where the CPU can. The allocating [`conversation_noise`] /
//! [`dialing_noise`] stay at seed cost as the byte-identical reference.

use crate::config::SystemConfig;
use crate::roundbuf::RoundBuffer;
use crate::server::RoundKind;
use rand::rngs::StdRng;
use rand::{CryptoRng, RngCore, SeedableRng};
use vuvuzela_crypto::onion;
use vuvuzela_crypto::x25519::PublicKey;
use vuvuzela_dp::{NoiseDistribution, NoiseMode};
use vuvuzela_net::WorkerPool;
use vuvuzela_wire::conversation::ExchangeRequest;
use vuvuzela_wire::deaddrop::{DeadDropId, InvitationDropIndex};
use vuvuzela_wire::dialing::{DialRequest, SealedInvitation};

/// A batch of generated cover traffic, ready to merge into the round.
pub struct NoiseBatch {
    /// The wrapped (or, for the last server, plain) request bytes.
    pub onions: Vec<Vec<u8>>,
    /// How many single-access noise requests were generated: the `n1`
    /// draw plus, when `n2` is odd, its unpaired leftover request (a
    /// singleton drop, indistinguishable from a single access).
    pub singles: u64,
    /// How many *pairs* of same-drop noise requests were generated
    /// (⌊n2/2⌋); each pair contributes two onions.
    pub pairs: u64,
}

/// Generates one round of conversation cover traffic for a server at the
/// given chain position.
///
/// Samples `n1, n2 ~ ⌈max(0, Laplace(µ, b))⌉` and emits `n1` single
/// accesses to random dead drops plus `⌊n2/2⌋` pairs of accesses to a
/// shared random drop; when `n2` is odd the unpaired leftover request is
/// emitted as one more singleton access (1 access to its drop → it lands
/// in m1, not m2). Every onion is wrapped for `remaining_chain` (the
/// servers after this one). An empty `remaining_chain` yields plain
/// encoded requests (used when substituting for malformed input at the
/// last server).
pub fn conversation_noise<R: RngCore + CryptoRng>(
    rng: &mut R,
    remaining_chain: &[PublicKey],
    round: u64,
    dist: NoiseDistribution,
    mode: NoiseMode,
    workers: usize,
) -> NoiseBatch {
    let n1 = dist.sample_count(rng, mode);
    let n2 = dist.sample_count(rng, mode);
    let pairs = n2 / 2;
    let singles = n1 + n2 % 2;

    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity((singles + 2 * pairs) as usize);
    for _ in 0..singles {
        payloads.push(ExchangeRequest::noise(rng).encode());
    }
    for _ in 0..pairs {
        // Two indistinguishable requests to the same random drop: this is
        // what inflates m2.
        let drop = DeadDropId::random(rng);
        for _ in 0..2 {
            let mut request = ExchangeRequest::noise(rng);
            request.drop = drop;
            payloads.push(request.encode());
        }
    }

    NoiseBatch {
        onions: wrap_payloads(rng, payloads, remaining_chain, round, workers),
        singles,
        pairs,
    }
}

/// Generates one round of dialing cover traffic: for every real
/// invitation drop, `⌈max(0, Laplace(µ, b))⌉` noise invitations, each
/// wrapped for the remaining chain (§5.3).
pub fn dialing_noise<R: RngCore + CryptoRng>(
    rng: &mut R,
    remaining_chain: &[PublicKey],
    round: u64,
    num_drops: u32,
    dist: NoiseDistribution,
    mode: NoiseMode,
    workers: usize,
) -> NoiseBatch {
    let mut payloads = Vec::new();
    let mut total = 0u64;
    for drop in 1..=num_drops {
        let count = dist.sample_count(rng, mode);
        total += count;
        for _ in 0..count {
            let request = DialRequest {
                drop: InvitationDropIndex(drop),
                invitation: SealedInvitation::noise(rng),
            };
            payloads.push(request.encode());
        }
    }
    NoiseBatch {
        onions: wrap_payloads(rng, payloads, remaining_chain, round, workers),
        singles: total,
        pairs: 0,
    }
}

/// Zero-copy variant of [`conversation_noise`]: appends the noise onions
/// directly to `batch` (payload written into its slot, onion built there
/// in place) instead of returning per-onion vectors. Draws from `rng` in
/// exactly the same order as the allocating version, so a seeded run is
/// byte-identical either way — the pipeline-equivalence property tests
/// rely on this.
///
/// Returns `(singles, pairs)` as [`NoiseBatch`] would.
///
/// # Panics
///
/// Panics if `batch.width()` does not equal the wrapped noise size for
/// `remaining_chain` — noise must be indistinguishable from the real
/// requests already in the batch.
pub fn conversation_noise_into<R: RngCore + CryptoRng>(
    rng: &mut R,
    batch: &mut RoundBuffer,
    remaining_chain: &[onion::PrecomputedServer],
    round: u64,
    dist: NoiseDistribution,
    mode: NoiseMode,
    workers: usize,
) -> (u64, u64) {
    assert_eq!(
        batch.width(),
        vuvuzela_wire::EXCHANGE_REQUEST_LEN + remaining_chain.len() * onion::LAYER_OVERHEAD,
        "noise onions must match the batch's current width"
    );
    let n1 = dist.sample_count(rng, mode);
    let n2 = dist.sample_count(rng, mode);
    let pairs = n2 / 2;
    let singles = n1 + n2 % 2;
    let payload_offset = 32 * remaining_chain.len();

    let first_noise = batch.len();
    batch.reserve_exact((singles + 2 * pairs) as usize);
    for _ in 0..singles {
        batch.push_with(|slot| {
            ExchangeRequest::noise_into(rng, None, &mut slot[payload_offset..]);
        });
    }
    for _ in 0..pairs {
        // Two indistinguishable requests to the same random drop: this is
        // what inflates m2.
        let drop = DeadDropId::random(rng);
        for _ in 0..2 {
            batch.push_with(|slot| {
                ExchangeRequest::noise_into(rng, Some(&drop), &mut slot[payload_offset..]);
            });
        }
    }

    wrap_slots_in_place(rng, batch, first_noise, remaining_chain, round, workers);
    (singles, pairs)
}

/// Zero-copy variant of [`dialing_noise`]; see
/// [`conversation_noise_into`] for the contract. Returns the total noise
/// count.
#[allow(clippy::too_many_arguments)] // mirrors `dialing_noise` plus the buffer
pub fn dialing_noise_into<R: RngCore + CryptoRng>(
    rng: &mut R,
    batch: &mut RoundBuffer,
    remaining_chain: &[onion::PrecomputedServer],
    round: u64,
    num_drops: u32,
    dist: NoiseDistribution,
    mode: NoiseMode,
    workers: usize,
) -> u64 {
    assert_eq!(
        batch.width(),
        vuvuzela_wire::DIAL_REQUEST_LEN + remaining_chain.len() * onion::LAYER_OVERHEAD,
        "noise onions must match the batch's current width"
    );
    let payload_offset = 32 * remaining_chain.len();
    let first_noise = batch.len();
    let mut total = 0u64;
    for drop in 1..=num_drops {
        // Each drop's count is drawn after the previous drop's noise, so
        // the arena is reserved a drop at a time.
        let count = dist.sample_count(rng, mode);
        total += count;
        batch.reserve_exact(count as usize);
        for _ in 0..count {
            batch.push_with(|slot| {
                DialRequest::noise_into(
                    rng,
                    InvitationDropIndex(drop),
                    &mut slot[payload_offset..],
                );
            });
        }
    }
    wrap_slots_in_place(rng, batch, first_noise, remaining_chain, round, workers);
    total
}

/// Slots per [`onion::wrap_chunk_in_place`] call on the bulk wrap paths
/// (here and in [`crate::cohort`]): the granularity at which a worker
/// batches onions' fixed-base scalar multiplications into eight-lane
/// comb walks (a chain-3 chunk is 192 lanes: 24 full octets, six
/// shared inversions), and one item of the `WorkerPool::map_vec` fan-out.
pub(crate) const WRAP_CHUNK_SLOTS: usize = 32;

/// Onion-wraps `batch` slots `first..len` in place: each slot already
/// holds its payload at offset `32 * chain.len()` (where
/// [`onion::wrap_chunk_in_place`] expects it) and is sealed for the chain
/// suffix, a chunk of [`WRAP_CHUNK_SLOTS`] slots per call, chunks in
/// parallel. Seeds are drawn per slot from `rng` in slot
/// order, exactly like [`wrap_payloads`] does for the allocating path —
/// and none at all for an empty chain; each slot's child RNG then
/// yields only that onion's layer secrets.
fn wrap_slots_in_place<R: RngCore + CryptoRng>(
    rng: &mut R,
    batch: &mut RoundBuffer,
    first: usize,
    chain: &[onion::PrecomputedServer],
    round: u64,
    workers: usize,
) {
    if chain.is_empty() || batch.len() == first {
        return;
    }
    let count = batch.len() - first;
    let payload_len = batch.width() - chain.len() * onion::LAYER_OVERHEAD;
    let seeds: Vec<[u8; 32]> = (0..count)
        .map(|_| {
            let mut seed = [0u8; 32];
            rng.fill_bytes(&mut seed);
            seed
        })
        .collect();

    let stride = batch.stride();
    let chunks = batch.arena_mut()[first * stride..]
        .chunks_mut(stride * WRAP_CHUNK_SLOTS)
        .zip(seeds.chunks(WRAP_CHUNK_SLOTS))
        .collect();
    WorkerPool::shared().map_vec(chunks, workers, |(window, seeds): (&mut [u8], _)| {
        let mut secrets = vec![[0u8; 32]; seeds.len() * chain.len()];
        for (seed, slot_secrets) in seeds.iter().zip(secrets.chunks_mut(chain.len())) {
            onion::draw_layer_secrets(&mut StdRng::from_seed(*seed), slot_secrets);
        }
        onion::wrap_chunk_in_place(chain, round, window, stride, payload_len, &secrets, None);
    });
}

/// The expected cover traffic a single noising server adds to one round
/// of `kind` under `config` — the dp planner's per-round-type noise
/// budget ([`vuvuzela_dp::expected_noise_requests`]), zeroed when noise
/// is off. The streaming scheduler's weighted admission control prices
/// rounds with this: a dialing round at the paper's µ = 13,000 per drop
/// carries orders of magnitude more noise than its client batch, and
/// must occupy correspondingly more of the in-flight window.
#[must_use]
pub fn expected_noise_per_server(kind: RoundKind, config: &SystemConfig) -> f64 {
    if matches!(config.noise_mode, NoiseMode::Off) {
        return 0.0;
    }
    match kind {
        RoundKind::Conversation => vuvuzela_dp::expected_noise_requests(
            vuvuzela_dp::Protocol::Conversation,
            config.conversation_noise.mu,
            0,
        ),
        RoundKind::Dialing { num_drops } => vuvuzela_dp::expected_noise_requests(
            vuvuzela_dp::Protocol::Dialing,
            config.dialing_noise.mu,
            num_drops,
        ),
    }
}

/// Per-drop noise counts for the last server (which deposits directly
/// into the drop table instead of wrapping onions).
pub fn dialing_noise_counts<R: RngCore + CryptoRng>(
    rng: &mut R,
    num_drops: u32,
    dist: NoiseDistribution,
    mode: NoiseMode,
) -> Vec<u64> {
    (0..num_drops)
        .map(|_| dist.sample_count(rng, mode))
        .collect()
}

/// Onion-wraps a batch of payloads for a chain suffix, in parallel —
/// through the **pre-refactor** allocating [`onion::wrap`] (ladder
/// keygen, ladder DH, one heap allocation per layer).
///
/// Each item gets its own deterministic child RNG seeded from `rng`, so
/// results are reproducible for a seeded parent while the expensive
/// wrapping (one X25519 per layer per payload) spreads across `workers`
/// threads.
///
/// This is the per-`Vec` oracle of the noise wrap: what
/// [`crate::server::MixServer::forward_reference`]'s noise path runs,
/// and what the equivalence tests hold the in-place noise path to. No
/// runtime wraps through it.
pub fn wrap_payloads<R: RngCore + CryptoRng>(
    rng: &mut R,
    payloads: Vec<Vec<u8>>,
    chain: &[PublicKey],
    round: u64,
    workers: usize,
) -> Vec<Vec<u8>> {
    if chain.is_empty() {
        return payloads;
    }
    let seeded: Vec<([u8; 32], Vec<u8>)> = payloads
        .into_iter()
        .map(|p| {
            let mut seed = [0u8; 32];
            rng.fill_bytes(&mut seed);
            (seed, p)
        })
        .collect();
    WorkerPool::shared().map_vec(seeded, workers, |(seed, payload)| {
        let mut child = StdRng::from_seed(seed);
        let (onion, _keys) = onion::wrap(&mut child, chain, round, &payload);
        onion
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vuvuzela_crypto::x25519::Keypair;
    use vuvuzela_wire::EXCHANGE_REQUEST_LEN;

    #[test]
    fn deterministic_counts_match_paper_accounting() {
        // §8.2: "Each server in the chain, except for the last one, adds
        // µ × 2 noise requests on average". With deterministic mode and
        // µ even, singles + 2·pairs = 2µ exactly.
        let mut rng = StdRng::seed_from_u64(1);
        let dist = NoiseDistribution::new(50.0, 10.0);
        let batch = conversation_noise(&mut rng, &[], 0, dist, NoiseMode::Deterministic, 1);
        assert_eq!(batch.singles, 50);
        assert_eq!(batch.pairs, 25);
        assert_eq!(batch.onions.len(), 100);
    }

    #[test]
    fn odd_n2_leftover_is_a_singleton() {
        // µ = 5 deterministic → n1 = n2 = 5. Algorithm 2 pairs the n2
        // draw as ⌊5/2⌋ = 2 same-drop pairs; the 5th request has no
        // partner and must surface as one more *singleton* access
        // (1 access → m1), never as a ⌈5/2⌉ = 3rd "pair".
        let mut rng = StdRng::seed_from_u64(11);
        let dist = NoiseDistribution::new(5.0, 1.0);
        let batch = conversation_noise(&mut rng, &[], 0, dist, NoiseMode::Deterministic, 1);
        assert_eq!(batch.singles, 6);
        assert_eq!(batch.pairs, 2);
        assert_eq!(batch.onions.len(), 10);
        let requests: Vec<ExchangeRequest> = batch
            .onions
            .iter()
            .map(|o| ExchangeRequest::decode(o).expect("decode"))
            .collect();
        // All six singles (incl. the leftover) use distinct drops.
        let singles = &requests[..batch.singles as usize];
        let unique: std::collections::HashSet<_> = singles.iter().map(|r| r.drop).collect();
        assert_eq!(unique.len(), singles.len());
        for chunk in requests[batch.singles as usize..].chunks(2) {
            assert_eq!(chunk[0].drop, chunk[1].drop);
        }
    }

    #[test]
    fn unwrapped_noise_is_valid_requests() {
        let mut rng = StdRng::seed_from_u64(2);
        let dist = NoiseDistribution::new(4.0, 1.0);
        let batch = conversation_noise(&mut rng, &[], 7, dist, NoiseMode::Deterministic, 1);
        for onion in &batch.onions {
            assert_eq!(onion.len(), EXCHANGE_REQUEST_LEN);
            let _ = ExchangeRequest::decode(onion).expect("noise decodes as a request");
        }
    }

    #[test]
    fn paired_noise_shares_drops() {
        let mut rng = StdRng::seed_from_u64(3);
        let dist = NoiseDistribution::new(6.0, 1.0);
        let batch = conversation_noise(&mut rng, &[], 0, dist, NoiseMode::Deterministic, 1);
        let requests: Vec<ExchangeRequest> = batch
            .onions
            .iter()
            .map(|o| ExchangeRequest::decode(o).expect("decode"))
            .collect();
        // Last 2·pairs requests come in same-drop pairs.
        let pair_section = &requests[batch.singles as usize..];
        assert_eq!(pair_section.len() as u64, 2 * batch.pairs);
        for chunk in pair_section.chunks(2) {
            assert_eq!(chunk[0].drop, chunk[1].drop);
        }
        // Singles all use distinct drops.
        let singles = &requests[..batch.singles as usize];
        let unique: std::collections::HashSet<_> = singles.iter().map(|r| r.drop).collect();
        assert_eq!(unique.len(), singles.len());
    }

    #[test]
    fn wrapped_noise_peels_down_the_chain() {
        let mut rng = StdRng::seed_from_u64(4);
        let s1 = Keypair::generate(&mut rng);
        let s2 = Keypair::generate(&mut rng);
        let dist = NoiseDistribution::new(3.0, 1.0);
        let batch = conversation_noise(
            &mut rng,
            &[s1.public, s2.public],
            9,
            dist,
            NoiseMode::Deterministic,
            2,
        );
        for onion in &batch.onions {
            let (_, inner) =
                vuvuzela_crypto::onion::peel(&s1.secret, &s1.public, 9, onion).expect("layer 1");
            let (_, payload) =
                vuvuzela_crypto::onion::peel(&s2.secret, &s2.public, 9, &inner).expect("layer 2");
            let _ = ExchangeRequest::decode(&payload).expect("valid request inside");
        }
    }

    #[test]
    fn dialing_noise_covers_every_drop() {
        let mut rng = StdRng::seed_from_u64(5);
        let dist = NoiseDistribution::new(4.0, 1.0);
        let batch = dialing_noise(&mut rng, &[], 0, 3, dist, NoiseMode::Deterministic, 1);
        assert_eq!(batch.onions.len(), 12);
        let mut per_drop = std::collections::HashMap::new();
        for onion in &batch.onions {
            let req = DialRequest::decode(onion).expect("decode");
            *per_drop.entry(req.drop.0).or_insert(0u32) += 1;
            assert!(!req.drop.is_noop(), "noise never targets the no-op drop");
        }
        assert_eq!(per_drop.len(), 3);
        assert!(per_drop.values().all(|&c| c == 4));
    }

    /// A parent seed whose sampled `(n1, n2)` draws total exactly
    /// `total` conversation noise onions under `dist`, found against
    /// the cheap unwrapped path (the counts are the first two draws
    /// whatever the chain).
    fn seed_with_conversation_total(total: usize, dist: NoiseDistribution) -> u64 {
        (0u64..)
            .find(|&seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let batch = conversation_noise(&mut rng, &[], 0, dist, NoiseMode::Sampled, 1);
                batch.onions.len() == total
            })
            .expect("some seed draws the total")
    }

    #[test]
    fn noise_into_matches_allocating_reference_at_batch_edges() {
        // Noise totals on and around the octet (8 lanes), the 32-lane
        // resolver group and the 32-slot worker chunk, at 1–3 workers:
        // the chunked in-place path must reproduce the allocating
        // reference's onions, counts and final RNG state, appended
        // behind client slots it must not touch, in a strided arena.
        let mut rng = StdRng::seed_from_u64(20);
        let pks: Vec<PublicKey> = (0..2).map(|_| Keypair::generate(&mut rng).public).collect();
        let precomp: Vec<onion::PrecomputedServer> = pks
            .iter()
            .map(|pk| onion::PrecomputedServer::new(*pk))
            .collect();
        let round = 3;

        for total in [0usize, 1, 7, 8, 9, 31, 32, 33, 65] {
            // Conversation noise for a two-server suffix, sampled.
            let dist = NoiseDistribution::new(total as f64 / 2.0, 1.5);
            let seed = seed_with_conversation_total(total, dist);
            let width = onion::wrapped_len(EXCHANGE_REQUEST_LEN, 2);
            for workers in 1..=3usize {
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = rng_a.clone();
                let reference =
                    conversation_noise(&mut rng_a, &pks, round, dist, NoiseMode::Sampled, workers);
                assert_eq!(reference.onions.len(), total);

                let mut batch = RoundBuffer::new(width + 16, width);
                for _ in 0..2 {
                    batch.push_with(|slot| slot.fill(0xAB));
                }
                let (singles, pairs) = conversation_noise_into(
                    &mut rng_b,
                    &mut batch,
                    &precomp,
                    round,
                    dist,
                    NoiseMode::Sampled,
                    workers,
                );
                assert_eq!((singles, pairs), (reference.singles, reference.pairs));
                let slots = batch.to_vecs();
                assert!(slots[..2].iter().all(|s| s.iter().all(|&b| b == 0xAB)));
                assert_eq!(
                    &slots[2..],
                    &reference.onions[..],
                    "conversation total {total} workers {workers}"
                );
                assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "parent RNG state");
            }

            // Dialing noise for a one-server suffix: one drop whose
            // deterministic count is the total.
            let dist = NoiseDistribution::new(total as f64, 1.0);
            let width = onion::wrapped_len(vuvuzela_wire::DIAL_REQUEST_LEN, 1);
            for workers in 1..=3usize {
                let mut rng_a = StdRng::seed_from_u64(500 + total as u64);
                let mut rng_b = rng_a.clone();
                let mode = NoiseMode::Deterministic;
                let reference = dialing_noise(&mut rng_a, &pks[1..], round, 1, dist, mode, workers);
                assert_eq!(reference.onions.len(), total);

                let mut batch = RoundBuffer::new(width, width);
                let added = dialing_noise_into(
                    &mut rng_b,
                    &mut batch,
                    &precomp[1..],
                    round,
                    1,
                    dist,
                    mode,
                    workers,
                );
                assert_eq!(added, reference.singles);
                assert_eq!(
                    batch.to_vecs(),
                    reference.onions,
                    "dialing total {total} workers {workers}"
                );
                assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "parent RNG state");
            }
        }
    }

    #[test]
    fn empty_chain_draws_no_wrapping_seeds() {
        // The last server's substitutes are plain requests: the in-place
        // path must stop after the payload draws, like the reference.
        let dist = NoiseDistribution::new(9.0, 1.0);
        let mode = NoiseMode::Deterministic;
        let mut rng_a = StdRng::seed_from_u64(21);
        let mut rng_b = rng_a.clone();
        let mut payload_rng = rng_a.clone();

        let reference = conversation_noise(&mut rng_a, &[], 0, dist, mode, 2);
        let mut batch = RoundBuffer::new(EXCHANGE_REQUEST_LEN, EXCHANGE_REQUEST_LEN);
        conversation_noise_into(&mut rng_b, &mut batch, &[], 0, dist, mode, 2);
        assert_eq!(batch.to_vecs(), reference.onions);
        assert_eq!(reference.onions.len(), 18);

        // n1 = n2 = 9: ten singles (the odd leftover included), then
        // four pairs each drawing its shared drop first — and nothing
        // else was consumed.
        for _ in 0..10 {
            let _ = ExchangeRequest::noise(&mut payload_rng);
        }
        for _ in 0..4 {
            let _ = DeadDropId::random(&mut payload_rng);
            for _ in 0..2 {
                let _ = ExchangeRequest::noise(&mut payload_rng);
            }
        }
        let after = payload_rng.next_u64();
        assert_eq!(rng_a.next_u64(), after);
        assert_eq!(rng_b.next_u64(), after);
    }

    #[test]
    fn noise_mode_off_is_silent() {
        let mut rng = StdRng::seed_from_u64(6);
        let dist = NoiseDistribution::new(100.0, 10.0);
        let batch = conversation_noise(&mut rng, &[], 0, dist, NoiseMode::Off, 1);
        assert!(batch.onions.is_empty());
        let dial = dialing_noise(&mut rng, &[], 0, 5, dist, NoiseMode::Off, 1);
        assert!(dial.onions.is_empty());
    }

    #[test]
    fn noise_budget_prices_round_kinds() {
        let mut config = SystemConfig {
            conversation_noise: NoiseDistribution::new(1_000.0, 50.0),
            dialing_noise: NoiseDistribution::new(13_000.0, 770.0),
            ..SystemConfig::default()
        };
        let conv = expected_noise_per_server(RoundKind::Conversation, &config);
        let dial = expected_noise_per_server(RoundKind::Dialing { num_drops: 1 }, &config);
        assert!((conv - 2_000.0).abs() < 1e-9);
        assert!((dial - 13_000.0).abs() < 1e-9);
        assert!(dial > conv, "paper-scale dialing rounds are the heavy ones");
        config.noise_mode = NoiseMode::Off;
        assert_eq!(
            expected_noise_per_server(RoundKind::Conversation, &config),
            0.0
        );
    }

    #[test]
    fn last_server_noise_counts() {
        let mut rng = StdRng::seed_from_u64(7);
        let dist = NoiseDistribution::new(9.0, 2.0);
        let counts = dialing_noise_counts(&mut rng, 4, dist, NoiseMode::Deterministic);
        assert_eq!(counts, vec![9, 9, 9, 9]);
    }
}
