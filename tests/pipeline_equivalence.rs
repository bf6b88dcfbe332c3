//! Property tests: the flat `RoundBuffer` round pipeline is byte-identical
//! to the per-`Vec` reference implementation.
//!
//! The zero-copy refactor (in-place onion crypto, index-remapped shuffle,
//! arena noise generation) must not change a single observable byte:
//! both paths consume the server RNG in the same order, so for equal
//! seeds a whole forward + backward pass has to agree exactly — across
//! chain lengths, batch sizes, noise levels and adversarially corrupted
//! onions.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vuvuzela::core::roundbuf::RoundBuffer;
use vuvuzela::core::server::{MixServer, RoundKind};
use vuvuzela::core::SystemConfig;
use vuvuzela::crypto::onion;
use vuvuzela::crypto::x25519::Keypair;
use vuvuzela::dp::{NoiseDistribution, NoiseMode};
use vuvuzela::wire::conversation::ExchangeRequest;

fn config(chain_len: usize, mu: f64) -> SystemConfig {
    SystemConfig {
        chain_len,
        conversation_noise: NoiseDistribution::new(mu, 1.0),
        dialing_noise: NoiseDistribution::new(2.0, 1.0),
        noise_mode: NoiseMode::Deterministic,
        workers: 3,
        conversation_slots: 1,
        retransmit_after: 2,
        exchange_shards: 4,
    }
}

/// Builds one chain twice (identical seeds): one instance driven through
/// the reference path, one through the flat path.
fn twin_chains(chain_len: usize, mu: f64, seed: u64) -> (Vec<MixServer>, Vec<MixServer>) {
    let build = || {
        let mut rng = StdRng::seed_from_u64(seed);
        let keypairs: Vec<Keypair> = (0..chain_len)
            .map(|_| Keypair::generate(&mut rng))
            .collect();
        let publics: Vec<_> = keypairs.iter().map(|kp| kp.public).collect();
        keypairs
            .into_iter()
            .enumerate()
            .map(|(i, kp)| {
                MixServer::new(
                    i,
                    chain_len,
                    kp,
                    publics[i + 1..].to_vec(),
                    config(chain_len, mu),
                    seed.wrapping_add(1 + i as u64),
                )
            })
            .collect::<Vec<_>>()
    };
    (build(), build())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Full forward + backward pass, arbitrary shapes and corruption.
    #[test]
    fn flat_pipeline_equals_reference(
        chain_len in 1usize..=3,
        clients in 0usize..12,
        mu in 0u32..6,
        seed in any::<u64>(),
        corrupt in proptest::collection::vec(any::<(u16, u8)>(), 0..3),
    ) {
        let round = 3u64;
        let (mut flat, mut reference) = twin_chains(chain_len, f64::from(mu), seed);
        let chain_pks: Vec<_> = flat.iter().map(MixServer::public_key).collect();

        // Client onions (some corrupted in flight).
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00C0FFEE);
        let mut onions: Vec<Vec<u8>> = (0..clients)
            .map(|_| {
                let payload = ExchangeRequest::noise(&mut rng).encode();
                onion::wrap(&mut rng, &chain_pks, round, &payload).0
            })
            .collect();
        for &(pos, bit) in &corrupt {
            if !onions.is_empty() {
                let i = pos as usize % onions.len();
                let len = onions[i].len();
                onions[i][pos as usize % len] ^= 1 << (bit % 8);
            }
        }

        // Forward through every server, comparing per hop.
        let width = onion::wrapped_len(vuvuzela::wire::EXCHANGE_REQUEST_LEN, chain_len);
        let (mut buf, _) = RoundBuffer::from_vecs(&onions, width, width);
        let mut vecs = onions;
        for (hop, (f, r)) in flat.iter_mut().zip(reference.iter_mut()).enumerate() {
            buf = f.forward_buf(round, RoundKind::Conversation, buf).0;
            vecs = r.forward_reference(round, RoundKind::Conversation, vecs);
            prop_assert_eq!(buf.to_vecs(), vecs.clone(), "forward hop {} diverged", hop);
            prop_assert_eq!(f.malformed_replaced, r.malformed_replaced, "hop {}", hop);
        }

        // Echo the last server's payloads back as replies.
        let reply_width = buf.width();
        let reply_stride = reply_width + chain_len * onion::REPLY_LAYER_OVERHEAD;
        let mut reply_buf = RoundBuffer::new(reply_stride, reply_width);
        for i in 0..buf.len() {
            let bytes = buf.slot(i);
            reply_buf.push_with(|slot| slot.copy_from_slice(bytes));
        }
        let mut reply_vecs = vecs;
        for (hop, (f, r)) in flat
            .iter_mut()
            .zip(reference.iter_mut())
            .enumerate()
            .rev()
        {
            reply_buf = f.backward_buf(round, reply_buf);
            reply_vecs = r.backward_reference(round, reply_vecs);
            prop_assert_eq!(reply_buf.to_vecs(), reply_vecs.clone(), "backward hop {} diverged", hop);
        }
    }

    /// Dialing rounds take the other noise recipe; the paths must still
    /// agree (forward-only, as dialing rounds are).
    #[test]
    fn dialing_forward_equals_reference(
        chain_len in 1usize..=3,
        clients in 0usize..8,
        num_drops in 1u32..4,
        seed in any::<u64>(),
    ) {
        let round = 9u64;
        let kind = RoundKind::Dialing { num_drops };
        let (mut flat, mut reference) = twin_chains(chain_len, 2.0, seed);
        let chain_pks: Vec<_> = flat.iter().map(MixServer::public_key).collect();

        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1A1);
        let mut vecs: Vec<Vec<u8>> = (0..clients)
            .map(|_| {
                let payload = vuvuzela::wire::dialing::DialRequest::noop(&mut rng).encode();
                onion::wrap(&mut rng, &chain_pks, round, &payload).0
            })
            .collect();

        let width = onion::wrapped_len(vuvuzela::wire::DIAL_REQUEST_LEN, chain_len);
        let (mut buf, _) = RoundBuffer::from_vecs(&vecs, width, width);
        for (hop, (f, r)) in flat.iter_mut().zip(reference.iter_mut()).enumerate() {
            buf = f.forward_buf(round, kind, buf).0;
            vecs = r.forward_reference(round, kind, vecs);
            prop_assert_eq!(buf.to_vecs(), vecs.clone(), "dialing hop {} diverged", hop);
        }
    }
}
