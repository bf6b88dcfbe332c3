//! Forced dead-drop collisions (§4.2 footnote 6): two conversations
//! whose key exchanges land on the *same* dead-drop ID in the same
//! round. Honest 128-bit IDs never collide in practice, but an
//! adversary can manufacture the situation (and a reproduction must
//! define it): the exchange pairs the first two arrivals, everyone else
//! gets filler, the round is flagged in `m_many` — and, crucially, a
//! cross-pair delivery of a *sealed* message must never surface the
//! other pair's plaintext, because conversation sealing is keyed per
//! pair (Algorithm 1's double encryption).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use vuvuzela::core::entry;
use vuvuzela::core::server::RoundKind;
use vuvuzela::core::{Chain, RoundBuffer, RoundOutcome, RoundSpec, StreamingChain, SystemConfig};
use vuvuzela::crypto::onion;
use vuvuzela::crypto::x25519::Keypair;
use vuvuzela::dp::{NoiseDistribution, NoiseMode};
use vuvuzela::wire::conversation::{ConversationKeys, ExchangeRequest};
use vuvuzela::wire::MESSAGE_LEN;

/// Lays per-message onions into a conversation round's arena for the
/// chain-3 deployment, as the entry does.
fn arena(onions: Vec<Vec<u8>>) -> RoundBuffer {
    let mut batch = entry::round_arena(RoundKind::Conversation, 3);
    entry::multiplex(&mut batch, &[onions]);
    batch
}

fn tiny_config() -> SystemConfig {
    SystemConfig {
        chain_len: 3,
        conversation_noise: NoiseDistribution::new(3.0, 1.0),
        dialing_noise: NoiseDistribution::new(2.0, 1.0),
        noise_mode: NoiseMode::Deterministic,
        workers: 2,
        conversation_slots: 1,
        retransmit_after: 2,
        exchange_shards: 4,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two real conversations forced onto one dead drop in one round:
    /// the streaming pipeline must agree byte-for-byte with the
    /// sequential reference, the collision must surface as `m_many`,
    /// and no client may ever decrypt the *other* pair's plaintext with
    /// its own conversation keys.
    #[test]
    fn forced_collision_is_reference_equal_and_leak_free(seed in 0u64..10_000) {
        let config = tiny_config();
        let mut sequential = Chain::new(config.clone(), seed);
        let mut streaming = StreamingChain::new(config, seed);
        let pks = sequential.server_public_keys();
        prop_assert_eq!(&pks, &streaming.chain().server_public_keys());
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD04_C011);

        // Two pairs: (0 ↔ 1) and (2 ↔ 3).
        let kp: Vec<Keypair> = (0..4).map(|_| Keypair::generate(&mut rng)).collect();
        let keys = [
            ConversationKeys::derive(&kp[0].secret, &kp[0].public, &kp[1].public),
            ConversationKeys::derive(&kp[1].secret, &kp[1].public, &kp[0].public),
            ConversationKeys::derive(&kp[2].secret, &kp[2].public, &kp[3].public),
            ConversationKeys::derive(&kp[3].secret, &kp[3].public, &kp[2].public),
        ];
        let round = 7u64;
        // Both sides of a pair agree on the drop; we force pair 2 onto
        // pair 1's drop — the collision under test.
        let drop = keys[0].drop_id(round);
        prop_assert_eq!(drop, keys[1].drop_id(round));

        let mut bodies = [[0u8; MESSAGE_LEN]; 4];
        for (i, body) in bodies.iter_mut().enumerate() {
            body[0] = i as u8;
            body[1..9].copy_from_slice(&seed.to_le_bytes());
        }
        let mut batch = Vec::new();
        let mut layer_keys = Vec::new();
        for i in 0..4 {
            let request = ExchangeRequest {
                drop,
                sealed_message: keys[i].seal_message(round, &bodies[i]),
            };
            let (onion_bytes, wrap_keys) = onion::wrap(&mut rng, &pks, round, &request.encode());
            batch.push(onion_bytes);
            layer_keys.push(wrap_keys);
        }

        // Sequential reference vs the streaming pipeline.
        let spec = RoundSpec::Conversation { round, batch: arena(batch).into() };
        let seq = sequential.run(vec![spec.clone()]).expect("round completes").remove(0);
        let streamed = streaming.run(vec![spec]).expect("schedule completes").remove(0);
        let seq_replies = seq.replies().expect("a conversation round");
        prop_assert_eq!(Some(seq_replies), streamed.replies());
        let (_, seq_obs) = sequential.conversation_observables()[0];
        let (_, stream_obs) = streaming.chain().conversation_observables()[0];
        prop_assert_eq!(seq_obs, stream_obs);
        // Four accesses to one drop: exactly one many-accessed drop
        // (noise drops are fresh 128-bit IDs, disjoint w.h.p.).
        prop_assert_eq!(seq_obs.m_many, 1);
        // µ = 3 deterministic per noising server: n1 = n2 = 3 → one
        // same-drop pair and leftover + n1 = 4 singletons of noise, so
        // total = 4 client requests + 2 servers × (4 singles + 2 in
        // the pair) = 16 onions.
        prop_assert_eq!(seq_obs.total_requests, 16);

        // Exchange semantics under collision: whichever sealed message
        // a client got back, its own pair keys either fail (filler, or
        // a cross-pair sealed message it cannot read) or yield exactly
        // its partner's plaintext. Pair-2 plaintext never decrypts for
        // pair 1 and vice versa.
        let mut readable = 0usize;
        for i in 0..4 {
            let reply = onion::unwrap_reply_layers(&layer_keys[i], round, &seq_replies[i])
                .expect("reply unwraps");
            if let Ok(plaintext) = keys[i].open_message(round, &reply) {
                readable += 1;
                let partner = i ^ 1;
                prop_assert_eq!(
                    &plaintext[..],
                    &bodies[partner][..],
                    "client {} read something other than its partner's message",
                    i
                );
            }
        }
        // At most one exchange happens on a collided drop (the first
        // two arrivals), so at most 2 clients can read anything.
        prop_assert!(readable <= 2, "readable = {}", readable);
    }

    /// The forced collision is shard-count invariant: the colliding
    /// requests land in one shard by construction (same drop ID ⇒ same
    /// shard), and the sharded exchange's deterministic merge must make
    /// replies and observables byte-identical for shards 1, 2, 3 and 7.
    #[test]
    fn forced_collision_is_shard_count_invariant(seed in 0u64..10_000) {
        let base = tiny_config();
        // Build the batch once; it only depends on the server keys,
        // which are a function of (config minus shards, seed).
        let pks = Chain::new(base.clone(), seed).server_public_keys();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x54A2D);
        let kp: Vec<Keypair> = (0..4).map(|_| Keypair::generate(&mut rng)).collect();
        let keys = [
            ConversationKeys::derive(&kp[0].secret, &kp[0].public, &kp[1].public),
            ConversationKeys::derive(&kp[1].secret, &kp[1].public, &kp[0].public),
            ConversationKeys::derive(&kp[2].secret, &kp[2].public, &kp[3].public),
            ConversationKeys::derive(&kp[3].secret, &kp[3].public, &kp[2].public),
        ];
        let round = 9u64;
        let drop = keys[0].drop_id(round);
        let batch = arena(
            keys.iter()
                .map(|k| {
                    let request = ExchangeRequest {
                        drop,
                        sealed_message: k.seal_message(round, &[0xA5u8; MESSAGE_LEN]),
                    };
                    onion::wrap(&mut rng, &pks, round, &request.encode()).0
                })
                .collect(),
        );

        let mut reference: Option<(RoundOutcome, _)> = None;
        for shards in [1usize, 2, 3, 7] {
            let mut config = base.clone();
            config.exchange_shards = shards;
            let mut chain = Chain::new(config, seed);
            let spec = RoundSpec::Conversation { round, batch: batch.clone().into() };
            let outcome = chain.run(vec![spec]).expect("round completes").remove(0);
            let (_, obs) = chain.conversation_observables()[0];
            prop_assert_eq!(obs.m_many, 1, "shards = {}", shards);
            match &reference {
                None => reference = Some((outcome, obs)),
                Some((want, want_obs)) => {
                    let replies = outcome.replies();
                    prop_assert_eq!(replies, want.replies(), "shards = {} replies", shards);
                    prop_assert_eq!(&obs, want_obs, "shards = {} observables", shards);
                }
            }
        }
    }

    /// The same collision inside a longer streaming schedule: the
    /// overlapped pipeline must stay byte-identical to the sequential
    /// chain across the surrounding rounds too.
    #[test]
    fn collision_mid_schedule_matches_reference(seed in 0u64..10_000) {
        let config = tiny_config();
        let mut sequential = Chain::new(config.clone(), seed);
        let mut streaming = StreamingChain::new(config, seed);
        let pks = sequential.server_public_keys();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5C4ED);

        let kp: Vec<Keypair> = (0..4).map(|_| Keypair::generate(&mut rng)).collect();
        let keys_a = ConversationKeys::derive(&kp[0].secret, &kp[0].public, &kp[1].public);
        let keys_c = ConversationKeys::derive(&kp[2].secret, &kp[2].public, &kp[3].public);
        let collided = keys_a.drop_id(11);

        let noise_round = |round: u64, rng: &mut StdRng, pks: &[_]| {
            let onions = (0..3)
                .map(|_| {
                    let payload = ExchangeRequest::noise(rng).encode();
                    onion::wrap(rng, pks, round, &payload).0
                })
                .collect();
            RoundSpec::Conversation { round, batch: arena(onions).into() }
        };
        let collision_batch: Vec<Vec<u8>> = [&keys_a, &keys_c]
            .iter()
            .flat_map(|k| {
                let request = ExchangeRequest {
                    drop: collided,
                    sealed_message: k.seal_message(11, &[0x5Au8; MESSAGE_LEN]),
                };
                vec![onion::wrap(&mut rng, &pks, 11, &request.encode()).0]
            })
            .collect();

        let specs = vec![
            noise_round(10, &mut rng, &pks),
            RoundSpec::Conversation { round: 11, batch: arena(collision_batch).into() },
            noise_round(12, &mut rng, &pks),
        ];
        let streamed = streaming.run(specs.clone()).expect("schedule completes");
        let expected = sequential.run(specs.clone()).expect("rounds complete");
        for ((spec, got), want) in specs.iter().zip(&streamed).zip(&expected) {
            prop_assert_eq!(got.replies(), want.replies(), "round {} diverged", spec.round());
        }
        let mut stream_obs: Vec<_> = streaming.chain().conversation_observables().to_vec();
        stream_obs.sort_by_key(|(r, _)| *r);
        prop_assert_eq!(&stream_obs[..], sequential.conversation_observables());
    }
}
