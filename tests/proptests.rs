//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use vuvuzela::core::{Chain, ClientCohort, RoundSpec, SystemConfig};
use vuvuzela::crypto::x25519::{Keypair, SecretKey};
use vuvuzela::crypto::{aead, onion, sealedbox};
use vuvuzela::dp::{NoiseDistribution, NoiseMode};
use vuvuzela::wire::conversation::{ConversationKeys, ExchangeRequest};
use vuvuzela::wire::message::{FramedMessage, MAX_BODY_LEN};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// X25519 key exchange commutes for arbitrary secret keys.
    #[test]
    fn dh_commutes(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let sk_a = SecretKey::from_bytes(a);
        let sk_b = SecretKey::from_bytes(b);
        let pk_a = sk_a.public_key();
        let pk_b = sk_b.public_key();
        prop_assert_eq!(
            sk_a.diffie_hellman(&pk_b).0,
            sk_b.diffie_hellman(&pk_a).0
        );
    }

    /// AEAD round-trips arbitrary payloads and AAD.
    #[test]
    fn aead_roundtrip(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let sealed = aead::seal(&key, &nonce, &aad, &payload);
        prop_assert_eq!(sealed.len(), payload.len() + aead::TAG_LEN);
        let opened = aead::open(&key, &nonce, &aad, &sealed).expect("authentic");
        prop_assert_eq!(opened, payload);
    }

    /// Flipping any single bit of a sealed AEAD box breaks authentication.
    #[test]
    fn aead_any_bitflip_detected(
        payload in proptest::collection::vec(any::<u8>(), 1..64),
        flip_byte in 0usize..80,
        flip_bit in 0u8..8,
    ) {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let mut sealed = aead::seal(&key, &nonce, b"", &payload);
        let index = flip_byte % sealed.len();
        sealed[index] ^= 1 << flip_bit;
        prop_assert!(aead::open(&key, &nonce, b"", &sealed).is_err());
    }

    /// Onion wrap/peel round-trips for every chain length the paper
    /// evaluates (1–6) and arbitrary payloads.
    #[test]
    fn onion_roundtrip(
        chain_len in 1usize..=6,
        round in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let servers: Vec<Keypair> = (0..chain_len).map(|_| Keypair::generate(&mut rng)).collect();
        let pks: Vec<_> = servers.iter().map(|kp| kp.public).collect();

        let (mut onion_bytes, _keys) = onion::wrap(&mut rng, &pks, round, &payload);
        prop_assert_eq!(onion_bytes.len(), onion::wrapped_len(payload.len(), chain_len));
        for kp in &servers {
            let (_, inner) = onion::peel(&kp.secret, &kp.public, round, &onion_bytes)
                .expect("peels");
            onion_bytes = inner;
        }
        prop_assert_eq!(&onion_bytes, &payload);

        // Reply path symmetry: peel a fresh onion to capture layer keys,
        // wrap the reply innermost-first as the chain does, and unwrap
        // with the client's copies.
        let (mut fresh, client_keys) = onion::wrap(&mut rng, &pks, round, &payload);
        let mut server_keys = Vec::new();
        for kp in &servers {
            let (k, inner) = onion::peel(&kp.secret, &kp.public, round, &fresh).expect("peel");
            server_keys.push(k);
            fresh = inner;
        }
        let mut wrapped = payload.clone();
        for k in server_keys.iter().rev() {
            wrapped = onion::wrap_reply_layer(k, round, &wrapped);
        }
        let reply = onion::unwrap_reply_layers(&client_keys, round, &wrapped).expect("unwrap");
        prop_assert_eq!(&reply, &payload);
    }

    /// Sealed boxes round-trip and never open under the wrong key.
    #[test]
    fn sealedbox_roundtrip(
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let recipient = Keypair::generate(&mut rng);
        let wrong = Keypair::generate(&mut rng);
        let boxed = sealedbox::seal(&mut rng, &recipient.public, &payload);
        prop_assert_eq!(
            sealedbox::open(&recipient.secret, &recipient.public, &boxed).expect("opens"),
            payload
        );
        prop_assert!(sealedbox::open(&wrong.secret, &wrong.public, &boxed).is_err());
    }

    /// FramedMessage encode/decode round-trips arbitrary frames.
    #[test]
    fn framed_message_roundtrip(
        seq in any::<u64>(),
        ack in any::<u64>(),
        body in proptest::collection::vec(any::<u8>(), 0..MAX_BODY_LEN),
    ) {
        let msg = FramedMessage::data(seq, ack, &body);
        let decoded = FramedMessage::decode(&msg.encode()).expect("decodes");
        prop_assert_eq!(decoded, msg);
    }

    /// Conversation keys agree on drops and decrypt each other's messages
    /// for arbitrary rounds.
    #[test]
    fn conversation_keys_agree(
        seed in any::<u64>(),
        round in any::<u64>(),
        text in proptest::collection::vec(any::<u8>(), 0..240),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let alice = Keypair::generate(&mut rng);
        let bob = Keypair::generate(&mut rng);
        let ka = ConversationKeys::derive(&alice.secret, &alice.public, &bob.public);
        let kb = ConversationKeys::derive(&bob.secret, &bob.public, &alice.public);
        prop_assert_eq!(ka.drop_id(round), kb.drop_id(round));
        let sealed = ka.seal_message(round, &text);
        let opened = kb.open_message(round, &sealed).expect("partner opens");
        prop_assert_eq!(&opened[..text.len()], &text[..]);
    }

    /// ExchangeRequest wire format round-trips.
    #[test]
    fn exchange_request_roundtrip(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let request = ExchangeRequest::noise(&mut rng);
        prop_assert_eq!(ExchangeRequest::decode(&request.encode()).expect("decodes"), request);
    }

    /// Requests laid into an arena keep their order, and a request of
    /// any other width becomes a zero-filled slot, for arbitrary shapes.
    #[test]
    fn arena_from_vecs_keeps_order_and_zero_fills_misfits(
        lens in proptest::collection::vec(1usize..4, 0..12),
    ) {
        let requests: Vec<Vec<u8>> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| vec![i as u8 + 1; len])
            .collect();
        let (batch, misfits) = vuvuzela::core::RoundBuffer::from_vecs(&requests, 2, 2);
        let laid: Vec<Vec<u8>> = requests
            .iter()
            .map(|r| if r.len() == 2 { r.clone() } else { vec![0; 2] })
            .collect();
        prop_assert_eq!(batch.to_vecs(), laid);
        let want: Vec<usize> = (0..lens.len()).filter(|&i| lens[i] != 2).collect();
        prop_assert_eq!(misfits, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Reply ingest takes whatever the untrusted entry hands back (§7):
    /// any number of replies — missing ones lost, extra ones ignored —
    /// carrying any bytes at any width. It never panics; every member
    /// whose own reply came back intact receives its partner's message,
    /// and nobody else receives anything.
    #[test]
    fn cohort_reply_ingest_takes_any_batch(
        seed in any::<u64>(),
        count in 0usize..16,
        intact in proptest::collection::vec(any::<bool>(), 16),
        full_width in proptest::collection::vec(any::<bool>(), 16),
        widths in proptest::collection::vec(0usize..600, 16),
    ) {
        const MEMBERS: usize = 8;
        let config = SystemConfig {
            chain_len: 2,
            conversation_noise: NoiseDistribution::new(1.0, 1.0),
            dialing_noise: NoiseDistribution::new(1.0, 1.0),
            noise_mode: NoiseMode::Off,
            workers: 2,
            conversation_slots: 1,
            retransmit_after: 2,
            exchange_shards: 2,
        };
        let mut chain = Chain::new(config.clone(), seed);
        let mut cohort = ClientCohort::with_own_tables(config, seed, &chain.server_public_keys());
        cohort.join(MEMBERS);
        for a in (0..MEMBERS).step_by(2) {
            cohort.pair(a, a + 1).expect("pair");
            for (from, to) in [(a, a + 1), (a + 1, a)] {
                let to = cohort.public_key(to);
                cohort.queue_message(from, &to, &[from as u8]).expect("queue");
            }
        }
        let batch = cohort.build_conversation_round(0).into();
        let spec = RoundSpec::Conversation { round: 0, batch };
        let outcome = chain.run(vec![spec]).expect("round completes").remove(0);
        let replies = outcome.replies().expect("a conversation round");

        let mut rng = StdRng::seed_from_u64(seed);
        let handed_back: Vec<Vec<u8>> = (0..count)
            .map(|p| {
                if p < MEMBERS && intact[p] {
                    return replies[p].clone();
                }
                let width = if full_width[p] { replies[0].len() } else { widths[p] };
                let mut garbage = vec![0u8; width];
                rng.fill_bytes(&mut garbage);
                garbage
            })
            .collect();
        cohort.handle_conversation_replies(0, &handed_back);

        for (member, &intact) in intact.iter().enumerate().take(MEMBERS) {
            let partner = member ^ 1;
            let want = if member < count && intact {
                vec![vec![partner as u8]]
            } else {
                Vec::new()
            };
            prop_assert_eq!(
                cohort.delivered_from(member, &cohort.public_key(partner)),
                want,
                "member {} of {} replies",
                member,
                count
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The dead-drop exchange returns a response per request, preserves
    /// sizes, and pairs exactly the requests that share a drop.
    #[test]
    fn deaddrop_exchange_properties(
        // A multiset of drop assignments: request i targets drop d_i ∈ 0..6.
        assignment in proptest::collection::vec(0u8..6, 0..24),
        seed in any::<u64>(),
    ) {
        use vuvuzela::core::deaddrops::ConversationDrops;
        use vuvuzela::wire::deaddrop::DeadDropId;

        let mut rng = StdRng::seed_from_u64(seed);
        let requests: Vec<ExchangeRequest> = assignment
            .iter()
            .map(|&d| {
                let mut request = ExchangeRequest::noise(&mut rng);
                request.drop = DeadDropId([d; 16]);
                request
            })
            .collect();
        let (responses, obs) = ConversationDrops::exchange(&mut rng, &requests);
        prop_assert_eq!(responses.len(), requests.len());
        prop_assert_eq!(obs.total_requests as usize, requests.len());

        // Histogram must match a hand count.
        let mut counts = std::collections::HashMap::new();
        for &d in &assignment {
            *counts.entry(d).or_insert(0u64) += 1;
        }
        let m1 = counts.values().filter(|&&c| c == 1).count() as u64;
        let m2 = counts.values().filter(|&&c| c == 2).count() as u64;
        let many = counts.values().filter(|&&c| c > 2).count() as u64;
        prop_assert_eq!(obs.m1, m1);
        prop_assert_eq!(obs.m2, m2);
        prop_assert_eq!(obs.m_many, many);

        // Exact pairs swap contents.
        for (&drop, &count) in &counts {
            if count == 2 {
                let indices: Vec<usize> = assignment
                    .iter()
                    .enumerate()
                    .filter(|(_, &d)| d == drop)
                    .map(|(i, _)| i)
                    .collect();
                let (a, b) = (indices[0], indices[1]);
                prop_assert_eq!(&responses[a].sealed_message, &requests[b].sealed_message);
                prop_assert_eq!(&responses[b].sealed_message, &requests[a].sealed_message);
            }
        }
    }
}
