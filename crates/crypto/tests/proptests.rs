//! Property-based tests for the field arithmetic and primitives.
//!
//! The 51-bit-limb field implementation is the foundation under every
//! onion layer; these properties (ring laws, canonical encoding,
//! inversion) would catch the classic carry/reduction bugs that
//! hand-rolled curve arithmetic is prone to.

use proptest::prelude::*;
use vuvuzela_crypto::field::Fe;
use vuvuzela_crypto::{chacha20, poly1305, sha256};

/// Strategy: arbitrary canonical field elements (from 32 bytes, top bit
/// masked by the decoder).
fn fe_strategy() -> impl Strategy<Value = Fe> {
    any::<[u8; 32]>().prop_map(|b| Fe::from_bytes(&b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn addition_commutes(a in fe_strategy(), b in fe_strategy()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn multiplication_commutes(a in fe_strategy(), b in fe_strategy()) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn addition_associates(a in fe_strategy(), b in fe_strategy(), c in fe_strategy()) {
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn multiplication_associates(a in fe_strategy(), b in fe_strategy(), c in fe_strategy()) {
        prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn multiplication_distributes(a in fe_strategy(), b in fe_strategy(), c in fe_strategy()) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn add_sub_cancel(a in fe_strategy(), b in fe_strategy()) {
        prop_assert_eq!(a.add(&b).sub(&b), a);
        prop_assert_eq!(a.sub(&b).add(&b), a);
    }

    #[test]
    fn square_matches_self_multiplication(a in fe_strategy()) {
        prop_assert_eq!(a.square(), a.mul(&a));
    }

    #[test]
    fn inversion_roundtrips(a in fe_strategy()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a.mul(&a.invert()), Fe::ONE);
        prop_assert_eq!(a.invert().invert(), a);
    }

    #[test]
    fn encoding_is_canonical_fixed_point(a in fe_strategy()) {
        // to_bytes ∘ from_bytes is idempotent: encodings are canonical.
        let bytes = a.to_bytes();
        prop_assert_eq!(Fe::from_bytes(&bytes).to_bytes(), bytes);
        // And canonical encodings are < p (top byte ≤ 0x7f trivially;
        // full check: re-decoding preserves equality).
        prop_assert_eq!(Fe::from_bytes(&bytes), a);
    }

    #[test]
    fn identities(a in fe_strategy()) {
        prop_assert_eq!(a.add(&Fe::ZERO), a);
        prop_assert_eq!(a.mul(&Fe::ONE), a);
        prop_assert_eq!(a.mul(&Fe::ZERO), Fe::ZERO);
        prop_assert_eq!(a.sub(&a), Fe::ZERO);
    }

    #[test]
    fn mul_small_is_repeated_addition(a in fe_strategy(), n in 0u32..50) {
        let mut sum = Fe::ZERO;
        for _ in 0..n {
            sum = sum.add(&a);
        }
        prop_assert_eq!(a.mul_small(n), sum);
    }

    /// The batched (lockstep or scalar ladder, shared inversion)
    /// X25519 must be bit-identical to the scalar ladder for arbitrary
    /// scalars and u-coordinates, at batch sizes on both sides of an
    /// octet, including low-order points mixed into arbitrary lanes.
    #[test]
    fn x25519_batch_matches_scalar(
        seed in any::<u64>(),
        count in 1usize..10,
        low_order_lane in any::<Option<(u8, bool)>>(),
    ) {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scalars = vec![[0u8; 32]; count];
        let mut us = vec![[0u8; 32]; count];
        for i in 0..count {
            rng.fill_bytes(&mut scalars[i]);
            rng.fill_bytes(&mut us[i]);
        }
        if let Some((lane, order4)) = low_order_lane {
            let lane = lane as usize % count;
            us[lane] = [0u8; 32];
            if order4 {
                us[lane][0] = 1;
            }
        }
        let batch = vuvuzela_crypto::x25519::x25519_batch(&scalars, &us);
        for i in 0..count {
            prop_assert_eq!(
                batch[i],
                vuvuzela_crypto::x25519::x25519(&scalars[i], &us[i]),
                "lane {} of {}", i, count
            );
        }
    }

    /// ChaCha20 is length-preserving XOR: double application is identity.
    #[test]
    fn chacha_is_involution(
        key in any::<[u8; 32]>(),
        nonce in any::<[u8; 12]>(),
        counter in any::<u32>(),
        data in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut buf = data.clone();
        chacha20::xor_stream(&key, counter, &nonce, &mut buf);
        chacha20::xor_stream(&key, counter, &nonce, &mut buf);
        prop_assert_eq!(buf, data);
    }

    /// Poly1305 incremental equals one-shot for arbitrary chunkings.
    #[test]
    fn poly1305_chunking_invariant(
        key in any::<[u8; 32]>(),
        data in proptest::collection::vec(any::<u8>(), 0..200),
        split in 0usize..200,
    ) {
        let oneshot = poly1305::poly1305(&key, &data);
        let cut = split.min(data.len());
        let mut st = poly1305::Poly1305::new(&key);
        st.update(&data[..cut]);
        st.update(&data[cut..]);
        prop_assert_eq!(st.finalize(), oneshot);
    }

    /// SHA-256 incremental equals one-shot for arbitrary chunkings.
    #[test]
    fn sha256_chunking_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..300),
        split in 0usize..300,
    ) {
        let oneshot = sha256::sha256(&data);
        let cut = split.min(data.len());
        let mut h = sha256::Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), oneshot);
    }
}

mod in_place {
    //! The in-place AEAD/onion fast paths must be byte-identical to the
    //! allocating reference versions for arbitrary inputs — the round
    //! pipeline's correctness rests on this. An integration test runs
    //! the arm of the x25519 dispatch the CPU detects; the crate's unit
    //! tests hold both arms to the same oracles under their pin.

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vuvuzela_crypto::x25519::{Keypair, PublicKey};
    use vuvuzela_crypto::{aead, onion, CryptoError};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn seal_in_place_matches_seal(
            key in any::<[u8; 32]>(),
            nonce in any::<[u8; 12]>(),
            aad in proptest::collection::vec(any::<u8>(), 0..48),
            payload in proptest::collection::vec(any::<u8>(), 0..400),
        ) {
            let reference = aead::seal(&key, &nonce, &aad, &payload);
            let mut buf = vec![0u8; payload.len() + aead::TAG_LEN];
            buf[..payload.len()].copy_from_slice(&payload);
            let sealed = aead::seal_in_place(&key, &nonce, &aad, &mut buf, payload.len());
            prop_assert_eq!(sealed, reference.len());
            prop_assert_eq!(&buf[..sealed], &reference[..]);
        }

        #[test]
        fn open_in_place_matches_open(
            key in any::<[u8; 32]>(),
            nonce in any::<[u8; 12]>(),
            aad in proptest::collection::vec(any::<u8>(), 0..48),
            payload in proptest::collection::vec(any::<u8>(), 0..400),
            flip in any::<Option<(u16, u8)>>(),
        ) {
            let mut boxed = aead::seal(&key, &nonce, &aad, &payload);
            if let Some((byte, bit)) = flip {
                let i = byte as usize % boxed.len();
                boxed[i] ^= 1 << (bit % 8);
            }
            let reference = aead::open(&key, &nonce, &aad, &boxed);
            let mut buf = boxed.clone();
            let boxed_len = buf.len();
            match aead::open_in_place(&key, &nonce, &aad, &mut buf, boxed_len) {
                Ok(n) => {
                    let opened = reference.expect("reference agrees on success");
                    prop_assert_eq!(&buf[..n], &opened[..]);
                }
                Err(e) => {
                    prop_assert_eq!(reference.expect_err("reference agrees on failure"), e);
                    prop_assert_eq!(&buf, &boxed, "failed open must not mutate");
                }
            }
        }

        #[test]
        fn onion_wrap_into_and_peel_in_place_match_reference(
            chain_len in 1usize..=5,
            round in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..300),
            seed in any::<u64>(),
        ) {
            let mut key_rng = StdRng::seed_from_u64(seed);
            let servers: Vec<Keypair> =
                (0..chain_len).map(|_| Keypair::generate(&mut key_rng)).collect();
            let pks: Vec<PublicKey> = servers.iter().map(|kp| kp.public).collect();
            let precomp: Vec<onion::PrecomputedServer> =
                pks.iter().map(|pk| onion::PrecomputedServer::new(*pk)).collect();

            // Same RNG state for both wrap paths → identical onions.
            let mut rng_a = StdRng::seed_from_u64(seed ^ 0xABCD);
            let mut rng_b = rng_a.clone();
            let (reference, ref_keys) = onion::wrap(&mut rng_a, &pks, round, &payload);
            let mut flat = vec![0u8; onion::wrapped_len(payload.len(), chain_len)];
            flat[32 * chain_len..32 * chain_len + payload.len()].copy_from_slice(&payload);
            let keys = onion::wrap_into_with(&mut rng_b, &precomp, round, &mut flat, payload.len());
            prop_assert_eq!(&flat, &reference);
            for (key, ref_key) in keys.iter().zip(&ref_keys) {
                prop_assert_eq!(key.0, ref_key.0);
            }

            // Peel both ways down the whole chain, the in-place side as
            // a chunk of the one slot.
            let (stride, mut width) = (flat.len(), flat.len());
            let mut reference_onion = reference;
            for kp in &servers {
                let (ref_key, ref_inner) =
                    onion::peel(&kp.secret, &kp.public, round, &reference_onion).expect("peel");
                let (key, new_width) = onion::peel_chunk_in_place(
                    &kp.secret, &kp.public, round, &mut flat, stride, width)
                    .pop()
                    .expect("one slot")
                    .expect("chunk peel");
                prop_assert_eq!(key.0, ref_key.0);
                prop_assert_eq!(&flat[..new_width], &ref_inner[..]);
                width = new_width;
                reference_onion = ref_inner;
            }
            prop_assert_eq!(&flat[..width], &payload[..]);
        }

        /// The chunk peel must classify and transform every slot
        /// exactly like the allocating per-slot `peel`, over arbitrary
        /// mixes of valid, corrupted, low-order and — as the chunk's
        /// last slot — truncated slots: partial octets, the shared
        /// inversion's zero-denominator edges.
        #[test]
        fn peel_chunk_batched_matches_scalar_reference(
            seed in any::<u64>(),
            count in 1usize..12,
            round in any::<u64>(),
            kinds in proptest::collection::vec(0u8..4, 12),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let server = Keypair::generate(&mut rng);
            let payload = b"proptest payload";
            let (sample, _) = onion::wrap(&mut rng, &[server.public], round, payload);
            let width = sample.len();
            let stride = width + 3;
            let mut chunk = vec![0u8; count * stride];
            for i in 0..count {
                let mut onion_bytes = match kinds[i] {
                    // Forged low-order ephemeral (identity or order-4).
                    1 => {
                        let mut o = vec![0u8; width];
                        o[32..].fill(0x5A);
                        o[0] = u8::from(i % 2 == 0);
                        o
                    }
                    _ => onion::wrap(&mut rng, &[server.public], round, payload).0,
                };
                if kinds[i] == 2 {
                    // Bit-flip: authentication failure.
                    onion_bytes[34] ^= 1;
                }
                chunk[i * stride..i * stride + width].copy_from_slice(&onion_bytes);
            }
            if kinds[count - 1] == 3 {
                // The chunk ends one byte short of its last layer.
                chunk.truncate((count - 1) * stride + width - 1);
            }
            let given = chunk.clone();

            let results = onion::peel_chunk_in_place(
                &server.secret, &server.public, round, &mut chunk, stride, width);

            prop_assert_eq!(results.len(), count);
            for (i, (got, slot)) in results.iter().zip(given.chunks(stride)).enumerate() {
                if slot.len() < width {
                    let short = CryptoError::BadLength {
                        expected: onion::LAYER_OVERHEAD,
                        got: slot.len(),
                    };
                    prop_assert_eq!(got.as_ref().err(), Some(&short), "slot {} cut short", i);
                    continue;
                }
                let want = onion::peel(&server.secret, &server.public, round, &slot[..width]);
                match (got, want) {
                    (Ok((key, len)), Ok((want_key, inner))) => {
                        prop_assert_eq!(key.0, want_key.0, "slot {} key", i);
                        prop_assert_eq!(
                            &chunk[i * stride..i * stride + len],
                            &inner[..],
                            "slot {} payload", i
                        );
                    }
                    (Err(e), Err(want_e)) => prop_assert_eq!(e, &want_e, "slot {} error", i),
                    (g, w) => panic!("slot {i} disagreement: {g:?} vs {w:?}"),
                }
            }
        }

        #[test]
        fn reply_wrap_in_place_matches_reference(
            round in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..300),
            key_bytes in any::<[u8; 32]>(),
        ) {
            let key = onion::LayerKey(key_bytes);
            let reference = onion::wrap_reply_layer(&key, round, &payload);
            let mut slot = vec![0u8; payload.len() + onion::REPLY_LAYER_OVERHEAD];
            slot[..payload.len()].copy_from_slice(&payload);
            let sealed = onion::wrap_reply_in_place(&key, round, &mut slot, payload.len());
            prop_assert_eq!(&slot[..sealed], &reference[..]);
        }
    }
}
