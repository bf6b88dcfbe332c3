//! The per-object [`Client`] is the proptested reference; a
//! [`ClientCohort`] is a pure representation change. A cohort of N and
//! N individual clients driven over the same derived RNG schedule
//! (keypairs from `key_rng(seed)` in join order, round randomness from
//! `client_round_rng(seed, round, i)`) must produce byte-identical
//! requests, identical replies and last-server observables through two
//! same-seeded chains, and identical delivered messages afterwards.

use proptest::prelude::*;
use vuvuzela::core::chain::Batch;
use vuvuzela::core::cohort::{client_round_rng, key_rng, ClientCohort};
use vuvuzela::core::server::RoundKind;
use vuvuzela::core::{entry, Chain, Client, SystemConfig};
use vuvuzela::crypto::x25519::Keypair;
use vuvuzela::dp::{NoiseDistribution, NoiseMode};

fn cfg(slots: usize, workers: usize) -> SystemConfig {
    cfg_chain(2, slots, workers)
}

fn cfg_chain(chain_len: usize, slots: usize, workers: usize) -> SystemConfig {
    SystemConfig {
        chain_len,
        conversation_noise: NoiseDistribution::new(2.0, 1.0),
        dialing_noise: NoiseDistribution::new(2.0, 1.0),
        noise_mode: NoiseMode::Deterministic,
        workers,
        conversation_slots: slots,
        retransmit_after: 2,
        exchange_shards: 3,
    }
}

/// The reference population: individual clients whose keypairs continue
/// the cohort's `key_rng(seed)` stream, sharing one set of DH tables.
fn reference_clients(n: usize, seed: u64, config: &SystemConfig, chain: &Chain) -> Vec<Client> {
    let pks = chain.server_public_keys();
    let mut krng = key_rng(seed);
    let tables = Client::chain_tables(&pks);
    (0..n)
        .map(|i| {
            let mut c = Client::new(
                format!("c{i}"),
                Keypair::generate(&mut krng),
                config.clone(),
            );
            c.set_chain_tables(tables.clone(), &pks);
            c
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Full round trips: requests, replies, observables and delivered
    /// messages all agree between the cohort and the per-object
    /// reference, across worker counts and slot widths.
    #[test]
    fn cohort_round_trip_matches_individual_clients(
        seed in 0u64..10_000,
        n in 2usize..5,
        slots in 1usize..3,
        workers in 1usize..4,
    ) {
        let config = cfg(slots, workers);
        let mut chain_a = Chain::new(config.clone(), seed);
        let mut chain_b = Chain::new(config.clone(), seed);
        let pks = chain_a.server_public_keys();

        let cohort_seed = seed ^ 0xC0C0;
        let mut cohort = ClientCohort::with_own_tables(config.clone(), cohort_seed, &pks);
        cohort.join(n);
        let mut clients = reference_clients(n, cohort_seed, &config, &chain_a);
        for (i, client) in clients.iter().enumerate() {
            prop_assert_eq!(cohort.public_key(i), client.public_key());
        }

        // One mutual conversation (0 ↔ 1) with a message queued each
        // way; everyone else sends fake exchanges.
        let pk0 = clients[0].public_key();
        let pk1 = clients[1].public_key();
        cohort.pair(0, 1).expect("pair");
        cohort.queue_message(0, &pk1, b"soa hello").expect("queue");
        cohort.queue_message(1, &pk0, b"object world").expect("queue");
        clients[0].start_conversation(pk1).expect("start");
        clients[1].start_conversation(pk0).expect("start");
        clients[0].queue_message(&pk1, b"soa hello").expect("queue");
        clients[1].queue_message(&pk0, b"object world").expect("queue");
        prop_assert_eq!(cohort.mutual_pairs(), 1);

        for round in 0..3u64 {
            // Requests: the flat arena equals the multiplexed lists.
            let buf = cohort.build_conversation_round(round);
            let mut per_client = Vec::with_capacity(n);
            for (i, client) in clients.iter_mut().enumerate() {
                let mut rng = client_round_rng(cohort_seed, round, i as u64);
                per_client.push(client.build_conversation_requests(&mut rng, round, &pks));
            }
            let mut flat = entry::round_arena(RoundKind::Conversation, config.chain_len);
            let layout = entry::multiplex(&mut flat, &per_client);
            prop_assert_eq!(buf.to_vecs(), flat.to_vecs(), "round {} requests diverged", round);

            // Same chain seed ⇒ same noise schedule; replies agree.
            let (replies_a, _) = chain_a.run_conversation_round(round, Batch::Flat(buf));
            let (replies_b, _) = chain_b.run_conversation_round(round, flat);
            prop_assert_eq!(&replies_a, &replies_b, "round {} replies diverged", round);

            cohort.handle_conversation_replies(round, &replies_a);
            for (i, client_replies) in entry::demultiplex(&layout, replies_b).into_iter().enumerate()
            {
                clients[i].handle_conversation_replies(round, client_replies);
            }
        }

        // The compromised last server sees the same thing either way.
        prop_assert_eq!(
            chain_a.conversation_observables(),
            chain_b.conversation_observables()
        );

        // Delivered messages agree for every ordered pair, and the
        // queued bodies actually arrived.
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let pk = clients[j].public_key();
                prop_assert_eq!(
                    cohort.delivered_from(i, &pk),
                    clients[i].delivered_from(&pk),
                    "delivered mismatch at {} <- {}", i, j
                );
            }
        }
        prop_assert_eq!(cohort.delivered_from(1, &pk0), vec![b"soa hello".to_vec()]);
        prop_assert_eq!(cohort.delivered_from(0, &pk1), vec![b"object world".to_vec()]);
    }

    /// Dialing rounds: the cohort's all-noop cover traffic is
    /// byte-identical to idle individual clients, and two same-seeded
    /// chains fed either batch report identical invitation observables.
    #[test]
    fn cohort_dialing_matches_individual_clients(
        seed in 0u64..10_000,
        n in 1usize..5,
        workers in 1usize..4,
    ) {
        let config = cfg(1, workers);
        let mut chain_a = Chain::new(config.clone(), seed);
        let mut chain_b = Chain::new(config.clone(), seed);
        let pks = chain_a.server_public_keys();

        let cohort_seed = seed ^ 0xD1A7;
        let mut cohort = ClientCohort::with_own_tables(config.clone(), cohort_seed, &pks);
        cohort.join(n);
        let mut clients = reference_clients(n, cohort_seed, &config, &chain_a);

        let round = 5u64;
        let num_drops = 8u32;
        let buf = cohort.build_dialing_round(round);
        let mut reference = Vec::with_capacity(n);
        for (i, client) in clients.iter_mut().enumerate() {
            let mut rng = client_round_rng(cohort_seed, round, i as u64);
            reference.push(client.build_dial_request(&mut rng, round, num_drops, &pks));
        }
        prop_assert_eq!(buf.to_vecs(), reference.clone(), "dial requests diverged");

        let mut flat = entry::round_arena(RoundKind::Dialing { num_drops }, config.chain_len);
        let _layout = entry::multiplex(&mut flat, &[reference]);
        chain_a.run_dialing_round(round, Batch::Flat(buf), num_drops);
        chain_b.run_dialing_round(round, flat, num_drops);
        prop_assert_eq!(chain_a.dialing_observables(), chain_b.dialing_observables());
    }
}

/// Cohort sizes around the chunk wrap's batch edges — the octet of
/// ladder lanes, the 32-onion worker chunk and its second and third
/// chunks — at one and two conversation slots and chains of one to
/// three servers. Active and idle slots alternate in the flat order
/// (with two slots: `AA II AI AA II AI …`), so within a client and
/// across a chunk the fake-partner draws interleave with the layer-
/// secret draws; the last client talks too, so the tail chunk is not
/// all idle. Requests must match the per-object clients byte for byte,
/// conversation and dialing, and the layer keys the chunk wrap recorded
/// must open the chain's replies.
#[test]
fn cohort_matches_clients_at_chunk_edges() {
    for n in [7usize, 8, 9, 33, 65] {
        for slots in 1..=2usize {
            for chain_len in 1..=3usize {
                let workers = 1 + (n + slots + chain_len) % 3;
                let config = cfg_chain(chain_len, slots, workers);
                let seed = (1_000 * n + 10 * slots + chain_len) as u64;
                let mut chain = Chain::new(config.clone(), seed);
                let pks = chain.server_public_keys();
                let case = format!("n {n} slots {slots} chain {chain_len}");

                let cohort_seed = seed ^ 0xED6E;
                let mut cohort = ClientCohort::with_own_tables(config.clone(), cohort_seed, &pks);
                cohort.join(n);
                let mut clients = reference_clients(n, cohort_seed, &config, &chain);

                let mut pairs = vec![(0, 2), (3, 5), (n - 1, 4)];
                if slots == 2 {
                    pairs.push((0, 3));
                }
                for &(a, b) in &pairs {
                    let (pk_a, pk_b) = (clients[a].public_key(), clients[b].public_key());
                    cohort.pair(a, b).expect("pair");
                    clients[a].start_conversation(pk_b).expect("start");
                    clients[b].start_conversation(pk_a).expect("start");
                    let body = format!("{a} to {b}").into_bytes();
                    cohort.queue_message(a, &pk_b, &body).expect("queue");
                    clients[a].queue_message(&pk_b, &body).expect("queue");
                }

                for round in 0..2u64 {
                    let buf = cohort.build_conversation_round(round);
                    let mut per_client = Vec::with_capacity(n);
                    for (i, client) in clients.iter_mut().enumerate() {
                        let mut rng = client_round_rng(cohort_seed, round, i as u64);
                        per_client.push(client.build_conversation_requests(&mut rng, round, &pks));
                    }
                    let mut flat = entry::round_arena(RoundKind::Conversation, chain_len);
                    let layout = entry::multiplex(&mut flat, &per_client);
                    assert_eq!(
                        buf.to_vecs(),
                        flat.to_vecs(),
                        "{case} round {round} requests"
                    );

                    let (replies, _) = chain.run_conversation_round(round, Batch::Flat(buf));
                    cohort.handle_conversation_replies(round, &replies);
                    for (i, client_replies) in
                        entry::demultiplex(&layout, replies).into_iter().enumerate()
                    {
                        clients[i].handle_conversation_replies(round, client_replies);
                    }
                }
                for &(a, b) in &pairs {
                    let pk_a = clients[a].public_key();
                    let want = vec![format!("{a} to {b}").into_bytes()];
                    assert_eq!(cohort.delivered_from(b, &pk_a), want, "{case} {a} -> {b}");
                    assert_eq!(clients[b].delivered_from(&pk_a), want, "{case} {a} -> {b}");
                }

                let round = 9u64;
                let buf = cohort.build_dialing_round(round);
                let reference: Vec<Vec<u8>> = clients
                    .iter_mut()
                    .enumerate()
                    .map(|(i, client)| {
                        let mut rng = client_round_rng(cohort_seed, round, i as u64);
                        client.build_dial_request(&mut rng, round, 4, &pks)
                    })
                    .collect();
                assert_eq!(buf.to_vecs(), reference, "{case} dial requests");
            }
        }
    }
}
