//! Known answers for the client: SHA-256 digests of request arenas and
//! delivered messages, taken from the per-object client that
//! [`ClientCohort`] replaced, which built each member's requests on its
//! own over the same schedule (keypairs from `key_rng(seed)` in join
//! order, round randomness from `client_round_rng(seed, round, k)`, `k`
//! the member's position among the round's online members). The cohort
//! must still produce exactly these bytes.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vuvuzela::core::{Chain, ClientCohort, RoundBuffer, RoundSpec, SystemConfig};
use vuvuzela::crypto::sealedbox;
use vuvuzela::crypto::x25519::{Keypair, PublicKey};
use vuvuzela::dp::{NoiseDistribution, NoiseMode};
use vuvuzela::wire::dialing::SealedInvitation;
use vuvuzela::wire::SEALED_INVITATION_LEN;

fn cfg(chain_len: usize, slots: usize, workers: usize) -> SystemConfig {
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

/// SHA-256 over a sequence of length-prefixed fields.
#[derive(Default)]
struct Pin(Vec<u8>);

impl Pin {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn slots(&mut self, slots: &[Vec<u8>]) {
        self.u64(slots.len() as u64);
        for slot in slots {
            self.u64(slot.len() as u64);
            self.0.extend_from_slice(slot);
        }
    }

    fn arena(&mut self, buf: &RoundBuffer) {
        self.slots(&buf.to_vecs());
    }

    fn hex(&self) -> String {
        vuvuzela::crypto::sha256::sha256(&self.0)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}

/// A cohort of `n` for a fresh chain, and the chain.
fn cohort(config: &SystemConfig, chain_seed: u64, seed: u64, n: usize) -> (ClientCohort, Chain) {
    let chain = Chain::new(config.clone(), chain_seed);
    let mut cohort =
        ClientCohort::with_own_tables(config.clone(), seed, &chain.server_public_keys());
    cohort.join(n);
    (cohort, chain)
}

/// One case of the grid: cohort sizes around the chunk wrap's batch
/// edges (the octet of ladder lanes, the 32-onion worker chunk and its
/// second and third chunks) at one or two slots over chains of one to
/// three servers. Active and idle slots alternate in the flat order, so
/// within a member and across a chunk the fake-partner draws interleave
/// with the layer-secret draws. Two conversation rounds go through the
/// chain and every pair's message must arrive; then an all-no-op
/// dialing round.
fn grid_case(n: usize, slots: usize, chain_len: usize, pin: &mut Pin) {
    let config = cfg(chain_len, slots, 1 + (n + slots + chain_len) % 3);
    let seed = (1_000 * n + 10 * slots + chain_len) as u64;
    let (mut cohort, mut chain) = cohort(&config, seed, seed ^ 0xED6E, n);
    let mut pairs = vec![(0, 2), (3, 5), (n - 1, 4)];
    if slots == 2 {
        pairs.push((0, 3));
    }
    for &(a, b) in &pairs {
        let pk_b = cohort.public_key(b);
        cohort.pair(a, b).expect("pair");
        let body = format!("{a} to {b}").into_bytes();
        cohort.queue_message(a, &pk_b, &body).expect("queue");
    }
    for round in 0..2u64 {
        let buf = cohort.build_conversation_round(round);
        pin.arena(&buf);
        let spec = RoundSpec::Conversation {
            round,
            batch: buf.into(),
        };
        let outcome = chain.run(vec![spec]).expect("round completes").remove(0);
        cohort.handle_conversation_replies(round, outcome.replies().expect("conversation"));
    }
    for &(a, b) in &pairs {
        let delivered = cohort.delivered_from(b, &cohort.public_key(a));
        let case = format!("n {n} slots {slots} chain {chain_len}: {a} -> {b}");
        assert_eq!(
            delivered,
            vec![format!("{a} to {b}").into_bytes()],
            "{case}"
        );
        pin.slots(&delivered);
    }
    pin.arena(&cohort.build_dialing_round(9, 4));
}

#[test]
fn chunk_edge_grid_matches_its_pins() {
    const WANT: [(usize, &str); 5] = [
        (
            7,
            "a6d75440ace92ae704543cde5f9f8fd3fc4b3ec14b796150740c832f2a750f37",
        ),
        (
            8,
            "45906fc516877978420e7ebf1109718c876e9f2379267fb028aea545cfe22ddf",
        ),
        (
            9,
            "e541380c1821b74a0c79df6e6866a730bd3425eb41de65aa5ef4d458a05f3aa8",
        ),
        (
            33,
            "213fe79ce86cedbb7c1629975e3c11593221a6f0565c9b72d5f8da5f1ce4e8a6",
        ),
        (
            65,
            "c33867665e660b210accedad050d87d7038b4bed46d467c26e437168b829f444",
        ),
    ];
    for (n, want) in WANT {
        let mut pin = Pin::default();
        for slots in 1..=2 {
            for chain_len in 1..=3 {
                grid_case(n, slots, chain_len, &mut pin);
            }
        }
        assert_eq!(pin.hex(), want, "n = {n}");
    }
}

#[test]
fn noop_dialing_round_matches_its_pin() {
    let (mut cohort, _) = cohort(&cfg(3, 1, 2), 0xD1A1, 0xD1A1 ^ 0xC0, 12);
    let mut pin = Pin::default();
    pin.arena(&cohort.build_dialing_round(5, 8));
    assert_eq!(
        pin.hex(),
        "2fd7f2a8f0173f4b41bc3c0daba474461bb085a94ad530ecc612d62334c85f73"
    );
}

/// Real invitations in place of no-ops: six dials queued by five
/// callers (one of them two deep, so its second waits a round), and one
/// caller offline for the first two dialing rounds, so its invitation
/// waits and the other members' positions, and with them their round
/// randomness, shift. A conversation round with that member offline
/// again follows, carrying the dials' pre-entered conversations.
#[test]
fn dialing_rounds_with_queued_dials_match_their_pin() {
    let (mut cohort, _) = cohort(&cfg(2, 2, 2), 0xCA11, 0xCA11, 10);
    let pk: Vec<PublicKey> = (0..10).map(|i| cohort.public_key(i)).collect();
    for (caller, callee) in [(0, 3), (2, 5), (5, 2), (7, 1), (7, 9), (4, 8)] {
        cohort.dial(caller, pk[callee]).expect("dial");
    }
    let mut pin = Pin::default();
    cohort.set_online(4, false);
    for round in 3..6 {
        if round == 5 {
            cohort.set_online(4, true);
        }
        pin.arena(&cohort.build_dialing_round(round, 4));
    }
    cohort.set_online(4, false);
    pin.arena(&cohort.build_conversation_round(6));
    assert_eq!(
        pin.hex(),
        "5cac57ee04825db106b9456c54908dcd41a1a6e3738b6e0ce2c6cb35b5087b29"
    );
}

/// The batched drop scan against its oracle, the per-entry
/// `SealedInvitation::try_open` loop: the same callers in the same
/// order for every member, on a drop of several chunks that mixes
/// invitations to the member and to others, keyed noise, low-order
/// ephemeral keys, a box whose plaintext is no public key, and entries
/// too short to be a box.
#[test]
fn the_batched_drop_scan_finds_what_try_open_finds() {
    let mut rng = StdRng::seed_from_u64(0x5CA7);
    let members: Vec<Keypair> = (0..3).map(|_| Keypair::generate(&mut rng)).collect();
    let outsider = Keypair::generate(&mut rng).public;
    let mut noise = Vec::new();
    let mut drop = Vec::new();
    for i in 0..150 {
        let recipient = match i % 5 {
            0 | 1 => members[i % 2].public,
            2 => {
                noise.push(drop.len());
                drop.push(SealedInvitation::noise(&mut rng));
                continue;
            }
            3 => members[2].public,
            _ => outsider,
        };
        let caller = Keypair::generate(&mut rng).public;
        drop.push(SealedInvitation::seal(&mut rng, &caller, &recipient));
    }
    let keyed = drop.iter_mut().enumerate();
    let keyed = keyed.filter(|(at, _)| noise.contains(at));
    SealedInvitation::key_noise(keyed.map(|(_, inv)| inv.0.as_mut_slice()));
    // u = 0 and u = 1 are low-order: every secret key's shared secret
    // with them is zero.
    for (at, u) in [(7, 0u8), (71, 1)] {
        let mut low_order = vec![0u8; SEALED_INVITATION_LEN];
        low_order[0] = u;
        drop.insert(at, SealedInvitation(low_order));
    }
    drop.insert(3, SealedInvitation(vec![9; 12]));
    drop.insert(40, SealedInvitation(vec![9; sealedbox::OVERHEAD - 1]));
    let not_a_key = sealedbox::seal(&mut rng, &members[0].public, &[1; 31]);
    drop.insert(90, SealedInvitation(not_a_key));

    for workers in [1, 2] {
        let (mut cohort, _) = cohort(&cfg(3, 1, workers), 1, 2, 0);
        cohort.admit(members.iter().map(|kp| kp.secret.clone()).collect());
        for (index, member) in members.iter().enumerate() {
            let want: Vec<PublicKey> = drop
                .iter()
                .filter_map(|inv| inv.try_open(&member.secret, &member.public))
                .collect();
            assert_eq!(want.len(), 30, "member {index} has 30 invitations");
            let got = cohort.scan_invitation_drop(index, &drop);
            assert!(got == want, "member {index}, {workers} workers");
            assert!(cohort.pending_invitations(index) == want.as_slice());
        }
    }
}
