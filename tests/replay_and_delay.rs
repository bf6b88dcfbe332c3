//! Replay and delay resistance: onion layers are bound to their round,
//! so requests moved across rounds authenticate nowhere.
//!
//! This is the code-level counterpart of the paper's round-based design
//! rationale: "Vuvuzela's round-based design makes it difficult for an
//! adversary to correlate dead drop accesses over time" (§3.1) and the
//! delay-attack resistance implied by per-round keys (§7: "Vuvuzela must
//! use new keys for each individual message").

use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;
use vuvuzela::adversary::taps::{DelayBatch, RoundWindow};
use vuvuzela::core::server::RoundKind;
use vuvuzela::core::{Chain, RoundBuffer, RoundSpec, SystemConfig};
use vuvuzela::crypto::onion;
use vuvuzela::dp::{NoiseDistribution, NoiseMode};
use vuvuzela::net::{batch_through_link, Link, LinkId};
use vuvuzela::sim::{RoundPlan, Scenario, SimError, Simulator, Step};
use vuvuzela::wire::conversation::ExchangeRequest;
use vuvuzela::wire::{BatchFrame, RoundId, RoundType, DIAL_REQUEST_LEN, EXCHANGE_REQUEST_LEN};

/// Runs round `round` of `kind` on `chain` over one onion, laid into
/// the chain-3 deployment's arena: one spec per [`Chain::run`] call, so
/// the caller sees each round's effect alone.
fn run_one_onion(chain: &mut Chain, round: u64, kind: RoundKind, onion: &[u8]) {
    let width = vuvuzela::crypto::onion::wrapped_len(kind.payload_len(), 3);
    let batch = RoundBuffer::from_vecs(&[onion.to_vec()], width, width)
        .0
        .into();
    let spec = match kind {
        RoundKind::Conversation => RoundSpec::Conversation { round, batch },
        RoundKind::Dialing { num_drops } => RoundSpec::Dialing {
            round,
            batch,
            num_drops,
        },
    };
    chain.run(vec![spec]).expect("round completes");
}

fn quiet_config() -> SystemConfig {
    SystemConfig {
        chain_len: 3,
        conversation_noise: NoiseDistribution::new(4.0, 1.0),
        dialing_noise: NoiseDistribution::new(2.0, 1.0),
        noise_mode: NoiseMode::Deterministic,
        workers: 2,
        conversation_slots: 1,
        retransmit_after: 2,
        exchange_shards: 4,
    }
}

/// A round-r onion replayed in round r+1 fails at the first server and
/// is replaced by noise — the adversary cannot re-observe an exchange.
#[test]
fn replayed_onions_are_rejected() {
    let mut chain = Chain::new(quiet_config(), 1);
    let pks = chain.server_public_keys();
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    use rand::SeedableRng;

    let payload = ExchangeRequest::noise(&mut rng).encode();
    let (onion_bytes, _) = onion::wrap(&mut rng, &pks, 0, &payload);

    // Round 0: accepted.
    run_one_onion(&mut chain, 0, RoundKind::Conversation, &onion_bytes);
    assert_eq!(chain.server(0).malformed_replaced, 0);

    // Round 1: the identical bytes are cryptographically stale.
    run_one_onion(&mut chain, 1, RoundKind::Conversation, &onion_bytes);
    assert_eq!(
        chain.server(0).malformed_replaced,
        1,
        "replay must fail authentication and be replaced by noise"
    );
}

/// A delaying adversary on the client uplink turns every round into a
/// one-round-late replay — which is equivalent to dropping all traffic,
/// not to learning anything: conversations stall but the observables
/// carry only noise.
#[test]
fn delay_is_equivalent_to_drop() -> Result<(), SimError> {
    // `quiet_config`'s deployment on the simulator: Alice and Bob.
    let mut scenario = Scenario::new("delay_is_equivalent_to_drop", 5);
    scenario.conversation_mu = 4.0;
    scenario.conversation_b = Some(1.0);
    scenario.dialing_mu = 2.0;
    scenario.dialing_b = Some(1.0);
    let mut sim = Simulator::new(scenario);
    let (alice, bob) = (0, 1);
    sim.step(Step::Join(2))?;
    sim.step(Step::Dial {
        caller: alice,
        callee: bob,
    })?;
    sim.step(Step::Run(vec![RoundPlan::Dialing]))?;
    sim.step(Step::AcceptAll)?;

    sim.chain_mut()
        .client_link_mut()
        .attach_tap(Arc::new(Mutex::new(DelayBatch::over(RoundWindow::ALL, 1))));
    sim.tolerate_violations();

    sim.step(Step::Queue {
        from: alice,
        to: bob,
        body: b"delayed into oblivion".to_vec(),
    })?;
    for _ in 0..4 {
        sim.step(Step::Run(vec![RoundPlan::Conversation]))?;
    }

    // Nothing is ever delivered: each delayed batch arrives one round
    // stale and fails authentication at server 0.
    assert!(sim.clients().all_delivered(bob).is_empty());
    let chain = sim.chain();
    assert!(chain.server(0).malformed_replaced > 0);

    // The observables during the delayed rounds contain exactly the
    // noise counts — no user exchange ever completes.
    for (round, obs) in chain.conversation_observables().iter().skip(1) {
        assert_eq!(
            obs.m2,
            2 * 2, // 2 noising servers × µ/2 pairs (µ=4)
            "round {round}: only noise pairs visible"
        );
    }
    // Every tampered round's histogram misses the pair; the first one
    // also gets no replies back.
    let tripped: BTreeSet<&str> = sim.violations().iter().map(|v| v.invariant).collect();
    assert_eq!(
        tripped,
        BTreeSet::from(["noise-covered-deaddrops", "uniform-participation"])
    );
    Ok(())
}

/// Dialing rounds are equally replay-bound.
#[test]
fn replayed_dial_requests_are_rejected() {
    let mut chain = Chain::new(quiet_config(), 7);
    let pks = chain.server_public_keys();
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);

    let payload = vuvuzela::wire::dialing::DialRequest::noop(&mut rng).encode();
    let (onion_bytes, _) = onion::wrap(&mut rng, &pks, 0, &payload);
    let kind = RoundKind::Dialing { num_drops: 1 };
    run_one_onion(&mut chain, 0, kind, &onion_bytes);
    assert_eq!(chain.server(0).malformed_replaced, 0);
    run_one_onion(&mut chain, 1, kind, &onion_bytes);
    assert_eq!(chain.server(0).malformed_replaced, 1);
}

/// A held batch released into a round of another width: round 0's
/// conversation requests, delayed into dialing round 1, arrive as
/// zero-filled slots of the dialing width after that round's own entry.
/// Past the entry each one counts on `tap_resized`; on the clients'
/// request leg, where sizes are client-controlled, none does.
#[test]
fn delayed_batch_merged_across_widths_is_zero_filled() {
    for (id, layers, counted) in [(LinkId::Hop(1), 2, 2), (LinkId::Clients, 3, 0)] {
        let mut link = Link::new(id);
        link.attach_tap(Arc::new(Mutex::new(DelayBatch::new(0, 1))));
        let through = |round, round_type, payload_len, count: usize| {
            let width = onion::wrapped_len(payload_len, layers);
            let mut batch = BatchFrame {
                link: id,
                round: RoundId(round),
                round_type,
                num_drops: 0,
                backward: false,
                stride: width as u32,
                width: width as u32,
                count: count as u32,
                payload: vec![0xA5; count * width],
                trailer: Vec::new(),
            };
            batch_through_link(&link, &mut batch).expect("no hang-up");
            (batch, width)
        };
        let (held, _) = through(0, RoundType::Conversation, EXCHANGE_REQUEST_LEN, 2);
        assert_eq!((held.count, held.payload.len()), (0, 0), "{id}: held");
        let (merged, width) = through(1, RoundType::Dialing, DIAL_REQUEST_LEN, 1);
        assert_eq!(merged.count, 3, "{id}: own entry, then the released two");
        assert_eq!(merged.payload.len(), 3 * width);
        assert!(merged.payload[..width].iter().all(|&b| b == 0xA5));
        assert!(merged.payload[width..].iter().all(|&b| b == 0), "{id}");
        assert_eq!(link.tap_resized(), counted, "{id}");
    }
}
