//! A million-client conversation round (§8 scale) on one machine.
//!
//! The paper's deployment target is millions of users per round. The
//! client, a [`ClientCohort`], holds the whole population in flat
//! struct-of-arrays storage — one shared DH-table set, requests built
//! worker-striped straight into a single round arena — so a million
//! users cost no heap object and no request `Vec` apiece (the
//! `client_pins` test holds its bytes to known answers).
//!
//! This example joins 1,000,000 clients (a few of them in real
//! conversations, the rest idle cover), runs one steady-state
//! conversation round end to end through a 3-server chain with the
//! sharded dead-drop exchange, ingests every reply, and prints the
//! stage timings.
//!
//! Run: `cargo run --release --example population`
//! (minutes on a small box; set `VUVUZELA_POPULATION=50000` to scale
//! the crowd down).

use std::time::Instant;

use vuvuzela::core::chain::RoundSpec;
use vuvuzela::core::cohort::ClientCohort;
use vuvuzela::core::{Chain, SystemConfig};
use vuvuzela::dp::{NoiseDistribution, NoiseMode};

fn main() {
    let n: usize = std::env::var("VUVUZELA_POPULATION")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let config = SystemConfig {
        chain_len: 3,
        // Laptop-scale cover traffic; production uses µ = 300,000 per
        // noising server (§8.1) and simply makes the round larger.
        conversation_noise: NoiseDistribution::new(2_000.0, 101.0),
        dialing_noise: NoiseDistribution::new(1_000.0, 101.0),
        noise_mode: NoiseMode::Deterministic,
        workers: 2,
        conversation_slots: 1,
        retransmit_after: 2,
        exchange_shards: 4,
    };
    let mut chain = Chain::new(config.clone(), 1);
    let pks = chain.server_public_keys();

    println!("joining {n} clients ...");
    let start = Instant::now();
    let mut cohort = ClientCohort::with_own_tables(config, 1, &pks);
    cohort.join(n);
    // Four real conversations ride the cover crowd, a message each way.
    for pair in 0..4usize {
        let (a, b) = (2 * pair, 2 * pair + 1);
        cohort.pair(a, b).expect("pair");
        let (pk_a, pk_b) = (cohort.public_key(a), cohort.public_key(b));
        cohort
            .queue_message(a, &pk_b, format!("hello from {a}").as_bytes())
            .expect("queue");
        cohort
            .queue_message(b, &pk_a, format!("hello from {b}").as_bytes())
            .expect("queue");
    }
    println!(
        "cohort ready in {:.1} s ({} mutual pairs, rest idle cover)",
        start.elapsed().as_secs_f64(),
        cohort.mutual_pairs()
    );

    let round = 0u64;
    let start = Instant::now();
    let buf = cohort.build_conversation_round(round);
    let build_secs = start.elapsed().as_secs_f64();
    println!(
        "built {} onions in {:.1} s ({:.0} clients/s)",
        buf.len(),
        build_secs,
        n as f64 / build_secs
    );

    let start = Instant::now();
    let spec = RoundSpec::Conversation {
        round,
        batch: buf.into(),
    };
    let outcome = chain
        .run(vec![spec])
        .expect("an untapped chain completes every round")
        .remove(0);
    let replies = outcome.replies().expect("a conversation round");
    let round_secs = start.elapsed().as_secs_f64();
    println!(
        "chain round: {:.1} s total (exchange {:.1} s over 4 shards), {} replies",
        round_secs,
        outcome.timing().exchange.as_secs_f64(),
        replies.len()
    );

    let start = Instant::now();
    cohort.handle_conversation_replies(round, replies);
    let ingest_secs = start.elapsed().as_secs_f64();
    println!("ingested every reply in {ingest_secs:.1} s");

    for pair in 0..4usize {
        let (a, b) = (2 * pair, 2 * pair + 1);
        assert_eq!(
            cohort.delivered_from(b, &cohort.public_key(a)),
            vec![format!("hello from {a}").into_bytes()],
            "pair {pair} lost its message"
        );
        assert_eq!(
            cohort.delivered_from(a, &cohort.public_key(b)),
            vec![format!("hello from {b}").into_bytes()],
            "pair {pair} lost its reply"
        );
    }
    let total = build_secs + round_secs + ingest_secs;
    println!(
        "round complete: all 8 messages delivered; {total:.1} s end to end \
         ({:.0} clients/s)",
        n as f64 / total
    );
}
