//! Transport-equivalence pins: the same scripted deployment schedule
//! must produce **byte-identical transcripts** over loopback TCP (one
//! thread per node, running exactly the code the program's roles run,
//! fed by `deploy::run_client` at the entry's window of `chain_len`
//! rounds) and in the in-process [`vuvuzela::core::Chain`], one round at
//! a time (`deploy::run_reference`).
//!
//! In-memory node loops are `StreamingChain`'s, pinned by the golden
//! schedules; the simulator's wire twin holds every scenario's round
//! record equal between `Chain::run` and the node loops over loopback
//! TCP. The separate-OS-process variant is exercised by
//! `vuvuzela launch --check` in CI's deploy-smoke job.

use proptest::prelude::*;
use std::sync::{mpsc, Arc};
use vuvuzela::core::node::run_entry_node;
use vuvuzela::core::record::{NodeId, RoundEvent};
use vuvuzela::core::server::RoundKind;
use vuvuzela::crypto::onion;
use vuvuzela::deploy::{self, DeploymentConfig, ScheduleEntry};
use vuvuzela::net::link::Link;
use vuvuzela::net::transport::memory_pair;
use vuvuzela::net::{Error, LinkId, Transport};
use vuvuzela::wire::{BatchFrame, Frame, RoundId, RoundType};

fn smoke() -> DeploymentConfig {
    deploy::smoke_config()
}

/// The smoke deployment with two extra rounds so the entry's window sees
/// a conversation/dialing interleaving deeper than the window itself.
fn mixed() -> DeploymentConfig {
    let mut cfg = smoke();
    cfg.schedule
        .push(ScheduleEntry::Dialing { dials: 1, drops: 3 });
    cfg.schedule.push(ScheduleEntry::Conversation {
        pairs: 1,
        singles: 1,
    });
    cfg
}

/// Nodes over loopback TCP, one thread per node running exactly the code
/// the program's roles run, every listener bound before any node starts.
/// Returns the transcript and every node's round record.
fn run_loopback_tcp(cfg: &DeploymentConfig) -> (String, Vec<RoundEvent>) {
    let (tx, events) = mpsc::channel();
    let nodes = (0..cfg.system.chain_len).rev().map(NodeId::Hop);
    let listeners: Vec<_> = (nodes.chain([NodeId::Entry]))
        .map(|node| {
            (
                node,
                deploy::listen(cfg, node).expect("a free loopback port"),
            )
        })
        .collect();
    let handles: Vec<_> = (listeners.into_iter())
        .map(|(node, listener)| {
            let (cfg, tx) = (cfg.clone(), tx.clone());
            std::thread::spawn(move || {
                let mut observe = |event| tx.send(event).expect("the test keeps the receiver");
                match node {
                    NodeId::Hop(i) => {
                        deploy::serve_server_observed(&cfg, i, listener, &mut observe)
                    }
                    NodeId::Entry => deploy::serve_entry_observed(&cfg, listener, &mut observe),
                }
                .expect("node")
            })
        })
        .collect();
    let transcript = deploy::run_client_tcp(cfg).expect("tcp client");
    for handle in handles {
        handle.join().expect("node thread");
    }
    (transcript, events.try_iter().collect())
}

#[test]
fn loopback_tcp_matches_the_reference_transcript() {
    // Resolve `:0` ports once so both runs share one concrete config
    // (the digest in the transcript header covers addresses).
    let mut cfg = smoke();
    deploy::resolve_ephemeral_ports(&mut cfg).expect("free loopback ports");
    let reference = deploy::run_reference(&cfg);
    assert!(
        reference.contains("round 0 conversation"),
        "reference transcript covers the schedule:\n{reference}"
    );
    let (tcp, record) = run_loopback_tcp(&cfg);
    assert_eq!(
        tcp, reference,
        "loopback TCP transport diverged from the reference"
    );
    // The entry relays each round both ways, and every server reports.
    let passes = |node| record.iter().filter(|e| e.public.node == node).count();
    assert_eq!(passes(NodeId::Entry), 2 * cfg.schedule.len(), "{record:#?}");
    assert!((0..cfg.system.chain_len).all(|i| passes(NodeId::Hop(i)) > 0));
}

#[test]
fn pipelined_tcp_matches_sequential_reference_at_every_depth() {
    // The entry's window is `chain_len` rounds, so each chain length
    // is one window depth. One fresh port resolution per run:
    // back-to-back runs must not rebind the previous run's listeners
    // (TIME_WAIT), so each run gets its own concrete config and its own
    // reference transcript.
    for chain_len in [1, 2, mixed().system.chain_len] {
        let mut cfg = mixed();
        cfg.system.chain_len = chain_len;
        cfg.server_addrs.truncate(chain_len);
        deploy::resolve_ephemeral_ports(&mut cfg).expect("free loopback ports");
        let reference = deploy::run_reference(&cfg);
        assert!(
            reference.contains("round 4 dialing"),
            "reference transcript covers the schedule:\n{reference}"
        );
        assert_eq!(
            run_loopback_tcp(&cfg).0,
            reference,
            "TCP at a window of {chain_len} rounds diverged from the sequential reference"
        );
    }
}

#[test]
fn transcripts_react_to_seed_and_schedule() {
    let cfg = smoke();
    let mut other = smoke();
    other.seed ^= 1;
    assert_ne!(
        deploy::run_reference(&cfg),
        deploy::run_reference(&other),
        "different seeds must not collide"
    );

    let mut shorter = smoke();
    shorter.schedule.pop();
    assert_ne!(deploy::run_reference(&cfg), deploy::run_reference(&shorter));
}

#[test]
fn paired_talkers_deliver_their_messages() {
    let reference = deploy::run_reference(&smoke());
    let delivered: Vec<&str> = reference
        .lines()
        .filter_map(|line| line.split(" delivered ").nth(1))
        .collect();
    // smoke_config rounds: two pairs each deliver both their messages.
    // Round 2's pair retransmits round 0's messages, whose acks the
    // cohort ingests only after the last round is built (duplicates,
    // nothing new); round 3 has no pair.
    assert_eq!(delivered, ["4", "0", "0"], "{reference}");
}

/// Drives a bare entry node (dummy never-replying downstream) with
/// `window + extra` zero-count rounds and returns the entry's error.
fn overfill_entry(chain_len: usize, extra: usize) -> Error {
    let mut system = smoke().system;
    system.chain_len = chain_len;
    let (client_end, entry_clients) = memory_pair(Arc::new(Link::new(LinkId::Clients)));
    let (entry_down, dummy) = memory_pair(Arc::new(Link::new(LinkId::Hop(0))));
    // The dummy tail drains exactly the admitted rounds but never
    // answers, so the entry's window can only fill, never drain:
    // admission behaviour is a pure function of the client's sends.
    // It hands its transport end back rather than dropping it: the link
    // must stay open until the entry has returned, or the entry can see
    // a closed downstream before it reads the out-of-window frame and
    // fail with a transport error instead of the rejection under test.
    let window = chain_len.max(1);
    let drain = std::thread::spawn(move || {
        for _ in 0..window {
            dummy.recv().expect("forwarded round");
        }
        dummy
    });
    let entry_clients: Arc<dyn Transport> = Arc::new(entry_clients);
    let entry_down: Arc<dyn Transport> = Arc::new(entry_down);
    let entry = {
        let system = system.clone();
        std::thread::spawn(move || run_entry_node(&system, entry_clients, entry_down, &mut |_| {}))
    };

    let width = onion::wrapped_len(RoundKind::Conversation.payload_len(), chain_len) as u32;
    for round in 0..(window + extra) as u64 {
        let sent = client_end.send(Frame::Batch(BatchFrame {
            link: LinkId::Clients,
            round: RoundId(round),
            round_type: RoundType::Conversation,
            num_drops: 0,
            backward: false,
            stride: width,
            width,
            count: 0,
            payload: Vec::new(),
            trailer: Vec::new(),
        }));
        if sent.is_err() {
            // The entry already errored out and hung up; that error is
            // what the test asserts on.
            break;
        }
    }
    let err = entry
        .join()
        .expect("entry thread")
        .expect_err("overfilled entry must reject");
    drop(client_end);
    drop(drain.join().expect("drain thread"));
    err
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Out-of-window admission is rejected *deterministically*: the
    /// entry errors with the same protocol violation — naming the
    /// window size — for any chain length and any overshoot, and two
    /// identical runs produce byte-identical error messages.
    #[test]
    fn out_of_window_admission_is_rejected_deterministically(
        chain_len in 1usize..=4,
        extra in 1usize..=3,
    ) {
        let err = overfill_entry(chain_len, extra);
        let reason = match &err {
            Error::Protocol { link, reason } => {
                prop_assert_eq!(*link, LinkId::Clients);
                reason.clone()
            }
            other => panic!("expected a protocol rejection, got {other:?}"),
        };
        prop_assert!(
            reason.contains("admission window"),
            "rejection names the window: {reason}"
        );
        prop_assert!(
            reason.contains(&format!("round {}", chain_len.max(1))),
            "the first out-of-window round is rejected: {reason}"
        );
        // Same inputs, same rejection, byte for byte.
        let again = overfill_entry(chain_len, extra);
        prop_assert_eq!(format!("{err}"), format!("{again}"));
    }
}
