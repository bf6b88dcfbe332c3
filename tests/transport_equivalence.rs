//! Transport-equivalence pins: the same scripted deployment schedule
//! must produce **byte-identical transcripts** across all three
//! execution modes —
//!
//! 1. the in-process [`vuvuzela::core::Chain`], one round at a time
//!    (`deploy::run_reference`),
//! 2. transport-driven nodes over in-memory endpoints
//!    ([`vuvuzela::net::memory_pair`]),
//! 3. transport-driven nodes over loopback TCP (ephemeral ports, one
//!    thread per node standing in for the per-process roles),
//!
//! the last two fed by `deploy::run_client` at the entry's window of
//! `chain_len` rounds. The last two also keep every node's round record,
//! and its public part, durations aside, must be identical between them.
//!
//! The separate-OS-process variant of (3) is exercised by
//! `vuvuzela launch --check` in CI's deploy-smoke job.

use proptest::prelude::*;
use std::sync::{mpsc, Arc};
use std::time::Duration;
use vuvuzela::core::chain::build_server;
use vuvuzela::core::node::{run_entry_node, run_server_node};
use vuvuzela::core::record::{NodeId, Public, RoundEvent};
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

/// A run's round record as comparable lines: each event's public part,
/// duration zeroed, sorted (nodes run concurrently, so only each node's
/// own events keep an order, and that one depends on arrival too).
fn public_record(events: mpsc::Receiver<RoundEvent>) -> Vec<String> {
    let mut lines: Vec<String> = events
        .try_iter()
        .map(|event| {
            let public = Public {
                duration: Duration::ZERO,
                ..event.public
            };
            format!("{public:?}")
        })
        .collect();
    lines.sort();
    lines
}

/// An observer that forwards a node's events down `tx`.
fn recorder(tx: &mpsc::Sender<RoundEvent>) -> impl FnMut(RoundEvent) {
    let tx = tx.clone();
    move |event| tx.send(event).expect("the test keeps the receiver")
}

/// Mode 2: nodes over in-memory endpoints, client driven by the same
/// `deploy::run_client` the TCP bin uses. Returns the transcript and the
/// round record ([`public_record`]).
fn run_memory(cfg: &DeploymentConfig) -> (String, Vec<String>) {
    let (tx, events) = mpsc::channel();
    let chain_len = cfg.system.chain_len;
    let (client_end, entry_client_end) = memory_pair(Arc::new(Link::new(LinkId::Clients)));
    // For hop i, `send_ends[i]` goes to the upstream node (entry or
    // server i-1) and `recv_ends[i]` to server i.
    let mut send_ends: Vec<Arc<dyn Transport>> = Vec::new();
    let mut recv_ends: Vec<Arc<dyn Transport>> = Vec::new();
    for i in 0..chain_len {
        let (a, b) = memory_pair(Arc::new(Link::new(LinkId::Hop(i as u32))));
        send_ends.push(Arc::new(a));
        recv_ends.push(Arc::new(b));
    }

    let mut handles = Vec::new();
    let entry_down = send_ends.remove(0);
    let entry_clients: Arc<dyn Transport> = Arc::new(entry_client_end);
    let cfg_entry = cfg.system.clone();
    let mut observe = recorder(&tx);
    handles.push(std::thread::spawn(move || {
        run_entry_node(&cfg_entry, entry_clients, entry_down, &mut observe).expect("entry node");
    }));
    for position in 0..chain_len {
        let up = recv_ends.remove(0);
        // After removing the entry's end, `send_ends[0]` is hop
        // `position + 1`'s sending side.
        let down = if position + 1 < chain_len {
            Some(send_ends.remove(0))
        } else {
            None
        };
        let mut server = build_server(&cfg.system, cfg.seed, position);
        let system = cfg.system.clone();
        let seed = cfg.seed;
        let mut observe = recorder(&tx);
        handles.push(std::thread::spawn(move || {
            run_server_node(&mut server, &system, seed, up, down, &mut observe)
                .expect("server node");
        }));
    }

    let transcript = deploy::run_client(cfg, &client_end).expect("memory client");
    for handle in handles {
        handle.join().expect("node thread");
    }
    (transcript, public_record(events))
}

/// Mode 3: nodes over loopback TCP with ephemeral ports, one thread per
/// node running exactly the code the program's roles run. Returns the
/// transcript and the round record ([`public_record`]).
fn run_loopback_tcp(cfg: &DeploymentConfig) -> (String, Vec<String>) {
    let cfg = cfg.clone();
    let (tx, events) = mpsc::channel();
    let mut handles = Vec::new();
    for position in (0..cfg.system.chain_len).rev() {
        let (cfg, mut observe) = (cfg.clone(), recorder(&tx));
        handles.push(std::thread::spawn(move || {
            deploy::serve_server_observed(&cfg, position, &mut observe).expect("server");
        }));
    }
    {
        let (cfg, mut observe) = (cfg.clone(), recorder(&tx));
        handles.push(std::thread::spawn(move || {
            deploy::serve_entry_observed(&cfg, &mut observe).expect("entry");
        }));
    }
    let transcript = deploy::run_client_tcp(&cfg).expect("tcp client");
    for handle in handles {
        handle.join().expect("node thread");
    }
    (transcript, public_record(events))
}

#[test]
fn all_three_transports_produce_identical_transcripts() {
    // Resolve `:0` ports once so all three modes share one concrete
    // config (the digest in the transcript header covers addresses).
    let mut cfg = smoke();
    deploy::resolve_ephemeral_ports(&mut cfg).expect("free loopback ports");
    let reference = deploy::run_reference(&cfg);
    assert!(
        reference.contains("round 0 conversation"),
        "reference transcript covers the schedule:\n{reference}"
    );
    let (memory, memory_record) = run_memory(&cfg);
    assert_eq!(
        memory, reference,
        "in-memory transport diverged from the reference"
    );
    let (tcp, tcp_record) = run_loopback_tcp(&cfg);
    assert_eq!(
        tcp, reference,
        "loopback TCP transport diverged from the reference"
    );
    assert_eq!(
        memory_record, tcp_record,
        "the round record's public part differs between the node loops"
    );
    // The entry relays each round both ways, and every server reports.
    let rounds = cfg.schedule.len();
    let entry = format!("node: {:?}", NodeId::Entry);
    let relays = memory_record.iter().filter(|line| line.contains(&entry));
    assert_eq!(relays.count(), 2 * rounds, "{memory_record:#?}");
    for position in 0..cfg.system.chain_len {
        let server = format!("node: {:?}", NodeId::Hop(position));
        assert!(memory_record.iter().any(|line| line.contains(&server)));
    }
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
fn pipelined_memory_matches_sequential_reference() {
    let mut cfg = mixed();
    deploy::resolve_ephemeral_ports(&mut cfg).expect("free loopback ports");
    let reference = deploy::run_reference(&cfg);
    assert_eq!(
        run_memory(&cfg).0,
        reference,
        "pipelined in-memory transport diverged from the sequential reference"
    );
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
