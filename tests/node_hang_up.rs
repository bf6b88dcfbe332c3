//! A node that stops hangs up: its neighbours see
//! [`Error::Disconnected`] naming the link between them — in bounded
//! time, over in-memory endpoints and over loopback TCP alike — instead
//! of blocking on a peer that will never speak again.
//!
//! The probe is three [`run_server_node`] threads wired as a chain and
//! one malformed batch sent to hop 0. Before `Transport::hang_up`
//! existed hop 0 returned its protocol error and hops 1 and 2 sat in
//! `recv` forever: each node's reader threads kept both of its endpoints
//! alive, so no peer ever saw a disconnect. The separate-OS-process
//! variant (a killed server) is `tests/process_death.rs`.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;
use vuvuzela::core::chain::build_server;
use vuvuzela::core::node::{run_server_node, NodeStats};
use vuvuzela::core::SystemConfig;
use vuvuzela::crypto::onion;
use vuvuzela::deploy;
use vuvuzela::net::link::Link;
use vuvuzela::net::transport::memory_pair;
use vuvuzela::net::{loopback_pair, Error, LinkId, Transport};
use vuvuzela::wire::{BatchFrame, Frame, RoundId, RoundType, EXCHANGE_REQUEST_LEN};

/// How long every surviving node gets to notice and return. Nothing on
/// the path waits on a timer — a hang-up fails a blocked `recv` at once
/// — so this only has to outlast three thread wake-ups on a busy host.
const BOUND: Duration = Duration::from_secs(5);

const CHAIN_LEN: usize = 3;

type Ends = (Arc<dyn Transport>, Arc<dyn Transport>);

/// Both ends of hop `i`'s link, in memory: `(upstream peer's, hop's)`.
fn memory_ends(i: u32) -> Ends {
    let (far, near) = memory_pair(Arc::new(Link::new(LinkId::Hop(i))));
    (Arc::new(far), Arc::new(near))
}

/// The same over one loopback TCP connection.
fn tcp_ends(i: u32) -> Ends {
    let (far, near) = loopback_pair(&Link::new(LinkId::Hop(i))).expect("loopback pair");
    (Arc::new(far), Arc::new(near))
}

fn system() -> SystemConfig {
    deploy::smoke_config().system
}

/// Round 0 as hop 0's upstream peer sends it: `count` zeroed
/// conversation onions of `width` bytes.
fn batch(width: usize, count: usize) -> Frame {
    Frame::Batch(BatchFrame {
        link: LinkId::Hop(0),
        round: RoundId(0),
        round_type: RoundType::Conversation,
        num_drops: 0,
        backward: false,
        stride: width as u32,
        width: width as u32,
        count: count as u32,
        payload: vec![0; width * count],
        trailer: Vec::new(),
    })
}

/// A node's chain position and what it returned.
type Returned = (usize, Result<NodeStats, Error>);

/// Starts the three server nodes over links built by `ends` —
/// `panicking_hop`, if any, with an observer that panics — and returns
/// hop 0's upstream peer end plus the channel each node's [`Returned`]
/// arrives on when — if — it returns.
fn start_chain(
    ends: fn(u32) -> Ends,
    panicking_hop: Option<usize>,
) -> (Arc<dyn Transport>, mpsc::Receiver<Returned>) {
    let system = system();
    let (mut fars, nears): (Vec<_>, Vec<_>) = (0..CHAIN_LEN as u32).map(ends).unzip();
    let feeder = fars.remove(0);
    let downs = fars.into_iter().map(Some).chain([None]);
    let (done, returned) = mpsc::channel();
    for (position, (up, down)) in nears.into_iter().zip(downs).enumerate() {
        let (system, done) = (system.clone(), done.clone());
        std::thread::spawn(move || {
            let mut server = build_server(&system, 9, position);
            let result = run_server_node(&mut server, &system, 9, up, down, &mut |_| {
                assert!(panicking_hop != Some(position), "injected node fault");
            });
            let _ = done.send((position, result));
        });
    }
    (feeder, returned)
}

/// Waits for `count` nodes to return, each inside [`BOUND`]; in chain
/// order.
fn returned_within_bound(returned: &mpsc::Receiver<Returned>, count: usize) -> Vec<Returned> {
    let mut results: Vec<_> = (0..count)
        .map(|_| {
            returned
                .recv_timeout(BOUND)
                .expect("a node is still blocked after the bound: no hang-up reached it")
        })
        .collect();
    results.sort_by_key(|(position, _)| *position);
    results
}

fn erroring_node_cascades(ends: fn(u32) -> Ends) {
    let (feeder, returned) = start_chain(ends, None);
    // A batch no hop can accept: seven bytes wide.
    feeder.send(batch(7, 1)).expect("send the batch");
    let results = returned_within_bound(&returned, CHAIN_LEN);

    match &results[0].1 {
        Err(Error::Protocol { link, reason }) => {
            assert_eq!(*link, LinkId::Hop(0));
            assert!(reason.contains("batch width 7"), "{reason}");
        }
        other => panic!("hop 0 must refuse the batch by name, got {other:?}"),
    }
    // Downstream of the failure: each hop's *upstream* link went away.
    for (position, result) in &results[1..] {
        match result {
            Err(Error::Disconnected { link }) => assert_eq!(*link, LinkId::Hop(*position as u32)),
            other => panic!("hop {position} must see its upstream hang up, got {other:?}"),
        }
    }
    // And upstream of it: the peer that sent the batch.
    match feeder.recv() {
        Err(Error::Disconnected { link }) => assert_eq!(link, LinkId::Hop(0)),
        other => panic!("hop 0's upstream peer must see the hang-up, got {other:?}"),
    }
}

#[test]
fn an_erroring_node_hangs_up_on_its_neighbours_in_memory() {
    erroring_node_cascades(memory_ends);
}

#[test]
fn an_erroring_node_hangs_up_on_its_neighbours_over_loopback_tcp() {
    erroring_node_cascades(tcp_ends);
}

/// The unwinding path: hop 1 dies of a panic (its observer's, standing
/// in for a tap or a worker closure) while processing a well-formed
/// round. Its thread never reports; both neighbours must — hop 0 naming
/// its downstream link, hop 2 its upstream link.
#[test]
fn a_panicking_node_hangs_up_in_both_directions() {
    let (feeder, returned) = start_chain(memory_ends, Some(1));
    let width = onion::wrapped_len(EXCHANGE_REQUEST_LEN, CHAIN_LEN);
    feeder
        .send(batch(width, 0))
        .expect("send an empty, well-formed round");

    let links: Vec<(usize, LinkId)> = returned_within_bound(&returned, 2)
        .iter()
        .map(|(position, result)| match result {
            Err(Error::Disconnected { link }) => (*position, *link),
            other => panic!("hop {position} must see a hang-up, got {other:?}"),
        })
        .collect();
    assert_eq!(links, vec![(0, LinkId::Hop(1)), (2, LinkId::Hop(2))]);
    assert!(matches!(
        feeder.recv(),
        Err(Error::Disconnected {
            link: LinkId::Hop(0)
        })
    ));
}
