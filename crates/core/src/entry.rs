//! The untrusted entry server (paper §7).
//!
//! "We implement an additional entry server, whose job is to handle a
//! large number of connections from clients, multiplex client requests
//! into a single round that's sent to the chain of Vuvuzela servers, and
//! to demultiplex the results to individual clients. The entry server is
//! not trusted."
//!
//! Because every request is already onion-encrypted for the real chain,
//! the entry server handles only opaque bytes; it contributes no noise
//! and no shuffling, and a malicious entry server is just another network
//! adversary (it can drop/delay/inject, all of which the taps model).
//!
//! A round's requests have one size, so the entry lays them into one
//! arena ([`multiplex`]): the round's client batch, the same geometry a
//! deployment's entry receives as one frame off the wire
//! ([`crate::node::run_entry_node`]). Clients that wrap their own onions
//! in place (a [`crate::cohort::ClientCohort`], the deployment client)
//! write straight into it; per-object clients' onions are copied in here,
//! once.

use crate::roundbuf::RoundBuffer;
use crate::server::RoundKind;
use vuvuzela_crypto::onion;

/// Bookkeeping for demultiplexing one round's replies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundLayout {
    /// Number of requests each client submitted, in client order.
    per_client: Vec<usize>,
}

impl RoundLayout {
    /// Total requests across all clients.
    #[must_use]
    pub fn total(&self) -> usize {
        self.per_client.iter().sum()
    }
}

/// An empty arena for one round's client batch: slots of exactly the
/// round's onion width over `chain_len` servers, the one geometry the
/// chain admits.
#[must_use]
pub fn round_arena(kind: RoundKind, chain_len: usize) -> RoundBuffer {
    let width = onion::wrapped_len(kind.payload_len(), chain_len);
    RoundBuffer::new(width, width)
}

/// Multiplexes per-client request lists into the round's arena, one slot
/// per request in client order, after whatever `batch` already holds (a
/// cohort's requests, say), and records the layout for demultiplexing.
/// A request that is not the arena's width cannot be an onion of this
/// round: its slot stays zero-filled, which hop 0 replaces with noise.
pub fn multiplex(batch: &mut RoundBuffer, client_requests: &[Vec<Vec<u8>>]) -> RoundLayout {
    for request in client_requests.iter().flatten() {
        batch.push_with(|slot| {
            if slot.len() == request.len() {
                slot.copy_from_slice(request);
            }
        });
    }
    let per_client = client_requests.iter().map(Vec::len).collect();
    RoundLayout { per_client }
}

/// Splits the chain's replies back out per client.
///
/// If an adversary shrank the batch in flight, trailing clients receive
/// `None` for their missing slots (they observe a dropped round, exactly
/// as under a network-level DoS). Extra injected replies are discarded.
#[must_use]
pub fn demultiplex(layout: &RoundLayout, replies: Vec<Vec<u8>>) -> Vec<Vec<Option<Vec<u8>>>> {
    let mut iter = replies.into_iter();
    layout
        .per_client
        .iter()
        .map(|&count| {
            (0..count)
                .map(|_| iter.next())
                .collect::<Vec<Option<Vec<u8>>>>()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Multiplexes one-byte requests into a one-byte-wide arena.
    fn multiplexed(requests: &[Vec<Vec<u8>>]) -> (Vec<Vec<u8>>, RoundLayout) {
        let mut batch = RoundBuffer::new(1, 1);
        let layout = multiplex(&mut batch, requests);
        (batch.to_vecs(), layout)
    }

    #[test]
    fn multiplex_preserves_order() {
        let requests = vec![
            vec![vec![1u8], vec![2]],
            vec![vec![3]],
            vec![],
            vec![vec![4], vec![5]],
        ];
        let (batch, layout) = multiplexed(&requests);
        assert_eq!(batch, vec![vec![1u8], vec![2], vec![3], vec![4], vec![5]]);
        assert_eq!(layout.total(), 5);
    }

    #[test]
    fn multiplex_appends_and_zero_fills_misfits() {
        let mut batch = RoundBuffer::new(2, 2);
        batch.push_with(|slot| slot.fill(7));
        let layout = multiplex(
            &mut batch,
            &[vec![vec![1, 2], vec![3]], vec![vec![4, 5, 6]]],
        );
        assert_eq!(layout.total(), 3);
        assert_eq!(
            batch.to_vecs(),
            vec![vec![7, 7], vec![1, 2], vec![0, 0], vec![0, 0]]
        );
    }

    #[test]
    fn demultiplex_roundtrip() {
        let requests = vec![vec![vec![1u8], vec![2]], vec![vec![3]], vec![vec![4]]];
        let (batch, layout) = multiplexed(&requests);
        let out = demultiplex(&layout, batch);
        assert_eq!(
            out,
            vec![
                vec![Some(vec![1u8]), Some(vec![2])],
                vec![Some(vec![3])],
                vec![Some(vec![4])],
            ]
        );
    }

    #[test]
    fn short_reply_batch_yields_nones_at_tail() {
        let (batch, layout) = multiplexed(&[vec![vec![1u8]], vec![vec![2]], vec![vec![3]]]);
        let mut replies = batch;
        replies.truncate(1); // adversary dropped two replies
        let out = demultiplex(&layout, replies);
        assert_eq!(out[0], vec![Some(vec![1u8])]);
        assert_eq!(out[1], vec![None]);
        assert_eq!(out[2], vec![None]);
    }

    #[test]
    fn injected_extras_are_discarded() {
        let (batch, layout) = multiplexed(&[vec![vec![1u8]]]);
        let mut replies = batch;
        replies.push(vec![9]); // injected
        let out = demultiplex(&layout, replies);
        assert_eq!(out, vec![vec![Some(vec![1u8])]]);
    }

    #[test]
    fn empty_round() {
        let (batch, layout) = multiplexed(&[]);
        assert!(batch.is_empty());
        assert!(demultiplex(&layout, batch).is_empty());
    }
}
