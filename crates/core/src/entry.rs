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
//! The entry runs as a relay of the one node handler
//! ([`crate::node::run_entry_node`]): a hop with no round engine, which
//! applies every hop's sequencing and handshake rules, holds each client
//! batch to one geometry rule (the one function below), and relays each
//! frame without reading it. Every runtime steps that node — the
//! `vuvuzela entry` process, [`crate::pipeline`]'s threaded runner and
//! [`crate::chain::Chain::run`] — so an in-process client batch, tapped
//! or not, meets exactly the checks a wire one does.
//!
//! A round's requests have one size, so the entry lays them into one
//! arena: the round's client batch, the same geometry a deployment's
//! entry receives as one frame off the wire. Clients wrap their onions
//! in place into it (a [`crate::cohort::ClientCohort`], the deployment
//! client); onions wrapped one at a time are copied in by [`multiplex`],
//! once. The replies come back in request order, so a client finds its
//! own by position
//! ([`crate::cohort::ClientCohort::handle_conversation_replies`]).

use crate::roundbuf::RoundBuffer;
use crate::server::RoundKind;
use vuvuzela_crypto::onion;

/// An empty arena for one round's client batch: slots of exactly the
/// round's onion width over `chain_len` servers, the one geometry the
/// chain admits.
#[must_use]
pub fn round_arena(kind: RoundKind, chain_len: usize) -> RoundBuffer {
    let width = onion::wrapped_len(kind.payload_len(), chain_len);
    RoundBuffer::new(width, width)
}

/// The one geometry rule for a round's client batch: slots of exactly
/// the round's onion width over `chain_len` servers, width and stride
/// alike (see [`round_arena`]). Only the entry's node applies it, in
/// every runtime: a frame that breaks it is a protocol error, in process
/// the cause of the run's [`crate::chain::Abort`].
///
/// # Errors
///
/// The refusal, naming `round` and the geometry it got.
pub(crate) fn check_client_batch(
    round: u64,
    kind: RoundKind,
    chain_len: usize,
    width: usize,
    stride: usize,
) -> Result<(), String> {
    let onion_width = onion::wrapped_len(kind.payload_len(), chain_len);
    if width == onion_width && stride == onion_width {
        return Ok(());
    }
    Err(format!(
        "round {round} client batch geometry {width}/{stride} but the round's onion width is \
         {onion_width}"
    ))
}

/// Multiplexes per-client request lists into the round's arena, one slot
/// per request in client order, after whatever `batch` already holds (a
/// cohort's requests, say). A request that is not the arena's width
/// cannot be an onion of this round: its slot stays zero-filled, which
/// hop 0 replaces with noise.
pub fn multiplex(batch: &mut RoundBuffer, client_requests: &[Vec<Vec<u8>>]) {
    for request in client_requests.iter().flatten() {
        batch.push_with(|slot| {
            if slot.len() == request.len() {
                slot.copy_from_slice(request);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Multiplexes one-byte requests into a one-byte-wide arena.
    fn multiplexed(requests: &[Vec<Vec<u8>>]) -> Vec<Vec<u8>> {
        let mut batch = RoundBuffer::new(1, 1);
        multiplex(&mut batch, requests);
        batch.to_vecs()
    }

    #[test]
    fn multiplex_preserves_order() {
        let requests = vec![
            vec![vec![1u8], vec![2]],
            vec![vec![3]],
            vec![],
            vec![vec![4], vec![5]],
        ];
        assert_eq!(
            multiplexed(&requests),
            vec![vec![1u8], vec![2], vec![3], vec![4], vec![5]]
        );
    }

    #[test]
    fn multiplex_appends_and_zero_fills_misfits() {
        let mut batch = RoundBuffer::new(2, 2);
        batch.push_with(|slot| slot.fill(7));
        multiplex(
            &mut batch,
            &[vec![vec![1, 2], vec![3]], vec![vec![4, 5, 6]]],
        );
        assert_eq!(
            batch.to_vecs(),
            vec![vec![7, 7], vec![1, 2], vec![0, 0], vec![0, 0]]
        );
    }

    #[test]
    fn empty_round() {
        assert!(multiplexed(&[]).is_empty());
        assert!(multiplexed(&[vec![], vec![]]).is_empty());
    }
}
