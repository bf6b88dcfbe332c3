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
//! A round's requests have one size, so they travel as one arena: the
//! round's client batch, the same geometry a deployment's entry
//! receives as one frame off the wire. Clients wrap their onions in
//! place into it (a [`crate::cohort::ClientCohort`], the deployment
//! client). The replies come back in request order, so a client finds
//! its own by position
//! ([`crate::cohort::ClientCohort::handle_conversation_replies`]).

use crate::server::RoundKind;
use vuvuzela_crypto::onion;

/// The one geometry rule for a round's client batch: slots of exactly
/// the round's onion width over `chain_len` servers, width and stride
/// alike. Only the entry's node applies it, in
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
