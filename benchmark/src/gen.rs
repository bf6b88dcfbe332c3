//! The stateless batch generator of the windowed workloads.
//!
//! Every batch is a pure function of `(seed, round)`: the same arguments
//! give the same onions on every runtime, so `mixed_stream`, `wire_window`
//! and the sequential replay that checks them all process identical
//! bytes. The generator keeps what a client would keep — reply keys, the
//! messages it sent, the callees it invited — so every reply can be
//! checked end to end.

use crate::sut::{
    Batch, DeadDropId, DialRequest, ExchangeRequest, InvitationDropIndex, Keypair, LayerKey,
    PrecomputedServer, PublicKey, RoundBuffer, RoundKind, RoundSpec, SealedInvitation, CHAIN_LEN,
    DIAL_REQUEST_LEN, EXCHANGE_REQUEST_LEN, SEALED_MESSAGE_LEN,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Shape of the generated schedule: cycles of two conversation rounds and
/// one dialing round.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Onions per conversation round (even: clients come in pairs).
    pub conv_onions: usize,
    /// Users per dialing round.
    pub dial_users: usize,
    /// How many of them really dial; the rest write to the no-op drop.
    pub dial_real: usize,
    /// Real invitation drops per dialing round.
    pub num_drops: u32,
}

/// Rounds per cycle: conversation, conversation, dialing.
pub const CYCLE: u64 = 3;

/// Whether `round` is the dialing round of its cycle.
#[must_use]
pub fn is_dialing(round: u64) -> bool {
    round % CYCLE == CYCLE - 1
}

/// One real invitation and the callee who must find it.
pub struct Invite {
    /// The callee, who scans the drop with this key.
    pub callee: Keypair,
    /// Who called: what the opened invitation must say.
    pub caller: PublicKey,
    /// The drop the invitation was addressed to.
    pub drop: InvitationDropIndex,
}

/// What the generator remembers of a round to check its outcome.
pub enum Kept {
    /// A conversation round: onion `i` talks to onion `i ^ 1`.
    Conversation {
        /// Reply keys, `CHAIN_LEN` per onion, onion-major.
        keys: Vec<LayerKey>,
        /// The sealed message each onion deposited.
        messages: Vec<Vec<u8>>,
    },
    /// A dialing round.
    Dialing {
        /// Real invitation drops.
        num_drops: u32,
        /// The real invitations sent.
        invites: Vec<Invite>,
    },
}

/// One generated round: the batch to feed and what was kept of it.
pub struct RoundInput {
    /// Round number.
    pub round: u64,
    /// The request onions, flat.
    pub onions: RoundBuffer,
    /// Client-side state for checking the outcome.
    pub kept: Kept,
}

impl RoundInput {
    /// The server-side round kind.
    #[must_use]
    pub fn kind(&self) -> RoundKind {
        match self.kept {
            Kept::Conversation { .. } => RoundKind::Conversation,
            Kept::Dialing { num_drops, .. } => RoundKind::Dialing { num_drops },
        }
    }

    /// Client requests in the round.
    #[must_use]
    pub fn requests(&self) -> usize {
        self.onions.len()
    }

    /// The round as the in-process runtimes take it (copies the onions).
    #[must_use]
    pub fn spec(&self) -> RoundSpec {
        let batch = Batch::Flat(self.onions.clone());
        match self.kept {
            Kept::Conversation { .. } => RoundSpec::Conversation {
                round: self.round,
                batch,
            },
            Kept::Dialing { num_drops, .. } => RoundSpec::Dialing {
                round: self.round,
                batch,
                num_drops,
            },
        }
    }
}

fn round_rng(seed: u64, round: u64) -> StdRng {
    // splitmix64 over the pair, with a domain constant of the generator's
    // own so its stream is disjoint from the chain's and the servers'.
    let mut z = seed ^ 0xBE7C_4A11_0000_0000 ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

/// An arena of `count` zeroed slots at the full onion width for `payload`.
fn arena(payload_len: usize, count: usize) -> RoundBuffer {
    let width = crate::sut::onion::wrapped_len(payload_len, CHAIN_LEN);
    let mut buf = RoundBuffer::with_capacity(width, width, count);
    for _ in 0..count {
        buf.push_with(|_| {});
    }
    buf
}

/// Generates round `round` of the schedule for `seed`.
#[must_use]
pub fn round_input(
    seed: u64,
    round: u64,
    tables: &[PrecomputedServer],
    shape: &Shape,
) -> RoundInput {
    let mut rng = round_rng(seed, round);
    let payload_at = 32 * CHAIN_LEN;
    if is_dialing(round) {
        let mut onions = arena(DIAL_REQUEST_LEN, shape.dial_users);
        let mut invites = Vec::with_capacity(shape.dial_real);
        for user in 0..shape.dial_users {
            let request = if user < shape.dial_real {
                let caller = Keypair::generate(&mut rng);
                let callee = Keypair::generate(&mut rng);
                let drop = InvitationDropIndex::for_recipient(&callee.public, shape.num_drops);
                let invitation = SealedInvitation::seal(&mut rng, &caller.public, &callee.public);
                invites.push(Invite {
                    callee,
                    caller: caller.public,
                    drop,
                });
                DialRequest { drop, invitation }
            } else {
                DialRequest::noop(&mut rng)
            };
            let slot = onions.slot_mut(user);
            request.encode_into(&mut slot[payload_at..]);
            crate::sut::wrap_noise_into(&mut rng, tables, round, slot, DIAL_REQUEST_LEN);
        }
        RoundInput {
            round,
            onions,
            kept: Kept::Dialing {
                num_drops: shape.num_drops,
                invites,
            },
        }
    } else {
        let count = shape.conv_onions;
        let mut onions = arena(EXCHANGE_REQUEST_LEN, count);
        let mut keys = Vec::with_capacity(count * CHAIN_LEN);
        let mut messages = Vec::with_capacity(count);
        // Neighbours share a dead drop, so each receives the other's
        // message.
        let drops: Vec<DeadDropId> = (0..count.div_ceil(2))
            .map(|_| DeadDropId::random(&mut rng))
            .collect();
        for client in 0..count {
            let drop = drops[client / 2];
            let mut sealed_message = vec![0u8; SEALED_MESSAGE_LEN];
            rng.fill_bytes(&mut sealed_message);
            let slot = onions.slot_mut(client);
            ExchangeRequest {
                drop,
                sealed_message: sealed_message.clone(),
            }
            .encode_into(&mut slot[payload_at..]);
            keys.extend(crate::sut::wrap_into_with(
                &mut rng,
                tables,
                round,
                slot,
                EXCHANGE_REQUEST_LEN,
            ));
            messages.push(sealed_message);
        }
        RoundInput {
            round,
            onions,
            kept: Kept::Conversation { keys, messages },
        }
    }
}

/// Rounds `first..first + len` of the schedule.
#[must_use]
pub fn block(
    seed: u64,
    first: u64,
    len: u64,
    tables: &[PrecomputedServer],
    shape: &Shape,
) -> Vec<RoundInput> {
    (first..first + len)
        .map(|round| round_input(seed, round, tables, shape))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        conv_onions: 4,
        dial_users: 5,
        dial_real: 2,
        num_drops: 2,
    };

    fn tables() -> std::sync::Arc<Vec<PrecomputedServer>> {
        let pks: Vec<PublicKey> = crate::sut::server_keypairs(CHAIN_LEN, 1)
            .iter()
            .map(|kp| kp.public)
            .collect();
        crate::sut::client_tables(&pks)
    }

    #[test]
    fn batches_are_a_pure_function_of_seed_and_round() {
        let tables = tables();
        for round in 0..CYCLE {
            let a = round_input(9, round, &tables, &SHAPE);
            let b = round_input(9, round, &tables, &SHAPE);
            assert_eq!(a.onions.to_vecs(), b.onions.to_vecs(), "round {round}");
            let other_seed = round_input(10, round, &tables, &SHAPE);
            assert_ne!(a.onions.to_vecs(), other_seed.onions.to_vecs());
        }
        // Generating rounds out of order changes nothing.
        let late = round_input(9, 1, &tables, &SHAPE);
        let _ = round_input(9, 0, &tables, &SHAPE);
        assert_eq!(
            late.onions.to_vecs(),
            round_input(9, 1, &tables, &SHAPE).onions.to_vecs()
        );
    }

    #[test]
    fn schedule_cycles_conversation_conversation_dialing() {
        let tables = tables();
        let kinds: Vec<bool> = block(3, 0, 6, &tables, &SHAPE)
            .iter()
            .map(|input| matches!(input.kept, Kept::Dialing { .. }))
            .collect();
        assert_eq!(kinds, [false, false, true, false, false, true]);
        let dialing = round_input(3, 2, &tables, &SHAPE);
        assert_eq!(dialing.requests(), SHAPE.dial_users);
        let Kept::Dialing { invites, .. } = dialing.kept else {
            panic!("round 2 dials")
        };
        assert_eq!(invites.len(), SHAPE.dial_real);
    }
}
