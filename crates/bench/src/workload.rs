//! The clients of the latency sweeps and the kernel-floor gate: a
//! [`ClientCohort`], the one client the deployment and the simulator
//! run, set up as §8.1's simulated users.
//!
//! §8.1: "Every simulated user sends a message each conversation round to
//! another user (although Vuvuzela's performance is the same regardless
//! of whether users are actively communicating or are idle)." So
//! consecutive members are paired and each queues one message for its
//! partner; an odd member left over has no partner and runs a fake
//! exchange. In a dialing round (§8.1 has 5% of users dial) each dialer
//! calls the member after it, and everyone else writes to the no-op
//! drop.

use vuvuzela_core::{ClientCohort, SystemConfig};
use vuvuzela_crypto::x25519::PublicKey;

/// `members` members of one cohort for the chain `server_pks`, paired
/// two by two, each with one message queued for its partner.
///
/// # Panics
///
/// If `config` is invalid or `server_pks` empty, as
/// [`ClientCohort::new`] does.
#[must_use]
pub fn talking_cohort(
    config: &SystemConfig,
    seed: u64,
    server_pks: &[PublicKey],
    members: usize,
) -> ClientCohort {
    let mut cohort = ClientCohort::with_own_tables(config.clone(), seed, server_pks);
    cohort.join(members);
    for a in (0..members - members % 2).step_by(2) {
        cohort.pair(a, a + 1).expect("fresh members");
        for (from, to) in [(a, a + 1), (a + 1, a)] {
            let peer = cohort.public_key(to);
            cohort
                .queue_message(from, &peer, &message(from))
                .expect("a paired member");
        }
    }
    cohort
}

/// `members` members of one cohort for the chain `server_pks`, the
/// first `dialers` of which have each dialled the member after them.
///
/// # Panics
///
/// If `dialers > members`, or as [`ClientCohort::new`] does.
#[must_use]
pub fn dialing_cohort(
    config: &SystemConfig,
    seed: u64,
    server_pks: &[PublicKey],
    members: usize,
    dialers: usize,
) -> ClientCohort {
    assert!(dialers <= members, "dialers are members");
    let mut cohort = ClientCohort::with_own_tables(config.clone(), seed, server_pks);
    cohort.join(members);
    for caller in 0..dialers {
        let callee = cohort.public_key((caller + 1) % members);
        cohort.dial(caller, callee).expect("one call, one slot");
    }
    cohort
}

/// Hands conversation round `round`'s replies back to a
/// [`talking_cohort`] and asserts that every paired member received
/// its partner's message: a round that delivers nothing would time
/// nothing the paper measures.
///
/// # Panics
///
/// If a paired member's partner's message did not arrive.
pub fn assert_delivered(cohort: &mut ClientCohort, round: u64, replies: &[Vec<u8>]) {
    cohort.handle_conversation_replies(round, replies);
    let talkers = cohort.len() - cohort.len() % 2;
    for member in 0..talkers {
        let partner = member ^ 1;
        assert_eq!(
            cohort.delivered_from(member, &cohort.public_key(partner)),
            [message(partner)],
            "member {member} did not receive member {partner}'s message"
        );
    }
}

/// What member `index` of a [`talking_cohort`] says to its partner.
fn message(index: usize) -> Vec<u8> {
    format!("m{index}").into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vuvuzela_core::server::RoundKind;
    use vuvuzela_core::{Chain, RoundSpec};
    use vuvuzela_dp::{NoiseDistribution, NoiseMode};
    use vuvuzela_wire::deaddrop::InvitationDropIndex;

    /// A noiseless three-server chain, so a round's observables and
    /// drops hold the clients' traffic alone.
    fn chain() -> (SystemConfig, Chain) {
        let config = SystemConfig {
            chain_len: 3,
            conversation_noise: NoiseDistribution::new(1.0, 1.0),
            dialing_noise: NoiseDistribution::new(1.0, 1.0),
            noise_mode: NoiseMode::Off,
            workers: 2,
            conversation_slots: 1,
            retransmit_after: 2,
            exchange_shards: 4,
        };
        (config.clone(), Chain::new(config, 3))
    }

    /// Runs one conversation round of `members` talking members and
    /// returns the tail's (m1, m2) after checking every delivery.
    fn converse(members: usize) -> (u64, u64) {
        let (config, mut chain) = chain();
        let mut cohort = talking_cohort(&config, 1, &chain.server_public_keys(), members);
        let batch = cohort.build_conversation_round(0).into();
        let outcome = chain
            .run(vec![RoundSpec::Conversation { round: 0, batch }])
            .expect("an untapped chain completes every round")
            .remove(0);
        assert_delivered(&mut cohort, 0, outcome.replies().expect("conversation"));
        let (_, obs) = chain.conversation_observables()[0];
        (obs.m1, obs.m2)
    }

    #[test]
    fn conversation_batch_pairs_users() {
        // Six members: three pairs, each on a drop of its own.
        assert_eq!(converse(6), (0, 3));
    }

    #[test]
    fn odd_user_is_lone() {
        // The third member's fake exchange is a drop accessed once.
        assert_eq!(converse(3), (1, 1));
    }

    #[test]
    fn wrapped_batch_has_uniform_size() {
        // The cohort's arena is what the chain's first hop admits: one
        // width, no headroom. The kernel-floor gate hands it to the
        // first hop directly, past the entry that would check it.
        let (config, chain) = chain();
        let mut cohort = talking_cohort(&config, 2, &chain.server_public_keys(), 5);
        let batch = cohort.build_conversation_round(0);
        let width = chain.server(0).incoming_width(RoundKind::Conversation);
        assert_eq!(
            (batch.len(), batch.width(), batch.stride()),
            (5, width, width)
        );
    }

    #[test]
    fn dialing_batch_mixes_real_and_noop() {
        let (config, mut chain) = chain();
        let mut cohort = dialing_cohort(&config, 4, &chain.server_public_keys(), 10, 2);
        let batch = cohort.build_dialing_round(0, 4).into();
        let spec = RoundSpec::Dialing {
            round: 0,
            batch,
            num_drops: 4,
        };
        chain.run(vec![spec]).expect("an untapped chain completes");
        let real: usize = (1..=4)
            .filter_map(|drop| chain.download_drop(InvitationDropIndex(drop)))
            .map(|contents| contents.len())
            .sum();
        let (_, obs) = chain.dialing_observables()[0].clone();
        assert_eq!((real, obs.noop_writes), (2, 8));
    }
}
