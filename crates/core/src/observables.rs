//! The variables an adversary can observe (paper §4.2, §6.1).
//!
//! Vuvuzela's central design move is that after encryption, padding,
//! mixing and fixed rates, *only these counts remain visible* to an
//! adversary who has compromised the last server:
//!
//! * conversations: `m1` (dead drops accessed once) and `m2` (dead drops
//!   accessed twice) — plus the set of connected clients;
//! * dialing: the number of invitations in each invitation dead drop.
//!
//! The structs here are produced by the last server every round and are
//! the *only* channel through which the adversary crate reads protocol
//! state — keeping the simulated attacks honest.

/// What a compromised last server learns from one conversation round
/// (after noise): the dead-drop access histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConversationObservables {
    /// Dead drops accessed exactly once this round (`m1`).
    pub m1: u64,
    /// Dead drops accessed exactly twice (`m2`) — i.e. successful
    /// exchanges, real or noise.
    pub m2: u64,
    /// Dead drops accessed three or more times. Honest clients never
    /// collide (128-bit random IDs), so anything here was manufactured by
    /// an adversary injecting requests (§4.2 footnote 6).
    pub m_many: u64,
    /// Total requests that reached the last server (users + noise).
    pub total_requests: u64,
}

/// What an adversary learns from one dialing round: invitation counts per
/// dead drop (observable from response sizes or by downloading the drops,
/// §5.3).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DialingObservables {
    /// `counts[i]` is the number of invitations in real drop `i + 1`
    /// (drop indices are 1-based on the wire; index 0 is the no-op drop,
    /// reported separately).
    pub counts: Vec<u64>,
    /// Writes to the no-op drop (idle clients plus anything an adversary
    /// injected there).
    pub noop_writes: u64,
}

#[cfg(test)]
mod tests {
    use crate::deaddrops::{ConversationDrops, InvitationDrops};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vuvuzela_wire::conversation::ExchangeRequest;
    use vuvuzela_wire::deaddrop::{DeadDropId, InvitationDropIndex};
    use vuvuzela_wire::dialing::{DialRequest, SealedInvitation};
    use vuvuzela_wire::SEALED_MESSAGE_LEN;

    #[test]
    fn conversation_totals() {
        // Four pairs, six singles and one drop hit three times: every
        // request lands in one bucket of the histogram.
        let drops = [1u8, 1, 2, 2, 3, 3, 4, 4, 5, 6, 7, 8, 9, 10, 11, 11, 11];
        let requests: Vec<ExchangeRequest> = drops
            .iter()
            .map(|&drop| ExchangeRequest {
                drop: DeadDropId([drop; 16]),
                sealed_message: vec![drop; SEALED_MESSAGE_LEN],
            })
            .collect();
        let (_, obs) = ConversationDrops::exchange(&mut StdRng::seed_from_u64(1), &requests);
        assert_eq!((obs.m1, obs.m2, obs.m_many), (6, 4, 1));
        assert_eq!(obs.m1 + obs.m2 + obs.m_many, 11, "drops touched");
        assert_eq!(obs.total_requests, 17);
    }

    #[test]
    fn dialing_totals() {
        // Three real drops: invitations land in drops 1 and 3, the
        // no-op drop's writes are counted apart.
        let mut rng = StdRng::seed_from_u64(2);
        let mut drops = InvitationDrops::new(3);
        for drop in [1, 3, 3, 0, 1, 0, 1] {
            drops.deposit(DialRequest {
                drop: InvitationDropIndex(drop),
                invitation: SealedInvitation::noise(&mut rng),
            });
        }
        let obs = drops.observables();
        assert_eq!((obs.counts.clone(), obs.noop_writes), (vec![3, 0, 2], 2));
        assert_eq!(obs.counts.iter().sum::<u64>(), 5, "invitations");
    }
}
