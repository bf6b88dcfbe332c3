//! The last server's dead-drop stores.
//!
//! [`ConversationDrops`] implements Algorithm 2 step 3b: match up the
//! round's exchange requests per dead drop; pairs swap their sealed
//! messages, singletons get indistinguishable random filler. Drops are
//! ephemeral — the table lives for exactly one round (§3.1). The tail
//! runs it in place ([`ConversationDrops::exchange_arena`]: the peeled
//! request arena becomes the reply arena, so the round's widest buffer
//! is held once); the per-request
//! [`ConversationDrops::exchange`] is the oracle it is pinned to.
//!
//! [`InvitationDrops`] implements the dialing side (§5): `m` large drops
//! accumulating sealed invitations (real + noise), downloadable in bulk.

use crate::observables::{ConversationObservables, DialingObservables};
use crate::roundbuf::RoundBuffer;
use rand::{CryptoRng, RngCore};
use std::collections::HashMap;
use vuvuzela_net::parallel::WorkerPool;
use vuvuzela_wire::conversation::{ExchangeRequest, ExchangeResponse};
use vuvuzela_wire::deaddrop::{DeadDropId, InvitationDropIndex};
use vuvuzela_wire::dialing::{DialRequest, SealedInvitation};
use vuvuzela_wire::{DEAD_DROP_ID_LEN, EXCHANGE_REQUEST_LEN, EXCHANGE_RESPONSE_LEN};

/// The shard (out of `shards`) owning `drop`: a range partition over the
/// ID's leading 64 bits, `shard = ⌊key · shards / 2⁶⁴⌋`. Shard boundaries
/// sit at fixed fractions of the ID space, every ID lands in exactly one
/// shard, ID `0…0` in shard 0 and `FF…F` in shard `shards − 1`. Dead-drop
/// IDs are outputs of a keyed hash ([`DeadDropId::for_round`]), so honest
/// load is uniform across shards.
///
/// # Panics
///
/// Panics when `shards == 0`.
#[must_use]
pub fn shard_of_drop(drop: &DeadDropId, shards: usize) -> usize {
    assert!(shards >= 1, "need at least one shard");
    let key = u64::from_be_bytes(drop.0[..8].try_into().expect("16-byte id"));
    ((u128::from(key) * shards as u128) >> 64) as usize
}

/// One round's conversation dead drops.
#[derive(Default)]
pub struct ConversationDrops;

impl ConversationDrops {
    /// Performs all exchanges for a round (Algorithm 2 step 3b), one
    /// request at a time: the oracle [`ConversationDrops::exchange_arena`]
    /// is held to.
    ///
    /// Returns one response per request, **in request order**, plus the
    /// observables the adversary would read off the table.
    ///
    /// For a drop with exactly two accesses the responses carry each
    /// other's deposited message. Any other access count yields random
    /// filler for every accessor beyond the pairing rule: one access →
    /// filler; three or more (only possible under adversarial injection)
    /// → the first two exchange, the rest get filler, and the drop is
    /// counted in `m_many`.
    pub fn exchange<R: RngCore + CryptoRng>(
        rng: &mut R,
        requests: &[ExchangeRequest],
    ) -> (Vec<ExchangeResponse>, ConversationObservables) {
        let mut by_drop: HashMap<DeadDropId, Vec<usize>> = HashMap::with_capacity(requests.len());
        for (index, request) in requests.iter().enumerate() {
            by_drop.entry(request.drop).or_default().push(index);
        }

        let mut observables = ConversationObservables {
            total_requests: requests.len() as u64,
            ..Default::default()
        };

        // Start with filler everywhere; overwrite the paired slots.
        let mut responses: Vec<ExchangeResponse> = (0..requests.len())
            .map(|_| ExchangeResponse::empty(rng))
            .collect();

        for accessors in by_drop.values() {
            match accessors.len() {
                1 => observables.m1 += 1,
                2 => {
                    observables.m2 += 1;
                    let (a, b) = (accessors[0], accessors[1]);
                    responses[a] = ExchangeResponse {
                        sealed_message: requests[b].sealed_message.clone(),
                    };
                    responses[b] = ExchangeResponse {
                        sealed_message: requests[a].sealed_message.clone(),
                    };
                }
                _ => {
                    observables.m_many += 1;
                    let (a, b) = (accessors[0], accessors[1]);
                    responses[a] = ExchangeResponse {
                        sealed_message: requests[b].sealed_message.clone(),
                    };
                    responses[b] = ExchangeResponse {
                        sealed_message: requests[a].sealed_message.clone(),
                    };
                }
            }
        }

        (responses, observables)
    }

    /// [`ConversationDrops::exchange`] in place, the tail's one exchange:
    /// the peeled request arena goes in and comes back as the reply
    /// arena — one reply per request, in request order, in slots of
    /// `reply_stride` bytes (the chain's reply reservation,
    /// [`crate::server::MixServer::reply_stride`]) — with the drops paired
    /// over `shards` shards on worker strands. No second arena is
    /// allocated: the tail's arena arrives with one onion layer on each
    /// request (`EXCHANGE_REQUEST_LEN + LAYER_OVERHEAD` = 320 bytes a
    /// slot), its peel's compaction keeps that capacity, and that holds
    /// `reply_stride` (256 + 16 per server) for chains of up to four
    /// servers; a longer chain's arena grows once, in place or by one
    /// reallocation.
    ///
    /// Replies, reservation bytes, observables and RNG consumption equal
    /// the oracle's for every `(shards, workers)`, because:
    ///
    /// 1. a batch not of request width decodes nowhere, so it is replaced
    ///    first by noise requests drawn in slot order — the substitutes
    ///    the oracle's caller draws; a batch of request width is
    ///    compacted, so its slots sit `EXCHANGE_REQUEST_LEN` apart;
    /// 2. each drop lives in one shard ([`shard_of_drop`]), so the shards'
    ///    pairings touch disjoint slots and their histograms add up, and
    ///    a drop's pairing depends only on its own accessor list (in
    ///    request order), never on map iteration order. Pairing draws no
    ///    randomness, so each matched pair swaps its sealed messages
    ///    inside the request slots before any filler is drawn;
    /// 3. the slots are widened to `reply_stride` from the last one down
    ///    (slot `i`'s message moves to `i × reply_stride`, past every
    ///    slot not yet moved), and each slot's reservation past the reply
    ///    is zeroed, as the oracle's fresh slots are. This is a privacy
    ///    condition, not only an equality: the reservation crosses every
    ///    backward link, and stale request bytes there would show peeled
    ///    drop ids to a link observer;
    /// 4. the filler is drawn for every slot in request order, as
    ///    `ExchangeResponse::empty` draws it, and kept only in the slots
    ///    no pair matched.
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0` or `reply_stride` is narrower than a
    /// request (no chain's is: it is the reply plus one reply layer per
    /// server).
    pub fn exchange_arena<R: RngCore + CryptoRng>(
        rng: &mut R,
        mut requests: RoundBuffer,
        reply_stride: usize,
        shards: usize,
        workers: usize,
    ) -> (RoundBuffer, ConversationObservables) {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            reply_stride >= EXCHANGE_REQUEST_LEN,
            "a reply slot must hold a request slot"
        );
        let len = requests.len();
        if requests.width() == EXCHANGE_REQUEST_LEN {
            requests.compact();
        } else {
            drop(requests);
            requests = RoundBuffer::with_capacity(EXCHANGE_REQUEST_LEN, EXCHANGE_REQUEST_LEN, len);
            for _ in 0..len {
                requests.push_with(|slot| ExchangeRequest::noise_into(rng, None, slot));
            }
        }

        // Partition request indices by the shard owning their drop;
        // within a shard, indices stay in request order.
        let drop_of = |index: usize| {
            DeadDropId(
                requests.slot(index)[..DEAD_DROP_ID_LEN]
                    .try_into()
                    .expect("a request opens with its drop id"),
            )
        };
        let mut shard_indices: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for index in 0..len {
            shard_indices[shard_of_drop(&drop_of(index), shards)].push(index);
        }

        // Pair up each shard's drops across cores: the heavy part (hash
        // map build + accessor grouping) runs in parallel; the outputs —
        // a histogram and a swap list over disjoint slots — merge
        // deterministically below.
        let per_shard = WorkerPool::shared().map_vec(shard_indices, workers, |indices| {
            let mut by_drop: HashMap<DeadDropId, Vec<usize>> =
                HashMap::with_capacity(indices.len());
            for &index in &indices {
                by_drop.entry(drop_of(index)).or_default().push(index);
            }
            let mut histogram = ConversationObservables::default();
            let mut swaps: Vec<(usize, usize)> = Vec::new();
            for accessors in by_drop.values() {
                match accessors.len() {
                    1 => {
                        histogram.m1 += 1;
                        continue;
                    }
                    2 => histogram.m2 += 1,
                    _ => histogram.m_many += 1,
                }
                swaps.push((accessors[0], accessors[1]));
            }
            (histogram, swaps)
        });

        let mut observables = ConversationObservables {
            total_requests: len as u64,
            ..Default::default()
        };
        let (mut arena, ..) = requests.into_raw();
        let sealed = |index: usize| {
            index * EXCHANGE_REQUEST_LEN + DEAD_DROP_ID_LEN..(index + 1) * EXCHANGE_REQUEST_LEN
        };
        let mut matched = vec![false; len];
        for (histogram, swaps) in per_shard {
            observables.m1 += histogram.m1;
            observables.m2 += histogram.m2;
            observables.m_many += histogram.m_many;
            for (a, b) in swaps {
                // Accessor lists are in request order: `a < b`.
                let (head, tail) = arena.split_at_mut(b * EXCHANGE_REQUEST_LEN);
                head[sealed(a)].swap_with_slice(&mut tail[sealed(0)]);
                matched[a] = true;
                matched[b] = true;
            }
        }

        // Widen in place, last slot first: slot `i`'s message lands at
        // `i × reply_stride`, past every slot not yet moved, and the
        // reservation after it is zeroed, since it crosses the links.
        arena.resize(len * reply_stride, 0);
        for index in (0..len).rev() {
            let reply = index * reply_stride;
            arena.copy_within(sealed(index), reply);
            arena[reply + EXCHANGE_RESPONSE_LEN..reply + reply_stride].fill(0);
        }
        // Filler for every slot in request order; matched slots drop it.
        let mut discarded = [0u8; EXCHANGE_RESPONSE_LEN];
        for (index, &matched) in matched.iter().enumerate() {
            let reply = index * reply_stride;
            rng.fill_bytes(if matched {
                &mut discarded
            } else {
                &mut arena[reply..reply + EXCHANGE_RESPONSE_LEN]
            });
        }
        let replies = RoundBuffer::from_raw(arena, reply_stride, EXCHANGE_RESPONSE_LEN, len);
        (replies, observables)
    }
}

/// One dialing round's invitation dead drops.
pub struct InvitationDrops {
    /// `drops[i]` holds real drop `i + 1`'s invitations.
    drops: Vec<Vec<SealedInvitation>>,
    noop_writes: u64,
}

impl InvitationDrops {
    /// Creates `num_drops` empty invitation drops.
    ///
    /// # Panics
    ///
    /// Panics when `num_drops == 0` — a dialing round always has at least
    /// one real drop.
    #[must_use]
    pub fn new(num_drops: u32) -> InvitationDrops {
        assert!(num_drops > 0, "a dialing round needs at least one drop");
        InvitationDrops {
            drops: vec![Vec::new(); num_drops as usize],
            noop_writes: 0,
        }
    }

    /// Number of real drops.
    #[must_use]
    pub fn num_drops(&self) -> u32 {
        self.drops.len() as u32
    }

    /// Deposits one dialing request. Writes to the no-op drop are counted
    /// and discarded (§5.2); out-of-range drop indices (malformed or
    /// adversarial) are treated as no-ops as well.
    pub fn deposit(&mut self, request: DialRequest) {
        let index = request.drop;
        if index.is_noop() || index.0 as usize > self.drops.len() {
            self.noop_writes += 1;
            return;
        }
        self.drops[(index.0 - 1) as usize].push(request.invitation);
    }

    /// Adds `count` noise invitations to every real drop — the last
    /// server's own cover traffic (§5.3: "every server (including the
    /// last one) must add a random number of noise invitations to every
    /// invitation dead drop"), keyed as sealed ones are
    /// ([`SealedInvitation::key_noise`], a batch per drop).
    pub fn add_noise<R: RngCore + CryptoRng>(&mut self, rng: &mut R, counts: &[u64]) {
        assert_eq!(counts.len(), self.drops.len(), "one count per drop");
        for (drop, &count) in self.drops.iter_mut().zip(counts.iter()) {
            let first = drop.len();
            for _ in 0..count {
                drop.push(SealedInvitation::noise(rng));
            }
            SealedInvitation::key_noise(drop[first..].iter_mut().map(|inv| &mut inv.0[..]));
        }
    }

    /// The published contents of one real drop (1-based index), i.e. what
    /// a client downloads from the CDN. Returns `None` for the no-op drop
    /// or out-of-range indices.
    #[must_use]
    pub fn download(&self, index: InvitationDropIndex) -> Option<&[SealedInvitation]> {
        if index.is_noop() || index.0 as usize > self.drops.len() {
            return None;
        }
        Some(&self.drops[(index.0 - 1) as usize])
    }

    /// The adversary's view: per-drop invitation counts.
    #[must_use]
    pub fn observables(&self) -> DialingObservables {
        DialingObservables {
            counts: self.drops.iter().map(|d| d.len() as u64).collect(),
            noop_writes: self.noop_writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vuvuzela_crypto::onion;
    use vuvuzela_wire::SEALED_MESSAGE_LEN;

    fn request(drop_byte: u8, fill: u8) -> ExchangeRequest {
        ExchangeRequest {
            drop: DeadDropId([drop_byte; 16]),
            sealed_message: vec![fill; SEALED_MESSAGE_LEN],
        }
    }

    #[test]
    fn paired_requests_swap_messages() {
        let mut rng = StdRng::seed_from_u64(1);
        let requests = vec![request(1, 0xAA), request(1, 0xBB)];
        let (responses, obs) = ConversationDrops::exchange(&mut rng, &requests);
        assert_eq!(responses[0].sealed_message, vec![0xBB; SEALED_MESSAGE_LEN]);
        assert_eq!(responses[1].sealed_message, vec![0xAA; SEALED_MESSAGE_LEN]);
        assert_eq!(obs.m1, 0);
        assert_eq!(obs.m2, 1);
        assert_eq!(obs.total_requests, 2);
    }

    #[test]
    fn single_access_gets_filler() {
        let mut rng = StdRng::seed_from_u64(2);
        let requests = vec![request(1, 0xAA)];
        let (responses, obs) = ConversationDrops::exchange(&mut rng, &requests);
        assert_ne!(responses[0].sealed_message, vec![0xAA; SEALED_MESSAGE_LEN]);
        assert_eq!(responses[0].sealed_message.len(), SEALED_MESSAGE_LEN);
        assert_eq!(obs.m1, 1);
        assert_eq!(obs.m2, 0);
    }

    #[test]
    fn mixed_round_histogram() {
        let mut rng = StdRng::seed_from_u64(3);
        // Two pairs, three singles.
        let requests = vec![
            request(1, 1),
            request(1, 2),
            request(2, 3),
            request(3, 4),
            request(3, 5),
            request(4, 6),
            request(5, 7),
        ];
        let (_, obs) = ConversationDrops::exchange(&mut rng, &requests);
        assert_eq!(obs.m1, 3);
        assert_eq!(obs.m2, 2);
        assert_eq!(obs.m_many, 0);
        assert_eq!(obs.drops_touched(), 5);
    }

    #[test]
    fn adversarial_triple_access() {
        let mut rng = StdRng::seed_from_u64(4);
        let requests = vec![request(9, 1), request(9, 2), request(9, 3)];
        let (responses, obs) = ConversationDrops::exchange(&mut rng, &requests);
        assert_eq!(obs.m_many, 1);
        // First two exchange; third gets filler.
        assert_eq!(responses[0].sealed_message, vec![2; SEALED_MESSAGE_LEN]);
        assert_eq!(responses[1].sealed_message, vec![1; SEALED_MESSAGE_LEN]);
        assert_ne!(responses[2].sealed_message, vec![1; SEALED_MESSAGE_LEN]);
        assert_ne!(responses[2].sealed_message, vec![2; SEALED_MESSAGE_LEN]);
    }

    #[test]
    fn empty_round() {
        let mut rng = StdRng::seed_from_u64(5);
        let (responses, obs) = ConversationDrops::exchange(&mut rng, &[]);
        assert!(responses.is_empty());
        assert_eq!(obs, ConversationObservables::default());
    }

    /// A request whose drop ID starts with the given 8 leading bytes.
    fn request_with_key(key: u64, fill: u8) -> ExchangeRequest {
        let mut id = [0u8; 16];
        id[..8].copy_from_slice(&key.to_be_bytes());
        id[8] = fill; // distinguish drops sharing a leading key
        ExchangeRequest {
            drop: DeadDropId(id),
            sealed_message: vec![fill; SEALED_MESSAGE_LEN],
        }
    }

    #[test]
    fn shard_of_drop_covers_boundaries() {
        for shards in [1usize, 2, 3, 7, 64] {
            // Extremes land in the first and last shard.
            assert_eq!(shard_of_drop(&DeadDropId([0; 16]), shards), 0);
            assert_eq!(shard_of_drop(&DeadDropId([0xFF; 16]), shards), shards - 1);
            // Keys sitting exactly on every shard edge (the smallest key
            // of shard s is ⌈s · 2⁶⁴ / shards⌉) map into shard s, and the
            // key just below maps into shard s − 1.
            for s in 1..shards {
                let edge = ((s as u128) << 64).div_ceil(shards as u128) as u64;
                assert_eq!(
                    shard_of_drop(&request_with_key(edge, 0).drop, shards),
                    s,
                    "edge of shard {s}/{shards}"
                );
                assert_eq!(
                    shard_of_drop(&request_with_key(edge - 1, 0).drop, shards),
                    s - 1,
                    "below the edge of shard {s}/{shards}"
                );
            }
        }
    }

    #[test]
    fn every_id_lands_in_exactly_one_shard() {
        let mut rng = StdRng::seed_from_u64(11);
        for shards in [1usize, 2, 3, 7] {
            for _ in 0..64 {
                let id = DeadDropId::random(&mut rng);
                let shard = shard_of_drop(&id, shards);
                assert!(shard < shards);
                // Membership is a pure function of the ID: re-asking gives
                // the same shard, and no other shard claims it.
                assert_eq!(shard_of_drop(&id, shards), shard);
            }
        }
    }

    /// The requests as the tail's peeled arena.
    fn arena(requests: &[ExchangeRequest]) -> RoundBuffer {
        let mut buf = RoundBuffer::new(EXCHANGE_REQUEST_LEN, EXCHANGE_REQUEST_LEN);
        for request in requests {
            buf.push_with(|slot| request.encode_into(slot));
        }
        buf
    }

    /// A three-server chain's reply reservation.
    const REPLY_STRIDE: usize = EXCHANGE_RESPONSE_LEN + 3 * onion::REPLY_LAYER_OVERHEAD;

    /// Holds the arena exchange on `batch` to the oracle, byte for byte —
    /// the reply arena (reservation included), the observables and the
    /// RNG state after — for every shard and worker count. The oracle's
    /// requests are what the tail decodes from `batch`, with a locally
    /// drawn noise request for every slot that does not decode.
    fn assert_arena_matches_oracle(batch: &RoundBuffer, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let requests: Vec<ExchangeRequest> = (0..batch.len())
            .map(|i| {
                ExchangeRequest::decode(batch.slot(i))
                    .unwrap_or_else(|_| ExchangeRequest::noise(&mut rng))
            })
            .collect();
        let (responses, want_obs) = ConversationDrops::exchange(&mut rng, &requests);
        let want_next = rng.next_u64();
        let mut want = RoundBuffer::new(REPLY_STRIDE, EXCHANGE_RESPONSE_LEN);
        for response in &responses {
            want.push_with(|slot| slot.copy_from_slice(&response.sealed_message));
        }
        let want = want.into_raw();
        for shards in [1usize, 2, 3, 4, 7] {
            for workers in [1usize, 2, 4] {
                let at = format!("shards {shards} workers {workers}");
                let mut rng = StdRng::seed_from_u64(seed);
                let (replies, obs) = ConversationDrops::exchange_arena(
                    &mut rng,
                    batch.clone(),
                    REPLY_STRIDE,
                    shards,
                    workers,
                );
                assert_eq!(replies.into_raw(), want, "{at}");
                assert_eq!(obs, want_obs, "{at}");
                assert_eq!(rng.next_u64(), want_next, "{at}: RNG state after");
            }
        }
    }

    #[test]
    fn sharded_exchange_matches_reference_for_every_shard_count() {
        // A mixed round: pairs, singles, an adversarial triple, plus
        // drops pinned to the extremes of the ID space so shard 0 and
        // shard `shards - 1` are always exercised.
        let mut requests = vec![
            request(1, 1),
            request(1, 2),
            request(2, 3),
            request(3, 4),
            request(3, 5),
            request(9, 6),
            request(9, 7),
            request(9, 8),
        ];
        requests.push(request_with_key(0, 9));
        requests.push(request_with_key(u64::MAX, 10));
        requests.push(request_with_key(u64::MAX, 10)); // pairs with the previous
        assert_arena_matches_oracle(&arena(&requests), 21);
    }

    #[test]
    fn arena_exchange_matches_the_oracle_in_every_case() {
        let mut rng = StdRng::seed_from_u64(41);
        let random = |rng: &mut StdRng, n: usize| -> Vec<ExchangeRequest> {
            (0..n).map(|_| ExchangeRequest::noise(rng)).collect()
        };
        // Empty round, all singletons.
        assert_arena_matches_oracle(&arena(&[]), 1);
        assert_arena_matches_oracle(&arena(&random(&mut rng, 40)), 2);
        // Every request paired, pairs spread over the ID space.
        let pairs: Vec<ExchangeRequest> = random(&mut rng, 20)
            .into_iter()
            .flat_map(|r| {
                let mut twin = r.clone();
                twin.sealed_message[0] ^= 1;
                [r, twin]
            })
            .collect();
        assert_arena_matches_oracle(&arena(&pairs), 3);
        // A drop with four accessors among singletons and a pair.
        let mut crowded = random(&mut rng, 6);
        for fill in 1..=4 {
            crowded.push(request(7, fill));
        }
        crowded.extend([request(8, 5), request(8, 6)]);
        assert_arena_matches_oracle(&arena(&crowded), 4);
        // The shape a tail's peel leaves before compacting: each slot
        // still one onion layer wide.
        let stride = EXCHANGE_REQUEST_LEN + onion::LAYER_OVERHEAD;
        let mut peeled = RoundBuffer::new(stride, stride);
        for request in &pairs[..12] {
            peeled.push_with(|slot| {
                slot.fill(0xEE);
                request.encode_into(slot);
            });
        }
        peeled.set_width(EXCHANGE_REQUEST_LEN);
        assert_arena_matches_oracle(&peeled, 6);
        // A batch one layer short of peeled: no slot decodes, so every
        // request is a substitute.
        let width = EXCHANGE_REQUEST_LEN + 32;
        let mut wrong = RoundBuffer::new(width, width);
        for i in 0..9u8 {
            wrong.push_with(|slot| slot.fill(i));
        }
        assert_arena_matches_oracle(&wrong, 5);
    }

    #[test]
    fn in_shard_collision_keeps_the_pairing_rule() {
        // Three accessors forced onto one drop (hence one shard): the
        // first two exchange, the third gets filler, m_many flags the
        // drop — the oracle's guarantees, under sharding.
        let mut rng = StdRng::seed_from_u64(31);
        let requests: Vec<ExchangeRequest> = (0..3u8)
            .map(|i| {
                let mut r = request_with_key(7, 1);
                r.sealed_message = vec![i + 1; SEALED_MESSAGE_LEN];
                r
            })
            .collect();
        let (replies, obs) =
            ConversationDrops::exchange_arena(&mut rng, arena(&requests), REPLY_STRIDE, 7, 2);
        assert_eq!(obs.m_many, 1);
        assert_eq!(replies.slot(0), vec![2; SEALED_MESSAGE_LEN].as_slice());
        assert_eq!(replies.slot(1), vec![1; SEALED_MESSAGE_LEN].as_slice());
        assert_ne!(replies.slot(2), vec![1; SEALED_MESSAGE_LEN].as_slice());
        assert_ne!(replies.slot(2), vec![2; SEALED_MESSAGE_LEN].as_slice());
    }

    #[test]
    fn invitation_deposit_and_download() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut drops = InvitationDrops::new(3);
        drops.deposit(DialRequest {
            drop: InvitationDropIndex(2),
            invitation: SealedInvitation::noise(&mut rng),
        });
        drops.deposit(DialRequest::noop(&mut rng));
        let obs = drops.observables();
        assert_eq!(obs.counts, vec![0, 1, 0]);
        assert_eq!(obs.noop_writes, 1);
        assert_eq!(
            drops.download(InvitationDropIndex(2)).map(<[_]>::len),
            Some(1)
        );
        assert!(drops.download(InvitationDropIndex::NOOP).is_none());
        assert!(drops.download(InvitationDropIndex(4)).is_none());
    }

    #[test]
    fn out_of_range_drop_counts_as_noop() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut drops = InvitationDrops::new(2);
        drops.deposit(DialRequest {
            drop: InvitationDropIndex(99),
            invitation: SealedInvitation::noise(&mut rng),
        });
        assert_eq!(drops.observables().noop_writes, 1);
        assert_eq!(drops.observables().total_invitations(), 0);
    }

    #[test]
    fn noise_lands_in_every_drop() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut drops = InvitationDrops::new(3);
        drops.add_noise(&mut rng, &[5, 7, 2]);
        assert_eq!(drops.observables().counts, vec![5, 7, 2]);
    }

    /// The tail's noise invitations, as a drop publishes them, start with
    /// a real X25519 public key like a sealed invitation (bit 255 clear,
    /// `x25519_base` of the 32 bytes drawn for it); the rest is the
    /// draw's. Raw draws set bit 255 on about half of 4 096 entries.
    #[test]
    fn published_tail_noise_carries_public_keys() {
        use rand::RngCore;
        use vuvuzela_crypto::x25519::x25519_base;
        let mut rng = StdRng::seed_from_u64(9);
        let mut replay = rng.clone();
        let mut drops = InvitationDrops::new(2);
        drops.add_noise(&mut rng, &[2048, 2048]);
        for index in [1, 2].map(InvitationDropIndex) {
            let published = drops.download(index).expect("a real drop");
            assert_eq!(published.len(), 2048);
            for invitation in published {
                let mut drawn = [0u8; vuvuzela_wire::SEALED_INVITATION_LEN];
                replay.fill_bytes(&mut drawn);
                let secret: [u8; 32] = drawn[..32].try_into().expect("32 bytes");
                assert_eq!(invitation.0[31] & 0x80, 0, "bit 255 of the key");
                assert_eq!(invitation.0[..32], x25519_base(&secret));
                assert_eq!(invitation.0[32..], drawn[32..]);
            }
        }
    }
}
