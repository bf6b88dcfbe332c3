//! The streaming round scheduler: hops overlap across in-flight rounds,
//! conversation and dialing rounds share one pipeline.
//!
//! The paper's chain is strictly sequential — *"one server cannot start
//! processing a round until the previous server finishes"* (§8.2) — so
//! end-to-end **latency** is the sum of per-hop processing and, in the
//! sequential harness, so is round **throughput**: at any moment every
//! server but one sits idle. Latency is physics, but the idleness is
//! not: consecutive rounds are independent, so while server *i* runs
//! round *r*'s forward pass, server *i−1* can already be peeling round
//! *r+1*, and backward passes interleave symmetrically. Dialing rounds
//! (§5) interleave with conversation rounds on the same chain, so the
//! schedule is heterogeneous.
//!
//! The node loops run on threads in one place, this module's runner:
//! the entry is a [`crate::node::run_entry_node`] and every server of a
//! [`Chain`] a [`crate::node::run_server_node`], each on a scoped thread
//! over a pair of ends on each of the chain's own links, the clients
//! link too, and the calling thread feeds the entry through
//! [`crate::node::feed_window`] like a deployment's client. Checks,
//! trailers, the tail's drops, the `Bye` handshake and the hang-up on
//! failure are the node loop's (see [`crate::node`]); every node's events
//! cross to the feeder, and rounds complete as in [`Chain::run`]
//! (`chain::Collector`). The OS scheduler picks the interleaving, so a
//! run cannot be replayed. Two callers pick the ends:
//!
//! * [`run_over_loopback`] — loopback TCP sockets
//!   ([`vuvuzela_net::loopback_pair`]) at the entry's window: the wire
//!   twin the simulator runs every scenario's second run on;
//! * [`StreamingChain`] — [`vuvuzela_net::memory_pair`] endpoints at a
//!   window of its choosing, kept only for the benchmark's
//!   `mixed_stream` and the golden pins.
//!
//! Every frame carries its round id and protocol, links attribute
//! traffic per round ([`vuvuzela_net::Link::round_traffic`]) and taps
//! keep receiving the round id: pipelining changes *when* bytes move,
//! never *which round* they belong to. The window is `max_in_flight`
//! *slots* (default, and at most, `chain_len`: the depth at which every
//! server can be busy, and the entry's limit), each round priced by
//! [`crate::engine::admission_weights`] —
//! weights shape scheduling, never a round's bytes. Because every source
//! of round randomness is a pure function of `(seed, round)` (see
//! [`crate::server`]), per-round replies, observables, dialing drops and
//! per-round link traffic are byte-identical to [`Chain::run`] over the
//! same [`RoundSpec`] sequence, which the streaming-equivalence tests,
//! the golden pins and the simulator's wire twin assert.
//!
//! A node that stops hangs up both its links and the failure cascades to
//! the feeder; the runner joins every node, then returns an
//! [`Abort`] naming the rounds that died (see
//! [`Chain::abort_in_flight_rounds`] for what is left). A link a tap
//! hangs up ([`vuvuzela_net::Tap::hangs_up`]) fails its sender's `send`,
//! which stops a node the same way. A node thread that *panics* is a
//! bug, and its panic propagates. Sustained throughput is bounded by the
//! slowest hop instead of the sum of hops; `benchmark/` measures both
//! schedulers on the same batches as `core.pipeline.speedup_vs_sequential`.

use crate::chain::{Abort, Batch, Chain, Collector, RoundOutcome, RoundSpec};
use crate::config::SystemConfig;
use crate::node::{feed_window, run_entry_node, run_server_node};
use crate::server::RoundKind;
use std::sync::{mpsc, Arc};
use std::time::Instant;
use vuvuzela_net::{loopback_pair, memory_pair, Error, Link, Transport};
use vuvuzela_wire::deaddrop::InvitationDropIndex;
use vuvuzela_wire::dialing::SealedInvitation;

/// A deployment driven by the streaming scheduler. Wraps the same
/// [`Chain`] (same servers, links, seeds — construction is identical for
/// equal `(config, seed)`), so everything a sequential chain exposes —
/// observables, link traffic, taps, drop downloads — is available through
/// [`StreamingChain::chain`] / [`StreamingChain::chain_mut`].
pub struct StreamingChain {
    chain: Chain,
    max_in_flight: usize,
}

impl StreamingChain {
    /// Builds a streaming deployment; identical construction (keys,
    /// seeds, links) to [`Chain::new`] with the same arguments.
    #[must_use]
    pub fn new(config: SystemConfig, seed: u64) -> StreamingChain {
        let max_in_flight = config.chain_len.max(1);
        StreamingChain {
            chain: Chain::new(config, seed),
            max_in_flight,
        }
    }

    /// Overrides the in-flight window (default: `chain_len` slots).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= window <= chain_len`: the entry refuses a round
    /// past `chain_len` in flight.
    #[must_use]
    pub fn with_max_in_flight(mut self, window: usize) -> StreamingChain {
        let most = self.chain.config.chain_len;
        let what = "at least one round in flight, and no more than the entry admits";
        assert!(
            (1..=most).contains(&window),
            "window {window}: {what} ({most})"
        );
        self.max_in_flight = window;
        self
    }

    /// The underlying deployment: observables, links, servers.
    #[must_use]
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// Mutable access (e.g. to attach adversary taps to links).
    pub fn chain_mut(&mut self) -> &mut Chain {
        &mut self.chain
    }

    /// Downloads one invitation drop from the most recent dialing
    /// round (see [`Chain::download_drop`]).
    pub fn download_drop(&self, index: InvitationDropIndex) -> Option<Vec<SealedInvitation>> {
        self.chain.download_drop(index)
    }

    /// The scheduler: runs a heterogeneous sequence of conversation and
    /// dialing rounds through the entry's and the servers' node loops
    /// over in-memory links, fed under the weighted window (see the
    /// module docs), and returns
    /// per-round [`RoundOutcome`]s in input order, each byte-identical to the
    /// sequential [`Chain::run`] over the same sequence.
    ///
    /// Round ids must strictly increase within a schedule — the wire's
    /// sequencing rule, which every hop holds its upstream to; a later
    /// schedule may start anywhere.
    ///
    /// # Errors
    ///
    /// An [`Abort`] when a node stops before the schedule completes — it
    /// refused a frame (as in [`Chain::run`]), or a tap hung a link up
    /// under a batch ([`vuvuzela_net::Tap::hangs_up`]). Its `rounds` are
    /// those admitted but not completed. Every node thread has exited when
    /// it is returned; the deployment recovers with
    /// [`Chain::abort_in_flight_rounds`].
    ///
    /// # Panics
    ///
    /// Panics if round ids do not strictly increase (duplicate round ids
    /// included), or a tap or worker closure panics — bugs, not aborts: a
    /// node thread's panic propagates with its own payload once every node
    /// has exited, never hanging the schedule.
    pub fn run(&mut self, specs: Vec<RoundSpec>) -> Result<Vec<RoundOutcome>, Abort> {
        let memory = |link: &Link| Ok(memory_pair(Arc::new(link.clone())));
        run_nodes(&mut self.chain, self.max_in_flight, specs, memory)
    }

    /// [`StreamingChain::run`], panicking on its [`Abort`]. It exists only
    /// because `benchmark/` calls it; new code calls `run`.
    ///
    /// # Panics
    ///
    /// Panics with the abort's text, and wherever `run` panics.
    pub fn run_mixed_schedule(&mut self, specs: Vec<RoundSpec>) -> Vec<RoundOutcome> {
        self.run(specs).unwrap_or_else(|abort| panic!("{abort}"))
    }
}

/// [`Chain::run`] over the wire: the entry's and the servers' node
/// loops on scoped threads, every link of `chain` — the clients link
/// too — one loopback TCP socket ([`vuvuzela_net::loopback_pair`]) whose
/// ends send each batch through the chain's own [`Link`], fed at the
/// entry's window of `chain_len` rounds. Outcomes, the chain's logs and
/// its round record come out as [`Chain::run`]'s over the same specs:
/// every round's bytes are a function of `(seed, round)` alone, so only
/// *when* frames move differs, and the OS scheduler picks that.
///
/// # Errors
///
/// As [`StreamingChain::run`], and an [`Abort`] of no rounds when a
/// loopback socket cannot be set up.
///
/// # Panics
///
/// As [`StreamingChain::run`].
pub fn run_over_loopback(
    chain: &mut Chain,
    specs: Vec<RoundSpec>,
) -> Result<Vec<RoundOutcome>, Abort> {
    let window = chain.config.chain_len;
    run_nodes(chain, window, specs, loopback_pair)
}

/// The threaded runner both [`StreamingChain::run`] and
/// [`run_over_loopback`] are: `pair` makes both ends of each of the
/// chain's links (upstream end first), the entry and every server of
/// `chain` run their node loops on scoped threads over them, and the
/// calling thread feeds the entry through [`feed_window`] at `window`
/// weighted slots, completing rounds as they come home.
pub(crate) fn run_nodes<E: Transport>(
    chain: &mut Chain,
    window: usize,
    specs: Vec<RoundSpec>,
    mut pair: impl FnMut(&Link) -> Result<(E, E), Error>,
) -> Result<Vec<RoundOutcome>, Abort> {
    let schedule: Vec<(u64, RoundKind, usize)> = specs
        .iter()
        .map(|spec| (spec.round(), spec.kind(), spec.batch_len()))
        .collect();
    assert!(
        schedule.windows(2).all(|pair| pair[0].0 < pair[1].0),
        "round ids must strictly increase within a schedule (duplicate round ids, or a \
         step back)"
    );
    if specs.is_empty() {
        return Ok(Vec::new());
    }
    let Chain {
        config,
        servers,
        links,
        client_link,
        seed,
        log,
    } = chain;
    let (config, seed) = (&*config, *seed);

    // One pair of ends per link of the chain over its own `Link` (traffic
    // record, tap): the upstream end the upstream node's, the other the
    // downstream node's.
    let ends = std::iter::once(&*client_link)
        .chain(links.iter())
        .map(&mut pair)
        .collect::<Result<Vec<_>, _>>();
    let mut ends = ends
        .map_err(|err| Abort::new(vec![err], Vec::new()))?
        .into_iter();
    let (feeder, clients) = ends.next().expect("the clients link");
    let (mut fars, nears): (Vec<_>, Vec<_>) = ends.unzip();
    let entry_down = fars.remove(0);
    let downs = fars.into_iter().map(Some).chain([None]);

    // What the nodes report ([`crate::node::HopObserver`]) crosses to
    // the feeder's collector, which drains it as rounds come home.
    let (report, reports) = mpsc::channel();
    // Nobody listens once the feeder has failed.
    let observer = |report: mpsc::Sender<_>| move |event| drop(report.send(event));
    let mut collector = Collector::new(log, config.chain_len);
    let mut outcomes = Vec::with_capacity(specs.len());
    let mut admitted = Vec::new();
    let mut specs = specs.into_iter();
    let mut failures: Vec<Error> = Vec::new();
    let mut panicked = None;

    std::thread::scope(|s| {
        let mut observe = observer(report.clone());
        let entry = s.spawn(move || {
            let (clients, down) = (Arc::new(clients), Arc::new(entry_down));
            run_entry_node(config, clients, down, &mut observe)
        });
        let servers = servers.iter_mut().zip(nears.into_iter().zip(downs));
        let nodes: Vec<_> = std::iter::once(entry)
            .chain(servers.map(|(server, (up, down))| {
                let mut observe = observer(report.clone());
                s.spawn(move || {
                    let up: Arc<dyn Transport> = Arc::new(up);
                    let down = down.map(|down| Arc::new(down) as Arc<dyn Transport>);
                    run_server_node(server, config, seed, up, down, &mut observe)
                })
            }))
            .collect();

        // This thread is the entry's client side. Its end is dropped
        // — hung up — however this block is left, a tap panicking
        // under `send` included, so the nodes always finish.
        let feeder = feeder;
        let fed = feed_window(
            config,
            &feeder,
            window,
            &schedule,
            |_| {
                let spec = specs.next().expect("one spec a round");
                let (round, _, Batch::Flat(buf)) = spec.into_parts();
                admitted.push(round);
                (buf, Instant::now())
            },
            |fed: Instant, back, trailer| {
                for event in reports.try_iter() {
                    collector.observe(event);
                }
                outcomes.push(collector.complete(back, trailer, fed));
            },
        );
        drop(feeder);
        failures.extend(fed.err());
        for node in nodes {
            match node.join() {
                Ok(Ok(_stats)) => {}
                Ok(Err(err)) => failures.push(err),
                Err(payload) => panicked = Some(payload),
            }
        }
    });

    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }
    if failures.is_empty() {
        return Ok(outcomes);
    }
    // Rounds complete in admission order.
    let unfinished = admitted.split_off(outcomes.len());
    Err(Abort::new(failures, unfinished))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Batch;
    use crate::engine::admission_weights;
    use crate::roundbuf::RoundBuffer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vuvuzela_crypto::onion;
    use vuvuzela_dp::{NoiseDistribution, NoiseMode};
    use vuvuzela_net::link::{Direction, Slots};
    use vuvuzela_wire::conversation::ExchangeRequest;
    use vuvuzela_wire::dialing::DialRequest;

    /// The `(kind, batch length)` shapes the feeder prices a schedule by.
    fn shapes(specs: &[RoundSpec]) -> Vec<(RoundKind, usize)> {
        specs
            .iter()
            .map(|spec| (spec.kind(), spec.batch_len()))
            .collect()
    }

    fn tiny_config(chain_len: usize) -> SystemConfig {
        SystemConfig {
            chain_len,
            conversation_noise: NoiseDistribution::new(3.0, 1.0),
            dialing_noise: NoiseDistribution::new(2.0, 1.0),
            noise_mode: NoiseMode::Deterministic,
            workers: 2,
            conversation_slots: 1,
            retransmit_after: 2,
            exchange_shards: 4,
        }
    }

    /// Lays `onions` into a `kind` round's arena.
    fn arena(kind: RoundKind, chain_len: usize, onions: Vec<Vec<u8>>) -> Batch {
        let width = onion::wrapped_len(kind.payload_len(), chain_len);
        Batch::Flat(RoundBuffer::from_vecs(&onions, width, width).0)
    }

    /// `count` slots of nothing: a batch whose only property that matters
    /// is its length.
    fn slots(count: usize) -> Batch {
        Batch::Flat(RoundBuffer::from_raw(vec![0; count], 1, 1, count))
    }

    fn client_batch(
        pks: &[vuvuzela_crypto::x25519::PublicKey],
        round: u64,
        count: usize,
        rng: &mut StdRng,
    ) -> Batch {
        let onions = (0..count)
            .map(|_| {
                let payload = ExchangeRequest::noise(rng).encode();
                onion::wrap(rng, pks, round, &payload).0
            })
            .collect();
        arena(RoundKind::Conversation, pks.len(), onions)
    }

    fn dial_batch(
        pks: &[vuvuzela_crypto::x25519::PublicKey],
        round: u64,
        count: usize,
        num_drops: u32,
        rng: &mut StdRng,
    ) -> Batch {
        let onions = (0..count)
            .map(|_| {
                let payload = DialRequest::noop(rng).encode();
                onion::wrap(rng, pks, round, &payload).0
            })
            .collect();
        arena(RoundKind::Dialing { num_drops }, pks.len(), onions)
    }

    fn conversation(round: u64, batch: Batch) -> RoundSpec {
        RoundSpec::Conversation { round, batch }
    }

    fn dialing(round: u64, batch: Batch, num_drops: u32) -> RoundSpec {
        RoundSpec::Dialing {
            round,
            batch,
            num_drops,
        }
    }

    #[test]
    fn heavy_dialing_rounds_weigh_more_than_conversation_rounds() {
        let config = SystemConfig {
            chain_len: 3,
            conversation_noise: NoiseDistribution::new(3.0, 1.0),
            dialing_noise: NoiseDistribution::new(13_000.0, 770.0),
            noise_mode: NoiseMode::Deterministic,
            workers: 2,
            conversation_slots: 1,
            retransmit_after: 2,
            exchange_shards: 4,
        };
        let specs = vec![
            conversation(0, slots(4)),
            dialing(1, slots(4), 1),
            conversation(2, slots(4)),
        ];
        let weights = admission_weights(&config, 3, &shapes(&specs));
        assert_eq!(weights[0], 1, "conversation rounds are the unit slot");
        assert_eq!(weights[2], 1);
        assert!(
            weights[1] > weights[0],
            "a µ=13k dialing round must occupy more window slots"
        );
        assert!(weights[1] <= 3, "weights clamp to the window");

        // Homogeneous schedules collapse to plain round counting — even
        // with uneven batches or drop counts, so the homogeneous entry
        // points schedule exactly as they did before weighted admission.
        let dialing_only = vec![dialing(0, slots(4), 1), dialing(1, slots(400), 3)];
        assert_eq!(
            admission_weights(&config, 3, &shapes(&dialing_only)),
            vec![1, 1]
        );
        let conversation_only = vec![conversation(0, slots(10)), conversation(1, slots(500))];
        assert_eq!(
            admission_weights(&config, 3, &shapes(&conversation_only)),
            vec![1, 1]
        );
    }

    #[test]
    fn window_heavy_round_still_admitted_and_byte_identical() {
        // A dialing round priced at the full window must run (progress
        // guarantee) and stay byte-identical to the sequential chain.
        let config = SystemConfig {
            chain_len: 2,
            conversation_noise: NoiseDistribution::new(2.0, 1.0),
            dialing_noise: NoiseDistribution::new(40.0, 5.0),
            noise_mode: NoiseMode::Deterministic,
            workers: 2,
            conversation_slots: 1,
            retransmit_after: 2,
            exchange_shards: 4,
        };
        let seed = 51;
        let mut streaming = StreamingChain::new(config.clone(), seed).with_max_in_flight(2);
        let mut sequential = Chain::new(config.clone(), seed);
        let pks = streaming.chain().server_public_keys();
        let mut rng = StdRng::seed_from_u64(3);
        let specs = vec![
            conversation(0, client_batch(&pks, 0, 2, &mut rng)),
            dialing(1, dial_batch(&pks, 1, 1, 1, &mut rng), 1),
            conversation(2, client_batch(&pks, 2, 2, &mut rng)),
        ];
        let weights = admission_weights(&config, 2, &shapes(&specs));
        assert_eq!(weights[1], 2, "the dialing round fills the window");

        let outcomes = streaming.run(specs.clone()).expect("schedule completes");
        let expected = sequential.run(specs).expect("rounds complete");
        for (got, want) in outcomes.iter().zip(&expected) {
            assert_eq!(got.replies(), want.replies());
        }
    }

    #[test]
    fn empty_schedule_is_a_noop() {
        let mut streaming = StreamingChain::new(tiny_config(2), 1);
        assert!(streaming
            .run(Vec::new())
            .expect("nothing to fail")
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "no more than the entry admits")]
    fn window_wider_than_the_entry_admits_is_refused() {
        let _ = StreamingChain::new(tiny_config(2), 1).with_max_in_flight(3);
    }

    #[test]
    #[should_panic(expected = "duplicate round ids")]
    fn duplicate_rounds_rejected() {
        let mut streaming = StreamingChain::new(tiny_config(2), 1);
        let _ = streaming.run(vec![conversation(0, slots(0)), conversation(0, slots(0))]);
    }

    #[test]
    #[should_panic(expected = "tap exploded")]
    fn panicking_tap_fails_schedule_instead_of_hanging() {
        // An adversary tap (or any stage-side closure) that panics is a
        // bug: its panic must propagate out of `run` with its own payload
        // — never deadlock the feeder or the surviving stages, and never
        // turn into an `Abort`.
        struct ExplodingTap;
        impl vuvuzela_net::Tap for ExplodingTap {
            fn intercept(&mut self, _ctx: &vuvuzela_net::TapContext, _batch: &mut Slots<'_>) {
                panic!("tap exploded");
            }
        }

        let mut streaming = StreamingChain::new(tiny_config(3), 3);
        let pks = streaming.chain().server_public_keys();
        streaming
            .chain_mut()
            .link_mut(1)
            .attach_tap(std::sync::Arc::new(parking_lot::Mutex::new(ExplodingTap)));

        let mut rng = StdRng::seed_from_u64(4);
        let specs: Vec<RoundSpec> = (0..3u64)
            .map(|round| conversation(round, client_batch(&pks, round, 2, &mut rng)))
            .collect();
        let _ = streaming.run(specs);
    }

    #[test]
    fn tampered_mixed_schedule_completes_and_drains() {
        // An active adversary that both removes and adds onions must
        // degrade the schedule, never wedge it: every round still
        // yields an outcome of the right kind and every server drains.
        // (The sim crate's soak matrix checks *which* invariants the
        // tampering trips; this test pins the liveness floor in core.)
        struct DropAndInject;
        impl vuvuzela_net::Tap for DropAndInject {
            fn intercept(&mut self, ctx: &vuvuzela_net::TapContext, batch: &mut Slots<'_>) {
                if ctx.direction != Direction::Forward {
                    return;
                }
                batch.retain(|i| i % 2 == 0);
                if !batch.is_empty() {
                    batch.push(&vec![0xAB; batch.width()]);
                    batch.push(&vec![0xCD; batch.width()]);
                }
            }
        }

        let mut streaming = StreamingChain::new(tiny_config(3), 17).with_max_in_flight(3);
        let pks = streaming.chain().server_public_keys();
        streaming
            .chain_mut()
            .link_mut(0)
            .attach_tap(std::sync::Arc::new(parking_lot::Mutex::new(DropAndInject)));

        let mut rng = StdRng::seed_from_u64(29);
        let specs = vec![
            conversation(0, client_batch(&pks, 0, 4, &mut rng)),
            dialing(1, dial_batch(&pks, 1, 3, 2, &mut rng), 2),
            conversation(2, client_batch(&pks, 2, 4, &mut rng)),
        ];
        let outcomes = streaming.run(specs).expect("schedule completes");
        assert_eq!(outcomes.len(), 3, "every tampered round must complete");
        assert!(outcomes[0].replies().is_some());
        assert!(outcomes[1].replies().is_none());
        assert!(outcomes[2].replies().is_some());
        for i in 0..3 {
            assert_eq!(
                streaming.chain().server(i).in_flight_rounds(),
                0,
                "server {i} retained round state after a tampered schedule"
            );
        }
    }

    #[test]
    fn tampered_dialing_rounds_stay_forward_only() {
        // Replaying a dialing batch into its own transfer (doubling it)
        // must not conjure a backward pass: dialing rounds stay
        // forward-only whatever the adversary feeds the chain.
        struct DoubleForward;
        impl vuvuzela_net::Tap for DoubleForward {
            fn intercept(&mut self, ctx: &vuvuzela_net::TapContext, batch: &mut Slots<'_>) {
                if ctx.direction == Direction::Forward {
                    for i in 0..batch.len() {
                        let copy = batch.get(i).to_vec();
                        batch.push(&copy);
                    }
                }
            }
        }

        let chain_len = 2;
        let mut streaming = StreamingChain::new(tiny_config(chain_len), 53);
        let pks = streaming.chain().server_public_keys();
        streaming
            .chain_mut()
            .link_mut(0)
            .attach_tap(std::sync::Arc::new(parking_lot::Mutex::new(DoubleForward)));

        let mut rng = StdRng::seed_from_u64(37);
        let num_drops = 2;
        let specs: Vec<RoundSpec> = (0..3u64)
            .map(|round| {
                dialing(
                    round,
                    dial_batch(&pks, round, 2, num_drops, &mut rng),
                    num_drops,
                )
            })
            .collect();
        let outcomes = streaming.run(specs).expect("schedule completes");
        assert_eq!(outcomes.len(), 3);
        for (round, outcome) in outcomes.iter().enumerate() {
            assert!(
                outcome.timing().backward.is_empty(),
                "dialing round {round} ran a backward stage under tampering"
            );
            for link in streaming.chain().links() {
                assert_eq!(
                    link.round_traffic(round as u64, Direction::Backward),
                    (0, 0),
                    "dialing round {round} put backward traffic on {}",
                    link.id()
                );
            }
        }
        for i in 0..chain_len {
            assert_eq!(streaming.chain().server(i).in_flight_rounds(), 0);
        }
    }
}
