//! The streaming round scheduler: hops overlap across in-flight rounds,
//! conversation and dialing rounds share one pipeline.
//!
//! The paper's chain is strictly sequential — *"one server cannot start
//! processing a round until the previous server finishes"* (§8.2) — so
//! end-to-end **latency** is the sum of per-hop processing and, in the
//! sequential harness, so is round **throughput**: at any moment every
//! server but one sits idle. Latency is physics (a request really must
//! traverse all hops, and §8.2's analysis of it is unchanged here), but
//! the idleness is not: consecutive rounds are independent, so while
//! server *i* runs round *r*'s forward pass, server *i−1* can already be
//! peeling round *r+1*, and backward passes interleave symmetrically.
//! A deployment also never runs one protocol in isolation: dialing
//! rounds (§5) interleave with conversation rounds on the same mix
//! chain, so the schedule the scheduler must sustain is heterogeneous.
//!
//! [`StreamingChain`] implements exactly that schedule. The model:
//!
//! ## Stages
//!
//! **One stage per server** — each mix server becomes a pipeline stage
//! (an OS thread owning the server for the duration of a schedule)
//! connected to its neighbours by round-tagged hand-off queues. A stage
//! alternates between forward work arriving from upstream and backward
//! work arriving from downstream, in arrival order. Crypto within a
//! stage spreads over the shared [`vuvuzela_net::WorkerPool`] under the
//! stage's own parallelism budget, so concurrent hops share the machine
//! instead of oversubscribing it.
//!
//! ## Hand-offs
//!
//! **Round-tagged hand-offs** — every queued batch carries its
//! [`vuvuzela_wire::RoundId`] *and* its [`RoundKind`]: the protocol
//! tag (whose wire encoding is [`vuvuzela_wire::RoundType`], via
//! [`RoundKind::round_type`]) plus dialing's drop count, because a
//! server holds [`MixServer`] round state — mix permutation,
//! layer keys, per-round RNG — for several rounds of *both* protocols at
//! once and must select the right state and recipe per batch. Links
//! attribute traffic per round ([`vuvuzela_net::Link::round_traffic`])
//! and taps keep receiving the round id, so adversary interception
//! semantics are unchanged: pipelining changes *when* bytes move, never
//! *which round* they belong to. Conversation rounds turn around at the
//! tail (dead-drop exchange, then the backward pass ripples home);
//! dialing rounds are forward-only — the tail deposits into the
//! invitation drops and sends a completion notice straight to the exit
//! queue, and every stage discards a dialing round's reply state the
//! moment it has forwarded it.
//!
//! ## Admission: the weighted window
//!
//! **Weighted in-flight window** — the window is measured in *slots*,
//! `max_in_flight` of them (default `chain_len`, the depth at which
//! every server can be busy simultaneously). Rounds are not all the same
//! size: a dialing round at the paper's µ = 13,000 noise per drop puts
//! orders of magnitude more onions in flight than its client batch
//! suggests, and admitting `chain_len` of them as if they were
//! conversation rounds balloons the queues. So each round is priced by
//! the dp planner's per-round-type noise budget
//! ([`crate::noise::expected_noise_per_server`]):
//!
//! * a round's **cost** is its client batch plus every noising server's
//!   expected cover traffic;
//! * one **slot** is the mean cost of the schedule's conversation
//!   rounds;
//! * a round occupies `round(cost / slot)` slots, clamped to
//!   `[1, max_in_flight]`;
//! * a **homogeneous** schedule (one round kind only) collapses to
//!   weight 1 per round — plain round counting, exactly the behaviour
//!   `run_conversation_rounds` / `run_dialing_rounds` always had;
//!   weights only throttle genuinely mixed schedules.
//!
//! The feeder admits a round while the occupied slots plus the round's
//! weight fit the window — with one progress guarantee: a round heavier
//! than the whole window is still admitted once the pipeline is empty,
//! so heavy dialing rounds throttle admission but can never wedge it,
//! and a burst of them cannot starve the pipeline into deadlock.
//! Weights only shape *scheduling*; they cannot affect any round's
//! bytes (see below).
//!
//! ## Why the bytes cannot change
//!
//! Every source of round randomness is a pure function of `(seed,
//! round)`: servers capture a derived per-round RNG in their
//! `RoundState` (see [`crate::server`]) and the chain-level exchange
//! derives its own the same way. Processing order therefore cannot
//! influence any round's noise, permutation, or filler — which is what
//! the streaming-equivalence property tests assert: per-round replies,
//! dead-drop observables, dialing drops, and per-round link traffic are
//! byte-identical to running the sequential [`Chain`] over the same
//! interleaved [`RoundSpec`] sequence, across ≥3 in-flight rounds with
//! dialing rounds adjacent and separated.
//!
//! Sustained throughput of the streaming schedule is bounded by the
//! slowest hop (plus the tail exchange) instead of the sum of hops; the
//! repository benchmark (`benchmark/`) measures both schedulers on the
//! same batches as `core.pipeline.speedup_vs_sequential`.

use crate::chain::{admit_batch, Chain, RoundOutcome, RoundSpec, RoundTiming, StageReport};
use crate::config::SystemConfig;
use crate::engine::{AdmissionWindow, RoundEngine};
use crate::roundbuf::RoundBuffer;
use crate::server::{MixServer, RoundKind};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};
use vuvuzela_crypto::x25519::PublicKey;
use vuvuzela_net::link::Direction;
use vuvuzela_wire::deaddrop::InvitationDropIndex;
use vuvuzela_wire::dialing::SealedInvitation;
use vuvuzela_wire::RoundId;

/// A round's batch in flight between two stages, tagged with the
/// [`RoundId`] and round kind it belongs to and the timing it has
/// accumulated so far.
struct Tagged {
    round: RoundId,
    kind: RoundKind,
    buf: RoundBuffer,
    timing: RoundTiming,
    /// When the round entered the pipeline (for end-to-end latency).
    fed: Instant,
}

/// A hand-off between neighbouring stages.
enum StageMsg {
    /// Towards the last server (requests).
    Forward(Tagged),
    /// Towards the clients (responses) — or, for forward-only dialing
    /// rounds, the tail's completion notice.
    Backward(Tagged),
}

/// The fixed wiring of one pipeline stage (see [`pipeline_stage`]).
struct StageCtx<'a> {
    /// Chain position of this stage's server.
    index: usize,
    /// The deployment config ([`crate::engine::RoundEngine`] reads the
    /// chain length, exchange shards and worker budget from it).
    config: &'a SystemConfig,
    /// Rounds the schedule feeds (forward passes to expect).
    total: usize,
    /// Conversation rounds in the schedule (backward passes a non-tail
    /// stage expects; dialing rounds never come back).
    total_conversation: usize,
    /// Chain seed, for the tail's chain-level per-round RNG.
    seed: u64,
    /// The link feeding this stage's forward pass (and carrying its
    /// backward output).
    link: &'a vuvuzela_net::Link,
    /// Downstream neighbour (`None` for the tail).
    next_tx: Option<Sender<StageMsg>>,
    /// Upstream neighbour — the exit queue for stage 0.
    back_tx: Sender<StageMsg>,
    /// The exit queue; the tail sends forward-only dialing completions
    /// here directly.
    done_tx: Sender<StageMsg>,
    /// Raised by any stage that panics (or loses a peer); everyone else
    /// polls it and drains, so one dead stage fails the schedule instead
    /// of deadlocking the survivors.
    abort: &'a AtomicBool,
}

/// The number of window slots each round of `specs` occupies under
/// weighted admission (see the module docs). A thin [`RoundSpec`] view
/// over [`crate::engine::admission_weights`] — the pricing itself lives
/// in the engine, shared verbatim with the wire client driver, so both
/// runtimes throttle mixed schedules identically. Exposed so tests can
/// inspect the pricing the scheduler will use.
#[must_use]
pub fn admission_weights(config: &SystemConfig, window: usize, specs: &[RoundSpec]) -> Vec<usize> {
    let rounds: Vec<(RoundKind, usize)> = specs
        .iter()
        .map(|spec| (spec.kind(), spec.batch_len()))
        .collect();
    crate::engine::admission_weights(config, window, &rounds)
}

/// A deployment driven by the streaming scheduler. Wraps the same
/// [`Chain`] (same servers, links, seeds — construction is identical for
/// equal `(config, seed)`), so everything a sequential chain exposes —
/// observables, meters, taps, drop downloads — is available through
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
    /// Panics if `window == 0`.
    #[must_use]
    pub fn with_max_in_flight(mut self, window: usize) -> StreamingChain {
        assert!(window > 0, "need at least one round in flight");
        self.max_in_flight = window;
        self
    }

    /// The underlying deployment: observables, links, meters, servers.
    #[must_use]
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// Mutable access (e.g. to attach adversary taps to links).
    pub fn chain_mut(&mut self) -> &mut Chain {
        &mut self.chain
    }

    /// The chain's public keys, in onion-wrapping order.
    #[must_use]
    pub fn server_public_keys(&self) -> Vec<PublicKey> {
        self.chain.server_public_keys()
    }

    /// The deployment configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        self.chain.config()
    }

    /// Downloads one invitation drop from the most recent dialing
    /// round (see [`Chain::download_drop`]).
    pub fn download_drop(&mut self, index: InvitationDropIndex) -> Option<Vec<SealedInvitation>> {
        self.chain.download_drop(index)
    }

    /// Recovers from an aborted schedule: discards every server's
    /// in-flight round state so the next schedule starts clean (see
    /// [`Chain::abort_in_flight_rounds`] for the full abort semantics).
    /// Returns the number of `(server, round)` states dropped.
    pub fn abort_in_flight_rounds(&mut self) -> usize {
        self.chain.abort_in_flight_rounds()
    }

    /// Runs a schedule of conversation rounds with the hops overlapped
    /// across the weighted in-flight window. Returns per-round
    /// `(replies, timing)` in input order — byte-identical to calling
    /// [`Chain::run_conversation_round`] once per round on an
    /// identically seeded sequential chain.
    ///
    /// # Panics
    ///
    /// Panics on duplicate round ids within one schedule (each round
    /// needs its own in-flight state) or if a stage thread dies (the
    /// abort flag drains the remaining stages first, so a panicking
    /// adversary tap or worker closure fails the schedule instead of
    /// hanging it).
    pub fn run_conversation_rounds(
        &mut self,
        rounds: Vec<(u64, Vec<Vec<u8>>)>,
    ) -> Vec<(Vec<Vec<u8>>, RoundTiming)> {
        let specs = rounds
            .into_iter()
            .map(|(round, batch)| RoundSpec::Conversation {
                round,
                batch: batch.into(),
            })
            .collect();
        self.run_mixed_schedule(specs)
            .into_iter()
            .map(|outcome| match outcome {
                RoundOutcome::Conversation { replies, timing } => (replies, timing),
                RoundOutcome::Dialing { .. } => {
                    unreachable!("homogeneous conversation schedule")
                }
            })
            .collect()
    }

    /// Runs a schedule of forward-only dialing rounds (§5) through the
    /// overlapped pipeline; `num_drops` applies to every round. The last
    /// round's invitation drops are retained for
    /// [`StreamingChain::download_drop`]. Byte-identical results to the
    /// sequential [`Chain::run_dialing_round`] per round.
    ///
    /// # Panics
    ///
    /// Same conditions as [`StreamingChain::run_conversation_rounds`].
    pub fn run_dialing_rounds(
        &mut self,
        rounds: Vec<(u64, Vec<Vec<u8>>)>,
        num_drops: u32,
    ) -> Vec<RoundTiming> {
        let specs = rounds
            .into_iter()
            .map(|(round, batch)| RoundSpec::Dialing {
                round,
                batch: batch.into(),
                num_drops,
            })
            .collect();
        self.run_mixed_schedule(specs)
            .into_iter()
            .map(|outcome| match outcome {
                RoundOutcome::Dialing { timing } => timing,
                RoundOutcome::Conversation { .. } => {
                    unreachable!("homogeneous dialing schedule")
                }
            })
            .collect()
    }

    /// The unified scheduler: runs a heterogeneous sequence of
    /// conversation and dialing rounds through one overlapped pipeline,
    /// admitting rounds under the weighted window (see the module docs)
    /// and returning per-round [`RoundOutcome`]s in input order — each
    /// byte-identical to running the sequential [`Chain::run_round`]
    /// over the same interleaved sequence.
    ///
    /// # Panics
    ///
    /// Same conditions as [`StreamingChain::run_conversation_rounds`].
    pub fn run_mixed_schedule(&mut self, specs: Vec<RoundSpec>) -> Vec<RoundOutcome> {
        let order: Vec<u64> = specs.iter().map(RoundSpec::round).collect();
        assert_distinct(&order);
        let total = specs.len();
        if total == 0 {
            return Vec::new();
        }
        let n = self.chain.config.chain_len;
        let seed = self.chain.seed;
        let config = self.chain.config.clone();
        let window = self.max_in_flight;
        let weights = admission_weights(&self.chain.config, window, &specs);
        let total_conversation = specs
            .iter()
            .filter(|spec| matches!(spec.kind(), RoundKind::Conversation))
            .count();

        let links = &self.chain.links;
        let client_link = &self.chain.client_link;

        let mut stage_tx: Vec<Sender<StageMsg>> = Vec::with_capacity(n);
        let mut stage_rx: Vec<Receiver<StageMsg>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            stage_tx.push(tx);
            stage_rx.push(rx);
        }
        let (out_tx, out_rx) = channel::<StageMsg>();
        let abort = &AtomicBool::new(false);

        let mut collected: HashMap<u64, RoundOutcome> = HashMap::new();
        // The collector's own transfers (entry → clients), then one
        // report per stage.
        let mut reports = vec![StageReport::default()];

        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(n);
            let mut rx_iter = stage_rx.into_iter();
            for (i, server) in self.chain.servers.iter_mut().enumerate() {
                let rx = rx_iter.next().expect("one receiver per stage");
                let ctx = StageCtx {
                    index: i,
                    config: &config,
                    total,
                    total_conversation,
                    seed,
                    link: &links[i],
                    next_tx: stage_tx.get(i + 1).cloned(),
                    // Backward flow for stage 0 goes straight to the
                    // exit queue.
                    back_tx: if i == 0 {
                        out_tx.clone()
                    } else {
                        stage_tx[i - 1].clone()
                    },
                    done_tx: out_tx.clone(),
                    abort,
                };
                handles.push(s.spawn(move || {
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        pipeline_stage(server, &ctx, &rx)
                    }));
                    match outcome {
                        Ok(report) => report,
                        Err(payload) => {
                            ctx.abort.store(true, Ordering::Release);
                            std::panic::resume_unwind(payload);
                        }
                    }
                }));
            }
            // The stages hold all the senders they need; dropping the
            // originals lets disconnects propagate when stages exit.
            let feed_tx = stage_tx.remove(0);
            drop(stage_tx);
            drop(out_tx);

            // The feeder/collector: admit rounds while the weighted
            // window has room, collect finished rounds otherwise.
            let collect_one = |exit: &mut StageReport,
                               collected: &mut HashMap<u64, RoundOutcome>|
             -> u64 {
                let Some(StageMsg::Backward(mut tagged)) = recv_or_abort(&out_rx, abort) else {
                    panic!("a pipeline stage died; schedule aborted");
                };
                let round = tagged.round.0;
                let outcome = match tagged.kind {
                    RoundKind::Conversation => {
                        let replies =
                            exit.transmit_buf(client_link, round, Direction::Backward, tagged.buf);
                        tagged.timing.total = tagged.fed.elapsed();
                        RoundOutcome::Conversation {
                            replies: replies.to_vecs(),
                            timing: tagged.timing,
                        }
                    }
                    RoundKind::Dialing { .. } => {
                        tagged.timing.total = tagged.fed.elapsed();
                        RoundOutcome::Dialing {
                            timing: tagged.timing,
                        }
                    }
                };
                collected.insert(round, outcome);
                round
            };
            let mut done = 0usize;
            let mut admission = AdmissionWindow::new(window);
            for (spec, weight) in specs.into_iter().zip(weights) {
                // Admit while the weighted window has room; a round
                // heavier than the whole window still enters once the
                // pipeline is empty (the window's progress guarantee).
                while admission.would_block(weight) {
                    let finished = collect_one(&mut reports[0], &mut collected);
                    admission
                        .complete(finished)
                        .expect("finished round was admitted");
                    done += 1;
                }
                let (round, kind, batch) = spec.into_parts();
                let buf = admit_batch(client_link, round, kind, n, batch);
                admission.admit(round, weight);
                assert!(
                    feed_tx
                        .send(StageMsg::Forward(Tagged {
                            round: RoundId(round),
                            kind,
                            buf,
                            timing: RoundTiming::default(),
                            fed: Instant::now(),
                        }))
                        .is_ok(),
                    "a pipeline stage died; schedule aborted"
                );
            }
            drop(feed_tx);
            while done < total {
                let _ = collect_one(&mut reports[0], &mut collected);
                done += 1;
            }
            for handle in handles {
                reports.push(handle.join().expect("stage thread panicked"));
            }
        });

        for report in reports {
            self.chain.absorb(report);
        }
        order
            .iter()
            .map(|round| collected.remove(round).expect("every round completed"))
            .collect()
    }
}

/// Blocks for the next message, polling the shared abort flag so a dead
/// peer ends the wait. `None` means the schedule is aborting (flag set or
/// all senders gone).
fn recv_or_abort(rx: &Receiver<StageMsg>, abort: &AtomicBool) -> Option<StageMsg> {
    loop {
        if abort.load(Ordering::Acquire) {
            return None;
        }
        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(msg) => return Some(msg),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return None,
        }
    }
}

/// One pipeline stage: drives one [`RoundEngine`] over every round
/// arriving from upstream — each processed under the batch's own tagged
/// round kind — and its backward pass on every conversation round
/// arriving from downstream, in arrival order. The engine runs the
/// round recipe (forward pass, the tail's dead-drop exchange /
/// invitation deposit, backward passes — the same state machine the
/// wire node runtimes drive); the stage only meters the batch through
/// its link and routes the engine's steps — handled by the
/// [`StageReport`] the sequential chain uses too — onto the hand-off
/// queues.
fn pipeline_stage(
    server: &mut MixServer,
    ctx: &StageCtx<'_>,
    rx: &Receiver<StageMsg>,
) -> StageReport {
    let mut engine = RoundEngine::new(server, ctx.config, ctx.seed);
    let is_last = ctx.index + 1 == ctx.config.chain_len;
    let mut report = StageReport::default();
    let expect_backwards = if is_last { 0 } else { ctx.total_conversation };
    let mut forwards = 0usize;
    let mut backwards = 0usize;
    while forwards < ctx.total || backwards < expect_backwards {
        let Some(msg) = recv_or_abort(rx, ctx.abort) else {
            return report; // schedule aborting; hand back what we have
        };
        let sent_ok = match msg {
            StageMsg::Forward(mut tagged) => {
                forwards += 1;
                let round = tagged.round.0;
                let buf = report.transmit_buf(ctx.link, round, Direction::Forward, tagged.buf);
                let step = engine.forward(round, tagged.kind, buf, &mut tagged.timing);
                match report.route(ctx.link, step) {
                    Some((Direction::Forward, buf)) => {
                        tagged.buf = buf;
                        ctx.next_tx
                            .as_ref()
                            .expect("non-tail stage has a downstream")
                            .send(StageMsg::Forward(tagged))
                            .is_ok()
                    }
                    Some((Direction::Backward, replies)) => {
                        tagged.buf = replies;
                        ctx.back_tx.send(StageMsg::Backward(tagged)).is_ok()
                    }
                    None => {
                        tagged.buf = RoundBuffer::new(1, 0);
                        // Completion notice straight to the exit queue.
                        ctx.done_tx.send(StageMsg::Backward(tagged)).is_ok()
                    }
                }
            }
            StageMsg::Backward(mut tagged) => {
                backwards += 1;
                let round = tagged.round.0;
                let replies = engine.backward(round, tagged.buf, &mut tagged.timing);
                tagged.buf = report.transmit_buf(ctx.link, round, Direction::Backward, replies);
                ctx.back_tx.send(StageMsg::Backward(tagged)).is_ok()
            }
        };
        if !sent_ok {
            // Our peer is gone mid-schedule: flag the abort and drain.
            ctx.abort.store(true, Ordering::Release);
            return report;
        }
    }
    report
}

fn assert_distinct(rounds: &[u64]) {
    let mut seen = HashSet::new();
    assert!(
        rounds.iter().all(|r| seen.insert(*r)),
        "duplicate round ids in one schedule"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vuvuzela_crypto::onion;
    use vuvuzela_dp::{NoiseDistribution, NoiseMode};
    use vuvuzela_wire::conversation::ExchangeRequest;
    use vuvuzela_wire::dialing::DialRequest;

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

    fn client_batch(
        pks: &[vuvuzela_crypto::x25519::PublicKey],
        round: u64,
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<Vec<u8>> {
        (0..count)
            .map(|_| {
                let payload = ExchangeRequest::noise(rng).encode();
                onion::wrap(rng, pks, round, &payload).0
            })
            .collect()
    }

    fn dial_batch(
        pks: &[vuvuzela_crypto::x25519::PublicKey],
        round: u64,
        count: usize,
        rng: &mut StdRng,
    ) -> Vec<Vec<u8>> {
        (0..count)
            .map(|_| {
                let payload = DialRequest::noop(rng).encode();
                onion::wrap(rng, pks, round, &payload).0
            })
            .collect()
    }

    #[test]
    fn streaming_matches_sequential_across_three_rounds() {
        let seed = 11;
        let mut streaming = StreamingChain::new(tiny_config(3), seed);
        let mut sequential = Chain::new(tiny_config(3), seed);
        let pks = streaming.server_public_keys();
        assert_eq!(pks, sequential.server_public_keys());

        let mut rng = StdRng::seed_from_u64(5);
        let rounds: Vec<(u64, Vec<Vec<u8>>)> = (0..3u64)
            .map(|round| (round, client_batch(&pks, round, 4, &mut rng)))
            .collect();

        let streamed = streaming.run_conversation_rounds(rounds.clone());
        let mut expected = Vec::new();
        for (round, batch) in rounds {
            expected.push(sequential.run_conversation_round(round, batch));
        }
        assert_eq!(streamed.len(), expected.len());
        for (round, ((got, _), (want, _))) in streamed.iter().zip(&expected).enumerate() {
            assert_eq!(got, want, "round {round} replies diverged");
        }

        // Observables and per-round link accounting agree too.
        let mut got_obs: Vec<_> = streaming.chain().conversation_observables().to_vec();
        got_obs.sort_by_key(|(r, _)| *r);
        assert_eq!(&got_obs, sequential.conversation_observables());
        for (sl, ql) in streaming.chain().links().iter().zip(sequential.links()) {
            for round in 0..3 {
                for direction in [Direction::Forward, Direction::Backward] {
                    assert_eq!(
                        sl.round_traffic(round, direction),
                        ql.round_traffic(round, direction),
                        "link {} round {round}",
                        sl.name()
                    );
                }
            }
        }
    }

    #[test]
    fn dialing_schedule_matches_sequential() {
        let seed = 23;
        let mut streaming = StreamingChain::new(tiny_config(2), seed);
        let mut sequential = Chain::new(tiny_config(2), seed);
        let pks = streaming.server_public_keys();
        let mut rng = StdRng::seed_from_u64(7);

        let caller = vuvuzela_crypto::x25519::Keypair::generate(&mut rng);
        let callee = vuvuzela_crypto::x25519::Keypair::generate(&mut rng);
        let num_drops = 2;
        let target = InvitationDropIndex::for_recipient(&callee.public, num_drops);
        let make_round = |round: u64, rng: &mut StdRng| {
            let request = vuvuzela_wire::dialing::DialRequest {
                drop: target,
                invitation: SealedInvitation::seal(rng, &caller.public, &callee.public),
            };
            vec![onion::wrap(rng, &pks, round, &request.encode()).0]
        };
        let rounds: Vec<(u64, Vec<Vec<u8>>)> = (10..13u64)
            .map(|round| (round, make_round(round, &mut rng)))
            .collect();

        let timings = streaming.run_dialing_rounds(rounds.clone(), num_drops);
        assert_eq!(timings.len(), 3);
        for (round, batch) in rounds {
            let _ = sequential.run_dialing_round(round, batch, num_drops);
        }

        let mut got: Vec<_> = streaming.chain().dialing_observables().to_vec();
        got.sort_by_key(|(r, _)| *r);
        assert_eq!(&got, sequential.dialing_observables());

        // Both retain the last round's drops with identical contents.
        let streamed = streaming.download_drop(target).expect("drops exist");
        let reference = sequential.download_drop(target).expect("drops exist");
        assert_eq!(streamed, reference);
        // No server leaked round state (dialing rounds are aborted).
        for i in 0..2 {
            assert_eq!(streaming.chain().server(i).in_flight_rounds(), 0);
        }
    }

    #[test]
    fn mixed_schedule_matches_sequential() {
        let seed = 41;
        let mut streaming = StreamingChain::new(tiny_config(3), seed).with_max_in_flight(3);
        let mut sequential = Chain::new(tiny_config(3), seed);
        let pks = streaming.server_public_keys();
        let mut rng = StdRng::seed_from_u64(13);
        let num_drops = 2;

        // Conversation and dialing interleaved; dialing both adjacent
        // (rounds 1, 2) and separated (round 4).
        let specs: Vec<RoundSpec> = vec![
            RoundSpec::Conversation {
                round: 0,
                batch: client_batch(&pks, 0, 3, &mut rng).into(),
            },
            RoundSpec::Dialing {
                round: 1,
                batch: dial_batch(&pks, 1, 2, &mut rng).into(),
                num_drops,
            },
            RoundSpec::Dialing {
                round: 2,
                batch: dial_batch(&pks, 2, 1, &mut rng).into(),
                num_drops,
            },
            RoundSpec::Conversation {
                round: 3,
                batch: client_batch(&pks, 3, 2, &mut rng).into(),
            },
            RoundSpec::Dialing {
                round: 4,
                batch: dial_batch(&pks, 4, 2, &mut rng).into(),
                num_drops,
            },
        ];

        let outcomes = streaming.run_mixed_schedule(specs.clone());
        let expected: Vec<RoundOutcome> = specs
            .into_iter()
            .map(|spec| sequential.run_round(spec))
            .collect();

        assert_eq!(outcomes.len(), expected.len());
        for (got, want) in outcomes.iter().zip(&expected) {
            assert_eq!(got.replies(), want.replies(), "replies diverged");
        }

        let mut got_obs: Vec<_> = streaming.chain().conversation_observables().to_vec();
        got_obs.sort_by_key(|(r, _)| *r);
        assert_eq!(&got_obs, sequential.conversation_observables());
        let mut got_dial: Vec<_> = streaming.chain().dialing_observables().to_vec();
        got_dial.sort_by_key(|(r, _)| *r);
        assert_eq!(&got_dial, sequential.dialing_observables());

        // Both chains retain the *last* dialing round's drops.
        for drop in 1..=num_drops {
            let index = vuvuzela_wire::deaddrop::InvitationDropIndex(drop);
            assert_eq!(
                streaming.download_drop(index),
                sequential.download_drop(index),
                "drop {drop} diverged"
            );
        }
        for i in 0..3 {
            assert_eq!(streaming.chain().server(i).in_flight_rounds(), 0);
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
            RoundSpec::Conversation {
                round: 0,
                batch: vec![Vec::new(); 4].into(),
            },
            RoundSpec::Dialing {
                round: 1,
                batch: vec![Vec::new(); 4].into(),
                num_drops: 1,
            },
            RoundSpec::Conversation {
                round: 2,
                batch: vec![Vec::new(); 4].into(),
            },
        ];
        let weights = admission_weights(&config, 3, &specs);
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
        let dialing_only = vec![
            RoundSpec::Dialing {
                round: 0,
                batch: vec![Vec::new(); 4].into(),
                num_drops: 1,
            },
            RoundSpec::Dialing {
                round: 1,
                batch: vec![Vec::new(); 400].into(),
                num_drops: 3,
            },
        ];
        assert_eq!(admission_weights(&config, 3, &dialing_only), vec![1, 1]);
        let conversation_only = vec![
            RoundSpec::Conversation {
                round: 0,
                batch: vec![Vec::new(); 10].into(),
            },
            RoundSpec::Conversation {
                round: 1,
                batch: vec![Vec::new(); 500].into(),
            },
        ];
        assert_eq!(
            admission_weights(&config, 3, &conversation_only),
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
        let pks = streaming.server_public_keys();
        let mut rng = StdRng::seed_from_u64(3);
        let specs = vec![
            RoundSpec::Conversation {
                round: 0,
                batch: client_batch(&pks, 0, 2, &mut rng).into(),
            },
            RoundSpec::Dialing {
                round: 1,
                batch: dial_batch(&pks, 1, 1, &mut rng).into(),
                num_drops: 1,
            },
            RoundSpec::Conversation {
                round: 2,
                batch: client_batch(&pks, 2, 2, &mut rng).into(),
            },
        ];
        let weights = admission_weights(&config, 2, &specs);
        assert_eq!(weights[1], 2, "the dialing round fills the window");

        let outcomes = streaming.run_mixed_schedule(specs.clone());
        for (spec, got) in specs.into_iter().zip(outcomes) {
            let want = sequential.run_round(spec);
            assert_eq!(got.replies(), want.replies());
        }
    }

    #[test]
    fn empty_schedule_is_a_noop() {
        let mut streaming = StreamingChain::new(tiny_config(2), 1);
        assert!(streaming.run_conversation_rounds(Vec::new()).is_empty());
        assert!(streaming.run_dialing_rounds(Vec::new(), 1).is_empty());
        assert!(streaming.run_mixed_schedule(Vec::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate round ids")]
    fn duplicate_rounds_rejected() {
        let mut streaming = StreamingChain::new(tiny_config(2), 1);
        let _ = streaming.run_conversation_rounds(vec![(0, vec![]), (0, vec![])]);
    }

    #[test]
    fn panicking_tap_fails_schedule_instead_of_hanging() {
        // An adversary tap (or any stage-side closure) that panics must
        // abort the whole schedule with a panic — never deadlock the
        // feeder or the surviving stages.
        struct ExplodingTap;
        impl vuvuzela_net::Tap for ExplodingTap {
            fn intercept(&mut self, _ctx: &vuvuzela_net::TapContext, _batch: &mut Vec<Vec<u8>>) {
                panic!("tap exploded");
            }
        }

        let mut streaming = StreamingChain::new(tiny_config(3), 3);
        let pks = streaming.server_public_keys();
        streaming
            .chain_mut()
            .link_mut(1)
            .attach_tap(std::sync::Arc::new(parking_lot::Mutex::new(ExplodingTap)));

        let mut rng = StdRng::seed_from_u64(4);
        let rounds: Vec<(u64, Vec<Vec<u8>>)> = (0..3u64)
            .map(|round| (round, client_batch(&pks, round, 2, &mut rng)))
            .collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            streaming.run_conversation_rounds(rounds)
        }));
        assert!(outcome.is_err(), "schedule must fail, not hang");
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
            fn intercept(&mut self, ctx: &vuvuzela_net::TapContext, batch: &mut Vec<Vec<u8>>) {
                if ctx.direction != Direction::Forward {
                    return;
                }
                let mut keep = false;
                batch.retain(|_| {
                    keep = !keep;
                    keep
                });
                if let Some(width) = batch.first().map(Vec::len) {
                    batch.push(vec![0xAB; width]);
                    batch.push(vec![0xCD; width]);
                }
            }
        }

        let mut streaming = StreamingChain::new(tiny_config(3), 17).with_max_in_flight(3);
        let pks = streaming.server_public_keys();
        streaming
            .chain_mut()
            .link_mut(0)
            .attach_tap(std::sync::Arc::new(parking_lot::Mutex::new(DropAndInject)));

        let mut rng = StdRng::seed_from_u64(29);
        let specs = vec![
            RoundSpec::Conversation {
                round: 0,
                batch: client_batch(&pks, 0, 4, &mut rng).into(),
            },
            RoundSpec::Dialing {
                round: 1,
                batch: dial_batch(&pks, 1, 3, &mut rng).into(),
                num_drops: 2,
            },
            RoundSpec::Conversation {
                round: 2,
                batch: client_batch(&pks, 2, 4, &mut rng).into(),
            },
        ];
        let outcomes = streaming.run_mixed_schedule(specs);
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
            fn intercept(&mut self, ctx: &vuvuzela_net::TapContext, batch: &mut Vec<Vec<u8>>) {
                if ctx.direction == Direction::Forward {
                    let copy = batch.clone();
                    batch.extend(copy);
                }
            }
        }

        let chain_len = 2;
        let mut streaming = StreamingChain::new(tiny_config(chain_len), 53);
        let pks = streaming.server_public_keys();
        streaming
            .chain_mut()
            .link_mut(0)
            .attach_tap(std::sync::Arc::new(parking_lot::Mutex::new(DoubleForward)));

        let mut rng = StdRng::seed_from_u64(37);
        let num_drops = 2;
        let rounds: Vec<(u64, Vec<Vec<u8>>)> = (0..3u64)
            .map(|round| (round, dial_batch(&pks, round, 2, &mut rng)))
            .collect();
        let timings = streaming.run_dialing_rounds(rounds, num_drops);
        assert_eq!(timings.len(), 3);
        for (round, timing) in timings.iter().enumerate() {
            assert!(
                timing.backward.is_empty(),
                "dialing round {round} ran a backward stage under tampering"
            );
            for link in streaming.chain().links() {
                assert_eq!(
                    link.round_traffic(round as u64, Direction::Backward),
                    (0, 0),
                    "dialing round {round} put backward traffic on {}",
                    link.name()
                );
            }
        }
        for i in 0..chain_len {
            assert_eq!(streaming.chain().server(i).in_flight_rounds(), 0);
        }
    }

    #[test]
    fn single_server_chain_streams() {
        let seed = 31;
        let mut streaming = StreamingChain::new(tiny_config(1), seed);
        let mut sequential = Chain::new(tiny_config(1), seed);
        let pks = streaming.server_public_keys();
        let mut rng = StdRng::seed_from_u64(9);
        let rounds: Vec<(u64, Vec<Vec<u8>>)> = (0..2u64)
            .map(|round| (round, client_batch(&pks, round, 2, &mut rng)))
            .collect();
        let streamed = streaming.run_conversation_rounds(rounds.clone());
        for ((round, batch), (got, _)) in rounds.into_iter().zip(streamed) {
            let (want, _) = sequential.run_conversation_round(round, batch);
            assert_eq!(got, want, "round {round}");
        }
    }

    #[test]
    fn single_server_mixed_schedule() {
        // chain_len = 1: the tail is also stage 0, so conversation
        // turnarounds and dialing completion notices both exit directly.
        let seed = 61;
        let mut streaming = StreamingChain::new(tiny_config(1), seed).with_max_in_flight(3);
        let mut sequential = Chain::new(tiny_config(1), seed);
        let pks = streaming.server_public_keys();
        let mut rng = StdRng::seed_from_u64(19);
        let specs = vec![
            RoundSpec::Conversation {
                round: 0,
                batch: client_batch(&pks, 0, 2, &mut rng).into(),
            },
            RoundSpec::Dialing {
                round: 1,
                batch: dial_batch(&pks, 1, 1, &mut rng).into(),
                num_drops: 1,
            },
            RoundSpec::Conversation {
                round: 2,
                batch: client_batch(&pks, 2, 1, &mut rng).into(),
            },
        ];
        let outcomes = streaming.run_mixed_schedule(specs.clone());
        for (spec, got) in specs.into_iter().zip(outcomes) {
            let want = sequential.run_round(spec);
            assert_eq!(got.replies(), want.replies());
        }
    }
}
