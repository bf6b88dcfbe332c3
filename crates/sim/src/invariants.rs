//! The per-round invariant checker.
//!
//! Each check corresponds to one property of the paper's privacy
//! argument (the crate docs enumerate them). The core checks are
//! *bounded*: every noise-dependent count must land in an inclusive
//! `[lo, hi]` window. Under deterministic noise mode (`⌈µ⌉` exactly
//! per draw) the windows collapse to equalities, the recipe of
//! [`deterministic_conversation_noise`] / [`deterministic_dialing_noise`]
//! passed as degenerate bounds — so any drift (a client
//! silently skipping a round, noise not covering a histogram, a
//! dialing round growing a backward pass, a privacy charge out of
//! schedule) fails the simulation immediately with the round it
//! happened in. Under sampled noise mode the simulator derives the
//! windows from the Laplace tail
//! ([`vuvuzela_dp::NoiseDistribution::count_bounds`]) and additionally
//! checks end-of-run *concentration*: the empirical mean of every
//! inferred noise draw must sit within `k·σ/√n` of µ
//! ([`check_noise_concentration`]).

use std::collections::BTreeMap;
use vuvuzela_core::observables::{ConversationObservables, DialingObservables};
use vuvuzela_core::record::Traffic;
use vuvuzela_crypto::onion;
use vuvuzela_dp::{compose, ComposedPrivacy, Protocol};
use vuvuzela_wire::{DIAL_REQUEST_LEN, EXCHANGE_REQUEST_LEN, EXCHANGE_RESPONSE_LEN};

/// A failed invariant: which one, in which round, and what diverged.
#[derive(Clone, Debug)]
pub struct InvariantViolation {
    /// The round being checked (`None` for schedule-level checks).
    pub round: Option<u64>,
    /// Short name of the violated invariant.
    pub invariant: &'static str,
    /// Human-readable expected-vs-got detail.
    pub detail: String,
}

impl core::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.round {
            Some(round) => write!(
                f,
                "invariant '{}' violated in round {round}: {}",
                self.invariant, self.detail
            ),
            None => write!(
                f,
                "invariant '{}' violated: {}",
                self.invariant, self.detail
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {}

fn violation(
    round: impl Into<Option<u64>>,
    invariant: &'static str,
    detail: String,
) -> InvariantViolation {
    InvariantViolation {
        round: round.into(),
        invariant,
        detail,
    }
}

/// The deterministic-mode conversation noise one noising server adds:
/// `(singles, pairs)` with `n1 = n2 = ⌈µ⌉`, `pairs = ⌊n2/2⌋`, and
/// `singles = n1` plus the odd-n2 leftover request, which forms a
/// singleton drop (Algorithm 2 step 2).
#[must_use]
pub fn deterministic_conversation_noise(mu: f64) -> (u64, u64) {
    let n = mu.ceil() as u64;
    (n + n % 2, n / 2)
}

/// The deterministic-mode dialing noise one server adds per real drop.
#[must_use]
pub fn deterministic_dialing_noise(mu: f64) -> u64 {
    mu.ceil() as u64
}

/// Everything needed to check one completed conversation round.
#[derive(Clone, Copy)]
pub struct ConversationRoundCheck<'a> {
    /// Round id.
    pub round: u64,
    /// Online clients that participated.
    pub participants: u64,
    /// Conversation slots per client.
    pub slots: u64,
    /// Pairs of participants in a *mutual* active conversation (both
    /// online, both holding the other as a partner) — the real `m2`.
    pub mutual_pairs: u64,
    /// The histogram the last server published for this round.
    pub observables: &'a ConversationObservables,
    /// `(messages, bytes)` the clients→entry link carried forward.
    pub client_link_forward: (u64, u64),
    /// The wrapped request size every submission must have.
    pub onion_width: u64,
    /// Replies handed back to the entry for this round.
    pub replies: u64,
}

/// Invariant 1 alone for a conversation round: every online client
/// submitted exactly one onion per slot of the single fixed size, and
/// got exactly one reply back. Split out so tolerant-mode runs can
/// grade participation and histogram coverage independently — a
/// tampered round often breaks both, and the soak annotations must see
/// both trips, not just the first.
///
/// # Errors
///
/// A `uniform-participation` violation.
pub fn check_conversation_participation(
    c: &ConversationRoundCheck<'_>,
) -> Result<(), InvariantViolation> {
    let submitted = c.participants * c.slots;
    if c.client_link_forward != (submitted, submitted * c.onion_width) {
        return Err(violation(
            c.round,
            "uniform-participation",
            format!(
                "expected {submitted} submissions x {} bytes on clients->entry, got {:?}",
                c.onion_width, c.client_link_forward
            ),
        ));
    }
    if c.replies != submitted {
        return Err(violation(
            c.round,
            "uniform-participation",
            format!("expected {submitted} replies, got {}", c.replies),
        ));
    }
    Ok(())
}

/// Invariant 2 alone for a conversation round: the dead-drop histogram
/// decomposes into the noise recipe plus the scripted real activity,
/// with every noise draw in its inclusive window (degenerate in
/// deterministic mode).
///
/// # Errors
///
/// A `noise-covered-deaddrops` violation.
pub fn check_conversation_histogram(
    chain_len: u64,
    singles: (u64, u64),
    pairs: (u64, u64),
    c: &ConversationRoundCheck<'_>,
) -> Result<(), InvariantViolation> {
    let submitted = c.participants * c.slots;
    let noising = chain_len - 1;
    let base_m1 = submitted - 2 * c.mutual_pairs;
    let m1 = (base_m1 + noising * singles.0, base_m1 + noising * singles.1);
    let m2 = (
        c.mutual_pairs + noising * pairs.0,
        c.mutual_pairs + noising * pairs.1,
    );
    let total = (
        submitted + noising * (singles.0 + 2 * pairs.0),
        submitted + noising * (singles.1 + 2 * pairs.1),
    );
    let obs = c.observables;
    let outside = |got: u64, (lo, hi): (u64, u64)| got < lo || got > hi;
    if obs.m_many != 0
        || outside(obs.m1, m1)
        || outside(obs.m2, m2)
        || outside(obs.total_requests, total)
    {
        return Err(violation(
            c.round,
            "noise-covered-deaddrops",
            format!(
                "expected m1 in [{}, {}], m2 in [{}, {}], m_many 0, total in [{}, {}], \
                 got ({}, {}, {}, {})",
                m1.0,
                m1.1,
                m2.0,
                m2.1,
                total.0,
                total.1,
                obs.m1,
                obs.m2,
                obs.m_many,
                obs.total_requests
            ),
        ));
    }
    Ok(())
}

/// Everything needed to check one completed dialing round.
#[derive(Clone, Copy)]
pub struct DialingRoundCheck<'a> {
    /// Round id.
    pub round: u64,
    /// Online clients that participated.
    pub participants: u64,
    /// Real invitations the script sent to each drop this round.
    pub real_per_drop: &'a [u64],
    /// Per-drop counts the last server published.
    pub observables: &'a DialingObservables,
    /// `(messages, bytes)` the clients→entry link carried forward.
    pub client_link_forward: (u64, u64),
    /// `(messages, bytes)` the clients→entry link carried backward.
    pub client_link_backward: (u64, u64),
    /// The wrapped dial-request size every submission must have.
    pub onion_width: u64,
    /// Backward-pass stage timings recorded for the round (must be 0).
    pub backward_stages: u64,
}

/// Invariants 1 and 3 alone for a dialing round: uniform participation
/// on the client link and forward-only execution. Split out for the
/// same reason as [`check_conversation_participation`].
///
/// # Errors
///
/// A `uniform-participation` or `dialing-forward-only` violation.
pub fn check_dialing_participation(c: &DialingRoundCheck<'_>) -> Result<(), InvariantViolation> {
    if c.client_link_forward != (c.participants, c.participants * c.onion_width) {
        return Err(violation(
            c.round,
            "uniform-participation",
            format!(
                "expected {} dial requests x {} bytes on clients->entry, got {:?}",
                c.participants, c.onion_width, c.client_link_forward
            ),
        ));
    }
    // 3. Forward-only: no backward stage ran, nothing flowed back.
    if c.backward_stages != 0 || c.client_link_backward != (0, 0) {
        return Err(violation(
            c.round,
            "dialing-forward-only",
            format!(
                "dialing round took a backward pass: {} stages, {:?} on clients->entry",
                c.backward_stages, c.client_link_backward
            ),
        ));
    }
    Ok(())
}

/// Invariant 2 alone for a dialing round: per-drop counts and no-op
/// writes against the per-server per-drop draw window `per_draw = [lo,
/// hi]`. Each drop's count must land in `real + chain_len·[lo, hi]`
/// (every server, including the last, draws once per drop — §5.3).
///
/// # Errors
///
/// A `noise-covered-deaddrops` violation.
pub fn check_dialing_counts(
    chain_len: u64,
    per_draw: (u64, u64),
    c: &DialingRoundCheck<'_>,
) -> Result<(), InvariantViolation> {
    // 2. Per-drop counts: real dials plus one in-window draw per server.
    if c.observables.counts.len() != c.real_per_drop.len() {
        return Err(violation(
            c.round,
            "noise-covered-deaddrops",
            format!(
                "expected {} per-drop counts, got {:?}",
                c.real_per_drop.len(),
                c.observables.counts
            ),
        ));
    }
    for (index, (&real, &got)) in c
        .real_per_drop
        .iter()
        .zip(&c.observables.counts)
        .enumerate()
    {
        let lo = real + chain_len * per_draw.0;
        let hi = real + chain_len * per_draw.1;
        if got < lo || got > hi {
            return Err(violation(
                c.round,
                "noise-covered-deaddrops",
                format!("expected drop {index} count in [{lo}, {hi}], got {got}"),
            ));
        }
    }
    let real_total: u64 = c.real_per_drop.iter().sum();
    let expect_noop = c.participants - real_total;
    if c.observables.noop_writes != expect_noop {
        return Err(violation(
            c.round,
            "noise-covered-deaddrops",
            format!(
                "expected {expect_noop} no-op writes, got {}",
                c.observables.noop_writes
            ),
        ));
    }
    Ok(())
}

/// Checks invariant 4: the ledger's composed (ε′, δ′) after charging
/// round `k` of `protocol` strictly exceeds the previous spend in both
/// components and equals an independent Theorem-2 recomputation.
///
/// # Errors
///
/// A `privacy-monotone` violation if the spend failed to grow or
/// diverged from the recomputation.
#[allow(clippy::too_many_arguments)] // the full Theorem-2 parameter set
pub fn check_privacy_charge(
    round: u64,
    protocol: Protocol,
    k: u64,
    mu: f64,
    b: f64,
    d: f64,
    charged: ComposedPrivacy,
    previous: ComposedPrivacy,
) -> Result<(), InvariantViolation> {
    if !(charged.epsilon > previous.epsilon && charged.delta > previous.delta) {
        return Err(violation(
            round,
            "privacy-monotone",
            format!(
                "spend did not grow: ({}, {:e}) after ({}, {:e})",
                charged.epsilon, charged.delta, previous.epsilon, previous.delta
            ),
        ));
    }
    let reference = compose(
        vuvuzela_dp::accounting::round_privacy(protocol, mu, b),
        k,
        d,
    );
    if charged.epsilon != reference.epsilon || charged.delta != reference.delta {
        return Err(violation(
            round,
            "privacy-monotone",
            format!(
                "spend diverged from the planner schedule at k = {k}: \
                 charged ({}, {:e}), recomputed ({}, {:e})",
                charged.epsilon, charged.delta, reference.epsilon, reference.delta
            ),
        ));
    }
    Ok(())
}

/// One observed link's traffic for one completed round in one
/// direction, summed from the round record: every pass that sent on the
/// link that way ([`vuvuzela_core::record::Public::sent_on`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Crossings {
    /// Batches that crossed: one for every honest round.
    pub batches: u64,
    /// Their onions and bytes in all.
    pub traffic: Traffic,
}

impl Crossings {
    /// Counts one more batch of `traffic`.
    pub fn add(&mut self, traffic: Traffic) {
        self.batches += 1;
        self.traffic.onions += traffic.onions;
        self.traffic.bytes += traffic.bytes;
    }

    /// The batches' onion width; zero when they carried no onion.
    #[must_use]
    pub fn width(&self) -> u64 {
        self.traffic
            .bytes
            .checked_div(self.traffic.onions)
            .unwrap_or(0)
    }
}

/// Checks invariant 5 on chain link `link` of a `chain_len`-server
/// chain for one schedule. `rounds` maps each completed round to its
/// [`RoundShape`] and what crossed the link for it, forward then
/// backward. Every batch carries exactly the width its round's kind
/// implies at that chain position, each round crossed the link exactly
/// once forward (and, for conversation rounds, once backward), and the
/// batch is `submitted + link·noise` onions strong for an in-window
/// per-server noise draw (exact in deterministic mode, where the shape's
/// `lo == hi`).
///
/// # Errors
///
/// A `fixed-sizes-under-taps` violation naming the first divergent
/// batch.
pub fn check_tap_sizes(
    link: usize,
    chain_len: usize,
    rounds: &BTreeMap<u64, (RoundShape, [Crossings; 2])>,
) -> Result<(), InvariantViolation> {
    // `remaining` layers are still wrapped at this link.
    let remaining = chain_len - link;
    for (&round, (shape, crossed)) in rounds {
        for (crossing, forward) in crossed.iter().zip([true, false]) {
            if crossing.batches == 0 {
                continue;
            }
            if !forward && !shape.is_conversation {
                return Err(violation(
                    round,
                    "dialing-forward-only",
                    format!("tap on link {link} saw backward traffic for a dialing round"),
                ));
            }
            let want_width = if !forward {
                EXCHANGE_RESPONSE_LEN + remaining * onion::REPLY_LAYER_OVERHEAD
            } else if shape.is_conversation {
                onion::wrapped_len(EXCHANGE_REQUEST_LEN, remaining)
            } else {
                onion::wrapped_len(DIAL_REQUEST_LEN, remaining)
            } as u64;
            let want_lo = shape.submitted + link as u64 * shape.noise_per_server_lo;
            let want_hi = shape.submitted + link as u64 * shape.noise_per_server_hi;
            let onions = crossing.traffic.onions;
            if onions < want_lo || onions > want_hi {
                return Err(violation(
                    round,
                    "fixed-sizes-under-taps",
                    format!(
                        "link {link} {}: expected onion count in [{want_lo}, {want_hi}], saw {onions}",
                        direction_name(forward),
                    ),
                ));
            }
            if onions > 0 && crossing.width() != want_width {
                return Err(violation(
                    round,
                    "fixed-sizes-under-taps",
                    format!(
                        "link {link} {}: expected uniform size {want_width}, saw {{{}}}",
                        direction_name(forward),
                        crossing.width()
                    ),
                ));
            }
        }
    }
    // Every completed round crossed exactly once per direction it has.
    for (&round, (shape, [forward, backward])) in rounds {
        if forward.batches != 1 {
            return Err(violation(
                round,
                "fixed-sizes-under-taps",
                format!("link {link} forward batch count != 1"),
            ));
        }
        let want_back = u64::from(shape.is_conversation);
        if backward.batches != want_back {
            return Err(violation(
                round,
                "fixed-sizes-under-taps",
                format!("link {link} backward batch count != {want_back}"),
            ));
        }
    }
    Ok(())
}

/// The expected shape of one completed round's traffic, at any link.
#[derive(Clone, Copy, Debug)]
pub struct RoundShape {
    /// Whether the round has a backward pass.
    pub is_conversation: bool,
    /// Client submissions feeding the round.
    pub submitted: u64,
    /// Fewest noise onions each upstream noising server may have added
    /// (equals `noise_per_server_hi` in deterministic mode).
    pub noise_per_server_lo: u64,
    /// Most noise onions each upstream noising server may have added.
    pub noise_per_server_hi: u64,
}

fn direction_name(forward: bool) -> &'static str {
    if forward {
        "forward"
    } else {
        "backward"
    }
}

/// Running sums of every noise draw a sampled-mode run inferred from
/// its observables, for the end-of-run concentration check. Sums are
/// `i128` because tampering can push an inferred draw negative (e.g. a
/// dropped batch deflates `m1` below the noise-free baseline) and the
/// concentration invariant must see that deficit, not saturate it away.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoiseSoakStats {
    /// Single-noise draws inferred: one per noising server per
    /// completed conversation round.
    pub conversation_draws: u64,
    /// Σ (m1 − noise-free baseline) over completed conversation rounds.
    pub singles_sum: i128,
    /// Σ (m2 − mutual pairs) over completed conversation rounds.
    pub pairs_sum: i128,
    /// Dialing draws inferred: one per server per drop per completed
    /// dialing round.
    pub dialing_draws: u64,
    /// Σ (count − real) over every drop of every completed dialing
    /// round.
    pub dialing_sum: i128,
}

impl NoiseSoakStats {
    /// Folds in one completed conversation round: `noising` servers
    /// each drew once, and the histogram implies the given total noise
    /// singles (`m1 −` noise-free baseline) and pairs (`m2 − mutual`).
    pub fn record_conversation(&mut self, noising: u64, singles: i128, pairs: i128) {
        self.conversation_draws += noising;
        self.singles_sum += singles;
        self.pairs_sum += pairs;
    }

    /// Folds in one completed dialing round: each drop's count exceeds
    /// the scripted real dials by the sum of `chain_len` draws.
    pub fn record_dialing(
        &mut self,
        chain_len: u64,
        inferred_per_drop: impl IntoIterator<Item = i128>,
    ) {
        for inferred in inferred_per_drop {
            self.dialing_draws += chain_len;
            self.dialing_sum += inferred;
        }
    }
}

/// Checks the `noise-concentration` invariant for one draw family: the
/// empirical mean of `draws` inferred noise draws summing to `sum` must
/// land in `[µ − bias_lo − k·σ/√n, µ + bias_hi + k·σ/√n]` for
/// `bias = (bias_lo, bias_hi)`. The deterministic biases cover the
/// rounding in each family's recipe: ceiling a draw shifts it up by as
/// much as 1 (singles, dialing), Algorithm 2's `⌊n2/2⌋` pairing shifts
/// the pair count *down* by up to ½ a pair, and the odd leftover adds
/// up to 1 more singleton per draw. Zero draws trivially pass — an
/// all-dialing run has no conversation draws to concentrate.
///
/// # Errors
///
/// A `noise-concentration` violation with the mean and its window.
pub fn check_noise_concentration(
    family: &'static str,
    mu: f64,
    sigma: f64,
    k: f64,
    bias: (f64, f64),
    draws: u64,
    sum: i128,
) -> Result<(), InvariantViolation> {
    if draws == 0 {
        return Ok(());
    }
    let mean = sum as f64 / draws as f64;
    let half_width = k * sigma / (draws as f64).sqrt();
    let lo = mu - bias.0 - half_width;
    let hi = mu + bias.1 + half_width;
    if mean < lo || mean > hi {
        return Err(violation(
            None,
            "noise-concentration",
            format!(
                "{family}: empirical mean {mean:.4} over {draws} draws outside \
                 [{lo:.4}, {hi:.4}] (mu {mu}, sigma {sigma:.4})"
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_noise_recipe() {
        assert_eq!(deterministic_conversation_noise(6.0), (6, 3));
        // Odd ⌈µ⌉: n2 = 5 pairs into ⌊5/2⌋ = 2 drops and the leftover
        // request becomes a 6th singleton; total onions stay n1 + n2.
        assert_eq!(deterministic_conversation_noise(5.0), (6, 2));
        for (mu, onions) in [(6.0, 12), (5.0, 10)] {
            let (singles, pairs) = deterministic_conversation_noise(mu);
            assert_eq!(singles + 2 * pairs, onions);
        }
        assert_eq!(deterministic_dialing_noise(3.0), 3);
    }

    #[test]
    fn conversation_check_accepts_exact_decomposition() {
        // 3 servers, µ=6 → 2 noising servers x (6 singles + 3 pairs);
        // 10 participants, 2 mutual pairs.
        let obs = ConversationObservables {
            m1: 2 * 6 + (10 - 4),
            m2: 2 * 3 + 2,
            m_many: 0,
            total_requests: 10 + 2 * 12,
        };
        let check = ConversationRoundCheck {
            round: 7,
            participants: 10,
            slots: 1,
            mutual_pairs: 2,
            observables: &obs,
            client_link_forward: (10, 10 * 500),
            onion_width: 500,
            replies: 10,
        };
        let (singles, pairs) = deterministic_conversation_noise(6.0);
        let histogram =
            |c: &_| check_conversation_histogram(3, (singles, singles), (pairs, pairs), c);
        check_conversation_participation(&check).expect("exact participation passes");
        histogram(&check).expect("exact decomposition passes");

        // One missing submission fails invariant 1.
        let short = ConversationRoundCheck {
            client_link_forward: (9, 9 * 500),
            ..check
        };
        let err = check_conversation_participation(&short).expect_err("must fail");
        assert_eq!(err.invariant, "uniform-participation");

        // A histogram off by one fails invariant 2.
        let skew = ConversationObservables {
            m1: obs.m1 + 1,
            ..obs
        };
        let bad = ConversationRoundCheck {
            observables: &skew,
            ..check
        };
        let err = histogram(&bad).expect_err("must fail");
        assert_eq!(err.invariant, "noise-covered-deaddrops");
    }

    #[test]
    fn dialing_check_enforces_forward_only() {
        let obs = DialingObservables {
            counts: vec![3 * 3 + 2],
            noop_writes: 6,
        };
        let check = DialingRoundCheck {
            round: 4,
            participants: 8,
            real_per_drop: &[2],
            observables: &obs,
            client_link_forward: (8, 8 * 300),
            client_link_backward: (0, 0),
            onion_width: 300,
            backward_stages: 0,
        };
        let noise = deterministic_dialing_noise(3.0);
        check_dialing_participation(&check).expect("passes");
        check_dialing_counts(3, (noise, noise), &check).expect("passes");

        let backward = DialingRoundCheck {
            client_link_backward: (1, 300),
            ..check
        };
        let err = check_dialing_participation(&backward).expect_err("must fail");
        assert_eq!(err.invariant, "dialing-forward-only");

        let uncovered = DialingObservables {
            counts: vec![2], // no noise reached the drop
            noop_writes: 6,
        };
        let bad = DialingRoundCheck {
            observables: &uncovered,
            ..check
        };
        let err = check_dialing_counts(3, (noise, noise), &bad).expect_err("must fail");
        assert_eq!(err.invariant, "noise-covered-deaddrops");
    }

    #[test]
    fn privacy_charge_must_match_theorem2() {
        let prev = ComposedPrivacy {
            epsilon: 0.0,
            delta: 1e-5,
        };
        let k1 = compose(
            vuvuzela_dp::accounting::round_privacy(Protocol::Conversation, 6.0, 0.3),
            1,
            1e-5,
        );
        check_privacy_charge(0, Protocol::Conversation, 1, 6.0, 0.3, 1e-5, k1, prev)
            .expect("exact charge passes");
        // Charging the wrong k diverges from the recomputation.
        let err = check_privacy_charge(0, Protocol::Conversation, 2, 6.0, 0.3, 1e-5, k1, prev)
            .expect_err("must fail");
        assert_eq!(err.invariant, "privacy-monotone");
        // Non-growing spend fails.
        let err = check_privacy_charge(0, Protocol::Conversation, 1, 6.0, 0.3, 1e-5, k1, k1)
            .expect_err("must fail");
        assert_eq!(err.invariant, "privacy-monotone");
    }

    #[test]
    fn tap_check_validates_widths_and_counts() {
        // Link 1 of a 3-server chain: two layers still wrapped.
        let (forward_width, backward_width) = (
            onion::wrapped_len(EXCHANGE_REQUEST_LEN, 2) as u64,
            (EXCHANGE_RESPONSE_LEN + 2 * onion::REPLY_LAYER_OVERHEAD) as u64,
        );
        let shape = RoundShape {
            is_conversation: true,
            submitted: 4,
            noise_per_server_lo: 12,
            noise_per_server_hi: 12,
        };
        let crossed = |batches: &[(bool, u64, u64)]| {
            let mut crossed = [Crossings::default(); 2];
            for &(forward, onions, width) in batches {
                crossed[usize::from(!forward)].add(Traffic {
                    onions,
                    bytes: onions * width,
                });
            }
            crossed
        };
        let check = |shape: RoundShape, batches: &[(bool, u64, u64)]| {
            check_tap_sizes(1, 3, &BTreeMap::from([(0, (shape, crossed(batches)))]))
        };
        let good = [(true, 16, forward_width), (false, 16, backward_width)];
        check(shape, &good).expect("passes");

        let wide = [(true, 16, forward_width - 1), (false, 16, backward_width)];
        assert!(check(shape, &wide).is_err());

        let missing = [(true, 16, forward_width)];
        assert!(check(shape, &missing).is_err(), "no backward batch");
        let twice = [
            (true, 8, forward_width),
            (true, 8, forward_width),
            (false, 16, backward_width),
        ];
        assert!(check(shape, &twice).is_err(), "two forward batches");

        // A non-degenerate noise window accepts any in-range count...
        let window = RoundShape {
            noise_per_server_lo: 10,
            noise_per_server_hi: 14,
            ..shape
        };
        let low = [(true, 14, forward_width), (false, 14, backward_width)];
        check(window, &low).expect("in-window count passes");
        // ...but not one outside it.
        let thin = [(true, 13, forward_width), (false, 14, backward_width)];
        let err = check(window, &thin).expect_err("must fail");
        assert_eq!(err.invariant, "fixed-sizes-under-taps");
    }

    #[test]
    fn bounded_conversation_check_accepts_windows() {
        // 3 servers, 10 participants, 2 mutual pairs; noise drawn one
        // above / one below the mean per family.
        let obs = ConversationObservables {
            m1: (10 - 4) + 5 + 7,
            m2: 2 + 3 + 4,
            m_many: 0,
            total_requests: 10 + (5 + 7) + 2 * (3 + 4),
        };
        let check = ConversationRoundCheck {
            round: 3,
            participants: 10,
            slots: 1,
            mutual_pairs: 2,
            observables: &obs,
            client_link_forward: (10, 10 * 500),
            onion_width: 500,
            replies: 10,
        };
        check_conversation_participation(&check).expect("in-window passes");
        check_conversation_histogram(3, (4, 8), (2, 5), &check).expect("in-window passes");
        // The same histogram fails a singles window above the draws
        // (m1 = 18 < base 6 + 2 noising servers x lo 7).
        let err = check_conversation_histogram(3, (7, 8), (2, 5), &check).expect_err("must fail");
        assert_eq!(err.invariant, "noise-covered-deaddrops");
        // Participation stays exact even with loose windows.
        let short = ConversationRoundCheck {
            replies: 9,
            ..check
        };
        let err = check_conversation_participation(&short).expect_err("must fail");
        assert_eq!(err.invariant, "uniform-participation");
    }

    #[test]
    fn bounded_dialing_check_accepts_windows() {
        let obs = DialingObservables {
            counts: vec![2 + 8, 11],
            noop_writes: 6,
        };
        let check = DialingRoundCheck {
            round: 5,
            participants: 8,
            real_per_drop: &[2, 0],
            observables: &obs,
            client_link_forward: (8, 8 * 300),
            client_link_backward: (0, 0),
            onion_width: 300,
            backward_stages: 0,
        };
        // 3 servers x per-draw window [2, 4] → drop windows [6, 12].
        check_dialing_participation(&check).expect("in-window passes");
        check_dialing_counts(3, (2, 4), &check).expect("in-window passes");
        let err = check_dialing_counts(3, (3, 4), &check).expect_err("must fail");
        assert_eq!(err.invariant, "noise-covered-deaddrops");
        // Forward-only is exact regardless of the window.
        let backward = DialingRoundCheck {
            backward_stages: 1,
            ..check
        };
        let err = check_dialing_participation(&backward).expect_err("must fail");
        assert_eq!(err.invariant, "dialing-forward-only");
    }

    #[test]
    fn concentration_check_windows_the_empirical_mean() {
        // 100 draws at mean 6.30 against µ = 6, σ = √2·0.5: inside
        // [6 − k·σ/10, 7 + k·σ/10] for k = 6 and bias (0, 1).
        let sigma = std::f64::consts::SQRT_2 * 0.5;
        let bias = (0.0, 1.0);
        check_noise_concentration("singles", 6.0, sigma, 6.0, bias, 100, 630)
            .expect("near-mean passes");
        // A mean far below µ trips even the ceil-biased window.
        let err = check_noise_concentration("singles", 6.0, sigma, 6.0, bias, 100, 400)
            .expect_err("must fail");
        assert_eq!(err.invariant, "noise-concentration");
        assert!(err.detail.contains("singles"), "{}", err.detail);
        // A mean far above µ + bias trips too, and zero draws pass.
        assert!(check_noise_concentration("singles", 6.0, sigma, 6.0, bias, 100, 900).is_err());
        check_noise_concentration("singles", 6.0, sigma, 6.0, bias, 0, 0).expect("vacuous");
        // A downward bias widens the floor: mean 2.7 vs µ/2 = 3 passes
        // with pairs bias (0.5, 1.0) but a mean below µ/2 − 0.5 − k·σ/√n
        // still trips.
        check_noise_concentration("pairs", 3.0, sigma / 2.0, 6.0, (0.5, 1.0), 100, 270)
            .expect("floor-biased mean passes");
        assert!(
            check_noise_concentration("pairs", 3.0, sigma / 2.0, 6.0, (0.5, 1.0), 100, 180)
                .is_err()
        );
    }
}
