//! The noise planner: choosing (µ, b) for a target multi-round guarantee
//! (paper §6.4), and generating the privacy-vs-rounds series behind
//! Figures 7 and 8.

use crate::accounting::{compose, round_privacy, ComposedPrivacy, Protocol};

/// A multi-round privacy target (ε′, δ′) with the composition free
/// parameter d.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrivacyTarget {
    /// Target ε′ after composition. The paper's standard is ln 2.
    pub epsilon: f64,
    /// Target δ′ after composition. The paper's standard is 10⁻⁴.
    pub delta: f64,
    /// Theorem 2's free parameter d (paper: 10⁻⁵).
    pub d: f64,
}

impl Default for PrivacyTarget {
    /// The paper's canonical target: ε′ = ln 2, δ′ = 10⁻⁴, d = 10⁻⁵.
    fn default() -> Self {
        PrivacyTarget {
            epsilon: core::f64::consts::LN_2,
            delta: 1e-4,
            d: 1e-5,
        }
    }
}

/// The largest number of rounds k for which noise (µ, b) still meets the
/// target, found by binary search (both ε′ and δ′ are monotone in k).
///
/// Returns 0 if even a single round violates the target.
#[must_use]
pub fn max_protected_rounds(protocol: Protocol, mu: f64, b: f64, target: PrivacyTarget) -> u64 {
    let round = round_privacy(protocol, mu, b);
    let meets = |k: u64| -> bool {
        if k == 0 {
            return true;
        }
        let c = compose(round, k, target.d);
        c.epsilon <= target.epsilon && c.delta <= target.delta
    };
    if !meets(1) {
        return 0;
    }
    // Exponential probe then binary search.
    let mut hi = 1u64;
    while meets(hi) && hi < (1 << 40) {
        hi <<= 1;
    }
    let mut lo = hi >> 1;
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Result of a scale sweep: the best b for a given µ and the number of
/// rounds it protects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TunedScale {
    /// The chosen Laplace scale.
    pub b: f64,
    /// Rounds protected at the target with this (µ, b).
    pub rounds: u64,
}

/// §6.4's parameter sweep: for a fixed mean µ, pick the scale b that
/// maximises the number of protected rounds at the target.
///
/// Larger b improves per-round ε (more smearing) but worsens δ
/// (footnote 10: "δ′ grows with b and ε′ falls with it"), so the optimum
/// is interior; we sweep a geometric grid and refine linearly.
#[must_use]
pub fn tune_scale(protocol: Protocol, mu: f64, target: PrivacyTarget) -> TunedScale {
    let mut best = TunedScale { b: 1.0, rounds: 0 };
    // Geometric coarse sweep: b from µ/1000 to µ.
    let mut b = (mu / 1000.0).max(1.0);
    while b <= mu {
        let rounds = max_protected_rounds(protocol, mu, b, target);
        if rounds > best.rounds {
            best = TunedScale { b, rounds };
        }
        b *= 1.1;
    }
    // Linear refinement around the winner.
    let lo = best.b / 1.1;
    let hi = best.b * 1.1;
    let steps = 40;
    for i in 0..=steps {
        let b = lo + (hi - lo) * f64::from(i) / f64::from(steps);
        let rounds = max_protected_rounds(protocol, mu, b, target);
        if rounds > best.rounds {
            best = TunedScale { b, rounds };
        }
    }
    best
}

/// One point of a Figure 7 / Figure 8 privacy curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PrivacyPoint {
    /// Number of composed rounds.
    pub k: u64,
    /// e^ε′ (the paper plots e^ε′ "to let the reader easily see the level
    /// of deniability").
    pub e_epsilon: f64,
    /// δ′.
    pub delta: f64,
}

/// Generates the (k, e^ε′, δ′) series for one noise configuration — the
/// data behind Figures 7 (conversation) and 8 (dialing).
#[must_use]
pub fn privacy_series(
    protocol: Protocol,
    mu: f64,
    b: f64,
    ks: &[u64],
    d: f64,
) -> Vec<PrivacyPoint> {
    let round = round_privacy(protocol, mu, b);
    ks.iter()
        .map(|&k| {
            let ComposedPrivacy { epsilon, delta } = compose(round, k, d);
            PrivacyPoint {
                k,
                e_epsilon: epsilon.exp(),
                delta,
            }
        })
        .collect()
}

/// Per-round-type noise budget: the expected number of cover requests
/// **one** noising server injects into a round of the given protocol.
///
/// Conversation servers draw `n1, n2 ~ Laplace(µ, b)` and emit `n1`
/// singles plus `n2` paired accesses (Algorithm 2 step 2), ≈ `2µ`
/// requests; dialing servers draw `Laplace(µ, b)` noise invitations *per
/// real drop* (§5.3), ≈ `µ·m`. This is the lookup a mixed-round
/// scheduler prices rounds with: at the paper's parameters a dialing
/// round (µ = 13,000 per drop) is far heavier than its client batch
/// alone suggests, so its admission weight must reflect the noise
/// budget, not just the request count.
#[must_use]
pub fn expected_noise_requests(protocol: Protocol, mu: f64, num_drops: u32) -> f64 {
    match protocol {
        Protocol::Conversation => 2.0 * mu,
        Protocol::Dialing => mu * f64::from(num_drops),
    }
}

/// §5.4's invitation-drop count optimization: `m = n·f/µ`.
///
/// With `n` users of which a fraction `f` send real invitations per
/// dialing round and per-drop noise mean `µ` (per server), choosing
/// `m = n·f/µ` makes each drop hold roughly equal parts real and noise
/// invitations, so "the overall processing load on the servers is only
/// 2× the load of the real invitations" while each client downloads just
/// one drop's worth. `m` is "purely an optimization: regardless of m,
/// each user is protected by the level of noise, µ".
///
/// Returns at least 1 (a dialing round always has one real drop).
#[must_use]
pub fn optimal_num_drops(users: u64, dial_fraction: f64, mu: f64) -> u32 {
    assert!((0.0..=1.0).contains(&dial_fraction), "fraction in [0,1]");
    assert!(mu > 0.0, "noise mean must be positive");
    let m = (users as f64 * dial_fraction / mu).round();
    m.max(1.0).min(f64::from(u32::MAX)) as u32
}

/// The per-client download size (in invitations) implied by a choice of
/// `m`: one drop's real share plus every server's noise.
#[must_use]
pub fn drop_download_invitations(
    users: u64,
    dial_fraction: f64,
    mu: f64,
    num_drops: u32,
    servers: usize,
) -> f64 {
    let real_per_drop = users as f64 * dial_fraction / f64::from(num_drops);
    real_per_drop + mu * servers as f64
}

/// Total server-side noise invitations per dialing round for a choice of
/// `m` (the §5.4 trade-off against [`drop_download_invitations`]).
#[must_use]
pub fn total_noise_invitations(mu: f64, num_drops: u32, servers: usize) -> f64 {
    mu * f64::from(num_drops) * servers as f64
}

/// Bayes-rule posterior bound (§6.4): an adversary with prior `p` that two
/// users are talking ends with posterior at most `e^ε·p / (e^ε·p + 1 − p)`
/// after observing an (ε, ·)-DP system.
///
/// # Panics
///
/// Panics if `prior` is outside [0, 1].
#[must_use]
pub fn posterior_bound(prior: f64, epsilon: f64) -> f64 {
    assert!((0.0..=1.0).contains(&prior), "prior must be a probability");
    let amplified = epsilon.exp() * prior;
    amplified / (amplified + (1.0 - prior))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LN2: f64 = core::f64::consts::LN_2;
    const LN3: f64 = 1.0986122886681098;

    #[test]
    fn paper_mu_300k_protects_quarter_million_rounds() {
        let rounds = max_protected_rounds(
            Protocol::Conversation,
            300_000.0,
            13_800.0,
            PrivacyTarget::default(),
        );
        // §6.4 claims 250,000 rounds for this configuration.
        assert!((200_000..=300_000).contains(&rounds), "got {rounds} rounds");
    }

    #[test]
    fn paper_mu_150k_protects_70k_rounds() {
        let rounds = max_protected_rounds(
            Protocol::Conversation,
            150_000.0,
            7_300.0,
            PrivacyTarget::default(),
        );
        assert!((55_000..=90_000).contains(&rounds), "got {rounds} rounds");
    }

    #[test]
    fn paper_mu_450k_protects_500k_rounds() {
        let rounds = max_protected_rounds(
            Protocol::Conversation,
            450_000.0,
            20_000.0,
            PrivacyTarget::default(),
        );
        assert!((400_000..=600_000).contains(&rounds), "got {rounds} rounds");
    }

    #[test]
    fn tuning_recovers_paper_scales() {
        // For µ=300K the paper picked b=13,800; the sweep should land in
        // the same neighbourhood and protect at least as many rounds.
        let tuned = tune_scale(Protocol::Conversation, 300_000.0, PrivacyTarget::default());
        assert!(
            (10_000.0..=18_000.0).contains(&tuned.b),
            "tuned b = {}",
            tuned.b
        );
        // The paper quotes "250,000 rounds"; the exact Theorem-2 arithmetic
        // tops out a few percent lower.
        assert!(tuned.rounds >= 230_000, "tuned rounds = {}", tuned.rounds);
    }

    #[test]
    fn dialing_configurations_cover_paper_rounds() {
        // §6.5: µ=8000/13000/20000 cover ≈1200/3500/8000 dialing rounds.
        // The paper's counts are approximate; the exact Theorem-2
        // arithmetic lands 10–25% lower on the larger two configurations,
        // so the brackets here are generous below.
        let t = PrivacyTarget::default();
        let small = max_protected_rounds(Protocol::Dialing, 8_000.0, 500.0, t);
        assert!((900..=1_800).contains(&small), "µ=8K got {small}");
        let mid = max_protected_rounds(Protocol::Dialing, 13_000.0, 770.0, t);
        assert!((2_400..=4_500).contains(&mid), "µ=13K got {mid}");
        let large = max_protected_rounds(Protocol::Dialing, 20_000.0, 1_130.0, t);
        assert!((5_500..=10_000).contains(&large), "µ=20K got {large}");
    }

    #[test]
    fn more_noise_protects_more_rounds() {
        let t = PrivacyTarget::default();
        let a = tune_scale(Protocol::Conversation, 150_000.0, t).rounds;
        let b = tune_scale(Protocol::Conversation, 300_000.0, t).rounds;
        let c = tune_scale(Protocol::Conversation, 450_000.0, t).rounds;
        assert!(a < b && b < c, "{a} < {b} < {c} violated");
    }

    #[test]
    fn mu_scales_with_sqrt_k() {
        // §6.4: "µ increases proportionally to √k". Doubling protected
        // rounds four-fold should roughly double the µ needed. We verify
        // the tuned rounds ratio between µ and 2µ is ≈4.
        let t = PrivacyTarget::default();
        let r1 = tune_scale(Protocol::Conversation, 100_000.0, t).rounds as f64;
        let r2 = tune_scale(Protocol::Conversation, 200_000.0, t).rounds as f64;
        let ratio = r2 / r1;
        assert!(
            (3.0..=5.0).contains(&ratio),
            "rounds should scale ~4x when µ doubles, got {ratio}"
        );
    }

    #[test]
    fn posterior_bounds_match_paper_examples() {
        // §6.4: prior 50% → 67% at ε=ln 2, 75% at ε=ln 3; prior 1% → 3%
        // at ε=ln 3.
        assert!((posterior_bound(0.5, LN2) - 2.0 / 3.0).abs() < 1e-9);
        assert!((posterior_bound(0.5, LN3) - 0.75).abs() < 1e-9);
        assert!((posterior_bound(0.01, LN3) - 0.0294).abs() < 5e-4);
    }

    #[test]
    fn posterior_with_zero_epsilon_is_prior() {
        assert!((posterior_bound(0.3, 0.0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn figure7_series_shape() {
        // e^ε′ grows monotonically with k and passes 2.0 near the
        // advertised 250K rounds for µ=300K.
        let ks: Vec<u64> = (1..=20).map(|i| i * 50_000).collect();
        let series = privacy_series(Protocol::Conversation, 300_000.0, 13_800.0, &ks, 1e-5);
        for w in series.windows(2) {
            assert!(w[1].e_epsilon > w[0].e_epsilon);
            assert!(w[1].delta > w[0].delta);
        }
        let at_250k = series.iter().find(|p| p.k == 250_000).expect("point");
        assert!(
            (at_250k.e_epsilon - 2.0).abs() < 0.2,
            "e^ε′ at 250K ≈ 2, got {}",
            at_250k.e_epsilon
        );
    }

    #[test]
    fn paper_drop_count_example() {
        // §8.1/§5.4: 1M users, 5% dialing, µ=13,000 → n·f/µ ≈ 3.8, i.e.
        // a handful of drops; at the paper's own evaluation scale the
        // optimum is m=1 ("the optimal number of introduction dead drops
        // is one", §7).
        assert_eq!(optimal_num_drops(1_000_000, 0.05, 13_000.0), 4);
        assert_eq!(optimal_num_drops(1_000, 0.05, 13_000.0), 1);
    }

    #[test]
    fn optimal_m_balances_real_and_noise() {
        // At m = n·f/µ, each drop holds ≈µ real + µ·servers noise; the
        // real share equals one server's noise share.
        let (users, f, mu) = (2_000_000u64, 0.05, 10_000.0);
        let m = optimal_num_drops(users, f, mu);
        let real_per_drop = users as f64 * f / f64::from(m);
        assert!((real_per_drop - mu).abs() / mu < 0.05);
    }

    #[test]
    fn drop_download_tradeoff_is_monotone() {
        // More drops → smaller per-client download, bigger total noise.
        let (users, f, mu, servers) = (1_000_000u64, 0.05, 13_000.0, 3);
        let mut last_download = f64::INFINITY;
        let mut last_noise = 0.0;
        for m in [1u32, 2, 4, 8, 16] {
            let dl = drop_download_invitations(users, f, mu, m, servers);
            let noise = total_noise_invitations(mu, m, servers);
            assert!(dl < last_download);
            assert!(noise > last_noise);
            last_download = dl;
            last_noise = noise;
        }
    }

    #[test]
    fn noise_budget_lookup_matches_the_recipes() {
        // Conversation: n1 + n2 ≈ 2µ. Dialing: µ per real drop.
        assert!(
            (expected_noise_requests(Protocol::Conversation, 300_000.0, 0) - 600_000.0).abs()
                < 1e-9
        );
        assert!((expected_noise_requests(Protocol::Dialing, 13_000.0, 4) - 52_000.0).abs() < 1e-9);
        // A µ=13K dialing round outweighs a µ=1K conversation round —
        // the mixed-scheduler admission case the budget exists for.
        assert!(
            expected_noise_requests(Protocol::Dialing, 13_000.0, 1)
                > expected_noise_requests(Protocol::Conversation, 1_000.0, 0)
        );
    }

    #[test]
    fn zero_rounds_when_noise_is_hopeless() {
        // Tiny µ and b can't even protect one round.
        let rounds =
            max_protected_rounds(Protocol::Conversation, 1.0, 0.5, PrivacyTarget::default());
        assert_eq!(rounds, 0);
    }
}
