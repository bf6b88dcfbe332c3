//! A fast observable-level model of Vuvuzela rounds.
//!
//! §6.1 of the paper establishes that — given the cryptographic
//! indistinguishability of requests (verified end-to-end elsewhere in
//! this repository) — the adversary's entire per-round view of the
//! conversation protocol collapses to the pair `(m1, m2)`. That makes
//! attack *statistics* cheap to evaluate: instead of running thousands of
//! full crypto rounds, [`ObservableModel`] samples `(m1, m2)` directly
//! from the ground truth plus each noising server's truncated Laplace
//! cover traffic.
//!
//! Integration tests cross-validate this model against the real chain
//! (same deterministic noise, same counts); the attack evaluations in
//! [`crate::attacks`] and the `attack_demo` figure then use the model
//! for the heavy Monte-Carlo parts.

use rand::Rng;
use vuvuzela_core::observables::ConversationObservables;
use vuvuzela_dp::{NoiseDistribution, NoiseMode};

/// Ground truth for one simulated round.
#[derive(Clone, Copy, Debug)]
pub struct RoundTruth {
    /// Users engaged in reciprocated conversations (pairs): contributes
    /// `talking_pairs` to m2.
    pub talking_pairs: u64,
    /// Users doing fake/unreciprocated exchanges: contributes to m1.
    pub lone_users: u64,
}

/// Samples the last server's view of conversation rounds.
#[derive(Clone, Copy, Debug)]
pub struct ObservableModel {
    /// Number of servers that add noise (chain length − 1).
    pub noising_servers: usize,
    /// Per-server noise distribution.
    pub noise: NoiseDistribution,
    /// Sampled vs deterministic vs off.
    pub mode: NoiseMode,
}

impl ObservableModel {
    /// Samples one round's observables for the given ground truth.
    pub fn sample<R: Rng>(&self, rng: &mut R, truth: RoundTruth) -> ConversationObservables {
        let mut m1 = truth.lone_users;
        let mut m2 = truth.talking_pairs;
        for _ in 0..self.noising_servers {
            m1 += self.noise.sample_count(rng, self.mode);
            // Algorithm 2: n2 requests → ⌊n2/2⌋ same-drop pairs; an odd
            // draw's leftover request is a singleton drop in the real
            // chain (1 access), so it counts toward m1, not m2.
            let n2 = self.noise.sample_count(rng, self.mode);
            m2 += n2 / 2;
            m1 += n2 % 2;
        }
        ConversationObservables {
            m1,
            m2,
            m_many: 0,
            total_requests: m1 + 2 * m2,
        }
    }

    /// Samples a whole trace: one observable per round, with per-round
    /// ground truth from a closure.
    pub fn sample_trace<R: Rng>(
        &self,
        rng: &mut R,
        rounds: usize,
        truth_for_round: impl Fn(usize) -> RoundTruth,
    ) -> Vec<ConversationObservables> {
        (0..rounds)
            .map(|r| self.sample(rng, truth_for_round(r)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn deterministic_mode_matches_hand_count() {
        let model = ObservableModel {
            noising_servers: 2,
            noise: NoiseDistribution::new(4.0, 1.0),
            mode: NoiseMode::Deterministic,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let obs = model.sample(
            &mut rng,
            RoundTruth {
                talking_pairs: 1,
                lone_users: 3,
            },
        );
        // Each server: m1 += 4, m2 += 2.
        assert_eq!(obs.m1, 3 + 8);
        assert_eq!(obs.m2, 1 + 4);
        assert_eq!(obs.total_requests, obs.m1 + 2 * obs.m2);
    }

    #[test]
    fn odd_n2_draw_credits_a_singleton() {
        // µ = 5 deterministic → every server draws n1 = n2 = 5: the n2
        // requests pair into ⌊5/2⌋ = 2 drops and the leftover request is
        // a singleton, so each server adds m1 += 5 + 1 and m2 += 2.
        let model = ObservableModel {
            noising_servers: 2,
            noise: NoiseDistribution::new(5.0, 1.0),
            mode: NoiseMode::Deterministic,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let obs = model.sample(
            &mut rng,
            RoundTruth {
                talking_pairs: 1,
                lone_users: 3,
            },
        );
        assert_eq!(obs.m1, 3 + 2 * 6);
        assert_eq!(obs.m2, 1 + 2 * 2);
        assert_eq!(obs.total_requests, obs.m1 + 2 * obs.m2);
    }

    #[test]
    fn off_mode_is_ground_truth() {
        let model = ObservableModel {
            noising_servers: 2,
            noise: NoiseDistribution::new(100.0, 10.0),
            mode: NoiseMode::Off,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let obs = model.sample(
            &mut rng,
            RoundTruth {
                talking_pairs: 2,
                lone_users: 5,
            },
        );
        assert_eq!(obs.m1, 5);
        assert_eq!(obs.m2, 2);
    }

    #[test]
    fn sampled_mode_is_noisy_but_centered() {
        let model = ObservableModel {
            noising_servers: 2,
            noise: NoiseDistribution::new(1000.0, 30.0),
            mode: NoiseMode::Sampled,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let trace = model.sample_trace(&mut rng, 2000, |_| RoundTruth {
            talking_pairs: 0,
            lone_users: 0,
        });
        let mean_m1: f64 = trace.iter().map(|o| o.m1 as f64).sum::<f64>() / trace.len() as f64;
        let mean_m2: f64 = trace.iter().map(|o| o.m2 as f64).sum::<f64>() / trace.len() as f64;
        assert!((mean_m1 - 2000.0).abs() < 25.0, "mean m1 {mean_m1}");
        assert!((mean_m2 - 1000.0).abs() < 15.0, "mean m2 {mean_m2}");
    }
}
