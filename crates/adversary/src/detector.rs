//! A Bahramali-style event detector graded against the DP bound.
//!
//! The attacker's job: given two *adjacent worlds* — twin deployments
//! identical except for one target user's behaviour (talking to their
//! partner vs. sitting idle) — decide from a run's
//! [`crate::AdversaryView`] which world produced it. Differential
//! privacy promises that no such distinguisher beats
//! [`crate::bounds::max_advantage`] of the composed (ε′, δ′) the view
//! itself reports.
//!
//! The detector here is the strongest single-statistic attack on the
//! dead-drop histogram: it sweeps every threshold over a scalar
//! feature of each conversation round ([`pair_activity_feature`], of
//! the histogram less any noise the attacker owns:
//! [`subtract_owned_noise`]) on *training* runs, keeps the orientation
//! and cut that best separate the worlds, and is then scored on
//! *held-out* runs. Its held-out advantage, plus a Hoeffding slack for
//! the finite sample, must stay under the bound while one noising
//! server is honest — and must *exceed* it when the cover noise is
//! turned off, undersized or wholly owned by the attacker, which is
//! what makes the harness falsifiable rather than vacuously green.

use crate::bounds::{hoeffding_slack, max_advantage};

/// The per-round scalar the detector thresholds.
///
/// A talking target pair converts two singleton accesses into one
/// mutual dead drop: versus the idle world the round's histogram
/// shifts by `m2 + 1, m1 − 2`. The contrast `2·m2 − m1` moves by +4
/// per round — the largest shift available from the (m1, m2) pair —
/// while honest Laplace noise perturbs it with scale ~√5·b. Over
/// `i64`, since the contrast — and the histogram left once an attacker
/// subtracts the noise it owns ([`subtract_owned_noise`]) — can go
/// negative.
#[must_use]
pub fn pair_activity_feature(m1: i64, m2: i64) -> i64 {
    2 * m2 - m1
}

/// The histogram left to an attacker that owns some noising servers
/// (§2.3): `(m1 − Σ singles, m2 − Σ pairs)` over each owned server's
/// own `(singles, pairs)` draw (`MixServer::conversation_noise`), so
/// only the other servers' noise still hides the pair. With nothing
/// owned it is `(m1, m2)`.
#[must_use]
pub fn subtract_owned_noise(
    m1: u64,
    m2: u64,
    owned: impl IntoIterator<Item = (u64, u64)>,
) -> (i64, i64) {
    owned
        .into_iter()
        .fold((m1 as i64, m2 as i64), |(m1, m2), (singles, pairs)| {
            (m1 - singles as i64, m2 - pairs as i64)
        })
}

/// A trained threshold rule over [`pair_activity_feature`] values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThresholdDetector {
    /// Classify as "talking" on this side of the cut.
    pub threshold: i64,
    /// `true`: feature > threshold ⇒ talking; `false`: the reverse.
    pub talking_above: bool,
}

impl ThresholdDetector {
    /// Fits the optimal threshold on labelled training features by
    /// exhaustive sweep: every observed value and its successor, in
    /// both orientations, keeping the first cut with the highest
    /// training accuracy (deterministic for reproducible verdicts).
    ///
    /// # Panics
    ///
    /// Panics if either training set is empty — a detector fitted on
    /// nothing would silently classify at chance.
    #[must_use]
    pub fn train(talking: &[i64], idle: &[i64]) -> ThresholdDetector {
        assert!(
            !talking.is_empty() && !idle.is_empty(),
            "cannot train a detector without samples from both worlds"
        );
        let mut candidates: Vec<i64> = talking.iter().chain(idle).copied().collect();
        candidates.sort_unstable();
        candidates.dedup();
        // Also cut just above each observed value so a perfectly
        // separable pair of worlds reaches accuracy 1.0.
        let above: Vec<i64> = candidates.iter().map(|v| v.saturating_add(1)).collect();
        candidates.extend(above);
        candidates.sort_unstable();
        candidates.dedup();

        let mut best = ThresholdDetector {
            threshold: candidates[0],
            talking_above: true,
        };
        let mut best_correct = 0usize;
        for &threshold in &candidates {
            for talking_above in [true, false] {
                let rule = ThresholdDetector {
                    threshold,
                    talking_above,
                };
                let correct = talking.iter().filter(|&&f| rule.classify(f)).count()
                    + idle.iter().filter(|&&f| !rule.classify(f)).count();
                if correct > best_correct {
                    best_correct = correct;
                    best = rule;
                }
            }
        }
        best
    }

    /// `true` if the rule labels this feature value "talking".
    #[must_use]
    pub fn classify(&self, feature: i64) -> bool {
        if self.talking_above {
            feature > self.threshold
        } else {
            feature <= self.threshold
        }
    }

    /// Scores the detector on held-out labelled features.
    ///
    /// # Panics
    ///
    /// Panics if both held-out sets are empty.
    #[must_use]
    pub fn evaluate(&self, talking: &[i64], idle: &[i64]) -> DetectionOutcome {
        let trials = talking.len() + idle.len();
        assert!(trials > 0, "cannot evaluate a detector on zero trials");
        let correct = talking.iter().filter(|&&f| self.classify(f)).count()
            + idle.iter().filter(|&&f| !self.classify(f)).count();
        let accuracy = correct as f64 / trials as f64;
        DetectionOutcome {
            detector: *self,
            trials,
            accuracy,
            // A coin-flipping adversary scores 0.5; advantage below
            // chance is no advantage (the bound is on |acc − ½| and
            // an adversary could negate the rule, but a *trained*
            // detector below chance just means the worlds are
            // indistinguishable at this sample size).
            advantage: (accuracy - 0.5).max(0.0),
        }
    }
}

/// A detector's held-out performance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DetectionOutcome {
    /// The rule that was evaluated.
    pub detector: ThresholdDetector,
    /// Held-out sample count across both worlds.
    pub trials: usize,
    /// Fraction of held-out samples labelled correctly.
    pub accuracy: f64,
    /// `max(accuracy − ½, 0)` — the distinguishing advantage.
    pub advantage: f64,
}

impl DetectionOutcome {
    /// Grades this outcome against the deployment's composed budget:
    /// the verdict the attack harness asserts on.
    #[must_use]
    pub fn grade(&self, epsilon: f64, delta: f64, alpha: f64) -> DetectionGrade {
        let bound = max_advantage(epsilon, delta);
        let slack = hoeffding_slack(self.trials, alpha);
        DetectionGrade {
            bound,
            slack,
            // Honest deployments must satisfy this…
            within_bound: self.advantage + slack <= bound,
            // …and broken ones must trip this (no slack credit: the
            // point estimate itself must clear the bound).
            exceeds_bound: self.advantage > bound,
        }
    }
}

/// An outcome compared against `max_advantage(ε′, δ′)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DetectionGrade {
    /// `max_advantage(ε′, δ′)` for the graded budget.
    pub bound: f64,
    /// Hoeffding finite-sample slack at the grading confidence.
    pub slack: f64,
    /// `advantage + slack ≤ bound` — the honest-deployment gate.
    pub within_bound: bool,
    /// `advantage > bound` — the broken-deployment (negative-control)
    /// gate.
    pub exceeds_bound: bool,
}

/// Splits per-seed feature vectors into train/test halves by seed
/// index (first half trains, second half is held out), flattening each
/// half. Seeds — not rounds — are the split unit so the held-out set
/// never shares a deployment with training.
#[must_use]
pub fn split_by_seed(per_seed: &[Vec<i64>]) -> (Vec<i64>, Vec<i64>) {
    let cut = per_seed.len() / 2;
    let train = per_seed[..cut].iter().flatten().copied().collect();
    let test = per_seed[cut..].iter().flatten().copied().collect();
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separable_worlds_reach_full_advantage() {
        let talking = [10, 11, 12, 13];
        let idle = [0, 1, 2, 3];
        let d = ThresholdDetector::train(&talking, &idle);
        let out = d.evaluate(&talking, &idle);
        assert_eq!(out.accuracy, 1.0);
        assert_eq!(out.advantage, 0.5);
        assert!(d.talking_above);
    }

    #[test]
    fn orientation_flips_when_talking_sits_below() {
        let talking = [0, 1, 2, 3];
        let idle = [10, 11, 12, 13];
        let d = ThresholdDetector::train(&talking, &idle);
        assert!(!d.talking_above);
        let out = d.evaluate(&talking, &idle);
        assert_eq!(out.accuracy, 1.0);
    }

    #[test]
    fn identical_worlds_yield_no_advantage() {
        let samples = [5, 6, 7, 5, 6, 7, 8, 4];
        let d = ThresholdDetector::train(&samples, &samples);
        let out = d.evaluate(&samples, &samples);
        // Best possible on identical distributions is chance.
        assert!((out.accuracy - 0.5).abs() < 1e-12);
        assert_eq!(out.advantage, 0.0);
    }

    #[test]
    fn feature_shift_matches_the_pairing_algebra() {
        // Idle round: (m1, m2); talking twin: (m1 − 2, m2 + 1).
        let idle = pair_activity_feature(412, 203);
        let talking = pair_activity_feature(410, 204);
        assert_eq!(talking - idle, 4);
    }

    #[test]
    fn owned_noise_comes_off_the_histogram() {
        assert_eq!(subtract_owned_noise(412, 203, []), (412, 203));
        let owned = [(10, 3), (5, 2)];
        assert_eq!(subtract_owned_noise(412, 203, owned), (397, 198));
        // An owned draw can exceed what a tampered histogram shows.
        assert_eq!(subtract_owned_noise(0, 0, owned), (-15, -5));
    }

    #[test]
    fn grade_gates_point_in_opposite_directions() {
        let out = DetectionOutcome {
            detector: ThresholdDetector {
                threshold: 0,
                talking_above: true,
            },
            trials: 200,
            accuracy: 0.8,
            advantage: 0.3,
        };
        // A tight budget: adv 0.3 must trip the negative-control
        // gate and fail the honest gate.
        let g = out.grade(0.2, 1e-3, 0.01);
        assert!(!g.within_bound);
        assert!(g.exceeds_bound);
        // A huge budget bounds nothing: adv 0.3 + slack ≤ 0.5 passes
        // (slack at 200 trials is ≈ 0.115).
        let g = out.grade(10.0, 1e-3, 0.01);
        assert!(g.within_bound);
        assert!(!g.exceeds_bound);
    }

    #[test]
    fn split_by_seed_keeps_deployments_apart() {
        let per_seed = vec![vec![1, 2], vec![3], vec![4, 5], vec![6]];
        let (train, test) = split_by_seed(&per_seed);
        assert_eq!(train, vec![1, 2, 3]);
        assert_eq!(test, vec![4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "cannot train")]
    fn training_on_an_empty_world_panics() {
        let _ = ThresholdDetector::train(&[], &[1, 2]);
    }
}
