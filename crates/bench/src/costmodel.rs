//! The kernel-floor cost model: §8.2's arithmetic, priced per kernel.
//!
//! §8.2 of the paper derives a latency lower bound from first principles:
//! "with two million users, each server must perform one Diffie-Hellman
//! operation for each of the 3.2 million messages … the best-case
//! end-to-end conversation round latency would be
//! (3.2·10⁶ × 3)/(3.4·10⁵) ≈ 28 seconds", and reports the full system
//! "within 2× of the cost of the inevitable cryptographic operations".
//!
//! [`CostModel`] reproduces exactly that arithmetic, plus a finer
//! per-hop count ([`CostModel::hop_ops`]) that splits the round's
//! X25519 work into the two kernels that do it: onions peeled and onion
//! layers wrapped (cover traffic). Each kernel has its own per-core
//! rate, measured on this host by the chunk probes of
//! [`crate::peelstage`]. This is the one place the kernel floor is
//! priced: `bench_round_pipeline` gates its forward pass against it,
//! and the figures extrapolate with it.

use vuvuzela_core::record::KernelOps;

use crate::peelstage::Probe;

/// A machine's cryptographic capability for Vuvuzela purposes.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Onions one core peels per second while every core peels.
    pub peels_per_sec_core: f64,
    /// Onion layers one core wraps per second while every core wraps.
    pub layers_per_sec_core: f64,
    /// Cores assumed per server.
    pub cores: usize,
    /// Multiplier for everything that is not the kernels (AEAD outside
    /// them, shuffling, noise draws, fan-out). The paper observes ≈2×
    /// end to end; set a measured one with [`CostModel::with_overhead`].
    pub overhead: f64,
}

impl CostModel {
    /// This host's kernels, priced by the chunk-peel and chunk-wrap
    /// probes over `onions` onions on all `default_workers()` cores,
    /// best of `iterations` each (the wrap at the paper's chain length,
    /// 3), at the paper's 2× overhead.
    ///
    /// # Panics
    ///
    /// If a probed kernel disagrees with its oracle (see [`Probe`]).
    #[must_use]
    pub fn probe(onions: usize, iterations: usize) -> CostModel {
        let cores = vuvuzela_net::parallel::default_workers();
        let best = |probe: Probe| {
            (0..iterations)
                .map(|_| probe.rate(cores))
                .fold(0.0, f64::max)
        };
        CostModel {
            peels_per_sec_core: best(Probe::peel(onions)),
            layers_per_sec_core: best(Probe::wrap(onions, 3)),
            cores,
            overhead: 2.0,
        }
    }

    /// The paper's reference hardware: 340,000 DH ops/sec on a 36-core
    /// c4.8xlarge (§8.2), the same rate for either kernel.
    #[must_use]
    pub fn paper_hardware() -> CostModel {
        CostModel {
            peels_per_sec_core: 340_000.0 / 36.0,
            layers_per_sec_core: 340_000.0 / 36.0,
            cores: 36,
            overhead: 2.0,
        }
    }

    /// Returns the model with a different overhead factor.
    #[must_use]
    pub fn with_overhead(self, overhead: f64) -> CostModel {
        CostModel { overhead, ..self }
    }

    /// Messages reaching the last server in a conversation round:
    /// `users + 2µ·(servers − 1)` (§8.2's "3.2 million messages").
    #[must_use]
    pub fn round_messages(users: u64, mu: f64, servers: usize) -> f64 {
        users as f64 + 2.0 * mu * (servers.saturating_sub(1)) as f64
    }

    /// The paper's §8.2 lower-bound arithmetic: every server performs one
    /// DH per message of the round, servers run strictly in sequence.
    #[must_use]
    pub fn paper_lower_bound_secs(&self, users: u64, mu: f64, servers: usize) -> f64 {
        Self::round_messages(users, mu, servers) * servers as f64
            / (self.peels_per_sec_core * self.cores as f64)
    }

    /// The kernel work of each server of a `servers`-server chain in a
    /// round that `users` onions enter and to which every server but
    /// the last adds `noise` cover onions: the round record's formula
    /// ([`KernelOps::forward_pass`]) applied to that planned traffic.
    #[must_use]
    pub fn hop_ops(users: u64, noise: u64, servers: usize) -> Vec<KernelOps> {
        (0..servers)
            .map(|i| {
                let received = users + noise * i as u64;
                KernelOps::forward_pass(i, servers, received, received + noise)
            })
            .collect()
    }

    /// Seconds `ops` take at this model's kernel rates on all its
    /// cores, with nothing else in the way.
    #[must_use]
    pub fn kernel_floor_secs(&self, ops: KernelOps) -> f64 {
        (ops.peels as f64 / self.peels_per_sec_core + ops.layers as f64 / self.layers_per_sec_core)
            / self.cores as f64
    }

    /// Predicted end-to-end conversation latency: the round's kernel
    /// floor (2µ cover onions per noising server), sequential servers,
    /// times the overhead factor.
    #[must_use]
    pub fn predict_conversation_secs(&self, users: u64, mu: f64, servers: usize) -> f64 {
        let ops = Self::hop_ops(users, (2.0 * mu).round() as u64, servers)
            .into_iter()
            .sum();
        self.kernel_floor_secs(ops) * self.overhead
    }

    /// Predicted dialing-round latency, likewise (`drops · µ` cover
    /// invitations per noising server).
    #[must_use]
    pub fn predict_dialing_secs(&self, users: u64, mu: f64, drops: u32, servers: usize) -> f64 {
        let ops = Self::hop_ops(users, (f64::from(drops) * mu).round() as u64, servers)
            .into_iter()
            .sum();
        self.kernel_floor_secs(ops) * self.overhead
    }

    /// Messages per second at a given scale (§1's "68,000 messages per
    /// second for 1 million users").
    ///
    /// The paper's counting is reverse-engineered from its two data
    /// points: `(2·users + 2µ) / latency` reproduces both 68,000 msgs/s
    /// (1M users, 37 s) and 84,000 msgs/s (2M users, 55 s) to within 3%
    /// — each user both sends and receives a message per round, plus one
    /// server's worth of noise requests.
    #[must_use]
    pub fn throughput_msgs_per_sec(&self, users: u64, mu: f64, servers: usize) -> f64 {
        (2.0 * users as f64 + 2.0 * mu) / self.predict_conversation_secs(users, mu, servers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_lower_bound_reproduces_28_seconds() {
        // §8.2: 2M users, µ=300K, 3 servers, 340K ops/sec → ≈28 s.
        let model = CostModel::paper_hardware();
        let bound = model.paper_lower_bound_secs(2_000_000, 300_000.0, 3);
        assert!(
            (bound - 28.2).abs() < 0.5,
            "lower bound {bound} should be ≈28 s"
        );
    }

    #[test]
    fn round_messages_match_paper() {
        // "we get 3.2 million messages" at 2M users;
        // "1.2 million requests when there are no users".
        assert_eq!(
            CostModel::round_messages(2_000_000, 300_000.0, 3),
            3_200_000.0
        );
        assert_eq!(CostModel::round_messages(0, 300_000.0, 3), 1_200_000.0);
    }

    #[test]
    fn paper_scale_prediction_brackets_measured_37s() {
        // The paper measured 37 s at 1M users (within 2× of the 22 s
        // lower bound there). With the ≈2× overhead our prediction
        // should land in the right decade.
        let model = CostModel::paper_hardware();
        let secs = model.predict_conversation_secs(1_000_000, 300_000.0, 3);
        assert!(
            (20.0..=60.0).contains(&secs),
            "predicted {secs}s should bracket the measured 37 s"
        );
    }

    #[test]
    fn latency_is_linear_in_users() {
        let model = CostModel::paper_hardware();
        let at_1m = model.predict_conversation_secs(1_000_000, 300_000.0, 3);
        let at_2m = model.predict_conversation_secs(2_000_000, 300_000.0, 3);
        let marginal = at_2m - at_1m;
        let per_user = marginal / 1_000_000.0;
        // Marginal cost per added user ≈ servers × overhead / rate.
        let want = 3.0 * 2.0 / (model.peels_per_sec_core * model.cores as f64);
        assert!((per_user - want).abs() / want < 1e-9);
    }

    #[test]
    fn chain_scaling_is_superlinear() {
        // Figure 11: roughly quadratic in servers (O(s²) work).
        let model = CostModel::paper_hardware();
        let at_2 = model.predict_conversation_secs(1_000_000, 300_000.0, 2);
        let at_4 = model.predict_conversation_secs(1_000_000, 300_000.0, 4);
        let at_6 = model.predict_conversation_secs(1_000_000, 300_000.0, 6);
        assert!(at_4 / at_2 > 1.8, "4 vs 2 servers: {}", at_4 / at_2);
        assert!(at_6 / at_2 > 3.0, "6 vs 2 servers: {}", at_6 / at_2);
    }

    #[test]
    fn throughput_reproduces_headline_numbers() {
        // §1: 68,000 msgs/s at 1M users; §8.2: 84,000 msgs/s at 2M.
        let model = CostModel::paper_hardware();
        let at_1m = model.throughput_msgs_per_sec(1_000_000, 300_000.0, 3);
        let at_2m = model.throughput_msgs_per_sec(2_000_000, 300_000.0, 3);
        assert!((55_000.0..=80_000.0).contains(&at_1m), "1M: {at_1m}");
        assert!((70_000.0..=95_000.0).contains(&at_2m), "2M: {at_2m}");
    }

    #[test]
    fn the_round_pipeline_bench_does_60k_peels_and_30k_layers() {
        // µ = 5 000 deterministic, 10 000 clients, chain 3: hop 0 peels
        // 10k and wraps its 10k noise twice, hop 1 peels 20k and wraps
        // 10k once, the tail peels 30k.
        let hops = CostModel::hop_ops(10_000, 2 * 5_000, 3);
        let layers: Vec<u64> = hops.iter().map(|hop| hop.layers).collect();
        assert_eq!(layers, [20_000, 10_000, 0]);
        assert_eq!(
            hops.into_iter().sum::<KernelOps>(),
            KernelOps {
                peels: 60_000,
                layers: 30_000,
            }
        );
    }

    #[test]
    fn calibration_measures_something_sane() {
        let model = CostModel::probe(16, 1);
        for rate in [model.peels_per_sec_core, model.layers_per_sec_core] {
            assert!(rate > 100.0, "implausibly slow: {rate} ops/s");
        }
    }
}
