//! The kernel-floor cost model: §8.2's arithmetic, priced per kernel.
//!
//! §8.2 of the paper derives a latency lower bound from first principles:
//! "with two million users, each server must perform one Diffie-Hellman
//! operation for each of the 3.2 million messages … the best-case
//! end-to-end conversation round latency would be
//! (3.2·10⁶ × 3)/(3.4·10⁵) ≈ 28 seconds", and reports the full system
//! "within 2× of the cost of the inevitable cryptographic operations".
//!
//! [`CostModel`] counts that work per hop ([`CostModel::hop_ops`]),
//! split into the two kernels that do it: onions peeled and onion
//! layers wrapped (cover traffic). Each kernel has its own per-core
//! rate, measured on this host by the chunk probes of
//! [`crate::peelstage`]. This is the one place the kernel floor is
//! priced: `bench_round_pipeline` gates its forward pass against it.

use vuvuzela_core::record::KernelOps;

/// A machine's cryptographic capability for Vuvuzela purposes.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Onions one core peels per second while every core peels.
    pub peels_per_sec_core: f64,
    /// Onion layers one core wraps per second while every core wraps.
    pub layers_per_sec_core: f64,
    /// Cores assumed per server.
    pub cores: usize,
}

impl CostModel {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peelstage::Probe;

    /// §8.2's reference hardware: 340,000 DH ops/sec on a 36-core
    /// c4.8xlarge, the same rate for either kernel.
    const PAPER_HARDWARE: CostModel = CostModel {
        peels_per_sec_core: 340_000.0 / 36.0,
        layers_per_sec_core: 340_000.0 / 36.0,
        cores: 36,
    };

    /// The kernel floor of a conversation round at the paper's µ =
    /// 300,000 (2µ cover onions from every server but the last).
    fn conversation_floor(users: u64, servers: usize) -> f64 {
        let ops = CostModel::hop_ops(users, 600_000, servers);
        PAPER_HARDWARE.kernel_floor_secs(ops.into_iter().sum())
    }

    #[test]
    fn round_messages_match_paper() {
        // "we get 3.2 million messages" at 2M users;
        // "1.2 million requests when there are no users": the onions
        // the last server peels.
        for (users, messages) in [(2_000_000, 3_200_000), (0, 1_200_000)] {
            let tail = CostModel::hop_ops(users, 600_000, 3)[2];
            assert_eq!(
                tail,
                KernelOps {
                    peels: messages,
                    layers: 0
                }
            );
        }
    }

    #[test]
    fn latency_is_linear_in_users() {
        let marginal = conversation_floor(2_000_000, 3) - conversation_floor(1_000_000, 3);
        let per_user = marginal / 1_000_000.0;
        // Every server peels each added user's onion once.
        let want = 3.0 / (PAPER_HARDWARE.peels_per_sec_core * PAPER_HARDWARE.cores as f64);
        assert!((per_user - want).abs() / want < 1e-9);
    }

    #[test]
    fn chain_scaling_is_superlinear() {
        // Figure 11: roughly quadratic in servers (O(s²) work).
        let at_2 = conversation_floor(1_000_000, 2);
        let at_4 = conversation_floor(1_000_000, 4);
        let at_6 = conversation_floor(1_000_000, 6);
        assert!(at_4 / at_2 > 1.8, "4 vs 2 servers: {}", at_4 / at_2);
        assert!(at_6 / at_2 > 3.0, "6 vs 2 servers: {}", at_6 / at_2);
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
        let cores = vuvuzela_net::parallel::default_workers();
        for rate in [Probe::peel(16).rate(cores), Probe::wrap(16, 3).rate(cores)] {
            assert!(rate > 100.0, "implausibly slow: {rate} ops/s");
        }
    }
}
