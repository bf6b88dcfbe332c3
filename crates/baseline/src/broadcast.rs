//! A Dissent/Riposte-style broadcast messenger (the unscalable baseline),
//! as its closed-form cost.
//!
//! Systems with provably strong metadata privacy before Vuvuzela "either
//! rely on broadcasting all messages to all users, or use computationally
//! expensive cryptographic constructions" (§1). In the broadcast
//! strawman every round, every client submits one fixed-size sealed
//! message; the server concatenates them all and sends the full bundle
//! to *every* client, who trial-decrypts everything.
//!
//! Recipient metadata is perfectly hidden (everyone receives everything),
//! but the per-round traffic is `n² · message_size` — the quadratic wall
//! that caps such systems at a few thousand users. The `tab_throughput`
//! benchmark plots this against Vuvuzela's linear cost.

use vuvuzela_crypto::sealedbox;

/// Sealed broadcast slot size: a 240-byte payload in a sealed box.
pub const SLOT_LEN: usize = sealedbox::sealed_len(240);

/// Total bytes a broadcast deployment moves per round for `n` clients:
/// each uploads its slot, and each downloads every slot.
#[must_use]
pub fn bytes_per_round(n: u64) -> u64 {
    n * SLOT_LEN as u64 // uploads
        + n * n * SLOT_LEN as u64 // every client downloads everything
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_grows_quadratically() {
        // Doubling users should ~4x the bytes once downloads dominate.
        let small = bytes_per_round(1_000);
        let big = bytes_per_round(2_000);
        let ratio = big as f64 / small as f64;
        assert!((3.9..=4.1).contains(&ratio), "ratio {ratio}");
    }
}
