//! Turns a traced run's spans, counts and probes into per-layer metrics,
//! and reconciles the layers against the untraced round.

use crate::hand::{span, StageCosts};
use crate::metrics::PER_LAYER;
use crate::sut::CHAIN_LEN;
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// Per-layer metric values by name; layers a workload bypasses stay absent
/// and are reported as 0.
pub type Values = BTreeMap<&'static str, f64>;

/// Every per-layer metric in declaration order, 0 where `values` has none.
///
/// # Panics
///
/// Panics when `values` holds a name `metrics.rs` does not declare.
#[must_use]
pub fn in_declared_order(values: &Values) -> Vec<(&'static str, f64)> {
    for name in values.keys() {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not a declared per-layer metric"
        );
    }
    PER_LAYER
        .iter()
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0)))
        .collect()
}

const FORWARD_S: [&str; 3] = [
    "core.server.forward_s.hop0",
    "core.server.forward_s.hop1",
    "core.server.forward_s.hop2",
];
const BACKWARD_S: [&str; 3] = [
    "core.server.backward_s.hop0",
    "core.server.backward_s.hop1",
    "core.server.backward_s.hop2",
];
const ONIONS_IN: [&str; 3] = [
    "core.server.onions_in.hop0",
    "core.server.onions_in.hop1",
    "core.server.onions_in.hop2",
];
const NOISE_ADDED: [&str; 3] = [
    "core.server.noise_added.hop0",
    "core.server.noise_added.hop1",
    "core.server.noise_added.hop2",
];
const PEEL_S: [&str; 3] = [
    "core.server.peel_s.hop0",
    "core.server.peel_s.hop1",
    "core.server.peel_s.hop2",
];
const NOISE_S: [&str; 3] = [
    "core.noise.generate_s.hop0",
    "core.noise.generate_s.hop1",
    "core.noise.generate_s.hop2",
];
const PERMUTE_S: [&str; 3] = [
    "core.roundbuf.permute_s.hop0",
    "core.roundbuf.permute_s.hop1",
    "core.roundbuf.permute_s.hop2",
];
const LINK_BYTES: [&str; 4] = [
    "net.link.bytes_per_onion.clients",
    "net.link.bytes_per_onion.hop0",
    "net.link.bytes_per_onion.hop1",
    "net.link.bytes_per_onion.hop2",
];

/// What the traced rounds measured, besides their spans.
pub struct Traced<'a> {
    /// The spans of the hand-driven rounds.
    pub tracer: &'a Tracer,
    /// Hand-driven rounds traced.
    pub rounds: usize,
    /// Client requests over those rounds.
    pub requests: usize,
    /// Stage probes, one entry per traced round.
    pub stages: &'a [[StageCosts; 3]],
    /// Whether clients wrapped their onions inside the traced round
    /// (the cohort workloads) or before it (prebuilt batches).
    pub clients_wrap_in_round: bool,
    /// Bytes the same rounds moved over the clients link and each hop link.
    pub link_bytes: [u64; 1 + CHAIN_LEN],
    /// Mean wall seconds of the same rounds run wholesale, untraced, on
    /// one thread after another (the sequential runtime).
    pub wholesale_round_s: f64,
    /// Mean process CPU seconds of those wholesale rounds.
    pub wholesale_cpu_s: f64,
}

/// Fills in the `core.*`, `net.link.*`, `net.tcp.transfer_s` and `ledger.*`
/// metrics. `values` must already hold the crypto probes.
pub fn fill(values: &mut Values, traced: &Traced<'_>) {
    let rounds = traced.rounds as f64;
    let per_round = |seconds: f64| seconds / rounds;
    let self_s = traced.tracer.self_seconds();
    let self_of = |name: &str| per_round(self_s.get(name).copied().unwrap_or(0.0));

    values.insert("core.cohort.build_s", self_of(span::BUILD));
    values.insert("core.cohort.ingest_s", self_of(span::INGEST));
    for hop in 0..CHAIN_LEN {
        values.insert(FORWARD_S[hop], self_of(span::FORWARD[hop]));
        values.insert(BACKWARD_S[hop], self_of(span::BACKWARD[hop]));
    }
    values.insert("core.deaddrops.exchange_s", self_of(span::EXCHANGE));
    values.insert("core.deaddrops.deposit_s", self_of(span::DEPOSIT));
    values.insert("net.tcp.transfer_s", self_of(span::TRANSFER));
    let traced_round_s = per_round(
        traced
            .tracer
            .spans()
            .iter()
            .filter(|s| s.name == span::ROUND)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum(),
    );
    values.insert("core.chain.round_s", traced_round_s);

    // Counts and stage probes: means over the traced rounds.
    let mean = |pick: &dyn Fn(&StageCosts) -> f64, hop: usize| {
        per_round(traced.stages.iter().map(|round| pick(&round[hop])).sum())
    };
    let mut peels = 0.0;
    let mut noise_layers = 0.0;
    for hop in 0..CHAIN_LEN {
        let onions_in = mean(&|c| c.onions_in as f64, hop);
        let noise_added = mean(&|c| c.noise_added as f64, hop);
        values.insert(ONIONS_IN[hop], onions_in);
        values.insert(NOISE_ADDED[hop], noise_added);
        values.insert(PEEL_S[hop], mean(&|c| c.peel_s, hop));
        values.insert(NOISE_S[hop], mean(&|c| c.noise_s, hop));
        values.insert(PERMUTE_S[hop], mean(&|c| c.permute_s, hop));
        peels += onions_in;
        noise_layers += noise_added * (CHAIN_LEN - 1 - hop) as f64;
    }

    let requests_per_round = traced.requests as f64 / rounds;
    for (name, bytes) in LINK_BYTES.iter().zip(traced.link_bytes) {
        values.insert(name, bytes as f64 / traced.requests as f64);
    }

    // The Diffie-Hellman floor of section 8.2: every peel is one
    // variable-base scalar multiplication, every wrapped layer one
    // fixed-base key generation plus one table multiplication.
    let client_layers = if traced.clients_wrap_in_round {
        requests_per_round * CHAIN_LEN as f64
    } else {
        0.0
    };
    let wrapped_layers = noise_layers + client_layers;
    let dh_ops = peels + 2.0 * wrapped_layers;
    let probe = |name: &str| values.get(name).copied().unwrap_or(0.0);
    let dh_floor_s = (peels * probe("crypto.x25519.batch_dh_ns")
        + wrapped_layers * (probe("crypto.x25519.keygen_ns") + probe("crypto.x25519.table_dh_ns")))
        / 1e9;
    values.insert("ledger.dh_ops_per_onion", dh_ops / requests_per_round);
    values.insert("ledger.dh_floor_s", dh_floor_s);
    values.insert(
        "ledger.overhead_vs_dh_floor",
        traced.wholesale_cpu_s / dh_floor_s,
    );

    // Reconciliation: the layers' self times against the untraced round.
    let wrappers = [span::ROUND, span::TAIL];
    let sum_of_layers_s = per_round(
        self_s
            .iter()
            .filter(|(name, _)| !wrappers.contains(&name.as_str()))
            .map(|(_, seconds)| seconds)
            .sum(),
    );
    values.insert("ledger.sum_of_layers_s", sum_of_layers_s);
    values.insert(
        "ledger.unexplained_residual",
        (traced.wholesale_round_s - sum_of_layers_s) / traced.wholesale_round_s,
    );
    values.insert(
        "ledger.tracing_overhead",
        (traced_round_s - traced.wholesale_round_s) / traced.wholesale_round_s,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bypassed_layers_read_zero_and_order_is_declared_order() {
        let mut values = Values::new();
        values.insert("core.cohort.build_s", 0.25);
        let ordered = in_declared_order(&values);
        assert_eq!(ordered.len(), PER_LAYER.len());
        assert!(ordered.iter().zip(&PER_LAYER).all(|(o, m)| o.0 == m.name));
        assert_eq!(
            ordered
                .iter()
                .filter(|&&(_, v)| v != 0.0)
                .collect::<Vec<_>>(),
            [&("core.cohort.build_s", 0.25)]
        );
    }

    #[test]
    #[should_panic(expected = "not a declared per-layer metric")]
    fn an_undeclared_name_is_a_bug() {
        let mut values = Values::new();
        values.insert("core.cohort.biuld_s", 1.0);
        let _ = in_declared_order(&values);
    }
}
