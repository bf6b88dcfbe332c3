//! The benchmark's contract: its workloads, its end-to-end metrics with
//! their regression bounds, and its per-layer metrics with the end-to-end
//! metric and workload each one is expected to move.
//!
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`manifest` subcommand) and a test holds the committed file equal to
//! them, so the names a run prints are the names the file declares.

use serde_json::{json, Value};

/// Seconds one run measures for; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

/// The seed `run` and `repeat` use unless told otherwise.
pub const DEFAULT_SEED: u64 = 20_150_510;

/// A second seed, never used while a change is being written, on which a
/// later performance claim must also hold.
pub const VALIDATION_SEED: u64 = 77_003_911;

/// One workload: a set of inputs the benchmark runs.
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Why it exists, in one line.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "conv_cover",
        why: "sequential Chain, 1 worker, 600 live clients under cover traffic of 5x their own: noise generation and peeling of noise onions dominate the round",
    },
    Workload {
        name: "conv_clients",
        why: "sequential Chain, 2 workers, 6000 live clients and almost no noise: client build, dead-drop exchange, reply ingest and WorkerPool fan-out dominate",
    },
    Workload {
        name: "mixed_stream",
        why: "StreamingChain at window 3 over (conversation, conversation, dialing) cycles: the only in-process use of the pipeline, weighted admission and the dialing path",
    },
    Workload {
        name: "wire_window",
        why: "the mixed_stream batches through entry and three server nodes over loopback TCP at depth 3: the difference from mixed_stream is frames, sockets and node loops",
    },
];

/// Which way a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, reported for every workload.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
    /// What it measures.
    pub what: &'static str,
}

/// The end-to-end metrics. `failed_fraction` is the seventh: it is the
/// `failed` / `attempted` pair every run prints, gated at zero.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median over repeated set-ups of: keys, DH tables, cohort join and pairing or prebuilt first batches, sockets, warm-up rounds",
    },
    EndToEnd {
        name: "round_latency_p50_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median over measured rounds of batch admitted to replies (or completion) returned",
    },
    EndToEnd {
        name: "onions_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "client requests completed per wall-clock second of the measured window, client build and ingest included where the workload has them",
    },
    EndToEnd {
        name: "cpu_ms_per_onion",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "process user+system CPU over the measured window per client request",
    },
    EndToEnd {
        name: "link_bytes_per_onion",
        unit: "B",
        better: Better::Lower,
        bound: 0.02,
        what: "bytes over every link, both directions, per client request, from the Link meters over a fixed prefix of rounds; an exact count for a given seed",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        what: "VmHWM of the workload's process at the end of the measured window",
    },
];

/// A metric of a single layer. It has no bound: it explains where an
/// end-to-end change came from.
pub struct Layer {
    /// Metric name; its prefix is the repository module it measures.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const PEEL_MOVES: &str =
    "onions_per_s and cpu_ms_per_onion on all four workloads, most on conv_clients";
const WRAP_MOVES: &str = "onions_per_s on conv_cover and mixed_stream (noise wrapping) and the build share of conv_clients; wire_window minus mixed_stream unchanged";
const AEAD_MOVES: &str =
    "a few percent of onions_per_s on every workload: one open or seal per layer";
const COHORT_MOVES: &str = "onions_per_s on conv_clients; 0 on the windowed workloads";
const HOP_MOVES: &str = "round_latency_p50_s and onions_per_s on the workload traced";
const NOISE_MOVES: &str =
    "round_latency_p50_s on conv_cover and mixed_stream; no change on conv_clients";
const COUNT_MOVES: &str = "a count fixed by the seed: it changes only if the protocol does";
const PIPELINE_MOVES: &str = "onions_per_s on mixed_stream and wire_window only; round_latency_p50_s there may rise as overlap rises; 0 on conv_*";
const WIRE_MOVES: &str = "onions_per_s on wire_window; none on the other three";
const BYTES_MOVES: &str = "link_bytes_per_onion on the workload traced";
const LEDGER_MOVES: &str = "diagnostic: says how far the traced run is to be trusted";

/// The per-layer metrics, bottom layer first.
pub const PER_LAYER: [Layer; 63] = [
    layer("crypto.x25519.dh_ns", "ns", Better::Lower, PEEL_MOVES),
    layer("crypto.x25519.batch_dh_ns", "ns", Better::Lower, PEEL_MOVES),
    layer("crypto.x25519.keygen_ns", "ns", Better::Lower, WRAP_MOVES),
    layer("crypto.x25519.table_dh_ns", "ns", Better::Lower, WRAP_MOVES),
    layer("crypto.aead.seal_ns", "ns", Better::Lower, AEAD_MOVES),
    layer("crypto.aead.open_ns", "ns", Better::Lower, AEAD_MOVES),
    layer("crypto.hkdf.layer_key_ns", "ns", Better::Lower, AEAD_MOVES),
    layer("crypto.onion.peel_ns", "ns", Better::Lower, PEEL_MOVES),
    layer(
        "crypto.onion.wrap_layer_ns",
        "ns",
        Better::Lower,
        WRAP_MOVES,
    ),
    layer(
        "crypto.onion.wrap_reply_ns",
        "ns",
        Better::Lower,
        AEAD_MOVES,
    ),
    layer(
        "crypto.onion.unwrap_reply_ns",
        "ns",
        Better::Lower,
        COHORT_MOVES,
    ),
    layer(
        "dp.laplace.sample_ns",
        "ns",
        Better::Lower,
        "nothing measurable: a handful of draws per round",
    ),
    layer("core.cohort.build_s", "s", Better::Lower, COHORT_MOVES),
    layer("core.cohort.ingest_s", "s", Better::Lower, COHORT_MOVES),
    layer("core.server.forward_s.hop0", "s", Better::Lower, HOP_MOVES),
    layer("core.server.forward_s.hop1", "s", Better::Lower, HOP_MOVES),
    layer("core.server.forward_s.hop2", "s", Better::Lower, HOP_MOVES),
    layer("core.server.backward_s.hop0", "s", Better::Lower, HOP_MOVES),
    layer("core.server.backward_s.hop1", "s", Better::Lower, HOP_MOVES),
    layer("core.server.backward_s.hop2", "s", Better::Lower, HOP_MOVES),
    layer(
        "core.server.onions_in.hop0",
        "count",
        Better::Lower,
        COUNT_MOVES,
    ),
    layer(
        "core.server.onions_in.hop1",
        "count",
        Better::Lower,
        COUNT_MOVES,
    ),
    layer(
        "core.server.onions_in.hop2",
        "count",
        Better::Lower,
        COUNT_MOVES,
    ),
    layer(
        "core.server.noise_added.hop0",
        "count",
        Better::Lower,
        COUNT_MOVES,
    ),
    layer(
        "core.server.noise_added.hop1",
        "count",
        Better::Lower,
        COUNT_MOVES,
    ),
    layer(
        "core.server.noise_added.hop2",
        "count",
        Better::Lower,
        COUNT_MOVES,
    ),
    layer("core.server.peel_s.hop0", "s", Better::Lower, PEEL_MOVES),
    layer("core.server.peel_s.hop1", "s", Better::Lower, PEEL_MOVES),
    layer("core.server.peel_s.hop2", "s", Better::Lower, PEEL_MOVES),
    layer(
        "core.noise.generate_s.hop0",
        "s",
        Better::Lower,
        NOISE_MOVES,
    ),
    layer(
        "core.noise.generate_s.hop1",
        "s",
        Better::Lower,
        NOISE_MOVES,
    ),
    layer(
        "core.noise.generate_s.hop2",
        "s",
        Better::Lower,
        NOISE_MOVES,
    ),
    layer(
        "core.roundbuf.permute_s.hop0",
        "s",
        Better::Lower,
        HOP_MOVES,
    ),
    layer(
        "core.roundbuf.permute_s.hop1",
        "s",
        Better::Lower,
        HOP_MOVES,
    ),
    layer(
        "core.roundbuf.permute_s.hop2",
        "s",
        Better::Lower,
        HOP_MOVES,
    ),
    layer(
        "core.deaddrops.exchange_s",
        "s",
        Better::Lower,
        "onions_per_s on conv_clients",
    ),
    layer(
        "core.deaddrops.deposit_s",
        "s",
        Better::Lower,
        "onions_per_s on mixed_stream; 0 on conv_*",
    ),
    layer(
        "core.chain.round_s",
        "s",
        Better::Lower,
        "the traced round itself: round_latency_p50_s on the workload traced",
    ),
    layer(
        "core.pipeline.stage_busy_s.hop0",
        "s",
        Better::Lower,
        PIPELINE_MOVES,
    ),
    layer(
        "core.pipeline.stage_busy_s.hop1",
        "s",
        Better::Lower,
        PIPELINE_MOVES,
    ),
    layer(
        "core.pipeline.stage_busy_s.hop2",
        "s",
        Better::Lower,
        PIPELINE_MOVES,
    ),
    layer(
        "core.pipeline.overlap",
        "ratio",
        Better::Higher,
        PIPELINE_MOVES,
    ),
    layer(
        "core.pipeline.speedup_vs_sequential",
        "ratio",
        Better::Higher,
        PIPELINE_MOVES,
    ),
    layer(
        "wire.frame.encode_ns_per_kib",
        "ns/KiB",
        Better::Lower,
        WIRE_MOVES,
    ),
    layer(
        "wire.frame.decode_ns_per_kib",
        "ns/KiB",
        Better::Lower,
        WIRE_MOVES,
    ),
    layer(
        "wire.frame.overhead_bytes",
        "B",
        Better::Lower,
        "nothing measurable: a constant per frame, not per onion",
    ),
    layer(
        "net.tcp.frame_rtt_us.small",
        "us",
        Better::Lower,
        "round_latency_p50_s on wire_window by eight transfers a round",
    ),
    layer(
        "net.tcp.frame_rtt_us.batch",
        "us",
        Better::Lower,
        WIRE_MOVES,
    ),
    layer("net.tcp.mib_per_s", "MiB/s", Better::Higher, WIRE_MOVES),
    layer(
        "net.memory.frame_rtt_us.batch",
        "us",
        Better::Lower,
        "none today: no workload runs nodes over memory transports",
    ),
    layer(
        "net.parallel.dispatch_us",
        "us",
        Better::Lower,
        "onions_per_s on conv_clients only: the pool is bypassed at one worker",
    ),
    layer("net.tcp.transfer_s", "s", Better::Lower, WIRE_MOVES),
    layer(
        "net.link.bytes_per_onion.clients",
        "B",
        Better::Lower,
        BYTES_MOVES,
    ),
    layer(
        "net.link.bytes_per_onion.hop0",
        "B",
        Better::Lower,
        BYTES_MOVES,
    ),
    layer(
        "net.link.bytes_per_onion.hop1",
        "B",
        Better::Lower,
        BYTES_MOVES,
    ),
    layer(
        "net.link.bytes_per_onion.hop2",
        "B",
        Better::Lower,
        BYTES_MOVES,
    ),
    layer(
        "core.node.wire_overhead_fraction",
        "ratio",
        Better::Lower,
        WIRE_MOVES,
    ),
    layer(
        "ledger.dh_ops_per_onion",
        "count",
        Better::Lower,
        COUNT_MOVES,
    ),
    layer(
        "ledger.dh_floor_s",
        "s",
        Better::Lower,
        "falls with any crypto.x25519 probe; the round cannot be faster than this",
    ),
    layer(
        "ledger.overhead_vs_dh_floor",
        "ratio",
        Better::Lower,
        "the paper's section 8.2 ratio; not gated, because a faster DH lowers the floor too",
    ),
    layer("ledger.sum_of_layers_s", "s", Better::Lower, LEDGER_MOVES),
    layer(
        "ledger.unexplained_residual",
        "ratio",
        Better::Lower,
        LEDGER_MOVES,
    ),
    layer(
        "ledger.tracing_overhead",
        "ratio",
        Better::Lower,
        LEDGER_MOVES,
    ),
];

/// The program and arguments that run one workload; the driver appends
/// `--workload`, `--seed`, `--seconds` and `--trace`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, generated from the tables above.
#[must_use]
pub fn manifest() -> Value {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| json!({ "name": w.name, "why": w.why }))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| {
            json!({
                "name": m.name,
                "unit": m.unit,
                "better": m.better.as_str(),
                "bound": m.bound,
            })
        })
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({ "name": m.name, "unit": m.unit, "better": m.better.as_str() }))
        .collect();
    json!({
        "command": COMMAND.to_vec(),
        "paths": vec!["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}

/// The workloads, seeds and metric tables as Markdown, for the README.
#[must_use]
pub fn glossary() -> String {
    let mut out = format!(
        "Default seed {DEFAULT_SEED}; validation seed {VALIDATION_SEED}; {RUN_SECONDS} s measured per run.\n\n"
    );
    out.push_str("| workload | why |\n|---|---|\n");
    for w in &WORKLOADS {
        out.push_str(&format!("| `{}` | {} |\n", w.name, w.why));
    }
    out.push_str("\n| end-to-end metric | unit | better | bound | what |\n|---|---|---|---|---|\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        ));
    }
    out.push_str("\n| per-layer metric | unit | better | should move |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        ));
    }
    out
}

/// The unit a metric is reported in.
///
/// # Panics
///
/// Panics on a name neither table declares — a bug in a workload.
#[must_use]
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, unit)| (n == name).then_some(unit))
        .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_are_within_the_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(!m.moves.is_empty(), "{} must say what it moves", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_manifest_equals_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let committed = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
        );
        assert!(text.len() <= 64 * 1024);
    }
}
