//! The §8.2 gate: a 10,000-onion conversation round's three-hop forward
//! pass against its kernel floor, at chain length 3.
//!
//! Noise is deterministic with µ = 5,000 per noising server, i.e. 2µ =
//! 10,000 cover onions each — a 1:60 scale-down of the paper's fixed
//! µ = 300,000 (§8.1). µ does not shrink with the user count (it is a
//! privacy parameter), which is why "the noise dominates" server cost at
//! smaller scales (§8.2); cover ≈ 1× real traffic here is the modest end
//! of that regime.
//!
//! The round is built as the deployment builds one: the servers come
//! from `chain::build_server`, and the 10,000 client onions from a
//! `ClientCohort` whose members are paired and each send their partner
//! a message (§8.1; `vuvuzela_bench::workload`). The pass is the flat
//! `RoundBuffer` path every runtime runs (`MixServer::forward_buf` at
//! each hop, fanned out over `default_workers()` cores), each time on a
//! copy of the cohort's arena made before the clock starts. It is
//! checked once, untimed, byte for byte against the per-`Vec` oracle
//! `MixServer::forward_reference`.
//! The same check pass counts the kernel work each hop did from the
//! arena lengths going into and out of `forward_buf`, by the round
//! record's formula (`record::KernelOps::forward_pass`): hop *i* peels
//! its input and wraps its noise (output minus input) with
//! `chain_len − 1 − i` layers. Those counts must equal
//! `CostModel::hop_ops`, the same formula over the planned traffic (60k
//! peels and 30k wrapped layers here).
//!
//! The chunk-peel and chunk-wrap probes of `vuvuzela_bench::peelstage`
//! price them, on whichever kernels this CPU runs (`ladder_backend`):
//! five rounds of one timed pass and one pass of each probe, interleaved
//! so that the bests come from the same stretch of a shared host's time.
//! Each probe fans its chunks out on the pass's workers through the
//! pass's own `WorkerPool::map_vec`, so SMT siblings and a busy host
//! slow both sides alike. `CostModel::kernel_floor_secs` at the best
//! probe rates is `kernel_floor_secs`; `overhead_vs_kernel_floor` is the
//! best pass divided by it — the paper's "within 2× of the inevitable
//! cryptographic operations" on this host. Both sides run the same
//! kernels on the same workers, so the ratio transfers across CPUs; a
//! kernel slowdown that moves the probes and the pass together does not
//! move it.
//!
//! Each of the five rounds also runs a fresh cohort's round whole on
//! `Chain::run`, every reply delivered: `round_vs_record`, the median of
//! its wall time over the sum of its record's pass durations
//! (`record::Fold`), is how much of a round its record leaves unexplained.
//!
//! After writing `BENCH_round_pipeline.json` at the workspace root, the
//! bin exits non-zero if the ratio falls outside
//! [`OVERHEAD_BOUNDS`], the pass allocates [`MAX_ALLOCS_PER_ONION`]
//! or more times per onion (counting global allocator), or
//! `round_vs_record` falls outside [`ROUND_VS_RECORD_BOUNDS`]. Run it with
//! `cargo run --release -p vuvuzela-bench --bin bench_round_pipeline`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::RangeInclusive;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use vuvuzela_bench::peelstage::Probe;
use vuvuzela_bench::report::workspace_root;
use vuvuzela_bench::workload::{assert_delivered, talking_cohort};
use vuvuzela_bench::CostModel;
use vuvuzela_core::chain::build_server;
use vuvuzela_core::record::{Fold, KernelOps};
use vuvuzela_core::roundbuf::RoundBuffer;
use vuvuzela_core::server::{MixServer, RoundKind};
use vuvuzela_core::{Chain, RoundSpec, SystemConfig};
use vuvuzela_crypto::x25519::PublicKey;
use vuvuzela_dp::{NoiseDistribution, NoiseMode};

/// `System` allocator wrapper counting every allocation (not bytes —
/// the pipeline claim is about allocation *count* per onion).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates everything to `System`; only adds a relaxed counter.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const ONIONS: u64 = 10_000;
const CHAIN_LEN: usize = 3;
const MU: f64 = 5_000.0;
const ROUND: u64 = 1;
/// Timed rounds, each one forward pass and one pass of each probe.
const ITERATIONS: usize = 5;
/// Onions per kernel probe.
const PROBE_ONIONS: usize = 4096;

fn config() -> SystemConfig {
    SystemConfig {
        chain_len: CHAIN_LEN,
        conversation_noise: NoiseDistribution::new(MU, MU / 20.0),
        dialing_noise: NoiseDistribution::new(1.0, 1.0),
        noise_mode: NoiseMode::Deterministic,
        workers: vuvuzela_net::parallel::default_workers(),
        conversation_slots: 1,
        retransmit_after: 2,
        exchange_shards: 4,
    }
}

/// The chain's servers, fresh: what a deployment seeded with `seed`
/// runs.
fn servers(seed: u64) -> Vec<MixServer> {
    (0..CHAIN_LEN)
        .map(|position| build_server(&config(), seed, position))
        .collect()
}

/// One flat three-hop forward pass.
struct FlatPass {
    secs: f64,
    allocs_per_onion: f64,
    /// The kernel work each hop did, counted from its arenas.
    hops: Vec<KernelOps>,
}

/// Runs the flat forward pass of a copy of `batch` through every hop,
/// returning the pass and the tail's output.
fn run_flat(seed: u64, batch: &RoundBuffer) -> (FlatPass, RoundBuffer) {
    let mut servers = servers(seed);
    let mut buf = batch.clone();
    let mut hops = Vec::with_capacity(CHAIN_LEN);
    let alloc0 = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    for (i, server) in servers.iter_mut().enumerate() {
        let incoming = buf.len() as u64;
        buf = server.forward_buf(ROUND, RoundKind::Conversation, buf).0;
        let sent = buf.len() as u64;
        hops.push(KernelOps::forward_pass(i, CHAIN_LEN, incoming, sent));
    }
    let secs = start.elapsed().as_secs_f64();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - alloc0;
    let pass = FlatPass {
        secs,
        allocs_per_onion: allocs as f64 / ONIONS as f64,
        hops,
    };
    (pass, buf)
}

/// The cohort's round whole on `Chain::run` — forward, exchange and
/// backward, every reply delivered — as its wall time over the sum of
/// its record's durations.
fn round_vs_record(seed: u64, pks: &[PublicKey]) -> f64 {
    let mut cohort = talking_cohort(&config(), 7, pks, ONIONS as usize);
    let batch = cohort.build_conversation_round(ROUND).into();
    let mut chain = Chain::new(config(), seed);
    let outcome = chain
        .run(vec![RoundSpec::Conversation {
            round: ROUND,
            batch,
        }])
        .expect("an untapped chain completes its round")
        .remove(0);
    assert_delivered(
        &mut cohort,
        ROUND,
        outcome.replies().expect("a conversation round"),
    );
    let record = chain.round_record(ROUND).iter().map(|event| &event.public);
    let busy = Fold::of(CHAIN_LEN, record).total().busy;
    outcome.timing().total.as_secs_f64() / busy.as_secs_f64()
}

/// The per-`Vec` oracle's output for the same servers and batch.
fn run_reference(seed: u64, batch: &RoundBuffer) -> Vec<Vec<u8>> {
    servers(seed)
        .iter_mut()
        .fold(batch.to_vecs(), |onions, server| {
            server.forward_reference(ROUND, RoundKind::Conversation, onions)
        })
}

/// §8.2 puts the whole system within ~2× of its unavoidable
/// cryptographic work; the forward pass must sit within these multiples
/// of its kernel floor. The pass cannot beat the kernels it runs, but
/// it sits within a few percent of them, so run-to-run noise alone
/// reads 0.96–1.12 on a shared 2-vCPU host; below 0.8 the floor is
/// mispriced (portable-kernel probes against an IFMA pass read ≈ 0.2).
/// Above 1.5 something besides the kernels costs half as much again —
/// tighter than the paper's 2, which one extra peel per onion at every
/// hop (≈ 1.8) would still pass.
const OVERHEAD_BOUNDS: RangeInclusive<f64> = 0.8..=1.5;
/// The zero-copy claim: the arena path allocates per hop and per
/// worker chunk, never per onion.
const MAX_ALLOCS_PER_ONION: f64 = 1.0;

/// The whole round must be its record's passes and little else. The
/// passes run one after another on `Chain::run`'s one thread, so their
/// sum cannot exceed the round: below 1 the fold counts a pass twice.
/// What the round spends outside them is the runtime's own cost, the
/// residual: ten runs on a 2-vCPU host read 1.00011–1.00013 (≈ 90 µs of
/// a 0.75 s round), and above 1.01 a hundredth of the round goes
/// unexplained, some 80 times that.
const ROUND_VS_RECORD_BOUNDS: RangeInclusive<f64> = 1.0..=1.01;

/// Holds the pass and the whole round to their bounds; the error names
/// each metric outside its bound.
fn gate(
    overhead_vs_kernel_floor: f64,
    allocs_per_onion: f64,
    round_vs_record: f64,
) -> Result<(), String> {
    let mut failures = Vec::new();
    if !OVERHEAD_BOUNDS.contains(&overhead_vs_kernel_floor) {
        failures.push(format!(
            "overhead_vs_kernel_floor {overhead_vs_kernel_floor:.3} is outside [{}, {}]",
            OVERHEAD_BOUNDS.start(),
            OVERHEAD_BOUNDS.end()
        ));
    }
    if !(0.0..MAX_ALLOCS_PER_ONION).contains(&allocs_per_onion) {
        failures.push(format!(
            "flat.allocs_per_onion {allocs_per_onion:.3} is not below {MAX_ALLOCS_PER_ONION}"
        ));
    }
    if !ROUND_VS_RECORD_BOUNDS.contains(&round_vs_record) {
        failures.push(format!(
            "round_vs_record {round_vs_record:.4} is outside [{}, {}]",
            ROUND_VS_RECORD_BOUNDS.start(),
            ROUND_VS_RECORD_BOUNDS.end()
        ));
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn main() -> ExitCode {
    let seed = 42;
    let workers = vuvuzela_net::parallel::default_workers();
    println!("building {ONIONS}-onion workload (chain {CHAIN_LEN}, mu {MU})...");
    let pks: Vec<_> = servers(seed).iter().map(MixServer::public_key).collect();
    let batch = talking_cohort(&config(), 7, &pks, ONIONS as usize).build_conversation_round(ROUND);

    // Correctness first, untimed: the flat pass is the oracle's, and
    // its counted work is the model's.
    let (checked, out) = run_flat(seed, &batch);
    assert_eq!(
        run_reference(seed, &batch),
        out.to_vecs(),
        "flat and reference paths diverged"
    );
    println!(
        "flat pass byte-identical to the per-Vec reference over {} onions",
        out.len()
    );
    assert_eq!(
        checked.hops,
        CostModel::hop_ops(ONIONS, 2 * MU as u64, CHAIN_LEN),
        "the hops' counted kernel work is not CostModel's"
    );

    // Passes and probes interleaved, so that the best of each comes
    // from the same stretch of a shared host's time.
    let (peel, wrap) = (
        Probe::peel(PROBE_ONIONS),
        Probe::wrap(PROBE_ONIONS, CHAIN_LEN),
    );
    let mut passes = Vec::with_capacity(ITERATIONS);
    let mut whole = Vec::with_capacity(ITERATIONS);
    let (mut peels_per_sec, mut layers_per_sec) = (0.0_f64, 0.0_f64);
    for i in 0..ITERATIONS {
        let (pass, _) = run_flat(seed, &batch);
        whole.push(round_vs_record(seed, &pks));
        println!(
            "pass {i}: {:.3}s; whole round over its record {:.4}x",
            pass.secs, whole[i]
        );
        passes.push(pass);
        peels_per_sec = peels_per_sec.max(peel.rate(workers));
        layers_per_sec = layers_per_sec.max(wrap.rate(workers));
    }
    whole.sort_by(f64::total_cmp);
    let round_vs_record = whole[ITERATIONS / 2];
    let flat = passes
        .into_iter()
        .min_by(|a, b| a.secs.total_cmp(&b.secs))
        .expect("at least one pass");
    let model = CostModel {
        peels_per_sec_core: peels_per_sec,
        layers_per_sec_core: layers_per_sec,
        cores: workers,
    };
    let ops: KernelOps = flat.hops.iter().copied().sum();
    let kernel_floor_secs = model.kernel_floor_secs(ops);
    let overhead_vs_kernel_floor = flat.secs / kernel_floor_secs;
    println!(
        "\nkernels ({}): {:.0} peels/s/core, {:.0} layers/s/core; workers {workers}",
        vuvuzela_crypto::x25519::ladder_backend(),
        model.peels_per_sec_core,
        model.layers_per_sec_core
    );
    println!(
        "forward pass {:.3}s over a kernel floor of {kernel_floor_secs:.3}s \
         ({} peels, {} layers): {overhead_vs_kernel_floor:.2}x; {:.2} allocations/onion",
        flat.secs, ops.peels, ops.layers, flat.allocs_per_onion
    );
    println!("whole round over the sum of its record (median): {round_vs_record:.4}x");

    let hops: Vec<_> = flat
        .hops
        .iter()
        .map(|hop| serde_json::json!({ "peels": hop.peels, "layers": hop.layers }))
        .collect();
    let json = serde_json::json!({
        "onions": ONIONS,
        "chain_len": CHAIN_LEN,
        "mu": MU,
        "workers": workers,
        "iterations": ITERATIONS,
        "ladder_backend": vuvuzela_crypto::x25519::ladder_backend(),
        "sha256_backend": vuvuzela_crypto::sha256::backend(),
        "flat": {
            "full_chain_secs": flat.secs,
            "allocs_per_onion": flat.allocs_per_onion,
        },
        "hops": hops,
        "probes": {
            "onions": PROBE_ONIONS,
            "peels_per_sec_core": model.peels_per_sec_core,
            "layers_per_sec_core": model.layers_per_sec_core,
        },
        "kernel_floor_secs": kernel_floor_secs,
        "overhead_vs_kernel_floor": overhead_vs_kernel_floor,
        "round_vs_record": round_vs_record,
    });

    // Committed at the workspace root (unlike the bench_results/
    // artefacts) so the perf trajectory is tracked in-repo.
    let path = workspace_root().join("BENCH_round_pipeline.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&json).expect("serialize"),
    )
    .expect("write BENCH_round_pipeline.json");
    println!("[artefact] {}", path.display());

    match gate(
        overhead_vs_kernel_floor,
        flat.allocs_per_onion,
        round_vs_record,
    ) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failures) => {
            eprintln!("bench_round_pipeline: {failures}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_ratio_inside_the_bounds_passes() {
        for ratio in [0.8, 1.0, 1.13, 1.5] {
            assert_eq!(gate(ratio, 0.33, 1.01), Ok(()));
        }
    }

    #[test]
    fn a_ratio_outside_the_bounds_or_nan_fails_by_name() {
        for ratio in [0.79, 1.51, f64::NAN] {
            let err = gate(ratio, 0.33, 1.01).expect_err("outside the bounds");
            assert!(err.contains("overhead_vs_kernel_floor"), "{err}");
            assert!(err.contains("[0.8, 1.5]"), "{err}");
        }
    }

    #[test]
    fn a_round_its_record_does_not_explain_fails_by_name() {
        assert_eq!(gate(1.13, 0.33, 1.0), Ok(()));
        for ratio in [0.999, 1.02, f64::NAN] {
            let err = gate(1.13, 0.33, ratio).expect_err("outside the bounds");
            assert!(err.contains("round_vs_record"), "{err}");
            assert!(err.contains("[1, 1.01]"), "{err}");
        }
    }

    #[test]
    fn an_allocation_per_onion_fails_by_name() {
        for allocs in [1.0, 27.0, f64::NAN] {
            let err = gate(1.13, allocs, 1.01).expect_err("allocates per onion");
            assert!(err.contains("flat.allocs_per_onion"), "{err}");
            assert!(err.contains("below 1"), "{err}");
        }
    }
}
