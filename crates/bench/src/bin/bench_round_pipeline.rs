//! Round-pipeline throughput artefact: flat `RoundBuffer` path vs the
//! pre-refactor per-`Vec` reference, measured on a 10,000-onion
//! conversation round at chain length 3.
//!
//! Noise is deterministic with µ = 5,000 per noising server, i.e. 2µ =
//! 10,000 cover onions each — a 1:60 scale-down of the paper's fixed
//! µ = 300,000 (§8.1). µ does not shrink with the user count (it is a
//! privacy parameter), which is why "the noise dominates" server cost at
//! smaller scales (§8.2); cover ≈ 1× real traffic here is the modest end
//! of that regime.
//! Both paths run the same servers with the same seeds and produce
//! byte-identical batches (asserted here before timing), so the
//! comparison isolates implementation cost:
//!
//! * **reference** — the seed implementation: allocating peel, noise
//!   onions as fresh `Vec`s (ladder keygen + ladder DH per layer),
//!   shuffle by cloning every payload;
//! * **flat** — in-place peel over one arena, noise wrapped in place with
//!   comb-table keygen and precomputed per-server DH tables, shuffle by
//!   index remapping, each arena pass fanned out over cores by chunk of
//!   slots (`WorkerPool::map_vec` on scoped threads).
//!
//! Reported per pass: wall-clock seconds, onions/sec (incoming onions ÷
//! forward-pass time at the first — noising — server, the §8.2 unit of
//! server work), heap allocations per onion (counting global allocator),
//! and the full three-hop forward-pass time. A separate `peel` section
//! isolates the onion-peeling stage itself and prices the chunk peel
//! on the ladder this CPU runs (`ladder_backend` in the artefact:
//! eight-wide AVX-512 IFMA or the portable scalar ladder) against the
//! seed-era per-slot peel; a `wrap` section beside it prices the chunk wrap
//! (cover traffic, cohort build: the comb tables eight lanes at a time
//! on that backend) in wrapped layers per second (see
//! `vuvuzela_bench::peelstage`).
//! Written to `BENCH_round_pipeline.json` at the workspace root for the
//! perf trajectory; regenerate with
//! `cargo run --release -p vuvuzela-bench --bin bench_round_pipeline`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vuvuzela_bench::workload::conversation_batch;
use vuvuzela_core::roundbuf::RoundBuffer;
use vuvuzela_core::server::{MixServer, RoundKind};
use vuvuzela_core::SystemConfig;
use vuvuzela_crypto::x25519::Keypair;
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
const ITERATIONS: usize = 3;

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

fn build_servers(seed: u64) -> Vec<MixServer> {
    let mut rng = StdRng::seed_from_u64(seed);
    let keypairs: Vec<Keypair> = (0..CHAIN_LEN)
        .map(|_| Keypair::generate(&mut rng))
        .collect();
    let publics: Vec<_> = keypairs.iter().map(|kp| kp.public).collect();
    keypairs
        .into_iter()
        .enumerate()
        .map(|(i, kp)| {
            MixServer::new(
                i,
                CHAIN_LEN,
                kp,
                publics[i + 1..].to_vec(),
                config(),
                seed.wrapping_add(1 + i as u64),
            )
        })
        .collect()
}

struct PassResult {
    first_hop_secs: f64,
    full_chain_secs: f64,
    allocs_per_onion: f64,
}

/// Runs the full three-hop forward pass, timing the first (noising) hop
/// separately and counting allocations across the whole pass.
fn run_reference(seed: u64, batch: &[Vec<u8>]) -> (PassResult, Vec<Vec<u8>>) {
    let mut servers = build_servers(seed);
    let input = batch.to_vec();
    let alloc0 = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    let mut current = servers[0].forward_reference(ROUND, RoundKind::Conversation, input);
    let first_hop_secs = start.elapsed().as_secs_f64();
    for server in &mut servers[1..] {
        current = server.forward_reference(ROUND, RoundKind::Conversation, current);
    }
    let full_chain_secs = start.elapsed().as_secs_f64();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - alloc0;
    (
        PassResult {
            first_hop_secs,
            full_chain_secs,
            allocs_per_onion: allocs as f64 / ONIONS as f64,
        },
        current,
    )
}

fn run_flat(seed: u64, batch: &[Vec<u8>]) -> (PassResult, Vec<Vec<u8>>) {
    let mut servers = build_servers(seed);
    let width = servers[0].incoming_width(RoundKind::Conversation);
    let (mut buf, mismatched) = RoundBuffer::from_vecs(batch, width, width);
    assert!(mismatched.is_empty(), "benchmark batch must be well-formed");
    let alloc0 = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    buf = servers[0].forward_buf(ROUND, RoundKind::Conversation, buf);
    let first_hop_secs = start.elapsed().as_secs_f64();
    for server in &mut servers[1..] {
        buf = server.forward_buf(ROUND, RoundKind::Conversation, buf);
    }
    let full_chain_secs = start.elapsed().as_secs_f64();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - alloc0;
    (
        PassResult {
            first_hop_secs,
            full_chain_secs,
            allocs_per_onion: allocs as f64 / ONIONS as f64,
        },
        buf.to_vecs(),
    )
}

fn best(results: &[PassResult]) -> &PassResult {
    results
        .iter()
        .min_by(|a, b| {
            a.first_hop_secs
                .partial_cmp(&b.first_hop_secs)
                .expect("finite timings")
        })
        .expect("at least one iteration")
}

fn main() {
    let seed = 42;
    println!("building {ONIONS}-onion workload (chain {CHAIN_LEN}, mu {MU})...");
    let servers = build_servers(seed);
    let pks: Vec<_> = servers.iter().map(MixServer::public_key).collect();
    drop(servers);
    let batch = conversation_batch(
        ONIONS,
        ROUND,
        &pks,
        vuvuzela_net::parallel::default_workers(),
        7,
    );

    // Correctness gate: both paths must agree bytewise before timing.
    let (_, out_ref) = run_reference(seed, &batch);
    let (_, out_flat) = run_flat(seed, &batch);
    assert_eq!(out_ref, out_flat, "flat and reference paths diverged");
    println!(
        "paths byte-identical over {} outgoing onions",
        out_ref.len()
    );

    let mut reference = Vec::new();
    let mut flat = Vec::new();
    for i in 0..ITERATIONS {
        reference.push(run_reference(seed, &batch).0);
        flat.push(run_flat(seed, &batch).0);
        println!(
            "iter {i}: reference first-hop {:.3}s  flat first-hop {:.3}s",
            reference[i].first_hop_secs, flat[i].first_hop_secs
        );
    }
    let reference = best(&reference);
    let flat = best(&flat);

    let peel = vuvuzela_bench::peelstage::run(4096, 5);
    let wrap = vuvuzela_bench::peelstage::run_wrap(4096, CHAIN_LEN, 5);

    let ref_rate = ONIONS as f64 / reference.first_hop_secs;
    let flat_rate = ONIONS as f64 / flat.first_hop_secs;
    let speedup_first = flat_rate / ref_rate;
    let speedup_full = reference.full_chain_secs / flat.full_chain_secs;
    println!(
        "\nfirst (noising) hop: reference {:>9.0} onions/s   flat {:>9.0} onions/s   {speedup_first:.2}x",
        ref_rate, flat_rate
    );
    println!(
        "full 3-hop forward:  reference {:.3}s              flat {:.3}s              {speedup_full:.2}x",
        reference.full_chain_secs, flat.full_chain_secs
    );
    println!(
        "allocations/onion:   reference {:>6.1}             flat {:>6.1}",
        reference.allocs_per_onion, flat.allocs_per_onion
    );

    let json = serde_json::json!({
        "onions": ONIONS,
        "chain_len": CHAIN_LEN,
        "mu": MU,
        "workers": vuvuzela_net::parallel::default_workers(),
        "iterations": ITERATIONS,
        // Every ratio below prices a path that runs the detected ladder
        // against one that never does; bench_diff compares them only
        // between files that agree on this.
        "ladder_backend": vuvuzela_crypto::x25519::ladder_backend(),
        "sha256_backend": vuvuzela_crypto::sha256::backend(),
        "reference": {
            "first_hop_secs": reference.first_hop_secs,
            "first_hop_onions_per_sec": ref_rate,
            "full_chain_secs": reference.full_chain_secs,
            "allocs_per_onion": reference.allocs_per_onion,
        },
        "flat": {
            "first_hop_secs": flat.first_hop_secs,
            "first_hop_onions_per_sec": flat_rate,
            "full_chain_secs": flat.full_chain_secs,
            "allocs_per_onion": flat.allocs_per_onion,
        },
        "speedup_first_hop": speedup_first,
        "speedup_full_chain": speedup_full,
        "peel": peel,
        "wrap": wrap,
    });

    // Committed at the workspace root (unlike the bench_results/
    // artefacts) so the perf trajectory is tracked in-repo.
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    let path = root.join("BENCH_round_pipeline.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&json).expect("serialize"),
    )
    .expect("write BENCH_round_pipeline.json");
    println!("\n[artefact] {}", path.display());
}
