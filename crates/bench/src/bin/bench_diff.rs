//! Bench-regression gate: compares a freshly generated bench JSON
//! against its committed baseline and exits non-zero on a throughput
//! regression.
//!
//! Only **scale-free ratio metrics** are compared — every numeric leaf
//! whose key contains `speedup` but not `measured`
//! (`sustained_speedup_model`, `speedup_first_hop`, …). Absolute rates
//! (onions/sec, rounds/sec) depend on the machine a baseline was
//! generated on and are meaningless to diff across hardware, and even
//! `measured_speedup` is core-count-bound (it cannot exceed 1.0 when
//! cores < chain_len, so a 1-core baseline vs a multi-core runner — or
//! vice versa — would gate on hardware, not code; the smoke bins
//! already hold measured throughput to a same-machine floor
//! themselves).
//!
//! The remaining ratio metrics are not all equally machine-transferable,
//! so the gate applies **per-metric-class tolerances**:
//!
//! * **model** metrics (key contains `sustained` or `model`) are
//!   computed from per-stage time *ratios* of a single run — if the
//!   pipeline model used to predict 2.5× over sequential on every box
//!   and now predicts 1.2×, something regressed no matter what hardware
//!   CI landed on. These get the tight tolerance (default 15%).
//! * **wall-clock** ratio metrics (`speedup_first_hop`,
//!   `speedup_peel_batched`, …) compare two same-run wall-clock
//!   measurements. The ratio transfers across machines far better than
//!   the absolute rates do, but a shared CI runner adds load noise to
//!   each side independently — on the 1-core runners some of these sit
//!   near 1.0×, where a 15% band is routinely crossed by noise alone.
//!   These get a looser tolerance (default 35%) so scheduling jitter
//!   cannot fail the build while a real regression (a halved speedup)
//!   still does.
//!
//! Wall-clock ratios also depend on **which x25519 kernels the CPU
//! ran**: `speedup_peel_batched` is ~1.2 on the portable four-wide
//! ladder and ~4 on the eight-wide AVX-512 IFMA one,
//! `speedup_wrap_chunk` ~1 on the scalar comb and ~3 on the eight-wide
//! one, and every other flat-versus-reference ratio moves with them.
//! `bench_round_pipeline` records the kernel as a top-level
//! `ladder_backend` string; when both files carry one and they differ,
//! the wall-clock ratios are reported as skipped instead of compared,
//! so an IFMA baseline cannot fail a runner without IFMA, nor a
//! portable baseline hide a regression on a runner with it.
//!
//! A metric regresses when `fresh < (1 − tolerance) × baseline`.
//! Metrics present in only one file are reported but don't fail the
//! gate (artefact schemas may grow); finding *no* comparable metric at
//! all fails it (a silently empty gate is worse than none).
//!
//! Usage:
//! `bench_diff <baseline.json> <fresh.json> [model-tolerance] [wallclock-tolerance]`
//! Tolerances default to 0.15 / 0.35; override positionally or via
//! `VUVUZELA_BENCH_TOLERANCE` / `VUVUZELA_BENCH_TOLERANCE_WALLCLOCK`.

use serde_json::Value;
use std::process::ExitCode;

const DEFAULT_MODEL_TOLERANCE: f64 = 0.15;
const DEFAULT_WALLCLOCK_TOLERANCE: f64 = 0.35;

/// How machine-transferable a ratio metric is, deciding its tolerance.
#[derive(Clone, Copy, PartialEq, Eq)]
enum MetricClass {
    /// Derived from intra-run stage-time ratios; transfers across
    /// hardware, gets the tight band.
    Model,
    /// A ratio of two same-run wall-clock measurements; load noise on
    /// shared runners hits each side independently, gets the loose
    /// band.
    Wallclock,
}

impl MetricClass {
    fn of(key: &str) -> MetricClass {
        if key.contains("sustained") || key.contains("model") {
            MetricClass::Model
        } else {
            MetricClass::Wallclock
        }
    }

    fn label(self) -> &'static str {
        match self {
            MetricClass::Model => "model",
            MetricClass::Wallclock => "wall-clock",
        }
    }
}

/// Collects `(path, class, value)` for every numeric leaf under `value`
/// whose final key contains "speedup" — except wall-clock `measured_*`
/// ratios, which don't transfer across machines (see the module docs).
fn collect_speedups(path: &str, value: &Value, out: &mut Vec<(String, MetricClass, f64)>) {
    match value {
        Value::Object(map) => {
            for (key, child) in map {
                let child_path = format!("{path}/{key}");
                if let Some(number) = child.as_f64() {
                    if key.contains("speedup") && !key.contains("measured") {
                        out.push((child_path, MetricClass::of(key), number));
                    }
                } else {
                    collect_speedups(&child_path, child, out);
                }
            }
        }
        Value::Array(items) => {
            for (i, child) in items.iter().enumerate() {
                collect_speedups(&format!("{path}/{i}"), child, out);
            }
        }
        _ => {}
    }
}

/// One artefact: its ratio metrics and, if recorded, the x25519
/// ladder backend it was generated on.
struct Artefact {
    metrics: Vec<(String, MetricClass, f64)>,
    ladder_backend: Option<String>,
}

fn load(path: &str) -> Result<Artefact, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value: Value =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let mut metrics = Vec::new();
    collect_speedups("", &value, &mut metrics);
    Ok(Artefact {
        metrics,
        ladder_backend: value["ladder_backend"].as_str().map(str::to_string),
    })
}

fn parse_tolerance(positional: Option<&String>, env_key: &str, default: f64) -> f64 {
    let tolerance = positional
        .cloned()
        .or_else(|| std::env::var(env_key).ok())
        .map_or(default, |t| t.parse().expect("tolerance must be a number"));
    assert!(
        (0.0..1.0).contains(&tolerance),
        "tolerance must be in [0, 1)"
    );
    tolerance
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(baseline_path), Some(fresh_path)) = (args.first(), args.get(1)) else {
        eprintln!(
            "usage: bench_diff <baseline.json> <fresh.json> [model-tolerance] [wallclock-tolerance]"
        );
        return ExitCode::FAILURE;
    };
    let model_tolerance = parse_tolerance(
        args.get(2),
        "VUVUZELA_BENCH_TOLERANCE",
        DEFAULT_MODEL_TOLERANCE,
    );
    let wallclock_tolerance = parse_tolerance(
        args.get(3),
        "VUVUZELA_BENCH_TOLERANCE_WALLCLOCK",
        DEFAULT_WALLCLOCK_TOLERANCE,
    );

    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "bench_diff: {baseline_path} (baseline) vs {fresh_path} (fresh), \
         tolerance {model_tolerance:.2} (model) / {wallclock_tolerance:.2} (wall-clock)"
    );
    let backends_differ = match (&baseline.ladder_backend, &fresh.ladder_backend) {
        (Some(b), Some(f)) if b != f => {
            println!("  ladder backends differ: baseline {b:?}, fresh {f:?}");
            true
        }
        _ => false,
    };
    let (baseline, fresh) = (baseline.metrics, fresh.metrics);
    let mut compared = 0usize;
    let mut incomparable = 0usize;
    let mut regressions = 0usize;
    for (path, class, base) in &baseline {
        let Some((_, _, new)) = fresh.iter().find(|(p, _, _)| p == path) else {
            println!("  [skip] {path}: only in baseline");
            continue;
        };
        if backends_differ && *class == MetricClass::Wallclock {
            incomparable += 1;
            println!("  [skip] {path}: {new:.3} vs baseline {base:.3} on another ladder backend");
            continue;
        }
        compared += 1;
        let tolerance = match class {
            MetricClass::Model => model_tolerance,
            MetricClass::Wallclock => wallclock_tolerance,
        };
        let floor = base * (1.0 - tolerance);
        if *new < floor {
            regressions += 1;
            println!(
                "  [FAIL] {path} ({}): {new:.3} < {floor:.3} (baseline {base:.3})",
                class.label()
            );
        } else {
            println!(
                "  [ ok ] {path} ({}): {new:.3} (baseline {base:.3}, floor {floor:.3})",
                class.label()
            );
        }
    }
    for (path, _, _) in &fresh {
        if !baseline.iter().any(|(p, _, _)| p == path) {
            println!("  [new ] {path}: only in fresh");
        }
    }

    if compared == 0 && incomparable > 0 {
        println!(
            "bench_diff: nothing comparable across ladder backends ({incomparable} metric(s) \
             skipped); regenerate the baseline on this backend to gate them"
        );
        return ExitCode::SUCCESS;
    }
    if compared == 0 {
        eprintln!(
            "bench_diff: no comparable speedup metrics found — refusing to pass an empty gate"
        );
        return ExitCode::FAILURE;
    }
    if regressions > 0 {
        eprintln!("bench_diff: {regressions}/{compared} metric(s) regressed beyond tolerance");
        return ExitCode::FAILURE;
    }
    println!("bench_diff: {compared} metric(s) within tolerance");
    ExitCode::SUCCESS
}
