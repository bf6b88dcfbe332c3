//! Bench-regression gate: compares a freshly generated bench JSON
//! against its committed baseline and exits non-zero on a throughput
//! regression.
//!
//! Only **scale-free ratio metrics** are compared — every numeric leaf
//! whose key contains `speedup` but not `measured`
//! (`speedup_first_hop`, `speedup_peel_vs_per_slot`, …), each a ratio of
//! two wall-clock measurements from the same run. Absolute rates
//! (onions/sec, rounds/sec) depend on the machine a baseline was
//! generated on and are meaningless to diff across hardware. The ratio
//! transfers far better, but a shared CI runner adds load noise to each
//! side independently — on the 1-core runners some of these sit near
//! 1.0×, where a tight band is routinely crossed by noise alone — so
//! the tolerance is loose (default 35%): scheduling jitter cannot fail
//! the build while a real regression (a halved speedup) still does.
//!
//! The ratios also depend on **which x25519 kernels the CPU ran**:
//! `speedup_peel_vs_per_slot` is ~1.1 on the portable scalar ladder and
//! ~5 on the eight-wide AVX-512 IFMA one, and every other
//! flat-versus-reference ratio moves with it. `bench_round_pipeline`
//! records the kernel as a top-level `ladder_backend` string; when both
//! files carry one and they differ, the ratios are reported as skipped
//! instead of compared, so an IFMA baseline cannot fail a runner
//! without IFMA, nor a portable baseline hide a regression on a runner
//! with it.
//!
//! A metric regresses when `fresh < (1 − tolerance) × baseline`.
//! Metrics present in only one file are reported but don't fail the
//! gate (artefact schemas may grow); finding *no* comparable metric at
//! all fails it (a silently empty gate is worse than none).
//!
//! Usage: `bench_diff <baseline.json> <fresh.json> [tolerance]`

use serde_json::Value;
use std::process::ExitCode;

const DEFAULT_TOLERANCE: f64 = 0.35;

/// Collects `(path, value)` for every numeric leaf under `value` whose
/// final key contains "speedup" — except `measured_*` ratios, which are
/// core-count-bound and don't transfer across machines.
fn collect_speedups(path: &str, value: &Value, out: &mut Vec<(String, f64)>) {
    match value {
        Value::Object(map) => {
            for (key, child) in map {
                let child_path = format!("{path}/{key}");
                if let Some(number) = child.as_f64() {
                    if key.contains("speedup") && !key.contains("measured") {
                        out.push((child_path, number));
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
    metrics: Vec<(String, f64)>,
    ladder_backend: Option<String>,
}

impl Artefact {
    fn of(value: &Value) -> Artefact {
        let mut metrics = Vec::new();
        collect_speedups("", value, &mut metrics);
        Artefact {
            metrics,
            ladder_backend: value["ladder_backend"].as_str().map(str::to_string),
        }
    }

    fn load(path: &str) -> Result<Artefact, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let value = serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
        Ok(Artefact::of(&value))
    }
}

/// Compares every baseline metric against its fresh twin, printing one
/// line per metric; the error names why the gate fails.
fn gate(baseline: &Artefact, fresh: &Artefact, tolerance: f64) -> Result<(), String> {
    let backends_differ = match (&baseline.ladder_backend, &fresh.ladder_backend) {
        (Some(b), Some(f)) if b != f => {
            println!("  ladder backends differ: baseline {b:?}, fresh {f:?}");
            true
        }
        _ => false,
    };
    let (mut compared, mut incomparable, mut regressions) = (0usize, 0usize, 0usize);
    for (path, base) in &baseline.metrics {
        let Some((_, new)) = fresh.metrics.iter().find(|(p, _)| p == path) else {
            println!("  [skip] {path}: only in baseline");
            continue;
        };
        if backends_differ {
            incomparable += 1;
            println!("  [skip] {path}: {new:.3} vs baseline {base:.3} on another ladder backend");
            continue;
        }
        compared += 1;
        let floor = base * (1.0 - tolerance);
        if *new < floor {
            regressions += 1;
            println!("  [FAIL] {path}: {new:.3} < {floor:.3} (baseline {base:.3})");
        } else {
            println!("  [ ok ] {path}: {new:.3} (baseline {base:.3}, floor {floor:.3})");
        }
    }
    for (path, _) in &fresh.metrics {
        if !baseline.metrics.iter().any(|(p, _)| p == path) {
            println!("  [new ] {path}: only in fresh");
        }
    }

    if compared == 0 && incomparable > 0 {
        println!(
            "bench_diff: nothing comparable across ladder backends ({incomparable} metric(s) \
             skipped); regenerate the baseline on this backend to gate them"
        );
        return Ok(());
    }
    if compared == 0 {
        return Err("no comparable speedup metrics found — refusing to pass an empty gate".into());
    }
    if regressions > 0 {
        return Err(format!(
            "{regressions}/{compared} metric(s) regressed beyond tolerance"
        ));
    }
    println!("bench_diff: {compared} metric(s) within tolerance");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(baseline_path), Some(fresh_path)) = (args.first(), args.get(1)) else {
        eprintln!("usage: bench_diff <baseline.json> <fresh.json> [tolerance]");
        return ExitCode::FAILURE;
    };
    let tolerance = args.get(2).map_or(DEFAULT_TOLERANCE, |t| {
        t.parse().expect("tolerance must be a number")
    });
    assert!(
        (0.0..1.0).contains(&tolerance),
        "tolerance must be in [0, 1)"
    );
    println!(
        "bench_diff: {baseline_path} (baseline) vs {fresh_path} (fresh), tolerance {tolerance:.2}"
    );
    let verdict = Artefact::load(baseline_path)
        .and_then(|baseline| Ok((baseline, Artefact::load(fresh_path)?)))
        .and_then(|(baseline, fresh)| gate(&baseline, &fresh, tolerance));
    match verdict {
        Ok(()) => ExitCode::SUCCESS,
        Err(reason) => {
            eprintln!("bench_diff: {reason}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn artefact(backend: &str, speedup: f64) -> Artefact {
        Artefact::of(&json!({
            "ladder_backend": backend,
            "onions_per_sec": 1e5,
            "measured_speedup": 0.1,
            "peel": { "speedup_peel_vs_per_slot": speedup },
        }))
    }

    #[test]
    fn only_unmeasured_speedup_leaves_are_collected() {
        let metrics = artefact("portable", 1.2).metrics;
        assert_eq!(
            metrics,
            vec![("/peel/speedup_peel_vs_per_slot".to_string(), 1.2)]
        );
    }

    #[test]
    fn fresh_below_the_tolerance_floor_fails() {
        let baseline = artefact("portable", 4.0);
        // The floor at 35% is 2.6: on it passes, under it fails.
        assert!(gate(&baseline, &artefact("portable", 2.6), 0.35).is_ok());
        let err = gate(&baseline, &artefact("portable", 2.59), 0.35).expect_err("regressed");
        assert!(err.contains("1/1 metric(s) regressed"), "{err}");
    }

    #[test]
    fn differing_ladder_backend_skips_the_ratios() {
        // A quarter of the baseline ratio, yet not comparable: the gate
        // passes without having compared anything.
        let baseline = artefact("avx512-ifma x8", 4.0);
        assert!(gate(&baseline, &artefact("portable", 1.0), 0.35).is_ok());
    }

    #[test]
    fn no_comparable_metric_fails() {
        let empty = Artefact::of(&json!({ "onions_per_sec": 1e5 }));
        let err = gate(&empty, &artefact("portable", 4.0), 0.35).expect_err("empty gate");
        assert!(err.contains("no comparable"), "{err}");
        let renamed = Artefact::of(&json!({ "speedup_other": 2.0 }));
        assert!(gate(&renamed, &artefact("portable", 4.0), 0.35).is_err());
    }
}
