//! Runs the built benchmark the way its users do, at `--quick` scale, so
//! the harness cannot rot unnoticed.

use serde_json::Value;
use std::process::Command;
use std::time::{Duration, Instant};

const EXE: &str = env!("CARGO_BIN_EXE_vuvuzela-benchmark");

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON")
}

fn names(list: &Value) -> Vec<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|entry| entry["name"].as_str().expect("a name").to_string())
        .collect()
}

/// One workload as the driver runs it; returns the parsed result line.
fn run_quick(workload: &str, trace: &str) -> Value {
    let output = Command::new(EXE)
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", trace, "--quick"])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.trim_end().lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is JSON")
}

#[test]
fn every_workload_reports_exactly_the_declared_metrics_in_under_ten_seconds() {
    let manifest = manifest();
    let end_to_end = names(&manifest["end_to_end"]);
    let per_layer = names(&manifest["per_layer"]);
    let started = Instant::now();
    for workload in names(&manifest["workloads"]) {
        for (trace, declared) in [("0", &end_to_end), ("1", &per_layer)] {
            let result = run_quick(&workload, trace);
            let Value::Object(fields) = &result else {
                panic!("the result is an object")
            };
            let keys: Vec<&str> = fields.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(
                result["correct"],
                Value::Bool(true),
                "{workload} trace {trace}"
            );
            assert_eq!(result["failed"].as_u64(), Some(0));
            assert!(result["attempted"].as_u64() >= Some(1));
            let Value::Object(metrics) = &result["metrics"] else {
                panic!("metrics is an object")
            };
            let mut reported: Vec<&str> = metrics.keys().map(String::as_str).collect();
            let mut declared: Vec<&str> = declared.iter().map(String::as_str).collect();
            reported.sort_unstable();
            declared.sort_unstable();
            assert_eq!(reported, declared, "{workload} trace {trace}");
            for (name, metric) in metrics {
                assert!(metric["value"].as_f64().is_some(), "{name} has a value");
                assert!(metric["unit"].as_str().is_some(), "{name} has a unit");
            }
        }
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "quick scale took {elapsed:?}"
    );
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    let result = run_quick("conv_cover", "0");
    let Value::Object(metrics) = &result["metrics"] else {
        panic!("metrics is an object")
    };
    for (name, metric) in metrics {
        assert!(metric["value"].as_f64() > Some(0.0), "{name} is positive");
    }
}

#[test]
fn run_drives_every_workload_in_child_processes() {
    let output = Command::new(EXE)
        .args(["run", "--quick"])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(stdout.contains("machine_cores"));
    assert!(stdout.contains("every output check passed"));
    for name in names(&manifest()["workloads"]) {
        assert!(
            stdout.contains(&format!("{name:13} failed_fraction")),
            "{name}"
        );
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let output = Command::new(EXE)
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the benchmark runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
