//! One benchmark for the whole system.
//!
//! ```text
//! vuvuzela-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! vuvuzela-benchmark run    [--seed <n>] [--seconds <s>]
//! vuvuzela-benchmark repeat <n> [--seed <n>] [--seconds <s>]
//! vuvuzela-benchmark manifest | glossary
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of standard output, one JSON object with the run's metrics:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `run` does both for every workload, each in a child
//! process of its own; `repeat` measures run-to-run spread against the
//! bounds; `manifest` prints `BENCHMARK.json` and `glossary` the metric tables
//! of the README. `--quick` shrinks every
//! workload to a smoke test. See `README.md` beside this package.

mod conv;
mod gen;
mod hand;
mod ledger;
mod metrics;
mod probes;
mod report;
mod stats;
mod sut;
mod trace;
mod windowed;

use metrics::{DEFAULT_SEED, END_TO_END, RUN_SECONDS, WORKLOADS};
use report::Report;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use trace::Tracer;
use windowed::Runtime;

/// Where results go: `benchmark/out/` of the checkout this was built in
/// (`out/quick/` at `--quick` scale, so a smoke test leaves real results be).
fn out_dir(quick: bool) -> PathBuf {
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if quick {
        out.join("quick")
    } else {
        out
    }
}

fn write_json(quick: bool, name: &str, value: &Value) -> Result<(), String> {
    let dir = out_dir(quick);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// Facts about the machine and the build that every result carries.
fn machine_notes() -> BTreeMap<String, Value> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    BTreeMap::from([
        ("machine_cores".to_string(), json!(cores)),
        ("rustc".to_string(), json!(env!("BENCH_RUSTC_VERSION"))),
        ("rustflags".to_string(), json!(env!("BENCH_RUSTFLAGS"))),
    ])
}

/// Options shared by every form of the command line.
struct Options {
    seed: u64,
    seconds: Option<f64>,
    quick: bool,
    workload: Option<String>,
    trace: bool,
}

impl Options {
    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.quick { 0.2 } else { RUN_SECONDS as f64 })
    }
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        seed: DEFAULT_SEED,
        seconds: None,
        quick: false,
        workload: None,
        trace: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--quick" => options.quick = true,
            "--workload" => options.workload = Some(value()?.to_string()),
            "--seed" => {
                options.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                options.seconds = Some(seconds);
            }
            "--trace" => {
                options.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(options)
}

/// Runs one workload in this process.
fn run_workload(name: &str, options: &Options) -> Result<(Report, Option<Tracer>), String> {
    let (seed, seconds, quick) = (options.seed, options.seconds(), options.quick);
    let cohort = |sizes: conv::Sizes| {
        let sizes = if quick { sizes.quick() } else { sizes };
        if options.trace {
            conv::trace(&sizes, seed, quick).map(|(report, tracer)| (report, Some(tracer)))
        } else {
            Ok((conv::run(&sizes, seed, seconds), None))
        }
    };
    let windowed = |runtime: Runtime| {
        let sizes = if quick {
            windowed::Sizes::QUICK
        } else {
            windowed::Sizes::FULL
        };
        if options.trace {
            windowed::trace(runtime, &sizes, seed, quick)
                .map(|(report, tracer)| (report, Some(tracer)))
        } else {
            windowed::run(runtime, &sizes, seed, seconds).map(|report| (report, None))
        }
    };
    match name {
        "conv_cover" => cohort(conv::Sizes::COVER),
        "conv_clients" => cohort(conv::Sizes::CLIENTS),
        "mixed_stream" => windowed(Runtime::Stream),
        "wire_window" => windowed(Runtime::Wire),
        other => Err(format!(
            "unknown workload {other}; the workloads are {}",
            WORKLOADS.map(|w| w.name).join(", ")
        )),
    }
}

/// The first form: one workload, here, with the result line last.
fn single(options: &Options) -> Result<ExitCode, String> {
    let name = options.workload.as_deref().expect("checked by the caller");
    let (mut report, tracer) = run_workload(name, options)?;
    report.notes.extend(machine_notes());
    report.notes.insert("seed".into(), json!(options.seed));
    print!("{}", report.human(name));
    if let Some(tracer) = tracer {
        write_json(
            options.quick,
            &format!("trace_{name}.json"),
            &tracer.to_json(),
        )?;
        write_json(
            options.quick,
            &format!("{name}.layers.json"),
            &report.to_json(),
        )?;
    } else {
        write_json(options.quick, &format!("{name}.json"), &report.to_json())?;
    }
    println!("{}", report.result_line());
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload in a child process, passes on what it printed for
/// people when `verbose`, and parses its result line.
fn child(
    name: &str,
    seed: u64,
    options: &Options,
    trace: bool,
    verbose: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &options.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if options.quick {
        command.arg("--quick");
    }
    let output = command.output().map_err(|e| format!("{name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if verbose || !output.status.success() {
        println!("{body}");
    }
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        return Err(format!(
            "{name} (trace {}) failed: {}",
            u8::from(trace),
            output.status
        ));
    }
    serde_json::from_str(last).map_err(|e| format!("{name}: result line is not JSON: {e}"))
}

/// The commit of the checkout, when it is a git repository.
fn git_commit() -> String {
    Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |output| String::from_utf8_lossy(&output.stdout).trim().to_string(),
        )
}

/// `run`: every workload, untraced then traced, each in its own process.
fn run_all(options: &Options) -> Result<ExitCode, String> {
    let mut meta = machine_notes();
    meta.insert("git_commit".into(), json!(git_commit()));
    meta.insert("seed".into(), json!(options.seed));
    meta.insert("seconds".into(), json!(options.seconds()));
    for (key, value) in &meta {
        println!("{key} = {}", report::compact(value));
    }
    let mut results = BTreeMap::new();
    for workload in &WORKLOADS {
        let end_to_end = child(workload.name, options.seed, options, false, true)?;
        let per_layer = child(workload.name, options.seed, options, true, true)?;
        results.insert(
            workload.name.to_string(),
            json!({ "end_to_end": end_to_end, "per_layer": per_layer }),
        );
    }
    write_json(
        options.quick,
        "run.json",
        &json!({ "meta": Value::Object(meta), "workloads": Value::Object(results) }),
    )?;
    println!(
        "every output check passed; results are in {}",
        out_dir(options.quick).display()
    );
    Ok(ExitCode::SUCCESS)
}

/// `repeat <n>`: n sets of untraced runs on seeds `seed .. seed + n`, and
/// for every end-to-end metric of every workload the spread between them,
/// held against the metric's bound.
fn repeat(sets: u64, options: &Options) -> Result<ExitCode, String> {
    if sets < 2 {
        return Err("repeat needs at least 2 sets".into());
    }
    let mut samples: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for set in 0..sets {
        for workload in &WORKLOADS {
            let seed = options.seed + set;
            let result = child(workload.name, seed, options, false, false)?;
            println!("set {set} seed {seed} {:13} done", workload.name);
            for metric in &END_TO_END {
                let value = result["metrics"][metric.name]["value"]
                    .as_f64()
                    .ok_or_else(|| format!("{} did not report {}", workload.name, metric.name))?;
                samples
                    .entry((workload.name, metric.name))
                    .or_default()
                    .push(value);
            }
        }
    }
    println!(
        "\n{:13} {:22} {:>14} {:>14} {:>14} {:>8} {:>8} {:>6}",
        "workload", "metric", "q1", "median", "q3", "iqr/med", "rng/med", "bound"
    );
    let mut within = true;
    for workload in &WORKLOADS {
        for metric in &END_TO_END {
            let values = &samples[&(workload.name, metric.name)];
            let [q1, q2, q3] = stats::quartiles(values);
            let spread = stats::iqr_over_median(values);
            let range = values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - values.iter().copied().fold(f64::INFINITY, f64::min);
            // Set-up time is bounded between commits, not between runs.
            let gated = metric.name != "setup_s";
            let verdict = if gated && spread > metric.bound {
                within = false;
                "  SPREAD EXCEEDS BOUND"
            } else {
                ""
            };
            println!(
                "{:13} {:22} {q1:>14.6} {q2:>14.6} {q3:>14.6} {spread:>8.4} {:>8.4} {:>6.3}{verdict}",
                workload.name,
                metric.name,
                range / q2,
                metric.bound,
            );
        }
    }
    Ok(if within {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("manifest") => {
            let text =
                serde_json::to_string_pretty(&metrics::manifest()).map_err(|e| e.to_string())?;
            println!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        Some("glossary") => {
            print!("{}", metrics::glossary());
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => run_all(&parse_options(&args[1..])?),
        Some("repeat") => {
            let sets = args
                .get(1)
                .and_then(|n| n.parse().ok())
                .ok_or("repeat takes the number of sets")?;
            repeat(sets, &parse_options(&args[2..])?)
        }
        _ => {
            let options = parse_options(args)?;
            if options.workload.is_none() {
                return Err(
                    "say which --workload, or use run / repeat <n> / manifest / glossary".into(),
                );
            }
            single(&options)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|error| {
        eprintln!("vuvuzela-benchmark: {error}");
        ExitCode::from(2)
    })
}
