//! Launches one deployment as separate OS processes on this box and
//! (optionally) diffs its transcript against the in-process reference.
//!
//! ```text
//! vuvuzela-launch --config deploy.json --check --out-dir target/deploy-out \
//!     [--pipeline <depth>]
//! ```
//!
//! `--pipeline <depth>` additionally runs a second process set whose
//! client keeps `depth` rounds in flight (clamped to the chain
//! length); its transcript must match the sequential run round for
//! round, and `--check` also diffs it against the in-process
//! reference.
//!
//! With no `--config`, a built-in smoke deployment (3 servers,
//! ephemeral loopback ports, a mixed 4-round schedule) is used.
//! `--dump-config` prints that deployment as JSON and exits — use it as
//! a starting point for your own deployment files.

use std::path::PathBuf;
use std::process::ExitCode;
use vuvuzela::deploy::{self, LaunchOptions};

struct Args {
    config: Option<PathBuf>,
    check: bool,
    dump_config: bool,
    out_dir: PathBuf,
    bin_dir: Option<PathBuf>,
    pipeline: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        config: None,
        check: false,
        dump_config: false,
        out_dir: PathBuf::from("target/deploy-out"),
        bin_dir: None,
        pipeline: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--config" => {
                parsed.config = Some(PathBuf::from(args.next().ok_or("--config needs a path")?));
            }
            "--check" => parsed.check = true,
            "--dump-config" => parsed.dump_config = true,
            "--out-dir" => {
                parsed.out_dir = PathBuf::from(args.next().ok_or("--out-dir needs a path")?);
            }
            "--bin-dir" => {
                parsed.bin_dir = Some(PathBuf::from(args.next().ok_or("--bin-dir needs a path")?));
            }
            "--pipeline" => {
                parsed.pipeline = args
                    .next()
                    .ok_or("--pipeline needs a window depth")?
                    .parse::<usize>()
                    .map_err(|err| format!("--pipeline: {err}"))?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let cfg = match &args.config {
        Some(path) => deploy::load_config(path)?,
        None => deploy::smoke_config(),
    };
    if args.dump_config {
        let rendered = vuvuzela::serde_json::to_string_pretty(&cfg.to_json())
            .map_err(|err| format!("render config: {err}"))?;
        println!("{rendered}");
        return Ok(());
    }
    let rounds = cfg.schedule.len();
    let report = deploy::launch(
        cfg,
        &LaunchOptions {
            check: args.check,
            out_dir: args.out_dir.clone(),
            bin_dir: args.bin_dir,
            pipeline: args.pipeline,
        },
    )?;
    println!("vuvuzela-launch: {rounds} rounds over loopback TCP");
    if report.pipelined.is_some() {
        println!(
            "vuvuzela-launch: pipelined (depth {}) run round-for-round identical to the \
             sequential run",
            report.pipeline_depth
        );
    }
    if report.reference.is_some() {
        println!("vuvuzela-launch: transcripts are byte-identical to the in-process reference");
    }
    println!("vuvuzela-launch: artefacts in {}", args.out_dir.display());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("vuvuzela-launch: {err}");
            ExitCode::FAILURE
        }
    }
}
