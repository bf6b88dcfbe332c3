//! Launches one deployment as separate OS processes on this box and
//! (optionally) diffs its transcript against the in-process reference.
//!
//! ```text
//! vuvuzela-launch --config deploy.json --check --out-dir target/deploy-out
//! ```
//!
//! One process set runs the schedule, its client keeping the entry's
//! window of `chain_len` rounds in flight; `--check` diffs its
//! transcript byte for byte against the in-process reference.
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
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        config: None,
        check: false,
        dump_config: false,
        out_dir: PathBuf::from("target/deploy-out"),
        bin_dir: None,
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
        println!("{}", cfg.render());
        return Ok(());
    }
    let rounds = cfg.schedule.len();
    let report = deploy::launch(
        cfg,
        &LaunchOptions {
            check: args.check,
            out_dir: args.out_dir.clone(),
            bin_dir: args.bin_dir,
        },
    )?;
    println!("vuvuzela-launch: {rounds} rounds over loopback TCP");
    if report.reference.is_some() {
        println!(
            "vuvuzela-launch: distributed.txt is byte-identical to the in-process reference.txt"
        );
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
