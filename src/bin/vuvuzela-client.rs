//! The clients of a deployment: one `ClientCohort` whose members the
//! schedule takes online round by round (`deploy::ScriptedClients`),
//! driven against a live entry; writes the resulting transcript.
//!
//! ```text
//! vuvuzela-client --config deploy.json --out transcript.txt
//! ```
//!
//! The client keeps the entry's window of `chain_len` rounds in flight,
//! the limit the entry enforces; the transcript is byte-identical to the
//! in-process reference's, which runs one round at a time.

use std::path::PathBuf;
use std::process::ExitCode;
use vuvuzela::crypto::sha256::sha256;
use vuvuzela::deploy;
use vuvuzela::sim::transcript::hex;

fn parse_args() -> Result<(PathBuf, Option<PathBuf>), String> {
    let mut config = None;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--config" => config = Some(PathBuf::from(args.next().ok_or("--config needs a path")?)),
            "--out" => out = Some(PathBuf::from(args.next().ok_or("--out needs a path")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((
        config.ok_or("usage: vuvuzela-client --config <deploy.json> [--out <transcript.txt>]")?,
        out,
    ))
}

fn run() -> Result<(), String> {
    let (config_path, out) = parse_args()?;
    let cfg = deploy::load_config(&config_path)?;
    let transcript = deploy::run_client_tcp(&cfg).map_err(|err| err.to_string())?;
    match out {
        Some(path) => std::fs::write(&path, &transcript)
            .map_err(|err| format!("cannot write {}: {err}", path.display()))?,
        None => print!("{transcript}"),
    }
    println!(
        "vuvuzela-client: {} rounds, transcript sha256 {}",
        cfg.schedule.len(),
        hex(&sha256(transcript.as_bytes()))
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("vuvuzela-client: {err}");
            ExitCode::FAILURE
        }
    }
}
