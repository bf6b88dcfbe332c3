//! The untrusted entry server of a deployment, as its own OS process.
//!
//! ```text
//! vuvuzela-entry --config deploy.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use vuvuzela::deploy;

fn parse_args() -> Result<PathBuf, String> {
    let mut config = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--config" => config = Some(PathBuf::from(args.next().ok_or("--config needs a path")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    config.ok_or_else(|| "usage: vuvuzela-entry --config <deploy.json>".to_string())
}

fn run() -> Result<(), String> {
    let cfg = deploy::load_config(&parse_args()?)?;
    // On stderr: stdout is what `vuvuzela-launch --check` reads. One
    // preformatted line, so a launch's processes cannot interleave it.
    let ladder = vuvuzela::crypto::x25519::ladder_backend();
    let sha = vuvuzela::crypto::sha256::backend();
    let line = format!("vuvuzela-entry: x25519 ladder backend {ladder}, sha256 backend {sha}\n");
    eprint!("{line}");
    let stats = deploy::serve_entry(&cfg).map_err(|err| err.to_string())?;
    println!(
        "vuvuzela-entry: done ({} conversation, {} dialing rounds)",
        stats.conversation_rounds, stats.dialing_rounds
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("vuvuzela-entry: {err}");
            ExitCode::FAILURE
        }
    }
}
