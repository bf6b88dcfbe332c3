//! One mix server of a deployment, as its own OS process.
//!
//! ```text
//! vuvuzela-server --config deploy.json --position 1
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use vuvuzela::deploy;

fn parse_args() -> Result<(PathBuf, usize), String> {
    let mut config = None;
    let mut position = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--config" => config = Some(PathBuf::from(args.next().ok_or("--config needs a path")?)),
            "--position" => {
                position = Some(
                    args.next()
                        .ok_or("--position needs a chain index")?
                        .parse::<usize>()
                        .map_err(|err| format!("--position: {err}"))?,
                );
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((
        config.ok_or("usage: vuvuzela-server --config <deploy.json> --position <i>")?,
        position.ok_or("usage: vuvuzela-server --config <deploy.json> --position <i>")?,
    ))
}

fn run() -> Result<(), String> {
    let (config_path, position) = parse_args()?;
    let cfg = deploy::load_config(&config_path)?;
    if position >= cfg.system.chain_len {
        return Err(format!(
            "position {position} out of range for a {}-server chain",
            cfg.system.chain_len
        ));
    }
    // On stderr: stdout is what `vuvuzela-launch --check` reads. One
    // preformatted line, so a launch's processes cannot interleave it.
    let ladder = vuvuzela::crypto::x25519::ladder_backend();
    let sha = vuvuzela::crypto::sha256::backend();
    let line = format!(
        "vuvuzela-server {position}: x25519 ladder backend {ladder}, sha256 backend {sha}\n"
    );
    eprint!("{line}");
    let stats = deploy::serve_server(&cfg, position).map_err(|err| err.to_string())?;
    println!(
        "vuvuzela-server {position}: done ({} conversation, {} dialing rounds)",
        stats.conversation_rounds, stats.dialing_rounds
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("vuvuzela-server: {err}");
            ExitCode::FAILURE
        }
    }
}
