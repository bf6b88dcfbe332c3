//! The deployment program: one executable, whose first argument is the
//! role the process plays in a deployment.
//!
//! ```text
//! vuvuzela server --config deploy.json --position 1
//! vuvuzela entry --config deploy.json
//! vuvuzela client --config deploy.json [--out transcript.txt]
//! vuvuzela launch [--config deploy.json] [--check] [--dump-config] [--out-dir target/deploy-out]
//! ```
//!
//! `server` runs one mix server of the chain and `entry` the untrusted
//! entry; both name their x25519 and SHA-256 backends on stderr at
//! start-up, and write their round record to stdout: one JSON line per
//! pass, its public part alone (`vuvuzela_core::record`). `client` runs
//! the deployment's clients (one cohort, keeping the entry's window of
//! `chain_len` rounds in flight) and writes the transcript to `--out`,
//! or else to stdout, which then carries nothing else.
//!
//! `launch` runs a whole deployment on this box: it resolves the `:0`
//! ports once and spawns this same executable once per process — the
//! servers tail to head, the entry, the client — so a process set is
//! always one build. The first process to exit non-zero ends the launch,
//! named, with the others killed. Each node's record goes to
//! `server-<i>.jsonl` / `entry.jsonl` in the out dir, and the launch
//! reads it back and prints each node's busy seconds per phase, and each
//! server's kernel work, from it. `--check` then
//! diffs the transcript byte for byte against the in-process reference.
//! With no `--config` it launches the committed smoke deployment
//! (`deploy/smoke.json`); `--dump-config` prints the deployment as JSON
//! and exits.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode};
use std::time::Duration;
use vuvuzela::core::record::{Fold, KernelOps, NodeId, Phase, Public, RoundEvent};
use vuvuzela::crypto::sha256::sha256;
use vuvuzela::deploy::{self, DeploymentConfig};
use vuvuzela::sim::transcript::hex;

const USAGE: &str = "usage: vuvuzela server --config <deploy.json> --position <i>
       vuvuzela entry --config <deploy.json>
       vuvuzela client --config <deploy.json> [--out <transcript.txt>]
       vuvuzela launch [--config <deploy.json>] [--check] [--dump-config] [--out-dir <dir>]";

/// One command line: the role, then the flags that role takes.
#[derive(Default)]
struct Args {
    role: String,
    config: Option<PathBuf>,
    position: Option<usize>,
    out: Option<PathBuf>,
    out_dir: Option<PathBuf>,
    check: bool,
    dump_config: bool,
}

impl Args {
    /// How the process names itself on stderr, and the launcher names it.
    fn name(&self) -> String {
        match self.position {
            Some(position) => format!("vuvuzela {} {position}", self.role),
            None => format!("vuvuzela {}", self.role),
        }
    }
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let role = args.next().ok_or(USAGE)?;
    let flags: &[&str] = match role.as_str() {
        "server" => &["--config", "--position"],
        "entry" => &["--config"],
        "client" => &["--config", "--out"],
        "launch" => &["--config", "--check", "--dump-config", "--out-dir"],
        _ => return Err(format!("unknown role {role:?}\n{USAGE}")),
    };
    let mut parsed = Args {
        role,
        ..Args::default()
    };
    while let Some(flag) = args.next() {
        if !flags.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}\n{USAGE}"));
        }
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--config" => parsed.config = Some(value()?.into()),
            "--position" => {
                let position = value()?.parse();
                parsed.position = Some(position.map_err(|err| format!("--position: {err}"))?);
            }
            "--out" => parsed.out = Some(value()?.into()),
            "--out-dir" => parsed.out_dir = Some(value()?.into()),
            "--check" => parsed.check = true,
            _ => parsed.dump_config = true,
        }
    }
    if parsed.role == "server" && parsed.position.is_none() {
        return Err(format!("server needs --position\n{USAGE}"));
    }
    if parsed.role != "launch" && parsed.config.is_none() {
        return Err(format!("{} needs --config\n{USAGE}", parsed.role));
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<(), String> {
    let cfg = match &args.config {
        Some(path) => deploy::load_config(path)?,
        None => deploy::smoke_config(),
    };
    let name = args.name();
    match args.role.as_str() {
        "server" | "entry" => {
            if let Some(position) = args.position.filter(|&p| p >= cfg.system.chain_len) {
                return Err(format!(
                    "position {position} out of range for a {}-server chain",
                    cfg.system.chain_len
                ));
            }
            // On stderr: stdout is what a launch's caller reads. One
            // preformatted line, so a launch's processes cannot interleave it.
            let ladder = vuvuzela::crypto::x25519::ladder_backend();
            let sha = vuvuzela::crypto::sha256::backend();
            let line = format!("{name}: x25519 ladder backend {ladder}, sha256 backend {sha}\n");
            eprint!("{line}");
            // The record's public part, one line a pass: the operator's
            // noise draws have no rendering to print.
            let mut stdout = std::io::stdout().lock();
            let mut unwritten = None;
            let mut record = |event: RoundEvent| {
                if unwritten.is_none() {
                    unwritten = writeln!(stdout, "{}", event.public.to_json_line()).err();
                }
            };
            let node = args.position.map_or(NodeId::Entry, NodeId::Hop);
            let listener = deploy::listen(&cfg, node).map_err(|err| err.to_string())?;
            let served = match args.position {
                Some(position) => {
                    deploy::serve_server_observed(&cfg, position, listener, &mut record)
                }
                None => deploy::serve_entry_observed(&cfg, listener, &mut record),
            };
            served.map_err(|err| err.to_string())?;
            if let Some(err) = unwritten {
                return Err(format!("cannot write the round record: {err}"));
            }
        }
        "client" => {
            let transcript = deploy::run_client_tcp(&cfg).map_err(|err| err.to_string())?;
            match &args.out {
                Some(path) => std::fs::write(path, &transcript)
                    .map_err(|err| format!("cannot write {}: {err}", path.display()))?,
                None => print!("{transcript}"),
            }
            // On stderr, so that stdout without `--out` is the transcript.
            eprintln!(
                "{name}: {} rounds, transcript sha256 {}",
                cfg.schedule.len(),
                hex(&sha256(transcript.as_bytes()))
            );
        }
        _ => launch(cfg, args)?,
    }
    Ok(())
}

/// Runs `cfg` as one process set and writes `distributed.txt`,
/// `reference.txt` (with `--check`) and `resolved.json` into the out dir.
fn launch(mut cfg: DeploymentConfig, args: &Args) -> Result<(), String> {
    if args.dump_config {
        println!("{}", cfg.render());
        return Ok(());
    }
    deploy::resolve_ephemeral_ports(&mut cfg)?;
    let out_dir = args
        .out_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("target/deploy-out"));
    std::fs::create_dir_all(&out_dir)
        .map_err(|err| format!("cannot create {}: {err}", out_dir.display()))?;
    let write = |name: &str, contents: &str| -> Result<PathBuf, String> {
        let path = out_dir.join(name);
        std::fs::write(&path, contents)
            .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
        Ok(path)
    };
    let resolved_path = write("resolved.json", &(cfg.render() + "\n"))?;
    let transcript_path = out_dir.join("distributed.txt");
    let distributed = run_process_set(&cfg, &resolved_path, &out_dir)?;
    if args.check {
        let reference = deploy::run_reference(&cfg);
        let reference_path = write("reference.txt", &reference)?;
        if reference != distributed {
            return Err(format!(
                "transcript mismatch: {} differs from {} (distributed sha256 {}, reference {})",
                transcript_path.display(),
                reference_path.display(),
                hex(&sha256(distributed.as_bytes())),
                hex(&sha256(reference.as_bytes())),
            ));
        }
    }
    println!(
        "vuvuzela launch: {} rounds over loopback TCP",
        cfg.schedule.len()
    );
    for node in nodes(&cfg) {
        let record = summary(&out_dir.join(record_file(node)), node, cfg.system.chain_len)?;
        println!("vuvuzela launch: {node} {record}");
    }
    if args.check {
        println!(
            "vuvuzela launch: distributed.txt is byte-identical to the in-process reference.txt"
        );
    }
    println!("vuvuzela launch: artefacts in {}", out_dir.display());
    Ok(())
}

fn kill_all(children: &mut [(String, Child)]) {
    for (_, child) in children.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// The deployment's nodes in start order: the servers tail to head,
/// then the entry.
fn nodes(cfg: &DeploymentConfig) -> impl Iterator<Item = NodeId> {
    (0..cfg.system.chain_len)
        .rev()
        .map(NodeId::Hop)
        .chain([NodeId::Entry])
}

/// The file in the out dir a node's round record goes to.
fn record_file(node: NodeId) -> String {
    match node {
        NodeId::Entry => "entry.jsonl".to_string(),
        NodeId::Hop(position) => format!("server-{position}.jsonl"),
    }
}

/// A node's busy seconds per phase, and a server's kernel work: the
/// [`Fold`] of the round record the node wrote to `record`.
fn summary(record: &Path, node: NodeId, chain_len: usize) -> Result<String, String> {
    let shown = record.display();
    let text =
        std::fs::read_to_string(record).map_err(|err| format!("cannot read {shown}: {err}"))?;
    let mut fold = Fold::new(chain_len);
    for line in text.lines() {
        let event = Public::from_json_line(line)
            .ok_or_else(|| format!("{shown}: not a round event: {line}"))?;
        fold.add(&event);
    }
    let busy = |phase: Phase| fold.get(node, phase).busy.as_secs_f64();
    let phases: Vec<String> = Phase::ALL
        .iter()
        .map(|&phase| format!("{} {:.6}", phase.name(), busy(phase)))
        .collect();
    let KernelOps { peels, layers } = fold.total().work;
    let work = match node {
        NodeId::Entry => String::new(),
        NodeId::Hop(_) => format!("; kernel work: {peels} peels, {layers} layers"),
    };
    Ok(format!("busy seconds: {}{work}", phases.join(", ")))
}

/// Spawns the process set — servers tail-to-head, entry, client, each
/// this executable in its role — against `resolved_path`, waits for
/// every process, and returns the client transcript. Each node's stdout,
/// its round record, goes to its file in `out_dir`. The first process to
/// exit non-zero is named in the error, and the others are killed.
fn run_process_set(
    cfg: &DeploymentConfig,
    resolved_path: &Path,
    out_dir: &Path,
) -> Result<String, String> {
    let transcript_path = out_dir.join("distributed.txt");
    let exe = std::env::current_exe()
        .map_err(|err| format!("cannot locate the running executable: {err}"))?;
    let role = |role: &str| {
        let mut command = Command::new(&exe);
        command.arg(role).arg("--config").arg(resolved_path);
        command
    };
    // Servers first (tail to head so downstream listeners exist early,
    // although the connect retry loop tolerates any order), then the
    // entry, then the client driver.
    let mut processes = Vec::new();
    for node in nodes(cfg) {
        let path = out_dir.join(record_file(node));
        let record = File::create(&path)
            .map_err(|err| format!("cannot create {}: {err}", path.display()))?;
        let mut command = match node {
            NodeId::Entry => role("entry"),
            NodeId::Hop(position) => {
                let mut server = role("server");
                server.arg("--position").arg(position.to_string());
                server
            }
        };
        command.stdout(record);
        processes.push((format!("vuvuzela {node}"), command));
    }
    let mut client = role("client");
    client.arg("--out").arg(&transcript_path);
    processes.push(("vuvuzela client".to_string(), client));

    let mut children: Vec<(String, Child)> = Vec::new();
    for (name, mut command) in processes {
        match command.spawn() {
            Ok(child) => children.push((name, child)),
            Err(err) => {
                kill_all(&mut children);
                return Err(format!("cannot spawn {name}: {err}"));
            }
        }
    }

    // Poll every process rather than wait on each in turn: a node that
    // fails at start-up can leave the others blocked for good (a server
    // in `accept` has no timeout), so the first failure ends the set.
    loop {
        let failure = children
            .iter_mut()
            .find_map(|(name, child)| match child.try_wait() {
                Ok(Some(s)) if !s.success() => Some(format!("{name} exited with {s}")),
                Ok(_) => None,
                Err(err) => Some(format!("cannot wait for {name}: {err}")),
            });
        if let Some(failure) = failure {
            kill_all(&mut children);
            return Err(failure);
        }
        let succeeded = |child: &mut Child| matches!(child.try_wait(), Ok(Some(s)) if s.success());
        if children.iter_mut().all(|(_, child)| succeeded(child)) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    std::fs::read_to_string(&transcript_path).map_err(|err| {
        format!(
            "client wrote no transcript at {}: {err}",
            transcript_path.display()
        )
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("vuvuzela: {err}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("{}: {err}", args.name());
            ExitCode::FAILURE
        }
    }
}
