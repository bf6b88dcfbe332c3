//! Real process death: a deployment launched as separate OS processes
//! over loopback TCP — `vuvuzela server` and `vuvuzela entry`, the
//! roles an operator runs — loses its middle server to `kill` after one
//! completed round. Nothing may wait on the dead process: the client's
//! next `recv` fails, and every surviving process exits non-zero, naming
//! a link on stderr, inside a stated bound. A server that stops without
//! dying (`SIGSTOP`) keeps its sockets open, so only the deadline can end
//! the others; they must exit inside the deadline plus slack. And a
//! node that dies at start-up, before any round, ends `vuvuzela launch`
//! with its name. A live process set also pins what the roles print:
//! without `--out`, the client's stdout is the transcript and nothing
//! else, and a node's is its round record, with no operator secret in
//! it.
//!
//! The in-process variants (an erroring or panicking node thread over
//! memory endpoints and loopback TCP) are `tests/node_hang_up.rs`.

use std::io::Read;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};
use vuvuzela::core::node::RoundTrailer;
use vuvuzela::deploy::{self, DeploymentConfig, ScriptedClients};
use vuvuzela::net::{LinkId, TcpTransport, Transport};
use vuvuzela::wire::{BatchFrame, Frame, RoundId, RoundType};

/// How long the survivors get to exit once server 1 is dead.
const BOUND: Duration = Duration::from_secs(10);

/// Round `round` of the smoke schedule (all but round 1 are conversation
/// rounds) as the deployment's client builds it.
fn conversation_frame(clients: &mut ScriptedClients, round: u64) -> (Frame, usize) {
    let (payload, stride, width, count) = clients.build_round(round).into_raw();
    let frame = Frame::Batch(BatchFrame {
        link: LinkId::Clients,
        round: RoundId(round),
        round_type: RoundType::Conversation,
        num_drops: 0,
        backward: false,
        stride: stride as u32,
        width: width as u32,
        count: count as u32,
        payload,
        trailer: Vec::new(),
    });
    (frame, count)
}

/// The spawned processes; whatever is still here when the test ends —
/// by assertion included — is killed, not left behind.
struct Spawned(Vec<(String, Child)>);

impl Drop for Spawned {
    fn drop(&mut self) {
        for (_, child) in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The deployment program in `role`, reading `config`.
fn vuvuzela(role: &str, config: &Path) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_vuvuzela"));
    command.arg(role).arg("--config").arg(config);
    command
}

/// The smoke deployment with its ports resolved, written to a file of
/// its own under `name`.
fn resolved_smoke(name: &str) -> (DeploymentConfig, PathBuf) {
    resolved(name, deploy::smoke_config())
}

/// `cfg` with its ports resolved, written to a file of its own under
/// `name`.
fn resolved(name: &str, mut cfg: DeploymentConfig) -> (DeploymentConfig, PathBuf) {
    deploy::resolve_ephemeral_ports(&mut cfg).expect("free loopback ports");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let config = dir.join("resolved.json");
    std::fs::write(&config, cfg.render()).expect("write the resolved config");
    (cfg, config)
}

/// Starts the servers tail to head, then the entry — the launcher's
/// order — each with its stderr piped.
fn start_chain(cfg: &DeploymentConfig, config: &Path) -> Spawned {
    let mut processes = Spawned(Vec::new());
    let mut start = |name: String, mut command: Command| {
        let child = command
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|err| panic!("cannot spawn {name}: {err}"));
        processes.0.push((name, child));
    };
    for position in (0..cfg.system.chain_len).rev() {
        let mut server = vuvuzela("server", config);
        server.arg("--position").arg(position.to_string());
        start(format!("vuvuzela server {position}"), server);
    }
    start("vuvuzela entry".to_string(), vuvuzela("entry", config));
    processes
}

#[test]
fn killing_a_mid_chain_server_ends_every_other_process_by_name() {
    let (cfg, config) = resolved_smoke("process_death");
    let mut processes = start_chain(&cfg, &config);

    let client = TcpTransport::connect(
        cfg.entry_addr.as_str(),
        LinkId::Clients,
        cfg.digest(),
        &cfg.connect_retry(),
    )
    .expect("connect to the entry");

    // One whole conversation round, so every process is past start-up
    // and holds live connections to its neighbours.
    let mut clients = ScriptedClients::new(&cfg);
    let (frame, requests) = conversation_frame(&mut clients, 0);
    client.send(frame).expect("send round 0");
    match client.recv().expect("round 0 comes back") {
        Frame::Batch(back) => {
            assert!(back.backward && back.round.0 == 0);
            assert_eq!(back.count as usize, requests, "one reply a request");
            assert!(matches!(
                RoundTrailer::decode(&back.trailer),
                Ok(RoundTrailer::Conversation(_))
            ));
        }
        other => panic!("expected round 0's replies, got {other:?}"),
    }

    let victim = processes
        .0
        .iter()
        .position(|(name, _)| name == "vuvuzela server 1")
        .expect("server 1 was started");
    let (_, mut killed) = processes.0.remove(victim);
    killed.kill().expect("kill server 1");
    killed.wait().expect("reap server 1");
    let died = Instant::now();

    // The entry may already be gone when this is written; either way
    // the next thing the client reads is the failure.
    let _ = client.send(conversation_frame(&mut clients, 2).0);
    let next = client.recv();
    assert!(next.is_err(), "the client must see the failure: {next:?}");

    for (name, child) in &mut processes.0 {
        let stderr = exits_naming_a_link(&cfg, name, child, died, BOUND);
        assert!(!stderr.is_empty());
    }
}

/// Waits for `child` to exit, at most `bound` after `since`, and holds
/// it to failing by name: non-zero, a link named on stderr. Returns
/// what it printed there.
fn exits_naming_a_link(
    cfg: &DeploymentConfig,
    name: &str,
    child: &mut Child,
    since: Instant,
    bound: Duration,
) -> String {
    let status: ExitStatus = loop {
        match child.try_wait().expect("poll the child") {
            Some(status) => break status,
            None if since.elapsed() > bound => {
                panic!("{name} still running {bound:?} after its peer failed");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    assert!(!status.success(), "{name} must exit non-zero, got {status}");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr was piped")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let names_a_link = (0..cfg.system.chain_len as u32)
        .map(LinkId::Hop)
        .chain([LinkId::Clients])
        .any(|link| stderr.contains(&link.to_string()));
    assert!(names_a_link, "{name} must name a link on stderr:\n{stderr}");
    stderr
}

/// Sends `signal` (`STOP`, `CONT`) to `child`.
fn signal(child: &Child, signal: &str) {
    let status = Command::new("kill")
        .arg(format!("-{signal}"))
        .arg(child.id().to_string())
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -{signal}: {status}");
}

#[test]
fn a_stopped_tail_ends_every_other_process_by_the_deadline() {
    // A short deadline, so the survivors give up soon.
    let deadline = Duration::from_secs(2);
    let mut cfg = deploy::smoke_config();
    cfg.connect_timeout_ms = deadline.as_millis() as u64;
    let (cfg, config) = resolved("stopped_tail", cfg);
    let mut processes = start_chain(&cfg, &config);
    let client = TcpTransport::connect(
        cfg.entry_addr.as_str(),
        LinkId::Clients,
        cfg.digest(),
        &cfg.connect_retry(),
    )
    .expect("connect to the entry");
    let mut clients = ScriptedClients::new(&cfg);
    let (frame, _) = conversation_frame(&mut clients, 0);
    client.send(frame).expect("send round 0");
    assert!(matches!(client.recv(), Ok(Frame::Batch(back)) if back.round.0 == 0));

    // The tail stops, its sockets open: no hang-up reaches anyone. The
    // next round is then owed on every link down to it.
    let tail = processes
        .0
        .iter()
        .position(|(name, _)| name == "vuvuzela server 2")
        .expect("the tail was started");
    // Killed and reaped on the way out, however the test ends.
    let stopped = Spawned(vec![processes.0.remove(tail)]);
    signal(&stopped.0[0].1, "STOP");
    let since = Instant::now();
    client
        .send(conversation_frame(&mut clients, 2).0)
        .expect("the entry is still up");

    let bound = deadline + Duration::from_secs(8);
    let mut deadlines = 0;
    for (name, child) in &mut processes.0 {
        let stderr = exits_naming_a_link(&cfg, name, child, since, bound);
        deadlines += usize::from(stderr.contains("deadline passed"));
    }
    assert!(deadlines > 0, "some survivor names the deadline");
    // The entry is gone, so this cannot wait.
    let next = client.recv();
    assert!(next.is_err(), "the client must see the failure: {next:?}");
    signal(&stopped.0[0].1, "CONT");
}

#[test]
fn the_nodes_records_carry_no_operator_part() {
    // A checked launch of the smoke deployment, dialing round included:
    // every node writes one JSON line per pass, its public part alone.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("node_records");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let launch = vuvuzela("launch", Path::new("deploy/smoke.json"))
        .arg("--out-dir")
        .arg(&dir)
        .stderr(Stdio::null())
        .output()
        .expect("run the launch");
    assert!(launch.status.success(), "launch: {}", launch.status);
    let public = [
        "backward",
        "bytes_in",
        "bytes_out",
        "node",
        "onions_in",
        "onions_out",
        "phase",
        "protocol",
        "round",
        "seconds",
    ];
    let mut phases = std::collections::BTreeSet::new();
    for file in ["entry", "server-0", "server-1", "server-2"] {
        let path = dir.join(format!("{file}.jsonl"));
        let record = std::fs::read_to_string(&path).expect("the node's record");
        assert!(!record.is_empty(), "{file} wrote no record");
        for line in record.lines() {
            let Ok(serde_json::Value::Object(event)) = serde_json::from_str(line) else {
                panic!("{file}: not a JSON object: {line}");
            };
            let keys: Vec<&str> = event.keys().map(String::as_str).collect();
            assert_eq!(keys, public, "{file}: {line}");
            phases.insert(event["phase"].as_str().map(str::to_string));
        }
    }
    // The noising servers' forward passes and the tail's deposit drew
    // noise, and none of it shows.
    assert_eq!(phases.len(), 4, "{phases:?}");
    let stdout = String::from_utf8(launch.stdout).expect("UTF-8");
    for node in ["entry", "server 0", "server 1", "server 2"] {
        let busy = format!("vuvuzela launch: {node} busy seconds: relay ");
        assert!(stdout.contains(&busy), "{node}:\n{stdout}");
    }
}

#[test]
fn an_entry_that_cannot_bind_ends_the_launch_by_name() {
    // Someone else holds the entry's port: the entry exits at once,
    // while server 0 waits in `accept` for it and the client waits on
    // the stranger's socket. The launcher must not wait with them.
    let squatter = TcpListener::bind("127.0.0.1:0").expect("a free loopback port");
    let mut cfg = deploy::smoke_config();
    cfg.entry_addr = squatter.local_addr().expect("bound").to_string();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("entry_cannot_bind");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let config = dir.join("deploy.json");
    std::fs::write(&config, cfg.render()).expect("write the config");
    let mut launcher = Spawned(Vec::new());
    let child = vuvuzela("launch", &config)
        .arg("--out-dir")
        .arg(&dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn the launcher");
    launcher.0.push(("vuvuzela launch".to_string(), child));
    let (_, child) = &mut launcher.0[0];
    let started = Instant::now();
    let status = loop {
        match child.try_wait().expect("poll the launcher") {
            Some(status) => break status,
            None if started.elapsed() > Duration::from_secs(20) => {
                panic!("the launch did not end within 20 s");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    assert!(!status.success(), "a node failed: {status}");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr was piped")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    let named = stderr
        .lines()
        .any(|line| line.starts_with("vuvuzela launch: vuvuzela entry"));
    assert!(named, "names the entry:\n{stderr}");
    drop(squatter);
}

#[test]
fn a_client_without_out_prints_the_transcript_alone() {
    // The client's summary line goes to stderr, so `> transcript.txt`
    // captures exactly what `--out transcript.txt` writes.
    let (cfg, config) = resolved_smoke("client_stdout");
    let _chain = start_chain(&cfg, &config);
    let client = vuvuzela("client", &config)
        .stderr(Stdio::null())
        .output()
        .expect("run the client");
    assert!(client.status.success(), "client: {}", client.status);
    let stdout = String::from_utf8(client.stdout).expect("a UTF-8 transcript");
    assert_eq!(stdout, deploy::run_reference(&cfg));
}
