//! Real process death: a deployment launched as separate OS processes
//! over loopback TCP — the `vuvuzela-server` and `vuvuzela-entry` bins
//! an operator runs — loses its middle server to `kill` after one
//! completed round. Nothing may wait on the dead process: the client's
//! next `recv` fails, and every surviving process exits non-zero, naming
//! a link on stderr, inside a stated bound.
//!
//! The in-process variants (an erroring or panicking node thread over
//! memory endpoints and loopback TCP) are `tests/node_hang_up.rs`.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use vuvuzela::core::node::RoundTrailer;
use vuvuzela::core::ClientCohort;
use vuvuzela::deploy::{self, DeploymentConfig};
use vuvuzela::net::{LinkId, TcpTransport, Transport};
use vuvuzela::wire::{BatchFrame, Frame, RoundId, RoundType};

/// How long the survivors get to exit once server 1 is dead.
const BOUND: Duration = Duration::from_secs(10);

/// Round `round` of the smoke schedule (all but round 1 are conversation
/// rounds) as the client driver would send it.
fn conversation_frame(cfg: &DeploymentConfig, round: u64) -> (Frame, usize) {
    let tables = ClientCohort::chain_tables(&cfg.server_public_keys());
    let data = deploy::build_client_round(cfg, &tables, round);
    let (payload, stride, width, count) = data.onions.into_raw();
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

fn spawn(bin: &str, config: &PathBuf, position: Option<usize>) -> Child {
    let mut command = Command::new(bin);
    command.arg("--config").arg(config);
    if let Some(position) = position {
        command.arg("--position").arg(position.to_string());
    }
    command
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|err| panic!("cannot spawn {bin}: {err}"))
}

#[test]
fn killing_a_mid_chain_server_ends_every_other_process_by_name() {
    let mut cfg = deploy::smoke_config();
    deploy::resolve_ephemeral_ports(&mut cfg).expect("free loopback ports");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("process_death");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let config = dir.join("resolved.json");
    let rendered = vuvuzela::serde_json::to_string_pretty(&cfg.to_json()).expect("config renders");
    std::fs::write(&config, rendered).expect("write the resolved config");

    // Servers tail to head, then the entry — the launcher's order.
    let server_bin = env!("CARGO_BIN_EXE_vuvuzela-server");
    let mut processes = Spawned(Vec::new());
    for position in (0..cfg.system.chain_len).rev() {
        let child = spawn(server_bin, &config, Some(position));
        processes
            .0
            .push((format!("vuvuzela-server {position}"), child));
    }
    let entry = spawn(env!("CARGO_BIN_EXE_vuvuzela-entry"), &config, None);
    processes.0.push(("vuvuzela-entry".to_string(), entry));

    let client = TcpTransport::connect(
        cfg.entry_addr.as_str(),
        LinkId::Clients,
        cfg.digest(),
        &cfg.connect_retry(),
    )
    .expect("connect to the entry");

    // One whole conversation round, so every process is past start-up
    // and holds live connections to its neighbours.
    let (frame, requests) = conversation_frame(&cfg, 0);
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
        .position(|(name, _)| name == "vuvuzela-server 1")
        .expect("server 1 was started");
    let (_, mut killed) = processes.0.remove(victim);
    killed.kill().expect("kill server 1");
    killed.wait().expect("reap server 1");
    let died = Instant::now();

    // The entry may already be gone when this is written; either way
    // the next thing the client reads is the failure.
    let _ = client.send(conversation_frame(&cfg, 2).0);
    let next = client.recv();
    assert!(next.is_err(), "the client must see the failure: {next:?}");

    for (name, child) in &mut processes.0 {
        let status = loop {
            match child.try_wait().expect("poll the child") {
                Some(status) => break status,
                None if died.elapsed() > BOUND => {
                    panic!("{name} still running {BOUND:?} after server 1 died");
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
    }
}
