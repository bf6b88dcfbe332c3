//! Real-deployment plumbing for the `vuvuzela-*` bins.
//!
//! A deployment is described by one JSON file ([`DeploymentConfig`]):
//! the shared [`SystemConfig`], the chain seed, one TCP address per
//! node, and a scripted round schedule. Every process loads the same
//! file; the framed-TCP handshake carries a SHA-256 digest of its
//! canonical rendering, so two processes started with different configs
//! fail at connect time instead of corrupting a round.
//!
//! The schedule is replayed by one scripted client, a [`ClientCohort`]
//! ([`ScriptedClients`]) whose members each round takes on- or
//! offline: every batch is a pure function of the config and the round
//! number, so the distributed run (`vuvuzela-launch`: entry + servers +
//! client as separate OS processes over loopback TCP) and the
//! in-process reference ([`run_reference`], the sequential [`Chain`]:
//! the servers' own frame handler at window 1, without sockets or
//! entry) must produce **byte-identical transcripts** — reply hashes,
//! delivered messages, dead-drop histograms and dialing counts
//! included. `vuvuzela-launch --check` asserts exactly that, and CI
//! runs it on every push.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::Arc;
use std::time::Duration;

use serde_json::{json, Value};
use vuvuzela_core::chain::{build_server, server_keypairs, Abort, Chain};
use vuvuzela_core::config::{expect_object, get_u64, reject_unknown, require};
use vuvuzela_core::node::{feed_window, run_entry_node, run_server_node, NodeStats, RoundTrailer};
use vuvuzela_core::server::RoundKind;
use vuvuzela_core::{ClientCohort, RoundBuffer, SystemConfig};
use vuvuzela_crypto::sha256::{sha256, Sha256};
use vuvuzela_crypto::x25519::PublicKey;
use vuvuzela_net::{Error, LinkId, RetryPolicy, TcpTransport, Transport};
use vuvuzela_sim::transcript::{hex, Transcript};
use vuvuzela_wire::BatchFrame;

/// Default for [`DeploymentConfig::connect_timeout_ms`]: deployment
/// processes start in arbitrary order, so peers retry refused
/// connections this long before giving up.
pub const DEFAULT_CONNECT_TIMEOUT_MS: u64 = 30_000;

/// Domain separator for the scripted cohort's seed, keeping its streams
/// disjoint from the chain- and server-level ones.
const CLIENT_RNG_DOMAIN: u64 = 0xC11E_47B0_0000_0000;

/// One scripted round of a deployment schedule, naming which members of
/// the [`ScriptedClients`] cohort are online.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduleEntry {
    /// A conversation round: the first `pairs` pairs of talkers send a
    /// message each, and the first `singles` idlers send cover.
    Conversation {
        /// Talking pairs online, each member with one new message.
        pairs: u32,
        /// Idlers online, with no conversation (fake exchanges).
        singles: u32,
    },
    /// A dialing round: the first `dials` dialers each send an
    /// invitation, into `drops` drops.
    Dialing {
        /// Dialers online, each with one invitation queued.
        dials: u32,
        /// Invitation dead drops this round (§5.4's `m`).
        drops: u32,
    },
}

impl ScheduleEntry {
    /// The round's kind, and how many client onions it carries at one
    /// conversation slot.
    fn shape(self) -> (RoundKind, usize) {
        match self {
            ScheduleEntry::Conversation { pairs, singles } => {
                (RoundKind::Conversation, (2 * pairs + singles) as usize)
            }
            ScheduleEntry::Dialing { dials, drops } => {
                (RoundKind::Dialing { num_drops: drops }, dials as usize)
            }
        }
    }

    fn to_json(self) -> Value {
        match self {
            ScheduleEntry::Conversation { pairs, singles } => json!({
                "type": "conversation",
                "pairs": pairs,
                "singles": singles,
            }),
            ScheduleEntry::Dialing { dials, drops } => json!({
                "type": "dialing",
                "dials": dials,
                "drops": drops,
            }),
        }
    }

    fn from_json(value: &Value) -> Result<ScheduleEntry, String> {
        let map = expect_object(value, "schedule entry")?;
        let count = |key: &str| {
            let value = get_u64(map, key)?;
            u32::try_from(value)
                .map_err(|_| format!("field {key:?} must be at most {}, got {value}", u32::MAX))
        };
        match require(map, "type")?.as_str() {
            Some("conversation") => {
                reject_unknown(map, &["type", "pairs", "singles"], "conversation entry")?;
                Ok(ScheduleEntry::Conversation {
                    pairs: count("pairs")?,
                    singles: count("singles")?,
                })
            }
            Some("dialing") => {
                reject_unknown(map, &["type", "dials", "drops"], "dialing entry")?;
                // Every client derives its invitation drop modulo `drops`.
                let drops = count("drops")?;
                if drops == 0 {
                    return Err("field \"drops\" must be at least 1, got 0".to_string());
                }
                Ok(ScheduleEntry::Dialing {
                    dials: count("dials")?,
                    drops,
                })
            }
            Some(other) => Err(format!("unknown schedule entry type {other:?}")),
            None => Err("schedule entry type must be a string".to_string()),
        }
    }
}

/// Everything the `vuvuzela-*` bins need to run one deployment.
#[derive(Clone, Debug)]
pub struct DeploymentConfig {
    /// The protocol parameters every node shares.
    pub system: SystemConfig,
    /// Chain seed: server keys, noise, and the scripted clients' keys
    /// and batches all derive from it.
    pub seed: u64,
    /// TCP address the entry listens on for the clients.
    pub entry_addr: String,
    /// TCP address each mix server listens on for its upstream peer
    /// (`server_addrs[i]` is server *i*; must match
    /// `system.chain_len`). A `:0` port is resolved to a free one by
    /// [`resolve_ephemeral_ports`].
    pub server_addrs: Vec<String>,
    /// The scripted rounds, replayed in order as rounds `0..n`.
    pub schedule: Vec<ScheduleEntry>,
    /// How long (milliseconds) connecting processes retry a refused
    /// connection before giving up; retries back off exponentially with
    /// per-link jitter. Optional in the JSON file, defaulting to
    /// [`DEFAULT_CONNECT_TIMEOUT_MS`].
    pub connect_timeout_ms: u64,
}

impl DeploymentConfig {
    /// Serializes to the deployment-file JSON shape.
    #[must_use]
    pub fn to_json(&self) -> Value {
        json!({
            "system": self.system.to_json(),
            "seed": self.seed,
            "entry_addr": self.entry_addr.clone(),
            "server_addrs": self.server_addrs.clone(),
            "schedule": self.schedule.iter().map(|e| e.to_json()).collect::<Vec<Value>>(),
            "connect_timeout_ms": self.connect_timeout_ms,
        })
    }

    /// Deserializes a deployment file, rejecting unknown fields at
    /// every level.
    ///
    /// # Errors
    ///
    /// A description of the first missing, unknown, or ill-typed field.
    pub fn from_json(value: &Value) -> Result<DeploymentConfig, String> {
        let map = expect_object(value, "deployment config")?;
        reject_unknown(
            map,
            &[
                "system",
                "seed",
                "entry_addr",
                "server_addrs",
                "schedule",
                "connect_timeout_ms",
            ],
            "deployment config",
        )?;
        let system = SystemConfig::from_json(require(map, "system")?)?;
        let entry_addr = require(map, "entry_addr")?
            .as_str()
            .ok_or("entry_addr must be a string")?
            .to_string();
        let server_addrs = match require(map, "server_addrs")? {
            Value::Array(addrs) => addrs
                .iter()
                .map(|addr| {
                    addr.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "server_addrs entries must be strings".to_string())
                })
                .collect::<Result<Vec<String>, String>>()?,
            _ => return Err("server_addrs must be an array".to_string()),
        };
        if server_addrs.len() != system.chain_len {
            return Err(format!(
                "server_addrs has {} entries but chain_len is {}",
                server_addrs.len(),
                system.chain_len
            ));
        }
        let schedule = match require(map, "schedule")? {
            Value::Array(entries) => entries
                .iter()
                .map(ScheduleEntry::from_json)
                .collect::<Result<Vec<ScheduleEntry>, String>>()?,
            _ => return Err("schedule must be an array".to_string()),
        };
        let connect_timeout_ms = match map.get("connect_timeout_ms") {
            Some(value) => value
                .as_u64()
                .ok_or("field \"connect_timeout_ms\" must be a non-negative integer")?,
            None => DEFAULT_CONNECT_TIMEOUT_MS,
        };
        Ok(DeploymentConfig {
            system,
            seed: get_u64(map, "seed")?,
            entry_addr,
            server_addrs,
            schedule,
            connect_timeout_ms,
        })
    }

    /// The SHA-256 digest of the canonical config rendering, exchanged
    /// in every TCP handshake so mismatched processes fail fast.
    #[must_use]
    pub fn digest(&self) -> [u8; 32] {
        let rendered = serde_json::to_string_pretty(&self.to_json())
            .expect("deployment config always renders");
        sha256(rendered.as_bytes())
    }

    /// The connect-retry policy every process in this deployment uses:
    /// jittered exponential backoff up to the configured deadline.
    #[must_use]
    pub fn connect_retry(&self) -> RetryPolicy {
        RetryPolicy::with_deadline(Duration::from_millis(self.connect_timeout_ms))
    }

    /// The chain's public keys, derived from `(chain_len, seed)` just
    /// like every server derives its own secret.
    #[must_use]
    pub fn server_public_keys(&self) -> Vec<PublicKey> {
        server_keypairs(self.system.chain_len, self.seed)
            .iter()
            .map(|kp| kp.public)
            .collect()
    }
}

/// Loads and strictly parses a deployment file.
///
/// # Errors
///
/// IO failures and parse errors, rendered with the offending path.
pub fn load_config(path: &Path) -> Result<DeploymentConfig, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
    let value = serde_json::from_str(&text)
        .map_err(|err| format!("{} is not valid JSON: {err}", path.display()))?;
    DeploymentConfig::from_json(&value).map_err(|err| format!("{}: {err}", path.display()))
}

/// The deployment's clients: one [`ClientCohort`] sized by the
/// schedule's largest rounds — `2·max(pairs)` talkers (members `2p` and
/// `2p + 1` converse), `max(singles)` idlers, then `max(dials)` dialers
/// (each calls the next, the last the first). A round takes online the
/// first `pairs` pairs and `singles` idlers, or the first `dials`
/// dialers, and nobody else.
pub struct ScriptedClients {
    schedule: Vec<ScheduleEntry>,
    cohort: ClientCohort,
    first_idler: usize,
    first_dialer: usize,
}

impl ScriptedClients {
    /// Builds the cohort for `cfg`'s schedule and pairs its talkers.
    #[must_use]
    pub fn new(cfg: &DeploymentConfig) -> ScriptedClients {
        let (mut talkers, mut idlers, mut dialers) = (0, 0, 0);
        for entry in &cfg.schedule {
            match *entry {
                ScheduleEntry::Conversation { pairs, singles } => {
                    talkers = talkers.max(2 * pairs as usize);
                    idlers = idlers.max(singles as usize);
                }
                ScheduleEntry::Dialing { dials, .. } => dialers = dialers.max(dials as usize),
            }
        }
        let seed = cfg.seed ^ CLIENT_RNG_DOMAIN;
        let mut cohort =
            ClientCohort::with_own_tables(cfg.system.clone(), seed, &cfg.server_public_keys());
        cohort.join(talkers + idlers + dialers);
        for a in (0..talkers).step_by(2) {
            cohort.pair(a, a + 1).expect("fresh members");
        }
        ScriptedClients {
            schedule: cfg.schedule.clone(),
            cohort,
            first_idler: talkers,
            first_dialer: talkers + idlers,
        }
    }

    /// Builds round `round`'s client batch, after taking its members
    /// online and queuing a message `r{round} m{i}` from every talker `i`
    /// among them, or an invitation from every dialer.
    ///
    /// # Panics
    ///
    /// If `round` is past the end of the schedule.
    pub fn build_round(&mut self, round: u64) -> RoundBuffer {
        let entry = self.schedule[round as usize];
        let (idlers, dialers) = (self.first_idler, self.first_dialer);
        let online = |i: usize| match entry {
            ScheduleEntry::Conversation { pairs, singles } => {
                i < 2 * pairs as usize || (idlers..idlers + singles as usize).contains(&i)
            }
            ScheduleEntry::Dialing { dials, .. } => {
                (dialers..dialers + dials as usize).contains(&i)
            }
        };
        for i in 0..self.cohort.len() {
            self.cohort.set_online(i, online(i));
            if online(i) && i < idlers {
                let peer = self.cohort.public_key(i ^ 1);
                let body = format!("r{round} m{i}");
                self.cohort
                    .queue_message(i, &peer, body.as_bytes())
                    .expect("talkers are paired");
            } else if online(i) && i >= dialers {
                // The same callee every time, so the dial reuses its slot.
                let callee = dialers + (i - dialers + 1) % (self.cohort.len() - dialers);
                let callee = self.cohort.public_key(callee);
                self.cohort.dial(i, callee).expect("one callee, one slot");
            }
        }
        match entry {
            ScheduleEntry::Conversation { .. } => self.cohort.build_conversation_round(round),
            ScheduleEntry::Dialing { drops, .. } => self.cohort.build_dialing_round(round, drops),
        }
    }
}

/// One round as it came back: its replies and the tail's trailer.
type Carried = (Vec<Vec<u8>>, RoundTrailer);

/// The scripted-client driver [`run_reference`] and [`run_client`]
/// share. `carry` gets a builder of round `index`'s client batch and
/// returns every round, in order. The cohort sees no reply before every
/// round is built, as in the simulator, so its bytes do not depend on
/// how many rounds were in flight.
fn drive<E>(
    cfg: &DeploymentConfig,
    carry: impl FnOnce(&mut dyn FnMut(usize) -> RoundBuffer) -> Result<Vec<Carried>, E>,
) -> Result<String, E> {
    let mut clients = ScriptedClients::new(cfg);
    let mut sent = Vec::with_capacity(cfg.schedule.len());
    let carried = carry(&mut |index| {
        let batch = clients.build_round(index as u64);
        sent.push(batch.len());
        batch
    })?;
    let mut transcript = Transcript::new();
    transcript.push(format!(
        "deploy digest {} seed {} chain {} rounds {}",
        hex(&cfg.digest()),
        cfg.seed,
        cfg.system.chain_len,
        cfg.schedule.len()
    ));
    let cohort = &mut clients.cohort;
    let delivered = |c: &ClientCohort| {
        (0..c.len())
            .map(|i| c.all_delivered(i).len())
            .sum::<usize>()
    };
    let rounds = (0u64..).zip(&cfg.schedule).zip(sent);
    for (((round, entry), sent), (replies, trailer)) in rounds.zip(carried) {
        match trailer {
            RoundTrailer::Conversation(obs) => {
                let mut hasher = Sha256::new();
                replies.iter().for_each(|reply| hasher.update(reply));
                let before = delivered(cohort);
                cohort.handle_conversation_replies(round, &replies);
                transcript.push(format!(
                    "round {round} conversation clients {sent} replies {} sha256 {} delivered {}",
                    replies.len(),
                    hex(&hasher.finalize()),
                    delivered(cohort) - before
                ));
                transcript.push(format!(
                    "round {round} obs m1 {} m2 {} m_many {} total {}",
                    obs.m1, obs.m2, obs.m_many, obs.total_requests
                ));
            }
            RoundTrailer::Dialing(obs) => {
                transcript.push(format!(
                    "round {round} dialing clients {sent} drops {} counts {:?} noop {}",
                    entry.shape().0.num_drops(),
                    obs.counts,
                    obs.noop_writes
                ));
            }
        }
    }
    transcript.push(format!("end rounds {}", cfg.schedule.len()));
    Ok(transcript.render())
}

/// Replays the schedule on the in-process [`Chain`], one round per call
/// — the reference transcript every distributed run is diffed against.
///
/// # Panics
///
/// Panics if a round aborts, which is a bug: the reference chain has no
/// tap, and a validated schedule has no round a hop refuses.
#[must_use]
pub fn run_reference(cfg: &DeploymentConfig) -> String {
    let mut chain = Chain::new(cfg.system.clone(), cfg.seed);
    drive(cfg, |build| {
        let carried = (0u64..).zip(&cfg.schedule).map(|(round, entry)| {
            let batch = build(round as usize);
            Ok(match *entry {
                ScheduleEntry::Conversation { .. } => {
                    let (replies, _) = chain.run_conversation_round(round, batch)?;
                    let (_, obs) = *chain.conversation_observables().last().expect("round ran");
                    (replies, RoundTrailer::Conversation(obs))
                }
                ScheduleEntry::Dialing { drops, .. } => {
                    chain.run_dialing_round(round, batch, drops)?;
                    let (_, obs) = chain.dialing_observables().last().expect("round ran");
                    (Vec::new(), RoundTrailer::Dialing(obs.clone()))
                }
            })
        });
        carried.collect::<Result<_, Abort>>()
    })
    .expect("the reference chain runs every validated round")
}

/// Replays the schedule against a live entry over any [`Transport`]
/// (the TCP client bin, or in-memory endpoints in tests) and builds the
/// client-side transcript.
///
/// `depth` is the admission-window size in weighted slots (clamped to
/// `1..=chain_len`, the entry's own window): with `depth == 1` rounds
/// run strictly sequentially; deeper windows keep several rounds in
/// flight, fed by [`feed_window`] under the same weighted window the
/// in-process [`Chain::run`] keeps, so heavyweight rounds consume more
/// of the window. Backward frames return in admission
/// order, and the cohort sees no reply before every round is built, so
/// the transcript is byte-identical at every depth.
///
/// # Errors
///
/// Transport failures, or [`Error::Protocol`] when the chain answers
/// out of protocol (wrong round, malformed trailer).
pub fn run_client(
    cfg: &DeploymentConfig,
    entry: &dyn Transport,
    depth: usize,
) -> Result<String, Error> {
    let depth = depth.clamp(1, cfg.system.chain_len.max(1));
    let schedule: Vec<(u64, RoundKind, usize)> = (0u64..)
        .zip(&cfg.schedule)
        .map(|(round, entry)| {
            let (kind, clients) = entry.shape();
            (round, kind, clients)
        })
        .collect();
    drive(cfg, |build| {
        let mut carried = Vec::with_capacity(schedule.len());
        let admit = |index| (build(index), ());
        let collect = |(), back: BatchFrame, trailer| {
            // A batch of no slots may come back with no stride.
            let (stride, width) = ((back.stride as usize).max(1), back.width as usize);
            let replies = RoundBuffer::from_raw(back.payload, stride, width, back.count as usize);
            carried.push((replies.to_vecs(), trailer));
        };
        feed_window(&cfg.system, entry, depth, &schedule, admit, collect)?;
        Ok(carried)
    })
}

/// Runs mix server `position` over TCP: bind the upstream listener,
/// connect downstream (retrying while peers start up), accept the
/// upstream peer, then hand the connections to the node runtime.
///
/// # Errors
///
/// Bind/connect/handshake failures and any protocol violation from
/// [`run_server_node`].
pub fn serve_server(cfg: &DeploymentConfig, position: usize) -> Result<NodeStats, Error> {
    let digest = cfg.digest();
    let retry = cfg.connect_retry();
    let upstream_link = LinkId::Hop(position as u32);
    let listener = TcpListener::bind(&cfg.server_addrs[position]).map_err(|source| Error::Io {
        link: upstream_link,
        op: "bind",
        source,
    })?;
    let downstream: Option<Arc<dyn Transport>> = if position + 1 < cfg.system.chain_len {
        Some(Arc::new(TcpTransport::connect(
            cfg.server_addrs[position + 1].as_str(),
            LinkId::Hop(position as u32 + 1),
            digest,
            &retry,
        )?))
    } else {
        None
    };
    let upstream: Arc<dyn Transport> =
        Arc::new(TcpTransport::accept(&listener, upstream_link, digest)?);
    let mut server = build_server(&cfg.system, cfg.seed, position);
    run_server_node(
        &mut server,
        &cfg.system,
        cfg.seed,
        upstream,
        downstream,
        &mut |_, _, _| {},
    )
}

/// Runs the entry over TCP: bind the client listener, connect to
/// server 0, accept the client driver, and relay rounds until the `Bye`
/// handshake completes — the client driver's forward
/// [`vuvuzela_wire::Frame::Bye`] relayed down the chain, the backward
/// one relayed back to it. The entry is the relay mode of the node loop
/// every server runs ([`run_entry_node`]).
///
/// # Errors
///
/// Bind/connect/handshake failures and any protocol violation from
/// [`run_entry_node`].
pub fn serve_entry(cfg: &DeploymentConfig) -> Result<NodeStats, Error> {
    let digest = cfg.digest();
    let listener = TcpListener::bind(&cfg.entry_addr).map_err(|source| Error::Io {
        link: LinkId::Clients,
        op: "bind",
        source,
    })?;
    let downstream: Arc<dyn Transport> = Arc::new(TcpTransport::connect(
        cfg.server_addrs[0].as_str(),
        LinkId::Hop(0),
        digest,
        &cfg.connect_retry(),
    )?);
    let clients: Arc<dyn Transport> =
        Arc::new(TcpTransport::accept(&listener, LinkId::Clients, digest)?);
    run_entry_node(&cfg.system, clients, downstream)
}

/// Runs the scripted client driver over TCP against a live entry, with
/// a `depth`-round admission window (see [`run_client`]).
///
/// # Errors
///
/// Connect/handshake failures and any protocol violation from
/// [`run_client`].
pub fn run_client_tcp(cfg: &DeploymentConfig, depth: usize) -> Result<String, Error> {
    let entry = TcpTransport::connect(
        cfg.entry_addr.as_str(),
        LinkId::Clients,
        cfg.digest(),
        &cfg.connect_retry(),
    )?;
    run_client(cfg, &entry, depth)
}

/// Rewrites every `:0` address to a concrete free loopback port
/// (pre-binding a listener to discover one), so one deployment file can
/// say "any free port" and all processes still agree.
///
/// Every probe listener stays bound until the last address is resolved
/// and they are dropped together, so the kernel cannot hand this
/// deployment the same port twice. One race remains and cannot be
/// closed from here: between this function returning and a node's own
/// `bind`, nothing holds the ports, and another process that asks for
/// an ephemeral port in that window (a concurrently starting
/// deployment, say) may be given one of them; that node then fails to
/// bind — or its peer connects to the stranger. Deployments that must
/// not lose that race name their ports.
///
/// # Errors
///
/// Bind failures while probing for free ports.
pub fn resolve_ephemeral_ports(cfg: &mut DeploymentConfig) -> Result<(), String> {
    let mut probes = Vec::new();
    for addr in std::iter::once(&mut cfg.entry_addr).chain(&mut cfg.server_addrs) {
        if addr.ends_with(":0") {
            let listener = TcpListener::bind(addr.as_str())
                .map_err(|err| format!("cannot probe a free port on {addr}: {err}"))?;
            *addr = listener
                .local_addr()
                .map_err(|err| format!("no local addr for {addr}: {err}"))?
                .to_string();
            probes.push(listener);
        }
    }
    drop(probes); // all at once, only now
    Ok(())
}

/// Options for [`launch`].
pub struct LaunchOptions {
    /// Also run the in-process reference and fail on any transcript
    /// difference (for the pipelined run too, when `pipeline > 1`).
    pub check: bool,
    /// Where transcripts, the resolved config, and the bench artefact
    /// are written.
    pub out_dir: PathBuf,
    /// Directory holding the `vuvuzela-server` / `vuvuzela-entry` /
    /// `vuvuzela-client` bins; defaults to the launcher's own
    /// directory.
    pub bin_dir: Option<PathBuf>,
    /// Client admission-window depth for an *additional* pipelined
    /// process set run after the sequential one (clamped to
    /// `1..=chain_len`); `0` or `1` means sequential only.
    pub pipeline: usize,
}

/// What [`launch`] produced.
pub struct LaunchReport {
    /// The distributed run's transcript (also written to
    /// `distributed.txt`).
    pub distributed: String,
    /// The reference transcript, when `--check` ran.
    pub reference: Option<String>,
    /// The pipelined run's transcript (also written to
    /// `distributed_pipelined.txt`), when `pipeline > 1`.
    pub pipelined: Option<String>,
    /// The clamped window depth the pipelined run used (1 when no
    /// pipelined run happened).
    pub pipeline_depth: usize,
}

fn kill_all(children: &mut [(String, Child)]) {
    for (_, child) in children.iter_mut() {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Spawns one full process set — servers tail-to-head, entry, client —
/// against `resolved_path`, waits for every process, and returns the
/// client transcript. The first process to exit non-zero is named in
/// the error, and the others are killed.
fn run_process_set(
    cfg: &DeploymentConfig,
    bin: &dyn Fn(&str) -> PathBuf,
    resolved_path: &Path,
    transcript_path: &Path,
    depth: usize,
) -> Result<String, String> {
    let mut children: Vec<(String, Child)> = Vec::new();
    let spawn = |children: &mut Vec<(String, Child)>,
                 name: String,
                 command: &mut Command|
     -> Result<(), String> {
        match command.spawn() {
            Ok(child) => {
                children.push((name, child));
                Ok(())
            }
            Err(err) => {
                kill_all(children);
                Err(format!("cannot spawn {name}: {err}"))
            }
        }
    };
    // Servers first (tail to head so downstream listeners exist early,
    // although the connect retry loop tolerates any order), then the
    // entry, then the client driver.
    for position in (0..cfg.system.chain_len).rev() {
        spawn(
            &mut children,
            format!("vuvuzela-server {position}"),
            Command::new(bin("vuvuzela-server"))
                .arg("--config")
                .arg(resolved_path)
                .arg("--position")
                .arg(position.to_string()),
        )?;
    }
    spawn(
        &mut children,
        "vuvuzela-entry".to_string(),
        Command::new(bin("vuvuzela-entry"))
            .arg("--config")
            .arg(resolved_path),
    )?;
    let mut client = Command::new(bin("vuvuzela-client"));
    client
        .arg("--config")
        .arg(resolved_path)
        .arg("--out")
        .arg(transcript_path);
    if depth > 1 {
        client.arg("--pipeline").arg(depth.to_string());
    }
    spawn(&mut children, "vuvuzela-client".to_string(), &mut client)?;

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
    std::fs::read_to_string(transcript_path).map_err(|err| {
        format!(
            "client wrote no transcript at {}: {err}",
            transcript_path.display()
        )
    })
}

/// Strips the transcript header (whose digest covers the deployment's
/// concrete addresses) so runs on different ports remain comparable.
fn transcript_body(transcript: &str) -> &str {
    transcript
        .split_once('\n')
        .map_or(transcript, |(_, body)| body)
}

/// Launches one deployment as separate OS processes — `chain_len`
/// `vuvuzela-server`s, one `vuvuzela-entry`, one `vuvuzela-client` —
/// replays the schedule, and writes `distributed.txt`,
/// `reference.txt` (with `check`) and `resolved.json` into the out dir.
///
/// With `pipeline > 1` a second process set replays the same schedule
/// with a pipelined client window (`distributed_pipelined.txt`). Its
/// `:0` addresses are re-resolved to fresh ports — rebinding the
/// sequential run's listeners immediately can trip over `TIME_WAIT` —
/// so its transcript header carries a different config digest; the
/// body (every round line) must still match the sequential run
/// byte-for-byte, and with `check` the pipelined transcript is also
/// diffed in full against its own sequential in-process reference.
///
/// # Errors
///
/// Spawn failures, a non-zero child exit, or (with `check`) a
/// transcript mismatch.
pub fn launch(mut cfg: DeploymentConfig, opts: &LaunchOptions) -> Result<LaunchReport, String> {
    let unresolved = cfg.clone();
    resolve_ephemeral_ports(&mut cfg)?;
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|err| format!("cannot create {}: {err}", opts.out_dir.display()))?;
    let write_resolved = |name: &str, cfg: &DeploymentConfig| -> Result<PathBuf, String> {
        let path = opts.out_dir.join(name);
        let rendered =
            serde_json::to_string_pretty(&cfg.to_json()).expect("deployment config always renders");
        std::fs::write(&path, rendered + "\n")
            .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
        Ok(path)
    };
    let resolved_path = write_resolved("resolved.json", &cfg)?;

    let bin_dir = match &opts.bin_dir {
        Some(dir) => dir.clone(),
        None => std::env::current_exe()
            .map_err(|err| format!("cannot locate the launcher binary: {err}"))?
            .parent()
            .ok_or("the launcher binary has no parent directory")?
            .to_path_buf(),
    };
    let bin = |name: &str| bin_dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));

    let transcript_path = opts.out_dir.join("distributed.txt");
    let distributed = run_process_set(&cfg, &bin, &resolved_path, &transcript_path, 1)?;

    let depth = opts.pipeline.clamp(1, cfg.system.chain_len.max(1));
    let pipelined_run = if depth > 1 {
        let mut pcfg = unresolved;
        resolve_ephemeral_ports(&mut pcfg)?;
        let presolved_path = write_resolved("resolved_pipelined.json", &pcfg)?;
        let ptranscript_path = opts.out_dir.join("distributed_pipelined.txt");
        let transcript = run_process_set(&pcfg, &bin, &presolved_path, &ptranscript_path, depth)?;
        if transcript_body(&transcript) != transcript_body(&distributed) {
            return Err(format!(
                "pipelined transcript body diverged from the sequential run: {} vs {}",
                ptranscript_path.display(),
                transcript_path.display(),
            ));
        }
        Some((pcfg, transcript))
    } else {
        None
    };

    let reference = if opts.check {
        let reference = run_reference(&cfg);
        let reference_path = opts.out_dir.join("reference.txt");
        std::fs::write(&reference_path, &reference)
            .map_err(|err| format!("cannot write {}: {err}", reference_path.display()))?;
        Some(reference)
    } else {
        None
    };

    if let Some(reference) = &reference {
        if *reference != distributed {
            return Err(format!(
                "transcript mismatch: {} differs from {} (distributed sha256 {}, reference {})",
                transcript_path.display(),
                opts.out_dir.join("reference.txt").display(),
                hex(&sha256(distributed.as_bytes())),
                hex(&sha256(reference.as_bytes())),
            ));
        }
        if let Some((pcfg, ptranscript)) = &pipelined_run {
            let preference = run_reference(pcfg);
            let preference_path = opts.out_dir.join("reference_pipelined.txt");
            std::fs::write(&preference_path, &preference)
                .map_err(|err| format!("cannot write {}: {err}", preference_path.display()))?;
            if preference != *ptranscript {
                return Err(format!(
                    "pipelined transcript mismatch: {} differs from {} \
                     (distributed sha256 {}, reference {})",
                    opts.out_dir.join("distributed_pipelined.txt").display(),
                    preference_path.display(),
                    hex(&sha256(ptranscript.as_bytes())),
                    hex(&sha256(preference.as_bytes())),
                ));
            }
        }
    }
    Ok(LaunchReport {
        distributed,
        reference,
        pipelined: pipelined_run.map(|(_, transcript)| transcript),
        pipeline_depth: depth,
    })
}

/// A small deployment suitable for smoke tests: 3 servers, low noise,
/// ephemeral loopback ports, a mixed 4-round schedule.
#[must_use]
pub fn smoke_config() -> DeploymentConfig {
    use vuvuzela_dp::{NoiseDistribution, NoiseMode};
    DeploymentConfig {
        system: SystemConfig {
            chain_len: 3,
            conversation_noise: NoiseDistribution::new(6.0, 2.0),
            dialing_noise: NoiseDistribution::new(3.0, 1.0),
            noise_mode: NoiseMode::Sampled,
            workers: 2,
            conversation_slots: 1,
            retransmit_after: 2,
            exchange_shards: 4,
        },
        seed: 42,
        entry_addr: "127.0.0.1:0".to_string(),
        server_addrs: vec!["127.0.0.1:0".to_string(); 3],
        schedule: vec![
            ScheduleEntry::Conversation {
                pairs: 2,
                singles: 1,
            },
            ScheduleEntry::Dialing { dials: 2, drops: 4 },
            ScheduleEntry::Conversation {
                pairs: 1,
                singles: 0,
            },
            ScheduleEntry::Conversation {
                pairs: 0,
                singles: 2,
            },
        ],
        connect_timeout_ms: DEFAULT_CONNECT_TIMEOUT_MS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vuvuzela_crypto::onion;

    #[test]
    fn committed_smoke_deployment_matches_builtin() {
        // `deploy/smoke.json` is what CI's deploy-smoke job launches;
        // regenerate it with `vuvuzela-launch --dump-config` if
        // `smoke_config` changes.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("deploy/smoke.json");
        let committed = load_config(&path).expect("committed smoke deployment parses");
        assert_eq!(committed.digest(), smoke_config().digest());
    }

    #[test]
    fn deployment_config_roundtrips_and_rejects_typos() {
        let cfg = smoke_config();
        let back = DeploymentConfig::from_json(&cfg.to_json()).expect("round-trips");
        assert_eq!(back.seed, cfg.seed);
        assert_eq!(back.entry_addr, cfg.entry_addr);
        assert_eq!(back.server_addrs, cfg.server_addrs);
        assert_eq!(back.schedule, cfg.schedule);
        assert_eq!(back.connect_timeout_ms, cfg.connect_timeout_ms);
        assert_eq!(back.digest(), cfg.digest());

        // The connect timeout is optional and defaults when absent.
        let mut value = cfg.to_json();
        if let Value::Object(map) = &mut value {
            map.remove("connect_timeout_ms");
        }
        let defaulted = DeploymentConfig::from_json(&value).expect("timeout defaults");
        assert_eq!(defaulted.connect_timeout_ms, DEFAULT_CONNECT_TIMEOUT_MS);

        let mut value = cfg.to_json();
        if let Value::Object(map) = &mut value {
            map.insert("entry_address".to_string(), Value::from("x"));
        }
        let err = DeploymentConfig::from_json(&value).expect_err("typo");
        assert!(err.contains("entry_address"), "{err}");

        let mut value = cfg.to_json();
        if let Value::Object(map) = &mut value {
            if let Some(Value::Array(schedule)) = map.get_mut("schedule") {
                schedule[0] = json!({"type": "conversation", "pair": 1, "singles": 0});
            }
        }
        let err = DeploymentConfig::from_json(&value).expect_err("nested typo");
        assert!(err.contains("pair"), "{err}");
    }

    #[test]
    fn addr_count_must_match_chain_len() {
        let mut cfg = smoke_config();
        cfg.server_addrs.pop();
        let err = DeploymentConfig::from_json(&cfg.to_json()).expect_err("mismatch");
        assert!(err.contains("chain_len"), "{err}");
    }

    #[test]
    fn deployment_with_overlong_chain_fails_at_parse_time() {
        // 17 servers with 17 addresses is self-consistent, but no onion
        // could be wrapped for it: the file must be refused here, not by
        // a panic inside the first noising server's first round.
        let mut cfg = smoke_config();
        cfg.system.chain_len = onion::MAX_CHAIN + 1;
        cfg.server_addrs = vec!["127.0.0.1:0".to_string(); onion::MAX_CHAIN + 1];
        let err = DeploymentConfig::from_json(&cfg.to_json()).expect_err("chain too long");
        assert!(err.contains("chain_len"), "names the field: {err}");
        assert!(err.contains("16"), "names the limit: {err}");

        cfg.system.chain_len = onion::MAX_CHAIN;
        cfg.server_addrs.pop();
        let parsed = DeploymentConfig::from_json(&cfg.to_json()).expect("the limit itself parses");
        assert_eq!(parsed.system.chain_len, onion::MAX_CHAIN);
    }

    #[test]
    fn zero_workers_slots_or_shards_fail_at_parse_time() {
        // `SystemConfig::validate` asserts each of these on the first
        // chain or server built; the file must be refused before that.
        for key in ["workers", "conversation_slots", "exchange_shards"] {
            let mut value = smoke_config().to_json();
            if let Value::Object(map) = &mut value {
                if let Some(Value::Object(system)) = map.get_mut("system") {
                    system.insert(key.to_string(), Value::from(0u64));
                }
            }
            let err = DeploymentConfig::from_json(&value).expect_err("zero is refused");
            assert!(err.contains(key), "names the field: {err}");
        }
    }

    #[test]
    fn zero_invitation_drops_fail_at_parse_time() {
        // A client building such a round would panic deriving its drop.
        let mut cfg = smoke_config();
        cfg.schedule[1] = ScheduleEntry::Dialing { dials: 2, drops: 0 };
        let err = DeploymentConfig::from_json(&cfg.to_json()).expect_err("zero drops");
        assert!(err.contains("drops"), "names the field: {err}");
    }

    #[test]
    fn schedule_counts_above_u32_fail_at_parse_time() {
        // 2³² + 1 pairs must not wrap to 1.
        let mut value = smoke_config().to_json();
        if let Value::Object(map) = &mut value {
            if let Some(Value::Array(schedule)) = map.get_mut("schedule") {
                schedule[0] =
                    json!({"type": "conversation", "pairs": 4_294_967_297u64, "singles": 0});
            }
        }
        let err = DeploymentConfig::from_json(&value).expect_err("a count past u32");
        assert!(err.contains("pairs"), "names the field: {err}");
    }

    #[test]
    fn resolved_ephemeral_ports_are_pairwise_distinct() {
        // An entry and the longest chain there is, all on ":0": the
        // seventeen probes are held together, so however the kernel
        // recycles ports no two addresses may resolve to the same one.
        let mut template = smoke_config();
        template.entry_addr = "127.0.0.1:0".to_string();
        template.server_addrs = vec!["127.0.0.1:0".to_string(); onion::MAX_CHAIN];
        for attempt in 0..64 {
            let mut cfg = template.clone();
            resolve_ephemeral_ports(&mut cfg).expect("free loopback ports");
            let mut addrs = cfg.server_addrs.clone();
            addrs.push(cfg.entry_addr.clone());
            assert!(
                addrs.iter().all(|a| !a.ends_with(":0")),
                "every address resolved"
            );
            addrs.sort();
            addrs.dedup();
            assert_eq!(
                addrs.len(),
                onion::MAX_CHAIN + 1,
                "attempt {attempt}: {cfg:?}"
            );
        }
    }

    #[test]
    fn smoke_reference_matches_its_pin() {
        // SHA-256 of the smoke deployment's reference transcript below
        // its header (which names the resolved addresses): the cohort's
        // onions, what the servers did with them, and what the replies
        // delivered.
        const WANT: &str = "c30f6226946403163e5df81f1129b9c3cb382f6f73959f96646767a2bf7eaf26";
        let reference = run_reference(&smoke_config());
        assert_eq!(
            hex(&sha256(transcript_body(&reference).as_bytes())),
            WANT,
            "{reference}"
        );
    }

    #[test]
    fn smoke_tail_histograms_do_not_depend_on_the_client() {
        // The lines the synthetic-onion client produced before the
        // cohort replaced it. Server noise is a function of the seed and
        // the round, and the cohort puts the same pairs and singles into
        // the dead drops, so no count the tail sees may move.
        let reference = run_reference(&smoke_config());
        let obs: Vec<&str> = reference.lines().filter(|l| l.contains(" obs ")).collect();
        assert_eq!(
            obs,
            [
                "round 0 obs m1 10 m2 9 m_many 0 total 28",
                "round 2 obs m1 15 m2 6 m_many 0 total 27",
                "round 3 obs m1 11 m2 6 m_many 0 total 23",
            ]
        );
    }
}
