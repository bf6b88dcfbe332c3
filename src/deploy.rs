//! Real-deployment plumbing for the `vuvuzela` program's roles.
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
//! number, so the distributed run (`vuvuzela launch`: entry + servers +
//! client as separate OS processes over loopback TCP, the client keeping
//! the entry's window of `chain_len` rounds in flight) and the in-process
//! reference ([`run_reference`]: one round per [`Chain::run`], the
//! servers' own frame handler without sockets or entry) must produce
//! **byte-identical transcripts** — reply hashes,
//! delivered messages, dead-drop histograms and dialing counts
//! included. `vuvuzela launch --check` asserts exactly that, and CI
//! runs it on every push.

use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use serde_json::{json, Value};
use vuvuzela_core::chain::{build_server, server_keypairs, Abort, Chain, RoundOutcome, RoundSpec};
use vuvuzela_core::config::{expect_object, get_u64, reject_unknown, require};
use vuvuzela_core::node::{
    feed_window, run_entry_node, run_server_node, HopObserver, NodeStats, RoundTrailer,
};
use vuvuzela_core::record::NodeId;
use vuvuzela_core::server::RoundKind;
use vuvuzela_core::{ClientCohort, RoundBuffer, SystemConfig};
use vuvuzela_crypto::sha256::{sha256, Sha256};
use vuvuzela_crypto::x25519::PublicKey;
use vuvuzela_net::{Error, LinkId, RetryPolicy, TcpTransport, Transport};
use vuvuzela_sim::transcript::{hex, Transcript};
use vuvuzela_wire::BatchFrame;

/// Default for [`DeploymentConfig::connect_timeout_ms`]: deployment
/// processes start in arbitrary order, so peers retry refused
/// connections this long before giving up, and wait this long for a
/// peer that owes them a frame.
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
    /// conversation slot (counted in `usize`: `2·pairs + singles` can
    /// pass `u32::MAX`).
    fn shape(self) -> (RoundKind, usize) {
        match self {
            ScheduleEntry::Conversation { pairs, singles } => (
                RoundKind::Conversation,
                2 * pairs as usize + singles as usize,
            ),
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

/// Everything the `vuvuzela` roles need to run one deployment.
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
    /// How long (milliseconds) a process waits on a peer: connecting
    /// processes retry a refused connection this long (backing off
    /// exponentially with per-link jitter), and a node fails with
    /// [`Error::Deadline`] when a peer keeps it waiting longer for a
    /// frame it owes — a round's answer, the rest of a frame, or taking
    /// a frame being sent (see [`vuvuzela_net::tcp`]). An idle node
    /// waits without bound. Optional in the JSON file, defaulting to
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

    /// The canonical rendering: pretty-printed [`DeploymentConfig::to_json`],
    /// what the launcher writes to `resolved.json`.
    #[must_use]
    pub fn render(&self) -> String {
        serde_json::to_string_pretty(&self.to_json()).expect("a JSON value always renders")
    }

    /// The SHA-256 digest of the canonical config rendering, exchanged
    /// in every TCP handshake so mismatched processes fail fast.
    #[must_use]
    pub fn digest(&self) -> [u8; 32] {
        sha256(self.render().as_bytes())
    }

    /// The connect-retry policy every process in this deployment uses:
    /// jittered exponential backoff up to the configured deadline, which
    /// the connections it makes then wait on their peers by.
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

/// Replays the schedule on the in-process [`Chain`], one round per
/// [`Chain::run`] call — the reference transcript every distributed run
/// is diffed against. A call per round holds one round's arenas at a
/// time, not the whole schedule's.
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
            let batch = build(round as usize).into();
            let spec = match *entry {
                ScheduleEntry::Conversation { .. } => RoundSpec::Conversation { round, batch },
                ScheduleEntry::Dialing { drops, .. } => RoundSpec::Dialing {
                    round,
                    batch,
                    num_drops: drops,
                },
            };
            Ok(match chain.run(vec![spec])?.remove(0) {
                RoundOutcome::Conversation { replies, .. } => {
                    let (_, obs) = *chain.conversation_observables().last().expect("round ran");
                    (replies, RoundTrailer::Conversation(obs))
                }
                RoundOutcome::Dialing { .. } => {
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
/// (`vuvuzela client` over TCP, or in-memory endpoints in tests) and
/// builds the client-side transcript.
///
/// [`feed_window`] keeps the entry's own window in flight: `chain_len`
/// weighted slots, the limit the entry enforces and the one the
/// in-process [`Chain::run`] keeps, so heavyweight rounds consume more
/// of it. Backward frames return in admission order, and the cohort sees
/// no reply before every round is built, so the transcript is
/// byte-identical to [`run_reference`]'s one round at a time.
///
/// # Errors
///
/// Transport failures, or [`Error::Protocol`] when the chain answers
/// out of protocol (wrong round, malformed trailer).
pub fn run_client(cfg: &DeploymentConfig, entry: &dyn Transport) -> Result<String, Error> {
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
        let window = cfg.system.chain_len;
        feed_window(&cfg.system, entry, window, &schedule, admit, collect)?;
        Ok(carried)
    })
}

/// Binds the listener `node` serves on: the entry's client address, or
/// server *i*'s upstream one. Binding before serving lets a caller that
/// starts several nodes in one process hold every port before any peer
/// connects.
///
/// # Errors
///
/// The bind failure, attributed to the link the listener serves.
pub fn listen(cfg: &DeploymentConfig, node: NodeId) -> Result<TcpListener, Error> {
    let (addr, link) = match node {
        NodeId::Entry => (&cfg.entry_addr, LinkId::Clients),
        NodeId::Hop(position) => (&cfg.server_addrs[position], LinkId::Hop(position as u32)),
    };
    TcpListener::bind(addr.as_str()).map_err(|source| Error::Io {
        link,
        op: "bind",
        source,
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
    let listener = listen(cfg, NodeId::Hop(position))?;
    serve_server_observed(cfg, position, listener, &mut |_| {})
}

/// [`serve_server`] on an upstream `listener` already bound
/// ([`listen`]), handing `observer` the node's round record.
///
/// # Errors
///
/// As [`serve_server`], binding aside.
pub fn serve_server_observed(
    cfg: &DeploymentConfig,
    position: usize,
    listener: TcpListener,
    observer: &mut HopObserver<'_>,
) -> Result<NodeStats, Error> {
    let digest = cfg.digest();
    let retry = cfg.connect_retry();
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
    let upstream = TcpTransport::accept(&listener, LinkId::Hop(position as u32), digest)?;
    let upstream: Arc<dyn Transport> = Arc::new(upstream.with_deadline(retry.deadline));
    let mut server = build_server(&cfg.system, cfg.seed, position);
    run_server_node(
        &mut server,
        &cfg.system,
        cfg.seed,
        upstream,
        downstream,
        observer,
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
    let listener = listen(cfg, NodeId::Entry)?;
    serve_entry_observed(cfg, listener, &mut |_| {})
}

/// [`serve_entry`] on a client `listener` already bound ([`listen`]),
/// handing `observer` the entry's round record.
///
/// # Errors
///
/// As [`serve_entry`], binding aside.
pub fn serve_entry_observed(
    cfg: &DeploymentConfig,
    listener: TcpListener,
    observer: &mut HopObserver<'_>,
) -> Result<NodeStats, Error> {
    let digest = cfg.digest();
    let retry = cfg.connect_retry();
    let downstream: Arc<dyn Transport> = Arc::new(TcpTransport::connect(
        cfg.server_addrs[0].as_str(),
        LinkId::Hop(0),
        digest,
        &retry,
    )?);
    let clients = TcpTransport::accept(&listener, LinkId::Clients, digest)?;
    let clients: Arc<dyn Transport> = Arc::new(clients.with_deadline(retry.deadline));
    run_entry_node(&cfg.system, clients, downstream, observer)
}

/// Runs the scripted client driver over TCP against a live entry (see
/// [`run_client`]).
///
/// # Errors
///
/// Connect/handshake failures and any protocol violation from
/// [`run_client`].
pub fn run_client_tcp(cfg: &DeploymentConfig) -> Result<String, Error> {
    let entry = TcpTransport::connect(
        cfg.entry_addr.as_str(),
        LinkId::Clients,
        cfg.digest(),
        &cfg.connect_retry(),
    )?;
    run_client(cfg, &entry)
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
/// not lose that race name their ports; a caller that starts every node
/// in one process closes it by binding each node's listener ([`listen`])
/// before it starts any node.
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

/// The committed smoke deployment, `deploy/smoke.json`: 3 servers, low
/// noise, ephemeral loopback ports, a mixed 4-round schedule. It is
/// what `vuvuzela launch` runs without `--config`, and what CI's
/// deploy-smoke job launches.
///
/// # Panics
///
/// If the committed file does not parse, which this module's tests rule
/// out.
#[must_use]
pub fn smoke_config() -> DeploymentConfig {
    let value = serde_json::from_str(include_str!("../deploy/smoke.json"))
        .expect("deploy/smoke.json is JSON");
    DeploymentConfig::from_json(&value).expect("deploy/smoke.json is a deployment")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vuvuzela_crypto::onion;

    /// Strips the transcript header, whose digest covers the deployment's
    /// concrete addresses, so a pin does not depend on the ports.
    fn transcript_body(transcript: &str) -> &str {
        transcript
            .split_once('\n')
            .map_or(transcript, |(_, body)| body)
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
    fn schedule_counts_up_to_u32_max_size_their_round_without_overflow() {
        // Both counts parse up to u32::MAX, and the client prices every
        // round by its onion count before it builds the cohort: the count
        // must not wrap (nor, with overflow checks, panic).
        let entry = ScheduleEntry::Conversation {
            pairs: u32::MAX,
            singles: u32::MAX,
        };
        assert_eq!(
            entry.shape(),
            (RoundKind::Conversation, 3 * u32::MAX as usize)
        );
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
    fn noise_out_of_range_fails_at_parse_time() {
        // `NoiseDistribution::new` asserts µ ≥ 0 and b > 0: every process
        // loads the file, so each would panic instead of naming the field.
        // `1e999` parses to an infinite double.
        let infinite: Value = serde_json::from_str("1e999").expect("a JSON number");
        for noise in ["conversation_noise", "dialing_noise"] {
            for (key, bad) in [
                ("mu", Value::from(-1.0)),
                ("mu", infinite.clone()),
                ("b", Value::from(0.0)),
                ("b", Value::from(-2.0)),
                ("b", infinite.clone()),
            ] {
                let mut value = smoke_config().to_json();
                if let Value::Object(map) = &mut value {
                    if let Some(Value::Object(system)) = map.get_mut("system") {
                        if let Some(Value::Object(dist)) = system.get_mut(noise) {
                            dist.insert(key.to_string(), bad);
                        }
                    }
                }
                let err = DeploymentConfig::from_json(&value).expect_err("out of range");
                assert!(
                    err.contains(&format!("\"{key}\"")),
                    "names the field: {err}"
                );
            }
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
