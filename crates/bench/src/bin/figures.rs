//! The paper's evaluation figures and tables (§6, §8): one function
//! each, returning the artefact written to `bench_results/<name>.json`.
//!
//! Run: `cargo run --release -p vuvuzela-bench --bin figures --
//! [--quick] <name>…|all`. A name selects the figure called that or
//! starting with it and a `_` (`fig9` is `fig9_conv_latency`).
//! `--quick` runs the latency sweeps (`fig9`, `fig10`, `fig11`) on a
//! reduced grid and `paper_scale` at 1:100; the other figures have one
//! grid and ignore it.
//!
//! The latency sweeps run the real protocol at 1:100 or 1:300 of the
//! paper's scale and measure end-to-end wall-clock per round, with
//! deterministic noise (⌈µ⌉ per server) as in §8.1; `paper_scale`
//! measures the paper's headline point itself, 1M users at §8.1's
//! sampled noise (about two minutes and 2 GB, so it runs on demand).
//! Their rounds are built as the deployment builds one: a [`Chain`] of
//! `chain::build_server`'s servers, and a
//! [`vuvuzela_core::ClientCohort`] whose members pair up and each send
//! their partner a message ([`vuvuzela_bench::workload`]); every
//! conversation round timed must deliver every message.
//!
//! Each number of `fig9`–`fig11`, `paper_scale`, `tab_throughput`,
//! `abl_noise_placement` and `tab_posterior` says where it comes from:
//! its artefact key starts, and its column header ends, with `measured`
//! (on this host) or `closed form`; a run's parameters and the paper's
//! own figures carry no label.
//!
//! No figure measures an attack: attack accuracy is measured on the
//! running system by `vuvuzela-sim`'s `sim_attack`, and `tab_posterior`
//! is §6.4's closed-form posterior table.

use serde_json::{json, Value};
use std::process::ExitCode;
use std::time::Instant;
use vuvuzela_baseline::broadcast;
use vuvuzela_bench::report::{human_bytes, secs, write_json, Table};
use vuvuzela_bench::workload::{assert_delivered, dialing_cohort, talking_cohort};
use vuvuzela_core::record::{Fold, NodeId, Phase, Public};
use vuvuzela_core::{Chain, ClientCohort, RoundOutcome, RoundSpec, SystemConfig};
use vuvuzela_crypto::onion;
use vuvuzela_dp::accounting::conversation_round;
use vuvuzela_dp::planner::{
    drop_download_invitations, max_protected_rounds, optimal_num_drops, posterior_bound,
    privacy_series, total_noise_invitations, PrivacyPoint, PrivacyTarget,
};
use vuvuzela_dp::{NoiseDistribution, NoiseMode, Protocol};
use vuvuzela_net::parallel::default_workers;
use vuvuzela_net::Direction;
use vuvuzela_wire::deaddrop::InvitationDropIndex;
use vuvuzela_wire::{EXCHANGE_REQUEST_LEN, SEALED_INVITATION_LEN, SEALED_MESSAGE_LEN};

/// Every figure, by the name of the artefact it produces.
type Figure = fn(&Setup) -> Value;
const FIGURES: [(&str, Figure); 12] = [
    ("fig6_sensitivity", fig6_sensitivity),
    ("fig7_conv_privacy", fig7_conv_privacy),
    ("fig8_dial_privacy", fig8_dial_privacy),
    ("fig9_conv_latency", fig9_conv_latency),
    ("fig10_dial_latency", fig10_dial_latency),
    ("fig11_chain_scaling", fig11_chain_scaling),
    ("paper_scale", paper_scale),
    ("tab_bandwidth", tab_bandwidth),
    ("tab_throughput", tab_throughput),
    ("abl_drop_tuning", abl_drop_tuning),
    ("abl_noise_placement", abl_noise_placement),
    ("tab_posterior", tab_posterior),
];

/// The paper's conversation noise (§8.1) and dialing noise per drop.
const PAPER_MU: f64 = 300_000.0;
const PAPER_DIAL_MU: f64 = 13_000.0;

fn main() -> ExitCode {
    let mut names: Vec<String> = std::env::args().skip(1).collect();
    let quick = names.iter().any(|arg| arg == "--quick");
    names.retain(|arg| arg != "--quick");
    let selects = |arg: &str, name: &str| {
        let rest = name.strip_prefix(arg);
        arg == "all" || rest.is_some_and(|rest| rest.is_empty() || rest.starts_with('_'))
    };
    let known = |arg: &String| FIGURES.iter().any(|(name, _)| selects(arg, name));
    if names.is_empty() || !names.iter().all(known) {
        let all = FIGURES.map(|(name, _)| name).join(" ");
        eprintln!("usage: figures [--quick] <name>...|all, of {all}");
        return ExitCode::from(2);
    }
    let setup = Setup { quick };
    for (name, figure) in FIGURES {
        if names.iter().any(|arg| selects(arg, name)) {
            write_json(name, &figure(&setup));
        }
    }
    ExitCode::SUCCESS
}

/// What the figures share: the reduced-grid flag.
struct Setup {
    quick: bool,
}

impl Setup {
    /// The user-count grid of the two latency-vs-users sweeps (1:100
    /// of the paper's 10 → 2M).
    fn users_scaled(&self) -> &'static [u64] {
        &[10, 2_500, 5_000, 10_000, 15_000, 20_000][..if self.quick { 3 } else { 6 }]
    }
}

/// A figure's table and the artefact rows behind it, specified once:
/// each cell is `(column header, artefact key, value recorded, how the
/// table shows it)`. An empty header keeps a cell out of the table, an
/// empty key out of the artefact.
#[derive(Default)]
struct Sheet {
    headers: Vec<String>,
    shown: Vec<Vec<String>>,
    rows: Vec<Value>,
}

impl Sheet {
    fn row(&mut self, cells: &[(&str, &str, Value, String)]) {
        let shown: Vec<_> = cells.iter().filter(|cell| !cell.0.is_empty()).collect();
        self.headers = shown.iter().map(|cell| cell.0.to_string()).collect();
        self.shown
            .push(shown.iter().map(|cell| cell.3.clone()).collect());
        let recorded = cells.iter().filter(|cell| !cell.1.is_empty());
        let recorded = recorded.map(|cell| (cell.1.to_string(), cell.2.clone()));
        self.rows.push(Value::Object(recorded.collect()));
    }

    fn print(&self, title: &str) {
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        let mut table = Table::new(&headers);
        for row in &self.shown {
            table.row(row);
        }
        table.print(title);
    }
}

/// The deployment every figure runs: `chain_len` servers adding the
/// given mean cover traffic per round of each protocol (a figure that
/// runs only one protocol passes 1 for the other).
fn system(chain_len: usize, noise_mode: NoiseMode, conv_mu: f64, dial_mu: f64) -> SystemConfig {
    let noise = |mu: f64| NoiseDistribution::new(mu, (mu / 20.0).max(1.0));
    SystemConfig {
        chain_len,
        conversation_noise: noise(conv_mu),
        dialing_noise: noise(dial_mu),
        noise_mode,
        workers: default_workers(),
        conversation_slots: 1,
        retransmit_after: 2,
        exchange_shards: 4,
    }
}

/// Wall-clock and CPU seconds (every thread of the process) of one
/// step, and how much its resident memory grew.
#[derive(Clone, Copy)]
struct Cost {
    wall: f64,
    cpu: f64,
    rss: f64,
}

/// Runs `step`, measuring what it cost.
fn measure<T>(step: impl FnOnce() -> T) -> (T, Cost) {
    let (start, cpu, rss) = (Instant::now(), cpu_secs(), status_bytes("VmRSS"));
    let out = step();
    let cost = Cost {
        wall: start.elapsed().as_secs_f64(),
        cpu: cpu_secs() - cpu,
        rss: status_bytes("VmRSS") - rss,
    };
    (out, cost)
}

/// User plus system CPU seconds of every thread this process has run,
/// exited ones included: fields 14 and 15 of `/proc/self/stat`, in
/// Linux's fixed 1/100 s ticks.
fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name (field 2) may hold spaces: count from its ')'.
    let (_, fields) = stat.rsplit_once(')').expect("a stat line");
    let ticks = fields.split_whitespace().skip(11).take(2);
    ticks.map(|f| f.parse::<f64>().expect("ticks")).sum::<f64>() / 100.0
}

/// A memory line of `/proc/self/status` (`VmRSS`, `VmHWM`), in bytes.
fn status_bytes(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib = status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse::<f64>().ok()
    });
    kib.expect(key) * 1024.0
}

/// One conversation round by `users` talking members of a cohort
/// through a fresh chain, after which every talker must hold its
/// partner's message. Returns the chain, the outcome (its
/// `timing().total` is the round alone) and what the cohort's setup,
/// its build, the round and the reply ingest (with the delivery check)
/// cost.
fn conv_round(config: SystemConfig, users: u64, seed: u64) -> (Chain, RoundOutcome, [Cost; 4]) {
    let mut chain = Chain::new(config, 1);
    let pks = chain.server_public_keys();
    let (mut cohort, setup) =
        measure(|| talking_cohort(chain.config(), seed, &pks, users as usize));
    let (batch, build) = measure(|| cohort.build_conversation_round(0).into());
    let spec = RoundSpec::Conversation { round: 0, batch };
    let (outcomes, round) = measure(|| chain.run(vec![spec]));
    let outcome = outcomes
        .expect("an untapped chain completes every round")
        .remove(0);
    let replies = outcome.replies().expect("a conversation round");
    let ((), ingest) = measure(|| assert_delivered(&mut cohort, 0, replies));
    (chain, outcome, [setup, build, round, ingest])
}

/// One dialing round on `chain`: `dialers` of `users` members of a
/// cohort each call the member after them, whose drop among `drops`
/// the invitation goes to; then the first callee scans its drop and
/// must find its caller. Returns the round's outcome and what the
/// cohort's build, the round and the scan cost.
fn dial_round(
    chain: &mut Chain,
    users: u64,
    dialers: u64,
    drops: u32,
    seed: u64,
) -> (RoundOutcome, [Cost; 3]) {
    let pks = chain.server_public_keys();
    let mut cohort = dialing_cohort(chain.config(), seed, &pks, users as usize, dialers as usize);
    let (batch, build) = measure(|| cohort.build_dialing_round(0, drops).into());
    let spec = RoundSpec::Dialing {
        round: 0,
        batch,
        num_drops: drops,
    };
    let (outcomes, round) = measure(|| chain.run(vec![spec]));
    let outcome = outcomes
        .expect("an untapped chain completes every round")
        .remove(0);
    let contents = chain.download_drop(cohort.invitation_drop(1, drops));
    let contents = contents.expect("the callee's drop");
    let (callers, scan) = measure(|| cohort.scan_invitation_drop(1, &contents));
    assert_eq!(callers, [cohort.public_key(0)], "member 1's invitation");
    (outcome, [build, round, scan])
}

/// Figure 6: the (∆m1, ∆m2) sensitivity table. One noise-free round
/// through the real chain for every world, differencing the observables
/// between each of Alice's real actions and each cover story; the other
/// users behave the same in every world, as the differential-privacy
/// adjacency requires (§6.2). An action is the partner Alice exchanges
/// with, `None` for idle.
fn fig6_sensitivity(_: &Setup) -> Value {
    // Members: Alice, then b, c (always attempt an exchange with Alice)
    // and x, y (never do; they run fake exchanges like idle users).
    let (b, c, x, y) = (Some(1), Some(2), Some(3), Some(4));
    let names = ["idle", "conv b", "conv c", "conv x", "conv y"];
    let cover_stories = names.into_iter().zip([None, b, c, x, y]);
    let real_actions = [None, b, x];

    let mut table = Table::new(&["cover \\ real", "idle", "conv b", "conv x"]);
    let mut matrix = Vec::new();
    for (cover_name, cover) in cover_stories {
        let (m1_cover, m2_cover) = observe_world(cover);
        let mut cells = vec![cover_name.to_string()];
        let mut row_json = Vec::new();
        for real in real_actions {
            let (m1_real, m2_real) = observe_world(real);
            let dm1 = m1_real as i64 - m1_cover as i64;
            let dm2 = m2_real as i64 - m2_cover as i64;
            cells.push(format!("{dm1:+}, {dm2:+}"));
            row_json.push(json!({ "dm1": dm1, "dm2": dm2 }));
        }
        table.row(&cells);
        matrix.push(json!({ "cover": cover_name, "cells": row_json }));
    }

    table.print("Figure 6: (∆m1, ∆m2) between Alice's real action and cover story");
    println!(
        "\npaper: |∆m1| ≤ 2 and |∆m2| ≤ 1 in every cell — the sensitivities\n\
         Theorem 1 noises against."
    );
    json!({ "matrix": matrix })
}

/// Runs one noise-free round where Alice (member 0 of a five-member
/// cohort) enters a conversation with member `action`, or stays idle,
/// and returns (m1, m2). Members 1 and 2 talk to Alice whatever she
/// does, one-sidedly as [`ClientCohort::start_conversation`] is;
/// members 3 and 4 stay idle. Chain and seeds are fixed so only Alice's
/// action varies between worlds.
fn observe_world(action: Option<usize>) -> (u64, u64) {
    let mut chain = Chain::new(system(3, NoiseMode::Off, 1.0, 1.0), 7);
    let pks = chain.server_public_keys();
    let mut cohort = ClientCohort::with_own_tables(chain.config().clone(), 42, &pks);
    cohort.join(5);
    let alice = cohort.public_key(0);
    let mut talks = vec![(1, alice), (2, alice)];
    if let Some(member) = action {
        talks.push((0, cohort.public_key(member)));
    }
    for (member, peer) in talks {
        cohort
            .start_conversation(member, peer)
            .expect("one conversation, one slot");
    }
    let batch = cohort.build_conversation_round(0).into();
    chain
        .run(vec![RoundSpec::Conversation { round: 0, batch }])
        .expect("an untapped chain completes every round");
    let (_, obs) = chain.conversation_observables()[0];
    (obs.m1, obs.m2)
}

/// One of the two privacy-vs-rounds figures: ε′ and δ′ after `k` rounds
/// for three noise configurations (d = 10⁻⁵), plus the rounds each
/// supports at the ε′ = ln 2, δ′ = 10⁻⁴ target against the paper's
/// claim.
struct PrivacyFigure {
    title: &'static str,
    summary_title: &'static str,
    protocol: Protocol,
    /// `(µ, b, column label, rounds the paper claims)`.
    configs: [(f64, f64, &'static str, u64); 3],
    /// The paper's log-axis range of `k` and the number of steps on it.
    k_range: (f64, f64),
    steps: u32,
}

impl PrivacyFigure {
    fn run(&self) -> Value {
        let (first, last) = self.k_range;
        let ks: Vec<u64> = (0..=self.steps)
            .map(|i| (first * (last / first).powf(f64::from(i) / f64::from(self.steps))) as u64)
            .collect();
        let series: Vec<_> = self
            .configs
            .iter()
            .map(|&(mu, b, ..)| privacy_series(self.protocol, mu, b, &ks, 1e-5))
            .collect();

        let mut headers = vec!["k".to_string()];
        for (i, (.., label, _)) in self.configs.iter().enumerate() {
            let mu = if i == 0 { "mu=" } else { "" };
            headers.push(format!("e^eps' ({mu}{label})"));
            headers.push(format!("delta' ({label})"));
        }
        let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut table = Table::new(&headers);
        for (i, &k) in ks.iter().enumerate() {
            let mut cells = vec![k.to_string()];
            for s in &series {
                cells.push(format!("{:.3}", s[i].e_epsilon));
                cells.push(format!("{:.2e}", s[i].delta));
            }
            table.row(&cells);
        }
        table.print(self.title);

        let mut summary = Sheet::default();
        for &(mu, b, _, claim) in &self.configs {
            let k = max_protected_rounds(self.protocol, mu, b, PrivacyTarget::default());
            #[rustfmt::skip]
            summary.row(&[
                ("mu", "mu", json!(mu), format!("{mu:.0}")),
                ("b", "b", json!(b), format!("{b:.0}")),
                ("max k @ (ln 2, 1e-4)", "max_rounds", json!(k), k.to_string()),
                ("paper claims", "paper_rounds", json!(claim), format!("≈{claim}")),
            ]);
        }
        summary.print(self.summary_title);

        let series: Vec<Value> = (self.configs.iter().zip(&series))
            .map(|(&(mu, b, ..), s)| {
                let point =
                    |p: &PrivacyPoint| json!({ "k": p.k, "e_eps": p.e_epsilon, "delta": p.delta });
                json!({ "mu": mu, "b": b, "points": s.iter().map(point).collect::<Vec<_>>() })
            })
            .collect();
        json!({ "ks": ks, "series": series, "summary": summary.rows })
    }
}

/// Figure 7: privacy after k conversation rounds at the paper's three
/// noise configurations.
fn fig7_conv_privacy(_: &Setup) -> Value {
    PrivacyFigure {
        title: "Figure 7: privacy vs number of conversation rounds (d = 1e-5)",
        summary_title: "Rounds supported at ε' = ln 2, δ' = 1e-4 (paper §6.4)",
        protocol: Protocol::Conversation,
        configs: [
            (150_000.0, 7_300.0, "150K", 70_000),
            (300_000.0, 13_800.0, "300K", 250_000),
            (450_000.0, 20_000.0, "450K", 500_000),
        ],
        k_range: (10_000.0, 1_000_000.0),
        steps: 20,
    }
    .run()
}

/// Figure 8: privacy after k dialing rounds. The paper prints "b=7700"
/// for the middle configuration — an evident typo for 770 (it matches
/// neither the stated coverage nor the µ:b ratio of its neighbours); we
/// use 770.
fn fig8_dial_privacy(_: &Setup) -> Value {
    let artefact = PrivacyFigure {
        title: "Figure 8: privacy vs number of dialing rounds (d = 1e-5)",
        summary_title: "Dialing rounds supported at ε' = ln 2, δ' = 1e-4 (paper §6.5)",
        protocol: Protocol::Dialing,
        configs: [
            (8_000.0, 500.0, "8K", 1_200),
            (13_000.0, 770.0, "13K", 3_500),
            (20_000.0, 1_130.0, "20K", 8_000),
        ],
        k_range: (1_000.0, 16_000.0),
        steps: 16,
    }
    .run();
    println!(
        "\nnote: a user taking 5 calls/day needs k = 1800 for one year of\n\
         protection (§6.5) — covered by the µ=13K configuration."
    );
    artefact
}

/// Figure 9: conversation-round latency vs online users, 1:100 of the
/// paper's sweep (10 → 2M users at µ ∈ {100K, 200K, 300K}). The claim
/// under test: latency is **linear in users** with a **noise-dominated
/// intercept** — cover traffic is constant, so the 10-user round costs
/// almost as much as the 10K-user one.
fn fig9_conv_latency(setup: &Setup) -> Value {
    const SCALE: u64 = 100;
    let mut sheet = Sheet::default();
    for mu in [1_000.0, 2_000.0, 3_000.0] {
        for &users in setup.users_scaled() {
            let config = system(3, NoiseMode::Deterministic, mu, 1.0);
            let (_, outcome, _) = conv_round(config, users, users ^ mu as u64);
            let timing = outcome.timing();
            let measured = timing.total.as_secs_f64();
            let forward: f64 = timing.forward.iter().map(|d| d.as_secs_f64()).sum();
            #[rustfmt::skip]
            sheet.row(&[
                ("users (x100)", "users_scaled", json!(users), users.to_string()),
                ("mu (x100)", "mu_scaled", json!(mu), format!("{mu:.0}")),
                ("round [measured]", "measured_secs", json!(measured), secs(measured)),
                ("", "measured_forward_secs", json!(forward), String::new()),
            ]);
        }
    }
    sheet.print("Figure 9 (1:100 scale): conversation latency vs online users");
    println!("\nthe paper's 1M-user point, measured: `figures paper_scale`");
    json!({ "scale": SCALE, "points": sheet.rows })
}

/// Figure 10: dialing-round latency vs online users, 1:100 of the
/// paper's sweep (10 → 2M users, 13 s → 50 s): 5% of users dial each
/// round, µ = 13,000 per drop, one invitation drop (§7).
fn fig10_dial_latency(setup: &Setup) -> Value {
    const SCALE: u64 = 100;
    const DIAL_FRACTION: f64 = 0.05;
    const DROPS: u32 = 1;
    let mu = PAPER_DIAL_MU / SCALE as f64;
    let mut sheet = Sheet::default();
    for &users in setup.users_scaled() {
        let dialers = ((users as f64) * DIAL_FRACTION).round() as u64;
        let mut chain = Chain::new(system(3, NoiseMode::Deterministic, 1.0, mu), 1);
        let (outcome, _) = dial_round(&mut chain, users, dialers, DROPS, users);
        let measured = outcome.timing().total.as_secs_f64();
        #[rustfmt::skip]
        sheet.row(&[
            ("users (x100)", "users_scaled", json!(users), users.to_string()),
            ("dialers", "dialers", json!(dialers), dialers.to_string()),
            ("round [measured]", "measured_secs", json!(measured), secs(measured)),
        ]);
    }
    sheet.print("Figure 10 (1:100 scale): dialing latency vs online users (5% dialing)");
    println!(
        "\npaper endpoints, with conversation rounds running concurrently: \
         13 s at 10 users, 50 s at 2M users"
    );
    json!({
        "scale": SCALE, "mu_scaled": mu, "dial_fraction": DIAL_FRACTION, "points": sheet.rows,
    })
}

/// Figure 11: conversation latency vs servers in the chain, 1:300 of
/// the paper's 1M users at µ = 300K over 1–6 servers. Latency grows
/// "roughly quadratically": each of the s servers also processes the
/// cover traffic of every server before it (O(s) work, O(s) servers).
fn fig11_chain_scaling(setup: &Setup) -> Value {
    const SCALE: u64 = 300;
    let users: u64 = 1_000_000 / SCALE;
    let mu: f64 = PAPER_MU / SCALE as f64;
    let longest = if setup.quick { 4 } else { 6 };
    let mut sheet = Sheet::default();
    let mut measurements = Vec::new();

    for n in 1..=longest {
        let config = system(n, NoiseMode::Deterministic, mu, 1.0);
        let (_, outcome, _) = conv_round(config, users, n as u64);
        let measured = outcome.timing().total.as_secs_f64();
        measurements.push(measured);
        #[rustfmt::skip]
        sheet.row(&[
            ("servers", "servers", json!(n), n.to_string()),
            ("round [measured]", "measured_secs", json!(measured), secs(measured)),
        ]);
    }

    sheet.print("Figure 11 (1:300 scale): latency vs servers, 1M-user equivalent");
    println!(
        "\nshape: 1→{longest} servers grew latency {:.1}x [measured] \
         (linear would be {:.1}x, quadratic {:.1}x)",
        measurements[longest - 1] / measurements[0],
        longest as f64,
        (longest * longest) as f64
    );

    json!({ "scale": SCALE, "users_scaled": users, "mu_scaled": mu, "points": sheet.rows })
}

/// The paper's headline point (§8), measured: one conversation round
/// and one dialing round by 1M users at [`SystemConfig::paper_scale`]'s
/// noise (µ = 300,000, and 13,000 per drop; sampled), each on a fresh
/// chain on this host's cores, and the conversation round's noise floor
/// at 10 users. 5% of users dial, into the planner's optimal number of
/// drops. `--quick` divides users, µ and b by 100 (the noise floor
/// keeps its 10 users). It panics rather than report a number unless
/// every talker gets its partner's message, the first callee finds its
/// caller's invitation, and each round's record, folded per node and
/// phase, explains its wall-clock within ±10%.
fn paper_scale(setup: &Setup) -> Value {
    const DIAL_FRACTION: f64 = 0.05;
    let scale = if setup.quick { 100.0 } else { 1.0 };
    let mut config = SystemConfig::paper_scale();
    for noise in [&mut config.conversation_noise, &mut config.dialing_noise] {
        *noise = NoiseDistribution::new(noise.mu / scale, noise.b / scale);
    }
    let users = (1e6 / scale) as u64;
    let title = format!(
        "paper_scale (1:{scale}, {users} users, {} cores)",
        config.workers
    );

    let (chain, _, [cohort, build, round, ingest]) = conv_round(config.clone(), users, 1);
    let conversation = record_sheet(&format!("{title}: conversation round"), &chain, round);
    drop(chain);
    let dialers = (users as f64 * DIAL_FRACTION).round() as u64;
    let drops = optimal_num_drops(users, DIAL_FRACTION, config.dialing_noise.mu);
    let mut chain = Chain::new(config.clone(), 2);
    let (_, [dial_build, dial, scan]) = dial_round(&mut chain, users, dialers, drops, 2);
    let dialing = record_sheet(&format!("{title}: dialing round"), &chain, dial);
    drop(chain);
    let (_, _, [_, _, floor, _]) = conv_round(config.clone(), 10, 3);
    let peak = status_bytes("VmHWM");

    let mut steps = Sheet::default();
    for (step, cost) in [
        ("conversation: cohort setup", cohort),
        ("conversation: client build", build),
        ("conversation: round", round),
        ("conversation: reply ingest", ingest),
        ("dialing: client build", dial_build),
        ("dialing: round", dial),
        ("dialing: callee's drop scan", scan),
        ("noise floor (10 users): round", floor),
    ] {
        #[rustfmt::skip]
        steps.row(&[
            ("step", "step", json!(step), step.into()),
            ("wall [measured]", "measured_secs", json!(cost.wall), secs(cost.wall)),
            ("core-s [measured]", "measured_core_secs", json!(cost.cpu), format!("{:.1}", cost.cpu)),
        ]);
    }
    steps.print(&format!("{title}: {dialers} dialers into {drops} drops"));

    // The paper's counting: each user sends and receives a message per
    // round, plus one server's worth of noise requests (2µ); it gives
    // both its 68,000 msgs/s at 1M users and 84,000 at 2M.
    let mu = config.conversation_noise.mu;
    let msgs_per_sec = (2.0 * users as f64 + 2.0 * mu) / round.wall;
    let cohort_bytes = cohort.rss / users as f64;
    let mut paper = Table::new(&["quantity", "paper (3 × 36 cores)", "here [measured]"]);
    #[rustfmt::skip]
    let rows = [
        ("conversation round", "37 s at 1M users", format!("{} ({:.1} core-s)", secs(round.wall), round.cpu)),
        ("throughput", "68,000 msgs/s", format!("{msgs_per_sec:.0} msgs/s")),
        ("noise floor", "20 s at 10 users", format!("{} ({:.1} core-s)", secs(floor.wall), floor.cpu)),
        ("cohort per client", "", human_bytes(cohort_bytes)),
        ("peak RSS", "", human_bytes(peak)),
    ];
    for (quantity, reported, ours) in rows {
        paper.row(&[quantity.into(), reported.into(), ours]);
    }
    paper.print(&format!("{title}: the paper's headline beside this host's"));

    json!({
        "scale": scale, "users": users, "workers": config.workers, "dialers": dialers,
        "num_drops": drops, "mu": mu, "dialing_mu": config.dialing_noise.mu,
        "steps": steps.rows, "conversation": conversation, "dialing": dialing,
        "measured_round_secs": round.wall, "measured_round_core_secs": round.cpu,
        "measured_build_secs": build.wall, "measured_ingest_secs": ingest.wall,
        "measured_msgs_per_sec": msgs_per_sec, "measured_noise_floor_secs": floor.wall,
        "measured_cohort_bytes_per_client": cohort_bytes, "measured_peak_rss_bytes": peak,
        "paper": { "round_secs": 37.0, "msgs_per_sec": 68_000.0, "noise_floor_secs": 20.0 },
    })
}

/// The record `chain` kept of its round 0, folded per node and phase
/// and printed under `title`: each node's busy seconds, the kernel work
/// of its forward passes and the bytes its passes read off a link (a
/// forward pass's input arena). Panics unless the passes add up to the
/// `round`'s wall-clock within ±10%.
fn record_sheet(title: &str, chain: &Chain, round: Cost) -> Value {
    let record: Vec<&Public> = chain
        .round_record(0)
        .iter()
        .map(|event| &event.public)
        .collect();
    let chain_len = chain.config().chain_len;
    let fold = Fold::of(chain_len, record.iter().copied());
    let mut sheet = Sheet::default();
    for node in std::iter::once(NodeId::Entry).chain((0..chain_len).map(NodeId::Hop)) {
        for phase in Phase::ALL {
            let tally = fold.get(node, phase);
            if tally.passes == 0 {
                continue;
            }
            let passes = record
                .iter()
                .filter(|event| (event.node, event.phase) == (node, phase));
            let read: u64 = passes.map(|event| event.received.bytes).sum();
            let (busy, work) = (tally.busy.as_secs_f64(), tally.work);
            #[rustfmt::skip]
            sheet.row(&[
                ("node", "node", json!(node.to_string()), node.to_string()),
                ("phase", "phase", json!(phase.name()), phase.name().into()),
                ("busy [measured]", "measured_busy_secs", json!(busy), secs(busy)),
                ("peels [measured]", "measured_peels", json!(work.peels), work.peels.to_string()),
                ("layers [measured]", "measured_layers", json!(work.layers), work.layers.to_string()),
                ("read [measured]", "measured_read_bytes", json!(read), human_bytes(read as f64)),
            ]);
        }
    }
    sheet.print(title);
    let busy = fold.total().busy.as_secs_f64();
    let explained = busy / round.wall;
    println!(
        "record total {} over the round's {}: {explained:.3}x",
        secs(busy),
        secs(round.wall)
    );
    assert!(
        (0.9..=1.1).contains(&explained),
        "{title}: the record explains {explained:.3}x of the round"
    );
    json!({ "passes": sheet.rows, "measured_record_busy_secs": busy })
}

/// Total bytes one conversation round moves across the three chain
/// links, both directions, at the paper's µ: link `hop` carries the
/// users' requests plus the noise of every server before it, and an
/// equal number of replies — counted as the links count them.
fn chain_bytes_per_round(users: u64) -> u64 {
    (0..3usize)
        .map(|hop| {
            let requests = users + 2 * PAPER_MU as u64 * hop as u64;
            let request_bytes = EXCHANGE_REQUEST_LEN + (3 - hop) * onion::LAYER_OVERHEAD;
            let reply_bytes = SEALED_MESSAGE_LEN + (3 - hop) * onion::REPLY_LAYER_OVERHEAD;
            requests * (request_bytes + reply_bytes) as u64
        })
        .sum()
}

/// Bandwidth table (§1, §8.2, §8.3 in-text numbers). Method: run a
/// small real deployment, read its client link's traffic record, verify
/// it matches the closed-form per-message sizes, then evaluate the
/// closed forms at paper scale.
fn tab_bandwidth(_: &Setup) -> Value {
    // --- Small real deployment to validate the closed forms. ---
    let users: u64 = 500;
    let config = system(3, NoiseMode::Deterministic, 200.0, 50.0);
    let (mut chain, outcome, _) = conv_round(config, users, 9);
    let replies = outcome.replies().expect("a conversation round");

    let expected_request = (EXCHANGE_REQUEST_LEN + 3 * onion::LAYER_OVERHEAD) as u64;
    let expected_reply = (SEALED_MESSAGE_LEN + 3 * onion::REPLY_LAYER_OVERHEAD) as u64;
    let (_, sent) = chain.client_link().round_traffic(0, Direction::Forward);
    let (_, received) = chain.client_link().round_traffic(0, Direction::Backward);
    assert_eq!(sent, users * expected_request, "request closed form");
    assert_eq!(received, users * expected_reply, "reply closed form");
    let (request_size, reply_size) = (sent / users, replies[0].len() as u64);
    assert_eq!(reply_size, expected_reply, "replies are as wide as counted");

    // Dialing: run a round and download one drop.
    dial_round(&mut chain, users, 25, 1, 10);
    let drop = chain
        .download_drop(InvitationDropIndex(1))
        .expect("drop exists");
    // 25 real + 3 servers × 50 noise.
    assert_eq!(drop.len(), 25 + 150, "drop size closed form");

    let invitations = |n: usize| human_bytes((n * SEALED_INVITATION_LEN) as f64);
    let mut validation = Table::new(&["quantity", "measured", "closed form"]);
    #[rustfmt::skip]
    let rows = [
        ("request size (3 hops)", format!("{request_size} B"), format!("{expected_request} B")),
        ("reply size (3 hops)", format!("{reply_size} B"), format!("{expected_reply} B")),
        ("drop download (µ=50×3 + 25 real)", invitations(drop.len()), invitations(175)),
    ];
    for (quantity, measured, closed_form) in rows {
        validation.row(&[quantity.into(), measured, closed_form]);
    }
    validation.print("Link-traffic validation at small scale (3-server chain)");

    // --- Paper scale (1M users, µ=300K, µ_dial=13K, 5% dialing). ---
    let n_users = 1_000_000f64;
    let conv_round_secs = 37.0; // paper's measured latency at 1M users
    let dial_round_secs = 600.0; // 10-minute dialing rounds

    // Client conversation bytes/round: one request up, one reply down.
    let client_conv = (expected_request + expected_reply) as f64;
    // Invitation drop: µ=13K × 3 servers noise + 50K real invitations
    // (1M × 5%) in one drop ⇒ ~7 MB.
    let drop_invitations = 3.0 * PAPER_DIAL_MU + 0.05 * n_users;
    let drop_bytes = drop_invitations * SEALED_INVITATION_LEN as f64;
    let client_dial_rate = drop_bytes / dial_round_secs;
    let server_rate = chain_bytes_per_round(1_000_000) as f64 / conv_round_secs;

    let monthly = client_dial_rate * 3600.0 * 24.0 * 30.0;
    let mut paper_table = Table::new(&["quantity", "paper reports", "our closed form"]);
    #[rustfmt::skip]
    let rows = [
        ("client conversation traffic", "~256 B msg/round (negligible)", client_conv, " /round"),
        ("invitation drop size", "about 7 MB", drop_bytes, ""),
        ("client dialing download", "12 KB/sec", client_dial_rate, "/sec"),
        ("server bandwidth @1M users", "166 MB/sec", server_rate, "/sec"),
        ("aggregate CDN bandwidth", "12 GB/sec", client_dial_rate * n_users, "/sec"),
        ("client monthly total", "30 GB/month", monthly, "/month"),
    ];
    for (quantity, reported, bytes, per) in rows {
        let ours = format!("{}{per}", human_bytes(bytes));
        paper_table.row(&[quantity.into(), reported.into(), ours]);
    }
    paper_table.print("Paper-scale bandwidth (1M users, µ=300K, µ_dial=13K, 5% dialing)");
    println!(
        "\nnote: the server figure is wire-level payload bytes (sum over links,\n\
         both directions / 37 s). The paper's 166 MB/s is a NIC measurement\n\
         including \"RPC and encoding overhead\" — ≈2× the raw payload, the\n\
         same ≈2× overhead factor it reports for CPU (§8.2)."
    );

    json!({
        "request_bytes_3hops": expected_request, "reply_bytes_3hops": expected_reply,
        "drop_bytes_paper_scale": drop_bytes,
        "client_dial_rate_bytes_per_sec": client_dial_rate,
        "server_rate_bytes_per_sec": server_rate,
        "paper": { "drop_bytes": 7e6, "client_dial_rate": 12e3, "server_rate": 166e6 }
    })
}

/// Throughput's scaling table (§1): Vuvuzela's O(n) total bytes against
/// the Dissent-style broadcast baseline's O(n²) — the crossover that
/// caps broadcast systems at a few thousand users (§1: "100× higher
/// than prior systems"). The headline latency and messages per second
/// are measured by [`paper_scale`].
fn tab_throughput(_: &Setup) -> Value {
    let mut scaling = Sheet::default();
    let mut crossover: Option<u64> = None;
    for exp in 1..=7u32 {
        let n = 10u64.pow(exp);
        let (v, b) = (chain_bytes_per_round(n), broadcast::bytes_per_round(n));
        if b > v && crossover.is_none() {
            crossover = Some(n);
        }
        let winner = if v <= b { "Vuvuzela" } else { "broadcast" };
        #[rustfmt::skip]
        scaling.row(&[
            ("users", "users", json!(n), n.to_string()),
            ("Vuvuzela bytes/round O(n) [closed form]", "closed_form_vuvuzela_bytes", json!(v), human_bytes(v as f64)),
            ("broadcast bytes/round O(n^2) [closed form]", "closed_form_broadcast_bytes", json!(b), human_bytes(b as f64)),
            ("winner", "", Value::Null, winner.into()),
        ]);
    }
    scaling.print("Total bytes per round: Vuvuzela vs Dissent-style broadcast");
    if let Some(n) = crossover {
        println!(
            "\ncrossover ≤ {n} users: beyond it broadcast loses and keeps losing \
             quadratically — why prior systems stop at ~5,000 users (§1) while \
             Vuvuzela reaches 2M (\"about 100× higher\")."
        );
    }

    json!({ "scaling": scaling.rows, "crossover_users": crossover })
}

/// Ablation: the §5.4 invitation-drop count m, "a trade-off between
/// the amount of cover traffic that will be generated by the servers
/// and the amount of data that will be downloaded by clients". Measures
/// both sides on real dialing rounds around the paper's m* = n·f/µ.
fn abl_drop_tuning(_: &Setup) -> Value {
    // Scaled deployment: 4,000 users, 5% dialing, µ_dial = 25/server.
    let (users, fraction, mu, servers) = (4_000u64, 0.05, 25.0, 3usize);
    let dialers = (users as f64 * fraction) as u64;
    let m_star = optimal_num_drops(users, fraction, mu);
    let invitation = SEALED_INVITATION_LEN as f64;
    let mut sheet = Sheet::default();

    for m in [1u32, 2, 4, m_star, 2 * m_star, 4 * m_star] {
        let mut chain = Chain::new(system(servers, NoiseMode::Deterministic, 1.0, mu), 1);
        dial_round(&mut chain, users, dialers, m, u64::from(m));

        let downloaded: usize = (1..=m)
            .filter_map(|drop| chain.download_drop(InvitationDropIndex(drop)))
            .map(|contents| contents.len())
            .sum();
        let measured = downloaded as f64 / f64::from(m) * invitation;
        let analytic = drop_download_invitations(users, fraction, mu, m, servers) * invitation;
        let noise = total_noise_invitations(mu, m, servers);
        let optimal = m == m_star;
        let label = format!("{m}{}", if optimal { " (m*)" } else { "" });
        let ratio = format!("{:.2}", noise / dialers as f64);
        #[rustfmt::skip]
        sheet.row(&[
            ("m (drops)", "m", json!(m), label),
            ("", "is_optimal", json!(optimal), String::new()),
            ("measured avg download", "avg_download_bytes", json!(measured), human_bytes(measured)),
            ("analytic download", "analytic_download_bytes", json!(analytic), human_bytes(analytic)),
            ("total server noise", "total_noise_invitations", json!(noise), format!("{noise:.0} invs")),
            ("noise:real ratio", "", Value::Null, ratio),
        ]);
    }

    sheet.print(&format!(
        "Ablation: invitation drops (n={users}, f={fraction}, µ={mu}/server; §5.4 optimum m* = {m_star})"
    ));
    println!(
        "\ntrade-off confirmed: downloads shrink ~1/m while server noise grows\n\
         ~m. At m* = n·f/µ each drop holds roughly equal real and (per-server)\n\
         noise shares, the paper's balance point."
    );

    json!({
        "users": users, "fraction": fraction, "mu": mu,
        "m_star": m_star, "results": sheet.rows,
    })
}

/// Ablation: where in the chain should noise be generated? Every
/// server but the last adds cover traffic (Algorithm 2) although the
/// guarantee rests on one honest server's noise (§6.1): each noising
/// server buys defence-in-depth at the cost of every later server
/// peeling its noise. Every non-last server of a [`SystemConfig`] adds
/// the same µ, so equal total noise mass is the paper's 3-server chain
/// at µ̄ against a 2-server chain whose one mixing server adds 2µ̄.
fn abl_noise_placement(_: &Setup) -> Value {
    let users = 2_000u64;
    let mu_bar = 1_000.0;
    let mut sheet = Sheet::default();

    for (label, chain_len, mu) in [
        ("paper: every mixing server", 3usize, mu_bar),
        ("concentrated: one server, 2µ", 2usize, 2.0 * mu_bar),
    ] {
        let config = system(chain_len, NoiseMode::Deterministic, mu, 1.0);
        let noise = config.conversation_noise;
        let (_, outcome, _) = conv_round(config, users, 5);
        let measured = outcome.timing().total.as_secs_f64();

        // Privacy per round from ONE honest server's noise, in the best
        // case that the honest server is a noising one: concentrated,
        // a compromised server 0 leaves *no* honest noise.
        let eps = conversation_round(noise.mu, noise.b).epsilon;
        let noising = (chain_len - 1).to_string();
        #[rustfmt::skip]
        sheet.row(&[
            ("layout", "layout", json!(label), label.into()),
            ("noising servers", "chain_len", json!(chain_len), noising),
            ("per-server mu", "mu", json!(mu), format!("{mu:.0}")),
            ("round [measured]", "measured_secs", json!(measured), secs(measured)),
            ("honest-server eps/round [closed form]", "closed_form_eps_per_round", json!(eps), format!("{eps:.4}")),
        ]);
    }

    sheet.print("Ablation: noise placement (equal total noise mass)");
    println!(
        "\nwhy the paper spreads noise: with noise at every mixing server, ANY\n\
         single honest server suffices for the guarantee. Concentrating noise\n\
         at one server makes that server a single point of privacy failure —\n\
         if the adversary controls it, the remaining observables are bare.\n\
         The cost of spreading is the extra peeling of noise wrapped upstream\n\
         (Figure 11's quadratic chain scaling)."
    );

    json!({ "users": users, "results": sheet.rows })
}

/// The §6.4 posterior-belief table, in closed form: an adversary's
/// belief that Alice is talking after observing an ε-DP round, against
/// the paper's rounded figures. Attack accuracy on the running system
/// is `vuvuzela-sim`'s `sim_attack`.
fn tab_posterior(_: &Setup) -> Value {
    let ln2 = core::f64::consts::LN_2;
    let ln3 = 3.0f64.ln();
    let mut sheet = Sheet::default();
    for (prior, eps, paper) in [(0.50, ln2, "67%"), (0.50, ln3, "75%"), (0.01, ln3, "3%")] {
        let posterior = posterior_bound(prior, eps);
        #[rustfmt::skip]
        sheet.row(&[
            ("prior", "prior", json!(prior), format!("{:.0}%", prior * 100.0)),
            ("ε", "epsilon", json!(eps), format!("{eps:.3}")),
            ("posterior (paper)", "paper", json!(paper), paper.into()),
            ("posterior [closed form]", "closed_form_posterior", json!(posterior), format!("{:.1}%", posterior * 100.0)),
        ]);
    }
    sheet.print("§6.4 posterior beliefs after observing Vuvuzela");
    json!({ "rows": sheet.rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vuvuzela_bench::report::workspace_root;

    /// The two analytic figures (no chain round) run in-process, and
    /// what each returns lands in its artefact.
    #[test]
    fn analytic_figures_write_their_json() {
        let setup = Setup { quick: true };
        for (name, figure) in FIGURES.iter().filter(|(name, _)| name.contains("privacy")) {
            let artefact = figure(&setup);
            for key in ["ks", "series", "summary"] {
                assert!(
                    artefact[key].as_array().is_some_and(|a| !a.is_empty()),
                    "{name} {key}"
                );
            }
            let path = workspace_root().join(format!("bench_results/{name}.json"));
            assert_eq!(write_json(name, &artefact), path);
            let written = std::fs::read_to_string(path).expect("artefact written");
            assert_eq!(serde_json::from_str(&written).ok(), Some(artefact));
        }
    }

    /// Figure 6's (∆m1, ∆m2) per cover story (rows) and real action
    /// (idle, conv b, conv x), as the real chain counts them, each
    /// inside the sensitivities Theorem 1 noises against: |∆m1| ≤ 2 and
    /// |∆m2| ≤ 1.
    #[test]
    fn fig6_matrix_is_pinned_within_the_papers_bounds() {
        let setup = Setup { quick: true };
        let artefact = fig6_sensitivity(&setup);
        let (still, pair, unpair) = ((0, 0), (-2, 1), (2, -1));
        let expected = [
            ("idle", [still, pair, still]),
            ("conv b", [unpair, still, unpair]),
            ("conv c", [unpair, still, unpair]),
            ("conv x", [still, pair, still]),
            ("conv y", [still, pair, still]),
        ];
        let rows = artefact["matrix"].as_array().expect("a matrix");
        assert_eq!(rows.len(), expected.len());
        for (row, (cover, cells)) in rows.iter().zip(expected) {
            assert_eq!(row["cover"].as_str(), Some(cover));
            for (cell, want) in row["cells"].as_array().expect("cells").iter().zip(cells) {
                let got = (cell["dm1"].as_i64(), cell["dm2"].as_i64());
                let got = (got.0.expect("dm1"), got.1.expect("dm2"));
                assert!(got.0.abs() <= 2 && got.1.abs() <= 1, "{cover}: {got:?}");
                assert_eq!(got, want, "{cover}");
            }
        }
    }
}
