//! The paper's evaluation figures and tables (§6, §8): one function
//! each, returning the artefact written to `bench_results/<name>.json`,
//! over one shared deployment config, cost model and report setup.
//!
//! Run: `cargo run --release -p vuvuzela-bench --bin figures --
//! [--quick] <name>…|all`. A name selects the figure called that or
//! starting with it and a `_` (`fig9` is `fig9_conv_latency`).
//! `--quick` runs the latency sweeps (`fig9`, `fig10`, `fig11`) on a
//! reduced grid; the other figures have one grid and ignore it.
//!
//! The latency figures run the real protocol at 1:100 or 1:300 of the
//! paper's scale, measure end-to-end wall-clock per round, and
//! extrapolate to the paper's 36-core servers with [`CostModel`] — the
//! §8.2 arithmetic behind the paper's own lower bound, priced at this
//! host's chunk-kernel probes. Noise is deterministic (⌈µ⌉ per server),
//! as in §8.1.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::{json, Value};
use std::process::ExitCode;
use vuvuzela_adversary::attacks::{
    DisruptionAttack, IntersectionAttack, StatisticalDisclosureAttack,
};
use vuvuzela_adversary::bounds::max_accuracy;
use vuvuzela_adversary::model::ObservableModel;
use vuvuzela_baseline::broadcast;
use vuvuzela_bench::report::{secs, write_json, Table};
use vuvuzela_bench::workload::{conversation_batch, dialing_batch};
use vuvuzela_bench::CostModel;
use vuvuzela_core::entry;
use vuvuzela_core::server::RoundKind;
use vuvuzela_core::{Chain, RoundBuffer, RoundOutcome, RoundSpec, SystemConfig};
use vuvuzela_crypto::onion;
use vuvuzela_crypto::x25519::Keypair;
use vuvuzela_dp::accounting::conversation_round;
use vuvuzela_dp::planner::{
    drop_download_invitations, max_protected_rounds, optimal_num_drops, posterior_bound,
    privacy_series, total_noise_invitations, PrivacyPoint, PrivacyTarget,
};
use vuvuzela_dp::{NoiseDistribution, NoiseMode, Protocol};
use vuvuzela_net::meter::human_bytes;
use vuvuzela_net::parallel::default_workers;
use vuvuzela_wire::conversation::{ConversationKeys, ExchangeRequest};
use vuvuzela_wire::deaddrop::InvitationDropIndex;
use vuvuzela_wire::{EXCHANGE_REQUEST_LEN, MESSAGE_LEN, SEALED_INVITATION_LEN, SEALED_MESSAGE_LEN};

/// Every figure, by the name of the artefact it produces.
type Figure = fn(&Setup) -> Value;
const FIGURES: [(&str, Figure); 11] = [
    ("fig6_sensitivity", fig6_sensitivity),
    ("fig7_conv_privacy", fig7_conv_privacy),
    ("fig8_dial_privacy", fig8_dial_privacy),
    ("fig9_conv_latency", fig9_conv_latency),
    ("fig10_dial_latency", fig10_dial_latency),
    ("fig11_chain_scaling", fig11_chain_scaling),
    ("tab_bandwidth", tab_bandwidth),
    ("tab_throughput", tab_throughput),
    ("abl_drop_tuning", abl_drop_tuning),
    ("abl_noise_placement", abl_noise_placement),
    ("attack_demo", attack_demo),
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
    let setup = Setup::new(quick);
    for (name, figure) in FIGURES {
        if names.iter().any(|arg| selects(arg, name)) {
            write_json(name, &figure(&setup));
        }
    }
    ExitCode::SUCCESS
}

/// What the figures share: the reduced-grid flag and this host's cost
/// model (a ≈ 0.3 s probe of 1024 onions).
struct Setup {
    quick: bool,
    model: CostModel,
}

impl Setup {
    fn new(quick: bool) -> Setup {
        let model = CostModel::probe(1024, 3);
        println!(
            "kernel probes: {:.0} peels/s/core, {:.0} layers/s/core × {} cores \
             (paper hardware: 340,000 DH ops/s total)",
            model.peels_per_sec_core, model.layers_per_sec_core, model.cores
        );
        Setup { quick, model }
    }

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

/// Lays one round's onions into the arena the chain admits, as the
/// entry does.
fn admitted(kind: RoundKind, chain_len: usize, onions: Vec<Vec<u8>>) -> RoundBuffer {
    let mut batch = entry::round_arena(kind, chain_len);
    entry::multiplex(&mut batch, &[onions]);
    batch
}

/// One conversation round by `users` paired clients through a fresh
/// chain; its `timing().total` is the round alone, without the client
/// wrap.
fn conv_round(config: SystemConfig, users: u64, seed: u64) -> (Chain, RoundOutcome) {
    let mut chain = Chain::new(config, 1);
    let pks = chain.server_public_keys();
    let onions = conversation_batch(users, 0, &pks, default_workers(), seed);
    let batch = admitted(RoundKind::Conversation, pks.len(), onions).into();
    let outcome = chain
        .run(vec![RoundSpec::Conversation { round: 0, batch }])
        .expect("an untapped chain completes every round")
        .remove(0);
    (chain, outcome)
}

/// One dialing round on `chain`: `dialers` of `users` send a real
/// invitation into one of `drops` drops. Returns the round's wall-clock.
fn dial_round(chain: &mut Chain, users: u64, dialers: u64, drops: u32, seed: u64) -> f64 {
    let pks = chain.server_public_keys();
    let onions = dialing_batch(users, dialers, drops, 0, &pks, default_workers(), seed);
    let batch = admitted(RoundKind::Dialing { num_drops: drops }, pks.len(), onions).into();
    let spec = RoundSpec::Dialing {
        round: 0,
        batch,
        num_drops: drops,
    };
    chain
        .run(vec![spec])
        .expect("an untapped chain completes every round")[0]
        .timing()
        .total
        .as_secs_f64()
}

/// Figure 6: the (∆m1, ∆m2) sensitivity table. One noise-free round
/// through the real chain for every world, differencing the observables
/// between each of Alice's real actions and each cover story; the other
/// users behave the same in every world, as the differential-privacy
/// adjacency requires (§6.2). An action is the partner Alice exchanges
/// with, `None` for idle.
fn fig6_sensitivity(_: &Setup) -> Value {
    // Population: alice + b, c (always attempt an exchange with Alice) +
    // x, y (never do; they run fake exchanges like idle users).
    let mut rng = StdRng::seed_from_u64(42);
    let alice = Keypair::generate(&mut rng);
    let partners: Vec<Keypair> = (0..4).map(|_| Keypair::generate(&mut rng)).collect();
    let (b, c, x, y) = (Some(0), Some(1), Some(2), Some(3));
    let names = ["idle", "conv b", "conv c", "conv x", "conv y"];
    let cover_stories = names.into_iter().zip([None, b, c, x, y]);
    let real_actions = [None, b, x];

    let mut table = Table::new(&["cover \\ real", "idle", "conv b", "conv x"]);
    let mut matrix = Vec::new();
    for (cover_name, cover) in cover_stories {
        let (m1_cover, m2_cover) = observe_world(&alice, &partners, cover);
        let mut cells = vec![cover_name.to_string()];
        let mut row_json = Vec::new();
        for real in real_actions {
            let (m1_real, m2_real) = observe_world(&alice, &partners, real);
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

/// Runs one noise-free round where Alice takes `action` and returns
/// (m1, m2). Chain and seeds are fixed so only Alice's action varies
/// between worlds.
fn observe_world(alice: &Keypair, partners: &[Keypair], action: Option<usize>) -> (u64, u64) {
    let mut chain = Chain::new(system(3, NoiseMode::Off, 1.0, 1.0), 7);
    let pks = chain.server_public_keys();
    let mut rng = StdRng::seed_from_u64(1234);
    let round = 0u64;
    let request = |keys: ConversationKeys| ExchangeRequest {
        drop: keys.drop_id(round),
        sealed_message: keys.seal_message(round, &[0u8; MESSAGE_LEN]),
    };

    let (secret, public) = (&alice.secret, &alice.public);
    let mut requests = vec![request(match action {
        None => ConversationKeys::fake(&mut rng, secret, public),
        Some(i) => ConversationKeys::derive(secret, public, &partners[i].public),
    })];
    // b and c always attempt the exchange with Alice; x and y never
    // reciprocate: they run fake exchanges.
    for (i, partner) in partners.iter().enumerate() {
        requests.push(request(if i < 2 {
            ConversationKeys::derive(&partner.secret, &partner.public, public)
        } else {
            ConversationKeys::fake(&mut rng, &partner.secret, &partner.public)
        }));
    }

    let onions = requests
        .iter()
        .map(|r| onion::wrap(&mut rng, &pks, round, &r.encode()).0)
        .collect();
    let batch = admitted(RoundKind::Conversation, pks.len(), onions).into();
    chain
        .run(vec![RoundSpec::Conversation { round, batch }])
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
    let local = setup.model.with_overhead(1.0);
    let paper = CostModel::paper_hardware();
    let mut sheet = Sheet::default();
    let mut overheads = Vec::new();

    for mu in [1_000.0, 2_000.0, 3_000.0] {
        for &users in setup.users_scaled() {
            let config = system(3, NoiseMode::Deterministic, mu, 1.0);
            let (_, outcome) = conv_round(config, users, users ^ mu as u64);
            let timing = outcome.timing();
            let measured = timing.total.as_secs_f64();
            let forward: f64 = timing.forward.iter().map(|d| d.as_secs_f64()).sum();

            // Kernel-floor time at our scale, to expose the end-to-end
            // overhead factor the paper reports as ≈2×; then the paper's
            // hardware at 100× the size under that measured overhead.
            let dh_only = local.predict_conversation_secs(users, mu, 3);
            let overhead = measured / dh_only;
            overheads.push(overhead);
            let scaled = paper.with_overhead(overhead);
            let paper_est = scaled.predict_conversation_secs(users * SCALE, mu * SCALE as f64, 3);
            #[rustfmt::skip]
            sheet.row(&[
                ("users (x100)", "users_scaled", json!(users), users.to_string()),
                ("mu (x100)", "mu_scaled", json!(mu), format!("{mu:.0}")),
                ("measured", "measured_secs", json!(measured), secs(measured)),
                ("model", "dh_model_secs", json!(dh_only), secs(dh_only)),
                ("overhead", "overhead", json!(overhead), format!("{overhead:.2}x")),
                ("paper-scale est.", "paper_scale_est_secs", json!(paper_est), secs(paper_est)),
                ("", "total_forward_secs", json!(forward), String::new()),
            ]);
        }
    }

    sheet.print("Figure 9 (1:100 scale): conversation latency vs online users");
    let mean_overhead = overheads.iter().sum::<f64>() / overheads.len() as f64;
    println!(
        "\nmean end-to-end overhead over pure DH cost: {mean_overhead:.2}x \
         (paper: \"within 2x of the inevitable cryptographic operations\")"
    );

    let paper = paper.with_overhead(mean_overhead);
    let mut headline = Table::new(&["configuration", "paper reports", "our model"]);
    for (configuration, reported, users) in [
        ("1M users, mu=300K", "37 s", 1_000_000),
        ("2M users, mu=300K", "55 s", 2_000_000),
        ("10 users, mu=300K (noise floor)", "20 s", 10),
    ] {
        let ours = secs(paper.predict_conversation_secs(users, PAPER_MU, 3));
        headline.row(&[configuration.into(), reported.into(), ours]);
    }
    headline.print("Paper-scale headline latencies");

    json!({
        "scale": SCALE, "points": sheet.rows, "mean_overhead": mean_overhead,
        "probe_peels_per_sec_core": local.peels_per_sec_core,
        "probe_layers_per_sec_core": local.layers_per_sec_core,
    })
}

/// Figure 10: dialing-round latency vs online users, 1:100 of the
/// paper's sweep (10 → 2M users, 13 s → 50 s): 5% of users dial each
/// round, µ = 13,000 per drop, one invitation drop (§7).
fn fig10_dial_latency(setup: &Setup) -> Value {
    const SCALE: u64 = 100;
    const DIAL_FRACTION: f64 = 0.05;
    const DROPS: u32 = 1;
    let mu = PAPER_DIAL_MU / SCALE as f64;
    let local = setup.model.with_overhead(1.0);
    let paper = CostModel::paper_hardware();
    let mut sheet = Sheet::default();
    let mut overheads = Vec::new();

    for &users in setup.users_scaled() {
        let dialers = ((users as f64) * DIAL_FRACTION).round() as u64;
        let mut chain = Chain::new(system(3, NoiseMode::Deterministic, 1.0, mu), 1);
        let measured = dial_round(&mut chain, users, dialers, DROPS, users);

        let dh_only = local.predict_dialing_secs(users, mu, DROPS, 3);
        let overhead = measured / dh_only;
        overheads.push(overhead);
        let scaled = paper.with_overhead(overhead);
        let paper_est = scaled.predict_dialing_secs(users * SCALE, PAPER_DIAL_MU, DROPS, 3);
        #[rustfmt::skip]
        sheet.row(&[
            ("users (x100)", "users_scaled", json!(users), users.to_string()),
            ("dialers", "dialers", json!(dialers), dialers.to_string()),
            ("measured", "measured_secs", json!(measured), secs(measured)),
            ("model", "dh_model_secs", json!(dh_only), secs(dh_only)),
            ("overhead", "overhead", json!(overhead), format!("{overhead:.2}x")),
            ("paper-scale est.", "paper_scale_est_secs", json!(paper_est), secs(paper_est)),
        ]);
    }
    sheet.print("Figure 10 (1:100 scale): dialing latency vs online users (5% dialing)");

    // In the paper's Figure 10 "the conversation protocol is running
    // concurrently with µ=300,000": dialing contends with ~1.2M noise
    // requests for the same CPUs. These runs have no such load, so it
    // is modelled as an additive constant *fitted at the 10-user
    // endpoint* (13 s, where dialing's own work is negligible) from
    // which the 2M-user endpoint is then *predicted*.
    let paper_secs = |users| paper.predict_dialing_secs(users, PAPER_DIAL_MU, DROPS, 3);
    let contention = 13.0 - paper_secs(10);
    println!(
        "\nconcurrent-conversation contention fitted at 10 users: {contention:.1} s\n\
         paper endpoints: 13 s at 10 users, 50 s at 2M users\n\
         our model:       13.0 s (fitted) at 10 users, {} (predicted) at 2M users",
        secs(paper_secs(2_000_000) + contention),
    );

    json!({
        "scale": SCALE, "mu_scaled": mu, "dial_fraction": DIAL_FRACTION, "points": sheet.rows,
        "mean_overhead": overheads.iter().sum::<f64>() / overheads.len() as f64,
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
    let local = setup.model.with_overhead(1.0);
    let paper = CostModel::paper_hardware();
    let mut sheet = Sheet::default();
    let mut measurements = Vec::new();

    for n in 1..=longest {
        let config = system(n, NoiseMode::Deterministic, mu, 1.0);
        let (_, outcome) = conv_round(config, users, n as u64);
        let measured = outcome.timing().total.as_secs_f64();
        measurements.push(measured);
        let dh_only = local.predict_conversation_secs(users, mu, n);
        let scaled = paper.with_overhead(measured / dh_only);
        let paper_est = scaled.predict_conversation_secs(1_000_000, PAPER_MU, n);
        #[rustfmt::skip]
        sheet.row(&[
            ("servers", "servers", json!(n), n.to_string()),
            ("measured", "measured_secs", json!(measured), secs(measured)),
            ("model", "dh_model_secs", json!(dh_only), secs(dh_only)),
            ("paper-scale est.", "paper_scale_est_secs", json!(paper_est), secs(paper_est)),
        ]);
    }

    sheet.print("Figure 11 (1:300 scale): latency vs servers, 1M-user equivalent");
    println!(
        "\nshape: 1→{longest} servers grew latency {:.1}x \
         (linear would be {:.1}x, quadratic {:.1}x)",
        measurements[longest - 1] / measurements[0],
        longest as f64,
        (longest * longest) as f64
    );

    json!({ "scale": SCALE, "users_scaled": users, "mu_scaled": mu, "points": sheet.rows })
}

/// Total bytes one conversation round moves across the three chain
/// links, both directions, at the paper's µ: link `hop` carries the
/// users' requests plus the noise of every server before it, and an
/// equal number of replies — counted like the link meters do.
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
/// small real deployment, read the byte meters, verify they match the
/// closed-form per-message sizes, then evaluate the closed forms at
/// paper scale.
fn tab_bandwidth(_: &Setup) -> Value {
    // --- Small real deployment to validate the closed forms. ---
    let users: u64 = 500;
    let config = system(3, NoiseMode::Deterministic, 200.0, 50.0);
    let (mut chain, outcome) = conv_round(config, users, 9);
    let replies = outcome.replies().expect("a conversation round");

    let expected_request = (EXCHANGE_REQUEST_LEN + 3 * onion::LAYER_OVERHEAD) as u64;
    let expected_reply = (SEALED_MESSAGE_LEN + 3 * onion::REPLY_LAYER_OVERHEAD) as u64;
    let sent = chain.client_link().forward_meter().bytes();
    let received = chain.client_link().backward_meter().bytes();
    assert_eq!(sent, users * expected_request, "request closed form");
    assert_eq!(received, users * expected_reply, "reply closed form");
    let (request_size, reply_size) = (sent / users, replies[0].len() as u64);
    assert_eq!(reply_size, expected_reply, "replies are as wide as metered");

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
    validation.print("Meter validation at small scale (3-server chain)");

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

/// Throughput table (§1, §8.2 headline numbers) and the baseline
/// comparison: Vuvuzela's O(n) total bytes against the Dissent-style
/// broadcast baseline's O(n²) — the crossover that caps broadcast
/// systems at a few thousand users (§1: "100× higher than prior
/// systems").
fn tab_throughput(setup: &Setup) -> Value {
    let local = setup.model;
    let paper = CostModel::paper_hardware(); // 340K DH ops/s, overhead 2×

    let mut headline = Sheet::default();
    for (name, claim, users) in [
        ("latency @1M users", "37 s", 1_000_000),
        ("latency @2M users", "55 s", 2_000_000),
        ("latency @10 users (noise floor)", "20 s", 10),
    ] {
        let hw = paper.predict_conversation_secs(users, PAPER_MU, 3);
        let host = local.predict_conversation_secs(users, PAPER_MU, 3);
        #[rustfmt::skip]
        headline.row(&[
            ("metric", "metric", json!(name), name.into()),
            ("paper reports", "paper", json!(claim), claim.into()),
            ("model (paper hw)", "paper_hw_secs", json!(hw), secs(hw)),
            ("model (this host)", "this_host_secs", json!(host), secs(host)),
        ]);
    }
    headline.print("Headline latencies (overhead 2x, as the paper observes)");

    let mut tp = Table::new(&["users", "paper msgs/sec", "model msgs/sec"]);
    for (label, reported, users) in [("1M", "68,000", 1_000_000), ("2M", "84,000", 2_000_000)] {
        let ours = paper.throughput_msgs_per_sec(users, PAPER_MU, 3);
        tp.row(&[label.into(), reported.into(), format!("{ours:.0}")]);
    }
    tp.print("Conversation throughput");

    println!(
        "\n§8.2 DH lower bound @2M users: paper ≈28 s, our arithmetic {} \
         (3.2M msgs × 3 servers / 340K ops/s)",
        secs(paper.paper_lower_bound_secs(2_000_000, PAPER_MU, 3))
    );

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
            ("Vuvuzela bytes/round (O(n))", "vuvuzela_bytes", json!(v), human_bytes(v as f64)),
            ("broadcast bytes/round (O(n^2))", "broadcast_bytes", json!(b), human_bytes(b as f64)),
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

    json!({
        "headlines": headline.rows, "scaling": scaling.rows, "crossover_users": crossover,
        "local_peels_per_sec_core": local.peels_per_sec_core,
        "local_layers_per_sec_core": local.layers_per_sec_core,
    })
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
        let (_, outcome) = conv_round(config, users, 5);
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
            ("measured round", "measured_secs", json!(measured), secs(measured)),
            ("honest-server eps/round", "eps_per_round", json!(eps), format!("{eps:.4}")),
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

/// Attack demonstration (§2.1, §4.2, Figure 2): three traffic-analysis
/// attacks against the no-noise mixnet and against Vuvuzela's noise —
/// empirical accuracy beside the DP ceiling — plus the §6.4 posterior
/// table.
fn attack_demo(_: &Setup) -> Value {
    let mut rng = StdRng::seed_from_u64(2015);
    let trials = 4_000;
    // The no-noise mixnet, then Vuvuzela.
    let models = [
        (NoiseDistribution::new(1.0, 1.0), NoiseMode::Off),
        (NoiseDistribution::new(1_000.0, 50.0), NoiseMode::Sampled),
    ]
    .map(|(noise, mode)| ObservableModel {
        noising_servers: 2,
        noise,
        mode,
    });
    let round = conversation_round(1_000.0, 50.0);
    let bound = max_accuracy(round.epsilon, round.delta);

    let attack = IntersectionAttack { window: 5 };
    let intersection = models.map(|m| attack.evaluate(&mut rng, &m, 5, trials));
    let disruption = models.map(|m| DisruptionAttack::evaluate(&mut rng, &m, trials));
    let disclosure =
        models.map(|m| StatisticalDisclosureAttack::evaluate(&mut rng, &m, 40, trials / 10));

    let mut table = Table::new(&[
        "attack",
        "no-noise accuracy",
        "Vuvuzela accuracy",
        "DP ceiling (1 round)",
    ]);
    let ceiling = format!("{bound:.3}");
    #[rustfmt::skip]
    let rows = [
        ("intersection (offline diff)", intersection, ceiling.as_str()),
        ("disruption (keep Alice+Bob)", disruption, ceiling.as_str()),
        ("statistical disclosure (40 rounds)", disclosure, "n/a (multi-round)"),
    ];
    for (name, accuracy, ceiling) in rows {
        let [plain, noised] = accuracy.map(|a| format!("{a:.3}"));
        table.row(&[name.into(), plain, noised, ceiling.into()]);
    }
    table.print("Attack accuracy: no-noise mixnet vs Vuvuzela (µ=1000, b=50 per server)");
    println!(
        "\n1.0 = adversary always right, 0.5 = coin flip. Vuvuzela's noise\n\
         reduces every attack to ≈0.5, within the DP ceiling."
    );

    // §6.4 posterior-belief table.
    let ln2 = core::f64::consts::LN_2;
    let ln3 = 3.0f64.ln();
    let mut posterior = Table::new(&["prior", "ε", "posterior (paper)", "posterior (ours)"]);
    for (prior, eps, paper) in [(0.50, ln2, "67%"), (0.50, ln3, "75%"), (0.01, ln3, "3%")] {
        posterior.row(&[
            format!("{:.0}%", prior * 100.0),
            format!("{eps:.3}"),
            paper.into(),
            format!("{:.1}%", posterior_bound(prior, eps) * 100.0),
        ]);
    }
    posterior.print("§6.4 posterior beliefs after observing Vuvuzela");

    let pair = |[plain, noised]: [f64; 2]| json!({ "no_noise": plain, "vuvuzela": noised });
    json!({
        "trials": trials, "dp_ceiling_one_round": bound, "intersection": pair(intersection),
        "disruption": pair(disruption), "disclosure": pair(disclosure),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vuvuzela_bench::report::workspace_root;

    /// The two analytic figures (no chain round) run in-process, and
    /// what each returns lands in its artefact.
    #[test]
    fn analytic_figures_write_their_json() {
        let setup = Setup::new(true);
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
}
