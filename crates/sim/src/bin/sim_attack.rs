//! Runs the attack matrix — a twin-world distinguisher trained on each
//! run's adversary view, less the noise of the servers the row's
//! attacker owns, and graded against the composed (ε′, δ′) bound that
//! view reports — and writes the JSON verdicts plus one sample
//! twin-transcript pair per deployment to an output directory.
//!
//! Four deployments run once each, and every attacker on a deployment is
//! graded on its runs. The honest deployment (µ = 200, b = 40) carries
//! four rows: `honest_sampled` (a passive attacker), `honest_hop0` and
//! `honest_hop1` (the paper's attacker that owns every server but one
//! noising hop, §2.3) and `all_compromised_control`, which owns both
//! noising servers. The negative-control deployments
//! `noise_off_control` and `undersized_mu_control` carry a passive row
//! each, and `disruption_honest_hop1` (§4.2: the owned first server also
//! drops every request but the target pair's) one row that owns server
//! 0. A deployment's scenarios and transcripts take its first row's name.
//! Each world's first held-out seed also runs over the wire
//! (`Simulator::over_wire`), and a deployment whose wire twin differs
//! from its in-process run fails with "the wire twin's … differs".
//!
//! ```text
//! sim_attack [--full] [OUT_DIR]
//! ```
//!
//! * `OUT_DIR` defaults to `sim_results/attack`.
//! * `--full` runs more seed pairs per deployment (tighter Hoeffding
//!   slack, minutes of CPU). Default is the smoke scale CI runs.
//!
//! Artefacts:
//!
//! * `verdicts.json` — an array of per-row verdict objects:
//!   `{name, control, expect_within_bound, trials, accuracy,
//!   advantage, threshold, talking_above, epsilon, delta, bound,
//!   slack, within_bound, exceeds_bound, passed}`. The passive rows
//!   come first, then the rows whose attacker owns servers, each group
//!   in matrix order.
//! * `transcript_<deployment>_talking.txt` /
//!   `transcript_<deployment>_idle.txt` — the first held-out seed's twin
//!   pair, for inspection.
//!
//! Exit status is non-zero if a deployment's run or wire twin fails, or
//! if any row fails its gate: an honest row's
//! held-out advantage (plus slack) escaping the bound, or a negative
//! control (noise off, undersized µ, every noising server owned)
//! *failing to beat* the bound it falsely claims.

use vuvuzela_sim::{attack_matrix, run_deployment};

fn main() {
    let (scale, out_dir) = vuvuzela_sim::bin_args("sim_attack", "sim_results/attack");

    let mut rows = Vec::new();
    let mut failed = false;
    for deployment in attack_matrix(scale) {
        let name = deployment.name();
        let outcome = match run_deployment(&deployment) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("[sim-attack] {name}: RUN FAILED: {e}");
                failed = true;
                continue;
            }
        };
        std::fs::write(
            format!("{out_dir}/transcript_{name}_talking.txt"),
            outcome.sample_talking.transcript.render(),
        )
        .expect("write talking transcript");
        std::fs::write(
            format!("{out_dir}/transcript_{name}_idle.txt"),
            outcome.sample_idle.transcript.render(),
        )
        .expect("write idle transcript");
        let graded = deployment.attackers.iter();
        rows.extend(graded.map(|a| (!a.compromised.is_empty(), outcome.grade(a))));
    }
    rows.sort_by_key(|&(owns_servers, _)| owns_servers);

    let mut verdicts = Vec::new();
    for (_, v) in &rows {
        println!(
            "[sim-attack] {}: {} trials, accuracy {:.4}, advantage {:.4} \
             (slack {:.4}) vs bound {:.4} (eps {:.4}, delta {:.3e}) -> {}",
            v.name,
            v.trials,
            v.accuracy,
            v.advantage,
            v.slack,
            v.bound,
            v.epsilon,
            v.delta,
            if v.passed { "pass" } else { "FAIL" }
        );
        if !v.passed {
            if v.expect_within_bound {
                eprintln!(
                    "[sim-attack] {}: DETECTOR BEAT THE HONEST BOUND \
                     (advantage {:.4} + slack {:.4} > {:.4})",
                    v.name, v.advantage, v.slack, v.bound
                );
            } else {
                eprintln!(
                    "[sim-attack] {}: NEGATIVE CONTROL FAILED TO TRIP \
                     (advantage {:.4} <= bound {:.4} — the harness lost its teeth)",
                    v.name, v.advantage, v.bound
                );
            }
            failed = true;
        }
        verdicts.push(v.to_json());
    }
    let json =
        serde_json::to_string_pretty(&serde_json::Value::Array(verdicts)).expect("render verdicts");
    std::fs::write(format!("{out_dir}/verdicts.json"), json).expect("write verdicts");
    if failed {
        std::process::exit(1);
    }
}
