//! Runs the attack matrix — a twin-world distinguisher trained on each
//! run's adversary view and graded against the composed (ε′, δ′) bound
//! that view reports — and writes the JSON verdicts plus one sample
//! twin-transcript pair per case to an output directory.
//!
//! ```text
//! sim_attack [--full] [OUT_DIR]
//! ```
//!
//! * `OUT_DIR` defaults to `sim_results/attack`.
//! * `--full` runs more seed pairs per case (tighter Hoeffding slack,
//!   minutes of CPU). Default is the smoke scale CI runs.
//!
//! Artefacts:
//!
//! * `verdicts.json` — an array of per-case verdict objects:
//!   `{name, control, expect_within_bound, trials, accuracy,
//!   advantage, threshold, talking_above, epsilon, delta, bound,
//!   slack, within_bound, exceeds_bound, passed}`.
//! * `transcript_<case>_talking.txt` / `transcript_<case>_idle.txt` —
//!   the first held-out seed's twin pair, for inspection.
//!
//! Exit status is non-zero if any case fails its gate: the honest
//! deployment's held-out advantage (plus slack) escaping the bound, or
//! a negative control (noise off, undersized µ) *failing to beat* the
//! bound it falsely claims.

use vuvuzela_sim::{attack_matrix, run_attack_case};

fn main() {
    let (scale, out_dir) = vuvuzela_sim::bin_args("sim_attack", "sim_results/attack");

    let mut verdicts = Vec::new();
    let mut failed = false;
    for case in attack_matrix(scale) {
        let outcome = match run_attack_case(&case) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("[sim-attack] {}: RUN FAILED: {e}", case.name);
                failed = true;
                continue;
            }
        };
        let v = &outcome.verdict;
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
        let name = &v.name;
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
        verdicts.push(v.to_json());
    }
    let json =
        serde_json::to_string_pretty(&serde_json::Value::Array(verdicts)).expect("render verdicts");
    std::fs::write(format!("{out_dir}/verdicts.json"), json).expect("write verdicts");
    if failed {
        std::process::exit(1);
    }
}
