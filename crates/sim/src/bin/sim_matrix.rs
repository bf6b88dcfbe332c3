//! Runs the bundled deployment-scenario matrix and writes each
//! scenario's canonical transcript (plus a hash manifest) to an output
//! directory.
//!
//! ```text
//! sim_matrix [--full] [OUT_DIR]
//! ```
//!
//! * `OUT_DIR` defaults to `sim_results/matrix`.
//! * `--full` runs [`vuvuzela_sim::Scale::Full`] — hundreds-to-thousands
//!   of clients and the paper's µ = 13,000-per-drop dial storm (minutes
//!   of CPU). Default is [`vuvuzela_sim::Scale::Smoke`], the reduced
//!   matrix CI runs.
//!
//! Every scenario is executed **twice in-process** and the two
//! transcripts are asserted byte-identical before anything is written —
//! the same-seed determinism contract. CI additionally runs the whole
//! binary twice and diffs the output directories, pinning stability
//! across processes.
//!
//! Exit status is non-zero if any invariant fails or any transcript is
//! unstable.

use vuvuzela_sim::{bundled_matrix, run_scenario};

fn main() {
    let (scale, out_dir) = vuvuzela_sim::bin_args("sim_matrix", "sim_results/matrix");

    let mut manifest = String::new();
    let mut failed = false;
    for scenario in bundled_matrix(scale) {
        let name = scenario.name.clone();
        let first = match run_scenario(&scenario) {
            Ok(report) => report,
            Err(err) => {
                eprintln!("[sim-matrix] {name}: INVARIANT FAILURE: {err}");
                failed = true;
                continue;
            }
        };
        let second = run_scenario(&scenario).expect("second run of a passing scenario");
        if first.transcript.render() != second.transcript.render() {
            eprintln!("[sim-matrix] {name}: NON-DETERMINISTIC TRANSCRIPT");
            failed = true;
            continue;
        }
        println!(
            "[sim-matrix] {name}: {} rounds, {} aborted schedule(s), {} delivered, hash {}",
            first.rounds_completed, first.schedules_aborted, first.delivered, first.hash
        );
        let path = format!("{out_dir}/transcript_{name}.txt");
        std::fs::write(&path, first.transcript.render()).expect("write transcript");
        manifest.push_str(&format!("{}  {name}\n", first.hash));
    }
    std::fs::write(format!("{out_dir}/TRANSCRIPTS.sha256"), manifest).expect("write manifest");
    if failed {
        std::process::exit(1);
    }
}
