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
//! Every scenario runs twice: in process ([`vuvuzela_sim::run_scenario`],
//! `Chain::run`'s seeded schedule) and over the wire
//! ([`vuvuzela_sim::run_scenario_over_wire`]: the node loops on threads
//! over loopback TCP, the taps on the sockets' links). The wire twin's
//! transcript must be byte-identical, and every completed round's public
//! record equal ([`vuvuzela_sim::SimReport::twin_mismatch`]), before
//! anything is written. The in-process run is what is written; CI runs
//! the whole binary twice and diffs the output directories, pinning its
//! determinism across processes.
//!
//! Exit status is non-zero if any invariant fails or a wire twin
//! differs.

use vuvuzela_sim::{bundled_matrix, run_scenario, run_scenario_over_wire};

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
        let wire = run_scenario_over_wire(&scenario).expect("the wire twin of a passing scenario");
        if let Some(what) = first.twin_mismatch(&wire) {
            eprintln!("[sim-matrix] {name}: THE WIRE TWIN'S {what} DIFFERS");
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
