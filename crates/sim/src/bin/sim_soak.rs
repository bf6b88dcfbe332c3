//! Runs the adversarial soak matrix — every bundled scenario crossed
//! with every tampering strategy, under sampled noise — and writes
//! each case's transcript (plus a hash manifest) to an output
//! directory.
//!
//! ```text
//! sim_soak [--full] [OUT_DIR]
//! ```
//!
//! * `OUT_DIR` defaults to `sim_results/soak`.
//! * `--full` runs [`vuvuzela_sim::Scale::Full`] base scenarios
//!   (minutes of CPU). Default is [`vuvuzela_sim::Scale::Smoke`], the
//!   crossed matrix CI runs.
//!
//! Every case runs in tolerant mode: tampered rounds degrade instead
//! of wedging, and the tripped invariants are graded against the
//! case's survive/trip annotation ([`vuvuzela_sim::soak::
//! expected_trips`]). Each case runs twice: in process and over the
//! wire ([`vuvuzela_sim::run_soak_case_over_wire`]: the node loops on
//! threads over loopback TCP, the tampering tap on the socket's link).
//! The wire twin must trip exactly the invariants the in-process run
//! trips, and render the same transcript with the same public round
//! record ([`vuvuzela_sim::SimReport::twin_mismatch`]). The in-process
//! run is what is written.
//!
//! Exit status is non-zero if any case trips an undeclared invariant,
//! survives a declared one, or its wire twin differs.

use vuvuzela_sim::{run_soak_case, run_soak_case_over_wire, soak_matrix};

fn main() {
    let (scale, out_dir) = vuvuzela_sim::bin_args("sim_soak", "sim_results/soak");

    let mut manifest = String::new();
    let mut failed = false;
    for case in soak_matrix(scale) {
        let outcome = run_soak_case(&case);
        let name = &outcome.name;
        let wire = run_soak_case_over_wire(&case);
        let trips = (wire.tripped != outcome.tripped).then_some("tripped set");
        if let Some(what) = trips.or_else(|| outcome.report.twin_mismatch(&wire.report)) {
            eprintln!("[sim-soak] {name}: THE WIRE TWIN'S {what} DIFFERS");
            failed = true;
            continue;
        }
        let tripped: Vec<&str> = outcome.tripped.iter().copied().collect();
        println!(
            "[sim-soak] {name}: {} rounds, {} aborted schedule(s), {} violation(s), \
             tripped [{}], hash {}",
            outcome.report.rounds_completed,
            outcome.report.schedules_aborted,
            outcome.violations.len(),
            tripped.join(","),
            outcome.report.hash
        );
        if !outcome.passed() {
            if !outcome.unexpected.is_empty() {
                eprintln!(
                    "[sim-soak] {name}: UNDECLARED TRIP(S): {}",
                    outcome.unexpected.join(",")
                );
            }
            if !outcome.missing.is_empty() {
                eprintln!(
                    "[sim-soak] {name}: DECLARED BUT SURVIVED: {}",
                    outcome.missing.join(",")
                );
            }
            failed = true;
        }
        let path = format!("{out_dir}/transcript_{name}.txt");
        std::fs::write(&path, outcome.report.transcript.render()).expect("write transcript");
        manifest.push_str(&format!("{}  {name}\n", outcome.report.hash));
    }
    std::fs::write(format!("{out_dir}/TRANSCRIPTS.sha256"), manifest).expect("write manifest");
    if failed {
        std::process::exit(1);
    }
}
