//! Figure 8: ε′ and δ′ after k dialing rounds.
//!
//! Regenerates Figure 8 for the paper's three dialing noise
//! configurations (µ = 8K/13K/20K). The paper prints "b=7700" for the
//! middle configuration — an evident typo for 770 (it matches neither
//! the stated coverage nor the µ:b ratio of its neighbours); we use
//! 770.
//!
//! Run: `cargo run --release -p vuvuzela-bench --bin fig8_dial_privacy`

use vuvuzela_bench::report::{write_json, Table};
use vuvuzela_dp::planner::{max_protected_rounds, privacy_series, PrivacyTarget};
use vuvuzela_dp::Protocol;

fn main() {
    let configs = [(8_000.0, 500.0), (13_000.0, 770.0), (20_000.0, 1_130.0)];
    // The paper plots k from 1,000 to 16,000.
    let ks: Vec<u64> = (0..=16)
        .map(|i| (1_000.0 * (16.0f64).powf(f64::from(i) / 16.0)) as u64)
        .collect();

    let mut table = Table::new(&[
        "k",
        "e^eps' (mu=8K)",
        "delta' (8K)",
        "e^eps' (13K)",
        "delta' (13K)",
        "e^eps' (20K)",
        "delta' (20K)",
    ]);
    let series: Vec<_> = configs
        .iter()
        .map(|&(mu, b)| privacy_series(Protocol::Dialing, mu, b, &ks, 1e-5))
        .collect();
    for (i, &k) in ks.iter().enumerate() {
        let mut cells = vec![k.to_string()];
        for s in &series {
            cells.push(format!("{:.3}", s[i].e_epsilon));
            cells.push(format!("{:.2e}", s[i].delta));
        }
        table.row(&cells);
    }
    table.print("Figure 8: privacy vs number of dialing rounds (d = 1e-5)");

    let mut summary = Table::new(&["mu", "b", "max k @ (ln 2, 1e-4)", "paper claims"]);
    let paper_claims = [1_200u64, 3_500, 8_000];
    let mut json_rows = Vec::new();
    for (&(mu, b), &claim) in configs.iter().zip(paper_claims.iter()) {
        let k = max_protected_rounds(Protocol::Dialing, mu, b, PrivacyTarget::default());
        summary.row(&[
            format!("{mu:.0}"),
            format!("{b:.0}"),
            k.to_string(),
            format!("≈{claim}"),
        ]);
        json_rows.push(serde_json::json!({
            "mu": mu, "b": b, "max_rounds": k, "paper_rounds": claim,
        }));
    }
    summary.print("Dialing rounds supported at ε' = ln 2, δ' = 1e-4 (paper §6.5)");
    println!(
        "\nnote: a user taking 5 calls/day needs k = 1800 for one year of\n\
         protection (§6.5) — covered by the µ=13K configuration."
    );

    write_json(
        "fig8_dial_privacy",
        &serde_json::json!({
            "ks": ks,
            "series": configs.iter().zip(series.iter()).map(|(&(mu, b), s)| {
                serde_json::json!({
                    "mu": mu, "b": b,
                    "points": s.iter().map(|p| serde_json::json!({
                        "k": p.k, "e_eps": p.e_epsilon, "delta": p.delta
                    })).collect::<Vec<_>>(),
                })
            }).collect::<Vec<_>>(),
            "summary": json_rows,
        }),
    );
}
