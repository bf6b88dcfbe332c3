//! What one run of one workload reports, and how it is printed.

use crate::metrics::unit_of;
use crate::stats::{median, supported_tail};
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// What an untraced run measured over its window, besides the requests it
/// attempted.
pub struct Measured<'a> {
    /// Seconds each complete set-up took.
    pub setups_s: &'a [f64],
    /// Seconds from admission to outcome, per measured round.
    pub latencies_s: &'a [f64],
    /// Wall seconds of the window's timed sections.
    pub wall_s: f64,
    /// Process CPU seconds over the same sections.
    pub cpu_s: f64,
    /// Bytes over every link per client request.
    pub link_bytes_per_onion: f64,
    /// `VmHWM` when the window ended.
    pub peak_rss_mib: f64,
}

/// The outcome of one run of one workload.
#[derive(Debug, Default)]
pub struct Report {
    /// Client requests attempted over the measured rounds.
    pub attempted: u64,
    /// Requests whose reply was missing, failed to verify, or belonged to
    /// an aborted or rejected round.
    pub failed: u64,
    /// Output checks that did not hold; empty on a correct run.
    pub failures: Vec<String>,
    /// Every metric of the run's kind (end-to-end, or per-layer when traced).
    pub metrics: Vec<(&'static str, f64)>,
    /// Ungated context printed beside the metrics: sample counts, the
    /// latency tail, machine facts.
    pub notes: BTreeMap<String, Value>,
}

impl Report {
    /// Records that an output check failed.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Checks a condition, recording `what` when it does not hold.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.failures.push(what());
        }
    }

    /// Whether every output check passed and no request failed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// Failed requests over requests attempted.
    #[must_use]
    pub fn failed_fraction(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line the driver reads: one JSON object on one line, every
    /// value with all the digits it was measured with.
    #[must_use]
    pub fn result_line(&self) -> String {
        compact(&json!({
            "correct": self.correct(),
            "attempted": self.attempted.max(1),
            "failed": self.failed,
            "metrics": self.metrics_json(),
        }))
    }

    fn metrics_json(&self) -> Value {
        let metrics: BTreeMap<String, Value> = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                assert!(value.is_finite(), "metric {name} is not a finite number");
                (
                    name.to_string(),
                    json!({ "value": value, "unit": unit_of(name) }),
                )
            })
            .collect();
        Value::Object(metrics)
    }

    /// Fills in the end-to-end metrics of an untraced run, and beside them
    /// the ungated notes every workload prints: rounds, window, the
    /// latency tail, the set-up samples.
    pub fn set_end_to_end(&mut self, measured: &Measured<'_>) {
        let requests = self.attempted as f64;
        self.metrics = vec![
            ("setup_s", median(measured.setups_s)),
            ("round_latency_p50_s", median(measured.latencies_s)),
            ("onions_per_s", requests / measured.wall_s),
            ("cpu_ms_per_onion", measured.cpu_s * 1e3 / requests),
            ("link_bytes_per_onion", measured.link_bytes_per_onion),
            ("peak_rss_mib", measured.peak_rss_mib),
        ];
        let (percentile, value) = match supported_tail(measured.latencies_s) {
            Some((percentile, value)) => (json!(percentile), json!(value)),
            None => (Value::Null, Value::Null),
        };
        let rounds = measured.latencies_s.len();
        self.notes.insert(
            "driver.round_latency_tail_s".into(),
            json!({ "samples": rounds, "percentile": percentile, "value": value }),
        );
        self.notes.insert("driver.rounds".into(), json!(rounds));
        self.notes
            .insert("driver.window_s".into(), json!(measured.wall_s));
        self.notes
            .insert("driver.setup_samples_s".into(), json!(measured.setups_s));
    }

    /// One line per metric and note, for a person.
    #[must_use]
    pub fn human(&self, workload: &str) -> String {
        let mut out = String::new();
        for &(name, value) in &self.metrics {
            out.push_str(&format!(
                "{workload:13} {name:38} {value:>16.6} {}\n",
                unit_of(name)
            ));
        }
        out.push_str(&format!(
            "{workload:13} {:38} {:>16.6} ratio ({} of {} requests)\n",
            "failed_fraction",
            self.failed_fraction(),
            self.failed,
            self.attempted
        ));
        for (name, value) in &self.notes {
            out.push_str(&format!("{workload:13} note {name} = {}\n", compact(value)));
        }
        for failure in &self.failures {
            out.push_str(&format!("{workload:13} CHECK FAILED: {failure}\n"));
        }
        out
    }

    /// The report as a JSON document, for `benchmark/out/`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_fraction": self.failed_fraction(),
            "failures": self.failures.clone(),
            "metrics": self.metrics_json(),
            "notes": Value::Object(self.notes.clone()),
        })
    }
}

/// `value` as JSON on one line.
#[must_use]
pub fn compact(value: &Value) -> String {
    match value {
        Value::Array(items) => {
            let items: Vec<String> = items.iter().map(compact).collect();
            format!("[{}]", items.join(", "))
        }
        Value::Object(map) => {
            let fields: Vec<String> = map
                .iter()
                .map(|(key, value)| {
                    format!("{}: {}", compact(&json!(key.as_str())), compact(value))
                })
                .collect();
            format!("{{{}}}", fields.join(", "))
        }
        // Scalars render on one line already.
        scalar => serde_json::to_string_pretty(scalar).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_json_stays_on_one_line_and_parses_back() {
        let value = json!({ "a": [1, 2.5, null], "b": { "c": "d\"e" } });
        let line = compact(&value);
        assert!(!line.contains('\n'));
        assert_eq!(serde_json::from_str(&line).expect("valid JSON"), value);
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let report = Report {
            attempted: 1000,
            failed: 0,
            metrics: vec![("setup_s", 0.812_734_5), ("onions_per_s", 1234.0)],
            ..Report::default()
        };
        let line = report.result_line();
        assert!(!line.contains('\n'));
        let parsed = serde_json::from_str(&line).expect("valid JSON");
        let Value::Object(map) = &parsed else {
            panic!("an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed["correct"], Value::Bool(true));
        assert_eq!(
            parsed["metrics"]["setup_s"]["value"].as_f64(),
            Some(0.812_734_5)
        );
        assert_eq!(
            parsed["metrics"]["onions_per_s"]["unit"].as_str(),
            Some("1/s")
        );
    }

    #[test]
    fn a_failed_check_or_request_makes_the_run_incorrect() {
        let mut report = Report {
            attempted: 10,
            ..Report::default()
        };
        assert!(report.correct());
        report.check(false, || "replies differ".to_string());
        assert!(!report.correct());
        let report = Report {
            attempted: 10,
            failed: 1,
            ..Report::default()
        };
        assert!(!report.correct());
        assert_eq!(report.failed_fraction(), 0.1);
    }
}
