//! Order statistics for samples, and the operating-system counters the
//! end-to-end metrics read.

/// The median of `values`.
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least once.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The three quartiles, computed like Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method),
/// which is what the acceptance rule for this benchmark uses.
///
/// # Panics
///
/// Panics on fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let cut = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, clamped to the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    [cut(1), cut(2), cut(3)]
}

/// Distance between the first and third quartile as a share of the median.
#[must_use]
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// The percentiles a latency tail may be reported at, lowest first, in
/// tenths of a percent (whole numbers, so ranks are exact).
const TAIL_PER_MILLE: [usize; 5] = [750, 900, 950, 990, 999];

/// The highest percentile that still has at least ten samples beyond it,
/// and its value: `None` below 40 samples, where not even the 75th has.
#[must_use]
pub fn supported_tail(samples: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_PER_MILLE.iter().rev().find_map(|&per_mille| {
        let rank = (per_mille * n).div_ceil(1000);
        (rank >= 1 && n - rank >= 10).then(|| (per_mille as f64 / 10.0, sorted[rank - 1]))
    })
}

/// Linux reports process CPU time in clock ticks of 1/100 s (`USER_HZ`,
/// fixed at 100 on every architecture this repository targets).
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds this process (all threads, including ones
/// that already exited) has used, from `/proc/self/stat`.
#[must_use]
pub fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_name.split_whitespace().skip(11);
    let ticks = |field: Option<&str>| field.and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    let utime = ticks(fields.next());
    let stime = ticks(fields.next());
    (utime + stime) / CLOCK_TICKS_PER_SECOND
}

/// The process's peak resident set size (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<f64>>();
        assert_eq!(supported_tail(&samples(39)), None);
        // 40 samples: the 75th percentile is sample 30, ten lie beyond.
        assert_eq!(supported_tail(&samples(40)), Some((75.0, 30.0)));
        // 100 samples: p90 has exactly ten beyond it, p95 only five.
        assert_eq!(supported_tail(&samples(100)), Some((90.0, 90.0)));
        assert_eq!(supported_tail(&samples(200)), Some((95.0, 190.0)));
        assert_eq!(supported_tail(&samples(1000)), Some((99.0, 990.0)));
        assert_eq!(supported_tail(&samples(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn os_counters_read_as_positive_numbers() {
        // Burn a little CPU so the tick counter cannot still be zero.
        let mut x = 0u64;
        while process_cpu_seconds() == 0.0 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(peak_rss_mib() > 0.0);
    }
}
