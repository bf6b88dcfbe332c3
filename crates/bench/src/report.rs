//! Table printing and JSON artefacts for the figure/bench binaries.

use std::io::Write as _;
use std::path::PathBuf;

/// A simple fixed-width table printer for figure/table output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout under a title banner.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        print!("{}", self.render());
    }
}

/// Writes a JSON artefact to `bench_results/<name>.json` (relative to the
/// workspace root when run via cargo, else the current directory).
///
/// # Panics
///
/// Panics if the directory or file cannot be written — the harness treats
/// unrecordable results as a hard failure.
pub fn write_json(name: &str, value: &serde_json::Value) -> PathBuf {
    let dir = workspace_root().join("bench_results");
    std::fs::create_dir_all(&dir).expect("create bench_results/");
    let path = dir.join(format!("{name}.json"));
    let mut file = std::fs::File::create(&path).expect("create artefact file");
    file.write_all(
        serde_json::to_string_pretty(value)
            .expect("serialize")
            .as_bytes(),
    )
    .expect("write artefact");
    println!("[artefact] {}", path.display());
    path
}

/// The workspace root (resolved via `CARGO_MANIFEST_DIR` when run via
/// cargo, else the current directory) — where the committed `BENCH_*`
/// artefacts live.
#[must_use]
pub fn workspace_root() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| PathBuf::from(d).join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// Formats seconds the way the paper's figures label them.
#[must_use]
pub fn secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.1} s")
    } else {
        format!("{:.0} ms", s * 1e3)
    }
}

/// Formats a byte count the way the paper quotes them (KB/MB/GB as
/// powers of 10, matching "166 MB/sec" etc.).
#[must_use]
pub fn human_bytes(bytes: f64) -> String {
    if bytes >= 1e9 {
        format!("{:.2} GB", bytes / 1e9)
    } else if bytes >= 1e6 {
        format!("{:.2} MB", bytes / 1e6)
    } else if bytes >= 1e3 {
        format!("{:.2} KB", bytes / 1e3)
    } else {
        format!("{bytes:.0} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["users", "latency"]);
        t.row(&["10".into(), "20 s".into()]);
        t.row(&["2000000".into(), "55 s".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("users"));
        assert!(lines[3].contains("2000000"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(secs(37.0), "37.0 s");
        assert_eq!(secs(0.5), "500 ms");
    }

    #[test]
    fn human_units() {
        assert_eq!(human_bytes(12.0), "12 B");
        assert_eq!(human_bytes(12_000.0), "12.00 KB");
        assert_eq!(human_bytes(166_000_000.0), "166.00 MB");
        assert_eq!(human_bytes(12_000_000_000.0), "12.00 GB");
    }
}
