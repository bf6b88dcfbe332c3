//! Where the bench binaries write: under the workspace root, however
//! they are started. A bare binary run from another directory, without
//! cargo's environment, must leave that directory alone.

use std::process::{Command, Stdio};
use vuvuzela_bench::report::workspace_root;

#[test]
fn a_bare_figures_run_writes_nothing_where_it_runs() {
    let dir = std::env::temp_dir().join(format!("vuvuzela-bench-cwd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temporary directory");
    let status = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("tab_posterior")
        .current_dir(&dir)
        .env_remove("CARGO_MANIFEST_DIR")
        .stdout(Stdio::null())
        .status()
        .expect("figures starts");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .expect("temporary directory readable")
        .map(|entry| entry.expect("directory entry").file_name())
        .collect();
    std::fs::remove_dir_all(&dir).expect("temporary directory removed");
    assert!(status.success(), "figures tab_posterior: {status}");
    assert!(left.is_empty(), "figures wrote {left:?} where it ran");
    let artefact = workspace_root().join("bench_results/tab_posterior.json");
    assert!(artefact.is_file(), "{} written", artefact.display());
}
