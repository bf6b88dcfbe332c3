//! Records the compiler and the flags this benchmark (and with it the
//! program it measures) was built with, so every result can say so.

use std::process::Command;

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |output| String::from_utf8_lossy(&output.stdout).trim().to_string(),
        );
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    // The flags in effect, `.cargo/config.toml` of the repository included.
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    println!(
        "cargo:rustc-env=BENCH_RUSTFLAGS={}",
        flags.replace('\x1f', " ")
    );
}
