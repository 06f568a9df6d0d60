//! Shared helpers for the experiment binaries.
//!
//! Every figure of the paper has one entry point, a binary
//! (`cargo run -p mra-bench --release --bin figN`) that runs the full
//! sweep, prints the paper-style table and writes CSV to
//! `target/experiments/`.  Performance is measured by `perfbench/` (see
//! `BENCHMARK.json`), not here.
//!
//! Set `MRA_FAST=1` or `MRA_MEASURE_SECS=<s>` to shrink simulation windows.

use std::path::PathBuf;

/// Directory where experiment CSVs are written.
pub fn experiments_dir() -> PathBuf {
    // target/ relative to the workspace root regardless of cwd.
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(target).join("experiments")
}

/// Write a table as CSV under [`experiments_dir`], reporting the path.
pub fn save_csv(table: &mra_workloads::Table, name: &str) {
    let path = experiments_dir().join(name);
    match table.write_csv(&path) {
        Ok(()) => println!("[csv] wrote {}", path.display()),
        Err(e) => eprintln!("[csv] FAILED to write {}: {e}", path.display()),
    }
}
