//! Serving sweep: open-loop Poisson arrivals through the admission queue
//! into each algorithm family on an 8-node × 16-resource cluster, with
//! offered load against goodput and arrival-keyed grant latency
//! (p50/p95/p99/p999) next to the issue-keyed p99 whose gap to it is the
//! coordinated-omission bias.  Every point must pass the serving layer's
//! conservation check, or the binary exits non-zero.
//!
//! ```text
//! cargo run -p mra-bench --release --bin fig_serve
//! ```
//!
//! `MRA_MEASURE_SECS` / `MRA_FAST` scale the simulated window as usual.

use mra_bench::save_csv;
use mra_workloads::experiments::{fig_serve, fig_serve_table, measure_secs_or};
use std::process::ExitCode;

fn main() -> ExitCode {
    let secs = measure_secs_or(2.0);
    eprintln!("fig_serve: 8 serving points at {secs}s per run");
    let t0 = std::time::Instant::now();
    let rows = match fig_serve(secs) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("fig_serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table = fig_serve_table(&rows);
    println!("{}", table.render());
    save_csv(&table, "fig_serve.csv");
    eprintln!("fig_serve: conservation holds on all {} points", rows.len());
    eprintln!("fig_serve done in {:?}", t0.elapsed());
    ExitCode::SUCCESS
}
